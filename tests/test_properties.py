"""Property checks of classify on random supported ordinates (hypothesis).

The draws are derandomised and nothing is stored between runs, so every run
checks the same examples.  Ordinates have depth n <= 64: y = j / 2^k or
j / (3 * 2^k) with k <= 128, inside [0, 2/3] where L(y) is not empty.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from takagi.curve import eval_rational
from takagi.machine import Verdict, classify


@st.composite
def supported_ordinates(draw):
    k = draw(st.integers(min_value=0, max_value=128))
    den = draw(st.sampled_from((1, 3))) << k
    return Fraction(draw(st.integers(min_value=0, max_value=2 * den // 3)), den)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(supported_ordinates())
def test_classify_answers_are_checkable(y):
    report = classify(y)
    if report.verdict is Verdict.FINITE:
        preimages = report.preimages
        assert len(preimages) == report.cardinality
        assert all(eval_rational(x) == y for x in preimages)
        assert list(preimages) == sorted(set(preimages))
        assert preimages == tuple(sorted(1 - x for x in preimages))
        assert report.n_local <= report.cardinality
    elif report.verdict is Verdict.COUNTABLY_INFINITE:
        assert eval_rational(report.witness_preimage) == y
