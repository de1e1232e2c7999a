"""Exact computation with the Takagi curve.

The curve T(x) = sum_n 2^-n dist(2^n x, Z) is continuous and nowhere
differentiable, yet everything this package does with it is exact rational
arithmetic: evaluation at rationals, the hump/Catalan combinatorics of its
self-similar pieces, the finite / countably infinite / uncountable
trichotomy for level sets L(y) = {x : T(x) = y} at rational ordinates
(with the preimages themselves when finite), sign-weighted generalizations,
and series/grid experiments for the average-case theory.

Quick tour::

    >>> from fractions import Fraction
    >>> import takagi
    >>> takagi.eval_rational(Fraction(1, 3))
    Fraction(2, 3)
    >>> takagi.classify(Fraction(1, 8)).preimages
    (Fraction(1, 48), Fraction(47, 48))

The ``takagi`` command line tool exposes the same operations; see the
README for the full grammar.
"""

from .curve import (
    ALL_PLUS,
    ALTERNATING,
    SignSequence,
    d_expression_residual,
    eval_approx,
    eval_dyadic,
    eval_rational,
    signed_constant,
    triangle_wave,
)
from .humps import (
    Hump,
    NotBalancedError,
    ROOT_HUMP,
    analyze_word,
    balanced_word_of,
    catalan,
    census,
    central_binomial,
    count_balanced,
    truncated_hits,
)
from .machine import (
    BudgetExceededError,
    LevelSetReport,
    StateGraph,
    Verdict,
    analyze,
    classify,
    close_graph,
    envelope_max,
    envelope_min,
    leftmost_preimage,
)
from .rationals import (
    BinaryExpansion,
    format_rational,
    ordinate_depth,
    parse_rational,
    to_binary,
)
from .signed import (
    SignedExtrema,
    eval_signed_rational,
    expected_local_window,
    first_passage,
    first_passages,
    signed_extrema,
    truncated_local_count,
)
from .stats import (
    GridReport,
    catalan_series_partial,
    expected_cardinality_series_partial,
    expected_local_series_partial,
    grid_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_PLUS",
    "ALTERNATING",
    "BinaryExpansion",
    "BudgetExceededError",
    "GridReport",
    "Hump",
    "LevelSetReport",
    "NotBalancedError",
    "ROOT_HUMP",
    "SignSequence",
    "SignedExtrema",
    "StateGraph",
    "Verdict",
    "analyze",
    "analyze_word",
    "balanced_word_of",
    "catalan",
    "catalan_series_partial",
    "census",
    "central_binomial",
    "classify",
    "close_graph",
    "count_balanced",
    "d_expression_residual",
    "envelope_max",
    "envelope_min",
    "eval_approx",
    "eval_dyadic",
    "eval_rational",
    "eval_signed_rational",
    "expected_cardinality_series_partial",
    "expected_local_series_partial",
    "expected_local_window",
    "first_passage",
    "first_passages",
    "format_rational",
    "grid_experiment",
    "leftmost_preimage",
    "ordinate_depth",
    "parse_rational",
    "signed_constant",
    "signed_extrema",
    "to_binary",
    "triangle_wave",
    "truncated_hits",
    "truncated_local_count",
    "__version__",
]
