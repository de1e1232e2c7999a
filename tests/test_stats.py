"""Catalan series partial sums and the dyadic-ordinate grid experiment."""

import dataclasses
from fractions import Fraction

import pytest

from takagi import stats
from takagi.machine import Verdict
from takagi.stats import (
    GridRow,
    catalan,
    catalan_series_partial,
    central_binomial,
    expected_cardinality_series_partial,
    expected_local_series_partial,
    grid_experiment,
)


def test_combinatorial_pins():
    assert [catalan(m) for m in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert central_binomial(4) == 70
    assert central_binomial(0) == 1


def test_series_partial_pins():
    assert catalan_series_partial(0, exact=True) == 1
    assert catalan_series_partial(1, exact=True) == Fraction(5, 4)
    assert expected_cardinality_series_partial(1, exact=True) == Fraction(9, 4)
    assert expected_local_series_partial(0, exact=True) == Fraction(3, 4)
    assert expected_local_series_partial(2, exact=True) == Fraction(33, 32)


def test_exact_and_float_paths_agree():
    for m in (0, 1, 2, 7, 16, 33, 64):
        for fn in (
            catalan_series_partial,
            expected_cardinality_series_partial,
            expected_local_series_partial,
        ):
            exact = fn(m, exact=True)
            approx = fn(m)
            assert abs(approx - float(exact)) <= 1e-12 * float(exact)


def test_series_monotone_and_bounded():
    prev = 0
    for m in range(0, 40):
        s = catalan_series_partial(m, exact=True)
        assert prev < s < 2
        prev = s
    # the local expectation stays below its limiting value of 3/2
    assert expected_local_series_partial(40, exact=True) < Fraction(3, 2)


# ---------------------------------------------------------------------------
# grid experiment


def test_grid_shape_and_counts_depth2():
    report = grid_experiment(2)
    assert len(report.rows) == 33
    assert report.verdict_counts == {
        "finite": 23,
        "countably-infinite": 8,
        "uncountable": 2,
        "indeterminate": 0,
    }
    assert report.finite_fraction == pytest.approx(23 / 33)
    assert report.mean_n_local == pytest.approx(24 / 23)
    assert report.cardinality_histogram == {2: 19, 4: 2, 8: 2}


def test_grid_fraction_cardinality_two_is_among_finite():
    report = grid_experiment(2)
    # 19 of the 23 finite rows have a two-point level set; the countable and
    # uncountable rows carry no cardinality and stay out of the denominator
    assert report.fraction_cardinality_two == pytest.approx(19 / 23)
    assert all(
        row.cardinality is None
        for row in report.rows
        if row.verdict is not Verdict.FINITE
    )


def test_grid_known_rows_depth2():
    report = grid_experiment(2)
    by_y = {row.ordinate: row for row in report.rows}
    assert by_y[Fraction(0)].verdict is Verdict.FINITE
    assert by_y[Fraction(0)].cardinality == 2
    assert by_y[Fraction(1, 2)].verdict is Verdict.COUNTABLY_INFINITE
    assert by_y[Fraction(2, 3)].verdict is Verdict.UNCOUNTABLE
    assert by_y[Fraction(13, 24)].verdict is Verdict.UNCOUNTABLE
    # the lone ordinate with two local level sets on this lattice
    special = by_y[Fraction(25, 48)]
    assert (special.index, special.cardinality, special.n_local) == (25, 8, 2)
    # rows are indexed in lattice order: y = index / (3 * 4^depth)
    for row in report.rows:
        assert row.ordinate == Fraction(row.index, 48)


def test_grid_depth1_counts():
    report = grid_experiment(1)
    assert len(report.rows) == 9
    assert report.verdict_counts == {
        "finite": 6,
        "countably-infinite": 2,
        "uncountable": 1,
        "indeterminate": 0,
    }


def test_grid_interior_cardinalities_even():
    report = grid_experiment(2)
    for row in report.rows:
        if row.cardinality is not None and 0 < row.ordinate < Fraction(2, 3):
            assert row.cardinality % 2 == 0


def test_grid_determinism():
    assert grid_experiment(2).rows == grid_experiment(2).rows


def test_grid_calls_classify_once_per_row(monkeypatch):
    """Each grid row is one count-only call through the name ``stats.classify``
    (a timing hook may wrap that name): 2 * 4^3 + 1 calls at depth 3."""
    calls = []
    inner = stats.classify

    def counting(*args, **kwargs):
        calls.append(kwargs.get("listing", True))
        return inner(*args, **kwargs)

    monkeypatch.setattr(stats, "classify", counting)
    report = grid_experiment(3)
    assert calls == [False] * report.ordinate_count
    assert report.ordinate_count == 2 * 4**3 + 1


def test_grid_rows_keep_the_dataclass_contract():
    """The rows grid_experiment builds are the frozen dataclass its
    constructor builds: equal to ``GridRow(**fields)`` from the same
    fields, with the same repr and attributes, raising FrozenInstanceError
    on assignment, and ``dataclasses.replace`` copies and edits them."""
    for row in grid_experiment(2).rows:
        fields = {f.name: getattr(row, f.name) for f in dataclasses.fields(row)}
        built = GridRow(**fields)
        assert row == built and repr(row) == repr(built) and vars(row) == vars(built), row
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.states = 0
        assert dataclasses.replace(row) == row
        assert dataclasses.replace(row, states=row.states + 1).states == row.states + 1
    assert hash(row) == hash(built)


def test_grid_depth_guard():
    with pytest.raises(ValueError):
        grid_experiment(9)
    with pytest.raises(ValueError):
        grid_experiment(-1)
