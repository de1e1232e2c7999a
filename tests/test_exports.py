"""The package's export list: every name resolves, in a stable order; and
the budgets ``machine``'s entry points take."""

import inspect

import takagi
from takagi import machine

REMOVED = (
    "DigitWord",
    "enumerate_balanced",
    "dyadic_partner",
    "level_points",
    "local_partners",
    "local_partner_count",
)


def test_export_list():
    names = takagi.__all__
    assert all(hasattr(takagi, name) for name in names)
    assert names[-1] == "__version__"
    assert names[:-1] == sorted(names[:-1])
    assert len(set(names)) == len(names)
    assert not set(REMOVED) & set(names)
    assert not any(hasattr(takagi, name) for name in REMOVED)


def test_budget_parameters():
    """The slope budget is worked out from the ordinate, so the closure and
    classify take the state budget only."""

    def keyword_only(function):
        parameters = inspect.signature(function).parameters.values()
        return [p.name for p in parameters if p.kind is p.KEYWORD_ONLY]

    assert keyword_only(machine.classify) == ["max_states", "listing"]
    assert keyword_only(machine.close_graph) == ["max_states"]
    assert not hasattr(machine, "DEFAULT_MAX_SLOPE")
