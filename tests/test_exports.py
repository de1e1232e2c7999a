"""The package's export list: every name resolves, in a stable order."""

import takagi

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
