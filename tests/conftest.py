import pytest
from hypothesis import settings

from takagi.stats import grid_experiment

# Every @given test draws the same examples on every run, so a tier-1 pass is
# reproducible; each test's own max_examples and deadline still apply.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def grid_depth6():
    """Depth-6 classification sweep (8193 ordinates, about 1 s), read by the
    two-method agreement check of criterion 5."""
    return grid_experiment(6)
