import numpy as np
import pytest
from hypothesis import settings

# property tests are deterministic: fixed example order, no example database
# and no per-example deadline on a loaded machine
settings.register_profile("gpwb", derandomize=True, database=None, deadline=None)
settings.load_profile("gpwb")


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
