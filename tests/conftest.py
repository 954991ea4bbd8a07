import pytest
from hypothesis import settings

from cyins.analytic import TwoStateModel
from cyins.model import validate_model

from helpers import FOUR_STATE_RAW, TWO_STATE_RAW

# Derive every Hypothesis example from the test itself, so a run of the suite
# depends only on the code under test.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def two_state():
    return validate_model(TWO_STATE_RAW)


@pytest.fixture(scope="session")
def four_state():
    return validate_model(FOUR_STATE_RAW)


@pytest.fixture(scope="session")
def two_state_analytic(two_state):
    return TwoStateModel.from_model(two_state)
