import numpy as np
import pytest

from spdelab import presets
from spdelab.montecarlo import MonteCarlo
from spdelab.reaction import build_callbacks, build_profile


@pytest.fixture(scope="session")
def rd16():
    return presets.bounded_reaction_model()


@pytest.fixture(scope="session")
def rd16_profile(rd16):
    return build_profile(rd16)


@pytest.fixture(scope="session")
def rd16_callbacks(rd16):
    return build_callbacks(rd16)


@pytest.fixture
def rng():
    return np.random.default_rng(20250826)


@pytest.fixture
def map_blocks_calls(monkeypatch):
    """(threads, block count) of each ``MonteCarlo._map_blocks`` call the test makes."""
    calls, run = [], MonteCarlo._map_blocks

    def spy(self, worker, blocks):
        calls.append((self.threads, len(blocks)))
        return run(self, worker, blocks)
    monkeypatch.setattr(MonteCarlo, "_map_blocks", spy)
    return calls
