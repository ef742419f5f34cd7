import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import dqdcavity as dq


@pytest.fixture(scope="session")
def laucht():
    return dq.preset("laucht-strong")


@pytest.fixture(scope="session")
def fig3():
    return dq.preset("fig3-right")


@pytest.fixture(scope="session")
def basis2():
    return dq.CompositeBasis(2)
