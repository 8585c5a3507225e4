import numpy as np
import pytest

from qdlab.faddeev import ThetaParam
from qdlab.lca import Modulus
from qdlab.qdilog import QdParams

THETA_FRACTIONS = ["1/3", "1/4", "2/5"]


@pytest.fixture(scope="session")
def thetas():
    return [ThetaParam.from_pi_fraction(f) for f in THETA_FRACTIONS]


@pytest.fixture
def theta3():
    return ThetaParam.from_pi_fraction("1/3")


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


def params(N: int, frac: str = "1/3") -> QdParams:
    return QdParams(ThetaParam.from_pi_fraction(frac), Modulus(N))
