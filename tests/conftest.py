import numpy as np
import pytest

from tsvflab import CouplingEvolution, JointState, LinearOperator, StateVector, identity


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(v / np.linalg.norm(v))


def random_hermitian(rng: np.random.Generator, dim: int) -> LinearOperator:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return LinearOperator((a + a.conj().T) / 2.0, hermitian=True)


def single_factor_evolution(
    generator: LinearOperator, t: float, state: StateVector
) -> StateVector:
    """exp(-i t H)|psi>: the coupling exp(-i t S (x) H) with a 1x1 system S = 1."""
    joint = JointState(1, state.dim, state)
    return CouplingEvolution(identity(1), generator).apply(t, joint).state


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
