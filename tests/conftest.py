import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from tsvflab import (
    CouplingEvolution,
    JointState,
    LinearOperator,
    PointerModel,
    StateVector,
    grid_coordinates,
    identity,
    moments,
    pauli_x,
    pauli_y,
    pauli_z,
)


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


def position_operator(model: PointerModel) -> LinearOperator:
    """Dense readout oracle: diag(grid) for the grid pointer, and for the
    qubit the Pauli after the generator axis in cyclic order."""
    if model.kind == "gaussian_grid":
        return LinearOperator(np.diag(grid_coordinates(model)), hermitian=True)
    return {"x": pauli_y, "y": pauli_z, "z": pauli_x}[model.generator_axis]()


def variance(state: StateVector, op: LinearOperator) -> float:
    """Dense oracle for Var(op) in ``state``, through the n x n product op @ op."""
    mean = moments(state, op)
    return moments(state, LinearOperator(op.entries @ op.entries)) - mean**2


@functools.cache
def outdiff():
    """``scripts/outdiff.py`` as a module.  Its ``scenarios`` is the
    benchmark's case generator, imported without writing bytecode under
    ``perfbench/``; the bytecode setting is restored for the test session."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "outdiff.py"
    spec = importlib.util.spec_from_file_location("outdiff", path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
