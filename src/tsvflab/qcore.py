"""Exact dense complex linear algebra for small Hilbert spaces.

States, operators, tensor products, and the measurement coupling evolution
exp(-i g S (x) P).  States and operators are dense ``complex128``; the
supported scale is a desk-sized joint space (system dim <= 16).  The
coupling works in the pointer factor's eigenbasis: a dense pointer
generator is diagonalized at O(n^3), which keeps the metric sweeps to
pointer dim <= 256, while a pointer that supplies its own basis (the
grid's DFT) reaches pointer dim 4096 without any n x n matrix.

Conventions fixed here and relied on everywhere else:

* Joint-space indexing is system-major: the amplitude of (system i,
  pointer j) sits at flat index ``i * ptr_dim + j`` (the ``numpy.kron``
  order).
* hbar = 1 throughout.
* Hermitian exponentials are evaluated through eigendecomposition, never a
  truncated series, so the result is unitary to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianOperatorError

#: Tolerance for structural checks (normalization tags, hermiticity tags).
STRUCTURAL_TOL = 1e-12
#: Squared norms below this floor count as zero (a dark branch, an empty state).
ZERO_PROBABILITY_FLOOR = 1e-300
#: Below this |<out|in>| the selection is orthogonal: the detector is dark and
#: the analytic weak value is undefined.
ORTHOGONAL_OVERLAP_TOL = 1e-12


def _as_complex_vector(values) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("amplitudes must form a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("amplitudes must be finite")
    return arr


def _as_complex_matrix(values) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError("operator entries must form a non-empty square matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError("operator entries must be finite")
    return arr


def _times_pow2(x, exponent: int):
    # two half steps: 2.0 ** exponent alone overflows for |exponent| > 1023
    return x * 2.0 ** (exponent // 2) * 2.0 ** (exponent - exponent // 2)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector for a system, pointer, or joint space.

    ``normalized`` is a tag, not an instruction: if left unset it is
    detected from the amplitudes; if explicitly True it is verified.
    Conditional post-selected branches are legitimately unnormalized.
    """

    amps: np.ndarray
    normalized: bool | None = None

    def __post_init__(self):
        arr = _as_complex_vector(self.amps)
        with np.errstate(over="ignore"):
            # an overflowing norm is simply "not normalized"
            norm_sq = float(np.vdot(arr, arr).real)
        tag = self.normalized
        if tag is None:
            tag = abs(norm_sq - 1.0) <= STRUCTURAL_TOL
        elif tag and abs(norm_sq - 1.0) > STRUCTURAL_TOL:
            raise ValueError(
                f"state tagged normalized but squared norm is {norm_sq!r}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)
        object.__setattr__(self, "normalized", bool(tag))

    @property
    def dim(self) -> int:
        return self.amps.size

    def _scaled(self) -> tuple[np.ndarray, int]:
        """(amps / 2**e, e) for the power of two 2**e nearest the largest
        component, so the squared norm can neither underflow nor overflow.

        Power-of-two scaling is exact: where the plain norm does not
        underflow or overflow, the results below match it bit for bit.
        """
        exponent = math.frexp(float(np.max(np.abs(self.amps.view(np.float64)))))[1]
        return _times_pow2(self.amps, -exponent), exponent

    def norm(self) -> float:
        scaled, exponent = self._scaled()
        return _times_pow2(float(np.linalg.norm(scaled)), exponent)

    def unit(self) -> "StateVector":
        """Normalized copy; raises on the all-zero state."""
        scaled, _ = self._scaled()
        if not scaled.any():
            raise ValueError("cannot normalize a zero state")
        return StateVector(scaled / np.linalg.norm(scaled))


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Dense complex square matrix with an (auto-detected) hermiticity tag."""

    entries: np.ndarray
    hermitian: bool | None = None

    def __post_init__(self):
        arr = _as_complex_matrix(self.entries)
        with np.errstate(over="ignore"):
            # an overflowing deviation is simply "not hermitian"; A^dag - A,
            # exactly -(A - A^dag), is formed in place to save an n x n copy
            diff = arr.conj().T
            diff -= arr
            deviation = float(np.max(np.abs(diff)))
        tag = self.hermitian
        if tag is None:
            tag = deviation <= STRUCTURAL_TOL
        elif tag and deviation > STRUCTURAL_TOL:
            raise ValueError(
                f"operator tagged hermitian but max |A - A^dag| = {deviation!r}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "hermitian", bool(tag))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def apply(self, state: StateVector) -> StateVector:
        if state.dim != self.dim:
            raise ValueError(
                f"operator dim {self.dim} does not match state dim {state.dim}"
            )
        return StateVector(self.entries @ state.amps)

    def _combine(self, other, ufunc) -> "LinearOperator":
        if not isinstance(other, LinearOperator):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("operator dimensions differ")
        return LinearOperator(ufunc(self.entries, other.entries))

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        return self._combine(other, np.add)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        return self._combine(other, np.subtract)

    def __neg__(self) -> "LinearOperator":
        # not ``self * -1``, which gives zeros of other signs
        return LinearOperator(-self.entries)

    def __mul__(self, scalar) -> "LinearOperator":
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        return LinearOperator(self.entries * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "LinearOperator":
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        return LinearOperator(self.entries / complex(scalar))

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        return self._combine(other, np.matmul)


@dataclass(frozen=True, eq=False)
class JointState:
    """System (x) pointer state with the system index varying slower."""

    sys_dim: int
    ptr_dim: int
    state: StateVector

    def __post_init__(self):
        if self.sys_dim < 1 or self.ptr_dim < 1:
            raise ValueError("joint factors must have positive dimension")
        if self.state.dim != self.sys_dim * self.ptr_dim:
            raise ValueError(
                f"joint state has dim {self.state.dim}, expected "
                f"{self.sys_dim} * {self.ptr_dim}"
            )

    def as_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to (sys_dim, ptr_dim)."""
        return self.state.amps.reshape(self.sys_dim, self.ptr_dim)

    def norm(self) -> float:
        return self.state.norm()


def tensor_product(a: StateVector, b: StateVector) -> JointState:
    """Product state with amplitude a_i * b_j at joint index (i, j)."""
    return JointState(a.dim, b.dim, StateVector(np.kron(a.amps, b.amps)))


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in ``a`` and linear in ``b``."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amps, b.amps))


def _require_hermitian(op: LinearOperator, role: str) -> None:
    if not op.hermitian:
        raise NonHermitianOperatorError(f"{role} must be hermitian")


class Eigenbasis:
    """The eigenpairs of a hermitian factor, used as transforms along the
    last axis of an amplitude array: ``to_eigen`` gives the coefficients
    <w_j|psi> on the eigenvectors w_j, ``from_eigen`` maps them back.

    ``Eigenbasis.of`` diagonalizes a dense operator with ``eigh``; a factor
    whose eigenvectors are known in closed form (the grid pointer's DFT
    basis) supplies its own transforms by overriding the two methods.
    """

    def __init__(self, eigvals: np.ndarray, vecs: np.ndarray | None = None):
        self.eigvals = eigvals
        self._vecs = vecs

    @classmethod
    def of(cls, op: LinearOperator, role: str = "operator") -> "Eigenbasis":
        _require_hermitian(op, role)
        return cls(*np.linalg.eigh(op.entries))

    @property
    def dim(self) -> int:
        return self.eigvals.size

    def to_eigen(self, amps: np.ndarray) -> np.ndarray:
        return amps @ self._vecs.conj()

    def from_eigen(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs @ self._vecs.T


class CouplingEvolution:
    """Measurement coupling exp(-i g S (x) P), diagonalized once, reusable per g.

    The hermitian factors are diagonalized separately; their eigenpairs
    assemble the full eigensystem of S (x) P (eigenvalue lambda_i * mu_j,
    eigenvector v_i (x) w_j in system-major order), which is cheaper than
    diagonalizing the joint generator.  A product state whose system
    factor S annihilates is a fixed point at every coupling strength;
    ``fixes_product`` finds it exactly, before any of this is built.

    ``pointer`` is either the generator P itself, diagonalized here with
    ``eigh`` at O(ptr_dim^3), or its ``Eigenbasis``, such as the DFT basis
    a grid pointer supplies (``pointer.pointer_spectrum``), which costs
    O(ptr_dim log ptr_dim) per system row and builds no ptr_dim^2 matrix.
    """

    def __init__(self, system_op: LinearOperator, pointer: LinearOperator | Eigenbasis):
        self.sys_dim, self.ptr_dim = _coupling_dims(system_op, pointer)
        if isinstance(pointer, LinearOperator):
            pointer = Eigenbasis.of(pointer)
        sys_eigvals, self._sys_vecs = np.linalg.eigh(system_op.entries)
        self._pointer = pointer
        # lambda_i * mu_j laid out as (sys, ptr)
        self._joint_eigvals = np.outer(sys_eigvals, pointer.eigvals)

    def apply(self, g: float, joint: JointState) -> JointState:
        """exp(-i g S (x) P) applied to a joint state: the one-point schedule."""
        (out,) = self.apply_schedule((g,), joint)
        return JointState(self.sys_dim, self.ptr_dim, StateVector(out.ravel(), normalized=None))

    def apply_schedule(self, g_values, joint: JointState) -> np.ndarray:
        """exp(-i g S (x) P) applied to a joint state at every g of
        ``g_values`` in one batched pass: the (len(g_values), sys_dim,
        ptr_dim) stack of evolved amplitudes, unchecked for normalization."""
        gs = _coupling_strengths(g_values, joint, (self.sys_dim, self.ptr_dim))
        mat = joint.as_matrix()
        # Psi = V_s C W^T  =>  C = V_s^dag Psi conj(W)
        coeffs = self._pointer.to_eigen(self._sys_vecs.conj().T @ mat)
        coeffs = coeffs * (np.exp(-1j * gs[:, None, None] * self._joint_eigvals) - 1.0)
        return mat + self._pointer.from_eigen(self._sys_vecs @ coeffs)


def _coupling_dims(system_op: LinearOperator, pointer) -> tuple[int, int]:
    """(sys_dim, ptr_dim) of a coupling, once S and then a dense P are
    checked hermitian."""
    _require_hermitian(system_op, "system observable")
    if isinstance(pointer, LinearOperator):
        _require_hermitian(pointer, "pointer generator")
    return system_op.dim, pointer.dim


def _finite_coupling(g) -> float:
    g = float(g)
    if not np.isfinite(g):
        raise ValueError("coupling strength must be finite")
    return g


def _coupling_strengths(g_values, joint: JointState, dims: tuple[int, int]) -> np.ndarray:
    """``g_values`` as a float array, each checked finite, and then
    ``joint`` checked against the coupling's (sys_dim, ptr_dim)."""
    gs = np.array([_finite_coupling(g) for g in g_values], dtype=float)
    if (joint.sys_dim, joint.ptr_dim) != dims:
        raise ValueError("joint state dimensions do not match the coupling")
    return gs


def fixes_product(
    system_op: LinearOperator,
    pointer: LinearOperator | Eigenbasis,
    g_values,
    pre: StateVector,
    m: StateVector,
) -> tuple[JointState, bool]:
    """(|in> (x) |m>, whether it is an exact fixed point of exp(-i g S (x) P)
    at every g of ``g_values``), with |in> = ``pre``.

    It is one when S|in> is computed as exactly zero: every power of the
    generator then annihilates the state.  ``CouplingEvolution``'s checks
    come first, in its order (S hermitian, P hermitian, each g finite, the
    joint dimensions), and neither factor is diagonalized.
    """
    dims = _coupling_dims(system_op, pointer)
    joint = tensor_product(pre, m)
    _coupling_strengths(g_values, joint, dims)
    return joint, not np.any(system_op.entries @ pre.amps)


def first_order_state(
    pre: StateVector,
    m: StateVector,
    S: LinearOperator,
    P: LinearOperator,
    g: float,
) -> JointState:
    """|in>(x)|m> - i g S|in> (x) P|m>, the expansion of the coupling to O(g).

    Not normalized in general.
    """
    if S.dim != pre.dim:
        raise ValueError("system observable does not match the system state")
    if P.dim != m.dim:
        raise ValueError("pointer generator does not match the pointer state")
    g = _finite_coupling(g)
    amps = np.kron(pre.amps, m.amps) - 1j * g * np.kron(
        S.entries @ pre.amps, P.entries @ m.amps
    )
    return JointState(pre.dim, m.dim, StateVector(amps, normalized=None))


# ---------------------------------------------------------------------------
# Small library of standard states and operators.

def basis_state(dim: int, index: int) -> StateVector:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


def spin_up_z() -> StateVector:
    return basis_state(2, 0)


def spin_down_z() -> StateVector:
    return basis_state(2, 1)


def spin_up_x() -> StateVector:
    return StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))


def spin_down_x() -> StateVector:
    return StateVector(np.array([1.0, -1.0]) / np.sqrt(2.0))


def pauli_x() -> LinearOperator:
    return LinearOperator(np.array([[0.0, 1.0], [1.0, 0.0]]), hermitian=True)


def pauli_y() -> LinearOperator:
    return LinearOperator(np.array([[0.0, -1j], [1j, 0.0]]), hermitian=True)


def pauli_z() -> LinearOperator:
    return LinearOperator(np.array([[1.0, 0.0], [0.0, -1.0]]), hermitian=True)


def identity(dim: int) -> LinearOperator:
    if dim < 1:
        raise ValueError("identity needs a positive dimension")
    return LinearOperator(np.eye(dim), hermitian=True)


def projector(state: StateVector) -> LinearOperator:
    """|s><s| / <s|s> for a nonzero state."""
    unit = state if state.normalized else state.unit()
    return LinearOperator(np.outer(unit.amps, unit.amps.conj()), hermitian=True)
