"""Exact dense complex linear algebra for small Hilbert spaces.

States, operators, tensor products, and the measurement coupling evolution
exp(-i g S (x) P).  States and operators are dense ``complex128``; the
supported scale is a desk-sized joint space (system dim <= 16).  The
coupling works in the pointer factor's eigenbasis: a dense pointer
generator is diagonalized at O(n^3), which keeps the metric sweeps to
pointer dim <= 256, while a pointer that supplies its own basis (the
grid's DFT) reaches pointer dim 4096 without any n x n matrix.  Only a
metric sweep that is not a fixed point builds the dense generator:
``fixes_product`` decides that from the pointer's basis alone.
exp(-i t) - 1 has one kernel, ``phase_change`` (-2 sin^2(t/2) - i sin t),
which the readout and the weak traces share; on a basis whose eigenvalues
mirror exactly (the grid's DFT) it takes the sines of half of them.

Conventions fixed here and relied on everywhere else:

* Joint-space indexing is system-major: the amplitude of (system i,
  pointer j) sits at flat index ``i * ptr_dim + j`` (the ``numpy.kron``
  order).
* hbar = 1 throughout.
* Hermitian exponentials are evaluated through eigendecomposition, never a
  truncated series, so the result is unitary to machine precision.
"""

from __future__ import annotations

import functools
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
#: The most phase terms ``post_selected_branches`` holds at once (8 MiB a
#: real array): a block of (observable, g) rows, dim x ptr_dim terms each,
#: or a part of one row's system axis when dim x ptr_dim is larger.
_PHASE_BLOCK = 2**20


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


def phase_change(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(-2 sin^2(t/2), -sin t) for each t of ``angles``: the real and
    imaginary parts of exp(-i t) - 1, neither of which cancels at small t."""
    half = np.sin(0.5 * angles)
    return -2.0 * half * half, -np.sin(angles)


class Eigenbasis:
    """The eigenpairs of a hermitian factor, used as transforms along the
    last axis of an amplitude array: ``to_eigen`` gives the coefficients
    <w_j|psi> on the eigenvectors w_j, ``from_eigen`` maps them back.

    ``Eigenbasis.of`` diagonalizes a dense operator with ``eigh``; a factor
    whose eigenvectors are known in closed form (the grid pointer's DFT
    basis) supplies its own transforms by overriding the two methods.
    """

    #: Whether the eigenvalues, in DFT order, mirror exactly:
    #: ``eigvals[n - k] == -eigvals[k]`` bitwise for k = 1 ... n/2 - 1.  Only
    #: a basis that knows this from its own construction sets it; nothing
    #: infers it from the values.
    mirrored = False

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

    def phase_change(self, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``phase_change(rates * eigvals)`` for ``rates`` shaped (..., 1).

        A mirrored basis takes the sines of its first n/2 + 1 eigenvalues
        only (mu_0 = 0, the positive ones and the Nyquist one) and copies
        the rest: the angles of mu_k and mu_(n-k) are exact negatives, and
        sin is odd, so the result is bit for bit the full evaluation.
        """
        if not self.mirrored:
            return phase_change(rates * self.eigvals)
        half = self.dim // 2
        real, imag = phase_change(rates * self.eigvals[: half + 1])
        mirror = slice(half - 1, 0, -1)
        return (
            np.concatenate((real, real[..., mirror]), axis=-1),
            np.concatenate((imag, -imag[..., mirror]), axis=-1),
        )


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

    ``apply_schedule`` takes exp(-i t) - 1 as ``np.exp(-1j t) - 1.0``, not
    through ``phase_change``: the benchmark's references for the metric
    sweeps pin the digits that its real part cancels, so it changes only
    with the closed-form sweeps that replace it.
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
        dims = (self.sys_dim, self.ptr_dim)
        gs = _coupling_strengths(g_values, (joint.sys_dim, joint.ptr_dim), dims)
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


def _coupling_strengths(
    g_values, joint_dims: tuple[int, int], dims: tuple[int, int]
) -> np.ndarray:
    """``g_values`` as a float array, each checked finite, and then the
    joint state's (sys_dim, ptr_dim) checked against the coupling's."""
    gs = np.array([_finite_coupling(g) for g in g_values], dtype=float)
    if joint_dims != dims:
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
    _coupling_strengths(g_values, (joint.sys_dim, joint.ptr_dim), dims)
    return joint, not np.any(system_op.entries @ pre.amps)


def post_selected_branches(
    observables,
    pointer: Eigenbasis,
    g_values,
    pre: StateVector,
    post: StateVector,
    m: StateVector,
) -> np.ndarray:
    """<out| exp(-i g S_k (x) P) (|in> (x) |m>) for every observable S_k of
    ``observables`` and every g of ``g_values``, with |in> = ``pre`` and
    <out| = ``post``: the (K, len(g_values), ptr_dim) stack of post-selected
    pointer branches, in one pass, unchecked for normalization.

    The product |in> (x) |m> is never formed.  |m> goes into P's eigenbasis
    once, as m^, and <out| contracts the system factor inside each S_k's
    eigenbasis v_ki (one stacked ``eigh``), so that each branch is

        <out|in> m + from_eigen(sum_i a_ki (exp(-i g lambda_ki mu) - 1) m^)

    with a_ki = <out|v_ki><v_ki|in>.  Adding the coupling's change to the
    uncoupled branch, rather than transforming the whole, loses no digit at
    small g, and exp(-i t) - 1 is taken as -2 sin^2(t/2) - i sin t
    (``phase_change``), which cancels nothing.  Each branch costs
    O(dim ptr_dim) for the phases and one inverse transform; on a mirrored
    basis such as the grid's DFT it takes 2 dim (ptr_dim/2 + 1) sines.  The
    phases of at most ``_PHASE_BLOCK`` terms are held at once: a block of
    (observable, g) rows, or a part of the system axis of one row that
    alone holds more.  ``CouplingEvolution``'s checks come first, in its order:
    each S_k hermitian, each g finite, the dimensions.
    """
    observables = tuple(observables)
    for op in observables:
        _require_hermitian(op, "system observable")
    gs = _coupling_strengths(g_values, (pre.dim, m.dim), (pre.dim, pointer.dim))
    if any(factor.dim != pre.dim for factor in (*observables, post)):
        raise ValueError("joint state dimensions do not match the coupling")
    eigvals, vecs = np.linalg.eigh(
        np.array([op.entries for op in observables]).reshape(-1, pre.dim, pre.dim)
    )
    # one row per (observable, g): a_ki, and g lambda_ki
    weights = (post.amps.conj() @ vecs) * (pre.amps @ vecs.conj())
    weights = np.repeat(weights, gs.size, axis=0)[:, None, :]
    rates = (eigvals[:, None, :] * gs[:, None]).reshape(-1, pre.dim, 1)
    change = np.empty((rates.shape[0], pointer.dim), dtype=np.complex128)
    for rows in _blocks(len(change), _PHASE_BLOCK // (pre.dim * pointer.dim)):
        # a row of more than _PHASE_BLOCK terms is summed in parts along the
        # system axis
        parts = (
            _phase_sum(pointer, rates[rows, cut], weights[rows, :, cut])
            for cut in _blocks(pre.dim, _PHASE_BLOCK // pointer.dim)
        )
        change[rows] = functools.reduce(np.add, parts)
    change = change.reshape(len(observables), gs.size, pointer.dim)
    return inner(post, pre) * m.amps + pointer.from_eigen(change * pointer.to_eigen(m.amps))


def _blocks(total: int, step: int):
    """Consecutive slices of at most ``max(1, step)`` of ``range(total)``."""
    step = max(1, step)
    return (slice(start, start + step) for start in range(0, total, step))


def _phase_sum(pointer: Eigenbasis, rates: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i a_i (exp(-i r_i mu) - 1) on P's eigenvalues mu for each row of
    ``weights`` a_i, shaped (rows, 1, dim), and ``rates`` r_i, shaped
    (rows, dim, 1)."""
    real, imag = pointer.phase_change(rates)
    total = np.empty((len(rates), pointer.dim), dtype=np.complex128)
    total.real = (weights.real @ real - weights.imag @ imag)[:, 0]
    total.imag = (weights.real @ imag + weights.imag @ real)[:, 0]
    return total


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
