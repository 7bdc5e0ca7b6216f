"""Exact dense complex linear algebra for small Hilbert spaces.

States, operators, tensor products, and the measurement coupling evolution
exp(-i g S (x) P).  States and operators are dense ``complex128``; the
supported scale is a desk-sized joint space (system dim <= 16).  The
coupling works in the pointer factor's eigenbasis: a dense pointer
generator is diagonalized at O(n^3), which keeps the second-order metric
sweeps to pointer dim <= 256, while a pointer that supplies its own basis
(the grid's DFT) reaches pointer dim 4096 without any n x n matrix.  Only
a second-order metric sweep that is not a fixed point builds the dense
generator: ``fixes_product`` decides that from the pointer's basis alone.
exp(-i t) - 1 has one kernel, ``phase_change`` (-2 sin^2(t/2) - i sin t),
which the readout (``post_selected_branches``), the weak traces and the
closed-form first-order metrics share; on a basis whose eigenvalues
mirror exactly (the grid's DFT) it takes the sines of half of them.
Every coupling strength is checked finite by ``finite_couplings``, and
every coupling phase by ``require_finite_phases`` before it is formed: the
readout, the closed-form metrics, the weak traces and
``CouplingEvolution.apply`` raise "coupling phase must be finite" rather
than warn of an overflow.

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
from .tolerances import STRUCTURAL_TOL

#: The most phase terms ``post_selected_branches`` holds at once (8 MiB a
#: real array): a block of (observable, g) rows, dim x ptr_dim terms each,
#: or a part of one row's system axis when dim x ptr_dim is larger.
_PHASE_BLOCK = 2**20


_all = np.logical_and.reduce


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
        arr = np.array(self.amps, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("amplitudes must form a non-empty 1-d sequence")
        # vdot raises no overflow warning; a finite norm means finite
        # amplitudes, and an overflowing one is simply "not normalized"
        norm_sq = float(np.vdot(arr, arr).real)
        if not math.isfinite(norm_sq) and not _all(np.isfinite(arr)):
            raise ValueError("amplitudes must be finite")
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
        arr = np.array(self.entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError("operator entries must form a non-empty square matrix")
        with np.errstate(over="ignore", invalid="ignore"):
            # A^dag - A, exactly -(A - A^dag), is formed in place to save an
            # n x n copy; it is finite only if every entry is, and an
            # overflowing deviation of finite entries is simply "not hermitian"
            diff = arr.conj().T
            diff -= arr
            deviation = float(np.abs(diff).max())
        if not math.isfinite(deviation) and not _all(np.isfinite(arr), axis=None):
            raise ValueError("operator entries must be finite")
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
        self._vecs, self._conj = vecs, None if vecs is None else vecs.conj()

    @classmethod
    def of(cls, op: LinearOperator) -> "Eigenbasis":
        _require_hermitian(op, "operator")
        return cls(*np.linalg.eigh(op.entries))

    @property
    def dim(self) -> int:
        return self.eigvals.size

    def to_eigen(self, amps: np.ndarray) -> np.ndarray:
        return amps @ self._conj

    def from_eigen(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs @ self._vecs.T

    def weights(self, rows: np.ndarray) -> np.ndarray:
        """|<w_j|b>|^2 on the eigenvectors for each row b, so that
        <b|A|b> = weights(b) @ eigvals (unnormalized)."""
        return np.abs(self.to_eigen(rows)) ** 2

    def shares_transforms(self, other: "Eigenbasis") -> bool:
        """Whether ``other`` has this basis's eigenvectors and mirroring,
        so that this basis's transforms and phase kernel serve both,
        whatever their eigenvalues: two grid bases of one size, or two
        bases holding the same eigenvector array."""
        return (
            type(other) is type(self)
            and other.dim == self.dim
            and other.mirrored == self.mirrored
            and other._vecs is self._vecs
        )

    def phase_change(
        self, rates: np.ndarray, eigvals: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``phase_change(rates * eigvals)`` for ``rates`` shaped (..., 1),
        with ``eigvals`` this basis's eigenvalues, or those of bases that
        share its transforms, one row of shape (1, dim) per rate row.

        A mirrored basis takes the sines of its first n/2 + 1 eigenvalues
        only (mu_0 = 0, the positive ones and the Nyquist one) and copies
        the rest: the angles of mu_k and mu_(n-k) are exact negatives, and
        sin is odd, so the result is bit for bit the full evaluation.
        """
        if eigvals is None:
            eigvals = self.eigvals
        if not self.mirrored:
            return phase_change(rates * eigvals)
        half = self.dim // 2
        real, imag = phase_change(rates * eigvals[..., : half + 1])
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
    """

    def __init__(self, system_op: LinearOperator, pointer: LinearOperator | Eigenbasis):
        self.sys_dim, self.ptr_dim = _coupling_dims(system_op, pointer)
        if isinstance(pointer, LinearOperator):
            pointer = Eigenbasis.of(pointer)
        sys_eigvals, self._sys_vecs = np.linalg.eigh(system_op.entries)
        self._pointer = pointer
        # lambda_i * mu_j laid out as (sys, ptr); one that overflows fails
        # apply's phase guard, whose bound is the largest of them
        with np.errstate(over="ignore"):
            self._joint_eigvals = np.outer(sys_eigvals, pointer.eigvals)
        self._largest = float(np.abs(sys_eigvals).max()) * float(np.abs(pointer.eigvals).max())

    def apply(self, g: float, joint: JointState) -> JointState:
        """exp(-i g S (x) P) applied to a joint state.

        exp(-i t) - 1 is taken as ``np.exp(-1j t) - 1.0``, not through
        ``phase_change``: the benchmark's references for the metric sweeps
        pin the digits that its real part cancels, so it changes only with
        the closed-form sweeps that replace it.
        """
        dims = (self.sys_dim, self.ptr_dim)
        (g,) = gs = _coupling_strengths((g,), (joint.sys_dim, joint.ptr_dim), dims)
        require_finite_phases(self._largest, gs, 1.0)  # its phases are g (lambda mu)
        mat = joint.as_matrix()
        # Psi = V_s C W^T  =>  C = V_s^dag Psi conj(W)
        coeffs = self._pointer.to_eigen(self._sys_vecs.conj().T @ mat)
        coeffs = coeffs * (np.exp(-1j * g * self._joint_eigvals) - 1.0)
        out = mat + self._pointer.from_eigen(self._sys_vecs @ coeffs)
        return JointState(self.sys_dim, self.ptr_dim, StateVector(out.ravel(), normalized=None))


def _coupling_dims(system_op: LinearOperator, pointer) -> tuple[int, int]:
    """(sys_dim, ptr_dim) of a coupling, once S and then a dense P are
    checked hermitian."""
    _require_hermitian(system_op, "system observable")
    if isinstance(pointer, LinearOperator):
        _require_hermitian(pointer, "pointer generator")
    return system_op.dim, pointer.dim


def finite_couplings(g_values) -> np.ndarray:
    """``g_values`` as a float array, checked finite at once."""
    gs = np.array(g_values, dtype=float)
    if not np.isfinite(gs).all():
        raise ValueError("coupling strength must be finite")
    return gs


def require_finite_phases(largest_rate: float, g_values, largest_mu) -> None:
    """Raise unless every coupling phase (g lambda) mu is finite, given
    ``largest_rate`` = max|lambda| and ``largest_mu`` = max|mu|, one for
    all g or one per g of ``g_values``.

    max|lambda| |g| max|mu|, multiplied in that order, is the largest phase
    as it is rounded, since rounding keeps order; it is formed here with
    its overflow silenced, so a caller checks before forming any phase and
    an overflow raises rather than warns.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(largest_rate * np.abs(g_values) * largest_mu).all():
            raise ValueError("coupling phase must be finite")


def _coupling_strengths(
    g_values, joint_dims: tuple[int, int], dims: tuple[int, int]
) -> np.ndarray:
    """``finite_couplings(g_values)``, and then the joint state's (sys_dim,
    ptr_dim) checked against the coupling's."""
    gs = finite_couplings(g_values)
    if joint_dims != dims:
        raise ValueError("joint state dimensions do not match the coupling")
    return gs


def fixes_product(
    system_op: LinearOperator,
    pointer: LinearOperator | Eigenbasis,
    g_values,
    pre: StateVector,
    m: StateVector,
) -> bool:
    """Whether |in> (x) |m>, with |in> = ``pre``, is an exact fixed point of
    exp(-i g S (x) P) at every g of ``g_values``.

    It is one when S|in> is computed as exactly zero: every power of the
    generator then annihilates the state.  ``CouplingEvolution``'s checks
    come first, in its order (S hermitian, P hermitian, each g finite, the
    dimensions of (|in>, |m>)); neither factor is diagonalized and the
    product state is never formed.
    """
    dims = _coupling_dims(system_op, pointer)
    _coupling_strengths(g_values, (pre.dim, m.dim), dims)
    return not np.any(system_op.entries @ pre.amps)


def post_selected_branches(
    observables,
    bases,
    schedules,
    pre: StateVector,
    post: StateVector,
    ready: np.ndarray,
) -> np.ndarray:
    """<out| exp(-i g S_k (x) P_p) (|in> (x) |m_p>) for every observable S_k,
    every pointer p of ``bases`` and every g of its schedule, with |in> =
    ``pre``, <out| = ``post`` and |m_p> the row p of ``ready`` (pointers,
    ptr_dim): the (K, R, ptr_dim) post-selected pointer branches, R the
    schedules' lengths summed, each pointer's g in turn, unnormalized.

    The bases share the first one's transforms (``Eigenbasis.shares_transforms``)
    and each g takes its own pointer's mu, m^ and m by index, gathered per
    block of rows; the observables broadcast over them, so no step loops
    over observables or couplings.  |in> (x) |m> is never formed: |m> goes
    into P's eigenbasis once, as m^, and <out| contracts the system inside
    each S_k's eigenbasis v_ki (one stacked ``eigh``), so that each branch is

        <out|in> m + from_eigen(sum_i a_ki (exp(-i g lambda_ki mu) - 1) m^)

    with a_ki = <out|v_ki><v_ki|in>.  Adding the coupling's change to the
    uncoupled branch, rather than transforming the whole, loses no digit at
    small g, and exp(-i t) - 1 is taken as -2 sin^2(t/2) - i sin t
    (``phase_change``), which cancels nothing.  A branch costs
    O(dim ptr_dim) for its phases and one inverse transform, and at most
    ``_PHASE_BLOCK`` phase terms are held at once: a block of (observable,
    g) rows, or a part of the system axis of one row.  ``CouplingEvolution``'s checks come first, in its order:
    each S_k hermitian, each g finite (pointer by pointer, with each ready
    state's dimension), the system dimensions; then every coupling phase
    g lambda_ki mu must be finite.
    """
    bases = tuple(bases)
    if not bases or not all(bases[0].shares_transforms(other) for other in bases):
        raise ValueError("one pass reads pointers that share their transforms")
    basis, observables = bases[0], tuple(observables)
    if not all(op.hermitian for op in observables):
        raise NonHermitianOperatorError("system observable must be hermitian")
    lengths = [len(g) for _, g, _ in zip(bases, schedules, ready, strict=True)]
    gs, ready = np.concatenate(schedules, dtype=float), np.asarray(ready)
    # the ready rows and the bases each have one size, so the first
    # pointer's checks decide the pointer dimension for all
    fits = ready.shape[-1] == basis.dim
    finite = np.isfinite(gs)
    if not _all(finite) and (fits or not _all(finite[: lengths[0]])):
        raise ValueError("coupling strength must be finite")
    if not fits or {op.dim for op in (*observables, post)} - {pre.dim}:
        raise ValueError("joint state dimensions do not match the coupling")
    eigvals, vecs = np.linalg.eigh(
        np.array([op.entries for op in observables]).reshape(-1, pre.dim, pre.dim)
    )
    # each g's pointer, whose momenta mu and ready m^ are gathered per block
    pointer_of = np.arange(len(bases)).repeat(lengths)
    mus, hat = np.array([other.eigvals for other in bases])[:, None], basis.to_eigen(ready)
    lam = float(np.abs(eigvals).max(initial=0.0))
    require_finite_phases(lam, gs, np.abs(mus).max(axis=-1)[pointer_of, 0])
    # a_ki, broadcast over the g axis, and g lambda_ki: one (k, g) row each
    weights = ((post.amps.conj() @ vecs) * (pre.amps @ vecs.conj()))[:, None, None, :]
    wr, wi = weights.real, weights.imag
    rates = eigvals[:, None, :, None] * gs[:, None, None]
    change = np.empty((len(observables), gs.size, basis.dim), dtype=np.complex128)
    for obs, gees in _row_blocks(*change.shape[:2], _PHASE_BLOCK // (pre.dim * basis.dim)):
        # sum_i a_ki (exp(-i g lambda_ki mu) - 1) of each (k, g) row, along
        # the system axis in parts when a row holds more than _PHASE_BLOCK terms
        total, rows = None, pointer_of[gees]
        for cut in _blocks(pre.dim, _PHASE_BLOCK // basis.dim):
            real, imag = basis.phase_change(rates[obs, gees, cut], mus[rows])
            ar, ai = wr[obs, ..., cut], wi[obs, ..., cut]
            part = np.empty((*real.shape[:2], basis.dim), dtype=np.complex128)
            part.real = (ar @ real - ai @ imag)[..., 0, :]
            part.imag = (ar @ imag + ai @ real)[..., 0, :]
            total = part if total is None else total + part
            del real, imag  # before the next part's phases
        total *= hat[rows]
        change[obs, gees] = total
    branches = basis.from_eigen(change)
    branches += inner(post, pre) * ready[pointer_of]
    return branches


def _blocks(total: int, step: int):
    """Consecutive slices of at most ``max(1, step)`` of ``range(total)``."""
    step = max(1, step)
    return (slice(start, start + step) for start in range(0, total, step))


def _row_blocks(observables: int, couplings: int, step: int):
    """(observable, coupling) slices of at most ``max(1, step)`` rows: whole
    observables while all their g fit, else one observable's g in parts."""
    if couplings <= step:
        return ((obs, slice(None)) for obs in _blocks(observables, step // max(couplings, 1)))
    return (
        (slice(k, k + 1), gees) for k in range(observables) for gees in _blocks(couplings, step)
    )


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
    (g,) = finite_couplings((g,)).tolist()
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
