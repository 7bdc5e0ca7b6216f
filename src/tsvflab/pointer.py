"""Measuring-device models: a discretized Gaussian wavepacket and a qubit.

The Gaussian pointer lives on a uniform position grid of ``n_points``
(power of two) spanning ``[-half_width, half_width)``.  Its ready state is
a real, centered Gaussian with amplitude proportional to
``exp(-q^2 / (4 spread^2))`` so that ``spread`` is the position-probability
standard deviation.  The translation generator P is realized spectrally
through the discrete Fourier transform (periodic boundary), which keeps it
exactly hermitian and makes exp(-i g P) an exact band-limited translation
on the grid.  ``pointer_spectrum`` gives that DFT eigenbasis directly,
with the ready state and the readout Q (the grid coordinates, built once
for both), so the readout never forms an n_points^2 matrix, and neither
does a metric sweep whose product state is a fixed point, nor a
continuity or derail sweep (``limits.sweep_coupling``); only the other
second-order metric sweeps couple through the dense
``translation_generator``.

The qubit pointer is the minimal discrete measuring device: the coupling
generator is one Pauli axis (default y), the readout is the next axis in
cyclic order (default z), and the ready state is the +1 eigenstate of the
remaining axis.  With this arrangement the ready state satisfies
``<m|G|m> = 0`` just like the Gaussian, and the first-order readout
calibration is uniform across axis choices.  Its spectrum, ready state and
readout Pauli are built once per axis and process.

Units: hbar = 1; the coupling strength g carries position units per unit
eigenvalue of the measured observable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldError, NonHermitianOperatorError
from .qcore import Eigenbasis, LinearOperator, StateVector, pauli_x, pauli_y, pauli_z
from .tolerances import MOMENT_IMAG_TOL, QUBIT_PIVOT_FLOOR, SPREAD_RANGE, ZERO_PROBABILITY_FLOOR

GAUSSIAN_KIND = "gaussian_grid"
QUBIT_KIND = "qubit"

_PAULI_BY_AXIS = {"x": pauli_x, "y": pauli_y, "z": pauli_z}
# generator axis -> (readout axis, ready axis), cyclic
_QUBIT_ROLES = {"x": ("y", "z"), "y": ("z", "x"), "z": ("x", "y")}


@dataclass(frozen=True)
class PointerModel:
    """Description of a measuring device.

    gaussian_grid kind: ``spread`` in [1e-100, 1e100] (so that q^2 and
    4 spread^2 stay finite and nonzero), ``n_points`` (power of two,
    >= 64) and ``half_width`` with grid spacing ``2 half_width / n_points``
    at most ``spread / 4`` and ``half_width >= 8 spread`` so the wavepacket
    is resolved and its tails are negligible.

    qubit kind: ``generator_axis`` names the Pauli playing the role of the
    translation generator.
    """

    kind: str
    spread: float | None = None
    n_points: int | None = None
    half_width: float | None = None
    generator_axis: str = "y"

    def __post_init__(self):
        if self.kind == GAUSSIAN_KIND:
            if self.spread is None or self.n_points is None or self.half_width is None:
                raise ValueError("gaussian_grid needs spread, n_points and half_width")
            if not self.spread > 0:
                raise FieldError("spread must be positive", "spread")
            n = self.n_points
            if not isinstance(n, (int, np.integer)) or not 64 <= n <= 4096 or n & (n - 1):
                raise FieldError(
                    "n_points must be a power of two between 64 and 4096", "n_points"
                )
            if not math.isfinite(self.spread) or not math.isfinite(self.half_width):
                raise FieldError("spread and half_width must be finite")
            if not SPREAD_RANGE[0] <= self.spread <= SPREAD_RANGE[1]:
                raise FieldError("spread must lie in [1e-100, 1e100]", "spread")
            if self.half_width < 8.0 * self.spread:
                raise FieldError(
                    f"half_width {self.half_width} too small for spread "
                    f"{self.spread}: need half_width >= 8 spread",
                    "half_width",
                )
            if self.grid_spacing > self.spread / 4.0:
                raise FieldError(
                    f"grid spacing {self.grid_spacing} does not resolve the "
                    f"wavepacket: need spacing <= spread / 4",
                    "n_points",
                )
        elif self.kind == QUBIT_KIND:
            if self.generator_axis not in _PAULI_BY_AXIS:
                raise FieldError(
                    f"unknown generator axis {self.generator_axis!r}", "generator_axis"
                )
        else:
            raise FieldError(f"unknown pointer kind {self.kind!r}", "kind")

    @property
    def grid_spacing(self) -> float:
        if self.kind != GAUSSIAN_KIND:
            raise ValueError("grid spacing only defined for gaussian_grid pointers")
        return 2.0 * self.half_width / self.n_points

    @property
    def dim(self) -> int:
        return self.n_points if self.kind == GAUSSIAN_KIND else 2


def gaussian_pointer(
    spread: float, n_points: int = 256, half_width: float | None = None
) -> PointerModel:
    """Gaussian-grid model; default half_width 12*spread keeps the boundary
    amplitude below 1e-12."""
    if half_width is None:
        half_width = 12.0 * float(spread)
    return PointerModel(
        GAUSSIAN_KIND, spread=float(spread), n_points=int(n_points),
        half_width=float(half_width),
    )


def qubit_pointer(generator_axis: str = "y") -> PointerModel:
    return PointerModel(QUBIT_KIND, generator_axis=generator_axis)


def grid_coordinates(model: PointerModel) -> np.ndarray:
    if model.kind != GAUSSIAN_KIND:
        raise ValueError("grid coordinates only defined for gaussian_grid pointers")
    h = model.grid_spacing
    return -model.half_width + h * np.arange(model.n_points)


def _gaussian_ready(model: PointerModel, q: np.ndarray) -> np.ndarray:
    """The grid pointer's ready amplitudes on its grid coordinates ``q``,
    normalized."""
    amps = np.exp(-(q**2) / (4.0 * model.spread**2))
    amps /= np.linalg.norm(amps)
    return amps.astype(np.complex128)


def initial_state(model: PointerModel) -> StateVector:
    """The ready state |m> of the device."""
    if model.kind == GAUSSIAN_KIND:
        return StateVector(_gaussian_ready(model, grid_coordinates(model)))
    ready_axis = _QUBIT_ROLES[model.generator_axis][1]
    eigvals, vecs = np.linalg.eigh(_PAULI_BY_AXIS[ready_axis]().entries)
    plus = vecs[:, int(np.argmax(eigvals))]
    # fix the global phase so the first nonzero amplitude is real positive
    pivot = plus[np.argmax(np.abs(plus) > QUBIT_PIVOT_FLOOR)]
    plus = plus * (abs(pivot) / pivot)
    return StateVector(plus)


def _grid_momenta(model: PointerModel) -> np.ndarray:
    """The eigenvalues of the grid generator, in DFT order."""
    return 2.0 * np.pi * np.fft.fftfreq(model.n_points, d=model.grid_spacing)


def translation_generator(model: PointerModel) -> LinearOperator:
    """The coupling generator P: spectral momentum on the grid, the chosen
    Pauli for the qubit."""
    if model.kind == QUBIT_KIND:
        return _PAULI_BY_AXIS[model.generator_axis]()
    n = model.n_points
    k = _grid_momenta(model)
    dft = np.fft.fft(np.eye(n), axis=0) / np.sqrt(n)
    p = dft.conj().T @ (k[:, None] * dft)
    p = (p + p.conj().T) / 2.0
    return LinearOperator(p, hermitian=True)


class _GridBasis(Eigenbasis):
    """The grid generator's eigenbasis: the unitary DFT, with the grid
    momenta as eigenvalues."""

    # 2 pi fftfreq scales the integers 0 .. n/2 - 1, -n/2 .. -1 by one
    # factor, so mu_(n-k) is -mu_k bit for bit
    mirrored = True

    def to_eigen(self, amps: np.ndarray) -> np.ndarray:
        return np.fft.fft(amps, norm="ortho")

    def from_eigen(self, coeffs: np.ndarray) -> np.ndarray:
        return np.fft.ifft(coeffs, norm="ortho")


@dataclass(frozen=True, eq=False)
class PointerSpectrum:
    """A pointer seen from its coupling generator's eigenbasis.

    ``basis`` holds the generator's eigenvalues mu_k and the transforms to
    and from its eigenvectors; ``ready`` holds the ready state's amplitudes
    and ``readout`` the readout Q: the grid coordinates, on which the grid
    pointer's Q is diagonal, or the qubit's 2x2 readout Pauli.  The ready
    weights and the readout calibration are computed once per spectrum,
    when first read.
    """

    model: PointerModel
    basis: Eigenbasis
    ready: np.ndarray
    readout: np.ndarray

    @functools.cached_property
    def ready_weights(self) -> np.ndarray:
        """The ready state's weights w_k = |<k|m>|^2 (``Eigenbasis.weights``)."""
        return self.basis.weights(self.ready)

    @functools.cached_property
    def calibration(self) -> tuple[float, float]:
        """(scale, variance) of the first-order readout: the grid's Q
        shifts by g Re(w), the qubit's readout Pauli by -2 g Re(w), and the
        generator's mean by 2 g Var(P) Im(w), Var(P) taken in the ready
        state (1 for the qubit, whose ready state needs no weights)."""
        if self.model.kind == GAUSSIAN_KIND:
            w, mu = self.ready_weights, self.basis.eigvals
            return 1.0, w @ mu**2 - (w @ mu) ** 2
        return -2.0, 1.0

    def readout_means(self, rows: np.ndarray) -> np.ndarray:
        """<b|Q|b> for each row b (unnormalized): the grid coordinate, read
        on the grid, or the qubit's readout Pauli."""
        if self.model.kind == GAUSSIAN_KIND:
            return np.abs(rows) ** 2 @ self.readout
        return np.einsum("...i,ij,...j->...", rows.conj(), self.readout, rows).real


@functools.cache
def _qubit_spectrum(generator_axis: str) -> tuple[Eigenbasis, np.ndarray, np.ndarray]:
    """The qubit's generator eigenbasis, ready amplitudes and readout Pauli
    for one axis, computed once per process; every caller shares them, so
    they are read-only."""
    eigvals, vecs = np.linalg.eigh(_PAULI_BY_AXIS[generator_axis]().entries)
    ready = initial_state(qubit_pointer(generator_axis)).amps
    readout = _PAULI_BY_AXIS[_QUBIT_ROLES[generator_axis][0]]().entries
    for arr in (eigvals, vecs, ready):
        arr.setflags(write=False)
    return Eigenbasis(eigvals, vecs), ready, readout


def pointer_spectrum(model: PointerModel) -> PointerSpectrum:
    """The device in its generator's eigenbasis: the DFT with the grid
    momenta ``2 pi fftfreq`` for the grid, whose coordinates are built once
    for both the ready state and the readout, and the 2x2 ``eigh`` of the
    Pauli for the qubit, shared per generator axis."""
    if model.kind == QUBIT_KIND:
        return PointerSpectrum(model, *_qubit_spectrum(model.generator_axis))
    q = grid_coordinates(model)
    return PointerSpectrum(model, _GridBasis(_grid_momenta(model)), _gaussian_ready(model, q), q)


def moments(state: StateVector, op: LinearOperator) -> float:
    """<psi|op|psi> / <psi|psi> for hermitian op; normalizes internally so
    conditional (unnormalized) branches are fine."""
    if not op.hermitian:
        raise NonHermitianOperatorError("moments require a hermitian operator")
    if op.dim != state.dim:
        raise ValueError("operator and state dimensions differ")
    norm_sq = float(np.vdot(state.amps, state.amps).real)
    if norm_sq < ZERO_PROBABILITY_FLOOR:
        raise ValueError("cannot take moments of a zero-norm state")
    value = complex(np.vdot(state.amps, op.entries @ state.amps)) / norm_sq
    if abs(value.imag) > MOMENT_IMAG_TOL:
        raise ValueError(
            f"expectation of a hermitian operator came out complex "
            f"(imaginary residue {value.imag!r})"
        )
    return float(value.real)
