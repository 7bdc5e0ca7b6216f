"""The weak-measurement pipeline.

Analytic weak values <out|S|in>/<out|in> and the one pointer readout:
``PointerReadout`` couples through ``CouplingEvolution`` in the pointer
generator's eigenbasis (the grid's DFT basis, or the qubit's 2x2 ``eigh``),
evolves a whole g-schedule in one batched pass, projects the system onto
|out> and reads the pointer at each g; the numeric weak-value estimator
extrapolates that per-g readout to g -> 0.  Nothing in the readout is an
n_points^2 matrix, so it scales to 4096-point grids in O(dim n log n) per g.

The estimator reads both conjugate pointer observables: the position-like
readout carries Re(w) and the generator-side readout carries Im(w), so
purely real weak values can be confirmed to actually be real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DarkDetectorError, OrthogonalSelectionError
from .pointer import GAUSSIAN_KIND, PointerModel, moments, pointer_spectrum
from .qcore import (
    ORTHOGONAL_OVERLAP_TOL,
    ZERO_PROBABILITY_FLOOR,
    CouplingEvolution,
    LinearOperator,
    StateVector,
    inner,
    tensor_product,
)
from .schedule import GSchedule, default_g_schedule

@dataclass(frozen=True, eq=False)
class PrePostSelection:
    """A pre-selected |in> and post-selected |out>, both normalized."""

    pre: StateVector
    post: StateVector
    overlap: complex = field(init=False)

    def __post_init__(self):
        if self.pre.dim != self.post.dim:
            raise ValueError("pre- and post-selection dimensions differ")
        if not (self.pre.normalized and self.post.normalized):
            raise ValueError("selection states must be normalized")
        object.__setattr__(self, "overlap", inner(self.post, self.pre))


def time_reverse(sel: PrePostSelection) -> PrePostSelection:
    """Swap pre- and post-selection; the overlap magnitude is unchanged."""
    return PrePostSelection(sel.post, sel.pre)


def expectation(state: StateVector, S: LinearOperator) -> float:
    """<state|S|state> for hermitian S and a normalized state."""
    if not state.normalized:
        raise ValueError("expectation requires a normalized state")
    return moments(state, S)


def weak_value(sel: PrePostSelection, S: LinearOperator) -> complex:
    """<out|S|in> / <out|in>.  Linear in S."""
    magnitude = abs(sel.overlap)
    if magnitude <= ORTHOGONAL_OVERLAP_TOL:
        raise OrthogonalSelectionError(
            f"pre/post selection nearly orthogonal: |<out|in>| = {magnitude:.3e}"
        )
    return complex(inner(sel.post, S.apply(sel.pre)) / sel.overlap)


@dataclass(frozen=True, eq=False)
class WeakValueEstimate:
    value: complex
    g_schedule: tuple[float, ...]
    extrapolation_residual: float

    def __post_init__(self):
        if self.extrapolation_residual < 0:
            raise ValueError("extrapolation residual must be non-negative")


class PointerReadout:
    """Per-g readout machinery shared by the estimator and the limit sweeps."""

    def __init__(self, sel: PrePostSelection, S: LinearOperator, model: PointerModel):
        self.sel = sel
        self.spectrum = pointer_spectrum(model)
        self.evolution = CouplingEvolution(S, self.spectrum.basis)

    def _branches(self, g_values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """Couple with exp(-i g S (x) P) at every g, then project the system
        onto |out>: the (len(g_values), ptr_dim) conditional pointer branches
        and their post-selection probabilities."""
        joint = tensor_product(self.sel.pre, StateVector(self.spectrum.ready))
        # (<out| (x) I) applied to the joint amplitudes at each g
        branches = self.sel.post.amps.conj() @ self.evolution.apply_schedule(g_values, joint)
        probabilities = np.sum(np.abs(branches) ** 2, axis=1)
        for g, probability in zip(g_values, probabilities):
            if probability < ZERO_PROBABILITY_FLOOR:
                raise DarkDetectorError(f"orthogonal post-selection at g = {g!r}")
            if probability > 1.0 + 1e-9:
                raise ValueError(
                    f"post-selection probability {float(probability)!r} exceeds 1"
                )
        return branches, probabilities

    def ratios(self, g_values: Sequence[float]) -> np.ndarray:
        """The per-g weak-value readouts before extrapolation."""
        g_values = tuple(float(g) for g in g_values)
        branches, probabilities = self._branches(g_values)
        gs = np.array(g_values)
        mu = self.spectrum.basis.eigvals
        readout = self.spectrum.readout_means(branches) / probabilities
        generator = self.spectrum.weights(branches) @ mu / probabilities
        if self.spectrum.model.kind == GAUSSIAN_KIND:
            w = self.spectrum.weights(self.spectrum.ready)
            generator_variance = w @ mu**2 - (w @ mu) ** 2
            return readout / gs + 1j * generator / (2.0 * gs * generator_variance)
        return -readout / (2.0 * gs) + 1j * generator / (2.0 * gs)


def estimate_weak_value(
    sel: PrePostSelection,
    S: LinearOperator,
    model: PointerModel,
    g_schedule: Sequence[float] | None = None,
) -> WeakValueEstimate:
    """Extrapolate the pointer readout to g -> 0.

    The per-g ratio is fitted with a degree-1 polynomial in g (separately
    for the real and imaginary parts) and evaluated at g = 0; fitting a
    line rather than taking the smallest point alone separates the O(g)
    bias from grid noise.  The residual is the largest absolute deviation
    of any schedule point from the fitted line.
    """
    schedule = default_g_schedule(model) if g_schedule is None else GSchedule(g_schedule)
    ratios = PointerReadout(sel, S, model).ratios(schedule)
    gs = np.array(schedule)
    slope_re, intercept_re = np.polyfit(gs, ratios.real, 1)
    slope_im, intercept_im = np.polyfit(gs, ratios.imag, 1)
    fitted = (slope_re * gs + intercept_re) + 1j * (slope_im * gs + intercept_im)
    residual = float(np.max(np.abs(ratios - fitted)))
    return WeakValueEstimate(complex(intercept_re, intercept_im), schedule, residual)
