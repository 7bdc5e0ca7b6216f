"""The weak-measurement pipeline.

Analytic weak values <out|S|in>/<out|in> and the one pointer readout:
``PointerReadout`` couples through ``CouplingEvolution``, projects the
system onto |out> and reads the pointer at each g, and the numeric
weak-value estimator extrapolates that per-g readout to g -> 0.

The estimator reads both conjugate pointer observables: the position-like
readout carries Re(w) and the generator-side readout carries Im(w), so
purely real weak values can be confirmed to actually be real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DarkDetectorError, OrthogonalSelectionError
from .pointer import (
    GAUSSIAN_KIND,
    PointerModel,
    initial_state,
    moments,
    position_operator,
    translation_generator,
    variance,
)
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
        self.model = model
        self.ready = initial_state(model)
        self.generator = translation_generator(model)
        self.readout = position_operator(model)
        self.evolution = CouplingEvolution(S, self.generator)
        if model.kind == GAUSSIAN_KIND:
            self.generator_variance = variance(self.ready, self.generator)

    def _conditional_branch(self, g: float) -> StateVector:
        """Couple with exp(-i g S (x) P), then project the system onto |out>."""
        joint = tensor_product(self.sel.pre, self.ready)
        evolved = self.evolution.apply(g, joint)
        # (<out| (x) I) applied to the joint amplitudes
        branch = self.sel.post.amps.conj() @ evolved.as_matrix()
        probability = float(np.vdot(branch, branch).real)
        if probability < ZERO_PROBABILITY_FLOOR:
            raise DarkDetectorError(f"orthogonal post-selection at g = {g!r}")
        if probability > 1.0 + 1e-9:
            raise ValueError(f"post-selection probability {probability!r} exceeds 1")
        return StateVector(branch, normalized=None)

    def ratio(self, g: float) -> complex:
        """The per-g weak-value readout before extrapolation."""
        branch = self._conditional_branch(g)
        if self.model.kind == GAUSSIAN_KIND:
            re = moments(branch, self.readout) / g
            im = moments(branch, self.generator) / (2.0 * g * self.generator_variance)
        else:
            re = -moments(branch, self.readout) / (2.0 * g)
            im = moments(branch, self.generator) / (2.0 * g)
        return complex(re, im)


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
    readout = PointerReadout(sel, S, model)
    ratios = np.array([readout.ratio(g) for g in schedule])
    gs = np.array(schedule)
    slope_re, intercept_re = np.polyfit(gs, ratios.real, 1)
    slope_im, intercept_im = np.polyfit(gs, ratios.imag, 1)
    fitted = (slope_re * gs + intercept_re) + 1j * (slope_im * gs + intercept_im)
    residual = float(np.max(np.abs(ratios - fitted)))
    return WeakValueEstimate(complex(intercept_re, intercept_im), schedule, residual)
