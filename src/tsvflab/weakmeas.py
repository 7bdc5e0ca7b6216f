"""The weak-measurement pipeline.

Analytic weak values <out|S|in>/<out|in>, the full von Neumann pipeline
(couple, then post-select, then read the pointer), and the numeric
weak-value estimator that extrapolates the per-g pointer readout to g -> 0.

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
    first_order_state,
    inner,
    tensor_product,
)
from .schedule import GSchedule, default_g_schedule

ESTIMATE_METHODS = ("analytic", "pointer_numeric", "first_order")


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
class PostSelectedPointer:
    """Unnormalized pointer branch after projecting the system onto |out>."""

    pointer_state: StateVector
    probability: float
    g: float

    def __post_init__(self):
        norm_sq = float(np.vdot(self.pointer_state.amps, self.pointer_state.amps).real)
        if abs(self.probability - norm_sq) > 1e-12:
            raise ValueError(
                "probability must equal the squared norm of the pointer branch"
            )
        if not -1e-12 <= self.probability <= 1.0 + 1e-9:
            raise ValueError(f"probability {self.probability!r} outside [0, 1]")


def _project_post(post: StateVector, joint_matrix: np.ndarray) -> np.ndarray:
    # (<out| (x) I) applied to the joint amplitudes
    return post.amps.conj() @ joint_matrix


def _conditional_branch(
    evolution: CouplingEvolution,
    sel: PrePostSelection,
    ready: StateVector,
    g: float,
) -> PostSelectedPointer:
    joint = tensor_product(sel.pre, ready)
    evolved = evolution.apply(g, joint)
    branch = _project_post(sel.post, evolved.as_matrix())
    probability = float(np.vdot(branch, branch).real)
    if probability < ZERO_PROBABILITY_FLOOR:
        raise DarkDetectorError(f"orthogonal post-selection at g = {g!r}")
    return PostSelectedPointer(
        StateVector(branch, normalized=None), probability, float(g)
    )


def measure_once(
    sel: PrePostSelection,
    S: LinearOperator,
    model: PointerModel,
    g: float,
) -> PostSelectedPointer:
    """Couple with exp(-i g S (x) P), then project the system onto |out>."""
    if S.dim != sel.pre.dim:
        raise ValueError("observable dimension does not match the selection")
    evolution = CouplingEvolution(S, translation_generator(model))
    return _conditional_branch(evolution, sel, initial_state(model), g)


@dataclass(frozen=True, eq=False)
class WeakValueEstimate:
    value: complex
    method: str
    g_schedule: tuple[float, ...]
    extrapolation_residual: float

    def __post_init__(self):
        if self.method not in ESTIMATE_METHODS:
            raise ValueError(f"unknown estimate method {self.method!r}")
        if self.extrapolation_residual < 0:
            raise ValueError("extrapolation residual must be non-negative")
        if self.method == "analytic" and self.extrapolation_residual != 0.0:
            raise ValueError("analytic estimates carry zero residual")


def analytic_estimate(sel: PrePostSelection, S: LinearOperator) -> WeakValueEstimate:
    return WeakValueEstimate(weak_value(sel, S), "analytic", (), 0.0)


class PointerReadout:
    """Per-g readout machinery shared by the estimator and the limit sweeps."""

    def __init__(self, sel: PrePostSelection, S: LinearOperator, model: PointerModel):
        self.sel = sel
        self.model = model
        self.ready = initial_state(model)
        self.generator = translation_generator(model)
        self.readout = position_operator(model)
        self.evolution = CouplingEvolution(S, self.generator)
        self.S = S
        if model.kind == GAUSSIAN_KIND:
            self.generator_variance = variance(self.ready, self.generator)

    def _branch_state(self, g: float, method: str) -> StateVector:
        if method == "pointer_numeric":
            return _conditional_branch(self.evolution, self.sel, self.ready, g).pointer_state
        # the O(g) expansion is not normalized, so its branch norm is not a
        # probability; hand back the bare conditional state
        expanded = first_order_state(
            self.sel.pre, self.ready, self.S, self.generator, g
        )
        amps = _project_post(self.sel.post, expanded.as_matrix())
        if float(np.vdot(amps, amps).real) < ZERO_PROBABILITY_FLOOR:
            raise DarkDetectorError(f"orthogonal post-selection at g = {g!r}")
        return StateVector(amps, normalized=None)

    def ratio(self, g: float, method: str = "pointer_numeric") -> complex:
        """The per-g weak-value readout before extrapolation."""
        branch = self._branch_state(g, method)
        if self.model.kind == GAUSSIAN_KIND:
            re = moments(branch, self.readout) / g
            im = moments(branch, self.generator) / (2.0 * g * self.generator_variance)
        else:
            re = -moments(branch, self.readout) / (2.0 * g)
            im = moments(branch, self.generator) / (2.0 * g)
        return complex(re, im)


def pointer_ratio(
    sel: PrePostSelection,
    S: LinearOperator,
    model: PointerModel,
    g: float,
    method: str = "pointer_numeric",
) -> complex:
    """Single-g weak-value readout (no extrapolation)."""
    return PointerReadout(sel, S, model).ratio(float(g), method)


def estimate_weak_value(
    sel: PrePostSelection,
    S: LinearOperator,
    model: PointerModel,
    g_schedule: Sequence[float] | None = None,
    method: str = "pointer_numeric",
) -> WeakValueEstimate:
    """Extrapolate the pointer readout to g -> 0.

    The per-g ratio is fitted with a degree-1 polynomial in g (separately
    for the real and imaginary parts) and evaluated at g = 0; fitting a
    line rather than taking the smallest point alone separates the O(g)
    bias from grid noise.  The residual is the largest absolute deviation
    of any schedule point from the fitted line.
    """
    if method not in ("pointer_numeric", "first_order"):
        raise ValueError(f"unknown pipeline method {method!r}")
    schedule = default_g_schedule(model) if g_schedule is None else GSchedule(g_schedule)
    readout = PointerReadout(sel, S, model)
    ratios = np.array([readout.ratio(g, method) for g in schedule])
    gs = np.array(schedule)
    slope_re, intercept_re = np.polyfit(gs, ratios.real, 1)
    slope_im, intercept_im = np.polyfit(gs, ratios.imag, 1)
    fitted = (slope_re * gs + intercept_re) + 1j * (slope_im * gs + intercept_im)
    residual = float(np.max(np.abs(ratios - fitted)))
    return WeakValueEstimate(
        complex(intercept_re, intercept_im), method, schedule, residual
    )
