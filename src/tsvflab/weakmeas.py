"""The weak-measurement pipeline.

Analytic weak values <out|S|in>/<out|in> and the one pointer readout:
``PointerReadout`` reads K observables of one pre- and post-selection off
one pointer at every g of a schedule in one array pass
(``qcore.post_selected_branches``).  The observables are diagonalized
together by one stacked ``eigh``; the ready state goes once into the
pointer generator's eigenbasis (the grid's DFT basis, or the qubit's 2x2
``eigh``), where <out| contracts the system factor, since the coupled
state starts as the product |in> (x) |m>.  Each (observable, g) then costs
O(dim n) for its phases and one inverse and one forward transform of its
n-point branch, O(n log n); nothing is an n_points^2 matrix, so the
readout scales to 4096-point grids.  The numeric estimator extrapolates
the per-g readouts of all K observables to g -> 0 with one closed-form
line.

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
    LinearOperator,
    StateVector,
    inner,
    post_selected_branches,
)
from .schedule import GSchedule, centred_line, default_g_schedule

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
    """The readout of K observables of one selection off one pointer, at
    every g of a schedule in one pass, shared by the estimator and the
    limit comparison."""

    def __init__(
        self, sel: PrePostSelection, observables: Sequence[LinearOperator], model: PointerModel
    ):
        self.sel = sel
        self.observables = tuple(observables)
        self.spectrum = pointer_spectrum(model)

    def _branches(self, g_values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """Couple with exp(-i g S (x) P) for each observable S at every g,
        then project the system onto |out>: the (K, len(g_values), ptr_dim)
        conditional pointer branches and their (K, len(g_values))
        post-selection probabilities, checked for each observable at each g
        in turn."""
        g_values = tuple(float(g) for g in g_values)
        sel, ready = self.sel, StateVector(self.spectrum.ready)
        branches = post_selected_branches(
            self.observables, self.spectrum.basis, g_values, sel.pre, sel.post, ready
        )
        probabilities = np.sum(np.abs(branches) ** 2, axis=-1)
        for row in probabilities:
            for g, probability in zip(g_values, row):
                if probability < ZERO_PROBABILITY_FLOOR:
                    raise DarkDetectorError(f"orthogonal post-selection at g = {g!r}")
                if probability > 1.0 + 1e-9:
                    raise ValueError(
                        f"post-selection probability {float(probability)!r} exceeds 1"
                    )
        return branches, probabilities

    def ratios(self, g_values: Sequence[float]) -> np.ndarray:
        """The (K, len(g_values)) per-g weak-value readouts before
        extrapolation."""
        branches, probabilities = self._branches(g_values)
        gs = np.array([float(g) for g in g_values])
        mu = self.spectrum.basis.eigvals
        readout = self.spectrum.readout_means(branches) / probabilities
        generator = self.spectrum.weights(branches) @ mu / probabilities
        if self.spectrum.model.kind == GAUSSIAN_KIND:
            w = self.spectrum.weights(self.spectrum.ready)
            generator_variance = w @ mu**2 - (w @ mu) ** 2
            return readout / gs + 1j * generator / (2.0 * gs * generator_variance)
        return -readout / (2.0 * gs) + 1j * generator / (2.0 * gs)


def estimate_weak_values(
    sel: PrePostSelection,
    observables: Sequence[LinearOperator],
    model: PointerModel,
    g_schedule: Sequence[float] | None = None,
) -> tuple[WeakValueEstimate, ...]:
    """Extrapolate the pointer readout of every observable to g -> 0, one
    estimate per observable, in order.

    Each per-g ratio is fitted with a least-squares line in g / g_max
    (separately for the real and imaginary parts, all 2K rows at once by
    ``centred_line``) and evaluated at g = 0; fitting a line rather than
    taking the smallest point alone separates the O(g) bias from grid
    noise, and fitting in g / g_max keeps it finite for any schedule.  The
    residual is the largest absolute deviation of any schedule point from
    the fitted line.  An observable's estimate does not depend on the
    others, to the bit.
    """
    schedule = default_g_schedule(model) if g_schedule is None else GSchedule(g_schedule)
    ratios = PointerReadout(sel, observables, model).ratios(schedule)
    x = np.array(schedule) / schedule[0]
    _, intercept, deviation = centred_line(x, np.concatenate([ratios.real, ratios.imag]))
    k = len(ratios)
    residuals = np.hypot(deviation[:k], deviation[k:]).max(axis=1)
    return tuple(
        WeakValueEstimate(complex(re, im), schedule, float(residual))
        for re, im, residual in zip(intercept[:k], intercept[k:], residuals)
    )


def estimate_weak_value(
    sel: PrePostSelection,
    S: LinearOperator,
    model: PointerModel,
    g_schedule: Sequence[float] | None = None,
) -> WeakValueEstimate:
    """``estimate_weak_values`` of the one observable ``S``."""
    (estimate,) = estimate_weak_values(sel, (S,), model, g_schedule)
    return estimate
