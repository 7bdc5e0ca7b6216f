"""The weak-measurement pipeline.

Analytic weak values <out|S|in>/<out|in> and the one pointer readout:
``PointerReadout`` reads K observables of one pre- and post-selection off
a sequence of pointers (the estimator's is a sequence of one), each at
every g of its own schedule, in one array pass
(``qcore.post_selected_branches``) per grid size.  Equal pointer models
share one spectrum.  The observables are diagonalized together by one
stacked ``eigh``; each ready state goes once into the pointer generator's
eigenbasis (the grid's DFT basis, shared by every grid pointer of one
size, or the qubit's 2x2 ``eigh``), where <out| contracts the system
factor, since the coupled state starts as the product |in> (x) |m>.  Each
(observable, pointer, g) row then costs O(dim n) for its phases and one
inverse and one forward transform of its n-point branch, O(n log n), and
is read out in its own pointer's momenta and readout Q; nothing is an
n_points^2 matrix, so the readout scales to 4096-point grids.  The limit
comparison reads both of its routes in one such pass.  The numeric
estimator extrapolates the per-g readouts of all K observables to g -> 0
with one closed-form line.

The estimator reads both conjugate pointer observables: the position-like
readout carries Re(w) and the generator-side readout carries Im(w), so
purely real weak values can be confirmed to actually be real.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DarkDetectorError, OrthogonalSelectionError
from .pointer import (
    GAUSSIAN_KIND, PointerModel, PointerSpectrum, moments, pointer_spectrum
)
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
    """The readout of K observables of one selection off a sequence of
    pointers, each at every g of its own schedule, shared by the estimator
    (a sequence of one pointer) and the limit comparison.

    Equal pointer models share one spectrum.  Pointers whose bases share
    transforms (grid pointers of one size) are read in one pass of
    ``post_selected_branches``: one ``eigh`` of the observables, one
    transform of the ready states, one phase kernel, and one inverse and
    one forward transform of all their branches.  Pointers of another size
    take a pass of their own.  Each pointer is read out in its own momenta,
    readout Q and ready state, as a readout off that pointer alone reads
    it: bit for bit on the grid, whose FFT rounds each row alike, and to
    roundoff for qubit pointers of one axis read together, whose dense
    transform rounds by the rows it takes.
    """

    def __init__(
        self,
        sel: PrePostSelection,
        observables: Sequence[LinearOperator],
        pointers: Sequence[PointerModel],
    ):
        self.sel = sel
        self.observables = tuple(observables)
        distinct = {model: pointer_spectrum(model) for model in dict.fromkeys(pointers)}
        self.spectra = tuple(distinct[model] for model in pointers)

    def ratios(self, schedules: Sequence[Sequence[float]]) -> np.ndarray:
        """The (K, R) per-g weak-value readouts before extrapolation, one
        schedule per pointer, R their lengths summed: the columns are each
        pointer's schedule in turn.

        Each observable S couples to each pointer's generator P by
        exp(-i g S (x) P) at every g of that pointer's schedule, and the
        system is projected onto |out>, in one ``post_selected_branches``
        pass per set of pointers that share transforms.  The passes' checks
        come first.  Then the post-selection probabilities are checked in
        row order (each pointer, each observable, each g in turn), and last
        that no g is zero, since the calibration divides by g."""
        spectra, sel = self.spectra, self.sel
        schedules = [tuple(float(g) for g in gs) for gs in schedules]
        sets: dict[int, list[int]] = {}  # first pointer -> the set's pointers
        for index, spectrum in enumerate(spectra):
            same = (i for i in sets if spectra[i].basis.shares_transforms(spectrum.basis))
            sets.setdefault(next(same, index), []).append(index)
        passes, rows_of = [], {}
        for members in sets.values():
            branches = post_selected_branches(
                self.observables, [spectra[index].basis for index in members],
                [schedules[index] for index in members], sel.pre, sel.post,
                np.array([spectra[index].ready for index in members]),
            )
            probabilities = np.sum(np.abs(branches) ** 2, axis=-1)
            bounds = [0, *itertools.accumulate(len(schedules[index]) for index in members)]
            rows = [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]
            passes.append((members, rows, branches, probabilities))
            rows_of.update((index, probabilities[:, r]) for index, r in zip(members, rows))
        for index, schedule in enumerate(schedules):
            for row in rows_of[index]:
                for g, probability in zip(schedule, row):
                    if probability < ZERO_PROBABILITY_FLOOR:
                        raise DarkDetectorError(f"orthogonal post-selection at g = {g!r}")
                    if probability > 1.0 + 1e-9:
                        raise ValueError(
                            f"post-selection probability {float(probability)!r} exceeds 1"
                        )
        if any(g == 0.0 for schedule in schedules for g in schedule):
            raise ValueError("coupling strength must be nonzero: the readout divides by g")
        columns = [None] * len(schedules)
        for members, rows, branches, probabilities in passes:
            ratios = _calibrated(
                [spectra[index] for index in members],
                [schedules[index] for index in members], rows, branches, probabilities,
            )
            for index, r in zip(members, rows):
                columns[index] = ratios[:, r]
        return np.concatenate(columns, axis=1)


def _calibrated(
    spectra: Sequence[PointerSpectrum],
    schedules: Sequence[tuple[float, ...]],
    rows: Sequence[slice],
    branches: np.ndarray,
    probabilities: np.ndarray,
) -> np.ndarray:
    """The (K, R) weak-value readouts of one pass's (K, R, ptr_dim) branches
    and their probabilities, each pointer's ``rows`` at the couplings of its
    schedule.  Each pointer's rows are read out in its own grid coordinates
    (or readout Pauli) and momenta, and calibrated by its own ready state,
    with the calls a pass of that pointer alone makes."""
    gs = np.concatenate(schedules)
    weights = spectra[0].weights(branches)
    readout = np.concatenate(
        [s.readout_means(branches[:, r]) for s, r in zip(spectra, rows)], axis=-1
    ) / probabilities
    generator = np.concatenate(
        [weights[:, r] @ s.basis.eigvals for s, r in zip(spectra, rows)], axis=-1
    ) / probabilities
    if spectra[0].model.kind != GAUSSIAN_KIND:
        return -readout / (2.0 * gs) + 1j * generator / (2.0 * gs)
    variances = [
        w @ s.basis.eigvals**2 - (w @ s.basis.eigvals) ** 2
        for s, w in zip(spectra, spectra[0].weights(np.array([s.ready for s in spectra])))
    ]
    generator_variance = np.repeat(variances, [len(g) for g in schedules])
    return readout / gs + 1j * generator / (2.0 * gs * generator_variance)


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
    ratios = PointerReadout(sel, observables, (model,)).ratios((schedule,))
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
