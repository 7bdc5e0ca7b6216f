"""The weak-measurement pipeline.

Analytic weak values <out|S|in>/<out|in>, and the one pointer readout,
``PointerReadout``: K observables of one pre- and post-selection read off
a sequence of pointers that share their transforms (the estimator's is
a sequence of one), each at every g of its own schedule, in one array
pass (``qcore.post_selected_branches``).  Each row costs O(dim n) for its
phases and one inverse and one forward transform of its n-point branch,
O(n log n); nothing is an n_points^2 matrix, so the readout scales to
4096-point grids.  The numeric estimator extrapolates the per-g readouts
of all K observables to g -> 0 with one closed-form line.  It reads both
conjugate pointer observables: the position-like readout carries Re(w)
and the generator-side readout carries Im(w), so purely real weak values
can be confirmed to actually be real.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DarkDetectorError, OrthogonalSelectionError
from .pointer import PointerModel, moments, pointer_spectrum
from .qcore import LinearOperator, StateVector, inner, post_selected_branches
from .schedule import GSchedule, centred_line, default_g_schedule
from .tolerances import ORTHOGONAL_OVERLAP_TOL, PROBABILITY_CEILING, ZERO_PROBABILITY_FLOOR

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
    """<out|S|in> / <out|in>.  Linear in S; a quotient that overflows raises."""
    magnitude = abs(sel.overlap)
    if magnitude <= ORTHOGONAL_OVERLAP_TOL:
        raise OrthogonalSelectionError(
            f"pre/post selection nearly orthogonal: |<out|in>| = {magnitude:.3e}"
        )
    if S.dim != sel.pre.dim:
        raise ValueError(f"operator dim {S.dim} does not match state dim {sel.pre.dim}")
    amps = S.entries @ sel.pre.amps
    if not _all(np.isfinite(amps)):
        raise ValueError("amplitudes must be finite")
    value = complex(complex(np.vdot(sel.post.amps, amps)) / sel.overlap)
    if not np.isfinite(value):
        raise ValueError("weak value is not finite")
    return value


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

    Equal pointer models share one spectrum.  The pointers must share
    their transforms (``Eigenbasis.shares_transforms``: grid pointers of
    one size, or qubit pointers of one generator axis), and all are read
    in one pass of ``post_selected_branches``; other pointers are a
    ValueError before any ``eigh``.  Each pointer is read out in its own
    momenta, readout Q and ready state, as a readout off that pointer
    alone reads it: bit for bit on the grid, whose FFT rounds each row
    alike, and to roundoff for qubit pointers, whose dense transform
    rounds by the number of rows it takes.  The checks and the
    calibration take all (K, R) readouts at once.
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
        pass over every pointer.  Its checks come first.  Then the
        post-selection probabilities are checked in row order (each pointer,
        each observable, each g in turn), and last that no g is zero, since
        the calibration divides by g."""
        spectra, sel = self.spectra, self.sel
        lengths = [len(schedule) for schedule in schedules]
        bounds = [0, *itertools.accumulate(lengths)]
        branches = post_selected_branches(
            self.observables, [spectrum.basis for spectrum in spectra], schedules,
            sel.pre, sel.post, [spectrum.ready for spectrum in spectra],
        )
        weights = spectra[0].basis.weights(branches)
        probabilities = _sum(np.abs(branches) ** 2, axis=-1)
        readout, generator = np.empty((2, *probabilities.shape))
        for spectrum, start, stop in zip(spectra, bounds, bounds[1:]):
            readout[:, start:stop] = spectrum.readout_means(branches[:, start:stop])
            generator[:, start:stop] = weights[:, start:stop] @ spectrum.basis.eigvals
        gs = np.concatenate(schedules, dtype=float)
        if _fmin(probabilities, axis=None, initial=1.0) < ZERO_PROBABILITY_FLOOR or (
            _fmax(probabilities, axis=None, initial=1.0) > PROBABILITY_CEILING
        ):  # the first in row order: each pointer, each observable, each g
            dark = probabilities < ZERO_PROBABILITY_FLOOR
            ks, rs = np.nonzero(dark | (probabilities > PROBABILITY_CEILING))
            first = np.lexsort((rs, ks, np.searchsorted(bounds, rs, side="right")))[0]
            k, r = ks[first], rs[first]
            if dark[k, r]:
                raise DarkDetectorError(f"orthogonal post-selection at g = {float(gs[r])!r}")
            raise ValueError(f"post-selection probability {float(probabilities[k, r])!r} exceeds 1")
        if not _all(gs):
            raise ValueError("coupling strength must be nonzero: the readout divides by g")
        scale, variance = np.array([s.calibration for s in spectra]).repeat(lengths, axis=0).T
        return readout / probabilities / (gs * scale) + 1j * (
            generator / probabilities
        ) / (2.0 * gs * variance)


_sum, _max, _fmin, _fmax = np.add.reduce, np.maximum.reduce, np.fmin.reduce, np.fmax.reduce
_all = np.logical_and.reduce


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
    residuals = _max(np.hypot(deviation[:k], deviation[k:]), axis=1, initial=0.0)
    return tuple(
        WeakValueEstimate(complex(re, im), schedule, residual)
        for re, im, residual in zip(
            intercept[:k].tolist(), intercept[k:].tolist(), residuals.tolist()
        )
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
