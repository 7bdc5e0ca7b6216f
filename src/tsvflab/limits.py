"""Weak-limit diagnostics: g-sweeps, power-law order fits, and the
comparison between the g -> 0 and spread -> infinity routes to the weak value.

The central quantities are norms measuring how the coupled state differs
from the uncoupled one:

* ``continuity_metric``   || U(g) Psi0 - Psi0 ||
* ``derail_metric``       norm of the system-orthogonal component of U(g) Psi0
* ``first_order_residual``|| U(g) Psi0 - (Psi0 - i g S|in> (x) P|m>) ||
* ``overlap_deficit``     1 - |<Psi0| U(g) Psi0>|

The first-order two are read in closed form in the joint eigenbasis of
S (x) P, from c_i = |<v_i|in>|^2, w_k = |<k|m>|^2 and the phases of
theta_ik = g lambda_i mu_k (``Eigenbasis.phase_change``), at O(dim n) per
g with nothing cancelling: continuity^2 = sum_ik c_i w_k 4 sin^2(theta_ik/2)
and derail^2 = sum_k w_k (1 - |<in|exp(-i g mu_k S)|in>|^2), taken with
lambda centred on <in|S|in>.  One kernel, ``_closed_form``, reads them
along a whole schedule: the coupling's checks, S's ``eigh``, the weights
and the centred spectrum once, then the phases of each g, checked finite
before any is formed (``qcore.require_finite_phases``).  The metrics are
its one-g case.  The second-order two evolve Psi0 densely, one
``CouplingEvolution`` per g (``_coupled``).

When S|in> is computed as exactly zero, Psi0 is a fixed point of U(g) at
every g, and each metric is exactly 0.0 without diagonalizing S or P
(``qcore.fixes_product``); ``sweep_coupling`` decides that once a sweep.

Fitting log(metric) against log(g) gives the leading order in g.  Metric
values at or below ``METRIC_FLOOR`` are treated as identically zero: they
are excluded from the fit and counted, so exact invariance is never
confused with a very high order.  Weak traces are zero only where exactly
0.0 (``fit_trace_orders``).

``compare_limits`` reads both routes to the weak limit, g -> 0 at a fixed
spread and spread -> infinity at a fixed g, in one ``PointerReadout`` pass
over all of its pointers, Gaussian pointers on one grid size, with one
spectrum per distinct pointer.  A zero fixed g is rejected, since the
readout divides by g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import FieldError, UnclassifiedOrderError
from .pointer import (
    GAUSSIAN_KIND,
    PointerModel,
    gaussian_pointer,
    pointer_spectrum,
    translation_generator,
)
from .qcore import (
    CouplingEvolution,
    Eigenbasis,
    LinearOperator,
    StateVector,
    first_order_state,
    fixes_product,
    require_finite_phases,
    tensor_product,
)
from .schedule import (
    GSchedule, SpreadSchedule, centred_line, default_g_schedule, fit_schedule
)
from .tolerances import METRIC_FLOOR
from .weakmeas import PointerReadout, PrePostSelection, weak_value

#: Sentinel order for all-floor sweeps: no trace at any fitted order.
ALL_FLOOR_ORDER = math.inf

#: compare_limits' spread schedule, fixed spread and fixed coupling when
#: none are given.
DEFAULT_SPREADS = (2.0, 4.0, 8.0, 16.0, 32.0)
DEFAULT_FIXED_SPREAD = 2.0
DEFAULT_FIXED_COUPLING = 0.5

#: Fitted-order classification bands.
FIRST_ORDER_BAND = (0.75, 1.25)
SECOND_ORDER_BAND = (1.75, 2.5)


def _coupled(pre, m, S, P, g, read) -> float:
    """``read(Psi0, U(g) Psi0)``, the amplitudes of Psi0 = |in> (x) |m> and
    of its evolution, or 0.0 when ``fixes_product`` finds Psi0 an exact
    fixed point (S|in> computed as exactly zero): no coupling is then built."""
    if fixes_product(S, P, (g,), pre, m):
        return 0.0
    joint = tensor_product(pre, m)
    return float(read(joint.state.amps, CouplingEvolution(S, P).apply(g, joint).state.amps))


def _closed_form(metric, pre, m, S, P, g_values) -> list[float]:
    """``metric``, ``continuity_metric`` or ``derail_metric``, at each g of
    ``g_values``, with P dense or an ``Eigenbasis``.

    The coupling's checks and the fixed point are decided once for the
    whole schedule (``fixes_product``); S is diagonalized once, and the
    weights c and w and the rates lambda, derail's centred on <S>, are
    taken once.  Every phase (g rate) mu is checked finite before any is
    formed (``require_finite_phases``); derail is 0.0 at g = 0, where it
    forms none.
    """
    derail = metric is derail_metric
    if derail and not pre.normalized:
        raise ValueError("derail metric requires a normalized system state")
    phased = [g for g in g_values if g or not derail]
    if fixes_product(S, P, g_values, pre, m) or not phased:
        return [0.0] * len(g_values)
    system, basis = Eigenbasis.of(S), P if isinstance(P, Eigenbasis) else Eigenbasis.of(P)
    c, eigvals, w = system.weights(pre.amps), system.eigvals, basis.weights(m.amps)
    # x - 0.0 is x bit for bit; the rates' ends, in Python floats, overflow
    # without a warning and bound every rate as it is rounded
    mean = float(c @ eigvals) if derail else 0.0
    ends = abs(float(eigvals.min()) - mean), abs(float(eigvals.max()) - mean)
    require_finite_phases(max(ends), phased, float(np.abs(basis.eigvals).max()))
    rates = (eigvals - mean)[:, None]

    def value(g):
        real, imag = basis.phase_change(g * rates)
        if not derail:
            # |exp(-i t) - 1|^2 = -2 Re(exp(-i t) - 1); no term is positive
            return math.sqrt(abs(-2.0 * (c @ real @ w)))
        # 1 - |<in|exp(-i g mu_k S)|in>|^2 = -2 a_k - a_k^2 - b_k^2, where
        # a_k + i b_k = sum_i c_i (exp(-i g (lambda_i - <S>) mu_k) - 1)
        a, b = c @ real, c @ imag
        return math.sqrt(max(w @ (-2.0 * a - a * a - b * b), 0.0)) if g else 0.0

    return [value(g) for g in g_values]


def continuity_metric(
    pre: StateVector, m: StateVector, S: LinearOperator, P: LinearOperator | Eigenbasis, g: float
) -> float:
    """|| U(g)(|in> (x) |m>) - |in> (x) |m> ||; zero at g = 0, bounded by 2."""
    return _closed_form(continuity_metric, pre, m, S, P, (g,))[0]


def derail_metric(
    pre: StateVector, m: StateVector, S: LinearOperator, P: LinearOperator | Eigenbasis, g: float
) -> float:
    """Norm of the component of U(g) Psi0 orthogonal to |in> on the system factor."""
    return _closed_form(derail_metric, pre, m, S, P, (g,))[0]


def first_order_residual(
    pre: StateVector, m: StateVector, S: LinearOperator, P: LinearOperator, g: float
) -> float:
    """Norm distance between the exact evolution and its O(g) expansion,
    scaled by a power of two so that its square cannot overflow."""
    return _coupled(pre, m, S, P, g, lambda _, evolved: StateVector(
        evolved - first_order_state(pre, m, S, P, g).state.amps, normalized=None).norm())


def overlap_deficit(
    pre: StateVector, m: StateVector, S: LinearOperator, P: LinearOperator, g: float
) -> float:
    """1 - |<Psi0|U(g)|Psi0>|."""
    return _coupled(pre, m, S, P, g, lambda joint, evolved: 1.0 - abs(np.vdot(joint, evolved)))


#: metric name -> its value at one g, as a function of (pre, m, S, P, g)
METRICS = {
    "continuity": continuity_metric,
    "derail": derail_metric,
    "first_order_residual": first_order_residual,
    "overlap_deficit": overlap_deficit,
}


def fit_orders(
    g_values: Sequence[float], values
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``fit_order`` of every row of ``values`` at once, as (orders,
    coefficients, residuals) arrays, with ``fit_order``'s checks in its
    order.  A row's result does not depend on the others, to the bit."""
    return _fit_above(g_values, values, METRIC_FLOOR)


def fit_trace_orders(g_values: Sequence[float], traces) -> tuple:
    """``fit_orders`` of weak traces, leaving out exact zeros only: a
    second-order trace falls below ``METRIC_FLOOR`` near g = 1e-7."""
    return _fit_above(g_values, traces, 0.0)


def _fit_above(g_values, values, floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(g_values):
        raise ValueError("g_values and metric_values lengths differ")
    log_g = np.log(np.array(fit_schedule(g_values)))
    if np.any(~np.isfinite(values)) or np.any(values < 0):
        raise ValueError("metric values must be finite and non-negative")
    usable = values > floor
    fitted = np.count_nonzero(usable, axis=1) >= 4
    # a line per row through its usable points; the others weigh 0
    slope, intercept, deviation = centred_line(
        log_g, np.log(np.where(usable, values, 1.0)), usable
    )
    # an unfitted row's intercept may be of any size, so exp sees 0 there
    return (
        np.where(fitted, slope, ALL_FLOOR_ORDER),
        np.where(fitted, np.exp(np.where(fitted, intercept, 0.0)), 0.0),
        np.where(fitted, np.abs(deviation).max(axis=1), 0.0),
    )


def fit_order(
    g_values: Sequence[float], metric_values: Sequence[float]
) -> tuple[float, float, float]:
    """Least-squares line in (log g, log metric).

    Returns (order, coefficient, residual) where order is the slope,
    coefficient is exp(intercept) and residual is the maximum absolute
    deviation in log-log space.  Fewer than 4 points above the floor is
    the all-floor outcome: (inf, 0.0, 0.0), meaning the metric left no
    trace at any fitted order.
    """
    fit = fit_orders(g_values, [metric_values])
    return tuple(float(column[0]) for column in fit)


@dataclass(frozen=True)
class SweepResult:
    """A metric evaluated along a decreasing g-schedule, with its power fit."""

    g_values: tuple[float, ...]
    metric_values: tuple[float, ...]
    fitted_order: float
    fitted_coefficient: float
    fit_residual: float
    floored_points: int

    def __post_init__(self):
        if len(self.g_values) != len(self.metric_values):
            raise ValueError("g_values and metric_values lengths differ")
        if any(v < 0 for v in self.metric_values):
            raise ValueError("metric values must be non-negative")
        fit_schedule(self.g_values)

    @property
    def all_floor(self) -> bool:
        return math.isinf(self.fitted_order)


def sweep_metric(
    metric: Callable[[float], float], g_values: Sequence[float] | None = None
) -> SweepResult:
    """Evaluate ``metric(g)`` along a schedule and fit its leading order."""
    schedule = fit_schedule(g_values)
    values = tuple(float(metric(g)) for g in schedule)
    order, coefficient, residual = fit_order(schedule, values)
    floored = sum(1 for v in values if v <= METRIC_FLOOR)
    return SweepResult(schedule, values, order, coefficient, residual, floored)


def sweep_coupling(
    metric: Callable[..., float],
    sel: PrePostSelection,
    S: LinearOperator,
    model: PointerModel,
    g_values: Sequence[float] | None = None,
) -> SweepResult:
    """``sweep_metric`` of ``metric(sel.pre, m, S, P, g)``, one of
    ``METRICS``, with |m> the ready state and P the generator of ``model``.

    The continuity and derail metrics are read by one ``_closed_form``
    call over the whole schedule, in the pointer's ``Eigenbasis``
    (``pointer_spectrum``) at O(dim n) per g: the coupling's checks (S
    hermitian, each g finite, the joint dimensions) and the fixed point are
    decided once, and S is diagonalized once, whatever the schedule's
    length.  For the second-order metrics, whether |in> (x) |m> is a fixed
    point at every g is decided once, from the pointer's spectrum, after
    the same checks; a fixed point sweeps to exactly 0.0 without calling
    ``metric``, and otherwise they take one dense ``translation_generator``,
    which they diagonalize at each g.  Each value is the metric's own at
    that g, bit for bit.
    """
    schedule = fit_schedule(g_values)
    spectrum = pointer_spectrum(model)
    ready = StateVector(spectrum.ready)
    if metric in (continuity_metric, derail_metric):
        values = _closed_form(metric, sel.pre, ready, S, spectrum.basis, schedule)
        return sweep_metric(dict(zip(schedule, values)).__getitem__, schedule)
    if fixes_product(S, spectrum.basis, schedule, sel.pre, ready):
        return sweep_metric(lambda g: 0.0, schedule)
    P = translation_generator(model)
    return sweep_metric(lambda g: metric(sel.pre, ready, S, P, g), schedule)


def classify_order(order: float, context: str = "metric") -> str:
    """Map a fitted order onto {"first", "second", "none"}.

    Orders outside both bands raise rather than silently guessing.
    """
    if math.isinf(order):
        return "none"
    if FIRST_ORDER_BAND[0] <= order <= FIRST_ORDER_BAND[1]:
        return "first"
    if SECOND_ORDER_BAND[0] <= order <= SECOND_ORDER_BAND[1]:
        return "second"
    raise UnclassifiedOrderError(
        f"fitted order {order:.3f} for {context} falls outside the "
        f"first-order band {FIRST_ORDER_BAND} and second-order band "
        f"{SECOND_ORDER_BAND}"
    )


@dataclass(frozen=True)
class LimitPoint:
    parameter: float
    estimate: complex
    deviation: float


@dataclass(frozen=True)
class LimitComparison:
    """Weak-value trajectories along both routes to the weak limit."""

    analytic: complex
    fixed_spread: float
    fixed_coupling: float
    coupling_branch: tuple[LimitPoint, ...]  # g -> 0 at fixed spread
    spread_branch: tuple[LimitPoint, ...]  # spread -> infinity at fixed g


def limit_pointers(
    spread_schedule: Sequence[float] = DEFAULT_SPREADS,
    fixed_spread: float = DEFAULT_FIXED_SPREAD,
    n_points: int = 256,
) -> tuple[PointerModel, ...]:
    """``compare_limits``' pointers on an ``n_points`` grid: the g -> 0
    route's at ``fixed_spread``, then one per spread of the checked
    schedule.  The first that cannot be built raises its FieldError, naming
    the spread, with the path of what is at fault: ("n_points",), or the
    spread's source, ("fixed_spread",) or ("spread_schedule",)."""
    sources = [("fixed_spread", fixed_spread)]
    sources += [("spread_schedule", spread) for spread in SpreadSchedule(spread_schedule)]
    pointers = []
    for source, spread in sources:
        try:
            pointers.append(gaussian_pointer(spread, n_points))
        except FieldError as err:
            at = err.path if err.path == ("n_points",) else (source,)
            raise FieldError(f"compare_limits pointer at spread {spread!r}: {err}", *at) from None
    return tuple(pointers)


def compare_limits(
    sel: PrePostSelection,
    S: LinearOperator,
    spread_schedule: Sequence[float] = DEFAULT_SPREADS,
    g_schedule: Sequence[float] | None = None,
    fixed_spread: float = DEFAULT_FIXED_SPREAD,
    fixed_coupling: float = DEFAULT_FIXED_COUPLING,
    pointers: Sequence[PointerModel] | None = None,
) -> LimitComparison:
    """Estimate the weak value along g -> 0 (fixed spread) and along
    spread -> infinity (fixed g > 0), reporting each single-point readout
    and its deviation from the analytic value.  ``pointers`` from
    ``limit_pointers`` replaces the spreads it is built from, and sets the
    grid size (256 points without it): the first is the g -> 0 route's,
    every other one a pointer of the spread route.  Every pointer must be
    a gaussian_grid pointer of the first one's grid size, as ``plan``
    builds them, so that the two routes differ only in g and spread; any
    other pointer is a ValueError before the readout.

    Every row, the g -> 0 pointer at each g and then each spread pointer at
    ``fixed_coupling``, is read in one ``PointerReadout`` pass: one
    ``eigh`` of S, and each pointer in its own momenta.  Its checks come in
    the readout's order: S hermitian, each g finite, the dimensions, then a
    dark or above-one post-selection probability row by row, then a zero g.

    g is a property of the interaction while the spread is a property of
    the pointer, so the two routes are distinct experiments; both must
    converge to the same analytic ratio.
    """
    pointers = (
        limit_pointers(spread_schedule, fixed_spread) if pointers is None else tuple(pointers)
    )
    if not pointers:
        raise ValueError("compare_limits needs a pointer for the g -> 0 route")
    coupling_model, *spread_models = pointers
    for model in pointers:
        if model.kind != GAUSSIAN_KIND:
            raise ValueError(
                f"compare_limits needs {GAUSSIAN_KIND} pointers, not a {model.kind} pointer"
            )
        if model.n_points != coupling_model.n_points:
            raise ValueError(
                f"compare_limits reads one grid: a {model.n_points}-point pointer "
                f"after a {coupling_model.n_points}-point one"
            )
    analytic = weak_value(sel, S)
    gs = default_g_schedule(coupling_model) if g_schedule is None else GSchedule(g_schedule)

    schedules = [gs, *[(fixed_coupling,)] * len(spread_models)]
    (ratios,) = PointerReadout(sel, (S,), pointers).ratios(schedules).tolist()
    coupling_branch = (LimitPoint(g, r, abs(r - analytic)) for g, r in zip(gs, ratios))
    spread_branch = (
        LimitPoint(model.spread, r, abs(r - analytic))
        for model, r in zip(spread_models, ratios[len(gs):])
    )
    branches = (tuple(coupling_branch), tuple(spread_branch))
    return LimitComparison(analytic, coupling_model.spread, fixed_coupling, *branches)
