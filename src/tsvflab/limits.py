"""Weak-limit diagnostics: g-sweeps, power-law order fits, and the
comparison between the g -> 0 and spread -> infinity routes to the weak value.

The central quantities are norms measuring how the coupled state differs
from the uncoupled one:

* ``continuity_metric``   || U(g) Psi0 - Psi0 ||
* ``derail_metric``       norm of the system-orthogonal component of U(g) Psi0
* ``first_order_residual``|| U(g) Psi0 - (Psi0 - i g S|in> (x) P|m>) ||
* ``overlap_deficit``     1 - |<Psi0| U(g) Psi0>|

When S|in> is computed as exactly zero, Psi0 is a fixed point of U(g) at
every g, and each metric returns exactly 0.0 once the coupling's checks
pass, without diagonalizing S or P (``qcore.fixes_product``).

Fitting log(metric) against log(g) gives the leading order in g.  Metric
values at or below ``METRIC_FLOOR`` are treated as identically zero: they
are excluded from the fit and counted, so exact invariance is never
confused with a very high order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import FieldError, UnclassifiedOrderError
from .pointer import PointerModel, gaussian_pointer
from .qcore import (
    CouplingEvolution,
    LinearOperator,
    StateVector,
    first_order_state,
    fixes_product,
)
from .schedule import GSchedule, SpreadSchedule, default_g_schedule, fit_schedule
from .weakmeas import PointerReadout, PrePostSelection, weak_value

#: Metric values at or below this floor count as identically zero.
METRIC_FLOOR = 1e-14
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


def _coupled(pre, m, S, P, g):
    """(Psi0, U(g) Psi0) with Psi0 = |in> (x) |m>, as joint states, or None
    when ``fixes_product`` finds Psi0 an exact fixed point (S|in> computed
    as exactly zero): no coupling is then built, and every metric is 0.0."""
    joint, fixed = fixes_product(S, P, (g,), pre, m)
    if fixed:
        return None
    return joint, CouplingEvolution(S, P).apply(g, joint)


def continuity_metric(
    pre: StateVector, m: StateVector, S: LinearOperator, P: LinearOperator, g: float
) -> float:
    """|| U(g)(|in> (x) |m>) - |in> (x) |m> ||; zero at g = 0, bounded by 2."""
    coupled = _coupled(pre, m, S, P, g)
    if coupled is None:
        return 0.0
    joint, evolved = coupled
    return float(np.linalg.norm(evolved.state.amps - joint.state.amps))


def derail_metric(
    pre: StateVector, m: StateVector, S: LinearOperator, P: LinearOperator, g: float
) -> float:
    """Norm of the component of U(g) Psi0 orthogonal to |in> on the system factor."""
    if not pre.normalized:
        raise ValueError("derail metric requires a normalized system state")
    coupled = _coupled(pre, m, S, P, g)
    if coupled is None or g == 0.0:
        return 0.0
    evolved = coupled[1].as_matrix()
    overlap = pre.amps.conj() @ evolved  # pointer-space row
    orthogonal = evolved - np.outer(pre.amps, overlap)
    return float(np.linalg.norm(orthogonal))


def first_order_residual(
    pre: StateVector, m: StateVector, S: LinearOperator, P: LinearOperator, g: float
) -> float:
    """Norm distance between the exact evolution and its O(g) expansion."""
    coupled = _coupled(pre, m, S, P, g)
    if coupled is None:
        return 0.0
    expansion = first_order_state(pre, m, S, P, g)
    return float(np.linalg.norm(coupled[1].state.amps - expansion.state.amps))


def overlap_deficit(
    pre: StateVector, m: StateVector, S: LinearOperator, P: LinearOperator, g: float
) -> float:
    """1 - |<Psi0|U(g)|Psi0>|."""
    coupled = _coupled(pre, m, S, P, g)
    if coupled is None:
        return 0.0
    joint, evolved = coupled
    return float(1.0 - abs(np.vdot(joint.state.amps, evolved.state.amps)))


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
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(g_values):
        raise ValueError("g_values and metric_values lengths differ")
    log_g = np.log(np.array(fit_schedule(g_values)))
    if np.any(~np.isfinite(values)) or np.any(values < 0):
        raise ValueError("metric values must be finite and non-negative")
    usable = values > METRIC_FLOOR
    count = np.count_nonzero(usable, axis=1)
    fitted, n = count >= 4, np.maximum(count, 1)
    # a centred line per row through its usable points; the others weigh 0
    log_g = np.where(usable, log_g, 0.0)
    log_v = np.log(np.where(usable, values, 1.0))
    mean_g, mean_v = log_g.sum(axis=1) / n, log_v.sum(axis=1) / n
    dg = np.where(usable, log_g - mean_g[:, None], 0.0)
    dv = np.where(usable, log_v - mean_v[:, None], 0.0)
    slope = (dg * dv).sum(axis=1) / np.where(fitted, (dg * dg).sum(axis=1), 1.0)
    intercept = np.where(fitted, mean_v - slope * mean_g, 0.0)
    residuals = np.abs(slope[:, None] * dg - dv).max(axis=1)
    return (
        np.where(fitted, slope, ALL_FLOOR_ORDER),
        np.where(fitted, np.exp(intercept), 0.0),
        np.where(fitted, residuals, 0.0),
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
    n_points: int = 256,
    pointers: Sequence[PointerModel] | None = None,
) -> LimitComparison:
    """Estimate the weak value along g -> 0 (fixed spread) and along
    spread -> infinity (fixed g > 0), reporting each single-point readout
    and its deviation from the analytic value.  ``pointers`` from
    ``limit_pointers`` replaces the arguments it is built from.

    g is a property of the interaction while the spread is a property of
    the pointer, so the two routes are distinct experiments; both must
    converge to the same analytic ratio.
    """
    if pointers is None:
        pointers = limit_pointers(spread_schedule, fixed_spread, n_points)
    coupling_model, *spread_models = pointers
    analytic = weak_value(sel, S)
    gs = default_g_schedule(coupling_model) if g_schedule is None else GSchedule(g_schedule)

    coupling_branch = [
        LimitPoint(g, r, abs(r - analytic))
        for g, r in zip(gs, PointerReadout(sel, S, coupling_model).ratios(gs).tolist())
    ]
    spread_branch = []
    for model in spread_models:
        (r,) = PointerReadout(sel, S, model).ratios((fixed_coupling,)).tolist()
        spread_branch.append(LimitPoint(model.spread, r, abs(r - analytic)))

    branches = (tuple(coupling_branch), tuple(spread_branch))
    return LimitComparison(analytic, coupling_model.spread, fixed_coupling, *branches)
