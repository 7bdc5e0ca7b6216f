"""Weak-limit diagnostics: g-sweeps, power-law order fits, and the
comparison between the g -> 0 and spread -> infinity routes to the weak value.

The central quantities are norms measuring how the coupled state differs
from the uncoupled one:

* ``continuity_metric``   || U(g) Psi0 - Psi0 ||
* ``derail_metric``       norm of the system-orthogonal component of U(g) Psi0
* ``first_order_residual``|| U(g) Psi0 - (Psi0 - i g S|in> (x) P|m>) ||
* ``overlap_deficit``     1 - |<Psi0| U(g) Psi0>|

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

from .errors import ScheduleError, UnclassifiedOrderError
from .pointer import gaussian_pointer
from .qcore import (
    CouplingEvolution,
    LinearOperator,
    StateVector,
    first_order_state,
    tensor_product,
)
from .schedule import GSchedule, SpreadSchedule, default_g_decade, default_g_schedule
from .weakmeas import PointerReadout, PrePostSelection, weak_value

#: Metric values at or below this floor count as identically zero.
METRIC_FLOOR = 1e-14
#: Sentinel order for all-floor sweeps: no trace at any fitted order.
ALL_FLOOR_ORDER = math.inf

#: Fitted-order classification bands.
FIRST_ORDER_BAND = (0.75, 1.25)
SECOND_ORDER_BAND = (1.75, 2.5)


def _coupled(pre, m, S, P, g):
    """(Psi0, U(g) Psi0) with Psi0 = |in> (x) |m>, as joint states."""
    evolution = CouplingEvolution(S, P)
    joint = tensor_product(pre, m)
    return joint, evolution.apply(g, joint)


def continuity_metric(
    pre: StateVector, m: StateVector, S: LinearOperator, P: LinearOperator, g: float
) -> float:
    """|| U(g)(|in> (x) |m>) - |in> (x) |m> ||; zero at g = 0, bounded by 2."""
    joint, evolved = _coupled(pre, m, S, P, g)
    return float(np.linalg.norm(evolved.state.amps - joint.state.amps))


def derail_metric(
    pre: StateVector, m: StateVector, S: LinearOperator, P: LinearOperator, g: float
) -> float:
    """Norm of the component of U(g) Psi0 orthogonal to |in> on the system factor."""
    if not pre.normalized:
        raise ValueError("derail metric requires a normalized system state")
    evolved = _coupled(pre, m, S, P, g)[1].as_matrix()
    if g == 0.0:
        return 0.0
    overlap = pre.amps.conj() @ evolved  # pointer-space row
    orthogonal = evolved - np.outer(pre.amps, overlap)
    return float(np.linalg.norm(orthogonal))


def first_order_residual(
    pre: StateVector, m: StateVector, S: LinearOperator, P: LinearOperator, g: float
) -> float:
    """Norm distance between the exact evolution and its O(g) expansion."""
    _, exact = _coupled(pre, m, S, P, g)
    expansion = first_order_state(pre, m, S, P, g)
    return float(np.linalg.norm(exact.state.amps - expansion.state.amps))


def overlap_deficit(
    pre: StateVector, m: StateVector, S: LinearOperator, P: LinearOperator, g: float
) -> float:
    """1 - |<Psi0|U(g)|Psi0>|."""
    joint, evolved = _coupled(pre, m, S, P, g)
    return float(1.0 - abs(np.vdot(joint.state.amps, evolved.state.amps)))


#: metric name -> its value at one g, as a function of (pre, m, S, P, g)
METRICS = {
    "continuity": continuity_metric,
    "derail": derail_metric,
    "first_order_residual": first_order_residual,
    "overlap_deficit": overlap_deficit,
}


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
    if len(g_values) != len(metric_values):
        raise ValueError("g_values and metric_values lengths differ")
    gs = np.array(GSchedule(g_values, span_decade=True))
    ms = np.asarray([float(v) for v in metric_values])
    if np.any(~np.isfinite(ms)) or np.any(ms < 0):
        raise ValueError("metric values must be finite and non-negative")
    usable = ms > METRIC_FLOOR
    if int(np.count_nonzero(usable)) < 4:
        return (ALL_FLOOR_ORDER, 0.0, 0.0)
    log_g = np.log(gs[usable])
    log_m = np.log(ms[usable])
    slope, intercept = np.polyfit(log_g, log_m, 1)
    residual = float(np.max(np.abs(slope * log_g + intercept - log_m)))
    return (float(slope), float(math.exp(intercept)), residual)


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
        GSchedule(self.g_values, span_decade=True)

    @property
    def all_floor(self) -> bool:
        return math.isinf(self.fitted_order)


def sweep_metric(
    metric: Callable[[float], float], g_values: Sequence[float] | None = None
) -> SweepResult:
    """Evaluate ``metric(g)`` along a schedule and fit its leading order."""
    if g_values is None:
        schedule = default_g_decade()
    else:
        schedule = GSchedule(g_values, span_decade=True)
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


def compare_limits(
    sel: PrePostSelection,
    S: LinearOperator,
    spread_schedule: Sequence[float] = (2.0, 4.0, 8.0, 16.0, 32.0),
    g_schedule: Sequence[float] | None = None,
    fixed_spread: float = 2.0,
    fixed_coupling: float = 0.5,
    n_points: int = 256,
) -> LimitComparison:
    """Estimate the weak value along g -> 0 (fixed spread) and along
    spread -> infinity (fixed g), reporting each single-point readout and
    its deviation from the analytic value.

    g is a property of the interaction while the spread is a property of
    the pointer, so the two routes are distinct experiments; both must
    converge to the same analytic ratio.
    """
    spreads = SpreadSchedule(spread_schedule)
    if fixed_coupling <= 0 or fixed_spread <= 0:
        raise ScheduleError("fixed coupling and spread must be positive")

    analytic = weak_value(sel, S)

    coupling_model = gaussian_pointer(fixed_spread, n_points)
    gs = default_g_schedule(coupling_model) if g_schedule is None else GSchedule(g_schedule)

    coupling_branch = [
        LimitPoint(g, r, abs(r - analytic))
        for g, r in zip(gs, PointerReadout(sel, S, coupling_model).ratios(gs).tolist())
    ]
    spread_branch = []
    for spread in spreads:
        model = gaussian_pointer(spread, n_points)
        (r,) = PointerReadout(sel, S, model).ratios((fixed_coupling,)).tolist()
        spread_branch.append(LimitPoint(spread, r, abs(r - analytic)))

    return LimitComparison(
        analytic,
        fixed_spread,
        fixed_coupling,
        tuple(coupling_branch),
        tuple(spread_branch),
    )

