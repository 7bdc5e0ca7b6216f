"""Coupling and spread schedules: their rules and their defaults.

A g-schedule is finite, positive and strictly decreasing, holds at least
4 points wherever g is extrapolated or fitted and at most
``MAX_SCHEDULE_POINTS``, and spans at least one decade wherever a leading
order is fitted.  A spread schedule is finite, positive and strictly
increasing with at least 2 points.  Every rule is checked here, always in
that order, so each entry point reports the same message for the same
schedule.  The least-squares line that the weak-value extrapolation and
the order fits draw over a schedule lives here too.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable

import numpy as np

from .errors import ScheduleError
from .pointer import GAUSSIAN_KIND, PointerModel

#: The most points a g-schedule may hold: over 100 times any schedule the
#: presets or an order fit use, and a bound on the per-g arrays of a run.
MAX_SCHEDULE_POINTS = 1024


def _finite(points: tuple[float, ...], label: str) -> tuple[float, ...]:
    if not all(map(math.isfinite, points)):
        raise ScheduleError(f"{label} points must be finite")
    return points


def _ordered(
    values: Iterable[float], label: str, decreasing: bool, min_points: int
) -> tuple[float, ...]:
    points = _finite(tuple(map(float, values)), label)
    if points and min(points) <= 0:
        raise ScheduleError(f"{label} points must be positive")
    if not all(map(operator.gt if decreasing else operator.lt, points, points[1:])):
        verb = "decrease" if decreasing else "increase"
        raise ScheduleError(f"{label} must {verb}")
    if len(points) < min_points:
        raise ScheduleError(f"{label} needs at least {min_points} points")
    return points


def _bounded(count: int) -> None:
    if count > MAX_SCHEDULE_POINTS:
        raise ScheduleError(f"schedule allows at most {MAX_SCHEDULE_POINTS} points")


class GSchedule(tuple):
    """Validated coupling strengths, a tuple of floats.

    Checked in order: finite, positive, strictly decreasing, at least
    ``min_points`` and at most ``MAX_SCHEDULE_POINTS`` long, and with
    ``span_decade`` g_max / g_min >= 10 (the order fits need a decade to
    tell first from second order).
    """

    __slots__ = ()

    def __new__(
        cls, values: Iterable[float], min_points: int = 4, span_decade: bool = False
    ) -> "GSchedule":
        schedule = values  # a GSchedule is finite, positive, decreasing and bounded
        if type(values) is not cls:
            schedule = super().__new__(cls, _ordered(values, "schedule", True, min_points))
            _bounded(len(schedule))
        elif len(schedule) < min_points:
            raise ScheduleError(f"schedule needs at least {min_points} points")
        if span_decade and math.log10(schedule[0] / schedule[-1]) < 1.0 - 1e-9:
            raise ScheduleError("schedule must span at least one decade")
        return schedule


class SpreadSchedule(tuple):
    """Validated pointer spreads: finite, positive, strictly increasing, >= 2 points."""

    __slots__ = ()

    def __new__(cls, values: Iterable[float]) -> "SpreadSchedule":
        return super().__new__(cls, _ordered(values, "spread schedule", False, 2))


def default_g_decade(
    g_max: float = 1e-2,
    g_min: float = 1e-4,
    points: int = 9,
    min_points: int = 4,
    span_decade: bool = False,
) -> GSchedule:
    """Decreasing geometric schedule used for all order fits by default,
    checked by ``GSchedule`` with ``min_points`` and ``span_decade``; the
    ends are checked for finiteness first, and ``points`` against
    ``MAX_SCHEDULE_POINTS`` before any is computed, with ``GSchedule``'s
    messages."""
    _finite((float(g_max), float(g_min)), "schedule")
    if not 0 < g_min < g_max:
        raise ScheduleError("need 0 < g_min < g_max")
    _bounded(points)
    # geomspace overwrites its ends with g_max and g_min, but first computes
    # 10 ** log10(g_max), which may overflow near the largest float; an
    # interior point that overflowed would fail GSchedule's finiteness check
    with np.errstate(over="ignore"):
        # a negative count is too few points, not a numpy error
        values = np.geomspace(g_max, g_min, max(points, 0))
    return GSchedule(values, min_points, span_decade)


def fit_schedule(g_values: Iterable[float] | None = None) -> GSchedule:
    """The schedule of an order fit: ``default_g_decade()`` when None,
    else ``g_values`` checked by ``GSchedule`` to span a decade."""
    return default_g_decade() if g_values is None else GSchedule(g_values, span_decade=True)


def default_g_schedule(model: PointerModel) -> GSchedule:
    """Geometric schedule of 5 points, ratio 2, starting at 0.02 * spread
    (0.02 for qubits)."""
    scale = model.spread if model.kind == GAUSSIAN_KIND else 1.0
    start = 0.02 * scale
    return GSchedule(start / 2.0**i for i in range(5))


def centred_line(x, y, usable=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The least-squares line y = intercept + slope x through each row of
    ``y`` (rows x points) at the points ``usable`` marks (all when None),
    in closed form about the row's centroid: (slope, intercept, deviation)
    with deviation = y - line at the usable points and 0 elsewhere.

    ``x`` broadcasts against ``y``.  A row whose usable x do not spread
    has slope 0.  A row's result does not depend on the others, to the bit;
    with every point usable, x is centred once for all rows.
    """
    if usable is None:
        n, mask = max(np.shape(y)[-1], 1), np.asarray
    else:
        n = np.maximum(np.count_nonzero(usable, axis=1), 1)[:, None]
        mask = lambda a: np.where(usable, a, 0.0)  # noqa: E731
    x, y = mask(np.asarray(x, dtype=float)), mask(np.asarray(y, dtype=float))
    mean_x, mean_y = _sum(x, axis=-1, keepdims=True) / n, _sum(y, axis=-1, keepdims=True) / n
    dx, dy = mask(x - mean_x), mask(y - mean_y)
    sxx = _sum(dx * dx, axis=-1, keepdims=True)
    slope = _sum(dx * dy, axis=-1, keepdims=True) / np.where(sxx > 0, sxx, 1.0)
    return slope[:, 0], (mean_y - slope * mean_x)[:, 0], dy - slope * dx


_sum = np.add.reduce
