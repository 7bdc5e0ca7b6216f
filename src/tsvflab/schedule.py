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
from typing import Iterable

import numpy as np

from .errors import ScheduleError
from .pointer import GAUSSIAN_KIND, PointerModel

#: The most points a g-schedule may hold: over 100 times any schedule the
#: presets or an order fit use, and a bound on the per-g arrays of a run.
MAX_SCHEDULE_POINTS = 1024


def _finite(points: tuple[float, ...], label: str) -> tuple[float, ...]:
    if not all(math.isfinite(v) for v in points):
        raise ScheduleError(f"{label} points must be finite")
    return points


def _ordered(
    values: Iterable[float], label: str, decreasing: bool, min_points: int
) -> tuple[float, ...]:
    points = _finite(tuple(float(v) for v in values), label)
    if any(v <= 0 for v in points):
        raise ScheduleError(f"{label} points must be positive")
    if any(b >= a if decreasing else b <= a for a, b in zip(points, points[1:])):
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
        schedule = super().__new__(cls, _ordered(values, "schedule", True, min_points))
        _bounded(len(schedule))
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
    has slope 0.  A row's result does not depend on the others, to the bit.
    """
    y = np.asarray(y, dtype=float)
    usable = np.ones(y.shape, dtype=bool) if usable is None else usable
    n = np.maximum(np.count_nonzero(usable, axis=1), 1)
    x, y = np.where(usable, x, 0.0), np.where(usable, y, 0.0)
    mean_x, mean_y = x.sum(axis=1) / n, y.sum(axis=1) / n
    dx = np.where(usable, x - mean_x[:, None], 0.0)
    dy = np.where(usable, y - mean_y[:, None], 0.0)
    sxx = (dx * dx).sum(axis=1)
    slope = (dx * dy).sum(axis=1) / np.where(sxx > 0, sxx, 1.0)
    return slope, mean_y - slope * mean_x, dy - slope[:, None] * dx
