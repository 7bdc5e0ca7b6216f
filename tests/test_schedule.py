"""Schedule rules: one message per broken rule, whichever entry point meets it."""

import math

import numpy as np
import pytest

from tsvflab import (
    GSchedule,
    PrePostSelection,
    ScheduleError,
    SpreadSchedule,
    build_nested_mzi,
    classify_presence,
    compare_limits,
    default_g_decade,
    estimate_weak_value,
    fit_order,
    parse,
    pauli_z,
    qubit_pointer,
    spin_up_x,
    spin_up_z,
)
from tsvflab.scenario import load_corpus_text, plan
from tsvflab.schedule import MAX_SCHEDULE_POINTS

SEL = PrePostSelection(spin_up_x(), spin_up_z())

# (schedule, message of the first broken rule, whether only fits apply it);
# rules are checked finite -> positive -> decreasing -> 4 points -> at most
# MAX_SCHEDULE_POINTS -> one decade
BAD_G_SCHEDULES = [
    ((0.02, math.inf, 0.001, 0.0001), "schedule points must be finite", False),
    ((math.nan, 0.01, 0.001, 0.0001), "schedule points must be finite", False),
    ((-0.01, 0.02, math.nan), "schedule points must be finite", False),
    ((0.02, 0.01, 0.005, -math.inf), "schedule points must be finite", False),
    ((0.02, 0.01, -0.005, 0.001), "schedule points must be positive", False),
    ((0.02, 0.0, 0.001, 0.0001), "schedule points must be positive", False),
    ((0.01, 0.02, 0.03, 0.04), "schedule must decrease", False),
    ((0.02, 0.01, 0.01, 0.001), "schedule must decrease", False),
    ((0.01, 0.02), "schedule must decrease", False),
    ((-0.01, 0.02), "schedule points must be positive", False),
    ((0.02, 0.01, 0.001), "schedule needs at least 4 points", False),
    (tuple(np.geomspace(1e-2, 1e-6, 1025)), "schedule allows at most 1024 points", False),
    ((0.01, 0.005) * 513, "schedule must decrease", False),
    ((0.01, 0.008, 0.006, 0.004), "schedule must span at least one decade", True),
]


def _with_line(name: str, key: str, values) -> tuple[str, tuple[int, int]]:
    """A corpus scenario with ``key`` set to ``values``, and that value's position."""
    lines = [
        line for line in load_corpus_text(name).splitlines()
        if not line.startswith(f"{key} =")
    ]
    lines.append(f"{key} = " + ", ".join(repr(float(v)) for v in values))
    return "\n".join(lines) + "\n", (len(lines), len(key) + 4)


def _validate(name: str, key: str, values) -> None:
    """Raise the run plan's diagnostic as a ScheduleError, after checking
    that it sits on the schedule's value; a point the file grammar cannot
    spell (inf, nan) is the parser's diagnostic instead, on that point."""
    text, position = _with_line(name, key, values)
    parsed = parse(text)
    if not parsed.ok:
        (diag,) = parsed.diagnostics
        token = _unspellable(values)
        assert token is not None, parsed.diagnostics
        line = text.splitlines()[position[0] - 1]
        assert (diag.line, diag.column) == (position[0], line.index(token) + 1)
        raise ScheduleError(diag.message)
    checked = plan(parsed.doc, parsed.doc.experiment.kind)
    if checked.plan is not None:
        return
    (diag,) = checked.diagnostics
    assert (diag.line, diag.column) == position
    raise ScheduleError(diag.message)


def _unspellable(values) -> str | None:
    """The first point a scenario file cannot spell, as ``_with_line`` writes it."""
    return next((repr(float(v)) for v in values if not math.isfinite(v)), None)


def _expected(entry: str, values, message: str) -> str:
    """The message ``entry`` reports: a scenario file meets a non-finite
    point in the parser, which has no number for it."""
    token = _unspellable(values)
    if entry.startswith("validate") and token is not None:
        return f"malformed number {token!r}"
    return message


# entry point -> (call with a g-schedule, whether it fits an order)
G_ENTRY_POINTS = {
    "GSchedule": (lambda s: GSchedule(s), False),
    "GSchedule-fit": (lambda s: GSchedule(s, span_decade=True), True),
    "estimate_weak_value": (
        lambda s: estimate_weak_value(SEL, pauli_z(), qubit_pointer(), s), False
    ),
    "fit_order": (lambda s: fit_order(s, [1.0] * len(s)), True),
    "classify_presence": (
        lambda s: classify_presence(build_nested_mzi(), ["A"], qubit_pointer(), s), True
    ),
    "validate-weakvalue": (lambda s: _validate("spin_sz", "g_schedule", s), False),
    "validate-compare_limits": (
        lambda s: _validate("compare_limits_demo", "g_schedule", s), False
    ),
    "validate-sweep": (lambda s: _validate("eigenvalue_zero", "g_schedule", s), True),
    "validate-presence": (
        lambda s: _validate("nested_mzi_presence", "g_schedule", s), True
    ),
}


@pytest.mark.parametrize("entry", sorted(G_ENTRY_POINTS))
@pytest.mark.parametrize("schedule,message,fits_only", BAD_G_SCHEDULES)
def test_g_schedule_rules_agree(entry, schedule, message, fits_only):
    call, fits = G_ENTRY_POINTS[entry]
    if fits_only and not fits:
        call(schedule)  # the rule does not apply here
        return
    with pytest.raises(ScheduleError) as info:
        call(schedule)
    assert str(info.value) == _expected(entry, schedule, message)


def test_trace_plan_reads_any_positive_decreasing_schedule():
    text = load_corpus_text("nested_mzi_presence").replace(
        "plan = presence", "plan = trace"
    ) + "g_schedule = 0.01, 0.008\n"
    checked = plan(parse(text).doc, "trace")
    assert checked.plan is not None, checked.diagnostics
    assert checked.plan.g_schedule == (0.01, 0.008)
    assert isinstance(checked.plan.g_schedule, GSchedule)


BAD_SPREAD_SCHEDULES = [
    ((2.0, math.inf), "spread schedule points must be finite"),
    ((math.nan, -4.0, 8.0), "spread schedule points must be finite"),
    ((2.0, -4.0, 8.0), "spread schedule points must be positive"),
    ((4.0, 2.0), "spread schedule must increase"),
    ((2.0, 2.0, 4.0), "spread schedule must increase"),
    ((4.0,), "spread schedule needs at least 2 points"),
]

SPREAD_ENTRY_POINTS = {
    "SpreadSchedule": SpreadSchedule,
    "compare_limits": lambda s: compare_limits(SEL, pauli_z(), spread_schedule=s),
    "validate": lambda s: _validate("compare_limits_demo", "spread_schedule", s),
}


@pytest.mark.parametrize("entry", sorted(SPREAD_ENTRY_POINTS))
@pytest.mark.parametrize("schedule,message", BAD_SPREAD_SCHEDULES)
def test_spread_schedule_rules_agree(entry, schedule, message):
    with pytest.raises(ScheduleError) as info:
        SPREAD_ENTRY_POINTS[entry](schedule)
    assert str(info.value) == _expected(entry, schedule, message)


def test_schedules_are_tuples_of_floats():
    schedule = GSchedule([0.04, 0.02, 0.01, 0.005])
    assert schedule == (0.04, 0.02, 0.01, 0.005)
    assert len(schedule) == 4
    assert all(type(g) is float for g in schedule)
    assert SpreadSchedule((1, 2)) == (1.0, 2.0)


def test_default_decade_validates_its_points():
    with pytest.raises(ScheduleError, match="at least 4"):
        default_g_decade(points=3)
    with pytest.raises(ScheduleError, match="at least 4"):
        default_g_decade(points=-1)
    assert isinstance(default_g_decade(), GSchedule)
    assert len(default_g_decade(points=MAX_SCHEDULE_POINTS)) == MAX_SCHEDULE_POINTS
    with pytest.raises(ScheduleError) as info:
        default_g_decade(points=10**12)  # refused before any point is computed
    assert str(info.value) == f"schedule allows at most {MAX_SCHEDULE_POINTS} points"


@pytest.mark.parametrize(
    "ends", [{"g_max": math.inf}, {"g_min": math.nan}, {"g_max": math.nan, "g_min": -1.0}]
)
def test_default_decade_checks_finite_ends_first(ends):
    # else nan ends read as 'need 0 < g_min < g_max' and g_max = inf passes it
    with pytest.raises(ScheduleError) as info:
        default_g_decade(**ends)
    assert str(info.value) == "schedule points must be finite"


def test_fit_schedule_defaults_to_the_decade_and_checks_the_span():
    from tsvflab.schedule import fit_schedule

    assert fit_schedule() == default_g_decade()
    assert fit_schedule([0.1, 0.05, 0.02, 0.01]) == (0.1, 0.05, 0.02, 0.01)
    with pytest.raises(ScheduleError, match="span at least one decade"):
        fit_schedule([0.04, 0.02, 0.01, 0.005])
