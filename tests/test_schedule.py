"""Schedule rules: one message per broken rule, whichever entry point meets it."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from tsvflab.schedule import MAX_SCHEDULE_POINTS, centred_line

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
    # a GSchedule is checked again only for its length and its span
    "GSchedule-of-GSchedule": (lambda s: GSchedule(GSchedule(s, min_points=1)), False),
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


class TestCentredLine:
    """The closed-form line of the weak-value extrapolation and the order
    fits, against ``np.polyfit`` as an oracle."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        g_max=st.floats(1e-290, 1.7e300),
        ratio=st.floats(0.05, 0.8),
        points=st.integers(4, 12),
        rows=st.integers(1, 6),
    )
    @example(seed=1, g_max=1e-290, ratio=0.05, points=8, rows=3)  # g_min ~ 8e-300
    @example(seed=2, g_max=1.7e300, ratio=0.5, points=5, rows=2)
    @example(seed=3, g_max=1e300, ratio=0.8, points=12, rows=1)
    def test_matches_polyfit_on_any_accepted_schedule(self, seed, g_max, ratio, points, rows):
        rng = np.random.default_rng(seed)
        schedule = GSchedule(g_max * ratio**i for i in range(points))
        # a schedule's g/g_max spans (0, 1]; polyfit in g itself would
        # overflow or underflow at these ends
        x = np.array(schedule) / schedule[0]
        y = (rng.uniform(-3, 3, (rows, 1)) + rng.uniform(-3, 3, (rows, 1)) * x
             + 10.0 ** rng.uniform(-12, 0) * rng.standard_normal((rows, points)))
        slope, intercept, deviation = centred_line(x, y)
        for row in range(rows):
            want_slope, want_intercept = np.polyfit(x, y[row], 1)
            scale = np.max(np.abs(y[row])) / (x[0] - x[-1])
            assert abs(slope[row] - want_slope) <= 1e-12 * scale
            assert abs(intercept[row] - want_intercept) <= 1e-12 * scale
            want = y[row] - np.polyval((want_slope, want_intercept), x)
            assert np.max(np.abs(deviation[row] - want)) <= 1e-12 * scale
            # a row's line does not depend on the other rows, to the bit
            alone = centred_line(x, y[row:row + 1])
            assert (alone[0][0], alone[1][0]) == (slope[row], intercept[row])
            np.testing.assert_array_equal(alone[2][0], deviation[row])

    def test_points_left_out_weigh_nothing(self):
        x = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
        y = np.array([[2.0 + 3.0 * v for v in x], [1.0, 7.0, 1.0, 1.0, 1.0]])
        usable = np.array([[True] * 5, [True, False, True, True, False]])
        slope, intercept, deviation = centred_line(x, y, usable)
        np.testing.assert_allclose(slope, [3.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(intercept, [2.0, 1.0], atol=1e-15)
        assert deviation[1, 1] == deviation[1, 4] == 0.0
        # no spread in x: slope 0 through the mean
        flat = centred_line(x, y, np.array([[True] + [False] * 4] * 2))
        assert (list(flat[0]), list(flat[1])) == ([0.0, 0.0], [y[0, 0], 1.0])
