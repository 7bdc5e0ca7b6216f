"""Limit diagnostics: sweeps, order fits, and the two-route comparison."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_state
from tsvflab import limits, pointer, qcore, weakmeas
from tsvflab.cli import main
from tsvflab.limits import METRIC_FLOOR, METRICS, fit_orders, fit_trace_orders, sweep_coupling
from tsvflab.pointer import pointer_spectrum
from tsvflab.weakmeas import PointerReadout
from tsvflab import (
    CouplingEvolution,
    DarkDetectorError,
    LinearOperator,
    NonHermitianOperatorError,
    PrePostSelection,
    ScheduleError,
    StateVector,
    SweepResult,
    UnclassifiedOrderError,
    classify_order,
    compare_limits,
    continuity_metric,
    default_g_decade,
    derail_metric,
    first_order_residual,
    fit_order,
    gaussian_pointer,
    initial_state,
    overlap_deficit,
    pauli_x,
    pauli_z,
    projector,
    qubit_pointer,
    spin_down_x,
    spin_down_z,
    spin_up_x,
    spin_up_z,
    sweep_metric,
    tensor_product,
    translation_generator,
)

GS = default_g_decade()


def _spin_setting(spread=2.0, n_points=256):
    model = gaussian_pointer(spread, n_points)
    return initial_state(model), translation_generator(model), model


class TestContinuityMetric:
    def test_zero_at_zero_coupling(self):
        m, p, _ = _spin_setting()
        assert continuity_metric(spin_up_x(), m, pauli_z(), p, 0.0) == 0.0

    def test_exact_invariance_for_zero_eigenvalue(self):
        m, p, _ = _spin_setting(1.0, 128)
        s = projector(spin_down_z())
        for g in (0.01, 0.5, 5.0):
            assert continuity_metric(spin_up_z(), m, s, p, g) == 0.0

    def test_first_order_vanishing_expectation_case(self):
        # <in|S|in> = 0 yet the state merges smoothly: metric ~ g^1
        m, p, _ = _spin_setting()
        sweep = sweep_metric(
            lambda g: continuity_metric(spin_up_x(), m, pauli_z(), p, g), GS
        )
        assert sweep.fitted_order == pytest.approx(1.0, abs=0.05)
        # leading coefficient g ||S|in>|| ||P|m>|| with ||P|m>|| = 1/(2*spread)
        assert sweep.fitted_coefficient == pytest.approx(0.25, rel=0.02)

    def test_bounded_by_two(self, rng):
        m, p, _ = _spin_setting(1.0, 128)
        for g in (0.5, 5.0, 50.0):
            assert continuity_metric(spin_up_x(), m, pauli_z(), p, g) <= 2.0 + 1e-12


class TestDerailMetric:
    def test_zero_at_zero_coupling(self):
        m, p, _ = _spin_setting()
        assert derail_metric(spin_up_x(), m, pauli_z(), p, 0.0) == 0.0

    def test_eigenstate_never_derails(self):
        m, p, _ = _spin_setting()
        for g in (0.01, 0.5, 5.0):
            assert derail_metric(spin_up_z(), m, pauli_z(), p, g) <= 1e-14

    def test_first_order_coefficient(self):
        # sigma_z |up_x> is orthogonal to |up_x>, so the whole O(g) term derails
        m, p, model = _spin_setting()
        sweep = sweep_metric(
            lambda g: derail_metric(spin_up_x(), m, pauli_z(), p, g), GS
        )
        assert sweep.fitted_order == pytest.approx(1.0, abs=0.05)
        p_norm = 1.0 / (2.0 * model.spread)
        assert sweep.fitted_coefficient == pytest.approx(p_norm, rel=0.02)

    def test_bound_with_second_order_correction(self):
        # derail(g) <= g ||S|in>|| ||P|m>|| + C g^2: the gap has order >= 2
        m, p, model = _spin_setting(0.5, 256)
        slope = 1.0 / (2.0 * model.spread)
        gs = default_g_decade(1e-1, 1e-3, 9)
        gaps = [
            abs(derail_metric(spin_up_x(), m, pauli_z(), p, g) - slope * g)
            for g in gs
        ]
        order, _, _ = fit_order(gs, gaps)
        assert order >= 2.0

    def test_requires_normalized(self):
        m, p, _ = _spin_setting(1.0, 128)
        with pytest.raises(ValueError, match="normalized"):
            derail_metric(StateVector(np.array([2.0, 0.0])), m, pauli_z(), p, 0.1)

    def test_derail_not_bounded_by_continuity(self):
        # they measure different things; no ordering is asserted, both vanish
        m, p, _ = _spin_setting()
        g = 1e-3
        d = derail_metric(spin_up_x(), m, pauli_z(), p, g)
        c = continuity_metric(spin_up_x(), m, pauli_z(), p, g)
        assert d <= 1.0 and c <= 2.0 and d > 0 and c > 0


class TestFirstOrderCoefficients:
    """The first-order metrics' exact leading coefficients, g ||S|in>|| ||P|m>||
    and g sqrt(Var_in(S)) ||P|m>||, neither of which vanishes at
    <in|S|in> = 0 (Aharonov, Albert and Vaidman, PRL 60, 1351 (1988))."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 16),
        n=st.integers(2, 64),
        centred=st.booleans(),
        grid=st.booleans(),
    )
    def test_leading_coefficients(self, seed, dim, n, centred, grid):
        rng = np.random.default_rng(seed)
        pre, s = random_state(rng, dim), random_hermitian(rng, dim)
        if centred:  # <in|S|in> = 0 to roundoff: the two coefficients coincide
            mean = np.vdot(pre.amps, s.entries @ pre.amps).real
            s = LinearOperator(s.entries - mean * np.eye(dim), hermitian=True)
        if grid:  # the grid pointer in its own eigenbasis, as a sweep reads it
            spectrum = pointer_spectrum(gaussian_pointer(10 ** rng.uniform(-1, 1), 128))
            m, p = StateVector(spectrum.ready), spectrum.basis
            p_m = np.linalg.norm(translation_generator(spectrum.model).entries @ m.amps)
        else:
            m, dense = random_state(rng, n), random_hermitian(rng, n)
            p, p_m = dense, np.linalg.norm(dense.entries @ m.amps)
        s_in = np.linalg.norm(s.entries @ pre.amps)
        mean = np.vdot(pre.amps, s.entries @ pre.amps).real
        assume(s_in**2 - mean**2 >= 1e-6 * s_in**2)
        g = 1e-7
        assert continuity_metric(pre, m, s, p, g) / g == pytest.approx(s_in * p_m, rel=1e-6)
        spread = math.sqrt(s_in**2 - mean**2)
        assert derail_metric(pre, m, s, p, g) / g == pytest.approx(spread * p_m, rel=1e-6)

    def test_derail_memory_is_linear_in_dim_times_n(self, rng):
        # a (dim, dim, n) complex array of pair terms would be 256 MiB here
        spectrum = pointer_spectrum(gaussian_pointer(1.0, 4096))
        pre, s, m = random_state(rng, 64), random_hermitian(rng, 64), StateVector(spectrum.ready)
        tracemalloc.start()
        try:
            value = derail_metric(pre, m, s, spectrum.basis, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value > 0.0
        assert peak < 32 * 2**20


class TestFitOrder:
    def test_synthetic_quadratic(self):
        order, coefficient, residual = fit_order(GS, [3.0 * g**2 for g in GS])
        assert order == pytest.approx(2.0, abs=0.01)
        assert coefficient == pytest.approx(3.0, rel=0.02)
        assert residual <= 1e-10

    def test_all_floor_sentinel(self):
        order, coefficient, residual = fit_order(GS, [0.0] * len(GS))
        assert math.isinf(order)
        assert coefficient == 0.0 and residual == 0.0

    def test_partial_floor_counts(self):
        values = [3.0 * g for g in GS]
        values[-3:] = [0.0, 0.0, 0.0]
        order, _, _ = fit_order(GS, values)
        assert order == pytest.approx(1.0, abs=1e-6)
        result = sweep_metric(lambda g: 3.0 * g if g > 5e-4 else 0.0, GS)
        assert result.floored_points == 3

    @pytest.mark.parametrize("exponent", [1, 2, 3])
    def test_exact_monomials(self, exponent):
        order, coefficient, _ = fit_order(GS, [0.7 * g**exponent for g in GS])
        assert order == pytest.approx(exponent, abs=1e-6)
        assert coefficient == pytest.approx(0.7, rel=1e-6)

    def test_overlap_deficit_second_order(self):
        # <m|P|m> = 0 kills the first-order overlap term
        m, p, _ = _spin_setting()
        sweep = sweep_metric(
            lambda g: overlap_deficit(spin_up_x(), m, pauli_z(), p, g), GS
        )
        assert sweep.fitted_order == pytest.approx(2.0, abs=0.05)

    def test_needs_a_decade(self):
        with pytest.raises(ScheduleError, match="decade"):
            fit_order([0.01, 0.008, 0.006, 0.004], [1, 1, 1, 1])

    def test_needs_four_points(self):
        with pytest.raises(ScheduleError, match="at least 4"):
            fit_order([0.01, 0.001, 0.0001], [1, 1, 1])

    def test_fewer_than_four_usable_is_all_floor(self):
        values = [1e-3, 1e-4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        order, _, _ = fit_order(GS, values)
        assert math.isinf(order)

    def test_monotonicity_required(self):
        with pytest.raises(ScheduleError, match="decrease"):
            fit_order([1e-4, 1e-3, 1e-2, 1e-1], [1, 1, 1, 1])


class TestFitOrders:
    """A batch of rows, each with its own floored points, fitted at once."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 6),
        points=st.integers(4, 12),
    )
    def test_rows_match_polyfit_alone_and_in_a_batch(self, seed, rows, points):
        rng = np.random.default_rng(seed)
        gs = np.geomspace(10 ** rng.uniform(-3, 0), 10 ** rng.uniform(-7, -4), points)
        exponents = rng.uniform(0.5, 3.0, (rows, 1))
        noise = 0.01 * rng.uniform(0.1, 1.0) * rng.standard_normal((rows, points))
        values = 10 ** rng.uniform(-3, 3, (rows, 1)) * gs**exponents * np.exp(noise)
        # some rows keep at most 3 points above the floor, the rest about two thirds
        keep = np.where(rng.random((rows, 1)) < 0.3, 3.5 / points, 0.7)
        floored = rng.random((rows, points)) >= keep
        values[floored] = rng.choice([0.0, METRIC_FLOOR], np.count_nonzero(floored))
        orders, coefficients, residuals = fit_orders(gs, values)
        for row in range(rows):
            alone = fit_orders(gs, values[row:row + 1])
            assert (alone[0][0], alone[1][0], alone[2][0]) == (
                orders[row], coefficients[row], residuals[row]
            )
            usable = values[row] > METRIC_FLOOR
            if np.count_nonzero(usable) < 4:
                assert (orders[row], coefficients[row], residuals[row]) == (math.inf, 0.0, 0.0)
                continue
            log_g, log_v = np.log(gs[usable]), np.log(values[row][usable])
            slope, intercept = np.polyfit(log_g, log_v, 1)
            residual = np.max(np.abs(slope * log_g + intercept - log_v))
            assert orders[row] == pytest.approx(slope, rel=1e-12, abs=0)
            assert coefficients[row] == pytest.approx(math.exp(intercept), rel=1e-12, abs=0)
            # a residual is a difference of log values, exact to their scale
            scale = np.max(np.abs(log_v))
            assert residuals[row] == pytest.approx(residual, rel=0, abs=1e-12 * scale)

    def test_fit_order_is_the_one_row_case(self):
        values = [3.0 * g**2 for g in GS]
        values[-2:] = [0.0, 0.0]
        batch = fit_orders(GS, [values, [0.0] * len(GS)])
        assert fit_order(GS, values) == (batch[0][0], batch[1][0], batch[2][0])
        assert fit_order(GS, [0.0] * len(GS)) == (math.inf, 0.0, 0.0)

    def test_trace_orders_form_no_coefficient(self):
        # order 100 with coefficient e^800: the orders are fit_orders' own,
        # from a fit that would overflow forming the coefficient
        values = [[math.exp(800.0 + 100.0 * math.log(g)) for g in GS], [0.0] * len(GS)]
        with pytest.raises(ValueError, match="overflows a float"):
            fit_orders(GS, values)
        orders = fit_trace_orders(GS, values)
        assert orders.tolist() == [pytest.approx(100.0, rel=1e-12), math.inf]
        values[0][0] = -1.0
        with pytest.raises(ValueError, match="finite and non-negative"):
            fit_trace_orders(GS, values)

    def test_values_checked(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and non-negative"):
                fit_orders(GS, [[1.0] * (len(GS) - 1) + [bad]])

    def test_shapes_and_schedule_checked_in_fit_orders_order(self):
        # a row length off the schedule, or values that are not rows, come
        # first; then the schedule itself, then the values
        for values in ([[1.0] * (len(GS) - 1)], [1.0] * len(GS), [[[1.0] * len(GS)]]):
            with pytest.raises(ValueError, match="^g_values and metric_values lengths differ$"):
                fit_orders(GS, values)
        with pytest.raises(ValueError, match="lengths differ"):
            fit_order(GS, [-1.0] * (len(GS) - 1))
        for gs, message in (([1e-3] * 4, "must decrease"), (GS[:1], "at least 4 points")):
            with pytest.raises(ScheduleError, match=message):
                fit_orders(gs, [[-1.0] * len(gs)])


class TestFirstOrderResidual:
    def test_second_order_everywhere(self, rng):
        m, p, _ = _spin_setting()
        for s in (pauli_z(), pauli_x(), random_hermitian(rng, 2)):
            sweep = sweep_metric(
                lambda g: first_order_residual(spin_up_x(), m, s, p, g), GS
            )
            assert sweep.fitted_order == pytest.approx(2.0, abs=0.1)

    def test_exact_for_zero_eigenvalue(self):
        m, p, _ = _spin_setting(1.0, 128)
        s = projector(spin_down_z())
        assert first_order_residual(spin_up_z(), m, s, p, 2.0) == 0.0


class TestSweepResult:
    def test_invariants(self):
        with pytest.raises(ValueError, match="lengths"):
            SweepResult((1e-2, 1e-3, 1e-4, 1e-5), (1.0,), 1.0, 1.0, 0.0, 0)
        with pytest.raises(ValueError, match="decrease"):
            SweepResult((1e-2, 1e-2, 1e-4, 1e-5), (1, 1, 1, 1), 1.0, 1.0, 0.0, 0)
        with pytest.raises(ValueError, match="non-negative"):
            SweepResult((1e-2, 1e-3, 1e-4, 1e-5), (1, 1, -1, 1), 1.0, 1.0, 0.0, 0)

    def test_all_floor_flag(self):
        result = sweep_metric(lambda g: 0.0, GS)
        assert result.all_floor
        assert result.floored_points == len(GS)


class TestClassifyOrder:
    def test_bands(self):
        assert classify_order(1.02) == "first"
        assert classify_order(2.1) == "second"
        assert classify_order(math.inf) == "none"

    def test_outside_bands_raises(self):
        with pytest.raises(UnclassifiedOrderError, match="1.500"):
            classify_order(1.5)


class TestCompareLimits:
    def test_spin_sz_both_routes_converge(self):
        sel = PrePostSelection(spin_up_x(), spin_up_z())
        comparison = compare_limits(sel, pauli_z(), spread_schedule=(2, 4, 8, 16, 32))
        assert comparison.analytic == pytest.approx(1.0)
        assert comparison.coupling_branch[-1].deviation <= 1e-3
        assert comparison.spread_branch[-1].deviation <= 1e-3

    def test_eigenstate_constant_trajectories(self):
        sel = PrePostSelection(spin_up_z(), spin_up_z())
        comparison = compare_limits(sel, pauli_z(), spread_schedule=(2.0, 4.0))
        for point in comparison.coupling_branch + comparison.spread_branch:
            assert abs(point.estimate - 1.0) <= 1e-9

    def test_spread_route_monotone_for_diagonal_component(self):
        sel = PrePostSelection(spin_up_x(), spin_up_z())
        s_plus = (pauli_z() + pauli_x()) / math.sqrt(2)
        comparison = compare_limits(
            sel, s_plus, spread_schedule=(1, 2, 4, 8, 16), fixed_coupling=0.5
        )
        deviations = [point.deviation for point in comparison.spread_branch]
        assert all(b < a for a, b in zip(deviations, deviations[1:]))

    def test_schedule_validation(self):
        sel = PrePostSelection(spin_up_x(), spin_up_z())
        with pytest.raises(ScheduleError, match="increase"):
            compare_limits(sel, pauli_z(), spread_schedule=(4, 2))
        with pytest.raises(ScheduleError, match="decrease"):
            compare_limits(sel, pauli_z(), g_schedule=(0.01, 0.02))


def _one_pointer_rows(sel, S, pointers, g_schedule, fixed_g) -> list[complex]:
    """Every row of ``compare_limits`` read off its own pointer alone: the
    g -> 0 pointer at each g, then each spread pointer at ``fixed_g``."""
    coupling, *spread = pointers
    rows = list(PointerReadout(sel, (S,), (coupling,)).ratios((g_schedule,))[0])
    rows += [PointerReadout(sel, (S,), (model,)).ratios([(fixed_g,)])[0, 0] for model in spread]
    return rows


def _patched_ready(monkeypatch, scales: dict) -> None:
    """Read the pointers whose spread ``scales`` names with their ready
    amplitudes scaled: 2.0 makes every probability exceed 1, 0.0 dark."""
    def scaled(model):
        spectrum = pointer_spectrum(model)
        scale = scales.get(model.spread)
        return spectrum if scale is None else dataclasses.replace(
            spectrum, ready=scale * spectrum.ready
        )

    monkeypatch.setattr(weakmeas, "pointer_spectrum", scaled)


class TestOnePassComparison:
    """Both routes of ``compare_limits`` read in one readout pass."""

    def test_one_eigh_per_run(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        sel = PrePostSelection(spin_up_x(), spin_up_z())
        comparison = compare_limits(sel, pauli_z())
        assert len(comparison.spread_branch) == 5
        assert calls == [(1, 2, 2)]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 4),
        spreads=st.lists(st.floats(0.5, 40.0), min_size=1, max_size=5, unique=True),
        size=st.sampled_from([128, 256]),
        fixed_g=st.floats(0.01, 2.0),
        g_schedule=st.sampled_from([None, (0.04, 0.02, 0.01, 0.005, 0.0025)]),
    )
    def test_each_row_is_its_one_pointer_readout(
        self, seed, dim, spreads, size, fixed_g, g_schedule
    ):
        # bit for bit, whichever grid size the pointers share
        rng = np.random.default_rng(seed)
        sel = PrePostSelection(random_state(rng, dim), random_state(rng, dim))
        assume(abs(sel.overlap) >= 0.1)
        S = random_hermitian(rng, dim)
        spreads = sorted(spreads)
        pointers = tuple(gaussian_pointer(spread, size) for spread in [2.0, *spreads])
        comparison = compare_limits(
            sel, S, g_schedule=g_schedule, fixed_coupling=fixed_g, pointers=pointers
        )
        gs = [point.parameter for point in comparison.coupling_branch]
        assert gs == list(g_schedule or limits.default_g_schedule(pointers[0]))
        assert [point.parameter for point in comparison.spread_branch] == spreads
        rows = _one_pointer_rows(sel, S, pointers, gs, fixed_g)
        points = comparison.coupling_branch + comparison.spread_branch
        assert [point.estimate for point in points] == rows
        assert [point.deviation for point in points] == [
            abs(row - comparison.analytic) for row in rows
        ]

    def test_the_grid_size_comes_from_the_pointers(self):
        sel = PrePostSelection(spin_up_x(), spin_up_z())
        gs = (0.02, 0.01, 0.005, 0.0025)
        pointers = limits.limit_pointers((2.0, 4.0, 8.0), 3.0, 128)
        comparison = compare_limits(sel, pauli_z(), g_schedule=gs, pointers=pointers)
        assert comparison.fixed_spread == 3.0
        points = comparison.coupling_branch + comparison.spread_branch
        assert [point.estimate for point in points] == _one_pointer_rows(
            sel, pauli_z(), pointers, gs, 0.5
        )
        assert comparison.coupling_branch[-1].deviation <= 1e-3

    @pytest.mark.parametrize(
        "pointers, message",
        [
            ((qubit_pointer("x"), gaussian_pointer(2.0), gaussian_pointer(4.0)), "not a qubit"),
            ((gaussian_pointer(2.0), qubit_pointer()), "not a qubit"),
            ((qubit_pointer(), gaussian_pointer(2.0), qubit_pointer("z")), "not a qubit"),
            ((gaussian_pointer(2.0), gaussian_pointer(4.0), gaussian_pointer(8.0, 128)),
             "a 128-point pointer after a 256-point one"),
            ((gaussian_pointer(2.0, 128), gaussian_pointer(4.0), gaussian_pointer(8.0)),
             "a 256-point pointer after a 128-point one"),
        ],
        ids=["qubit-g-route", "qubit-spread", "qubits", "two-sizes", "g-route-size"],
    )
    def test_pointers_are_gaussian_on_one_grid(self, monkeypatch, pointers, message):
        # either route's pointer is checked before the readout and any eigh
        calls, readouts = [], []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        monkeypatch.setattr(limits, "PointerReadout", lambda *args: readouts.append(args))
        sel = PrePostSelection(spin_up_x(), spin_up_z())
        with pytest.raises(ValueError, match=f"compare_limits .*{message}"):
            compare_limits(sel, pauli_z(), pointers=pointers)
        assert (calls, readouts) == ([], [])

    def test_the_g_route_needs_a_pointer(self):
        sel = PrePostSelection(spin_up_x(), spin_up_z())
        with pytest.raises(ValueError, match=r"needs a pointer for the g -> 0 route"):
            compare_limits(sel, pauli_z(), pointers=())

    def test_coupling_checks_come_first(self):
        sel = PrePostSelection(spin_up_x(), spin_up_z())
        lower = LinearOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NonHermitianOperatorError, match="system observable"):
            compare_limits(sel, lower, fixed_coupling=math.nan)
        with pytest.raises(ValueError, match="coupling strength must be finite"):
            compare_limits(sel, pauli_z(), fixed_coupling=math.inf)

    def test_zero_fixed_coupling_is_rejected(self, monkeypatch):
        # the calibration divides by g: it read nan+infj with RuntimeWarnings
        sel = PrePostSelection(spin_up_x(), spin_up_z())
        with pytest.raises(ValueError, match="coupling strength must be nonzero"):
            compare_limits(sel, pauli_z(), fixed_coupling=0.0)
        # the probability rows are checked first and keep their messages
        for scale, message in ((0.0, "orthogonal post-selection at g = 0.0"), (2.0, "exceeds 1")):
            _patched_ready(monkeypatch, {8.0: scale})
            with pytest.raises((ValueError, DarkDetectorError), match=message):
                compare_limits(sel, pauli_z(), fixed_coupling=0.0)
            monkeypatch.undo()
        # a negative coupling reads the weak value as a positive one does
        comparison = compare_limits(sel, pauli_z(), fixed_coupling=-0.5)
        assert comparison.fixed_coupling == -0.5
        assert all(math.isfinite(abs(point.estimate)) for point in comparison.spread_branch)
        assert comparison.spread_branch[-1].deviation <= 0.05

    def test_equal_pointers_share_one_grid_and_spectrum(self, monkeypatch, capsys):
        # compare_limits_demo.scn's fixed spread 2.0 is also its second
        # spread: six pointers, five distinct, each with one grid
        counts = {"grid_coordinates": 0, "pointer_spectrum": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(
            pointer, "grid_coordinates", counted("grid_coordinates", pointer.grid_coordinates)
        )
        spectrum = counted("pointer_spectrum", pointer.pointer_spectrum)
        for module in (pointer, weakmeas, limits):
            monkeypatch.setattr(module, "pointer_spectrum", spectrum)
        assert main(["compare-limits", "--preset", "compare-limits"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 5 + 5
        assert counts == {"grid_coordinates": 5, "pointer_spectrum": 5}

    def test_first_failing_row_raises_its_own_message(self, monkeypatch):
        sel = PrePostSelection(spin_up_x(), spin_up_z())
        pointers = limits.limit_pointers((2.0, 4.0, 8.0, 16.0))
        expected = {}
        for scale in (2.0, 0.0):
            _patched_ready(monkeypatch, {8.0: scale})
            with pytest.raises((ValueError, DarkDetectorError)) as alone:
                PointerReadout(sel, (pauli_z(),), (gaussian_pointer(8.0),)).ratios([(0.5,)])
            expected[scale] = (type(alone.value), str(alone.value))
        assert "exceeds 1" in expected[2.0][1]
        assert expected[0.0] == (DarkDetectorError, "orthogonal post-selection at g = 0.5")
        # the spread 8 row fails first: the spread 16 row after it fails too
        for first, later in ((2.0, 0.0), (0.0, 2.0)):
            _patched_ready(monkeypatch, {8.0: first, 16.0: later})
            with pytest.raises((ValueError, DarkDetectorError)) as joint:
                compare_limits(sel, pauli_z(), pointers=pointers)
            assert (type(joint.value), str(joint.value)) == expected[first]


class TestDefaultDecade:
    def test_shape(self):
        assert len(GS) == 9
        assert GS[0] == pytest.approx(1e-2)
        assert GS[-1] == pytest.approx(1e-4)
        ratios = [a / b for a, b in zip(GS, GS[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-12) for r in ratios)

    def test_validation(self):
        with pytest.raises(ScheduleError):
            default_g_decade(1e-4, 1e-2)


class TestRandomContinuity:
    def test_monotone_merge_on_random_settings(self, rng):
        # decreasing schedules always shrink the disturbance toward zero
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            pre = random_state(rng, dim)
            m = random_state(rng, 4)
            s = random_hermitian(rng, dim)
            p = random_hermitian(rng, 4)
            values = [continuity_metric(pre, m, s, p, g) for g in GS]
            assert all(b <= a + 1e-14 for a, b in zip(values, values[1:]))


def _reference_metrics(pre, m, s, p, g) -> dict:
    """The four metrics as defined in the module docstring, each from a
    ``CouplingEvolution`` built directly, with no fixed-point test."""
    joint = tensor_product(pre, m)
    psi0 = joint.state.amps
    evolved = CouplingEvolution(s, p).apply(g, joint)
    mat = evolved.as_matrix()
    expansion = psi0 - 1j * g * np.kron(s.entries @ pre.amps, p.entries @ m.amps)
    return {
        "continuity": float(np.linalg.norm(evolved.state.amps - psi0)),
        "derail": float(np.linalg.norm(mat - np.outer(pre.amps, pre.amps.conj() @ mat))),
        "first_order_residual": float(np.linalg.norm(evolved.state.amps - expansion)),
        "overlap_deficit": float(1.0 - abs(np.vdot(psi0, evolved.state.amps))),
    }


#: The metrics read in closed form in the joint eigenbasis of S (x) P.
CLOSED_FORM = ("continuity", "derail")


def _dense_roundoff(dim: int, n: int) -> float:
    """A bound on |closed form - ``_reference_metrics``| for the
    ``CLOSED_FORM`` metrics.  The dense path subtracts O(1) amplitudes
    (Psi0 from U(g) Psi0, or |in><in| U(g) Psi0 from U(g) Psi0), leaving a
    few eps of absolute error in each of dim n amplitudes, which the norm
    sums in quadrature; the closed forms sum nonnegative terms and keep
    their relative precision.  Over 400 random settings (dim <= 16,
    n <= 64, g from 1e-6 to 30) the two differed by at most 7.3 eps
    sqrt(dim n)."""
    return 32.0 * np.finfo(float).eps * math.sqrt(dim * n)


def _kernel_setting(rng, dim: int):
    """(|in>, S) with S|in> exactly zero: a basis state and a random
    hermitian S with that state's row and column zeroed."""
    k = int(rng.integers(dim))
    entries = random_hermitian(rng, dim).entries.copy()
    entries[k, :] = entries[:, k] = 0.0
    pre = StateVector(np.eye(dim)[k])
    return pre, LinearOperator(entries, hermitian=True)


class TestFixedPoint:
    """S|in> computed as exactly zero: |in> (x) |m> is a fixed point, and
    every metric is exactly 0.0 without diagonalizing either factor."""

    G_VALUES = (0.0, 1e-6, 0.01, 0.7, 30.0, -2.0)

    @pytest.fixture
    def no_eigh(self, monkeypatch):
        def eigh(*_):
            raise AssertionError("a fixed point diagonalizes nothing")

        monkeypatch.setattr(np.linalg, "eigh", eigh)

    def test_random_kernels_are_exact_zeros(self, rng, no_eigh):
        m, p, _ = _spin_setting(1.0, 128)
        settings = [(spin_down_x(), projector(spin_up_x()), m, p)]
        for _ in range(12):
            dim, n = int(rng.integers(2, 17)), int(rng.integers(2, 33))
            pre, s = _kernel_setting(rng, dim)
            settings.append((pre, s, random_state(rng, n), random_hermitian(rng, n)))
        for pre, s, m, p in settings:
            for g in self.G_VALUES:
                for name, metric in METRICS.items():
                    value = metric(pre, m, s, p, g)
                    assert type(value) is float and value == 0.0, (name, g)

    def test_non_kernel_inputs_keep_their_bits(self, rng):
        for _ in range(12):
            dim, n = int(rng.integers(2, 9)), int(rng.integers(2, 33))
            pre, m = random_state(rng, dim), random_state(rng, n)
            s, p = random_hermitian(rng, dim), random_hermitian(rng, n)
            for g in (1e-4, 0.03, 1.5):
                expected = _reference_metrics(pre, m, s, p, g)
                for name, metric in METRICS.items():
                    value = metric(pre, m, s, p, g)
                    if name in CLOSED_FORM:
                        assert abs(value - expected[name]) <= _dense_roundoff(dim, n), (name, g)
                    else:
                        assert value == expected[name], (name, g)

    def test_checks_come_first_in_the_couplings_order(self, rng):
        m, p, _ = _spin_setting(1.0, 128)
        lower = LinearOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))  # annihilates up_z
        s = projector(spin_down_z())
        cases = [
            ((spin_up_z(), m, lower, p, np.nan), NonHermitianOperatorError,
             "system observable must be hermitian"),
            ((spin_up_z(), m, s, LinearOperator(np.triu(np.ones((128, 128)))), np.nan),
             NonHermitianOperatorError, "pointer generator must be hermitian"),
            ((spin_up_z(), m, s, p, np.nan), ValueError, "coupling strength must be finite"),
            ((spin_up_z(), m, s, p, np.inf), ValueError, "coupling strength must be finite"),
            ((spin_up_z(), random_state(rng, 64), s, p, 0.1), ValueError,
             "joint state dimensions do not match the coupling"),
            ((StateVector(np.eye(3)[0]), m, s, p, 0.1), ValueError,
             "joint state dimensions do not match the coupling"),
        ]
        for args, error, message in cases:
            for name, metric in METRICS.items():
                with pytest.raises(error) as info:
                    metric(*args)
                assert str(info.value) == message, name

    def test_derail_checks_normalization_first(self):
        m, p, _ = _spin_setting(1.0, 128)
        lower = LinearOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError) as info:
            derail_metric(StateVector(np.array([2.0, 0.0])), m, lower, p, np.nan)
        assert str(info.value) == "derail metric requires a normalized system state"


class TestClosedFormPhases:
    """The closed forms check the phases they form, derail's centred rates
    lambda - <S> included, before forming any."""

    def test_derail_checks_its_centred_rates(self):
        s = LinearOperator(np.diag([1e308, -1e308]))
        spectrum = pointer_spectrum(qubit_pointer())
        m = StateVector(spectrum.ready)
        # continuity's rates are lambda: g lambda mu is 1e308 at g = 1
        assert continuity_metric(spin_up_z(), m, s, spectrum.basis, 1.0) >= 0.0
        # up_z's <S> is 1e308, so the rate -1e308 - <S> overflows at any g but 0
        for g in (1.0, 1e-300, -1e-300):
            with pytest.raises(ValueError, match="^coupling phase must be finite$"):
                derail_metric(spin_up_z(), m, s, spectrum.basis, g)
        assert derail_metric(spin_up_z(), m, s, spectrum.basis, 0.0) == 0.0
        for metric in (continuity_metric, derail_metric):
            with pytest.raises(ValueError, match="^coupling phase must be finite$"):
                metric(spin_up_x(), m, s, spectrum.basis, 2.0)


class TestSweepCoupling:
    """A sweep decides its fixed point once, before any pointer generator."""

    @pytest.fixture
    def generators(self, monkeypatch):
        """The models ``translation_generator`` was called with."""
        calls = []

        def counted(model):
            calls.append(model)
            return translation_generator(model)

        monkeypatch.setattr(limits, "translation_generator", counted)
        return calls

    def test_fixed_point_calls_neither_generator_nor_metric(self, generators):
        def metric(*_):
            raise AssertionError("a fixed-point sweep calls no metric")

        sel = PrePostSelection(spin_up_z(), spin_up_x())
        for model in (gaussian_pointer(1.0, 4096), qubit_pointer("x")):
            result = sweep_coupling(metric, sel, projector(spin_down_z()), model, GS)
            assert result == sweep_metric(lambda g: 0.0, GS)
        assert generators == []

    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_other_sweeps_build_one_generator_and_keep_their_bits(self, generators, name):
        sel = PrePostSelection(spin_up_x(), spin_down_z())
        models = (gaussian_pointer(2.0, 128), qubit_pointer())
        for model in models:
            m, p = initial_state(model), translation_generator(model)
            generators.clear()
            result = sweep_coupling(METRICS[name], sel, pauli_z(), model, GS)
            assert generators == ([] if name in CLOSED_FORM else [model])
            if name in CLOSED_FORM:
                # read in the pointer's own eigenbasis, with no generator
                expected = [_reference_metrics(sel.pre, m, pauli_z(), p, g)[name] for g in GS]
                gap = np.abs(np.subtract(result.metric_values, expected)).max()
                assert gap <= _dense_roundoff(2, model.dim)
                # and each value is the one-g metric's in that basis, bit for bit
                basis = pointer_spectrum(model).basis
                one_g = [METRICS[name](sel.pre, m, pauli_z(), basis, g) for g in GS]
                assert list(result.metric_values) == one_g
            else:
                expected = sweep_metric(lambda g: METRICS[name](sel.pre, m, pauli_z(), p, g), GS)
                assert result == expected

    @pytest.mark.parametrize("name", CLOSED_FORM)
    def test_closed_form_sweeps_diagonalize_s_once(self, monkeypatch, name):
        s, diagonalized = pauli_z(), []
        of = qcore.Eigenbasis.of.__func__

        def counted(cls, op):
            diagonalized.append(op)
            return of(cls, op)

        monkeypatch.setattr(qcore.Eigenbasis, "of", classmethod(counted))
        sel = PrePostSelection(spin_up_x(), spin_down_z())
        for model in (gaussian_pointer(2.0, 128), qubit_pointer()):
            diagonalized.clear()
            result = sweep_coupling(METRICS[name], sel, s, model, GS)
            assert len(GS) == 9 and result.fitted_order == pytest.approx(1.0, abs=0.05)
            assert [op is s for op in diagonalized] == [True]

    def test_checks_keep_their_order(self, generators):
        model = gaussian_pointer(1.0, 128)
        sel = PrePostSelection(spin_up_z(), spin_up_x())
        lower = LinearOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))  # annihilates up_z
        three = StateVector(np.eye(3)[0])
        cases = [
            ((lower, sel, (0.01, 0.02)), ScheduleError, None),
            ((lower, sel, GS), NonHermitianOperatorError, "system observable must be hermitian"),
            ((projector(spin_down_z()), PrePostSelection(three, three), GS), ValueError,
             "joint state dimensions do not match the coupling"),
        ]
        for (s, selection, schedule), error, message in cases:
            with pytest.raises(error) as info:
                sweep_coupling(continuity_metric, selection, s, model, schedule)
            assert message is None or str(info.value) == message
        assert generators == []

    def test_first_order_metrics_never_form_the_product_state(self, monkeypatch):
        # the fixed-point check reads S|in> and the dimensions alone
        def refuse(*_):
            raise AssertionError("the first-order metrics build no |in> (x) |m>")

        monkeypatch.setattr(qcore, "tensor_product", refuse)
        spectrum = pointer_spectrum(gaussian_pointer(1.0, 128))
        m = StateVector(spectrum.ready)
        for metric in (continuity_metric, derail_metric):
            assert metric(spin_up_x(), m, pauli_z(), spectrum.basis, 0.01) > 0.0
        sel = PrePostSelection(spin_up_x(), spin_down_z())
        result = sweep_coupling(continuity_metric, sel, pauli_z(), gaussian_pointer(1.0, 128), GS)
        assert result.fitted_order == pytest.approx(1.0, abs=0.05)
