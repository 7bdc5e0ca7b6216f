"""Limit diagnostics: sweeps, order fits, and the two-route comparison."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_state
from tsvflab.limits import METRIC_FLOOR, METRICS, fit_orders
from tsvflab import (
    CouplingEvolution,
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
                    assert metric(pre, m, s, p, g) == expected[name], (name, g)

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
