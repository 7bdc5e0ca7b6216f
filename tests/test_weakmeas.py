"""Measurement pipeline: expectations, weak values, pointer estimates."""

import math

import numpy as np
import pytest

from conftest import random_hermitian, random_state
from tsvflab import (
    DarkDetectorError,
    LinearOperator,
    NonHermitianOperatorError,
    OrthogonalSelectionError,
    PrePostSelection,
    ScheduleError,
    StateVector,
    WeakValueEstimate,
    default_g_schedule,
    estimate_weak_value,
    expectation,
    first_order_state,
    fit_order,
    gaussian_pointer,
    initial_state,
    moments,
    pauli_x,
    pauli_z,
    position_operator,
    projector,
    qubit_pointer,
    spin_down_z,
    spin_up_x,
    spin_up_z,
    time_reverse,
    translation_generator,
    variance,
    weak_value,
)
from tsvflab.weakmeas import PointerReadout

INV_SQRT2 = 0.7071067811865476


def spin_selection() -> PrePostSelection:
    return PrePostSelection(spin_up_x(), spin_up_z())


def s_plus() -> LinearOperator:
    return (pauli_z() + pauli_x()) / math.sqrt(2)


def s_minus() -> LinearOperator:
    return (pauli_z() - pauli_x()) / math.sqrt(2)


def conditional_branch(sel, S, model, g) -> StateVector:
    """The post-selected pointer branch the estimator reads at coupling g."""
    return PointerReadout(sel, S, model)._conditional_branch(g)


def first_order_ratio(sel, S, model, g) -> complex:
    """Gaussian-pointer readout of the O(g) expansion: ``first_order_state``,
    then the projection onto |out>, then the pointer moments."""
    ready = initial_state(model)
    p = translation_generator(model)
    expanded = first_order_state(sel.pre, ready, S, p, g)
    branch = StateVector(sel.post.amps.conj() @ expanded.as_matrix())
    re = moments(branch, position_operator(model)) / g
    im = moments(branch, p) / (2.0 * g * variance(ready, p))
    return complex(re, im)


def oracle_weak_value(post, S, pre) -> complex:
    """Independent 2x2 (or nxn) evaluation of <out|S|in>/<out|in>."""
    num = post.amps.conj() @ (S.entries @ pre.amps)
    den = post.amps.conj() @ pre.amps
    return complex(num / den)


class TestExpectation:
    def test_vanishing_initial_expectation(self):
        assert expectation(spin_up_x(), pauli_z()) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_components(self):
        assert expectation(spin_up_x(), s_plus()) == pytest.approx(INV_SQRT2, abs=1e-12)
        assert expectation(spin_up_x(), s_minus()) == pytest.approx(-INV_SQRT2, abs=1e-12)

    def test_eigenstate(self, rng):
        s = random_hermitian(rng, 4)
        eigvals, vecs = np.linalg.eigh(s.entries)
        state = StateVector(vecs[:, 2])
        assert expectation(state, s) == pytest.approx(eigvals[2], abs=1e-10)

    def test_requires_hermitian(self):
        lower = LinearOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NonHermitianOperatorError):
            expectation(spin_up_z(), lower)

    def test_requires_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            expectation(StateVector(np.array([2.0, 0.0])), pauli_z())


class TestWeakValue:
    def test_sz_case_against_oracle(self):
        sel = spin_selection()
        oracle = oracle_weak_value(spin_up_z(), pauli_z(), spin_up_x())
        assert oracle == pytest.approx(1.0)
        assert weak_value(sel, pauli_z()) == pytest.approx(oracle, abs=1e-12)

    def test_decomposition_against_oracle(self):
        sel = spin_selection()
        w_plus = weak_value(sel, s_plus())
        w_minus = weak_value(sel, s_minus())
        assert w_plus == pytest.approx(
            oracle_weak_value(spin_up_z(), s_plus(), spin_up_x()), abs=1e-12
        )
        assert w_plus == pytest.approx(math.sqrt(2), abs=1e-12)
        assert w_minus == pytest.approx(0.0, abs=1e-12)
        assert (w_plus + w_minus) / math.sqrt(2) == pytest.approx(
            weak_value(sel, pauli_z()), abs=1e-12
        )

    def test_eigenstate_selection(self):
        sel = PrePostSelection(spin_down_z(), spin_down_z())
        assert weak_value(sel, pauli_z()) == pytest.approx(-1.0, abs=1e-14)

    def test_near_orthogonal_selection_names_overlap(self):
        sel = PrePostSelection(spin_up_z(), spin_down_z())
        with pytest.raises(OrthogonalSelectionError, match="0.0"):
            weak_value(sel, pauli_z())

    def test_additivity(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            sel = PrePostSelection(random_state(rng, dim), random_state(rng, dim))
            a = random_hermitian(rng, dim)
            b = random_hermitian(rng, dim)
            both = weak_value(sel, a + b)
            assert abs(both - weak_value(sel, a) - weak_value(sel, b)) <= 1e-12


class TestTimeReverse:
    def test_swap(self):
        sel = spin_selection()
        flipped = time_reverse(sel)
        np.testing.assert_array_equal(flipped.pre.amps, spin_up_z().amps)
        np.testing.assert_array_equal(flipped.post.amps, spin_up_x().amps)
        assert abs(flipped.overlap) == pytest.approx(abs(sel.overlap), abs=1e-15)

    def test_flipped_expectation_is_one(self):
        sel = spin_selection()
        assert expectation(time_reverse(sel).pre, pauli_z()) == pytest.approx(1.0)
        assert expectation(sel.pre, pauli_z()) == pytest.approx(0.0, abs=1e-12)

    def test_conjugation_identity(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            sel = PrePostSelection(random_state(rng, dim), random_state(rng, dim))
            s = random_hermitian(rng, dim)
            flipped = weak_value(time_reverse(sel), s)
            assert abs(flipped - np.conj(weak_value(sel, s))) <= 1e-12


class TestConditionalBranch:
    def test_zero_coupling(self):
        sel = spin_selection()
        model = gaussian_pointer(2.0)
        branch = conditional_branch(sel, pauli_z(), model, 0.0)
        expected = sel.overlap * initial_state(model).amps
        np.testing.assert_array_equal(branch.amps, expected)
        assert branch.norm() ** 2 == pytest.approx(abs(sel.overlap) ** 2, abs=1e-15)

    def test_zero_eigenvalue_branch_unchanged(self):
        model = gaussian_pointer(1.0, 128)
        sel = PrePostSelection(spin_up_z(), spin_up_x())
        s = projector(spin_down_z())
        for g in (0.1, 1.0, 10.0):
            branch = conditional_branch(sel, s, model, g)
            expected = sel.overlap * initial_state(model).amps
            assert np.linalg.norm(branch.amps - expected) <= 1e-13

    def test_conditional_mean_matches_weak_value(self):
        sel = spin_selection()
        model = gaussian_pointer(2.0)
        g = 0.01
        branch = conditional_branch(sel, pauli_z(), model, g)
        shift = moments(branch, position_operator(model))
        analytic = weak_value(sel, pauli_z())
        assert shift == pytest.approx(g * analytic.real, rel=0.02)

    def test_probability_above_one_is_a_fault(self):
        readout = PointerReadout(spin_selection(), pauli_z(), gaussian_pointer(1.0, 128))
        readout.ready = StateVector(2.0 * readout.ready.amps)  # not a unit pointer
        with pytest.raises(ValueError, match="exceeds 1"):
            readout.ratio(0.05)

    def test_dark_postselection(self):
        sel = PrePostSelection(spin_up_z(), spin_down_z())
        with pytest.raises(DarkDetectorError, match="orthogonal post-selection"):
            conditional_branch(sel, pauli_z(), gaussian_pointer(1.0, 128), 0.0)


class TestEstimateWeakValue:
    def test_sz_against_analytic(self):
        sel = spin_selection()
        model = gaussian_pointer(2.0)
        estimate = estimate_weak_value(
            sel, pauli_z(), model, (0.02, 0.01, 0.005, 0.0025)
        )
        assert abs(estimate.value - weak_value(sel, pauli_z())) <= 1e-3

    def test_eigenstate_no_postselection_surprise(self):
        sel = PrePostSelection(spin_up_z(), spin_up_z())
        estimate = estimate_weak_value(sel, pauli_z(), gaussian_pointer(2.0))
        assert abs(estimate.value - 1.0) <= 1e-6

    def test_sminus_vanishes(self):
        sel = spin_selection()
        estimate = estimate_weak_value(sel, s_minus(), gaussian_pointer(2.0))
        assert abs(estimate.value) <= 1e-3

    def test_qubit_pointer_agrees(self):
        sel = spin_selection()
        estimate = estimate_weak_value(sel, s_plus(), qubit_pointer())
        assert abs(estimate.value - math.sqrt(2)) <= 1e-3

    @pytest.mark.parametrize(
        "sel",
        [spin_selection(), PrePostSelection(spin_up_z(), spin_up_z())],
        ids=["spin", "eigenstate"],
    )
    def test_first_order_oracle_agrees(self, sel):
        # the O(g) expansion read the same way gives the same g -> 0 value;
        # its branch norm exceeds |<out|in>|^2 for the eigenstate selection
        model = gaussian_pointer(2.0)
        schedule = default_g_schedule(model)
        ratios = np.array([first_order_ratio(sel, pauli_z(), model, g) for g in schedule])
        re, im = (np.polyfit(schedule, part, 1)[1] for part in (ratios.real, ratios.imag))
        intercept = complex(re, im)
        assert abs(intercept - 1.0) <= 1e-3
        estimate = estimate_weak_value(sel, pauli_z(), model, schedule)
        assert abs(estimate.value - intercept) <= 1e-3

    def test_default_schedule(self):
        model = gaussian_pointer(2.0)
        assert default_g_schedule(model) == (0.04, 0.02, 0.01, 0.005, 0.0025)
        assert default_g_schedule(qubit_pointer()) == (
            0.02, 0.01, 0.005, 0.0025, 0.00125,
        )

    def test_schedule_validation(self):
        sel = spin_selection()
        model = gaussian_pointer(1.0, 128)
        with pytest.raises(ScheduleError, match="at least 4"):
            estimate_weak_value(sel, pauli_z(), model, (0.02, 0.01))
        with pytest.raises(ScheduleError, match="decrease"):
            estimate_weak_value(sel, pauli_z(), model, (0.01, 0.02, 0.03, 0.04))
        with pytest.raises(ScheduleError, match="positive"):
            estimate_weak_value(sel, pauli_z(), model, (0.02, 0.01, -0.005, 0.001))

    def test_orthogonal_schedule_point_propagates(self):
        sel = PrePostSelection(spin_up_z(), spin_down_z())
        with pytest.raises(DarkDetectorError):
            estimate_weak_value(sel, projector(spin_down_z()), gaussian_pointer(1.0, 128))

    def test_pointer_shift_discrepancy_is_second_order(self):
        # conditional <Q> - g Re(w) = O(g^2): fitted order of the gap >= 2
        sel = spin_selection()
        model = gaussian_pointer(1.0, 256)
        analytic = weak_value(sel, s_plus())
        gs = np.geomspace(1e-1, 1e-2, 9)
        gaps = []
        for g in gs:
            branch = conditional_branch(sel, s_plus(), model, g)
            shift = moments(branch, position_operator(model))
            gaps.append(abs(shift - g * analytic.real))
        order, _, _ = fit_order(gs, gaps)
        assert order >= 2.0 - 0.1

    def test_estimate_value_object(self):
        schedule = (0.02, 0.01, 0.005, 0.0025)
        est = estimate_weak_value(spin_selection(), pauli_z(), gaussian_pointer(2.0), schedule)
        assert est.g_schedule == schedule
        assert 0.0 <= est.extrapolation_residual <= 1e-3
        with pytest.raises(ValueError, match="residual"):
            WeakValueEstimate(1.0 + 0j, (), -0.5)

    def test_readout_single_point(self):
        readout = PointerReadout(spin_selection(), pauli_z(), gaussian_pointer(2.0))
        assert readout.ratio(0.02) == pytest.approx(1.0, abs=1e-10)


class TestSelectionType:
    def test_requires_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            PrePostSelection(StateVector(np.array([2.0, 0.0])), spin_up_z())

    def test_requires_equal_dims(self):
        from tsvflab import basis_state

        with pytest.raises(ValueError, match="dimensions"):
            PrePostSelection(spin_up_z(), basis_state(3, 0))

    def test_overlap_recorded(self):
        sel = spin_selection()
        assert sel.overlap == pytest.approx(INV_SQRT2)


class TestCorpusAgreement:
    """Numeric estimate within 1e-3 of the analytic ratio for every shipped
    selection scenario, using each scenario's pointer and default schedule."""

    def test_all_selection_scenarios(self):
        from tsvflab.scenario import corpus_names, load_corpus

        checked = 0
        for name in corpus_names():
            doc = load_corpus(name)
            if doc.selection is None:
                continue
            sel = PrePostSelection(
                doc.states[doc.selection[0]], doc.states[doc.selection[1]]
            )
            for op_name in doc.experiment.observables:
                op = doc.operators[op_name]
                analytic = weak_value(sel, op)
                estimate = estimate_weak_value(
                    sel, op, doc.pointer, default_g_schedule(doc.pointer)
                )
                assert abs(estimate.value - analytic) <= 1e-3, (name, op_name)
                checked += 1
        assert checked >= 6  # sz, sz/splus/sminus, flipped sz, zero, splus
