"""Measurement pipeline: expectations, weak values, pointer estimates."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import position_operator, random_hermitian, random_state, variance
from tsvflab import (
    CouplingEvolution,
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
    estimate_weak_values,
    expectation,
    first_order_state,
    fit_order,
    gaussian_pointer,
    initial_state,
    moments,
    pauli_x,
    pauli_z,
    projector,
    qubit_pointer,
    spin_down_z,
    spin_up_x,
    spin_up_z,
    tensor_product,
    time_reverse,
    translation_generator,
    weak_value,
)
from tsvflab import weakmeas
from tsvflab.pointer import pointer_spectrum
from tsvflab.qcore import post_selected_branches
from tsvflab.scenario import load_corpus_text, parse
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
    spectrum = pointer_spectrum(model)
    ((branch,),) = post_selected_branches(
        (S,), (spectrum.basis,), ((g,),), sel.pre, sel.post, spectrum.ready[None]
    )
    return StateVector(branch, normalized=None)


def dense_read(branch: StateVector, model, g) -> complex:
    """The pointer moments of a conditional branch through the dense n x n
    readout Q and generator P, calibrated as the estimator calibrates them."""
    ready = initial_state(model)
    p = translation_generator(model)
    q = position_operator(model)
    if model.kind == "qubit":
        return complex(-moments(branch, q) / (2.0 * g), moments(branch, p) / (2.0 * g))
    return complex(moments(branch, q) / g, moments(branch, p) / (2.0 * g * variance(ready, p)))


def dense_ratio(sel, S, model, g) -> complex:
    """The readout oracle: the coupling through ``eigh`` of the dense
    generator, then the projection onto |out>, then the dense moments."""
    joint = tensor_product(sel.pre, initial_state(model))
    evolved = CouplingEvolution(S, translation_generator(model)).apply(g, joint)
    return dense_read(StateVector(sel.post.amps.conj() @ evolved.as_matrix()), model, g)


def first_order_ratio(sel, S, model, g) -> complex:
    """Gaussian-pointer readout of the O(g) expansion: ``first_order_state``,
    then the projection onto |out>, then the pointer moments."""
    expanded = first_order_state(
        sel.pre, initial_state(model), S, translation_generator(model), g
    )
    return dense_read(StateVector(sel.post.amps.conj() @ expanded.as_matrix()), model, g)


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

    def test_operator_of_another_dim_raises(self):
        with pytest.raises(ValueError, match="^operator dim 3 does not match state dim 2$"):
            weak_value(spin_selection(), LinearOperator(np.eye(3)))

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

    def test_probability_above_one_is_a_fault(self, monkeypatch):
        model = gaussian_pointer(1.0, 128)
        spectrum = pointer_spectrum(model)
        # not a unit pointer
        doubled = dataclasses.replace(spectrum, ready=2.0 * spectrum.ready)
        monkeypatch.setattr(weakmeas, "pointer_spectrum", lambda _: doubled)
        readout = PointerReadout(spin_selection(), (pauli_z(),), (model,))
        with pytest.raises(ValueError, match="exceeds 1"):
            readout.ratios([(0.05,)])

    def test_dark_postselection(self):
        sel = PrePostSelection(spin_up_z(), spin_down_z())
        readout = PointerReadout(sel, (pauli_z(),), (gaussian_pointer(1.0, 128),))
        with pytest.raises(DarkDetectorError, match="orthogonal post-selection"):
            readout.ratios([(0.0,)])


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
        readout = PointerReadout(spin_selection(), (pauli_z(),), (gaussian_pointer(2.0),))
        ((ratio,),) = readout.ratios([(0.02,)])
        assert ratio == pytest.approx(1.0, abs=1e-10)

    def test_4096_point_grid_is_light(self):
        # the readout holds no n x n matrix: the dense generator alone
        # would be 4096^2 complex128 amplitudes, 256 MB
        text = load_corpus_text("spin_sz").replace("n_points = 256", "n_points = 4096")
        doc = parse(text).doc
        assert doc.pointer.n_points == 4096
        sel = PrePostSelection(*(doc.states[name] for name in doc.selection))
        tracemalloc.start()
        try:
            estimate = estimate_weak_value(
                sel, doc.operators["sz"], doc.pointer, doc.experiment.g_schedule
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(estimate.value - 1.0) <= 1e-3
        assert peak < 8 * 2**20


class TestDenseReadoutOracle:
    """The spectral readout against the dense one it replaced: ``eigh`` of
    the n x n generator, a dense Q and ``moments``/``variance``."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 4),
        count=st.integers(1, 3),
        pointer=st.sampled_from(
            [("grid", 64), ("grid", 128), ("qubit", "x"), ("qubit", "y"), ("qubit", "z")]
        ),
        spread=st.floats(0.5, 3.0),
        g=st.floats(1e-3, 0.5),
    )
    def test_per_g_ratios_match_dense_readout(self, seed, dim, count, pointer, spread, g):
        rng = np.random.default_rng(seed)
        sel = PrePostSelection(random_state(rng, dim), random_state(rng, dim))
        assume(abs(sel.overlap) >= 0.1)
        observables = [random_hermitian(rng, dim) for _ in range(count)]
        kind, size = pointer
        if kind == "grid":
            model = gaussian_pointer(spread, size, half_width=8.0 * spread * size / 64)
        else:
            model = qubit_pointer(size)
        schedule = (g, g / 2.0, g / 4.0)
        ratios = PointerReadout(sel, observables, (model,)).ratios((schedule,))
        assert ratios.shape == (count, len(schedule))
        for S, row in zip(observables, ratios):
            for gi, ratio in zip(schedule, row):
                oracle = dense_ratio(sel, S, model, gi)
                assert abs(ratio - oracle) <= 1e-10 * max(1.0, abs(oracle)), (gi, ratio, oracle)


class TestBatchedEstimates:
    """K observables read off one pointer in one pass."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 16),
        count=st.integers(1, 4),
        pointer=st.sampled_from([("grid", 128), ("grid", 256), ("qubit", "x"), ("qubit", "y")]),
        schedule=st.sampled_from(
            [None, (0.03, 0.02, 0.007, 0.001), (0.02, 0.01, 0.005, 0.0025)]
        ),
    )
    def test_each_estimate_equals_its_one_observable_call(
        self, seed, dim, count, pointer, schedule
    ):
        rng = np.random.default_rng(seed)
        sel = PrePostSelection(random_state(rng, dim), random_state(rng, dim))
        assume(abs(sel.overlap) >= 0.1)
        observables = [random_hermitian(rng, dim) for _ in range(count)]
        kind, size = pointer
        model = gaussian_pointer(2.0, size) if kind == "grid" else qubit_pointer(size)
        batch = estimate_weak_values(sel, observables, model, schedule)
        assert len(batch) == count
        for S, estimate in zip(observables, batch):
            alone = estimate_weak_value(sel, S, model, schedule)
            assert estimate.value == alone.value
            assert estimate.extrapolation_residual == alone.extrapolation_residual
            assert estimate.g_schedule == alone.g_schedule

    def test_checks_keep_their_order(self):
        # each observable hermitian, then each g finite, then the
        # dimensions, then dark and > 1 probabilities per observable and g
        sel, model = spin_selection(), gaussian_pointer(1.0, 128)
        lower = LinearOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        wide = LinearOperator(np.eye(3), hermitian=True)
        with pytest.raises(NonHermitianOperatorError, match="system observable"):
            PointerReadout(sel, (pauli_z(), wide, lower), (model,)).ratios([(math.inf,)])
        with pytest.raises(ValueError, match="coupling strength must be finite"):
            PointerReadout(sel, (pauli_z(), wide), (model,)).ratios([(0.1, math.nan)])
        with pytest.raises(ValueError, match="dimensions do not match"):
            PointerReadout(sel, (pauli_z(), wide), (model,)).ratios([(0.1,)])
        dark = PrePostSelection(spin_up_z(), spin_down_z())
        # pauli_x turns |up> towards |down> at g > 0; projector(down) never
        readout = PointerReadout(dark, (pauli_x(), projector(spin_down_z())), (model,))
        with pytest.raises(DarkDetectorError, match=r"g = 0\.2"):
            readout.ratios([(0.2, 0.1)])

    @pytest.mark.parametrize("g_max", [1e-300, 1e300])
    def test_extreme_schedules_extrapolate_to_finite_numbers(self, g_max):
        # the line is fitted in g / g_max; np.polyfit in g failed in LAPACK
        # at 1e-300.  The number is roundoff there: plans reject such schedules
        schedule = [g_max / 2.0**i for i in range(5)]
        estimate = estimate_weak_value(spin_selection(), pauli_z(), qubit_pointer(), schedule)
        assert math.isfinite(abs(estimate.value))
        assert math.isfinite(estimate.extrapolation_residual)

    def test_no_observables_no_estimates(self):
        assert estimate_weak_values(spin_selection(), (), gaussian_pointer(2.0)) == ()


class TestSeveralPointers:
    """One readout off several pointers that share transforms, in one pass."""

    @staticmethod
    def _counted_eigh(monkeypatch) -> list:
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    @pytest.mark.parametrize("size", [128, 256])
    def test_columns_are_one_pointer_readouts(self, rng, monkeypatch, size):
        sel = PrePostSelection(random_state(rng, 3), random_state(rng, 3))
        observables = [random_hermitian(rng, 3) for _ in range(2)]
        models = [gaussian_pointer(spread, size) for spread in (2.0, 3.0, 5.0, 1.0)]
        schedules = [(0.04, 0.02, 0.01), (0.5, 0.1), (0.5,), (0.7,)]
        readout = PointerReadout(sel, observables, models)
        calls = self._counted_eigh(monkeypatch)
        ratios = readout.ratios(schedules)
        assert calls == [(2, 3, 3)]  # one pass: one stacked eigh of the observables
        monkeypatch.undo()
        assert ratios.shape == (2, 7)
        columns = np.cumsum([0, *map(len, schedules)])
        for model, schedule, start, stop in zip(models, schedules, columns, columns[1:]):
            alone = PointerReadout(sel, observables, (model,)).ratios((schedule,))
            assert np.array_equal(ratios[:, start:stop], alone)

    def test_qubit_pointers_of_one_axis_share_a_pass(self, rng, monkeypatch):
        sel = PrePostSelection(random_state(rng, 3), random_state(rng, 3))
        observables = [random_hermitian(rng, 3) for _ in range(2)]
        models = [qubit_pointer("x"), qubit_pointer("x")]
        schedules = [(0.3,), (0.02, 0.01)]
        readout = PointerReadout(sel, observables, models)
        calls = self._counted_eigh(monkeypatch)
        ratios = readout.ratios(schedules)
        assert calls == [(2, 3, 3)]
        monkeypatch.undo()
        # a dense transform's matmul rounds by the number of rows it takes;
        # the grid's FFT does not
        alone = [
            PointerReadout(sel, observables, (m,)).ratios((g,)) for m, g in zip(models, schedules)
        ]
        np.testing.assert_allclose(ratios, np.hstack(alone), rtol=1e-13, atol=0)

    def test_a_model_listed_twice_is_one_spectrum(self, rng, monkeypatch):
        # equal models share one spectrum and each keeps its own schedule
        built = []

        def recorded(model):
            built.append(model)
            return pointer_spectrum(model)

        sel = PrePostSelection(random_state(rng, 3), random_state(rng, 3))
        observables = [random_hermitian(rng, 3) for _ in range(2)]
        models = [
            gaussian_pointer(2.0, 128), gaussian_pointer(3.0, 128), gaussian_pointer(2.0, 128),
            gaussian_pointer(5.0, 128), gaussian_pointer(5.0, 128),
        ]
        schedules = [(0.04, 0.02, 0.01), (0.3,), (0.5, 0.1), (0.5,), (0.02, 0.01)]
        monkeypatch.setattr(weakmeas, "pointer_spectrum", recorded)
        readout = PointerReadout(sel, observables, models)
        monkeypatch.undo()
        assert built == [models[0], models[1], models[3]]
        assert readout.spectra[0] is readout.spectra[2]
        assert readout.spectra[3] is readout.spectra[4]
        ratios = readout.ratios(schedules)
        assert ratios.shape == (2, 9)
        columns = np.cumsum([0, *map(len, schedules)])
        for model, schedule, start, stop in zip(models, schedules, columns, columns[1:]):
            alone = PointerReadout(sel, observables, (model,)).ratios((schedule,))
            assert np.array_equal(ratios[:, start:stop], alone)

    def test_rows_are_checked_pointer_by_pointer(self):
        # the first pointer's dark rows come first, whatever the later ones hold
        dark = PrePostSelection(spin_up_z(), spin_down_z())
        models = [gaussian_pointer(spread, 128) for spread in (1.0, 1.5, 2.0)]
        readout = PointerReadout(dark, (projector(spin_down_z()),), models)
        with pytest.raises(DarkDetectorError, match=r"g = 0\.3"):
            readout.ratios([(0.3,), (0.2,), (0.1,)])

    @pytest.mark.parametrize(
        "models",
        [
            (gaussian_pointer(2.0, 128), gaussian_pointer(2.0, 256)),
            (gaussian_pointer(2.0, 128), qubit_pointer("x")),
            (qubit_pointer("x"), qubit_pointer("y")),
        ],
        ids=["two-sizes", "grid-and-qubit", "two-axes"],
    )
    def test_pointers_that_share_no_transforms_are_rejected(self, rng, monkeypatch, models):
        sel = PrePostSelection(random_state(rng, 3), random_state(rng, 3))
        readout = PointerReadout(sel, (random_hermitian(rng, 3),), models)
        calls = self._counted_eigh(monkeypatch)
        with pytest.raises(ValueError, match="share their transforms"):
            readout.ratios([(0.1,), (0.1,)])
        assert calls == []


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
