"""Optical networks: the nested preset, two-state vectors, weak traces."""

import math

import numpy as np
import pytest

from tsvflab import (
    BeamSplitter,
    DarkDetectorError,
    FieldError,
    OpticalNetwork,
    PhaseShift,
    ScheduleError,
    TimeSlice,
    UnclassifiedOrderError,
    arm_weak_value,
    back_propagate,
    build_nested_mzi,
    classify_presence,
    default_g_decade,
    detection_probabilities,
    expectation,
    fit_order,
    gaussian_pointer,
    initial_state,
    network_overlap,
    projector,
    propagate,
    qubit_pointer,
    slice_weak_values,
    translation_generator,
    two_state_vector,
    weak_trace,
    weak_trace_sweeps,
)
from tsvflab import interferometer
from tsvflab.limits import METRIC_FLOOR
from tsvflab.qcore import basis_state
from tsvflab.tolerances import ORTHOGONAL_OVERLAP_TOL, ZERO_PROBABILITY_FLOOR


def _bs_matrix(n, a, b, t):
    u = np.eye(n, dtype=complex)
    u[a, a] = u[b, b] = math.sqrt(t)
    u[a, b] = u[b, a] = 1j * math.sqrt(1 - t)
    return u


def oracle_amplitudes():
    """Hand matrix product over the preset's unitaries, kept independent of
    the network class: returns (forward per slice, backward per slice, overlap)."""
    third = 1.0 / 3.0
    bs1 = _bs_matrix(4, 0, 1, third)
    inner1 = _bs_matrix(4, 1, 2, 0.5)
    inner2 = _bs_matrix(4, 1, 2, 0.5)
    bs4 = _bs_matrix(4, 0, 1, third)
    source = np.array([1, 0, 0, 0], dtype=complex)
    detector = np.array([1, 0, 0, 0], dtype=complex)
    f1 = bs1 @ source
    f2 = inner1 @ f1
    f3 = inner2 @ f2
    overlap = detector.conj() @ (bs4 @ f3)
    b3 = bs4.conj().T @ detector
    b2 = inner2.conj().T @ b3
    b1 = inner1.conj().T @ b2
    return (f1, f2, f3), (b1, b2, b3), complex(overlap)


def tensor_trace(net, target_arm, model, g, overlap=None):
    """Brute-force weak trace: every arm's environment kept as its own tensor
    axis, n_modes x ptr_dim x 2^(arms-1) amplitudes, evolved through the
    network with dense coupling unitaries and post-selected at the end.
    ``overlap`` defaults to the checked <out|in>."""
    if overlap is None:
        overlap = network_overlap(net)
        if abs(overlap) <= ORTHOGONAL_OVERLAP_TOL:
            raise DarkDetectorError(
                f"post-selection detector {net.postselect_detector!r} is dark: "
                f"|<out|in>| = {abs(overlap):.3e}"
            )
    couplings = []  # (arm, step position, mode) at each arm's first slice
    for position, step in enumerate(net.steps):
        if isinstance(step, TimeSlice):
            for label, mode in step.arms:
                if label not in [c[0] for c in couplings]:
                    couplings.append((label, position, mode))
    target_axis = [c[0] for c in couplings].index(target_arm)
    ready, unitaries = [], []
    for label, _, _ in couplings:
        arm_model = model if label == target_arm else qubit_pointer()
        ready.append(initial_state(arm_model).amps)
        eigvals, vecs = np.linalg.eigh(translation_generator(arm_model).entries)
        unitaries.append((vecs * np.exp(-1j * g * eigvals)) @ vecs.conj().T)

    state = np.zeros((net.n_modes,) + tuple(r.size for r in ready), dtype=complex)
    product = ready[0]
    for r in ready[1:]:
        product = np.multiply.outer(product, r)
    state[net.source_mode] = product
    for position, step in enumerate(net.steps):
        if isinstance(step, BeamSplitter):
            t, r = math.sqrt(step.transmissivity), 1j * math.sqrt(1 - step.transmissivity)
            a, b = step.mode_a, step.mode_b
            state[a], state[b] = t * state[a] + r * state[b], r * state[a] + t * state[b]
        elif isinstance(step, PhaseShift):
            state[step.mode] = state[step.mode] * np.exp(1j * step.phase)
        for axis, (_, at, mode) in enumerate(couplings):
            if at == position:
                block = np.moveaxis(state[mode], axis, 0)
                shape = block.shape
                block = unitaries[axis] @ block.reshape(shape[0], -1)
                state[mode] = np.moveaxis(block.reshape(shape), 0, axis)
    conditional = state[net.postselect_mode]
    if float(np.vdot(conditional, conditional).real) < ZERO_PROBABILITY_FLOOR:
        raise DarkDetectorError(f"post-selection detector dark after coupling at g = {g!r}")
    flat = np.moveaxis(conditional, target_axis, 0).reshape(ready[target_axis].size, -1)
    disturbed = flat - np.outer(ready[target_axis], ready[target_axis].conj() @ flat)
    return float(np.linalg.norm(disturbed) / abs(overlap))


def chain_network(rng, k, probe=False):
    """k nested interferometers in series, each a copy of the preset's
    nested MZI with random outer splitters and phases: stage i splits wire 0
    into A_i and D_i (wire 2i+1), runs D_i through a balanced inner
    interferometer (B_i, C_i on wires 2i+1, 2i+2) whose output E_i is dark,
    and recombines.  A probe arm X sits on an untouched last wire."""
    n_modes = 1 + 2 * k + probe
    steps = []
    for i in range(k):
        a, b = 2 * i + 1, 2 * i + 2
        steps += [
            BeamSplitter(0, a, float(rng.uniform(0.2, 0.8))),
            PhaseShift(0, float(rng.uniform(0, 2 * math.pi))),
            PhaseShift(a, float(rng.uniform(0, 2 * math.pi))),
            TimeSlice(((f"A{i}", 0), (f"D{i}", a))),
            BeamSplitter(a, b, 0.5),
            TimeSlice(((f"B{i}", a), (f"C{i}", b))
                      + ((("X", n_modes - 1),) if probe and i == k - 1 else ())),
            BeamSplitter(a, b, 0.5),
            PhaseShift(a, float(rng.uniform(0, 2 * math.pi))),
            TimeSlice(((f"E{i}", a),)),
            BeamSplitter(0, a, float(rng.uniform(0.2, 0.8))),
        ]
    return OpticalNetwork(
        n_modes=n_modes,
        steps=tuple(steps),
        source_mode=0,
        detectors=(("D1", 0),),
        postselect_detector="D1",
    )


class TestPresetStructure:
    def test_dark_and_bright_ports(self):
        net = build_nested_mzi()
        tsv = two_state_vector(net, 3)
        assert abs(tsv.forward_amplitude("E")) <= 1e-12
        tsv1 = two_state_vector(net, 1)
        assert abs(tsv1.forward_amplitude("D")) > 0.5
        assert abs(tsv1.backward_amplitude("D")) <= 1e-12

    def test_forward_expectations_of_arm_projectors(self):
        net = build_nested_mzi()
        forward = propagate(net, 3)
        assert expectation(forward, projector(basis_state(4, 1))) == pytest.approx(
            0.0, abs=1e-12
        )
        forward1 = propagate(net, 1)
        assert expectation(forward1, projector(basis_state(4, 1))) == pytest.approx(
            2.0 / 3.0, abs=1e-12
        )

    def test_detector_probabilities(self):
        probs = detection_probabilities(build_nested_mzi())
        assert probs["D1"] == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert probs["D2"] == pytest.approx(2.0 / 9.0, abs=1e-12)
        assert probs["D3"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_source_slice(self):
        net = build_nested_mzi()
        np.testing.assert_array_equal(propagate(net, 0).amps, [1, 0, 0, 0])

    def test_unit_norms_at_every_slice(self):
        net = build_nested_mzi()
        for index in range(4):
            assert propagate(net, index).norm() == pytest.approx(1.0, abs=1e-12)
            assert back_propagate(net, index).norm() == pytest.approx(1.0, abs=1e-12)

    def test_pairing_constant_across_slices(self):
        net = build_nested_mzi()
        overlap = network_overlap(net)
        assert overlap == pytest.approx(1.0 / 3.0, abs=1e-12)
        for index in range(4):
            assert two_state_vector(net, index).pairing == pytest.approx(
                overlap, abs=1e-12
            )

    def test_invalid_slice(self):
        with pytest.raises(ValueError, match="slice index"):
            propagate(build_nested_mzi(), 9)


class TestPresetAgainstOracle:
    def test_amplitudes_match_hand_product(self):
        net = build_nested_mzi()
        (f1, f2, f3), (b1, b2, b3), overlap = oracle_amplitudes()
        np.testing.assert_allclose(propagate(net, 1).amps, f1, atol=1e-14)
        np.testing.assert_allclose(propagate(net, 2).amps, f2, atol=1e-14)
        np.testing.assert_allclose(propagate(net, 3).amps, f3, atol=1e-14)
        np.testing.assert_allclose(back_propagate(net, 1).amps, b1, atol=1e-14)
        np.testing.assert_allclose(back_propagate(net, 2).amps, b2, atol=1e-14)
        np.testing.assert_allclose(back_propagate(net, 3).amps, b3, atol=1e-14)
        assert network_overlap(net) == pytest.approx(overlap, abs=1e-14)

    def test_arm_weak_values(self):
        net = build_nested_mzi()
        (_, f2, _), (_, b2, _), overlap = oracle_amplitudes()
        for arm, mode in (("A", 0), ("B", 1), ("C", 2)):
            oracle = np.conj(b2[mode]) * f2[mode] / overlap
            assert arm_weak_value(net, arm) == pytest.approx(oracle, abs=1e-12)
        assert arm_weak_value(net, "A") == pytest.approx(1.0, abs=1e-12)
        assert arm_weak_value(net, "B") == pytest.approx(-1.0, abs=1e-12)
        assert arm_weak_value(net, "C") == pytest.approx(1.0, abs=1e-12)
        assert abs(arm_weak_value(net, "E")) <= 1e-12
        assert abs(arm_weak_value(net, "D")) <= 1e-12

    def test_slice_sum_rules(self):
        net = build_nested_mzi()
        for index in range(4):
            values = slice_weak_values(net, index)
            assert sum(values.values()) == pytest.approx(1.0, abs=1e-12)

    def test_projector_additivity_for_disjoint_arms(self):
        # (Pi_B + Pi_C)_w from the oracle equals the sum of arm weak values
        net = build_nested_mzi()
        (_, f2, _), (_, b2, _), overlap = oracle_amplitudes()
        union = projector(basis_state(4, 1)).entries + projector(basis_state(4, 2)).entries
        oracle = (b2.conj() @ union @ f2) / overlap
        total = arm_weak_value(net, "B") + arm_weak_value(net, "C")
        assert total == pytest.approx(oracle, abs=1e-12)
        assert total == pytest.approx(0.0, abs=1e-12)


class TestNetworkValidation:
    def test_transmissivity_range(self):
        with pytest.raises(ValueError, match="transmissivity"):
            BeamSplitter(0, 1, 1.0)

    def test_distinct_modes(self):
        with pytest.raises(ValueError, match="distinct"):
            BeamSplitter(1, 1, 0.5)

    def test_finite_phase(self):
        for phase in (math.inf, -math.inf, math.nan):
            with pytest.raises(FieldError, match="phase must be finite") as err:
                PhaseShift(0, phase)
            assert err.value.path == ("phase",)

    def test_duplicate_arm_labels(self):
        with pytest.raises(ValueError, match="unique"):
            TimeSlice((("A", 0), ("A", 1)))

    def test_postselect_must_be_declared(self):
        with pytest.raises(ValueError, match="post-selection"):
            OpticalNetwork(
                n_modes=2,
                steps=(BeamSplitter(0, 1, 0.5),),
                source_mode=0,
                detectors=(("D1", 0),),
                postselect_detector="D9",
            )

    def test_mode_ranges(self):
        with pytest.raises(ValueError, match="out of range"):
            OpticalNetwork(
                n_modes=2,
                steps=(BeamSplitter(0, 5, 0.5),),
                source_mode=0,
                detectors=(("D1", 0),),
                postselect_detector="D1",
            )

    def test_slice_must_cover_occupied_modes(self):
        net = build_nested_mzi()
        broken = OpticalNetwork(
            n_modes=4,
            steps=tuple(
                TimeSlice((("B", 1),)) if isinstance(s, TimeSlice) and "B" in s.arm_map else s
                for s in net.steps
            ),
            source_mode=0,
            detectors=net.detectors,
            postselect_detector="D1",
        )
        with pytest.raises(ValueError, match="cover"):
            two_state_vector(broken, 2)

    def test_uncovered_mode_message(self):
        # the slice labels mode 0 only, while the crossover sends all of the
        # post-selected pairing through mode 1
        net = OpticalNetwork(
            n_modes=2,
            steps=(BeamSplitter(0, 1, 0.5), TimeSlice((("A", 0),)), BeamSplitter(0, 1, 0.5)),
            source_mode=0,
            detectors=(("D1", 0), ("D2", 1)),
            postselect_detector="D1",
        )
        with pytest.raises(ValueError) as err:
            two_state_vector(net, 0)
        assert str(err.value) == (
            "slice 0 arms do not cover the occupied modes: "
            "arm pairing (0.5000000000000001+0j) vs full pairing 0j"
        )


class TestWeakTrace:
    def test_zero_at_zero_coupling(self):
        net = build_nested_mzi()
        for arm in ("A", "E", "X"):
            assert weak_trace(net, arm, qubit_pointer(), 0.0) == 0.0

    def test_unoccupied_arm_exactly_zero(self):
        net = build_nested_mzi()
        for g in (1e-4, 1e-2, 0.3):
            assert weak_trace(net, "X", qubit_pointer(), g) <= 1e-14

    def test_first_order_coefficient_is_weak_value_magnitude(self):
        # leading trace ~ |f b| sin(g)/|o| = |w| g for the qubit environment
        net = build_nested_mzi()
        g = 1e-3
        trace = weak_trace(net, "A", qubit_pointer(), g)
        assert trace == pytest.approx(abs(arm_weak_value(net, "A")) * g, rel=1e-3)

    def test_gaussian_target_pointer(self):
        net = build_nested_mzi()
        model = gaussian_pointer(1.0, 64, 8.0)
        g = 1e-2
        trace = weak_trace(net, "A", model, g)
        # gaussian disturbance scale is g ||P|m>|| = g/(2 spread)
        assert trace == pytest.approx(g / 2.0, rel=1e-3)

    def test_trace_ratio_grows_as_g_shrinks(self):
        net = build_nested_mzi()
        model = qubit_pointer()
        ratios = []
        for g in (1e-2, 1e-3):
            ratios.append(
                weak_trace(net, "A", model, g) / weak_trace(net, "E", model, g)
            )
        assert ratios[1] / ratios[0] >= 8.0

    def test_dark_postselection_rejected(self):
        # two balanced splitters form a crossover: detector on the source wire
        # is exactly dark
        net = OpticalNetwork(
            n_modes=2,
            steps=(
                BeamSplitter(0, 1, 0.5),
                TimeSlice((("U", 0), ("L", 1))),
                BeamSplitter(0, 1, 0.5),
            ),
            source_mode=0,
            detectors=(("DARK", 0), ("BRIGHT", 1)),
            postselect_detector="DARK",
        )
        with pytest.raises(DarkDetectorError, match="dark"):
            weak_trace(net, "U", qubit_pointer(), 1e-3)

    def test_unknown_arm(self):
        with pytest.raises(ValueError, match="not labeled"):
            weak_trace(build_nested_mzi(), "Q", qubit_pointer(), 1e-3)

    def test_non_finite_coupling_is_rejected(self):
        # with the readout's message, before either pass and before an
        # unlabeled arm is reported; it read nan before
        net = build_nested_mzi()
        for model in (qubit_pointer(), gaussian_pointer(1.0, 64, 8.0)):
            for g in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="coupling strength must be finite"):
                    weak_trace(net, "A", model, g)
            with pytest.raises(ValueError, match="coupling strength must be finite"):
                weak_trace_sweeps(net, ["Q", "A"], model, (0.1, math.nan))
        # the order fit keeps its schedule's message
        with pytest.raises(ScheduleError, match="must be finite"):
            classify_presence(net, ["A"], qubit_pointer(), (0.1, 0.01, 0.001, math.inf))

    def test_overflowing_phase_is_rejected(self):
        # the grid's largest momentum is pi / h = 16.7 here, so g mu_k
        # overflows at g = 1e308; it warned and then read nan
        net, model = build_nested_mzi(), gaussian_pointer(1.0, 128)
        schedule = (1e308, 1e307, 1e306, 1e305)
        with pytest.raises(ValueError, match="^coupling phase must be finite$"):
            weak_trace_sweeps(net, ["A", "D"], model, schedule)
        assert all(v > 0.0 for v in weak_trace_sweeps(net, ["A"], model, schedule[1:])[0][1])


class TestTracePhaseBound:
    """Below ``TRACE_MIN_PHASE`` a second-order weight underflows: D read
    1.4145550062323659e-160 at g = 1e-80 (1.414213562373e-160) and 0.0 at
    1e-82, and every arm of the preset was "none" near g = 1e-200."""

    MESSAGE = "smallest coupling phase .* is below 1e-70"

    def test_weak_trace(self):
        net = build_nested_mzi()
        assert weak_trace(net, "D", qubit_pointer(), 1e-70) > 0.0
        with pytest.raises(ValueError, match=self.MESSAGE):
            weak_trace(net, "D", qubit_pointer(), -1e-71)
        # on the grid the phase is g / (2 spread) when that is below g
        model = gaussian_pointer(1.0, 64, 8.0)
        assert weak_trace(net, "A", model, 2e-70) > 0.0
        with pytest.raises(ValueError, match=r"phase 9\.5e-71 is below"):
            weak_trace(net, "A", model, 1.9e-70)

    def test_weak_trace_sweeps(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            weak_trace_sweeps(build_nested_mzi(), ["D"], qubit_pointer(), (1e-80, 1e-82))
        # a zero coupling has no phase and stays exact
        traces = weak_trace_sweeps(build_nested_mzi(), ["D"], qubit_pointer(), (1e-60, 0.0))
        assert traces[0][1][1] == 0.0

    def test_classify_presence(self):
        schedule = default_g_decade(1e-200, 1e-201)
        with pytest.raises(ValueError, match=self.MESSAGE):
            classify_presence(build_nested_mzi(), "ABCDEX", qubit_pointer(), schedule)


class TestClassifyPresence:
    def test_preset_classification(self):
        report = classify_presence(build_nested_mzi(), ("A", "B", "C", "D", "E", "X"))
        assert report.classification("A") == "primary"
        assert report.classification("B") == "primary"
        assert report.classification("C") == "primary"
        assert report.classification("D") == "secondary"
        assert report.classification("E") == "secondary"
        assert report.classification("X") == "none"
        for arm in "ABC":
            assert report.leading_order(arm) == pytest.approx(1.0, abs=0.1)
        for arm in "DE":
            assert report.leading_order(arm) == pytest.approx(2.0, abs=0.15)
        assert math.isinf(report.leading_order("X"))

    def test_second_order_traces_below_the_metric_floor_are_fitted(self):
        # at g = 1e-7 ... 1e-8 the second-order traces of D and E fall to
        # 1e-16, and all but one lie under limits.METRIC_FLOOR, too few points
        # for a fit above it; only the exact zeros of an unchained arm mean
        # no presence
        net = build_nested_mzi()
        schedule = default_g_decade(1e-7, 1e-8)
        traces = dict(weak_trace_sweeps(net, "DEX", qubit_pointer(), schedule))
        for arm in "DE":
            assert min(traces[arm]) > 0.0
            assert sum(value > METRIC_FLOOR for value in traces[arm]) < 4
        assert set(traces["X"]) == {0.0}
        report = classify_presence(net, "ABCDEX", qubit_pointer(), schedule)
        assert [report.classification(a) for a in "ABCDEX"] == [
            "primary", "primary", "primary", "secondary", "secondary", "none",
        ]
        for arm in "DE":
            assert report.leading_order(arm) == pytest.approx(2.0, abs=1e-6)

    def test_order_dichotomy_against_weak_values(self):
        net = build_nested_mzi()
        report = classify_presence(net)
        for arm in ("A", "B", "C", "D", "E"):
            first = report.leading_order(arm) < 1.5
            assert first == (abs(arm_weak_value(net, arm)) > 1e-10)

    def test_randomized_presets_keep_the_classification(self):
        rng = np.random.default_rng(7)
        schedule = default_g_decade(1e-2, 1e-3, 5)
        for _ in range(3):
            net = build_nested_mzi(
                input_transmissivity=float(rng.uniform(0.2, 0.8)),
                output_transmissivity=float(rng.uniform(0.2, 0.8)),
                phase_a=float(rng.uniform(0, 2 * math.pi)),
                phase_d=float(rng.uniform(0, 2 * math.pi)),
                phase_e=float(rng.uniform(0, 2 * math.pi)),
            )
            assert abs(two_state_vector(net, 3).forward_amplitude("E")) <= 1e-12
            assert abs(two_state_vector(net, 1).backward_amplitude("D")) <= 1e-12
            report = classify_presence(
                net, ("A", "B", "C", "D", "E", "X"), qubit_pointer(), schedule
            )
            assert [report.classification(a) for a in "ABCDEX"] == [
                "primary", "primary", "primary", "secondary", "secondary", "none",
            ]

    def test_plain_two_path_interferometer_orders(self):
        # a single balanced interferometer has only primary arms
        net = OpticalNetwork(
            n_modes=2,
            steps=(
                BeamSplitter(0, 1, 0.5),
                TimeSlice((("U", 0), ("L", 1))),
                BeamSplitter(0, 1, 0.4),
            ),
            source_mode=0,
            detectors=(("D1", 0), ("D2", 1)),
            postselect_detector="D2",
        )
        report = classify_presence(net, ("U", "L"))
        assert report.classification("U") == "primary"
        assert report.classification("L") == "primary"

    def test_unclassifiable_order_raises(self):
        with pytest.raises(UnclassifiedOrderError):
            from tsvflab import classify_order

            classify_order(1.5, "synthetic")

    def test_sweep_matches_single_calls(self):
        net = build_nested_mzi()
        schedule = default_g_decade(1e-2, 1e-3, 5)
        swept = weak_trace_sweeps(net, ("B",), qubit_pointer(), schedule)[0][1]
        singles = [weak_trace(net, "B", qubit_pointer(), g) for g in schedule]
        np.testing.assert_allclose(swept, singles, rtol=0, atol=0)

    def test_presence_orders_fit_the_sweeps(self):
        net = build_nested_mzi()
        schedule = default_g_decade()
        values = weak_trace_sweeps(net, ("E",), qubit_pointer(), schedule)[0][1]
        order, _, _ = fit_order(schedule, values)
        assert order == pytest.approx(2.0, abs=0.15)


class TestRandomizedNetworks:
    """Order dichotomy on random two-splitter networks.

    Arms with nonzero weak values trace at first order.  Arms whose record
    cannot reach the post-selection detector through any chain of couplings
    (mode 2 after its slice feeds only D3; mode 2 before the first slice was
    never fed) leave no trace at all, even though one of their amplitudes
    is nonzero.
    """

    def _random_network(self, rng):
        t1, t2, t3 = (float(t) for t in rng.uniform(0.2, 0.8, 3))
        p1, p2 = (float(p) for p in rng.uniform(0, 2 * math.pi, 2))
        return OpticalNetwork(
            n_modes=3,
            steps=(
                BeamSplitter(0, 1, t1),
                PhaseShift(1, p1),
                TimeSlice((("P", 0), ("Q", 1), ("R", 2))),
                BeamSplitter(1, 2, t2),
                PhaseShift(0, p2),
                TimeSlice((("U", 0), ("V", 1), ("W", 2))),
                BeamSplitter(0, 1, t3),
            ),
            source_mode=0,
            detectors=(("D1", 0), ("D2", 1), ("D3", 2)),
            postselect_detector="D1",
        )

    def test_first_order_iff_nonzero_weak_value(self):
        rng = np.random.default_rng(11)
        schedule = default_g_decade()
        model = qubit_pointer()
        for _ in range(4):
            net = self._random_network(rng)
            for arm in ("P", "Q", "U", "V"):
                if abs(arm_weak_value(net, arm)) < 0.05:
                    continue  # too close to a zero to pin the band
                values = weak_trace_sweeps(net, (arm,), model, schedule)[0][1]
                order, _, _ = fit_order(schedule, values)
                assert order == pytest.approx(1.0, abs=0.1), arm

    def test_chainless_arms_leave_no_trace(self):
        rng = np.random.default_rng(12)
        schedule = default_g_decade()
        model = qubit_pointer()
        for _ in range(4):
            net = self._random_network(rng)
            # R is backward-occupied only, W forward-occupied only
            assert abs(two_state_vector(net, 0).backward_amplitude("R")) > 0
            assert abs(two_state_vector(net, 0).forward_amplitude("R")) <= 1e-14
            assert abs(two_state_vector(net, 1).forward_amplitude("W")) > 0
            assert abs(two_state_vector(net, 1).backward_amplitude("W")) <= 1e-14
            for arm in ("R", "W"):
                values = weak_trace_sweeps(net, (arm,), model, schedule)[0][1]
                assert max(values) <= 1e-14, arm


class TestChannelsAgainstTensorOracle:
    """The per-arm channel traces against the brute-force tensor."""

    G_VALUES = (1e-2, 3e-3, 1e-3)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("target", ["qubit", "gaussian"])
    @pytest.mark.parametrize("probe", [False, True])
    def test_chains_agree(self, k, target, probe):
        rng = np.random.default_rng(100 * k + 10 * (target == "qubit") + probe)
        net = chain_network(rng, k, probe)
        if target == "qubit":
            model = qubit_pointer(str(rng.choice(["x", "y", "z"])))
        else:
            spread = float(rng.uniform(0.5, 2.0))
            model = gaussian_pointer(spread, 64, 8.0 * spread)
        for arm in net.arm_labels:
            traces = weak_trace_sweeps(net, (arm,), model, self.G_VALUES)[0][1]
            for g, value in zip(self.G_VALUES, traces):
                oracle = tensor_trace(net, arm, model, g)
                if arm == "X":
                    assert value == 0.0 and oracle <= 1e-14
                else:
                    assert value == pytest.approx(oracle, rel=1e-9, abs=0), (arm, g)

    def test_unreachable_arms_are_exactly_zero(self):
        rng = np.random.default_rng(12)
        for _ in range(4):
            net = TestRandomizedNetworks()._random_network(rng)
            for arm in ("R", "W"):
                for g in self.G_VALUES:
                    assert weak_trace(net, arm, qubit_pointer(), g) == 0.0
                    assert tensor_trace(net, arm, qubit_pointer(), g) <= 1e-14
        net = build_nested_mzi()
        for model in (qubit_pointer(), gaussian_pointer(1.0, 64, 8.0)):
            assert weak_trace_sweeps(net, ("X",), model, self.G_VALUES)[0][1] == (0.0, 0.0, 0.0)

    def test_same_dark_detector_error(self, monkeypatch):
        # the source wire never reaches the post-selected one, so the
        # detector is dark with and without the couplings
        net = OpticalNetwork(
            n_modes=3,
            steps=(BeamSplitter(0, 1, 0.5), TimeSlice((("U", 0), ("L", 1)))),
            source_mode=0,
            detectors=(("DARK", 2),),
            postselect_detector="DARK",
        )
        with pytest.raises(DarkDetectorError) as oracle:
            tensor_trace(net, "U", qubit_pointer(), 1e-3)
        with pytest.raises(DarkDetectorError) as channels:
            weak_trace(net, "U", qubit_pointer(), 1e-3)
        assert str(channels.value) == str(oracle.value)
        # past the overlap check, the coupled detection probability is zero
        with pytest.raises(DarkDetectorError) as oracle:
            tensor_trace(net, "U", qubit_pointer(), 1e-3, overlap=1.0)
        monkeypatch.setattr(interferometer, "_checked_overlap", lambda net, overlap: 1.0)
        _, (dark,) = interferometer._arm_traces(net, ["U"], qubit_pointer(), [1e-3])
        assert dark.tolist() == [True]
        assert str(interferometer._dark_after_coupling(1e-3)) == str(oracle.value)


def one_slice_network():
    """Two arms U, L coupling at one slice between two splitters."""
    return OpticalNetwork(
        n_modes=2,
        steps=(
            BeamSplitter(0, 1, 0.3),
            TimeSlice((("U", 0), ("L", 1))),
            BeamSplitter(0, 1, 0.6),
        ),
        source_mode=0,
        detectors=(("D1", 0), ("D2", 1)),
        postselect_detector="D2",
    )


def one_slice_probability(net, g):
    """The closed-form detection probability of ``one_slice_network`` with
    qubit environments (alpha = cos g)."""
    tsv = two_state_vector(net, 0)
    a_u, a_l = (tsv.backward_amplitude(x).conjugate() * tsv.forward_amplitude(x)
                for x in "UL")
    return abs(a_u) ** 2 + abs(a_l) ** 2 + 2 * (a_u.conjugate() * a_l).real * math.cos(g) ** 2


class TestAllArmsAtOnce:
    """One forward and one backward pass serve every arm: the same bits as
    one arm at a time, and the caller's arm order for errors."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("target", ["qubit", "gaussian"])
    @pytest.mark.parametrize("probe", [False, True])
    def test_every_arm_matches_its_own_sweep(self, k, target, probe):
        rng = np.random.default_rng(1000 + 100 * k + 10 * (target == "qubit") + probe)
        net = chain_network(rng, k, probe)
        if target == "qubit":
            model = qubit_pointer(str(rng.choice(["x", "y", "z"])))
        else:
            spread = float(rng.uniform(0.5, 2.0))
            model = gaussian_pointer(spread, 64, 8.0 * spread)
        schedule = default_g_decade(1e-2, 1e-3, 4)
        arms = list(net.arm_labels)
        report = classify_presence(net, arms, model, schedule)
        together = weak_trace_sweeps(net, arms, model, schedule)
        assert [arm for arm, _ in together] == arms
        for arm, traces in together:
            alone = weak_trace_sweeps(net, (arm,), model, schedule)[0][1]
            assert traces == alone, arm
            assert report.leading_order(arm) == fit_order(schedule, alone)[0], arm
            # the tensor holds 2^(arms-1) * 64 amplitudes per mode: ~120 MB at
            # k = 3 with a 64-point target, so the oracle checks k <= 2 there
            if target == "gaussian" and k == 3:
                continue
            oracle = tensor_trace(net, arm, model, schedule[-1])
            if arm == "X":
                assert alone[-1] == 0.0 and oracle <= 1e-14
            else:
                assert alone[-1] == pytest.approx(oracle, rel=1e-9, abs=0), arm

    def test_detection_probability_in_closed_form(self, monkeypatch):
        # both arms couple at one slice to qubit environments with
        # alpha = cos g, so the post-selected probability is
        # |a_U|^2 + |a_L|^2 + 2 Re(conj(a_U) a_L) cos(g)^2, a_x = conj(b_x) f_x;
        # floors just above and below it pin the dark check to it
        net = one_slice_network()
        g = 0.5
        probability = one_slice_probability(net, g)
        for arm in ("U", "L"):
            for scale, dark in ((1 + 1e-9, True), (1 - 1e-9, False)):
                monkeypatch.setattr(interferometer, "ZERO_PROBABILITY_FLOOR", probability * scale)
                _, (flags,) = interferometer._arm_traces(net, [arm], qubit_pointer(), [g])
                assert flags.tolist() == [dark], (arm, scale)

    def test_errors_keep_the_callers_arm_order(self, monkeypatch):
        # a floor above every detection probability darkens every point, so
        # the first listed arm fails its fit before the unlabeled one is read
        net = build_nested_mzi()
        schedule = default_g_decade()
        monkeypatch.setattr(interferometer, "ZERO_PROBABILITY_FLOOR", 2.0)
        with pytest.raises(DarkDetectorError) as dark:
            classify_presence(net, ["A", "Q"], qubit_pointer(), schedule)
        assert str(dark.value) == (
            f"post-selection detector dark after coupling at g = {schedule[-1]!r}"
        )
        with pytest.raises(DarkDetectorError) as swept:
            weak_trace_sweeps(net, ["A", "Q"], qubit_pointer(), schedule)
        assert str(swept.value) == (
            f"post-selection detector dark after coupling at g = {schedule[0]!r}"
        )
        for call in (classify_presence, weak_trace_sweeps):
            with pytest.raises(ValueError, match="arm 'Q' is not labeled in any slice"):
                call(net, ["Q", "A"], qubit_pointer(), schedule)
        with pytest.raises(ValueError, match="arm 'Q' is not labeled in any slice"):
            weak_trace_sweeps(net, ("Q",), qubit_pointer(), schedule)


class TestPartlyDarkSchedule:
    """A floor between two points' detection probabilities darkens only
    some of the schedule: presence fits the rest, if enough is left."""

    SCHEDULE = default_g_decade(1e-1, 1e-3, 9)

    def _darken(self, monkeypatch, net, count):
        # the probability rises as g falls, so a floor between the
        # count-th and the next point darkens the count largest g
        probabilities = [one_slice_probability(net, g) for g in self.SCHEDULE]
        assert probabilities == sorted(probabilities)
        floor = (probabilities[count - 1] + probabilities[count]) / 2
        monkeypatch.setattr(interferometer, "ZERO_PROBABILITY_FLOOR", floor)

    def test_order_fitted_over_the_lit_points(self, monkeypatch):
        net = one_slice_network()
        traces = dict(weak_trace_sweeps(net, ["U", "L"], qubit_pointer(), self.SCHEDULE))
        self._darken(monkeypatch, net, 2)
        report = classify_presence(net, ["U", "L"], qubit_pointer(), self.SCHEDULE)
        for arm in ("U", "L"):
            lit = fit_order(self.SCHEDULE[2:], traces[arm][2:])[0]
            assert report.leading_order(arm) == pytest.approx(lit, rel=1e-12, abs=0)
            assert report.leading_order(arm) != fit_order(self.SCHEDULE, traces[arm])[0]
            assert report.classification(arm) == "primary"

    def test_lit_points_must_span_a_decade(self, monkeypatch):
        net = one_slice_network()
        self._darken(monkeypatch, net, 5)
        with pytest.raises(ScheduleError) as short:
            classify_presence(net, ["U", "L"], qubit_pointer(), self.SCHEDULE)
        assert str(short.value) == "schedule must span at least one decade"

    def test_fewer_than_four_lit_points_is_dark(self, monkeypatch):
        net = one_slice_network()
        self._darken(monkeypatch, net, 6)
        with pytest.raises(DarkDetectorError) as dark:
            classify_presence(net, ["U", "L"], qubit_pointer(), self.SCHEDULE)
        assert str(dark.value) == (
            f"post-selection detector dark after coupling at g = {self.SCHEDULE[5]!r}"
        )


def test_presence_on_forty_arms():
    # 2^39 environment amplitudes per mode in the tensor picture
    net = chain_network(np.random.default_rng(8), 8)
    assert len(net.arm_labels) == 40
    report = classify_presence(net)
    for arm, presence in report.entries:
        expected = "primary" if arm[0] in "ABC" else "secondary"
        assert presence.classification == expected, arm
