"""Core linear algebra: states, operators, tensor products, couplings."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_hermitian, random_state, single_factor_evolution
from tsvflab import qcore
from tsvflab import (
    CouplingEvolution,
    JointState,
    LinearOperator,
    NonHermitianOperatorError,
    StateVector,
    basis_state,
    first_order_state,
    fit_order,
    gaussian_pointer,
    identity,
    initial_state,
    inner,
    pauli_x,
    pauli_z,
    projector,
    spin_down_z,
    spin_up_x,
    spin_up_z,
    tensor_product,
    translation_generator,
)
from tsvflab.pointer import pointer_spectrum, qubit_pointer
from tsvflab.qcore import STRUCTURAL_TOL, Eigenbasis, post_selected_branches

INV_SQRT2 = 0.7071067811865476  # hand value of 1/sqrt(2)
#: Unitarity promised for the coupling evolution.
UNITARITY_DEFECT = 1e-10


def _complex_vectors(min_dim=1, max_dim=6):
    return st.integers(min_dim, max_dim).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.floats(-3, 3, allow_nan=False),
                st.floats(-3, 3, allow_nan=False),
            ),
            min_size=n,
            max_size=n,
        )
    ).map(lambda pairs: np.array([complex(a, b) for a, b in pairs]))


class TestStateVector:
    def test_dim_and_norm(self):
        v = StateVector(np.array([3.0, 4.0j]))
        assert v.dim == 2
        assert v.norm() == pytest.approx(5.0)
        assert not v.normalized

    def test_normalized_tag_detected(self):
        assert STRUCTURAL_TOL == 1e-12
        assert spin_up_x().normalized
        assert not StateVector(np.array([1.0, 1.0])).normalized

    def test_normalized_tag_verified(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(np.array([1.0, 1.0]), normalized=True)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateVector(np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            StateVector(np.array([np.inf + 0j, 0.0]))

    def test_unit_of_zero_state_raises(self):
        with pytest.raises(ValueError, match="^cannot normalize a zero state$"):
            StateVector(np.zeros(3)).unit()

    def test_amps_read_only(self):
        v = spin_up_z()
        with pytest.raises(ValueError):
            v.amps[0] = 2.0


class TestLinearOperator:
    def test_hermitian_tag_detected(self):
        assert pauli_x().hermitian
        assert not LinearOperator(np.array([[0.0, 1.0], [0.0, 0.0]])).hermitian

    def test_hermitian_tag_verified(self):
        with pytest.raises(ValueError, match="hermitian"):
            LinearOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            LinearOperator(np.ones((2, 3)))

    def test_arithmetic(self):
        s_plus = (pauli_z() + pauli_x()) / math.sqrt(2)
        assert s_plus.hermitian
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
        np.testing.assert_allclose(s_plus.entries, expected, atol=1e-15)
        np.testing.assert_allclose(
            (2.0 * pauli_z()).entries, np.diag([2.0, -2.0]), atol=0
        )
        composed = pauli_z() @ pauli_x()
        np.testing.assert_allclose(
            composed.entries, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=0
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pauli_z() + identity(3)


class TestTensorProduct:
    def test_basis_case(self):
        joint = tensor_product(spin_up_z(), spin_up_z())
        np.testing.assert_array_equal(joint.state.amps, [1, 0, 0, 0])

    def test_linearity_case(self):
        joint = tensor_product(spin_up_x(), spin_up_z())
        np.testing.assert_allclose(
            joint.state.amps, [INV_SQRT2, 0, INV_SQRT2, 0], atol=1e-15
        )

    def test_system_major_index_convention(self):
        # amplitude of (system i, pointer j) must sit at flat index i*ptr+j
        joint = tensor_product(basis_state(2, 1), basis_state(3, 2))
        assert joint.state.amps[1 * 3 + 2] == 1.0
        assert np.count_nonzero(joint.state.amps) == 1

    @given(_complex_vectors(), _complex_vectors())
    def test_norm_is_multiplicative(self, a, b):
        sa, sb = StateVector(a), StateVector(b)
        joint = tensor_product(sa, sb)
        assert joint.norm() == pytest.approx(sa.norm() * sb.norm(), abs=1e-12)

    def test_joint_state_dim_checked(self):
        with pytest.raises(ValueError):
            JointState(2, 3, basis_state(5, 0))


class TestInner:
    def test_hand_value(self):
        assert inner(spin_up_z(), spin_up_x()) == pytest.approx(INV_SQRT2)

    def test_self_inner_of_normalized(self, rng):
        v = random_state(rng, 5)
        assert inner(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis(self):
        assert inner(spin_up_z(), spin_down_z()) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner(spin_up_z(), basis_state(3, 0))

    @given(
        _complex_vectors(min_dim=3, max_dim=3),
        _complex_vectors(min_dim=3, max_dim=3),
        st.floats(-2, 2, allow_nan=False),
    )
    def test_conjugate_symmetry_and_linearity(self, a, b, scale):
        sa, sb = StateVector(a), StateVector(b)
        assert inner(sa, sb) == pytest.approx(np.conj(inner(sb, sa)), abs=1e-12)
        scaled = StateVector(b * scale)
        assert inner(sa, scaled) == pytest.approx(scale * inner(sa, sb), abs=1e-9)


def _columns(evolution: CouplingEvolution, g: float) -> np.ndarray:
    """exp(-i g S (x) P) as a matrix, one ``apply`` per joint basis state."""
    dim = evolution.sys_dim * evolution.ptr_dim
    return np.column_stack([
        evolution.apply(
            g, JointState(evolution.sys_dim, evolution.ptr_dim, basis_state(dim, k))
        ).state.amps
        for k in range(dim)
    ])


class TestCouplingEvolution:
    def test_zero_coupling_is_identity(self):
        u = _columns(CouplingEvolution(pauli_z(), pauli_x()), 0.0)
        np.testing.assert_array_equal(u, np.eye(4))

    def test_unitarity(self, rng):
        for _ in range(10):
            s = random_hermitian(rng, 3)
            p = random_hermitian(rng, 4)
            u = _columns(CouplingEvolution(s, p), rng.uniform(0.01, 2.0))
            defect = np.max(np.abs(u @ u.conj().T - np.eye(12)))
            assert defect <= UNITARITY_DEFECT

    def test_rejects_non_hermitian(self):
        lower = LinearOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NonHermitianOperatorError):
            CouplingEvolution(lower, pauli_x())
        with pytest.raises(NonHermitianOperatorError):
            CouplingEvolution(pauli_z(), lower)

    def test_exponential_additivity(self, rng):
        s = random_hermitian(rng, 2)
        p = random_hermitian(rng, 5)
        evolution = CouplingEvolution(s, p)
        u1 = _columns(evolution, 0.3)
        u2 = _columns(evolution, 0.45)
        u12 = _columns(evolution, 0.75)
        assert np.max(np.abs(u1 @ u2 - u12)) <= UNITARITY_DEFECT

    def test_single_factor_matches_dense_exponential(self, rng):
        h = random_hermitian(rng, 4)
        v = random_state(rng, 4)
        direct = single_factor_evolution(h, 0.7, v)
        eigvals, vecs = np.linalg.eigh(h.entries)
        dense = (vecs * np.exp(-1j * 0.7 * eigvals)) @ vecs.conj().T
        np.testing.assert_allclose(direct.amps, dense @ v.amps, atol=1e-12)

    def test_zero_eigenvalue_state_is_fixed(self):
        # S|in> = 0 means the interaction does nothing at all, at any g
        model = gaussian_pointer(1.0, 128)
        s = projector(spin_down_z())
        evolution = CouplingEvolution(s, translation_generator(model))
        joint = tensor_product(spin_up_z(), initial_state(model))
        for g in (0.1, 1.0, 10.0):
            moved = evolution.apply(g, joint)
            assert np.linalg.norm(moved.state.amps - joint.state.amps) <= 1e-13

    def test_first_order_residual_is_second_order(self):
        # log-log fit oracle: the distance to the O(g) expansion ~ g^2
        model = gaussian_pointer(1.0, 128)
        p = translation_generator(model)
        m = initial_state(model)
        s = pauli_z()
        evolution = CouplingEvolution(s, p)
        joint = tensor_product(spin_up_x(), m)
        gs = np.geomspace(1e-2, 1e-4, 9)
        residuals = []
        for g in gs:
            exact = evolution.apply(g, joint).state.amps
            expansion = first_order_state(spin_up_x(), m, s, p, g).state.amps
            residuals.append(np.linalg.norm(exact - expansion))
        order, _, _ = fit_order(gs, residuals)
        assert order == pytest.approx(2.0, abs=0.05)

    def test_smooth_merging_is_monotone(self, rng):
        s = random_hermitian(rng, 3)
        p = random_hermitian(rng, 4)
        evolution = CouplingEvolution(s, p)
        joint = tensor_product(random_state(rng, 3), random_state(rng, 4))
        gs = np.geomspace(1e-2, 1e-4, 9)
        distances = [
            np.linalg.norm(evolution.apply(g, joint).state.amps - joint.state.amps)
            for g in gs
        ]
        assert all(b <= a + 1e-15 for a, b in zip(distances, distances[1:]))
        assert np.linalg.norm(
            evolution.apply(0.0, joint).state.amps - joint.state.amps
        ) == 0.0

    def test_rejects_non_finite_coupling(self):
        joint = tensor_product(spin_up_z(), spin_up_x())
        with pytest.raises(ValueError, match="finite"):
            CouplingEvolution(pauli_z(), pauli_x()).apply(math.inf, joint)

    def test_schedule_in_dft_basis_matches_dense_apply(self, rng):
        model = gaussian_pointer(1.0, 64, half_width=8.0)
        s = random_hermitian(rng, 3)
        joint = tensor_product(random_state(rng, 3), initial_state(model))
        dense = CouplingEvolution(s, translation_generator(model))
        spectral = CouplingEvolution(s, pointer_spectrum(model).basis)
        schedule = (0.5, 0.05, 0.0)
        for g in schedule:
            amps = spectral.apply(g, joint).as_matrix()
            expected = dense.apply(g, joint).as_matrix()
            np.testing.assert_allclose(amps, expected, rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="finite"):
            spectral.apply(math.nan, joint)


class TestPostSelectedBranches:
    def test_matches_projected_evolution(self, rng):
        # any pointer eigenbasis: a dense 5-dim generator's, and the grid's DFT
        model = gaussian_pointer(1.0, 64, half_width=8.0)
        pointers = [
            (random_hermitian(rng, 5), random_state(rng, 5)),
            (pointer_spectrum(model).basis, initial_state(model)),
        ]
        pre, post = random_state(rng, 3), random_state(rng, 3)
        observables = [random_hermitian(rng, 3) for _ in range(3)]
        schedule = (0.7, 0.05, 1e-9, 0.0)
        for pointer, m in pointers:
            basis = pointer if isinstance(pointer, Eigenbasis) else Eigenbasis.of(pointer)
            branches = post_selected_branches(
                observables, (basis,), (schedule,), pre, post, m.amps[None]
            )
            assert branches.shape == (3, len(schedule), m.dim)
            joint = tensor_product(pre, m)
            for S, rows in zip(observables, branches):
                evolution = CouplingEvolution(S, pointer)
                evolved = [evolution.apply(g, joint).as_matrix() for g in schedule]
                expected = post.amps.conj() @ np.array(evolved)
                np.testing.assert_allclose(rows, expected, rtol=0, atol=1e-12)
            # g = 0 adds nothing to <out|in> m
            uncoupled = inner(post, pre) * m.amps
            assert all(np.array_equal(rows[-1], uncoupled) for rows in branches)

    def test_phase_blocks_change_no_bit(self, rng, monkeypatch):
        basis = pointer_spectrum(gaussian_pointer(1.0, 64, half_width=8.0)).basis
        args = ((basis,), [(0.3, 0.1, 0.02)], random_state(rng, 3), random_state(rng, 3))
        observables = [random_hermitian(rng, 3) for _ in range(2)]
        m = random_state(rng, 64).amps[None]
        whole = post_selected_branches(observables, *args, m)
        # two (observable, g) rows of 3 x 64 phase terms a block: 3 blocks
        monkeypatch.setattr(qcore, "_PHASE_BLOCK", 2 * 3 * 64)
        assert np.array_equal(post_selected_branches(observables, *args, m), whole)

    def test_checks_in_coupling_order(self):
        bases = (Eigenbasis.of(pauli_x()),)
        lower = LinearOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        args = (spin_up_z(), spin_up_x(), [spin_up_x().amps])
        with pytest.raises(NonHermitianOperatorError, match="system observable"):
            post_selected_branches([pauli_z(), lower], bases, [(math.inf,)], *args)
        with pytest.raises(ValueError, match="finite"):
            post_selected_branches([identity(3)], bases, [(0.1, math.nan)], *args)
        for observables, m in (([identity(3)], spin_up_x()), ([pauli_z()], basis_state(3, 0))):
            with pytest.raises(ValueError, match="dimensions do not match"):
                post_selected_branches(
                    observables, bases, [(0.1,)], spin_up_z(), spin_up_x(), [m.amps]
                )


class TestSeveralPointers:
    """One pass over pointers whose bases share their transforms."""

    def test_each_pointer_rows_are_its_one_pointer_call(self, rng, monkeypatch):
        # grid pointers of one size, with their own momenta and ready states
        models = [gaussian_pointer(spread, 128) for spread in (1.0, 2.5, 7.0)]
        spectra = [pointer_spectrum(model) for model in models]
        schedules = [(0.3, 0.1, 0.02, 0.0), (0.5,), (0.7, 1e-9)]
        pre, post = random_state(rng, 3), random_state(rng, 3)
        observables = [random_hermitian(rng, 3) for _ in range(2)]
        ready = np.array([s.ready for s in spectra])
        for block in (qcore._PHASE_BLOCK, 3 * 3 * 128):
            # one block, then blocks of three (observable, g) rows
            monkeypatch.setattr(qcore, "_PHASE_BLOCK", block)
            rows = post_selected_branches(
                observables, [s.basis for s in spectra], schedules, pre, post, ready
            )
            assert rows.shape == (2, 7, 128)
            start = 0
            for spectrum, schedule in zip(spectra, schedules):
                alone = post_selected_branches(
                    observables, [spectrum.basis], [schedule], pre, post, spectrum.ready[None]
                )
                stop = start + len(schedule)
                assert np.array_equal(_bits(rows[:, start:stop].view(float)), _bits(alone.view(float)))
                start = stop

    def test_bases_must_share_their_transforms(self, rng):
        grid = [pointer_spectrum(gaussian_pointer(1.0, n)).basis for n in (128, 256)]
        qubits = [pointer_spectrum(qubit_pointer(axis)).basis for axis in "xy"]
        assert grid[0].shares_transforms(pointer_spectrum(gaussian_pointer(3.0, 128)).basis)
        assert qubits[0].shares_transforms(pointer_spectrum(qubit_pointer("x")).basis)
        assert not _unmirrored(grid[0]).shares_transforms(grid[0])
        pre, post = spin_up_x(), spin_up_z()
        for bases in (grid, qubits, [grid[0], qubits[0]], []):
            ready = [random_state(rng, basis.dim).amps for basis in bases[:1]] * len(bases)
            with pytest.raises(ValueError, match="share their transforms"):
                post_selected_branches(
                    [pauli_z()], bases, [(0.1,)] * len(bases), pre, post, ready
                )

    def test_checks_pointer_by_pointer(self):
        bases = [pointer_spectrum(qubit_pointer("y")).basis] * 2
        ready = [spin_up_x().amps] * 2
        args = (spin_up_z(), spin_up_x())
        with pytest.raises(ValueError, match="finite"):
            post_selected_branches([pauli_z()], bases, [(0.1,), (math.nan,)], *args, ready)
        with pytest.raises(ValueError, match="dimensions do not match"):
            post_selected_branches(
                [pauli_z()], bases, [(0.1,), (0.2,)], *args, [[1.0, 0.0, 0.0]] * 2
            )
        with pytest.raises(ValueError, match="zip"):
            post_selected_branches([pauli_z()], bases, [(0.1,)], *args, ready)


def _bits(arr: np.ndarray) -> np.ndarray:
    """The bit patterns of a float array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(arr).view(np.uint64)


def _unmirrored(basis: Eigenbasis) -> Eigenbasis:
    """The same basis, evaluating every phase."""
    full = type(basis)(basis.eigvals)
    full.mirrored = False
    return full


class TestPhaseKernel:
    SIZES = (64, 128, 256, 512, 1024, 2048, 4096)

    @pytest.mark.parametrize("n", SIZES)
    def test_grid_basis_mirrors_its_eigenvalues_bitwise(self, n):
        basis = pointer_spectrum(gaussian_pointer(1.3, n, half_width=10.4)).basis
        half = n // 2
        assert basis.mirrored
        mirror = -basis.eigvals[half - 1 : 0 : -1]
        assert np.array_equal(_bits(basis.eigvals[half + 1 :]), _bits(mirror))

    @pytest.mark.parametrize("n", SIZES)
    def test_half_spectrum_is_the_full_evaluation_bit_for_bit(self, rng, n):
        basis = pointer_spectrum(gaussian_pointer(0.7, n, half_width=5.6)).basis
        full = _unmirrored(basis)
        schedule = (0.04, 0.01, 1e-7, 0.0, -0.02)
        for count, dim in ((1, 2), (2, 9), (3, 16)):
            observables = [random_hermitian(rng, dim) for _ in range(count)]
            rates = np.linalg.eigvalsh([op.entries for op in observables])
            rates = (rates[:, None, :] * np.array(schedule)[:, None]).reshape(-1, dim, 1)
            for half, whole in zip(basis.phase_change(rates), full.phase_change(rates)):
                assert half.shape == whole.shape == (count * len(schedule), dim, n)
                assert np.array_equal(_bits(half), _bits(whole))
            args = ([schedule], random_state(rng, dim), random_state(rng, dim))
            m = random_state(rng, n).amps[None]
            branches = post_selected_branches(observables, [basis], *args, m)
            expected = post_selected_branches(observables, [full], *args, m)
            assert np.array_equal(_bits(branches.view(float)), _bits(expected.view(float)))

    def test_only_a_basis_that_says_so_takes_the_half_path(self, rng, monkeypatch):
        grid = pointer_spectrum(gaussian_pointer(1.0, 64, half_width=8.0)).basis
        # a dense basis with the grid's exactly mirrored eigenvalues, the
        # qubit's, and a dense generator's
        dft = np.fft.ifft(np.eye(64), axis=0, norm="ortho")
        dense = [
            Eigenbasis(grid.eigvals, dft),
            pointer_spectrum(qubit_pointer("y")).basis,
            Eigenbasis.of(random_hermitian(rng, 5)),
        ]
        widths = []
        kernel = qcore.phase_change

        def recorded(angles):
            widths.append(angles.shape[-1])
            return kernel(angles)

        monkeypatch.setattr(qcore, "phase_change", recorded)
        for basis in (grid, *dense):
            m = random_state(rng, basis.dim).amps[None]
            post_selected_branches(
                [pauli_z()], [basis], [(0.1, 0.05)], spin_up_x(), spin_up_z(), m
            )
        assert [not basis.mirrored for basis in dense] == [True, True, True]
        assert widths == [33, 64, 2, 5]

    def test_split_rows_sum_to_the_whole_row(self, rng, monkeypatch):
        basis = pointer_spectrum(gaussian_pointer(1.0, 64, half_width=8.0)).basis
        args = ([basis], [(0.3, 0.1)], random_state(rng, 8), random_state(rng, 8))
        observables = [random_hermitian(rng, 8) for _ in range(2)]
        m = random_state(rng, 64).amps[None]
        whole = post_selected_branches(observables, *args, m)
        # 3 of a row's 8 system eigenvalues a block: three parts a row
        monkeypatch.setattr(qcore, "_PHASE_BLOCK", 3 * 64)
        split = post_selected_branches(observables, *args, m)
        np.testing.assert_allclose(split, whole, rtol=0, atol=1e-15 * np.max(np.abs(whole)))

    def test_a_row_beyond_the_phase_block_holds_no_more(self, rng):
        # one row of dim x n = 512 x 4096 terms, twice _PHASE_BLOCK
        basis = pointer_spectrum(gaussian_pointer(1.0, 4096)).basis
        args = ([(0.02, 0.01)], random_state(rng, 512), random_state(rng, 512))
        observable, m = random_hermitian(rng, 512), random_state(rng, 4096).amps[None]
        tracemalloc.start()
        try:
            branches = post_selected_branches([observable], [basis], *args, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert branches.shape == (1, 2, 4096)
        # five real arrays of _PHASE_BLOCK terms, 8 MiB each
        assert peak < 5 * 8 * qcore._PHASE_BLOCK


class TestFirstOrderState:
    def test_zero_coupling(self):
        model = gaussian_pointer(1.0, 128)
        m = initial_state(model)
        p = translation_generator(model)
        out = first_order_state(spin_up_x(), m, pauli_z(), p, 0.0)
        np.testing.assert_array_equal(
            out.state.amps, tensor_product(spin_up_x(), m).state.amps
        )

    def test_zero_eigenvalue_state(self):
        model = gaussian_pointer(1.0, 128)
        m = initial_state(model)
        p = translation_generator(model)
        s = projector(spin_down_z())
        out = first_order_state(spin_up_z(), m, s, p, 3.0)
        np.testing.assert_array_equal(
            out.state.amps, tensor_product(spin_up_z(), m).state.amps
        )

    def test_overlap_with_ready_state(self, rng):
        # <Psi0|Psi1> = 1 - i g <S> <P> follows directly from the two terms
        for _ in range(5):
            pre = random_state(rng, 3)
            m = random_state(rng, 4)
            s = random_hermitian(rng, 3)
            p = random_hermitian(rng, 4)
            g = rng.uniform(0.01, 0.5)
            joint0 = tensor_product(pre, m).state
            expanded = first_order_state(pre, m, s, p, g).state
            expected = 1.0 - 1j * g * (
                np.vdot(pre.amps, s.entries @ pre.amps)
                * np.vdot(m.amps, p.entries @ m.amps)
            )
            assert inner(joint0, expanded) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        model = gaussian_pointer(1.0, 128)
        with pytest.raises(ValueError):
            first_order_state(
                basis_state(3, 0),
                initial_state(model),
                pauli_z(),
                translation_generator(model),
                0.1,
            )
