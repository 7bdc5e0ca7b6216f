"""Core linear algebra: states, operators, tensor products, couplings."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_hermitian, random_state, single_factor_evolution
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
from tsvflab.qcore import STRUCTURAL_TOL

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
