"""Measuring-device models: Gaussian grid pointer and qubit pointer."""

import numpy as np
import pytest

from conftest import position_operator, single_factor_evolution, variance
from tsvflab.pointer import pointer_spectrum
from tsvflab import (
    FieldError,
    LinearOperator,
    NonHermitianOperatorError,
    PointerModel,
    StateVector,
    gaussian_pointer,
    grid_coordinates,
    initial_state,
    moments,
    pauli_x,
    pauli_y,
    pauli_z,
    qubit_pointer,
    translation_generator,
)


class TestModelValidity:
    def test_spread_must_be_positive(self):
        with pytest.raises(ValueError, match="spread"):
            gaussian_pointer(0.0)

    def test_n_points_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            gaussian_pointer(1.0, 100)
        with pytest.raises(ValueError, match="power of two"):
            gaussian_pointer(1.0, 32)

    def test_n_points_must_be_an_integer(self):
        # a float n_points failed in the power-of-two test with a TypeError
        for n in (64.0, 128.5, "64"):
            with pytest.raises(FieldError, match="power of two between 64 and 4096") as err:
                PointerModel("gaussian_grid", spread=1.0, n_points=n, half_width=12.0)
            assert err.value.path == ("n_points",)
        model = PointerModel("gaussian_grid", spread=1.0, n_points=np.int64(64), half_width=8.0)
        assert model.dim == 64

    def test_wavepacket_must_be_resolved(self):
        # spacing 2*64/64 = 2 > spread/4
        with pytest.raises(ValueError, match="resolve"):
            PointerModel("gaussian_grid", spread=1.0, n_points=64, half_width=64.0)

    def test_half_width_floor(self):
        with pytest.raises(ValueError, match="half_width"):
            PointerModel("gaussian_grid", spread=2.0, n_points=256, half_width=10.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            PointerModel("fock")

    def test_qubit_axis(self):
        with pytest.raises(ValueError, match="axis"):
            qubit_pointer("w")

    def test_default_boundary_amplitude_negligible(self):
        ready = initial_state(gaussian_pointer(1.0))
        assert abs(ready.amps[0]) < 1e-12


class TestGaussianReadyState:
    def test_normalized(self):
        for spread in (0.5, 1.0, 2.0, 8.0):
            assert abs(initial_state(gaussian_pointer(spread)).norm() - 1.0) <= 1e-12

    def test_centered(self):
        model = gaussian_pointer(1.5)
        ready = initial_state(model)
        assert abs(moments(ready, position_operator(model))) <= 1e-10
        assert abs(moments(ready, translation_generator(model))) <= 1e-10

    def test_position_second_moment_quadrature_oracle(self):
        # independent quadrature: sum q^2 |psi(q)|^2 h over a hand-built grid
        model = gaussian_pointer(1.0, 256, 16.0)
        h = 2 * 16.0 / 256
        q = -16.0 + h * np.arange(256)
        density = np.exp(-(q**2) / 2.0)
        density /= density.sum()
        oracle = float((q**2 * density).sum())
        ready = initial_state(model)
        q_sq = LinearOperator(np.diag(q**2), hermitian=True)
        assert moments(ready, q_sq) == pytest.approx(oracle, abs=1e-12)
        assert moments(ready, q_sq) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("spread", [0.5, 1.0, 2.0, 4.0])
    def test_moment_invariants(self, spread):
        model = gaussian_pointer(spread)
        ready = initial_state(model)
        q = position_operator(model)
        p = translation_generator(model)
        assert variance(ready, q) == pytest.approx(spread**2, rel=1e-4)
        assert variance(ready, p) == pytest.approx(1.0 / (4 * spread**2), rel=1e-4)


class TestGridOperators:
    def test_translation_generator_hermitian(self):
        p = translation_generator(gaussian_pointer(1.0))
        assert np.max(np.abs(p.entries - p.entries.conj().T)) <= 1e-10

    def test_canonical_commutator_on_interior(self):
        # [Q, P] |m> = i |m> away from the grid edges (finite-difference-free check)
        model = gaussian_pointer(1.0, 256, 16.0)
        ready = initial_state(model)
        q = position_operator(model).entries
        p = translation_generator(model).entries
        residual = (q @ p - p @ q) @ ready.amps - 1j * ready.amps
        interior = np.abs(grid_coordinates(model)) <= 8.0
        assert np.max(np.abs(residual[interior])) <= 1e-6

    def test_translation_moves_the_peak(self):
        model = gaussian_pointer(1.0, 256, 16.0)
        ready = initial_state(model)
        p = translation_generator(model)
        g = 0.75
        shifted = single_factor_evolution(p, g, ready)
        peak = grid_coordinates(model)[int(np.argmax(np.abs(shifted.amps)))]
        assert abs(peak - g) <= model.grid_spacing

    def test_translated_mean_position(self):
        model = gaussian_pointer(2.0)
        ready = initial_state(model)
        p = translation_generator(model)
        g = 0.31
        shifted = single_factor_evolution(p, g, ready)
        assert moments(shifted, position_operator(model)) == pytest.approx(
            g, abs=model.grid_spacing
        )

    def test_translation_composition(self):
        # applying exp(-igP) k times equals exp(-ikgP) once
        model = gaussian_pointer(1.0, 128)
        p = translation_generator(model)
        state = initial_state(model)
        for _ in range(4):
            state = single_factor_evolution(p, 0.2, state)
        direct = single_factor_evolution(p, 0.8, initial_state(model))
        assert np.linalg.norm(state.amps - direct.amps) <= 1e-9


class TestQubitPointer:
    def test_generator_squares_to_identity(self):
        for axis in "xyz":
            g = translation_generator(qubit_pointer(axis))
            np.testing.assert_allclose(g.entries @ g.entries, np.eye(2), atol=1e-15)

    def test_default_roles(self):
        model = qubit_pointer()
        np.testing.assert_array_equal(
            translation_generator(model).entries, pauli_y().entries
        )
        np.testing.assert_array_equal(
            position_operator(model).entries, pauli_z().entries
        )

    def test_ready_state_is_plus_x(self):
        ready = initial_state(qubit_pointer())
        np.testing.assert_allclose(ready.amps, [1, 1] / np.sqrt(2), atol=1e-15)

    def test_ready_state_blind_to_generator_and_readout(self):
        for axis in "xyz":
            model = qubit_pointer(axis)
            ready = initial_state(model)
            assert abs(moments(ready, translation_generator(model))) <= 1e-12
            assert abs(moments(ready, position_operator(model))) <= 1e-12
            third = {"x": pauli_z, "y": pauli_x, "z": pauli_y}[axis]()
            assert moments(ready, third) == pytest.approx(1.0, abs=1e-12)

    def test_spectrum_is_shared_per_axis_and_read_only(self):
        for axis in "xyz":
            first, second = (pointer_spectrum(qubit_pointer(axis)) for _ in range(2))
            assert first.basis is second.basis and first.ready is second.ready
            eigvals, vecs = np.linalg.eigh(translation_generator(qubit_pointer(axis)).entries)
            np.testing.assert_array_equal(first.basis.eigvals, eigvals)
            np.testing.assert_array_equal(first.basis.from_eigen(np.eye(2)), vecs.T)
            np.testing.assert_array_equal(first.ready, initial_state(qubit_pointer(axis)).amps)
            for arr in (first.basis.eigvals, first.ready):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0


class TestMoments:
    def test_requires_hermitian(self):
        lower = LinearOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NonHermitianOperatorError):
            moments(StateVector(np.array([1.0, 0.0])), lower)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            moments(StateVector(np.zeros(2), normalized=False), pauli_z())

    def test_normalizes_conditional_branches(self):
        branch = StateVector(np.array([0.1, 0.0]), normalized=False)
        assert moments(branch, pauli_z()) == pytest.approx(1.0)

    def test_momentum_variance_finite_difference_oracle(self):
        # <P^2> = integral |psi'|^2 dq; the central-difference oracle itself
        # carries O(h^2) error, so it only brackets the spectral value loosely
        model = gaussian_pointer(1.0, 256, 16.0)
        ready = initial_state(model)
        h = model.grid_spacing
        derivative = np.gradient(ready.amps.real, h)
        oracle = float((derivative**2).sum())  # amps already include sqrt(h)
        p = translation_generator(model)
        p_sq = LinearOperator(p.entries @ p.entries)
        assert moments(ready, p_sq) == pytest.approx(oracle, rel=h**2)
        assert moments(ready, p_sq) == pytest.approx(0.25, abs=1e-4)
