"""Tests for the state/operator domain types and their operations."""

import numpy as np
import pytest

from spinstab.quantum import (
    NumericalFailureError,
    QuantumState,
    distance_V,
    eigenstate,
    lyapunov_Q,
    make_spin_operators,
    maximally_mixed,
    project_to_state_space,
    random_density,
)

J_GRID = [0.5 * k for k in range(1, 21)]  # 1/2, 1, ..., 10


class TestSpinOperators:
    def test_spin_half_matches_hand_matrices(self):
        ops = make_spin_operators(0.5)
        assert ops.dim == 2
        np.testing.assert_allclose(ops.f_z, np.diag([-0.5, 0.5]))
        np.testing.assert_allclose(ops.f_y, np.array([[0, 0.5j], [-0.5j, 0]]))

    def test_spin_one_coefficients(self):
        # c_k = sqrt((N-k) k) with N = 3: c_1 = c_2 = sqrt(2)
        ops = make_spin_operators(1)
        sub = np.diag(2j * ops.f_y, k=-1)
        np.testing.assert_allclose(sub, [np.sqrt(2), np.sqrt(2)])
        np.testing.assert_allclose(np.diag(ops.f_z), [-1.0, 0.0, 1.0])

    def test_j_ten_dimensions(self):
        ops = make_spin_operators(10)
        assert ops.dim == 21
        np.testing.assert_allclose(ops.lambdas, np.arange(-10.0, 11.0))

    @pytest.mark.parametrize("J", J_GRID)
    def test_operators_hermitian_and_fz_nondegenerate(self, J):
        ops = make_spin_operators(J)
        np.testing.assert_allclose(ops.f_y, ops.f_y.conj().T, atol=1e-15)
        np.testing.assert_allclose(ops.f_z, ops.f_z.conj().T, atol=1e-15)
        assert np.all(np.diff(np.diag(ops.f_z).real) > 0)

    @pytest.mark.parametrize("J", J_GRID)
    def test_subdiagonal_magnitudes(self, J):
        ops = make_spin_operators(J)
        n = ops.dim
        k = np.arange(1, n)
        np.testing.assert_allclose(np.diag(2j * ops.f_y, k=-1),
                                   np.sqrt((n - k) * k), atol=1e-13)

    @pytest.mark.parametrize("bad", [0, -1, 0.3, 1.25, -0.5])
    def test_invalid_momentum_rejected(self, bad):
        with pytest.raises(ValueError):
            make_spin_operators(bad)


class TestEigenstate:
    def test_basis_projector(self):
        ops = make_spin_operators(1)
        np.testing.assert_array_equal(np.asarray(eigenstate(ops, 1)),
                                      np.diag([1.0, 0.0, 0.0]))

    def test_middle_target_of_big_system(self):
        ops = make_spin_operators(10)
        rho = eigenstate(ops, 11)
        mat = np.asarray(rho)
        assert mat[10, 10] == 1.0
        assert np.count_nonzero(mat) == 1

    @pytest.mark.parametrize("J", [0.5, 1, 2.5])
    def test_unit_trace_for_all_indices(self, J):
        ops = make_spin_operators(J)
        for k in range(1, ops.dim + 1):
            assert np.trace(np.asarray(eigenstate(ops, k))) == 1.0

    def test_out_of_range_index(self):
        ops = make_spin_operators(1)
        for k in (0, 4, -1):
            with pytest.raises(ValueError):
                eigenstate(ops, k)


class TestMaximallyMixed:
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_uniform_diagonal(self, n):
        np.testing.assert_array_equal(np.asarray(maximally_mixed(n)),
                                      np.eye(n) / n)

    def test_q_vanishes(self):
        for n in (2, 3, 5, 21):
            assert lyapunov_Q(maximally_mixed(n)) == pytest.approx(0.0, abs=1e-15)

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            maximally_mixed(1)


class TestDistance:
    def test_zero_at_target(self):
        ops = make_spin_operators(1)
        assert distance_V(eigenstate(ops, 2), 2) == 0.0

    def test_diagonal_readoff(self):
        rho = QuantumState(np.diag([0.3, 0.7]).astype(complex))
        assert distance_V(rho, 2) == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_mixed_state_value(self, n):
        for f in range(1, n + 1):
            assert distance_V(maximally_mixed(n), f) == pytest.approx(1 - 1 / n)

    def test_range_over_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = rng.integers(2, 8)
            rho = random_density(n, rng)
            f = int(rng.integers(1, n + 1))
            assert 0.0 <= distance_V(rho, f) <= 1.0

    def test_bad_index(self):
        with pytest.raises(ValueError):
            distance_V(maximally_mixed(2), 3)


class TestLyapunovQ:
    def test_pure_state_two_level(self):
        ops = make_spin_operators(0.5)
        assert lyapunov_Q(eigenstate(ops, 1)) == pytest.approx(0.5)

    def test_partial_mixture_against_bruteforce(self):
        # direct arithmetic: Tr(rho^2) - 1/3 = 0.5 - 1/3 = 1/6
        mat = np.diag([0.5, 0.5, 0.0]).astype(complex)
        brute = np.trace(mat @ mat).real - 1.0 / 3.0
        assert brute == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert lyapunov_Q(QuantumState(mat)) == pytest.approx(brute, abs=1e-14)

    def test_nonnegative_and_zero_only_at_mixed(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            rho = random_density(n, rng)
            q = lyapunov_Q(rho)
            brute = np.trace(np.asarray(rho) @ np.asarray(rho)).real - 1 / n
            assert q >= 0.0
            assert q == pytest.approx(brute, abs=1e-12)
            if q < 1e-12:
                np.testing.assert_allclose(np.asarray(rho), np.eye(n) / n,
                                           atol=1e-5)


class TestProjection:
    def test_valid_state_is_fixed_point(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = random_density(4, rng)
            out = project_to_state_space(np.asarray(rho))
            np.testing.assert_allclose(np.asarray(out), np.asarray(rho),
                                       atol=1e-13)

    def test_clip_and_renormalize(self):
        out = project_to_state_space(np.diag([1.1, -0.1]))
        np.testing.assert_allclose(np.asarray(out), np.diag([1.0, 0.0]),
                                   atol=1e-14)

    def test_antihermitian_part_removed(self):
        rng = np.random.default_rng(4)
        rho = np.asarray(random_density(3, rng))
        k = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        k = k - k.conj().T  # anti-Hermitian
        out = np.asarray(project_to_state_space(rho + 1e-6 * k))
        np.testing.assert_allclose(out, out.conj().T, atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            raw = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            raw = raw + raw.conj().T  # Hermitian but wildly invalid
            once = np.asarray(project_to_state_space(raw))
            twice = np.asarray(project_to_state_space(once))
            np.testing.assert_allclose(twice, once, atol=1e-13)

    def test_all_invariants_after_projection(self):
        rng = np.random.default_rng(13)
        tol = 1e-9
        for _ in range(100):
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            out = np.asarray(project_to_state_space(raw + raw.conj().T))
            assert np.linalg.norm(out - out.conj().T) <= tol
            assert abs(np.trace(out) - 1) <= tol
            assert np.linalg.eigvalsh(out).min() >= -tol

    def test_total_loss_raises(self):
        with pytest.raises(NumericalFailureError):
            project_to_state_space(np.diag([-1.0, -2.0]))

    def test_non_finite_raises(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(NumericalFailureError, match="non-finite"):
                project_to_state_space(np.diag([bad, 0.5]))


class TestQuantumStateValidation:
    def test_accepts_valid(self):
        rng = np.random.default_rng(2)
        st = random_density(3, rng)
        QuantumState(np.asarray(st))  # revalidate explicitly

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            QuantumState(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            QuantumState(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="PSD"):
            QuantumState(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                QuantumState(np.array([[bad, 0.0], [0.0, 0.5]]))

    def test_immutability(self):
        st = maximally_mixed(2)
        with pytest.raises(ValueError):
            np.asarray(st)[0, 0] = 5.0

    def test_purity(self):
        assert maximally_mixed(4).purity() == pytest.approx(0.25)
