"""Tests for the SDE/ODE integrators, drift/diffusion terms and records."""

import numpy as np
import pytest

from spinstab.controller import feedback_gain, new_controller
from spinstab.dynamics import (
    SdeStepConfig,
    em_step,
    integrate_ensemble,
    simulate_batch,
    simulate_trajectory,
    sme_diffusion,
    sme_drift,
)
from spinstab.quantum import (
    NumericalFailureError,
    eigenstate,
    lyapunov_Q,
    make_spin_operators,
    maximally_mixed,
    random_density,
)


def naive_drift(m, u, ops):
    """Commutator-by-matmul oracle for the drift."""
    fy, fz = ops.f_y, ops.f_z
    inner = fz @ m - m @ fz
    return -1j * u * (fy @ m - m @ fy) - 0.5 * (fz @ inner - inner @ fz)


def naive_diffusion(m, ops, eta):
    """Matmul oracle for the measurement back-action."""
    fz = ops.f_z
    return np.sqrt(eta) * (fz @ m + m @ fz - 2 * np.trace(fz @ m).real * m)


class TestDriftDiffusionTerms:
    def setup_method(self):
        self.rng = np.random.default_rng(100)

    @pytest.mark.parametrize("J", [0.5, 1, 2.5, 10])
    def test_drift_matches_matmul_oracle(self, J):
        ops = make_spin_operators(J)
        for _ in range(20):
            m = np.asarray(random_density(ops.dim, self.rng))
            u = self.rng.uniform(-2, 2)
            np.testing.assert_allclose(sme_drift(m, u, ops),
                                       naive_drift(m, u, ops), atol=1e-13)

    @pytest.mark.parametrize("J", [0.5, 1, 2.5, 10])
    def test_diffusion_matches_matmul_oracle(self, J):
        ops = make_spin_operators(J)
        for _ in range(20):
            m = np.asarray(random_density(ops.dim, self.rng))
            eta = self.rng.uniform(0.1, 1.0)
            np.testing.assert_allclose(sme_diffusion(m, ops, eta),
                                       naive_diffusion(m, ops, eta),
                                       atol=1e-13)

    def test_drift_zero_at_eigenstates_without_input(self):
        ops = make_spin_operators(1.5)
        for k in range(1, ops.dim + 1):
            d = sme_drift(eigenstate(ops, k), 0.0, ops)
            assert np.abs(d).max() < 1e-14

    def test_diffusion_zero_at_eigenstates(self):
        for J in (0.5, 1, 10):
            ops = make_spin_operators(J)
            for k in range(1, ops.dim + 1):
                d = sme_diffusion(eigenstate(ops, k), ops, 1.0)
                assert np.abs(d).max() < 1e-14

    def test_drift_zero_at_maximally_mixed(self):
        ops = make_spin_operators(1)
        for u in (0.0, 1.0, -2.0):
            assert np.abs(sme_drift(maximally_mixed(3), u, ops)).max() < 1e-14

    def test_diffusion_hand_case_two_level(self):
        # at I/2 with eta=1: F_z (I/2) + (I/2) F_z - 0 = F_z since Tr F_z = 0
        ops = make_spin_operators(0.5)
        np.testing.assert_allclose(sme_diffusion(maximally_mixed(2), ops, 1.0),
                                   ops.f_z, atol=1e-15)

    def test_traceless_and_hermitian(self):
        ops = make_spin_operators(1)
        for _ in range(50):
            m = np.asarray(random_density(3, self.rng))
            u = self.rng.uniform(-2, 2)
            for term in (sme_drift(m, u, ops), sme_diffusion(m, ops, 1.0)):
                assert abs(np.trace(term)) < 1e-12
                np.testing.assert_allclose(term, term.conj().T, atol=1e-13)

    def test_batched_matches_scalar(self):
        ops = make_spin_operators(1)
        batch = np.stack([np.asarray(random_density(3, self.rng))
                          for _ in range(6)])
        u = self.rng.uniform(-1, 1, size=6)
        drifts = sme_drift(batch, u, ops)
        diffs = sme_diffusion(batch, ops, 0.7)
        for j in range(6):
            np.testing.assert_allclose(drifts[j], sme_drift(batch[j], u[j], ops),
                                       atol=1e-15)
            np.testing.assert_allclose(diffs[j], sme_diffusion(batch[j], ops, 0.7),
                                       atol=1e-15)

    @pytest.mark.parametrize("J", [0.5, 1, 2.5, 10])
    def test_lyapunov_drift_is_minus_u_squared_in_feedback(self, J):
        """The paper's Lyapunov identity: with the feedback input
        u = -(i [F_y, rho])_ff, the drift of V = 1 - rho_ff is exactly -u^2,
        because the double commutator has a zero diagonal."""
        ops = make_spin_operators(J)
        for f in range(1, ops.dim + 1):
            for _ in range(5):
                m = np.asarray(random_density(ops.dim, self.rng))
                u = feedback_gain(m, f, ops)
                dv = -sme_drift(m, u, ops)[f - 1, f - 1].real
                assert abs(dv - (-u**2)) <= 1e-14


class TestEmStep:
    def setup_method(self):
        self.ops = make_spin_operators(1)
        self.cfg = SdeStepConfig(dt=1e-3, eta=1.0)

    def test_target_is_exact_fixed_point(self):
        rho = eigenstate(self.ops, 3)
        out = em_step(rho, 0.0, self.cfg, dw=0.03, ops=self.ops)
        np.testing.assert_array_equal(np.asarray(out), np.asarray(rho))

    def test_non_finite_increment_raises(self):
        with pytest.raises(NumericalFailureError):
            em_step(eigenstate(self.ops, 1), 1.0, self.cfg, dw=np.nan,
                    ops=self.ops)

    def test_batched_loop_raises_with_failure_time(self):
        rho0 = np.full((3, 3), np.nan, dtype=complex)
        with pytest.raises(NumericalFailureError) as exc:
            simulate_trajectory(rho0, 1.0, 0.01, self.cfg, seed=0, f=3,
                                ops=self.ops)
        assert exc.value.time == pytest.approx(self.cfg.dt)

    def test_invariants_after_random_steps(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            rho = random_density(3, rng)
            u = rng.uniform(-2, 2)
            dw = rng.normal(0, np.sqrt(self.cfg.dt))
            out = em_step(rho, u, self.cfg, dw, self.ops)
            mat = np.asarray(out)
            assert np.linalg.norm(mat - mat.conj().T) <= 1e-9
            assert abs(np.trace(mat) - 1) <= 1e-9
            assert np.linalg.eigvalsh(mat).min() >= -1e-9
            assert 1 / 3 - 1e-9 <= out.purity() <= 1 + 1e-9

    def test_one_step_refinement_error_scales_linearly(self):
        """A dt step vs two dt/2 substeps on the same Brownian increments:
        the mean gap shrinks ~ proportionally to dt."""
        rng = np.random.default_rng(23)
        ops = self.ops

        def mean_defect(dt, n=400):
            cfg_full = SdeStepConfig(dt=dt, eta=1.0)
            cfg_half = SdeStepConfig(dt=dt / 2, eta=1.0)
            gaps = []
            for _ in range(n):
                rho = random_density(3, rng)
                u = rng.uniform(-2, 2)
                dw1 = rng.normal(0, np.sqrt(dt / 2))
                dw2 = rng.normal(0, np.sqrt(dt / 2))
                full = em_step(rho, u, cfg_full, dw1 + dw2, ops)
                half = em_step(em_step(rho, u, cfg_half, dw1, ops),
                               u, cfg_half, dw2, ops)
                gaps.append(np.linalg.norm(np.asarray(full) - np.asarray(half)))
            return np.mean(gaps)

        d1 = mean_defect(2e-3)
        d2 = mean_defect(1e-3)
        assert 1.5 < d1 / d2 < 2.7

    def test_trace_preserved_exactly_before_projection(self):
        # drift and diffusion are traceless, so the raw Euler step keeps
        # trace 1 and the projection can never lose the whole spectrum
        rng = np.random.default_rng(29)
        for _ in range(50):
            m = np.asarray(random_density(3, rng))
            incr = (sme_drift(m, rng.uniform(-2, 2), self.ops) * self.cfg.dt
                    + sme_diffusion(m, self.ops, 1.0) * rng.normal(0, 1.0))
            assert abs(np.trace(m + incr) - 1.0) < 1e-12


class TestSimulateTrajectory:
    def setup_method(self):
        self.ops = make_spin_operators(1)
        self.cfg = SdeStepConfig(dt=1e-3, eta=1.0)

    def test_stationary_at_target(self):
        ctrl = new_controller(0.1, 3, self.ops, eigenstate(self.ops, 3))
        rec = simulate_trajectory(eigenstate(self.ops, 3), ctrl, 1.0, self.cfg,
                                  seed=5)
        assert np.all(rec.V == 0.0)
        assert np.all(rec.u == 0.0)
        assert rec.converged

    def test_same_seed_bit_identical(self):
        ctrl = new_controller(0.1, 3, self.ops, eigenstate(self.ops, 1))
        a = simulate_trajectory(eigenstate(self.ops, 1), ctrl, 2.0, self.cfg,
                                seed=42)
        b = simulate_trajectory(eigenstate(self.ops, 1), ctrl, 2.0, self.cfg,
                                seed=42)
        np.testing.assert_array_equal(a.V, b.V)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.purity, b.purity)

    def test_different_streams_differ(self):
        ctrl = new_controller(0.1, 3, self.ops, eigenstate(self.ops, 1))
        a = simulate_trajectory(eigenstate(self.ops, 1), ctrl, 1.0, self.cfg,
                                seed=42, stream=0)
        b = simulate_trajectory(eigenstate(self.ops, 1), ctrl, 1.0, self.cfg,
                                seed=42, stream=1)
        assert not np.array_equal(a.V, b.V)

    def test_record_shape_and_invariants(self):
        ctrl = new_controller(0.1, 3, self.ops, eigenstate(self.ops, 1))
        rec = simulate_trajectory(eigenstate(self.ops, 1), ctrl, 1.0, self.cfg,
                                  seed=3, record_stride=7)
        assert np.all(np.diff(rec.times) > 0)
        assert rec.times[0] == 0.0
        assert rec.times[-1] == pytest.approx(1.0)
        assert np.all((rec.V >= 0) & (rec.V <= 1))
        assert np.all((rec.purity >= 1 / 3 - 1e-9) & (rec.purity <= 1 + 1e-9))
        assert set(rec.modes) <= {"feedback", "constant"}

    def test_batch_equals_singles(self):
        ctrl = new_controller(0.1, 3, self.ops, eigenstate(self.ops, 1))
        batch = simulate_batch(eigenstate(self.ops, 1), ctrl, 1.0, self.cfg,
                               11, [0, 1, 2])
        for stream in (0, 1, 2):
            solo = simulate_trajectory(eigenstate(self.ops, 1), ctrl, 1.0,
                                       self.cfg, seed=11, stream=stream)
            np.testing.assert_array_equal(batch[stream].V, solo.V)
            np.testing.assert_array_equal(batch[stream].u, solo.u)

    def test_fixed_input_run_records_constant_mode(self):
        rec = simulate_trajectory(eigenstate(self.ops, 1), 1.0, 0.5, self.cfg,
                                  seed=1, f=3, ops=self.ops)
        assert np.all(rec.u == 1.0)
        assert set(rec.modes) == {"constant"}

    def test_fixed_input_requires_target_and_ops(self):
        with pytest.raises(ValueError, match="fixed-input"):
            simulate_trajectory(eigenstate(self.ops, 1), 1.0, 0.5, self.cfg,
                                seed=1)

    def test_empty_stream_list_rejected(self):
        ctrl = new_controller(0.1, 3, self.ops, eigenstate(self.ops, 1))
        with pytest.raises(ValueError, match="M must be >= 1"):
            simulate_batch(eigenstate(self.ops, 1), ctrl, 0.05, self.cfg,
                           base_seed=0, streams=[])

    def test_purity_stays_near_one_with_full_efficiency(self):
        """Perfect detection keeps pure states pure up to O(dt) defects."""
        rho0 = eigenstate(self.ops, 1)

        def max_defect(dt):
            cfg = SdeStepConfig(dt=dt, eta=1.0)
            worst = 0.0
            for stream in range(4):
                rec = simulate_trajectory(rho0, 1.0, 2.0, cfg, seed=31,
                                          stream=stream, f=3, ops=self.ops)
                worst = max(worst, float((1.0 - rec.purity).max()))
            return worst

        d_coarse = max_defect(2e-3)
        d_fine = max_defect(1e-3)
        assert d_coarse < 40 * 2e-3
        assert d_coarse / d_fine > 1.3


class TestEnsembleOde:
    def setup_method(self):
        self.ops = make_spin_operators(1)

    def test_mixed_state_is_equilibrium(self):
        assert np.abs(sme_drift(maximally_mixed(3), 1.0, self.ops)).max() \
            < 1e-14

    def test_diagonal_nonequilibrium_grows_offdiagonals(self):
        rho = np.diag([0.6, 0.3, 0.1]).astype(complex)
        out = sme_drift(rho, 1.0, self.ops)
        off = out - np.diag(np.diag(out))
        assert np.abs(off).max() > 1e-3

    def test_constant_at_mixed_state(self):
        traj = integrate_ensemble(maximally_mixed(3), 1.0, 1.0, 1e-2, self.ops)
        for st in traj.states:
            np.testing.assert_allclose(np.asarray(st), np.eye(3) / 3,
                                       atol=1e-12)

    def test_converges_to_mixed_state(self):
        traj = integrate_ensemble(eigenstate(self.ops, 1), 1.0, 80.0, 1e-2,
                                  self.ops)
        gap = np.linalg.norm(np.asarray(traj.states[-1]) - np.eye(3) / 3)
        assert gap < 1e-6

    def test_q_monotone_nonincreasing(self):
        traj = integrate_ensemble(eigenstate(self.ops, 1), 1.0, 10.0, 1e-2,
                                  self.ops)
        q = np.array([lyapunov_Q(st) for st in traj.states])
        assert np.all(np.diff(q) <= 1e-12)

    def test_q_derivative_identity(self):
        """dQ/dt equals -|[F_z, rho]|_F^2 along the flow (5-point stencil)."""
        dt = 5e-3
        traj = integrate_ensemble(eigenstate(self.ops, 1), 1.0, 5.0, dt,
                                  self.ops)
        q = np.array([lyapunov_Q(st) for st in traj.states])
        fz = self.ops.f_z
        exact = np.array([
            -np.linalg.norm(fz @ np.asarray(st) - np.asarray(st) @ fz) ** 2
            for st in traj.states])
        fd = (q[:-4] - 8 * q[1:-3] + 8 * q[3:-1] - q[4:]) / (12 * dt)
        inner = exact[2:-2]
        mask = np.abs(inner) >= 1e-2
        assert mask.sum() > 100
        rel = np.abs(fd[mask] - inner[mask]) / np.abs(inner[mask])
        assert rel.max() < 1e-6

    def test_time_dependent_smooth_input(self):
        traj = integrate_ensemble(eigenstate(self.ops, 1),
                                  lambda t: 1.0 + 0.5 * np.sin(t), 5.0, 1e-2,
                                  self.ops)
        assert len(traj.states) == len(traj.times) == 501

    def test_bad_steps_rejected(self):
        with pytest.raises(ValueError):
            integrate_ensemble(maximally_mixed(3), 1.0, 1.0, -1e-2, self.ops)
        with pytest.raises(ValueError):
            integrate_ensemble(maximally_mixed(3), 1.0, 0.0, 1e-2, self.ops)


class TestStepConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SdeStepConfig(dt=0.0)
        with pytest.raises(ValueError):
            SdeStepConfig(eta=0.0)
        with pytest.raises(ValueError):
            SdeStepConfig(eta=1.1)
