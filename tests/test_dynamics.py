"""Tests for the SDE/ODE integrators, drift/diffusion terms and records."""

import sys
from unittest import mock

import numpy as np
import pytest

from helpers import random_density, rk4_step
from spinstab import dynamics
from spinstab.controller import ConstantInput, feedback_gain, new_controller
from spinstab.dynamics import (
    SdeStepConfig,
    _euler_step,
    integrate_ensemble,
    simulate_batch,
    sme_diffusion,
    sme_drift,
)
from spinstab.montecarlo import estimate_exit_time, run_ensemble
from spinstab.quantum import (
    NumericalFailureError,
    eigenstate,
    lyapunov_Q,
    make_spin_operators,
    maximally_mixed,
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
    """The Euler-Maruyama step kernel ``_euler_step``, on complex states."""

    def setup_method(self):
        self.ops = make_spin_operators(1)
        self.cfg = SdeStepConfig(dt=1e-3, eta=1.0)

    def test_target_is_exact_fixed_point(self):
        rho = np.asarray(eigenstate(self.ops, 3))
        out = _euler_step(rho, 0.0, 0.03, self.cfg, self.ops)
        np.testing.assert_array_equal(out, rho)

    def test_non_finite_increment_raises(self):
        with pytest.raises(NumericalFailureError):
            _euler_step(np.asarray(eigenstate(self.ops, 1)), 1.0, np.nan,
                        self.cfg, self.ops)

    def test_batched_loop_raises_with_failure_time(self):
        # A valid pure state, a step inside Euler's stability bound (ratio
        # 0.2 at N = 21) and a drive so large that the first step
        # overflows: the loop stops at that step's time.
        cfg = SdeStepConfig(dt=1e-3)
        ops10 = make_spin_operators(10)
        with pytest.raises(NumericalFailureError) as exc:
            simulate_batch(eigenstate(ops10, 11),
                           ConstantInput(1e308, 11, ops10), 0.003, cfg, 0, [0])
        assert exc.value.time == pytest.approx(cfg.dt)

    def test_invariants_after_random_steps(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            rho = random_density(3, rng)
            u = rng.uniform(-2, 2)
            dw = rng.normal(0, np.sqrt(self.cfg.dt))
            mat = _euler_step(rho, u, dw, self.cfg, self.ops)
            assert np.linalg.norm(mat - mat.conj().T) <= 1e-9
            assert abs(np.trace(mat) - 1) <= 1e-9
            assert np.linalg.eigvalsh(mat).min() >= -1e-9
            assert 1 / 3 - 1e-9 <= np.vdot(mat, mat).real <= 1 + 1e-9

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
                full = _euler_step(rho, u, dw1 + dw2, cfg_full, ops)
                half = _euler_step(_euler_step(rho, u, dw1, cfg_half, ops),
                                   u, dw2, cfg_half, ops)
                gaps.append(np.linalg.norm(full - half))
            return np.mean(gaps)

        d1 = mean_defect(2e-3)
        d2 = mean_defect(1e-3)
        assert 1.5 < d1 / d2 < 2.7

    def test_strong_order_one_half_on_coupled_paths(self):
        """Strong order of the stepping kernel: N=3, u=1, from the uniform
        superposition to T=1, M=128 Brownian paths. Each coarse increment is
        the sum of the fine ones, and the dt = 2.5e-4 run is the reference.
        Over seeds 0..29 the fitted slope of log mean error vs log dt was
        0.42..0.67 (median 0.59; the reference's own error lifts it above
        the theoretical 1/2) and the errors fell with dt in every seed; a
        first-order step would give a slope near 1."""
        m_paths, t_end, dt_ref = 128, 1.0, 2.5e-4
        dts = [8e-3, 4e-3, 2e-3, 1e-3]
        n_ref = int(round(t_end / dt_ref))
        rng = np.random.default_rng(0)
        dw_ref = rng.normal(0.0, np.sqrt(dt_ref), (n_ref, m_paths))

        def endpoint(dw, dt):
            cfg = SdeStepConfig(dt=dt, eta=1.0)
            state = np.full((m_paths, 3, 3), 1.0 / 3, dtype=complex)
            for row in dw:
                state = _euler_step(state, 1.0, row[:, None, None], cfg,
                                    self.ops)
            return state

        ref = endpoint(dw_ref, dt_ref)
        errors = []
        for dt in dts:
            r = int(round(dt / dt_ref))
            dw = dw_ref.reshape(n_ref // r, r, m_paths).sum(axis=1)
            gap = endpoint(dw, dt) - ref
            errors.append(np.linalg.norm(gap, axis=(-2, -1)).mean())
        assert np.all(np.diff(errors) < 0)
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert 0.35 < slope < 0.75

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
    """Single trajectories, each the one-stream run ``simulate_batch(...,
    [stream])[0]``."""

    def setup_method(self):
        self.ops = make_spin_operators(1)
        self.cfg = SdeStepConfig(dt=1e-3, eta=1.0)
        self.ctrl = new_controller(0.1, 3, self.ops)
        self.drive = ConstantInput(1.0, 3, self.ops)

    def test_stationary_at_target(self):
        rec = simulate_batch(eigenstate(self.ops, 3), self.ctrl, 1.0, self.cfg,
                             5, [0])[0]
        assert np.all(rec.V == 0.0)
        assert np.all(rec.u == 0.0)
        assert rec.converged

    def test_same_seed_bit_identical(self):
        a = simulate_batch(eigenstate(self.ops, 1), self.ctrl, 2.0, self.cfg,
                           42, [0])[0]
        b = simulate_batch(eigenstate(self.ops, 1), self.ctrl, 2.0, self.cfg,
                           42, [0])[0]
        np.testing.assert_array_equal(a.V, b.V)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.purity, b.purity)

    def test_different_streams_differ(self):
        a = simulate_batch(eigenstate(self.ops, 1), self.ctrl, 1.0, self.cfg,
                           42, [0])[0]
        b = simulate_batch(eigenstate(self.ops, 1), self.ctrl, 1.0, self.cfg,
                           42, [1])[0]
        assert not np.array_equal(a.V, b.V)

    def test_record_shape_and_invariants(self):
        rec = simulate_batch(eigenstate(self.ops, 1), self.ctrl, 1.0, self.cfg,
                             3, [0], record_stride=7)[0]
        assert np.all(np.diff(rec.times) > 0)
        assert rec.times[0] == 0.0
        assert rec.times[-1] == pytest.approx(1.0)
        assert np.all((rec.V >= 0) & (rec.V <= 1))
        assert np.all((rec.purity >= 1 / 3 - 1e-9) & (rec.purity <= 1 + 1e-9))
        assert set(rec.modes) <= {"feedback", "constant"}

    def test_batch_equals_singles(self):
        # The N = 4 case starts mixed, so that Tr(F_z rho) sums four nonzero
        # terms, whose order a batch of one must share with a wider batch.
        ops4 = make_spin_operators(1.5)
        for rho0, ctrl in (
                (eigenstate(self.ops, 1), self.ctrl),
                (np.diag([1.0, 4 / 3, 5 / 3, 2.0]) / 6.0,
                 new_controller(0.125, 4, ops4))):
            batch = simulate_batch(rho0, ctrl, 1.0, self.cfg, 11, [0, 1, 2])
            for stream in (0, 1, 2):
                solo = simulate_batch(rho0, ctrl, 1.0, self.cfg, 11,
                                      [stream])[0]
                np.testing.assert_array_equal(batch[stream].V, solo.V)
                np.testing.assert_array_equal(batch[stream].u, solo.u)

    def test_fixed_input_run_records_constant_mode(self):
        rec = simulate_batch(eigenstate(self.ops, 1), self.drive, 0.5,
                             self.cfg, 1, [0])[0]
        assert np.all(rec.u == 1.0)
        assert set(rec.modes) == {"constant"}

    def test_empty_stream_list_rejected(self):
        with pytest.raises(ValueError, match="M must be >= 1"):
            simulate_batch(eigenstate(self.ops, 1), self.ctrl, 0.05, self.cfg,
                           base_seed=0, streams=[])

    def test_generator_streams_give_one_record_each(self):
        rho0 = eigenstate(self.ops, 1)
        args = (rho0, self.drive, 0.01, self.cfg, 0)
        from_gen = simulate_batch(*args, (k for k in range(3)))
        from_range = simulate_batch(*args, range(3))
        assert [r.stream for r in from_gen] == [0, 1, 2]
        for a, b in zip(from_gen, from_range):
            np.testing.assert_array_equal(a.V, b.V)

    def test_purity_stays_near_one_with_full_efficiency(self):
        """Perfect detection keeps pure states pure up to O(dt) defects."""
        rho0 = eigenstate(self.ops, 1)

        def max_defect(dt):
            cfg = SdeStepConfig(dt=dt, eta=1.0)
            worst = 0.0
            for stream in range(4):
                rec = simulate_batch(rho0, self.drive, 2.0, cfg, 31,
                                     [stream])[0]
                worst = max(worst, float((1.0 - rec.purity).max()))
            return worst

        d_coarse = max_defect(2e-3)
        d_fine = max_defect(1e-3)
        assert d_coarse < 40 * 2e-3
        assert d_coarse / d_fine > 1.3


class TestEnsembleOde:
    def setup_method(self):
        self.ops = make_spin_operators(1)
        self.drive = ConstantInput(1.0, 3, self.ops)

    def test_mixed_state_is_equilibrium(self):
        assert np.abs(sme_drift(maximally_mixed(3), 1.0, self.ops)).max() \
            < 1e-14

    def test_diagonal_nonequilibrium_grows_offdiagonals(self):
        rho = np.diag([0.6, 0.3, 0.1]).astype(complex)
        out = sme_drift(rho, 1.0, self.ops)
        off = out - np.diag(np.diag(out))
        assert np.abs(off).max() > 1e-3

    def test_constant_at_mixed_state(self):
        traj = integrate_ensemble(maximally_mixed(3), self.drive, 1.0, 1e-2)
        for st in traj.states:
            np.testing.assert_allclose(np.asarray(st), np.eye(3) / 3,
                                       atol=1e-12)

    def test_converges_to_mixed_state(self):
        traj = integrate_ensemble(eigenstate(self.ops, 1), self.drive, 80.0,
                                  1e-2)
        gap = np.linalg.norm(np.asarray(traj.states[-1]) - np.eye(3) / 3)
        assert gap < 1e-6

    def test_q_monotone_nonincreasing(self):
        traj = integrate_ensemble(eigenstate(self.ops, 1), self.drive, 10.0,
                                  1e-2)
        q = np.array([lyapunov_Q(st) for st in traj.states])
        assert np.all(np.diff(q) <= 1e-12)

    def test_q_derivative_identity(self):
        """dQ/dt equals -|[F_z, rho]|_F^2 along the flow (5-point stencil)."""
        dt = 5e-3
        traj = integrate_ensemble(eigenstate(self.ops, 1), self.drive, 5.0,
                                  dt)
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

    def test_bad_steps_rejected(self):
        with pytest.raises(ValueError):
            integrate_ensemble(maximally_mixed(3), self.drive, 1.0, -1e-2)
        with pytest.raises(ValueError):
            integrate_ensemble(maximally_mixed(3), self.drive, 0.0, 1e-2)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="dt_ode must be finite"):
                integrate_ensemble(maximally_mixed(3), self.drive, 1.0, bad)
            with pytest.raises(ValueError, match="horizon T must be finite"):
                integrate_ensemble(maximally_mixed(3), self.drive, bad, 1e-2)

    def test_step_outside_rk4_stability_rejected(self):
        # max(gaps_sq) / 2 = 200 at J = 10: the bound is dt_ode <= 0.013925
        ops = make_spin_operators(10)
        drive = ConstantInput(1.0, 11, ops)
        with pytest.raises(ValueError,
                           match=r"dt_ode = 0\.015 .* = 3 > 2\.785"):
            integrate_ensemble(eigenstate(ops, 1), drive, 1.0, 0.015)
        traj = integrate_ensemble(eigenstate(ops, 1), drive, 0.0139, 0.0139)
        assert np.isfinite(traj.states).all()

    @pytest.mark.parametrize("complex_", [False, True])
    def test_rotation_that_rk4_grows_rejected(self, complex_):
        # at J = 10 and dt_ode = 0.01 RK4 multiplies a mode by 47.1 per step
        # under u = 30; under u = 10 its gain is 1 up to round-off
        ops = make_spin_operators(10)
        rho0 = (random_density(ops.dim, np.random.default_rng(3)) if complex_
                else eigenstate(ops, 1))
        with pytest.raises(ValueError, match=(
                r"u = 30 is too large for RK4 at dt_ode = 0\.01 and N = 21: "
                r".* = 47\.12 per step")):
            integrate_ensemble(rho0, ConstantInput(30.0, 11, ops), 1.0, 1e-2)
        traj = integrate_ensemble(rho0, ConstantInput(10.0, 11, ops), 0.1,
                                  1e-2)
        assert np.isfinite(traj.states).all()

    @pytest.mark.parametrize("J", [10, 20])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_banded_map_step_is_one_four_stage_rk4_step(self, J, complex_):
        # at N = 21 and 41 the band (Manhattan distance 4) is narrower than
        # the matrix, so a probe colour read twice would show here
        ops = make_spin_operators(J)
        rho = random_density(ops.dim, np.random.default_rng(7))
        if not complex_:
            rho = np.ascontiguousarray(rho.real)
        dt = 2.0 / ops.gaps_sq.max()
        out = dynamics._rk4_step(
            rho, dynamics._rk4_bands(-1.7, dt, ops, complex_))
        np.testing.assert_allclose(out, rk4_step(rho, -1.7, dt, ops),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("u", [1.0, 10.0])
    def test_rotation_inside_the_enclosure_needs_no_eigensolve(self, u,
                                                              monkeypatch):
        # at J = 10, dt_ode = 0.01 |R| <= 1 on the region that holds the
        # spectrum of dt_ode L, so no eigenvalue is computed; at u = 10 the
        # rectangle alone reads 1.20 at its corner
        def must_not_run(*args, **kwargs):
            raise AssertionError("eigvals ran")

        ops = make_spin_operators(10)
        monkeypatch.setattr(dynamics.np.linalg, "eigvals", must_not_run)
        traj = integrate_ensemble(eigenstate(ops, 1),
                                  ConstantInput(u, 11, ops), 0.1, 1e-2)
        assert np.isfinite(traj.states).all()

    def test_exact_stage_decides_at_the_regions_edge(self, monkeypatch):
        # at J = 10 and dt_ode = 0.01 the region alone reads |R| = 1.08
        # under u = 14.3, so the rank blocks' eigenvalues decide: |R| = 1
        # there, and 1.029 under u = 14.4
        ops = make_spin_operators(10)
        spectrum = mock.Mock(wraps=dynamics._flow_spectrum)
        monkeypatch.setattr(dynamics, "_flow_spectrum", spectrum)
        traj = integrate_ensemble(eigenstate(ops, 1),
                                  ConstantInput(14.3, 11, ops), 0.1, 1e-2)
        assert np.isfinite(traj.states).all()
        spectrum.assert_called_once()
        with pytest.raises(ValueError, match=(
                r"u = 14\.4 is too large .* = 1\.029 per step")):
            integrate_ensemble(eigenstate(ops, 1),
                               ConstantInput(14.4, 11, ops), 0.1, 1e-2)

    def test_exact_stage_at_large_n(self):
        # N = 64: the dense blocks would be 2,080 square; the 63 rank
        # blocks are at most 127 square
        ops = make_spin_operators(31.5)
        with pytest.raises(ValueError, match=(
                r"u = 60 is too large for RK4 at dt_ode = 0\.001 and "
                r"N = 64: .* = 5\.675 per step")):
            integrate_ensemble(eigenstate(ops, 1),
                               ConstantInput(60.0, 1, ops), 1.0, 1e-3)

    @pytest.mark.parametrize("J", [1, 10])
    def test_gain_that_overflows_to_nan_rejected(self, J):
        # R(dt_ode lambda) overflows to NaN on the region and at the
        # eigenvalues; called alone, without the map's finiteness check
        # that comes first in a run
        ops = make_spin_operators(J)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match=r"u = 1e\+300 is too large .* = nan"):
            dynamics._check_rotation(1e300, 0.01, ops)

    def test_stability_bound_is_rk4s_on_the_negative_real_axis(self):
        # RK4 multiplies a mode decaying at rate a by R(-a dt), the degree-4
        # Taylor polynomial of exp; |R| <= 1 holds up to the bound and no
        # further.
        def amplification(z):
            return abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)

        bound = dynamics._RK4_REAL_BOUND
        assert amplification(-bound) <= 1.0 < amplification(-bound - 1e-3)

    def test_states_are_one_read_only_array(self, monkeypatch):
        built = []
        real = dynamics.QuantumState

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(dynamics, "QuantumState", counting)
        traj = integrate_ensemble(eigenstate(self.ops, 1), self.drive, 1.0,
                                  1e-2)
        assert type(traj.states) is np.ndarray
        assert traj.states.shape == (len(traj.times), 3, 3) == (101, 3, 3)
        assert not traj.states.flags.writeable
        with pytest.raises(ValueError):
            traj.states[-1, 0, 0] = 0.0
        # one QuantumState for the check of rho0, none per RK4 step
        assert len(built) == 1

    def test_blocks_hold_the_states_256_at_a_time(self):
        n_states, blocks = dynamics._rk4_blocks(
            eigenstate(self.ops, 1), self.drive, 5.12, 1e-2)
        got = [block.copy() for block in blocks]
        assert n_states == 513
        assert [len(b) for b in got] == [256, 256, 1]
        # the reference: one projected step after another, in one loop
        bands = dynamics._rk4_bands(1.0, 1e-2, self.ops, False)
        want = [np.asarray(eigenstate(self.ops, 1)).real]
        for _ in range(512):
            want.append(dynamics._clip_psd(dynamics._rk4_step(want[-1],
                                                              bands)))
        np.testing.assert_array_equal(np.concatenate(got), want)
        traj = integrate_ensemble(eigenstate(self.ops, 1), self.drive, 5.12,
                                  1e-2)
        np.testing.assert_array_equal(traj.states, want)

    def test_numpy_error_state_is_the_callers_between_blocks(self):
        # the steps ignore overflow, which _clip_psd reports; a consumer
        # reducing a block must see its own error state, not theirs
        with np.errstate(all="print"):
            before = np.geterr()
            _, blocks = dynamics._rk4_blocks(
                eigenstate(self.ops, 1), self.drive, 5.12, 1e-2)
            seen = [np.geterr()]
            for _ in blocks:
                seen.append(np.geterr())
            seen.append(np.geterr())
        assert len(seen) == 5
        assert all(s == before for s in seen), seen


class TestStepCount:
    """``_step_count`` is where both integrators turn (T, dt) into steps."""

    def test_rounds_to_the_nearest_count(self):
        assert dynamics._step_count(1.0, 1e-3, "dt") == 1000
        assert dynamics._step_count(0.0104, 1e-3, "dt") == 10

    @pytest.mark.parametrize("T, dt, text", [
        (1.0, 0.0, "dt must be finite"),
        (1.0, np.nan, "dt must be finite"),
        (np.inf, 1e-3, "horizon T must be finite"),
        (-1.0, 1e-3, "horizon T must be finite"),
        (1e300, 1e-10, r"horizon T = 1e\+300 is inf steps"),
        (1.0, 1e-19, "more than"),
        (4e-4, 1e-3, "below one step"),
    ])
    def test_rejects_naming_the_bad_value(self, T, dt, text):
        with pytest.raises(ValueError, match=text):
            dynamics._step_count(T, dt, "dt")

    def test_largest_count_is_sys_maxsize(self):
        assert dynamics._step_count(float(2**62), 1.0, "dt") == 2**62
        with pytest.raises(ValueError, match=str(sys.maxsize)):
            dynamics._step_count(float(2**63), 1.0, "dt")


def _noise_block_outputs():
    """Records at J=1 and J=10 and exit times, each run longer than one
    default block of 512 steps."""
    out = []
    for J, f, T in ((1, 3, 0.6), (10, 11, 0.55)):
        ops = make_spin_operators(J)
        recs = simulate_batch(eigenstate(ops, 1), new_controller(0.04, f, ops),
                              T, SdeStepConfig(), 5, [0, 1],
                              record_stride=10)
        out.append(np.stack([np.stack([r.times, r.V, r.u, r.purity])
                             for r in recs]))
    ops = make_spin_operators(1)
    rep = estimate_exit_time(0.05, eigenstate(ops, 1), 3, ops, 1.0,
                             SdeStepConfig(), M=6, base_seed=31)
    return [*out, rep.tau, np.array([rep.censored])]


class TestNoiseBlocks:
    """The noise block size bounds memory and changes no output bit."""

    @pytest.fixture(scope="class")
    def default(self):
        return _noise_block_outputs()

    @pytest.mark.parametrize("block", [7, 10**6])
    def test_outputs_do_not_depend_on_the_block(self, monkeypatch, default,
                                                block):
        monkeypatch.setattr(dynamics, "_NOISE_BLOCK", block)
        for got, want in zip(_noise_block_outputs(), default, strict=True):
            np.testing.assert_array_equal(got, want)


class TestExitDrops:
    """With an exit threshold a member leaves the batch at its exit step,
    and the run keeps only the members' exit clocks; no member's clock
    depends on the members that share its batch. Target f = 2 lies next to
    the initial level, so every path exits by t = 0.7."""

    THRESHOLD = 0.95

    @staticmethod
    def run(streams, stride):
        ops = make_spin_operators(1)
        return dynamics._integrate_batch(
            eigenstate(ops, 1), ConstantInput(1.0, 2, ops), 5.0,
            SdeStepConfig(), 41, streams, record_stride=stride,
            sum_chunk=64, exit_threshold=TestExitDrops.THRESHOLD)

    @pytest.fixture(scope="class")
    def singles(self):
        """The exit clock of each of the 64 members stepped alone."""
        return [self.run([j], 1).first_below[0] for j in range(64)]

    @pytest.mark.parametrize("stride", [1, 7, sys.maxsize])
    def test_batch_members_match_their_one_member_runs(self, singles,
                                                       stride):
        batch = self.run(range(64), stride)
        assert not np.isnan(batch.first_below).any()
        # bit for bit, as the same stream stepped alone
        np.testing.assert_array_equal(batch.first_below, singles)
        # whatever the stride, the run keeps no records and no state sums
        assert batch.times.shape == (0,)
        for name in ("V", "u", "purity", "modes"):
            assert getattr(batch, name).shape == (0, 64)
        assert batch.state_sum.size == 0


_OPS3 = make_spin_operators(1)
_DRIVE3 = ConstantInput(1.0, 3, _OPS3)
_NOT_HERMITIAN = np.eye(3, dtype=complex) / 3
_NOT_HERMITIAN[0, 1] = 0.1

# Each initial state that is not a 3 x 3 density matrix, with the text its
# rejection names.
BAD_RHO0 = {
    "trace": (np.eye(3), "trace"),
    "hermiticity": (_NOT_HERMITIAN, "Hermitian"),
    "psd": (np.diag([1.2, -0.1, -0.1]), "PSD"),
    "nan": (np.full((3, 3), np.nan), "non-finite"),
    "dimension": (np.asarray(eigenstate(make_spin_operators(2), 1)),
                  "N = 3"),
}

# Every integrator entry that takes an initial state; "simulate_trajectory"
# is one fixed-input path.
ENTRIES = {
    "simulate_trajectory": lambda rho0: simulate_batch(
        rho0, _DRIVE3, 0.01, SdeStepConfig(), 0, [0]),
    "simulate_batch_mh": lambda rho0: simulate_batch(
        rho0, new_controller(0.1, 1, _OPS3), 0.01, SdeStepConfig(), 0,
        [0, 1]),
    "run_ensemble": lambda rho0: run_ensemble(
        rho0, _DRIVE3, 0.01, SdeStepConfig(), M=2),
    "integrate_ensemble": lambda rho0: integrate_ensemble(
        rho0, _DRIVE3, 0.1, 1e-2),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("bad", sorted(BAD_RHO0))
def test_invalid_initial_state_rejected_at_entry(entry, bad):
    rho0, text = BAD_RHO0[bad]
    with pytest.raises(ValueError, match=text):
        ENTRIES[entry](rho0)


class TestStepConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SdeStepConfig(dt=0.0)
        with pytest.raises(ValueError):
            SdeStepConfig(eta=0.0)
        with pytest.raises(ValueError):
            SdeStepConfig(eta=1.1)
        for dt in (np.nan, np.inf):
            with pytest.raises(ValueError, match="dt must be finite"):
                SdeStepConfig(dt=dt)


_RHO3 = eigenstate(_OPS3, 1)
# One step of dt from eigenstate 1 under u = 1, through each integrator.
_ONE_STEP = {
    "simulate_batch": lambda dt: simulate_batch(
        _RHO3, _DRIVE3, dt, SdeStepConfig(dt=dt), 0, [0]),
    "run_ensemble": lambda dt: run_ensemble(
        _RHO3, _DRIVE3, dt, SdeStepConfig(dt=dt), M=2),
    "estimate_exit_time": lambda dt: estimate_exit_time(
        0.1, _RHO3, 3, _OPS3, dt, SdeStepConfig(dt=dt), M=2),
    "integrate_ensemble": lambda dt: integrate_ensemble(
        _RHO3, _DRIVE3, dt, dt),
}


@pytest.mark.parametrize("entry", sorted(_ONE_STEP))
def test_step_past_the_stability_bound_rejected(entry):
    """dt * max(gaps_sq) / 2 may reach 2 for Euler and 2.785 for RK4, the
    ends of their stability intervals; at N = 3, max(gaps_sq) = 4."""
    rk4 = entry == "integrate_ensemble"
    bound, name = (2.785, "dt_ode") if rk4 else (2.0, "dt")
    _ONE_STEP[entry](bound / 2)
    with pytest.raises(ValueError, match=(
            f"{name} = {bound / 2 * 1.0001:g} is too large for "
            f"{'RK4' if rk4 else 'Euler-Maruyama'} at N = 3")):
        _ONE_STEP[entry](bound / 2 * 1.0001)
