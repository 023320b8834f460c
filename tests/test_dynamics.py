"""Tests for the SDE/ODE integrators, drift/diffusion terms and records."""

import sys
from unittest import mock

import numpy as np
import pytest

from helpers import (expm_states, random_density, real_diagonal,
                     split_step_dense)
from spinstab import dynamics
from spinstab.controller import (DRIVE_U, ConstantInput, ControllerState,
                                 feedback_gain, new_controller)
from spinstab.dynamics import (
    SdeStepConfig,
    _control_step,
    _split_step,
    integrate_ensemble,
    simulate_batch,
    sme_diffusion,
    sme_drift,
)
from spinstab.montecarlo import estimate_exit_time, run_ensemble
from spinstab.quantum import (
    NumericalFailureError,
    _dag,
    distance_V,
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


class TestSplitStep:
    """The split step kernel ``_split_step``, on complex states."""

    def setup_method(self):
        self.ops = make_spin_operators(1)
        self.cfg = SdeStepConfig(dt=1e-3, eta=1.0)

    def test_target_is_exact_fixed_point(self):
        rho = np.asarray(eigenstate(self.ops, 3))
        out = _split_step(self.cfg, self.ops)(rho, real_diagonal(rho), 0.0,
                                              0.03)
        np.testing.assert_array_equal(out, rho)

    def test_non_finite_increment_raises(self):
        rho = np.asarray(eigenstate(self.ops, 1))
        with pytest.raises(NumericalFailureError):
            _split_step(self.cfg, self.ops)(rho, real_diagonal(rho), 1.0,
                                            np.nan)

    def test_batched_loop_raises_with_failure_time(self):
        # A valid pure state and a drive so large that the first step's
        # rotation angle u dt mu overflows (1e308 x 1 x 10 at N = 21): the
        # loop stops at that step's time.
        cfg = SdeStepConfig(dt=1.0)
        ops10 = make_spin_operators(10)
        with pytest.raises(NumericalFailureError) as exc:
            simulate_batch(eigenstate(ops10, 11),
                           ConstantInput(1e308, 11, ops10), 3.0, cfg, 0, [0])
        assert exc.value.time == pytest.approx(cfg.dt)

    def test_invariants_after_random_steps(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            rho = random_density(3, rng)
            u = rng.uniform(-2, 2)
            dw = rng.normal(0, np.sqrt(self.cfg.dt))
            mat = _split_step(self.cfg, self.ops)(rho, real_diagonal(rho), u,
                                                  dw)
            assert np.linalg.norm(mat - mat.conj().T) <= 1e-9
            assert abs(np.trace(mat) - 1) <= 1e-9
            assert np.linalg.eigvalsh(mat).min() >= -1e-9
            assert 1 / 3 - 1e-9 <= np.vdot(mat, mat).real <= 1 + 1e-9

    def test_one_step_refinement_error_scales_as_dt_to_three_halves(self):
        """A dt step vs two dt/2 substeps on the same Brownian increments:
        the measurement is exact given dy and the rotation is exact, so the
        gap is what freezing Tr(F_z rho) and splitting the two leave over
        one step, O(dt^3/2); halving dt divides it by about 2^1.5 = 2.83.
        Over seeds 0..29 the ratio was 2.47..3.14 (median 2.86); a gap
        linear in dt would give 2."""
        rng = np.random.default_rng(23)
        ops = self.ops

        def mean_defect(dt, n=400):
            full_step = _split_step(SdeStepConfig(dt=dt, eta=1.0), ops)
            half_step = _split_step(SdeStepConfig(dt=dt / 2, eta=1.0), ops)
            gaps = []
            for _ in range(n):
                rho = random_density(3, rng)
                u = rng.uniform(-2, 2)
                dw1 = rng.normal(0, np.sqrt(dt / 2))
                dw2 = rng.normal(0, np.sqrt(dt / 2))
                full = full_step(rho, real_diagonal(rho), u, dw1 + dw2)
                half = half_step(rho, real_diagonal(rho), u, dw1)
                half = half_step(half, real_diagonal(half), u, dw2)
                gaps.append(np.linalg.norm(full - half))
            return np.mean(gaps)

        d1 = mean_defect(2e-3)
        d2 = mean_defect(1e-3)
        assert 2.2 < d1 / d2 < 3.6

    def test_strong_order_one_on_coupled_paths(self):
        """Strong order of the stepping kernel: N=3, u=1, from the uniform
        superposition to T=1, M=128 Brownian paths. Each coarse increment is
        the sum of the fine ones, and the dt = 2.5e-4 run is the reference.
        Over seeds 0..29 the fitted slope of log mean error vs log dt was
        0.99..1.15 (median 1.08) and the errors fell with dt in every seed:
        the split step converges to first order on these paths; a step of
        order one half would give a slope near 1/2."""
        m_paths, t_end, dt_ref = 128, 1.0, 2.5e-4
        dts = [8e-3, 4e-3, 2e-3, 1e-3]
        n_ref = int(round(t_end / dt_ref))
        rng = np.random.default_rng(0)
        dw_ref = rng.normal(0.0, np.sqrt(dt_ref), (n_ref, m_paths))

        def endpoint(dw, dt):
            step = _split_step(SdeStepConfig(dt=dt, eta=1.0), self.ops)
            state = np.full((m_paths, 3, 3), 1.0 / 3, dtype=complex)
            for row in dw:
                state = step(state, real_diagonal(state), 1.0, row)
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
        assert 0.85 < slope < 1.35

    def test_complex_start_is_stepped_in_float64(self):
        # at eta < 1 the loop hands the step map each state's real form
        # Re rho + Im rho, and unpacks the recorded state sums into
        # complex128 states, exactly Hermitian
        seen = []
        kernel = dynamics._split_step

        def recording_split_step(cfg, ops):
            step = kernel(cfg, ops)

            def recorded(rho, diag, u, dw):
                seen.append((rho.dtype, rho.shape))
                return step(rho, diag, u, dw)
            return recorded

        ops = make_spin_operators(2)
        rho0 = random_density(ops.dim, np.random.default_rng(4))
        with mock.patch.object(dynamics, "_split_step", recording_split_step):
            res = dynamics._integrate_batch(
                rho0, new_controller(0.1, 3, ops), 0.05,
                SdeStepConfig(dt=0.01, eta=0.5), 0, [0, 1], sum_chunk=1)
        assert seen == [(np.float64, (2, 5, 5))] * 5
        states = res.state_sum
        assert states.dtype == np.complex128 and states.shape == (6, 2, 5, 5)
        assert (states == _dag(states)).all()
        assert states[1:].imag.any()

    def test_complex_start_is_stepped_as_a_float64_factor(self):
        # at eta = 1 the loop hands the factor step each state's real
        # factor [Re X, Im X], rho = X X* with X of rank 2, as one (M, N,
        # 2r) float64 array, and never calls the real-form step; the
        # recorded state sums are complex128 states, exactly Hermitian
        seen = []
        kernel = dynamics._factor_step

        def recording_factor_step(cfg, ops):
            step = kernel(cfg, ops)

            def recorded(fac, diag, u, dw):
                seen.append((fac.dtype, fac.shape))
                return step(fac, diag, u, dw)
            return recorded

        ops = make_spin_operators(2)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        rho0 = x @ x.conj().T / np.linalg.norm(x) ** 2
        with mock.patch.object(dynamics, "_factor_step",
                               recording_factor_step), \
                mock.patch.object(dynamics, "_split_step", None):
            res = dynamics._integrate_batch(
                rho0, new_controller(0.1, 3, ops), 0.05,
                SdeStepConfig(dt=0.01), 0, [0, 1], sum_chunk=1)
        assert seen == [(np.float64, (2, 5, 4))] * 5
        states = res.state_sum
        assert states.dtype == np.complex128 and states.shape == (6, 2, 5, 5)
        assert (states == _dag(states)).all()
        assert states[1:].imag.any()
        np.testing.assert_allclose(np.linalg.eigvalsh(states[-1])[:, :3], 0,
                                   atol=1e-15)

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    @pytest.mark.parametrize("start", ["eigenstate", "complex"])
    def test_every_state_is_a_state_at_a_large_step(self, eta, start):
        # dt = 0.05 at N = 21, where dt * max(gaps_sq) / 2 = 10 puts an
        # explicit step far outside its stability interval: with nothing
        # projected, each recorded state is exactly Hermitian with trace 1
        # and no eigenvalue below -1e-13
        ops = make_spin_operators(10)
        rho0 = (eigenstate(ops, 1) if start == "eigenstate" else
                random_density(ops.dim, np.random.default_rng(8)))
        res = dynamics._integrate_batch(
            rho0, new_controller(0.04, 11, ops), 5.0,
            SdeStepConfig(dt=0.05, eta=eta), 6, range(4), sum_chunk=1)
        states = res.state_sum.reshape(-1, ops.dim, ops.dim)
        assert len(states) == 101 * 4
        assert np.iscomplexobj(states) == (start == "complex")
        assert (states == _dag(states)).all()
        assert np.linalg.eigvalsh(states).min() >= -1e-13
        trace = np.trace(states, axis1=1, axis2=2)
        assert np.abs(trace - 1).max() <= 1e-13

    def test_weak_error_against_the_exact_flow_shrinks_with_dt(self):
        """E[V(2)] under u = 1 from eigenstate 1 at N = 5, f = 3, M = 4000,
        against the exact averaged flow: the gap is the step's weak error
        plus a sampling error of about 0.004 (one standard error). Over
        base seeds 0..19 it was 0.025..0.040 at dt = 0.2 and 0.002..0.016
        at dt = 0.05."""
        ops = make_spin_operators(2)
        drive = ConstantInput(1.0, 3, ops)
        exact = distance_V(integrate_ensemble(eigenstate(ops, 1), drive, 2.0,
                                              0.05).states[-1], 3)
        gaps = [abs(run_ensemble(eigenstate(ops, 1), drive, 2.0,
                                 SdeStepConfig(dt=dt), M=4000,
                                 record_stride=sys.maxsize).mean_V[-1]
                    - exact)
                for dt in (0.2, 0.05)]
        assert gaps[1] < gaps[0]

    def test_drift_and_diffusion_terms_are_traceless(self):
        # the equation's two terms, as rates, move no trace: a state plus
        # any combination of them keeps trace 1
        rng = np.random.default_rng(29)
        for _ in range(50):
            m = np.asarray(random_density(3, rng))
            incr = (sme_drift(m, rng.uniform(-2, 2), self.ops) * self.cfg.dt
                    + sme_diffusion(m, self.ops, 1.0) * rng.normal(0, 1.0))
            assert abs(np.trace(m + incr) - 1.0) < 1e-12


class TestEmStep:
    """The stepping loop's states against the dense split-step oracle.
    The class keeps its name from the Euler-Maruyama step so that these
    test ids stay as they are until they move into ``TestSplitStep``."""

    @pytest.mark.parametrize("J", [1, 10])
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("eta", [1.0, 0.5])
    @pytest.mark.parametrize("control", ["switching", "constant"])
    def test_loop_states_are_the_dense_oracle_steps(self, J, complex_, eta,
                                                    control):
        # The loop's states, recorded one per member as the state sums of
        # runs of one member, against the dense oracle stepped from the
        # same start on the same Philox draws and the recorded inputs: 60
        # steps of 0.01, under the switching law from near the target
        # (feedback gains vary every step) or u = -17 (up to 1.7 radians
        # per step at N = 21).
        ops = make_spin_operators(J)
        rng = np.random.default_rng(J)
        rho0 = 0.7 * np.asarray(eigenstate(ops, ops.dim)) + 0.3 * \
            random_density(ops.dim, rng)
        if not complex_:
            rho0 = rho0.real.copy()
        ctrl = (new_controller(0.5 / ops.dim, ops.dim, ops)
                if control == "switching" else
                ConstantInput(-17.0, ops.dim, ops))
        cfg = SdeStepConfig(dt=1e-2, eta=eta)
        res = dynamics._integrate_batch(rho0, ctrl, 0.6, cfg, 3, [0, 1],
                                        sum_chunk=1)
        states = res.state_sum
        assert np.iscomplexobj(states) == complex_
        assert states.shape == (61, 2, ops.dim, ops.dim)
        for j in range(2):
            dw = dynamics._philox_rng(3, j).normal(0.0, np.sqrt(cfg.dt), 60)
            rho = np.asarray(rho0, dtype=complex)
            for k in range(60):
                rho = split_step_dense(rho, res.u[k, j], dw[k], cfg.dt, eta,
                                       ops)
                np.testing.assert_allclose(states[k + 1, j], rho, rtol=0,
                                           atol=1e-13)


def _low_rank_start(n, rank, complex_, rng):
    """A state of the given rank whose columns lean towards the last
    eigenstate, so that the switching law changes mode within a second."""
    g = rng.normal(size=(n, rank)) + (1j * rng.normal(size=(n, rank))
                                      if complex_ else 0)
    g[-1] += 2.0 * np.sqrt(n / 3)
    g /= np.linalg.norm(g, axis=0)
    m = (g * np.linspace(1.0, 0.5, rank)) @ g.conj().T
    return m / np.trace(m).real


class TestFactorStep:
    """The eta = 1 kernel ``_factor_step``, on real factors of rho."""

    @pytest.mark.parametrize("J", [0.5, 1, 1.5, 2, 10, 20])
    def test_rotation_planes_are_floor_n_over_2_orthonormal_pairs(self, J):
        # at J = 2, 10 and 20 eigh returns F_y's zero eigenvalue as +1e-16;
        # it is not a plane
        ops = make_spin_operators(J)
        n = ops.dim
        mu, q = dynamics._rotation_planes(ops)
        assert mu.shape == (n // 2,) and q.shape == (n, 2 * (n // 2))
        # J, J - 1, ... down to 1 or 1/2
        np.testing.assert_allclose(np.sort(mu)[::-1], J - np.arange(n // 2),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(q.T @ q, np.eye(2 * (n // 2)), rtol=0,
                                   atol=1e-14)
        # B turns each plane by mu_k and is zero on what is left, to
        # round-off in entries up to J
        a, b = q[:, 0::2], q[:, 1::2]
        np.testing.assert_allclose((b * mu) @ a.T - (a * mu) @ b.T, ops.b_y,
                                   rtol=0, atol=1e-15 * n)

    @pytest.mark.parametrize("J", [1, 10])
    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("control", ["switching", "constant"])
    def test_factor_path_is_the_real_form_path(self, J, rank, complex_,
                                               control):
        # the same members on the same noise over T = 1, stepped as real
        # factors and, with the loop handed the real form and _split_step,
        # as P = Re rho + Im rho: every record agrees to 1e-12 and the
        # switching law picks the same modes
        ops = make_spin_operators(J)
        n = ops.dim
        rho0 = _low_rank_start(n, rank, complex_, np.random.default_rng(J))
        ctrl = (new_controller(0.5 / n, n, ops) if control == "switching"
                else ConstantInput(-17.0, n, ops))

        def run():
            return dynamics._integrate_batch(
                rho0, ctrl, 1.0, SdeStepConfig(), 9, range(3),
                record_stride=10, sum_chunk=1)

        fac = run()
        with mock.patch.object(dynamics, "_factor_form",
                               dynamics._real_form), \
                mock.patch.object(dynamics, "_factor_step",
                                  dynamics._split_step):
            ref = run()
        np.testing.assert_array_equal(fac.modes, ref.modes)
        for name in ("V", "u", "purity", "state_sum"):
            np.testing.assert_allclose(getattr(fac, name), getattr(ref, name),
                                       rtol=0, atol=1e-12)

    def test_an_eta_below_one_run_steps_real_forms(self):
        # eta < 1 is the one run left on _split_step, with (M, N, N) states
        seen = []
        kernel = dynamics._split_step

        def recording_split_step(cfg, ops):
            step = kernel(cfg, ops)

            def recorded(rho, diag, u, dw):
                seen.append(rho.shape)
                return step(rho, diag, u, dw)
            return recorded

        ops = make_spin_operators(10)
        with mock.patch.object(dynamics, "_split_step",
                               recording_split_step), \
                mock.patch.object(dynamics, "_factor_step", None):
            dynamics._integrate_batch(eigenstate(ops, 1),
                                      new_controller(0.04, 11, ops), 0.03,
                                      SdeStepConfig(dt=0.01, eta=0.5), 0,
                                      range(3))
        assert seen == [(3, 21, 21)] * 3

    def test_step_is_the_factor_at_zero_input(self):
        # the turn is added as a change that is exactly zero at u = 0, so
        # the target eigenstate is a fixed point to the bit
        ops = make_spin_operators(10)
        step = dynamics._factor_step(SdeStepConfig(dt=0.05), ops)
        fac = np.eye(ops.dim)[None, :, 4:5]
        out = step(fac, np.vecdot(fac, fac), np.zeros(1), np.array([0.3]))
        np.testing.assert_array_equal(out, fac)


class TestSharedInput:
    """While every member takes one input, a ConstantInput's or the
    constant mode's, ``_control_step`` returns it as one float and forms no
    gain, and each kernel steps that float as it steps a copy per member."""

    @staticmethod
    def gain_calls(start: int) -> int:
        # calls of either form's gain reader over a fig2 run of T = 0.5,
        # from eigenstate ``start``
        calls = []

        def counted(gain):
            def wrapped(*args):
                calls.append(args)
                return gain(*args)
            return wrapped

        ops = make_spin_operators(10)
        with mock.patch.object(dynamics, "feedback_gain",
                               counted(feedback_gain)), \
                mock.patch.object(dynamics, "_factor_gain",
                                  counted(dynamics._factor_gain)):
            dynamics._integrate_batch(eigenstate(ops, start),
                                      ControllerState(0.4, 11, ops), 0.5,
                                      SdeStepConfig(), 6, range(10))
        return len(calls)

    def test_no_gain_while_every_member_is_in_constant_mode(self):
        # from eigenstate 1, V stays above 1 - gamma = 0.6 to T = 0.5, so
        # no member enters feedback; from the target every member does
        assert self.gain_calls(1) == 0
        assert self.gain_calls(11) > 0

    def test_a_shared_input_is_one_float(self):
        ops = make_spin_operators(1)
        rho = np.tile(np.asarray(eigenstate(ops, 1)), (4, 1, 1))
        v, modes = np.ones(4), np.zeros(4, dtype=bool)
        for control, want in ((ControllerState(0.1, 3, ops), 1.0),
                              (ConstantInput(-17, 3, ops), -17.0)):
            feedback, u = _control_step(control, modes, v, rho)
            assert not feedback.any()
            assert type(u) is float and u == want

    @pytest.mark.parametrize("kernel, eta", [("_factor_step", 1.0),
                                             ("_split_step", 1.0),
                                             ("_split_step", 0.5)])
    @pytest.mark.parametrize("J", [1, 10])
    def test_a_float_input_steps_as_one_per_member(self, kernel, eta, J):
        # ten members of rank two, stepped under each float u in turn, u
        # coming back after another, against u as one entry per member
        ops = make_spin_operators(J)
        rng = np.random.default_rng(J)
        fac = rng.normal(size=(10, ops.dim, 2))
        fac /= np.linalg.norm(fac, axis=(1, 2))[:, None, None]
        state = fac if kernel == "_factor_step" else fac @ fac.swapaxes(1, 2)
        diag = np.vecdot(fac, fac)
        step = getattr(dynamics, kernel)(SdeStepConfig(dt=0.01, eta=eta), ops)
        for u in (1.0, -17.0, 1.0, 0.25):
            dw = rng.normal(0.0, 0.1, 10)
            np.testing.assert_array_equal(
                step(state, diag, u, dw),
                step(state, diag, np.full(10, u), dw))


class TestDriveMatrix:
    """``_factor_step`` turns a member whose u is the constant mode's
    DRIVE_U by one N x N matrix formed per run, and any other member
    through the rotation's planes, chosen per member."""

    @pytest.mark.parametrize("J", [0.5, 1, 10, 20, 40])
    def test_drive_matrix_is_orthogonal_and_the_planes_turn(self, J):
        # Stepping the identity factor I (c = N), member j's filtered
        # column x_j e_j turns to x_j R e_j, one product per entry, and at
        # u = 0 it is x_j e_j exactly: dividing the one by the other reads
        # R to an ulp. The float after 1 takes the planes, whose turn
        # differs from u = 1's by far less than round-off. At the presets'
        # dt; at dt = 0.05 and N = 81 the planes themselves are orthogonal
        # only to 2.5e-15, and the matrix to 2.7e-15.
        ops = make_spin_operators(J)
        n = ops.dim
        step = dynamics._factor_step(SdeStepConfig(), ops)
        eye, diag, dw = np.eye(n)[None], np.full((1, n), 1.0 / n), [0.1]
        x = step(eye, diag, 0.0, dw)[0]
        np.testing.assert_array_equal(x, np.diag(np.diagonal(x)))
        drive = step(eye, diag, DRIVE_U, dw)[0] / np.diagonal(x)
        planes = (step(eye, diag, np.nextafter(DRIVE_U, 2.0), dw)[0]
                  / np.diagonal(x))
        np.testing.assert_allclose(drive.T @ drive, np.eye(n), rtol=0,
                                   atol=1e-15)
        np.testing.assert_allclose(drive, planes, rtol=0, atol=1e-15)
        assert not np.array_equal(drive, np.eye(n))

    @pytest.mark.parametrize("M", [1, 2, 7, 64, 65])
    @pytest.mark.parametrize("J", [1, 10, 20, 40])
    @pytest.mark.parametrize("c", [1, 2])
    def test_mixed_inputs_step_each_member_as_alone(self, M, J, c):
        # constant-mode members (u = 1.0) among feedback gains, one of which
        # is exactly 1.0 as well: each row is its member's one-member step,
        # under its u as a float and as an array of one
        ops = make_spin_operators(J)
        rng = np.random.default_rng([M, ops.dim, c])
        fac = rng.normal(size=(M, ops.dim, c))
        fac /= np.linalg.norm(fac, axis=(1, 2))[:, None, None]
        diag = np.vecdot(fac, fac)
        u = rng.normal(0.0, 3.0, M)
        u[::3] = DRIVE_U
        u[1::5] = 1.0
        if M == 2:
            u[1] = 0.5
        dw = rng.normal(0.0, 0.03, M)
        step = dynamics._factor_step(SdeStepConfig(), ops)
        out = step(fac, diag, u, dw)
        for j in range(M):
            one = slice(j, j + 1)
            np.testing.assert_array_equal(
                out[one], step(fac[one], diag[one], u[one], dw[one]))
            np.testing.assert_array_equal(
                out[one], step(fac[one], diag[one], float(u[j]), dw[one]))


@pytest.mark.parametrize("failure, message", [
    ("nan-increment", "filtered trace is nan, not > 0"),
    ("overflowing-angle", "state has non-finite entries")],
    ids=["nan-increment", "overflowing-angle"])
@pytest.mark.parametrize("kernel", ["_split_step", "_factor_step"])
def test_both_kernels_refuse_a_failed_step_alike(kernel, failure, message):
    # a NaN increment loses the filtered trace, and u = 1e308 at dt = 1
    # overflows the rotation angle u dt mu at N = 21: each kernel refuses
    # the step with the same message, eigenstate 1 stepped as its real form
    # P by _split_step and as a factor by _factor_step, each with its
    # diagonal P_kk = |F_k|^2
    ops = make_spin_operators(10)
    fac = np.eye(ops.dim)[None, :, :1]
    state = fac if kernel == "_factor_step" else fac @ fac.swapaxes(1, 2)
    u, dw = (0.0, np.nan) if failure == "nan-increment" else (1e308, 0.0)
    step = getattr(dynamics, kernel)(SdeStepConfig(dt=1.0), ops)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalFailureError) as exc:
        step(state, np.vecdot(fac, fac), np.array([u]), np.array([dw]))
    assert str(exc.value) == message


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

    def test_eta_below_one_feedback_batch_equals_singles(self):
        # at eta < 1 the loop reads feedback gains off real forms: from
        # near the target, each of nine members runs in feedback, and each
        # one's record is the same as its one-member run's, bit for bit
        ops = make_spin_operators(2)
        psi = np.zeros(ops.dim)
        psi[2], psi[3] = 1.0, 0.05
        rho0 = np.outer(psi, psi) / (psi @ psi)
        ctrl = new_controller(0.1, 3, ops)
        cfg = SdeStepConfig(dt=1e-3, eta=0.5)
        batch = simulate_batch(rho0, ctrl, 0.2, cfg, 4, range(9))
        assert all((rec.modes == "feedback").any() for rec in batch)
        for stream, rec in enumerate(batch):
            solo, = simulate_batch(rho0, ctrl, 0.2, cfg, 4, [stream])
            np.testing.assert_array_equal(rec.V, solo.V)
            np.testing.assert_array_equal(rec.u, solo.u)

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
        """Perfect detection keeps a pure state pure: at eta = 1 the filter
        D rho D and the rotation map a rank-one state to a rank-one state,
        so purity is 1 to round-off at every step size, 0.05 included."""
        rho0 = eigenstate(self.ops, 1)
        for dt in (1e-3, 0.05):
            cfg = SdeStepConfig(dt=dt, eta=1.0)
            for stream in range(4):
                rec = simulate_batch(rho0, self.drive, 2.0, cfg, 31,
                                     [stream])[0]
                assert np.abs(rec.purity - 1.0).max() <= 1e-13


def sequential_flow_states(rho0, u, dt_ode, n_states, ops):
    """Oracle for the grid states of the averaged flow: the rank
    coefficients of rho0 stepped by one matmul with ``_flow_map``'s E per
    state, and each state summed from its coefficients diagonal by
    diagonal, complex."""
    rho = np.asarray(rho0)
    basis = dynamics._rank_basis(ops)
    parts = np.stack([rho.real, rho.imag])
    flow = dynamics._flow_map(u, dt_ode, ops, basis)
    coef = [dynamics._coefficients(parts, basis)]
    for _ in range(n_states - 1):
        coef.append((flow @ coef[-1][..., None])[..., 0])
    n = ops.dim
    states = np.zeros((n_states, n, n), complex)
    for part, unit in enumerate((1, 1j)):
        for q in range(n):
            # entries (p + q, p), and their mirror images (p, p + q), which
            # the imaginary part takes with the opposite sign
            entries = np.einsum("pk,sk->sp", basis[q, :n - q],
                                np.array(coef)[:, part, :, q]) * unit
            p = np.arange(n - q)
            states[:, p + q, p] = states[:, p + q, p] + entries
            if q:
                states[:, p, p + q] = (states[:, p, p + q]
                                       + np.conj(entries))
    return states


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

    @pytest.mark.parametrize("J", [1, 10])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_states_are_the_dense_expm_states(self, J, complex_):
        # N = 3 and 21, 300 steps across a block edge, under a rotation of
        # up to 3.4 radians per step
        ops = make_spin_operators(J)
        rho0 = random_density(ops.dim, np.random.default_rng(11))
        if not complex_:
            rho0 = rho0.real.copy()
        traj = integrate_ensemble(rho0, ConstantInput(-17.0, 1, ops), 3.0,
                                  1e-2)
        assert np.iscomplexobj(traj.states) == complex_
        np.testing.assert_allclose(traj.states,
                                   expm_states(rho0, -17.0, 1e-2, 300, ops),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("J", [1, 10, 20])
    @pytest.mark.parametrize("start", ["eigenstate", "interior", "rank-2",
                                       "complex"])
    def test_every_state_is_a_state_without_projection(self, J, start,
                                                       monkeypatch):
        # nothing projects the states: each state, the first included, is
        # exactly Hermitian, and its smallest eigenvalue and its trace are
        # within round-off of a state's
        clip = mock.Mock(wraps=dynamics._clip_psd)
        monkeypatch.setattr(dynamics, "_clip_psd", clip)
        ops = make_spin_operators(J)
        rho0 = random_density(ops.dim, np.random.default_rng(4))
        if start == "eigenstate":
            rho0 = np.asarray(eigenstate(ops, 1)).real
        elif start == "interior":
            rho0 = rho0.real.copy()
        elif start == "rank-2":
            rho0 = np.zeros((ops.dim, ops.dim))
            rho0[0, 0] = rho0[-1, -1] = 0.5
        traj = integrate_ensemble(rho0, ConstantInput(1.0, 1, ops), 2.0,
                                  1e-3 if J == 20 else 1e-2)
        clip.assert_not_called()
        assert np.iscomplexobj(traj.states) == (start == "complex")
        assert (traj.states == _dag(traj.states)).all()
        assert np.linalg.eigvalsh(traj.states).min() >= -1e-13
        trace = np.trace(traj.states, axis1=1, axis2=2)
        assert np.abs(trace - 1).max() <= 1e-13

    @pytest.mark.parametrize("J, u, dt_ode, T", [
        # dt_ode past an explicit scheme's real-axis bound, up to 10 times
        # the stiffest rate, and fast rotations, the last at N = 64
        (10, 1.0, 0.015, 2.0), (10, 1.0, 0.05, 2.0),
        (10, 14.4, 0.01, 2.0), (10, 100.0, 0.01, 2.0), (31.5, 60.0, 1e-3, 0.1),
    ])
    def test_any_step_and_input_runs_with_q_non_increasing(self, J, u,
                                                           dt_ode, T):
        ops = make_spin_operators(J)
        traj = integrate_ensemble(eigenstate(ops, 1),
                                  ConstantInput(u, 1, ops), T, dt_ode)
        assert np.all(np.diff(lyapunov_Q(traj.states)) <= 1e-12)
        assert np.linalg.eigvalsh(traj.states).min() >= -1e-13

    @pytest.mark.parametrize("u, floor", [(1e4, -1e-11), (1e8, -2e-7)])
    def test_smallest_eigenvalue_at_large_input(self, u, floor):
        # round-off in exp(dt_ode L) grows about linearly in |u| dt_ode 2J;
        # measured -5.75e-12 at u = 1e4 and -9.59e-8 at 1e8
        ops = make_spin_operators(10)
        traj = integrate_ensemble(eigenstate(ops, 1),
                                  ConstantInput(u, 11, ops), 2.0, 1e-2)
        assert len(traj.states) == 201
        assert np.linalg.eigvalsh(traj.states).min() >= floor

    @pytest.mark.parametrize("complex_", [False, True])
    def test_fast_rotation_steps_with_q_non_increasing(self, complex_):
        # at J = 10 and dt_ode = 0.01 an explicit RK4 step multiplies a mode
        # by 47.1 under u = 30; exp(dt_ode L) contracts every mode
        ops = make_spin_operators(10)
        rho0 = (random_density(ops.dim, np.random.default_rng(3)) if complex_
                else eigenstate(ops, 1))
        traj = integrate_ensemble(rho0, ConstantInput(30.0, 11, ops), 2.0,
                                  1e-2)
        assert np.iscomplexobj(traj.states) == complex_
        assert np.all(np.diff(lyapunov_Q(traj.states)) <= 1e-12)
        assert np.linalg.eigvalsh(traj.states).min() >= -1e-13

    @pytest.mark.parametrize("J", [1, 10])
    def test_gain_that_overflows_to_nan_rejected(self, J):
        # exp(dt_ode L) overflows under u = 1e300; the map is refused before
        # the first step, at the first step's time
        ops = make_spin_operators(J)
        with pytest.raises(NumericalFailureError, match=(
                r"exp\(dt_ode L\) has non-finite entries.* at t = 0.01$")
        ) as err:
            dynamics._flow_coefficients(eigenstate(ops, 1),
                                        ConstantInput(1e300, 2 * J + 1, ops),
                                        1.0, 1e-2)
        assert err.value.time == 1e-2

    def test_map_that_is_not_a_contraction_raises_before_stepping(self):
        # |dt_ode L| near 1e17: round-off in the squarings grows E
        ops = make_spin_operators(10)
        with pytest.raises(NumericalFailureError,
                           match=r"exp\(dt_ode L\) grows a mode by.* at "
                                 r"t = 0.01$") as err:
            dynamics._flow_coefficients(eigenstate(ops, 1),
                                        ConstantInput(1e18, 11, ops), 1.0,
                                        1e-2)
        assert err.value.time == 1e-2

    def test_v_outside_its_range_is_refused_at_the_first_such_state(
            self, monkeypatch):
        # at u = 1e14 exp's round-off moves V past 1; the distances are
        # refused at the first grid time whose V leaves [0, 1] by more than
        # the entry tolerance of a state, not clipped into range. The
        # oracle reads the rebuilt states with the range check off.
        ops = make_spin_operators(10)
        drive = ConstantInput(1e14, 11, ops)
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_TOL", np.inf)
            states = integrate_ensemble(eigenstate(ops, 1), drive, 2.0,
                                        1e-2).states
        v = 1 - states[:, 10, 10]
        first = np.flatnonzero((v < -1e-9) | (v > 1 + 1e-9))[0]
        with pytest.raises(NumericalFailureError,
                           match=r"^V = .* at t = ") as err:
            dynamics._flow_distances(eigenstate(ops, 1), drive, 2.0, 1e-2)
        assert err.value.time == first * 1e-2

    @pytest.mark.parametrize("f, u, t", [(11, 1e10, 0.05), (21, 1e8, 0.01)])
    def test_both_readers_refuse_the_same_v_at_the_same_time(self, f, u, t):
        # from eigenstate 1 at J = 10, T = 2: exp's round-off moves V past
        # 1 + 1e-9, by 1.1e-7 at t = 0.05 (f = 11) and 3.8e-9 at t = 0.01
        # (f = 21); the states are refused as the distances are, and the
        # message names a V that is past the tolerance, not one rounded to 1
        ops = make_spin_operators(10)
        args = (eigenstate(ops, 1), ConstantInput(u, f, ops), 2.0, 1e-2)
        times = []
        for reader in (integrate_ensemble, dynamics._flow_distances):
            with pytest.raises(NumericalFailureError,
                               match=r"^V = .* is outside") as err:
                reader(*args)
            assert float(str(err.value).split()[2]) > 1 + 1e-9
            times.append(err.value.time)
        assert times == [t, t]

    def test_horizon_too_large_for_memory_refused_before_rebuilding(
            self, monkeypatch):
        def rebuilt(*args):
            raise AssertionError("a block was rebuilt")

        monkeypatch.setattr(dynamics, "_rebuilt", rebuilt)
        with pytest.raises(ValueError, match=r"horizon T = 1e\+15 .*"
                                             r"does not fit in memory"):
            integrate_ensemble(eigenstate(self.ops, 1), self.drive, 1e15,
                               1e-2)

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
        # one QuantumState for the check of rho0, none per step
        assert len(built) == 1

    def test_blocks_hold_the_states_256_at_a_time(self):
        n_states, _, _, blocks = dynamics._flow_coefficients(
            eigenstate(self.ops, 1), self.drive, 5.12, 1e-2)
        assert n_states == 513
        assert [(lo, coef.shape[-1], len(v)) for lo, coef, v in blocks] == [
            (0, 256, 256), (256, 256, 256), (512, 1, 1)]
        traj = integrate_ensemble(eigenstate(self.ops, 1), self.drive, 5.12,
                                  1e-2)
        assert len(traj.states) == n_states
        np.testing.assert_allclose(
            traj.states, expm_states(eigenstate(self.ops, 1), 1.0, 1e-2, 512,
                                     self.ops), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_states", [2, 3, 5, 129, 255, 256, 257, 513])
    @pytest.mark.parametrize("J", [1, 10, 20])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_states_are_sequential_steps_by_e(self, n_states, J, complex_):
        # the doubling sweeps fill each block from its first state by the
        # powers of E; the oracle steps each state from the one before it.
        # The counts end blocks on a partial last sweep (3, 5, 129, 255), on
        # a full one (2, 256) and one state past an edge (257, 513).
        ops = make_spin_operators(J)
        rho0 = random_density(ops.dim, np.random.default_rng(J))
        if not complex_:
            rho0 = rho0.real.copy()
        dt_ode = 1e-2
        traj = integrate_ensemble(rho0, ConstantInput(-3.0, 1, ops),
                                  (n_states - 1) * dt_ode, dt_ode)
        assert traj.states.shape == (n_states, ops.dim, ops.dim)
        np.testing.assert_allclose(
            traj.states, sequential_flow_states(rho0, -3.0, dt_ode, n_states,
                                                ops),
            rtol=0, atol=1e-13)

    def test_numpy_error_state_is_the_callers_between_blocks(self):
        # building the map ignores overflow, which it reports itself; a
        # consumer reducing a block must see its own error state
        with np.errstate(all="print"):
            before = np.geterr()
            _, _, _, blocks = dynamics._flow_coefficients(
                eigenstate(self.ops, 1), self.drive, 5.12, 1e-2)
            seen = [np.geterr()]
            for _ in blocks:
                seen.append(np.geterr())
            seen.append(np.geterr())
        assert len(seen) == 5
        assert all(s == before for s in seen), seen

    def test_two_runs_consumed_alternately_keep_their_own_buffers(self):
        # a real start at N = 21 and a complex one at N = 41, 300 states
        # each, so both step a second block into their buffers; taken
        # block by block in turn, each run yields what it yields alone
        starts = []
        for J, complex_ in [(10, False), (20, True)]:
            ops = make_spin_operators(J)
            rho0 = random_density(ops.dim, np.random.default_rng(J))
            if not complex_:
                rho0 = rho0.real.copy()
            starts.append((rho0, ConstantInput(-3.0, 1, ops), 2.99, 1e-2))
        (n_a, _, _, run_a), (n_b, _, _, run_b) = (
            dynamics._flow_coefficients(*args) for args in starts)
        assert n_a == n_b == 300
        got = ([], [])
        for (_, a, _), (_, b, _) in zip(run_a, run_b, strict=True):
            got[0].append(a.copy())
            got[1].append(b.copy())
        for args, blocks, n_parts in zip(starts, got, (1, 2)):
            assert [b.shape[-1] for b in blocks] == [256, 44]
            assert all(len(b) == n_parts for b in blocks)
            alone = [b.copy()
                     for _, b, _ in dynamics._flow_coefficients(*args)[3]]
            for b, a in zip(blocks, alone, strict=True):
                np.testing.assert_array_equal(b, a)

    @pytest.mark.parametrize("J", [1, 10, 20])
    def test_map_of_one_part_is_part_0_of_the_map_of_two(self, J):
        # a real run forms only the symmetric blocks of E; each block is
        # scaled and squared by its own exponent, so they are the same bits
        ops = make_spin_operators(J)
        basis = dynamics._rank_basis(ops)
        for u in (0.0, 1.0, 30.0, 1e4):
            one = dynamics._flow_map(u, 1e-2, ops, basis, 1)
            two = dynamics._flow_map(u, 1e-2, ops, basis)
            assert one.shape == (1, *two.shape[1:]) == (1, *(ops.dim,) * 3)
            np.testing.assert_array_equal(one[0], two[0], err_msg=f"u={u}")

    @pytest.mark.parametrize("J", [1, 10, 20])
    def test_distances_from_the_coefficients_are_the_dense_expm_ones(self, J):
        # ode reads V and Q from the rank coefficients, never from matrices.
        # L maps real matrices to real ones, so the real start's oracle
        # states are the real parts of the complex start's: one dense
        # exp(dt L) serves both. The counts end a block on a partial sweep
        # (255), on a full one (256) and one state past an edge (257, 513).
        # V is held to 1e-14, not the 2e-15 ode is held to against
        # integrate_ensemble: at N = 3 the oracle's own V drifts 5.7e-15
        # from a 40-digit exp(dt L) over 512 steps, the coefficients' 5.6e-16.
        ops = make_spin_operators(J)
        rho0 = random_density(ops.dim, np.random.default_rng(J))
        oracle = expm_states(rho0, -3.0, 1e-2, 512, ops)
        for complex_ in (False, True):
            start, want = (rho0, oracle) if complex_ else (rho0.real,
                                                           oracle.real)
            want_V, want_Q = distance_V(want, J + 1), lyapunov_Q(want)
            for n_states in (255, 256, 257, 513):
                V, Q = dynamics._flow_distances(
                    start, ConstantInput(-3.0, J + 1, ops),
                    (n_states - 1) * 1e-2, 1e-2)
                assert len(V) == len(Q) == n_states
                assert np.abs(V - want_V[:n_states]).max() <= 1e-14
                q = want_Q[:n_states]
                assert np.all(np.abs(Q - q) <= 1e-14 + 1e-12 * q)
                assert np.all(np.diff(Q) <= 1e-12)

    def test_q_keeps_the_distance_of_a_start_whose_trace_is_off(self):
        # (1 + 1e-10) I/3 passes the entry checks and is a fixed point of
        # the flow; its whole distance from I/N, 3.3e-21, lies in the
        # rank-0 coefficient, which ode adds to the ranks k >= 1. The
        # defect 1e-10 holds only 6 digits of a double, so Q is held to 1e-4.
        start = (1 + 1e-10) * np.eye(3) / 3
        V, Q = dynamics._flow_distances(start, self.drive, 2.99, 1e-2)
        assert len(Q) == 300
        np.testing.assert_allclose(Q, lyapunov_Q(start), rtol=1e-4)
        np.testing.assert_allclose(V, distance_V(start, 3), rtol=0,
                                   atol=1e-15)


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

    @pytest.mark.parametrize("block", [512, 100])
    @pytest.mark.parametrize("switching", [False, True])
    def test_members_leave_at_many_steps_across_refills(self, monkeypatch,
                                                        singles, block,
                                                        switching):
        # 24 members leave one by one or a few at a time, at many steps of
        # one noise block and past its refill, which draws only for the
        # members left. Under the switching law (gamma = 0.1, feedback from
        # V <= 0.9) the members' inputs differ before they exit at V <= 0.85
        monkeypatch.setattr(dynamics, "_NOISE_BLOCK", block)
        ops = make_spin_operators(1)
        control, threshold = ((ControllerState(0.1, 2, ops), 0.85)
                              if switching
                              else (ConstantInput(1.0, 2, ops),
                                    self.THRESHOLD))

        def exits(streams):
            return dynamics._integrate_batch(
                eigenstate(ops, 1), control, 5.0, SdeStepConfig(), 41,
                streams, exit_threshold=threshold).first_below

        batch = exits(range(24))
        want = (singles[:24] if not switching else
                [exits([j])[0] for j in range(24)])
        np.testing.assert_array_equal(batch, want)
        steps = np.round(batch / SdeStepConfig().dt)
        per_block = [np.unique(steps[steps // block == b]).size
                     for b in np.unique(steps // block)]
        assert len(per_block) > 1 and max(per_block) > 1

    @pytest.mark.parametrize("stride", [0, 2.5])
    def test_bad_record_stride_refused(self, stride):
        # checked as on every other run, though an exit run keeps no records
        with pytest.raises(ValueError, match="record_stride must be"):
            self.run([0], stride)


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
