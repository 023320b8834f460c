"""Tests for the ensemble harness, exit-time estimation and mean-state checks."""

import concurrent.futures
import gc
import weakref

import numpy as np
import pytest

from helpers import random_density
from spinstab import montecarlo
from spinstab.controller import ConstantInput, new_controller
from spinstab.dynamics import SdeStepConfig, integrate_ensemble, simulate_batch
from spinstab.montecarlo import (
    compare_mean_vs_ode,
    default_workers,
    estimate_exit_time,
    run_ensemble,
)
from spinstab.quantum import (
    QuantumState,
    _dag,
    eigenstate,
    lyapunov_Q,
    make_spin_operators,
    maximally_mixed,
)

OPS3 = make_spin_operators(1)
CFG = SdeStepConfig(dt=1e-3, eta=1.0)
RHO1 = eigenstate(OPS3, 1)
DRIVE3 = ConstantInput(1.0, 3, OPS3)


class TestRunEnsemble:
    def test_single_member_reduces_to_trajectory(self):
        ctrl = new_controller(0.1, 3, OPS3)
        stats = run_ensemble(RHO1, ctrl, 2.0, CFG, M=1, base_seed=9,
                             record_stride=10)
        rec = simulate_batch(RHO1, ctrl, 2.0, CFG, 9, [0], record_stride=10)[0]
        np.testing.assert_array_equal(stats.times, rec.times)
        np.testing.assert_array_equal(stats.mean_V, rec.V)
        assert stats.final_V[0] == rec.V[-1]

    def test_reproducible_and_worker_independent(self):
        ctrl = new_controller(0.1, 3, OPS3)
        kw = dict(M=130, base_seed=3, record_stride=100)
        a = run_ensemble(RHO1, ctrl, 0.5, CFG, **kw, workers=1)
        b = run_ensemble(RHO1, ctrl, 0.5, CFG, **kw, workers=1)
        c = run_ensemble(RHO1, ctrl, 0.5, CFG, **kw, workers=2)
        for other in (b, c):
            np.testing.assert_array_equal(a.mean_V, other.mean_V)
            np.testing.assert_array_equal(a.mean_state, other.mean_state)
            np.testing.assert_array_equal(a.final_V, other.final_V)

    def test_eta_below_one_feedback_is_worker_independent(self):
        # from near the target at eta = 0.5 the members read feedback gains
        # off real forms; M = 65 gives a second worker a one-member task
        ops = make_spin_operators(2)
        psi = np.zeros(ops.dim)
        psi[2], psi[3] = 1.0, 0.05
        rho0 = np.outer(psi, psi) / (psi @ psi)
        ctrl = new_controller(0.1, 3, ops)
        cfg = SdeStepConfig(dt=1e-3, eta=0.5)
        kw = dict(M=65, base_seed=0, record_stride=100)
        a = run_ensemble(rho0, ctrl, 1.0, cfg, **kw, workers=1)
        b = run_ensemble(rho0, ctrl, 1.0, cfg, **kw, workers=2)
        np.testing.assert_array_equal(a.mean_V, b.mean_V)
        np.testing.assert_array_equal(a.mean_state, b.mean_state)
        np.testing.assert_array_equal(a.final_V, b.final_V)

    def test_fixed_input_mean_v_approaches_mixed_level(self):
        # the ensemble-average oracle: V of the averaged flow tends to 1 - 1/N
        stats = run_ensemble(RHO1, DRIVE3, 10.0, CFG, M=400, base_seed=11,
                             record_stride=200)
        assert stats.mean_V[-1] == pytest.approx(1 - 1 / 3, abs=0.05)

    def test_mean_state_valid_at_every_time(self):
        stats = run_ensemble(RHO1, DRIVE3, 1.0, CFG, M=64, base_seed=2,
                             record_stride=100)
        for i in range(len(stats.times)):
            st = QuantumState(stats.mean_state[i])
            assert isinstance(st, QuantumState)
        assert np.all(stats.mean_V >= 0) and np.all(stats.mean_V <= 1)
        assert np.all((stats.conv_frac >= 0) & (stats.conv_frac <= 1))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real",
                                                            "complex"])
    def test_mean_state_is_a_state_without_projection(self, complex_,
                                                       workers):
        # the plain average of the members' states, in the run's dtype:
        # exactly Hermitian, unit trace and PSD to round-off. random_density
        # is Hermitian to round-off only; the run starts from its exact
        # Hermitian part, so the t = 0 record is exact too. M = 130 is three
        # chunks, two tasks on two workers.
        rho0 = RHO1
        if complex_:
            rho0 = random_density(3, np.random.default_rng(5))
        stats = run_ensemble(rho0, DRIVE3, 1.0, CFG, M=130, base_seed=2,
                             record_stride=50, workers=workers)
        mean = stats.mean_state
        assert mean.dtype == (np.complex128 if complex_ else np.float64)
        assert (mean == _dag(mean)).all()
        trace = np.trace(mean, axis1=1, axis2=2)
        assert np.abs(trace - 1).max() <= 1e-13
        assert np.linalg.eigvalsh(mean).min() >= -1e-13

    def test_q_of_mean_state_nonincreasing_under_fixed_input(self):
        stats = run_ensemble(RHO1, DRIVE3, 4.0, CFG, M=300, base_seed=5,
                             record_stride=200)
        q = np.array([lyapunov_Q(stats.mean_state[i])
                      for i in range(len(stats.times))])
        assert np.all(np.diff(q) <= 0.02)  # statistical slack

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError, match="M"):
            run_ensemble(RHO1, DRIVE3, 1.0, CFG, M=0, base_seed=0)


class TestExitTime:
    def test_precondition_violated(self):
        # V(rho_(3)) = 0 <= 1 - gamma_a
        with pytest.raises(ValueError, match="V >"):
            estimate_exit_time(0.1, eigenstate(OPS3, 3), 3, OPS3, 10.0, CFG,
                               M=4, base_seed=0)

    def test_malformed_initial_state_rejected(self):
        with pytest.raises(ValueError, match="N x N with N = 3"):
            estimate_exit_time(0.1, np.ones(3), 3, OPS3, 1.0, CFG, M=2)

    def test_gamma_a_range_checked(self):
        for bad in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="gamma_a"):
                estimate_exit_time(bad, RHO1, 3, OPS3, 10.0, CFG, M=4,
                                   base_seed=0)

    def test_finite_exit_with_no_censoring_at_generous_cap(self):
        rep = estimate_exit_time(0.1, RHO1, 3, OPS3, 40.0, CFG, M=64,
                                 base_seed=21)
        assert rep.censored == 0
        assert not rep.inconclusive
        assert rep.mean is not None and rep.mean > 0
        assert rep.tau.size == 64
        assert np.all(rep.tau >= 0)
        assert rep.dynkin_bound is not None

    def test_all_censored_is_inconclusive(self):
        # a cap shorter than any plausible exit
        rep = estimate_exit_time(0.35, RHO1, 3, OPS3, 2 * CFG.dt, CFG, M=8,
                                 base_seed=1)
        assert rep.inconclusive
        assert rep.mean is None
        assert rep.censored == 8

    def test_coupled_monotonicity_in_gamma_a(self):
        """With shared noise, a deeper exit level (larger gamma_a) is reached
        no earlier, path by path."""
        shallow = estimate_exit_time(0.05, RHO1, 3, OPS3, 40.0, CFG, M=48,
                                     base_seed=13)
        deep = estimate_exit_time(0.2, RHO1, 3, OPS3, 40.0, CFG, M=48,
                                  base_seed=13)
        assert shallow.censored == 0 and deep.censored == 0
        assert np.all(shallow.tau <= deep.tau + 1e-12)
        assert shallow.mean <= deep.mean + 1e-12

    def test_dynkin_diagnostic_consistent(self):
        rep = estimate_exit_time(0.1, RHO1, 3, OPS3, 40.0, CFG, M=128,
                                 base_seed=17)
        slack = 2 * rep.stderr
        assert rep.mean <= rep.dynkin_bound + slack

    def test_worker_count_independent(self):
        # Two 64-member chunks. Target f = 2 lies next to the initial level,
        # so with gamma_a = 0.05 every path exits by t = 0.7 and the test
        # takes about a second.
        kw = dict(M=128, base_seed=23)
        one = estimate_exit_time(0.05, RHO1, 2, OPS3, 40.0, CFG, **kw,
                                 workers=1)
        two = estimate_exit_time(0.05, RHO1, 2, OPS3, 40.0, CFG, **kw,
                                 workers=2)
        assert one.tau.size == 128 and one.censored == two.censored == 0
        np.testing.assert_array_equal(one.tau, two.tau)

    def test_censored_paths_counted_in_diagnostic(self):
        rep = estimate_exit_time(0.1, RHO1, 3, OPS3, 1.0, CFG, M=64,
                                 base_seed=21)
        # some paths exit and at most half of tau lies above its median, so
        # p_hat < 1 and the bound exists even with censoring
        assert not rep.inconclusive and rep.dynkin_bound is not None
        if rep.censored:
            assert rep.dynkin_p_hat >= rep.censored / rep.M


class TestMeanVsOde:
    def test_mixed_initial_state_stays_at_equilibrium_on_average(self):
        # the averaged flow is exactly constant at I/N; individual paths
        # still diffuse, so the Monte Carlo gap is pure O(M^-1/2) noise
        dev = compare_mean_vs_ode(maximally_mixed(3), DRIVE3, 1.0, CFG, M=256,
                                  base_seed=4, record_stride=100)
        assert dev < 0.06

    def test_zero_input_diagonal_initial_state(self):
        # diagonal rho0: the averaged flow is frozen; the Monte Carlo mean
        # agrees within statistical tolerance
        rho0 = QuantumState(np.diag([0.5, 0.3, 0.2]).astype(complex))
        still = ConstantInput(0.0, 3, OPS3)
        assert np.abs(np.asarray(
            integrate_ensemble(rho0, still, 1.0, 1e-3).states[-1])
            - np.asarray(rho0)).max() < 1e-12
        dev = compare_mean_vs_ode(rho0, still, 1.0, CFG, M=200,
                                  base_seed=6, record_stride=100)
        assert dev < 0.1

    def test_moderate_ensemble_tracks_ode(self):
        dev = compare_mean_vs_ode(RHO1, DRIVE3, 2.0, CFG, M=300,
                                  base_seed=8, record_stride=100)
        assert dev < 0.1

    @pytest.mark.parametrize("J, u", [(1, 1e4), (10, 100.0)])
    def test_mean_tracks_ode_under_a_fast_rotation(self, J, u):
        # dt = 1e-3 at |u| far past the largest |u| at which Euler-Maruyama
        # is stable (about 3.8 at J = 10): Euler's mean stayed 0.91 and
        # 0.84 from the exact flow, and its states were projected into
        # plausible ones. The rotation is exact in the split step.
        ops = make_spin_operators(J)
        dev = compare_mean_vs_ode(eigenstate(ops, 1), ConstantInput(u, 1, ops),
                                  0.2, CFG, M=200, base_seed=0,
                                  record_stride=10)
        assert dev <= 0.1


class _InProcessPool:
    """Stand-in for ProcessPoolExecutor that maps in this process and
    records each pool's ``max_workers``, so no worker is started."""

    max_workers: list = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


class TestTasks:
    """How members are grouped into the tasks that one batch steps."""

    @pytest.fixture
    def tasks(self, monkeypatch):
        """The streams of each task run, in order; pools run in process."""
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _InProcessPool)
        monkeypatch.setattr(_InProcessPool, "max_workers", [])
        seen = []
        run = montecarlo._run_chunk

        def recording(task):
            seen.append(task["streams"])
            return run(task)

        monkeypatch.setattr(montecarlo, "_run_chunk", recording)
        return seen

    def test_pool_is_capped_at_the_task_count(self, tasks):
        ctrl = new_controller(0.1, 3, OPS3)
        kw = dict(M=128, base_seed=3, record_stride=100)
        many = run_ensemble(RHO1, ctrl, 0.01, CFG, **kw, workers=64)
        # two chunks: one task, and one process, per chunk
        assert _InProcessPool.max_workers == [2]
        assert tasks == [range(0, 64), range(64, 128)]
        one = run_ensemble(RHO1, ctrl, 0.01, CFG, **kw, workers=1)
        np.testing.assert_array_equal(many.mean_state, one.mean_state)

    @pytest.mark.parametrize("M, workers", [(1000, 1), (1000, 2), (150, 1),
                                            (150, 2), (64, 2)])
    def test_tasks_are_whole_chunks_up_to_the_stepping_width(self, tasks, M,
                                                             workers):
        estimate_exit_time(0.1, RHO1, 3, OPS3, 2 * CFG.dt, CFG, M=M,
                           workers=workers)
        n_chunks = -(-M // 64)
        assert [m for t in tasks for m in t] == list(range(M))
        assert len(tasks) == max(-(-n_chunks // 4), min(workers, n_chunks))
        for t in tasks:
            assert t.start % 64 == 0
            assert len(t) <= montecarlo._task_members(3) == 256
        pools = ([min(workers, len(tasks))] if len(tasks) > 1 and workers > 1
                 else [])
        assert _InProcessPool.max_workers == pools

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_task_is_dropped_before_the_next_starts(self, tasks,
                                                         monkeypatch, workers):
        # M = 256 at 64 members per task: four tasks. Each task's result and
        # its V record are garbage by the time the next task starts, so a
        # run holds one task's records at a time.
        monkeypatch.setattr(montecarlo, "_TASK_ENTRIES", 64 * 9)
        refs = []
        run = montecarlo._run_chunk

        def tracking(task):
            gc.collect()
            assert all(r() is None for pair in refs for r in pair)
            res = run(task)
            refs.append((weakref.ref(res), weakref.ref(res.V)))
            return res

        monkeypatch.setattr(montecarlo, "_run_chunk", tracking)
        stats = run_ensemble(RHO1, new_controller(0.1, 3, OPS3), 0.05, CFG,
                             M=256, base_seed=3, workers=workers)
        assert len(tasks) == len(refs) == 4
        assert stats.final_V.shape == (256,)

    @pytest.fixture(scope="class")
    def reference(self):
        """Statistics stepped one chunk per batch, in process."""
        with pytest.MonkeyPatch.context() as mp:
            return _width_outputs(mp, 64, 1)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("width", [64, 128, 256])
    def test_statistics_do_not_depend_on_width_or_workers(
            self, monkeypatch, reference, width, workers):
        for got, want in zip(_width_outputs(monkeypatch, width, workers),
                             reference, strict=True):
            np.testing.assert_array_equal(got, want)


def _width_outputs(monkeypatch, width, workers):
    """run_ensemble's statistics and estimate_exit_time's tau at N = 3 for
    M = 150 (two full chunks and one of 22 members), stepped at ``width``
    members per batch on ``workers``."""
    monkeypatch.setattr(montecarlo, "_TASK_ENTRIES", width * 9)
    assert montecarlo._task_members(3) == width
    stats = run_ensemble(RHO1, new_controller(0.1, 3, OPS3), 0.5, CFG, M=150,
                         base_seed=3, record_stride=100, workers=workers)
    rep = estimate_exit_time(0.05, RHO1, 2, OPS3, 40.0, CFG, M=150,
                             base_seed=23, workers=workers)
    assert rep.censored == 0
    return [stats.mean_state, stats.mean_V, stats.conv_frac, stats.final_V,
            rep.tau]


class TestDefaultWorkers:
    def test_reads_environment(self, monkeypatch):
        monkeypatch.delenv("SPINSTAB_WORKERS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("SPINSTAB_WORKERS", "2")
        assert default_workers() == 2

    def test_malformed_value_rejected(self, monkeypatch):
        for bad in ("two", "", "1.5", "0", "-3"):
            monkeypatch.setenv("SPINSTAB_WORKERS", bad)
            with pytest.raises(ValueError, match="SPINSTAB_WORKERS"):
                default_workers()

    @pytest.mark.parametrize("bad", [0, -3, 2.5, "2"])
    def test_malformed_argument_rejected(self, bad):
        with pytest.raises(ValueError, match="workers must be an integer"):
            run_ensemble(RHO1, DRIVE3, 0.01, CFG, M=2, workers=bad)


class TestIntegerArguments:
    """Each integer run parameter must be an integer in its range; a float,
    even an integral one, or a bool is rejected by name rather than run as
    some other integer."""

    @pytest.mark.parametrize("call, name", [
        (lambda: run_ensemble(RHO1, DRIVE3, 0.01, CFG, M=2.5), "M"),
        (lambda: run_ensemble(RHO1, DRIVE3, 0.01, CFG, M=True), "M"),
        (lambda: estimate_exit_time(0.1, RHO1, 3, OPS3, 0.01, CFG, M=2.5),
         "M"),
        (lambda: simulate_batch(RHO1, DRIVE3, 0.01, CFG, 0, [0],
                                record_stride=2.5), "record_stride"),
        (lambda: simulate_batch(RHO1, DRIVE3, 0.01, CFG, 0, [0],
                                record_stride=True), "record_stride"),
        (lambda: run_ensemble(RHO1, DRIVE3, 0.01, CFG, M=2, base_seed=2.5),
         "base_seed"),
        (lambda: run_ensemble(RHO1, DRIVE3, 0.01, CFG, M=2, base_seed=2.0),
         "base_seed"),
        (lambda: simulate_batch(RHO1, DRIVE3, 0.01, CFG, 0, [0, 0.5]),
         "stream"),
        (lambda: run_ensemble(RHO1, DRIVE3, 0.01, CFG, M=2, workers=True),
         "workers"),
    ], ids=["run_ensemble M=2.5", "run_ensemble M=True",
            "estimate_exit_time M=2.5", "simulate_batch record_stride=2.5",
            "simulate_batch record_stride=True", "run_ensemble base_seed=2.5",
            "run_ensemble base_seed=2.0", "simulate_batch stream 0.5",
            "run_ensemble workers=True"])
    def test_non_integer_rejected_naming_it(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()

    def test_numpy_and_negative_integers_keep_their_streams(self):
        ctrl = new_controller(0.1, 3, OPS3)
        want = run_ensemble(RHO1, ctrl, 0.3, CFG, M=3, base_seed=2**64 - 1)
        for seed in (-1, np.int64(-1)):
            got = run_ensemble(RHO1, ctrl, 0.3, CFG, M=np.int64(3),
                               base_seed=seed, record_stride=np.int32(1))
            np.testing.assert_array_equal(got.final_V, want.final_V)
