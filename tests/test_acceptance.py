"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every criterion is also an ordinary test that fails loudly. The
stochastic experiments are fully seeded, so the numbers here are frozen.
"""

import warnings

import numpy as np
import pytest

from helpers import random_density
from spinstab.controller import ConstantInput, new_controller
from spinstab.dynamics import (
    EPS_CONV,
    SdeStepConfig,
    _control_step,
    _split_step,
    integrate_ensemble,
    simulate_batch,
    sme_diffusion,
    sme_drift,
)
from spinstab.montecarlo import compare_mean_vs_ode, estimate_exit_time, run_ensemble
from spinstab.quantum import (
    QuantumState,
    distance_V,
    eigenstate,
    lyapunov_Q,
    make_spin_operators,
)

CFG = SdeStepConfig(dt=1e-3, eta=1.0)


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_small_system_convergence_fraction():
    """N=3, gamma=0.1 < 1/3: at least 95% of paths converged at T=50."""
    ops = make_spin_operators(1)
    rho0 = eigenstate(ops, 1)
    ctrl = new_controller(0.1, 3, ops)
    stats = run_ensemble(rho0, ctrl, 50.0, CFG, M=100, base_seed=7,
                         record_stride=50)
    frac = stats.convergence_fraction
    report("criterion 1 (small-system convergence)", frac >= 0.95,
           f"convergence fraction {frac:.3f} (need >= 0.95), M=100, T=50")


@pytest.fixture(scope="module")
def fig1_records():
    """The three guaranteed-range sample paths (J=10, gamma=0.04, T=10)."""
    ops = make_spin_operators(10)
    rho0 = eigenstate(ops, 1)
    ctrl = new_controller(0.04, 11, ops)
    return simulate_batch(rho0, ctrl, 10.0, CFG, 6, [0, 1, 2],
                          record_stride=100)


def test_criterion_02_all_paths_converge_inside_guaranteed_range(fig1_records):
    """J=10, gamma=0.04 < 1/21: three sample paths all reach V < 0.01."""
    reach_times = [r.first_time_below for r in fig1_records]
    ok = all(t is not None for t in reach_times)
    report("criterion 2 (guaranteed-range sample paths)", ok,
           f"first times below 0.01: {reach_times} within T=10")


def _final_v(gamma: float, streams) -> np.ndarray:
    """V(T=10) of the J=10, f=11 switching law from eigenstate 1 at the
    given gamma >= 1/21, one per stream of base seed 6."""
    ops = make_spin_operators(10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        ctrl = new_controller(gamma, 11, ops)
    recs = simulate_batch(eigenstate(ops, 1), ctrl, 10.0, CFG, 6,
                          list(streams), record_stride=1000)
    return np.array([r.V[-1] for r in recs])


def test_criterion_03_large_gamma_shows_straggler():
    """gamma=0.8 >= 1/21 over 20 streams: at most one path converged
    (V(T) < EPS_CONV) at T=10 and mean V(T) >= 0.5. The fig2 paths
    (gamma=0.4, 10 streams) are printed as information only: under an
    accurate step none of them is a straggler."""
    fig2 = _final_v(0.4, range(10))
    print(f"criterion 3 (information): fig2 gamma=0.4, max final V "
          f"{fig2.max():.3f}, converged fraction "
          f"{np.mean(fig2 < EPS_CONV):.2f}")
    final_v = _final_v(0.8, range(20))
    converged = int(np.sum(final_v < EPS_CONV))
    ok = converged <= 1 and final_v.mean() >= 0.5
    report("criterion 3 (outside-range stragglers)", ok,
           f"gamma=0.8: {converged}/20 converged (need <= 1), mean final V "
           f"{final_v.mean():.3f} (need >= 0.5)")


def test_criterion_04_averaged_flow_reaches_mixed_state():
    """Averaged dynamics with u=1 lands within 1e-6 of I/N (N=3 and 5)."""
    details = []
    ok = True
    for J, n in ((1, 3), (2, 5)):
        ops = make_spin_operators(J)
        rho0 = eigenstate(ops, 1)
        target = np.eye(n) / n
        horizon, gap = None, None
        T = 20.0
        while T <= 320.0:
            traj = integrate_ensemble(rho0, ConstantInput(1.0, n, ops), T,
                                      1e-2)
            gap = float(np.linalg.norm(np.asarray(traj.states[-1]) - target))
            if gap < 1e-6:
                horizon = T
                break
            T *= 2
        ok = ok and horizon is not None
        details.append(f"N={n}: gap {gap:.2e} at T={horizon}")
    report("criterion 4 (mixed-state limit)", ok, "; ".join(details))


def test_criterion_05_lyapunov_derivative_identity():
    """dQ/dt matches -|[F_z, rho]|_F^2 to 1e-6 relative at interior points."""
    ops = make_spin_operators(1)
    dt = 5e-3
    traj = integrate_ensemble(eigenstate(ops, 1), ConstantInput(1.0, 3, ops),
                              5.0, dt)
    q = np.array([lyapunov_Q(st) for st in traj.states])
    exact = np.array([
        -np.linalg.norm(ops.f_z @ np.asarray(st) - np.asarray(st) @ ops.f_z) ** 2
        for st in traj.states])
    fd = (q[:-4] - 8 * q[1:-3] + 8 * q[3:-1] - q[4:]) / (12 * dt)
    inner = exact[2:-2]
    mask = np.abs(inner) >= 1e-2
    rel = np.abs(fd[mask] - inner[mask]) / np.abs(inner[mask])
    ok = bool(mask.sum() > 100 and rel.max() < 1e-6)
    report("criterion 5 (Lyapunov derivative identity)", ok,
           f"max relative error {rel.max():.2e} over {int(mask.sum())} points")


def test_criterion_06_monte_carlo_mean_matches_averaged_flow():
    """u=1, N=3, M=1000: mean state within 0.05 of the ODE, entrywise."""
    ops = make_spin_operators(1)
    dev = compare_mean_vs_ode(eigenstate(ops, 1), ConstantInput(1.0, 3, ops),
                              4.0, CFG, M=1000, base_seed=20,
                              record_stride=100)
    report("criterion 6 (mean-dynamics oracle)", dev < 0.05,
           f"max entrywise deviation {dev:.4f} (need < 0.05)")


def test_criterion_07_structure_preservation_bulk():
    """1e5 split steps: zero invariant violations; terms traceless."""
    rng = np.random.default_rng(77)
    ops_by_dim = {2: make_spin_operators(0.5), 3: make_spin_operators(1),
                  5: make_spin_operators(2), 21: make_spin_operators(10)}
    herm_bad = tr_bad = psd_bad = 0
    worst_trace = 0.0
    total = 0

    def run_block(n, count, cfg):
        """Draw ``count`` (state, u, dw) triples, one triple at a time, then
        check the terms and take the step on all of them as one batch."""
        nonlocal herm_bad, tr_bad, psd_bad, worst_trace, total
        ops = ops_by_dim[n]
        rho = np.empty((count, n, n), dtype=complex)
        u = np.empty(count)
        dw = np.empty(count)
        for i in range(count):
            rho[i] = random_density(n, rng)
            u[i] = rng.uniform(-2, 2)
            dw[i] = rng.normal(0.0, np.sqrt(cfg.dt))
        tr_d = np.abs(np.trace(sme_drift(rho, u, ops), axis1=-2, axis2=-1))
        tr_b = np.abs(np.trace(sme_diffusion(rho, ops, cfg.eta), axis1=-2,
                               axis2=-1))
        worst_trace = max(worst_trace, tr_d.max(), tr_b.max())
        out = _split_step(cfg, ops)(rho, u, dw)
        herm_bad += np.sum(np.linalg.norm(out - out.conj().swapaxes(-1, -2),
                                          axis=(-2, -1)) > 1e-9)
        tr_bad += np.sum(np.abs(np.trace(out, axis1=-2, axis2=-1) - 1.0) > 1e-9)
        psd_bad += np.sum(np.linalg.eigvalsh(out).min(axis=-1) < -1e-9)
        total += count

    for n, count in ((2, 33000), (3, 33000), (5, 32000), (21, 2000)):
        run_block(n, count, CFG)
    ok = (herm_bad == tr_bad == psd_bad == 0 and worst_trace <= 1e-12
          and total == 100_000)
    report("criterion 7 (structure preservation)", ok,
           f"{total} steps, violations H/T/P = {herm_bad}/{tr_bad}/{psd_bad}, "
           f"max |trace| of terms {worst_trace:.2e}")


def test_criterion_08_exact_equilibrium_at_target():
    """1000 closed-loop steps at the target leave the state bit-stable."""
    details = []
    ok = True
    for J, f in ((1, 3), (10, 11)):
        ops = make_spin_operators(J)
        target = np.asarray(eigenstate(ops, f))
        ctrl = new_controller(0.04 if J == 10 else 0.1, f, ops)
        step = _split_step(CFG, ops)
        rng = np.random.default_rng(5)
        rho = target
        feedback = False  # every trajectory starts in the constant mode
        worst = 0.0
        for _ in range(1000):
            feedback, u = _control_step(ctrl, feedback, distance_V(rho, f),
                                        rho)
            assert u == 0.0
            assert feedback
            rho = step(rho, u, rng.normal(0, np.sqrt(CFG.dt)))
            worst = max(worst, float(np.abs(rho - target).max()))
        ok = ok and worst <= 1e-14
        details.append(f"J={J}: max drift {worst:.1e}")
    report("criterion 8 (equilibrium exactness)", ok, "; ".join(details))


def test_criterion_09_exit_time_diagnostic():
    """N=3, gamma_a=0.1, u=1: no censored paths and mean tau consistent
    with the stopping-time bound within two standard errors."""
    ops = make_spin_operators(1)
    rho0 = eigenstate(ops, 1)
    rep = estimate_exit_time(0.1, rho0, 3, ops, 50.0, CFG, M=1000,
                             base_seed=31)
    ok = (rep.censored == 0 and not rep.inconclusive
          and rep.mean <= rep.dynkin_bound + 2 * rep.stderr)
    report("criterion 9 (exit-time diagnostic)", ok,
           f"censored {rep.censored}/1000, mean tau {rep.mean:.3f} +- "
           f"{rep.stderr:.3f}, bound {rep.dynkin_bound:.3f}")


def test_criterion_10_hysteresis_branch_table():
    """Scripted V-sequences exercise every switching branch exactly."""
    ops = make_spin_operators(1)
    gamma = 0.2  # band is (0.8, 0.9)
    FEEDBACK, CONSTANT = True, False  # the loop's mode flag

    def state_with_v(v):
        d = np.array([v / 2, v / 2, 1.0 - v])
        return QuantumState(np.diag(d).astype(complex))

    # each row: V, expected mode after the update, expected input
    table = [
        (1.00, CONSTANT, 1.0),   # far region forces the drive
        (0.85, CONSTANT, 1.0),   # entered band from above: latched
        (0.89, CONSTANT, 1.0),   # wanders inside the band
        (0.81, CONSTANT, 1.0),   # still latched near the lower edge
        (0.80, FEEDBACK, 0.0),   # closed boundary V = 1-gamma
        (0.85, FEEDBACK, 0.0),   # re-entered band from below: latched
        (0.89, FEEDBACK, 0.0),   # holds feedback through the band
        (0.90, CONSTANT, 1.0),   # closed boundary V = 1-gamma/2
        (0.85, CONSTANT, 1.0),   # band again, latched constant
        (0.10, FEEDBACK, 0.0),   # deep feedback region
        (0.85, FEEDBACK, 0.0),   # band entered from below once more
    ]
    ctrl = new_controller(gamma, 3, ops)
    feedback = CONSTANT  # every trajectory starts in the constant mode
    ok = True
    failures = []
    for i, (v, want_mode, want_u) in enumerate(table):
        rho = state_with_v(v)
        assert distance_V(rho, 3) == pytest.approx(v, abs=1e-12)
        feedback, u = _control_step(ctrl, feedback, distance_V(rho, 3), rho)
        if feedback != want_mode or u != want_u:
            ok = False
            mode = "feedback" if feedback else "constant"
            failures.append(f"step {i} V={v}: got ({mode}, {u})")
    report("criterion 10 (hysteresis branch table)", ok,
           "all branches as scripted" if ok else "; ".join(failures))
