"""Ensemble experiments: convergence statistics, mean-state checks, exit times.

Trajectory fan-out is embarrassingly parallel. Two sizes are kept apart:

* the reduction chunk, ``_CHUNK`` = 64 members: partial sums are taken per
  chunk and merged in chunk order, each task's as it returns, so the
  aggregate statistics are bit-identical no matter how the chunks are
  stepped or scheduled;
* the stepping width W (``_task_members``): one ``_integrate_batch`` call
  steps a task of up to W consecutive members, whole chunks, because a
  wider batch pays numpy's per-step overhead over more members.

A member's path does not depend on which members share its batch, and
per-trajectory noise is keyed by (base_seed, stream), so every number here
is a deterministic function of the configuration, whatever W and the
worker count.
"""

import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .controller import ConstantInput
from .dynamics import (EPS_CONV, SdeStepConfig, _BatchResult, _checked_rho0,
                       _integer, _integrate_batch, integrate_ensemble)
from .quantum import SpinOperators, distance_V

__all__ = [
    "EnsembleStats",
    "ExitTimeReport",
    "run_ensemble",
    "estimate_exit_time",
    "compare_mean_vs_ode",
    "default_workers",
]

# Members per reduction chunk. Fixed (not derived from the worker count or
# the stepping width) so that partial-sum merge order, and hence every
# statistic, is scheduling-free.
_CHUNK = 64

# Members x N^2 that one task holds at most, N^2 counting a member's real
# form at eta < 1 and its share of the records' state sums; sets the
# stepping width, see _task_members.
_TASK_ENTRIES = 4096


def default_workers() -> int:
    """Worker-process count from SPINSTAB_WORKERS (default 1 = in-process).

    Raises ValueError when the variable is not an integer >= 1.
    """
    raw = os.environ.get("SPINSTAB_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"SPINSTAB_WORKERS must be an integer >= 1, got {raw!r}")
    return workers


@dataclass
class EnsembleStats:
    """Aggregated trajectory statistics on the output grid.

    ``mean_state`` is the per-time average of the members' states, in the
    run's dtype: float64 from a real start, complex128 otherwise. An
    average of states is a state, so it is not projected. ``conv_frac``
    tracks the fraction of members with V below EPS_CONV at each time;
    ``convergence_fraction`` is its value at the horizon, and ``final_V``
    holds each member's V there, members 0..M-1 in order. ``failures`` is
    always empty: a member whose state becomes non-finite stops the whole
    run with NumericalFailureError. It is kept because the benchmark's
    ensemble check (``bench/workloads.py``) reads it.
    """

    times: np.ndarray
    mean_V: np.ndarray
    conv_frac: np.ndarray
    mean_state: np.ndarray
    final_V: np.ndarray
    convergence_fraction: float
    M: int
    base_seed: int
    failures: list


@dataclass
class ExitTimeReport:
    """Exit-time sample summary with the stopping-time diagnostic.

    ``tau`` holds the uncensored first times at which V dropped to
    1 - gamma_a; ``censored`` counts paths that never exited by the horizon.
    The diagnostic bound is T0 / (1 - p_hat) with T0 = ``dynkin_t0`` the
    median observed exit time and p_hat the fraction of all paths still
    inside after T0 (censored paths count as still inside).
    ``inconclusive`` is set when no path exited, in which case the mean, the
    standard error and the diagnostic are None.
    """

    gamma_a: float
    threshold: float
    tau: np.ndarray
    censored: int
    M: int
    mean: float | None
    stderr: float | None
    dynkin_t0: float | None
    dynkin_p_hat: float | None
    dynkin_bound: float | None
    inconclusive: bool
    base_seed: int
    T_cap: float


def _task_members(dim: int) -> int:
    """The stepping width W at dimension ``dim``: the widest batch of 64, 128,
    256, ... members of at most ``_TASK_ENTRIES`` entries at N^2 entries
    a member, and one chunk when even that is wider. It is 256 at N = 3,
    128 at N = 5 and 64 from N = 7 on.

    A step pays a fixed per-call overhead plus work per member, so a wider
    batch is cheaper per member while the overhead dominates; with every
    eta = 1 run stepped as a factor, at O(N^2) per member, it does at every
    N measured. Closed loop from eigenstate 1 to T = 1 with record stride
    50 (gamma = 0.1, f = 3 at N = 3, gamma = 0.5 / N and the middle level
    above; some member is in feedback mode at 1.5%, 9.4%, 1.3% and 0% of
    the records at N = 3, 5, 11 and 21), per member-step, median of 5
    interleaved runs on one CPU of a shared 2-vCPU Xeon VM with one BLAS
    thread: at N = 3, 0.61 us at W = 64, 0.30 at the rule's 256 and 0.25 at
    512; at N = 5, 0.49 at the rule's 128 and 0.37 at 256; at N = 11, 0.75
    at the rule's 64 and 0.48 at 256; at N = 21, 0.98 at the rule's 64,
    0.78 at 256 and 0.75 at 1024. The rule is kept for the records, which
    grow with W: a factor holds N c entries, but a task's records take R
    (25 W + 8 N^2 W / 64) bytes for R records from a real start, 334 MB at
    N = 3 and W = 256 for the CLI's default horizon, step and stride (T =
    50, dt = 1e-3, every step recorded), and 256 MB at N = 21 and W = 64,
    where W = 256 would hold 1 GB for a 1.3-fold faster step.
    """
    width = _CHUNK
    while 2 * width * dim * dim <= _TASK_ENTRIES:
        width *= 2
    return width


def _run_chunk(batch_kwargs: dict):
    return _integrate_batch(**batch_kwargs)


def _map_tasks(M: int, workers: int | None,
               **batch_kwargs) -> Iterator[_BatchResult]:
    """Integrate members 0..M-1, yielding the results one per task, in
    member order, each as soon as its task is done.

    The chunks are grouped into contiguous tasks of at most
    ``_task_members`` members, and into at least one task per worker while
    there are chunks to go round; the pool starts no more processes than
    there are tasks. In process, each task starts only when the caller asks
    for its result, so a caller that drops each result before asking for
    the next holds one task's records at a time. ``batch_kwargs`` are the
    arguments of ``_integrate_batch`` except ``streams``, which each task
    gets as its slice of 0..M-1. Raises ValueError, when the first result
    is asked for, unless ``M`` and ``workers`` are integers >= 1.
    """
    M = _integer(M, "M", 1)
    workers = _integer(default_workers() if workers is None else workers,
                       "workers", 1)
    n_chunks = -(-M // _CHUNK)
    per_task = _task_members(batch_kwargs["control"].ops.dim) // _CHUNK
    n_tasks = max(-(-n_chunks // per_task), min(workers, n_chunks))
    edges = [n_chunks * i // n_tasks * _CHUNK for i in range(n_tasks + 1)]
    tasks = [dict(batch_kwargs, streams=range(lo, min(hi, M)))
             for lo, hi in zip(edges, edges[1:])]
    if workers <= 1 or n_tasks <= 1:
        yield from map(_run_chunk, tasks)
        return
    # imported here, its one use, so that importing the package does not
    # load the process pool
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, n_tasks)) as pool:
        yield from pool.map(_run_chunk, tasks)


def run_ensemble(rho0, control, T: float, cfg: SdeStepConfig, M: int = 100,
                 base_seed: int = 0, *, record_stride: int = 1,
                 workers: int | None = None) -> EnsembleStats:
    """Run M trajectories and reduce them into ensemble statistics.

    ``control`` is a ControllerState (the switching law) or a ConstantInput
    (a fixed input); V is measured against its target. Each task's records
    are added into the sums as the task returns and then dropped, so in
    process a run holds one task's records at a time; a pool also holds
    those of tasks done ahead of their turn. Raises ValueError for an input
    outside its range and NumericalFailureError if any member's state
    becomes non-finite.
    """
    # Chunk by chunk, in chunk order, so no sum depends on the tasks. The
    # sums start at 0.0 and take their shapes from the first chunk.
    state_sum = v_sum = below_count = 0.0
    final_V = []
    for res in _map_tasks(
            M, workers, rho0=rho0, control=control,
            T=T, cfg=cfg, base_seed=base_seed,
            record_stride=record_stride, sum_chunk=_CHUNK):
        times = res.times
        for c, lo in enumerate(range(0, res.V.shape[1], _CHUNK)):
            v = res.V[:, lo:lo + _CHUNK]
            state_sum += res.state_sum[:, c]
            v_sum += np.sum(v, axis=1)
            below_count += np.sum(v < EPS_CONV, axis=1)
        # A copy: a view would keep the task's whole V record alive.
        final_V.append(res.V[-1].copy())
        # Drop the task's records before the next task runs.
        del res, v

    conv_frac = below_count / M
    return EnsembleStats(
        times=times, mean_V=v_sum / M, conv_frac=conv_frac,
        mean_state=state_sum / M, final_V=np.concatenate(final_V),
        convergence_fraction=float(conv_frac[-1]), M=M, base_seed=base_seed,
        failures=[])


def estimate_exit_time(gamma_a: float, rho0, f: int, ops: SpinOperators,
                       T_cap: float, cfg: SdeStepConfig, M: int = 100,
                       base_seed: int = 0, *,
                       workers: int | None = None) -> ExitTimeReport:
    """Estimate the first time V drops to 1 - gamma_a under the fixed input u = 1.

    The initial state must start strictly inside the far region
    (V(rho0) > 1 - gamma_a). Paths that have not exited by ``T_cap`` are
    censored: they are excluded from the sample mean but counted as "still
    inside" by the stopping-time diagnostic, whose horizon T0
    (``dynkin_t0``) is the median observed exit time. Estimates describe
    the given initial state only, not the worst case over the region. The
    members are stepped as an exit-time run, which keeps each member's exit
    time and nothing else and stops each member at its exit step. Raises
    ValueError for an input outside its range and NumericalFailureError if
    any member's state becomes non-finite.
    """
    control = ConstantInput(1.0, f, ops)
    if not 0.0 < gamma_a < 1.0:
        raise ValueError(f"gamma_a must be in (0, 1), got {gamma_a}")
    threshold = 1.0 - gamma_a
    rho0 = _checked_rho0(rho0, ops)
    v0 = distance_V(rho0, f)
    if v0 <= threshold:
        raise ValueError(
            f"initial state must satisfy V > {threshold:g}, got V = {v0:g}")

    exit_times = np.concatenate([res.first_below for res in _map_tasks(
        M, workers, rho0=rho0, control=control,
        T=T_cap, cfg=cfg, base_seed=base_seed, exit_threshold=threshold)])
    tau = np.sort(exit_times[~np.isnan(exit_times)])
    censored = int(np.isnan(exit_times).sum())

    mean = stderr = t0 = p_hat = bound = None
    if tau.size:
        mean = float(tau.mean())
        stderr = float(tau.std(ddof=1) / np.sqrt(tau.size)) if tau.size > 1 else None
        t0 = float(np.median(tau))
        # At most half of tau lies above its median, so p_hat < 1.
        p_hat = (int((tau > t0).sum()) + censored) / M
        bound = float(t0 / (1.0 - p_hat))
    return ExitTimeReport(
        gamma_a=gamma_a, threshold=threshold, tau=tau, censored=censored,
        M=M, mean=mean, stderr=stderr, dynkin_t0=t0, dynkin_p_hat=p_hat,
        dynkin_bound=bound, inconclusive=tau.size == 0,
        base_seed=base_seed, T_cap=T_cap)


def compare_mean_vs_ode(rho0, control, T: float, cfg: SdeStepConfig,
                        M: int, base_seed: int = 0, *,
                        record_stride: int = 1,
                        workers: int | None = None) -> float:
    """Max entrywise gap between the Monte Carlo mean state and the averaged ODE.

    ``control`` is a ConstantInput: for a fixed (state-independent) input
    the averaged dynamics propagates the exact mean. The flow is taken on
    the step grid of ``cfg.dt`` and read at the record times. The expected
    gap scales like O(M^-1/2 + dt).
    """
    stats = run_ensemble(rho0, control, T, cfg, M, base_seed,
                         record_stride=record_stride, workers=workers)
    ode = integrate_ensemble(rho0, control, T, cfg.dt)
    idx = np.round(stats.times / cfg.dt).astype(int)
    return float(np.max(np.abs(stats.mean_state - ode.states[idx])))
