"""The benchmark workloads: inputs built from a seed, one operation, its checks.

Each workload is one call a user of ``spinstab`` makes: a library call for
the Monte Carlo experiments, an in-process ``spinstab`` command for the CLI
runs. ``build`` turns a seed into the inputs of a timed call, ``op`` makes
the call, and ``check`` validates what it produced. Where the paper's claim
needs a longer horizon than a timed call covers, ``claim`` builds the inputs
of one longer call per run whose output ``check`` also holds to that claim.
Why each workload exists is written down in ``bench/README.md``.
"""

import csv
import hashlib
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from spinstab import cli
from spinstab.controller import new_controller
from spinstab.dynamics import SdeStepConfig
from spinstab.montecarlo import estimate_exit_time, run_ensemble
from spinstab.quantum import eigenstate, make_spin_operators

STEP = SdeStepConfig(dt=1e-3, eta=1.0)

# ensemble-n3: the criterion-1 system (J=1, gamma=0.1, f=3) with two full
# 64-member chunks. Timed calls stop at T=1; the claim call runs to T=5,
# about the median time to converge.
ENS_M, ENS_T, ENS_CLAIM_T, ENS_STRIDE = 128, 1.0, 5.0, 50
# Convergence fraction at T=5 pooled over 2048 members (16 base seeds
# 900001..900016, M=128 each): 1065 converged. The floor sits four binomial
# standard errors below it, counting the error of the reference as well.
ENS_P_REF, ENS_M_REF = 1065 / 2048, 2048
ENS_FLOOR = ENS_P_REF - 4.0 * math.sqrt(
    ENS_P_REF * (1.0 - ENS_P_REF) * (1.0 / ENS_M + 1.0 / ENS_M_REF))

# paths-n21: the fig2 preset (J=10, M=10) cut to T=0.5.
PATHS_T, PATHS_M, PATHS_STRIDE = 0.5, 10, 100

# exit-n3: the criterion-9 experiment with M=128 (one 64-member chunk per
# worker) instead of 1000.
EXIT_M, EXIT_GAMMA_A, EXIT_T_CAP = 128, 0.1, 50.0

# ode-j10: deterministic, so the seed does not enter its inputs. Timed
# calls stop at T=20; the claim call runs to T=80.
ODE_J, ODE_F, ODE_T, ODE_CLAIM_T, ODE_DT = 10.0, 11, 20.0, 80.0, 1e-2
# Criterion 4's tolerance for "the averaged flow reaches I/N".
ODE_MIXED_TOL = 1e-6
# |rho - I/N|_F^2 = Q is non-increasing along the averaged flow
# (dQ/dt = -|[F_z, rho]|_F^2); allow round-off only.
ODE_MONOTONE_TOL = 1e-12

# Round-off allowed outside the closed ranges of V and purity.
RANGE_TOL = 1e-12


@dataclass
class Outcome:
    """What the checks make of one operation's output."""

    work: int                 # member-steps, the numerator of member_steps_per_s
    problems: list[str]       # one entry per failed check; empty when correct
    digest: str               # identifies the output bit for bit
    bytes_written: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    workers: int
    root_span: str            # layer boundary the benchmark calls into
    build: Callable[[int], dict]
    op: Callable[[dict, Path, int], object]
    check: Callable[[dict, object, Path], Outcome]
    claim: Callable[[int], dict] | None = None


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _check_values(problems, label, values, lo, hi, lo_open=False):
    """Append a problem unless every value is finite and inside [lo, hi]."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        problems.append(f"{label}: non-finite value")
        return
    low_ok = values > lo if lo_open else values >= lo - RANGE_TOL
    if not np.all(low_ok & (values <= hi + RANGE_TOL)):
        bracket = "(" if lo_open else "["
        problems.append(f"{label}: value outside {bracket}{lo}, {hi}]: "
                        f"min {values.min():.3e} max {values.max():.3e}")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


# ensemble-n3 -----------------------------------------------------------------

def _ensemble_build(seed: int, T: float = ENS_T,
                    floor: float | None = None) -> dict:
    ops = make_spin_operators(1.0)
    rho0 = eigenstate(ops, 1)
    return dict(rho0=rho0, control=new_controller(0.1, 3, ops, rho0),
                seed=seed, T=T, floor=floor)


def _ensemble_op(inp: dict, workdir: Path, workers: int):
    return run_ensemble(inp["rho0"], inp["control"], inp["T"], STEP, M=ENS_M,
                        base_seed=inp["seed"], record_stride=ENS_STRIDE,
                        workers=workers)


def _ensemble_check(inp: dict, stats, workdir: Path) -> Outcome:
    problems: list[str] = []
    _check_values(problems, "mean_V", stats.mean_V, 0.0, 1.0)
    _check_values(problems, "final_V", stats.final_V, 0.0, 1.0)
    purity = np.sum(np.abs(stats.mean_state) ** 2, axis=(-2, -1))
    _check_values(problems, "mean-state purity", purity, 0.0, 1.0, lo_open=True)
    if stats.failures:
        problems.append(f"{len(stats.failures)} members lost the state space")
    floor = inp["floor"]
    if floor is not None and not stats.convergence_fraction >= floor:
        problems.append(f"convergence fraction {stats.convergence_fraction:.3f}"
                        f" below floor {floor:.3f}")
    return Outcome(work=ENS_M * round(inp["T"] / STEP.dt), problems=problems,
                   digest=_digest(stats.mean_V, stats.final_V,
                                  stats.mean_state))


# paths-n21 -------------------------------------------------------------------

def _paths_build(seed: int) -> dict:
    return dict(seed=seed, argv=["simulate", "--preset", "fig2",
                                 "--T", repr(PATHS_T), "--seed", str(seed)])


def _cli_op(inp: dict, workdir: Path, workers: int):
    return cli.main.main(args=[*inp["argv"], "-o", str(workdir)],
                         prog_name="spinstab", standalone_mode=False)


def _paths_check(inp: dict, _result, workdir: Path) -> Outcome:
    problems: list[str] = []
    n_rows = round(PATHS_T / STEP.dt) // PATHS_STRIDE + 1
    h = hashlib.sha256()
    for stream in range(PATHS_M):
        path = workdir / f"trajectory_seed{inp['seed']}_stream{stream}.csv"
        if not path.is_file():
            problems.append(f"{path.name}: missing")
            continue
        h.update(path.read_bytes())
        header, rows = _read_csv(path)
        if header != ["t", "V", "u", "purity", "mode"] or len(rows) != n_rows:
            problems.append(f"{path.name}: header {header}, {len(rows)} rows "
                            f"(want {n_rows})")
            continue
        nums = np.array([r[:4] for r in rows], dtype=float)
        _check_values(problems, f"{path.name} t,u", nums[:, [0, 2]],
                      -np.inf, np.inf)
        _check_values(problems, f"{path.name} V", nums[:, 1], 0.0, 1.0)
        _check_values(problems, f"{path.name} purity", nums[:, 3], 0.0, 1.0,
                      lo_open=True)
        if not {r[4] for r in rows} <= {"feedback", "constant"}:
            problems.append(f"{path.name}: unknown controller mode")
    return Outcome(work=PATHS_M * round(PATHS_T / STEP.dt), problems=problems,
                   digest=h.hexdigest(), bytes_written=_dir_bytes(workdir))


# exit-n3 ---------------------------------------------------------------------

def _exit_build(seed: int) -> dict:
    ops = make_spin_operators(1.0)
    return dict(ops=ops, rho0=eigenstate(ops, 1), seed=seed)


def _exit_op(inp: dict, workdir: Path, workers: int):
    return estimate_exit_time(EXIT_GAMMA_A, inp["rho0"], 3, inp["ops"],
                              EXIT_T_CAP, STEP, M=EXIT_M,
                              base_seed=inp["seed"], workers=workers)


def _exit_check(inp: dict, rep, workdir: Path) -> Outcome:
    problems: list[str] = []
    if rep.inconclusive or rep.censored:
        problems.append(f"censored {rep.censored}/{rep.M} paths")
    elif rep.dynkin_bound is None or rep.stderr is None:
        problems.append("no stopping-time bound or standard error")
    else:
        _check_values(problems, "tau", rep.tau, 0.0, EXIT_T_CAP, lo_open=True)
        # Criterion 9: the mean lies within the stopping-time bound plus
        # two standard errors.
        if not rep.mean <= rep.dynkin_bound + 2.0 * rep.stderr:
            problems.append(f"mean tau {rep.mean:.3f} above bound "
                            f"{rep.dynkin_bound:.3f} + 2 x {rep.stderr:.3f}")
    work = round(float(np.sum(rep.tau)) / STEP.dt)
    return Outcome(work=work, problems=problems, digest=_digest(rep.tau))


# ode-j10 ---------------------------------------------------------------------

def _ode_build(seed: int, T: float = ODE_T, claim: bool = False) -> dict:
    return dict(seed=seed, T=T, claim=claim,
                argv=["ode", "--J", repr(ODE_J), "--f", str(ODE_F),
                      "--T", repr(T)])


def _ode_check(inp: dict, _result, workdir: Path) -> Outcome:
    problems: list[str] = []
    path = workdir / "ode.csv"
    T = inp["T"]
    n_rows = round(T / ODE_DT) + 1
    header, rows = _read_csv(path)
    if header != ["t", "V", "Q", "mm_dist"] or len(rows) != n_rows:
        problems.append(f"ode.csv: header {header}, {len(rows)} rows "
                        f"(want {n_rows})")
    else:
        nums = np.array(rows, dtype=float)
        dim = round(2 * ODE_J) + 1
        _check_values(problems, "t", nums[:, 0], 0.0, T)
        _check_values(problems, "V", nums[:, 1], 0.0, 1.0)
        _check_values(problems, "purity", nums[:, 2] + 1.0 / dim, 0.0, 1.0,
                      lo_open=True)
        dist = nums[:, 3]
        _check_values(problems, "mm_dist", dist, 0.0, np.inf)
        rise = float(np.max(np.diff(dist)))
        if not rise <= ODE_MONOTONE_TOL:
            problems.append(f"distance to I/N rose by {rise:.3e}")
        if inp["claim"] and not dist[-1] <= ODE_MIXED_TOL:
            problems.append(f"distance to I/N at T={T:g} is "
                            f"{dist[-1]:.3e} > {ODE_MIXED_TOL:g}")
    return Outcome(work=round(T / ODE_DT), problems=problems,
                   digest=hashlib.sha256(path.read_bytes()).hexdigest(),
                   bytes_written=_dir_bytes(workdir))


WORKLOADS = {w.name: w for w in (
    Workload("ensemble-n3", 7, 1, "montecarlo.run_ensemble",
             _ensemble_build, _ensemble_op, _ensemble_check,
             partial(_ensemble_build, T=ENS_CLAIM_T, floor=ENS_FLOOR)),
    Workload("paths-n21", 6, 1, "cli.command",
             _paths_build, _cli_op, _paths_check),
    Workload("exit-n3", 31, 2, "montecarlo.estimate_exit_time",
             _exit_build, _exit_op, _exit_check),
    Workload("ode-j10", 0, 1, "cli.command",
             _ode_build, _cli_op, _ode_check,
             partial(_ode_build, T=ODE_CLAIM_T, claim=True)),
)}
