"""Command-line front end: configuration, experiment subcommands, CSV/JSON export.

Subcommands: ``simulate`` (closed-loop sample paths), ``ensemble``
(Monte Carlo statistics), ``exit-time`` (first-exit estimation under the
fixed drive) and ``ode`` (averaged dynamics). A run is configured by a
JSON file plus flag overrides; the resolved configuration is written next
to the outputs in canonical form so every artifact is reproducible from
its own directory. CSV numeric fields carry 17 significant digits.

The library checks every value it is given; the commands map its errors
to exit codes in one place. Exit codes: 0 success; 2 configuration error,
which is any ValueError the library raises on the resolved configuration
or a preset, config file, ``--initial`` file or control spec that cannot be
read; 3 numerical failure (a state became non-finite). A run that exits 2
or 3 writes no files.
"""

import csv
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import click
import numpy as np

from .controller import ConstantInput, new_controller
from .dynamics import (EPS_CONV, SdeStepConfig, integrate_ensemble,
                       simulate_batch)
from .montecarlo import estimate_exit_time, run_ensemble
from .quantum import (
    NumericalFailureError,
    QuantumState,
    distance_V,
    eigenstate,
    lyapunov_Q,
    make_spin_operators,
    maximally_mixed,
)

__all__ = ["SimConfig", "PRESETS", "load_config", "canonical_json", "main"]


class ConfigError(click.ClickException):
    exit_code = 2


class NumericalError(click.ClickException):
    exit_code = 3


@dataclass(frozen=True)
class SimConfig:
    """Resolved experiment configuration (one flat record, JSON-serializable).

    ``initial`` is a 1-based eigenstate index or a path to a ``.npy`` file
    holding an explicit density matrix. ``control`` is ``"mh"`` for the
    switching law or ``"constant:<value>"`` for a fixed input. ``gamma_a``
    only matters for exit-time runs, ``dt_ode`` and ``u_ode`` only for
    averaged-dynamics runs, which do not read ``dt`` or ``eta``.
    """

    J: float = 1.0
    gamma: float = 0.1
    f: int = 3
    initial: int | str = 1
    eta: float = 1.0
    dt: float = 1e-3
    T: float = 50.0
    M: int = 1
    base_seed: int = 0
    output: str = "out"
    record_stride: int = 1
    control: str = "mh"
    gamma_a: float | None = None
    dt_ode: float = 1e-2
    u_ode: float = 1.0


PRESETS: dict[str, dict] = {
    # Stabilization of the 21-level system (J=10) around the middle
    # eigenstate from the bottom one; switching parameter inside the
    # guaranteed range. All sample paths converge within the window.
    "fig1": dict(J=10.0, gamma=0.04, f=11, initial=1, eta=1.0, dt=1e-3,
                 T=10.0, M=3, base_seed=6, output="out_fig1",
                 record_stride=100),
    # Same system and window with the switching parameter far outside the
    # guaranteed range; at least one path hangs far from the target.
    "fig2": dict(J=10.0, gamma=0.4, f=11, initial=1, eta=1.0, dt=1e-3,
                 T=10.0, M=10, base_seed=6, output="out_fig2",
                 record_stride=100),
    # Small-system statistical check: high convergence fraction at the
    # horizon for gamma inside (0, 1/N).
    "acceptance-n3": dict(J=1.0, gamma=0.1, f=3, initial=1, eta=1.0, dt=1e-3,
                          T=50.0, M=100, base_seed=7, output="out_n3",
                          record_stride=50),
}

_FIELD_NAMES = {fld.name for fld in fields(SimConfig)}


def canonical_json(cfg: SimConfig) -> str:
    """Canonical serialized form (sorted keys, two-space indent, newline)."""
    return json.dumps(asdict(cfg), sort_keys=True, indent=2) + "\n"


def load_config(preset: str | None = None, config_path: str | None = None,
                overrides: dict | None = None) -> SimConfig:
    """Resolve defaults <- preset <- config file <- flag overrides."""
    values: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset '{preset}' (choose from {sorted(PRESETS)})")
        values.update(PRESETS[preset])
    if config_path is not None:
        try:
            raw = Path(config_path).read_text()
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ConfigError(
                f"{config_path}: line {e.lineno}, column {e.colno}: {e.msg}"
            ) from e
        if not isinstance(data, dict):
            raise ConfigError(f"{config_path}: top level must be an object")
        for key in data:
            if key not in _FIELD_NAMES:
                raise ConfigError(f"{config_path}: unknown config key '{key}'")
        values.update(data)
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    try:
        return SimConfig(**values)
    except TypeError as e:
        raise ConfigError(str(e)) from e


@contextmanager
def _library_errors():
    """Map a library ValueError to exit 2 and a NumericalFailureError to exit 3."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(str(e)) from e
    except NumericalFailureError as e:
        raise NumericalError(str(e)) from e


def _resolve(cfg: SimConfig):
    """Build (ops, rho0); the constructors check the values."""
    ops = make_spin_operators(cfg.J)
    if isinstance(cfg.initial, int) or (isinstance(cfg.initial, str)
                                        and cfg.initial.lstrip("-").isdigit()):
        return ops, eigenstate(ops, int(cfg.initial))
    path = Path(str(cfg.initial))
    if not path.exists():
        raise ConfigError(f"initial: no such matrix file '{path}'")
    return ops, QuantumState(np.load(path))


def _parse_control(cfg: SimConfig, ops):
    """Turn the control spec into a ControllerState or a ConstantInput."""
    if cfg.control == "mh":
        return new_controller(cfg.gamma, cfg.f, ops)
    if cfg.control.startswith("constant:"):
        return ConstantInput(float(cfg.control.split(":", 1)[1]), cfg.f, ops)
    raise ConfigError(
        f"control: expected 'mh' or 'constant:<value>', got '{cfg.control}'")


def _fmt(x) -> str:
    return f"{x:.17g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _prepare_output(cfg: SimConfig) -> Path:
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(canonical_json(cfg))
    return out


_CONFIG_OPTIONS = [
    click.option("--preset", type=click.Choice(sorted(PRESETS)), default=None,
                 help="Start from a named experiment preset."),
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="JSON configuration file."),
    click.option("--J", "J", type=float, default=None,
                 help="Total angular momentum (N = 2J+1)."),
    click.option("--gamma", type=float, default=None,
                 help="Switching parameter of the control law."),
    click.option("--f", "f", type=int, default=None,
                 help="Target eigenstate index (1-based)."),
    click.option("--initial", type=str, default=None,
                 help="Initial eigenstate index or .npy matrix file."),
    click.option("--eta", type=float, default=None,
                 help="Detector efficiency in (0, 1]."),
    click.option("--dt", type=float, default=None, help="Integrator step."),
    click.option("--T", "T", type=float, default=None, help="Horizon."),
    click.option("--M", "M", type=int, default=None,
                 help="Number of trajectories."),
    click.option("--seed", "base_seed", type=int, default=None,
                 help="Base seed; trajectory k uses stream (seed, k)."),
    click.option("--output", "-o", type=str, default=None,
                 help="Output directory."),
    click.option("--stride", "record_stride", type=int, default=None,
                 help="Record every k-th integration step."),
    click.option("--control", type=str, default=None,
                 help="'mh' or 'constant:<value>'."),
]


def _with_config_options(fn):
    for opt in reversed(_CONFIG_OPTIONS):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Feedback stabilization experiments for spin systems."""


@main.command()
@_with_config_options
def simulate(preset, config_path, **overrides):
    """Simulate closed-loop sample paths; one CSV per trajectory."""
    cfg = load_config(preset, config_path, overrides)
    with _library_errors():
        ops, rho0 = _resolve(cfg)
        records = simulate_batch(
            rho0, _parse_control(cfg, ops), cfg.T,
            SdeStepConfig(cfg.dt, cfg.eta), cfg.base_seed,
            list(range(cfg.M)), record_stride=cfg.record_stride)
    out = _prepare_output(cfg)
    for rec in records:
        path = out / f"trajectory_seed{cfg.base_seed}_stream{rec.stream}.csv"
        rows = ([_fmt(t), _fmt(v), _fmt(u), _fmt(p), m]
                for t, v, u, p, m in zip(rec.times, rec.V, rec.u,
                                         rec.purity, rec.modes))
        _write_csv(path, ["t", "V", "u", "purity", "mode"], rows)
        click.echo(f"{path}: final V = {rec.V[-1]:.3e} "
                   f"converged = {rec.converged}")


@main.command()
@_with_config_options
def ensemble(preset, config_path, **overrides):
    """Monte Carlo ensemble statistics (CSV series + JSON summary)."""
    cfg = load_config(preset, config_path, overrides)
    with _library_errors():
        ops, rho0 = _resolve(cfg)
        stats = run_ensemble(
            rho0, _parse_control(cfg, ops), cfg.T,
            SdeStepConfig(cfg.dt, cfg.eta), cfg.M,
            cfg.base_seed, record_stride=cfg.record_stride)
    out = _prepare_output(cfg)
    rows = ([_fmt(t), _fmt(v), _fmt(c)]
            for t, v, c in zip(stats.times, stats.mean_V, stats.conv_frac))
    _write_csv(out / "ensemble.csv", ["t", "mean_V", "conv_frac"], rows)
    summary = {
        "convergence_fraction": stats.convergence_fraction,
        "M": stats.M,
        "seed": stats.base_seed,
        "eps_conv": EPS_CONV,
        "mean_V_final": float(stats.mean_V[-1]),
        "failures": [[int(i), float(t)] for i, t in stats.failures],
    }
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    click.echo(f"convergence fraction at T = {cfg.T:g}: "
               f"{stats.convergence_fraction:.3f}")


@main.command("exit-time")
@_with_config_options
@click.option("--gamma-a", "gamma_a", type=float, default=None,
              help="Region parameter: exit when V <= 1 - gamma_a.")
def exit_time(preset, config_path, **overrides):
    """Estimate first-exit times of the far region under the fixed input."""
    cfg = load_config(preset, config_path, overrides)
    if cfg.gamma_a is None:
        raise ConfigError("gamma_a: required for exit-time runs")
    with _library_errors():
        ops, rho0 = _resolve(cfg)
        report = estimate_exit_time(cfg.gamma_a, rho0, cfg.f, ops, cfg.T,
                                    SdeStepConfig(cfg.dt, cfg.eta), cfg.M,
                                    cfg.base_seed)
    out = _prepare_output(cfg)
    payload = asdict(report)
    payload["tau"] = [float(t) for t in report.tau]
    (out / "exit_time.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if report.inconclusive:
        click.echo(f"inconclusive: all {report.M} paths censored at "
                   f"T = {cfg.T:g}")
    else:
        click.echo(f"mean exit time {report.mean:.4g} "
                   f"(censored {report.censored}/{report.M}, "
                   f"diagnostic bound {report.dynkin_bound:.4g})")


@main.command()
@_with_config_options
@click.option("--dt-ode", "dt_ode", type=float, default=None,
              help="RK4 step for the averaged dynamics.")
@click.option("--u", "u_ode", type=float, default=None,
              help="Fixed input for the averaged dynamics.")
def ode(preset, config_path, **overrides):
    """Integrate the averaged dynamics and export its distance diagnostics."""
    cfg = load_config(preset, config_path, overrides)
    with _library_errors():
        ops, rho0 = _resolve(cfg)
        control = ConstantInput(cfg.u_ode, cfg.f, ops)
        traj = integrate_ensemble(rho0, control, cfg.T, cfg.dt_ode)
        V = distance_V(traj.states, cfg.f)
    mixed = np.asarray(maximally_mixed(ops.dim))
    # Per row: a whole-array Q costs memory, a batched norm the last bits.
    rows = ([_fmt(t), _fmt(v), _fmt(lyapunov_Q(st)),
             _fmt(np.linalg.norm(st - mixed))]
            for t, v, st in zip(traj.times, V, traj.states))
    _write_csv(_prepare_output(cfg) / "ode.csv", ["t", "V", "Q", "mm_dist"],
               rows)
    final = np.linalg.norm(traj.states[-1] - mixed)
    click.echo(f"final |rho_bar - I/{ops.dim}|_F = {final:.6e}")


if __name__ == "__main__":
    main()
