"""Command-line front end: configuration, experiment subcommands, CSV/JSON export.

Subcommands: ``simulate`` (closed-loop sample paths), ``ensemble``
(Monte Carlo statistics), ``exit-time`` (first-exit estimation under the
fixed drive) and ``ode`` (averaged dynamics). A run is configured by a
preset, a JSON file and flag overrides, any of which may set any
``SimConfig`` field; each subcommand takes the flags of the fields it reads
and writes those fields, resolved, next to its outputs in canonical form
(``config.json``), so every artifact is reproducible from its own
directory. One writer, ``_write_csv``, exports every CSV: numbers carry 17
significant digits (``_FLOAT``), mode labels are written as they are, and
each chunk of rows is one ``%`` format of a row template, without
per-value Python calls.

The library checks every value it is given; the commands map its errors
to exit codes in one place. Exit codes: 0 success; 2 configuration error,
which is a flag the subcommand does not take, any ValueError the library
raises on the resolved configuration, an allocation that does not fit in
memory, or a preset, config file (unknown key, value of the wrong type),
``--initial`` file or control spec that cannot be read; 3 numerical
failure (a state, or the averaged flow's map exp(dt_ode L), became
non-finite). A run that exits 2 or 3 writes no files; a library warning
reaches stderr as one ``warning:`` line.
"""

import json
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import get_args

import click
import numpy as np

from .controller import ConstantInput, new_controller
from .dynamics import (EPS_CONV, SdeStepConfig, _flow_distances,
                       simulate_batch)
# ``ode`` steps through ``_flow_distances``; ``integrate_ensemble`` stays a
# module attribute because bench/tracing.py wraps it under this name.
from .dynamics import integrate_ensemble  # noqa: F401
from .montecarlo import estimate_exit_time, run_ensemble
from .quantum import NumericalFailureError, eigenstate, make_spin_operators

__all__ = ["SimConfig", "PRESETS", "load_config", "canonical_json", "main"]


class ConfigError(click.ClickException):
    exit_code = 2


class NumericalError(click.ClickException):
    exit_code = 3


@dataclass(frozen=True)
class SimConfig:
    """Resolved experiment configuration; ``_FLAGS`` describes each field."""

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


# Every SimConfig field: (its space-separated flags, help text). Its option
# takes its type from the field's annotation: str where that admits str,
# and its first type otherwise.
_FLAGS = {
    "J": ("--J", "Total angular momentum (N = 2J+1)."),
    "gamma": ("--gamma", "Switching parameter of the control law."),
    "f": ("--f", "Target eigenstate index (1-based)."),
    "initial": ("--initial", "Initial eigenstate index or .npy file."),
    "eta": ("--eta", "Detector efficiency in (0, 1]."),
    "dt": ("--dt", "Step of the stochastic integrator."),
    "T": ("--T", "Horizon."),
    "M": ("--M", "Number of trajectories."),
    "base_seed": ("--seed", "Base seed; member k uses stream (seed, k)."),
    "output": ("--output -o", "Output directory."),
    "record_stride": ("--stride", "Record every k-th integration step."),
    "control": ("--control", "'mh' or 'constant:<value>'."),
    "gamma_a": ("--gamma-a", "Exit when V <= 1 - gamma_a."),
    "dt_ode": ("--dt-ode", "Output spacing of the averaged dynamics."),
    "u_ode": ("--u", "Fixed input for the averaged dynamics."),
}

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

# The types each field's annotation admits; load_config also takes an int
# for a float, and converts it.
_FIELD_TYPES = {fld.name: get_args(fld.type) or (fld.type,)
                for fld in fields(SimConfig)}


def canonical_json(values: dict) -> str:
    """Canonical serialized form (sorted keys, two-space indent, newline)."""
    return json.dumps(values, sort_keys=True, indent=2) + "\n"


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
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{config_path}: unknown config key '{key}'")
        values.update(data)
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    for key, val in values.items():
        kinds = _FIELD_TYPES[key]
        admitted = kinds + (int,) if float in kinds else kinds
        if isinstance(val, bool) or not isinstance(val, admitted):
            raise ConfigError(f"config key '{key}' must be "
                              f"{' or '.join(k.__name__ for k in kinds)}, "
                              f"got {val!r}")
        if float in kinds and isinstance(val, int):
            try:
                values[key] = float(val)
            except OverflowError:
                raise ConfigError(f"config key '{key}' must be float, got "
                                  "an integer too large for one") from None
    return SimConfig(**values)


@contextmanager
def _library_errors():
    """Map a library ValueError or failed allocation to exit 2 and a
    NumericalFailureError to exit 3; echo its warnings once it succeeds."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            yield
        except ValueError as e:
            raise ConfigError(str(e)) from e
        except MemoryError as e:
            # Python's own allocation failures carry no text; numpy's do
            detail = f": {e}" if str(e) else ""
            raise ConfigError(f"does not fit in memory{detail}") from e
        except NumericalFailureError as e:
            raise NumericalError(str(e)) from e
    for w in caught:
        click.echo(f"warning: {w.message}", err=True)


def _resolve(cfg: SimConfig):
    """Build (ops, rho0); the library checks the values."""
    ops = make_spin_operators(cfg.J)
    if str(cfg.initial).lstrip("-").isdigit():
        return ops, eigenstate(ops, int(cfg.initial))
    try:
        return ops, np.load(cfg.initial)
    except (OSError, EOFError) as e:
        raise ConfigError(f"initial: cannot read '{cfg.initial}': {e}") from e
    except ValueError as e:
        raise ConfigError(f"initial: '{cfg.initial}' is not a .npy file "
                          "of numbers") from e


def _parse_control(cfg: SimConfig, ops):
    """Turn the control spec into a ControllerState or a ConstantInput."""
    if cfg.control == "mh":
        return new_controller(cfg.gamma, cfg.f, ops)
    kind, _, value = cfg.control.partition(":")
    if kind == "constant":
        try:
            u = float(value)
        except ValueError:
            pass
        else:
            return ConstantInput(u, cfg.f, ops)
    raise ConfigError(
        f"control: expected 'mh' or 'constant:<value>', got '{cfg.control}'")


# The number format of every CSV field: 17 significant digits read back as
# the same double.
_FLOAT = "%.17g"

# Rows that _write_csv turns into Python values at a time, so that its
# memory does not grow with the file.
_CSV_ROWS = 1024


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length 1-D arrays as the columns under ``header``.

    A number column is formatted by ``_FLOAT``, a column of words (the mode
    labels) as it is; no field needs quoting. The rows are streamed
    ``_CSV_ROWS`` at a time, each chunk one ``%`` of the row template
    repeated once per row, and lines end in CRLF, so the bytes are those of
    ``csv.writer`` writing ``_FLOAT``-formatted fields.
    """
    width = len(columns)
    row = ",".join("%s" if col.dtype.kind == "U" else _FLOAT
                   for col in columns) + "\r\n"
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), _CSV_ROWS):
            n = min(_CSV_ROWS, len(columns[0]) - lo)
            # the chunk's values row by row
            values = [None] * (n * width)
            for j, col in enumerate(columns):
                values[j::width] = col[lo:lo + n].tolist()
            fh.write(row * n % tuple(values))


def _prepare_output(cfg: SimConfig, keys) -> Path:
    """Make the output directory and record the fields ``keys`` of ``cfg``."""
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        canonical_json({key: getattr(cfg, key) for key in keys}))
    return out


@click.group()
def main():
    """Feedback stabilization experiments for spin systems."""


def _command(name: str, reads: tuple[str, ...]):
    """Register a subcommand that takes --preset, --config and the flags of
    the SimConfig fields it ``reads``, in that order. The function receives
    the flag values as ``overrides``, whose keys its config.json records."""
    def register(fn):
        for key in reversed(reads):
            flags, text = _FLAGS[key]
            kinds = _FIELD_TYPES[key]
            fn = click.option(*flags.split(), key, help=text,
                              type=str if str in kinds else kinds[0])(fn)
        fn = click.option("--config", "config_path", type=click.Path(),
                          help="JSON configuration file.")(fn)
        fn = click.option("--preset", type=click.Choice(sorted(PRESETS)),
                          help="Start from a named experiment preset.")(fn)
        return main.command(name)(fn)
    return register


_EVERY_RUN_FIELDS = ("J", "f", "initial", "T", "output")
_SDE_FIELDS = (*_EVERY_RUN_FIELDS, "eta", "dt", "M", "base_seed")
_CLOSED_LOOP_FIELDS = (*_SDE_FIELDS, "gamma", "record_stride", "control")


@_command("simulate", _CLOSED_LOOP_FIELDS)
def simulate(preset, config_path, **overrides):
    """Simulate closed-loop sample paths; one CSV per trajectory."""
    cfg = load_config(preset, config_path, overrides)
    with _library_errors():
        ops, rho0 = _resolve(cfg)
        records = simulate_batch(
            rho0, _parse_control(cfg, ops), cfg.T,
            SdeStepConfig(cfg.dt, cfg.eta), cfg.base_seed,
            list(range(cfg.M)), record_stride=cfg.record_stride)
    out = _prepare_output(cfg, overrides)
    for rec in records:
        path = out / f"trajectory_seed{cfg.base_seed}_stream{rec.stream}.csv"
        _write_csv(path, ["t", "V", "u", "purity", "mode"],
                   [rec.times, rec.V, rec.u, rec.purity, rec.modes])
        click.echo(f"{path}: final V = {rec.V[-1]:.3e} "
                   f"converged = {rec.converged}")


@_command("ensemble", _CLOSED_LOOP_FIELDS)
def ensemble(preset, config_path, **overrides):
    """Monte Carlo ensemble statistics (CSV series + JSON summary)."""
    cfg = load_config(preset, config_path, overrides)
    with _library_errors():
        ops, rho0 = _resolve(cfg)
        stats = run_ensemble(
            rho0, _parse_control(cfg, ops), cfg.T,
            SdeStepConfig(cfg.dt, cfg.eta), cfg.M,
            cfg.base_seed, record_stride=cfg.record_stride)
    out = _prepare_output(cfg, overrides)
    _write_csv(out / "ensemble.csv", ["t", "mean_V", "conv_frac"],
               [stats.times, stats.mean_V, stats.conv_frac])
    summary = {
        "convergence_fraction": stats.convergence_fraction,
        "M": stats.M,
        "seed": stats.base_seed,
        "eps_conv": EPS_CONV,
        "mean_V_final": float(stats.mean_V[-1]),
        "failures": [],
    }
    (out / "summary.json").write_text(canonical_json(summary))
    click.echo(f"convergence fraction at T = {cfg.T:g}: "
               f"{stats.convergence_fraction:.3f}")


@_command("exit-time", (*_SDE_FIELDS, "gamma_a"))
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
    out = _prepare_output(cfg, overrides)
    payload = asdict(report)
    payload["tau"] = [float(t) for t in report.tau]
    (out / "exit_time.json").write_text(canonical_json(payload))
    if report.inconclusive:
        click.echo(f"inconclusive: all {report.M} paths censored at "
                   f"T = {cfg.T:g}")
    else:
        click.echo(f"mean exit time {report.mean:.4g} "
                   f"(censored {report.censored}/{report.M}, "
                   f"diagnostic bound {report.dynkin_bound:.4g})")


@_command("ode", (*_EVERY_RUN_FIELDS, "dt_ode", "u_ode"))
def ode(preset, config_path, **overrides):
    """Integrate the averaged dynamics and export its distance diagnostics."""
    cfg = load_config(preset, config_path, overrides)
    with _library_errors():
        ops, rho0 = _resolve(cfg)
        V, Q = _flow_distances(rho0, ConstantInput(cfg.u_ode, cfg.f, ops),
                               cfg.T, cfg.dt_ode)
        # |rho - I/N|_F, the square root of Q as it is summed
        dist = np.sqrt(Q)
    out = _prepare_output(cfg, overrides)
    _write_csv(out / "ode.csv", ["t", "V", "Q", "mm_dist"],
               [np.arange(len(Q)) * cfg.dt_ode, V, Q, dist])
    click.echo(f"final |rho_bar - I/{ops.dim}|_F = {dist[-1]:.6e}")


if __name__ == "__main__":
    main()
