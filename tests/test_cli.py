"""Tests for the command-line front end: config handling, CSV/JSON schemas."""

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import random_density
from spinstab.cli import (
    PRESETS,
    ConfigError,
    SimConfig,
    _write_csv,
    canonical_json,
    load_config,
    main,
)
from spinstab.controller import ConstantInput
from spinstab.dynamics import integrate_ensemble
from spinstab.quantum import (
    NumericalFailureError,
    distance_V,
    eigenstate,
    lyapunov_Q,
    make_spin_operators,
    maximally_mixed,
)

RUNNER = CliRunner()

# The CSV oracle's number format: 17 significant digits, which read
# back as the same double.
_fmt = "%.17g".__mod__


def run_spinstab(argv, cap=None):
    """``spinstab argv`` in a child process, as a console run sees it: no
    pytest warning filters. With ``cap`` the child limits its own address
    space to that many bytes, so a large allocation fails on any machine."""
    code = ("import resource, sys\n"
            f"cap = {cap!r}\n"
            "if cap is not None:\n"
            "    _, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "    if hard != resource.RLIM_INFINITY:\n"
            "        cap = min(cap, hard)\n"
            "    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
            "from spinstab.cli import main\n"
            "main(sys.argv[1:])\n")
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=120)


def _child_env():
    """The environment of a child ``spinstab`` run: one BLAS thread, and
    this checkout's ``src`` first on the import path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(
                    filter(None, [src, os.environ.get("PYTHONPATH")])))


def spinstab_max_rss_mib(argv):
    """Peak resident memory in MiB of ``spinstab argv`` run to its end in a
    fresh child process, as the child reads it from its own getrusage
    (ru_maxrss, KiB on Linux)."""
    code = ("import resource, sys\n"
            "from spinstab.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "finally:\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    res = subprocess.run([sys.executable, "-c", code, *argv],
                         capture_output=True, text=True, env=_child_env(),
                         timeout=120)
    assert res.returncode == 0, res.stderr
    return int(res.stdout.split()[-1]) / 1024


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def assert_mm_dist_is_the_distance_to_mixed(rows, states):
    """Each ode.csv row's mm_dist, the square root of its Q, is within
    1e-12 relative of np.linalg.norm(rho - I/N) of its state."""
    mixed = np.asarray(maximally_mixed(states.shape[-1]))
    want = [np.linalg.norm(st - mixed) for st in states]
    np.testing.assert_allclose([float(r[3]) for r in rows], want, rtol=1e-12,
                               atol=0)


def assert_rows_are_the_diagnostics_of(rows, traj, f):
    """ode.csv's rows against ``integrate_ensemble``'s states: the t column
    and the row count exactly, V and Q, which ode reads from the rank
    coefficients, within |dV| <= 2e-15 and |dQ| <= 1e-14 + 1e-12 Q of
    ``distance_V`` and ``lyapunov_Q`` of the rebuilt matrices, and each
    mm_dist the square root of its row's Q field."""
    assert len(rows) == len(traj.states)
    assert [r[0] for r in rows] == [_fmt(t) for t in traj.times]
    got = np.array(rows, dtype=float)
    V, Q = distance_V(traj.states, f), lyapunov_Q(traj.states)
    assert np.abs(got[:, 1] - V).max() <= 2e-15
    assert np.all(np.abs(got[:, 2] - Q) <= 1e-14 + 1e-12 * Q)
    assert [r[3] for r in rows] == [_fmt(math.sqrt(float(r[2]))) for r in rows]


class TestCsvWriter:
    def test_bytes_equal_csv_writer_of_formatted_fields(self, tmp_path):
        # the oracle: csv.writer over _fmt-formatted numbers and the words
        # as they are
        nums = np.array([-0.0, 5e-324, 1e300, 0.1, 1.0, -2.5, -1e-300,
                         np.inf, -np.inf, np.nan, 1 / 3, 123456789.125])
        cols = [nums, nums[::-1].copy(), -nums,
                np.where(np.arange(len(nums)) % 3 == 0, "feedback",
                         "constant")]
        header = ["t", "V", "u", "mode"]
        _write_csv(tmp_path / "got.csv", header, cols)
        with (tmp_path / "want.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([_fmt(a), _fmt(b), _fmt(c), m]
                             for a, b, c, m in zip(*cols))
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.split(b"\r\n")[1] == b"-0,123456789.125,0,feedback"

    @pytest.mark.parametrize("n_rows", [1023, 1024, 1025, 2049])
    def test_chunk_edges_equal_csv_writer(self, tmp_path, n_rows):
        # _write_csv formats 1,024 rows at a time; one chunk short of an
        # edge, on it, one row past it and one past the second
        rng = np.random.default_rng(n_rows)
        t = np.arange(n_rows) * 1e-2
        cols = [t, rng.random(n_rows), rng.normal(size=n_rows) * 1e-300,
                np.where(rng.random(n_rows) < 0.5, "feedback", "constant")]
        header = ["t", "V", "u", "mode"]
        _write_csv(tmp_path / "got.csv", header, cols)
        with (tmp_path / "want.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([_fmt(a), _fmt(b), _fmt(c), m]
                             for a, b, c, m in zip(*cols))
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.count(b"\r\n") == n_rows + 1


class TestConfig:
    def test_canonical_roundtrip_is_byte_identical(self):
        cfg = SimConfig(J=1.0, gamma=0.1, f=3, T=1.0, M=2, base_seed=5)
        text = canonical_json(asdict(cfg))
        reparsed = SimConfig(**json.loads(text))
        assert canonical_json(asdict(reparsed)) == text

    def test_floats_roundtrip_at_full_precision(self):
        cfg = SimConfig(dt=1.0 / 3.0, T=np.nextafter(2.0, 3.0))
        reparsed = SimConfig(**json.loads(canonical_json(asdict(cfg))))
        assert reparsed.dt == cfg.dt
        assert reparsed.T == cfg.T

    def test_preset_then_file_then_flags(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"gamma": 0.05, "M": 4}))
        cfg = load_config("acceptance-n3", str(cfg_file), {"M": 9, "T": None})
        assert cfg.J == 1.0            # from preset
        assert cfg.gamma == 0.05       # file overrides preset
        assert cfg.M == 9              # flag overrides file
        assert cfg.T == 50.0           # preset value survives None flag

    def test_unknown_key_rejected_with_name(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"gamma_b": 1}))
        with pytest.raises(Exception, match="gamma_b"):
            load_config(None, str(cfg_file), {})

    def test_removed_t_cap_key_exits_2(self, tmp_path):
        # the exit-time horizon is T; a config file naming T_cap is rejected
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"T_cap": 10.0}))
        res = RUNNER.invoke(main, ["exit-time", "--config", str(cfg_file),
                                   "--gamma-a", "0.1", "-o",
                                   str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert "unknown config key 'T_cap'" in res.output
        assert not (tmp_path / "o").exists()

    def test_json_syntax_error_locates_line(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text('{\n  "gamma": 0.1,\n}\n')
        with pytest.raises(Exception, match="line 3"):
            load_config(None, str(cfg_file), {})

    @pytest.mark.parametrize("text", [
        '{"M": "5"}', '{"record_stride": 1.5}', '{"f": 2.0}', '{"J": true}',
    ])
    def test_value_of_the_wrong_type_exits_2_naming_the_key(self, tmp_path,
                                                           text):
        key, = json.loads(text)
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(text)
        out = tmp_path / "o"
        res = RUNNER.invoke(main, ["simulate", "--config", str(cfg_file),
                                   "--T", "0.01", "-o", str(out)])
        assert res.exit_code == 2, res.output
        assert f"config key '{key}' must be" in res.output
        assert not out.exists()

    def test_int_for_a_float_and_null_gamma_a_are_accepted(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text('{"T": 2, "gamma_a": null, "initial": "1"}')
        cfg = load_config(None, str(cfg_file), {})
        assert (cfg.T, cfg.gamma_a, cfg.initial) == (2, None, "1")

    @pytest.mark.parametrize("write, text", [
        (None, "cannot read config file"),
        (lambda p: p.mkdir(), "cannot read config file"),
        (lambda p: p.write_text("[1, 2]"), "top level must be an object"),
    ], ids=["missing", "directory", "array"])
    def test_unreadable_or_non_object_config_exits_2(self, tmp_path, write,
                                                     text):
        cfg_file = tmp_path / "c.json"
        if write is not None:
            write(cfg_file)
        out = tmp_path / "o"
        res = RUNNER.invoke(main, ["ode", "--config", str(cfg_file),
                                   "-o", str(out)])
        assert res.exit_code == 2, res.output
        assert text in res.output
        assert not out.exists()


class TestSimulateCommand:
    def test_invalid_gamma_exits_2(self, tmp_path):
        res = RUNNER.invoke(main, ["simulate", "--J", "1", "--gamma", "0",
                                   "-o", str(tmp_path)])
        assert res.exit_code == 2
        assert "gamma" in res.output

    def test_bad_target_index_exits_2(self, tmp_path):
        res = RUNNER.invoke(main, ["simulate", "--J", "1", "--f", "9",
                                   "-o", str(tmp_path)])
        assert res.exit_code == 2
        assert "1..3" in res.output

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch):
        import spinstab.cli as cli_mod

        def boom(*a, **k):
            raise NumericalFailureError("lost the state space", time=0.5)

        monkeypatch.setattr(cli_mod, "simulate_batch", boom)
        res = RUNNER.invoke(main, ["simulate", "--J", "1", "--gamma", "0.1",
                                   "--f", "3", "--T", "0.1", "-o",
                                   str(tmp_path)])
        assert res.exit_code == 3

    def test_writes_csv_per_trajectory_with_schema(self, tmp_path):
        res = RUNNER.invoke(main, [
            "simulate", "--J", "1", "--gamma", "0.1", "--f", "3",
            "--initial", "1", "--T", "0.2", "--M", "2", "--seed", "12",
            "--stride", "20", "-o", str(tmp_path)])
        assert res.exit_code == 0, res.output
        files = sorted(tmp_path.glob("trajectory_seed12_stream*.csv"))
        assert len(files) == 2
        header, rows = read_csv(files[0])
        assert header == ["t", "V", "u", "purity", "mode"]
        assert len(rows) == 11
        t = [float(r[0]) for r in rows]
        assert t == sorted(t)
        for r in rows:
            assert 0.0 <= float(r[1]) <= 1.0
            assert r[4] in ("feedback", "constant")
        # 17 significant digits reproduce the in-memory doubles exactly
        from spinstab.dynamics import SdeStepConfig, simulate_batch
        from spinstab.quantum import eigenstate, make_spin_operators
        from spinstab.controller import new_controller

        ops = make_spin_operators(1)
        ctrl = new_controller(0.1, 3, ops)
        rec = simulate_batch(eigenstate(ops, 1), ctrl, 0.2,
                             SdeStepConfig(dt=1e-3, eta=1.0), 12, [0],
                             record_stride=20)[0]
        for row, v, p in zip(rows, rec.V, rec.purity):
            assert float(row[1]) == v
            assert float(row[3]) == p
        cfg = json.loads((tmp_path / "config.json").read_text())
        assert cfg["base_seed"] == 12 and cfg["M"] == 2

    def test_matrix_file_initial_state(self, tmp_path):
        mat = np.diag([0.2, 0.3, 0.5]).astype(complex)
        npy = tmp_path / "rho0.npy"
        np.save(npy, mat)
        res = RUNNER.invoke(main, ["simulate", "--J", "1", "--gamma", "0.1",
                                   "--f", "3", "--initial", str(npy),
                                   "--T", "0.05", "-o", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output

    def test_non_finite_matrix_file_exits_2(self, tmp_path):
        npy = tmp_path / "nan.npy"
        np.save(npy, np.full((3, 3), np.nan, dtype=complex))
        res = RUNNER.invoke(main, ["simulate", "--J", "1", "--gamma", "0.1",
                                   "--f", "3", "--initial", str(npy),
                                   "--T", "0.05", "-o", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert "non-finite" in res.output

    def test_empty_matrix_file_exits_2(self, tmp_path):
        npy = tmp_path / "empty.npy"
        npy.write_bytes(b"")
        res = RUNNER.invoke(main, ["simulate", "--J", "1", "--f", "3",
                                   "--initial", str(npy), "--T", "0.05",
                                   "-o", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert "initial: cannot read" in res.output
        assert not (tmp_path / "o").exists()

    def test_missing_matrix_file_exits_2(self, tmp_path):
        res = RUNNER.invoke(main, ["simulate", "--J", "1", "--gamma", "0.1",
                                   "--f", "3", "--initial", "nope.npy",
                                   "-o", str(tmp_path)])
        assert res.exit_code == 2


class TestEnsembleCommand:
    def test_stats_csv_and_summary(self, tmp_path):
        res = RUNNER.invoke(main, [
            "ensemble", "--J", "1", "--gamma", "0.1", "--f", "3",
            "--T", "0.2", "--M", "3", "--seed", "2", "--stride", "50",
            "-o", str(tmp_path)])
        assert res.exit_code == 0, res.output
        header, rows = read_csv(tmp_path / "ensemble.csv")
        assert header == ["t", "mean_V", "conv_frac"]
        assert len(rows) == 5
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) >= {"convergence_fraction", "M", "seed"}
        assert summary["M"] == 3 and summary["seed"] == 2

    def test_single_member_degenerates_to_trajectory_summary(self, tmp_path):
        res = RUNNER.invoke(main, [
            "ensemble", "--J", "1", "--gamma", "0.1", "--f", "3",
            "--T", "0.1", "--M", "1", "--seed", "4", "--stride", "100",
            "-o", str(tmp_path)])
        assert res.exit_code == 0, res.output
        _, rows = read_csv(tmp_path / "ensemble.csv")
        assert all(r[2] in ("0", "1") for r in rows)

    def test_constant_drive_mean_v_tracks_averaged_flow(self, tmp_path):
        res = RUNNER.invoke(main, [
            "ensemble", "--J", "1", "--gamma", "0.1", "--f", "3",
            "--control", "constant:1", "--T", "6", "--M", "128",
            "--seed", "3", "--stride", "500", "-o", str(tmp_path)])
        assert res.exit_code == 0, res.output
        _, rows = read_csv(tmp_path / "ensemble.csv")
        ops = make_spin_operators(1)
        ode = integrate_ensemble(eigenstate(ops, 1),
                                 ConstantInput(1.0, 3, ops), 6.0, 1e-2)
        want = distance_V(ode.states[-1], 3)
        assert float(rows[-1][1]) == pytest.approx(want, abs=0.08)

    def test_malformed_worker_count_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPINSTAB_WORKERS", "two")
        for argv in (["ensemble"], ["exit-time", "--gamma-a", "0.1"]):
            res = RUNNER.invoke(main, [*argv, "--J", "1", "--f", "3",
                                       "--T", "0.1", "-o", str(tmp_path)])
            assert res.exit_code == 2, res.output
            assert "SPINSTAB_WORKERS" in res.output

    def test_bad_control_spec_exits_2(self, tmp_path):
        res = RUNNER.invoke(main, ["ensemble", "--J", "1", "--control",
                                   "ramp", "-o", str(tmp_path)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("spec", ["constant:abc", "constant:", "constant"])
    def test_control_value_that_is_no_number_exits_2_naming_control(
            self, tmp_path, spec):
        out = tmp_path / "o"
        res = RUNNER.invoke(main, ["simulate", "--J", "1", "--f", "3",
                                   "--T", "0.01", "--control", spec,
                                   "-o", str(out)])
        assert res.exit_code == 2, res.output
        assert (f"control: expected 'mh' or 'constant:<value>', got '{spec}'"
                in res.output)
        assert not out.exists()


class TestExitTimeCommand:
    def test_report_schema(self, tmp_path):
        res = RUNNER.invoke(main, [
            "exit-time", "--J", "1", "--f", "3",
            "--gamma-a", "0.1", "--T", "30", "--M", "16", "--seed", "5",
            "-o", str(tmp_path)])
        assert res.exit_code == 0, res.output
        report = json.loads((tmp_path / "exit_time.json").read_text())
        assert {"gamma_a", "tau", "censored", "mean", "dynkin_bound",
                "inconclusive"} <= set(report)
        assert report["censored"] == 0
        assert report["mean"] > 0

    def test_gamma_a_out_of_range_exits_2(self, tmp_path):
        for bad in ("1", "1.5", "0"):
            res = RUNNER.invoke(main, [
                "exit-time", "--J", "1", "--f", "3", "--gamma-a", bad,
                "-o", str(tmp_path)])
            assert res.exit_code == 2
            assert "gamma_a" in res.output

    def test_all_censored_run_is_inconclusive(self, tmp_path):
        res = RUNNER.invoke(main, [
            "exit-time", "--J", "1", "--f", "3", "--gamma-a", "0.1",
            "--T", "0.01", "--M", "2", "-o", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "inconclusive: all 2 paths censored" in res.output
        report = json.loads((tmp_path / "exit_time.json").read_text())
        assert report["inconclusive"] is True and report["mean"] is None
        assert report["censored"] == 2 and report["tau"] == []

    def test_single_exit_report(self, tmp_path):
        # one path: no standard error, and the bound is the one exit time
        res = RUNNER.invoke(main, [
            "exit-time", "--J", "1", "--f", "3", "--gamma-a", "0.1",
            "--T", "5", "--M", "1", "-o", str(tmp_path)])
        assert res.exit_code == 0, res.output
        report = json.loads((tmp_path / "exit_time.json").read_text())
        tau = 0.9420000000000001
        assert report["tau"] == [tau] and report["censored"] == 0
        assert report["inconclusive"] is False
        assert report["mean"] == report["dynkin_t0"] == tau
        assert report["stderr"] is None
        assert report["dynkin_p_hat"] == 0.0
        assert report["dynkin_bound"] == report["mean"]

    def test_missing_gamma_a_exits_2(self, tmp_path):
        res = RUNNER.invoke(main, ["exit-time", "--J", "1", "--f", "3",
                                   "-o", str(tmp_path)])
        assert res.exit_code == 2


class TestOdeCommand:
    def test_bad_target_rejected_before_stepping(self, tmp_path,
                                                 monkeypatch):
        import spinstab.cli as cli_mod

        def must_not_run(*a, **k):
            raise AssertionError("stepped with a target outside 1..N")

        monkeypatch.setattr(cli_mod, "_flow_distances", must_not_run)
        out = tmp_path / "o"
        res = RUNNER.invoke(main, ["ode", "--J", "10", "--f", "99",
                                   "--T", "80", "-o", str(out)])
        assert res.exit_code == 2, res.output
        assert "1..21, got 99" in res.output
        assert not out.exists()

    def test_csv_and_final_distance(self, tmp_path):
        res = RUNNER.invoke(main, [
            "ode", "--J", "2", "--f", "3", "--initial", "1", "--T", "80",
            "--dt-ode", "0.01", "--u", "1", "-o", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "final |rho_bar - I/5|_F" in res.output
        final = float(res.output.split("=")[-1])
        assert final < 1e-6
        header, rows = read_csv(tmp_path / "ode.csv")
        assert header == ["t", "V", "Q", "mm_dist"]
        q = np.array([float(r[2]) for r in rows])
        assert np.all(np.diff(q) <= 1e-12)

    def test_columns_are_the_library_diagnostics_of_its_states(self, tmp_path):
        res = RUNNER.invoke(main, ["ode", "--J", "1", "--f", "3", "--T", "2",
                                   "--dt-ode", "0.01", "-o", str(tmp_path)])
        assert res.exit_code == 0, res.output
        ops = make_spin_operators(1)
        traj = integrate_ensemble(eigenstate(ops, 1),
                                  ConstantInput(1.0, 3, ops), 2.0, 0.01)
        _, rows = read_csv(tmp_path / "ode.csv")
        assert_rows_are_the_diagnostics_of(rows, traj, 3)
        assert_mm_dist_is_the_distance_to_mixed(rows, traj.states)

    @pytest.mark.parametrize("T, n_rows, complex_", [
        ("2.54", 255, False), ("2.55", 256, False), ("2.56", 257, False),
        ("5.12", 513, False), ("2.56", 257, True)])
    def test_columns_are_the_library_diagnostics_across_block_edges(
            self, tmp_path, T, n_rows, complex_):
        # ode reduces the coefficients in blocks of 256; each row must still
        # be the diagnostics of integrate_ensemble's states, to round-off
        ops = make_spin_operators(1)
        rho0, initial = eigenstate(ops, 1), "1"
        if complex_:
            rho0 = random_density(3, np.random.default_rng(5))
            initial = str(tmp_path / "rho0.npy")
            np.save(initial, rho0)
        res = RUNNER.invoke(main, ["ode", "--J", "1", "--f", "3",
                                   "--initial", initial, "--T", T,
                                   "--dt-ode", "0.01",
                                   "-o", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        traj = integrate_ensemble(rho0, ConstantInput(1.0, 3, ops), float(T),
                                  0.01)
        assert traj.states.dtype == (complex if complex_ else float)
        _, rows = read_csv(tmp_path / "o" / "ode.csv")
        assert len(rows) == n_rows
        assert_rows_are_the_diagnostics_of(rows, traj, 3)
        assert_mm_dist_is_the_distance_to_mixed(rows, traj.states)

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="ru_maxrss is in KiB on Linux only")
    def test_peak_memory_does_not_grow_with_the_horizon(self, tmp_path):
        # T = 200 holds 20001 grid states of 21 x 21, 70 MB as one array;
        # in blocks, only its 24 B per row of V, Q and mm_dist remain
        argv = ["ode", "--J", "10", "--f", "11"]
        short = spinstab_max_rss_mib([*argv, "--T", "8",
                                      "-o", str(tmp_path / "a")])
        long = spinstab_max_rss_mib([*argv, "--T", "200",
                                     "-o", str(tmp_path / "b")])
        assert long - short < 8, (short, long)

    def test_overflowing_step_exits_3(self, tmp_path):
        # exp(dt_ode L) under u = 1e300 overflows before the first step
        res = RUNNER.invoke(main, ["ode", "--J", "1", "--f", "3",
                                   "--u", "1e300", "-o", str(tmp_path)])
        assert res.exit_code == 3, res.output
        assert "non-finite" in res.output

    def test_input_that_loses_the_state_space_exits_3(self, tmp_path):
        # round-off in exp(dt_ode L) grows with |u|: at u = 1e14 V passes 1
        # by far more than round-off, so the run is refused, not clipped
        out = tmp_path / "o"
        res = run_spinstab(["ode", "--J", "10", "--f", "11", "--T", "2",
                            "--u", "1e14", "-o", str(out)])
        assert res.returncode == 3, res.stderr
        assert "V = " in res.stderr and " at t = " in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("u, code", [("1e4", 0), ("1e12", 3)])
    def test_large_input_runs_while_v_stays_in_range(self, tmp_path, u,
                                                      code):
        # at u = 1e4 V leaves [0, 1] by round-off only; at 1e12 by 3e-5
        out = tmp_path / "o"
        res = RUNNER.invoke(main, ["ode", "--J", "10", "--f", "11", "--T",
                                   "2", "--u", u, "-o", str(out)])
        assert res.exit_code == code, res.output
        assert (out / "ode.csv").exists() == (code == 0)

    @pytest.mark.parametrize("argv", [
        ["--J", "10", "--f", "11", "--T", "20", "--u", "10"],
        # dt_ode past an explicit scheme's real-axis bound, and fast
        # rotations
        ["--J", "10", "--f", "11", "--T", "20", "--dt-ode", "0.05"],
        ["--J", "10", "--f", "11", "--T", "20", "--dt-ode", "0.015"],
        ["--J", "1", "--f", "3", "--dt-ode", "1e200", "--T", "1e201"],
        ["--J", "10", "--f", "11", "--T", "20", "--u", "100"],
        ["--J", "10", "--f", "11", "--T", "20", "--u", "14.4"],
    ], ids=["u 10", "dt-ode 0.05", "dt-ode 0.015", "dt-ode 1e200", "u 100",
            "u 14.4"])
    def test_any_step_and_input_runs_with_q_non_increasing(self, tmp_path,
                                                           argv):
        # exp(dt_ode L) contracts Q, and mm_dist with it, for every dt_ode
        # and u
        res = RUNNER.invoke(main, ["ode", *argv, "-o", str(tmp_path)])
        assert res.exit_code == 0, res.output
        _, rows = read_csv(tmp_path / "ode.csv")
        nums = np.array(rows, dtype=float)
        assert np.all(np.diff(nums[:, 2]) <= 1e-12)
        assert np.all(np.diff(nums[:, 3]) <= 1e-12)

    def test_mixed_start_gives_flat_zero_q(self, tmp_path):
        mat = np.eye(3, dtype=complex) / 3
        npy = tmp_path / "mixed.npy"
        np.save(npy, mat)
        res = RUNNER.invoke(main, [
            "ode", "--J", "1", "--f", "3", "--initial", str(npy),
            "--T", "1", "--dt-ode", "0.01", "-o", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        _, rows = read_csv(tmp_path / "o" / "ode.csv")
        assert all(float(r[2]) < 1e-12 for r in rows)


class TestRejectedRuns:
    """A run the library rejects exits 2 (bad input) or 3 (numerical failure)
    and leaves no output directory behind."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--T", "0"],
        ["simulate", "--M", "0"],
        ["simulate", "--stride", "0"],
        ["simulate", "--initial", "9"],
        ["simulate", "--initial", "."],
        ["simulate", "--initial", ""],
        ["simulate", "--J", "0.3"],
        ["simulate", "--eta", "2"],
        ["simulate", "--control", "constant:abc"],
        ["simulate", "--control", "constant:1", "--f", "9"],
        ["ensemble", "--M", "0"],
        ["exit-time", "--gamma-a", "0.1", "--M", "0"],
        ["ode", "--dt-ode", "0"],
        ["ode", "--f", "9"],
    ], ids=" ".join)
    def test_bad_input_exits_2_and_writes_nothing(self, tmp_path, argv):
        out = tmp_path / "o"
        res = RUNNER.invoke(main, [*argv, "-o", str(out)])
        assert res.exit_code == 2, res.output
        assert not out.exists()

    @pytest.mark.parametrize("argv, field", [
        (["ensemble", "--preset", "acceptance-n3", "--gamma", "nan", "--T",
          "2", "--M", "8"], "gamma"),
        (["simulate", "--gamma", "inf"], "gamma"),
        (["simulate", "--T", "inf"], "horizon T"),
        (["simulate", "--T", "nan"], "horizon T"),
        (["simulate", "--dt", "nan"], "dt"),
        (["ode", "--T", "inf"], "horizon T"),
        (["ode", "--dt-ode", "nan"], "dt_ode"),
        (["exit-time", "--gamma-a", "0.1", "--T", "inf"], "horizon T"),
        (["simulate", "--J", "1", "--f", "3", "--T", "0.01", "--control",
          "constant:nan"], "u"),
        (["simulate", "--J", "1", "--f", "3", "--T", "0.01", "--control",
          "constant:inf"], "u"),
        (["ode", "--J", "1", "--f", "3", "--T", "0.1", "--u", "nan"], "u"),
    ], ids=lambda x: " ".join(x) if isinstance(x, list) else x)
    def test_non_finite_value_exits_2_naming_it(self, tmp_path, argv, field):
        out = tmp_path / "o"
        res = RUNNER.invoke(main, [*argv, "-o", str(out)])
        assert res.exit_code == 2, res.output
        assert f"{field} must be finite" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "ode"])
    @pytest.mark.parametrize("value", ["inf", "1e400", "nan", "-inf"])
    def test_non_finite_momentum_exits_2_naming_it(self, tmp_path, command,
                                                   value):
        out = tmp_path / "o"
        res = RUNNER.invoke(main, [command, "--J", value, "-o", str(out)])
        assert res.exit_code == 2, res.output
        assert "J must be finite" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("command, field", [
        ("ode", "J"), ("simulate", "gamma"), ("simulate", "dt"), ("ode", "T"),
        ("ode", "dt_ode"), ("ode", "u_ode")])
    def test_integer_too_large_for_a_float_exits_2_naming_it(
            self, tmp_path, command, field):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(f'{{"{field}": 1{"0" * 400}}}')
        out = tmp_path / "o"
        res = RUNNER.invoke(main, [command, "--config", str(cfg_file),
                                   "-o", str(out)])
        assert res.exit_code == 2, res.output
        assert (f"config key '{field}' must be float, got an integer too "
                "large for one") in res.output
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--T", "1e300", "--dt", "1e-10"],
        ["ode", "--T", "1e300", "--dt-ode", "1e-10"],
    ], ids=" ".join)
    def test_step_count_overflow_exits_2_naming_the_horizon(self, tmp_path,
                                                            argv):
        out = tmp_path / "o"
        res = RUNNER.invoke(main, [argv[0], "--J", "1", "--f", "3", *argv[1:],
                                   "-o", str(out)])
        assert res.exit_code == 2, res.output
        assert "horizon T = 1e+300" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--dt", "1e-3"], ["ensemble", "--M", "2"], ["ode"],
    ], ids=" ".join)
    def test_horizon_too_large_for_memory_exits_2(self, tmp_path, argv):
        # T = 1e15 needs exbibytes of records
        out = tmp_path / "o"
        res = run_spinstab([argv[0], "--J", "1", "--f", "3", "--T", "1e15",
                            *argv[1:], "-o", str(out)], cap=4 << 30)
        assert res.returncode == 2, res.stderr
        assert "horizon T = 1e+15" in res.stderr
        assert "does not fit in memory" in res.stderr
        assert "stride" not in res.stderr
        assert not out.exists()

    def test_operators_too_large_for_memory_exits_2(self, tmp_path):
        # at J = 1e4 F_y alone is 20001 x 20001 complex, 5.96 GiB
        out = tmp_path / "o"
        res = run_spinstab(["ode", "--J", "1e4", "--f", "3", "--T", "0.01",
                            "-o", str(out)], cap=4 << 30)
        assert res.returncode == 2, res.stderr
        assert "does not fit in memory: Unable to allocate" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    def test_memory_error_without_text_has_no_dangling_colon(self, tmp_path):
        # the list of 1e12 stream numbers fails with a bare MemoryError()
        out = tmp_path / "o"
        res = run_spinstab(["simulate", "--J", "1", "--f", "3", "--T", "0.01",
                            "--M", "1000000000000", "-o", str(out)],
                           cap=4 << 30)
        assert res.returncode == 2, res.stderr
        assert res.stderr.rstrip().endswith("Error: does not fit in memory")
        assert "Traceback" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate"], ["ensemble"], ["exit-time", "--gamma-a", "0.1"], ["ode"],
    ], ids=" ".join)
    def test_wrong_dimension_initial_file_exits_2(self, tmp_path, argv):
        # a valid 5 x 5 state, with V = 1 for f = 1, for the N = 3 system
        npy = tmp_path / "rho5.npy"
        np.save(npy, np.diag([0.0, 0.0, 0.0, 0.0, 1.0]).astype(complex))
        out = tmp_path / "o"
        res = RUNNER.invoke(main, [*argv, "--J", "1", "--f", "1",
                                   "--initial", str(npy), "--T", "0.05",
                                   "-o", str(out)])
        assert res.exit_code == 2, res.output
        assert "N = 3" in res.output
        assert not out.exists()

    def test_overflow_exits_3_and_writes_nothing(self, tmp_path):
        out = tmp_path / "o"
        res = RUNNER.invoke(main, ["ode", "--J", "1", "--f", "3",
                                   "--u", "1e300", "-o", str(out)])
        assert res.exit_code == 3, res.output
        assert "non-finite" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("content", ["text", "objects"])
    def test_initial_file_of_no_numbers_exits_2(self, tmp_path, content):
        npy = tmp_path / "t.npy"
        if content == "text":
            npy.write_text("0.5 0 0\n0 0.5 0\n0 0 0\n")
        else:
            np.save(npy, np.array([{"rho": 1}, None], dtype=object))
        out = tmp_path / "o"
        res = RUNNER.invoke(main, ["simulate", "--J", "1", "--f", "3",
                                   "--T", "0.01", "--initial", str(npy),
                                   "-o", str(out)])
        assert res.exit_code == 2, res.output
        assert f"initial: '{npy}' is not a .npy file of numbers" in res.output
        assert "allow_pickle" not in res.output
        assert not out.exists()


# Steps past explicit Euler's stability interval, dt * max(gaps_sq) / 2 > 2
# (by up to 100 times at J = 10), with the files each run writes.
_LARGE_STEPS = [
    (["simulate", "--J", "10", "--f", "11", "--dt", "0.5", "--T", "50"],
     ["config.json", "trajectory_seed0_stream0.csv"]),
    (["ensemble", "--J", "10", "--f", "11", "--dt", "0.011", "--T", "1"],
     ["config.json", "ensemble.csv", "summary.json"]),
    (["exit-time", "--J", "1", "--f", "3", "--gamma-a", "0.1", "--dt",
      "1.5", "--T", "3"], ["config.json", "exit_time.json"]),
]


@pytest.mark.parametrize("argv, written", _LARGE_STEPS,
                         ids=[" ".join(argv) for argv, _ in _LARGE_STEPS])
def test_step_past_eulers_stability_bound_runs(tmp_path, argv, written):
    # the split step keeps every state a state at any dt
    out = tmp_path / "o"
    res = RUNNER.invoke(main, [*argv, "-o", str(out)])
    assert res.exit_code == 0, res.output
    assert sorted(p.name for p in out.iterdir()) == written
    if argv[0] == "simulate":
        _, rows = read_csv(out / written[1])
        nums = np.array([r[:4] for r in rows], dtype=float)
        assert len(nums) == 101
        assert np.all((nums[:, 1] >= 0) & (nums[:, 1] <= 1))
        assert np.abs(nums[:, 3] - 1).max() <= 1e-12


_READS = {
    "simulate": ["J", "f", "initial", "T", "output", "eta", "dt", "M",
                 "base_seed", "gamma", "record_stride", "control"],
    "exit-time": ["J", "f", "initial", "T", "output", "eta", "dt", "M",
                  "base_seed", "gamma_a"],
    "ode": ["J", "f", "initial", "T", "output", "dt_ode", "u_ode"],
}
_READS["ensemble"] = _READS["simulate"]


class TestFlags:
    """Each subcommand takes the flags of the SimConfig fields it reads, and
    its config.json records exactly those fields."""

    @pytest.mark.parametrize("argv", [
        ["exit-time", "--gamma", "0.1"],
        ["exit-time", "--stride", "2"],
        ["exit-time", "--control", "constant:5"],
        ["ode", "--gamma", "0.1"],
        ["ode", "--eta", "0.3"],
        ["ode", "--dt", "0.5"],
        ["ode", "--M", "2"],
        ["ode", "--seed", "3"],
        ["ode", "--stride", "2"],
        ["ode", "--control", "constant:9"],
    ], ids=" ".join)
    def test_flag_the_command_does_not_read_exits_2(self, tmp_path, argv):
        # a run that would otherwise succeed
        extra = ["--gamma-a", "0.1"] if argv[0] == "exit-time" else []
        out = tmp_path / "o"
        res = RUNNER.invoke(main, [argv[0], "--J", "1", "--f", "3", "--T",
                                   "0.05", *extra, *argv[1:], "-o", str(out)])
        assert res.exit_code == 2, res.output
        assert "No such option" in res.output and argv[1] in res.output
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--M", "2", "--stride", "10", "--seed", "4"],
        ["ensemble", "--M", "2", "--control", "constant:1"],
        ["exit-time", "--gamma-a", "0.1", "--M", "2", "--dt", "2e-3"],
        ["ode", "--dt-ode", "0.02", "--u", "0.5"],
    ], ids=lambda argv: argv[0])
    def test_config_json_holds_the_fields_read_and_reloads(self, tmp_path,
                                                           argv):
        out = tmp_path / "o"
        res = RUNNER.invoke(main, [*argv, "--J", "1", "--f", "3",
                                   "--T", "0.05", "-o", str(out)])
        assert res.exit_code == 0, res.output
        text = (out / "config.json").read_text()
        assert sorted(json.loads(text)) == sorted(_READS[argv[0]])
        rerun = RUNNER.invoke(main, [argv[0], "--config",
                                     str(out / "config.json")])
        assert rerun.exit_code == 0, rerun.output
        assert (out / "config.json").read_text() == text

    def test_presets_and_config_files_serve_every_command(self, tmp_path):
        # acceptance-n3 sets gamma, record_stride and control, which
        # exit-time does not read; so does a config.json from simulate
        res = RUNNER.invoke(main, ["exit-time", "--preset", "acceptance-n3",
                                   "--gamma-a", "0.1", "--T", "0.05", "--M",
                                   "2", "-o", str(tmp_path / "a")])
        assert res.exit_code == 0, res.output
        res = RUNNER.invoke(main, ["simulate", "--J", "1", "--f", "3",
                                   "--T", "0.05", "-o", str(tmp_path / "s")])
        assert res.exit_code == 0, res.output
        res = RUNNER.invoke(main, ["exit-time", "--config",
                                   str(tmp_path / "s" / "config.json"),
                                   "--gamma-a", "0.1", "-o",
                                   str(tmp_path / "e")])
        assert res.exit_code == 0, res.output


class TestPresets:
    def test_known_presets_resolve(self):
        for name in PRESETS:
            cfg = load_config(name, None, {})
            assert cfg.T > 0 and cfg.M >= 1

    def test_unknown_preset_rejected(self):
        res = RUNNER.invoke(main, ["simulate", "--preset", "fig9"])
        assert res.exit_code == 2

    def test_load_config_names_an_unknown_preset(self):
        # click's Choice stops this at the CLI, but load_config is public
        with pytest.raises(ConfigError, match="unknown preset 'fig9'"):
            load_config("fig9")


class TestWarnings:
    def test_gamma_outside_the_guarantee_warns_in_one_line(self, tmp_path):
        res = run_spinstab(["simulate", "--preset", "fig2", "--T", "0.01",
                            "-o", str(tmp_path / "o")])
        assert res.returncode == 0, res.stderr
        assert res.stderr.splitlines() == [
            "warning: gamma = 0.4 >= 1/N = 0.047619: outside the "
            "switching-parameter range with a convergence guarantee"]

    def test_refused_run_prints_only_its_error(self, tmp_path):
        # gamma = 0.1 >= 1/21 warns, but the run is refused for its step
        # count, after the controller is built
        res = run_spinstab(["ensemble", "--J", "10", "--f", "11", "--dt",
                            "1e-10", "--T", "1e300", "-o",
                            str(tmp_path / "o")])
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("Error: horizon T = 1e+300 is")
        assert "warning" not in res.stderr.lower()
        assert not (tmp_path / "o").exists()
