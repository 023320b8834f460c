"""spinstab benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload ensemble-n3 --seed 7 --seconds 30 --trace 0

One client process makes one call at a time (a closed loop) until the time
is up; timed call ``i`` of a run uses seed ``seed + i * SEED_STRIDE``. A
workload whose paper claim needs a longer horizon first makes one claim
call at ``seed``. With ``--trace 0`` nothing is wrapped and the end-to-end
metrics are printed. With ``--trace 1`` each call runs untraced and then
traced on the same inputs, and the per-layer metrics are printed. Times are
wall times over the host slowdown measured around each call (``placed``).
Every output is checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record, with
machine information, is written to ``bench/out/``. Workloads and metrics
are described in ``bench/README.md``.
"""

import os

# One BLAS thread in this process and in the worker processes it forks; set
# before numpy loads BLAS.
BLAS_THREADS = {var: "1" for var in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

if not (SRC / "spinstab" / "__init__.py").is_file():
    sys.exit(f"bench: no spinstab sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import spinstab  # noqa: E402

if Path(spinstab.__file__).resolve().parent != SRC / "spinstab":
    sys.exit(f"bench: spinstab was imported from {spinstab.__file__}")

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SEED_STRIDE = 1_000_003
SETUP_PROBES = 5
CPUS = frozenset(os.sched_getaffinity(0))

# Reference kernel: the batched 3x3 eigh and product the stepping loop is
# made of. REF_S is its time on an uncontended CPU of the machine the
# benchmark was written on; it only sets the unit of the adjusted times.
_REF = np.random.default_rng(0).normal(size=(64, 3, 3)) * (1 + 1j)
_REF = _REF + _REF.conj().swapaxes(-1, -2)
REF_REPS = 100
REF_S = 0.02

END_TO_END_UNITS = {
    "wall_s": "s",
    "member_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "quantum.project.calls": "count",
    "quantum.project.us_per_call": "us",
    "quantum.project.share": "frac",
    "dynamics.drift.us_per_call": "us",
    "dynamics.diffusion.us_per_call": "us",
    "dynamics.loop.self_us_per_step": "us",
    "dynamics.steps": "count",
    "dynamics.rk4.us_per_step": "us",
    "dynamics.noise.us_per_refill": "us",
    "dynamics.noise.used_frac": "frac",
    "controller.gain.calls": "count",
    "controller.gain.us_per_call": "us",
    "controller.switch.calls": "count",
    "controller.switch.us_per_call": "us",
    "montecarlo.chunks": "count",
    "montecarlo.reduce_s": "s",
    "montecarlo.chunk_imbalance": "ratio",
    "montecarlo.useful_step_frac": "frac",
    "montecarlo.parallel_eff": "frac",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "frac",
}


@dataclass
class OpRecord:
    seed: int
    workers: int
    role: str          # "claim", "timed" or "traced"
    wall_s: float
    adjusted_s: float  # wall_s over the host slowdown measured around it
    work: int
    problems: list[str]
    digest: str
    bytes_written: int


def reference_seconds(cpus) -> dict[int, float]:
    """Time the reference kernel on each CPU in ``cpus``."""
    times = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        start = perf_counter()
        for _ in range(REF_REPS):
            np.linalg.eigh(_REF)
            _REF @ _REF
        times[cpu] = perf_counter() - start
    return times


@contextlib.contextmanager
def placed(workers: int):
    """Run a call on the CPUs that are fastest now; yield its slowdown.

    Neighbours on a shared host slow each CPU by up to 2x, in phases that
    last seconds and differ between CPUs. A one-worker call is pinned to
    the CPU that runs the reference kernel fastest; a call with a pool gets
    every CPU. The kernel is timed again after the call, and the slowdown
    (slowest CPU used, mean of before and after, over ``REF_S``) is put in
    the yielded list.
    """
    before = reference_seconds(CPUS)
    used = CPUS if workers > 1 else {min(before, key=before.get)}
    os.sched_setaffinity(0, used)
    slowdown = []
    try:
        yield slowdown
    finally:
        after = reference_seconds(used)
        os.sched_setaffinity(0, used)
        slowdown.append(max(before[c] + after[c] for c in used) / (2 * REF_S))


def execute(wl, inputs, workers, workdir: Path, role: str,
            tracer=None) -> OpRecord:
    """Time one call on built inputs and check its output.

    An error raised by the library or by a check is a failed check.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracing = (tracer.operation(wl.root_span) if tracer
               else contextlib.nullcontext())
    try:
        with placed(workers) as slowdown:
            with tracing, contextlib.redirect_stdout(io.StringIO()):
                start = perf_counter()
                try:
                    result = wl.op(inputs, workdir, workers)
                finally:
                    wall = perf_counter() - start
        outcome = wl.check(inputs, result, workdir)
    except Exception as exc:
        traceback.print_exc()
        outcome = Outcome(0, [f"{type(exc).__name__}: {exc}"], "")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return OpRecord(inputs["seed"], workers, role, wall, wall / slowdown[0],
                    outcome.work, outcome.problems, outcome.digest,
                    outcome.bytes_written)


def median_adjusted(records) -> float:
    return statistics.median(r.adjusted_s for r in records)


def claim_records(wl, seed, workdir) -> list[OpRecord]:
    """The run's one call held to the paper's claim, if the workload has it."""
    if wl.claim is None:
        return []
    return [execute(wl, wl.claim(seed), wl.workers, workdir, "claim")]


def setup_seconds(wl, seed) -> float:
    """Adjusted wall time of a fresh interpreter that imports and builds
    the inputs."""
    with placed(1) as slowdown:
        start = perf_counter()
        subprocess.run([sys.executable, str(Path(__file__)), "--setup-probe",
                        "--workload", wl.name, "--seed", str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        wall = perf_counter() - start
    return wall / slowdown[0]


def timed_run(wl, seed, seconds, workdir):
    records = claim_records(wl, seed, workdir)
    ops = []
    start = perf_counter()
    for i in itertools.count():
        ops.append(execute(wl, wl.build(seed + i * SEED_STRIDE), wl.workers,
                           workdir, "timed"))
        median_wall = statistics.median(r.wall_s for r in ops)
        if perf_counter() - start + median_wall > seconds:
            break
    records += ops
    # Children so far are only the pool workers, which run side by side.
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + wl.workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setup = [setup_seconds(wl, seed) for _ in range(SETUP_PROBES)]
    timed = [r for r in ops if not r.problems] or ops
    metrics = {
        "wall_s": median_adjusted(timed),
        "member_steps_per_s": statistics.median(
            r.work / r.adjusted_s for r in timed),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": kib / 1024.0,
    }
    extra = {"raw_wall_s": statistics.median(r.wall_s for r in timed),
             "ops_timed": len(timed), "setup_s_samples": setup}
    return records, metrics, END_TO_END_UNITS, extra


def traced_run(wl, seed, seconds, workdir):
    tracer = Tracer()
    records = claim_records(wl, seed, workdir)
    plain, serial, traced = [], [], []
    start = perf_counter()
    for i in itertools.count():
        inputs = wl.build(seed + i * SEED_STRIDE)
        p = execute(wl, inputs, wl.workers, workdir, "timed")
        q = (execute(wl, inputs, 1, workdir, "timed") if wl.workers > 1
             else p)
        t = execute(wl, inputs, 1, workdir, "traced", tracer)
        if len({p.digest, q.digest, t.digest}) > 1:
            t.problems.append(f"output differs between workers={wl.workers}, "
                              "workers=1 and the traced run")
        plain.append(p)
        serial.append(q)
        traced.append(t)
        records.extend([p, t] if q is p else [p, q, t])
        elapsed = perf_counter() - start
        if elapsed * (i + 2) / (i + 1) > seconds:
            break
    overhead = median_adjusted(traced) / median_adjusted(serial) - 1.0
    parallel_eff = (median_adjusted(serial)
                    / (wl.workers * median_adjusted(plain))
                    if wl.workers > 1 else 0.0)
    metrics = layer_metrics(tracer.spans, [r.work for r in traced],
                            [r.bytes_written for r in traced], overhead,
                            parallel_eff)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    spans = [[n, round((a - t0) * 1e6, 3), round((b - t0) * 1e6, 3), p, o, z]
             for n, a, b, p, o, z in tracer.spans]
    write_json(OUT / f"{wl.name}-seed{seed}-spans.json",
               {"fields": ["name", "start_us", "end_us", "parent", "op",
                           "size"], "spans": spans})
    return records, metrics, PER_LAYER_UNITS, {}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_info = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(CPUS),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "git_commit": git_commit(),
    }


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    if args.setup_probe:
        wl.build(seed)
        return 0

    # fig2's gamma lies outside (0, 1/N) on purpose; its warning is expected.
    warnings.simplefilter("ignore", UserWarning)
    run = traced_run if args.trace else timed_run
    workdir = OUT / f"work-{os.getpid()}"
    records, metrics, units, extra = run(wl, seed, args.seconds, workdir)

    failed = sum(bool(r.problems) for r in records)
    env = environment()
    write_json(OUT / f"{wl.name}-seed{seed}-trace{args.trace}.json", {
        "workload": wl.name, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "op_seeds": sorted({r.seed for r in records}),
        "ops": [asdict(r) for r in records], "metrics": metrics, **extra})

    for r in records:
        for problem in r.problems:
            print(f"FAILED seed {r.seed} workers {r.workers}: {problem}",
                  file=sys.stderr)
    print(f"workload {wl.name}  seed {seed}  trace {args.trace}  "
          f"ops {len(records)}  op seeds {sorted({r.seed for r in records})}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"  {'failed_frac':<32} {failed / len(records):.6g} frac")
        print(f"  (median of {extra['ops_timed']} timed calls; unadjusted "
              f"wall_s {extra['raw_wall_s']:.6g} s)")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
