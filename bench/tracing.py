"""Spans and counts around spinstab's module boundaries, recorded from outside.

While one operation runs under ``Tracer.operation``, the functions that the
hot loop reaches through a module attribute are replaced by wrappers that
record a span (name, start, end, parent span, operation) and restored when
the operation ends. The library source is not touched. Spans stay in memory;
``layer_metrics`` turns them into the per-layer metrics listed in
``bench/README.md``.
"""

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

from spinstab import cli, dynamics, montecarlo


def _batch_size(args, kwargs):
    """Members in a batched (M, N, N) state argument; 1 for a single matrix."""
    shape = getattr(args[0], "shape", ())
    return shape[0] if len(shape) == 3 else 1


def _draw_size(args, kwargs):
    """Normals requested by Generator.normal(loc, scale, size)."""
    return args[2] if len(args) > 2 else kwargs.get("size", 1)


# (module, attribute, span name, size of the call's work or None). Each
# attribute is the name through which the caller looks the function up.
TARGETS = [
    (dynamics, "sme_drift", "dynamics.drift", None),
    (dynamics, "sme_diffusion", "dynamics.diffusion", _batch_size),
    (dynamics, "_clip_psd", "quantum.project", None),
    (dynamics, "feedback_gain", "controller.gain", None),
    (dynamics, "switch_modes", "controller.switch", None),
    (dynamics, "_integrate_batch", "dynamics.loop", None),
    (montecarlo, "_integrate_batch", "dynamics.loop", None),
    (montecarlo, "_run_chunk", "montecarlo.chunk", None),
    (cli, "simulate_batch", "dynamics.simulate_batch", None),
    (cli, "integrate_ensemble", "dynamics.rk4", None),
]

NAME, START, END, PARENT, OP, SIZE = range(6)


class Tracer:
    """In-memory span store; one instance per traced benchmark run."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, size]
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name, size=None) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self._op, size]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, size):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, size(args, kwargs) if size else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    def _traced_rng(self, make_rng):
        """Wrap a generator factory so that its generators' normal() draws,
        the only method the stepping loop calls, are traced."""
        @functools.wraps(make_rng)
        def rng(*args, **kwargs):
            gen = make_rng(*args, **kwargs)
            return SimpleNamespace(
                normal=self._wrap(gen.normal, "dynamics.noise", _draw_size))
        return rng

    @contextmanager
    def operation(self, root_span: str):
        """Trace one operation under a root span; restore every wrapper after."""
        self._op += 1
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        saved.append((dynamics, "_philox_rng", dynamics._philox_rng))
        for mod, attr, name, size in TARGETS:
            setattr(mod, attr, self._wrap(getattr(mod, attr), name, size))
        dynamics._philox_rng = self._traced_rng(dynamics._philox_rng)
        root = self._open(root_span)
        try:
            yield
        finally:
            self._close(root)
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def layer_metrics(spans, work_per_op, bytes_per_op, overhead_frac,
                  parallel_eff) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced operations.

    Counts and times are per operation. A layer the workload does not run
    reports 0. ``work_per_op`` holds each operation's useful member-steps.
    """
    n_ops = len(work_per_op)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def total(name):
        return sum(dur[i] for i in by_name[name])

    def calls(name):
        return len(by_name[name]) / n_ops

    def us_per_call(name):
        idx = by_name[name]
        return total(name) / len(idx) * 1e6 if idx else 0.0

    def self_time(names):
        return sum(dur[i] - child[i] for n in names for i in by_name[n])

    roots = [i for i, s in enumerate(spans) if s[PARENT] < 0]
    op_wall = sum(dur[i] for i in roots)
    steps = len(by_name["dynamics.diffusion"])
    member_steps = sum(spans[i][SIZE] for i in by_name["dynamics.diffusion"])
    drawn = sum(spans[i][SIZE] for i in by_name["dynamics.noise"])
    rk4 = set(by_name["dynamics.rk4"])
    rk4_steps = sum(spans[i][PARENT] in rk4 for i in by_name["quantum.project"])

    chunk_ratios = []
    chunks_by_op = defaultdict(list)
    for i in by_name["montecarlo.chunk"]:
        chunks_by_op[spans[i][OP]].append(dur[i])
    for times in chunks_by_op.values():
        chunk_ratios.append(max(times) / (sum(times) / len(times)))

    return {
        "quantum.project.calls": calls("quantum.project"),
        "quantum.project.us_per_call": us_per_call("quantum.project"),
        "quantum.project.share": total("quantum.project") / op_wall,
        "dynamics.drift.us_per_call": us_per_call("dynamics.drift"),
        "dynamics.diffusion.us_per_call": us_per_call("dynamics.diffusion"),
        "dynamics.loop.self_us_per_step":
            self_time(["dynamics.loop"]) / steps * 1e6 if steps else 0.0,
        "dynamics.steps": steps / n_ops,
        "dynamics.rk4.us_per_step":
            total("dynamics.rk4") / rk4_steps * 1e6 if rk4_steps else 0.0,
        "dynamics.noise.us_per_refill": us_per_call("dynamics.noise"),
        "dynamics.noise.used_frac": member_steps / drawn if drawn else 0.0,
        "controller.gain.calls": calls("controller.gain"),
        "controller.gain.us_per_call": us_per_call("controller.gain"),
        "controller.switch.calls": calls("controller.switch"),
        "controller.switch.us_per_call": us_per_call("controller.switch"),
        "montecarlo.chunks": calls("montecarlo.chunk"),
        "montecarlo.reduce_s": sum(
            dur[i] - child[i] for i in roots
            if spans[i][NAME].startswith("montecarlo.")) / n_ops,
        "montecarlo.chunk_imbalance":
            sum(chunk_ratios) / len(chunk_ratios) if chunk_ratios else 0.0,
        "montecarlo.useful_step_frac":
            sum(work_per_op) / member_steps if member_steps else 0.0,
        "montecarlo.parallel_eff": parallel_eff,
        "cli.self_s": self_time(["cli.command"]) / n_ops,
        "cli.bytes_written": sum(bytes_per_op) / n_ops,
        "trace.overhead_frac": overhead_frac,
    }
