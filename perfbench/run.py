#!/usr/bin/env python3
"""bggkit benchmark: one seeded workload per run, checked and timed.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload blocks_cold --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of that checkout, in this process,
on one thread.  The last line of stdout is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  The line before it is a JSON ``detail``
object: the environment, the sample counts and the tail percentile, the
error rate and, when tracing, the overhead and the time accounting.

Untraced run: set up several times, each from a fresh import (each time
the bggkit modules are dropped from ``sys.modules`` so that every
process-level cache starts empty), then repeat the workload's fixed set of
operations in rounds for about ``--seconds`` seconds.  Set-ups and
operations are timed by this thread's CPU time, which leaves out the time
the CPU spent on other processes or was taken by the hypervisor (steal);
on one thread with no I/O it is the time a user waits on an idle machine.
Each time is scaled to a reference machine speed measured while it ran
(see ``speed.py``).  ``setup_s`` is the median over set-ups and each
operation's time its median over rounds.

Traced run: one untraced set-up and two rounds, then one set-up and one
round with every layer's public functions wrapped by ``tracing.Tracer``.  Its
per-layer metrics cover the traced set-up and round, so counts repeat
exactly for a given seed; its times are elapsed time, not scaled.

Exit status: 0 when every output passed its check, 1 when some did not,
2 when the benchmark cannot run here (no ``src/bggkit`` beside it).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# byte-compiled modules are used as an installed package would use them,
# whatever PYTHONDONTWRITEBYTECODE says
sys.dont_write_bytecode = False

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from speed import Speed, probe  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, Raised  # noqa: E402

# set up at least SETUP_MIN_REPEATS times and for at least SETUP_MIN_S
# seconds in all, so that a set-up of a few milliseconds still gets a
# steady median
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_MIN_S = 1.0
# environment switches read by bggkit that would change what is measured
KNOBS = ("BGGKIT_WORKERS", "BGGKIT_PURE_PYTHON")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND_TAIL = 10
UNTRACED_ROUNDS = 2
# probes run before the first timed set-up, so that none times a cold start
WARM_PROBES = 20

END_TO_END_UNITS = {
    "cpu_s": "s",
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "ok_rate": "ratio",
}


class CannotRun(Exception):
    """The checkout has no usable library source."""


def import_library():
    """A fresh import of bggkit from ``src/``, with empty caches."""
    for name in [n for n in sys.modules if n == "bggkit" or n.startswith("bggkit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        lib = importlib.import_module("bggkit")
        importlib.import_module("bggkit.cli")
    except ImportError as exc:
        raise CannotRun(f"cannot import bggkit from {SRC}: {exc}") from None
    if Path(lib.__file__).resolve().parent != SRC / "bggkit":
        raise CannotRun(f"bggkit was imported from {lib.__file__}, not {SRC}")
    return lib


def environment(lib, cleared):
    return {
        "kernel_impl": lib.KERNEL_IMPL,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "knobs_unset": list(KNOBS),
        "knobs_cleared": cleared,
    }


def git_sha():
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def clear_knobs():
    """Unset the bggkit switches for this process; return those that were set."""
    cleared = [k for k in KNOBS if k in os.environ]
    for k in cleared:
        del os.environ[k]
    return cleared


# -- timing ------------------------------------------------------------------

def timed_setup(workload, clock):
    """Fresh import plus the workload's set-up; returns (lib, start, end)."""
    workload.release()
    gc.collect()
    start = clock()
    lib = import_library()
    workload.setup(lib)
    return lib, start, clock()


def run_round(ops, clock, on_op=None):
    """Run every operation once; returns (wall, op spans, outputs).

    ``clock`` gives each operation's (start, end); the wall is always
    elapsed time.  ``on_op(i)`` runs after operation ``i``, outside its span.
    """
    spans, outputs = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            out = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = Raised(exc)
        spans.append((t0, clock()))
        outputs.append(out)
        if on_op is not None:
            on_op(i)
    return time.perf_counter() - start, spans, outputs


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * pct / 100) - 1)]


def tail_percentile(n):
    """The highest ladder percentile with MIN_BEYOND_TAIL samples beyond it.

    None when a round has too few operations for any; the tail is then
    the slowest operation.
    """
    for pct in TAIL_LADDER:
        if n - math.ceil(n * pct / 100) >= MIN_BEYOND_TAIL:
            return pct
    return None


def op_stats(op_times):
    ordered = sorted(op_times)
    pct = tail_percentile(len(ordered))
    tail = ordered[-1] if pct is None else percentile(ordered, pct)
    return statistics.median(ordered), tail, pct


# -- checking ----------------------------------------------------------------

def failures(workload, lib, first, repeats_differing=0):
    """Problems with the first round's outputs, by the oracles.

    Later rounds are not checked again: each must reproduce the first
    round's outputs exactly, and ``repeats_differing`` counts those that
    did not.
    """
    found = [p for p in workload.check(first, lib) if p]
    found.extend(["output differs from the first round"] * repeats_differing)
    return found


# -- the two kinds of run --------------------------------------------------

def untraced(workload, seconds, fault=None):
    for _ in range(WARM_PROBES):
        probe()
    setups, rounds = [], []
    walls, first, differing = [], None, 0
    with Speed() as speed:
        while (len(setups) < SETUP_MIN_REPEATS
               or sum(b - a for a, b in setups) < SETUP_MIN_S
               and len(setups) < SETUP_MAX_REPEATS):
            lib, *span = timed_setup(workload, speed.clock)
            setups.append(span)
        if fault is not None:
            fault(lib)
        ops = workload.ops()
        start = time.perf_counter()
        while True:
            wall, spans, outs = run_round(ops, speed.clock)
            walls.append(wall)
            rounds.append(spans)
            if first is None:
                first = outs
            else:
                differing += sum(a != b for a, b in zip(first, outs))
            del outs
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
    # each operation's median over rounds, at the reference speed
    per_op = [statistics.median(speed.scaled(*span) for span in op)
            for op in zip(*rounds)]
    per_op_cpu = [statistics.median(b - a for a, b in op) for op in zip(*rounds)]
    found = failures(workload, lib, first, differing)
    attempted = len(ops) * len(walls)
    p50, tail, pct = op_stats(per_op)
    metrics = {
        "cpu_s": sum(per_op),
        "setup_s": statistics.median(speed.scaled(*span) for span in setups),
        "op_p50_ms": 1e3 * p50,
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_rate": 1 - len(found) / attempted,
    }
    detail = {
        "rounds": len(walls),
        "ops_per_round": len(ops),
        "round_walls_s": walls,
        "median_round_wall_s": statistics.median(walls),
        "setups_cpu_s": [b - a for a, b in setups],
        "speed_factor": speed.overall(),
        "probes": len(speed.rates),
        "unscaled_cpu_s": sum(per_op_cpu),
        "op_samples": len(per_op),
        "tail_percentile": pct if pct is not None else "max",
        "error_rate": len(found) / attempted,
        "problems": found[:20],
    }
    return lib, attempted, found, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                                   for k, v in metrics.items()}, detail


def traced(workload, fault=None):
    # the untraced baseline is each operation's fastest of UNTRACED_ROUNDS,
    # as for cpu_s, since a process's first round runs slower; the traced
    # run is timed by the elapsed-time clock that the spans use
    lib, *_ = timed_setup(workload, time.perf_counter)
    ops = workload.ops()
    rounds = [run_round(ops, time.perf_counter)[1] for _ in range(UNTRACED_ROUNDS)]
    plain_wall = sum(min(b - a for a, b in op) for op in zip(*rounds))

    workload.release()
    gc.collect()
    tracer = Tracer()
    start = time.perf_counter()
    lib = import_library()
    tracer.install()
    workload.setup(lib)
    traced_setup = time.perf_counter() - start
    if fault is not None:
        fault(lib)

    before = tracer.snapshot()
    top_before = tracer.top_level_s
    kernel = tracer.stats["pbw.multiply_monomials"]
    per_op_kernel = []
    last = [kernel.calls]

    def count_kernel(_):
        per_op_kernel.append(kernel.calls - last[0])
        last[0] = kernel.calls

    wall, spans, outputs = run_round(workload.ops(), time.perf_counter,
                                     count_kernel)
    traced_wall = sum(b - a for a, b in spans)
    covered = tracer.top_level_s - top_before
    tracer.uninstall()

    found = failures(workload, lib, outputs)
    if workload.name == "blocks_cold":
        cold = [n > 0 for n in per_op_kernel]
        if not all(cold):
            found.append(f"coldness guard: {cold.count(False)} block(s) ran "
                         "without a kernel call; a process-level cache leaked")
    else:
        cold = None

    round_stats = {name: stat.self_s - before[name].self_s
                   for name, stat in tracer.stats.items()}
    layer_round = {layer: sum(v for n, v in round_stats.items()
                              if n.split(".", 1)[0] == layer)
                   for layer in LAYERS}
    harness = wall - covered
    detail = {
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "tracing_overhead_s": traced_wall - plain_wall,
        "tracing_overhead_ratio": traced_wall / plain_wall - 1,
        "traced_round_s": wall,
        "traced_setup_s": traced_setup,
        "round_self_s_by_layer": layer_round,
        "round_harness_s": harness,
        "round_accounted_ratio": (sum(layer_round.values()) + harness) / wall,
        "setup_self_s_by_layer": {layer: tracer.layer_self(layer, before)
                                  for layer in LAYERS},
        "coldness_guard": ("passed" if cold is not None and all(cold) else
                           "failed" if cold is not None else "not applicable"),
        "kernel_calls_per_op": per_op_kernel if cold is not None else None,
        "error_rate": len(found) / len(outputs),
        "problems": found[:20],
    }
    return lib, len(outputs), found, tracer.metrics(), detail


def run(workload_name, seed, seconds, trace, size="full", fault=None):
    """One benchmark run in this process; returns (result, detail).

    ``fault``, when given, is called with the freshly set-up library just
    before the timed operations; the tests use it to corrupt answers.
    """
    cleared = clear_knobs()
    reference = json.loads((HERE / "reference.json").read_text())
    workload = WORKLOADS[workload_name](seed, size, reference)
    if trace:
        lib, attempted, found, metrics, detail = traced(workload, fault)
    else:
        lib, attempted, found, metrics, detail = untraced(workload, seconds, fault)
    detail = {"workload": workload_name, "seed": seed, "size": size,
              "trace": trace, "env": environment(lib, cleared), **detail}
    failed = min(len(found), attempted)
    result = {"correct": not found, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    try:
        result, detail = run(args.workload, args.seed, args.seconds, args.trace,
                             args.size)
    except CannotRun as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
