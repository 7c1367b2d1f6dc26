"""accelerant's benchmark: one workload per process, BLAS pinned to one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pde80 --seed 42 --seconds 30 --trace 0

Set-up (problem and model construction) runs several times, then passes
over the workload's operations repeat until ``--seconds`` would be overrun
(at least one pass).  Times are the process's CPU time: the process is
single-threaded, so this is its wall time less the time it waited for a
core, which on a shared machine is the neighbours' load rather than the
library's.  The neighbours also slow the core itself, so a fixed reference
loop runs between set-ups and operations (see ``hostspeed.py``) and its
median time gives the run's host slowdown.  ``setup_s`` is the median
set-up time, and ``solve_s`` the sum of each operation's median over the
passes, both divided by that slowdown.  The unscaled sum is printed as
``solve_cpu_s``, and wall times too.  Every output is checked, and counts
must repeat exactly from pass to pass.

``--trace 1`` adds one traced set-up and pass after the untraced passes,
writes its spans to ``perfbench/traces/<workload>-seed<seed>.json`` and
reports the per-layer table derived from that file instead of the
end-to-end metrics.

Human-readable lines (environment, one row per solve, the metrics) come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "ACCELERANT_THREADS")
# Set-up repeats at least this often, and until this much time is spent.
SETUP_REPEATS = 5
SETUP_S = 2.0
ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = Path(__file__).resolve().parent / "traces"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs every operation at toy sizes")
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: os.environ[name] for name in PINNED_THREADS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def measure(workload, built, scale, seed: int, seconds: float, host):
    """Passes until the next one would end past ``seconds``; at least one."""
    from workloads import Pass

    passes = []
    start = time.perf_counter()
    while True:
        p = Pass(host=host)
        workload.run(p, built, scale, seed)
        passes.append(p)
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def traced_passes(workload, scale, seed: int):
    """A traced set-up and pass, then the driver solves under tracemalloc.

    Memory is traced in a pass of its own because tracemalloc slows every
    allocation and would distort the spans' self times.
    """
    import tracemalloc

    import spans
    from workloads import MemoryPass, Pass

    tracer = spans.Tracer()
    patches = spans.instrument(tracer)
    try:
        built = workload.setup(scale, seed)
        traced = Pass(tracer)
        workload.run(traced, built, scale, seed)
    finally:
        spans.restore(patches)
    tracemalloc.start()
    try:
        memory = MemoryPass()
        workload.run(memory, built, scale, seed)
    finally:
        tracemalloc.stop()
    peaks = {op.label: op.peak_alloc_mb for op in memory.ops}
    for op in traced.ops:
        op.peak_alloc_mb = peaks.get(op.label, 0.0)
    return tracer, traced, memory


def layer_table(name: str, args, tracer, traced, untraced_s: float) -> dict:
    """Write the trace file, then derive the per-layer table from it."""
    import spans

    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{name}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": name, "seed": args.seed, "scale": args.scale,
                   "spans": tracer.spans, "counts": dict(tracer.counts),
                   "flagged_entries": traced.flagged_entries,
                   "ops": [op_record(op) for op in traced.ops],
                   "untraced_solve_s": untraced_s,
                   "traced_solve_s": traced.cpu_s}, handle)
    with open(path, encoding="utf-8") as handle:
        trace = json.load(handle)
    labels = {op["index"]: op["label"] for op in trace["ops"]}
    for index, share in spans.map_share_by_op(trace).items():
        print(f"map share {labels[index]}: {share:.3f}")
    return spans.layer_metrics(trace)


def op_record(op) -> dict:
    return {"index": op.index, "kind": op.kind, "label": op.label,
            "seconds": op.seconds, "cpu_s": op.cpu_s,
            "peak_alloc_mb": op.peak_alloc_mb,
            "failures": op.failures,
            "rows": [vars(row) for row in op.rows]}


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in PINNED_THREADS:
        os.environ[name] = "1"
    src = ROOT / "src"
    if not (src / "accelerant" / "__init__.py").is_file():
        print(f"error: no accelerant sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import accelerant
    import workloads
    from hostspeed import HostSpeed

    if Path(accelerant.__file__).resolve().parent != src / "accelerant":
        print(f"error: imported accelerant from {accelerant.__file__}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    scale = workloads.SCALES[args.scale]
    print(json.dumps({"env": environment(args.seed)}))

    host = HostSpeed()
    setup_times = []
    while not setup_times or not args.trace and (
            len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_S):
        host.sample_if_due()
        start = time.process_time()
        built = workload.setup(scale, args.seed)
        setup_times.append(time.process_time() - start)
    passes = measure(workload, built, scale, args.seed, args.seconds, host)
    slowdown = host.slowdown()
    print(f"host_slowdown {slowdown!r} over {len(host.samples)} reference "
          "loops")
    # Each operation's median over the passes, summed: robust to bursts of
    # contention from other tenants of the machine.
    untraced_s = sum(statistics.median(p.ops[i].cpu_s for p in passes)
                     for i in range(len(passes[0].ops)))
    if args.trace:
        tracer, traced, memory = traced_passes(workload, scale, args.seed)
        passes += [traced, memory]
    first = passes[0]
    for later in passes[1:]:
        workloads.check_repeat(first, later)

    ops = [op for p in passes for op in p.ops]
    failures = [message for op in ops for message in op.failures]
    untraced = [p for p in passes if p.tracer is None and not p.memory]
    for index, op in enumerate(first.ops):
        for row_index, row in enumerate(op.rows):
            row.seconds = statistics.median(
                p.ops[index].rows[row_index].seconds for p in untraced)
            print(json.dumps({"row": {"workload": workload.name, **vars(row)}}))
    for message in failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)

    solves = [row for op in first.ops for row in op.rows
              if row.converged is not None]
    converged = sum(bool(row.converged) for row in solves) / len(solves)
    failed = sum(bool(op.failures) for op in ops)
    if args.trace:
        metrics = layer_table(workload.name, args, tracer, traced, untraced_s)
    else:
        metrics = {
            "solve_s": (untraced_s / slowdown, "s"),
            "setup_s": (statistics.median(setup_times) / slowdown, "s"),
            "map_calls": (sum(row.map_calls for row in solves), "count"),
            "converged_frac": (converged, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
    # Printed for reading only: their complement converged_frac carries the
    # bound, and failed_frac is zero on a healthy run.
    print(f"unconverged_frac {1 - converged!r} ratio")
    print(f"failed_frac {failed / len(ops)!r} ratio")
    print("pass wall_s " + " ".join(f"{p.solve_s:.4f}" for p in passes))
    print("pass cpu_s " + " ".join(f"{p.cpu_s:.4f}" for p in passes))
    print(f"solve_cpu_s {untraced_s!r} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
