"""Spans for the traced run, and the per-layer table derived from them.

The traced run wraps, from outside the library, the public names through
which the driver, the CLI and the benchmark reach each layer: the vector
transforms and ``SequenceWindow`` as the driver module sees them, the
``linalg`` solvers as ``vector``, ``linalg`` and ``illposed`` see them,
and the ``scalar``, ``illposed`` and ``problems`` functions the benchmark
calls.  The builders are wrapped only as the benchmark's set-up reaches
them, so ``problems.build_s`` is set-up time; the CLI's own rebuild for
every bench row stays in ``cli.overhead_s``.  ``Tableau.set_entry`` gets
a counter, not a span.

A span is ``[name, start, end, parent span index, op index]``.  Spans stay
in memory and go to one JSON file when the run ends; ``layer_metrics``
reads that file back.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from accelerant import core, driver, illposed, linalg, problems, scalar, vector

VECTOR = ("vpe_extrapolate", "vea", "tea", "stea", "sbeta", "h_algorithm",
          "anderson_step")
LINALG = ("qr_mgs", "least_squares", "lu_solve", "jacobi_svd")
SCALAR = ("epsilon_scalar", "rho", "theta", "iterated_aitken")
ILLPOSED = ("csv_report", "rre_tsvd", "from_matrix")
BUILDERS = ("reaction_diffusion", "clustered_graph", "pagerank",
            "linear_iteration_generator", "fredholm", "series_generator",
            "illposed_synthetic")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          open_spans[-1] if open_spans else None, self.op])
            open_spans.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_spans.pop()
                spans[index][2] = time.perf_counter()

        return traced


def instrument(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap the layer boundaries; returns what ``restore`` puts back."""
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def span(owner, attr: str, name: str) -> None:
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    for name in VECTOR:
        span(driver, name, f"vector.{name}")
    span(driver, "SequenceWindow", "core.window")
    span(vector, "lu_solve", "linalg.lu_solve")
    span(linalg, "qr_mgs", "linalg.qr_mgs")
    span(illposed, "jacobi_svd", "linalg.jacobi_svd")
    for name in ("csv_report", "rre_tsvd"):
        span(illposed, name, f"illposed.{name}")
    for name in SCALAR:
        span(scalar, name, f"scalar.{name}")
    for name in BUILDERS:
        span(problems, name, f"problems.{name}")

    least_squares = tracer.wrap("linalg.least_squares", vector.least_squares)

    def counted_least_squares(*args, **kwargs):
        fit = least_squares(*args, **kwargs)
        tracer.counts["linalg.rank_deficient"] += bool(fit.rank_deficient)
        return fit

    patch(vector, "least_squares", counted_least_squares)

    set_entry = core.Tableau.set_entry

    def counted_set_entry(table, k, n, value):
        tracer.counts["core.tableau_entries"] += 1
        return set_entry(table, k, n, value)

    patch(core.Tableau, "set_entry", counted_set_entry)
    return patches


def restore(patches: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """The per-layer table, from the contents of a trace file."""
    spans = trace["spans"]
    child_time = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    total_s: defaultdict = defaultdict(float)
    for index, (name, start, end, _, op) in enumerate(spans):
        if op is None and not name.startswith("problems."):
            continue  # set-up work other than the builders, e.g. test vectors
        calls[name] += 1
        total_s[name] += end - start
        self_s[name] += end - start - child_time[index]

    counts = trace["counts"]
    ops = trace["ops"]
    driver_rows = [row for op in ops if op["kind"] == "driver"
                   for row in op["rows"]]
    cli_ops = [op for op in ops if op["kind"] == "cli"]
    cycles = sum(row["cycles"] for row in driver_rows)
    fallbacks = sum(row["fallback_cycles"] for row in driver_rows)
    fits = calls["linalg.least_squares"]
    driver_s = total_s["driver.run_cycles"]
    row_s = sum((row["seconds"] for op in cli_ops for row in op["rows"]), 0.0)
    build_names = [f"problems.{name}" for name in BUILDERS]

    out: dict[str, tuple[float, str]] = {
        "driver.self_s": (self_s["driver.run_cycles"], "s"),
        "driver.cycles": (cycles, "count"),
        "driver.fallback_cycles": (fallbacks, "count"),
        "driver.useful_cycle_ratio":
            ((cycles - fallbacks) / cycles if cycles else 0.0, "ratio"),
        "driver.peak_alloc_mb": (max([op["peak_alloc_mb"] for op in ops
                                      if op["kind"] == "driver"], default=0.0),
                                 "MB"),
        "core.window_s": (self_s["core.window"], "s"),
        "core.window_calls": (calls["core.window"], "count"),
        "core.tableau_entries": (counts.get("core.tableau_entries", 0), "count"),
    }
    for layer, names in (("vector", VECTOR), ("linalg", LINALG),
                         ("scalar", SCALAR)):
        for name in names:
            out[f"{layer}.{name}.calls"] = (calls[f"{layer}.{name}"], "count")
            out[f"{layer}.{name}.self_s"] = (self_s[f"{layer}.{name}"], "s")
    out["linalg.rank_deficient_ratio"] = (
        counts.get("linalg.rank_deficient", 0) / fits if fits else 0.0, "ratio")
    out["scalar.flagged_entries"] = (trace["flagged_entries"], "count")
    for name in ILLPOSED:
        out[f"illposed.{name}.self_s"] = (self_s[f"illposed.{name}"], "s")
    out.update({
        "problems.map_calls": (calls["problems.map"], "count"),
        "problems.map_self_s": (self_s["problems.map"], "s"),
        "problems.map_share":
            (self_s["problems.map"] / driver_s if driver_s else 0.0, "ratio"),
        "problems.build_s": (sum(self_s[name] for name in build_names), "s"),
        "problems.graph_build_s": (self_s["problems.clustered_graph"], "s"),
        "cli.row_s": (row_s, "s"),
        "cli.overhead_s": (sum(op["seconds"] for op in cli_ops) - row_s, "s"),
        "trace.overhead_s":
            (trace["traced_solve_s"] - trace["untraced_solve_s"], "s"),
    })
    return out


def map_share_by_op(trace: dict) -> dict[int, float]:
    """Map self time over driver-solve time, for each driver solve."""
    map_s: defaultdict = defaultdict(float)
    solve_s: dict[int, float] = {}
    for name, start, end, _, op in trace["spans"]:
        if name == "problems.map":
            map_s[op] += end - start
        elif name == "driver.run_cycles":
            solve_s[op] = end - start
    return {op: map_s[op] / seconds for op, seconds in solve_s.items()
            if seconds > 0}
