"""The benchmark's four workloads and the independent checks on their outputs.

Each workload has a set-up step (problem and model construction, timed as
``setup_s``) and a pass (every timed operation, summed into ``solve_s``).
Operations reach the library only through its public entry points: the
``problems`` builders, ``driver.run_cycles`` with ``CycleConfig``, the
public functions of ``linalg``, ``scalar`` and ``illposed``, and
``cli.main`` for the componentwise rows (``picard``, ``aitken``,
``epsilon``), which have no other public route.

Every library name is looked up on its module at call time, so the traced
run (see ``spans.py``) can wrap it.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
import tracemalloc
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from accelerant import cli, driver, illposed, linalg, problems, scalar
from accelerant.core import BreakdownError
from accelerant.driver import CycleConfig, DivergenceError, FixedPointProblem
from accelerant.linalg import RankDeficiencyError
from accelerant.scalar import NonexistenceError

TOL = 1e-6
WIDTH = 5
ANDERSON_DEPTH = 5
# The CLI's mmpe settings: 20 warmup steps and WIDTH seeded orthonormal
# test vectors.
MMPE_WARMUP = 20
BUDGET = 1000
PICARD_BUDGET = 30000
# sbeta and h allocate a dense N x N identity per cycle; 20 cycles keep
# that cost (and its memory peak) visible without dominating pde80.
CAPPED_CYCLES = 20
# mmpe on pde80 depends on its seeded test vectors.  With the CLI's
# default ones (seed 42) it converges in 65 cycles; with those of seeds
# 0-7 it is still short of tol after 100 cycles, and at about half of the
# seeds after all 1000 (27022 map calls, ~6 s).  pde80 therefore runs
# mmpe twice, on fixed test vectors: the CLI default, and seed 0 capped at
# 100 cycles, so the failure shows in every run and the run seed cannot
# swing the workload's cost or its converged fraction.
CLI_DEFAULT_SEED = 42
# The componentwise rows on pagerank20k run on the graph of this fixed
# seed.  Componentwise epsilon costs the cube of its iteration count, which
# is 17 to 20 across seeds 1-15: drawn from the run seed, that alone moved
# the workload's time by up to a quarter from seed to seed.
PAGERANK_CLI_SEED = CLI_DEFAULT_SEED
MMPE_FAILING_SEED = 0
MMPE_FAILING_CYCLES = 100
GRAPH_DEGREE = 8
ALPHA = 0.85
LINEAR_RADIUS = 0.9
# The linear instances.  At seed 42 tea, stea1 and stea2 diverge and sbeta
# and h run out their budget; at seed 8 plain iteration and componentwise
# Aitken run out theirs; at seed 13 rre and stea2 do too.  At most seeds
# every method converges, so instances drawn from the run seed would leave
# these failure paths to chance and swing the workload's cost threefold.
# The run seed drives the mmpe test vectors.
LINEAR_SEEDS = (42, 8, 13)
COUPLING = 0.5
TSVD_DECAY, TSVD_NOISE = 0.1, 1e-2
# A scalar estimate counts as converged within this distance of its limit.
SCALAR_ACCURACY = 1e-6
# The README's truncated-SVD claim, measured in the setting where it is
# stated (demos/04 and acceptance criterion 8): n=200, decay 1.0, 1% noise,
# levels up to 40.  It fails at about 1 seed in 22 (19, 43, 54, ...), so
# it is an outcome of the method, like convergence, not an output check.
CLAIM_MODEL = (200, 1.0, 1e-2)
CLAIM_K_MAX = 40
CLAIM_FACTOR = 1.5

# Map evaluations on pde80 at tol 1e-6, width 5.  Neither the problem nor
# the mmpe test vectors depend on the run seed, so these hold at every
# seed.
PDE80_REFERENCE = {"picard": 21342, "rre": 3291, "mpe": 1975, "mmpe": 1777,
                   "vea": 10319, "tea": 3477, "stea2": 1530, "anderson": 283}
PDE80_MMPE_FAILING = 2722

CONVERGED = ("converged", "warmup")
BREAKDOWNS = (BreakdownError, NonexistenceError, RankDeficiencyError)
COMPONENTWISE = tuple(m for m in cli.BENCH_METHODS
                      if m not in driver.METHOD_NAMES)


@dataclass(frozen=True)
class Scale:
    grid: int
    graph_nodes: int
    linear_n: int
    fredholm_n: int
    series_lengths: tuple[int, ...]
    tsvd_n: int
    tsvd_k_max: int
    svd_n: int
    svd_count: int
    pinned_counts: bool


SCALES = {
    "full": Scale(grid=80, graph_nodes=20000, linear_n=100, fredholm_n=500,
                  series_lengths=(12, 16, 20, 24, 28, 32, 36, 40, 48),
                  tsvd_n=400, tsvd_k_max=160, svd_n=30,
                  svd_count=3, pinned_counts=True),
    # For the smoke test: every operation and check, at toy sizes.
    "tiny": Scale(grid=10, graph_nodes=200, linear_n=20, fredholm_n=50,
                  series_lengths=(12, 16), tsvd_n=100, tsvd_k_max=30,
                  svd_n=8, svd_count=2, pinned_counts=False),
}


# ---------------------------------------------------------------------------
# records


@dataclass
class Row:
    """One solve, or one operation that is not a solve (``converged`` None)."""

    problem: str
    method: str
    map_calls: int = 0
    cycles: int = 0
    fallback_cycles: int = 0
    reason: str = ""
    final_residual: float | None = None
    seconds: float = 0.0
    converged: bool | None = None

    def counts(self) -> tuple:
        """Everything but the time; it must repeat exactly between passes."""
        return (self.problem, self.method, self.map_calls, self.cycles,
                self.fallback_cycles, self.reason, self.final_residual)


@dataclass
class Op:
    """One timed call into the library; failed checks land in ``failures``.

    ``seconds`` is wall time; ``cpu_s`` is the process's CPU time over the
    same call, which excludes the time the process waited for a core.
    """

    index: int
    kind: str
    label: str
    rows: list[Row] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0
    cpu_s: float = 0.0
    peak_alloc_mb: float = 0.0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(f"{self.label}: {message}")

    @contextlib.contextmanager
    def reading(self):
        """Output that cannot be parsed fails the op instead of the run."""
        try:
            yield
        except (ValueError, KeyError, IndexError) as exc:
            self.check(False, f"unreadable output: {exc!r}")


@dataclass
class Problem:
    name: str
    fixed_point: FixedPointProblem
    test_vectors: np.ndarray

    @cached_property
    def reference_norm(self) -> float:
        x0 = self.fixed_point.initial_guess
        return float(np.linalg.norm(self.fixed_point.mapping(x0) - x0))


class CountedMap:
    """Counts map evaluations and keeps the last point mapped.

    The driver rebinds its iterates rather than changing them in place, so
    a reference suffices (the residual check would catch it otherwise).
    """

    def __init__(self, mapping, tracer=None):
        self.calls = 0
        self.last: np.ndarray | None = None
        self._mapping = mapping if tracer is None \
            else tracer.wrap("problems.map", mapping)

    def __call__(self, point):
        self.calls += 1
        self.last = point
        return self._mapping(point)


def seeded_problem(name: str, fixed_point: FixedPointProblem,
                   seed: int) -> Problem:
    """Attach the seeded orthonormal mmpe test vectors, built as the CLI does."""
    rng = np.random.default_rng(seed)
    basis = linalg.qr_mgs(rng.standard_normal((fixed_point.dimension, WIDTH)))
    return Problem(name, fixed_point, basis.q)


def cycle_config(method: str, problem: Problem, max_cycles: int) -> CycleConfig:
    """The settings ``accelerant bench`` gives a driver method."""
    mmpe = method == "mmpe"
    return CycleConfig(method=method, width_m=WIDTH,
                       warmup_p=MMPE_WARMUP if mmpe else 0, tol=TOL,
                       max_cycles=max_cycles,
                       test_vectors=problem.test_vectors if mmpe else None,
                       depth=ANDERSON_DEPTH)


# ---------------------------------------------------------------------------
# one pass over a workload


class Pass:
    """Runs and checks the operations of one pass and sums their times.

    With a tracer, each operation's calls are recorded as spans.  With a
    ``hostspeed.HostSpeed``, the gap before each operation may run its
    reference loop.
    """

    memory = False

    def __init__(self, tracer=None, host=None):
        self.tracer = tracer
        self.host = host
        self.ops: list[Op] = []
        self.solve_s = 0.0
        self.cpu_s = 0.0
        self.flagged_entries = 0

    def _op(self, kind: str, label: str) -> Op:
        op = Op(index=len(self.ops), kind=kind, label=label)
        self.ops.append(op)
        return op

    def _timed(self, op: Op, call, span: str | None = None):
        """Run ``call`` as the op's timed region; return (result, exception)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op = op.index
            if span is not None:
                call = tracer.wrap(span, call)
        if self.host is not None:
            self.host.sample_if_due()
        if self.memory:
            tracemalloc.reset_peak()
            baseline = tracemalloc.get_traced_memory()[0]
        start, cpu = time.perf_counter(), time.process_time()
        try:
            return call(), None
        except Exception as exc:  # the op boundary: record it, keep running
            return None, exc
        finally:
            op.cpu_s = time.process_time() - cpu
            op.seconds = time.perf_counter() - start
            self.solve_s += op.seconds
            self.cpu_s += op.cpu_s
            if self.memory:
                peak = tracemalloc.get_traced_memory()[1]
                op.peak_alloc_mb = (peak - baseline) / 2**20
            if tracer is not None:
                tracer.op = None

    def driver_solve(self, problem: Problem, method: str,
                     max_cycles: int = BUDGET,
                     expected_calls: int | None = None) -> None:
        op = self._op("driver", f"{problem.name}/{method}")
        config = cycle_config(method, problem, max_cycles)
        counted = CountedMap(problem.fixed_point.mapping, self.tracer)
        wrapped = FixedPointProblem(
            dimension=problem.fixed_point.dimension, mapping=counted,
            initial_guess=problem.fixed_point.initial_guess)
        report, exc = self._timed(
            op, lambda: driver.run_cycles(wrapped, config), "driver.run_cycles")
        row = Row(problem.name, method, map_calls=counted.calls,
                  seconds=op.seconds)
        op.rows.append(row)
        if isinstance(exc, DivergenceError):
            row.reason, row.converged = "diverged", False
        elif isinstance(exc, BREAKDOWNS):
            row.reason, row.converged = "breakdown", False
        elif exc is not None:
            row.reason = "error"
            op.check(False, f"{type(exc).__name__}: {exc}")
        else:
            row.cycles = report.cycles
            row.fallback_cycles = report.fallback_cycles
            row.reason = report.reason
            row.final_residual = report.final_residual
            row.converged = report.reason in CONVERGED
            op.check(counted.calls == report.iterations,
                     f"wrapper counted {counted.calls} map calls, the report "
                     f"{report.iterations}")
            last = counted.last
            relative = float(np.linalg.norm(
                problem.fixed_point.mapping(last) - last)) \
                / problem.reference_norm
            op.check(relative == report.final_residual,
                     f"recomputed residual {relative!r}, reported "
                     f"{report.final_residual!r}")
            if row.converged:
                op.check(relative <= TOL,
                         f"{report.reason} at residual {relative:.3e}")
        if expected_calls is not None:
            op.check(row.map_calls == expected_calls,
                     f"{row.map_calls} map calls, reference {expected_calls}")

    def cli_bench(self, problem: str, problem_args: list[str],
                  methods: tuple[str, ...], seed: int, max_cycles: int,
                  residual_stop: bool = True,
                  expected_calls: dict[str, int] | None = None) -> None:
        """One ``accelerant bench`` call, timed whole.

        ``residual_stop`` says the CLI stops plain iteration on the relative
        residual (every problem but pagerank), so a converged ``picard`` row
        must report a residual within tol.
        """
        op = self._op("cli", f"{problem}/bench {','.join(methods)}")
        argv = ["bench", *problem_args, "--methods", ",".join(methods),
                "--tol", repr(TOL), "--max-cycles", str(max_cycles),
                "--seed", str(seed)]
        out = io.StringIO()

        def call():
            with contextlib.redirect_stdout(out):
                return cli.main(argv)

        code, exc = self._timed(op, call, "cli.bench")
        if exc is not None:
            op.check(False, f"{type(exc).__name__}: {exc}")
            return
        with op.reading():
            header, *lines = out.getvalue().strip().splitlines()
            for line in lines:
                entry = dict(zip(header.split(","), line.split(",")))
                method, status = entry["method"], entry["status"]
                row = Row(problem, method, map_calls=int(entry["iterations"]),
                          reason=status,
                          final_residual=float(entry["final_residual"]),
                          seconds=float(entry["seconds"]),
                          converged=status == "converged")
                op.rows.append(row)
        for row in op.rows:
            if row.converged:
                op.check(math.isfinite(row.final_residual),
                         f"{row.method} converged at {row.final_residual}")
                if row.method == "picard" and residual_stop:
                    op.check(row.final_residual <= TOL,
                             f"picard converged at {row.final_residual}")
            if expected_calls and row.method in expected_calls:
                op.check(row.map_calls == expected_calls[row.method],
                         f"{row.method}: {row.map_calls} map calls, "
                         f"reference {expected_calls[row.method]}")
        op.check(tuple(r.method for r in op.rows) == methods,
                 f"rows {[r.method for r in op.rows]}")
        any_converged = any(r.converged for r in op.rows)
        op.check(code == (0 if any_converged else 3), f"exit code {code}")

    def scalar_transform(self, series: str, window, limit: float,
                         method: str, built_for: bool) -> None:
        terms = len(window)
        op = self._op("scalar", f"{series}[{terms}]/{method}")
        row = Row(f"{series}[{terms}]", method, map_calls=terms)
        op.rows.append(row)
        transform = getattr(scalar, method)

        def call():
            """The estimate and the count of flagged tableau entries."""
            if method == "iterated_aitken":
                levels = transform(window, max_k=(terms - 1) // 2)
                return levels[-1][-1].value, 0
            table = transform(window)
            return table.best_estimate().value, len(table.flagged_entries())

        result, exc = self._timed(op, call)
        row.seconds = op.seconds
        if isinstance(exc, BREAKDOWNS):
            row.reason, row.converged = "breakdown", False
        elif exc is not None:
            row.reason = "error"
            op.check(False, f"{type(exc).__name__}: {exc}")
        else:
            estimate, flagged = result
            self.flagged_entries += flagged
            row.final_residual = abs(estimate - limit)
            row.converged = row.final_residual <= SCALAR_ACCURACY
            row.reason = "converged" if row.converged else "inaccurate"
        if built_for:
            op.check(bool(row.converged),
                     f"{row.reason}, error {row.final_residual}")

    def tsvd_study(self, model, exact: np.ndarray, k_max: int) -> None:
        """``csv_report``, ``rre_tsvd`` and both truncation pickers."""
        op = self._op("tsvd", f"illposed{model.rank}/tsvd_study")

        def call():
            table = illposed.csv_report(model, k_max, exact_solution=exact)
            triples = illposed.rre_tsvd(model, k_max)
            selected = illposed.select_truncation_index(
                [norm for _, _, norm in triples])
            return table, triples, selected, \
                illposed.error_optimal_index(model, exact, k_max)

        result, exc = self._timed(op, call)
        row = Row(f"illposed{model.rank}", "tsvd_study", seconds=op.seconds)
        op.rows.append(row)
        if exc is not None:
            op.check(False, f"{type(exc).__name__}: {exc}")
            return
        table, triples, selected, k_opt = result
        plain, residuals = independent_tsvd(model, exact, k_max)
        want_selected = stagnation_index(residuals)
        want_opt = int(np.argmin(plain)) + 1
        op.check(selected == want_selected,
                 f"selected k={selected}, recomputed {want_selected}")
        op.check(k_opt == want_opt,
                 f"error-optimal k={k_opt}, recomputed {want_opt}")
        with op.reading():
            header, *lines = table.strip().splitlines()
            op.check(len(lines) == k_max, f"csv_report has {len(lines)} rows")
            for k, line in enumerate(lines[:k_max], start=1):
                entry = dict(zip(header.split(","), line.split(",")))
                extrapolated = relative_error(triples[k - 1][0], exact)
                op.check(math.isclose(float(entry["generalized_residual"]),
                                      residuals[k - 1], rel_tol=1e-9)
                         and math.isclose(float(entry["tsvd_rel_error"]),
                                          plain[k - 1], rel_tol=1e-9)
                         and math.isclose(
                             float(entry["extrapolated_rel_error"]),
                             extrapolated, rel_tol=1e-9),
                         f"csv_report row {k} disagrees with the "
                         "recomputation")
        row.reason = f"selected k={selected}"
        row.final_residual = relative_error(triples[selected - 1][0], exact)

    def tsvd_claim(self, model, exact: np.ndarray) -> None:
        """Does the extrapolated error stay within 1.5x of its floor past the
        error-optimal level while plain truncation blows up (README)?"""
        op = self._op("tsvd", f"illposed{model.rank}/tsvd_claim")
        result, exc = self._timed(op, lambda: (
            illposed.rre_tsvd(model, CLAIM_K_MAX),
            illposed.error_optimal_index(model, exact, CLAIM_K_MAX)))
        row = Row(f"illposed{model.rank}", "tsvd_claim", seconds=op.seconds)
        op.rows.append(row)
        if exc is not None:
            op.check(False, f"{type(exc).__name__}: {exc}")
            return
        triples, k_opt = result
        plain, _ = independent_tsvd(model, exact, CLAIM_K_MAX)
        extrapolated = [relative_error(point, exact) for point, _, _ in triples]
        floor = min(extrapolated)
        beyond = max(extrapolated[k_opt - 1:])
        op.check(k_opt == int(np.argmin(plain)) + 1,
                 f"error-optimal k={k_opt} disagrees with the recomputation")
        row.converged = beyond <= CLAIM_FACTOR * floor \
            and max(plain) >= 10.0 * min(plain)
        row.reason = f"{'holds' if row.converged else 'fails'} past k={k_opt}"
        row.final_residual = beyond / floor

    def svd_from_matrix(self, name: str, a: np.ndarray,
                        b: np.ndarray) -> None:
        op = self._op("svd", f"{name}/from_matrix")
        model, exc = self._timed(op, lambda: illposed.SvdModel.from_matrix(a, b),
                                 "illposed.from_matrix")
        row = Row(name, "from_matrix", seconds=op.seconds)
        op.rows.append(row)
        if exc is not None:
            op.check(False, f"{type(exc).__name__}: {exc}")
            return
        sigma = np.linalg.svd(a, compute_uv=False)
        error = float(np.max(np.abs(model.sigma - sigma))) / sigma[0]
        misfit = float(np.linalg.norm((model.u * model.sigma) @ model.v.T - a)
                       / np.linalg.norm(a))
        op.check(error <= 1e-10, f"singular values off by {error:.3e}")
        op.check(misfit <= 1e-10, f"U S V^T misses A by {misfit:.3e}")
        row.reason, row.final_residual = "ok", misfit


class MemoryPass(Pass):
    """The driver solves only, under tracemalloc, keeping each one's peak
    above its starting allocation; tracemalloc must be running.

    tracemalloc slows every allocation several times over, and a solve's
    peak depends on its dimension and method rather than on the instance,
    so each (dimension, method) pair runs once.
    """

    memory = True

    def __init__(self):
        super().__init__()
        self._measured: set[tuple[int, str]] = set()

    def driver_solve(self, problem: Problem, method: str, *args, **kwargs):
        key = (problem.fixed_point.dimension, method)
        if key not in self._measured:
            self._measured.add(key)
            super().driver_solve(problem, method, *args, **kwargs)

    def _skip(self, *args, **kwargs) -> None:
        pass

    cli_bench = scalar_transform = tsvd_study = tsvd_claim = \
        svd_from_matrix = _skip


def check_repeat(first: Pass, later: Pass) -> None:
    """Counts, reasons and residuals must repeat exactly between passes."""
    rows = {op.label: op.rows for op in first.ops}
    for op in later.ops:
        op.check([r.counts() for r in rows[op.label]]
                 == [r.counts() for r in op.rows],
                 "counts differ from the first pass")


def relative_error(point: np.ndarray, exact: np.ndarray) -> float:
    return float(np.linalg.norm(point - exact) / np.linalg.norm(exact))


def independent_tsvd(model, exact: np.ndarray,
                     k_max: int) -> tuple[list[float], list[float]]:
    """Plain truncated-SVD errors and extrapolated residual norms for
    k = 1..k_max, recomputed with numpy from the model's factors."""
    coefficients = (model.u.T @ model.rhs) / model.sigma
    plain = [relative_error(model.v[:, :k] @ coefficients[:k], exact)
             for k in range(1, k_max + 1)]
    kept = coefficients[coefficients != 0.0]
    residuals = 1.0 / np.sqrt(np.cumsum(1.0 / kept ** 2))
    return plain, [float(r) for r in residuals[1:k_max + 1]]


def stagnation_index(residuals: list[float]) -> int:
    """First level whose successor fails to drop by the relative slack."""
    for k in range(1, len(residuals)):
        if residuals[k] >= (1.0 - illposed.STAGNATION_SLACK) * residuals[k - 1]:
            return k
    return len(residuals)


def exact_solution(model) -> np.ndarray:
    """The synthetic models' noise-free solution: coefficients 1/j on v."""
    return model.v @ (1.0 / np.arange(1, model.rank + 1))


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Scale, int], dict]
    run: Callable[[Pass, dict, Scale, int], None]


def _pde_setup(scale: Scale, seed: int) -> dict:
    """pde80 has no seeded input: see ``MMPE_FAILING_SEED``."""
    fixed_point = problems.reaction_diffusion(scale.grid)
    name = f"pde{scale.grid}"
    return {"pde": seeded_problem(name, fixed_point, CLI_DEFAULT_SEED),
            "failing": seeded_problem(f"{name}-tv{MMPE_FAILING_SEED}",
                                      fixed_point, MMPE_FAILING_SEED)}


def _pde_run(p: Pass, built: dict, scale: Scale, seed: int) -> None:
    pde = built["pde"]
    pinned = PDE80_REFERENCE if scale.pinned_counts else {}
    p.cli_bench(pde.name, ["--problem", "pde", "--grid", str(scale.grid)],
                ("picard",), CLI_DEFAULT_SEED, PICARD_BUDGET,
                expected_calls=pinned)
    for method in ("rre", "mpe", "mmpe", "vea", "tea", "stea2", "anderson"):
        p.driver_solve(pde, method, expected_calls=pinned.get(method))
    p.driver_solve(built["failing"], "mmpe", MMPE_FAILING_CYCLES,
                   expected_calls=PDE80_MMPE_FAILING if pinned else None)
    for method in ("sbeta", "h"):
        p.driver_solve(pde, method, max_cycles=CAPPED_CYCLES)


def _pagerank_setup(scale: Scale, seed: int) -> dict:
    graph = problems.clustered_graph(scale.graph_nodes, GRAPH_DEGREE, seed)
    fixed_point = problems.pagerank(graph, alpha=ALPHA)
    return {"pagerank": seeded_problem(f"pagerank{scale.graph_nodes}",
                                       fixed_point, seed)}


def _pagerank_run(p: Pass, built: dict, scale: Scale, seed: int) -> None:
    pagerank = built["pagerank"]
    for method in ("rre", "mpe", "mmpe", "stea2", "anderson"):
        p.driver_solve(pagerank, method)
    p.cli_bench(f"{pagerank.name}-s{PAGERANK_CLI_SEED}",
                ["--problem", "pagerank", "--n", str(scale.graph_nodes),
                 "--avg-degree", str(GRAPH_DEGREE), "--alpha", repr(ALPHA)],
                COMPONENTWISE, PAGERANK_CLI_SEED, BUDGET, residual_stop=False)


def _small_setup(scale: Scale, seed: int) -> dict:
    linear = []
    for instance in LINEAR_SEEDS:
        fixed_point = problems.linear_iteration_generator(
            scale.linear_n, LINEAR_RADIUS, instance).as_fixed_point()
        linear.append((instance, seeded_problem(
            f"linear{scale.linear_n}-s{instance}", fixed_point, seed)))
    fredholm = problems.fredholm(scale.fredholm_n, COUPLING)
    return {"linear": linear,
            "fredholm": seeded_problem(f"fredholm{scale.fredholm_n}",
                                       fredholm, seed)}


def _small_run(p: Pass, built: dict, scale: Scale, seed: int) -> None:
    linear_args = ["--problem", "linear", "--n", str(scale.linear_n),
                   "--radius", repr(LINEAR_RADIUS)]
    fredholm_args = ["--problem", "fredholm", "--n", str(scale.fredholm_n),
                     "--coupling", repr(COUPLING)]
    runs = [(linear_args, instance, problem)
            for instance, problem in built["linear"]]
    runs.append((fredholm_args, seed, built["fredholm"]))
    for args, instance, problem in runs:
        p.cli_bench(problem.name, args, COMPONENTWISE, instance, BUDGET)
        for method in driver.METHOD_NAMES:
            p.driver_solve(problem, method)


# Built-in series: limit, and the transforms built for that kind of
# convergence (alternating and geometric: epsilon and iterated Aitken;
# logarithmic: rho and theta).  Every transform runs on every series;
# only these pairs must reach the limit.
SERIES = {
    "log2": (math.log(2.0), ("epsilon_scalar", "iterated_aitken")),
    "leibniz_pi": (math.pi, ("epsilon_scalar", "iterated_aitken")),
    "logarithmic": (0.0, ("rho", "theta")),
    "geometric_mixture": (0.0, ("epsilon_scalar", "iterated_aitken")),
}
SCALAR_TRANSFORMS = ("epsilon_scalar", "rho", "theta", "iterated_aitken")


def _scalar_setup(scale: Scale, seed: int) -> dict:
    windows = {(name, n): problems.series_generator(name, n)
               for name in SERIES for n in scale.series_lengths}
    model = problems.illposed_synthetic(scale.tsvd_n, TSVD_DECAY, TSVD_NOISE,
                                        seed)
    claim = problems.illposed_synthetic(*CLAIM_MODEL, seed)
    # The Jacobi SVD's sweep count depends on the matrix: one 30x30 matrix
    # costs between 0.064 and 0.100 s over seeds 0-23, so each pass
    # decomposes several and their sum varies less with the seed.
    rng = np.random.default_rng(seed)
    dense = [(rng.standard_normal((scale.svd_n, scale.svd_n)),
              rng.standard_normal(scale.svd_n))
             for _ in range(scale.svd_count)]
    return {"windows": windows, "model": model, "exact": exact_solution(model),
            "claim": claim, "claim_exact": exact_solution(claim),
            "dense": dense}


def _scalar_run(p: Pass, built: dict, scale: Scale, seed: int) -> None:
    for (name, _), window in built["windows"].items():
        limit, built_for = SERIES[name]
        for method in SCALAR_TRANSFORMS:
            p.scalar_transform(name, window, limit, method,
                               method in built_for)
    p.tsvd_study(built["model"], built["exact"], scale.tsvd_k_max)
    p.tsvd_claim(built["claim"], built["claim_exact"])
    for index, (a, b) in enumerate(built["dense"]):
        p.svd_from_matrix(f"dense{scale.svd_n}-{index}", a, b)


# Why each workload is there: see BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("pde80", _pde_setup, _pde_run),
    Workload("pagerank20k", _pagerank_setup, _pagerank_run),
    Workload("small-robust", _small_setup, _small_run),
    Workload("scalar-illposed", _scalar_setup, _scalar_run),
)}
