"""Command-line front end for the acceleration toolkit.

Four subcommands cover the workflows the library supports end to end:

``scalar``
    Apply a scalar sequence transformation to a built-in test series or a
    sequence file and print the best estimate with diagnostics.
``solve``
    Run one accelerated fixed-point solve and print its report row.
``illposed``
    Run the regularized-extrapolation demo on a synthetic spectral model
    and emit the per-order error/residual table.
``bench``
    Run several methods on one benchmark problem and emit a comparison
    table (CSV or pipe-delimited markdown), one row per method.

All randomness is derived from ``--seed`` (default 42), so every table is
reproducible except for the timing column.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    _TINY,
    _norm,
    _passes,
    BreakdownError,
    SequenceWindow,
    breakdown_check,
    read_sequence_file,
)
from .driver import (
    CSV_HEADER,
    _TEST_BASIS_METHODS,
    _outgrew,
    CycleConfig,
    METHOD_NAMES,
    FixedPointProblem,
    run_cycles,
)
from .illposed import _study, select_truncation_index
from .linalg import qr_mgs
from .problems import (
    clustered_graph,
    fredholm,
    illposed_synthetic,
    linear_iteration_generator,
    load_edge_list,
    pagerank,
    reaction_diffusion,
    series_generator,
)
from .scalar import _INVERSE_RULE, epsilon_scalar, iterated_aitken, rho, theta

__all__ = ["main", "BENCH_HEADER", "BENCH_METHODS", "SCALAR_METHODS"]

# Short names accepted by `scalar --series`, mapped to the generator names.
SERIES_ALIASES = {
    "log2": "log2",
    "leibniz": "leibniz_pi",
    "logseq": "logarithmic",
    "geom": "geometric_mixture",
}

SCALAR_METHODS = ("epsilon", "aitken", "rho", "theta")

# Plain iteration plus the componentwise scalar accelerators join the
# vector methods in benchmark tables.
BENCH_METHODS = ("picard", "aitken", "epsilon") + METHOD_NAMES

BENCH_PROBLEMS = ("linear", "pde", "fredholm", "pagerank")

BENCH_HEADER = "method,iterations,final_residual,seconds,status"

_DEFAULT_N = {"linear": 100, "fredholm": 500, "pagerank": 5000}

# Projection with a fixed test basis gets seeded random test vectors and
# twenty smoothing steps per cycle: without the steps a cycle on an affine
# map returns its own start and the run stops ``stalled``, and the stiffest
# benchmark needs them to converge.
_TEST_BASIS_WARMUP = 20

# A run that meets its tolerance during the one-time warmup has converged.
_CONVERGED = ("converged", "warmup")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _emit(text: str, output: str | None) -> None:
    if output is None:
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


# ---------------------------------------------------------------------------
# scalar subcommand


def _scalar_window(args) -> tuple[SequenceWindow, str]:
    if args.input is not None:
        window = read_sequence_file(args.input)
        if not window.is_scalar:
            raise ValueError(f"{args.input}: expected one number per line")
        return window, f"{args.input}, {len(window.terms)} terms"
    name = SERIES_ALIASES[args.series]
    window = series_generator(name, args.terms)
    return window, f"{args.series}, {args.terms} terms"


def _accelerate(window, method: str):
    """The best estimate, the accelerated step behind the stagnation
    diagnostic (None if there is none) and a description of the breakdowns
    (None if there were none); raises :class:`BreakdownError` when no
    accelerated estimate exists."""
    if method == "aitken":
        max_k = (len(window) - 1) // 2
        levels = iterated_aitken(window, max_k=max_k)
        if len(levels) < 2:
            raise BreakdownError("delta-squared completes no level")
        deepest = levels[-1]
        best = deepest[-1]
        acc_step = abs(deepest[-1].value - deepest[-2].value) \
            if len(deepest) >= 2 else abs(best.value - levels[-2][-1].value)
        # iterated_aitken stops short of max_k only on a breakdown
        breakdowns = None
        if len(levels) - 1 < max_k:
            breakdowns = (f"delta-squared level {len(levels)} broke down "
                          f"(stopped at level {len(levels) - 1} of {max_k})")
        return best, acc_step, breakdowns
    transform = {"epsilon": epsilon_scalar, "rho": rho, "theta": theta}[method]
    # the full table: the stagnation diagnostic may read a column the
    # rolling table has already evicted
    tableau = transform(window, keep_full=True)
    best = tableau.best_estimate()
    if best.order_k == 0:
        raise BreakdownError("only raw terms survive in the table")
    column = sorted(tableau.column(best.order_k).items())
    acc_step = None
    if len(column) >= 2:
        acc_step = abs(column[-1][1] - column[-2][1])
    elif best.order_k >= 2:
        shallower = sorted(tableau.column(best.order_k - 2).items())
        if shallower:
            acc_step = abs(best.value - shallower[-1][1])
    flagged = tableau.flagged_entries()
    breakdowns = None
    if flagged:
        breakdowns = (f"{len(flagged)} flagged entries (first at column "
                      f"{flagged[0][0]}, index {flagged[0][1]})")
    return best, acc_step, breakdowns


def cmd_scalar(args) -> int:
    window, label = _scalar_window(args)
    if len(window.terms) < 3:
        print("error: need at least 3 terms to accelerate", file=sys.stderr)
        return 1

    lines = [f"sequence: {label}", f"method: {args.method}"]
    try:
        best, acc_step, breakdowns = _accelerate(window, args.method)
    except BreakdownError as exc:
        print("\n".join(lines), file=sys.stderr)
        print(f"breakdown before any accelerated estimate: {exc}",
              file=sys.stderr)
        return 2
    raw_step = abs(window.terms[-1] - window.terms[-2])
    lines.append(f"estimate = {_fmt(best.value)}")
    lines.append(f"order = {best.order_k}")
    lines.append(f"pilot index = {best.pilot_index_n}")
    lines.append(f"breakdowns: {breakdowns or 'none'}")
    if acc_step is not None and acc_step >= 0.5 * raw_step:
        lines.append(
            f"diagnostic: stagnation - accelerated step {acc_step:.3e} is not "
            f"meaningfully below the raw step {raw_step:.3e}; this transform "
            "is not helping (logarithmic convergence?)")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# problem construction shared by solve and bench


def _build_problem(args, rng_seed: int) -> FixedPointProblem:
    name = args.problem
    if name == "linear":
        n = args.n or _DEFAULT_N["linear"]
        return linear_iteration_generator(n, args.radius, rng_seed).as_fixed_point()
    if name == "pde":
        return reaction_diffusion(args.grid)
    if name == "fredholm":
        return fredholm(args.n or _DEFAULT_N["fredholm"], args.coupling)
    if name == "pagerank":
        if args.edges is not None:
            graph = load_edge_list(args.edges)
        else:
            graph = clustered_graph(args.n or _DEFAULT_N["pagerank"],
                                    args.avg_degree, rng_seed)
        return pagerank(graph, alpha=args.alpha)
    raise ValueError(f"unknown problem {name!r}")


def _cycle_config(args, method: str, dimension: int) -> CycleConfig:
    warmup = args.p
    test_vectors = None
    if method in _TEST_BASIS_METHODS:
        # names --m before qr_mgs refuses it; run_cycles guards library callers
        if args.m > dimension:
            raise ValueError(f"--m {args.m} exceeds the problem dimension "
                             f"{dimension}: {method} needs --m <= {dimension}")
        if warmup is None:
            warmup = _TEST_BASIS_WARMUP
        rng = np.random.default_rng(args.seed)
        test_vectors = qr_mgs(rng.standard_normal((dimension, args.m))).q
    return CycleConfig(method=method, width_m=args.m,
                       warmup_p=0 if warmup is None else warmup,
                       tol=args.tol, max_cycles=args.max_cycles,
                       test_vectors=test_vectors, damping=args.damping)


# ---------------------------------------------------------------------------
# solve subcommand


def cmd_solve(args) -> int:
    problem = _build_problem(args, args.seed)
    config = _cycle_config(args, args.method, problem.dimension)
    report = run_cycles(problem, config)
    _emit(CSV_HEADER + "\n" + report.csv_row(), args.output)
    if report.reason not in _CONVERGED:
        print(f"stopped: {report.reason}", file=sys.stderr)
    return 0 if report.reason in _CONVERGED else 3


# ---------------------------------------------------------------------------
# illposed subcommand


def cmd_illposed(args) -> int:
    model = illposed_synthetic(args.n, args.decay, args.noise, args.seed)
    exact = None
    if args.exact:
        smooth = 1.0 / np.arange(1, model.rank + 1)
        exact = model.v @ smooth
    k_max = min(args.k_max, model.rank - 1)  # rre_tsvd reads k_max + 1 terms
    table, residuals, optimal = _study(model, k_max, exact)
    lines = [table.rstrip("\n")]
    if len(residuals) >= 3:
        selected = select_truncation_index(residuals)
        lines.append(f"# selected k = {selected} (residual stagnation)")
    if exact is not None:
        lines.append(f"# error-optimal k = {optimal}")
    _emit("\n".join(lines), args.output)
    return 0


# ---------------------------------------------------------------------------
# bench subcommand


@dataclass(frozen=True)
class BenchRow:
    method: str
    iterations: int
    final_residual: float
    seconds: float
    status: str

    def cells(self) -> list[str]:
        return [self.method, str(self.iterations), _fmt(self.final_residual),
                _fmt(self.seconds), self.status]


def _norm1(z: np.ndarray) -> float:
    """The 1-norm, which error-aware (pagerank) runs measure steps in."""
    return float(np.abs(z).sum())


def _error_aware_stop(delta: float, prev_delta: float | None, tol: float,
                      scale: float) -> bool:
    """Estimate the remaining error of a linearly converging sequence.

    With contraction factor rho the true distance to the limit is about
    delta * rho / (1 - rho); stopping when that estimate falls below
    tol/2 * scale leaves two such runs within tol of each other.
    """
    if prev_delta is None or not delta < prev_delta:
        return False
    ratio = min(delta / prev_delta, 0.995)
    return delta * ratio / (1.0 - ratio) <= 0.5 * tol * scale


def _run_picard(problem: FixedPointProblem, tol: float, max_evals: int,
                error_aware: bool) -> tuple[int, float, str, np.ndarray]:
    if max_evals < 1:
        raise ValueError("max_evals must be at least 1")
    norm = _norm1 if error_aware else _norm
    current = np.array(problem.initial_guess, dtype=float)
    initial = None
    prev_delta = None
    for evals in range(1, max_evals + 1):
        nxt = problem.mapping(current)
        delta = norm(nxt - current)
        if initial is None:
            initial = best = max(delta, _TINY)
        if error_aware:
            if _error_aware_stop(delta, prev_delta, tol, norm(nxt)):
                return evals, delta / initial, "converged", nxt
            prev_delta = delta
        elif delta <= tol * initial:
            return evals, delta / initial, "converged", nxt
        if not math.isfinite(delta) or _outgrew(delta, initial, best):
            return evals, delta / initial, "diverged", nxt
        best = min(best, delta)
        current = nxt
    return max_evals, delta / initial, "max_cycles", current


def _componentwise_aitken(s0, s1, s2):
    den = s2 - 2.0 * s1 + s0
    num = (s2 - s1) ** 2
    safe = breakdown_check(den, np.abs(s2) + 2.0 * np.abs(s1) + np.abs(s0))
    out = s2.copy()
    out[safe] = s2[safe] - num[safe] / den[safe]
    return np.where(np.isfinite(out), out, s2)


def _lozenge_update(diagonal: list, term) -> list:
    """Wynn's ascending-diagonal step of componentwise epsilon.

    ``diagonal`` holds the entries e_k^(n) with k + n = i - 1, column 0
    first; the result holds those with k + n = i, from ``term`` = e_0^(i)
    and the inverse-difference step ``epsilon_scalar`` runs, per
    component.  A component whose difference breaks down is NaN, and so
    is every later entry that reads it.  Adding one term costs one
    inverse difference per column, so the running sequence extends its
    table without rebuilding it.

    The step consumes ``diagonal``: each old entry leaves the list when it
    is read and is dropped after its last read, as ``back``, so a step
    holds one diagonal plus two entries.
    """
    _, gap, step = _INVERSE_RULE
    new = [term]
    back = 0.0
    for k in range(1, len(diagonal) + 1):
        a, diagonal[k - 1] = diagonal[k - 1], None
        b = new[-1]
        d, size, scale = gap(k, a, b, back)
        new.append(np.where(_passes(size, scale), step(k, d, size, a, b, back),
                            np.nan))
        back = a
    return new


def _deepest_finite(diagonal: list) -> np.ndarray:
    """Per component, the deepest finite even-column entry of ``diagonal``
    (column 0's where none is).  A breakdown turns a component NaN along
    with everything that reads it; the scan climbs from the deepest column
    and stops once no component is missing."""
    evens = diagonal[::2]
    best = evens[-1]
    for candidate in reversed(evens[:-1]):
        missing = ~np.isfinite(best)
        if not missing.any():
            break
        best = np.where(missing, candidate, best)
    return best


def _run_componentwise(problem: FixedPointProblem, tol: float, max_evals: int,
                       kind: str,
                       error_aware: bool) -> tuple[int, float, str, np.ndarray]:
    if max_evals < 1:
        raise ValueError("max_evals must be at least 1")
    norm = _norm1 if error_aware else _norm
    start = np.array(problem.initial_guess, dtype=float)
    recent = [start]
    diagonal = [start]
    accelerated = start
    prev_accelerated = None
    prev_delta = None
    status = "max_cycles"
    for evals in range(1, max_evals + 1):
        recent = recent[-2:] + [problem.mapping(recent[-1])]
        if evals == 1:
            initial = best_step = best_delta = max(norm(recent[-1] - start),
                                                   _TINY)
        if kind == "epsilon":
            with np.errstate(all="ignore"):
                diagonal = _lozenge_update(diagonal, recent[-1])
        if evals < 2:
            continue
        # picard's test on the plain iterates, which can run away while the
        # accelerated point sits still: the run then reports the last one
        step = norm(recent[-1] - recent[-2])
        if not math.isfinite(step) or _outgrew(step, initial, best_step):
            accelerated = recent[-1]
            status = "diverged"
            break
        best_step = min(best_step, step)
        if kind == "aitken":
            accelerated = _componentwise_aitken(*recent)
        else:
            accelerated = _deepest_finite(diagonal)
        if error_aware:
            accelerated = np.abs(accelerated)
            accelerated /= accelerated.sum()
        if prev_accelerated is not None:
            delta = norm(accelerated - prev_accelerated)
            # before the stop test, which an inf step would pass
            if not math.isfinite(delta) or _outgrew(delta, initial, best_delta):
                status = "diverged"
                break
            best_delta = min(best_delta, delta)
            if error_aware:
                if _error_aware_stop(delta, prev_delta, tol, norm(accelerated)):
                    status = "converged"
                    break
                prev_delta = delta
            elif delta <= tol * max(norm(accelerated), _TINY):
                status = "converged"
                break
        prev_accelerated = accelerated
    # one more evaluation for the final residual (nan at an inf point)
    image = problem.mapping(accelerated)
    with np.errstate(invalid="ignore"):
        final = norm(image - accelerated) / initial
    return evals + 1, final, status, accelerated


def _bench_row(method: str, args, problem: FixedPointProblem) -> BenchRow:
    error_aware = args.problem == "pagerank"
    start = time.perf_counter()
    if method == "picard":
        evals, final, status, _ = _run_picard(
            problem, args.tol, args.max_cycles, error_aware)
    elif method in ("aitken", "epsilon"):
        evals, final, status, _ = _run_componentwise(
            problem, args.tol, args.max_cycles, method, error_aware)
    else:
        try:
            config = _cycle_config(args, method, problem.dimension)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return BenchRow(method, 0, math.nan,
                            time.perf_counter() - start, "refused")
        report = run_cycles(problem, config)
        evals, final, status = (report.iterations, report.final_residual,
                                report.reason)
    return BenchRow(method, evals, final, time.perf_counter() - start, status)


def _render_rows(rows: list[BenchRow], fmt: str) -> str:
    table = [BENCH_HEADER.split(",")] + [row.cells() for row in rows]
    if fmt == "md":
        table.insert(1, ["---"] * len(table[0]))
        return "\n".join("| " + " | ".join(cells) + " |" for cells in table)
    return "\n".join(",".join(cells) for cells in table)


def cmd_bench(args) -> int:
    methods = [name.strip() for name in args.methods.split(",") if name.strip()]
    if not methods:
        print("error: --methods must name at least one method", file=sys.stderr)
        return 1
    unknown = [name for name in methods if name not in BENCH_METHODS]
    if unknown:
        print(f"error: unknown method(s) {', '.join(unknown)}; choose from "
              f"{', '.join(BENCH_METHODS)}", file=sys.stderr)
        return 1
    # every bundled map is stateless, so all rows share one build
    problem = _build_problem(args, args.seed)
    rows = [_bench_row(name, args, problem) for name in methods]
    _emit(_render_rows(rows, args.format), args.output)
    if any(row.status == "refused" for row in rows):
        return 1
    return 3 if all(row.status not in _CONVERGED for row in rows) else 0


# ---------------------------------------------------------------------------
# argument parsing


def _at_least(low: int):
    """An argparse type for integers of at least ``low``, so a value out of
    range is refused in the flag's name, not the library parameter's."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0:  # NaN fails too, as in CycleConfig
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42,
                        help="seed behind every random choice (default 42)")
    parser.add_argument("--output", default=None,
                        help="write the table to this path instead of stdout")


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=_positive_float, default=1e-8,
                        help="relative stopping tolerance (default 1e-8)")
    parser.add_argument("--max-cycles", type=_at_least(1), default=1000,
                        help="iteration budget: restart cycles for vector "
                             "methods, map evaluations otherwise (default 1000)")
    parser.add_argument("--n", type=_at_least(1), default=None,
                        help="problem size for linear/fredholm/pagerank "
                             "(defaults 100/500/5000)")
    parser.add_argument("--grid", type=_at_least(3), default=40,
                        help="interior grid points per side for pde (default 40)")
    parser.add_argument("--coupling", type=float, default=0.5,
                        help="integral-term weight for fredholm (default 0.5)")
    parser.add_argument("--alpha", type=float, default=0.85,
                        help="damping factor for pagerank (default 0.85)")
    parser.add_argument("--avg-degree", type=_at_least(2), default=8,
                        help="out-degree of the synthetic graph (default 8)")
    parser.add_argument("--edges", default=None,
                        help="edge-list file for pagerank instead of the "
                             "synthetic graph")
    parser.add_argument("--radius", type=float, default=0.9,
                        help="spectral radius of the linear test map "
                             "(default 0.9)")
    parser.add_argument("--m", type=_at_least(1), default=5,
                        help="restart width for vector methods, history "
                             "depth for anderson (default 5)")
    parser.add_argument("--p", type=_at_least(0), default=None,
                        help="warmup map applications, run once before the "
                             "first stop check and, for rre, mpe, mmpe, "
                             "sbeta and h, again before every later one "
                             "(default 0; mmpe, sbeta and h default to 20)")
    parser.add_argument("--damping", type=_positive_float, default=1.0,
                        help="mixing parameter for anderson (default 1.0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accelerant",
        description="Sequence transformations and accelerated fixed-point "
                    "solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    scalar_p = sub.add_parser(
        "scalar", help="accelerate a scalar sequence and print the estimate")
    source = scalar_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--series", choices=tuple(SERIES_ALIASES),
                        help="built-in test series")
    source.add_argument("--input", help="sequence file, one term per line")
    scalar_p.add_argument("--method", required=True, choices=SCALAR_METHODS,
                          help="transformation to apply")
    scalar_p.add_argument("--terms", type=_at_least(3), default=12,
                          help="terms to generate for --series (default 12)")
    scalar_p.set_defaults(func=cmd_scalar)

    solve_p = sub.add_parser(
        "solve", help="run one accelerated fixed-point solve")
    solve_p.add_argument("--problem", required=True, choices=BENCH_PROBLEMS)
    solve_p.add_argument("--method", required=True, choices=METHOD_NAMES)
    _add_problem_flags(solve_p)
    _add_common(solve_p)
    solve_p.set_defaults(func=cmd_solve)

    ill_p = sub.add_parser(
        "illposed", help="regularized extrapolation on a synthetic model")
    # the illposed study tabulates truncation orders 1 to rank - 1
    ill_p.add_argument("--n", type=_at_least(2), default=200,
                       help="model dimension, at least 2 (default 200)")
    ill_p.add_argument("--decay", type=_positive_float, default=1.0,
                       help="log-slope of the singular values (default 1.0)")
    ill_p.add_argument("--noise", type=float, default=1e-2,
                       help="relative data noise (default 1e-2)")
    ill_p.add_argument("--k-max", type=_at_least(1), default=40,
                       help="largest truncation order to tabulate (default 40)")
    ill_p.add_argument("--exact", action="store_true",
                       help="include error columns against the known solution")
    _add_common(ill_p)
    ill_p.set_defaults(func=cmd_illposed)

    bench_p = sub.add_parser(
        "bench", help="compare methods on one problem, one row per method")
    bench_p.add_argument("--problem", required=True, choices=BENCH_PROBLEMS)
    bench_p.add_argument("--methods", required=True,
                         help="comma-separated list, e.g. picard,rre,anderson")
    bench_p.add_argument("--format", choices=("csv", "md"), default="csv",
                         help="table format (default csv)")
    _add_problem_flags(bench_p)
    _add_common(bench_p)
    bench_p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; file/parse and
        # unknown-name problems are exit 1 by contract.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
