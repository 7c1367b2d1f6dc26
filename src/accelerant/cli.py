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
    BreakdownError,
    DEFAULT_POLICY,
    SequenceWindow,
    _lozenge_update,
    breakdown_check,
    read_sequence_file,
)
from .driver import (
    CSV_HEADER,
    CycleConfig,
    DivergenceError,
    METHOD_NAMES,
    FixedPointProblem,
    run_cycles,
)
from .illposed import (
    csv_report,
    error_optimal_index,
    rre_tsvd,
    select_truncation_index,
)
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
from .scalar import NonexistenceError, epsilon_scalar, iterated_aitken, rho, theta

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

# Restarted projection with a fixed test basis needs enough smoothing
# steps per cycle on stiff problems; twenty is the shipped default that
# keeps the mmpe rows convergent on the hardest bundled benchmark.
_MMPE_WARMUP = 20


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


def _tableau_summary(window, tableau):
    """Best even-column estimate plus the step sizes behind the diagnostics."""
    best = tableau.best_estimate()
    column = sorted(tableau.column(best.order_k).items())
    acc_step = None
    if len(column) >= 2:
        acc_step = abs(column[-1][1] - column[-2][1])
    elif best.order_k >= 2:
        shallower = sorted(tableau.column(best.order_k - 2).items())
        if shallower:
            acc_step = abs(best.value - shallower[-1][1])
    raw_step = abs(window.terms[-1] - window.terms[-2])
    return best, acc_step, raw_step


def cmd_scalar(args) -> int:
    try:
        window, label = _scalar_window(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(window.terms) < 3:
        print("error: need at least 3 terms to accelerate", file=sys.stderr)
        return 1

    lines = [f"sequence: {label}", f"method: {args.method}"]
    flagged: list[tuple[int, int]] = []
    if args.method == "aitken":
        levels = iterated_aitken(window, max_k=(len(window.terms) - 1) // 2)
        if len(levels) < 2:
            print("\n".join(lines), file=sys.stderr)
            print("breakdown before any accelerated estimate", file=sys.stderr)
            return 2
        best = levels[-1][-1]
        deepest = levels[-1]
        acc_step = abs(deepest[-1].value - deepest[-2].value) \
            if len(deepest) >= 2 else abs(best.value - levels[-2][-1].value)
        raw_step = abs(window.terms[-1] - window.terms[-2])
    else:
        transform = {"epsilon": epsilon_scalar, "rho": rho, "theta": theta}[args.method]
        try:
            tableau = transform(window)
            best, acc_step, raw_step = _tableau_summary(window, tableau)
        except BreakdownError as exc:
            print("\n".join(lines), file=sys.stderr)
            print(f"breakdown before any accelerated estimate: {exc}",
                  file=sys.stderr)
            return 2
        flagged = tableau.flagged_entries()
        if best.order_k == 0:
            print("\n".join(lines), file=sys.stderr)
            print("breakdown before any accelerated estimate: only raw terms "
                  "survive in the table", file=sys.stderr)
            return 2

    lines.append(f"estimate = {_fmt(best.value)}")
    lines.append(f"order = {best.order_k}")
    lines.append(f"pilot index = {best.pilot_index_n}")
    if flagged:
        first = flagged[0]
        lines.append(f"breakdowns: {len(flagged)} flagged entries "
                     f"(first at column {first[0]}, index {first[1]})")
    else:
        lines.append("breakdowns: none")
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


def _problem_norm(problem_name: str):
    if problem_name == "pagerank":
        return lambda z: float(np.abs(z).sum())
    return lambda z: float(np.linalg.norm(z))


def _cycle_config(args, method: str, dimension: int) -> CycleConfig:
    warmup = args.p
    test_vectors = None
    if method == "mmpe":
        if warmup is None:
            warmup = _MMPE_WARMUP
        rng = np.random.default_rng(args.seed)
        test_vectors = qr_mgs(rng.standard_normal((dimension, args.m))).q
    return CycleConfig(method=method, width_m=args.m,
                       warmup_p=0 if warmup is None else warmup,
                       tol=args.tol, max_cycles=args.max_cycles,
                       test_vectors=test_vectors, depth=args.depth,
                       damping=args.damping)


# ---------------------------------------------------------------------------
# solve subcommand


def cmd_solve(args) -> int:
    problem = _build_problem(args, args.seed)
    config = _cycle_config(args, args.method, problem.dimension)
    try:
        report = run_cycles(problem, config)
    except DivergenceError as exc:
        print(f"error: diverged - {exc}", file=sys.stderr)
        return 3
    _emit(CSV_HEADER + "\n" + report.csv_row(), args.output)
    return 0 if report.reason == "converged" else 3


# ---------------------------------------------------------------------------
# illposed subcommand


def cmd_illposed(args) -> int:
    model = illposed_synthetic(args.n, args.decay, args.noise, args.seed)
    exact = None
    if args.exact:
        smooth = 1.0 / np.arange(1, model.rank + 1)
        exact = model.v @ smooth
    k_max = min(args.k_max, model.rank)
    table = csv_report(model, k_max, exact_solution=exact)
    residuals = [norm for _, _, norm in rre_tsvd(model, k_max)]
    lines = [table.rstrip("\n")]
    if len(residuals) >= 3:
        selected = select_truncation_index(residuals)
        lines.append(f"# selected k = {selected} (residual stagnation)")
    if exact is not None:
        lines.append(f"# error-optimal k = {error_optimal_index(model, exact, k_max)}")
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

    def csv(self) -> str:
        return ",".join([self.method, str(self.iterations),
                         _fmt(self.final_residual), _fmt(self.seconds),
                         self.status])

    def markdown(self) -> str:
        return "| " + " | ".join([self.method, str(self.iterations),
                                  _fmt(self.final_residual),
                                  _fmt(self.seconds), self.status]) + " |"


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
                error_aware: bool, norm) -> tuple[int, float, str, np.ndarray]:
    current = np.array(problem.initial_guess, dtype=float)
    initial = None
    prev_delta = None
    for evals in range(1, max_evals + 1):
        nxt = problem.mapping(current)
        delta = norm(nxt - current)
        if initial is None:
            initial = max(delta, _TINY)
        if error_aware:
            if _error_aware_stop(delta, prev_delta, tol, norm(nxt)):
                return evals, delta / initial, "converged", nxt
            prev_delta = delta
        elif delta <= tol * initial:
            return evals, delta / initial, "converged", nxt
        if not math.isfinite(delta) or delta > 1e12 * initial:
            return evals, delta / initial, "diverged", nxt
        current = nxt
    return max_evals, delta / initial, "max_cycles", current


def _componentwise_aitken(s0, s1, s2):
    den = s2 - 2.0 * s1 + s0
    num = (s2 - s1) ** 2
    guard = DEFAULT_POLICY.relative_threshold * np.maximum(
        np.abs(s2) + 2.0 * np.abs(s1) + np.abs(s0), _TINY)
    safe = np.abs(den) > guard
    out = s2.copy()
    out[safe] = s2[safe] - num[safe] / den[safe]
    return np.where(np.isfinite(out), out, s2)


def _componentwise_quotient(a, b, k, n):
    """Inverse difference per component, NaN where a component breaks down."""
    d = b - a
    safe = breakdown_check(d, np.maximum(np.abs(a), np.abs(b)))
    return np.where(safe, 1.0 / d, np.nan)


def _run_componentwise(problem: FixedPointProblem, tol: float, max_evals: int,
                       kind: str, error_aware: bool,
                       norm) -> tuple[int, float, str, np.ndarray]:
    start = np.array(problem.initial_guess, dtype=float)
    recent = [start]
    diagonal = [start]
    accelerated = start
    prev_accelerated = None
    prev_delta = None
    status = "max_cycles"
    evals = 0
    for evals in range(1, max_evals + 1):
        recent = recent[-2:] + [problem.mapping(recent[-1])]
        if kind == "epsilon":
            with np.errstate(all="ignore"):
                diagonal = _lozenge_update(diagonal, recent[-1], evals,
                                           _componentwise_quotient)
        if evals < 2:
            continue
        if kind == "aitken":
            accelerated = _componentwise_aitken(*recent)
        else:
            # deepest finite even-column entry per component; a breakdown
            # turns a component NaN along with everything that reads it
            accelerated = diagonal[0]
            for candidate in diagonal[2::2]:
                accelerated = np.where(np.isfinite(candidate), candidate,
                                       accelerated)
        if error_aware:
            accelerated = np.abs(accelerated)
            accelerated /= accelerated.sum()
        if prev_accelerated is not None:
            delta = norm(accelerated - prev_accelerated)
            if error_aware:
                if _error_aware_stop(delta, prev_delta, tol, norm(accelerated)):
                    status = "converged"
                    break
                prev_delta = delta
            elif delta <= tol * max(norm(accelerated), _TINY):
                status = "converged"
                break
        prev_accelerated = accelerated
    initial = max(norm(problem.mapping(start) - start), _TINY)
    final = norm(problem.mapping(accelerated) - accelerated) / initial
    return evals, final, status, accelerated


def _bench_row(method: str, args) -> BenchRow:
    problem = _build_problem(args, args.seed)
    error_aware = args.problem == "pagerank"
    norm = _problem_norm(args.problem)
    start = time.perf_counter()
    try:
        if method == "picard":
            evals, final, status, _ = _run_picard(
                problem, args.tol, args.max_cycles, error_aware, norm)
        elif method in ("aitken", "epsilon"):
            evals, final, status, _ = _run_componentwise(
                problem, args.tol, args.max_cycles, method, error_aware, norm)
        else:
            report = run_cycles(problem, _cycle_config(args, method,
                                                       problem.dimension))
            evals, final, status = (report.iterations, report.final_residual,
                                    report.reason)
    except DivergenceError:
        return BenchRow(method, 0, math.inf,
                        time.perf_counter() - start, "diverged")
    except (BreakdownError, NonexistenceError) as exc:
        return BenchRow(method, 0, math.inf, time.perf_counter() - start,
                        f"breakdown ({type(exc).__name__})")
    return BenchRow(method, evals, final, time.perf_counter() - start, status)


def _render_rows(rows: list[BenchRow], fmt: str) -> str:
    if fmt == "md":
        header = "| " + " | ".join(BENCH_HEADER.split(",")) + " |"
        rule = "|" + "|".join(" --- " for _ in BENCH_HEADER.split(",")) + "|"
        return "\n".join([header, rule] + [row.markdown() for row in rows])
    return "\n".join([BENCH_HEADER] + [row.csv() for row in rows])


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
    rows = [_bench_row(name, args) for name in methods]
    _emit(_render_rows(rows, args.format), args.output)
    if all(row.status != "converged" for row in rows):
        return 3
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="relative stopping tolerance (default 1e-8)")
    parser.add_argument("--max-cycles", type=int, default=1000,
                        help="iteration budget: restart cycles for vector "
                             "methods, map evaluations otherwise (default 1000)")
    parser.add_argument("--seed", type=int, default=42,
                        help="seed behind every random choice (default 42)")
    parser.add_argument("--format", choices=("csv", "md"), default="csv",
                        help="table format for bench output (default csv)")
    parser.add_argument("--output", default=None,
                        help="write the table to this path instead of stdout")


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=None,
                        help="problem size for linear/fredholm/pagerank "
                             "(defaults 100/500/5000)")
    parser.add_argument("--grid", type=int, default=40,
                        help="interior grid points per side for pde (default 40)")
    parser.add_argument("--coupling", type=float, default=0.5,
                        help="integral-term weight for fredholm (default 0.5)")
    parser.add_argument("--alpha", type=float, default=0.85,
                        help="damping factor for pagerank (default 0.85)")
    parser.add_argument("--avg-degree", type=int, default=8,
                        help="out-degree of the synthetic graph (default 8)")
    parser.add_argument("--edges", default=None,
                        help="edge-list file for pagerank instead of the "
                             "synthetic graph")
    parser.add_argument("--radius", type=float, default=0.9,
                        help="spectral radius of the linear test map "
                             "(default 0.9)")
    parser.add_argument("--m", type=int, default=5,
                        help="restart width for vector methods (default 5)")
    parser.add_argument("--p", type=int, default=None,
                        help="warmup map applications per cycle (default 0; "
                             "mmpe defaults to 20)")
    parser.add_argument("--depth", type=int, default=5,
                        help="history depth for anderson (default 5)")
    parser.add_argument("--damping", type=float, default=1.0,
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
    scalar_p.add_argument("--terms", type=int, default=12,
                          help="terms to generate for --series (default 12)")
    _add_common(scalar_p)
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
    ill_p.add_argument("--n", type=int, default=200, help="model dimension")
    ill_p.add_argument("--decay", type=float, default=1.0,
                       help="log-slope of the singular values (default 1.0)")
    ill_p.add_argument("--noise", type=float, default=1e-2,
                       help="relative data noise (default 1e-2)")
    ill_p.add_argument("--k-max", type=int, default=40,
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
