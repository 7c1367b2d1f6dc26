"""Every library function is reached from an entry point, or listed here.

The entry points are what a user of the library runs: the four demos,
every command line subcommand, and one pass of each benchmark workload at
the harness's smoke-test scale (only the benchmark calls some functions,
such as the Jacobi SVD behind ``SvdModel.from_matrix``).  They run in
process under ``sys.setprofile``, which records every Python function
that starts.  A function in ``src/accelerant`` that none of them reaches
fails the test unless ``UNREACHED`` names it with the reason it stays.  A
name in ``UNREACHED`` that an entry point reaches, or that the source no
longer defines, fails it too, so the list can only shrink.  Adding a name
to the list is a change to this check.

Functions are named from the source with ``ast``: ``module.Class.method``,
``module.outer.inner`` and ``module.outer.<lambda>``.  Code objects carry
a qualified name only from Python 3.11 on, so a call is matched to its
definition by file, first line and name.
"""

import ast
import contextlib
import io
import pathlib
import runpy
import sys

import pytest

import accelerant
from accelerant import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = pathlib.Path(accelerant.__file__).resolve().parent
SEED = 42

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

PAPER = "paper transform with no user path yet (ROADMAP item 12)"
ACCEPTANCE = "acceptance route: an independent route the acceptance tests check"

UNREACHED = {
    "scalar.richardson_table": PAPER,
    "scalar.richardson_table.gap": PAPER,
    "scalar.richardson_table.step": PAPER,
    "scalar.e_algorithm": PAPER,
    "scalar.pade_approximant": PAPER,
    "scalar.pade_approximant.series": PAPER,
    "scalar.aitken_step": PAPER,
    "scalar.BasisFamily.geometric": PAPER,
    "scalar.BasisFamily.geometric.<lambda>": PAPER,
    "scalar.BasisFamily.node_powers": PAPER,
    "scalar.BasisFamily.node_powers.<lambda>": PAPER,
    "scalar.NodeSequence.step_halving": PAPER,
    "scalar.NodeSequence.is_strictly_increasing": PAPER,
    "scalar.NodeSequence.ratios_near_one": PAPER,
    "scalar.RationalFunction.__post_init__": PAPER,
    "scalar.RationalFunction.__call__": PAPER,
    "scalar.shanks_oracle": ACCEPTANCE,
    "scalar.e_algorithm_determinant": ACCEPTANCE,
    "scalar._hadamard_bound": ACCEPTANCE,
    "vector.vpe_oracle": ACCEPTANCE,
    "vector.VpeMethod.mpe": ACCEPTANCE,
    "vector.VpeMethod.rre": ACCEPTANCE,
    "vector.VpeMethod.mmpe": ACCEPTANCE,
    "linalg.gmres_oracle": ACCEPTANCE,
    "linalg.gmres_oracle.<lambda>": ACCEPTANCE,
    "linalg._determinant": ACCEPTANCE,
    "illposed.TsvdSequence.iterate": ACCEPTANCE,
    "illposed.TsvdSequence.iterates": ACCEPTANCE,
    "core.forward_difference": ACCEPTANCE,
    "core.Tableau.set_entry":
        "perfbench/spans.py patches it; it goes with the benchmark "
        "revision (ROADMAP item 2)",
    "vector.generalized_residual":
        "gains a caller in the stop rule of ROADMAP item 5",
    "problems.SparseGraph.__reduce__":
        "a pickled graph is rebuilt through its checking constructor",
    "linalg.SvdConvergenceError.__init__":
        "raised only when the Jacobi sweeps hit their cap, which no "
        "bundled input does",
}


def source_functions() -> dict[tuple[str, int, str], str]:
    """Every function and lambda under ``src/accelerant``, keyed as its
    code object is (file, first line, name), valued by its dotted name."""
    found = {}
    for path in sorted(SOURCE.glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    # a decorated function's code starts at its first decorator
                    first = min([child.lineno] + [
                        decorator.lineno for decorator in child.decorator_list])
                    found[(str(path), first, child.name)] = name
                    visit(child, name + ".")
                elif isinstance(child, ast.Lambda):
                    found[(str(path), child.lineno, "<lambda>")] = \
                        prefix + "<lambda>"
                    visit(child, prefix)
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem + ".")
    return found


def cli_argvs(tmp: pathlib.Path) -> list[list[str]]:
    """Every subcommand: each series and method of ``scalar`` at three
    lengths and on a file, ``solve``, ``illposed`` with and without
    ``--exact``, and ``bench`` of every method on the four problems, the
    linear one at three seeds and pagerank also on an edge file."""
    sequence = tmp / "sequence.txt"
    sequence.write_text("1\n0.5\n0.8333\n0.58333\n0.78333\n0.61667\n",
                        encoding="utf-8")
    edges = tmp / "edges.txt"
    edges.write_text("10 20\n20 30\n30 10\n30 20\n", encoding="utf-8")
    argvs = [["scalar", "--series", series, "--method", method,
              "--terms", str(terms)]
             for series in cli.SERIES_ALIASES
             for method in cli.SCALAR_METHODS for terms in (7, 12, 25)]
    argvs += [["scalar", "--input", str(sequence), "--method", method]
              for method in cli.SCALAR_METHODS]
    argvs += [["solve", "--problem", "linear", "--method", "rre", "--n", "30",
               "--output", str(tmp / "solve.csv")],
              ["illposed", "--n", "60"],
              ["illposed", "--n", "60", "--exact"]]
    methods = ["--methods", ",".join(cli.BENCH_METHODS)]
    argvs += [["bench", "--problem", "linear", "--n", "40", "--seed", seed]
              + methods for seed in ("42", "8", "13")]
    argvs += [["bench", "--problem", "pde", "--grid", "8", "--format", "md"]
              + methods,
              ["bench", "--problem", "fredholm", "--n", "40"] + methods,
              ["bench", "--problem", "pagerank", "--n", "200"] + methods,
              ["bench", "--problem", "pagerank", "--edges", str(edges)]
              + methods]
    return argvs


def run_entry_points(tmp: pathlib.Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
        for argv in cli_argvs(tmp):
            cli.main(argv)
    scale = workloads.SCALES["tiny"]
    for workload in workloads.WORKLOADS.values():
        one_pass = workloads.Pass()
        workload.run(one_pass, workload.setup(scale, SEED), scale, SEED)
        assert one_pass.ops, workload.name


@pytest.fixture(scope="module")
def survey(tmp_path_factory):
    """(dotted name, file:line, reached) for every source function."""
    # a cached result would hide the call behind it
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("accelerant."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    started = set()

    def record(frame, event, arg):
        if event == "call":
            started.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        run_entry_points(tmp_path_factory.mktemp("entry_points"))
    finally:
        sys.setprofile(previous)
    reached = {(str(pathlib.Path(code.co_filename).resolve()),
                code.co_firstlineno, code.co_name) for code in started}
    return [(name, f"{pathlib.Path(key[0]).name}:{key[1]}", key in reached)
            for key, name in source_functions().items()]


def test_every_function_is_reached_or_listed(survey):
    unreached = [f"{name} ({where})" for name, where, reached in survey
                 if not reached and name not in UNREACHED]
    assert not unreached, (
        "no entry point reaches these; delete them, or list them in "
        "UNREACHED with the reason they stay: " + ", ".join(unreached))


def test_listed_functions_are_unreached_and_defined(survey):
    reached = sorted({f"{name} ({where})" for name, where, hit in survey
                      if hit and name in UNREACHED})
    assert not reached, ("an entry point now reaches these, so they leave "
                         "UNREACHED: " + ", ".join(reached))
    gone = sorted(set(UNREACHED) - {name for name, _, _ in survey})
    assert not gone, "no longer defined, so they leave UNREACHED: " + \
        ", ".join(gone)
