"""Tests for the command-line front end."""

import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from accelerant import cli, illposed
from accelerant.core import SequenceWindow
from accelerant.driver import (
    CSV_HEADER,
    DIVERGENCE_FACTOR,
    METHOD_NAMES,
    CycleConfig,
    FixedPointProblem,
    run_cycles,
)
from accelerant.problems import (
    SparseGraph,
    illposed_synthetic,
    linear_iteration_generator,
    pagerank,
    reaction_diffusion,
)
from accelerant.scalar import epsilon_scalar

import _oracles as oracles


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out, key):
    for line in out.splitlines():
        if line.startswith(key + " = "):
            return float(line.split(" = ", 1)[1])
    raise AssertionError(f"no {key!r} line in output:\n{out}")


class TestScalarCommand:
    def test_log2_epsilon_estimate(self, capsys):
        code, out, _ = run_cli(capsys, ["scalar", "--series", "log2",
                                        "--method", "epsilon", "--terms", "11"])
        assert code == 0
        assert abs(parse_kv(out, "estimate") - math.log(2.0)) < 1e-7
        assert parse_kv(out, "order") >= 2
        assert "breakdowns:" in out

    def test_log2_aitken_estimate(self, capsys):
        code, out, _ = run_cli(capsys, ["scalar", "--series", "log2",
                                        "--method", "aitken", "--terms", "11"])
        assert code == 0
        assert abs(parse_kv(out, "estimate") - math.log(2.0)) < 1e-8
        assert "breakdowns: none" in out

    def test_aitken_names_the_level_that_broke_down(self, capsys):
        # level 2's second difference on geom is 0, so iterated delta-squared
        # stops at level 1 of the 5 that twelve terms allow
        code, out, _ = run_cli(capsys, ["scalar", "--series", "geom",
                                        "--method", "aitken", "--terms", "12"])
        assert code == 0
        assert parse_kv(out, "order") == 1
        assert "breakdowns: delta-squared level 2 broke down (stopped at " \
            "level 1 of 5)" in out.splitlines()

    def test_flagged_entries_name_the_first(self, capsys):
        code, out, _ = run_cli(capsys, ["scalar", "--series", "log2",
                                        "--method", "epsilon", "--terms",
                                        "200"])
        assert code == 0
        assert "breakdowns: 1909 flagged entries (first at column 7, " \
            "index 46)" in out.splitlines()

    def test_logarithmic_series_prints_stagnation(self, capsys):
        code, out, _ = run_cli(capsys, ["scalar", "--series", "logseq",
                                        "--method", "epsilon"])
        assert code == 0
        assert "stagnation" in out
        # The limit is 0 and the raw tail term is 1/12; after ten columns
        # the transform has not even gained a factor of five.
        raw_error = 1.0 / 12.0
        accelerated_error = abs(parse_kv(out, "estimate"))
        assert accelerated_error >= raw_error / 5.0

    def test_stagnation_reads_an_evicted_column(self, capsys):
        # Eleven terms leave one entry in the best even column, so the
        # accelerated step is taken against column k - 2, which a rolling
        # table has already dropped.
        code, out, _ = run_cli(capsys, ["scalar", "--series", "geom",
                                        "--method", "rho", "--terms", "11"])
        assert code == 0
        assert "diagnostic: stagnation - accelerated step 4.688e-02 is not " \
            "meaningfully below the raw step 9.766e-04" in out

    def test_theta_handles_the_logarithmic_series(self, capsys):
        code, out, _ = run_cli(capsys, ["scalar", "--series", "logseq",
                                        "--method", "theta"])
        assert code == 0
        assert abs(parse_kv(out, "estimate")) < 1e-12
        assert "stagnation" not in out

    def test_unknown_method_exits_one_with_usage(self, capsys):
        code, _, err = run_cli(capsys, ["scalar", "--series", "log2",
                                        "--method", "bogus"])
        assert code == 1
        assert "usage:" in err

    @pytest.mark.parametrize("terms", ["0", "2"])
    def test_too_few_terms_exits_one_naming_the_flag(self, capsys, terms):
        code, out, err = run_cli(capsys, ["scalar", "--series", "log2",
                                          "--method", "epsilon",
                                          "--terms", terms])
        assert code == 1
        assert out == ""
        assert f"--terms: must be at least 3, got {terms}" in err

    def test_sequence_file_input(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        terms = np.cumsum([(-1.0) ** m / (m + 1.0) for m in range(11)])
        path.write_text("# partial sums\n" +
                        "\n".join(format(t, ".17g") for t in terms) + "\n")
        code, out, _ = run_cli(capsys, ["scalar", "--input", str(path),
                                        "--method", "epsilon"])
        assert code == 0
        assert abs(parse_kv(out, "estimate") - math.log(2.0)) < 1e-7

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["scalar", "--input",
                                        str(tmp_path / "nope.txt"),
                                        "--method", "epsilon"])
        assert code == 1
        assert "error:" in err

    def test_unparsable_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\nnot-a-number\n")
        code, _, err = run_cli(capsys, ["scalar", "--input", str(path),
                                        "--method", "epsilon"])
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("text, message", [
        ("1.0\n0.5\n", "need at least 3 terms to accelerate"),
        ("1.0,2.0\n3.0,4.0\n5.0,6.0\n", "expected one number per line")])
    def test_unusable_file_exits_one(self, capsys, tmp_path, text, message):
        path = tmp_path / "seq.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, ["scalar", "--input", str(path),
                                          "--method", "epsilon"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_file_term_exits_one(self, capsys, tmp_path, bad):
        path = tmp_path / "seq.txt"
        terms = np.cumsum([(-1.0) ** m / (m + 1.0) for m in range(11)])
        lines = [format(t, ".17g") for t in terms]
        lines[2] = bad
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, ["scalar", "--input", str(path),
                                          "--method", "epsilon"])
        assert code == 1
        assert out == ""
        assert f"seq.txt:3: '{bad}' is not finite" in err

    @pytest.mark.parametrize("method", cli.SCALAR_METHODS)
    def test_breakdown_before_any_estimate_exits_two(self, capsys, tmp_path,
                                                     method):
        path = tmp_path / "flat.txt"
        path.write_text("1.0\n1.0\n1.0\n1.0\n")
        code, out, err = run_cli(capsys, ["scalar", "--input", str(path),
                                          "--method", method])
        assert code == 2
        assert out == ""
        assert "breakdown before any accelerated estimate: " in err

    def test_output_flag_is_rejected(self, capsys, tmp_path):
        # the estimate always goes to stdout, so --output is not offered
        target = tmp_path / "F"
        code, out, _ = run_cli(capsys, ["scalar", "--series", "log2",
                                        "--method", "epsilon",
                                        "--output", str(target)])
        assert code == 1
        assert out == ""
        assert not target.exists()

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["scalar", "--help"])
        assert code == 0
        assert "--series" in out


class TestSolveCommand:
    def test_linear_rre_emits_report_row(self, capsys):
        code, out, _ = run_cli(capsys, ["solve", "--problem", "linear",
                                        "--method", "rre", "--n", "40"])
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == CSV_HEADER
        fields = row.split(",")
        assert fields[0] == "rre"
        assert int(fields[1]) == 40
        assert float(fields[7]) <= 1e-8

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "row.csv"
        code, out, _ = run_cli(capsys, ["solve", "--problem", "linear",
                                        "--method", "mpe", "--n", "30",
                                        "--output", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_text().startswith(CSV_HEADER)

    def test_convergence_during_warmup_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["solve", "--problem", "fredholm",
                                        "--method", "mmpe"])
        assert code == 0
        fields = out.strip().splitlines()[1].split(",")
        assert fields[5] == "0"  # no cycle ran: the warmup met the tolerance
        assert float(fields[7]) <= 1e-8

    def test_unconverged_run_exits_three(self, capsys):
        code, out, _ = run_cli(capsys, ["solve", "--problem", "pde",
                                        "--grid", "20", "--method", "tea",
                                        "--tol", "1e-10", "--max-cycles", "2"])
        assert code == 3
        assert "max_cycles" not in out.splitlines()[0]  # header stays fixed

    def test_diverged_run_prints_its_row_and_exits_three(self, capsys):
        code, out, err = run_cli(capsys, ["solve", "--problem", "linear",
                                          "--method", "tea", "--tol", "1e-6"])
        assert code == 3
        assert err == "stopped: diverged\n"
        header, row = out.strip().splitlines()
        assert header == CSV_HEADER
        problem = linear_iteration_generator(100, 0.9, 42).as_fixed_point()
        report = run_cycles(problem, CycleConfig(method="tea", tol=1e-6,
                                                 max_cycles=1000))
        assert report.reason == "diverged"
        fields = row.split(",")
        assert fields[5:8] == [str(report.cycles), str(report.iterations),
                               cli._fmt(report.final_residual)]
        assert report.cycles > 0

    def test_anderson_mixes_at_the_width(self, capsys):
        code, out, _ = run_cli(capsys, ["solve", "--problem", "pde",
                                        "--grid", "20", "--method",
                                        "anderson", "--m", "3"])
        assert code == 0
        report = run_cycles(reaction_diffusion(20), CycleConfig(
            "anderson", width_m=3, max_cycles=1000))
        fields = out.strip().splitlines()[1].split(",")
        assert fields[3] == "3"
        assert fields[5:8] == [str(report.cycles), str(report.iterations),
                               cli._fmt(report.final_residual)]

    def test_zero_size_exits_one(self, capsys):
        code, out, err = run_cli(capsys, ["solve", "--problem", "linear",
                                          "--method", "rre", "--n", "0"])
        assert code == 1
        assert out == ""
        assert "--n: must be at least 1" in err


class TestNarrowProblems:
    # problems with fewer dimensions than the default width m = 5

    @pytest.mark.parametrize("method", ["rre", "mpe"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_polynomial_methods_converge_below_the_width(self, capsys,
                                                         method, n):
        code, out, err = run_cli(capsys, ["solve", "--problem", "linear",
                                          "--method", method,
                                          "--n", str(n)])
        assert (code, err) == (0, "")
        fields = out.strip().splitlines()[1].split(",")
        assert int(fields[6]) == 8
        assert float(fields[7]) <= 1e-8

    @pytest.mark.parametrize("method", ["mmpe", "sbeta", "h"])
    def test_test_basis_width_above_the_dimension_names_m(self, capsys,
                                                          method):
        code, out, err = run_cli(capsys, ["solve", "--problem", "linear",
                                          "--method", method, "--n", "3"])
        assert (code, out) == (1, "")
        assert "--m 5 exceeds the problem dimension 3" in err
        code, out, _ = run_cli(capsys, ["solve", "--problem", "linear",
                                        "--method", method, "--n", "3",
                                        "--m", "3"])
        assert code == 0


# four nodes under sparse labels, given with sources out of order: 7 -> 30
# is a parallel edge and -4 has no out-edges
EDGE_FILE = """# src dst
100 7
7 30
30 100
7 30
100 -4
30 7
7 100
"""
# the same graph with its labels compacted in sorted order:
# -4 -> 0, 7 -> 1, 30 -> 2, 100 -> 3
COMPACT_EDGES = [(3, 1), (1, 2), (2, 3), (1, 2), (3, 0), (2, 1), (1, 3)]
NARROW_METHODS = [m for m in cli.BENCH_METHODS
                  if m not in ("mmpe", "sbeta", "h")]


class TestEdgesFile:
    @pytest.fixture
    def edges(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text(EDGE_FILE)
        return str(path)

    def test_every_default_width_method_converges(self, capsys, edges):
        code, out, err = run_cli(capsys, ["bench", "--problem", "pagerank",
                                          "--edges", edges, "--methods",
                                          ",".join(NARROW_METHODS)])
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[0] for row in rows] == NARROW_METHODS
        assert all(row[4] == "converged" for row in rows)

    def test_rows_match_run_cycles_on_the_compacted_graph(self, capsys,
                                                          edges):
        problem = pagerank(SparseGraph.from_edges(4, COMPACT_EDGES))
        vector_methods = [m for m in NARROW_METHODS if m in METHOD_NAMES]
        code, out, _ = run_cli(capsys, ["bench", "--problem", "pagerank",
                                        "--edges", edges, "--methods",
                                        ",".join(vector_methods)])
        assert code == 0
        bench = {row[0]: row for row in
                 (line.split(",") for line in out.strip().splitlines()[1:])}
        for method in vector_methods:
            # the CLI's defaults
            config = CycleConfig(method=method, max_cycles=1000, depth=5)
            report = run_cycles(problem, config)
            code, out, _ = run_cli(capsys, ["solve", "--problem", "pagerank",
                                            "--edges", edges,
                                            "--method", method])
            assert code == 0
            solve = out.strip().splitlines()[1].split(",")
            assert solve[6] == bench[method][1] == str(report.iterations)
            assert solve[7] == bench[method][2] \
                == cli._fmt(report.final_residual)

    def test_test_basis_methods_are_refused_at_the_default_width(self, capsys,
                                                                 edges):
        # the refused row is printed beside the finished ones
        code, out, err = run_cli(capsys, ["bench", "--problem", "pagerank",
                                          "--edges", edges, "--methods",
                                          "picard,mmpe"])
        assert code == 1
        picard, mmpe = [line.split(",")
                        for line in out.strip().splitlines()[1:]]
        assert (picard[0], picard[4]) == ("picard", "converged")
        assert int(picard[1]) > 0
        assert (mmpe[0], mmpe[1], mmpe[2], mmpe[4]) \
            == ("mmpe", "0", "nan", "refused")
        assert "--m 5 exceeds the problem dimension 4" in err


class TestIllposedCommand:
    def test_table_with_exact_columns(self, capsys):
        code, out, _ = run_cli(capsys, ["illposed", "--n", "60", "--decay",
                                        "0.5", "--k-max", "12", "--exact"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("k,generalized_residual,tsvd_rel_error,"
                            "extrapolated_rel_error")
        data = [line for line in lines if not line.startswith("#")][1:]
        assert len(data) == 12
        for line in data:
            fields = line.split(",")
            assert len(fields) == 4
            assert all(math.isfinite(float(f)) for f in fields[1:])
        assert any(line.startswith("# selected k = ") for line in lines)
        assert any(line.startswith("# error-optimal k = ") for line in lines)

    def test_table_without_exact_leaves_error_cells_empty(self, capsys):
        code, out, _ = run_cli(capsys, ["illposed", "--n", "30", "--decay",
                                        "0.5", "--k-max", "5"])
        assert code == 0
        first = out.strip().splitlines()[1]
        assert first.endswith(",,")
        assert "# error-optimal" not in out

    @pytest.mark.parametrize("argv, message", [
        (["--n", "0"], "--n: must be at least 2, got 0"),
        # a one-dimensional model has no truncation order to tabulate
        (["--n", "1"], "--n: must be at least 2, got 1"),
        (["--k-max", "0"], "--k-max: must be at least 1, got 0"),
        (["--decay", "0"], "--decay: must be positive, got 0.0"),
    ])
    def test_bad_input_exits_one_naming_its_flag(self, capsys, argv,
                                                 message):
        code, out, err = run_cli(capsys, ["illposed"] + argv)
        assert code == 1
        assert out == ""
        assert message in err

    def test_small_model_tabulates_rank_minus_one_rows(self, capsys):
        # the default --k-max 40 exceeds the rank; rre_tsvd needs k + 1 terms
        code, out, _ = run_cli(capsys, ["illposed", "--n", "10"])
        assert code == 0
        data = [line for line in out.strip().splitlines()
                if not line.startswith("#")][1:]
        assert [line.split(",")[0] for line in data] == \
            [str(k) for k in range(1, 10)]


    def test_one_study_gives_the_table_and_both_picks(self, capsys,
                                                      monkeypatch):
        model = illposed_synthetic(200, 1.0, 1e-2, 42)
        exact = model.v @ (1.0 / np.arange(1, model.rank + 1))
        triples = illposed.rre_tsvd(model, 40)
        expected = [illposed.csv_report(model, 40, exact).rstrip("\n"),
                    f"# selected k = "
                    f"{illposed.select_truncation_index([r for *_, r in triples])}"
                    " (residual stagnation)",
                    f"# error-optimal k = "
                    f"{illposed.error_optimal_index(model, exact, 40)}"]
        calls = []
        for name in ("rre_tsvd", "_plain_errors"):
            def counted(*args, _name=name, _call=getattr(illposed, name)):
                calls.append(_name)
                return _call(*args)
            monkeypatch.setattr(illposed, name, counted)
        code, out, _ = run_cli(capsys, ["illposed", "--n", "200", "--exact"])
        assert code == 0
        assert out == "\n".join(expected) + "\n"
        assert sorted(calls) == ["_plain_errors", "rre_tsvd"]


class TestBenchCommand:
    def test_fredholm_picard_and_epsilon(self, capsys):
        code, out, _ = run_cli(capsys, ["bench", "--problem", "fredholm",
                                        "--n", "200", "--methods",
                                        "picard,epsilon", "--tol", "1e-6"])
        assert code == 0
        header, picard, epsilon = out.strip().splitlines()
        assert header == cli.BENCH_HEADER
        p = picard.split(",")
        e = epsilon.split(",")
        assert (p[0], p[4]) == ("picard", "converged")
        assert (e[0], e[4]) == ("epsilon", "converged")
        assert int(e[1]) <= 20
        assert float(e[2]) <= float(p[2])

    def test_pde_rows_converge(self, capsys):
        code, out, _ = run_cli(capsys, ["bench", "--problem", "pde",
                                        "--grid", "20", "--methods",
                                        "rre,anderson", "--tol", "1e-6"])
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["rre", "anderson"]
        assert all(r.split(",")[4] == "converged" for r in rows)

    def test_pagerank_acceleration_beats_plain_iteration(self, capsys):
        code, out, _ = run_cli(capsys, ["bench", "--problem", "pagerank",
                                        "--n", "800", "--methods",
                                        "picard,aitken", "--tol", "1e-6"])
        assert code == 0
        rows = {r.split(",")[0]: r.split(",") for r in
                out.strip().splitlines()[1:]}
        assert rows["picard"][4] == rows["aitken"][4] == "converged"
        assert int(rows["aitken"][1]) < int(rows["picard"][1])

    def test_test_basis_methods_share_mmpe_settings(self, capsys):
        # sbeta and h get mmpe's warmup and seeded test vectors; with
        # canonical columns and no warmup they stall on an affine map
        code, out, _ = run_cli(capsys, ["bench", "--problem", "linear",
                                        "--methods", "mmpe,sbeta,h"])
        assert code == 0
        rows = {r.split(",")[0]: r.split(",") for r in
                out.strip().splitlines()[1:]}
        assert all(row[4] == "converged" for row in rows.values())
        assert rows["sbeta"][1] == rows["h"][1] == rows["mmpe"][1]

    def test_unknown_method_exits_one(self, capsys):
        code, _, err = run_cli(capsys, ["bench", "--problem", "linear",
                                        "--methods", "picard,warp"])
        assert code == 1
        assert "warp" in err
        # stea1 is a transform in vector, not a cycle method
        code, _, err = run_cli(capsys, ["bench", "--problem", "linear",
                                        "--methods", "picard,stea1"])
        assert code == 1
        assert "stea1" in err
        code, _, err = run_cli(capsys, ["solve", "--problem", "linear",
                                        "--method", "stea1"])
        assert code == 1
        assert "invalid choice: 'stea1'" in err

    def test_picard_out_of_budget_exits_three(self, capsys):
        code, out, _ = run_cli(capsys, ["bench", "--problem", "linear",
                                        "--seed", "8", "--methods", "picard",
                                        "--max-cycles", "50"])
        assert code == 3
        row = out.strip().splitlines()[1].split(",")
        assert (row[0], row[1], row[4]) == ("picard", "50", "max_cycles")

    def test_empty_method_list_exits_one(self, capsys):
        code, _, err = run_cli(capsys, ["bench", "--problem", "linear",
                                        "--methods", ","])
        assert code == 1

    @pytest.mark.parametrize("problem, flag, value, message", [
        ("pde", "--grid", "2", "must be at least 3, got 2"),
        ("pagerank", "--avg-degree", "1", "must be at least 2, got 1"),
        ("linear", "--p", "-1", "must be at least 0, got -1"),
        ("linear", "--damping", "0", "must be positive, got 0.0"),
    ])
    def test_out_of_range_value_exits_one_naming_its_flag(self, capsys,
                                                          problem, flag,
                                                          value, message):
        code, out, err = run_cli(capsys, ["bench", "--problem", problem,
                                          "--methods", "picard", flag, value])
        assert code == 1
        assert out == ""
        assert f"{flag}: {message}" in err

    def test_markdown_format(self, capsys):
        code, out, _ = run_cli(capsys, ["bench", "--problem", "linear",
                                        "--n", "30", "--methods", "rre",
                                        "--format", "md"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "| " + " | ".join(cli.BENCH_HEADER.split(",")) + " |"
        assert set(lines[1].replace(" ", "")) <= set("|-")
        assert lines[2].startswith("| rre |")

    def test_csv_round_trips_exactly(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, _, _ = run_cli(capsys, ["bench", "--problem", "linear",
                                      "--n", "30", "--methods", "rre,mpe",
                                      "--output", str(path)])
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == cli.BENCH_HEADER
        for line in lines[1:]:
            method, iters, residual, seconds, status = line.split(",")
            assert format(float(residual), ".17g") == residual
            assert format(float(seconds), ".17g") == seconds
            assert str(int(iters)) == iters

    def test_deterministic_under_seed_except_timings(self, capsys):
        argv = ["bench", "--problem", "pagerank", "--n", "600",
                "--methods", "picard,aitken", "--tol", "1e-6",
                "--seed", "7"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)

        def stable(text):
            rows = [line.split(",") for line in text.strip().splitlines()[1:]]
            return [(r[0], r[1], r[2], r[4]) for r in rows]

        assert stable(first) == stable(second)

    @pytest.mark.parametrize("method", ["picard", "aitken", "rre", "mmpe"])
    def test_nonpositive_budget_exits_one(self, capsys, method):
        for flag, value in (("--max-cycles", "0"), ("--max-cycles", "-3"),
                            ("--m", "0")):
            code, out, err = run_cli(capsys, [
                "bench", "--problem", "linear", "--methods", method,
                flag, value])
            assert code == 1
            assert out == ""
            assert f"{flag}: must be at least 1" in err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    def test_nonpositive_tol_exits_one(self, capsys, tol):
        # componentwise rows never reach CycleConfig's own check
        code, out, err = run_cli(capsys, [
            "bench", "--problem", "linear", "--methods", "picard,aitken",
            "--tol", tol])
        assert code == 1
        assert out == ""
        assert "--tol: must be positive" in err

    @pytest.mark.parametrize("problem", ["linear", "fredholm", "pagerank"])
    def test_zero_size_exits_one(self, capsys, problem):
        code, out, err = run_cli(capsys, ["bench", "--problem", problem,
                                          "--methods", "picard", "--n", "0"])
        assert code == 1
        assert out == ""
        assert "--n: must be at least 1" in err

    @pytest.mark.parametrize("coupling", ["nan", "inf"])
    def test_nonfinite_coupling_exits_one(self, capsys, coupling):
        code, out, err = run_cli(capsys, [
            "bench", "--problem", "fredholm", "--n", "20", "--coupling",
            coupling, "--methods", "picard,rre"])
        assert code == 1
        assert out == ""
        assert "coupling must be finite" in err

    def test_problem_is_built_once_per_call(self, capsys, monkeypatch):
        build = cli._build_problem
        calls = []

        def counted(args, seed):
            calls.append(seed)
            return build(args, seed)

        monkeypatch.setattr(cli, "_build_problem", counted)
        code, out, _ = run_cli(capsys, ["bench", "--problem", "fredholm",
                                        "--n", "50", "--methods",
                                        "picard,aitken,rre", "--tol", "1e-6"])
        assert code == 0
        assert len(out.strip().splitlines()) == 4
        assert calls == [42]

    def test_row_converged_during_warmup_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["bench", "--problem", "fredholm",
                                        "--methods", "mmpe"])
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[4] == "warmup"

    def test_all_rows_failed_exits_three(self, capsys):
        code, out, _ = run_cli(capsys, ["bench", "--problem", "pde",
                                        "--grid", "20", "--methods", "tea",
                                        "--tol", "1e-12",
                                        "--max-cycles", "1"])
        assert code == 3
        row = out.strip().splitlines()[1]
        assert row.split(",")[4] != "converged"

    def test_diverged_row_keeps_its_evaluations(self, capsys):
        code, out, _ = run_cli(capsys, ["bench", "--problem", "linear",
                                        "--tol", "1e-6", "--methods",
                                        "tea,rre"])
        assert code == 0  # rre converged
        tea, rre = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert (tea[0], tea[4]) == ("tea", "diverged")
        assert int(tea[1]) > 0
        # the row is the driver's report, which stopped by the divergence
        # rule: above the start and DIVERGENCE_FACTOR times its best
        problem = linear_iteration_generator(100, 0.9, 42).as_fixed_point()
        report = run_cycles(problem, CycleConfig(method="tea", tol=1e-6,
                                                 max_cycles=1000))
        assert int(tea[1]) == report.iterations
        assert tea[2] == cli._fmt(report.final_residual)
        best = min((1.0,) + report.residual_history)
        assert math.isfinite(report.final_residual)
        assert report.final_residual > max(1.0, DIVERGENCE_FACTOR * best)
        assert (rre[0], rre[4]) == ("rre", "converged")

    def test_stalled_rows_exit_three(self, capsys):
        # seeded fixed test vectors and no warmup on an affine map: each
        # run's second cycle returns its own start
        code, out, _ = run_cli(capsys, ["bench", "--problem", "linear",
                                        "--methods", "sbeta,h,mmpe",
                                        "--p", "0", "--max-cycles", "200"])
        assert code == 3
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [(row[1], row[4]) for row in rows] == [("15", "stalled")] * 3
        code, out, _ = run_cli(capsys, ["solve", "--problem", "linear",
                                        "--method", "mmpe", "--p", "0",
                                        "--max-cycles", "200"])
        assert code == 3
        assert out.splitlines()[0] == CSV_HEADER


class TestComponentwiseEpsilon:
    def test_every_step_matches_scalar_epsilon_per_component(self):
        # Four components and fifteen steps: the deep columns cancel to
        # breakdown, so the fallback to shallower columns is exercised.
        problem = linear_iteration_generator(4, 0.9, 3).as_fixed_point()
        history = [np.array(problem.initial_guess, dtype=float)]
        for _ in range(15):
            history.append(problem.mapping(history[-1]))
        fallbacks = 0
        for steps in range(2, 16):
            evals, _, status, accelerated = cli._run_componentwise(
                problem, 0.0, steps, "epsilon", False)
            # the steps, and one evaluation for the final residual
            assert (evals, status) == (steps + 1, "max_cycles")
            for c in range(4):
                table = epsilon_scalar(
                    SequenceWindow([x[c] for x in history[:steps + 1]]),
                    keep_full=True)
                # newest entry of the deepest even column not flagged
                expected = history[steps][c]
                for k in range(2, steps + 1, 2):
                    column = table.column(k)
                    if steps - k in column:
                        expected = column[steps - k]
                    else:
                        fallbacks += 1
                assert accelerated[c] == expected, (steps, c)
        assert fallbacks > 0

    def test_a_step_holds_one_diagonal(self):
        """The lozenge step consumes the old diagonal as it builds the new
        one, so 60 evaluations on pde80 peak near (60 + 20) N doubles."""
        problem = reaction_diffusion(80)
        tracemalloc.start()
        try:
            evals, _, status, _ = cli._run_componentwise(
                problem, 1e-300, 60, "epsilon", False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (evals, status) == (61, "max_cycles")
        assert peak <= (60 + 20) * problem.dimension * 8, peak


    def test_deepest_finite_scan_matches_the_full_scan(self):
        rng = np.random.default_rng(7)
        for length in range(1, 14):
            for _ in range(20):
                diagonal = [rng.standard_normal(9) for _ in range(length)]
                for column in diagonal:
                    column[rng.random(9) < rng.uniform(0.0, 0.8)] = np.nan
                    column[rng.random(9) < 0.05] = -0.0
                expected = oracles.deepest_finite_forward(diagonal)
                got = cli._deepest_finite(diagonal)
                assert np.array_equal(got.view(np.int64),
                                      expected.view(np.int64))


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "accelerant.cli", "scalar", "--series", "log2",
         "--method", "epsilon", "--terms", "11"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert "estimate = " in result.stdout


@pytest.mark.parametrize("kind", ["aitken", "epsilon"])
def test_componentwise_reports_every_map_call(kind):
    problem = linear_iteration_generator(100, 0.9, 42).as_fixed_point()
    calls = {"n": 0}

    def mapping(u):
        calls["n"] += 1
        return problem.mapping(u)

    counted = FixedPointProblem(problem.dimension, mapping,
                                problem.initial_guess)
    evals, _, status, _ = cli._run_componentwise(
        counted, 1e-6, 1000, kind, False)
    assert status == "converged"
    assert evals == calls["n"]


def _growing(u):
    # x grows by a chaotic factor in [2, 3] per step, so componentwise
    # Aitken's point runs away long before the map could overflow
    z, x = u
    return np.array([4.0 * z * (1.0 - z), (2.0 + z) * x])


def _squaring(u):
    # componentwise epsilon and Aitken keep their points near 1 on this
    # map while its plain iterates square away
    with np.errstate(over="ignore"):
        return u * u + 1.0


@pytest.mark.parametrize("kind, mapping, start, evals", [
    ("aitken", _growing, [0.3, 1.0], 18),
    ("epsilon", _squaring, [1.0, 1.0], 7),
    ("aitken", _squaring, [1.0, 1.0], 7),
], ids=["aitken", "epsilon", "aitken-squaring"])
def test_componentwise_stops_a_diverging_run(kind, mapping, start, evals):
    calls = {"n": 0}

    def counted(u):
        calls["n"] += 1
        return mapping(u)

    problem = FixedPointProblem(2, counted, np.array(start))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, final, status, _ = cli._run_componentwise(
            problem, 1e-6, 1000, kind, False)
    # neither an inf step nor a point that sits still may pass the stop
    # test and read as converged
    assert status == "diverged"
    assert got == calls["n"] == evals
    assert final > DIVERGENCE_FACTOR


@pytest.mark.parametrize("run", [
    lambda problem: cli._run_picard(problem, 1e-6, 0, False),
    lambda problem: cli._run_componentwise(problem, 1e-6, 0, "epsilon", False),
], ids=["picard", "componentwise"])
def test_zero_evaluation_budget_is_rejected(run):
    problem = linear_iteration_generator(10, 0.9, 42).as_fixed_point()
    with pytest.raises(ValueError, match="max_evals must be at least 1"):
        run(problem)
