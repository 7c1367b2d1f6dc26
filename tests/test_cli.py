"""Tests for the command-line front end."""

import math
import subprocess
import sys

import numpy as np
import pytest

from accelerant import cli
from accelerant.core import SequenceWindow
from accelerant.driver import CSV_HEADER
from accelerant.problems import linear_iteration_generator
from accelerant.scalar import epsilon_scalar


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

    def test_breakdown_before_any_estimate_exits_two(self, capsys, tmp_path):
        path = tmp_path / "flat.txt"
        path.write_text("1.0\n1.0\n1.0\n1.0\n")
        code, _, err = run_cli(capsys, ["scalar", "--input", str(path),
                                        "--method", "epsilon"])
        assert code == 2
        assert "breakdown" in err

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

    def test_unconverged_run_exits_three(self, capsys):
        code, out, _ = run_cli(capsys, ["solve", "--problem", "pde",
                                        "--grid", "20", "--method", "tea",
                                        "--tol", "1e-10", "--max-cycles", "2"])
        assert code == 3
        assert "max_cycles" not in out.splitlines()[0]  # header stays fixed


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

    def test_unknown_method_exits_one(self, capsys):
        code, _, err = run_cli(capsys, ["bench", "--problem", "linear",
                                        "--methods", "picard,warp"])
        assert code == 1
        assert "warp" in err

    def test_empty_method_list_exits_one(self, capsys):
        code, _, err = run_cli(capsys, ["bench", "--problem", "linear",
                                        "--methods", ","])
        assert code == 1

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

    def test_all_rows_failed_exits_three(self, capsys):
        code, out, _ = run_cli(capsys, ["bench", "--problem", "pde",
                                        "--grid", "20", "--methods", "tea",
                                        "--tol", "1e-12",
                                        "--max-cycles", "1"])
        assert code == 3
        row = out.strip().splitlines()[1]
        assert row.split(",")[4] != "converged"


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
                problem, 0.0, steps, "epsilon", False,
                cli._problem_norm("linear"))
            assert (evals, status) == (steps, "max_cycles")
            for c in range(4):
                table = epsilon_scalar(
                    SequenceWindow([x[c] for x in history[:steps + 1]]),
                    keep_full=True)
                # newest entry of the deepest even column not flagged
                expected = history[steps][c]
                for k in range(2, steps + 1, 2):
                    if table.has_entry(k, steps - k):
                        expected = table.get_entry(k, steps - k)
                    else:
                        fallbacks += 1
                assert accelerated[c] == expected, (steps, c)
        assert fallbacks > 0


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "accelerant.cli", "scalar", "--series", "log2",
         "--method", "epsilon", "--terms", "11"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert "estimate = " in result.stdout
