"""Smoke test for the benchmark: every workload at toy sizes, both modes.

    python3 perfbench/smoke.py --seed 42

Each workload runs in its own process, as in a real run, with
``--scale tiny``.  Every run must pass all of its checks and report exactly
the metrics ``BENCHMARK.json`` names, with their units.  Each workload runs
untraced twice, and the per-solve counts of the two runs must match.  Last,
the benchmark must fail cleanly in a directory without the sources.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 300


def run(seed: int, workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def result_of(proc) -> tuple[dict, list[tuple]]:
    """The JSON result line, and the per-solve counts printed before it."""
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    rows = []
    for line in lines[:-1]:
        if line.startswith('{"row"'):
            row = json.loads(line)["row"]
            row.pop("seconds")
            rows.append(tuple(sorted(row.items())))
    return json.loads(lines[-1]), rows


def check_result(result: dict, expected: dict[str, str], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0, \
        f"{label}: {result['failed']} of {result['attempted']} ops failed"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == expected, f"{label}: metrics {units}, expected {expected}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), f"{label}: {name}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        result, rows = result_of(run(args.seed, workload, 0))
        check_result(result, expected[0], f"{workload} untraced")
        again, rows_again = result_of(run(args.seed, workload, 0))
        check_result(again, expected[0], f"{workload} untraced, again")
        assert rows and rows == rows_again, \
            f"{workload}: per-solve counts differ between two runs"
        traced, _ = result_of(run(args.seed, workload, 1))
        check_result(traced, expected[1], f"{workload} traced")
        print(f"ok {workload}: {result['attempted']} ops, "
              f"{len(rows)} rows per pass")

    with tempfile.TemporaryDirectory(dir=HERE) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("tmp*", "traces",
                                                      "__pycache__"))
        name = spec["workloads"][0]["name"]
        proc = run(args.seed, name, 0, cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, \
            "the benchmark ran without the library's sources"
    print("ok: fails without the sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
