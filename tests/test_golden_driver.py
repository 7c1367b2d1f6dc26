"""Bit-identity of ``run_cycles`` against recorded run reports.

``golden_driver.json`` holds, for every driver method on a fixed set of
small problems, the iteration and cycle counts, the fallback count, the
stop reason and ``float.hex`` of the final residual and of every entry of
the residual history, or the type and message of the exception the run
raised.  ``mmpe`` runs twice: with seeded orthonormal test vectors, as the
CLI builds them, and with the default canonical basis columns;
``anderson`` runs three times: plain, after a one-time warmup, and at
depth 0 (damped plain iteration).  Every value must match exactly.

Regenerate (only on purpose, when a transform's arithmetic changes) with
``PYTHONPATH=src python tests/test_golden_driver.py --write``.
"""

import json
import pathlib
import sys

import numpy as np

from accelerant.core import SequenceWindow
from accelerant.driver import METHOD_NAMES, CycleConfig, run_cycles
from accelerant.linalg import qr_mgs
from accelerant.problems import (
    fredholm,
    linear_iteration_generator,
    reaction_diffusion,
)
from accelerant.vector import VpeMethod, vpe_extrapolate

GOLDEN = pathlib.Path(__file__).with_name("golden_driver.json")

WIDTH = 5
MMPE_WARMUP = 20
ANDERSON_WARMUP = 3
TOL = 1e-8
MAX_CYCLES = 40
TEST_VECTOR_SEED = 42


def problems() -> dict:
    out = {"pde-20": reaction_diffusion(20)}
    for seed in (42, 8, 13):
        out[f"linear-100-{seed}"] = \
            linear_iteration_generator(100, 0.9, seed).as_fixed_point()
    out["fredholm-100"] = fredholm(100, 0.5)
    return out


def configs(dimension: int) -> dict[str, CycleConfig]:
    rng = np.random.default_rng(TEST_VECTOR_SEED)
    seeded = qr_mgs(rng.standard_normal((dimension, WIDTH))).q
    out = {}
    for method in METHOD_NAMES:
        variants = {"mmpe-seeded": seeded, "mmpe-canonical": None} \
            if method == "mmpe" else {method: None}
        for label, vectors in variants.items():
            out[label] = CycleConfig(
                method=method, width_m=WIDTH,
                warmup_p=MMPE_WARMUP if method == "mmpe" else 0, tol=TOL,
                max_cycles=MAX_CYCLES, test_vectors=vectors, depth=WIDTH)
    # anderson with a one-time warmup, and as damped plain iteration
    out["anderson-warmup"] = CycleConfig(
        method="anderson", width_m=WIDTH, warmup_p=ANDERSON_WARMUP, tol=TOL,
        max_cycles=MAX_CYCLES, depth=WIDTH)
    out["anderson-depth0"] = CycleConfig(
        method="anderson", width_m=WIDTH, tol=TOL, max_cycles=MAX_CYCLES,
        depth=0)
    return out


def record() -> dict:
    """Every recorded outcome, keyed ``problem/method``."""
    out = {}
    for name, problem in problems().items():
        for label, config in configs(problem.dimension).items():
            try:
                report = run_cycles(problem, config)
            except (ArithmeticError, RuntimeError, ValueError) as exc:
                out[f"{name}/{label}"] = {"error": type(exc).__name__,
                                          "message": str(exc)}
                continue
            out[f"{name}/{label}"] = {
                "iterations": report.iterations,
                "cycles": report.cycles,
                "fallback_cycles": report.fallback_cycles,
                "reason": report.reason,
                "final_residual": report.final_residual.hex(),
                "residual_history": [v.hex() for v in report.residual_history],
            }
    return out


def test_run_reports_match_recorded_outputs_bit_for_bit():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = record()
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key


def test_recorded_runs_cover_the_stop_paths():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    reasons = {v.get("reason") for v in expected.values()}
    assert {"converged", "max_cycles", "stalled"} <= reasons
    assert any(v.get("fallback_cycles") for v in expected.values())


def test_default_mmpe_equals_explicit_canonical_columns():
    rng = np.random.default_rng(7)
    for dimension, k in ((1, 1), (6, 3), (40, 5)):
        terms = rng.standard_normal((k + 2, dimension)).cumsum(axis=0)
        window = SequenceWindow(list(terms))
        default = vpe_extrapolate(window, VpeMethod.mmpe(), k)
        explicit = vpe_extrapolate(
            window, VpeMethod.mmpe(np.eye(dimension)[:, :k]), k)
        assert default.value.tobytes() == explicit.value.tobytes()
        assert default.gamma.tobytes() == explicit.gamma.tobytes()
        assert default.residual.tobytes() == explicit.residual.tobytes()
        assert default.diagnostics == explicit.diagnostics
    problem = reaction_diffusion(6)
    runs = [run_cycles(problem, CycleConfig(method="mmpe", width_m=WIDTH,
                                            tol=TOL, test_vectors=vectors))
            for vectors in (None, np.eye(problem.dimension)[:, :WIDTH])]
    assert runs[0].cycles > 1
    assert [r.iterations for r in runs] == [runs[0].iterations] * 2
    assert [r.final_residual.hex() for r in runs] \
        == [runs[0].final_residual.hex()] * 2
    assert runs[0].residual_history == runs[1].residual_history


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_driver.py --write")
    lines = [f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
             for key, value in sorted(record().items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
