"""Every demo script runs to completion against this checkout's sources."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ("01_series_acceleration", "02_fixed_point_cycling",
         "03_ranking_acceleration", "04_regularized_extrapolation")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name):
    # -W on the test run does not reach a subprocess: the variable does
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                            env=env, cwd=ROOT, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
