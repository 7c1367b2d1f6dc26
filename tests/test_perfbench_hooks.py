"""The benchmark harness in ``perfbench/`` still runs against the library.

The harness reaches into the library from outside: its traced run wraps
names such as ``driver.anderson_step``, ``core.Tableau.set_entry`` and
``illposed.jacobi_svd`` (see ``perfbench/spans.py``), and its workloads
check every output.  A library change that renames one of those names, or
changes an output the harness checks, breaks the benchmark without any
library test noticing.  This runs one traced pass of every workload at
the harness's own smoke-test scale, and one untraced pde80 pass at full
scale, where the harness pins map evaluations, and requires every
operation to pass.
"""

import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SEED = 42

sys.path.insert(0, str(PERFBENCH))
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_pass_has_no_failures(name):
    workload = workloads.WORKLOADS[name]
    scale = workloads.SCALES["tiny"]
    tracer = spans.Tracer()
    patches = spans.instrument(tracer)
    try:
        built = workload.setup(scale, SEED)
        one_pass = workloads.Pass(tracer)
        workload.run(one_pass, built, scale, SEED)
    finally:
        spans.restore(patches)
    assert one_pass.ops
    failures = [message for op in one_pass.ops for message in op.failures]
    assert not failures, "\n".join(failures)
    assert tracer.spans


def test_one_full_scale_pde80_pass_holds_its_pinned_counts():
    # PDE80_REFERENCE and PDE80_MMPE_FAILING are checks of this pass
    workload = workloads.WORKLOADS["pde80"]
    scale = workloads.SCALES["full"]
    one_pass = workloads.Pass()
    workload.run(one_pass, workload.setup(scale, SEED), scale, SEED)
    assert one_pass.ops
    failures = [message for op in one_pass.ops for message in op.failures]
    assert not failures, "\n".join(failures)
