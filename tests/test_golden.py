"""Bit-identity of the tableau builders against recorded outputs.

``golden_recursions.json`` holds the tableaux of ``epsilon_scalar``,
``rho``, ``theta``, ``vea``, ``richardson_table`` (standard and
step-halving nodes), ``e_algorithm`` and ``h_algorithm`` on a fixed set
of windows, as ``float.hex`` strings, with the flagged positions; and,
for the default table that evicts old columns, its stored columns,
entries and best estimate.  It also holds the levels ``iterated_aitken``
returns at full depth on each scalar window.  Every value must match
exactly.

Regenerate (only on purpose, when a recursion's arithmetic changes) with
``PYTHONPATH=src python tests/test_golden.py --write``.
"""

import json
import pathlib
import sys

import numpy as np

from accelerant.core import BreakdownError, SequenceWindow
from accelerant.problems import series_generator
from accelerant.scalar import (
    BasisFamily,
    NodeSequence,
    e_algorithm,
    epsilon_scalar,
    iterated_aitken,
    rho,
    richardson_table,
    theta,
)
from accelerant.vector import h_algorithm, vea

GOLDEN = pathlib.Path(__file__).with_name("golden_recursions.json")

SERIES = ("log2", "leibniz_pi", "logarithmic", "geometric_mixture")


def windows() -> dict[str, SequenceWindow]:
    out = {f"{name}-{count}": series_generator(name, count)
           for name in SERIES for count in (12, 24)}
    # repeated terms make first differences vanish: every recursion breaks
    out["ties"] = SequenceWindow([1.0, 2.0, 2.0, 3.0, 2.5, 2.5, 2.75, 4.0, 4.0],
                                 base_index=3)
    rng = np.random.default_rng(20240607)
    out["vector-7x5"] = SequenceWindow(rng.standard_normal((7, 5)))
    out["constant"] = SequenceWindow([1.5] * 6)
    return out


def bases(window: SequenceWindow) -> dict[str, BasisFamily]:
    """A geometric basis, and one built from the terms that ties with them."""
    pilot = {window.base_index + j: float(np.sum(t))
             for j, t in enumerate(window)}
    return {"geometric": BasisFamily.geometric((0.5, -0.25, 0.8, 0.3)),
            "terms": BasisFamily(lambda i, n: pilot[n] ** i)}


def _hex(value):
    if isinstance(value, np.ndarray):
        return [float(x).hex() for x in value]
    return float(value).hex()


def _table(table) -> dict:
    entries = [[k, n, _hex(v)] for k in table.stored_columns()
               for n, v in sorted(table.column(k).items())]
    return {"entries": entries,
            "flagged": [list(p) for p in table.flagged_entries()]}


def node_sets(window: SequenceWindow) -> dict[str, NodeSequence]:
    """The standard nodes x_n = n + 1 and step-halving nodes 2**-j."""
    halving = NodeSequence.step_halving(len(window)).values
    return {"standard": NodeSequence.standard(len(window), window.base_index),
            "step_halving": NodeSequence(halving, window.base_index)}


def _evicting(table) -> dict:
    """What the default table, which evicts old columns, still holds."""
    try:
        best = table.best_estimate()
        best = [best.order_k, best.pilot_index_n, _hex(best.value)]
    except BreakdownError:
        best = None
    return {"columns": table.stored_columns(), "best": best,
            "entries": _table(table)["entries"]}


def builders():
    """``(key, call)`` for every recorded table, keyed
    ``function/window[/basis or nodes]``; ``call(keep_full)`` builds it."""
    for name, window in windows().items():
        calls = {"vea": lambda full, w=window: vea(w, keep_full=full)}
        if window.is_scalar:
            calls["epsilon_scalar"] = lambda full, w=window: \
                epsilon_scalar(w, keep_full=full)
            calls["rho"] = lambda full, w=window: rho(w, keep_full=full)
            calls["theta"] = lambda full, w=window: theta(w, keep_full=full)
            for nodes_name, x in node_sets(window).items():
                calls[f"richardson_table/{nodes_name}"] = \
                    lambda full, w=window, x=x: \
                    richardson_table(w, x, keep_full=full)
        k_max = min(4, len(window) - 1)
        for basis_name, basis in bases(window).items():
            calls[f"h_algorithm/{basis_name}"] = \
                lambda full, w=window, b=basis: \
                h_algorithm(w, b, k_max, keep_full=full)
            if window.is_scalar:
                calls[f"e_algorithm/{basis_name}"] = \
                    lambda full, w=window, b=basis: \
                    e_algorithm(w, b, k_max, keep_full=full)
        for label, call in calls.items():
            function, _, variant = label.partition("/")
            yield "/".join(filter(None, (function, name, variant))), call


def _aitken_levels(window: SequenceWindow) -> dict:
    """Every level ``iterated_aitken`` completes at full depth, as
    ``[k, n, hex]`` per entry."""
    levels = iterated_aitken(window, max_k=(len(window) - 1) // 2)
    return {"levels": [[e.order_k, e.pilot_index_n, _hex(e.value)]
                       for level in levels for e in level]}


def record() -> dict:
    """Every recorded output, keyed as by :func:`builders`, and the
    ``iterated_aitken/window`` levels."""
    out = {}
    for key, call in builders():
        out[key] = _table(call(True))
        out[key]["evicting"] = _evicting(call(False))
    for name, window in windows().items():
        if window.is_scalar:
            out[f"iterated_aitken/{name}"] = _aitken_levels(window)
    return out


def test_recursions_match_recorded_outputs_bit_for_bit():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = record()
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key


def test_golden_inputs_reach_the_breakdown_paths():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for function in ("epsilon_scalar", "rho", "theta", "vea"):
        for name in ("ties", "constant"):
            assert expected[f"{function}/{name}"]["flagged"]
    for function in ("e_algorithm", "h_algorithm"):
        assert expected[f"{function}/ties/terms"]["flagged"]
        assert expected[f"{function}/constant/terms"]["flagged"]
    # a breakdown stops iterated delta-squared short of full depth
    for name, count in (("geometric_mixture-12", 12), ("constant", 6)):
        deepest = expected[f"iterated_aitken/{name}"]["levels"][-1][0]
        assert deepest < (count - 1) // 2


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    lines = [f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
             for key, value in sorted(record().items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
