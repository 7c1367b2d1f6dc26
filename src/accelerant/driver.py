"""Restarted acceleration cycles around fixed-point iterations.

The driver wraps a fixed-point map u -> G(u) and repeatedly (i) runs a few
plain iterations, (ii) collects a short window of consecutive iterates,
(iii) collapses the window with one of the sequence transforms, and
(iv) restarts the iteration from the collapsed point.  Projection-type
transforms (``rre``, ``mpe``, ``mmpe``, ``sbeta``, ``h``) consume a window
of ``m + 2`` terms per cycle; lozenge-type transforms (``vea``, ``tea``,
``stea2``; STEA1 would repeat TEA) consume ``2m + 1`` terms.  ``anderson``
takes one mixing step per cycle from the stop check's own evaluation,
carrying its history from cycle to cycle, so its window costs no evaluation.

Map evaluations are counted exactly: one evaluation establishes the
reference residual at the starting guess (reused as the first stop check
when no warmup runs), each later stop check costs one evaluation, and each
completed cycle adds its warmup and window evaluations on top.  The warmup
runs once before the first stop check; projection methods rerun it before
every later one.  Every run, a diverged one too, ends in a ``RunReport``
whose ``reason`` names the stop and whose counts cover every evaluation; an
overflow inside a run is one of those results, never a warning.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import BreakdownError, SequenceWindow, _frozen_array, _norm
from .scalar import BasisFamily
from .vector import (
    AndersonState,
    VpeMethod,
    _mmpe_basis,
    anderson_step,
    h_algorithm,
    sbeta,
    stea,
    tea,
    vea,
    vpe_extrapolate,
)

__all__ = [
    "CSV_HEADER",
    "CycleConfig",
    "DivergenceError",
    "FixedPointProblem",
    "METHOD_NAMES",
    "RunReport",
    "run_cycles",
]

PROJECTION_METHODS = ("rre", "mpe", "mmpe", "sbeta", "h")
# the projection methods that test against a fixed basis of width_m columns
_TEST_BASIS_METHODS = ("mmpe", "sbeta", "h")
LOZENGE_METHODS = ("vea", "tea", "stea2")
METHOD_NAMES = PROJECTION_METHODS + LOZENGE_METHODS + ("anderson",)

# How far above its best a run may climb before ``_outgrew`` stops it.  On
# the benchmark's problems a run that does not diverge climbs at most ~120
# times above its best in the driver and ~900 times in componentwise aitken;
# transforms that break down on a window climb 1e12 and more.
DIVERGENCE_FACTOR = 1e6
# A window cycle is a deterministic function of the point it starts from,
# so one that hands the next cycle its own start, to within this relative
# distance, repeats forever: with fixed test vectors on an affine map the
# MMPE-family point t satisfies Y^T (G(t) - t) = 0 and the next cycle
# returns t again.
STALL_TOL = 1e-13
CSV_HEADER = "method,N,p,m,tol,cycles,iterations,final_residual,seconds"


def _outgrew(size: float, start: float, best: float) -> bool:
    """The divergence rule every run stops by: ``size`` exceeds both the
    starting ``start`` and ``DIVERGENCE_FACTOR`` times ``best``, the
    smallest size an earlier stop check saw (``start`` included).

    ``run_cycles`` applies it to the residual; the command line's plain
    and componentwise runs to their step and to the distance between
    successive accelerated points.
    """
    return size > max(start, DIVERGENCE_FACTOR * best)


class DivergenceError(RuntimeError):
    """A map value was nonfinite; ``run_cycles`` reports it as a reason."""


@dataclass(frozen=True)
class FixedPointProblem:
    """A fixed-point problem u = G(u) with a designated starting guess.

    ``mapping`` must accept and return vectors of length ``dimension``.
    ``solution`` is optional and only consulted by tests, never by the
    driver itself.
    """

    dimension: int
    mapping: Callable[[np.ndarray], np.ndarray]
    initial_guess: np.ndarray
    solution: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        for name in ("initial_guess", "solution"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _frozen_array(
                    getattr(self, name), name, 1, self.dimension))


@dataclass(frozen=True)
class CycleConfig:
    """Settings for one accelerated run.

    ``width_m`` is the transform order used inside each cycle and
    ``warmup_p`` the number of plain map applications run once, before the
    first stop check; the projection methods (``rre``, ``mpe``, ``mmpe``,
    ``sbeta``, ``h``) rerun them before every later one.  ``test_vectors``
    supplies projection columns for the ``mmpe``/``sbeta``/``h`` methods
    (canonical basis columns by default); ``tea`` and ``stea2`` pair with
    the current cycle's residual.
    ``depth`` and ``damping`` configure ``anderson`` only.  ``depth``, the
    number of residual differences Anderson mixes, falls back to
    ``width_m`` when unset; the command line sets it that way, by ``--m``.
    """

    method: str
    width_m: int = 5
    warmup_p: int = 0
    tol: float = 1e-8
    max_cycles: int = 100
    test_vectors: Optional[np.ndarray] = None
    depth: Optional[int] = None
    damping: float = 1.0

    def __post_init__(self):
        name = str(self.method).lower()
        if name not in METHOD_NAMES:
            raise ValueError(f"unknown method {self.method!r}")
        object.__setattr__(self, "method", name)
        if int(self.width_m) < 1:
            raise ValueError("width_m must be at least 1")
        object.__setattr__(self, "width_m", int(self.width_m))
        if int(self.warmup_p) < 0:
            raise ValueError("warmup_p must be nonnegative")
        object.__setattr__(self, "warmup_p", int(self.warmup_p))
        if not float(self.tol) > 0.0:
            raise ValueError("tol must be positive")
        object.__setattr__(self, "tol", float(self.tol))
        if int(self.max_cycles) < 1:
            raise ValueError("max_cycles must be at least 1")
        object.__setattr__(self, "max_cycles", int(self.max_cycles))
        if self.test_vectors is not None:
            tv = _frozen_array(self.test_vectors, "test_vectors", 2)
            if tv.size == 0:
                raise ValueError("test_vectors must be nonempty")
            object.__setattr__(self, "test_vectors", tv)
        if self.depth is not None:
            if int(self.depth) < 0:
                raise ValueError("depth must be nonnegative")
            object.__setattr__(self, "depth", int(self.depth))
        if not float(self.damping) > 0.0:
            raise ValueError("damping must be positive")
        object.__setattr__(self, "damping", float(self.damping))

    @property
    def inner_terms(self) -> int:
        """Map evaluations spent building one window (0 for anderson)."""
        if self.method in PROJECTION_METHODS:
            return self.width_m + 1
        if self.method in LOZENGE_METHODS:
            return 2 * self.width_m
        return 0


@dataclass(frozen=True)
class RunReport:
    """Outcome of one accelerated run.

    ``residual_history`` holds the relative residual that opened each
    completed cycle, and ``cycles``, derived from it, counts those cycles.
    ``final_residual`` is the relative residual measured at the stop check
    that ended the run.  ``reason`` names that stop:
    ``converged``, ``warmup`` (converged before the first cycle, during
    the one-time warmup), ``stalled`` (a window cycle returned its own
    start), ``max_cycles``, ``diverged`` (the residual outgrew the
    starting one and ``DIVERGENCE_FACTOR`` times the smallest an earlier
    stop check saw, so ``final_residual`` exceeds
    ``max(1, DIVERGENCE_FACTOR * min((1.0,) + residual_history))``) or
    ``nonfinite`` (a map value was not finite; ``final_residual`` is then
    inf).
    """

    method: str
    dimension: int
    warmup_p: int
    width_m: int
    tol: float
    cycles: int = field(init=False)
    iterations: int
    final_residual: float
    residual_history: tuple[float, ...]
    seconds: float
    reason: str
    fallback_cycles: int = 0

    def __post_init__(self):
        history = tuple(float(v) for v in self.residual_history)
        object.__setattr__(self, "residual_history", history)
        object.__setattr__(self, "cycles", len(history))

    def csv_row(self) -> str:
        """Serialize as the row matching CSV_HEADER."""
        return ",".join([
            self.method,
            str(self.dimension),
            str(self.warmup_p),
            str(self.width_m),
            format(self.tol, ".17g"),
            str(self.cycles),
            str(self.iterations),
            format(self.final_residual, ".17g"),
            format(self.seconds, ".6f"),
        ])


def _cycle_transform(config: CycleConfig, dimension: int):
    """The function ``collapse(seq, y)`` that collapses one window of
    iterates (the rows of ``seq``; tea and stea2 pair with ``y``) and
    raises on transform breakdown.

    Built once per run: the VPE method and the mmpe, sbeta or h test basis
    are set up here, and a basis wider than ``dimension`` raises
    ValueError before the run maps anything.
    """
    m = config.width_m
    method = config.method
    if method in _TEST_BASIS_METHODS:
        cols = _mmpe_basis(config.test_vectors, dimension, m)
    if method in ("rre", "mpe", "mmpe"):
        # mmpe keeps the config's array, whose layout its products round in
        vm = VpeMethod(method, config.test_vectors if method == "mmpe" else None)
        return lambda seq, y: vpe_extrapolate(SequenceWindow(seq), vm, m).value
    if method == "sbeta":
        ys = [cols[:, j] for j in range(m)]
        return lambda seq, y: sbeta(SequenceWindow(seq), ys).value
    if method == "h":
        def collapse(seq, y):
            d1 = [seq[j + 1] - seq[j] for j in range(len(seq) - 1)]
            basis = BasisFamily(lambda i, n: float(cols[:, i - 1] @ d1[n]))
            table = h_algorithm(SequenceWindow(seq[:m + 1]), basis, m)
            return table.get_entry(m, 0)
        return collapse
    if method == "vea":
        return lambda seq, y: vea(SequenceWindow(seq)).get_entry(2 * m, 0)
    if method == "tea":
        return lambda seq, y: tea(SequenceWindow(seq), y, m).value
    return lambda seq, y: stea(SequenceWindow(seq), y, m, 2).value


@np.errstate(over="ignore")
def run_cycles(problem: FixedPointProblem, config: CycleConfig) -> RunReport:
    """Run restarted acceleration cycles until a stop check ends the run.

    Every stop check maps the current point, then stops the run with the
    first reason that holds: ``diverged``, a residual above both the
    starting one and ``DIVERGENCE_FACTOR`` times the smallest one an
    earlier stop check saw, the starting one included (or whose norm
    overflows); ``converged``, a residual within ``config.tol`` of the
    starting one, relative (``warmup`` when no cycle ran and the warmup
    did the work); ``stalled``, the last window cycle handed the next its
    own start to within ``STALL_TOL``, relative to that start's norm, so
    every later cycle would repeat it (never checked for anderson, whose
    step depends on its history); ``max_cycles``, ``config.max_cycles``
    cycles ran.  A nonfinite map value at any evaluation stops the run
    there with reason ``nonfinite``, not counting the cycle it interrupts.
    A starting residual whose norm overflows or underflows raises
    ValueError, and so does an mmpe, sbeta or h test basis wider than the
    dimension, before any map evaluation.  A transform breakdown falls
    back to the window's last plain iterate for that cycle (counted in
    ``fallback_cycles``).
    """
    start_time = time.perf_counter()
    dimension = problem.dimension
    counter = {"evals": 0}
    collapse = None if config.method == "anderson" \
        else _cycle_transform(config, dimension)

    def apply_map(point: np.ndarray) -> np.ndarray:
        counter["evals"] += 1
        image = np.asarray(problem.mapping(point), dtype=float)
        if image.shape != (dimension,):
            raise ValueError("map output dimension mismatch")
        if not np.isfinite(image).all():
            raise DivergenceError("map produced nonfinite values")
        return image

    def report(final_rel: float, reason: str) -> RunReport:
        return RunReport(
            method=config.method, dimension=dimension,
            warmup_p=config.warmup_p, width_m=config.width_m,
            tol=config.tol, iterations=counter["evals"],
            final_residual=final_rel, residual_history=tuple(history),
            seconds=time.perf_counter() - start_time, reason=reason,
            fallback_cycles=fallbacks)

    current = np.array(problem.initial_guess, dtype=float)
    history: list[float] = []
    fallbacks = 0
    stalled = False
    try:
        g_current = apply_map(current)
        residual0 = g_current - current
        if not np.any(residual0):
            return report(0.0, "converged")
        # np.linalg.norm, not _norm: refuse starts the transforms can't scale
        reference = float(np.linalg.norm(residual0))
        if not 0.0 < reference < np.inf:
            scale = np.max(np.abs(residual0))
            raise ValueError(f"starting residual of scale {scale:.3e} has no "
                             "finite nonzero norm in double precision; "
                             "rescale the problem")

        def warmup(point: np.ndarray) -> np.ndarray:
            for _ in range(config.warmup_p):
                point = apply_map(point)
            return point

        if config.warmup_p:
            current = warmup(current)
            g_current = apply_map(current)
        anderson = None
        if config.method == "anderson":
            depth = config.width_m if config.depth is None else config.depth
            anderson = AndersonState.start(current, depth=depth,
                                           damping=config.damping)
        # One buffer, reused by every cycle, holds the iterates the window
        # copies.  Kept in fresh arrays per cycle instead, they let glibc trim
        # and regrow the heap every cycle (twice the page faults on
        # reaction_diffusion(80), for the same arithmetic).
        seq = np.empty((config.inner_terms + 1, dimension))
        best = 1.0  # the smallest relative residual a stop check has seen
        # The stop and stall checks take their norms as math.sqrt(r.dot(r))
        # (``_norm``): on a contiguous float64 vector that is the dot and
        # the square root np.linalg.norm runs, so the same bits at less cost,
        # and where the squares overflow it scales instead of reading inf.
        while True:
            residual = g_current - current
            res = _norm(residual)
            rel = res / reference
            if _outgrew(rel, 1.0, best):
                return report(rel, "diverged")
            best = min(best, rel)
            if res <= config.tol * reference:
                reason = "warmup" if not history and config.warmup_p > 0 \
                    else "converged"
                return report(rel, reason)
            if stalled:
                return report(rel, "stalled")
            if len(history) >= config.max_cycles:
                return report(rel, "max_cycles")

            if anderson is not None:
                _, anderson = anderson_step(anderson, g_current)
                current = anderson.current
            else:
                seq[0] = current
                for j in range(config.inner_terms):
                    seq[j + 1] = apply_map(seq[j])
                if res > 2.0 ** 500:
                    # tea and stea2 read only the pairing's direction; an
                    # exact power-of-two scale keeps its products finite
                    residual *= 2.0 ** -math.frexp(res)[1]
                try:
                    value = collapse(seq, residual)
                except BreakdownError:
                    value = seq[-1]
                    fallbacks += 1
                current = np.array(value, dtype=float)
                del value  # a vea value is a view of its table's block
                if config.method in PROJECTION_METHODS:
                    current = warmup(current)
                # the next window starts from current, after any rerun warmup
                stalled = _norm(current - seq[0]) <= STALL_TOL * _norm(seq[0])
            history.append(rel)
            g_current = apply_map(current)
    except DivergenceError:  # a nonfinite map value ends the run at once
        return report(np.inf, "nonfinite")
