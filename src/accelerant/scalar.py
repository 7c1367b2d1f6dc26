"""Scalar sequence transformations.

One-shot transforms (:func:`aitken_step`, :func:`shanks_oracle`,
:func:`pade_approximant`) raise on breakdown at the shared default
threshold; tableau builders
(:func:`richardson_table`, :func:`epsilon_scalar`, :func:`rho`,
:func:`theta`, :func:`e_algorithm`) flag broken entries and suppress
everything that depends on them; reading a flagged entry raises.  Each
builder supplies only its entry formula and the parents it reads; one
column sweep in :mod:`accelerant.core` fills the table and applies that
breakdown rule for all of them.

Estimates of the lozenge recursions live in the even tableau columns; odd
columns are auxiliary quantities only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    BreakdownError,
    Estimate,
    SequenceWindow,
    Tableau,
    _column_sweep,
    _lozenge_rule,
    _require_safe,
    forward_difference,
)
from .linalg import RankDeficiencyError, _determinant, lu_solve

__all__ = [
    "BasisFamily",
    "NodeSequence",
    "NonexistenceError",
    "RationalFunction",
    "aitken_step",
    "e_algorithm",
    "e_algorithm_determinant",
    "epsilon_scalar",
    "iterated_aitken",
    "pade_approximant",
    "rho",
    "richardson_table",
    "shanks_oracle",
    "theta",
]

#: Falling nodes with a consecutive ratio in [_RATIO_FLOOR, 1) trigger the
#: convergence-condition warning for node-based extrapolation.
_RATIO_FLOOR = 0.9

_NEGLIGIBLE_DETERMINANT = "denominator determinant is negligible at order {order_k}"


class NonexistenceError(BreakdownError):
    """The requested transform is not defined for this input (singular
    coefficient system / degenerate table block)."""


@dataclass(frozen=True)
class NodeSequence:
    """Positive, finite, pairwise-distinct extrapolation nodes x_n.

    Indexed absolutely: ``value(n)`` is the node attached to sequence
    index ``n``.  Monotonicity is not required here — transforms that
    need strictly increasing nodes (the rho recursion) enforce it
    themselves.
    """

    values: tuple[float, ...]
    start_index: int = 0

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not all(0.0 < v < np.inf for v in vals):
            raise ValueError("nodes must be positive and finite")
        if len(set(vals)) != len(vals):
            raise ValueError("nodes must be pairwise distinct")

    @classmethod
    def standard(cls, count: int, start_index: int = 0) -> "NodeSequence":
        """The default node choice x_n = n + 1."""
        return cls(tuple(float(start_index + i + 1) for i in range(count)),
                   start_index=start_index)

    @classmethod
    def step_halving(cls, count: int, p: int = 1) -> "NodeSequence":
        """Classic nodes x_n = 2**(-p n) for step-halving extrapolation."""
        return cls(tuple(2.0 ** (-p * i) for i in range(count)))

    def value(self, n: int) -> float:
        i = n - self.start_index
        if not 0 <= i < len(self.values):
            raise IndexError(f"no node stored for index {n}")
        return self.values[i]

    def is_strictly_increasing(self) -> bool:
        return all(a < b for a, b in zip(self.values, self.values[1:]))

    def ratios_near_one(self) -> bool:
        """True when the nodes fall and some x_{n+1}/x_n lies in [0.9, 1)."""
        ratios = [b / a for a, b in zip(self.values, self.values[1:])]
        return all(r < 1.0 for r in ratios) and any(r >= _RATIO_FLOOR for r in ratios)


class BasisFamily:
    """Auxiliary basis g_i(n), i >= 1, for the E-algorithm and relatives.

    Wraps a callable ``evaluator(i, n) -> float`` and checks every
    evaluation is finite.
    """

    def __init__(self, evaluator: Callable[[int, int], float]):
        self._eval = evaluator

    def value(self, i: int, n: int) -> float:
        v = float(self._eval(i, n))
        if not np.isfinite(v):
            raise ValueError(f"basis evaluation g_{i}({n}) is not finite")
        return v

    @classmethod
    def geometric(cls, ratios: Sequence[float]) -> "BasisFamily":
        """g_i(n) = ratios[i-1]**n."""
        r = tuple(float(x) for x in ratios)
        return cls(lambda i, n: r[i - 1] ** n)

    @classmethod
    def node_powers(cls, nodes: NodeSequence) -> "BasisFamily":
        """g_i(n) = x_n**i — reproduces node-polynomial extrapolation."""
        return cls(lambda i, n: nodes.value(n) ** i)


@dataclass(frozen=True)
class RationalFunction:
    """P(z)/Q(z) with Q normalized so Q(0) = 1."""

    numerator: tuple[float, ...]
    denominator: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "numerator", tuple(float(c) for c in self.numerator))
        object.__setattr__(self, "denominator",
                           tuple(float(c) for c in self.denominator))
        if not self.denominator or self.denominator[0] != 1.0:
            raise ValueError("denominator must be normalized with Q(0) = 1")

    def __call__(self, z: float) -> float:
        num = 0.0
        for c in reversed(self.numerator):
            num = num * z + c
        den = 0.0
        for c in reversed(self.denominator):
            den = den * z + c
        return num / den


# ---------------------------------------------------------------------------
# one-shot transforms
# ---------------------------------------------------------------------------

def aitken_step(s0: float, s1: float, s2: float) -> Estimate:
    """One step of the delta-squared transformation on three consecutive terms.

    Returns t = s0 - (s1 - s0)^2 / (s2 - 2 s1 + s0); raises
    :class:`BreakdownError` when the second difference is negligible
    against the first differences.
    """
    d0 = s1 - s0
    d1 = s2 - s1
    dd = d1 - d0
    _require_safe(dd, max(abs(d0), abs(d1)),
                  "second difference vanishes; delta-squared step undefined", 1)
    value = s0 - d0 * d0 / dd
    return Estimate(value, order_k=1,
                    diagnostics={"min_denominator": abs(dd)})


def iterated_aitken(window: SequenceWindow, max_k: int) -> list[list[Estimate]]:
    """Repeatedly apply the delta-squared step, each level feeding the next.

    Level 0 is the input; level k has 2k fewer entries.  A breakdown while
    building a level discards that partial level and stops; fully
    completed levels are returned.
    """
    if not window.is_scalar:
        raise ValueError("iterated delta-squared applies to scalar windows")
    if len(window) < 2 * max_k + 1:
        raise ValueError(f"need at least {2 * max_k + 1} terms for {max_k} levels")
    base = window.base_index
    levels = [[Estimate(float(t), order_k=0, pilot_index_n=base + i)
               for i, t in enumerate(window)]]
    for k in range(1, max_k + 1):
        prev = levels[-1]
        level: list[Estimate] = []
        try:
            for i in range(len(prev) - 2):
                e = aitken_step(prev[i].value, prev[i + 1].value,
                                prev[i + 2].value)
                level.append(Estimate(e.value, order_k=k,
                                      pilot_index_n=prev[i].pilot_index_n,
                                      diagnostics=e.diagnostics))
        except BreakdownError:
            break
        levels.append(level)
    return levels


def shanks_oracle(window: SequenceWindow, k: int, n: int | None = None) -> Estimate:
    """Order-k transform as an explicit ratio of two determinants.

    Both are (k+1) x (k+1): first row the sequence terms (numerator) or
    ones (denominator), then the forward differences of orders 1..k of
    the k+1 shifted starting points.  Evaluated by partially pivoted
    elimination — a deliberate second route used to validate the
    recursive implementations.  k = 1 coincides with :func:`aitken_step`.
    """
    if not window.is_scalar:
        raise ValueError("the determinant transform applies to scalar windows")
    if k > 8:
        raise ValueError("determinant evaluation is capped at order 8")
    if n is None:
        n = window.base_index
    if window.last_index < n + 2 * k:
        raise ValueError(f"order {k} at index {n} needs terms up to {n + 2 * k}")
    if k == 0:
        return Estimate(window.term(n), order_k=0, pilot_index_n=n)
    rows_num = [[window.term(n + j) for j in range(k + 1)]]
    rows_den = [[1.0] * (k + 1)]
    for order in range(1, k + 1):
        diff_row = [forward_difference(window, order, n + j) for j in range(k + 1)]
        rows_num.append(diff_row)
        rows_den.append(diff_row)
    num = _determinant(np.array(rows_num))
    den = _determinant(np.array(rows_den))
    _require_safe(den, _hadamard_bound(np.array(rows_den)),
                  _NEGLIGIBLE_DETERMINANT, k, n)
    return Estimate(num / den, order_k=k, pilot_index_n=n,
                    diagnostics={"min_denominator": abs(den)})


def _hadamard_bound(a: np.ndarray) -> float:
    """Product of row norms — an upper bound on |det|, used as its scale."""
    norms = np.linalg.norm(a, axis=1)
    return float(np.prod(norms))


def pade_approximant(coefficients: Sequence[float], m: int, n: int) -> RationalFunction:
    """Rational approximant [m/n] matching a power series through order m+n.

    Solves the n x n linear order conditions for the denominator by
    pivoted elimination, then recovers the numerator by convolution.
    A singular system means the requested table block is degenerate and
    raises :class:`NonexistenceError`.  Coefficients must be finite.
    """
    c = [float(x) for x in coefficients]
    if not np.all(np.isfinite(c)):
        raise ValueError("series coefficients must be finite")
    if m < 0 or n < 0:
        raise ValueError("orders must be nonnegative")
    if len(c) < m + n + 1:
        raise ValueError(f"need {m + n + 1} series coefficients, got {len(c)}")

    def series(j: int) -> float:
        return c[j] if j >= 0 else 0.0

    if n == 0:
        q = [1.0]
    else:
        a = np.array([[series(m + 1 + row - col) for col in range(1, n + 1)]
                      for row in range(n)])
        rhs = -np.array([series(m + 1 + row) for row in range(n)])
        try:
            q_tail = lu_solve(a, rhs)
        except RankDeficiencyError as exc:
            raise NonexistenceError(
                f"[{m}/{n}] approximant does not exist: singular "
                "denominator conditions") from exc
        q = [1.0] + [float(x) for x in q_tail]
    p = [sum(q[i] * series(j - i) for i in range(min(j, n) + 1))
         for j in range(m + 1)]
    return RationalFunction(tuple(p), tuple(q))


# ---------------------------------------------------------------------------
# tableau builders
# ---------------------------------------------------------------------------

def _require_scalar(window: SequenceWindow, what: str) -> np.ndarray:
    """The window's terms as one read-only 1-D array, if they are scalars."""
    if not window.is_scalar:
        raise ValueError(f"{what} applies to scalar windows")
    return window.rows(window.base_index, len(window))[:, 0]


#: Parents (k - dk, n + dn) of a Richardson or E entry (k, n), as (dk, dn).
_ADJACENT = ((1, 0), (1, 1))

#: Parents of theta's even entry (k, n): o_{k-1}^(n..n+2), o_{k-2}^(n+1..n+2).
_THETA_EVEN = ((1, 0), (1, 1), (1, 2), (2, 1), (2, 2))


def _inverse_step(k, d, size, a, b, back):
    return back + np.reciprocal(d)  # 1.0 / d, without the float's conversion


#: The inverse-difference lozenge column of epsilon and of theta's odd step.
_INVERSE_RULE = _lozenge_rule(np.abs, _inverse_step)


def _theta_gap(k, o0, o1, o2, e1, e2):
    denom = o2 - 2.0 * o1 + o0
    return denom, np.abs(denom), np.maximum(np.abs(o2 - o1), np.abs(o1 - o0))


def _theta_step(k, denom, size, o0, o1, o2, e1, e2):
    return e1 + (e2 - e1) * (o2 - o1) / denom


def richardson_table(window: SequenceWindow, nodes: NodeSequence,
                     keep_full: bool = False) -> Tableau:
    """Node-based polynomial extrapolation table.

    t_0^(n) = s_n and
    t_k^(n) = t_{k-1}^(n) - x_n (t_{k-1}^(n+1) - t_{k-1}^(n)) / (x_{n+k} - x_n);
    with x_n = 2**(-p n) this is the classic step-halving scheme.  Every
    column is an estimate.  Falling nodes with a ratio x_{n+1}/x_n in
    [0.9, 1) are accepted but trigger a RuntimeWarning, since the
    convergence guarantee for x_n -> 0 assumes ratios bounded below 1.
    """
    terms = _require_scalar(window, "node-based extrapolation")
    base = window.base_index
    x = np.array([nodes.value(n) for n in range(base, window.last_index + 1)])
    if nodes.ratios_near_one():
        warnings.warn(
            "consecutive node ratios lie close to 1; extrapolation may "
            "converge slowly or not at all", RuntimeWarning, stacklevel=2)

    def gap(k, a, b):
        xn, xnk = x[:len(a)], x[k:k + len(a)]
        denom = xnk - xn
        return denom, np.abs(denom), np.maximum(np.abs(xn), np.abs(xnk))

    def step(k, denom, size, a, b):
        return a - x[:len(a)] * (b - a) / denom

    return _column_sweep(terms, base, ((_ADJACENT, gap, step),), keep_full)


def epsilon_scalar(window: SequenceWindow, keep_full: bool = False) -> Tableau:
    """The scalar lozenge recursion over inverse differences.

    Columns satisfy e_{k+1}^(n) = e_{k-1}^(n+1) + 1/(e_k^(n+1) - e_k^(n))
    from e_{-1} = 0 and e_0^(n) = s_n.  Even columns approximate the
    limit (column 2 reproduces the delta-squared step); odd columns are
    auxiliary.  Broken entries are flagged and their dependents
    suppressed.
    """
    terms = _require_scalar(window, "the inverse-difference recursion")
    if len(window) < 3:
        raise ValueError("need at least three terms")
    return _column_sweep(terms, window.base_index, (_INVERSE_RULE,), keep_full,
                         lozenge=True)


def rho(window: SequenceWindow, nodes: NodeSequence | None = None,
        keep_full: bool = False) -> Tableau:
    """Node-weighted lozenge recursion for logarithmic-type sequences.

    r_{k+1}^(n) = r_{k-1}^(n+1) + (x_{n+k+1} - x_n)/(r_k^(n+1) - r_k^(n))
    with the default nodes x_n = n + 1.  User nodes must be strictly
    increasing (checked eagerly); even columns are the estimates.
    """
    terms = _require_scalar(window, "the node-weighted recursion")
    if len(window) < 3:
        raise ValueError("need at least three terms")
    base, length = window.base_index, len(window)
    if nodes is None:
        nodes = NodeSequence.standard(length, start_index=base)
    elif not nodes.is_strictly_increasing():
        raise ValueError("nodes must be strictly increasing")
    x = np.array([nodes.value(n) for n in range(base, base + length)])

    def step(k, d, size, a, b, back):
        return back + (x[k:k + len(d)] - x[:len(d)]) / d

    return _column_sweep(terms, base, (_lozenge_rule(np.abs, step),),
                         keep_full, lozenge=True)


def theta(window: SequenceWindow, keep_full: bool = False) -> Tableau:
    """Damped lozenge recursion effective on logarithmic sequences.

    Odd step:  o_{2k+1}^(n) = o_{2k-1}^(n+1) + 1/(o_{2k}^(n+1) - o_{2k}^(n)).
    Even step: o_{2k+2}^(n) = o_{2k}^(n+1)
               + (o_{2k}^(n+2) - o_{2k}^(n+1)) (o_{2k+1}^(n+2) - o_{2k+1}^(n+1))
                 / (o_{2k+1}^(n+2) - 2 o_{2k+1}^(n+1) + o_{2k+1}^(n)).
    Even columns are the estimates.  Needs at least four terms for the
    first even estimate.
    """
    terms = _require_scalar(window, "the damped recursion")
    if len(window) < 4:
        raise ValueError("need at least four terms")
    # column k follows rules[k % 2]: even columns the five-parent step
    rules = ((_THETA_EVEN, _theta_gap, _theta_step), _INVERSE_RULE)
    return _column_sweep(terms, window.base_index, rules, keep_full,
                         lozenge=True)


def e_algorithm(window: SequenceWindow, basis: BasisFamily, k_max: int,
                keep_full: bool = False) -> Tableau:
    """General extrapolation recursion over an arbitrary auxiliary basis.

    Main values follow
    E_k^(n) = E_{k-1}^(n) - g_{k-1,k}^(n) (E_{k-1}^(n+1) - E_{k-1}^(n))
                            / (g_{k-1,k}^(n+1) - g_{k-1,k}^(n))
    with the auxiliaries g_{k,i} obeying the same pattern, from
    E_0^(n) = s_n and g_{0,i}^(n) = g_i(n).  Every column is an estimate
    column; with a geometric basis the column-k kernel is the k-mode
    error model, and with g_i(n) = x_n^i it reproduces node-polynomial
    extrapolation.
    """
    terms = _require_scalar(window, "the general recursion")
    return _e_recursion(terms, window.base_index, basis, k_max, keep_full)


def _e_recursion(column0: np.ndarray, base: int, basis: BasisFamily,
                 k_max: int, keep_full: bool) -> Tableau:
    """The general recursion over ``column0`` from index ``base``.

    Its entries are floats (1-D, :func:`e_algorithm`) or vector rows (2-D,
    the vector form ``h_algorithm``); the auxiliaries are scalars either
    way, and entry (k, n) breaks down on the auxiliary denominator
    g_{k-1,k}^(n+1) - g_{k-1,k}^(n).
    """
    length = len(column0)
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if length < k_max + 1:
        raise ValueError(f"need at least {k_max + 1} terms for order {k_max}")
    # row i - 1 holds g_{k,i}, updated in place by column k for every i > k
    aux = np.array([[basis.value(i, base + j) for j in range(length)]
                    for i in range(1, k_max + 1)]).reshape(k_max, length)

    def gap(k, e0, e1):
        g = aux[k - 1, :len(e0) + 1]
        denom = g[1:] - g[:-1]
        size = np.abs(g)
        return denom, np.abs(denom), np.maximum(size[:-1], size[1:])

    def step(k, denom, size, e0, e1):
        count = len(e0)
        ratio = aux[k - 1, :count] / denom
        g = aux[k:, :count + 1]
        aux[k:, :count] = g[:, :-1] - ratio * (g[:, 1:] - g[:, :-1])
        if e0.ndim == 2:
            ratio = ratio[:, None]
        return e0 - ratio * (e1 - e0)

    return _column_sweep(column0, base, ((_ADJACENT, gap, step),), keep_full,
                         last_column=k_max)


def e_algorithm_determinant(window: SequenceWindow, basis: BasisFamily,
                            k: int, n: int | None = None) -> float:
    """Determinant-form oracle for the general recursion.

    E_k^(n) as the ratio of two (k+1) x (k+1) determinants: top row the
    sequence terms (numerator) or ones (denominator), then the rows
    g_i(n) .. g_i(n+k) for i = 1..k.  Validation mode for
    :func:`e_algorithm`; capped at k <= 8.
    """
    _require_scalar(window, "the determinant oracle")
    if k > 8:
        raise ValueError("determinant evaluation is capped at order 8")
    if n is None:
        n = window.base_index
    if window.last_index < n + k:
        raise ValueError(f"order {k} at index {n} needs terms up to {n + k}")
    if k == 0:
        return float(window.term(n))
    top_num = [window.term(n + j) for j in range(k + 1)]
    g_rows = [[basis.value(i, n + j) for j in range(k + 1)]
              for i in range(1, k + 1)]
    num = _determinant(np.array([top_num] + g_rows))
    den = _determinant(np.array([[1.0] * (k + 1)] + g_rows))
    _require_safe(den, _hadamard_bound(np.array([[1.0] * (k + 1)] + g_rows)),
                  _NEGLIGIBLE_DETERMINANT, k, n)
    return num / den
