"""Scalar sequence transformations.

One-shot transforms (:func:`aitken_step`, :func:`shanks_oracle`,
:func:`pade_approximant`) raise on breakdown; tableau builders
(:func:`richardson_table`, :func:`epsilon_scalar`, :func:`rho`,
:func:`theta`, :func:`e_algorithm`) flag broken entries and suppress
everything that depends on them, unless the supplied policy's action is
``"error"``.

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
    BreakdownPolicy,
    Estimate,
    SequenceWindow,
    Tableau,
    _lozenge_table,
    breakdown_check,
    forward_difference,
)
from .linalg import RankDeficiencyError, _determinant, lu_solve

__all__ = [
    "BasisFamily",
    "KernelModel",
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

#: Consecutive node ratios inside this band around 1 trigger the
#: convergence-condition warning for node-based extrapolation.
_RATIO_BAND = (0.9, 1.0 / 0.9)

_TABLEAU_POLICY = BreakdownPolicy(action="skip-entry")


class NonexistenceError(ArithmeticError):
    """The requested transform is not defined for this input (singular
    coefficient system / degenerate table block)."""


@dataclass(frozen=True)
class KernelModel:
    """Geometric error model s_n = limit + sum_j c_j * ratio_j**n.

    Sequences of this form are mapped exactly to ``limit`` by the
    transformations whose kernel has at least ``len(modes)`` modes.
    Ratios must differ from 1; distinctness of their magnitudes is the
    caller's responsibility where exactness arguments need it.
    """

    limit: float
    modes: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for _, ratio in self.modes:
            if ratio == 1.0:
                raise ValueError("mode ratios must differ from 1")

    def term(self, n: int) -> float:
        return self.limit + sum(c * r ** n for c, r in self.modes)

    def window(self, count: int, base_index: int = 0) -> SequenceWindow:
        return SequenceWindow([self.term(base_index + i) for i in range(count)],
                              base_index=base_index)


@dataclass(frozen=True)
class NodeSequence:
    """Positive, pairwise-distinct extrapolation nodes x_n.

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
        if any(v <= 0 for v in vals):
            raise ValueError("nodes must be positive")
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
        lo, hi = _RATIO_BAND
        return any(lo <= b / a <= hi for a, b in zip(self.values, self.values[1:]))


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

def aitken_step(s0: float, s1: float, s2: float,
                policy: BreakdownPolicy = _TABLEAU_POLICY) -> Estimate:
    """One step of the delta-squared transformation on three consecutive terms.

    Returns t = s0 - (s1 - s0)^2 / (s2 - 2 s1 + s0); raises
    :class:`BreakdownError` when the second difference is negligible
    against the first differences.
    """
    d0 = s1 - s0
    d1 = s2 - s1
    dd = d1 - d0
    scale = max(abs(d0), abs(d1))
    if not breakdown_check(dd, scale, policy):
        raise BreakdownError(
            "second difference vanishes; delta-squared step undefined",
            order_k=1, denominator=abs(dd), scale=scale)
    value = s0 - d0 * d0 / dd
    return Estimate(value, order_k=1,
                    diagnostics={"min_denominator": abs(dd)})


def iterated_aitken(window: SequenceWindow, max_k: int,
                    policy: BreakdownPolicy = _TABLEAU_POLICY) -> list[list[Estimate]]:
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
                                prev[i + 2].value, policy)
                level.append(Estimate(e.value, order_k=k,
                                      pilot_index_n=prev[i].pilot_index_n,
                                      diagnostics=e.diagnostics))
        except BreakdownError:
            break
        levels.append(level)
    return levels


def shanks_oracle(window: SequenceWindow, k: int, n: int | None = None,
                  policy: BreakdownPolicy = _TABLEAU_POLICY) -> Estimate:
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
    scale = _hadamard_bound(np.array(rows_den))
    if not breakdown_check(den, scale, policy):
        raise BreakdownError(
            f"denominator determinant is negligible at order {k}",
            order_k=k, index_n=n, denominator=abs(den), scale=scale)
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
    raises :class:`NonexistenceError`.
    """
    c = [float(x) for x in coefficients]
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

def _require_scalar(window: SequenceWindow, what: str) -> None:
    if not window.is_scalar:
        raise ValueError(f"{what} applies to scalar windows")


def _breakdown_or_flag(table: Tableau, k: int, n: int, denom: float,
                       scale: float, policy: BreakdownPolicy) -> bool:
    """Shared handling of a failed denominator inside a tableau builder.

    Returns True when the entry was flagged (skip-entry), raises when the
    policy demands an error.
    """
    if policy.action == "error":
        raise BreakdownError(
            f"breakdown at tableau entry ({k}, {n})",
            order_k=k, index_n=n, denominator=abs(denom), scale=scale)
    table.flag_breakdown(k, n)
    return True


def richardson_table(window: SequenceWindow, nodes: NodeSequence,
                     policy: BreakdownPolicy = _TABLEAU_POLICY,
                     keep_full: bool = False) -> Tableau:
    """Node-based polynomial extrapolation table.

    t_0^(n) = s_n and
    t_k^(n) = t_{k-1}^(n) - x_n (t_{k-1}^(n+1) - t_{k-1}^(n)) / (x_{n+k} - x_n);
    with x_n = 2**(-p n) this is the classic step-halving scheme.  Every
    column is an estimate.  Node ratios too close to 1 are accepted but
    trigger a RuntimeWarning, since the underlying convergence guarantee
    assumes ratios bounded away from 1.
    """
    _require_scalar(window, "node-based extrapolation")
    base, length = window.base_index, len(window)
    for i in range(length):
        nodes.value(base + i)  # eager coverage check
    if nodes.ratios_near_one():
        warnings.warn(
            "consecutive node ratios lie close to 1; extrapolation may "
            "converge slowly or not at all", RuntimeWarning, stacklevel=2)
    t = Tableau(keep_full=keep_full, estimate_parity="all")
    for i, s in enumerate(window):
        t.set_entry(0, base + i, float(s))
    for k in range(1, length):
        alive = False
        for n in range(base, base + length - k):
            try:
                a = t.get_entry(k - 1, n)
                b = t.get_entry(k - 1, n + 1)
            except BreakdownError:
                t.flag_breakdown(k, n)
                continue
            xn, xnk = nodes.value(n), nodes.value(n + k)
            denom = xnk - xn
            if not breakdown_check(denom, max(abs(xn), abs(xnk)), policy):
                _breakdown_or_flag(t, k, n, denom, max(abs(xn), abs(xnk)), policy)
                continue
            t.set_entry(k, n, a - xn * (b - a) / denom)
            alive = True
        if not alive:
            break
    t.compact()
    return t


def epsilon_scalar(window: SequenceWindow,
                   policy: BreakdownPolicy = _TABLEAU_POLICY,
                   keep_full: bool = False) -> Tableau:
    """The scalar lozenge recursion over inverse differences.

    Columns satisfy e_{k+1}^(n) = e_{k-1}^(n+1) + 1/(e_k^(n+1) - e_k^(n))
    from e_{-1} = 0 and e_0^(n) = s_n.  Even columns approximate the
    limit (column 2 reproduces the delta-squared step); odd columns are
    auxiliary.  Broken entries are flagged and their dependents
    suppressed.
    """
    _require_scalar(window, "the inverse-difference recursion")
    if len(window) < 3:
        raise ValueError("need at least three terms")
    return _lozenge_table([float(s) for s in window], window.base_index, abs,
                          lambda d, size, k, n: 1.0 / d, policy, keep_full)


def rho(window: SequenceWindow, nodes: NodeSequence | None = None,
        policy: BreakdownPolicy = _TABLEAU_POLICY,
        keep_full: bool = False) -> Tableau:
    """Node-weighted lozenge recursion for logarithmic-type sequences.

    r_{k+1}^(n) = r_{k-1}^(n+1) + (x_{n+k+1} - x_n)/(r_k^(n+1) - r_k^(n))
    with the default nodes x_n = n + 1.  User nodes must be strictly
    increasing (checked eagerly); even columns are the estimates.
    """
    _require_scalar(window, "the node-weighted recursion")
    if len(window) < 3:
        raise ValueError("need at least three terms")
    base, length = window.base_index, len(window)
    if nodes is None:
        nodes = NodeSequence.standard(length + 1, start_index=base)
    else:
        if not nodes.is_strictly_increasing():
            raise ValueError("nodes must be strictly increasing")
        for i in range(length):
            nodes.value(base + i)
    x = nodes.value
    return _lozenge_table([float(s) for s in window], base, abs,
                          lambda d, size, k, n: (x(n + k) - x(n)) / d,
                          policy, keep_full)


def theta(window: SequenceWindow,
          policy: BreakdownPolicy = _TABLEAU_POLICY,
          keep_full: bool = False) -> Tableau:
    """Damped lozenge recursion effective on logarithmic sequences.

    Odd step:  o_{2k+1}^(n) = o_{2k-1}^(n+1) + 1/(o_{2k}^(n+1) - o_{2k}^(n)).
    Even step: o_{2k+2}^(n) = o_{2k}^(n+1)
               + (o_{2k}^(n+2) - o_{2k}^(n+1)) (o_{2k+1}^(n+2) - o_{2k+1}^(n+1))
                 / (o_{2k+1}^(n+2) - 2 o_{2k+1}^(n+1) + o_{2k+1}^(n)).
    Even columns are the estimates.  Needs at least four terms for the
    first even estimate.
    """
    _require_scalar(window, "the damped recursion")
    if len(window) < 4:
        raise ValueError("need at least four terms")
    base, length = window.base_index, len(window)
    t = Tableau(keep_full=keep_full, estimate_parity="even")
    for n in range(base, base + length + 1):
        t.set_entry(-1, n, 0.0)
    for i, s in enumerate(window):
        t.set_entry(0, base + i, float(s))
    for k_col in range(1, length):
        alive = False
        even_step = k_col % 2 == 0
        for n in range(base, base + length):
            try:
                if not even_step:
                    # needs (k-1, n), (k-1, n+1), (k-2, n+1)
                    if not (t.ever_written(k_col - 1, n + 1)
                            and t.ever_written(k_col - 2, n + 1)):
                        break
                    a = t.get_entry(k_col - 1, n)
                    b = t.get_entry(k_col - 1, n + 1)
                    back = t.get_entry(k_col - 2, n + 1)
                    denom = b - a
                    scale = max(abs(a), abs(b))
                    if not breakdown_check(denom, scale, policy):
                        _breakdown_or_flag(t, k_col, n, denom, scale, policy)
                        continue
                    t.set_entry(k_col, n, back + 1.0 / denom)
                else:
                    # needs (k-1, n..n+2) and (k-2, n+1..n+2)
                    if not (t.ever_written(k_col - 1, n + 2)
                            and t.ever_written(k_col - 2, n + 2)):
                        break
                    o0 = t.get_entry(k_col - 1, n)
                    o1 = t.get_entry(k_col - 1, n + 1)
                    o2 = t.get_entry(k_col - 1, n + 2)
                    e1 = t.get_entry(k_col - 2, n + 1)
                    e2 = t.get_entry(k_col - 2, n + 2)
                    denom = o2 - 2.0 * o1 + o0
                    scale = max(abs(o2 - o1), abs(o1 - o0))
                    if not breakdown_check(denom, scale, policy):
                        _breakdown_or_flag(t, k_col, n, denom, scale, policy)
                        continue
                    t.set_entry(k_col, n, e1 + (e2 - e1) * (o2 - o1) / denom)
                alive = True
            except BreakdownError:
                t.flag_breakdown(k_col, n)
                continue
        if not alive:
            break
    t.compact()
    return t


def e_algorithm(window: SequenceWindow, basis: BasisFamily, k_max: int,
                policy: BreakdownPolicy = _TABLEAU_POLICY,
                keep_full: bool = False, return_aux: bool = False):
    """General extrapolation recursion over an arbitrary auxiliary basis.

    Main values follow
    E_k^(n) = E_{k-1}^(n) - g_{k-1,k}^(n) (E_{k-1}^(n+1) - E_{k-1}^(n))
                            / (g_{k-1,k}^(n+1) - g_{k-1,k}^(n))
    with the auxiliaries g_{k,i} obeying the same pattern, from
    E_0^(n) = s_n and g_{0,i}^(n) = g_i(n).  Every column is an estimate
    column; with a geometric basis the column-k kernel is the k-mode
    error model, and with g_i(n) = x_n^i it reproduces node-polynomial
    extrapolation.

    With ``return_aux=True`` returns ``(tableau, aux)`` where
    ``aux[(k, i)][n]`` holds g_{k,i}^(n).
    """
    _require_scalar(window, "the general recursion")
    t, aux = _e_recursion([float(s) for s in window], window.base_index,
                          basis, k_max, policy, keep_full)
    if return_aux:
        return t, aux
    return t


def _e_recursion(entries: list, base: int, basis: BasisFamily, k_max: int,
                 policy: BreakdownPolicy, keep_full: bool):
    """The general recursion over column 0 ``entries`` from index ``base``.

    Entries are floats (:func:`e_algorithm`) or vectors (the vector form,
    ``h_algorithm``); the auxiliaries are scalars either way.  Returns the
    tableau and ``aux[(k, i)][n]`` = g_{k,i}^(n).
    """
    length = len(entries)
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if length < k_max + 1:
        raise ValueError(f"need at least {k_max + 1} terms for order {k_max}")
    i_max = k_max  # auxiliary families used up to index k_max
    t = Tableau(keep_full=keep_full, estimate_parity="all")
    for i, entry in enumerate(entries):
        t.set_entry(0, base + i, entry)
    aux: dict[tuple[int, int], dict[int, float]] = {}
    for i in range(1, i_max + 1):
        aux[(0, i)] = {base + j: basis.value(i, base + j) for j in range(length)}
    dead: set[tuple[int, int]] = set()  # broken auxiliary positions (k, n)
    for k in range(1, k_max + 1):
        alive = False
        for i in range(k + 1, i_max + 1):
            aux[(k, i)] = {}
        for n in range(base, base + length - k):
            if (k - 1, n) in dead or (k - 1, n + 1) in dead:
                dead.add((k, n))
                t.flag_breakdown(k, n)
                continue
            g = aux[(k - 1, k)]
            denom = g[n + 1] - g[n]
            scale = max(abs(g[n]), abs(g[n + 1]))
            if not breakdown_check(denom, scale, policy):
                if policy.action == "error":
                    raise BreakdownError(
                        f"auxiliary denominator vanishes at ({k}, {n})",
                        order_k=k, index_n=n, denominator=abs(denom),
                        scale=scale)
                dead.add((k, n))
                t.flag_breakdown(k, n)
                continue
            ratio = g[n] / denom
            try:
                e0 = t.get_entry(k - 1, n)
                e1 = t.get_entry(k - 1, n + 1)
            except BreakdownError:
                dead.add((k, n))
                t.flag_breakdown(k, n)
                continue
            t.set_entry(k, n, e0 - ratio * (e1 - e0))
            for i in range(k + 1, i_max + 1):
                gi = aux[(k - 1, i)]
                aux[(k, i)][n] = gi[n] - ratio * (gi[n + 1] - gi[n])
            alive = True
        if not alive:
            break
    t.compact()
    return t, aux


def e_algorithm_determinant(window: SequenceWindow, basis: BasisFamily,
                            k: int, n: int | None = None,
                            policy: BreakdownPolicy = _TABLEAU_POLICY) -> float:
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
    scale = _hadamard_bound(np.array([[1.0] * (k + 1)] + g_rows))
    if not breakdown_check(den, scale, policy):
        raise BreakdownError(
            f"denominator determinant is negligible at order {k}",
            order_k=k, index_n=n, denominator=abs(den), scale=scale)
    return num / den
