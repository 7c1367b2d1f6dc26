"""Accelerators for vector-valued fixed-point and iterative sequences.

Three families live here.  The polynomial extrapolators (``vpe_extrapolate``
with its reduced-rank, minimal-annihilation, and modified variants) solve a
small projected system built from first and second differences of the
iterates.  The recursive transforms (``sbeta``, ``h_algorithm``, ``vea``,
``tea``, ``stea``) reach the same kind of combination through coupled
two-term recursions instead of an explicit solve.  ``anderson_step`` mixes a
bounded history of residuals one update at a time.

All routines treat the input window as immutable and return fresh values;
breakdown handling follows the conventions of :mod:`accelerant.core`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .core import (
    DEFAULT_POLICY,
    BreakdownError,
    BreakdownPolicy,
    Estimate,
    SequenceWindow,
    Tableau,
    _lozenge_table,
    breakdown_check,
    forward_difference,
)
from .linalg import RankDeficiencyError, _determinant, least_squares, lu_solve
from .scalar import NonexistenceError, _e_recursion, epsilon_scalar

__all__ = [
    "AndersonState",
    "TeaWeight",
    "VpeMethod",
    "VpeResult",
    "anderson_step",
    "generalized_residual",
    "h_algorithm",
    "sbeta",
    "stea",
    "tea",
    "vea",
    "vpe_extrapolate",
    "vpe_oracle",
]

_TABLEAU_POLICY = BreakdownPolicy(action="skip-entry")

_VPE_KINDS = ("mpe", "rre", "mmpe")


def _freeze_vector(value) -> np.ndarray:
    arr = np.array(value, dtype=np.float64, copy=True)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a one-dimensional vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    arr.flags.writeable = False
    return arr


def _window_columns(window: SequenceWindow, index: int, count: int) -> np.ndarray:
    """Terms ``s_index .. s_{index+count-1}`` as the columns of an array."""
    if index < window.base_index or index + count - 1 > window.last_index:
        raise ValueError(
            f"window covers indices {window.base_index}..{window.last_index}, "
            f"need {index}..{index + count - 1}")
    cols = [np.atleast_1d(np.asarray(window.term(index + j), dtype=np.float64))
            for j in range(count)]
    return np.column_stack(cols)


@dataclass(frozen=True)
class VpeMethod:
    """Which projected system the polynomial extrapolation solves.

    ``kind`` selects the family: ``"rre"`` minimizes the combined first
    difference in the least-squares sense, ``"mpe"`` annihilates it against
    the difference span, and ``"mmpe"`` projects onto user-supplied test
    vectors (columns of ``test_vectors``).  MMPE without explicit vectors
    falls back to the leading canonical basis directions.
    """

    kind: str
    test_vectors: np.ndarray | None = None

    def __post_init__(self):
        kind = self.kind.lower()
        if kind not in _VPE_KINDS:
            raise ValueError(f"kind must be one of {_VPE_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        if self.test_vectors is not None:
            if kind != "mmpe":
                raise ValueError("test vectors only apply to the mmpe kind")
            y = np.array(self.test_vectors, dtype=np.float64, copy=True)
            if y.ndim != 2 or y.size == 0:
                raise ValueError("test_vectors must be a nonempty N x k matrix")
            if not np.all(np.isfinite(y)):
                raise ValueError("test_vectors must be finite")
            y.flags.writeable = False
            object.__setattr__(self, "test_vectors", y)

    @classmethod
    def mpe(cls) -> "VpeMethod":
        return cls("mpe")

    @classmethod
    def rre(cls) -> "VpeMethod":
        return cls("rre")

    @classmethod
    def mmpe(cls, test_vectors=None) -> "VpeMethod":
        return cls("mmpe", None if test_vectors is None
                   else np.asarray(test_vectors, dtype=np.float64))


@dataclass(frozen=True)
class VpeResult:
    """Outcome of one polynomial extrapolation.

    ``value`` is the transformed vector, ``gamma`` the k+1 combination
    weights over ``s_n .. s_{n+k}`` (they sum to one), and ``residual`` the
    generalized residual of the combination.  ``diagnostics`` carries the
    residual norm and the cosine of the angle between the leading difference
    and its (orthogonal or oblique) projection.
    """

    value: np.ndarray
    gamma: np.ndarray
    residual: np.ndarray
    order_k: int
    pilot_index_n: int = 0
    diagnostics: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "value", _freeze_vector(self.value))
        object.__setattr__(self, "gamma", _freeze_vector(self.gamma))
        object.__setattr__(self, "residual", _freeze_vector(self.residual))
        if self.order_k < 0:
            raise ValueError("order_k must be nonnegative")
        if len(self.gamma) != self.order_k + 1:
            raise ValueError("gamma must hold order_k + 1 weights")


@dataclass(frozen=True)
class TeaWeight:
    """The fixed dual vector the topological transforms test residuals against."""

    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", _freeze_vector(self.y))
        if not np.any(self.y):
            raise ValueError("the dual vector must be nonzero")


def generalized_residual(window: SequenceWindow, coefficients: Sequence[float],
                         index: int | None = None):
    """First difference corrected by weighted second differences.

    Returns ``ds_n + sum_i a_i d2s_{n+i-1}`` for ``a_1..a_k`` taken from
    ``coefficients``.  On windows produced by an affine iteration this equals
    the true residual of the extrapolated point; in general it is the
    quantity the polynomial methods drive to (projected) zero.
    """
    n = window.base_index if index is None else index
    k = len(coefficients)
    if n < window.base_index or n + k + 1 > window.last_index + 1:
        raise ValueError(
            f"need terms {n}..{n + k + 1} inside "
            f"{window.base_index}..{window.last_index}")
    result = forward_difference(window, 1, n)
    for i, a in enumerate(coefficients, start=1):
        result = result + float(a) * forward_difference(window, 2, n + i - 1)
    return result


def _difference_blocks(window: SequenceWindow, n: int, k: int):
    """Return (s_n, dS with k columns, d2S with k columns, ds_n .. as array)."""
    s_cols = _window_columns(window, n, k + 2)
    d1 = s_cols[:, 1:] - s_cols[:, :-1]          # ds_n .. ds_{n+k}
    d2 = d1[:, 1:] - d1[:, :-1]                  # d2s_n .. d2s_{n+k-1}
    return s_cols[:, 0], d1[:, :k], d2, d1


def _tail_sums(gamma: np.ndarray) -> np.ndarray:
    """Map combination weights to difference coefficients a_i = sum_{j>=i} g_j."""
    return np.cumsum(gamma[::-1])[::-1][1:]


def _gamma_from_coefficients(a: np.ndarray) -> np.ndarray:
    gamma = np.empty(len(a) + 1)
    gamma[0] = 1.0 - a[0]
    gamma[1:-1] = a[:-1] - a[1:]
    gamma[-1] = a[-1]
    return gamma


def _mmpe_basis(method: VpeMethod, dimension: int, k: int) -> np.ndarray:
    if method.test_vectors is None:
        if k > dimension:
            raise ValueError("default test vectors need k <= dimension")
        return np.eye(dimension)[:, :k]
    y = np.asarray(method.test_vectors, dtype=np.float64)
    if y.shape[0] != dimension or y.shape[1] < k:
        raise ValueError(
            f"test_vectors must be {dimension} x >= {k}, got {y.shape}")
    return y[:, :k]


def _angle_diagnostics(ds0: np.ndarray, residual: np.ndarray, key: str) -> dict:
    diag = {"residual_norm": float(np.linalg.norm(residual))}
    projected = ds0 - residual
    np_, nr = np.linalg.norm(projected), np.linalg.norm(ds0)
    if np_ > 0.0 and nr > 0.0:
        diag[key] = float(min(1.0, abs(ds0 @ projected) / (np_ * nr)))
    return diag


def vpe_extrapolate(window: SequenceWindow, method: VpeMethod, k: int,
                    index: int | None = None,
                    policy: BreakdownPolicy = DEFAULT_POLICY) -> VpeResult:
    """Polynomial extrapolation through a projected difference system.

    Computes ``t_k = s_n + dS a`` where the coefficients make the
    generalized residual ``ds_n + d2S a`` orthogonal to the method's test
    space: the second-difference span itself (RRE, solved in the
    least-squares sense), the first-difference span (MPE, through the
    normalized annihilation form), or fixed test vectors (MMPE, solved by
    elimination).  ``k = 0`` returns the pilot term unchanged.
    """
    n = window.base_index if index is None else index
    if k < 0:
        raise ValueError("order k must be nonnegative")
    if k == 0:
        s_cols = _window_columns(window, n, 2)
        ds0 = s_cols[:, 1] - s_cols[:, 0]
        return VpeResult(value=s_cols[:, 0], gamma=np.ones(1), residual=ds0,
                         order_k=0, pilot_index_n=n,
                         diagnostics={"residual_norm": float(np.linalg.norm(ds0))})
    s0, d1, d2, d1_full = _difference_blocks(window, n, k)
    ds0 = d1_full[:, 0]
    angle_key = {"rre": "cos_theta", "mpe": "cos_phi", "mmpe": "cos_psi"}[method.kind]

    if method.kind == "rre":
        fit = least_squares(d2, -ds0, policy)
        a = fit.coefficients
        gamma = _gamma_from_coefficients(a)
        extras = {"rank_deficient": 1.0} if fit.rank_deficient else {}
    elif method.kind == "mpe":
        fit = least_squares(d1, -d1_full[:, k], policy)
        c = np.append(fit.coefficients, 1.0)
        total = float(c.sum())
        if not breakdown_check(total, max(1.0, float(np.max(np.abs(c)))), policy):
            raise NonexistenceError(
                f"annihilation weights sum to {total:.3e}; the order-{k} "
                "transform does not exist here")
        gamma = c / total
        a = _tail_sums(gamma)
        extras = {"weight_sum": total}
        if fit.rank_deficient:
            extras["rank_deficient"] = 1.0
    else:
        basis = _mmpe_basis(method, len(s0), k)
        try:
            a = lu_solve(basis.T @ d2, -(basis.T @ ds0), policy)
        except RankDeficiencyError as exc:
            raise NonexistenceError(
                f"projected matrix is singular at order {k}: {exc}") from exc
        gamma = _gamma_from_coefficients(a)
        extras = {}

    value = s0 + d1 @ a
    residual = ds0 + d2 @ a
    diag = _angle_diagnostics(ds0, residual, angle_key)
    diag.update(extras)
    return VpeResult(value=value, gamma=gamma, residual=residual,
                     order_k=k, pilot_index_n=n, diagnostics=diag)


def vpe_oracle(window: SequenceWindow, method: VpeMethod, k: int,
               index: int | None = None,
               policy: BreakdownPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Slow determinant-ratio route to the same extrapolated vector.

    Builds the (k+1) x (k+1) ratio whose first row holds the sequence terms
    (expanded one component at a time) over rows of pairing coefficients
    against the first differences.  Exists for cross-checking
    :func:`vpe_extrapolate`; capped at small orders because the cost grows
    factorially.
    """
    n = window.base_index if index is None else index
    if k < 0 or k > 6:
        raise ValueError("oracle orders are limited to 0 <= k <= 6")
    if k == 0:
        return _window_columns(window, n, 1)[:, 0]
    s_cols = _window_columns(window, n, k + 2)
    d1 = s_cols[:, 1:] - s_cols[:, :-1]
    d2 = d1[:, 1:] - d1[:, :-1]
    if method.kind == "mpe":
        rows = [d1[:, i] for i in range(k)]
    elif method.kind == "rre":
        rows = [d2[:, i] for i in range(k)]
    else:
        basis = _mmpe_basis(method, s_cols.shape[0], k)
        rows = [basis[:, i] for i in range(k)]
    alpha = np.array([[row @ d1[:, j] for j in range(k + 1)] for row in rows])

    denom_matrix = np.vstack([np.ones(k + 1), alpha])
    denominator = _determinant(denom_matrix)
    scale = float(np.sqrt(k + 1.0)) * float(
        np.prod([max(np.linalg.norm(r), 1e-300) for r in alpha]))
    if not breakdown_check(denominator, scale, policy):
        raise NonexistenceError(
            f"denominator determinant {denominator:.3e} vanishes against "
            f"scale {scale:.3e} at order {k}")
    value = np.empty(s_cols.shape[0])
    work = np.empty_like(denom_matrix)
    work[1:] = alpha
    for component in range(s_cols.shape[0]):
        work[0] = s_cols[component, : k + 1]
        value[component] = _determinant(work) / denominator
    return value


def sbeta(window: SequenceWindow, test_vectors: Sequence, index: int | None = None,
          policy: BreakdownPolicy = DEFAULT_POLICY) -> Estimate:
    """Coupled two-sequence recursion for the projected transform.

    Runs the paired update

        a = (y_k, b[n]) / (y_k, b[n+1])
        s[n] <- (s[n] - a s[n+1]) / (1 - a)     (b alike)

    level by level from ``s[n] = s_n`` and ``b[n] = ds_n``, consuming one
    test vector per level.  The depth-k value at the pilot index equals the
    MMPE transform with the same test vectors.
    """
    ys = [np.atleast_1d(np.asarray(y, dtype=np.float64)) for y in test_vectors]
    k = len(ys)
    if k < 1:
        raise ValueError("need at least one test vector")
    n0 = window.base_index if index is None else index
    count = window.last_index - n0 + 1
    if count < k + 2:
        raise ValueError(f"need at least {k + 2} terms from index {n0} for depth {k}")
    s_cols = _window_columns(window, n0, count)
    s_level = [s_cols[:, j] for j in range(count)]
    b_level = [s_cols[:, j + 1] - s_cols[:, j] for j in range(count - 1)]
    last_ratio = 0.0
    for level, y in enumerate(ys, start=1):
        new_s, new_b = [], []
        for j in range(len(b_level) - 1):
            lead = float(y @ b_level[j])
            denom = float(y @ b_level[j + 1])
            scale = float(np.linalg.norm(y) * np.linalg.norm(b_level[j + 1]))
            if not breakdown_check(denom, scale, policy):
                raise BreakdownError(
                    f"test-vector pairing vanishes at level {level}",
                    order_k=level, index_n=n0 + j, denominator=abs(denom),
                    scale=scale)
            a = lead / denom
            one_minus = 1.0 - a
            if not breakdown_check(one_minus, max(1.0, abs(a)), policy):
                raise BreakdownError(
                    f"unit pairing ratio at level {level}", order_k=level,
                    index_n=n0 + j, denominator=abs(one_minus),
                    scale=max(1.0, abs(a)))
            new_s.append((s_level[j] - a * s_level[j + 1]) / one_minus)
            new_b.append((b_level[j] - a * b_level[j + 1]) / one_minus)
            if j == 0:
                last_ratio = a
        s_level, b_level = new_s, new_b
    return Estimate(value=_freeze_vector(s_level[0]), order_k=k,
                    pilot_index_n=n0,
                    diagnostics={"last_ratio": last_ratio,
                                 "beta_norm": float(np.linalg.norm(b_level[0]))})


def h_algorithm(window: SequenceWindow, basis, k_max: int,
                policy: BreakdownPolicy = _TABLEAU_POLICY,
                keep_full: bool = False) -> Tableau:
    """Vector form of the general auxiliary-basis recursion.

    Main entries follow

        H_k^(n) = H_{k-1}^(n) - g_{k-1,k}^(n) (H_{k-1}^(n+1) - H_{k-1}^(n))
                                / (g_{k-1,k}^(n+1) - g_{k-1,k}^(n))

    with scalar auxiliaries ``g`` obeying the same pattern from
    ``g_{0,i}^(n) = basis.value(i, n)``.  The result agrees component by
    component with the scalar recursion run on each coordinate against the
    same auxiliaries.
    """
    entries = [np.atleast_1d(np.asarray(t, dtype=np.float64)) for t in window]
    return _e_recursion(entries, window.base_index, basis, k_max, policy,
                        keep_full)[0]


def vea(window: SequenceWindow,
        policy: BreakdownPolicy = _TABLEAU_POLICY,
        keep_full: bool = False) -> Tableau:
    """Lozenge recursion with the norm-scaled vector inverse.

    Identical in shape to the scalar inverse-difference recursion but with
    ``z^{-1} = z / ||z||^2`` applied to entry differences.  Even columns are
    the estimates; odd columns are auxiliary and never reported.  A depth-2k
    entry consumes 2k+1 consecutive terms.
    """
    if len(window) < 3:
        raise ValueError("need at least three terms")
    dim = 1 if window.is_scalar else window.dimension
    entries = [np.atleast_1d(np.asarray(t, dtype=np.float64)) for t in window]
    return _lozenge_table(entries, window.base_index, _norm, _vector_inverse,
                          policy, keep_full, zero=np.zeros(dim))


def _norm(vector: np.ndarray) -> float:
    return float(np.linalg.norm(vector))


def _vector_inverse(d: np.ndarray, size: float, k: int, n: int) -> np.ndarray:
    """z^{-1} = z / ||z||^2, in place: ``d`` is a fresh difference."""
    d /= size * size
    return d


def _dual_vector(weight) -> np.ndarray:
    if isinstance(weight, TeaWeight):
        return weight.y
    return TeaWeight(np.asarray(weight, dtype=np.float64)).y


def tea(window: SequenceWindow, weight, k: int, index: int | None = None,
        policy: BreakdownPolicy = DEFAULT_POLICY) -> Estimate:
    """Topological transform through its k x k pairing system.

    Solves ``T c = dS^T y`` where ``T[j, i] = (y, d2s_{n+i+j})`` (zero-based
    offsets) and returns ``t_k = s_n - dS c``.  The coefficients make every
    shifted generalized residual orthogonal to the dual vector ``y``.  An
    order-k value consumes the 2k+1 terms ``s_n .. s_{n+2k}``.
    """
    y = _dual_vector(weight)
    n = window.base_index if index is None else index
    if k < 0:
        raise ValueError("order k must be nonnegative")
    if k == 0:
        value = _window_columns(window, n, 1)[:, 0]
        return Estimate(value=_freeze_vector(value), order_k=0, pilot_index_n=n)
    s_cols = _window_columns(window, n, 2 * k + 1)
    if s_cols.shape[0] != len(y):
        raise ValueError("dual vector dimension does not match the sequence")
    d1 = s_cols[:, 1:] - s_cols[:, :-1]
    d2 = d1[:, 1:] - d1[:, :-1]
    pair2 = y @ d2                       # (y, d2s_{n+j}) for j = 0..2k-2
    t_matrix = np.array([[pair2[i + j] for i in range(k)] for j in range(k)])
    rhs = d1[:, :k].T @ y
    try:
        c = lu_solve(t_matrix, rhs, policy)
    except RankDeficiencyError as exc:
        raise NonexistenceError(
            f"pairing matrix is singular at order {k}: {exc}") from exc
    a = -c
    value = s_cols[:, 0] + d1[:, :k] @ a
    residual = d1[:, 0] + d2[:, :k] @ a
    gamma = _gamma_from_coefficients(a)
    diag = {"residual_norm": float(np.linalg.norm(residual)),
            "gamma_sum": float(gamma.sum())}
    for j, g in enumerate(gamma):
        diag[f"gamma_{j}"] = float(g)
    return Estimate(value=_freeze_vector(value), order_k=k, pilot_index_n=n,
                    diagnostics=diag)


def stea(window: SequenceWindow, weight, k: int, variant: int,
         index: int | None = None,
         policy: BreakdownPolicy = DEFAULT_POLICY) -> Estimate:
    """Topological transform driven by a scalar companion table.

    Runs the inverse-difference recursion on the pairings ``z_n = (y, s_n)``
    and lifts it back to vectors:

        variant 1:  v_{2k+2}^(n) = v_{2k}^(n+1)
                    + r (v_{2k}^(n+1) - v_{2k}^(n)),
                    r = (e_{2k+2}^(n) - e_{2k}^(n+1)) / (e_{2k}^(n+1) - e_{2k}^(n))

        variant 2:  like variant 1 but differencing forward, with
                    r = (e_{2k+2}^(n) - e_{2k}^(n+1)) / (e_{2k}^(n+2) - e_{2k}^(n+1))
                    applied to (v_{2k}^(n+2) - v_{2k}^(n+1))

    where ``e`` are the scalar even-column entries.  Variant 1 reproduces
    the direct order-k transform at the same pilot; variant 2 is the
    companion transform anchored on the trailing half of the terms.
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    y = _dual_vector(weight)
    n0 = window.base_index if index is None else index
    if k < 0:
        raise ValueError("order k must be nonnegative")
    s_cols = _window_columns(window, n0, 2 * k + 1)
    if s_cols.shape[0] != len(y):
        raise ValueError("dual vector dimension does not match the sequence")
    if k == 0:
        return Estimate(value=_freeze_vector(s_cols[:, 0]), order_k=0,
                        pilot_index_n=n0, diagnostics={"variant": float(variant)})
    pairings = SequenceWindow((y @ s_cols[:, j] for j in range(2 * k + 1)),
                              base_index=n0)
    scalar_table = epsilon_scalar(pairings, keep_full=True)

    def even_entry(level: int, n: int) -> float:
        try:
            return float(scalar_table.get_entry(2 * level, n))
        except KeyError as exc:
            raise BreakdownError(
                f"scalar companion entry ({2 * level}, {n}) unavailable",
                order_k=2 * level, index_n=n) from exc

    current = {n0 + j: s_cols[:, j] for j in range(2 * k + 1)}
    for level in range(k):
        nxt: dict[int, np.ndarray] = {}
        for n in range(n0, n0 + 2 * (k - level) - 1):
            target = even_entry(level + 1, n)
            if variant == 1:
                anchor, lo, hi = even_entry(level, n + 1), n, n + 1
            else:
                anchor, lo, hi = even_entry(level, n + 1), n + 1, n + 2
            spread = even_entry(level, hi) - even_entry(level, lo)
            scale = max(abs(even_entry(level, hi)), abs(even_entry(level, lo)))
            if not breakdown_check(spread, scale, policy):
                raise BreakdownError(
                    f"scalar companion difference vanishes at level {level + 1}",
                    order_k=level + 1, index_n=n, denominator=abs(spread),
                    scale=scale)
            ratio = (target - anchor) / spread
            nxt[n] = current[n + 1] + ratio * (current[hi] - current[lo])
        current = nxt
    return Estimate(value=_freeze_vector(current[n0]), order_k=k,
                    pilot_index_n=n0, diagnostics={"variant": float(variant)})


@dataclass(frozen=True)
class AndersonState:
    """Bounded history carried between residual-mixing steps.

    Holds the trailing iterates and residuals (most recent last), the mixing
    depth ``depth`` (how many residual differences may enter one update),
    the damping factor, and the number of completed updates.  States are
    immutable; each step returns a fresh one.
    """

    depth: int
    damping: float
    step_index: int
    iterates: tuple
    residuals: tuple = ()
    diagnostics: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        if not self.damping > 0.0:
            raise ValueError("damping must be positive")
        if not self.iterates:
            raise ValueError("state must hold at least one iterate")
        object.__setattr__(self, "iterates",
                           tuple(_freeze_vector(x) for x in self.iterates))
        object.__setattr__(self, "residuals",
                           tuple(_freeze_vector(f) for f in self.residuals))

    @classmethod
    def start(cls, x0, depth: int, damping: float = 1.0) -> "AndersonState":
        return cls(depth=depth, damping=damping, step_index=0,
                   iterates=(np.asarray(x0, dtype=np.float64),))

    @property
    def current(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def active_depth(self) -> int:
        """How many residual differences the next update may mix."""
        return min(self.depth, self.step_index)


def anderson_step(state: AndersonState, g_value,
                  policy: BreakdownPolicy = DEFAULT_POLICY):
    """One residual-mixing update from the mapped current iterate.

    Given ``g_value = G(x_k)``, forms ``F_k = g_value - x_k``, fits the
    mixing weights by least squares over the stored residual differences,
    and returns ``(x_{k+1}, new_state)`` with

        x_{k+1} = (x_k - dX theta) + damping (F_k - dF theta).

    With an empty history (or depth zero) this is the damped fixed-point
    update.  A rank-deficient difference matrix sheds its oldest columns
    until the fit is well posed; the count appears in the diagnostics.
    """
    x_k = state.current
    g_arr = np.asarray(g_value, dtype=np.float64)
    if g_arr.shape != x_k.shape:
        raise ValueError("mapped value dimension does not match the iterate")
    f_k = g_arr - x_k
    m_k = state.active_depth
    if m_k > len(state.residuals):
        raise ValueError("state history is too short for its step index")

    xs = state.iterates[len(state.iterates) - (m_k + 1):]
    fs = state.residuals[len(state.residuals) - m_k:] + (f_k,)
    dropped = 0
    theta = np.zeros(0)
    while m_k > 0:
        d_f = np.column_stack([fs[j + 1] - fs[j] for j in range(m_k)])
        fit = least_squares(d_f, f_k, policy)
        if not fit.rank_deficient:
            theta = fit.coefficients
            break
        dropped += 1
        m_k -= 1
        xs, fs = xs[1:], fs[1:]
    if m_k == 0:
        y_k, f_bar = x_k, f_k
    else:
        d_x = np.column_stack([xs[j + 1] - xs[j] for j in range(m_k)])
        y_k = x_k - d_x @ theta
        f_bar = f_k - d_f @ theta
    x_next = y_k + state.damping * f_bar

    diag = {"residual_norm": float(np.linalg.norm(f_k)),
            "mixed_depth": float(m_k),
            "columns_dropped": float(dropped),
            "y_norm": float(np.linalg.norm(y_k)),
            "fbar_norm": float(np.linalg.norm(f_bar))}
    for j, th in enumerate(theta):
        diag[f"theta_{j}"] = float(th)

    keep = state.depth + 1
    new_state = replace(
        state,
        step_index=state.step_index + 1,
        iterates=(state.iterates + (x_next,))[-keep:],
        residuals=(state.residuals + (f_k,))[-max(state.depth, 1):],
        diagnostics=diag)
    return x_next, new_state
