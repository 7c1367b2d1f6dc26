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

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import (
    Estimate,
    SequenceWindow,
    Tableau,
    _column_sweep,
    _frozen_array,
    _lozenge_rule,
    _norm,
    _require_safe,
    breakdown_check,
    forward_difference,
)
from .linalg import RankDeficiencyError, _determinant, least_squares, lu_solve
from .scalar import NonexistenceError, _e_recursion, epsilon_scalar

__all__ = [
    "AndersonState",
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

_VPE_KINDS = ("mpe", "rre", "mmpe")


def _canonical_columns(dimension: int, k: int) -> np.ndarray:
    """The leading ``k`` canonical basis vectors as the columns of an array.

    Entry for entry ``np.eye(dimension)[:, :k]``, without the
    dimension x dimension matrix.
    """
    if k > dimension:
        raise ValueError("default test vectors need k <= dimension")
    cols = np.zeros((dimension, k))
    cols[np.arange(k), np.arange(k)] = 1.0
    return cols


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
            y = _frozen_array(self.test_vectors, "test_vectors", 2)
            if y.size == 0:
                raise ValueError("test_vectors must be nonempty")
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
    weights over ``s_n .. s_{n+k}`` (they sum to one), ``order_k`` the k
    they imply, and ``residual`` the generalized residual of the
    combination.  ``diagnostics`` carries the residual norm and the cosine
    of the angle between the leading difference and its (orthogonal or
    oblique) projection.
    """

    value: np.ndarray
    gamma: np.ndarray
    residual: np.ndarray
    order_k: int = field(init=False)
    pilot_index_n: int = 0
    diagnostics: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("value", "gamma", "residual"):
            object.__setattr__(self, name,
                               _frozen_array(getattr(self, name), name, 1))
        object.__setattr__(self, "order_k", len(self.gamma) - 1)


def generalized_residual(window: SequenceWindow, coefficients: Sequence[float]):
    """First difference corrected by weighted second differences.

    Returns ``ds_n + sum_i a_i d2s_{n+i-1}`` for ``a_1..a_k`` taken from
    ``coefficients``, n the window's base index.  On windows produced by an
    affine iteration this equals the true residual of the extrapolated
    point; in general it is the quantity the polynomial methods drive to
    (projected) zero.
    """
    n = window.base_index
    k = len(coefficients)
    if len(window) < k + 2:
        raise ValueError(
            f"need terms {n}..{n + k + 1} inside "
            f"{window.base_index}..{window.last_index}")
    result = forward_difference(window, 1, n)
    for i, a in enumerate(coefficients, start=1):
        result = result + float(a) * forward_difference(window, 2, n + i - 1)
    return result


def _difference_blocks(s_rows: np.ndarray):
    """First and second differences of ``count`` >= 3 rows ``s_n ..`` as
    N x (count - 1) and N x (count - 2) C-order blocks.

    The matrix and dot products that read them round by operand layout,
    so each block is written once, in that layout, by one subtraction of
    transposed row views.  Differences that overflow raise
    :class:`NonexistenceError`: every first difference enters a second
    one, so a finite second-difference block means both are finite.
    """
    dimension, count = s_rows.shape[1], len(s_rows)
    d1 = np.subtract(s_rows[1:].T, s_rows[:-1].T,
                     out=np.empty((dimension, count - 1)))
    d2 = np.subtract(d1[:, 1:], d1[:, :-1],
                     out=np.empty((dimension, count - 2)))
    if not np.isfinite(d2).all():
        raise NonexistenceError("the window's differences overflow")
    return d1, d2


def _tail_sums(gamma: np.ndarray) -> np.ndarray:
    """Map combination weights to difference coefficients a_i = sum_{j>=i} g_j."""
    return np.cumsum(gamma[::-1])[::-1][1:]


def _gamma_from_coefficients(a: np.ndarray) -> np.ndarray:
    gamma = np.empty(len(a) + 1)
    gamma[0] = 1.0 - a[0]
    gamma[1:-1] = a[:-1] - a[1:]
    gamma[-1] = a[-1]
    return gamma


def _mmpe_basis(test_vectors: np.ndarray | None, dimension: int,
                k: int) -> np.ndarray:
    """The leading ``k`` test vectors, or the canonical columns if none."""
    if test_vectors is None:
        return _canonical_columns(dimension, k)
    y = np.asarray(test_vectors, dtype=np.float64)
    if y.shape[0] != dimension or y.shape[1] < k:
        raise ValueError(
            f"test_vectors must be {dimension} x >= {k}, got {y.shape}")
    return y[:, :k]


def _angle_diagnostics(ds0: np.ndarray, residual: np.ndarray, key: str) -> dict:
    diag = {"residual_norm": float(np.linalg.norm(residual))}
    projected = ds0 - residual
    np_, nr = np.linalg.norm(projected), np.linalg.norm(ds0)
    if 0.0 < np_ * nr < np.inf:  # skipped where the norms vanish or overflow
        diag[key] = float(min(1.0, abs(ds0 @ projected) / (np_ * nr)))
    return diag


def vpe_extrapolate(window: SequenceWindow, method: VpeMethod,
                    k: int) -> VpeResult:
    """Polynomial extrapolation through a projected difference system.

    Computes ``t_k = s_n + dS a`` where the coefficients make the
    generalized residual ``ds_n + d2S a`` orthogonal to the method's test
    space: the second-difference span itself (RRE, solved in the
    least-squares sense), the first-difference span (MPE, through the
    normalized annihilation form), or fixed test vectors (MMPE, solved by
    elimination).  The pilot n is the window's base index; ``k = 0``
    returns the pilot term unchanged.
    """
    n = window.base_index
    if k < 0:
        raise ValueError("order k must be nonnegative")
    s_rows = window.rows(n, k + 2)
    if method.kind == "mmpe":
        basis = _mmpe_basis(method.test_vectors, s_rows.shape[1], k)
    if k == 0:
        ds0 = s_rows[1] - s_rows[0]
        return VpeResult(value=s_rows[0], gamma=np.ones(1), residual=ds0,
                         pilot_index_n=n,
                         diagnostics={"residual_norm": float(np.linalg.norm(ds0))})
    s0 = s_rows[0]
    # the N x (k+1) and N x k C-order blocks the products and ds0's dot
    # products round in; least_squares makes its own column-major copy
    d1_full, d2 = _difference_blocks(s_rows)
    d1, ds0 = d1_full[:, :k], d1_full[:, 0]
    angle_key = {"rre": "cos_theta", "mpe": "cos_phi", "mmpe": "cos_psi"}[method.kind]

    if method.kind == "rre":
        fit = least_squares(d2, -ds0)
        a = fit.coefficients
        gamma = _gamma_from_coefficients(a)
        extras = {"rank_deficient": 1.0} if fit.rank_deficient else {}
    elif method.kind == "mpe":
        fit = least_squares(d1, -d1_full[:, k])
        c = np.append(fit.coefficients, 1.0)
        total = float(c.sum())
        if not breakdown_check(total, max(1.0, float(np.max(np.abs(c))))):
            raise NonexistenceError(
                f"annihilation weights sum to {total:.3e}; the order-{k} "
                "transform does not exist here")
        gamma = c / total
        a = _tail_sums(gamma)
        extras = {"weight_sum": total}
        if fit.rank_deficient:
            extras["rank_deficient"] = 1.0
    else:
        try:
            a = lu_solve(basis.T @ d2, -(basis.T @ ds0))
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
                     pilot_index_n=n, diagnostics=diag)


def vpe_oracle(window: SequenceWindow, method: VpeMethod, k: int) -> np.ndarray:
    """Slow determinant-ratio route to the same extrapolated vector.

    Builds the (k+1) x (k+1) ratio whose first row holds the sequence terms
    (expanded one component at a time) over rows of pairing coefficients
    against the first differences.  Exists for cross-checking
    :func:`vpe_extrapolate`; capped at small orders because the cost grows
    factorially.
    """
    n = window.base_index
    if k < 0 or k > 6:
        raise ValueError("oracle orders are limited to 0 <= k <= 6")
    pilot = window.rows(n, 1)[0]
    if method.kind == "mmpe":
        basis = _mmpe_basis(method.test_vectors, pilot.shape[0], k)
    if k == 0:
        return pilot.copy()
    s_rows = window.rows(n, k + 2)
    d1, d2 = _difference_blocks(s_rows)
    if method.kind == "mpe":
        rows = [d1[:, i] for i in range(k)]
    elif method.kind == "rre":
        rows = [d2[:, i] for i in range(k)]
    else:
        rows = [basis[:, i] for i in range(k)]
    alpha = np.array([[row @ d1[:, j] for j in range(k + 1)] for row in rows])

    denom_matrix = np.vstack([np.ones(k + 1), alpha])
    denominator = _determinant(denom_matrix)
    scale = float(np.sqrt(k + 1.0)) * float(
        np.prod([max(np.linalg.norm(r), 1e-300) for r in alpha]))
    if not breakdown_check(denominator, scale):
        raise NonexistenceError(
            f"denominator determinant {denominator:.3e} vanishes against "
            f"scale {scale:.3e} at order {k}")
    value = np.empty(s_rows.shape[1])
    work = np.empty_like(denom_matrix)
    work[1:] = alpha
    for component in range(s_rows.shape[1]):
        work[0] = s_rows[: k + 1, component]
        value[component] = _determinant(work) / denominator
    return value


def sbeta(window: SequenceWindow, test_vectors: Sequence) -> Estimate:
    """Coupled two-sequence recursion for the projected transform.

    Runs the paired update

        a = (y_k, b[n]) / (y_k, b[n+1])
        s[n] <- (s[n] - a s[n+1]) / (1 - a)     (b alike)

    level by level from ``s[n] = s_n`` and ``b[n] = ds_n`` over the whole
    window, consuming one test vector per level.  The depth-k value at the
    pilot index, the window's base index, equals the MMPE transform with
    the same test vectors.
    """
    ys = [np.atleast_1d(np.asarray(y, dtype=np.float64)) for y in test_vectors]
    k = len(ys)
    if k < 1:
        raise ValueError("need at least one test vector")
    n0, count = window.base_index, len(window)
    if count < k + 2:
        raise ValueError(f"need at least {k + 2} terms from index {n0} for depth {k}")
    s_rows = window.rows(n0, count)
    if any(len(y) != s_rows.shape[1] for y in ys):
        raise ValueError("test vector dimension does not match the sequence")
    s_level = list(s_rows)
    b_level = list(s_rows[1:] - s_rows[:-1])
    last_ratio = 0.0
    for level, y in enumerate(ys, start=1):
        new_s, new_b = [], []
        for j in range(len(b_level) - 1):
            lead = float(y @ b_level[j])
            denom = float(y @ b_level[j + 1])
            scale = float(np.linalg.norm(y) * np.linalg.norm(b_level[j + 1]))
            _require_safe(denom, scale,
                          "test-vector pairing vanishes at level {order_k}",
                          level, n0 + j)
            a = lead / denom
            one_minus = 1.0 - a
            _require_safe(one_minus, max(1.0, abs(a)),
                          "unit pairing ratio at level {order_k}", level, n0 + j)
            new_s.append((s_level[j] - a * s_level[j + 1]) / one_minus)
            new_b.append((b_level[j] - a * b_level[j + 1]) / one_minus)
            if j == 0:
                last_ratio = a
        s_level, b_level = new_s, new_b
    return Estimate(value=_frozen_array(s_level[0], "value", 1), order_k=k,
                    pilot_index_n=n0,
                    diagnostics={"last_ratio": last_ratio,
                                 "beta_norm": float(np.linalg.norm(b_level[0]))})


def h_algorithm(window: SequenceWindow, basis, k_max: int,
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
    return _e_recursion(window.rows(window.base_index, len(window)),
                        window.base_index, basis, k_max, keep_full)


def vea(window: SequenceWindow, keep_full: bool = False) -> Tableau:
    """Lozenge recursion with the norm-scaled vector inverse.

    Identical in shape to the scalar inverse-difference recursion but with
    ``z^{-1} = z / ||z||^2`` applied to entry differences.  Even columns are
    the estimates; odd columns are auxiliary and never reported.  A depth-2k
    entry consumes 2k+1 consecutive terms.
    """
    if len(window) < 3:
        raise ValueError("need at least three terms")
    rows = window.rows(window.base_index, len(window))
    # Column k >= 1 has at most len - 1 entries and is written into one slot
    # of a block allocated once per call; it reads only columns k - 1 and
    # k - 2, so an evicting table reuses column k - 3's slot.
    slots = len(window) - 1 if keep_full else 3
    block = np.empty((slots, len(window) - 1, rows.shape[1]))
    rule = _lozenge_rule(_row_norms, _vector_step,
                         lambda k, count: block[(k - 1) % slots, :count])
    return _column_sweep(rows, window.base_index, (rule,), keep_full,
                         lozenge=True)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The norm of each row as sqrt(r @ r), the dot ``np.linalg.norm`` takes
    (``np.vecdot`` runs the same dot per row)."""
    return np.sqrt(np.vecdot(rows, rows))


def _vector_step(k, d, size, a, b, back):
    """back + d / ||d||^2 row by row, in place: ``d`` is the column's slot."""
    d /= (size * size)[:, None]
    d += back
    return d


def _topological_rows(window: SequenceWindow, weight, k: int):
    """The dual vector, a finite nonzero 1-D array made from ``weight``,
    the pilot index n (the window's base index) and the rows
    ``s_n .. s_{n+2k}`` an order-k topological transform reads."""
    y = _frozen_array(weight, "y", 1)
    if not y.any():
        raise ValueError("the dual vector must be nonzero")
    n = window.base_index
    if k < 0:
        raise ValueError("order k must be nonnegative")
    s_rows = window.rows(n, 2 * k + 1)
    if s_rows.shape[1] != len(y):
        raise ValueError("dual vector dimension does not match the sequence")
    return y, n, s_rows


def tea(window: SequenceWindow, weight, k: int) -> Estimate:
    """Topological transform through its k x k pairing system.

    Solves ``T c = dS^T y`` where ``T[j, i] = (y, d2s_{n+i+j})`` (zero-based
    offsets) and returns ``t_k = s_n - dS c``.  The coefficients make every
    shifted generalized residual orthogonal to the dual vector ``y``.  An
    order-k value consumes the 2k+1 terms ``s_n .. s_{n+2k}``.
    """
    y, n, s_rows = _topological_rows(window, weight, k)
    if k == 0:
        return Estimate(value=_frozen_array(s_rows[0], "value", 1), order_k=0,
                        pilot_index_n=n)
    d1, d2 = _difference_blocks(s_rows)
    pair2 = y @ d2                       # (y, d2s_{n+j}) for j = 0..2k-2
    offsets = np.arange(k)
    t_matrix = pair2[offsets[:, None] + offsets]
    rhs = d1[:, :k].T @ y
    if not (np.isfinite(pair2).all() and np.isfinite(rhs).all()):
        raise NonexistenceError(f"pairings overflow at order {k}")
    try:
        c = lu_solve(t_matrix, rhs)
    except RankDeficiencyError as exc:
        raise NonexistenceError(
            f"pairing matrix is singular at order {k}: {exc}") from exc
    a = -c
    value = s_rows[0] + d1[:, :k] @ a
    residual = d1[:, 0] + d2[:, :k] @ a
    gamma = _gamma_from_coefficients(a)
    diag = {"residual_norm": float(np.linalg.norm(residual)),
            "gamma_sum": float(gamma.sum())}
    for j, g in enumerate(gamma):
        diag[f"gamma_{j}"] = float(g)
    return Estimate(value=_frozen_array(value, "value", 1), order_k=k,
                    pilot_index_n=n, diagnostics=diag)


def stea(window: SequenceWindow, weight, k: int, variant: int) -> Estimate:
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
    y, n0, s_rows = _topological_rows(window, weight, k)
    if k == 0:
        return Estimate(value=_frozen_array(s_rows[0], "value", 1), order_k=0,
                        pilot_index_n=n0, diagnostics={"variant": float(variant)})
    # the pairings' dot products round by stride: BLAS dots a strided
    # operand in one loop, symmetric in the two operands, so a vecdot of
    # the rows against a stride-2 copy of y rounds as the dots of y with
    # the columns of an N x (2k+1) C-order copy (``tests/_oracles.py``
    # pins the two); the copy is dropped before the lift
    y_strided = np.empty(2 * len(y))[::2]
    y_strided[:] = y
    pairings = SequenceWindow(np.vecdot(s_rows, y_strided), base_index=n0)
    del y_strided
    scalar_table = epsilon_scalar(pairings, keep_full=True)

    # level l lifts e_{2l} and the vectors v_{2l} over n0 .. n0 + c + 1 to
    # level l + 1 over n0 .. n0 + c - 1; only the targets e_{2l+2} can be
    # missing, since every other read is column 0 or an earlier target
    e, current = pairings.rows(n0, 2 * k + 1)[:, 0], s_rows
    for level in range(k):
        c = 2 * (k - level) - 1
        target = scalar_table.get_entries(2 * level + 2, n0, c)
        lo, hi = slice(variant - 1, variant - 1 + c), slice(variant, variant + c)
        # no check needed: building e_{2 level + 1}, which ``target``
        # reads, ran the same breakdown check on this same spread
        ratio = (target - e[1:c + 1]) / (e[hi] - e[lo])
        # current[1:c+1] + ratio * (current[hi] - current[lo]), in place
        lifted = current[hi] - current[lo]
        lifted *= ratio[:, None]
        lifted += current[1:c + 1]
        current = lifted
        e = target
    return Estimate(value=_frozen_array(current[0], "value", 1), order_k=k,
                    pilot_index_n=n0, diagnostics={"variant": float(variant)})


@dataclass(frozen=True)
class AndersonState:
    """Bounded history carried between residual-mixing steps.

    Holds the trailing iterates and residuals (most recent last), the mixing
    depth ``depth`` (how many residual differences may enter one update)
    and the damping factor.  There is one more iterate than residuals and
    at most ``depth`` residuals, each of which the next update mixes.
    States are immutable; each step returns a fresh one.
    """

    depth: int
    damping: float
    iterates: tuple
    residuals: tuple = ()
    diagnostics: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        if not self.damping > 0.0:
            raise ValueError("damping must be positive")
        if not self.iterates or not np.size(self.iterates[0]):
            raise ValueError("state must hold at least one nonempty iterate")
        if len(self.iterates) != len(self.residuals) + 1 \
                or len(self.residuals) > self.depth:
            raise ValueError("state must hold one more iterate than residuals "
                             "and at most depth residuals")
        for name in ("iterates", "residuals"):
            object.__setattr__(self, name, tuple(
                _frozen_array(x, name, 1) for x in getattr(self, name)))

    def _advance(self, iterates: tuple, residuals: tuple,
                 diagnostics: dict) -> "AndersonState":
        """The successor holding ``iterates`` and ``residuals`` as given,
        unchecked: :func:`anderson_step` has frozen its new arrays."""
        successor = object.__new__(type(self))
        for name, value in (("depth", self.depth), ("damping", self.damping),
                            ("iterates", iterates), ("residuals", residuals),
                            ("diagnostics", diagnostics)):
            object.__setattr__(successor, name, value)
        return successor

    @classmethod
    def start(cls, x0, depth: int, damping: float = 1.0) -> "AndersonState":
        return cls(depth=depth, damping=damping,
                   iterates=(np.asarray(x0, dtype=np.float64),))

    @property
    def current(self) -> np.ndarray:
        return self.iterates[-1]


def anderson_step(state: AndersonState, g_value):
    """One residual-mixing update from the mapped current iterate.

    Given ``g_value = G(x_k)``, forms ``F_k = g_value - x_k``, fits the
    mixing weights by least squares over the stored residual differences,
    and returns ``(x_{k+1}, new_state)`` with

        x_{k+1} = (x_k - dX theta) + damping (F_k - dF theta).

    With an empty history (or depth zero) this is the damped fixed-point
    update.  A rank-deficient difference matrix sheds its oldest columns
    until the fit is well posed, so a history deeper than the dimension
    mixes at most N differences; the count appears in the diagnostics.
    """
    x_k = state.current
    g_arr = np.asarray(g_value, dtype=np.float64)
    if g_arr.shape != x_k.shape:
        raise ValueError("mapped value dimension does not match the iterate")
    f_k = g_arr - x_k
    residuals = state.residuals + (f_k,)
    m_k = len(state.residuals)
    xs, fs = state.iterates, residuals
    theta = np.zeros(0)
    while m_k > 0:
        d_f = np.column_stack([fs[j + 1] - fs[j] for j in range(m_k)])
        fit = least_squares(d_f, f_k)
        if not fit.rank_deficient:
            theta = fit.coefficients
            break
        m_k -= 1
        xs, fs = xs[1:], fs[1:]
    if m_k == 0:
        y_k, f_bar = x_k, f_k
    else:
        d_x = np.column_stack([xs[j + 1] - xs[j] for j in range(m_k)])
        y_k = x_k - d_x @ theta
        f_bar = f_k - d_f @ theta
    x_next = y_k + state.damping * f_bar

    diag = {"residual_norm": _norm(f_k),
            "mixed_depth": float(m_k),
            "columns_dropped": float(len(state.residuals) - m_k),
            "y_norm": _norm(y_k),
            "fbar_norm": _norm(f_bar)}
    for j, th in enumerate(theta):
        diag[f"theta_{j}"] = float(th)

    # only the new iterate and residual are copied and checked: the state's
    # own arrays are already read-only and finite, and pass through as
    # they are
    x_next = _frozen_array(x_next, "iterates", 1)
    f_k = _frozen_array(f_k, "residuals", 1)
    return x_next, state._advance(
        (state.iterates + (x_next,))[-(state.depth + 1):],
        (state.residuals + (f_k,))[max(0, len(residuals) - state.depth):],
        diag)
