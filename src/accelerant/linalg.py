"""Desk-scale dense linear algebra backing the vector extrapolation methods.

Hand-rolled on numpy array primitives: modified Gram-Schmidt QR with one
reorthogonalization pass (which builds the seeded mmpe test vectors),
partially pivoted LU with growth monitoring, a one-sided Jacobi SVD, and an
Arnoldi-based GMRES reference used only as a test oracle.  Every
least-squares fit is one call to numpy's LAPACK ``lstsq``.

Matrices are plain 2-D float64 numpy arrays (stored column-major
internally); vectors are 1-D arrays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import _BREAKDOWN_THRESHOLD, BreakdownError, _norm, breakdown_check

__all__ = [
    "GmresTrace",
    "LeastSquaresFit",
    "QrFactors",
    "RankDeficiencyError",
    "SvdConvergenceError",
    "SvdFactors",
    "gmres_oracle",
    "jacobi_svd",
    "least_squares",
    "lu_solve",
    "qr_mgs",
]

#: Element-growth ratio in LU beyond which a stability warning is emitted.
_GROWTH_WARN = 1e8

#: Jacobi sweeps stop once every column pair's relative inner product is at
#: most this, and give up after this many sweeps.
_ROTATION_TOL = 1e-14
_MAX_SWEEPS = 60


class RankDeficiencyError(BreakdownError):
    """A factorization met a column with no usable remaining component."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


class SvdConvergenceError(ArithmeticError):
    """Jacobi sweeps hit the cap before reaching the rotation tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class QrFactors:
    """Thin QR factorization A = Q R with orthonormal columns in Q."""
    q: np.ndarray
    r: np.ndarray


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD A = U diag(sigma) V^T with sigma descending."""
    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class LeastSquaresFit:
    """Solution of min ||b - A theta||_2.

    ``rank_deficient`` flags that the cutoff dropped a singular value.
    """
    coefficients: np.ndarray
    rank_deficient: bool = False


@dataclass(frozen=True)
class GmresTrace:
    """Residual-norm history ||r_j|| for j = 0..k; ``exact`` marks a happy
    breakdown (the Krylov space contained the solution before step k)."""
    residual_norms: np.ndarray
    exact: bool = False


def _as_matrix(a) -> np.ndarray:
    """``a`` as a column-major float64 matrix, copied only when it is not one.

    The result may be the caller's own array: code that writes into it
    copies it first.
    """
    m = np.asarray(a, dtype=np.float64, order="F")
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError("expected a 2-D matrix with at least one row and column")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _as_vector(b, length: int | None = None) -> np.ndarray:
    v = np.array(b, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise ValueError(f"vector length {v.shape[0]}, expected {length}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def qr_mgs(a) -> QrFactors:
    """Thin QR by modified Gram-Schmidt with one reorthogonalization pass.

    Requires rows >= cols.  Raises :class:`RankDeficiencyError` when a
    diagonal of R fails the breakdown check against the original column
    norm (the column lies numerically in the span of its predecessors).
    """
    a = _as_matrix(a)
    m, n = a.shape
    if m < n:
        raise ValueError("qr_mgs requires rows >= cols")
    q = np.zeros((m, n))
    r = np.zeros((n, n))
    col_norms = np.linalg.norm(a, axis=0)
    q_cols = [q[:, j] for j in range(n)]  # views, taken once
    for j in range(n):
        v = a[:, j].copy()
        for i in range(j):
            r[i, j] = rij = q_cols[i] @ v
            v -= rij * q_cols[i]
        for i in range(j):  # second pass restores orthogonality
            c = q_cols[i] @ v
            r[i, j] += c
            v -= c * q_cols[i]
        norm = _norm(v)
        if not breakdown_check(norm, col_norms[j]):
            raise RankDeficiencyError(
                f"column {j} is numerically dependent on earlier columns",
                column=j)
        r[j, j] = norm
        q_cols[j][:] = v / norm
    return QrFactors(q=q, r=r)


def _solve_upper(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Back substitution; reads only the upper triangle of ``r``."""
    n = r.shape[0]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (c[i] - r[i, i + 1:] @ x[i + 1:]) / r[i, i]
    return x


def _solve_lower_unit(l: np.ndarray, c: np.ndarray) -> np.ndarray:
    n = l.shape[0]
    x = np.zeros_like(c)
    for i in range(n):
        x[i] = c[i] - l[i, :i] @ x[:i]
    return x


def lu_solve(a, b) -> np.ndarray:
    """Solve A x = b by LU with partial pivoting; element growth is monitored.

    ``b`` is one right-hand side of finite entries.  A singular pivot
    raises :class:`RankDeficiencyError`.
    """
    a = _as_matrix(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("lu_solve requires a square matrix")
    b = _as_vector(b, n)

    lu = a.copy()
    perm = list(range(n))
    scale = np.abs(a).max()
    for j in range(n):
        p = j + int(np.abs(lu[j:, j]).argmax())
        if not breakdown_check(abs(lu[p, j]), scale):
            raise RankDeficiencyError(f"singular pivot at column {j}", column=j)
        if p != j:
            row = lu[j].copy()
            lu[j], lu[p] = lu[p], row
            perm[j], perm[p] = perm[p], perm[j]
        lu[j + 1:, j] /= lu[j, j]
        lu[j + 1:, j + 1:] -= lu[j + 1:, j, None] * lu[j, j + 1:]
    growth = (np.abs(lu).max(where=_upper_mask(n), initial=0.0) / scale
              if scale > 0 else 1.0)
    if growth > _GROWTH_WARN:
        warnings.warn(
            f"large element growth ({growth:.2e}) in pivoted LU; "
            "the computed solution may be inaccurate", RuntimeWarning)
    return _solve_upper(lu, _solve_lower_unit(lu, b[perm]))


@lru_cache(maxsize=64)
def _upper_mask(n: int) -> np.ndarray:
    """The read-only upper-triangle mask of an n x n matrix: the entries
    ``np.triu`` keeps, without its per-call ``np.tri``."""
    mask = np.triu(np.ones((n, n), dtype=bool))
    mask.setflags(write=False)
    return mask


def _determinant(a) -> float:
    """Determinant by partially pivoted elimination (0.0 on a zero pivot)."""
    m = _as_matrix(a).copy()
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError("determinant requires a square matrix")
    sign = 1.0
    for j in range(n):
        p = j + int(np.argmax(np.abs(m[j:, j])))
        if m[p, j] == 0.0:
            return 0.0
        if p != j:
            m[[j, p], :] = m[[p, j], :]
            sign = -sign
        m[j + 1:, j + 1:] -= np.outer(m[j + 1:, j] / m[j, j], m[j, j + 1:])
    return sign * float(np.prod(np.diag(m)))


def least_squares(a, b) -> LeastSquaresFit:
    """Minimize ||b - A theta||_2 by one LAPACK ``np.linalg.lstsq`` call.

    Singular values at most 1e-12 times the largest (the breakdown check's
    threshold) are cut, leaving the minimum-norm solution; the fit is then
    flagged ``rank_deficient``, as it always is for a wide matrix.
    """
    a = _as_matrix(a)
    m, n = a.shape
    b = _as_vector(b, m)
    theta, _, rank, _ = np.linalg.lstsq(a, b, rcond=_BREAKDOWN_THRESHOLD)
    return LeastSquaresFit(coefficients=theta, rank_deficient=bool(rank < n))


def jacobi_svd(a) -> SvdFactors:
    """Thin SVD by one-sided Jacobi rotations on column pairs.

    Sweeps continue until every pairwise column inner product is at most
    1e-14 relative to the column norms, or 60 sweeps have run (then
    :class:`SvdConvergenceError` reports the achieved tolerance).
    Requires rows >= cols and cols <= 1200.
    """
    a = _as_matrix(a)
    m, n = a.shape
    if m < n:
        raise ValueError("jacobi_svd requires rows >= cols (transpose first)")
    if n > 1200:
        raise ValueError("jacobi_svd is desk-scale only (cols <= 1200)")
    w = a.copy()
    v = np.eye(n)
    worst = 0.0
    for _ in range(_MAX_SWEEPS):
        worst = 0.0
        for p in range(n - 1):
            for q_ in range(p + 1, n):
                app = w[:, p] @ w[:, p]
                aqq = w[:, q_] @ w[:, q_]
                apq = w[:, p] @ w[:, q_]
                denom = np.sqrt(app * aqq)
                if denom == 0.0:
                    continue
                rel = abs(apq) / denom
                worst = max(worst, rel)
                if rel <= _ROTATION_TOL:
                    continue
                zeta = (aqq - app) / (2.0 * apq)
                t = np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                if zeta == 0.0:
                    t = 1.0
                cs = 1.0 / np.hypot(1.0, t)
                sn = cs * t
                wp = w[:, p].copy()
                w[:, p] = cs * wp - sn * w[:, q_]
                w[:, q_] = sn * wp + cs * w[:, q_]
                vp = v[:, p].copy()
                v[:, p] = cs * vp - sn * v[:, q_]
                v[:, q_] = sn * vp + cs * v[:, q_]
        if worst <= _ROTATION_TOL:
            break
    else:
        raise SvdConvergenceError(
            f"one-sided Jacobi did not converge in {_MAX_SWEEPS} sweeps "
            f"(achieved relative rotation {worst:.3e})", achieved=worst)

    sigma = np.linalg.norm(w, axis=0)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    w = w[:, order]
    v = v[:, order]
    u = np.zeros((m, n))
    for j in range(n):
        if sigma[j] > 0.0:
            u[:, j] = w[:, j] / sigma[j]
    _complete_orthonormal(u, sigma)
    return SvdFactors(u=u, sigma=sigma, v=v)


def _complete_orthonormal(u: np.ndarray, sigma: np.ndarray) -> None:
    """Fill columns of u belonging to zero singular values orthonormally."""
    m = u.shape[0]
    for j in np.nonzero(sigma == 0.0)[0]:
        for cand in range(m):
            vec = np.zeros(m)
            vec[cand] = 1.0
            vec -= u @ (u.T @ vec)
            norm = np.linalg.norm(vec)
            if norm > 0.5:  # canonical vector mostly outside current span
                u[:, j] = vec / norm
                break


def gmres_oracle(a, b, k: int) -> GmresTrace:
    """Residual norms of GMRES over K_j(A, b), j = 0..k, from x_0 = 0.

    ``a`` may be a dense matrix or a callable applying the operator.
    A happy breakdown (invariant Krylov space) ends the trace early with
    ``exact=True``.  Test oracle only — not a user-facing solver.
    """
    apply_a = a if callable(a) else (lambda x, _m=_as_matrix(a): _m @ x)
    b = _as_vector(b)
    dim = b.shape[0]
    if not 0 <= k <= dim:
        raise ValueError("gmres_oracle requires 0 <= k <= dimension")
    beta = float(np.linalg.norm(b))
    norms = [beta]
    if beta == 0.0 or k == 0:
        return GmresTrace(np.array(norms), exact=(beta == 0.0))
    basis = [b / beta]
    h = np.zeros((k + 1, k))
    exact = False
    for j in range(k):
        wv = _as_vector(apply_a(basis[j]), dim)
        for i in range(j + 1):
            h[i, j] = basis[i] @ wv
            wv -= h[i, j] * basis[i]
        for i in range(j + 1):  # reorthogonalize for oracle-grade accuracy
            c = basis[i] @ wv
            h[i, j] += c
            wv -= c * basis[i]
        h[j + 1, j] = np.linalg.norm(wv)
        rhs = np.zeros(j + 2)
        rhs[0] = beta
        y = np.linalg.lstsq(h[:j + 2, :j + 1], rhs, rcond=None)[0]
        norms.append(float(np.linalg.norm(rhs - h[:j + 2, :j + 1] @ y)))
        if h[j + 1, j] <= 1e-14 * max(beta, 1.0):
            exact = True
            break
        basis.append(wv / h[j + 1, j])
    return GmresTrace(np.array(norms), exact=exact)
