"""Truncated-SVD regularization with extrapolation post-processing.

Discrete ill-posed systems are handled in spectral form: an
:class:`SvdModel` carries the singular triplets and the (noisy) right-hand
side, :func:`tsvd_solution` evaluates the classical truncated-SVD iterate,
and :func:`rre_tsvd` applies the reduced-rank extrapolation transform to
the sequence of those iterates.  For this particular sequence the
transform collapses to closed-form filter weights, so no least-squares
solve is needed; the generic path in :mod:`accelerant.vector` serves as
the cross-checking oracle.  :func:`select_truncation_index` picks the
truncation level at which the generalized residual stops decreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import _frozen_array
from .linalg import jacobi_svd
from .vector import _tail_sums

__all__ = [
    "STAGNATION_SLACK",
    "SvdModel",
    "TsvdSequence",
    "FilterFactors",
    "tsvd_solution",
    "rre_tsvd",
    "select_truncation_index",
    "error_optimal_index",
    "csv_report",
]

# Relative slack used to declare that a residual has "stopped decreasing".
STAGNATION_SLACK = 1e-3

_ORTHONORMALITY_TOL = 1e-9


@dataclass(frozen=True)
class SvdModel:
    """A linear system presented through its singular value decomposition.

    ``u`` and ``v`` hold the left and right singular vectors as columns,
    ``sigma`` the singular values in descending order, and ``rhs`` the
    observed right-hand side.  When the noise-free right-hand side is
    known (synthetic studies), it travels along as ``clean_rhs`` together
    with the relative noise level that produced ``rhs``.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rhs: np.ndarray
    clean_rhs: np.ndarray | None = None
    noise_level: float | None = None

    def __post_init__(self) -> None:
        u = _frozen_array(self.u, "u", 2)
        v = _frozen_array(self.v, "v", 2)
        sigma = _frozen_array(self.sigma, "sigma", 1)
        rhs = _frozen_array(self.rhs, "rhs", 1)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "rhs", rhs)
        if self.clean_rhs is not None:
            object.__setattr__(self, "clean_rhs", _frozen_array(
                self.clean_rhs, "clean_rhs", 1, rhs.size))

        rank = sigma.size
        if rank == 0:
            raise ValueError("at least one singular triplet is required")
        if u.shape[1] != rank or v.shape[1] != rank:
            raise ValueError("u and v must supply one column per singular value")
        if rhs.size != u.shape[0]:
            raise ValueError("rhs length must match the rows of u")
        if np.any(sigma <= 0.0):
            raise ValueError("singular values must be positive")
        if np.any(np.diff(sigma) > 0.0):
            raise ValueError("singular values must be in descending order")
        for label, mat in (("u", u), ("v", v)):
            gram = mat.T @ mat
            defect = float(np.max(np.abs(gram - np.eye(rank))))
            if defect > _ORTHONORMALITY_TOL:
                raise ValueError(
                    f"{label} columns are not orthonormal (defect {defect:.3e})"
                )

    @property
    def rank(self) -> int:
        """Number of singular triplets carried by the model."""
        return int(self.sigma.size)

    @classmethod
    def from_matrix(cls, a, b) -> "SvdModel":
        """Build a model from a dense matrix via the one-sided Jacobi SVD.

        Intended for desk-scale matrices; the underlying factorization
        accepts up to 1200 columns.
        """
        factors = jacobi_svd(a)
        return cls(u=factors.u, sigma=factors.sigma, v=factors.v, rhs=b)


def _expansion_coefficients(model: SvdModel) -> np.ndarray:
    """All coefficients u_j^T b / sigma_j, in model order."""
    return (model.u.T @ model.rhs) / model.sigma


@dataclass(frozen=True)
class TsvdSequence:
    """The truncated-SVD iterates of a model, in coefficient form.

    The k-th iterate is the sum of the first k terms of the expansion
    coefficient * right-singular-vector, starting from the zero vector.
    Terms whose coefficient is exactly zero contribute nothing and are
    deleted up front; ``renumbered`` records that such a deletion
    happened, in which case position j here no longer matches singular
    triplet j of the source model.
    """

    coefficients: np.ndarray
    vectors: np.ndarray
    source_indices: tuple[int, ...]
    renumbered: bool = field(default=False)

    def __post_init__(self) -> None:
        coeffs = _frozen_array(self.coefficients, "coefficients", 1)
        vectors = _frozen_array(self.vectors, "vectors", 2)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "vectors", vectors)
        if vectors.shape[1] != coeffs.size:
            raise ValueError("one vector column per coefficient is required")
        if len(self.source_indices) != coeffs.size:
            raise ValueError("one source index per coefficient is required")
        if np.any(coeffs == 0.0):
            raise ValueError("retained coefficients must be nonzero")

    @classmethod
    def from_model(cls, model: SvdModel) -> "TsvdSequence":
        coeffs = _expansion_coefficients(model)
        keep = coeffs != 0.0
        indices = tuple(int(j) + 1 for j in np.flatnonzero(keep))
        return cls(
            coefficients=coeffs[keep],
            vectors=model.v[:, keep],
            source_indices=indices,
            renumbered=bool(not np.all(keep)),
        )

    @property
    def length(self) -> int:
        """Number of retained terms."""
        return int(self.coefficients.size)

    def iterate(self, k: int) -> np.ndarray:
        """The k-th iterate; ``iterate(0)`` is the zero vector."""
        if not 0 <= k <= self.length:
            raise ValueError(f"k must lie in [0, {self.length}], got {k}")
        if k == 0:
            return np.zeros(self.vectors.shape[0])
        return self.vectors[:, :k] @ self.coefficients[:k]

    def iterates(self, k_max: int) -> list[np.ndarray]:
        """Iterates 0 through ``k_max`` as a list of vectors."""
        return [self.iterate(k) for k in range(k_max + 1)]


@dataclass(frozen=True)
class FilterFactors:
    """Normalized spectral weights of one extrapolated iterate.

    ``gamma`` holds the convex combination weights (positive, summing to
    one); ``alpha``, derived from them, holds their trailing partial sums,
    which act as the damping factor applied to each retained expansion
    term.  ``order`` is the truncation level the factors belong to.
    """

    gamma: np.ndarray
    alpha: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        gamma = _frozen_array(self.gamma, "gamma", 1)
        object.__setattr__(self, "gamma", gamma)
        if np.any(gamma <= 0.0):
            raise ValueError("gamma entries must be positive")
        if abs(float(np.sum(gamma)) - 1.0) > 1e-12:
            raise ValueError("gamma entries must sum to one")
        object.__setattr__(self, "alpha",
                           _frozen_array(_tail_sums(gamma), "alpha", 1))

    @property
    def order(self) -> int:
        return int(self.alpha.size)


def tsvd_solution(model: SvdModel, k: int) -> np.ndarray:
    """Truncated-SVD solution keeping the first ``k`` singular triplets.

    This is the minimal-norm least-squares solution of the system
    restricted to the leading k-dimensional singular subspace.
    """
    if not 1 <= k <= model.rank:
        raise ValueError(f"k must lie in [1, {model.rank}], got {k}")
    coeffs = _expansion_coefficients(model)
    return model.v[:, :k] @ coeffs[:k]


def _plain_errors(model: SvdModel, exact: np.ndarray, k_max: int) -> list[float]:
    """``||tsvd_solution(model, k) - exact||`` for k = 1 .. ``k_max``, from
    one computation of the expansion coefficients."""
    coeffs = _expansion_coefficients(model)
    return [float(np.linalg.norm(model.v[:, :k] @ coeffs[:k] - exact))
            for k in range(1, k_max + 1)]


def rre_tsvd(model: SvdModel,
             k_max: int) -> list[tuple[np.ndarray, FilterFactors, float]]:
    """Extrapolated truncated-SVD iterates for k = 1 .. ``k_max``.

    Applying reduced-rank extrapolation to the truncated-SVD sequence
    admits a closed form: with inverse-square coefficient weights
    normalized over terms 1..k+1, entry j of ``gamma`` is proportional to
    1/coefficient(j+1)^2, ``alpha`` collects the trailing sums, the
    extrapolated point damps each expansion term by its alpha, and the
    generalized residual norm is the square root of the reciprocal
    normalizer.  Returns one ``(point, factors, residual_norm)`` triple
    per truncation level.

    Zero coefficients are deleted before extrapolating (see
    :class:`TsvdSequence`); the retained sequence must reach at least
    ``k_max`` + 1 terms.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    sequence = TsvdSequence.from_model(model)
    if sequence.length < k_max + 1:
        raise ValueError(
            f"k_max={k_max} needs {k_max + 1} nonzero coefficients; "
            f"only {sequence.length} retained"
        )
    delta = sequence.coefficients
    inverse_squares = 1.0 / (delta * delta)

    results: list[tuple[np.ndarray, FilterFactors, float]] = []
    for k in range(1, k_max + 1):
        normalizer = float(np.sum(inverse_squares[: k + 1]))
        factors = FilterFactors(gamma=inverse_squares[: k + 1] / normalizer)
        point = sequence.vectors[:, :k] @ (factors.alpha * delta[:k])
        residual_norm = 1.0 / math.sqrt(normalizer)
        results.append((point, factors, residual_norm))
    return results


def select_truncation_index(residual_norms,
                            slack: float = STAGNATION_SLACK) -> int:
    """First truncation level at which the residual stops decreasing.

    ``residual_norms[i]`` is the generalized residual norm at truncation
    level i + 1.  Returns the smallest k whose successor norm fails to
    drop by more than the relative ``slack``; if every step keeps
    decreasing, returns the last level.
    """
    norms = np.asarray(residual_norms, dtype=float)
    if norms.ndim != 1 or norms.size < 3:
        raise ValueError("at least 3 residual norms are required")
    for k in range(1, norms.size):
        if norms[k] >= (1.0 - slack) * norms[k - 1]:
            return k
    return int(norms.size)


def error_optimal_index(model: SvdModel, exact_solution,
                        k_max: int | None = None) -> int:
    """Truncation level minimizing the error of the plain iterates.

    Scans ``tsvd_solution`` for k = 1 .. ``k_max`` (default: full rank)
    against the supplied exact solution, a finite vector with one entry
    per row of ``model.v``, and returns the minimizer.  Ties go to the
    smallest level.
    """
    exact = _frozen_array(exact_solution, "exact_solution", 1, model.v.shape[0])
    limit = model.rank if k_max is None else k_max
    if not 1 <= limit <= model.rank:
        raise ValueError(f"k_max must lie in [1, {model.rank}], got {limit}")
    return int(np.argmin(_plain_errors(model, exact, limit))) + 1


def csv_report(model: SvdModel, k_max: int, exact_solution=None) -> str:
    """CSV table of residual norms and (optionally) relative errors.

    One row per truncation level: the level, the generalized residual
    norm of the extrapolated iterate, and — when an exact solution is
    supplied, validated as in :func:`error_optimal_index` — the relative
    errors of the plain and extrapolated iterates.  Without an exact
    solution the error columns are left empty.
    """
    return _study(model, k_max, exact_solution)[0]


def _study(model: SvdModel, k_max: int, exact_solution=None):
    """:func:`csv_report`'s table, the residual norms it lists and, given
    an exact solution, the :func:`error_optimal_index` level (else None),
    from one :func:`rre_tsvd` and one ``_plain_errors`` call."""
    results = rre_tsvd(model, k_max)
    exact = None
    exact_norm = 0.0
    if exact_solution is not None:
        exact = _frozen_array(exact_solution, "exact_solution", 1,
                              model.v.shape[0])
        exact_norm = float(np.linalg.norm(exact))
        if exact_norm == 0.0:
            raise ValueError("exact solution must be nonzero")
        plain_errors = _plain_errors(model, exact, k_max)
    lines = ["k,generalized_residual,tsvd_rel_error,extrapolated_rel_error"]
    for k, (point, _, residual_norm) in enumerate(results, start=1):
        if exact is None:
            tsvd_err = ""
            rre_err = ""
        else:
            tsvd_err = format(plain_errors[k - 1] / exact_norm, ".17g")
            rre_err = format(
                float(np.linalg.norm(point - exact)) / exact_norm, ".17g")
        lines.append(
            f"{k},{format(residual_norm, '.17g')},{tsvd_err},{rre_err}")
    optimal = None if exact is None else int(np.argmin(plain_errors)) + 1
    return ("\n".join(lines) + "\n", [norm for _, _, norm in results],
            optimal)
