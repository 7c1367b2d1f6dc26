"""Benchmark problem generators: series, linear iterations, a nonlinear
reaction-diffusion system, a Fredholm integral equation, PageRank, and
synthetic ill-posed spectral models.

Every generator is pure given its arguments (and seed, where one
applies); the returned iteration maps are reentrant, so independent runs
may share them across threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .core import SequenceWindow, _frozen_array
from .driver import FixedPointProblem
from .illposed import SvdModel

__all__ = [
    "LinearIteration",
    "SparseGraph",
    "FredholmDiscretization",
    "series_generator",
    "linear_iteration_generator",
    "reaction_diffusion",
    "fredholm",
    "pagerank",
    "clustered_graph",
    "load_edge_list",
    "illposed_synthetic",
]

# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class LinearIteration:
    """An affine iteration s_{j+1} = B s_j + offset with known solution."""

    matrix: np.ndarray
    offset: np.ndarray
    solution: Optional[np.ndarray]

    def __post_init__(self) -> None:
        matrix = _frozen_array(self.matrix, "matrix", 2)
        n = matrix.shape[0]
        if matrix.shape != (n, n):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "offset",
                           _frozen_array(self.offset, "offset", 1, n))
        if self.solution is not None:
            object.__setattr__(self, "solution",
                               _frozen_array(self.solution, "solution", 1, n))

    @property
    def dimension(self) -> int:
        return int(self.matrix.shape[0])

    def step(self, state: np.ndarray) -> np.ndarray:
        """One application of the iteration map."""
        return self.matrix @ np.asarray(state, dtype=float) + self.offset

    def as_fixed_point(self) -> FixedPointProblem:
        """Package the iteration for the cycle driver, started at 0."""
        return FixedPointProblem(dimension=self.dimension, mapping=self.step,
                                 initial_guess=np.zeros(self.dimension),
                                 solution=self.solution)


@dataclass(frozen=True, eq=False)
class SparseGraph:
    """A directed graph over node ids 0 .. N-1, held in compressed rows.

    ``edge_targets`` lists every edge's target, node-major: node 0's
    targets, then node 1's, and so on.  ``out_degrees[j]`` counts node j's
    edges, so ``node_count`` is their number.  The constructor checks both
    and keeps read-only int64 copies.  ``original_ids`` maps each compact id
    back to the label it carried in the source data (identity for
    programmatically built graphs).

    Graphs compare by identity.  A pickled or copied graph is rebuilt
    through the constructor, so it comes back checked and read-only.
    """

    edge_targets: np.ndarray
    out_degrees: np.ndarray
    original_ids: tuple[int, ...]
    node_count: int = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.original_ids)  # checked below to be len(out_degrees)
        if n < 1:
            raise ValueError("graph needs at least one node")
        # range checks first: Python ints too wide for int64 make an object
        # array, which still compares exactly
        degrees = np.asarray(self.out_degrees)
        targets = np.asarray(self.edge_targets)
        if degrees.shape != (n,) or (degrees < 0).any():
            raise ValueError("one nonnegative out-degree per node is required")
        if targets.shape != (degrees.sum(),):
            raise ValueError("one edge target per counted out-edge is required")
        outside = (targets < 0) | (targets >= n)
        if outside.any():
            raise ValueError(f"edge target {targets[outside][0]} out of range")
        for name, array in (("edge_targets", targets),
                            ("out_degrees", degrees)):
            if array.size and array.dtype.kind not in "iu":
                raise ValueError(f"{name} must hold integers")
            array = array.astype(np.int64)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "node_count", n)

    def __reduce__(self):
        return (type(self), (self.edge_targets, self.out_degrees,
                             self.original_ids))

    @classmethod
    def from_edges(cls, node_count: int,
                   edges: Sequence[tuple[int, int]]) -> "SparseGraph":
        """Group ``(source, target)`` pairs by source with one stable sort,
        so each node keeps its edges in the order given."""
        pairs = np.reshape(edges, (len(edges), 2))
        outside = ((pairs < 0) | (pairs >= node_count)).any(axis=1)
        if outside.any():
            edge = tuple(pairs[outside][0].tolist())
            raise ValueError(f"edge {edge} out of range")
        sources = pairs[:, 0].astype(np.int64)
        return cls(edge_targets=pairs[np.argsort(sources, kind="stable"), 1],
                   out_degrees=np.bincount(sources, minlength=node_count),
                   original_ids=tuple(range(node_count)))


def _trapezoid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point composite trapezoid rule on [0, 1]."""
    nodes = np.linspace(0.0, 1.0, n)
    spacing = nodes[1] - nodes[0]
    weights = np.full(n, spacing)
    weights[0] = weights[-1] = spacing / 2.0
    return nodes, weights


@dataclass(frozen=True)
class FredholmDiscretization:
    """Trapezoid discretization of a second-kind integral equation.

    ``kernel_matrix`` holds plain kernel samples K(x_i, x_j) over the n
    ``nodes`` of the trapezoid rule on [0, 1], so its shape fixes them and
    their ``weights``.  The iteration applies the samples with the weights
    folded in, so the discrete operator is ``kernel_matrix * weights``
    acting on samples.
    """

    kernel_matrix: np.ndarray
    coupling: float
    source: np.ndarray
    nodes: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not np.isfinite(self.coupling):
            raise ValueError("coupling must be finite")
        kernel = _frozen_array(self.kernel_matrix, "kernel_matrix", 2)
        n = kernel.shape[0]
        if n < 2:
            raise ValueError("at least two nodes are required")
        if kernel.shape != (n, n):
            raise ValueError("kernel matrix must be square over the nodes")
        for name, array in zip(("nodes", "weights"), _trapezoid(n)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "kernel_matrix", kernel)
        object.__setattr__(self, "source",
                           _frozen_array(self.source, "source", 1, n))

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    def operator_matrix(self) -> np.ndarray:
        """Dense quadrature operator (kernel columns scaled by weights)."""
        return self.kernel_matrix * self.weights

    def as_fixed_point(self) -> FixedPointProblem:
        """Picard map u -> source + coupling * (operator u), started at source.

        The map holds the weighted operator, not the discretization, so a
        problem keeps one N x N matrix, not also the kernel.
        """
        weighted = self.operator_matrix()
        coupling, source = self.coupling, self.source

        def apply_map(u: np.ndarray) -> np.ndarray:
            return source + coupling * (weighted @ u)

        return FixedPointProblem(dimension=self.size, mapping=apply_map,
                                 initial_guess=source)


# ---------------------------------------------------------------------------
# scalar series


def series_generator(name: str, count: int, limit: float = 0.0,
                     modes: Sequence[tuple[float, float]] = ((1.0, 0.5),)
                     ) -> SequenceWindow:
    """Classic scalar test sequences as a window of partial terms.

    ``log2`` and ``leibniz_pi`` are alternating-series partial sums with
    limits ln 2 and pi; ``logarithmic`` converges like 1/n to ``limit``;
    ``geometric_mixture`` is limit + sum of c * ratio^n over the supplied
    ``(coefficient, ratio)`` modes, the model sequence the polynomial
    methods terminate on.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if name == "log2":
        terms = np.array([(-1.0) ** m / (m + 1) for m in range(count)])
        values = np.cumsum(terms)
    elif name == "leibniz_pi":
        terms = np.array([4.0 * (-1.0) ** m / (2 * m + 1)
                          for m in range(count)])
        values = np.cumsum(terms)
    elif name == "logarithmic":
        values = limit + 1.0 / (np.arange(count) + 1.0)
    elif name == "geometric_mixture":
        if not modes:
            raise ValueError("geometric_mixture needs at least one mode")
        n = np.arange(count)
        values = np.full(count, float(limit))
        for coefficient, ratio in modes:
            values = values + coefficient * np.power(float(ratio), n)
    else:
        raise ValueError(f"unknown series name: {name!r}")
    return SequenceWindow(values)


# ---------------------------------------------------------------------------
# linear iterations


def _power_iteration_estimate(matrix: np.ndarray, start: np.ndarray) -> float:
    """Dominant-eigenvalue magnitude estimate after 100 steps."""
    vec = start / np.linalg.norm(start)
    growth = 0.0
    for _ in range(100):
        nxt = matrix @ vec
        growth = float(np.linalg.norm(nxt))
        if growth == 0.0:
            return 0.0
        vec = nxt / growth
    return growth


def linear_iteration_generator(n: int, spectral_radius: float,
                               seed: int) -> LinearIteration:
    """Random affine iteration scaled to a prescribed spectral radius.

    The scaling normalizes a Gaussian matrix by a 100-step power-iteration
    estimate of its dominant eigenvalue magnitude, then the offset is
    chosen so a random point is the exact fixed point.  Deterministic
    under ``seed``.

    The power iteration does not settle when the dominant eigenvalues form
    a complex pair or nearly tie in magnitude, so the true radius can miss
    ``spectral_radius`` either way: at n = 100 and a requested
    0.9, ``np.linalg.eigvals`` gives 0.8969 at seed 42, 0.9981 at seed 8
    and 0.9909 at seed 13.
    """
    if not 0.0 < spectral_radius < 1.0:
        raise ValueError("spectral_radius must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n))
    estimate = _power_iteration_estimate(raw, rng.standard_normal(n))
    if estimate == 0.0:
        raise ValueError("degenerate random matrix (zero spectral estimate)")
    raw *= spectral_radius / estimate
    solution = rng.standard_normal(n)
    offset = solution - raw @ solution
    return LinearIteration(matrix=raw, offset=offset, solution=solution)


# ---------------------------------------------------------------------------
# reaction-diffusion fixed point


def laplacian_apply(grid_values: np.ndarray, p_grid: int,
                    spacing: float) -> np.ndarray:
    """Five-point Laplacian on the interior of a uniform square grid.

    Input and output are flattened p x p interior samples; the boundary
    is held at zero.  Each neighbour is a contiguous shift of the flat
    vector: by p for the rows above and below, by 1 for the columns left
    and right.  The boundary terms are zeros, and x - 0.0 is x, so the
    rows a shift by p would read off the grid are left out, and the grid
    column a shift by 1 must not touch is saved and put back.
    """
    x = np.asarray(grid_values, dtype=float).ravel()
    if x.size != p_grid * p_grid:
        raise ValueError(f"expected {p_grid * p_grid} grid values, "
                         f"got {x.size}")
    p = p_grid
    lap = 4.0 * x
    lap[p:] -= x[:-p]
    lap[:-p] -= x[p:]
    first = lap[::p].copy()
    lap[1:] -= x[:-1]
    lap[::p] = first
    last = lap[p - 1::p].copy()
    lap[:-1] -= x[1:]
    lap[p - 1::p] = last
    lap /= spacing * spacing
    return lap


def reaction_diffusion(p_grid: int) -> FixedPointProblem:
    """Damped-residual iteration for -lap(u) + u^3 = f on the unit square.

    The source is manufactured so u(x, y) = sin(pi x) sin(pi y), sampled
    on the interior grid, solves the discrete system exactly.  The map is
    G(u) = u + omega * (b - A u - u^3) with omega = h^2 / 5, a touch
    under the h^2/4 stability bound for the five-point stencil, which
    makes G a (slow) contraction near the solution — the regime the cycle
    driver is meant to accelerate.  The Laplacian is applied matrix-free.
    """
    if p_grid < 3:
        raise ValueError("p_grid must be at least 3")
    spacing = 1.0 / (p_grid + 1)
    coords = spacing * np.arange(1, p_grid + 1)
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    exact = (np.sin(np.pi * xx) * np.sin(np.pi * yy)).ravel()
    rhs = laplacian_apply(exact, p_grid, spacing) + exact ** 3
    omega = spacing * spacing / 5.0

    def apply_map(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        # u + omega * (rhs - A u - u ** 3), finished in the fresh A u
        image = laplacian_apply(u, p_grid, spacing)
        np.subtract(rhs, image, out=image)
        image -= u ** 3
        image *= omega
        image += u
        return image

    return FixedPointProblem(dimension=p_grid * p_grid, mapping=apply_map,
                             initial_guess=np.zeros(p_grid * p_grid),
                             solution=exact)


# ---------------------------------------------------------------------------
# Fredholm integral equation


def _kernel(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(-|x - t|), evaluated in the one array the difference makes (a
    temporary of the caller's expression, freed once the discretization
    holds its copy)."""
    kernel = np.subtract(x, t)
    np.abs(kernel, out=kernel)
    np.negative(kernel, out=kernel)
    return np.exp(kernel, out=kernel)


def fredholm_discretization(n: int, coupling: float) -> FredholmDiscretization:
    """Trapezoid collocation of u = sin(pi x) + coupling * integral(K u)
    with the kernel K(x, t) = exp(-|x - t|).

    Building holds at most two N x N matrices: the kernel samples go
    straight into the discretization, and the coupling check takes the
    infinity norm in place on one operator matrix, by the reduction
    ``np.linalg.norm(a, np.inf)`` runs.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    nodes, _ = _trapezoid(n)
    disc = FredholmDiscretization(
        kernel_matrix=_kernel(nodes[:, None], nodes[None, :]),
        coupling=coupling, source=np.sin(np.pi * nodes))
    magnitudes = disc.operator_matrix()
    np.abs(magnitudes, out=magnitudes)
    operator_norm = float(np.add.reduce(magnitudes, axis=1).max(initial=0))
    if abs(coupling) * operator_norm >= 1.0:
        warnings.warn(
            "coupling * operator norm = "
            f"{abs(coupling) * operator_norm:.3f} >= 1: the Picard "
            "iteration may not contract", stacklevel=2)
    return disc


def fredholm(n: int, coupling: float) -> FixedPointProblem:
    """Picard iteration for a second-kind integral equation on [0, 1].

    The exponential-kernel benchmark: kernel exp(-|x - t|), source
    sin(pi x), started at the source samples (so plain iteration generates
    the partial sums of the series expansion in powers of the coupling).
    """
    return fredholm_discretization(n, coupling).as_fixed_point()


# ---------------------------------------------------------------------------
# PageRank


def pagerank(graph: SparseGraph, alpha: float = 0.85,
             personalization=None) -> FixedPointProblem:
    """Damped random-surfer iteration x -> alpha P x + (1 - alpha) v.

    P is the column-stochastic transition matrix of the graph; columns of
    dangling nodes (no out-edges) are replaced by the personalization
    vector v, and every iterate is renormalized to sum exactly one.  The
    dense matrix is never formed: each call takes one product
    x_j / deg(j) per node, repeats it along that node's out-edges and
    scatters the edges onto their targets with one ``np.bincount``.  A
    graph without dangling nodes skips the dangling term, which would add
    +0.0 to sums that are never -0.0.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    n = graph.node_count
    if personalization is None:
        v = np.full(n, 1.0 / n)
    else:
        v = np.array(personalization, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("personalization must be finite")
        if v.shape != (n,) or np.any(v < 0.0):
            raise ValueError("personalization must be a nonnegative N-vector")
        total = v.sum()
        if total <= 0.0:
            raise ValueError("personalization must have positive mass")
        v = v / total
    v.setflags(write=False)

    # private writable copies: np.bincount and np.repeat copy a read-only
    # index array on every call
    degrees = graph.out_degrees.copy()
    targets = graph.edge_targets.copy()
    inverse_degree = np.zeros(n)
    linked = degrees > 0
    inverse_degree[linked] = 1.0 / degrees[linked]
    dangling = ~linked
    any_dangling = bool(dangling.any())
    teleport = (1.0 - alpha) * v

    def apply_map(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        # every edge of node j weighs the one product x_j / deg(j), so the
        # sums round exactly as with a product formed per edge
        spread = np.bincount(targets,
                             weights=np.repeat(x * inverse_degree, degrees),
                             minlength=n)
        if any_dangling:
            # out of place: with no edges at all, bincount returns int zeros
            spread = spread + float(x[dangling].sum()) * v
        nxt = alpha * spread + teleport
        return nxt / nxt.sum()

    return FixedPointProblem(dimension=n, mapping=apply_map, initial_guess=v)


def clustered_graph(n: int, avg_deg: int, seed: int) -> SparseGraph:
    """Random two-community digraph with sparse links between communities.

    Nodes split 60/40 into two clusters.  Every node draws ``avg_deg``
    uniform targets inside its own cluster, except that each fourth node
    trades one of them for a single cross-cluster edge.  The weak coupling
    leaves a slowly mixing mode, so the induced random-surfer iteration
    takes many steps to equilibrate between the communities -- a useful
    stress case for acceleration.  Out-degrees are exactly ``avg_deg``;
    repeated targets (parallel edges) are allowed and weighted accordingly.

    All targets come from one ``rng.integers`` call with per-edge bounds,
    drawn node-major (node 0's targets, then node 1's, ...).  That is the
    stream one bounded draw per node produced, so a seed gives the same
    graph as that per-node loop did (``tests/_oracles.py`` keeps it).
    """
    if n < 4:
        raise ValueError("clustered graphs need at least 4 nodes")
    if avg_deg < 2:
        raise ValueError("avg_deg must be at least 2")
    rng = np.random.default_rng(seed)
    split = (6 * n) // 10
    # whether each edge targets the second cluster: a node's own cluster,
    # except that every fourth node's last edge crosses to the other one
    to_second = np.repeat((np.arange(n) >= split)[:, None], avg_deg, axis=1)
    to_second[::4, -1] ^= True
    draws = rng.integers(np.where(to_second, split, 0),
                         np.where(to_second, n, split))
    return SparseGraph(edge_targets=draws.reshape(-1),
                       out_degrees=np.full(n, avg_deg),
                       original_ids=tuple(range(n)))


def load_edge_list(path) -> SparseGraph:
    """Read a whitespace-separated "src dst" edge file into a graph.

    Lines starting with '#' are comments (SNAP convention).  Node labels
    are arbitrary integers and get compacted onto 0 .. N-1 in sorted
    order; the original labels are retained on the graph.
    """
    edges: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}: line {line_number}: expected 'src dst', "
                    f"got {stripped!r}")
            try:
                src, dst = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(
                    f"{path}: line {line_number}: non-integer node id in "
                    f"{stripped!r}") from exc
            edges.append((src, dst))
    if not edges:
        raise ValueError(f"{path}: no edges found (empty graph)")
    try:
        pairs = np.array(edges, dtype=np.int64)
    except OverflowError:  # numpy would round labels past int64 to floats
        pairs = np.array(edges, dtype=object)
    labels, compact = np.unique(pairs, return_inverse=True)
    graph = SparseGraph.from_edges(labels.size, compact.reshape(-1, 2))
    return replace(graph, original_ids=tuple(labels.tolist()))


# ---------------------------------------------------------------------------
# synthetic ill-posed models


def illposed_synthetic(n: int, decay: float, noise_level: float,
                       seed: int) -> SvdModel:
    """Spectral model with prescribed singular decay and white noise.

    Singular values fall like exp(-decay * j); the exact solution has
    smooth coefficients 1/j against the right singular vectors; the
    observed right-hand side adds a random direction scaled to the given
    relative noise level.  Orthonormal bases come from QR factorizations
    of seeded Gaussian matrices, so the model is deterministic per seed.
    """
    if decay <= 0.0:
        raise ValueError("decay must be positive")
    if noise_level < 0.0:
        raise ValueError("noise_level must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    j = np.arange(1, n + 1)
    sigma = np.exp(-decay * j)
    solution_coeffs = 1.0 / j
    clean = u @ (sigma * solution_coeffs)
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    rhs = clean + noise_level * np.linalg.norm(clean) * direction
    return SvdModel(u=u, sigma=sigma, v=v, rhs=rhs, clean_rhs=clean)
