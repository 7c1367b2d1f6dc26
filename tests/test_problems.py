"""Tests for the benchmark problem generators."""

import copy
import hashlib
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accelerant.problems import (
    FredholmDiscretization,
    LinearIteration,
    SparseGraph,
    _power_iteration_estimate,
    clustered_graph,
    fredholm,
    fredholm_discretization,
    illposed_synthetic,
    laplacian_apply,
    linear_iteration_generator,
    load_edge_list,
    pagerank,
    reaction_diffusion,
    series_generator,
)
from accelerant.illposed import error_optimal_index, tsvd_solution

from _oracles import clustered_graph_per_node


class TestSeriesGenerator:
    def test_alternating_harmonic_partial_sums(self):
        window = series_generator("log2", 3)
        assert np.allclose(window.terms, [1.0, 0.5, 5.0 / 6.0])

    def test_log2_limit(self):
        window = series_generator("log2", 2001)
        assert window.terms[-1] == pytest.approx(math.log(2.0), abs=1e-3)

    def test_leibniz_starts_at_four(self):
        window = series_generator("leibniz_pi", 2)
        assert np.allclose(window.terms, [4.0, 4.0 - 4.0 / 3.0])

    def test_logarithmic_sequence(self):
        window = series_generator("logarithmic", 2)
        assert np.allclose(window.terms, [1.0, 0.5])
        shifted = series_generator("logarithmic", 3, limit=3.0)
        assert np.allclose(shifted.terms, [4.0, 3.5, 3.0 + 1.0 / 3.0])

    def test_geometric_mixture_single_mode(self):
        window = series_generator("geometric_mixture", 3, limit=2.0,
                                  modes=((3.0, 0.5),))
        assert np.allclose(window.terms, [5.0, 3.5, 2.75])

    def test_geometric_mixture_two_modes(self):
        modes = ((1.0, 0.5), (2.0, -0.25))
        window = series_generator("geometric_mixture", 4, modes=modes)
        expected = [sum(c * r ** n for c, r in modes) for n in range(4)]
        assert np.allclose(window.terms, expected)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown series"):
            series_generator("zeta", 3)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            series_generator("log2", 0)


class TestLinearIterationGenerator:
    def test_scalar_case_has_known_fixed_point(self):
        iteration = linear_iteration_generator(1, 0.5, seed=0)
        assert abs(iteration.matrix[0, 0]) == pytest.approx(0.5)
        assert np.allclose(iteration.step(iteration.solution),
                           iteration.solution)

    def test_fixed_point_by_construction(self):
        iteration = linear_iteration_generator(12, 0.7, seed=4)
        assert np.allclose(iteration.step(iteration.solution),
                           iteration.solution, atol=1e-12)

    def test_observed_contraction_rate(self):
        radius = 0.6
        iteration = linear_iteration_generator(40, radius, seed=7)
        state = np.zeros(40)
        errors = []
        for _ in range(61):
            errors.append(np.linalg.norm(state - iteration.solution))
            state = iteration.step(state)
        observed = (errors[60] / errors[50]) ** 0.1
        assert radius - 0.1 <= observed <= radius + 0.1

    def test_same_seed_is_deterministic(self):
        first = linear_iteration_generator(8, 0.4, seed=99)
        second = linear_iteration_generator(8, 0.4, seed=99)
        assert np.array_equal(first.matrix, second.matrix)
        assert np.array_equal(first.offset, second.offset)

    def test_radius_must_be_contractive(self):
        with pytest.raises(ValueError):
            linear_iteration_generator(5, 1.5, seed=0)

    def test_as_fixed_point_wires_the_driver_problem(self):
        iteration = linear_iteration_generator(6, 0.5, seed=2)
        problem = iteration.as_fixed_point()
        assert problem.dimension == 6
        solution = iteration.solution
        assert np.allclose(problem.mapping(solution) - solution,
                           np.zeros(6), atol=1e-12)

    def test_nonfinite_matrix_is_rejected(self):
        with pytest.raises(ValueError, match="matrix must be finite"):
            LinearIteration(matrix=[[math.nan]], offset=[0.0], solution=None)

    @pytest.mark.parametrize("n, radius, seed", [(1, 0.5, 0), (7, 0.4, 99),
                                                 (100, 0.9, 42)])
    def test_matrix_is_the_scaled_draw_bit_for_bit(self, n, radius, seed):
        """The matrix is (radius / estimate) * raw of the seeded draws, and
        the offset makes the drawn solution its fixed point."""
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, n))
        estimate = _power_iteration_estimate(raw, rng.standard_normal(n))
        matrix = (radius / estimate) * raw
        solution = rng.standard_normal(n)
        iteration = linear_iteration_generator(n, radius, seed)
        assert iteration.matrix.tobytes() == matrix.tobytes()
        assert iteration.solution.tobytes() == solution.tobytes()
        assert (iteration.offset.tobytes()
                == (solution - matrix @ solution).tobytes())


def assembled_laplacian(p_grid: int, spacing: float) -> np.ndarray:
    n = p_grid * p_grid
    a = np.zeros((n, n))
    for row in range(p_grid):
        for col in range(p_grid):
            index = row * p_grid + col
            a[index, index] = 4.0
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                r, c = row + dr, col + dc
                if 0 <= r < p_grid and 0 <= c < p_grid:
                    a[index, r * p_grid + c] = -1.0
    return a / (spacing * spacing)


class TestReactionDiffusion:
    def test_manufactured_solution_is_a_fixed_point(self):
        problem = reaction_diffusion(10)
        residual = problem.mapping(problem.solution) - problem.solution
        assert np.linalg.norm(residual) <= 1e-12

    def test_contractive_near_solution(self):
        problem = reaction_diffusion(20)
        rng = np.random.default_rng(0)
        for _ in range(5):
            d = rng.standard_normal(problem.dimension)
            d *= 1e-3 / np.linalg.norm(d)
            moved = problem.mapping(problem.solution + d)
            assert np.linalg.norm(moved - problem.solution) < np.linalg.norm(d)

    def test_grid_of_eighty_gives_6400_unknowns(self):
        assert reaction_diffusion(80).dimension == 6400

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            reaction_diffusion(2)

    def test_applicator_matches_assembled_matrix(self):
        p_grid = 6
        spacing = 1.0 / (p_grid + 1)
        matrix = assembled_laplacian(p_grid, spacing)
        rng = np.random.default_rng(1)
        for _ in range(3):
            u = rng.standard_normal(p_grid * p_grid)
            direct = laplacian_apply(u, p_grid, spacing)
            assert np.allclose(direct, matrix @ u, rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("p_grid", [3, 4, 7, 20, 80])
    def test_applicator_matches_the_padded_formula_bit_for_bit(self, p_grid):
        spacing = 1.0 / (p_grid + 1)
        rng = np.random.default_rng(p_grid)
        size = p_grid * p_grid
        inputs = [scale * rng.standard_normal(size)
                  for scale in (1e-300, 1.0, 1e100, 1e200)]
        inputs.append(-np.abs(rng.standard_normal(size)))
        # signed zeros: everywhere, and scattered among other values
        inputs.append(rng.choice([0.0, -0.0], size=size))
        mixed = rng.standard_normal(size)
        mixed[rng.random(size) < 0.3] = 0.0
        mixed[rng.random(size) < 0.3] = -0.0
        inputs.append(mixed)
        for u in inputs:
            g = u.reshape(p_grid, p_grid)
            padded = np.pad(g, 1)
            oracle = (4.0 * g
                      - padded[:-2, 1:-1] - padded[2:, 1:-1]
                      - padded[1:-1, :-2] - padded[1:-1, 2:]) \
                / (spacing * spacing)
            got = laplacian_apply(u, p_grid, spacing)
            assert [x.hex() for x in got.tolist()] \
                == [x.hex() for x in oracle.ravel().tolist()]

    @pytest.mark.parametrize("length", [0, 15, 17, 32])
    def test_applicator_rejects_a_wrong_length(self, length):
        with pytest.raises(ValueError):
            laplacian_apply(np.ones(length), 4, 0.2)

    def test_interleaved_maps_match_maps_run_one_at_a_time(self):
        first, second = reaction_diffusion(5), reaction_diffusion(7)
        rng = np.random.default_rng(3)
        points = [(rng.standard_normal(25), rng.standard_normal(49))
                  for _ in range(4)]
        alone = [first.mapping(u) for u, _ in points] \
            + [second.mapping(v) for _, v in points]
        interleaved = [None] * (2 * len(points))
        for i, (u, v) in enumerate(points):
            interleaved[i] = first.mapping(u)
            interleaved[len(points) + i] = second.mapping(v)
        for got, want in zip(interleaved, alone):
            assert got.tobytes() == want.tobytes()


class TestFredholm:
    def test_zero_coupling_fixes_the_source_in_one_step(self):
        problem = fredholm(50, 0.0)
        assert np.array_equal(problem.mapping(problem.initial_guess),
                              problem.initial_guess)

    def test_trapezoid_weights(self):
        disc = fredholm_discretization(11, 0.5)
        spacing = 0.1
        assert disc.weights[0] == pytest.approx(spacing / 2.0)
        assert disc.weights[-1] == pytest.approx(spacing / 2.0)
        assert np.allclose(disc.weights[1:-1], spacing)
        assert disc.weights.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 11, 500])
    def test_nodes_and_weights_follow_from_the_kernel_shape(self, n):
        # the n-point composite trapezoid rule on [0, 1], written out
        nodes = np.linspace(0.0, 1.0, n)
        spacing = nodes[1] - nodes[0]
        weights = np.full(n, spacing)
        weights[0] = weights[-1] = spacing / 2.0
        disc = FredholmDiscretization(kernel_matrix=np.eye(n), coupling=0.5,
                                      source=np.zeros(n))
        assert disc.nodes.tobytes() == nodes.tobytes()
        assert disc.weights.tobytes() == weights.tobytes()
        built = fredholm_discretization(n, 0.5)
        assert built.nodes.tobytes() == nodes.tobytes()
        assert built.weights.tobytes() == weights.tobytes()
        for array in (disc.nodes, disc.weights):
            assert not array.flags.writeable
        with pytest.raises(TypeError, match="nodes"):
            FredholmDiscretization(nodes=nodes, kernel_matrix=np.eye(n),
                                   coupling=0.5, source=np.zeros(n))

    def test_quadrature_consistency_against_refined_rule(self):
        disc = fredholm_discretization(500, 0.5)
        row_sums = disc.operator_matrix().sum(axis=1)
        fine = np.linspace(0.0, 1.0, 10 * 499 + 1)
        fine_weights = np.full(fine.size, fine[1] - fine[0])
        fine_weights[0] = fine_weights[-1] = (fine[1] - fine[0]) / 2.0
        refined = np.exp(-np.abs(disc.nodes[:, None] - fine[None, :]))
        refined_sums = refined @ fine_weights
        relative = np.abs(row_sums - refined_sums) / np.abs(refined_sums)
        assert relative.max() <= 1e-3

    def test_iteration_steps_shrink_monotonically(self):
        problem = fredholm(100, 0.5)
        state = problem.initial_guess
        deltas = []
        for _ in range(25):
            nxt = problem.mapping(state)
            deltas.append(np.linalg.norm(nxt - state))
            state = nxt
        for before, after in zip(deltas[3:], deltas[4:]):
            assert after <= before * (1.0 + 1e-10)

    def test_warns_when_contraction_is_not_guaranteed(self):
        with pytest.warns(UserWarning, match="may not contract"):
            fredholm(40, 2.0)

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            fredholm(1, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_coupling_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="coupling must be finite"):
            fredholm(20, bad)

    def test_nonfinite_kernel_is_rejected(self):
        disc = fredholm_discretization(5, 0.5)
        kernel = np.array(disc.kernel_matrix)
        kernel[2, 3] = math.inf
        with pytest.raises(ValueError, match="kernel_matrix must be finite"):
            FredholmDiscretization(kernel_matrix=kernel, coupling=0.5,
                                   source=disc.source)

    @pytest.mark.parametrize("n", [2, 9, 500])
    def test_kernel_samples_match_the_plain_formula_bit_for_bit(self, n):
        disc = fredholm_discretization(n, 0.5)
        x, t = disc.nodes[:, None], disc.nodes[None, :]
        assert (disc.kernel_matrix.tobytes()
                == np.exp(-np.abs(x - t)).tobytes())

    @pytest.mark.parametrize("n, coupling", [(2, 0.5), (9, -0.9), (500, 0.5)])
    def test_map_matches_the_weighted_kernel_bit_for_bit(self, n, coupling):
        disc = fredholm_discretization(n, coupling)
        operator = disc.kernel_matrix * disc.weights
        problem = fredholm(n, coupling)
        for u in np.random.default_rng(n).standard_normal((3, n)):
            expected = disc.source + coupling * (operator @ u)
            assert problem.mapping(u).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [9, 200])
    def test_coupling_warning_fires_exactly_at_the_norm_bound(self, n):
        """The warning fires for the smallest |coupling| whose product with
        np.linalg.norm(kernel * weights, inf) reaches 1, and not one ulp
        below it, for either sign."""
        disc = fredholm_discretization(n, 0.0)
        norm = np.linalg.norm(disc.kernel_matrix * disc.weights, np.inf)
        edge = 1.0 / norm
        while edge * norm < 1.0:
            edge = np.nextafter(edge, np.inf)
        while np.nextafter(edge, 0.0) * norm >= 1.0:
            edge = np.nextafter(edge, 0.0)
        for sign in (1.0, -1.0):
            with pytest.warns(UserWarning, match="may not contract"):
                fredholm_discretization(n, sign * edge)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fredholm_discretization(n, sign * np.nextafter(edge, 0.0))


def _traced_build(build):
    """The object ``build`` returns, with the bytes its call peaked at and
    the bytes still held once it returned."""
    tracemalloc.start()
    try:
        built = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return built, peak, held


class TestBuilderMemory:
    """The dense builders make each N x N operator in place: building peaks
    at two matrices, and a problem holds one (counted in n^2 doubles)."""

    @pytest.mark.parametrize("n", [500, 1500])
    def test_fredholm_peaks_at_two_operators_and_holds_one(self, n):
        problem, peak, held = _traced_build(lambda: fredholm(n, 0.5))
        assert problem.dimension == n
        matrix = 8 * n * n
        assert peak <= 2.5 * matrix, peak / matrix
        assert held <= 1.25 * matrix, held / matrix

    def test_linear_generator_peaks_at_two_matrices(self):
        n = 1000
        iteration, peak, _ = _traced_build(
            lambda: linear_iteration_generator(n, 0.9, 42))
        assert iteration.dimension == n
        assert peak <= 2.6 * 8 * n * n, peak / (8 * n * n)


def iterate_to_fixed_point(problem, steps=400):
    state = problem.initial_guess
    for _ in range(steps):
        state = problem.mapping(state)
    return state


def add_at_surfer_map(graph, alpha, v):
    """The surfer map gathering each edge's weight on every call and
    scattering through a zero-filled buffer and np.add.at."""
    n = graph.node_count
    degrees = graph.out_degrees
    sources = np.repeat(np.arange(n), degrees)
    targets = graph.edge_targets
    inverse_degree = np.zeros(n)
    inverse_degree[degrees > 0] = 1.0 / degrees[degrees > 0]
    dangling = degrees == 0

    def apply_map(x):
        spread = np.zeros(n)
        np.add.at(spread, targets, x[sources] * inverse_degree[sources])
        dangling_mass = float(x[dangling].sum())
        nxt = alpha * (spread + dangling_mass * v) + (1.0 - alpha) * v
        return nxt / nxt.sum()

    return apply_map


class TestPagerank:
    @pytest.mark.parametrize("graph", [
        clustered_graph(2000, 8, 7),
        # nodes 3 and 5 dangle; 0 -> 1 and 4 -> 1 are parallel edges
        SparseGraph.from_edges(6, [(0, 1), (0, 1), (0, 2), (1, 0), (2, 2),
                                   (2, 0), (4, 1), (4, 1)]),
        SparseGraph.from_edges(3, []),
        # out-degrees 3, 1, 2, 4 and 1, no node dangles, and nodes 3 and 4
        # have no in-edges
        SparseGraph.from_edges(5, [(0, 1), (0, 1), (0, 2), (1, 0), (2, 2),
                                   (2, 0), (3, 0), (3, 1), (3, 1), (3, 2),
                                   (4, 2)]),
    ], ids=["clustered", "dangling-parallel", "no-edges",
            "uneven-no-dangling"])
    def test_map_matches_add_at_scatter_bit_for_bit(self, graph):
        def same_bits(x, y):
            return x.dtype == y.dtype and x.tobytes() == y.tobytes()

        rng = np.random.default_rng(5)
        n = graph.node_count
        for personalization in (None, rng.uniform(0.5, 1.5, n)):
            problem = pagerank(graph, alpha=0.85,
                               personalization=personalization)
            reference = add_at_surfer_map(graph, 0.85, problem.initial_guess)
            # extrapolated points leave the simplex: signed entries, -0.0
            signed = rng.standard_normal(n)
            signed[::2] = -0.0
            for x in (rng.uniform(0.0, 1.0, n),
                      *rng.dirichlet(np.ones(n), size=3),
                      rng.standard_normal(n) + 1.0 / n, signed):
                assert same_bits(problem.mapping(x), reference(x))
        state = problem.initial_guess
        for _ in range(30):
            nxt = problem.mapping(state)
            assert same_bits(nxt, reference(state))
            state = nxt

    def test_graph_arrays_are_built_once_and_read_only(self):
        # sources out of order: each node keeps its edges in the given order
        edges = [(3, 3), (0, 2), (2, 0), (0, 1)]
        graph = SparseGraph.from_edges(4, edges)
        assert graph.edge_targets.tolist() == [2, 1, 0, 3]
        assert graph.out_degrees.tolist() == [2, 0, 1, 1]
        assert graph.edge_targets.size == 4
        for array in (graph.edge_targets, graph.out_degrees):
            assert array.dtype == np.int64
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        # the constructor copies: the caller's arrays stay its own
        targets, degrees = np.array([1, 0]), np.array([1, 1])
        built = SparseGraph(targets, degrees, (0, 1))
        assert built.node_count == 2
        targets[0] = 0
        assert built.edge_targets.tolist() == [1, 0]
        assert targets.flags.writeable and degrees.flags.writeable
        # a pickled or copied graph is rebuilt through the constructor
        for restored in (pickle.loads(pickle.dumps(graph)),
                         copy.deepcopy(graph)):
            assert restored is not graph
            assert restored.node_count == 4
            assert restored.original_ids == graph.original_ids
            assert restored.edge_targets.tolist() == [2, 1, 0, 3]
            assert restored.out_degrees.tolist() == [2, 0, 1, 1]
            assert not restored.edge_targets.flags.writeable
            assert not restored.out_degrees.flags.writeable

    @pytest.mark.parametrize("bad", [-1, 3, 2**70])
    def test_out_of_range_target_is_rejected(self, bad):
        message = f"edge target {bad} out of range"
        with pytest.raises(ValueError, match=message):
            SparseGraph(edge_targets=[1, 2, 0, bad],
                        out_degrees=[2, 0, 2], original_ids=(0, 1, 2))

    @pytest.mark.parametrize("degrees, message", [
        ([2, 0], "one nonnegative out-degree per node"),
        ([[2, 0, 2]], "one nonnegative out-degree per node"),
        ([2, 1, 2], "one edge target per counted out-edge"),
        ([3, -1, 2], "one nonnegative out-degree per node"),
        ([2.0, 0.0, 2.0], "out_degrees must hold integers"),
        ([2, 0, 2**70], "one edge target per counted out-edge"),
    ])
    def test_bad_degree_arrays_are_rejected(self, degrees, message):
        with pytest.raises(ValueError, match=message):
            SparseGraph(edge_targets=[1, 2, 0, 1],
                        out_degrees=degrees, original_ids=(0, 1, 2))

    @pytest.mark.parametrize("edges", [[(0, 3)], [(-1, 0)], [(0, 2**70)]])
    def test_out_of_range_edge_is_rejected(self, edges):
        src, dst = edges[0]
        with pytest.raises(ValueError,
                           match=rf"edge \({src}, {dst}\) out of range"):
            SparseGraph.from_edges(3, edges)

    def test_single_node(self):
        graph = SparseGraph.from_edges(1, [])
        problem = pagerank(graph)
        assert np.allclose(problem.mapping(np.array([1.0])), [1.0])

    def test_two_cycle_splits_evenly(self):
        graph = SparseGraph.from_edges(2, [(0, 1), (1, 0)])
        stationary = iterate_to_fixed_point(pagerank(graph))
        assert np.allclose(stationary, [0.5, 0.5], atol=1e-12)

    def test_three_chain_matches_dense_solve(self):
        alpha = 0.85
        graph = SparseGraph.from_edges(3, [(0, 1), (1, 2)])
        v = np.full(3, 1.0 / 3.0)
        transition = np.zeros((3, 3))
        transition[1, 0] = 1.0
        transition[2, 1] = 1.0
        transition[:, 2] = v  # dangling node redistributes everywhere
        direct = np.linalg.solve(np.eye(3) - alpha * transition,
                                 (1.0 - alpha) * v)
        direct /= direct.sum()
        stationary = iterate_to_fixed_point(pagerank(graph, alpha=alpha))
        assert np.allclose(stationary, direct, atol=1e-10)

    def test_simplex_is_preserved(self):
        rng = np.random.default_rng(8)
        n = 50
        edges = [(int(rng.integers(n)), int(rng.integers(n)))
                 for _ in range(150)]
        # Leave a few nodes dangling on purpose.
        edges = [(s, d) for s, d in edges if s < 45]
        problem = pagerank(SparseGraph.from_edges(n, edges))
        state = problem.initial_guess
        for _ in range(20):
            state = problem.mapping(state)
            assert np.all(state >= 0.0)
            assert abs(state.sum() - 1.0) <= 1e-12

    def test_alpha_range_enforced(self):
        graph = SparseGraph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            pagerank(graph, alpha=1.0)

    def test_personalization_must_have_mass(self):
        graph = SparseGraph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            pagerank(graph, personalization=[0.0, 0.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_personalization_must_be_finite(self, bad):
        graph = SparseGraph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="personalization must be finite"):
            pagerank(graph, personalization=[1.0, bad])


def grouped_by_source(node_count, edges):
    """Per-node target lists, each in the order the edges were given."""
    lists = [[] for _ in range(node_count)]
    for src, dst in edges:
        lists[src].append(dst)
    return lists


# labels as an edge file may carry them: sparse, negative, or beyond int64
node_labels = st.one_of(st.integers(-20, 20), st.integers(-2**70, 2**70))


def sized_edge_lists(max_nodes=12, max_edges=40):
    return st.integers(1, max_nodes).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1)),
                             max_size=max_edges)))


class TestGraphFormat:
    @given(edges=st.lists(st.tuples(node_labels, node_labels),
                          min_size=1, max_size=40))
    @example(edges=[(0, 2**63 + 1)])  # past int64, numpy would make floats
    @settings(max_examples=60, deadline=None)
    def test_from_edges_and_load_edge_list_agree(self, tmp_path_factory,
                                                 edges):
        path = tmp_path_factory.mktemp("edges") / "graph.txt"
        path.write_text("".join(f"{s} {d}\n" for s, d in edges))
        loaded = load_edge_list(path)

        labels = sorted({label for edge in edges for label in edge})
        index = {label: i for i, label in enumerate(labels)}
        compact = [(index[s], index[d]) for s, d in edges]
        built = SparseGraph.from_edges(len(labels), compact)
        lists = grouped_by_source(len(labels), compact)
        assert loaded.original_ids == tuple(labels)
        assert built.original_ids == tuple(range(len(labels)))
        for graph in (loaded, built):
            assert graph.node_count == len(labels)
            assert graph.edge_targets.tolist() == sum(lists, [])
            assert graph.out_degrees.tolist() == list(map(len, lists))

    @given(case=sized_edge_lists(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_pagerank_matches_add_at_reference_bit_for_bit(self, case, seed):
        n, edges = case
        graph = SparseGraph.from_edges(n, edges)
        lists = grouped_by_source(n, edges)
        assert graph.edge_targets.tolist() == sum(lists, [])
        assert graph.out_degrees.tolist() == list(map(len, lists))
        rng = np.random.default_rng(seed)
        for personalization in (None, rng.uniform(0.5, 1.5, n)):
            problem = pagerank(graph, personalization=personalization)
            reference = add_at_surfer_map(graph, 0.85, problem.initial_guess)
            for x in (rng.uniform(0.0, 1.0, n), rng.dirichlet(np.ones(n))):
                got, want = problem.mapping(x), reference(x)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


class TestClusteredGraph:
    def test_degrees_are_exact(self):
        graph = clustered_graph(100, 8, seed=3)
        assert graph.node_count == 100
        assert np.all(graph.out_degrees == 8)

    def test_every_fourth_node_reaches_the_other_cluster(self):
        n = 200
        split = (6 * n) // 10
        graph = clustered_graph(n, 8, seed=11)
        sources = np.repeat(np.arange(n), graph.out_degrees)
        crossing = (graph.edge_targets >= split) != (sources >= split)
        expected = (np.arange(n) % 4 == 0).astype(int)
        assert np.bincount(sources[crossing], minlength=n).tolist() \
            == expected.tolist()

    @pytest.mark.parametrize("n", [4, 5, 7, 123])
    def test_single_draw_matches_per_node_loop(self, n):
        for avg_deg in (2, 3, 17):
            for seed in (42, 1009):
                graph = clustered_graph(n, avg_deg, seed)
                per_node = clustered_graph_per_node(n, avg_deg, seed)
                assert graph.out_degrees.tolist() == list(map(len, per_node))
                assert graph.edge_targets.tolist() == \
                    np.concatenate(per_node).tolist()

    def test_benchmark_graph_is_pinned(self):
        # sha256 of pagerank20k's graph, recorded from the per-node loop: a
        # numpy release that changes the bounded-integer stream fails here
        targets = clustered_graph(20000, 8, 42).edge_targets
        digest = hashlib.sha256(targets.astype("<i8").tobytes()).hexdigest()
        assert digest == ("7e21932e119f2ec7c200806f66d7b347"
                          "4a23d14c810aab3d21784a07faeaee1b")

    def test_same_seed_is_deterministic(self):
        def targets(seed):
            return clustered_graph(60, 5, seed).edge_targets.tolist()

        assert targets(9) == targets(9)
        assert targets(9) != targets(10)

    def test_mixing_is_slow_compared_to_uniform_attachment(self):
        # The weak inter-cluster coupling should leave a second eigenvalue
        # close to the damping factor, which is what makes plain surfer
        # iteration slow on this family.
        problem = pagerank(clustered_graph(400, 8, seed=42), alpha=0.85)
        state = problem.initial_guess
        deltas = []
        for _ in range(40):
            nxt = problem.mapping(state)
            deltas.append(float(np.abs(nxt - state).sum()))
            state = nxt
        late_ratio = (deltas[-1] / deltas[-11]) ** 0.1
        assert late_ratio > 0.75

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            clustered_graph(3, 8, seed=0)
        with pytest.raises(ValueError):
            clustered_graph(100, 1, seed=0)


class TestLoadEdgeList:
    def test_round_trip_two_cycle(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("0 1\n1 0\n")
        graph = load_edge_list(path)
        assert graph.node_count == 2
        assert graph.edge_targets.size == 2
        assert graph.edge_targets.tolist() == [1, 0]
        assert graph.out_degrees.tolist() == [1, 1]

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# Directed graph\n# Nodes: 2 Edges: 1\n\n0 1\n")
        graph = load_edge_list(path)
        assert graph.node_count == 2
        assert graph.edge_targets.size == 1

    def test_ids_are_compacted_with_mapping(self, tmp_path):
        path = tmp_path / "sparse_ids.txt"
        path.write_text("5 9\n")
        graph = load_edge_list(path)
        assert graph.node_count == 2
        assert graph.original_ids == (5, 9)
        assert graph.edge_targets.tolist() == [1]
        assert graph.out_degrees.tolist() == [1, 0]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("0 1\n0 1 2\n")
        with pytest.raises(ValueError, match="line 2"):
            load_edge_list(path)

    def test_non_integer_ids_report_line_number(self, tmp_path):
        path = tmp_path / "alpha.txt"
        path.write_text("a b\n")
        with pytest.raises(ValueError, match="line 1"):
            load_edge_list(path)

    def test_comment_only_file_is_an_empty_graph_error(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no edges"):
            load_edge_list(path)


def exact_from_model(model):
    """The documented smooth solution: coefficients 1/j in the right basis.

    Recovering it from ``clean_rhs`` by dividing out the singular values
    is itself ill-posed once the decay outruns machine precision, so the
    tests lean on the generator's stated construction instead.
    """
    j = np.arange(1, model.rank + 1)
    return model.v @ (1.0 / j)


class TestIllposedSynthetic:
    def test_same_seed_reproduces_the_model(self):
        first = illposed_synthetic(20, 0.5, 1e-2, seed=3)
        second = illposed_synthetic(20, 0.5, 1e-2, seed=3)
        assert np.array_equal(first.rhs, second.rhs)
        assert np.array_equal(first.sigma, second.sigma)

    def test_noise_scaling(self):
        model = illposed_synthetic(40, 0.5, 1e-2, seed=1)
        observed = np.linalg.norm(model.rhs - model.clean_rhs)
        assert observed == pytest.approx(
            1e-2 * np.linalg.norm(model.clean_rhs))

    def test_clean_rhs_matches_documented_construction(self):
        model = illposed_synthetic(25, 0.4, 1e-3, seed=2)
        j = np.arange(1, 26)
        rebuilt = model.u @ (model.sigma / j)
        assert np.allclose(rebuilt, model.clean_rhs, atol=1e-14)

    def test_noiseless_error_decreases_through_full_rank(self):
        model = illposed_synthetic(30, 0.3, 0.0, seed=5)
        exact = exact_from_model(model)
        assert error_optimal_index(model, exact) == model.rank

    def test_noisy_error_curve_is_v_shaped(self):
        model = illposed_synthetic(200, 1.0, 1e-2, seed=11)
        exact = exact_from_model(model)
        k_opt = error_optimal_index(model, exact, k_max=40)
        errors = [np.linalg.norm(tsvd_solution(model, k) - exact)
                  for k in range(1, k_opt + 11)]
        assert errors[k_opt + 9] >= 10.0 * min(errors)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            illposed_synthetic(10, -1.0, 1e-2, seed=0)
        with pytest.raises(ValueError):
            illposed_synthetic(10, 1.0, -1e-2, seed=0)


INPUT_CHECKS = {
    "linear-iteration-not-square": (
        lambda: LinearIteration(matrix=np.ones((2, 3)), offset=np.ones(2),
                                solution=None),
        "matrix must be square"),
    "graph-without-nodes": (
        lambda: SparseGraph(edge_targets=np.zeros(0, dtype=np.int64),
                            out_degrees=np.zeros(0, dtype=np.int64),
                            original_ids=()),
        "graph needs at least one node"),
    "fredholm-one-node": (
        lambda: FredholmDiscretization(kernel_matrix=np.ones((1, 1)),
                                       coupling=0.5, source=np.ones(1)),
        "at least two nodes are required"),
    "fredholm-kernel-not-square": (
        lambda: FredholmDiscretization(kernel_matrix=np.ones((2, 3)),
                                       coupling=0.5, source=np.ones(2)),
        "kernel matrix must be square over the nodes"),
    "mixture-without-modes": (
        lambda: series_generator("geometric_mixture", 5, modes=()),
        "geometric_mixture needs at least one mode"),
    "linear-generator-n-0": (lambda: linear_iteration_generator(0, 0.5, 1),
                             "n must be positive"),
    "illposed-n-0": (lambda: illposed_synthetic(0, 1.0, 1e-2, 1),
                     "n must be positive"),
    "pagerank-nonfinite-personalization": (
        lambda: pagerank(clustered_graph(4, 2, 0),
                         personalization=[1.0, math.nan, 1.0, 1.0]),
        "personalization must be finite"),
    "pagerank-personalization-length": (
        lambda: pagerank(clustered_graph(4, 2, 0), personalization=[1.0] * 3),
        "personalization must be a nonnegative N-vector"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_check_raises(case):
    call, match = INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=match):
        call()
