"""Tests for the benchmark problem generators."""

import copy
import hashlib
import math
import pickle

import numpy as np
import pytest

from accelerant.problems import (
    FredholmDiscretization,
    LinearIteration,
    SparseGraph,
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
        assert np.allclose(problem.residual(iteration.solution),
                           np.zeros(6), atol=1e-12)

    def test_nonfinite_matrix_is_rejected(self):
        with pytest.raises(ValueError, match="matrix must be finite"):
            LinearIteration(matrix=[[math.nan]], offset=[0.0], solution=None,
                            spectral_radius_estimate=0.5)


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
        residual = problem.residual(problem.solution)
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
            FredholmDiscretization(nodes=disc.nodes, weights=disc.weights,
                                   kernel_matrix=kernel, coupling=0.5,
                                   source=disc.source)


def iterate_to_fixed_point(problem, steps=400):
    state = problem.initial_guess
    for _ in range(steps):
        state = problem.mapping(state)
    return state


def add_at_surfer_map(graph, alpha, v):
    """The surfer map gathering each edge's weight on every call and
    scattering through a zero-filled buffer and np.add.at."""
    n = graph.node_count
    sources = np.array([s for s, out in enumerate(graph.out_edges)
                        for _ in out], dtype=int)
    targets = np.array([t for out in graph.out_edges for t in out], dtype=int)
    degrees = graph.out_degrees
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
        graph = SparseGraph.from_edges(4, [(0, 1), (0, 2), (2, 0), (3, 3)])
        assert graph.edge_targets is graph.edge_targets
        assert graph.out_degrees is graph.out_degrees
        assert graph.edge_targets.tolist() == [1, 2, 0, 3]
        assert graph.out_degrees.tolist() == [2, 0, 1, 1]
        assert graph.edge_count == 4
        for array in (graph.edge_targets, graph.out_degrees):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        # equality and hashing see the fields, not the cached arrays: the
        # twin has not built its degrees yet
        twin = SparseGraph.from_edges(4, [(0, 1), (0, 2), (2, 0), (3, 3)])
        assert "out_degrees" in vars(graph)
        assert "out_degrees" not in vars(twin)
        assert graph == twin and hash(graph) == hash(twin)
        assert graph != SparseGraph.from_edges(4, [(0, 1), (0, 2), (2, 0)])
        assert "edge_targets" not in repr(graph)
        for restored in (pickle.loads(pickle.dumps(graph)),
                         copy.deepcopy(graph)):
            assert restored == graph
            assert restored.edge_targets.tolist() == [1, 2, 0, 3]
            assert not restored.edge_targets.flags.writeable
            assert not restored.out_degrees.flags.writeable

    @pytest.mark.parametrize("bad", [-1, 3, 2**70])
    def test_out_of_range_target_is_rejected(self, bad):
        message = f"edge target {bad} out of range"
        with pytest.raises(ValueError, match=message):
            SparseGraph(node_count=3, out_edges=((1, 2), (), (0, bad)),
                        original_ids=(0, 1, 2))

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


class TestClusteredGraph:
    def test_degrees_are_exact(self):
        graph = clustered_graph(100, 8, seed=3)
        assert graph.node_count == 100
        assert np.all(graph.out_degrees == 8)

    def test_every_fourth_node_reaches_the_other_cluster(self):
        n = 200
        split = (6 * n) // 10
        graph = clustered_graph(n, 8, seed=11)
        for node, targets in enumerate(graph.out_edges):
            crossings = sum((t >= split) != (node >= split) for t in targets)
            assert crossings == (1 if node % 4 == 0 else 0)

    def test_edge_targets_are_python_ints(self):
        graph = clustered_graph(50, 4, seed=5)
        assert all(type(t) is int for out in graph.out_edges for t in out)

    @pytest.mark.parametrize("n", [4, 5, 7, 123])
    def test_single_draw_matches_per_node_loop(self, n):
        for avg_deg in (2, 3, 17):
            for seed in (42, 1009):
                assert clustered_graph(n, avg_deg, seed).out_edges == \
                    clustered_graph_per_node(n, avg_deg, seed)

    def test_benchmark_graph_is_pinned(self):
        # sha256 of pagerank20k's graph, recorded from the per-node loop: a
        # numpy release that changes the bounded-integer stream fails here
        targets = clustered_graph(20000, 8, 42).edge_targets
        digest = hashlib.sha256(targets.astype("<i8").tobytes()).hexdigest()
        assert digest == ("7e21932e119f2ec7c200806f66d7b347"
                          "4a23d14c810aab3d21784a07faeaee1b")

    def test_same_seed_is_deterministic(self):
        assert clustered_graph(60, 5, seed=9) == clustered_graph(60, 5, seed=9)
        assert clustered_graph(60, 5, seed=9) != clustered_graph(60, 5, seed=10)

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
        assert graph.edge_count == 2
        assert graph.out_edges == ((1,), (0,))

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# Directed graph\n# Nodes: 2 Edges: 1\n\n0 1\n")
        graph = load_edge_list(path)
        assert graph.node_count == 2
        assert graph.edge_count == 1

    def test_ids_are_compacted_with_mapping(self, tmp_path):
        path = tmp_path / "sparse_ids.txt"
        path.write_text("5 9\n")
        graph = load_edge_list(path)
        assert graph.node_count == 2
        assert graph.original_ids == (5, 9)
        assert graph.out_edges == ((1,), ())

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
