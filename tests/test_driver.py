"""Driver tests: cycle mechanics, accounting, and acceleration behavior."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelerant.driver import (
    CSV_HEADER,
    DIVERGENCE_FACTOR,
    CycleConfig,
    FixedPointProblem,
    METHOD_NAMES,
    RunReport,
    run_cycles,
)
from accelerant.problems import (
    clustered_graph,
    fredholm,
    linear_iteration_generator,
    pagerank,
    reaction_diffusion,
)


def contraction(rng, n, radius):
    m = rng.standard_normal((n, n))
    return radius * m / max(abs(np.linalg.eigvals(m)))


def affine_problem(seed, n, radius=0.8):
    rng = np.random.default_rng(seed)
    b_matrix = contraction(rng, n, radius)
    offset = rng.standard_normal(n)
    solution = np.linalg.solve(np.eye(n) - b_matrix, offset)
    problem = FixedPointProblem(
        n, lambda u: b_matrix @ u + offset, np.zeros(n), solution=solution)
    return problem, b_matrix, offset


def counted_problem(problem):
    """Wrap a problem so the test can count map evaluations independently."""
    counter = {"evals": 0}

    def mapping(u):
        counter["evals"] += 1
        return problem.mapping(u)

    wrapped = FixedPointProblem(problem.dimension, mapping,
                                problem.initial_guess,
                                solution=problem.solution)
    return wrapped, counter


class TestFixedPointProblem:
    def test_guess_validated_and_frozen(self):
        problem = FixedPointProblem(2, lambda u: u, np.array([1.0, 2.0]))
        assert not problem.initial_guess.flags.writeable
        with pytest.raises(ValueError):
            FixedPointProblem(3, lambda u: u, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            FixedPointProblem(0, lambda u: u, np.array([]))
        with pytest.raises(ValueError):
            FixedPointProblem(2, lambda u: u, np.array([np.inf, 0.0]))


class TestCycleConfig:
    def test_method_names_and_normalization(self):
        assert CycleConfig(method="RRE").method == "rre"
        with pytest.raises(ValueError):
            CycleConfig(method="newton")
        assert set(METHOD_NAMES) == {
            "rre", "mpe", "mmpe", "sbeta", "h", "vea", "tea", "stea2",
            "anderson"}
        # STEA1 computes TEA's point, so it is a transform, not a method
        with pytest.raises(ValueError, match="unknown method"):
            CycleConfig(method="stea1")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CycleConfig(method="rre", width_m=0)
        with pytest.raises(ValueError):
            CycleConfig(method="rre", warmup_p=-1)
        with pytest.raises(ValueError):
            CycleConfig(method="rre", tol=0.0)
        with pytest.raises(ValueError):
            CycleConfig(method="rre", max_cycles=0)
        with pytest.raises(ValueError):
            CycleConfig(method="anderson", damping=0.0)
        with pytest.raises(ValueError):
            CycleConfig(method="anderson", depth=-1)

    def test_defaults(self):
        config = CycleConfig(method="rre")
        assert config.warmup_p == 0
        assert config.width_m == 5

    def test_inner_terms_by_family(self):
        assert CycleConfig(method="rre", width_m=4).inner_terms == 5
        assert CycleConfig(method="sbeta", width_m=4).inner_terms == 5
        assert CycleConfig(method="vea", width_m=4).inner_terms == 8
        assert CycleConfig(method="stea2", width_m=4).inner_terms == 8
        assert CycleConfig(method="anderson", width_m=4).inner_terms == 0


class TestRunCycles:
    def test_full_width_converges_in_one_cycle(self):
        problem, _, _ = affine_problem(1, 8)
        config = CycleConfig(method="rre", width_m=8, tol=1e-10,
                             max_cycles=5)
        report = run_cycles(problem, config)
        assert report.cycles == 1
        assert report.final_residual <= 1e-10
        assert report.reason == "converged"

    def test_warmup_alone_can_terminate(self):
        problem, _, _ = affine_problem(2, 6)
        config = CycleConfig(method="rre", width_m=3, warmup_p=150,
                             tol=1e-2, max_cycles=5)
        report = run_cycles(problem, config)
        assert report.reason == "warmup"
        assert report.cycles == 0
        assert report.residual_history == ()
        assert report.iterations == 150 + 2

    @pytest.mark.parametrize("method", sorted(METHOD_NAMES))
    def test_every_method_converges_on_benign_problem(self, method):
        problem, _, _ = affine_problem(3, 12, radius=0.6)
        config = CycleConfig(method=method, width_m=4, warmup_p=1,
                             tol=1e-9, max_cycles=80)
        report = run_cycles(problem, config)
        assert report.reason == "converged"
        assert report.final_residual <= 1e-9

    def test_anderson_depth_zero_is_damped_picard(self):
        problem, b_matrix, offset = affine_problem(4, 5)
        damping = 0.7
        config = CycleConfig(method="anderson", depth=0, damping=damping,
                             tol=1e-6, max_cycles=500)
        report = run_cycles(problem, config)

        x = np.zeros(5)
        reference = np.linalg.norm(offset)
        steps = 0
        while True:
            g = b_matrix @ x + offset
            if np.linalg.norm(g - x) <= 1e-6 * reference:
                break
            x = x + damping * (g - x)
            steps += 1
        assert report.cycles == steps
        assert report.iterations == steps + 1

    def test_anderson_depth_above_dimension_mixes_at_most_n(self):
        # depth 5 on N = 2 keeps five residuals but mixes only the newest
        # two differences, so it takes the steps depth 2 takes
        problem = FixedPointProblem(
            2, lambda x: np.cos(x) + 0.1 * np.sin(3 * x[::-1]), np.zeros(2))
        deep, shallow = (
            run_cycles(problem, CycleConfig("anderson", depth=d, tol=1e-14))
            for d in (5, 2))
        assert deep.reason == shallow.reason == "converged"
        assert deep.iterations == shallow.iterations == 8
        assert deep.final_residual == shallow.final_residual

    def test_breakdown_falls_back_to_last_iterate(self):
        # nilpotent iteration matrix: the exact fixed point is reached in
        # three steps, so the lozenge window contains repeated terms and the
        # transform breaks down; the cycle must fall back and still converge
        b_matrix = np.array([[0.0, 0.5, 0.0],
                             [0.0, 0.0, 0.5],
                             [0.0, 0.0, 0.0]])
        offset = np.array([1.0, -2.0, 3.0])
        problem = FixedPointProblem(3, lambda u: b_matrix @ u + offset,
                                    np.zeros(3))
        config = CycleConfig(method="vea", width_m=2, tol=1e-12,
                             max_cycles=5)
        report = run_cycles(problem, config)
        assert report.reason == "converged"
        assert report.fallback_cycles == 1
        assert report.cycles == 1

    def test_divergent_iteration_reports_diverged(self):
        # undamped memory-free mixing is plain iteration, which expands
        # here: from the ones the k-th residual is (3**(k+1), 4**(k+1)),
        # and the 11th is the first beyond 1e6 times the best, the
        # starting 5
        b_matrix = np.diag([3.0, 4.0])
        problem, counter = counted_problem(FixedPointProblem(
            2, lambda u: b_matrix @ u + 1.0, np.ones(2)))
        config = CycleConfig(method="anderson", depth=0, damping=1.0,
                             tol=1e-14, max_cycles=200)
        report = run_cycles(problem, config)
        assert report.reason == "diverged"
        assert (report.cycles, report.iterations) == (11, 12)
        assert counter["evals"] == 12
        expected = [np.hypot(3.0 ** (k + 1), 4.0 ** (k + 1)) / 5.0
                    for k in range(12)]
        np.testing.assert_allclose(report.residual_history, expected[:11],
                                   rtol=1e-14)
        assert report.final_residual == pytest.approx(expected[11],
                                                      rel=1e-14)

    def test_nonfinite_map_output_reports_nonfinite(self):
        problem = FixedPointProblem(
            2, lambda u: np.array([np.inf, 0.0]), np.zeros(2))
        report = run_cycles(problem, CycleConfig(method="rre", width_m=1))
        assert report.reason == "nonfinite"
        assert (report.cycles, report.iterations) == (0, 1)
        assert report.final_residual == np.inf
        assert report.residual_history == ()

    def test_overflowing_residual_norm_reports_diverged(self):
        # past ~1.3e154 (from the fifth stop check on) the residual's
        # squares overflow, but its norm is taken scaled there, so the run
        # stops at DIVERGENCE_FACTOR times its start (here also its best),
        # not at an early inf, and nothing is warned about
        problem = FixedPointProblem(3, lambda x: 10.0 * x,
                                    np.full(3, 1e149))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_cycles(problem, CycleConfig(
                method="anderson", width_m=2, depth=0, max_cycles=20))
        assert report.reason == "diverged"
        assert (report.cycles, report.iterations) == (7, 8)
        assert report.final_residual == pytest.approx(1e7, rel=1e-12)
        np.testing.assert_allclose(report.residual_history,
                                   10.0 ** np.arange(7), rtol=1e-12)

    def test_a_run_that_climbs_from_its_best_stops_diverged(self):
        # stea2 on this instance climbs to 3e14 times its best residual
        # and, unstopped, spends all 11001 evaluations of its 1000 cycles;
        # its count varies with the BLAS kernels, so only a bound is pinned
        problem = linear_iteration_generator(100, 0.9, 13).as_fixed_point()
        report = run_cycles(problem, CycleConfig(
            method="stea2", width_m=5, tol=1e-6, max_cycles=1000))
        assert report.reason == "diverged"
        assert report.iterations < 11001 // 2
        best = min((1.0,) + report.residual_history)
        assert report.final_residual > max(1.0, DIVERGENCE_FACTOR * best)

    def test_a_diverging_run_stops_before_its_residual_overflows(self):
        # mmpe with one test vector: the residual dips to 0.05 and then
        # climbs to 1.5e10 at the ninth stop check, which ends the run;
        # a run measured from its start alone took one more cycle, 49
        # evaluations in all, and read 1.25e212
        report = run_cycles(reaction_diffusion(5), CycleConfig(
            "mmpe", width_m=1, warmup_p=2, tol=1e-4, max_cycles=9))
        assert report.reason == "diverged"
        assert report.iterations < 49
        assert report.final_residual < 1e12
        best = min((1.0,) + report.residual_history)
        assert report.final_residual > max(1.0, DIVERGENCE_FACTOR * best)

    @pytest.mark.parametrize("start", [1e149, 1e140, 1e100])
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_runs_near_the_overflow_edge_end_in_a_report(self, method,
                                                         start):
        # iterates near or through the range where squares overflow: the
        # windows' own products (the angle diagnostics of mpe and mmpe,
        # tea's pairings) as well as the residual norms; every method still
        # ends in a report with a named reason and lets no warning out
        n = 4
        for rate in (0.9, 3.0, 10.0):
            rates = np.linspace(rate, 0.5, n)
            problem = FixedPointProblem(n, lambda x: rates * x + 1.0,
                                        np.full(n, start))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = run_cycles(problem, CycleConfig(
                    method=method, width_m=2, max_cycles=200))
            assert report.reason in REASONS
            assert len(report.residual_history) == report.cycles

    @pytest.mark.parametrize("method, width", [
        ("rre", 4), ("mpe", 3), ("mpe", 4), ("tea", 2), ("tea", 3),
        ("tea", 4)])
    def test_window_whose_differences_overflow_falls_back(self, method,
                                                          width):
        # past max|u| = 10 the map jumps to -+1.5e308: every iterate stays
        # finite, but the window's differences (or tea's pairings with
        # them) overflow, so the cycle falls back and the run diverges
        def mapping(u):
            if np.max(np.abs(u)) <= 10.0:
                return 2.0 * u + 1.0
            return np.where(u >= 0, -1.5e308, 1.5e308)

        problem = FixedPointProblem(3, mapping, np.ones(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_cycles(problem, CycleConfig(
                method=method, width_m=width, max_cycles=5))
        assert report.reason == "diverged"
        assert report.fallback_cycles == 1

    @pytest.mark.parametrize("vectors", [None, np.eye(3)])
    @pytest.mark.parametrize("method", ["mmpe", "sbeta", "h"])
    def test_test_basis_wider_than_the_dimension_maps_nothing(self, method,
                                                              vectors):
        problem, counter = counted_problem(FixedPointProblem(
            3, lambda u: 0.5 * u + 1.0, np.zeros(3)))
        with pytest.raises(ValueError, match="k <= dimension|x >= 4"):
            run_cycles(problem, CycleConfig(method=method, width_m=4,
                                            test_vectors=vectors))
        assert counter["evals"] == 0

    # rre with m = 2 and p = 1: evaluation 1 maps the start, 2 is the
    # warmup and 3 the first stop check; each cycle then spends three
    # window evaluations, one rerun warmup and its stop check (4-8, 9-13)
    @pytest.mark.parametrize("failing, cycles", [
        (1, 0), (2, 0), (3, 0), (5, 0), (7, 0), (8, 1), (10, 1), (13, 2)])
    def test_nonfinite_value_ends_the_run_where_it_appears(self, failing,
                                                           cycles):
        base, _, _ = affine_problem(12, 10, radius=0.95)
        calls = {"n": 0}

        def mapping(u):
            calls["n"] += 1
            image = base.mapping(u)
            return image if calls["n"] < failing else image * np.nan

        problem = FixedPointProblem(10, mapping, base.initial_guess)
        report = run_cycles(problem, CycleConfig(
            method="rre", width_m=2, warmup_p=1, tol=1e-15))
        assert report.reason == "nonfinite"
        assert report.iterations == calls["n"] == failing
        assert report.cycles == len(report.residual_history) == cycles
        assert report.final_residual == np.inf

    def test_wrong_map_dimension_raises(self):
        problem = FixedPointProblem(2, lambda u: np.zeros(3), np.ones(2))
        with pytest.raises(ValueError):
            run_cycles(problem, CycleConfig(method="rre", width_m=1))

    def test_start_at_fixed_point(self):
        # zero is an exactly representable fixed point of u -> B u
        rng = np.random.default_rng(5)
        b_matrix = contraction(rng, 4, 0.8)
        problem = FixedPointProblem(4, lambda u: b_matrix @ u, np.zeros(4))
        report = run_cycles(problem, CycleConfig(method="rre"))
        assert report.cycles == 0
        assert report.iterations == 1
        assert report.final_residual == 0.0
        assert report.reason == "converged"

    @pytest.mark.parametrize("offset", [1e155, 1e-165])
    def test_starting_residual_norm_out_of_range_raises(self, offset):
        # the fixed point is 2 * offset, but the residual's norm overflows
        # or underflows when its entries are squared
        problem = FixedPointProblem(30, lambda x: 0.5 * x + offset,
                                    np.zeros(30))
        with pytest.raises(ValueError, match="scale"):
            run_cycles(problem, CycleConfig(method="rre"))

    def test_identity_map_converges_at_once(self):
        problem = FixedPointProblem(30, lambda x: x, np.zeros(30))
        report = run_cycles(problem, CycleConfig(method="rre"))
        assert (report.reason, report.iterations) == ("converged", 1)

    @pytest.mark.parametrize("method", ["rre", "vea", "anderson"])
    def test_exact_accounting_without_warmup(self, method):
        problem, _, _ = affine_problem(6, 10)
        wrapped, counter = counted_problem(problem)
        config = CycleConfig(method=method, width_m=4, tol=1e-9,
                             max_cycles=50)
        report = run_cycles(wrapped, config)
        assert report.reason == "converged"
        # one evaluation per stop check (cycles + 1 checks, the first shared
        # with the reference residual) plus the window build of each cycle
        expected = (report.cycles + 1) + report.cycles * config.inner_terms
        assert report.iterations == expected
        assert counter["evals"] == expected

    def test_exact_accounting_with_warmup_projection(self):
        # projection methods rerun the warmup before every cycle
        problem, _, _ = affine_problem(7, 10)
        wrapped, counter = counted_problem(problem)
        config = CycleConfig(method="mpe", width_m=4, warmup_p=3, tol=1e-9,
                             max_cycles=50)
        report = run_cycles(wrapped, config)
        assert report.reason == "converged"
        passes = report.cycles + 1
        expected = 1 + passes * (config.warmup_p + 1) \
            + report.cycles * config.inner_terms
        assert counter["evals"] == expected == report.iterations

    def test_exact_accounting_with_warmup_lozenge(self):
        # lozenge methods and anderson run the warmup once, before the
        # first cycle only
        for method in ("tea", "anderson"):
            problem, _, _ = affine_problem(8, 10)
            wrapped, counter = counted_problem(problem)
            config = CycleConfig(method=method, width_m=4, warmup_p=3,
                                 tol=1e-9, max_cycles=50)
            report = run_cycles(wrapped, config)
            assert report.reason == "converged"
            assert report.cycles > 1
            checks = report.cycles + 1
            expected = 1 + config.warmup_p + checks \
                + report.cycles * config.inner_terms
            assert counter["evals"] == expected == report.iterations

    def test_history_matches_cycles_and_max_cycles_stop(self):
        problem, _, _ = affine_problem(9, 10, radius=0.95)
        config = CycleConfig(method="rre", width_m=2, tol=1e-13,
                             max_cycles=3)
        report = run_cycles(problem, config)
        assert report.reason == "max_cycles"
        assert report.cycles == 3
        assert len(report.residual_history) == 3
        assert report.residual_history[0] == 1.0

    def test_cycles_are_counted_from_the_history(self):
        fields = dict(method="rre", dimension=2, warmup_p=0, width_m=1,
                      tol=1e-6, iterations=5, final_residual=0.1,
                      residual_history=(1.0, 0.5), seconds=0.0,
                      reason="converged")
        assert RunReport(**fields).cycles == 2
        with pytest.raises(TypeError, match="cycles"):
            RunReport(cycles=2, **fields)

    def test_csv_row_round_trip(self):
        problem, _, _ = affine_problem(10, 6)
        config = CycleConfig(method="mpe", width_m=3, tol=1e-8,
                             max_cycles=40)
        report = run_cycles(problem, config)
        fields = report.csv_row().split(",")
        names = CSV_HEADER.split(",")
        assert len(fields) == len(names) == 9
        assert fields[0] == "mpe"
        assert int(fields[1]) == 6
        assert float(fields[4]) == 1e-8
        assert int(fields[5]) == report.cycles
        assert int(fields[6]) == report.iterations
        assert float(fields[7]) == report.final_residual
        assert float(fields[8]) >= 0.0


class TestStallStop:
    @pytest.mark.parametrize("method", ["sbeta", "h", "mmpe"])
    def test_fixed_test_vectors_stall_on_an_affine_map(self, method):
        # canonical test vectors Y and no warmup: a cycle's point t has
        # Y^T (G(t) - t) = 0, so the next cycle returns t again
        problem, _, _ = affine_problem(11, 30, radius=0.9)
        wrapped, counter = counted_problem(problem)
        config = CycleConfig(method=method, width_m=4, tol=1e-12,
                             max_cycles=200)
        report = run_cycles(wrapped, config)
        assert report.reason == "stalled"
        assert report.cycles <= 5
        assert len(report.residual_history) == report.cycles
        expected = (report.cycles + 1) + report.cycles * config.inner_terms
        assert report.iterations == counter["evals"] == expected
        # the run stops at the residual it is stuck at, far above tol
        assert report.final_residual == pytest.approx(
            report.residual_history[-1], rel=1e-9)
        assert report.final_residual > 1e-3

    def test_a_moving_run_does_not_stall(self):
        report = run_cycles(reaction_diffusion(20),
                            CycleConfig(method="rre", width_m=5, tol=1e-8))
        assert report.reason == "converged"
        assert report.cycles > 1

    def test_anderson_is_never_checked(self):
        # damped steps of relative size ~1e-14 would read as a stall for a
        # window method; anderson's step depends on its history, not on
        # the current point alone, so it runs to its budget
        problem, _, _ = affine_problem(11, 30, radius=0.9)
        config = CycleConfig(method="anderson", depth=0, damping=1e-14,
                             max_cycles=5)
        report = run_cycles(problem, config)
        assert report.reason == "max_cycles"
        assert report.cycles == 5
        # and it converges on the map where the fixed-Y methods stall
        report = run_cycles(problem, CycleConfig(
            method="anderson", width_m=4, tol=1e-12, max_cycles=200))
        assert report.reason == "converged"


class TestConvergenceBehavior:
    def test_complete_cycles_converge_quadratically(self):
        # smooth nonlinear map with a manufactured fixed point; full-width
        # cycles should square the residual from one restart to the next
        rng = np.random.default_rng(14)
        n = 4
        b_matrix = contraction(rng, n, 0.55)
        target = rng.standard_normal(n)

        def mapping(u):
            shift = u - target
            return target + b_matrix @ shift + 0.15 * shift * shift

        problem = FixedPointProblem(n, mapping, target + 0.8 * rng.random(n))
        config = CycleConfig(method="rre", width_m=n, tol=1e-13,
                             max_cycles=12)
        report = run_cycles(problem, config)
        assert report.reason == "converged"

        levels = [v for v in (*report.residual_history,
                              report.final_residual) if v > 1e-14]
        logs = np.log(levels)
        slopes = np.diff(logs[1:]) / np.diff(logs[:-1])
        assert len(slopes) >= 2
        assert np.median(slopes) >= 1.7

    def test_median_acceleration_over_picard(self):
        # twenty random symmetric contractions near the contraction limit;
        # every accelerated method should need at most half the Picard work.
        # restart settings are tuned per method: plain steps between restarts
        # keep the fixed mmpe projection columns from being exactly
        # orthogonal to each restarted residual, which would freeze the
        # cycle on linear maps
        n, radius, tol = 200, 0.95, 1e-6
        configs = {
            "rre": dict(width_m=10),
            "mpe": dict(width_m=10),
            "mmpe": dict(width_m=15, warmup_p=3),
            "tea": dict(width_m=8),
            "anderson": dict(depth=8),
        }
        picard_counts = []
        method_counts = {name: [] for name in configs}
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            sym = rng.standard_normal((n, n))
            sym = (sym + sym.T) / 2.0
            b_matrix = radius * sym / max(abs(np.linalg.eigvalsh(sym)))
            offset = rng.standard_normal(n)
            problem = FixedPointProblem(
                n, lambda u, B=b_matrix, c=offset: B @ u + c, np.zeros(n))

            x = np.zeros(n)
            reference = np.linalg.norm(offset)
            evals = 0
            while True:
                g = b_matrix @ x + offset
                evals += 1
                if np.linalg.norm(g - x) <= tol * reference:
                    break
                x = g
            picard_counts.append(evals)

            for name, options in configs.items():
                config = CycleConfig(method=name, tol=tol, max_cycles=400,
                                     **options)
                report = run_cycles(problem, config)
                assert report.final_residual <= tol, (name, seed)
                method_counts[name].append(report.iterations)

        picard_median = np.median(picard_counts)
        for name, counts in method_counts.items():
            assert np.median(counts) <= 0.5 * picard_median, (
                name, np.median(counts), picard_median)


def _traced_peak(problem, config):
    tracemalloc.start()
    try:
        report = run_cycles(problem, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


class TestCycleMemory:
    @pytest.mark.parametrize("method", ["sbeta", "h", "mmpe"])
    def test_canonical_projection_columns_stay_window_sized(self, method):
        """Default test vectors cost k columns, not a dimension-squared identity."""
        problem = reaction_diffusion(80)
        width = 5
        config = CycleConfig(method=method, width_m=width, tol=1e-300,
                             max_cycles=2)
        bound = 16 * problem.dimension * (width + 2) * 8
        report, peak = _traced_peak(problem, config)
        assert report.cycles == 2
        assert peak <= bound, (peak, bound)

    @pytest.mark.parametrize("width", [5, 10, 20])
    def test_vea_memory_grows_linearly_with_the_window(self, width):
        """vea's table keeps three columns of its 2m + 1 term window, so a
        cycle costs a fixed multiple of (2m + 2) N doubles; keeping every
        column would grow with m squared (44 MB at m = 20)."""
        problem = reaction_diffusion(80)
        config = CycleConfig(method="vea", width_m=width, tol=1e-300,
                             max_cycles=2)
        bound = 6 * (2 * width + 2) * problem.dimension * 8
        report, peak = _traced_peak(problem, config)
        assert report.cycles == 2
        assert peak <= bound, (peak, bound)

    @pytest.mark.parametrize("width", [5, 10])
    @pytest.mark.parametrize("method", ["rre", "mpe", "mmpe", "tea", "stea2"])
    def test_window_transforms_hold_each_block_once(self, method, width):
        """Each difference block is held once, in the layout its products
        read: per window term, five N-vectors for the projection methods
        and four for tea and stea2, plus a fixed few."""
        problem = reaction_diffusion(80)
        config = CycleConfig(method=method, width_m=width, tol=1e-300,
                             max_cycles=2)
        if method in ("tea", "stea2"):
            per_term, terms = 4, 2 * width + 1
            extra = 10 if method == "tea" else 4
        else:
            per_term, terms, extra = 5, width + 2, 5
        bound = (per_term * terms + extra) * problem.dimension * 8
        report, peak = _traced_peak(problem, config)
        assert report.cycles == 2
        assert peak <= bound, (peak, bound)


# ---------------------------------------------------------------------------
# the run contract: every run ends in a report that accounts for it

REASONS = ("converged", "warmup", "stalled", "max_cycles", "diverged",
           "nonfinite")
TEST_BASIS_METHODS = ("mmpe", "sbeta", "h")


@st.composite
def contract_problems(draw):
    """A small bundled problem or the expanding map u -> diag(3, 4) u + 1."""
    kind = draw(st.sampled_from(
        ("linear", "fredholm", "pde", "pagerank", "expanding")))
    seed = draw(st.integers(0, 2**16))
    if kind == "linear":
        return linear_iteration_generator(
            draw(st.integers(1, 12)), draw(st.sampled_from((0.5, 0.9, 0.99))),
            seed).as_fixed_point()
    if kind == "fredholm":
        return fredholm(draw(st.integers(2, 12)),
                        draw(st.sampled_from((0.5, 0.9))))
    if kind == "pde":
        return reaction_diffusion(draw(st.integers(3, 5)))
    if kind == "pagerank":
        return pagerank(clustered_graph(draw(st.integers(4, 24)),
                                        draw(st.integers(2, 4)), seed))
    expanding = np.array([3.0, 4.0])
    return FixedPointProblem(2, lambda u: expanding * u + 1.0, np.ones(2))


class TestRunContract:
    @given(base=contract_problems(), method=st.sampled_from(METHOD_NAMES),
           width=st.integers(1, 4), warmup=st.integers(0, 2),
           tol=st.sampled_from((1e-4, 1e-8, 1e-13)),
           max_cycles=st.integers(1, 25),
           poison_after=st.none() | st.integers(0, 60))
    @settings(max_examples=150, deadline=None)
    def test_every_run_ends_in_an_accounted_report(
            self, base, method, width, warmup, tol, max_cycles,
            poison_after):
        """A run returns a report with a named reason whose count matches
        a counting wrapper's, one history entry per cycle, and no
        RuntimeWarning; ``poison_after`` makes the map return inf from
        the call after that many."""
        if method in TEST_BASIS_METHODS:
            width = min(width, base.dimension)
        calls = {"n": 0}

        def mapping(u):
            calls["n"] += 1
            image = base.mapping(u)
            if poison_after is not None and calls["n"] > poison_after:
                return np.full_like(image, np.inf)
            return image

        problem = FixedPointProblem(base.dimension, mapping,
                                    base.initial_guess)
        config = CycleConfig(method=method, width_m=width, warmup_p=warmup,
                             tol=tol, max_cycles=max_cycles)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run_cycles(problem, config)
        assert isinstance(report, RunReport)
        assert report.reason in REASONS
        assert report.iterations == calls["n"]
        assert len(report.residual_history) == report.cycles
        # the divergence rule: a stop check ends the run once its residual
        # exceeds the starting one and DIVERGENCE_FACTOR times the best an
        # earlier check saw, and at no check before
        checks = (1.0,) + report.residual_history
        for k in range(1, len(checks)):
            assert checks[k] <= max(1.0, DIVERGENCE_FACTOR * min(checks[:k]))
        if report.reason == "diverged":
            assert report.final_residual > \
                max(1.0, DIVERGENCE_FACTOR * min(checks))
        elif report.reason == "nonfinite":
            assert report.final_residual == np.inf
        else:
            assert np.isfinite(report.final_residual)
        if poison_after is not None and calls["n"] > poison_after:
            # the first poisoned value ends the run
            assert report.reason == "nonfinite"
            assert calls["n"] == poison_after + 1


def test_empty_test_vectors_are_rejected():
    with pytest.raises(ValueError, match="test_vectors must be nonempty"):
        CycleConfig("mmpe", test_vectors=np.zeros((3, 0)))
