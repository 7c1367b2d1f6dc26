"""End-to-end acceptance checks for the assembled package.

One test per shipped guarantee, so ``pytest -v`` prints a single
pass/fail line for each:

 1. integral-equation benchmark: plain substitution count, accelerated
    term budget, residual ordering, wall time
 2. grid relaxation: every cycling method beats plain iteration by 3x
 3. ranking: componentwise Aitken beats the plain power method
 4. finite termination of the polynomial/topological family at the
    minimal degree of the iteration matrix
 5. dual-route equivalences between fast code paths and slow oracles
 6. lozenge-table entries on power-series partial sums match rational
    interpolant values
 7. residual-angle identities and the minimal-residual cross-check
 8. extrapolated regularization stagnates where plain truncation blows up
 9. structural invariants: kernel exactness, convexity, orthogonality,
    filter normalization, simplex preservation
"""

import math
import time

import numpy as np
import pytest

from accelerant.cli import _run_componentwise, _run_picard
from accelerant.core import BreakdownError, SequenceWindow
from accelerant.driver import CycleConfig, run_cycles
from accelerant.illposed import (
    TsvdSequence,
    error_optimal_index,
    rre_tsvd,
    select_truncation_index,
    tsvd_solution,
)
from accelerant.linalg import gmres_oracle, qr_mgs
from accelerant.problems import (
    clustered_graph,
    fredholm,
    illposed_synthetic,
    pagerank,
    reaction_diffusion,
    series_generator,
)
from accelerant.scalar import (
    BasisFamily,
    NodeSequence,
    NonexistenceError,
    aitken_step,
    e_algorithm,
    e_algorithm_determinant,
    epsilon_scalar,
    pade_approximant,
    rho,
    richardson_table,
    shanks_oracle,
    theta,
)
from accelerant.vector import (
    AndersonState,
    VpeMethod,
    anderson_step,
    stea,
    tea,
    vea,
    vpe_extrapolate,
    vpe_oracle,
)


def _l2(z):
    return float(np.linalg.norm(z))


def contraction(rng, n, radius):
    m = rng.standard_normal((n, n))
    return radius * m / max(abs(np.linalg.eigvals(m)))


def linear_iteration(b_matrix, offset, start, count):
    terms = [np.asarray(start, dtype=float)]
    for _ in range(count - 1):
        terms.append(b_matrix @ terms[-1] + offset)
    return terms


def affine_harness(seed, n, radius=0.85, count=14):
    rng = np.random.default_rng(seed)
    b_matrix = contraction(rng, n, radius)
    offset = rng.standard_normal(n)
    a_matrix = np.eye(n) - b_matrix
    terms = linear_iteration(b_matrix, offset, np.zeros(n), count)
    return a_matrix, offset, terms, offset.copy()


def cos_between(u, v):
    return abs(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))


def damped_scalar(rng, length):
    return np.cumsum(rng.standard_normal(length) * 0.7 ** np.arange(length))


# ---------------------------------------------------------------------------
# 1. integral-equation benchmark


def test_criterion_1_integral_equation_benchmark():
    start = time.perf_counter()
    problem = fredholm(500, 0.5)
    picard_evals, picard_res, picard_status, _ = _run_picard(
        problem, 1e-6, 2000, False)
    eps_evals, eps_res, eps_status, _ = _run_componentwise(
        problem, 1e-6, 200, "epsilon", False)
    elapsed = time.perf_counter() - start

    failures = []
    if picard_status != "converged":
        failures.append(f"plain substitution did not converge "
                        f"(status {picard_status})")
    elif not 56 <= picard_evals <= 66:
        failures.append(f"plain substitution used {picard_evals} evaluations, "
                        f"outside the expected 61 +/- 5")
    if eps_status != "converged" or eps_evals > 20:
        failures.append(f"lozenge acceleration needed {eps_evals} terms "
                        f"(budget 20, status {eps_status})")
    if not eps_res <= picard_res:
        failures.append(f"accelerated final residual {eps_res:.3e} above the "
                        f"plain one {picard_res:.3e}")
    if not elapsed < 30.0:
        failures.append(f"benchmark took {elapsed:.1f} s (budget 30 s)")
    assert not failures, "; ".join(failures)


# ---------------------------------------------------------------------------
# 2. grid relaxation speedup


def test_criterion_2_grid_relaxation_speedup():
    picard_evals, _, picard_status, _ = _run_picard(
        reaction_diffusion(80), 1e-6, 30000, False)
    assert picard_status == "converged", "plain relaxation did not converge"

    dimension = reaction_diffusion(80).dimension
    projections = qr_mgs(
        np.random.default_rng(42).standard_normal((dimension, 5))).q
    for method in ("rre", "mpe", "mmpe", "tea", "anderson"):
        config = CycleConfig(
            method=method,
            width_m=5,
            warmup_p=20 if method == "mmpe" else 0,
            tol=1e-6,
            max_cycles=1000,
            test_vectors=projections if method == "mmpe" else None,
        )
        begin = time.perf_counter()
        report = run_cycles(reaction_diffusion(80), config)
        seconds = time.perf_counter() - begin
        assert report.reason == "converged", \
            f"{method} stopped with reason {report.reason!r}"
        assert picard_evals >= 3 * report.iterations, \
            (f"{method} used {report.iterations} evaluations, plain iteration "
             f"{picard_evals}: speedup below 3x")
        assert seconds < 120.0, f"{method} took {seconds:.1f} s (budget 120 s)"


# ---------------------------------------------------------------------------
# 3. ranking acceleration


def test_criterion_3_ranking_acceleration():
    start = time.perf_counter()
    graph = clustered_graph(5000, 8, 42)
    power_evals, _, power_status, power_vec = _run_picard(
        pagerank(graph, 0.85), 1e-6, 5000, True)
    acc_evals, _, acc_status, acc_vec = _run_componentwise(
        pagerank(graph, 0.85), 1e-6, 5000, "aitken", True)
    elapsed = time.perf_counter() - start

    assert power_status == "converged", "plain power method did not converge"
    assert acc_status == "converged", "accelerated ranking did not converge"
    assert acc_evals <= 0.7 * power_evals, \
        (f"accelerated run used {acc_evals} iterations against {power_evals} "
         f"plain ones: ratio above 0.7")
    agreement = float(np.abs(power_vec - acc_vec).sum())
    assert agreement <= 1e-6, \
        f"rankings disagree by {agreement:.3e} in the 1-norm"
    assert elapsed < 30.0, f"benchmark took {elapsed:.1f} s (budget 30 s)"


# ---------------------------------------------------------------------------
# 4. finite termination at the minimal degree


def _minimal_degree_iteration(seed):
    """Affine iteration whose error has a known small modal degree d.

    The eigenvalue magnitudes are kept close together with alternating
    signs so that every mode stays numerically alive through the full
    table depth; well-separated spectra would let the deep columns
    converge (and break down) before the termination column is reached.
    """
    rng = np.random.default_rng(seed)
    n = 30
    d = int(rng.integers(3, 7))
    magnitudes = np.linspace(0.62, 0.88, d) + rng.uniform(-0.01, 0.01, d)
    signs = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    lam = magnitudes * signs
    reps = n // d
    diagonal = np.concatenate([np.repeat(lam, reps),
                               np.full(n - reps * d, lam[0])])
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    b_matrix = q @ np.diag(diagonal) @ q.T
    offset = rng.standard_normal(n)
    terms = linear_iteration(b_matrix, offset, np.zeros(n), 2 * d + 3)
    solution = np.linalg.solve(np.eye(n) - b_matrix, offset)
    return SequenceWindow(terms), d, offset, solution


def test_criterion_4_finite_termination():
    for seed in range(20):
        window, d, offset, solution = _minimal_degree_iteration(seed)
        scale = np.linalg.norm(solution)
        produced = {
            "least-squares": vpe_extrapolate(window, VpeMethod.rre(), d).value,
            "annihilation": vpe_extrapolate(window, VpeMethod.mpe(), d).value,
            "projected": vpe_extrapolate(window, VpeMethod.mmpe(), d).value,
            "topological": tea(window, offset, d).value,
            "lozenge": vea(window).get_entry(2 * d, 0),
        }
        for label, value in produced.items():
            rel = np.linalg.norm(np.asarray(value) - solution) / scale
            assert rel <= 1e-8, \
                (f"seed {seed}: {label} transform at order {d} missed the "
                 f"solution by {rel:.3e} relative")


# ---------------------------------------------------------------------------
# 5. dual-route oracle equivalences


def test_criterion_5_oracle_equivalences():
    # determinant-form Shanks against the even lozenge columns
    count = 0
    for seed in range(200):
        if count >= 50:
            break
        rng = np.random.default_rng(seed)
        length = 8 + seed % 2
        window = SequenceWindow(damped_scalar(rng, length))
        k = 1 + seed % 3
        n = seed % 2
        if n + 2 * k + 1 > length:
            n = 0
        try:
            det_value = shanks_oracle(window, k, n).value
            rec_value = epsilon_scalar(window,
                                       keep_full=True).get_entry(2 * k, n)
        except (BreakdownError, NonexistenceError, KeyError):
            continue
        assert abs(det_value - rec_value) <= 1e-8 * max(1.0, abs(rec_value))
        count += 1
    assert count >= 50

    # determinant-ratio vector oracle against the solver route
    count = 0
    for seed in range(200):
        if count >= 50:
            break
        rng = np.random.default_rng(1000 + seed)
        dim = 5 + seed % 3
        k = 1 + seed % 3
        b_matrix = contraction(rng, dim, 0.8)
        offset = rng.standard_normal(dim)
        window = SequenceWindow(
            linear_iteration(b_matrix, offset, np.zeros(dim), k + 3))
        kind = ("rre", "mpe", "mmpe")[seed % 3]
        if kind == "mmpe":
            method = VpeMethod.mmpe(rng.standard_normal((dim, k)))
        else:
            method = getattr(VpeMethod, kind)()
        try:
            direct = vpe_extrapolate(window, method, k).value
            oracle = vpe_oracle(window, method, k)
        except (BreakdownError, NonexistenceError):
            continue
        scale = max(1.0, _l2(direct))
        assert _l2(direct - oracle) <= 1e-8 * scale
        count += 1
    assert count >= 50

    # general recursion against its determinant form
    count = 0
    for seed in range(200):
        if count >= 50:
            break
        rng = np.random.default_rng(2000 + seed)
        window = SequenceWindow(damped_scalar(rng, 8))
        ratios = np.sort(rng.uniform(0.1, 0.9, size=3))
        if np.min(np.diff(ratios)) < 0.05:
            continue
        basis = BasisFamily.geometric(list(ratios))
        k = 2 + seed % 2
        n = seed % 2
        try:
            recursive = e_algorithm(window, basis, k_max=k,
                                    keep_full=True).get_entry(k, n)
            determinant = e_algorithm_determinant(window, basis, k, n)
        except (BreakdownError, NonexistenceError, KeyError):
            continue
        assert abs(recursive - determinant) <= \
            1e-8 * max(1.0, abs(determinant))
        count += 1
    assert count >= 50

    # closed-form extrapolated truncation against the generic route
    count = 0
    for seed in range(60):
        if count >= 50:
            break
        model = illposed_synthetic(24, 0.35, 1e-2, seed)
        sequence = TsvdSequence.from_model(model)
        k = 1 + seed % 5
        point = rre_tsvd(model, k)[k - 1][0]
        generic = vpe_extrapolate(
            SequenceWindow(sequence.iterates(k + 1)), VpeMethod.rre(), k).value
        assert _l2(point - generic) <= 1e-8 * max(1.0, _l2(point))
        count += 1
    assert count >= 50

    # the three topological routes agree wherever all are defined
    count = 0
    for seed in range(200):
        if count >= 50:
            break
        rng = np.random.default_rng(3000 + seed)
        dim = 4 + seed % 3
        d = 1 + seed % 3
        limit = rng.standard_normal(dim)
        magnitudes = np.linspace(0.3, 0.8, d) + rng.uniform(-0.02, 0.02, d)
        ratios = magnitudes * np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
        directions = rng.standard_normal((dim, d))
        weights = rng.uniform(0.5, 2.0, d) * rng.choice([-1.0, 1.0], d)
        window = SequenceWindow(
            [limit + directions @ (weights * ratios ** n)
             for n in range(2 * d + 2)])
        pairing = rng.standard_normal(dim)
        try:
            base = tea(window, pairing, d).value
            first = stea(window, pairing, d, 1).value
            second = stea(window, pairing, d, 2).value
        except (BreakdownError, NonexistenceError):
            continue
        scale = max(1.0, _l2(limit))
        spread = max(_l2(base - first), _l2(base - second),
                     _l2(base - limit))
        assert spread <= 1e-8 * scale
        count += 1
    assert count >= 50

    # the scalar-companion variant 1 also matches on generic windows
    for seed in range(25):
        rng = np.random.default_rng(4000 + seed)
        dim = 5 + seed % 3
        b_matrix = contraction(rng, dim, 0.8)
        offset = rng.standard_normal(dim)
        window = SequenceWindow(
            linear_iteration(b_matrix, offset, np.zeros(dim), 9))
        pairing = rng.standard_normal(dim)
        k = 1 + seed % 3
        base = tea(window, pairing, k).value
        first = stea(window, pairing, k, 1).value
        assert _l2(base - first) <= 1e-8 * max(1.0, _l2(base))


# ---------------------------------------------------------------------------
# 6. lozenge table against rational interpolants


def test_criterion_6_rational_table_bridge():
    cases = (
        ([1.0 / math.factorial(j) for j in range(12)], math.exp),
        ([1.0] * 12, lambda z: 1.0 / (1.0 - z)),
    )
    for coefficients, func in cases:
        for z in (0.3, -0.5):
            partials = np.cumsum(
                np.array(coefficients) * z ** np.arange(12))[:10]
            table = epsilon_scalar(SequenceWindow(partials), keep_full=True)
            for k in (1, 2, 3):
                for n in (0, 1, 2):
                    try:
                        entry = table.get_entry(2 * k, n)
                    except BreakdownError:
                        entry = None
                    try:
                        rational = pade_approximant(coefficients, n + k, k)(z)
                    except NonexistenceError:
                        rational = None
                    if entry is None or rational is None:
                        # a degenerate block: both constructions must
                        # collapse together, and only because the table
                        # already terminated at the true function value
                        assert entry is None and rational is None, \
                            (f"only one side degenerated at k={k}, n={n}, "
                             f"z={z}")
                        best = table.best_estimate().value
                        assert abs(best - func(z)) <= 1e-9 * abs(func(z))
                    else:
                        assert abs(entry - rational) <= \
                            1e-9 * max(1.0, abs(rational)), \
                            (f"table entry and rational value differ at "
                             f"k={k}, n={n}, z={z}")


# ---------------------------------------------------------------------------
# 7. residual geometry


def test_criterion_7_residual_geometry():
    grid = [(seed, n, k)
            for seed in (11, 23) for n in (12, 30) for k in (1, 2, 3, 4, 5)]

    for seed, n, k in grid:
        a_matrix, offset, terms, r0 = affine_harness(seed, n)
        window = SequenceWindow(terms)
        r0_norm = np.linalg.norm(r0)

        # least-squares residual through the principal angle
        residual = offset - a_matrix @ vpe_extrapolate(
            window, VpeMethod.rre(), k).value
        d1 = np.column_stack([terms[j + 1] - terms[j] for j in range(k)])
        q, _ = np.linalg.qr(a_matrix @ d1)
        cos_theta = np.linalg.norm(q.T @ r0) / r0_norm
        lhs = np.linalg.norm(residual) ** 2
        rhs = (1.0 - cos_theta ** 2) * r0_norm ** 2
        assert abs(lhs - rhs) <= 1e-8 * r0_norm ** 2
        r_min_norm = np.linalg.norm(residual)

        # annihilation residual through the tangent
        r_ann = offset - a_matrix @ vpe_extrapolate(
            window, VpeMethod.mpe(), k).value
        cos_phi = cos_between(r0, r0 - r_ann)
        tan_phi = np.sqrt(1.0 - cos_phi ** 2) / cos_phi
        lhs = np.linalg.norm(r_ann) ** 2
        rhs = tan_phi ** 2 * r0_norm ** 2
        assert abs(lhs - rhs) <= 1e-8 * max(lhs, rhs, 1e-30)

        # the least-squares route is never beaten
        slack = 1e-12 * r0_norm
        assert r_min_norm <= cos_phi * np.linalg.norm(r_ann) + slack

        # topological residual with the starting residual as pairing
        r_top = offset - a_matrix @ tea(window, r0, k).value
        cos_top = cos_between(r0, r0 - r_top)
        tan_top = np.sqrt(1.0 - cos_top ** 2) / cos_top
        lhs = np.linalg.norm(r_top)
        rhs = tan_top * r0_norm
        assert abs(lhs - rhs) <= 1e-8 * max(lhs, rhs, 1e-30)

        # and it never beats the least-squares route either
        assert r_min_norm <= cos_top * np.linalg.norm(r_top) + slack

    # least-squares extrapolation matches the minimal-residual solver
    n = 50
    rng = np.random.default_rng(4242)
    b_matrix = contraction(rng, n, 0.9)
    offset = rng.standard_normal(n)
    a_matrix = np.eye(n) - b_matrix
    window = SequenceWindow(
        linear_iteration(b_matrix, offset, np.zeros(n), 2 * 10 + 2))
    trace = gmres_oracle(a_matrix, offset, 10)
    for k in range(1, 11):
        residual = offset - a_matrix @ vpe_extrapolate(
            window, VpeMethod.rre(), k).value
        rel = abs(np.linalg.norm(residual) - trace.residual_norms[k]) \
            / max(trace.residual_norms[k], 1e-14)
        assert rel <= 1e-8


# ---------------------------------------------------------------------------
# 8. regularization stagnation


def test_criterion_8_regularization_stagnation():
    start = time.perf_counter()
    k_max = 40
    for seed in range(10):
        model = illposed_synthetic(200, 1.0, 1e-2, seed)
        exact = model.v @ (1.0 / np.arange(1, model.rank + 1))
        exact_norm = np.linalg.norm(exact)

        triples = rre_tsvd(model, k_max)
        extrapolated_errors = [np.linalg.norm(point - exact) / exact_norm
                               for point, _, _ in triples]
        truncated_errors = [
            np.linalg.norm(tsvd_solution(model, k) - exact) / exact_norm
            for k in range(1, k_max + 1)]
        k_opt = error_optimal_index(model, exact, k_max)

        beyond = extrapolated_errors[k_opt - 1:]
        floor = min(extrapolated_errors)
        assert max(beyond) <= 1.5 * floor, \
            (f"seed {seed}: extrapolated error grows to "
             f"{max(beyond):.3e} past the optimum (floor {floor:.3e})")
        assert max(truncated_errors) >= 10.0 * min(truncated_errors), \
            f"seed {seed}: plain truncation never blows up"

        selected = select_truncation_index([t[2] for t in triples])
        assert abs(selected - k_opt) <= 3, \
            (f"seed {seed}: stagnation pick {selected} strays from the "
             f"error-optimal level {k_opt}")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"sweep took {elapsed:.1f} s (budget 10 s)"


# ---------------------------------------------------------------------------
# 9. structural invariants


def _random_modes(rng, n_modes):
    limit = float(rng.uniform(-5, 5))
    modes = []
    magnitudes = []
    while len(modes) < n_modes:
        ratio = float(rng.uniform(-0.9, 0.9))
        if abs(ratio) < 0.05 or \
                any(abs(abs(ratio) - m) < 0.05 for m in magnitudes):
            continue
        magnitudes.append(abs(ratio))
        modes.append((float(rng.uniform(0.5, 3.0))
                      * float(rng.choice([-1, 1])), ratio))
    return limit, tuple(modes)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_criterion_9_invariant_bundle():
    rng = np.random.default_rng(9)

    # kernel exactness for every scalar transform
    for _ in range(10):
        limit, modes = _random_modes(rng, 1)
        tolerance = 1e-9 * max(1.0, abs(limit))
        w3 = series_generator("geometric_mixture", 3, limit, modes)
        w4 = series_generator("geometric_mixture", 4, limit, modes)
        assert abs(aitken_step(*w3.terms).value - limit) <= tolerance
        assert abs(theta(w4, keep_full=True).get_entry(2, 0)
                   - limit) <= tolerance

        limit, modes = _random_modes(rng, 2)
        tolerance = 1e-9 * max(1.0, abs(limit))
        w4 = series_generator("geometric_mixture", 4, limit, modes)
        w5 = series_generator("geometric_mixture", 5, limit, modes)
        assert abs(shanks_oracle(w5, k=2, n=0).value - limit) <= tolerance
        assert abs(epsilon_scalar(w5, keep_full=True).get_entry(4, 0)
                   - limit) <= tolerance
        basis = BasisFamily.geometric([ratio for _, ratio in modes])
        assert abs(e_algorithm(w4, basis, k_max=2,
                               keep_full=True).get_entry(2, 0)
                   - limit) <= tolerance

        # node-weighted recursion on a rational-in-the-nodes sequence
        a = float(rng.uniform(-3, 3))
        b = float(rng.uniform(-3, 3))
        c = float(rng.uniform(0.5, 2.5))
        xs = tuple(1.0 + 0.7 * i for i in range(8))
        rational = SequenceWindow([(a * x + b) / (x + c) for x in xs])
        table = rho(rational, NodeSequence(xs), keep_full=True)
        for _, value in table.column(2).items():
            assert abs(value - a) <= 1e-8 * max(1.0, abs(a))

        # node-polynomial extrapolation kills a linear error term
        xs = np.sort(rng.uniform(0.05, 2.0, size=4))[::-1]
        limit = float(rng.uniform(-5, 5))
        slope = float(rng.uniform(-3, 3))
        linear = SequenceWindow([limit + slope * x for x in xs])
        table = richardson_table(linear, NodeSequence(tuple(xs)),
                                 keep_full=True)
        for _, value in table.column(1).items():
            assert abs(value - limit) <= 1e-9 * max(1.0, abs(limit))

    # reciprocal sequences vanish in the node-weighted second column
    reciprocal = rho(SequenceWindow([1.0 / (n + 1) for n in range(8)]),
                     keep_full=True)
    for _, value in reciprocal.column(2).items():
        assert abs(value) <= 1e-12

    # convexity and orthogonality of the vector transforms
    for seed in range(10):
        _, _, terms, r0 = affine_harness(500 + seed, 10)
        window = SequenceWindow(terms)
        k = 2 + seed % 2
        projections = np.random.default_rng(seed).standard_normal((10, k))
        d1_full = np.column_stack(
            [terms[j + 1] - terms[j] for j in range(k + 1)])
        checks = (
            (VpeMethod.rre(), d1_full[:, 1:] - d1_full[:, :-1]),
            (VpeMethod.mpe(), d1_full[:, :k]),
            (VpeMethod.mmpe(projections), projections),
        )
        for method, test_columns in checks:
            result = vpe_extrapolate(window, method, k)
            assert abs(result.gamma.sum() - 1.0) <= 1e-12
            stacked = np.column_stack([terms[j] for j in range(k + 1)])
            scale = max(1.0, float(np.abs(stacked).max()))
            assert np.linalg.norm(stacked @ result.gamma - result.value) \
                <= 1e-10 * scale
            bound = 1e-9 * max(1.0, np.linalg.norm(result.residual)) \
                * max(1.0, np.linalg.norm(test_columns))
            assert np.linalg.norm(test_columns.T @ result.residual) <= bound

        topological = tea(window, r0, k)
        gamma = np.array([topological.diagnostics[f"gamma_{j}"]
                          for j in range(k + 1)])
        assert abs(gamma.sum() - 1.0) <= 1e-12

    # mixed residual of the bounded-history update stays orthogonal
    rng_mix = np.random.default_rng(13)
    b_matrix = contraction(rng_mix, 6, 0.8)
    offset = rng_mix.standard_normal(6)
    state = AndersonState.start(np.zeros(6), depth=3, damping=1.0)
    history = []
    for step in range(6):
        history.append((b_matrix @ state.current + offset) - state.current)
        _, state = anderson_step(state, b_matrix @ state.current + offset)
        depth = int(state.diagnostics["mixed_depth"])
        if step >= 1 and depth > 0:
            theta_mix = np.array([state.diagnostics[f"theta_{j}"]
                                  for j in range(depth)])
            recent = np.column_stack(
                [history[-(depth - j)] - history[-(depth - j + 1)]
                 for j in range(depth)])
            mixed = history[-1] - recent @ theta_mix
            bound = 1e-9 * max(1.0, np.linalg.norm(history[-1])) \
                * max(1.0, np.linalg.norm(recent))
            assert np.linalg.norm(recent.T @ mixed) <= bound

    # filter factors stay normalized, positive, and ordered
    for seed in range(5):
        model = illposed_synthetic(60, 0.5, 1e-2, seed)
        for _, factors, _ in rre_tsvd(model, 12):
            assert abs(factors.gamma.sum() - 1.0) <= 1e-12
            assert np.all(factors.gamma > 0.0)
            assert np.all(factors.alpha > 0.0)
            assert np.all(factors.alpha <= 1.0 + 1e-12)
            assert np.all(np.diff(factors.alpha) <= 1e-12)

    # the ranking operator preserves the probability simplex
    for seed in range(3):
        problem = pagerank(clustered_graph(200, 6, seed), 0.85)
        vector = np.array(problem.initial_guess, dtype=float)
        for _ in range(20):
            vector = problem.mapping(vector)
            assert abs(vector.sum() - 1.0) <= 1e-12
            assert vector.min() >= -1e-15
