"""Vector transform tests: projected solves, recursions, and mixing steps."""

import numpy as np
import pytest

from accelerant.core import BreakdownError, SequenceWindow
from accelerant.linalg import RankDeficiencyError, qr_mgs
from accelerant import vector
from accelerant.problems import (
    fredholm,
    linear_iteration_generator,
    reaction_diffusion,
)
from accelerant.scalar import (
    BasisFamily,
    NonexistenceError,
    aitken_step,
    e_algorithm_determinant,
    epsilon_scalar,
    shanks_oracle,
)
from accelerant.vector import (
    AndersonState,
    VpeMethod,
    anderson_step,
    generalized_residual,
    h_algorithm,
    sbeta,
    stea,
    tea,
    vea,
    vpe_extrapolate,
    vpe_oracle,
)

import _oracles as oracles

ALL_METHODS = [VpeMethod.mpe(), VpeMethod.rre(), VpeMethod.mmpe()]


def linear_iteration(b_matrix, offset, start, count):
    """Terms of s_{j+1} = B s_j + offset from s_0 = start."""
    terms = [np.asarray(start, dtype=float)]
    for _ in range(count - 1):
        terms.append(b_matrix @ terms[-1] + offset)
    return terms


def contraction(rng, n, radius):
    """Random dense matrix rescaled to the requested spectral radius."""
    m = rng.standard_normal((n, n))
    return radius * m / max(abs(np.linalg.eigvals(m)))


def diag_example():
    """Two-dimensional affine iteration with fixed point (1, 1)."""
    b_matrix = np.diag([0.5, -0.3])
    offset = np.array([0.5, 1.3])
    return b_matrix, offset, np.array([1.0, 1.0])


def kernel_sequence(limit, modes, count):
    """s_n = limit + sum lam_i^n c_i for (lam_i, c_i) mode pairs."""
    return [limit + sum(lam ** n * c for lam, c in modes) for n in range(count)]


def random_window(rng, dim, count):
    return SequenceWindow([rng.standard_normal(dim) for _ in range(count)])


SCALAR_TERMS = [1.0, 0.5, 0.3, 0.26, 0.251]

SCALAR_CALLS = {
    "rre": lambda w, k: vpe_extrapolate(w, VpeMethod.rre(), k).value,
    "mpe": lambda w, k: vpe_extrapolate(w, VpeMethod.mpe(), k).value,
    "mmpe": lambda w, k: vpe_extrapolate(w, VpeMethod.mmpe(), k).value,
    "oracle": lambda w, k: vpe_oracle(w, VpeMethod.rre(), k),
    "sbeta": lambda w, k: sbeta(w, [np.ones(1)] * max(k, 1)).value,
    "tea": lambda w, k: tea(w, np.ones(1), k).value,
    "stea": lambda w, k: stea(w, np.ones(1), k, 1).value,
}


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("name", sorted(SCALAR_CALLS))
def test_scalar_window_runs_as_one_component_vectors(name, k):
    call = SCALAR_CALLS[name]
    scalar = np.asarray(call(SequenceWindow(SCALAR_TERMS), k))
    vector = call(SequenceWindow([np.array([t]) for t in SCALAR_TERMS]), k)
    assert scalar.shape == (1,)
    assert scalar.tobytes() == vector.tobytes()


# ---------------------------------------------------------------------------
# the difference blocks against the plain route, bit for bit


def _outcome(call):
    """A call's value as bytes, or its exception's type and message."""
    try:
        return np.asarray(call()).tobytes()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _plain_route_windows(rng, count):
    """Random windows of 2k + 2 terms, N from 1 to 3000, k from 0 to 6;
    every fourth with k >= 1 is narrower than k + 1."""
    for i in range(count):
        k = int(rng.integers(0, 7))
        if i % 4 == 0 and k:
            dim = int(rng.integers(1, k + 1))
        else:
            dim = int(rng.choice([2, 7, 64, 513, 3000]))
        terms = rng.standard_normal((2 * k + 2, dim)) * rng.uniform(1e-3, 1e3)
        yield SequenceWindow(terms, int(rng.integers(-3, 4))), k


def test_difference_blocks_and_their_transforms_match_the_plain_route():
    """The blocks equal the row differences' ``.T.copy()`` copies bit for
    bit and in layout, and so do the rre, mpe, mmpe and tea values built
    on either; stea's in-place lift equals its out-of-place one.  Each
    transform reaches a value at some k >= 1 on windows both wider and
    narrower than k + 1."""
    rng = np.random.default_rng(20261020)
    reached = set()
    for window, k in _plain_route_windows(rng, 48):
        n, dim = window.base_index, window.dimension
        s_rows = window.rows(n, 2 * k + 2)
        for got, expected in zip(vector._difference_blocks(s_rows),
                                 oracles.difference_blocks_from_rows(s_rows)):
            assert got.flags.c_contiguous and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
        y = rng.standard_normal(dim)
        basis = rng.standard_normal((dim, k)) if k else None
        calls = {
            "rre": lambda: vpe_extrapolate(window, VpeMethod.rre(), k).value,
            "mpe": lambda: vpe_extrapolate(window, VpeMethod.mpe(), k).value,
            "mmpe": lambda: vpe_extrapolate(window, VpeMethod.mmpe(basis),
                                            k).value,
            "tea": lambda: tea(window, y, k).value,
            "oracle": lambda: vpe_oracle(window, VpeMethod.rre(), k)}
        got = {name: _outcome(call) for name, call in calls.items()}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vector, "_difference_blocks",
                          oracles.difference_blocks_from_rows)
            assert got == {name: _outcome(call)
                           for name, call in calls.items()}
        for variant in (1, 2):
            got[f"stea{variant}"] = _outcome(
                lambda: stea(window, y, k, variant).value)
            assert got[f"stea{variant}"] == _outcome(
                lambda: oracles.stea_out_of_place(window, y, k, variant))
        if k:
            reached |= {(name, dim < k + 1) for name, outcome in got.items()
                        if isinstance(outcome, bytes)}
    names = ("rre", "mpe", "mmpe", "tea", "oracle", "stea1", "stea2")
    assert reached == {(name, narrow) for name in names
                       for narrow in (False, True)}


def test_stea_pairings_match_the_column_route_bit_for_bit():
    """stea pairs y with its terms by one vecdot against a strided copy of
    y; each pairing equals the dot product with a column of the terms'
    N x (2k+1) C-order copy bit for bit, for N from 1 to 20000 and terms
    and weights scaled from 1e-5 to 1e5."""
    rng = np.random.default_rng(20261021)
    seen = []

    def recording_epsilon(pairings, **options):
        seen.append(pairings)
        return epsilon_scalar(pairings, **options)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vector, "epsilon_scalar", recording_epsilon)
        for dim in (1, 2, 3, 17, 100, 1001, 6400, 20000):
            for _ in range(4):
                k = int(rng.integers(1, 7))
                terms = (rng.standard_normal((2 * k + 1, dim))
                         * 10.0 ** rng.uniform(-5, 5))
                window = SequenceWindow(terms, int(rng.integers(-3, 4)))
                y = rng.standard_normal(dim) * 10.0 ** rng.uniform(-5, 5)
                seen.clear()
                _outcome(lambda: stea(window, y, k, 1 + dim % 2))
                expected = oracles.stea_pairings_by_columns(
                    window.rows(window.base_index, 2 * k + 1), y)
                assert seen[0].base_index == window.base_index
                assert (np.array(seen[0].terms).tobytes()
                        == np.array(expected).tobytes())


# ---------------------------------------------------------------------------
# generalized residual


class TestGeneralizedResidual:
    def test_zero_coefficients_give_first_difference(self):
        w = SequenceWindow([np.array([0.0, 1.0]), np.array([2.0, -1.0]),
                            np.array([3.0, 0.0])])
        np.testing.assert_array_equal(generalized_residual(w, []),
                                      np.array([2.0, -2.0]))

    def test_scalar_orthogonal_coefficient_annihilates(self):
        w = SequenceWindow([1.0, 0.5, 0.3, 0.25])
        ds, d2s = 0.5 - 1.0, 0.3 - 2 * 0.5 + 1.0
        a1 = -ds * d2s / d2s**2
        assert abs(generalized_residual(w, [a1])) < 1e-14

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.kind)
    def test_linear_window_gives_true_residual(self, method):
        b_matrix, offset, _ = diag_example()
        w = SequenceWindow(linear_iteration(b_matrix, offset, np.zeros(2), 5))
        a_matrix = np.eye(2) - b_matrix
        result = vpe_extrapolate(w, method, 2)
        true_residual = offset - a_matrix @ result.value
        assert np.linalg.norm(result.residual - true_residual) < 1e-10

    def test_insufficient_terms_rejected(self):
        w = SequenceWindow([np.zeros(2), np.ones(2)])
        with pytest.raises(ValueError):
            generalized_residual(w, [0.5])

    def test_window_one_term_short_names_the_terms_it_needs(self):
        # two coefficients read s_0 .. s_3: three terms are one short
        w = SequenceWindow([np.zeros(2), np.ones(2), np.full(2, 1.5)])
        with pytest.raises(ValueError, match="need terms 0..3 inside 0..2"):
            generalized_residual(w, [0.5, 0.25])


# ---------------------------------------------------------------------------
# polynomial extrapolation


class TestVpeExtrapolate:
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.kind)
    def test_order_zero_returns_pilot(self, method):
        w = SequenceWindow([np.array([3.0, -1.0]), np.array([2.0, 0.0])])
        result = vpe_extrapolate(w, method, 0)
        np.testing.assert_array_equal(result.value, np.array([3.0, -1.0]))
        np.testing.assert_array_equal(result.gamma, np.ones(1))
        assert result.order_k == 0

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.kind)
    def test_finite_termination_two_modes(self, method):
        b_matrix, offset, solution = diag_example()
        w = SequenceWindow(linear_iteration(b_matrix, offset, np.zeros(2), 4))
        result = vpe_extrapolate(w, method, 2)
        assert np.linalg.norm(result.value - solution) < 1e-10

    def test_single_mode_matched_test_vector(self):
        limit = np.array([2.0, -1.0, 0.5])
        c = np.array([1.0, 0.4, -0.7])
        w = SequenceWindow(kernel_sequence(limit, [(0.6, c)], 3))
        result = vpe_extrapolate(w, VpeMethod.mmpe(c.reshape(-1, 1)), 1)
        assert np.linalg.norm(result.value - limit) < 1e-12

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_convex_combination(self, method, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(5):
            w = random_window(rng, 6, k + 2)
            result = vpe_extrapolate(w, method, k)
            assert result.order_k == k
            assert abs(result.gamma.sum() - 1.0) <= 1e-12
            stacked = np.column_stack([w.term(j) for j in range(k + 1)])
            recombined = stacked @ result.gamma
            scale = max(1.0, float(np.abs(stacked).max()))
            assert np.linalg.norm(recombined - result.value) <= 1e-10 * scale

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_orthogonality_of_residual(self, method, k):
        rng = np.random.default_rng(17 * k + 1)
        w = random_window(rng, 8, k + 2)
        result = vpe_extrapolate(w, method, k)
        stacked = w.rows(w.base_index, len(w)).T
        d1 = stacked[:, 1:] - stacked[:, :-1]
        d2 = d1[:, 1:] - d1[:, :-1]
        if method.kind == "rre":
            test_space = d2[:, :k]
        elif method.kind == "mpe":
            test_space = d1[:, :k]
        else:
            test_space = np.eye(8)[:, :k]
        bound = 1e-9 * max(np.linalg.norm(result.residual), 1.0) \
            * np.linalg.norm(test_space)
        assert np.linalg.norm(test_space.T @ result.residual) <= bound

    def test_mpe_nonexistence_when_weights_cancel(self):
        s0 = np.zeros(2)
        s1 = np.array([1.0, 0.0])      # ds_0 = (1, 0)
        s2 = s1 + np.array([1.0, 5.0])  # ds_1 projects to -1 on ds_0
        w = SequenceWindow([s0, s1, s2])
        with pytest.raises(NonexistenceError):
            vpe_extrapolate(w, VpeMethod.mpe(), 1)

    def test_mmpe_nonexistence_on_orthogonal_test_vector(self):
        w = SequenceWindow([np.zeros(2), np.array([1.0, 0.0]),
                            np.array([1.5, 0.0])])
        y = np.array([[0.0], [1.0]])   # orthogonal to d2s_0
        with pytest.raises(NonexistenceError):
            vpe_extrapolate(w, VpeMethod.mmpe(y), 1)

    def test_pilot_index_offset(self):
        b_matrix, offset, solution = diag_example()
        terms = linear_iteration(b_matrix, offset, np.zeros(2), 7)
        w = SequenceWindow(terms, base_index=3)
        result = vpe_extrapolate(SequenceWindow(w.rows(5, 4), base_index=5),
                                 VpeMethod.rre(), 2)
        assert result.pilot_index_n == 5
        assert np.linalg.norm(result.value - solution) < 1e-10

    def test_rank_deficient_past_termination_still_solves(self):
        b_matrix = np.diag([0.5, 0.5, 0.5, -0.3, -0.3, -0.3])
        rng = np.random.default_rng(55)
        offset = rng.standard_normal(6)
        solution = np.linalg.solve(np.eye(6) - b_matrix, offset)
        w = SequenceWindow(linear_iteration(b_matrix, offset, np.zeros(6), 6))
        result = vpe_extrapolate(w, VpeMethod.rre(), 3)
        assert result.diagnostics.get("rank_deficient") == 1.0
        assert np.linalg.norm(result.value - solution) < 1e-9

    def test_negative_order_rejected(self):
        w = SequenceWindow([np.zeros(2), np.ones(2)])
        with pytest.raises(ValueError):
            vpe_extrapolate(w, VpeMethod.rre(), -1)

    def test_method_kind_validation(self):
        with pytest.raises(ValueError):
            VpeMethod("newton")
        with pytest.raises(ValueError):
            VpeMethod("rre", test_vectors=np.eye(2))


# ---------------------------------------------------------------------------
# determinant oracle


class TestVpeOracle:
    def test_order_zero(self):
        w = SequenceWindow([np.array([4.0, 2.0]), np.ones(2)])
        np.testing.assert_array_equal(vpe_oracle(w, VpeMethod.rre(), 0),
                                      np.array([4.0, 2.0]))

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_projected_solve(self, method, k):
        rng = np.random.default_rng(900 + k)
        for _ in range(3):
            w = random_window(rng, 5, k + 2)
            direct = vpe_extrapolate(w, method, k).value
            ratio = vpe_oracle(w, method, k)
            rel = np.linalg.norm(direct - ratio) / max(1.0, np.linalg.norm(ratio))
            assert rel <= 1e-8

    def test_mpe_and_rre_differ_off_kernel(self):
        rng = np.random.default_rng(5)
        w = random_window(rng, 4, 4)
        gap = vpe_oracle(w, VpeMethod.mpe(), 2) - vpe_oracle(w, VpeMethod.rre(), 2)
        assert np.linalg.norm(gap) > 1e-6

    def test_order_cap(self):
        w = random_window(np.random.default_rng(0), 9, 9)
        with pytest.raises(ValueError):
            vpe_oracle(w, VpeMethod.rre(), 7)

    def test_singular_denominator(self):
        w = SequenceWindow([np.zeros(2), np.array([1.0, 0.0]),
                            np.array([2.0, 0.0])])
        y = np.array([[0.0], [1.0]])   # pairs to zero with every difference
        with pytest.raises(NonexistenceError):
            vpe_oracle(w, VpeMethod.mmpe(y), 1)


# ---------------------------------------------------------------------------
# coupled recursion


class TestSbeta:
    def test_depth_one_matches_projected_transform(self):
        rng = np.random.default_rng(21)
        w = random_window(rng, 5, 4)
        y1 = rng.standard_normal(5)
        recursive = sbeta(w, [y1])
        direct = vpe_extrapolate(w, VpeMethod.mmpe(y1.reshape(-1, 1)), 1)
        assert np.linalg.norm(recursive.value - direct.value) < 1e-9

    def test_depth_three_matches_projected_transform(self):
        rng = np.random.default_rng(22)
        w = random_window(rng, 6, 6)
        ys = [rng.standard_normal(6) for _ in range(3)]
        recursive = sbeta(w, ys)
        direct = vpe_extrapolate(w, VpeMethod.mmpe(np.column_stack(ys)), 3)
        rel = np.linalg.norm(recursive.value - direct.value) \
            / max(1.0, np.linalg.norm(direct.value))
        assert rel < 1e-9

    def test_kernel_member_terminates(self):
        limit = np.array([1.0, -2.0, 0.5, 3.0])
        modes = [(0.7, np.array([1.0, 0.2, -0.3, 0.1])),
                 (-0.4, np.array([0.3, 1.0, 0.2, -0.5]))]
        w = SequenceWindow(kernel_sequence(limit, modes, 5))
        ys = [np.eye(4)[:, 0], np.eye(4)[:, 1]]
        result = sbeta(w, ys)
        assert np.linalg.norm(result.value - limit) < 1e-9

    def test_constant_window_breaks_down(self):
        w = SequenceWindow([np.ones(3)] * 4)
        with pytest.raises(BreakdownError):
            sbeta(w, [np.array([1.0, 0.0, 0.0])])

    def test_window_too_short(self):
        w = SequenceWindow([np.zeros(3), np.ones(3)])
        with pytest.raises(ValueError):
            sbeta(w, [np.array([1.0, 0.0, 0.0])])


class TestHAlgorithm:
    def test_matches_componentwise_scalar_recursion(self):
        rng = np.random.default_rng(31)
        terms = [rng.standard_normal(3) for _ in range(7)]
        w = SequenceWindow(terms)
        basis = BasisFamily.geometric([0.5, -0.3, 0.2])
        table = h_algorithm(w, basis, 3, keep_full=True)
        for component in range(3):
            scalar_w = SequenceWindow([t[component] for t in terms])
            scalar_t = __import__("accelerant.scalar", fromlist=["e_algorithm"]) \
                .e_algorithm(scalar_w, basis, 3, keep_full=True)
            for k in range(4):
                for n in scalar_t.column(k):
                    vec_entry = table.get_entry(k, n)
                    assert abs(vec_entry[component]
                               - scalar_t.get_entry(k, n)) < 1e-10

    def test_difference_pairings_reproduce_coupled_recursion(self):
        rng = np.random.default_rng(32)
        terms = [rng.standard_normal(4) for _ in range(7)]
        # auxiliary values are consumed up to the window's last index, so the
        # difference list must extend one term past the window itself
        w = SequenceWindow(terms[:-1])
        ys = [rng.standard_normal(4) for _ in range(2)]
        d1 = [terms[j + 1] - terms[j] for j in range(6)]

        def pairing(i, n):
            return float(ys[i - 1] @ d1[n])

        table = h_algorithm(w, BasisFamily(pairing), 2, keep_full=True)
        recursive = sbeta(w, ys)
        direct = vpe_extrapolate(w, VpeMethod.mmpe(np.column_stack(ys)), 2)
        assert np.linalg.norm(table.get_entry(2, 0) - recursive.value) < 1e-9
        assert np.linalg.norm(table.get_entry(2, 0) - direct.value) < 1e-9

    def test_column_zero_is_input(self):
        terms = [np.array([1.0, 2.0]), np.array([3.0, 4.0]),
                 np.array([5.0, 6.0])]
        table = h_algorithm(SequenceWindow(terms), BasisFamily.geometric([0.5]), 1)
        np.testing.assert_array_equal(table.get_entry(0, 1), terms[1])

    def test_constant_auxiliary_flags_breakdown(self):
        w = SequenceWindow([np.array([1.0, 0.0]), np.array([0.5, 0.1]),
                            np.array([0.25, 0.15])])
        table = h_algorithm(w, BasisFamily(lambda i, n: 1.0), 1)
        assert not table.has_entry(1, 0)
        assert table.is_flagged(1, 0)


MMPE_FAMILY_PROBLEMS = {
    "linear": lambda seed: linear_iteration_generator(30, 0.9, seed)
    .as_fixed_point(),
    "pde": lambda seed: reaction_diffusion(8),
    "fredholm": lambda seed: fredholm(40, 0.5),
}


@pytest.mark.parametrize("name", sorted(MMPE_FAMILY_PROBLEMS))
def test_sbeta_and_h_match_mmpe_window_by_window(name):
    """sbeta and the cycle driver's H construction give the MMPE value.

    Each window holds m + 2 plain iterates from a seeded random start, with
    m seeded orthonormal test vectors, for seeds 0-39 and m = 1..5.  The
    gap is taken relative to ||t|| + ||s_{m+1} - s_0||, t the MMPE value;
    over all 600 windows of the three problems the worst measured was
    7.6e-13 for sbeta and 6.7e-13 for H, and no window broke down.
    """
    for seed in range(40):
        problem = MMPE_FAMILY_PROBLEMS[name](seed)
        rng = np.random.default_rng(seed)
        for m in range(1, 6):
            seq = [rng.standard_normal(problem.dimension)]
            for _ in range(m + 1):
                seq.append(problem.mapping(seq[-1]))
            seq = np.array(seq)
            y = qr_mgs(rng.standard_normal((problem.dimension, m))).q
            window = SequenceWindow(seq)
            target = vpe_extrapolate(window, VpeMethod.mmpe(y), m).value
            scale = np.linalg.norm(target) + np.linalg.norm(seq[-1] - seq[0])
            recursive = sbeta(window, [y[:, j] for j in range(m)]).value
            d1 = seq[1:] - seq[:-1]
            basis = BasisFamily(lambda i, n: float(y[:, i - 1] @ d1[n]))
            table = h_algorithm(SequenceWindow(seq[:m + 1]), basis, m)
            assert np.linalg.norm(recursive - target) <= 1e-10 * scale
            assert np.linalg.norm(table.get_entry(m, 0) - target) \
                <= 1e-10 * scale


# ---------------------------------------------------------------------------
# lozenge recursions


class TestVea:
    def test_one_dimensional_reduces_to_scalar(self):
        values = [sum(0.6 ** j for j in range(n + 1)) for n in range(7)]
        scalar_table = epsilon_scalar(SequenceWindow(values), keep_full=True)
        vector_table = vea(SequenceWindow([np.array([v]) for v in values]),
                           keep_full=True)
        for k in (2, 4):
            for n in scalar_table.column(k):
                vec = vector_table.get_entry(k, n)
                ref = scalar_table.get_entry(k, n)
                assert abs(vec[0] - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_linear_iteration_terminates(self):
        b_matrix, offset, solution = diag_example()
        w = SequenceWindow(linear_iteration(b_matrix, offset, np.zeros(2), 5))
        table = vea(w)
        assert np.linalg.norm(table.get_entry(4, 0) - solution) < 1e-9

    def test_single_mode_kernel_column_two(self):
        limit = np.array([0.5, -1.5, 2.0])
        c = np.array([1.0, 0.3, -0.2])
        w = SequenceWindow(kernel_sequence(limit, [(-0.7, c)], 5))
        table = vea(w, keep_full=True)
        for n in range(3):
            assert np.linalg.norm(table.get_entry(2, n) - limit) < 1e-11

    def test_odd_columns_never_estimates(self):
        rng = np.random.default_rng(8)
        table = vea(random_window(rng, 3, 6), keep_full=True)
        assert table.has_entry(1, 0)
        assert all(e.order_k % 2 == 0 for e in table.estimates())

    def test_constant_window_flags(self):
        table = vea(SequenceWindow([np.ones(2)] * 4))
        assert table.is_flagged(1, 0)
        np.testing.assert_array_equal(table.get_entry(0, 0), np.ones(2))


# ---------------------------------------------------------------------------
# topological transforms


class TestTea:
    def test_order_zero(self):
        w = SequenceWindow([np.array([2.0, 1.0]), np.zeros(2)])
        result = tea(w, np.array([1.0, 0.0]), 0)
        np.testing.assert_array_equal(result.value, np.array([2.0, 1.0]))

    def test_recurrence_kernel_reproduces_limit(self):
        limit = np.array([1.0, 2.0, 3.0])
        modes = [(0.6, np.array([1.0, -1.0, 0.5])),
                 (-0.4, np.array([0.2, 0.7, -0.4]))]
        w = SequenceWindow(kernel_sequence(limit, modes, 7))
        y = np.array([0.3, -1.2, 0.8])
        for n in (0, 1, 2):
            result = tea(SequenceWindow(w.rows(n, 5), base_index=n), y, 2)
            assert np.linalg.norm(result.value - limit) < 1e-9

    def test_linear_iteration_with_residual_weight(self):
        b_matrix, offset, solution = diag_example()
        terms = linear_iteration(b_matrix, offset, np.zeros(2), 5)
        r0 = offset - (np.eye(2) - b_matrix) @ terms[0]
        result = tea(SequenceWindow(terms), r0, 2)
        assert np.linalg.norm(result.value - solution) < 1e-9

    def test_singular_pairing_matrix(self):
        w = SequenceWindow([np.ones(2) * v for v in (1.0, 1.0, 1.0)])
        with pytest.raises(NonexistenceError):
            tea(w, np.array([1.0, 0.0]), 1)

    def test_coefficients_form_convex_combination(self):
        rng = np.random.default_rng(77)
        w = random_window(rng, 5, 5)
        y = rng.standard_normal(5)
        result = tea(w, y, 2)
        gamma = np.array([result.diagnostics[f"gamma_{j}"] for j in range(3)])
        assert abs(gamma.sum() - 1.0) <= 1e-12
        stacked = np.column_stack([w.term(j) for j in range(3)])
        scale = max(1.0, float(np.abs(stacked).max()))
        assert np.linalg.norm(stacked @ gamma - result.value) <= 1e-10 * scale

    def test_zero_weight_rejected(self):
        w = SequenceWindow([np.zeros(3), np.ones(3), np.full(3, 1.5)])
        with pytest.raises(ValueError, match="dual vector must be nonzero"):
            tea(w, np.zeros(3), 1)


class TestStea:
    @pytest.mark.parametrize("variant", [1, 2])
    def test_one_dimensional_reduces_to_scalar(self, variant):
        values = [sum((-1.0) ** j / (j + 1) for j in range(n + 1))
                  for n in range(5)]
        w = SequenceWindow([np.array([v]) for v in values])
        scalar_table = epsilon_scalar(SequenceWindow(values), keep_full=True)
        for k in (1, 2):
            result = stea(w, np.array([1.0]), k, variant)
            ref = scalar_table.get_entry(2 * k, 0)
            assert abs(result.value[0] - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_variant_one_matches_direct_solve(self):
        b_matrix, offset, _ = diag_example()
        terms = linear_iteration(b_matrix, offset, np.zeros(2), 5)
        w = SequenceWindow(terms)
        y = np.array([0.8, -0.6])
        for k in (1, 2):
            recursive = stea(w, y, k, 1)
            direct = tea(w, y, k)
            assert np.linalg.norm(recursive.value - direct.value) < 1e-9

    @pytest.mark.parametrize("variant", [1, 2])
    def test_kernel_member_reproduces_limit(self, variant):
        limit = np.array([1.0, 2.0, 3.0])
        modes = [(0.6, np.array([1.0, -1.0, 0.5])),
                 (-0.4, np.array([0.2, 0.7, -0.4]))]
        w = SequenceWindow(kernel_sequence(limit, modes, 5))
        result = stea(w, np.array([0.3, -1.2, 0.8]), 2, variant)
        assert np.linalg.norm(result.value - limit) < 1e-9

    def test_degenerate_pairings_break_down(self):
        terms = [np.array([float(n), 1.0, 1.0]) for n in range(5)]
        y = np.array([0.0, 1.0, -1.0])   # every pairing equals zero
        with pytest.raises(BreakdownError):
            stea(SequenceWindow(terms), y, 1, 1)

    def test_variant_validation(self):
        w = SequenceWindow([np.zeros(2), np.ones(2), np.zeros(2)])
        with pytest.raises(ValueError):
            stea(w, np.array([1.0, 0.0]), 1, 3)


# ---------------------------------------------------------------------------
# residual mixing


class TestAndersonStep:
    def test_hand_worked_affine_example(self):
        def mapping(x):
            return 0.5 * x + 1.0

        state = AndersonState.start(np.array([0.0]), depth=1, damping=1.0)
        x1, state = anderson_step(state, mapping(state.current))
        np.testing.assert_allclose(x1, [1.0])
        x2, state = anderson_step(state, mapping(state.current))
        assert state.diagnostics["theta_0"] == pytest.approx(-1.0)
        assert state.diagnostics["fbar_norm"] == pytest.approx(0.0)
        assert state.diagnostics["y_norm"] == pytest.approx(2.0)
        np.testing.assert_allclose(x2, [2.0])
        np.testing.assert_allclose(mapping(x2), x2)

    def test_full_memory_solves_affine_system(self):
        rng = np.random.default_rng(11)
        n = 4
        b_matrix = contraction(rng, n, 0.9)
        offset = rng.standard_normal(n)
        solution = np.linalg.solve(np.eye(n) - b_matrix, offset)

        state = AndersonState.start(np.zeros(n), depth=6, damping=1.0)
        x = state.current
        for _ in range(n + 1):
            x, state = anderson_step(state, b_matrix @ state.current + offset)
        assert np.linalg.norm(x - solution) < 1e-8

    def test_depth_zero_is_damped_iteration(self):
        def mapping(x):
            return np.array([0.3 * x[0] + 0.7, -0.2 * x[1] + 1.2])

        damping = 0.7
        state = AndersonState.start(np.zeros(2), depth=0, damping=damping)
        plain = np.zeros(2)
        for _ in range(4):
            x, state = anderson_step(state, mapping(state.current))
            plain = plain + damping * (mapping(plain) - plain)
            np.testing.assert_allclose(x, plain, atol=1e-14)
            assert state.residuals == ()

    @pytest.mark.parametrize("depth", [1, 3])
    def test_history_holds_one_more_iterate_than_residuals(self, depth):
        state = AndersonState.start(np.zeros(4), depth=depth)
        for step in range(1, 6):
            _, state = anderson_step(state, 0.5 * state.current + 1.0)
            assert len(state.residuals) == min(step, depth)
            assert len(state.iterates) == len(state.residuals) + 1

    def test_state_invariant_is_checked(self):
        x = np.zeros(2)
        with pytest.raises(ValueError):
            AndersonState(depth=1, damping=1.0, iterates=(x, x))
        with pytest.raises(ValueError):
            AndersonState(depth=1, damping=1.0, iterates=(x, x, x),
                          residuals=(x, x))

    def test_mixed_residual_orthogonal_to_differences(self):
        rng = np.random.default_rng(13)
        b_matrix = contraction(rng, 6, 0.8)
        offset = rng.standard_normal(6)

        state = AndersonState.start(np.zeros(6), depth=3, damping=1.0)
        history = []
        for step in range(6):
            f_current = (b_matrix @ state.current + offset) - state.current
            history.append(f_current)
            _, state = anderson_step(state,
                                     b_matrix @ state.current + offset)
            if step >= 1 and state.diagnostics["mixed_depth"] > 0:
                depth = int(state.diagnostics["mixed_depth"])
                theta = np.array([state.diagnostics[f"theta_{j}"]
                                  for j in range(depth)])
                d_f = np.column_stack([history[-depth + j] - history[-depth + j - 1]
                                       for j in range(depth)]) \
                    if depth > 1 else (history[-1] - history[-2]).reshape(-1, 1)
                recent = np.column_stack(
                    [history[-(depth - j)] - history[-(depth - j + 1)]
                     for j in range(depth)])
                mixed = history[-1] - recent @ theta
                bound = 1e-9 * max(1.0, np.linalg.norm(history[-1])) \
                    * max(1.0, np.linalg.norm(recent))
                assert np.linalg.norm(recent.T @ mixed) <= bound

    def test_schur_identity_oracle(self):
        rng = np.random.default_rng(29)
        b_matrix = contraction(rng, 5, 0.8)
        offset = rng.standard_normal(5)

        state = AndersonState.start(np.zeros(5), depth=2, damping=1.0)
        xs = [state.current.copy()]
        fs = []
        for _ in range(4):
            f_current = (b_matrix @ state.current + offset) - state.current
            fs.append(f_current)
            x_next, state = anderson_step(state,
                                          b_matrix @ state.current + offset)
            depth = int(state.diagnostics["mixed_depth"])
            if depth > 0:
                d_x = np.column_stack([xs[-depth + j] - xs[-depth + j - 1]
                                       for j in range(depth)]) \
                    if depth > 1 else (xs[-1] - xs[-2]).reshape(-1, 1)
                d_x = np.column_stack(
                    [xs[-(depth - j)] - xs[-(depth - j + 1)]
                     for j in range(depth)])
                d_f = np.column_stack(
                    [fs[-(depth - j)] - fs[-(depth - j + 1)]
                     for j in range(depth)])
                gram = d_f.T @ d_f
                theta_star = np.linalg.solve(gram, d_f.T @ fs[-1])
                y_star = xs[-1] - d_x @ theta_star
                theta = np.array([state.diagnostics[f"theta_{j}"]
                                  for j in range(depth)])
                y_direct = xs[-1] - d_x @ theta
                assert np.linalg.norm(y_direct - y_star) <= \
                    1e-8 * max(1.0, np.linalg.norm(y_star))
            xs.append(x_next.copy())

    def test_stagnant_residuals_shed_columns(self):
        shift = np.array([0.0, 0.5])

        state = AndersonState.start(np.zeros(2), depth=2, damping=1.0)
        for _ in range(3):
            x, state = anderson_step(state, state.current + shift)
        assert state.diagnostics["columns_dropped"] >= 1.0
        assert state.diagnostics["mixed_depth"] == 0.0
        np.testing.assert_allclose(x, 3 * shift)

    def test_history_deeper_than_dimension_sheds_oldest_columns(self):
        # more differences than dimensions make a wide fit, which sheds
        # columns like any rank-deficient one, down to the newest N: each
        # step is the step of a history of depth N
        def g(x):
            return np.cos(x) + np.array([0.0, 0.5])

        deep = AndersonState.start(np.zeros(2), depth=5)
        shallow = AndersonState.start(np.zeros(2), depth=2)
        for _ in range(8):
            held = len(deep.residuals)
            x_deep, deep = anderson_step(deep, g(deep.current))
            x_shallow, shallow = anderson_step(shallow, g(shallow.current))
            assert x_deep.tobytes() == x_shallow.tobytes()
            assert deep.diagnostics["mixed_depth"] == min(held, 2)
            assert deep.diagnostics["columns_dropped"] == max(0, held - 2)
            for j in range(min(held, 2)):
                key = f"theta_{j}"
                assert deep.diagnostics[key] == shallow.diagnostics[key]
        assert len(deep.residuals) == 5

    def test_state_validation(self):
        with pytest.raises(ValueError):
            AndersonState.start(np.zeros(2), depth=-1)
        with pytest.raises(ValueError):
            AndersonState.start(np.zeros(2), depth=1, damping=0.0)
        state = AndersonState.start(np.zeros(2), depth=1)
        with pytest.raises(ValueError):
            anderson_step(state, np.zeros(3))

    def test_direct_construction_checks_every_array(self):
        x = np.zeros(2)
        with pytest.raises(ValueError, match="iterates must be finite"):
            AndersonState(depth=1, damping=1.0,
                          iterates=(np.array([np.nan, 0.0]),))
        with pytest.raises(ValueError, match="residuals must be finite"):
            AndersonState(depth=1, damping=1.0, iterates=(x, x),
                          residuals=(np.array([0.0, np.inf]),))

    def test_step_freezes_each_new_array_once(self):
        rng = np.random.default_rng(31)
        b_matrix = contraction(rng, 6, 0.8)
        offset = rng.standard_normal(6)
        for depth in (0, 1, 3):
            state = AndersonState.start(np.zeros(6), depth=depth)
            for _ in range(7):
                before = state
                x_next, state = anderson_step(
                    state, b_matrix @ state.current + offset)
                # the carried arrays are the previous state's own objects
                for new, old in ((state.iterates, before.iterates),
                                 (state.residuals, before.residuals)):
                    carried = max(0, len(new) - 1)
                    assert all(a is b for a, b in
                               zip(new[:carried], old[len(old) - carried:]))
                np.testing.assert_array_equal(state.current, x_next)
                for array in state.iterates + state.residuals:
                    assert not array.flags.writeable
                    assert np.isfinite(array).all()

    def test_nonfinite_map_value_is_rejected(self):
        state = AndersonState.start(np.zeros(2), depth=2)
        with pytest.raises(ValueError, match="finite"):
            anderson_step(state, np.array([np.nan, 1.0]))
        _, state = anderson_step(state, np.ones(2))
        with pytest.raises(ValueError, match="finite"):
            anderson_step(state, np.array([np.inf, 1.0]))


# ---------------------------------------------------------------------------
# residual-angle relations and solver equivalences on affine iterations


def affine_harness(seed, n, radius=0.85):
    rng = np.random.default_rng(seed)
    b_matrix = contraction(rng, n, radius)
    offset = rng.standard_normal(n)
    a_matrix = np.eye(n) - b_matrix
    terms = linear_iteration(b_matrix, offset, np.zeros(n), 2 * 6 + 2)
    r0 = offset.copy()                      # residual of the zero start
    return a_matrix, offset, terms, r0


def cos_between(u, v):
    return abs(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))


class TestResidualAngles:
    @pytest.mark.parametrize("n,k", [(8, 1), (8, 3), (30, 2), (30, 5)])
    def test_least_squares_identity(self, n, k):
        a_matrix, offset, terms, r0 = affine_harness(40 + n + k, n)
        w = SequenceWindow(terms)
        result = vpe_extrapolate(w, VpeMethod.rre(), k)
        residual = offset - a_matrix @ result.value

        d1 = np.column_stack([terms[j + 1] - terms[j] for j in range(k)])
        q, _ = np.linalg.qr(a_matrix @ d1)
        cos_theta = np.linalg.norm(q.T @ r0) / np.linalg.norm(r0)
        lhs = np.linalg.norm(residual) ** 2
        rhs = (1.0 - cos_theta**2) * np.linalg.norm(r0) ** 2
        assert abs(lhs - rhs) <= 1e-8 * np.linalg.norm(r0) ** 2

    @pytest.mark.parametrize("n,k", [(8, 2), (30, 3), (30, 5)])
    def test_annihilation_tangent_identity(self, n, k):
        a_matrix, offset, terms, r0 = affine_harness(60 + n + k, n)
        w = SequenceWindow(terms)
        result = vpe_extrapolate(w, VpeMethod.mpe(), k)
        residual = offset - a_matrix @ result.value

        projected = r0 - residual
        cos_phi = cos_between(r0, projected)
        tan_phi = np.sqrt(1.0 - cos_phi**2) / cos_phi
        lhs = np.linalg.norm(residual) ** 2
        rhs = tan_phi**2 * np.linalg.norm(r0) ** 2
        assert abs(lhs - rhs) <= 1e-8 * max(lhs, rhs, 1e-30)

    @pytest.mark.parametrize("n,k", [(8, 2), (30, 3), (30, 5)])
    def test_least_squares_never_beaten(self, n, k):
        a_matrix, offset, terms, r0 = affine_harness(80 + n + k, n)
        w = SequenceWindow(terms)
        r_min = offset - a_matrix @ vpe_extrapolate(w, VpeMethod.rre(), k).value
        r_ann = offset - a_matrix @ vpe_extrapolate(w, VpeMethod.mpe(), k).value
        cos_phi = cos_between(r0, r0 - r_ann)
        slack = 1e-12 * np.linalg.norm(r0)
        assert np.linalg.norm(r_min) <= cos_phi * np.linalg.norm(r_ann) + slack

    @pytest.mark.parametrize("n,k", [(10, 2), (30, 4)])
    def test_projected_variant_with_residual_test_vector(self, n, k):
        a_matrix, offset, terms, r0 = affine_harness(95 + n + k, n)
        rng = np.random.default_rng(1000 + n + k)
        columns = [r0] + [rng.standard_normal(n) for _ in range(k - 1)]
        method = VpeMethod.mmpe(np.column_stack(columns))
        w = SequenceWindow(terms)
        residual = offset - a_matrix @ vpe_extrapolate(w, method, k).value
        r_min = offset - a_matrix @ vpe_extrapolate(w, VpeMethod.rre(), k).value

        projected = r0 - residual
        cos_psi = cos_between(r0, projected)
        tan_psi = np.sqrt(1.0 - cos_psi**2) / cos_psi
        lhs = np.linalg.norm(residual) ** 2
        rhs = tan_psi**2 * np.linalg.norm(r0) ** 2
        assert abs(lhs - rhs) <= 1e-8 * max(lhs, rhs, 1e-30)
        slack = 1e-12 * np.linalg.norm(r0)
        assert np.linalg.norm(r_min) <= cos_psi * np.linalg.norm(residual) + slack

    @pytest.mark.parametrize("n,k", [(10, 2), (30, 3)])
    def test_topological_tangent_identity(self, n, k):
        a_matrix, offset, terms, r0 = affine_harness(120 + n + k, n)
        w = SequenceWindow(terms)
        t_value = tea(w, r0, k).value
        residual = offset - a_matrix @ t_value
        r_min = offset - a_matrix @ vpe_extrapolate(w, VpeMethod.rre(), k).value

        projected = r0 - residual
        cos_phi = cos_between(r0, projected)
        tan_phi = np.sqrt(1.0 - cos_phi**2) / cos_phi
        lhs = np.linalg.norm(residual)
        rhs = tan_phi * np.linalg.norm(r0)
        assert abs(lhs - rhs) <= 1e-8 * max(lhs, rhs, 1e-30)
        slack = 1e-12 * np.linalg.norm(r0)
        assert np.linalg.norm(r_min) <= cos_phi * np.linalg.norm(residual) + slack

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_topological_residual_orthogonal_to_transposed_krylov(self, k):
        a_matrix, offset, terms, r0 = affine_harness(300 + k, 12)
        w = SequenceWindow(terms)
        residual = offset - a_matrix @ tea(w, r0, k).value
        direction = r0.copy()
        for _ in range(k):
            bound = 1e-8 * np.linalg.norm(direction) \
                * max(1.0, np.linalg.norm(r0))
            assert abs(direction @ residual) <= bound
            direction = a_matrix.T @ direction

    def test_finite_termination_at_minimal_polynomial_degree(self):
        b_matrix = np.diag([0.5, 0.5, 0.5, -0.3, -0.3, -0.3])
        rng = np.random.default_rng(71)
        offset = rng.standard_normal(6)
        a_matrix = np.eye(6) - b_matrix
        solution = np.linalg.solve(a_matrix, offset)
        terms = linear_iteration(b_matrix, offset, np.zeros(6), 6)
        w = SequenceWindow(terms)
        result = vpe_extrapolate(w, VpeMethod.rre(), 2)
        assert np.linalg.norm(result.value - solution) < 1e-10
        assert np.linalg.norm(offset - a_matrix @ result.value) < \
            1e-10 * np.linalg.norm(offset)


# One input per path of the one-shot transforms that raise on breakdown:
# call, message, order_k, index_n, denominator, scale.
@pytest.mark.parametrize("call, message", [
    (lambda w: tea(w, [1.0, 0.0], 0),
     "dual vector dimension does not match the sequence"),
    (lambda w: vpe_extrapolate(w, VpeMethod.mmpe(np.ones((2, 1))), 0),
     r"test_vectors must be 3 x >= 0, got \(2, 1\)"),
    (lambda w: vpe_oracle(w, VpeMethod.mmpe(np.ones((2, 1))), 0),
     r"test_vectors must be 3 x >= 0, got \(2, 1\)"),
    (lambda w: sbeta(w, [[1.0, 0.0]]),
     "test vector dimension does not match the sequence"),
], ids=["tea_order_0", "vpe_mmpe_order_0", "vpe_oracle_mmpe_order_0",
        "sbeta"])
def test_test_vectors_of_the_wrong_dimension_are_rejected(call, message):
    # order 0 returns the pilot term, but only after the dimension check
    window = SequenceWindow(np.arange(18.0).reshape(6, 3) ** 2)
    with pytest.raises(ValueError, match=message):
        call(window)


ONE_SHOT_BREAKDOWNS = {
    "aitken_step": (
        lambda: aitken_step(1.0, 2.0, 3.0),
        "second difference vanishes; delta-squared step undefined",
        1, None, 0.0, 1.0),
    "shanks_oracle": (
        lambda: shanks_oracle(SequenceWindow([2.0] * 5, base_index=3), 2),
        "denominator determinant is negligible at order 2", 2, 3, 0.0, 0.0),
    "e_algorithm_determinant": (
        # g_i(n) = i: the denominator's rows 1 and i are proportional
        lambda: e_algorithm_determinant(
            SequenceWindow([1.0, 2.0, 4.0, 7.0]),
            BasisFamily(lambda i, n: float(i)), 2, 1),
        "denominator determinant is negligible at order 2", 2, 1, 0.0,
        pytest.approx(np.sqrt(108.0))),
    "sbeta_zero_pairing": (
        lambda: sbeta(SequenceWindow([[n, 1.0, 1.0] for n in range(4)],
                                     base_index=2), [[0.0, 1.0, -1.0]]),
        "test-vector pairing vanishes at level 1", 1, 2, 0.0,
        pytest.approx(np.sqrt(2.0))),
    "sbeta_unit_ratio": (
        lambda: sbeta(SequenceWindow([[n, n, 0.0] for n in range(4)]),
                      [[1.0, 0.0, 0.0]]),
        "unit pairing ratio at level 1", 1, 0, 0.0, 1.0),
    "stea_unavailable": (
        # constant pairings: column 1 holds no valid entry, the table ends
        lambda: stea(SequenceWindow([[1.0, n] for n in range(3)]),
                     [1.0, 0.0], 1, 1),
        "tableau entry (2, 0) is not stored", 2, 0, 0.0, 0.0),
    "stea_invalid_after_breakdown": (
        # z_0 = z_1 flags e_1^(4), and e_2^(4) reads it
        lambda: stea(SequenceWindow([[z, 0.0] for z in (1.0, 1.0, 2.0, 4.0, 7.0)],
                                    base_index=4), [1.0, 0.0], 2, 2),
        "tableau entry (2, 4) is invalid after a breakdown", 2, 4, 0.0, 0.0),
}


def test_table_read_past_its_end_is_a_breakdown():
    # equal terms: column 1 holds no valid entry, so the table ends there
    table = vea(SequenceWindow([np.ones(2)] * 3))
    with pytest.raises(BreakdownError) as raised:
        table.get_entry(2, 0)
    assert (raised.value.order_k, raised.value.index_n) == (2, 0)


def test_singular_blocks_are_breakdowns():
    w = SequenceWindow([np.zeros(2), np.array([1.0, 0.0]),
                        np.array([1.5, 0.0])])
    with pytest.raises(BreakdownError) as raised:
        vpe_extrapolate(w, VpeMethod.mmpe(np.array([[0.0], [1.0]])), 1)
    assert type(raised.value) is NonexistenceError
    with pytest.raises(BreakdownError) as raised:
        qr_mgs(np.ones((4, 2)))
    assert type(raised.value) is RankDeficiencyError
    assert raised.value.column == 1


@pytest.mark.parametrize("case", sorted(ONE_SHOT_BREAKDOWNS))
def test_one_shot_breakdown_error_fields(case):
    call, message, order_k, index_n, denominator, scale = \
        ONE_SHOT_BREAKDOWNS[case]
    with pytest.raises(BreakdownError) as raised:
        call()
    exc = raised.value
    assert type(exc) is BreakdownError
    assert str(exc) == message
    assert (exc.order_k, exc.index_n) == (order_k, index_n)
    assert exc.denominator == denominator
    assert exc.scale == scale


_WINDOW = SequenceWindow([np.zeros(2), np.ones(2), np.full(2, 1.5),
                          np.full(2, 1.75), np.full(2, 1.875)])

INPUT_CHECKS = {
    "vpe-empty-test-vectors": (
        lambda: VpeMethod("mmpe", np.zeros((2, 0))),
        "test_vectors must be nonempty"),
    "sbeta-without-test-vectors": (lambda: sbeta(_WINDOW, []),
                                   "need at least one test vector"),
    "vea-two-terms": (lambda: vea(SequenceWindow([np.zeros(2), np.ones(2)])),
                      "need at least three terms"),
    "tea-negative-order": (lambda: tea(_WINDOW, np.ones(2), -1),
                           "order k must be nonnegative"),
    "stea-negative-order": (lambda: stea(_WINDOW, np.ones(2), -1, 2),
                            "order k must be nonnegative"),
    "anderson-empty-iterate": (
        lambda: AndersonState(depth=1, damping=1.0, iterates=(np.zeros(0),)),
        "at least one nonempty iterate"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_check_raises(case):
    call, match = INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=match):
        call()
