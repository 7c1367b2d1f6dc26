"""Tests for truncated-SVD regularization and its extrapolated variant."""

import math

import numpy as np
import pytest

from accelerant.core import SequenceWindow
from accelerant.illposed import (
    FilterFactors,
    SvdModel,
    TsvdSequence,
    csv_report,
    error_optimal_index,
    rre_tsvd,
    select_truncation_index,
    tsvd_solution,
)
from accelerant.linalg import qr_mgs
from accelerant.problems import illposed_synthetic
from accelerant.vector import VpeMethod, vpe_extrapolate

import _oracles as oracles


def orthonormal(rng, rows, cols):
    return qr_mgs(rng.standard_normal((rows, cols))).q


def synthetic_model(seed=0, n=60, rank=20, decay=0.5, noise=1e-2):
    """Spectral model with prescribed singular decay and white noise."""
    rng = np.random.default_rng(seed)
    u = orthonormal(rng, n, rank)
    v = orthonormal(rng, n, rank)
    j = np.arange(1, rank + 1)
    sigma = np.exp(-decay * j)
    solution_coeffs = 1.0 / j
    clean = u @ (sigma * solution_coeffs)
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    rhs = clean + noise * np.linalg.norm(clean) * direction
    model = SvdModel(u=u, sigma=sigma, v=v, rhs=rhs, clean_rhs=clean)
    exact = v @ solution_coeffs
    return model, exact


class TestSvdModel:
    def test_rejects_increasing_singular_values(self):
        with pytest.raises(ValueError, match="descending"):
            SvdModel(u=np.eye(2), sigma=[1.0, 2.0], v=np.eye(2), rhs=[1.0, 1.0])

    def test_rejects_nonpositive_singular_values(self):
        with pytest.raises(ValueError, match="positive"):
            SvdModel(u=np.eye(2), sigma=[1.0, 0.0], v=np.eye(2), rhs=[1.0, 1.0])

    def test_rejects_skewed_basis(self):
        skew = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="orthonormal"):
            SvdModel(u=skew, sigma=[2.0, 1.0], v=np.eye(2), rhs=[1.0, 1.0])

    def test_from_matrix_reconstructs(self):
        rng = np.random.default_rng(3)
        for shape in [(6, 4), (200, 200)]:
            a = rng.standard_normal(shape)
            b = rng.standard_normal(shape[0])
            model = SvdModel.from_matrix(a, b)  # checks orthonormality too
            rebuilt = model.u @ np.diag(model.sigma) @ model.v.T
            assert np.allclose(rebuilt, a, atol=1e-10)
            assert np.linalg.norm(rebuilt - a) <= 1e-10 * np.linalg.norm(a)
            assert model.rank == shape[1]


class TestTsvdSolution:
    def test_canonical_two_by_two(self):
        model = SvdModel(u=np.eye(2), sigma=[2.0, 1.0], v=np.eye(2),
                         rhs=[2.0, 1.0])
        assert np.allclose(tsvd_solution(model, 1), [1.0, 0.0])
        assert np.allclose(tsvd_solution(model, 2), [1.0, 1.0])

    def test_orthogonal_rhs_gives_zero(self):
        u = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        model = SvdModel(u=u, sigma=[2.0, 1.0], v=np.eye(2),
                         rhs=[0.0, 0.0, 5.0])
        assert np.allclose(tsvd_solution(model, 2), [0.0, 0.0])

    def test_full_truncation_solves_square_system(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        x_true = rng.standard_normal(4)
        model = SvdModel.from_matrix(a, a @ x_true)
        assert np.allclose(tsvd_solution(model, 4), x_true, atol=1e-9)

    def test_out_of_range_truncation(self):
        model = SvdModel(u=np.eye(2), sigma=[2.0, 1.0], v=np.eye(2),
                         rhs=[1.0, 1.0])
        with pytest.raises(ValueError):
            tsvd_solution(model, 0)
        with pytest.raises(ValueError):
            tsvd_solution(model, 3)


class TestTsvdSequence:
    def test_zero_coefficient_is_deleted(self):
        u = np.eye(3)
        model = SvdModel(u=u, sigma=[3.0, 2.0, 1.0], v=np.eye(3),
                         rhs=[3.0, 0.0, 1.0])
        seq = TsvdSequence.from_model(model)
        assert np.allclose(seq.coefficients, [1.0, 1.0])
        assert np.array_equal(seq.vectors, np.eye(3)[:, [0, 2]])

    def test_iterates_accumulate_terms(self):
        model = SvdModel(u=np.eye(3), sigma=[3.0, 2.0, 1.0], v=np.eye(3),
                         rhs=[3.0, 4.0, 5.0])
        seq = TsvdSequence.from_model(model)
        assert seq.length == 3
        assert np.allclose(seq.iterate(0), np.zeros(3))
        assert np.allclose(seq.iterate(2), [1.0, 2.0, 0.0])
        assert np.allclose(seq.iterate(3), tsvd_solution(model, 3))


class TestRreTsvd:
    def test_equal_coefficients_example(self):
        model = SvdModel(u=np.eye(3), sigma=[1.0, 1.0, 1.0], v=np.eye(3),
                         rhs=[1.0, 1.0, 1.0])
        results = rre_tsvd(model, 2)
        point, factors, residual_norm = results[1]
        assert np.allclose(factors.gamma, [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(factors.alpha, [2 / 3, 1 / 3])
        assert residual_norm == pytest.approx(1.0 / math.sqrt(3.0))
        assert np.allclose(point, [2 / 3, 1 / 3, 0.0])

    def test_first_level_is_normalized_pair(self):
        rng = np.random.default_rng(5)
        delta = rng.uniform(0.5, 2.0, size=3)
        model = SvdModel(u=np.eye(3), sigma=[1.0, 1.0, 1.0], v=np.eye(3),
                         rhs=delta)
        _, factors, _ = rre_tsvd(model, 1)[0]
        weights = 1.0 / delta[:2] ** 2
        assert np.allclose(factors.gamma, weights / weights.sum())
        assert factors.gamma.sum() == pytest.approx(1.0)

    def test_both_residual_expressions_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            delta = rng.uniform(0.2, 5.0, size=6)
            model = SvdModel(u=np.eye(6), sigma=np.ones(6), v=np.eye(6),
                             rhs=delta)
            for k, (_, factors, residual_norm) in enumerate(rre_tsvd(model, 5),
                                                            start=1):
                alternate = math.sqrt(delta[k - 1] ** 2 * factors.gamma[k - 1])
                assert residual_norm == pytest.approx(alternate, abs=1e-12)

    def test_matches_generic_reduced_rank_extrapolation(self):
        model, _ = synthetic_model(seed=1)
        seq = TsvdSequence.from_model(model)
        results = rre_tsvd(model, 8)
        for k in range(1, 9):
            window = SequenceWindow(seq.iterates(k + 1))
            generic = vpe_extrapolate(window, VpeMethod(kind="rre"), k)
            closed_form = results[k - 1][0]
            scale = np.linalg.norm(generic.value)
            assert np.linalg.norm(closed_form - generic.value) <= 1e-9 * scale

    def test_filter_factor_invariants_hold(self):
        model, _ = synthetic_model(seed=2)
        for _, factors, _ in rre_tsvd(model, 12):
            assert abs(factors.gamma.sum() - 1.0) <= 1e-13
            assert np.all(factors.gamma > 0.0)
            assert factors.alpha[0] <= 1.0
            assert factors.alpha[-1] > 0.0
            assert np.all(np.diff(factors.alpha) <= 0.0)

    def test_zero_coefficients_are_skipped(self):
        model = SvdModel(u=np.eye(4), sigma=[4.0, 3.0, 2.0, 1.0], v=np.eye(4),
                         rhs=[4.0, 0.0, 2.0, 1.0])
        results = rre_tsvd(model, 2)
        # delta (1, 1, 1) after deletion: same weights as the canonical example.
        _, factors, _ = results[1]
        assert np.allclose(factors.gamma, [1 / 3, 1 / 3, 1 / 3])

    def test_insufficient_retained_terms(self):
        model = SvdModel(u=np.eye(2), sigma=[2.0, 1.0], v=np.eye(2),
                         rhs=[1.0, 1.0])
        with pytest.raises(ValueError, match="retained"):
            rre_tsvd(model, 2)


@pytest.mark.parametrize("field", ["u", "v", "sigma", "rhs", "gamma"])
def test_nonfinite_input_is_rejected(field):
    values = {"u": np.eye(2), "v": np.eye(2), "sigma": np.array([2.0, 1.0]),
              "rhs": np.array([1.0, 1.0]), "gamma": np.array([0.5, 0.5])}
    # every comparison with NaN is false, so only a finiteness check stops it
    values[field].flat[0] = np.nan
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        if field == "gamma":
            FilterFactors(gamma=values["gamma"])
        else:
            SvdModel(u=values["u"], sigma=values["sigma"], v=values["v"],
                     rhs=values["rhs"])


class TestFilterFactors:
    def test_rejects_unnormalized_gamma(self):
        with pytest.raises(ValueError, match="sum to one"):
            FilterFactors(gamma=[0.5, 0.4])

    @pytest.mark.parametrize("gamma", [[1.0], [0.2, 0.3, 0.5],
                                       np.arange(1.0, 41.0) / 820.0])
    def test_alpha_is_the_trailing_sums_of_gamma(self, gamma):
        factors = FilterFactors(gamma=gamma)
        # alpha_i = gamma_{i+1} + ... + gamma_k, one reversed cumsum
        want = np.cumsum(factors.gamma[::-1])[::-1][1:]
        assert factors.alpha.tobytes() == want.tobytes()
        assert factors.alpha.size == len(gamma) - 1
        assert not factors.alpha.flags.writeable

    def test_alpha_cannot_be_passed_in(self):
        with pytest.raises(TypeError, match="alpha"):
            FilterFactors(gamma=[0.2, 0.3, 0.5], alpha=[0.5, 0.4])


class TestSelectTruncationIndex:
    def test_strictly_decreasing_returns_last_level(self):
        norms = [1.0, 0.5, 0.25, 0.125, 0.0625]
        assert select_truncation_index(norms) == 5

    def test_frozen_stagnation_profile(self):
        norms = [1.0, 0.1, 0.01, 0.0099, 0.02]
        # Under the default slack the drop to 0.0099 still counts as a
        # decrease (it clears the 1e-3 margin), so the first stagnation is
        # the rebound one step later.
        assert select_truncation_index(norms) == 4
        # A coarser margin declares stagnation already at the tiny drop.
        assert select_truncation_index(norms, slack=1e-2) == 3

    def test_flat_norms_stop_immediately(self):
        assert select_truncation_index([0.7, 0.7, 0.7]) == 1

    def test_requires_three_values(self):
        with pytest.raises(ValueError):
            select_truncation_index([1.0, 0.5])


class TestErrorOptimalIndex:
    def test_interior_minimum(self):
        model = SvdModel(u=np.eye(3), sigma=[4.0, 2.0, 1.0], v=np.eye(3),
                         rhs=[4.0, 2.0, 3.0])
        assert error_optimal_index(model, [1.0, 1.0, 0.0]) == 2

    def test_ties_go_to_smallest_level(self):
        model = SvdModel(u=np.eye(2), sigma=[2.0, 1.0], v=np.eye(2),
                         rhs=[2.0, 0.0])
        # delta = (1, 0): iterates 1 and 2 coincide.
        assert error_optimal_index(model, [1.0, 0.0]) == 1


@pytest.fixture(scope="module")
def sharp_model():
    return synthetic_model(seed=42, n=200, rank=200, decay=1.0, noise=1e-2)


class TestStagnationProfile:
    """Sharp singular decay: the extrapolated error curve flattens."""

    def test_error_curves(self, sharp_model):
        model, exact = sharp_model
        k_opt = error_optimal_index(model, exact, k_max=40)
        k_range = 3 * k_opt
        tsvd_errors = np.array([
            np.linalg.norm(tsvd_solution(model, k) - exact)
            for k in range(1, k_range + 1)
        ])
        results = rre_tsvd(model, k_range)
        rre_errors = np.array([
            np.linalg.norm(point - exact) for point, _, _ in results
        ])
        # Plain truncation blows up well past the optimum ...
        assert tsvd_errors.max() >= 10.0 * tsvd_errors.min()
        # ... while the extrapolated curve stays essentially flat.
        beyond = rre_errors[k_opt:]
        assert beyond.max() <= 1.5 * rre_errors.min()

    def test_selected_index_near_optimum(self, sharp_model):
        model, exact = sharp_model
        k_opt = error_optimal_index(model, exact, k_max=40)
        norms = [r for _, _, r in rre_tsvd(model, 3 * k_opt)]
        k_selected = select_truncation_index(norms)
        assert abs(k_selected - k_opt) <= 3


BAD_EXACT_SOLUTIONS = {
    "length_one": np.ones(1),
    "all_nan": np.full(50, np.nan),
    "one_inf": np.r_[np.inf, np.ones(49)],
    "column_matrix": np.ones((50, 1)),
}


@pytest.mark.parametrize("case", sorted(BAD_EXACT_SOLUTIONS))
@pytest.mark.parametrize("report", ["error_optimal_index", "csv_report"])
def test_exact_solution_is_validated(case, report):
    # none of these may broadcast against the iterates or yield nan columns
    model = illposed_synthetic(50, 0.5, 1e-2, 1)
    exact = BAD_EXACT_SOLUTIONS[case]
    with pytest.raises(ValueError, match="exact_solution"):
        if report == "csv_report":
            csv_report(model, 3, exact_solution=exact)
        else:
            error_optimal_index(model, exact)


class TestCsvReport:
    def test_columns_without_exact_solution(self):
        model = SvdModel(u=np.eye(4), sigma=[4.0, 3.0, 2.0, 1.0], v=np.eye(4),
                         rhs=[4.0, 3.0, 2.0, 1.0])
        text = csv_report(model, 3)
        lines = text.strip().splitlines()
        assert lines[0] == "k,generalized_residual,tsvd_rel_error,extrapolated_rel_error"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[2] == "" and first[3] == ""
        expected = rre_tsvd(model, 3)[0][2]
        assert float(first[1]) == expected

    def test_errors_filled_with_exact_solution(self):
        model, exact = synthetic_model(seed=9, n=30, rank=10)
        text = csv_report(model, 4, exact_solution=exact)
        row = text.strip().splitlines()[2].split(",")
        plain = np.linalg.norm(tsvd_solution(model, 2) - exact)
        assert float(row[2]) == pytest.approx(
            plain / np.linalg.norm(exact), rel=1e-15)

    def test_plain_errors_match_the_per_level_route_bit_for_bit(self):
        model = illposed_synthetic(80, 0.3, 1e-2, 5)
        exact = model.v @ (1.0 / np.arange(1, model.rank + 1))
        k_max = 40
        want = oracles.tsvd_errors_per_level(model, exact, k_max)
        exact_norm = float(np.linalg.norm(exact))
        rows = csv_report(model, k_max, exact_solution=exact).splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == \
            [format(error / exact_norm, ".17g") for error in want]
        assert error_optimal_index(model, exact, k_max) == \
            int(np.argmin(want)) + 1


def _sequence(coefficients=(1.0, 2.0), vectors=np.eye(3)[:, :2]):
    return TsvdSequence(coefficients=np.asarray(coefficients),
                        vectors=vectors)


_MODEL = illposed_synthetic(12, 0.5, 1e-2, 3)

INPUT_CHECKS = {
    "model-rank-0": (
        lambda: SvdModel(u=np.zeros((3, 0)), sigma=np.zeros(0),
                         v=np.zeros((3, 0)), rhs=np.ones(3)),
        "at least one singular triplet"),
    "model-column-count": (
        lambda: SvdModel(u=np.eye(3)[:, :2], sigma=np.ones(1),
                         v=np.eye(3)[:, :1], rhs=np.ones(3)),
        "one column per singular value"),
    "model-rhs-length": (
        lambda: SvdModel(u=np.eye(3)[:, :1], sigma=np.ones(1),
                         v=np.eye(3)[:, :1], rhs=np.ones(2)),
        "rhs length must match the rows of u"),
    "sequence-coefficients-not-1d": (
        lambda: _sequence(coefficients=[[1.0, 2.0]]),
        "coefficients must be a 1-D array"),
    "sequence-vector-columns": (
        lambda: _sequence(vectors=np.eye(3)),
        "one vector column per coefficient"),
    "sequence-zero-coefficient": (
        lambda: _sequence(coefficients=(1.0, 0.0)),
        "retained coefficients must be nonzero"),
    "iterate-out-of-range": (lambda: _sequence().iterate(3),
                             r"k must lie in \[0, 2\], got 3"),
    "filter-weights-sum": (lambda: FilterFactors(gamma=np.array([0.5, 0.6])),
                           "gamma entries must sum to one"),
    "filter-weight-negative": (
        lambda: FilterFactors(gamma=np.array([1.5, -0.5])),
        "gamma entries must be positive"),
    "rre-tsvd-k-max": (lambda: rre_tsvd(_MODEL, 0), "k_max must be at least 1"),
    "error-optimal-k-max": (
        lambda: error_optimal_index(_MODEL, np.ones(12), 13),
        r"k_max must lie in \[1, 12\], got 13"),
    "csv-report-zero-exact": (lambda: csv_report(_MODEL, 3, np.zeros(12)),
                              "exact solution must be nonzero"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_check_raises(case):
    call, match = INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=match):
        call()
