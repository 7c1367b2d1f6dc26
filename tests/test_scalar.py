"""Tests for the scalar sequence transformations."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelerant.core import BreakdownError, SequenceWindow
from accelerant.problems import series_generator
from accelerant.scalar import (
    BasisFamily,
    NodeSequence,
    NonexistenceError,
    RationalFunction,
    aitken_step,
    e_algorithm,
    e_algorithm_determinant,
    epsilon_scalar,
    iterated_aitken,
    pade_approximant,
    rho,
    richardson_table,
    shanks_oracle,
    theta,
)

from _oracles import neville_polynomial_extrapolation


def geometric_partial_sums(z, count):
    """Partial sums of sum z^n, limit 1/(1-z)."""
    out, acc = [], 0.0
    for n in range(count):
        acc += z ** n
        out.append(acc)
    return out


def log2_partial_sums(count):
    """Partial sums of the alternating harmonic series (limit ln 2)."""
    out, acc = [], 0.0
    for n in range(1, count + 1):
        acc += (-1.0) ** (n + 1) / n
        out.append(acc)
    return out


# -- aitken_step -------------------------------------------------------------

def test_aitken_kernel_member_exact():
    # s_n = 2 + 3 * 0.5^n
    e = aitken_step(5.0, 3.5, 2.75)
    assert e.value == pytest.approx(2.0, abs=1e-14)
    assert e.order_k == 1


def test_aitken_alternating_series_head():
    # first three partial sums of the alternating harmonic series
    e = aitken_step(1.0, 0.5, 5.0 / 6.0)
    assert e.value == pytest.approx(0.7, rel=1e-12)
    # the 10-digit decimal truncation stays within example tolerance
    e10 = aitken_step(1.0, 0.5, 0.8333333333)
    assert e10.value == pytest.approx(0.7, abs=1e-9)


def test_aitken_breakdown_on_linear_sequence():
    with pytest.raises(BreakdownError):
        aitken_step(1.0, 2.0, 3.0)


def test_aitken_diagnostics():
    e = aitken_step(5.0, 3.5, 2.75)
    assert e.diagnostics["min_denominator"] == pytest.approx(0.75)


@given(st.floats(-4, 4).filter(lambda a: abs(a) > 1e-3), st.floats(-5, 5),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=80, deadline=None)
def test_aitken_quasi_linearity(a, b, seed):
    rng = np.random.default_rng(seed)
    s = rng.uniform(-2, 2, size=3)
    try:
        base = aitken_step(*s)
    except BreakdownError:
        return
    mapped = aitken_step(*(a * s + b))
    expect = a * base.value + b
    assert mapped.value == pytest.approx(expect, rel=1e-12, abs=1e-12)


# -- iterated_aitken ---------------------------------------------------------

def test_iterated_level_one_exact_on_kernel():
    w = series_generator("geometric_mixture", 5, 2.0, ((3.0, 0.5),))
    levels = iterated_aitken(w, max_k=1)
    assert len(levels) == 2
    for e in levels[1]:
        assert e.value == pytest.approx(2.0, abs=1e-12)


def _mp_iterated_delta2(terms, levels):
    """High-precision replication of the iterated delta-squared recursion."""
    with mpmath.workdps(50):
        seq = [mpmath.mpf(repr(t)) for t in terms]
        for _ in range(levels):
            seq = [s0 - (s1 - s0) ** 2 / (s2 - 2 * s1 + s0)
                   for s0, s1, s2 in zip(seq, seq[1:], seq[2:])]
        return [float(x) for x in seq]


def test_iterated_two_modes_level_two():
    # s_n = 2 + 3 * 0.5^n + 0.2^n; level 2 cancels the second mode only
    # approximately — the high-precision oracle puts the single level-2
    # entry of a 5-term window 4.2e-3 from the limit
    terms = [2.0 + 3.0 * 0.5 ** n + 0.2 ** n for n in range(5)]
    levels = iterated_aitken(SequenceWindow(terms), max_k=2)
    assert len(levels) == 3 and len(levels[2]) == 1
    got = levels[2][0].value
    ref = _mp_iterated_delta2(terms, 2)[0]
    assert got == pytest.approx(ref, rel=1e-12)
    assert abs(got - 2.0) < 5e-3


def test_iterated_two_modes_deep_window_reaches_tight_tolerance():
    # with 13 terms the trailing level-2 entry is within 1e-10 of the limit
    terms = [2.0 + 3.0 * 0.5 ** n + 0.2 ** n for n in range(13)]
    levels = iterated_aitken(SequenceWindow(terms), max_k=2)
    tail = levels[2][-1].value
    assert abs(tail - 2.0) < 1e-10
    ref = _mp_iterated_delta2(terms, 2)[-1]
    assert tail == pytest.approx(ref, rel=1e-9, abs=1e-13)


def test_iterated_halts_on_breakdown():
    w = SequenceWindow([1.0] * 7)
    levels = iterated_aitken(w, max_k=3)
    assert len(levels) == 1  # constant input breaks at level 1


def test_iterated_requires_enough_terms():
    with pytest.raises(ValueError):
        iterated_aitken(SequenceWindow([1.0, 2.0, 3.0]), max_k=2)


# -- richardson_table --------------------------------------------------------

def test_richardson_linear_kernel():
    nodes = NodeSequence((1.0, 0.5, 0.25))
    w = SequenceWindow([4.0 + 7.0 * x for x in nodes.values])
    t = richardson_table(w, nodes, keep_full=True)
    for n, value in t.column(1).items():
        assert value == pytest.approx(4.0, abs=1e-13)


def test_richardson_trapezoid_step_halving():
    # trapezoid values of the integral of x^2 over [0,1] at h = 1, 1/2
    nodes = NodeSequence.step_halving(2, p=2)
    t = richardson_table(SequenceWindow([0.5, 0.375]), nodes, keep_full=True)
    assert t.get_entry(1, 0) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_richardson_warns_on_nodes_near_one():
    nodes = NodeSequence((1.0, 0.95, 0.9025))
    w = SequenceWindow([1.0, 2.0, 3.0])
    with pytest.warns(RuntimeWarning):
        richardson_table(w, nodes, keep_full=True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("count", range(4, 14))
def test_richardson_standard_nodes_do_not_warn(count):
    # x_n = n + 1 grows, so the ratio band of the x_n -> 0 theory is moot
    richardson_table(series_generator("log2", count),
                     NodeSequence.standard(count))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_richardson_matches_neville_oracle():
    rng = np.random.default_rng(41)
    for _ in range(10):
        xs = np.sort(rng.uniform(0.05, 1.0, size=5))[::-1]  # decreasing nodes
        coeffs = rng.uniform(-2, 2, size=4)
        vals = [sum(c * x ** (j + 1) for j, c in enumerate(coeffs)) + 1.5
                for x in xs]
        t = richardson_table(SequenceWindow(vals), NodeSequence(tuple(xs)),
                             keep_full=True)
        ref = neville_polynomial_extrapolation(xs, vals)
        assert t.get_entry(4, 0) == pytest.approx(ref, rel=1e-9)
        assert t.get_entry(4, 0) == pytest.approx(1.5, rel=1e-8)


# -- shanks_oracle -----------------------------------------------------------

def test_shanks_order_one_is_aitken():
    e = shanks_oracle(SequenceWindow([5.0, 3.5, 2.75]), k=1)
    assert e.value == pytest.approx(2.0, abs=1e-13)


def test_shanks_two_mode_kernel():
    w = SequenceWindow([1.0 + 2.0 * 0.5 ** n - 0.3 ** n for n in range(5)])
    e = shanks_oracle(w, k=2, n=0)
    assert e.value == pytest.approx(1.0, abs=1e-10)


def test_shanks_breaks_down_past_kernel_order():
    w = series_generator("geometric_mixture", 5, 1.0, ((2.0, 0.5),))
    with pytest.raises(BreakdownError):
        shanks_oracle(w, k=2, n=0)


def test_shanks_order_cap():
    with pytest.raises(ValueError):
        shanks_oracle(SequenceWindow(list(range(20))), k=9)


def test_shanks_matches_even_epsilon_columns():
    rng = np.random.default_rng(43)
    checked = 0
    for _ in range(60):
        length = int(rng.integers(3, 10))
        s = np.cumsum(rng.uniform(-1, 1, size=length) * 0.6 ** np.arange(length))
        w = SequenceWindow(s)
        table = epsilon_scalar(w, keep_full=True)
        for k in range(1, (length - 1) // 2 + 1):
            column = table.column(2 * k)
            for n in range(length - 2 * k):
                if n not in column:
                    continue
                try:
                    e = shanks_oracle(w, k=k, n=n)
                except BreakdownError:
                    continue
                eps = table.get_entry(2 * k, n)
                assert e.value == pytest.approx(eps, rel=1e-8, abs=1e-10)
                checked += 1
    assert checked >= 50


# -- epsilon_scalar ----------------------------------------------------------

def test_epsilon_geometric_kernel():
    t = epsilon_scalar(SequenceWindow([1.0, 1.5, 1.75]), keep_full=True)
    assert t.get_entry(2, 0) == pytest.approx(2.0, abs=1e-13)


def test_epsilon_column_two_equals_aitken():
    rng = np.random.default_rng(47)
    s = np.cumsum(rng.uniform(0.2, 1.0, size=7) * 0.5 ** np.arange(7))
    t = epsilon_scalar(SequenceWindow(s), keep_full=True)
    for n in range(5):
        ref = aitken_step(s[n], s[n + 1], s[n + 2]).value
        assert t.get_entry(2, n) == pytest.approx(ref, rel=1e-12)


def test_epsilon_alternating_series_deep_column():
    t = epsilon_scalar(SequenceWindow(log2_partial_sums(11)), keep_full=True)
    with mpmath.workdps(40):
        ln2 = float(mpmath.log(2))
    assert abs(t.get_entry(10, 0) - ln2) < 1e-7


def test_epsilon_flags_constant_window():
    t = epsilon_scalar(SequenceWindow([1.0, 1.0, 1.0, 1.0]), keep_full=True)
    assert (1, 0) in t.flagged_entries()
    assert t.best_estimate().order_k == 0


# -- rho ---------------------------------------------------------------------

def test_rho_reciprocal_sequence_column_two_vanishes():
    w = SequenceWindow([1.0 / (n + 1) for n in range(8)])
    t = rho(w, keep_full=True)
    for n, value in t.column(2).items():
        assert value == pytest.approx(0.0, abs=1e-12)


def test_rho_constant_window_breaks_down():
    t = rho(SequenceWindow([3.0, 3.0, 3.0]), keep_full=True)
    assert (1, 0) in t.flagged_entries()


def test_rho_rational_kernel_custom_nodes():
    xs = tuple(1.0 + 0.7 * i for i in range(8))
    nodes = NodeSequence(xs)
    w = SequenceWindow([(2.0 * x + 3.0) / (x + 1.0) for x in xs])
    t = rho(w, nodes, keep_full=True)
    for n, value in t.column(2).items():
        assert value == pytest.approx(2.0, abs=1e-10)


def test_rho_rejects_nonincreasing_nodes():
    w = SequenceWindow([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        rho(w, NodeSequence((1.0, 0.5, 0.25)))


# -- theta -------------------------------------------------------------------

def test_theta_geometric_by_hand():
    t = theta(SequenceWindow([1.0, 1.5, 1.75, 1.875]), keep_full=True)
    assert t.get_entry(2, 0) == pytest.approx(2.0, abs=1e-13)


def test_theta_exact_on_kernel_members():
    rng = np.random.default_rng(53)
    for _ in range(20):
        s = float(rng.uniform(-3, 3))
        c = float(rng.uniform(0.2, 2.0)) * rng.choice([-1.0, 1.0])
        lam = float(rng.uniform(-0.9, 0.9))
        if abs(lam) < 0.05:
            continue
        w = series_generator("geometric_mixture", 4, s, ((c, lam),))
        t = theta(w, keep_full=True)
        assert t.get_entry(2, 0) == pytest.approx(s, rel=1e-9, abs=1e-9)


def test_theta_accelerates_logarithmic_sequence():
    w = SequenceWindow([1.0 / (n + 1) for n in range(8)])
    t = theta(w, keep_full=True)
    col = t.column(2)
    raw_tail = abs(1.0 / 8.0)
    theta_tail = max(abs(v) for v in col.values())
    assert theta_tail * 10.0 <= raw_tail


def test_theta_flags_breakdown():
    w = SequenceWindow([1.0, 1.5, 1.75, 1.875, 1.875, 1.9, 2.0])
    # the first entry epsilon_scalar flags on the same window
    assert theta(w).flagged_entries()[0] == (1, 3)
    assert epsilon_scalar(w).flagged_entries()[0] == (1, 3)
    with pytest.raises(BreakdownError) as raised:
        theta(w, keep_full=True).get_entry(1, 3)
    assert (raised.value.order_k, raised.value.index_n) == (1, 3)
    assert theta(SequenceWindow([1.5] * 6)).flagged_entries()[0] == (1, 0)


# -- e_algorithm -------------------------------------------------------------

def test_e_algorithm_single_geometric_basis():
    basis = BasisFamily.geometric([0.5])
    w = SequenceWindow([2.0 + 3.0 * 0.5 ** n for n in range(5)])
    t = e_algorithm(w, basis, k_max=1, keep_full=True)
    for n, value in t.column(1).items():
        assert value == pytest.approx(2.0, abs=1e-12)


def test_e_algorithm_two_mode_span():
    basis = BasisFamily.geometric([0.5, -0.3])
    w = SequenceWindow([1.0 + 2.0 * 0.5 ** n + 0.7 * (-0.3) ** n
                        for n in range(6)])
    t = e_algorithm(w, basis, k_max=2, keep_full=True)
    assert t.get_entry(2, 0) == pytest.approx(1.0, abs=1e-10)
    ref = e_algorithm_determinant(w, basis, k=2, n=0)
    assert t.get_entry(2, 0) == pytest.approx(ref, rel=1e-9)


def test_e_algorithm_with_node_powers_matches_richardson():
    xs = (1.0, 0.5, 0.25, 0.125, 0.0625)
    nodes = NodeSequence(xs)
    rng = np.random.default_rng(59)
    vals = 2.0 + np.array([0.8 * x + 0.3 * x ** 2 - 0.1 * x ** 3 for x in xs])
    vals += rng.normal(scale=1e-12, size=5)  # harmless perturbation
    w = SequenceWindow(vals)
    rich = richardson_table(w, nodes, keep_full=True)
    et = e_algorithm(w, BasisFamily.node_powers(nodes), k_max=4, keep_full=True)
    for k in range(1, 5):
        for n, value in rich.column(k).items():
            assert et.get_entry(k, n) == pytest.approx(value, rel=1e-10,
                                                       abs=1e-10)


def test_e_algorithm_recursion_matches_determinant():
    rng = np.random.default_rng(61)
    checked = 0
    for _ in range(25):
        k_max = int(rng.integers(1, 5))
        ratios = rng.uniform(0.15, 0.85, size=k_max) * rng.choice(
            [-1.0, 1.0], size=k_max)
        basis = BasisFamily.geometric(ratios)
        length = k_max + 4
        s = rng.uniform(-1, 1) + sum(
            rng.uniform(0.5, 1.5) * np.array([r ** n for n in range(length)])
            for r in ratios) + 0.05 * rng.uniform(-1, 1) * np.linspace(1, 0.5, length)
        w = SequenceWindow(s)
        t = e_algorithm(w, basis, k_max=k_max, keep_full=True)
        for k in range(1, k_max + 1):
            column = t.column(k)
            for n in range(length - k):
                if n not in column:
                    continue
                ref = e_algorithm_determinant(w, basis, k=k, n=n)
                assert t.get_entry(k, n) == pytest.approx(ref, rel=1e-9,
                                                          abs=1e-9)
                checked += 1
    assert checked >= 50


# -- pade_approximant --------------------------------------------------------

def test_pade_geometric_series():
    r = pade_approximant([1.0, 1.0, 1.0], 1, 1)
    assert r.numerator == (1.0, 0.0)
    assert r.denominator == (1.0, -1.0)
    assert r(0.5) == pytest.approx(2.0)


def test_pade_exponential_one_one():
    r = pade_approximant([1.0, 1.0, 0.5], 1, 1)
    np.testing.assert_allclose(r.numerator, (1.0, 0.5), atol=1e-14)
    np.testing.assert_allclose(r.denominator, (1.0, -0.5), atol=1e-14)


def test_pade_polynomial_case():
    r = pade_approximant([2.0, -1.0, 0.25], 2, 0)
    assert r.numerator == (2.0, -1.0, 0.25)
    assert r.denominator == (1.0,)


def test_pade_degenerate_block_raises():
    with pytest.raises(NonexistenceError):
        pade_approximant([0.0, 0.0, 1.0], 0, 1)


@pytest.mark.parametrize("coefficients, m, n", [
    ([1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0, np.inf], 2, 3),
    ([1.0, np.inf], 1, 0),
])
def test_pade_rejects_nonfinite_coefficients(coefficients, m, n):
    with pytest.raises(ValueError, match="finite"):
        pade_approximant(coefficients, m, n)


def test_pade_order_condition():
    # f - P/Q vanishes through order m+n at small z
    c = [1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0, 1.0 / 120.0]
    r = pade_approximant(c, 2, 2)
    for z in (1e-3, -1e-3):
        f = sum(ci * z ** i for i, ci in enumerate(c))
        assert abs(f - r(z)) <= 10.0 * abs(z) ** 5


def test_rational_function_normalization():
    with pytest.raises(ValueError):
        RationalFunction((1.0,), (2.0, 1.0))


# -- cross-transform identities ---------------------------------------------

def _partial_sum_window(coeffs, z, count):
    acc, out = 0.0, []
    for i in range(count):
        acc += coeffs[i] * z ** i
        out.append(acc)
    return SequenceWindow(out)


@pytest.mark.parametrize("z", [0.3, -0.5])
@pytest.mark.parametrize("series", ["exp", "geom"])
def test_epsilon_pade_identity(z, series):
    count = 10
    if series == "exp":
        coeffs = [1.0 / math.factorial(i) for i in range(count)]
    else:
        coeffs = [1.0] * count
    w = _partial_sum_window(coeffs, z, count)
    table = epsilon_scalar(w, keep_full=True)
    matched = 0
    for k in range(1, 4):
        for n in range(3):
            try:
                approx = pade_approximant(coeffs, n + k, k)
            except NonexistenceError:
                # degenerate table block (rational input): the matching
                # tableau entry must have broken down as well
                assert n not in table.column(2 * k)
                continue
            assert table.get_entry(2 * k, n) == pytest.approx(
                approx(z), rel=1e-9)
            matched += 1
    assert matched >= (9 if series == "exp" else 3)


@pytest.mark.parametrize("z", [0.3, -0.5])
def test_shanks_pade_identity(z):
    count = 10
    coeffs = [1.0 / math.factorial(i) for i in range(count)]
    w = _partial_sum_window(coeffs, z, count)
    for k in range(1, 4):
        for n in range(3):
            if n + 2 * k >= count:
                continue
            e = shanks_oracle(w, k=k, n=n)
            approx = pade_approximant(coeffs, n + k, k)
            assert e.value == pytest.approx(approx(z), rel=1e-9)


# -- kernel exactness across transforms --------------------------------------

def _random_kernel(rng, n_modes):
    limit = float(rng.uniform(-5, 5))
    modes = []
    mags = []
    while len(modes) < n_modes:
        lam = float(rng.uniform(-0.9, 0.9))
        if abs(lam) < 0.05 or any(abs(abs(lam) - m) < 0.05 for m in mags):
            continue
        mags.append(abs(lam))
        modes.append((float(rng.uniform(0.5, 3.0)) * float(rng.choice([-1, 1])),
                      lam))
    return limit, tuple(modes)


def test_kernel_exactness_suite():
    rng = np.random.default_rng(67)
    for _ in range(25):
        limit, modes = _random_kernel(rng, 1)
        w3 = series_generator("geometric_mixture", 3, limit, modes)
        assert aitken_step(*w3.terms).value == pytest.approx(
            limit, rel=1e-9, abs=1e-9)
        t_eps = epsilon_scalar(w3, keep_full=True)
        assert t_eps.get_entry(2, 0) == pytest.approx(limit, rel=1e-9,
                                                      abs=1e-9)
        w4 = series_generator("geometric_mixture", 4, limit, modes)
        t_th = theta(w4, keep_full=True)
        assert t_th.get_entry(2, 0) == pytest.approx(limit, rel=1e-9,
                                                     abs=1e-9)

        limit, modes = _random_kernel(rng, 2)
        w5 = series_generator("geometric_mixture", 5, limit, modes)
        e2 = shanks_oracle(w5, k=2, n=0)
        assert e2.value == pytest.approx(limit, rel=1e-9, abs=1e-9)
        basis = BasisFamily.geometric([lam for _, lam in modes])
        w4 = series_generator("geometric_mixture", 4, limit, modes)
        t_e = e_algorithm(w4, basis, k_max=2, keep_full=True)
        assert t_e.get_entry(2, 0) == pytest.approx(limit, rel=1e-9,
                                                    abs=1e-9)

        limit, modes = _random_kernel(rng, 3)
        w7 = series_generator("geometric_mixture", 7, limit, modes)
        e3 = shanks_oracle(w7, k=3, n=0)
        assert e3.value == pytest.approx(limit, rel=1e-9, abs=1e-9)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_richardson_kernel_exactness():
    rng = np.random.default_rng(71)
    for _ in range(25):
        xs = np.sort(rng.uniform(0.05, 2.0, size=4))[::-1]
        limit = float(rng.uniform(-5, 5))
        c = float(rng.uniform(-3, 3))
        w = SequenceWindow([limit + c * x for x in xs])
        t = richardson_table(w, NodeSequence(tuple(xs)), keep_full=True)
        for n, value in t.column(1).items():
            assert value == pytest.approx(limit, rel=1e-9, abs=1e-9)


def test_rho_kernel_exactness():
    rng = np.random.default_rng(73)
    for _ in range(25):
        alpha = float(rng.uniform(-4, 4))
        beta = float(rng.uniform(-4, 4))
        gamma = float(rng.uniform(0.5, 3.0))
        xs = tuple(np.cumsum(rng.uniform(0.3, 1.2, size=6)))
        w = SequenceWindow([(alpha * x + beta) / (x + gamma) for x in xs])
        t = rho(w, NodeSequence(xs), keep_full=True)
        for n, value in t.column(2).items():
            assert value == pytest.approx(alpha, rel=1e-8, abs=1e-8)


# -- validation types --------------------------------------------------------

def test_node_sequence_validation():
    with pytest.raises(ValueError):
        NodeSequence((0.0, 1.0))
    with pytest.raises(ValueError):
        NodeSequence((1.0, 1.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            NodeSequence((1.0, bad, 3.0))
    assert NodeSequence.standard(3).values == (1.0, 2.0, 3.0)


def test_basis_family_rejects_nonfinite():
    basis = BasisFamily(lambda i, n: float("inf"))
    with pytest.raises(ValueError):
        basis.value(1, 0)


_VECTOR_WINDOW = SequenceWindow([np.ones(2)] * 5)
_GEOMETRIC = BasisFamily.geometric([0.5, 0.25])

INPUT_CHECKS = {
    "node-out-of-range": (lambda: NodeSequence.standard(3).value(3),
                          IndexError, "no node stored for index 3"),
    "shanks-vector-window": (lambda: shanks_oracle(_VECTOR_WINDOW, 1),
                             ValueError, "applies to scalar windows"),
    "shanks-window-too-short": (
        lambda: shanks_oracle(SequenceWindow([1.0, 0.5, 0.25]), 2),
        ValueError, "order 2 at index 0 needs terms up to 4"),
    "pade-negative-order": (lambda: pade_approximant([1.0, 1.0], -1, 1),
                            ValueError, "orders must be nonnegative"),
    "pade-too-few-coefficients": (
        lambda: pade_approximant([1.0, 1.0], 2, 1),
        ValueError, "need 4 series coefficients, got 2"),
    "builder-vector-window": (lambda: epsilon_scalar(_VECTOR_WINDOW),
                              ValueError, "applies to scalar windows"),
    "epsilon-two-terms": (lambda: epsilon_scalar(SequenceWindow([1.0, 0.5])),
                          ValueError, "need at least three terms"),
    "rho-two-terms": (lambda: rho(SequenceWindow([1.0, 0.5])),
                      ValueError, "need at least three terms"),
    "theta-three-terms": (lambda: theta(SequenceWindow([1.0, 0.5, 0.25])),
                          ValueError, "need at least four terms"),
    "e-negative-k-max": (
        lambda: e_algorithm(SequenceWindow([1.0, 0.5, 0.25]), _GEOMETRIC, -1),
        ValueError, "k_max must be nonnegative"),
    "e-too-few-terms": (
        lambda: e_algorithm(SequenceWindow([1.0, 0.5]), _GEOMETRIC, 2),
        ValueError, "need at least 3 terms for order 2"),
    "e-determinant-above-8": (
        lambda: e_algorithm_determinant(SequenceWindow([1.0] * 12),
                                        _GEOMETRIC, 9),
        ValueError, "capped at order 8"),
    "e-determinant-window-too-short": (
        lambda: e_algorithm_determinant(SequenceWindow([1.0, 0.5]),
                                        _GEOMETRIC, 2),
        ValueError, "order 2 at index 0 needs terms up to 2"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_check_raises(case):
    call, error, match = INPUT_CHECKS[case]
    with pytest.raises(error, match=match):
        call()


def test_determinant_oracles_at_order_zero_return_the_pilot_term():
    window = SequenceWindow([1.0, 0.5, 0.25], base_index=4)
    estimate = shanks_oracle(window, 0, 5)
    assert (estimate.value, estimate.order_k, estimate.pilot_index_n) == \
        (0.5, 0, 5)
    assert e_algorithm_determinant(window, _GEOMETRIC, 0, 6) == 0.25
