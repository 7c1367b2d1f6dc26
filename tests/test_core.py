"""Tests for sequence windows, forward differences, tableaux, breakdown policy."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accelerant.core import (
    BreakdownError,
    BreakdownPolicy,
    Estimate,
    SequenceWindow,
    Tableau,
    breakdown_check,
    forward_difference,
    push_term,
    read_sequence_file,
)


# -- push_term ---------------------------------------------------------------

def test_push_to_empty_window():
    w = push_term(SequenceWindow(), 1.0)
    assert w.terms == (1.0,)
    assert w.base_index == 0


def test_push_appends_and_preserves_base():
    w = SequenceWindow([1.0], base_index=0)
    w2 = push_term(w, 2.0)
    assert w2.terms == (1.0, 2.0)
    assert w2.base_index == 0
    # the original window is untouched
    assert w.terms == (1.0,)


def test_push_dimension_mismatch():
    w = SequenceWindow([(1.0, 0.0)])
    with pytest.raises(ValueError):
        push_term(w, (0.0,))


def test_mixed_scalar_vector_rejected():
    with pytest.raises(ValueError):
        SequenceWindow([1.0, (1.0, 2.0)])
    with pytest.raises(ValueError):
        push_term(SequenceWindow([1.0]), (1.0, 2.0))


def test_window_terms_are_immutable():
    w = SequenceWindow([(1.0, 2.0)])
    with pytest.raises(ValueError):
        w.term(0)[0] = 5.0


def test_term_lookup_respects_base_index():
    w = SequenceWindow([10.0, 11.0, 12.0], base_index=4)
    assert w.term(4) == 10.0
    assert w.term(6) == 12.0
    assert w.last_index == 6
    with pytest.raises(IndexError):
        w.term(3)
    with pytest.raises(IndexError):
        w.term(7)


# -- forward_difference ------------------------------------------------------

def test_first_difference():
    w = SequenceWindow([1.0, 3.0, 7.0])
    assert forward_difference(w, 1, 0) == 2.0


def test_second_difference():
    w = SequenceWindow([1.0, 3.0, 7.0])
    assert forward_difference(w, 2, 0) == 2.0  # 7 - 2*3 + 1


def test_constant_sequence_differences_vanish():
    w = SequenceWindow([4.2] * 6)
    for j in range(1, 6):
        assert forward_difference(w, j, 0) == 0.0


def test_zeroth_difference_is_the_term():
    w = SequenceWindow([5.0, 6.0])
    assert forward_difference(w, 0, 1) == 6.0


def test_difference_insufficient_terms():
    w = SequenceWindow([1.0, 2.0])
    with pytest.raises(ValueError):
        forward_difference(w, 2, 0)
    with pytest.raises(ValueError):
        forward_difference(w, 1, 1)


def test_vector_difference():
    w = SequenceWindow([(0.0, 0.0), (1.0, 2.0), (4.0, 6.0)])
    np.testing.assert_allclose(forward_difference(w, 2, 0), [2.0, 2.0])


@given(st.integers(min_value=2, max_value=8),
       st.floats(-3, 3), st.floats(-3, 3),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@example(length=8, a=-2.125, b=-1.5, seed=5000)
@settings(max_examples=60, deadline=None)
def test_difference_is_linear(length, a, b, seed):
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(length)
    u = rng.standard_normal(length)
    ws, wu = SequenceWindow(s), SequenceWindow(u)
    wc = SequenceWindow(a * s + b * u)
    for j in range(1, length):
        for n in range(length - j):
            combo = a * forward_difference(ws, j, n) + b * forward_difference(wu, j, n)
            got = forward_difference(wc, j, n)
            # Rounding in a j-th difference grows with the terms it sums,
            # not with the (possibly cancelled) result: bound it by the
            # a-priori magnitude sum_i C(j, i) (|a s_{n+i}| + |b u_{n+i}|).
            magnitude = sum(math.comb(j, i) * (abs(a * s[n + i]) + abs(b * u[n + i]))
                            for i in range(j + 1))
            assert abs(got - combo) <= 1e-14 * magnitude + np.finfo(float).tiny


@given(st.integers(min_value=1, max_value=7),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_difference_matches_binomial_expansion(order, seed):
    rng = np.random.default_rng(seed)
    s = rng.uniform(-1, 1, size=8)
    w = SequenceWindow(s)
    for n in range(len(s) - order):
        binom = sum((-1.0) ** (order - i) * math.comb(order, i) * s[n + i]
                    for i in range(order + 1))
        got = forward_difference(w, order, n)
        scale = max(abs(binom), abs(got), 1.0)
        assert abs(got - binom) <= 1e-13 * scale


# -- breakdown_check ---------------------------------------------------------

def test_tiny_denominator_fails():
    assert breakdown_check(1e-20, 1.0) is False


def test_healthy_denominator_passes():
    assert breakdown_check(0.5, 1.0) is True


def test_exact_zero_always_fails():
    assert breakdown_check(0.0, 0.0) is False
    assert breakdown_check(0.0, 1e300) is False


def test_threshold_scales_with_local_scale():
    policy = BreakdownPolicy(relative_threshold=1e-12)
    assert breakdown_check(1e-10, 1.0, policy) is True
    assert breakdown_check(1e-10, 1e4, policy) is False


def test_arrays_are_checked_elementwise():
    denominators = np.array([1e-20, 0.5, 0.0, -1e-10, 1e-10, np.nan])
    scales = np.array([1.0, 1.0, 0.0, 1.0, 1e4, 1.0])
    got = breakdown_check(denominators, scales)
    expected = [breakdown_check(float(d), float(s))
                for d, s in zip(denominators[:-1], scales[:-1])] + [False]
    assert got.tolist() == expected
    with pytest.raises(ValueError):
        breakdown_check(np.ones(2), np.array([1.0, -1.0]))


def test_policy_validation():
    with pytest.raises(ValueError):
        BreakdownPolicy(relative_threshold=0.0)
    with pytest.raises(ValueError):
        BreakdownPolicy(action="explode")
    with pytest.raises(ValueError):
        breakdown_check(1.0, -1.0)


# -- Estimate ----------------------------------------------------------------

def test_estimate_rejects_negative_order():
    with pytest.raises(ValueError):
        Estimate(1.0, order_k=-1)


def test_estimate_carries_diagnostics():
    e = Estimate(2.0, order_k=1, pilot_index_n=3,
                 diagnostics={"min_denominator": 0.25})
    assert e.diagnostics["min_denominator"] == 0.25


# -- Tableau -----------------------------------------------------------------

def test_tableau_parent_invariant():
    t = Tableau(keep_full=True)
    t.set_entry(0, 0, 1.0)
    t.set_entry(0, 1, 2.0)
    t.set_entry(-1, 5, 0.0)          # k in {-1, 0} needs no parents
    t.set_entry(1, 0, 3.0)           # parents (0,0) and (0,1) exist
    with pytest.raises(ValueError):
        t.set_entry(1, 1, 4.0)       # parent (0,2) missing
    with pytest.raises(ValueError):
        t.set_entry(2, 0, 4.0)       # parent (1,1) missing


def test_flagged_entries_raise_on_read():
    t = Tableau(keep_full=True)
    t.set_entry(0, 0, 1.0)
    t.flag_breakdown(0, 0)
    with pytest.raises(BreakdownError):
        t.get_entry(0, 0)
    assert not t.has_entry(0, 0)
    assert t.is_flagged(0, 0)


def test_flagged_entries_are_listed_in_column_order():
    t = Tableau(keep_full=True)
    t.set_entry(0, 0, 1.0)
    t.set_entry(0, 1, 2.0)
    t.flag_breakdown(0, 1)
    t.flag_breakdown(0, 0)
    assert t.flagged_entries() == [(0, 0), (0, 1)]


def test_rolling_eviction_keeps_recent_columns():
    t = Tableau(keep_full=False)
    for n in range(8):
        t.set_entry(0, n, float(n))
    for k in range(1, 6):
        for n in range(8 - k):
            t.set_entry(k, n, float(k * 10 + n))
    assert min(t.stored_columns()) >= 3  # writing column 5 evicts <= 2
    t.compact()
    assert t.stored_columns() == [4, 5]
    # the existence record survives eviction, so parents still validate
    t.set_entry(6, 0, 60.0)


def test_keep_full_retains_everything():
    t = Tableau(keep_full=True)
    for n in range(6):
        t.set_entry(0, n, float(n))
    for k in range(1, 5):
        for n in range(6 - k):
            t.set_entry(k, n, 1.0)
    assert t.stored_columns() == [0, 1, 2, 3, 4]


def test_even_parity_estimates_skip_odd_columns():
    t = Tableau(keep_full=True, estimate_parity="even")
    t.set_entry(0, 0, 1.0)
    t.set_entry(0, 1, 2.0)
    t.set_entry(0, 2, 3.0)
    t.set_entry(1, 0, 99.0)
    t.set_entry(1, 1, 98.0)
    t.set_entry(2, 0, 7.0)
    orders = {e.order_k for e in t.estimates()}
    assert orders == {0, 2}
    best = t.best_estimate()
    assert best.order_k == 2 and best.value == 7.0


def test_best_estimate_skips_flagged():
    t = Tableau(keep_full=True)
    t.set_entry(0, 0, 1.0)
    t.set_entry(0, 1, 2.0)
    t.set_entry(1, 0, 5.0)
    t.flag_breakdown(1, 0)
    assert t.best_estimate().order_k == 0
    only = Tableau()
    with pytest.raises(BreakdownError):
        only.best_estimate()


def test_tableau_determinism_bit_identical():
    # recompute an epsilon-style recursion twice from one window: entries
    # must agree bitwise, not just approximately
    rng = np.random.default_rng(7)
    s = list(np.cumsum(rng.uniform(0.1, 1.0, size=9) * 0.5 ** np.arange(9)))

    def build():
        t = Tableau(keep_full=True)
        for n, v in enumerate(s):
            t.set_entry(0, n, v)
        for k in range(1, 6):
            for n in range(len(s) - k):
                a = t.get_entry(k - 1, n)
                b = t.get_entry(k - 1, n + 1)
                prev = t.get_entry(k - 2, n + 1) if k >= 2 else 0.0
                t.set_entry(k, n, prev + 1.0 / (b - a))
        return t

    t1, t2 = build(), build()
    for k in t1.stored_columns():
        for n, v in t1.column(k).items():
            assert t2.get_entry(k, n) == v  # exact float equality


# -- sequence file format ----------------------------------------------------

def test_read_scalar_sequence(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("# partial sums\n1.0\n0.5\n\n0.8333333333\n", encoding="utf-8")
    w = read_sequence_file(p)
    assert w.is_scalar and len(w) == 3
    assert w.terms[1] == 0.5


def test_read_vector_sequence_with_crlf(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_bytes(b"# comment\r\n1.0,2.0\r\n3.0,4.0\r\n")
    w = read_sequence_file(p)
    assert w.dimension == 2
    np.testing.assert_allclose(w.term(1), [3.0, 4.0])


def test_read_rejects_bad_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1.0\ntwo\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.txt:2"):
        read_sequence_file(p)


def test_read_rejects_ragged_vectors(tmp_path):
    p = tmp_path / "ragged.txt"
    p.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_sequence_file(p)
