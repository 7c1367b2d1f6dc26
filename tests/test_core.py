"""Tests for sequence windows, forward differences, tableaux, the breakdown check."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accelerant.core import (
    BreakdownError,
    Estimate,
    SequenceWindow,
    Tableau,
    _norm,
    breakdown_check,
    forward_difference,
    read_sequence_file,
)
from accelerant.scalar import (
    BasisFamily,
    NodeSequence,
    e_algorithm,
    epsilon_scalar,
    rho,
    richardson_table,
    theta,
)
from accelerant.vector import h_algorithm, vea

import _oracles as oracles
import test_golden as golden


# -- sequence windows --------------------------------------------------------

def test_mixed_scalar_vector_rejected():
    with pytest.raises(ValueError):
        SequenceWindow([1.0, (1.0, 2.0)])


def test_window_terms_are_immutable():
    w = SequenceWindow([(1.0, 2.0)])
    with pytest.raises(ValueError):
        w.term(0)[0] = 5.0


def test_rows_view_the_stored_terms():
    w = SequenceWindow([(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)], base_index=2)
    rows = w.rows(3, 2)
    np.testing.assert_array_equal(rows, [[3.0, 4.0], [5.0, 6.0]])
    assert rows.flags.c_contiguous and not rows.flags.writeable
    assert np.shares_memory(rows, w.term(3))
    with pytest.raises(ValueError):
        w.rows(1, 2)
    with pytest.raises(ValueError):
        w.rows(3, 3)
    np.testing.assert_array_equal(SequenceWindow([1.0, 2.0]).rows(0, 2),
                                  [[1.0], [2.0]])


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
    assert breakdown_check(1e-10, 1.0) is True
    assert breakdown_check(1e-10, 1e4) is False


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
    assert t.column(0) == {}
    assert t.flagged_entries() == [(0, 0)]


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
    # column 5 is still stored, so the parents of (6, 0) validate
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
    assert t.best_estimate().order_k == 0  # column 1 is auxiliary
    t.set_entry(2, 0, 7.0)
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


def test_out_of_order_writes_leave_a_hole():
    t = Tableau(keep_full=True)
    t.set_entry(0, 2, 3.0)
    t.set_entry(0, 0, 1.0)
    t.flag_breakdown(0, 1)
    column = t.column(0)
    assert list(column.items()) == [(0, 1.0), (2, 3.0)]  # ascending n
    assert all(type(v) is float for v in column.values())
    with pytest.raises(BreakdownError):
        t.get_entry(0, 1)
    with pytest.raises(BreakdownError):
        t.get_entry(0, 3)


def test_flags_outlive_eviction():
    # a rolling table drops old columns but must report every breakdown,
    # as perfbench and the command line read them from rolling tables
    flagged = 0
    for key, call in golden.builders():
        full = call(True).flagged_entries()
        assert call(False).flagged_entries() == full, key
        flagged += bool(full)
    assert flagged


def test_vea_column_0_shares_the_window_rows():
    window = SequenceWindow(np.arange(12.0).reshape(4, 3) ** 2, base_index=2)
    table = vea(window, keep_full=True)
    rows = window.rows(2, 4)
    for n in range(2, 6):
        assert np.shares_memory(table.get_entry(0, n), rows)


# -- whole-column reads ------------------------------------------------------

def _read(read):
    """A read's value as float.hex strings, or its error's location."""
    try:
        value = read()
    except BreakdownError as exc:
        return "raises", exc.order_k, exc.index_n, str(exc)
    return [float(x).hex() for x in np.atleast_1d(value)]


def _run_reads_agree(table, k, n, count):
    run = _read(lambda: table.get_entries(k, n, count))
    entries = [_read(lambda m=m: table.get_entry(k, m))
               for m in range(n, n + count)]
    failed = [entry for entry in entries if entry[0] == "raises"]
    assert run == (failed[0] if failed else sum(entries, []))
    return bool(failed)


@pytest.mark.parametrize("keep_full", [True, False])
def test_column_read_matches_entry_reads(keep_full):
    rng = np.random.default_rng(20261019)
    raised = 0
    for window in _scalar_windows(rng, 25):
        base, length = window.base_index, len(window)
        tables = [epsilon_scalar(window, keep_full), rho(window,
                                                         keep_full=keep_full)]
        if length >= 4:
            tables.append(theta(window, keep_full))
        for table in tables:
            columns = range(-1, max(table.stored_columns()) + 2)
            for k in columns:
                for n in range(base - 1, base + length + 1):
                    for count in (1, 2, 3, length - (n - base)):
                        if count >= 1:
                            raised += _run_reads_agree(table, k, n, count)
    assert raised


def test_column_read_of_a_run_is_read_only():
    table = epsilon_scalar(SequenceWindow([1.0, 0.5, 0.8, 0.6, 0.7]),
                           keep_full=True)
    run = table.get_entries(2, 0, 3)
    assert not run.flags.writeable
    assert run.tolist() == [table.get_entry(2, n) for n in range(3)]
    with pytest.raises(ValueError, match="count"):
        table.get_entries(2, 0, 0)


def test_column_read_raises_on_an_entry_flagged_after_storing():
    t = Tableau(keep_full=True)
    for n in range(4):
        t.set_entry(0, n, float(n))
    t.flag_breakdown(0, 2)
    assert t.get_entries(0, 0, 2).tolist() == [0.0, 1.0]
    for n, count in ((0, 4), (1, 2), (2, 1)):
        with pytest.raises(BreakdownError, match="invalid") as run:
            t.get_entries(0, n, count)
        assert (run.value.order_k, run.value.index_n) == (0, 2)


def test_column_read_raises_on_a_hole():
    t = Tableau(keep_full=True)
    t.set_entry(0, 2, 3.0)
    t.set_entry(0, 0, 1.0)           # (0, 1) was never written
    with pytest.raises(BreakdownError, match="not stored") as run:
        t.get_entries(0, 0, 3)
    assert (run.value.order_k, run.value.index_n) == (0, 1)
    assert t.get_entries(0, 2, 1).tolist() == [3.0]


def test_column_read_raises_where_the_entry_read_does():
    # partial sums of a geometric series: column 2 is its limit, so the
    # differences in column 3 vanish and every entry there breaks down
    window = SequenceWindow(np.cumsum(0.5 ** np.arange(9)).tolist())
    full = epsilon_scalar(window, keep_full=True)
    assert (3, 0) in full.flagged_entries()
    for count in (1, 4):
        with pytest.raises(BreakdownError, match="invalid") as run:
            full.get_entries(3, 0, count)
        assert (run.value.order_k, run.value.index_n) == (3, 0)
    # a run that reaches past the column's end fails at its first missing
    # entry, as get_entry does
    assert _run_reads_agree(full, 2, 3, 5)
    # a rolling table has evicted column 0: not stored
    rolling = epsilon_scalar(window)
    assert 0 not in rolling.stored_columns()
    with pytest.raises(BreakdownError, match="not stored") as run:
        rolling.get_entries(0, 0, 3)
    assert (run.value.order_k, run.value.index_n) == (0, 0)


def test_swept_column_has_no_mask_exactly_when_no_entry_failed():
    rng = np.random.default_rng(20261018)
    masked = 0
    for window in _scalar_windows(rng, 60):
        tables = [epsilon_scalar(window, True), rho(window, keep_full=True)]
        if len(window) >= 4:
            tables.append(theta(window, True))
        for table in tables:
            flags = set(table.flagged_entries())
            for k in table.stored_columns():
                start, values, held = table._columns[k]
                failed = [(k, start + i) in flags for i in range(len(values))]
                if held is None:
                    assert not any(failed)
                else:
                    masked += 1
                    assert any(failed)
                    assert held.tolist() == [not f for f in failed]
    assert masked


# -- the norm that run_cycles' convergence tests take ------------------------

@pytest.mark.parametrize("n", [1, 100, 6400, 20000])
def test_norm_is_numpys_norm_bit_for_bit(n):
    # a numpy release whose norm rounds differently fails here, rather than
    # moving run_cycles' iteration counts without notice
    rng = np.random.default_rng(n)
    for scale in (1.0, 1e-130, 1e133):
        for x in (rng.standard_normal(n) * scale,
                  rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-5, 5, n)
                  * scale):
            norm = float(np.linalg.norm(x)).hex()
            assert math.sqrt(x @ x).hex() == norm
            assert _norm(x).hex() == norm
    # where the sum of squares overflows or underflows, numpy's norm is
    # inf or inexact; this one scales first and stays within a few units
    # in the last place of the overflow-free hypot
    for scale in (1e-170, 1e-150, 1e150, 1e160):
        x = rng.standard_normal(n) * scale
        x[0] = scale
        with np.errstate(over="ignore"):
            norm = _norm(x)
        assert norm == pytest.approx(math.hypot(*x), rel=1e-14)
    assert _norm(np.zeros(n)) == 0.0
    # the dot overflows on the way, and numpy warns about it
    with np.errstate(over="ignore"):
        assert np.linalg.norm(x) == math.inf
    with pytest.warns(RuntimeWarning, match="overflow"):
        _norm(x)


def test_window_from_an_array_keeps_its_rows_in_c_order():
    terms = np.asfortranarray(np.arange(12.0).reshape(4, 3) ** 1.5)
    window = SequenceWindow(terms, base_index=3)
    rows = window.rows(3, 4)
    assert rows.flags.c_contiguous and not rows.flags.writeable
    assert np.array_equal(rows, SequenceWindow(list(terms)).rows(0, 4))
    assert not np.shares_memory(rows, terms)


# -- the column sweep against the per-entry reference ------------------------

def _scalar_windows(rng, count):
    """Random windows with ties, zero differences, signed zeros and extreme
    scales, so every builder meets its breakdown paths."""
    windows = []
    for _ in range(count):
        length = int(rng.integers(3, 21))
        terms = rng.standard_normal(length) * 10.0 ** rng.uniform(-300, 300)
        if rng.random() < 0.5:  # a convergent series' partial sums
            terms = np.cumsum(terms * rng.uniform(-0.9, 0.9) ** np.arange(length))
        for i in rng.integers(1, length, size=int(rng.integers(0, 3))):
            terms[i] = terms[i - 1]
        for i in rng.integers(0, length, size=int(rng.integers(0, 3))):
            terms[i] = rng.choice([0.0, -0.0])
        windows.append(SequenceWindow(terms.tolist(),
                                      base_index=int(rng.integers(0, 5))))
    windows.append(SequenceWindow([0.0, -0.0, 0.0, -0.0, 1.0, 1.0, -0.0]))
    windows.append(SequenceWindow([2.5] * 7, base_index=2))
    return windows


def _vector_windows(rng, count):
    windows = []
    for _ in range(count):
        length = int(rng.integers(3, 14))
        rows = rng.standard_normal((length, int(rng.integers(1, 7))))
        rows *= 10.0 ** rng.uniform(-100, 100)
        for i in rng.integers(1, length, size=int(rng.integers(0, 3))):
            rows[i] = rows[i - 1]  # a zero difference
        for i in rng.integers(2, length, size=int(rng.integers(0, 2))):
            rows[i] = rows[i - 2]  # a tie one column deeper
        rows[rng.random(rows.shape) < 0.1] = -0.0
        windows.append(SequenceWindow(rows, base_index=int(rng.integers(0, 5))))
    windows.append(SequenceWindow(np.zeros((6, 3))))
    return windows


def _bits(table):
    """Every stored entry (type and float.hex of each value), the stored
    columns and the flagged positions."""
    entries = {(k, n): (type(v).__name__,
                        [float(x).hex() for x in np.atleast_1d(v)])
               for k in table.stored_columns()
               for n, v in table.column(k).items()}
    return table.stored_columns(), entries, table.flagged_entries()


def _bases(window, rng):
    sums = [float(np.sum(t)) for t in window]
    scale = max(map(abs, sums)) or 1.0  # powers of the terms stay finite
    pilot = {window.base_index + j: v / scale for j, v in enumerate(sums)}
    ratios = tuple(rng.uniform(-1.5, 1.5, size=4))
    return (BasisFamily.geometric(ratios),
            BasisFamily(lambda i, n: pilot[n] ** i))


@pytest.mark.parametrize("keep_full", [True, False])
def test_builders_match_the_per_entry_sweep_bit_for_bit(keep_full):
    rng = np.random.default_rng(20261018)
    scalars, vectors = _scalar_windows(rng, 150), _vector_windows(rng, 60)
    for window in scalars:
        count, base = len(window), window.base_index
        increasing = NodeSequence(np.cumsum(rng.uniform(0.1, 2.0, count)),
                                  base)
        pairs = [(epsilon_scalar(window, keep_full),
                  oracles.epsilon_per_entry(window, keep_full)),
                 (rho(window, keep_full=keep_full),
                  oracles.rho_per_entry(
                      window, NodeSequence.standard(count, base), keep_full)),
                 (rho(window, increasing, keep_full),
                  oracles.rho_per_entry(window, increasing, keep_full))]
        if count >= 4:
            pairs.append((theta(window, keep_full),
                          oracles.theta_per_entry(window, keep_full)))
        for nodes in (NodeSequence.standard(count, base), increasing,
                      NodeSequence(NodeSequence.step_halving(count).values,
                                   base)):
            pairs.append((richardson_table(window, nodes, keep_full),
                          oracles.richardson_per_entry(window, nodes,
                                                       keep_full)))
        k_max = int(rng.integers(0, min(5, count)))
        for basis in _bases(window, rng):
            pairs.append((e_algorithm(window, basis, k_max, keep_full),
                          oracles.e_recursion_per_entry(window, basis, k_max,
                                                        keep_full)))
        for got, expected in pairs:
            assert _bits(got) == _bits(expected)
    for window in vectors:
        pairs = [(vea(window, keep_full),
                  oracles.vea_per_entry(window, keep_full))]
        k_max = int(rng.integers(0, min(5, len(window))))
        for basis in _bases(window, rng):
            pairs.append((h_algorithm(window, basis, k_max, keep_full),
                          oracles.e_recursion_per_entry(window, basis, k_max,
                                                        keep_full)))
        for got, expected in pairs:
            assert _bits(got) == _bits(expected)


def test_the_random_windows_reach_every_breakdown_path():
    rng = np.random.default_rng(20261018)  # the windows compared above
    scalars, vectors = _scalar_windows(rng, 150), _vector_windows(rng, 60)
    assert any(epsilon_scalar(w).flagged_entries() for w in scalars)
    assert any(theta(w).flagged_entries() for w in scalars if len(w) >= 4)
    assert any(vea(w).flagged_entries() for w in vectors)


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
    assert w.rows(0, 2).shape == (2, 2)
    np.testing.assert_allclose(w.term(1), [3.0, 4.0])


def test_read_rejects_bad_line(tmp_path):
    # unparsable, then non-finite scalars and vector components
    for bad in ("two", "nan", "inf", "-inf", "1.0,nan", "inf,2.0"):
        p = tmp_path / "bad.txt"
        first = "1.0,2.0" if "," in bad else "1.0"
        p.write_text(f"{first}\n{bad}\n{first}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.txt:2"):
            read_sequence_file(p)


def test_read_rejects_ragged_vectors(tmp_path):
    p = tmp_path / "ragged.txt"
    p.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_sequence_file(p)


INPUT_CHECKS = {
    "window-of-width-0": (lambda: SequenceWindow(np.zeros((2, 0))),
                          "one-dimensional with N >= 1"),
    "negative-difference-order": (
        lambda: forward_difference(SequenceWindow([1.0, 2.0]), -1, 0),
        "difference order must be nonnegative"),
    "odd-parity": (lambda: Tableau(estimate_parity="odd"),
                   "estimate_parity must be 'all' or 'even'"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_check_raises(case):
    call, match = INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=match):
        call()
