"""Independent reference computations used only by the test suite."""

import numpy as np


def cyclic_jacobi_eigenvalues(sym, tol: float = 1e-13, max_sweeps: int = 100):
    """Eigenvalues of a symmetric matrix by classical cyclic Jacobi rotations.

    Deliberately independent of the package's one-sided SVD: two-sided
    rotations on the symmetric matrix itself, returning eigenvalues in
    descending order.
    """
    a = np.array(sym, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n) or not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("cyclic_jacobi_eigenvalues expects a symmetric matrix")
    for _ in range(max_sweeps):
        off = np.max(np.abs(a - np.diag(np.diag(a)))) if n > 1 else 0.0
        scale = max(np.max(np.abs(np.diag(a))), 1.0)
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


def clustered_graph_per_node(n, avg_deg, seed):
    """``problems.clustered_graph``'s out-edge lists, one draw per node.

    The loop the library replaced with a single bounded draw: node by
    node, ``avg_deg`` own-cluster targets, of which each fourth node
    trades its last for one target in the other cluster.
    """
    rng = np.random.default_rng(seed)
    split = (6 * n) // 10
    bounds = ((0, split), (split, n))
    out = []
    for i in range(n):
        c = 0 if i < split else 1
        lo, hi = bounds[c]
        if i % 4 == 0:
            targets = np.concatenate([rng.integers(lo, hi, size=avg_deg - 1),
                                      rng.integers(*bounds[1 - c], size=1)])
        else:
            targets = rng.integers(lo, hi, size=avg_deg)
        out.append(tuple(targets.tolist()))
    return tuple(out)


def neville_polynomial_extrapolation(nodes, values):
    """Value at 0 of the polynomial interpolating (nodes[i], values[i]).

    Classic Neville recursion, used as an independent cross-check for
    node-based extrapolation tables.
    """
    x = np.asarray(nodes, dtype=np.float64)
    p = np.array(values, dtype=np.float64).copy()
    n = len(p)
    for k in range(1, n):
        for i in range(n - k):
            p[i] = p[i] + x[i] * (p[i + 1] - p[i]) / (x[i] - x[i + k])
    return p[0]


# -- per-entry tableau sweep -------------------------------------------------
#
# The tableau builders fill each column with whole-array operations.  The
# functions below fill the same tables one entry at a time through the
# public ``Tableau`` API, with each builder's formula written per entry, so
# tests can require the two to agree bit for bit.

#: Parents (k - dk, n + dn) of an entry (k, n), as (dk, dn).
_ADJACENT = ((1, 0), (1, 1))
_LOZENGE = ((1, 0), (1, 1), (2, 1))
_THETA_EVEN = ((1, 0), (1, 1), (1, 2), (2, 1), (2, 2))


def per_entry_sweep(entries, base, rules, keep_full, zero=None,
                    last_column=None):
    """Fill a Tableau entry by entry, in column order.

    ``rules[k % len(rules)]`` is ``(parents, gap, step)``:
    ``gap(k, n, *reads)`` gives (carry, denominator, scale) and
    ``step(k, n, carry, denominator, *reads)`` the entry.  An entry that
    reads a flagged one, or whose breakdown check fails, is flagged; the
    table ends after its first column without a valid entry, or after
    ``last_column``, and is then compacted.
    """
    from accelerant.core import Tableau, breakdown_check

    table = Tableau(keep_full, "all" if zero is None else "even")
    last = {0: base + len(entries) - 1}
    if zero is not None:
        last[-1] = base + len(entries)
        for n in range(base, last[-1] + 1):
            table.set_entry(-1, n, zero)
    for i, entry in enumerate(entries):
        table.set_entry(0, base + i, entry)
    k = 1
    while last_column is None or k <= last_column:
        parents, gap, step = rules[k % len(rules)]
        sources = [(table.column(k - dk), dn) for dk, dn in parents]
        last[k] = min(last[k - dk] - dn for dk, dn in parents)
        alive = False
        for n in range(base, last[k] + 1):
            try:
                reads = [column[n + dn] for column, dn in sources]
            except KeyError:  # flagged entries are not in column()
                table.flag_breakdown(k, n)
                continue
            carry, denominator, scale = gap(k, n, *reads)
            if breakdown_check(denominator, scale):
                table.set_entry(k, n, step(k, n, carry, denominator, *reads))
                alive = True
            else:
                table.flag_breakdown(k, n)
        if not alive:
            break
        k += 1
    table.compact()
    return table


def _lozenge(size, step):
    def gap(k, n, a, b, back):
        d = b - a
        return d, size(d), max(size(a), size(b))

    return _LOZENGE, gap, step


def _inverse_step(k, n, d, size, a, b, back):
    return back + 1.0 / d


def _scalars(window):
    return list(window.terms)


def _vectors(window):
    return [np.array(row) for row in window.rows(window.base_index,
                                                 len(window))]


def richardson_per_entry(window, nodes, keep_full=False):
    x = {n: nodes.value(n) for n in range(window.base_index,
                                          window.last_index + 1)}

    def gap(k, n, a, b):
        denom = x[n + k] - x[n]
        return denom, abs(denom), max(abs(x[n]), abs(x[n + k]))

    def step(k, n, denom, size, a, b):
        return a - x[n] * (b - a) / denom

    return per_entry_sweep(_scalars(window), window.base_index,
                           ((_ADJACENT, gap, step),), keep_full)


def epsilon_per_entry(window, keep_full=False):
    return per_entry_sweep(_scalars(window), window.base_index,
                           (_lozenge(abs, _inverse_step),), keep_full,
                           zero=0.0)


def rho_per_entry(window, nodes, keep_full=False):
    x = {n: nodes.value(n) for n in range(window.base_index,
                                          window.last_index + 1)}

    def step(k, n, d, size, a, b, back):
        return back + (x[n + k] - x[n]) / d

    return per_entry_sweep(_scalars(window), window.base_index,
                           (_lozenge(abs, step),), keep_full, zero=0.0)


def theta_per_entry(window, keep_full=False):
    def gap(k, n, o0, o1, o2, e1, e2):
        denom = o2 - 2.0 * o1 + o0
        return denom, abs(denom), max(abs(o2 - o1), abs(o1 - o0))

    def step(k, n, denom, size, o0, o1, o2, e1, e2):
        return e1 + (e2 - e1) * (o2 - o1) / denom

    rules = ((_THETA_EVEN, gap, step), _lozenge(abs, _inverse_step))
    return per_entry_sweep(_scalars(window), window.base_index, rules,
                           keep_full, zero=0.0)


def vea_per_entry(window, keep_full=False):
    def norm(v):
        return float(np.linalg.norm(v))

    def step(k, n, d, size, a, b, back):
        d /= size * size
        d += back
        return d

    return per_entry_sweep(_vectors(window), window.base_index,
                           (_lozenge(norm, step),), keep_full,
                           zero=np.zeros_like(window.term(window.base_index)))


def e_recursion_per_entry(window, basis, k_max, keep_full=False):
    """E (scalar windows) or H (vector windows), auxiliaries in a dict."""
    base, length = window.base_index, len(window)
    entries = _scalars(window) if window.is_scalar else _vectors(window)
    aux = {(0, i): {base + j: basis.value(i, base + j) for j in range(length)}
           for i in range(1, k_max + 1)}
    for k in range(1, k_max + 1):
        for i in range(k + 1, k_max + 1):
            aux[(k, i)] = {}

    def gap(k, n, e0, e1):
        g = aux[(k - 1, k)]
        denom = g[n + 1] - g[n]
        return denom, abs(denom), max(abs(g[n]), abs(g[n + 1]))

    def step(k, n, denom, size, e0, e1):
        ratio = aux[(k - 1, k)][n] / denom
        for i in range(k + 1, k_max + 1):
            gi = aux[(k - 1, i)]
            aux[(k, i)][n] = gi[n] - ratio * (gi[n + 1] - gi[n])
        return e0 - ratio * (e1 - e0)

    return per_entry_sweep(entries, base, ((_ADJACENT, gap, step),),
                           keep_full, last_column=k_max)


# -- small-solve references --------------------------------------------------
#
# The library's small dense solves and the command line's componentwise scan
# skip per-call overhead (argument wrappers, fancy-index row swaps, repeated
# column views, a full scan).  These keep the plain forms, so tests can
# require the same bits.


def lu_solve_reference(a, b):
    """``linalg.lu_solve`` with ``np.outer`` updates and fancy-index swaps."""
    lu = np.array(a, dtype=np.float64, order="F").copy()
    b = np.array(b, dtype=np.float64)
    n = lu.shape[0]
    perm = np.arange(n)
    for j in range(n):
        p = j + int(np.argmax(np.abs(lu[j:, j])))
        if p != j:
            lu[[j, p], :] = lu[[p, j], :]
            perm[[j, p]] = perm[[p, j]]
        lu[j + 1:, j] /= lu[j, j]
        lu[j + 1:, j + 1:] -= np.outer(lu[j + 1:, j], lu[j, j + 1:])
    c = b[perm]
    y = np.zeros_like(c)
    for i in range(n):
        y[i] = c[i] - lu[i, :i] @ y[:i]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - lu[i, i + 1:] @ x[i + 1:]) / lu[i, i]
    return x


def qr_mgs_reference(a):
    """``linalg.qr_mgs`` indexing ``q[:, i]`` afresh and taking
    ``np.linalg.norm`` of each column."""
    a = np.asarray(a, dtype=np.float64, order="F")
    m, n = a.shape
    q = np.zeros((m, n))
    r = np.zeros((n, n))
    for j in range(n):
        v = a[:, j].copy()
        for i in range(j):
            r[i, j] = q[:, i] @ v
            v -= r[i, j] * q[:, i]
        for i in range(j):
            c = q[:, i] @ v
            r[i, j] += c
            v -= c * q[:, i]
        norm = np.linalg.norm(v)
        r[j, j] = norm
        q[:, j] = v / norm
    return q, r


def deepest_finite_forward(diagonal):
    """Componentwise epsilon's estimate, scanning every even column from
    column 0 down: the deepest finite entry wins, column 0 if none is."""
    best = diagonal[0]
    for candidate in diagonal[2::2]:
        best = np.where(np.isfinite(candidate), candidate, best)
    return best


def difference_blocks_from_rows(s_rows):
    """``vector._difference_blocks`` by the plain route: the row
    differences first, then an N x count C-order copy of each block
    (``.T.copy()``)."""
    d1 = s_rows[1:] - s_rows[:-1]
    d2 = d1[1:] - d1[:-1]
    return d1.T.copy(), d2.T.copy()


def stea_pairings_by_columns(s_rows, y):
    """``vector.stea``'s pairings (y, s_j) by the plain route: one dot
    product with each column of an N x count C-order copy of the rows."""
    s_cols = s_rows.T.copy()
    return [y @ s_cols[:, j] for j in range(s_cols.shape[1])]


def stea_out_of_place(window, y, k, variant):
    """``vector.stea``'s value by the plain route: the pairings by columns,
    and each level lifted into fresh arrays."""
    from accelerant.core import SequenceWindow
    from accelerant.scalar import epsilon_scalar

    n0 = window.base_index
    s_rows = window.rows(n0, 2 * k + 1)
    if k == 0:
        return s_rows[0].copy()
    pairings = SequenceWindow(stea_pairings_by_columns(s_rows, y),
                              base_index=n0)
    table = epsilon_scalar(pairings, keep_full=True)
    e, current = pairings.rows(n0, 2 * k + 1)[:, 0], s_rows
    for level in range(k):
        c = 2 * (k - level) - 1
        target = table.get_entries(2 * level + 2, n0, c)
        lo, hi = slice(variant - 1, variant - 1 + c), slice(variant, variant + c)
        ratio = (target - e[1:c + 1]) / (e[hi] - e[lo])
        current = current[1:c + 1] + ratio[:, None] * (current[hi] - current[lo])
        e = target
    return current[0]


def tsvd_errors_per_level(model, exact, k_max):
    """The plain iterates' errors ||x_k - exact|| for k = 1 .. k_max, one
    ``tsvd_solution`` call per level, each of which recomputes the
    expansion coefficients."""
    from accelerant.illposed import tsvd_solution

    return [float(np.linalg.norm(tsvd_solution(model, k) - exact))
            for k in range(1, k_max + 1)]
