"""Sequence buffering, forward differences, tableau storage, and the breakdown check.

Everything downstream (scalar transforms, vector extrapolation, drivers)
is built on the three primitives in this module:

* :class:`SequenceWindow` — an immutable, contiguous buffer of scalar or
  vector terms with forward-difference access;
* :class:`Tableau` — rolling storage for the triangular tables
  (Richardson, epsilon, rho, theta, vea, E, H), each column one array
  with a mask of the rows it holds, and per-entry breakdown flags;
* :func:`breakdown_check` — the single shared rule deciding when a
  denominator is too small to divide by.

One column sweep (``_column_sweep``) fills every tableau: Richardson,
epsilon, rho, theta, iterated delta-squared, vea and the E/H recursions
each supply only their entry formula, written over whole columns, and
the parents it reads.
The sweep computes each column as array operations over all of its
entries, masks the entries that read a flagged parent or fail the
breakdown check, hands the column and its mask to the table as they are,
and alone decides how a breakdown spreads and where a table ends.  The
command line's componentwise epsilon streams epsilon's rule along a
diagonal instead, in ``cli._lozenge_update``.

All arithmetic is plain 64-bit binary floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

import numpy as np

__all__ = [
    "BreakdownError",
    "Estimate",
    "SequenceWindow",
    "Tableau",
    "breakdown_check",
    "forward_difference",
    "read_sequence_file",
]

#: Smallest positive normal double; scales below this are treated as zero scale.
_TINY = float(np.finfo(np.float64).tiny)

Term = Union[float, np.ndarray]


class BreakdownError(ArithmeticError):
    """A transform has no value at this input: a vanishing denominator, a
    singular block (subclasses ``NonexistenceError``, ``RankDeficiencyError``)
    or a tableau entry never reached.  ``order_k`` / ``index_n`` locate the
    failed entry (``None`` where there is none); ``denominator`` and
    ``scale`` are the magnitudes that failed :func:`breakdown_check`.
    """

    def __init__(self, message: str, *, order_k: int | None = None,
                 index_n: int | None = None, denominator: float = 0.0,
                 scale: float = 0.0):
        super().__init__(message)
        self.order_k = order_k
        self.index_n = index_n
        self.denominator = denominator
        self.scale = scale


#: A denominator fails :func:`breakdown_check` at or below this multiple
#: of its local scale.
_BREAKDOWN_THRESHOLD = 1e-12


def breakdown_check(denominator: float, local_scale: float) -> bool:
    """Return True when a denominator of the given magnitude is safe to use.

    Fails (returns False) iff ``|denominator| <= 1e-12 * max(scale, tiny)``
    with ``tiny`` the smallest positive normal magnitude, so an exactly zero
    denominator fails even at zero scale.  Array arguments are checked
    elementwise and give a boolean array (a NaN fails).
    """
    if isinstance(local_scale, np.ndarray):
        if np.any(local_scale < 0):
            raise ValueError("local scale must be nonnegative")
        return _passes(np.abs(denominator), local_scale)
    if local_scale < 0:
        raise ValueError("local scale must be nonnegative")
    return abs(denominator) > _BREAKDOWN_THRESHOLD * max(local_scale, _TINY)


#: The two constants as 0-d float64 arrays, which numpy combines with an
#: array without first converting a Python float on every call.
_THRESHOLD_0D = np.array(_BREAKDOWN_THRESHOLD)
_TINY_0D = np.array(_TINY)


def _passes(size: np.ndarray, local_scale: np.ndarray) -> np.ndarray:
    """:func:`breakdown_check` on denominator magnitudes and nonnegative
    float64 scales."""
    return size > _THRESHOLD_0D * np.maximum(local_scale, _TINY_0D)


#: Below this sum of squares a dot may have lost bits to underflow.
_SMALL_SQUARE = 2.0 ** -960


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a contiguous 1-D float64 vector, bit for bit
    while its dot lies in [2^-960, inf): the same dot and a correctly rounded
    square root, without the argument handling.  (norm copies a strided
    vector first, and a dot rounds by stride, so callers pass contiguous
    vectors.)  Outside that range it scales by ``max|x|`` first, so finite
    entries give a finite norm; the dot still warns of its overflow."""
    square = float(x.dot(x))
    if not _SMALL_SQUARE <= square < math.inf:
        scale = float(np.max(np.abs(x)))
        if 0.0 < scale < math.inf:
            x = x / scale
            return scale * math.sqrt(x.dot(x))
    return math.sqrt(square)


def _require_safe(denominator: float, scale: float, message: str,
                  order_k: int, index_n: int | None = None) -> None:
    """Raise :class:`BreakdownError` unless :func:`breakdown_check` passes.

    The one-shot transforms' check.  ``message`` may name ``{order_k}``; it
    is formatted only on failure.
    """
    if not breakdown_check(denominator, scale):
        raise BreakdownError(message.format(order_k=order_k), order_k=order_k,
                             index_n=index_n, denominator=abs(denominator),
                             scale=scale)


@dataclass(frozen=True)
class Estimate:
    """A transformed value together with where in the table it came from.

    ``value`` is a scalar or vector, ``order_k`` the transformation order,
    ``pilot_index_n`` the index of the first sequence term consumed, and
    ``diagnostics`` a read-only mapping of named scalars (minimum
    denominator magnitude, residual norms, angle cosines, ...).
    """

    value: Term
    order_k: int
    pilot_index_n: int = 0
    diagnostics: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.order_k < 0:
            raise ValueError("order_k must be nonnegative")


def _frozen_array(value, label: str, ndim: int,
                  length: int | None = None) -> np.ndarray:
    """A read-only float64 copy of ``value`` with ``ndim`` dimensions.

    ``length``, when given, fixes the first dimension; every entry must be
    finite.  Raises ValueError naming ``label`` otherwise.
    """
    arr = np.array(value, dtype=np.float64)
    if arr.ndim != ndim or (length is not None and arr.shape[0] != length):
        of_length = "" if length is None else f" of length {length}"
        raise ValueError(f"{label} must be a {ndim}-D array{of_length}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{label} must be finite")
    arr.flags.writeable = False
    return arr


class SequenceWindow:
    """Immutable contiguous buffer of sequence terms ``s_n, s_{n+1}, ...``.

    Terms are either all scalars or all vectors of one common dimension;
    ``base_index`` is the sequence index of the first stored term.  They
    are held once, as the rows of one read-only C-order (count x N) array,
    scalars as a single column.
    """

    __slots__ = ("_rows", "_scalar", "_base")

    def __init__(self, terms: Iterable = (), base_index: int = 0):
        try:
            # an array is copied by one call, its rows kept in C order
            rows = np.array(terms if isinstance(terms, np.ndarray)
                            else list(terms), dtype=np.float64, order="C")
        except ValueError as exc:
            raise ValueError("terms must all be numbers or all be vectors of "
                             "one dimension") from exc
        self._scalar = rows.ndim == 1
        if self._scalar:
            rows = rows.reshape(-1, 1)
        elif rows.ndim != 2 or rows.shape[1] < 1:
            raise ValueError("vector terms must be one-dimensional with N >= 1")
        rows.flags.writeable = False
        self._rows = rows
        self._base = int(base_index)

    @property
    def base_index(self) -> int:
        return self._base

    @property
    def last_index(self) -> int:
        return self._base + len(self._rows) - 1

    @property
    def is_scalar(self) -> bool:
        return self._scalar

    @property
    def terms(self) -> tuple:
        """Python floats for a scalar window, read-only rows otherwise."""
        if self._scalar:
            return tuple(self._rows[:, 0].tolist())
        return tuple(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self.terms)

    def term(self, n: int) -> Term:
        """The term with absolute sequence index ``n``."""
        if not (self._base <= n <= self.last_index):
            raise IndexError(
                f"index {n} outside window [{self._base}, {self.last_index}]")
        row = self._rows[n - self._base]
        return float(row[0]) if self._scalar else row

    def rows(self, index: int, count: int) -> np.ndarray:
        """Terms ``s_index .. s_{index+count-1}`` as a read-only row view.

        The view is C-order (count x N, scalars as one column), so
        differences between rows run over contiguous memory.  Where a BLAS
        product or a dot product follows, its result depends on the operand
        layout, so those callers read N x count C-order blocks, such as the
        difference blocks ``vector._difference_blocks`` writes once in that
        layout, or round as if they did: ``stea`` pairs the rows with a
        stride-2 copy of its dual vector.
        """
        if index < self._base or index + count - 1 > self.last_index:
            raise ValueError(
                f"window covers indices {self._base}..{self.last_index}, "
                f"need {index}..{index + count - 1}")
        start = index - self._base
        return self._rows[start:start + count]


def forward_difference(window: SequenceWindow, order: int, index: int) -> Term:
    """The forward difference Δ^j s_n over a stored window.

    Computed by the standard recursion
    Δ^j s_n = Δ^{j-1} s_{n+1} − Δ^{j-1} s_n with Δ^0 s_n = s_n; needs the
    terms with indices ``index .. index + order`` to be present.
    """
    if order < 0:
        raise ValueError("difference order must be nonnegative")
    if index < window.base_index or index + order > window.last_index:
        raise ValueError(
            f"window holds [{window.base_index}, {window.last_index}]; "
            f"Δ^{order} s_{index} needs [{index}, {index + order}]")
    level = [window.term(index + i) for i in range(order + 1)]
    for _ in range(order):
        level = [level[i + 1] - level[i] for i in range(len(level) - 1)]
    return level[0]


class Tableau:
    """Rolling storage for triangular recursion tables, one array per column.

    Entries are indexed ``(k, n)`` with ``k`` the column (transformation
    order) and ``n`` the shift.  Column k is ``(start, values, held)``:
    ``values[i]``, entry (k, start + i), is a float (1-D) or a row (2-D)
    that a table may share with the arrays it was built from, and the mask
    ``held`` marks the rows that hold a value (``None``: all do).  Scalar
    reads give Python floats.  Flagged positions outlive their column.  By
    default only the two most recent columns are retained: starting column
    k evicts the columns no recursion writing it can still read, those up
    to k - 3, and ``compact`` keeps the last two; ``keep_full=True``
    disables eviction for debugging and oracle tests.  :meth:`set_entry`
    stores one entry, which requires parents ``(k-1, n)`` and
    ``(k-1, n+1)``, stored or flagged, unless ``k`` is -1 or 0, so tables
    fill column by column; the column sweep stores whole columns.
    :meth:`get_entries` reads a run of one column at once: it returns the
    stored values as a read-only slice, so a reader of many entries pays
    for one lookup, and it fails exactly where a loop of :meth:`get_entry`
    would.

    ``estimate_parity`` marks which columns hold genuine limit estimates:
    ``"even"`` for epsilon-type tables whose odd columns are auxiliary,
    ``"all"`` otherwise.
    """

    def __init__(self, keep_full: bool = False, estimate_parity: str = "all"):
        if estimate_parity not in ("all", "even"):
            raise ValueError("estimate_parity must be 'all' or 'even'")
        self.keep_full = bool(keep_full)
        self.estimate_parity = estimate_parity
        self._columns: dict[int, tuple[int, np.ndarray, np.ndarray | None]] = {}
        self._flags: set[tuple[int, int]] = set()

    # -- structural queries -------------------------------------------------

    def _row(self, k: int, n: int) -> int | None:
        """The row of column k's values that holds entry (k, n), or None."""
        start, values, held = self._columns.get(k, (n, (), None))
        i = n - start
        return i if 0 <= i < len(values) and (held is None or held[i]) else None

    def stored_columns(self) -> list[int]:
        return sorted(self._columns)

    def column(self, k: int) -> dict[int, Term]:
        """Stored entries of column k as {n: value}, ascending n, excluding
        flagged ones."""
        return dict(self._entries(k))

    def _entries(self, k: int):
        """Column k's stored, unflagged entries as (n, value), ascending n."""
        start, values, held = self._columns.get(k, (0, np.empty(0), None))
        for i, value in enumerate(values.tolist() if values.ndim == 1
                                  else values):
            if (held is None or held[i]) and (k, start + i) not in self._flags:
                yield start + i, value

    # -- mutation -----------------------------------------------------------

    def set_entry(self, k: int, n: int, value: Term) -> None:
        if k not in (-1, 0) and any(self._row(k - 1, p) is None
                                    and (k - 1, p) not in self._flags
                                    for p in (n, n + 1)):
            raise ValueError(f"entry ({k}, {n}) requires parents "
                             f"({k - 1}, {n}) and ({k - 1}, {n + 1})")
        value = np.asarray(value, dtype=np.float64)
        start, values, held = self._columns.get(
            k, (n, np.empty((0,) + value.shape), None))
        lo = min(start, n)
        rows = slice(start - lo, start - lo + len(values))
        grown = np.empty((max(rows.stop, n - lo + 1),) + value.shape)
        mask = np.zeros(len(grown), dtype=bool)
        grown[rows], mask[rows] = values, True if held is None else held
        grown[n - lo], mask[n - lo] = value, True
        self._store(k, lo, grown, None if mask.all() else mask)

    def _store(self, k: int, start: int, values: np.ndarray,
               held: np.ndarray | None) -> None:
        """Make ``values`` column k from index ``start``, ``held`` masking the
        rows that hold a value; a new column evicts as documented."""
        columns = self._columns
        if k not in columns and not self.keep_full:
            for old in [c for c in columns if c <= k - 3]:
                del columns[old]
        columns[k] = (start, values, held)

    def flag_breakdown(self, k: int, n: int) -> None:
        """Mark entry (k, n) as broken; reads of it raise from then on."""
        self._flags.add((k, n))

    def compact(self) -> None:
        """Drop everything but the two most recent columns (no-op if keep_full)."""
        if self.keep_full:
            return
        for old in sorted(self._columns)[:-2]:
            del self._columns[old]

    # -- reads --------------------------------------------------------------

    def get_entry(self, k: int, n: int) -> Term:
        """Entry (k, n); raises BreakdownError if flagged or not stored."""
        if (k, n) in self._flags:
            raise BreakdownError(
                f"tableau entry ({k}, {n}) is invalid after a breakdown",
                order_k=k, index_n=n)
        i = self._row(k, n)
        if i is None:
            raise BreakdownError(f"tableau entry ({k}, {n}) is not stored",
                                 order_k=k, index_n=n)
        values = self._columns[k][1]
        return float(values[i]) if values.ndim == 1 else values[i]

    def get_entries(self, k: int, n: int, count: int) -> np.ndarray:
        """Entries (k, n) .. (k, n + count - 1) as a read-only slice of
        column k; raises what :meth:`get_entry` raises on the first of them
        that is flagged or not stored."""
        if count < 1:
            raise ValueError("count must be positive")
        start, values, held = self._columns.get(k, (n, (), None))
        i = n - start
        stored = 0 <= i and i + count <= len(values) and (
            held is None or held[i:i + count].all())
        if not stored or (self._flags and any(
                (k, m) in self._flags for m in range(n, n + count))):
            for m in range(n, n + count):
                self.get_entry(k, m)  # raises on the first bad entry
        run = values[i:i + count]
        run.flags.writeable = False
        return run

    def flagged_entries(self) -> list[tuple[int, int]]:
        """Positions (k, n) invalidated by breakdowns, sorted by column."""
        return sorted(self._flags)

    def best_estimate(self) -> Estimate:
        """The deepest stored valid estimate (highest column, smallest n)."""
        for k in reversed(self.stored_columns()):
            if k < 0 or self.estimate_parity == "even" and k % 2:
                continue
            for n, value in self._entries(k):
                return Estimate(value, order_k=k, pilot_index_n=n)
        raise BreakdownError("tableau holds no valid estimate")


#: Parents (k - dk, n + dn) of a lozenge entry (k, n), as (dk, dn).
_LOZENGE = ((1, 0), (1, 1), (2, 1))


def _column_sweep(column0: np.ndarray, base: int, rules, keep_full: bool,
                  lozenge: bool = False,
                  last_column: int | None = None) -> Tableau:
    """Fill a :class:`Tableau` column by column from ``column0``.

    ``column0`` holds column 0 from index ``base``: one float per entry
    (1-D) or one vector per row (2-D).  A ``lozenge`` table also has a
    column -1 of zeros, one entry longer, and its even columns are the
    estimates; otherwise every column is.  Column k >= 1 follows
    ``rules[k % len(rules)]``, a triple ``(parents, gap, step)``: entry
    (k, n) reads the entries (k - dk, n + dn) for (dk, dn) in ``parents``,
    in that order.  Both functions see the whole column at once, each read
    as an array whose row i belongs to n = base + i: ``gap(k, *reads)``
    returns ``(carry, size, scale)``, with ``size`` the magnitude of the
    denominator, and ``step(k, carry, size, *reads)`` the column's values,
    which count where :func:`breakdown_check` passes on size and scale.

    This is the one place that decides how a breakdown spreads: an entry
    that reads a flagged one, or whose check fails, is flagged, and reading
    it raises :class:`BreakdownError`.  Each column goes to the table as
    the rule computed it, with its validity as the column's ``held`` mask,
    and the next column reads its parents back from the table.  The rules
    also compute the flagged rows, whose values are never read, so
    floating-point warnings are silenced here.  Column k covers every n
    whose parents exist; the table ends with its first column that holds
    no valid entry, or after ``last_column``, and is then compacted.
    """
    table = Tableau(keep_full, "even" if lozenge else "all")
    if lozenge:
        # vector rows share one zero row; floats are cheaper to allocate
        # than to broadcast
        shape = (len(column0) + 1,) + column0.shape[1:]
        table._store(-1, base, np.zeros(shape) if column0.ndim == 1 else
                     np.broadcast_to(np.zeros(shape[1:]), shape), None)
    table._store(0, base, column0, None)
    columns = table._columns  # every column starts at base
    k = 1
    with np.errstate(all="ignore"):
        while last_column is None or k <= last_column:
            parents, gap, step = rules[k % len(rules)]
            count = min([len(columns[k - dk][1]) - dn for dk, dn in parents])
            if count <= 0:
                break
            reads = [columns[k - dk][1][dn:dn + count] for dk, dn in parents]
            carry, size, scale = gap(k, *reads)
            ok = _passes(size, scale)
            for dk, dn in parents:
                held = columns[k - dk][2]
                if held is not None:
                    ok &= held[dn:dn + count]
            values = step(k, carry, size, *reads)
            valid = np.count_nonzero(ok)
            if valid < count:
                for i in np.flatnonzero(~ok).tolist():
                    table.flag_breakdown(k, base + i)
                if not valid:
                    break
            table._store(k, base, values, None if valid == count else ok)
            k += 1
    table.compact()
    return table


def _lozenge_rule(size, step, out=None) -> tuple:
    """The :func:`_column_sweep` rule of a lozenge column.

    Entry (k, n) is ``step(k, d, size(d), a, b, back)`` with a, b its
    parents e_{k-1}^(n), e_{k-1}^(n+1), back = e_{k-2}^(n+1) and
    d = b - a; it breaks down when :func:`breakdown_check` fails on
    ``size(d)`` against the larger parent size.  ``size`` maps a column to
    its entries' sizes; each parent's size is taken once, since b is a
    shifted by one row.  ``out(k, count)``, when given, returns the array
    that column k's differences are written into.
    """
    def gap(k, a, b, back):
        d = b - a if out is None else np.subtract(b, a, out=out(k, len(a)))
        if a.ndim == 1:  # float entries: two sizes cost less than a splice
            return d, size(d), np.maximum(size(a), size(b))
        sizes = size(a)
        later = np.concatenate((sizes[1:], size(b[-1:])))
        return d, size(d), np.maximum(sizes, later)

    return _LOZENGE, gap, step


def read_sequence_file(path) -> SequenceWindow:
    """Read a sequence window from a text file.

    One term per line: a single finite number for scalar sequences, or
    comma-separated finite components for vector sequences.  Lines starting
    with '#' and blank lines are ignored; UTF-8 with LF or CRLF endings.
    """
    terms: list[Term] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                term = [float(p) for p in line.split(",")] if "," in line \
                    else float(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: cannot parse {line!r}") from exc
            if not np.all(np.isfinite(term)):
                raise ValueError(f"{path}:{lineno}: {line!r} is not finite")
            terms.append(term)
    try:
        return SequenceWindow(terms)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
