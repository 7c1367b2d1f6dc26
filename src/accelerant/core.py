"""Sequence buffering, forward differences, tableau storage, and the breakdown check.

Everything downstream (scalar transforms, vector extrapolation, drivers)
is built on the three primitives in this module:

* :class:`SequenceWindow` — an immutable, contiguous buffer of scalar or
  vector terms with forward-difference access;
* :class:`Tableau` — two-column rolling storage for the triangular
  tables (Richardson, epsilon, rho, theta, E, H) with per-entry
  breakdown flags;
* :func:`breakdown_check` — the single shared rule deciding when a
  denominator is too small to divide by.

One column sweep (``_column_sweep``) fills every tableau: Richardson,
epsilon, rho, theta and the E/H recursions each supply only their entry
formula and the parents it reads, and the sweep alone decides how a
breakdown spreads and where a table ends.  The diagonal form of the
lozenge update is the command line's streaming kernel.

All arithmetic is plain 64-bit binary floating point.
"""

from __future__ import annotations

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
    "push_term",
    "read_sequence_file",
]

#: Smallest positive normal double; scales below this are treated as zero scale.
_TINY = float(np.finfo(np.float64).tiny)

Term = Union[float, np.ndarray]


class BreakdownError(ArithmeticError):
    """A recursion denominator was too small to divide by safely.

    Attributes carry enough context to report *where* the tableau broke:
    ``order_k`` / ``index_n`` locate the entry whose computation failed
    (``None`` where a transform has no such position), ``denominator`` and
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
        return np.abs(denominator) > \
            _BREAKDOWN_THRESHOLD * np.maximum(local_scale, _TINY)
    if local_scale < 0:
        raise ValueError("local scale must be nonnegative")
    return abs(denominator) > _BREAKDOWN_THRESHOLD * max(local_scale, _TINY)


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
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{label} must be finite")
    arr.flags.writeable = False
    return arr


class SequenceWindow:
    """Immutable contiguous buffer of sequence terms ``s_n, s_{n+1}, ...``.

    Terms are either all scalars or all vectors of one common dimension;
    ``base_index`` is the sequence index of the first stored term.  They
    are held once, as the rows of one read-only C-order (count x N) array,
    scalars as a single column.  Adding a term goes through
    :func:`push_term`, which returns a new window.
    """

    __slots__ = ("_rows", "_scalar", "_base")

    def __init__(self, terms: Iterable = (), base_index: int = 0):
        try:
            rows = np.array(list(terms), dtype=np.float64)
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
    def dimension(self) -> int | None:
        """Common vector dimension N, or None for scalar/empty windows."""
        return None if self._scalar else self._rows.shape[1]

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
        layout, so those callers take an N x count C-order copy
        (``.T.copy()``).
        """
        if index < self._base or index + count - 1 > self.last_index:
            raise ValueError(
                f"window covers indices {self._base}..{self.last_index}, "
                f"need {index}..{index + count - 1}")
        start = index - self._base
        return self._rows[start:start + count]

    def as_matrix(self) -> np.ndarray:
        """Stack vector terms as columns (N x len); scalars as a 1 x len row."""
        return self._rows.T.copy()

    def __repr__(self) -> str:
        kind = "scalar" if self.is_scalar else f"vector[{self.dimension}]"
        return (f"SequenceWindow({kind}, len={len(self)}, "
                f"base={self._base})")


def push_term(window: SequenceWindow, term) -> SequenceWindow:
    """Append one term, returning a new window with the same base index."""
    return SequenceWindow([*window, term], window.base_index)


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
    """Rolling two-column storage for triangular recursion tables.

    Entries are indexed ``(k, n)`` with ``k`` the column (transformation
    order) and ``n`` the shift.  By default only the two most recent
    columns are retained: starting column k evicts the columns no
    recursion writing it can still read, those up to k - 3, and
    ``compact`` keeps the last two; ``keep_full=True`` disables eviction
    for debugging and oracle tests.  Entry ``(k, n)`` requires parents
    ``(k-1, n)`` and ``(k-1, n+1)``, stored or flagged, unless ``k`` is
    -1 or 0, so tables fill column by column.

    ``estimate_parity`` marks which columns hold genuine limit estimates:
    ``"even"`` for epsilon-type tables whose odd columns are auxiliary,
    ``"all"`` otherwise.
    """

    def __init__(self, keep_full: bool = False, estimate_parity: str = "all"):
        if estimate_parity not in ("all", "even"):
            raise ValueError("estimate_parity must be 'all' or 'even'")
        self.keep_full = bool(keep_full)
        self.estimate_parity = estimate_parity
        self._columns: dict[int, dict[int, Term]] = {}
        self._flags: set[tuple[int, int]] = set()

    # -- structural queries -------------------------------------------------

    def has_entry(self, k: int, n: int) -> bool:
        """True when entry (k, n) is stored (evicted or flagged entries: False)."""
        return k in self._columns and n in self._columns[k] \
            and (k, n) not in self._flags

    def is_flagged(self, k: int, n: int) -> bool:
        return (k, n) in self._flags

    def stored_columns(self) -> list[int]:
        return sorted(self._columns)

    def column(self, k: int) -> dict[int, Term]:
        """Stored entries of column k as {n: value}, excluding flagged ones."""
        col = self._columns.get(k, {})
        return {n: v for n, v in col.items() if (k, n) not in self._flags}

    # -- mutation -----------------------------------------------------------

    def set_entry(self, k: int, n: int, value: Term) -> None:
        columns = self._columns
        if k not in (-1, 0):
            parents, flags = columns.get(k - 1, ()), self._flags
            if not ((n in parents or (k - 1, n) in flags)
                    and (n + 1 in parents or (k - 1, n + 1) in flags)):
                raise ValueError(
                    f"entry ({k}, {n}) requires parents ({k - 1}, {n}) "
                    f"and ({k - 1}, {n + 1})")
        column = columns.get(k)
        if column is None:
            column = columns[k] = {}
            if not self.keep_full:
                for old in [c for c in columns if c <= k - 3]:
                    del columns[old]
        column[n] = value

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
        """Entry (k, n); raises BreakdownError if flagged, KeyError if absent."""
        if (k, n) in self._flags:
            raise BreakdownError(
                f"tableau entry ({k}, {n}) is invalid after a breakdown",
                order_k=k, index_n=n)
        try:
            return self._columns[k][n]
        except KeyError:
            raise KeyError(f"tableau entry ({k}, {n}) is not stored") from None

    def flagged_entries(self) -> list[tuple[int, int]]:
        """Positions (k, n) invalidated by breakdowns, sorted by column."""
        return sorted(self._flags)

    def estimates(self) -> list[Estimate]:
        """All stored entries in estimate-carrying columns, shallowest first."""
        out = []
        for k in self.stored_columns():
            if k < 0 or (self.estimate_parity == "even" and k % 2 != 0):
                continue
            for n in sorted(self._columns[k]):
                if (k, n) not in self._flags:
                    out.append(Estimate(self._columns[k][n], order_k=k,
                                        pilot_index_n=n))
        return out

    def best_estimate(self) -> Estimate:
        """The deepest stored valid estimate (highest column, smallest n)."""
        for k in reversed(self.stored_columns()):
            if k < 0 or (self.estimate_parity == "even" and k % 2 != 0):
                continue
            for n in sorted(self._columns[k]):
                if (k, n) not in self._flags:
                    return Estimate(self._columns[k][n], order_k=k,
                                    pilot_index_n=n)
        raise BreakdownError("tableau holds no valid estimate")


#: Parents (k - dk, n + dn) of a lozenge entry (k, n), as (dk, dn).
_LOZENGE = ((1, 0), (1, 1), (2, 1))


def _column_sweep(entries: list, base: int, rules, keep_full: bool,
                  zero: Term | None = None,
                  last_column: int | None = None) -> Tableau:
    """Fill a :class:`Tableau` column by column from column 0 ``entries``.

    Column 0 starts at index ``base``.  ``zero``, when given, is column -1
    (one entry longer) of a lozenge-type table, whose even columns are the
    estimates; otherwise every column is.  Column k >= 1 follows
    ``rules[k % len(rules)]``, a triple ``(parents, gap, step)``: entry
    (k, n) reads the entries (k - dk, n + dn) for (dk, dn) in ``parents``,
    in that order, ``gap(k, n, *reads)`` returns ``(carry, denominator,
    scale)``, and ``step(k, n, carry, denominator, *reads)`` returns the
    entry once :func:`breakdown_check` passes on denominator and scale.

    This is the one place that decides how a breakdown spreads: an entry
    that reads a flagged one, or whose check fails, is flagged, and reading
    it raises :class:`BreakdownError`.  Column k covers every n whose
    parents exist; the table ends with its first column that holds no valid
    entry, or after ``last_column``, and is then compacted.
    """
    table = Tableau(keep_full, "all" if zero is None else "even")
    last = {0: base + len(entries) - 1}
    if zero is not None:
        last[-1] = base + len(entries)
        for n in range(base, last[-1] + 1):
            table.set_entry(-1, n, zero)
    for i, entry in enumerate(entries):
        table.set_entry(0, base + i, entry)
    columns = table._columns
    k = 1
    while last_column is None or k <= last_column:
        parents, gap, step = rules[k % len(rules)]
        sources = [(columns[k - dk], dn) for dk, dn in parents]
        last[k] = min(last[k - dk] - dn for dk, dn in parents)
        alive = False
        for n in range(base, last[k] + 1):
            try:
                reads = [column[n + dn] for column, dn in sources]
            except KeyError:  # flagged entries are not stored
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


def _lozenge_rule(size, step) -> tuple:
    """The :func:`_column_sweep` rule of a lozenge column.

    Entry (k, n) is ``step(k, n, d, size(d), a, b, back)`` with a, b its
    parents e_{k-1}^(n), e_{k-1}^(n+1), back = e_{k-2}^(n+1) and
    d = b - a; it breaks down when :func:`breakdown_check` fails on
    ``size(d)`` against the larger parent size.
    """
    def gap(k, n, a, b, back):
        d = b - a
        return d, size(d), max(size(a), size(b))

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
