"""Sequence buffering, forward differences, tableau storage, and breakdown policy.

Everything downstream (scalar transforms, vector extrapolation, drivers)
is built on the three primitives in this module:

* :class:`SequenceWindow` — an immutable, contiguous buffer of scalar or
  vector terms with forward-difference access;
* :class:`Tableau` — two-column rolling storage for lozenge recursions
  (epsilon, rho, theta, E, H) with per-entry breakdown flags;
* :func:`breakdown_check` / :class:`BreakdownPolicy` — the single shared
  rule deciding when a denominator is too small to divide by.

The lozenge recursion behind epsilon, rho and the vector epsilon
transform is written once, as Wynn's ascending-diagonal update
(``_lozenge_update``) with a pluggable quotient; ``_lozenge_table`` fills
a :class:`Tableau` from it.

All arithmetic is plain 64-bit binary floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

import numpy as np

__all__ = [
    "BreakdownError",
    "BreakdownPolicy",
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
    (``None`` for one-shot transforms), ``denominator`` and ``scale`` are
    the magnitudes that failed :func:`breakdown_check`.
    """

    def __init__(self, message: str, *, order_k: int | None = None,
                 index_n: int | None = None, denominator: float = 0.0,
                 scale: float = 0.0):
        super().__init__(message)
        self.order_k = order_k
        self.index_n = index_n
        self.denominator = denominator
        self.scale = scale


@dataclass(frozen=True)
class BreakdownPolicy:
    """Shared rule for near-zero denominators.

    ``relative_threshold`` is dimensionless: a denominator fails when its
    magnitude is at most ``relative_threshold * max(local_scale, tiny)``
    where ``tiny`` is the smallest positive normal double.  ``action``
    selects what tableau builders do on failure: ``"error"`` raises
    :class:`BreakdownError` immediately, ``"skip-entry"`` flags the entry
    and suppresses everything that depends on it.
    """

    relative_threshold: float = 1e-12
    action: str = "error"

    def __post_init__(self):
        if not self.relative_threshold > 0:
            raise ValueError("relative_threshold must be positive")
        if self.action not in ("error", "skip-entry"):
            raise ValueError("action must be 'error' or 'skip-entry'")


DEFAULT_POLICY = BreakdownPolicy()


def breakdown_check(denominator: float, local_scale: float,
                    policy: BreakdownPolicy = DEFAULT_POLICY) -> bool:
    """Return True when a denominator of the given magnitude is safe to use.

    Fails (returns False) iff ``|denominator| <= threshold * max(scale, tiny)``
    with ``tiny`` the smallest positive normal magnitude, so an exactly zero
    denominator fails even at zero scale.  Array arguments are checked
    elementwise and give a boolean array (a NaN fails).
    """
    if isinstance(local_scale, np.ndarray):
        if np.any(local_scale < 0):
            raise ValueError("local scale must be nonnegative")
        return np.abs(denominator) > \
            policy.relative_threshold * np.maximum(local_scale, _TINY)
    if local_scale < 0:
        raise ValueError("local scale must be nonnegative")
    return abs(denominator) > policy.relative_threshold * max(local_scale, _TINY)


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


def _freeze_term(term) -> Term:
    """Normalize a raw term: scalars to float, vectors to read-only arrays."""
    if isinstance(term, (int, float, np.integer, np.floating)):
        return float(term)
    arr = np.array(term, dtype=np.float64, copy=True)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("vector terms must be one-dimensional with N >= 1")
    arr.flags.writeable = False
    return arr


class SequenceWindow:
    """Immutable contiguous buffer of sequence terms ``s_n, s_{n+1}, ...``.

    Terms are either all scalars or all vectors of one common dimension;
    ``base_index`` is the sequence index of the first stored term.  Adding
    a term goes through :func:`push_term`, which returns a new window.
    """

    __slots__ = ("_terms", "_base")

    def __init__(self, terms: Iterable = (), base_index: int = 0):
        frozen = tuple(_freeze_term(t) for t in terms)
        dims = {t.shape[0] if isinstance(t, np.ndarray) else None for t in frozen}
        if len(dims) > 1:
            raise ValueError("all terms must share one kind and dimension")
        self._terms = frozen
        self._base = int(base_index)

    @property
    def base_index(self) -> int:
        return self._base

    @property
    def last_index(self) -> int:
        return self._base + len(self._terms) - 1

    @property
    def is_scalar(self) -> bool:
        return not self._terms or not isinstance(self._terms[0], np.ndarray)

    @property
    def dimension(self) -> int | None:
        """Common vector dimension N, or None for scalar/empty windows."""
        if self._terms and isinstance(self._terms[0], np.ndarray):
            return self._terms[0].shape[0]
        return None

    @property
    def terms(self) -> tuple:
        return self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self):
        return iter(self._terms)

    def term(self, n: int) -> Term:
        """The term with absolute sequence index ``n``."""
        if not (self._base <= n <= self.last_index):
            raise IndexError(
                f"index {n} outside window [{self._base}, {self.last_index}]")
        return self._terms[n - self._base]

    def as_matrix(self) -> np.ndarray:
        """Stack vector terms as columns (N x len); scalars as a 1 x len row."""
        if self.is_scalar:
            return np.array(self._terms, dtype=np.float64).reshape(1, -1)
        return np.column_stack(self._terms)

    def __repr__(self) -> str:
        kind = "scalar" if self.is_scalar else f"vector[{self.dimension}]"
        return (f"SequenceWindow({kind}, len={len(self._terms)}, "
                f"base={self._base})")


def push_term(window: SequenceWindow, term) -> SequenceWindow:
    """Append one term, returning a new window with the same base index."""
    frozen = _freeze_term(term)
    if len(window) > 0:
        incoming = frozen.shape[0] if isinstance(frozen, np.ndarray) else None
        if incoming != window.dimension:
            raise ValueError(
                f"term dimension {incoming} does not match window "
                f"dimension {window.dimension}")
    new = SequenceWindow.__new__(SequenceWindow)
    new._terms = window._terms + (frozen,)
    new._base = window._base
    return new


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
    """Rolling two-column storage for lozenge recursions.

    Entries are indexed ``(k, n)`` with ``k`` the column (transformation
    order) and ``n`` the shift.  By default only the two most recent
    columns are retained (older ones are evicted once no recursion can
    still read them); ``keep_full=True`` disables eviction for debugging
    and oracle tests.  A record of which entries ever existed is kept for
    all columns so the structural invariant — entry ``(k, n)`` requires
    parents ``(k-1, n)`` and ``(k-1, n+1)`` unless ``k`` is -1 or 0 — can
    be enforced even after eviction.

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
        self._written: dict[int, set[int]] = {}
        self._flags: set[tuple[int, int]] = set()

    # -- structural queries -------------------------------------------------

    def has_entry(self, k: int, n: int) -> bool:
        """True when entry (k, n) is stored (evicted or flagged entries: False)."""
        return k in self._columns and n in self._columns[k] \
            and (k, n) not in self._flags

    def ever_written(self, k: int, n: int) -> bool:
        return k in self._written and n in self._written[k]

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
        if k not in (-1, 0):
            if not (self.ever_written(k - 1, n) and self.ever_written(k - 1, n + 1)):
                raise ValueError(
                    f"entry ({k}, {n}) requires parents ({k - 1}, {n}) "
                    f"and ({k - 1}, {n + 1})")
        self._columns.setdefault(k, {})[n] = value
        self._written.setdefault(k, set()).add(n)
        if not self.keep_full:
            # Writing column k still reads columns k-1 and k-2; anything
            # older can no longer be touched by the recursion.
            for old in [c for c in self._columns if c <= k - 3]:
                del self._columns[old]

    def flag_breakdown(self, k: int, n: int) -> None:
        """Mark entry (k, n) as broken; reads of it raise from then on."""
        self._written.setdefault(k, set()).add(n)
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


def _lozenge_update(diagonal: list, term, index: int, quotient) -> list:
    """Wynn's ascending-diagonal step of the lozenge recursion.

    ``diagonal`` holds the entries e_k^(n) with k + n = index - 1, column 0
    first; the result holds those with k + n = index, from ``term`` =
    e_0^(index) and

        e_k^(n) = e_{k-2}^(n+1) + quotient(e_{k-1}^(n), e_{k-1}^(n+1), k, n),

    with e_{-1} = 0.  ``quotient`` returns a fresh value, to which e_{k-2}
    is added in place, or None where entry (k, n) breaks down; every entry
    that reads a None entry is None as well.  Adding one term costs one
    quotient per column, so a running sequence extends its table without
    rebuilding it.
    """
    new = [term]
    back = 0.0
    for k, a in enumerate(diagonal, start=1):
        b = new[-1]
        if a is None or b is None or back is None:
            new.append(None)
        else:
            q = quotient(a, b, k, index - k)
            if q is not None:
                q += back
            new.append(q)
        back = a
    return new


def _lozenge_table(entries: list, base: int, size, inverse,
                   policy: BreakdownPolicy, keep_full: bool,
                   zero: Term = 0.0) -> Tableau:
    """Even-estimate :class:`Tableau` of a lozenge recursion.

    ``entries`` is column 0 from index ``base``.  Entry (k, n) adds
    ``inverse(d, size(d), k, n)`` to e_{k-2}^(n+1), with d the difference
    of its parents e_{k-1}^(n+1) - e_{k-1}^(n); it breaks down when
    :func:`breakdown_check` fails on ``size(d)`` against the larger parent
    size.  Broken entries are flagged with everything that reads them, and
    the table ends with its first column that holds no valid entry; under
    ``action="error"`` the first breakdown in column order raises instead.
    """
    failures = []

    def quotient(a, b, k, n):
        d = b - a
        denominator = size(d)
        scale = max(size(a), size(b))
        if breakdown_check(denominator, scale, policy):
            return inverse(d, denominator, k, n)
        failures.append((k, n, denominator, scale))
        return None

    # Entries go into the table diagonal by diagonal, so the table's own
    # eviction frees the columns no later read needs as the sweep goes.
    t = Tableau(keep_full=keep_full, estimate_parity="even")
    for n in range(base, base + len(entries) + 1):
        t.set_entry(-1, n, zero)
    diagonal, broken, deepest = [], [], 0
    for i, term in enumerate(entries):
        diagonal = _lozenge_update(diagonal, term, base + i, quotient)
        for k, value in enumerate(diagonal):
            if value is None:
                broken.append((k, base + i - k))
            else:
                t.set_entry(k, base + i - k, value)
                if k > deepest:
                    deepest = k
    if failures and policy.action == "error":
        k, n, denominator, scale = min(failures)
        raise BreakdownError(f"breakdown at tableau entry ({k}, {n})",
                             order_k=k, index_n=n, denominator=denominator,
                             scale=scale)
    # A valid entry needs valid parents, so the columns holding one are
    # 0..deepest; like a column sweep, the table ends with column
    # deepest + 1, the first without one, and flags nothing deeper.
    for k, n in broken:
        if k <= deepest + 1:
            t.flag_breakdown(k, n)
    t.compact()
    return t


def read_sequence_file(path) -> SequenceWindow:
    """Read a sequence window from a text file.

    One term per line: a single number for scalar sequences, or
    comma-separated components for vector sequences.  Lines starting with
    '#' and blank lines are ignored; UTF-8 with LF or CRLF endings.
    """
    terms: list[Term] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                if "," in line:
                    terms.append([float(p) for p in line.split(",")])
                else:
                    terms.append(float(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: cannot parse {line!r}") from exc
    try:
        return SequenceWindow(terms)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
