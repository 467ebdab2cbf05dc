"""Associative arrays (Definition I.1) with transpose and selection.

An :class:`AssociativeArray` is a map ``A : K1 × K2 → V`` over finite
totally ordered key sets, stored sparsely: only entries different from the
array's *zero* element are kept.  The zero defaults to ``0`` but can be any
value (``−∞`` for max-plus arrays, ``∅`` for set-valued arrays, ``''`` for
string lattices) — the paper's Figure 3 note that the zero may "be it 0,
−∞, or ∞" is first-class here.

Design notes
------------
* Key sets are part of the array's identity: an array can have empty rows
  and columns (keys with no stored entries).  This matters because
  Definition I.3's ``⊕``-sum ranges over the whole inner key set, and
  because incidence arrays of a graph share the full edge set ``K`` even
  when some edges touch no vertex of one side.
* Entries equal to the zero are never stored; assigning the zero deletes.
* Instances are immutable by convention: all operations return new arrays.
  (Storage is never defensively copied on read.)
* Storage lives behind a backend (:mod:`repro.arrays.backend`): a plain
  dict for arbitrary value sets, or a persistent columnar/CSR
  representation for plain numbers.  The choice is automatic; the
  ``backend=`` keyword pins it explicitly.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arrays.backend import (
    BACKEND_KINDS,
    VECTORIZE_MIN_NNZ,
    DictBackend,
    NumericBackend,
    dict_to_numeric,
    embed_lookup,
    usable_numeric_zero,
)
from repro.arrays.keys import KeyError_, KeySet, Selector
from repro.values.equality import values_equal as _values_equal

__all__ = ["AssociativeArray", "transpose_is_numeric"]

#: Cache sentinel: promotion to numeric storage not tried yet (a cached
#: ``None`` means it was tried and failed).
_NO_NUMERIC = object()


def transpose_is_numeric(*, native: bool, promotion: Optional[bool],
                         nnz: float) -> bool:
    """Whether the transpose of an array is stored on the numeric backend.

    ``native``: the array is stored numeric.  ``promotion``: whether
    promoting its dict store succeeds — known ``False`` for a pinned
    array or one whose zero is not a plain number, cached once tried,
    ``None`` while untried.  A dict-stored array's transpose reuses a
    successful promotion, and promotes an untried array of at least
    ``VECTORIZE_MIN_NNZ`` entries (assumed here to succeed).  Smaller
    arrays stay on the dict path, as in the other kernels, so exact
    Python value types are kept for the paper-figure cases.

    :meth:`AssociativeArray.transpose`, the transposed product's kernel
    routing and the expression cost model all decide through here.
    """
    if native or promotion:
        return True
    return promotion is None and nnz >= VECTORIZE_MIN_NNZ


class AssociativeArray:
    """A sparse map ``K1 × K2 → V`` with a designated zero element.

    Parameters
    ----------
    data:
        Mapping ``(row_key, col_key) → value``.  Entries whose value equals
        ``zero`` are dropped.
    row_keys, col_keys:
        Key sets (anything :meth:`KeySet.coerce` accepts).  When omitted,
        they are derived from ``data``; passing them explicitly allows
        empty rows/columns, which Definition I.3 semantics need.
    zero:
        The array's zero element (default ``0``).
    backend:
        Storage backend: ``"auto"`` (dict storage, promoted to the
        columnar form on demand by the vectorised fast paths),
        ``"dict"`` (pinned to dict storage — every operation takes the
        generic path), or ``"numeric"`` (eager columnar conversion;
        raises unless the zero and all stored values are plain numbers).
    """

    __slots__ = ("_backend", "_row_keys", "_col_keys", "_zero", "_cache")

    def __init__(
        self,
        data: Optional[Mapping[Tuple[Any, Any], Any]] = None,
        *,
        row_keys: Union[KeySet, Iterable[Any], None] = None,
        col_keys: Union[KeySet, Iterable[Any], None] = None,
        zero: Any = 0,
        backend: str = "auto",
    ) -> None:
        if backend not in BACKEND_KINDS:
            raise KeyError_(
                f"unknown backend {backend!r}; use one of {BACKEND_KINDS}")
        entries = dict(data or {})
        if row_keys is None:
            row_keys = {r for (r, _c) in entries}
        if col_keys is None:
            col_keys = {c for (_r, c) in entries}
        self._row_keys = KeySet.coerce(row_keys)
        self._col_keys = KeySet.coerce(col_keys)
        self._zero = zero
        clean: Dict[Tuple[Any, Any], Any] = {}
        for (r, c), v in entries.items():
            if r not in self._row_keys:
                raise KeyError_(f"row key {r!r} not in row key set")
            if c not in self._col_keys:
                raise KeyError_(f"column key {c!r} not in column key set")
            if not _values_equal(v, zero):
                clean[(r, c)] = v
        # Derived-representation memo (e.g. the promoted numeric
        # backend).  Arrays are immutable by convention, so caching is
        # safe; the cache never participates in equality or pickling.
        self._cache: Dict[str, Any] = {}
        if backend == "numeric":
            self._backend = self._promote_or_raise(clean)
        else:
            self._backend = DictBackend(clean, pinned=(backend == "dict"))

    # ------------------------------------------------------------------
    # Storage backend machinery
    # ------------------------------------------------------------------
    @property
    def _data(self) -> Dict[Tuple[Any, Any], Any]:
        """The ``{(row, col): value}`` view of the stored entries.

        For dict storage this *is* the store (not copied — mutating it
        would violate immutability-by-convention); for numeric storage
        it is a lazily materialised, cached view.
        """
        be = self._backend
        if be.kind == "dict":
            return be.data
        return be.to_dict(self._row_keys.keys(), self._col_keys.keys())

    @property
    def backend(self) -> str:
        """The active storage backend kind: ``"dict"`` or ``"numeric"``."""
        return self._backend.kind

    @property
    def pinned(self) -> bool:
        """Whether this array is pinned to dict storage (``backend="dict"``).

        Pins are inherited by derived arrays (transpose, selection,
        re-embedding, generic operation results over pinned operands),
        so an explicit opt-out of the numeric fast paths holds through
        whole computations — e.g. a ⊕-merge tree over pinned shard
        results stays generic at every level.
        """
        be = self._backend
        return be.kind == "dict" and be.pinned

    @property
    def _derived_backend(self) -> str:
        """Constructor ``backend=`` argument for arrays derived from self."""
        return "dict" if self.pinned else "auto"

    def numeric_backend(self) -> Optional[NumericBackend]:
        """The columnar backend driving the vectorised fast paths.

        Returns the native backend when storage is already numeric;
        otherwise attempts (and caches) a one-time promotion of the dict
        store.  Returns ``None`` — and the callers fall back to the
        generic implementations — when the array is pinned
        (``backend="dict"``), its zero is not a plain non-NaN number, or
        any stored value is not a plain number.
        """
        be = self._backend
        if be.kind == "numeric":
            return be
        if be.pinned:
            return None
        cached = self._cache.get("numeric_backend", _NO_NUMERIC)
        if cached is not _NO_NUMERIC:
            return cached
        nb = None
        if usable_numeric_zero(self._zero):
            nb = dict_to_numeric(be.data, self._row_keys.position_map(),
                                 self._col_keys.position_map(), self.shape)
        self._cache["numeric_backend"] = nb
        return nb

    def _promote_or_raise(self, data: Dict[Tuple[Any, Any], Any]) -> NumericBackend:
        """Columnar conversion of ``data`` for an explicit ``"numeric"``
        request; raises with a precise reason when impossible."""
        if not usable_numeric_zero(self._zero):
            raise KeyError_(
                f"backend='numeric' requires a plain (non-NaN) numeric "
                f"zero, got {self._zero!r}")
        nb = dict_to_numeric(data, self._row_keys.position_map(),
                             self._col_keys.position_map(), self.shape)
        if nb is None:
            raise KeyError_(
                "backend='numeric' requires plain numeric stored values "
                "(ints exactly representable in float64)")
        return nb

    def with_backend(self, backend: str) -> "AssociativeArray":
        """This array under an explicitly chosen storage backend.

        ``"numeric"`` forces columnar storage (raising when the values
        or zero are not plain numbers — the explicit request overrides a
        pin); ``"dict"`` pins to dict storage; ``"auto"`` lifts a pin.
        Returns ``self`` when nothing changes.
        """
        if backend not in BACKEND_KINDS:
            raise KeyError_(
                f"unknown backend {backend!r}; use one of {BACKEND_KINDS}")
        be = self._backend
        if backend == "numeric":
            if be.kind == "numeric":
                return self
            # Reuse a promotion a fast path already computed; a pinned
            # array skips the cache (the pin suppressed it) and the
            # explicit request overrides the pin.
            nb = None if be.pinned else self.numeric_backend()
            if nb is None:
                nb = self._promote_or_raise(be.data)
            return AssociativeArray._adopt(nb, self._row_keys,
                                           self._col_keys, self._zero)
        if backend == "dict":
            if be.kind == "dict" and be.pinned:
                return self
            return AssociativeArray._adopt(
                DictBackend(dict(self._data), pinned=True),
                self._row_keys, self._col_keys, self._zero)
        if be.kind == "dict" and be.pinned:
            return AssociativeArray._adopt(DictBackend(be.data),
                                           self._row_keys, self._col_keys,
                                           self._zero)
        return self

    @classmethod
    def _adopt(cls, backend, row_keys, col_keys, zero) -> "AssociativeArray":
        """Internal: wrap a ready-made backend without re-validation."""
        self = object.__new__(cls)
        self._backend = backend
        self._row_keys = KeySet.coerce(row_keys)
        self._col_keys = KeySet.coerce(col_keys)
        self._zero = zero
        self._cache = {}
        return self

    @classmethod
    def _from_numeric(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        *,
        row_keys: Union[KeySet, Iterable[Any]],
        col_keys: Union[KeySet, Iterable[Any]],
        zero: Any,
        presorted: bool = False,
        filtered: bool = False,
    ) -> "AssociativeArray":
        """Internal: adopt columnar storage from a vectorised kernel.

        Positions are trusted (in-range for the key sets); entries equal
        to ``zero`` are dropped vectorised unless ``filtered`` says the
        caller already did.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not filtered:
            keep = vals != float(zero)
            if not bool(keep.all()):
                rows, cols, vals = rows[keep], cols[keep], vals[keep]
        rk = KeySet.coerce(row_keys)
        ck = KeySet.coerce(col_keys)
        be = NumericBackend(rows, cols, vals, (len(rk), len(ck)),
                            presorted=presorted)
        return cls._adopt(be, rk, ck, zero)

    # -- pickling: the cache is derived state; spill files stay lean ----------
    def __getstate__(self):
        return (self._backend, self._row_keys, self._col_keys, self._zero)

    def __setstate__(self, state) -> None:
        self._backend, self._row_keys, self._col_keys, self._zero = state
        self._cache = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(
        cls,
        row_keys: Union[KeySet, Iterable[Any]],
        col_keys: Union[KeySet, Iterable[Any]],
        *,
        zero: Any = 0,
    ) -> "AssociativeArray":
        """All-zero array over the given key sets."""
        return cls({}, row_keys=row_keys, col_keys=col_keys, zero=zero)

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[Tuple[Any, Any, Any]],
        *,
        row_keys: Union[KeySet, Iterable[Any], None] = None,
        col_keys: Union[KeySet, Iterable[Any], None] = None,
        zero: Any = 0,
        combine: Optional[Callable[[Any, Any], Any]] = None,
        backend: str = "auto",
    ) -> "AssociativeArray":
        """Build from ``(row, col, value)`` triples.

        Duplicate coordinates raise unless ``combine`` is given, in which
        case values are combined left-to-right in input order (D4M's
        assoc-with-collision-function construction).  ``backend`` as in
        the constructor.
        """
        data: Dict[Tuple[Any, Any], Any] = {}
        for r, c, v in triples:
            key = (r, c)
            if key in data:
                if combine is None:
                    raise KeyError_(
                        f"duplicate coordinate {key!r}; pass combine= to "
                        "merge values")
                data[key] = combine(data[key], v)
            else:
                data[key] = v
        return cls(data, row_keys=row_keys, col_keys=col_keys, zero=zero,
                   backend=backend)

    @classmethod
    def from_dense(
        cls,
        rows: Sequence[Sequence[Any]],
        row_keys: Union[KeySet, Iterable[Any]],
        col_keys: Union[KeySet, Iterable[Any]],
        *,
        zero: Any = 0,
    ) -> "AssociativeArray":
        """Build from a dense row-major list of lists.

        ``rows[i][j]`` corresponds to ``(row_keys[i], col_keys[j])`` in
        *sorted* key order.
        """
        rk = KeySet.coerce(row_keys)
        ck = KeySet.coerce(col_keys)
        if len(rows) != len(rk):
            raise KeyError_(f"expected {len(rk)} rows, got {len(rows)}")
        data: Dict[Tuple[Any, Any], Any] = {}
        for i, row in enumerate(rows):
            if len(row) != len(ck):
                raise KeyError_(
                    f"row {i} has {len(row)} entries, expected {len(ck)}")
            for j, v in enumerate(row):
                if not _values_equal(v, zero):
                    data[(rk[i], ck[j])] = v
        return cls(data, row_keys=rk, col_keys=ck, zero=zero)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def row_keys(self) -> KeySet:
        """The row key set ``K1``."""
        return self._row_keys

    @property
    def col_keys(self) -> KeySet:
        """The column key set ``K2``."""
        return self._col_keys

    @property
    def zero(self) -> Any:
        """The array's zero element (unstored value)."""
        return self._zero

    @property
    def shape(self) -> Tuple[int, int]:
        """``(len(K1), len(K2))``."""
        return (len(self._row_keys), len(self._col_keys))

    @property
    def nnz(self) -> int:
        """Number of stored (nonzero) entries."""
        return self._backend.nnz

    def is_zero_value(self, v: Any) -> bool:
        """Whether ``v`` equals this array's zero."""
        return _values_equal(v, self._zero)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def get(self, row: Any, col: Any, default: Any = None) -> Any:
        """Value at ``(row, col)``; the zero (or ``default``) if unstored.

        Keys outside the key sets raise :class:`KeyError_`.
        """
        if row not in self._row_keys:
            raise KeyError_(f"row key {row!r} not in row key set")
        if col not in self._col_keys:
            raise KeyError_(f"column key {col!r} not in column key set")
        fallback = self._zero if default is None else default
        return self._data.get((row, col), fallback)

    def __getitem__(self, item: Tuple[Any, Any]) -> Any:
        """``A[r, c]`` → value; ``A[row_sel, col_sel]`` → sub-array.

        Scalar access requires both components to be existing keys; any
        other combination is interpreted as a pair of selectors (string
        ranges, prefixes, ``':'``, lists, slices, KeySets) and yields the
        selected sub-array, mirroring the paper's
        ``E(:, 'Genre|A : Genre|Z')``.
        """
        if not isinstance(item, tuple) or len(item) != 2:
            raise KeyError_("indexing requires a (row, col) pair")
        row_sel, col_sel = item
        scalar_row = not isinstance(row_sel, (slice, KeySet, list, tuple)) \
            and row_sel in self._row_keys
        scalar_col = not isinstance(col_sel, (slice, KeySet, list, tuple)) \
            and col_sel in self._col_keys
        # A string that is literally a key takes priority as scalar access;
        # but a row scalar with a column selector (or vice versa) still
        # produces a sub-array.
        if scalar_row and scalar_col:
            return self._data.get((row_sel, col_sel), self._zero)
        return self.select(row_sel if not scalar_row else [row_sel],
                           col_sel if not scalar_col else [col_sel])

    def select(self, row_selector: Selector, col_selector: Selector) -> "AssociativeArray":
        """Sub-array on the selected keys (selection semantics of Figure 1)."""
        rows = self._row_keys.select(row_selector)
        cols = self._col_keys.select(col_selector)
        be = self._backend
        if be.kind == "numeric":
            # Index-array permutation: mask the stored coordinates and
            # remap positions through (monotone) selection lookups — the
            # lex order survives, so no re-sort.
            rlook = embed_lookup(self._row_keys, rows.position_map(),
                                 len(self._row_keys))
            clook = embed_lookup(self._col_keys, cols.position_map(),
                                 len(self._col_keys))
            nr = rlook[be.rows]
            nc = clook[be.cols]
            keep = (nr >= 0) & (nc >= 0)
            sub = NumericBackend(nr[keep], nc[keep], be.vals[keep],
                                 (len(rows), len(cols)), presorted=True)
            return AssociativeArray._adopt(sub, rows, cols, self._zero)
        row_set, col_set = set(rows), set(cols)
        data = {(r, c): v for (r, c), v in self._data.items()
                if r in row_set and c in col_set}
        return AssociativeArray(data, row_keys=rows, col_keys=cols,
                                zero=self._zero,
                                backend=self._derived_backend)

    def row(self, row: Any) -> Dict[Any, Any]:
        """Stored entries of one row as ``{col: value}`` (sorted by col)."""
        if row not in self._row_keys:
            raise KeyError_(f"row key {row!r} not in row key set")
        pairs = [(c, v) for (r, c), v in self._data.items() if r == row]
        return dict(sorted(pairs, key=lambda cv: self._col_keys.index(cv[0])))

    def col(self, col: Any) -> Dict[Any, Any]:
        """Stored entries of one column as ``{row: value}`` (sorted by row)."""
        if col not in self._col_keys:
            raise KeyError_(f"column key {col!r} not in column key set")
        pairs = [(r, v) for (r, c), v in self._data.items() if c == col]
        return dict(sorted(pairs, key=lambda rv: self._row_keys.index(rv[0])))

    def entries(self) -> Iterator[Tuple[Any, Any, Any]]:
        """Stored entries as ``(row, col, value)`` in (row, col) key order."""
        be = self._backend
        if be.kind == "numeric":
            # Columnar storage is already lex-sorted: stream it without
            # materialising the dict view or sorting in Python.
            rk = self._row_keys.keys()
            ck = self._col_keys.keys()
            for i, j, v in zip(be.rows.tolist(), be.cols.tolist(),
                               be.vals.tolist()):
                yield rk[i], ck[j], v
            return
        data = self._data
        ri = self._row_keys.position_map()
        ci = self._col_keys.position_map()
        for (r, c) in sorted(data, key=lambda rc: (ri[rc[0]], ci[rc[1]])):
            yield r, c, data[(r, c)]

    def triples(self) -> List[Tuple[Any, Any, Any]]:
        """:meth:`entries` as a list."""
        return list(self.entries())

    def nonzero_pattern(self) -> frozenset:
        """The set of stored coordinates — the array's *structure*.

        Definition I.5 characterises adjacency arrays purely through this
        pattern, so pattern equality is the core predicate of the paper.
        """
        return frozenset(self._data)

    def values_list(self) -> List[Any]:
        """Stored values in (row, col) key order."""
        return [v for (_r, _c, v) in self.entries()]

    def rows_nonempty(self) -> KeySet:
        """Row keys that have at least one stored entry."""
        be = self._backend
        if be.kind == "numeric":
            rk = self._row_keys.keys()
            return KeySet([rk[i] for i in np.unique(be.rows).tolist()],
                          presorted=True)
        present = {r for (r, _c) in self._data}
        return KeySet([r for r in self._row_keys if r in present],
                      presorted=True)

    def cols_nonempty(self) -> KeySet:
        """Column keys that have at least one stored entry."""
        be = self._backend
        if be.kind == "numeric":
            ck = self._col_keys.keys()
            return KeySet([ck[j] for j in np.unique(be.cols).tolist()],
                          presorted=True)
        present = {c for (_r, c) in self._data}
        return KeySet([c for c in self._col_keys if c in present],
                      presorted=True)

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def transposes_numeric(self) -> bool:
        """Whether :meth:`transpose` stores its result on the numeric
        backend: :func:`transpose_is_numeric` on this array's storage,
        its promotion state and its size."""
        be = self._backend
        promotion: Optional[bool] = None
        if be.kind == "dict" and (be.pinned
                                  or not usable_numeric_zero(self._zero)):
            promotion = False
        else:
            cached = self._cache.get("numeric_backend", _NO_NUMERIC)
            if cached is not _NO_NUMERIC:
                promotion = cached is not None
        return transpose_is_numeric(native=be.kind == "numeric",
                                    promotion=promotion, nnz=self.nnz)

    def transpose(self) -> "AssociativeArray":
        """Definition I.2: ``Aᵀ(k2, k1) = A(k1, k2)``.

        When :meth:`transposes_numeric` holds, the columnar form (native,
        a cached promotion, or a promotion made now) is transposed by
        index-array permutation: its cached CSC becomes the transpose's
        CSR, so Aᵀ arrives pre-compiled.  Otherwise the transposed dict
        is rebuilt.
        """
        if self.transposes_numeric():
            nb = self.numeric_backend()
            if nb is not None:
                return AssociativeArray._adopt(nb.transposed(),
                                               self._col_keys,
                                               self._row_keys, self._zero)
        data = {(c, r): v for (r, c), v in self._data.items()}
        return AssociativeArray(data, row_keys=self._col_keys,
                                col_keys=self._row_keys, zero=self._zero,
                                backend=self._derived_backend)

    @property
    def T(self) -> "AssociativeArray":
        """Alias for :meth:`transpose`."""
        return self.transpose()

    def with_zero(self, zero: Any) -> "AssociativeArray":
        """Reinterpret the stored nonzeros over a different zero element.

        This is the Figure 3 move: the same incidence array is multiplied
        under op-pairs whose zeros are 0, −∞ or +∞; stored entries are the
        nonzeros in every case.  Stored values equal to the *new* zero
        would silently vanish, so that case raises.
        """
        for (r, c), v in self._data.items():
            if _values_equal(v, zero):
                raise KeyError_(
                    f"stored value at {(r, c)!r} equals the new zero "
                    f"{zero!r}; reinterpretation would drop it")
        return AssociativeArray(self._data, row_keys=self._row_keys,
                                col_keys=self._col_keys, zero=zero,
                                backend=self._derived_backend)

    def map_values(self, func: Callable[[Any], Any],
                   *, zero: Any = None) -> "AssociativeArray":
        """Apply ``func`` to every stored value (results equal to the zero
        are dropped).  ``zero`` overrides the result array's zero."""
        z = self._zero if zero is None else zero
        data = {rc: func(v) for rc, v in self._data.items()}
        return AssociativeArray(data, row_keys=self._row_keys,
                                col_keys=self._col_keys, zero=z,
                                backend=self._derived_backend)

    def restrict_values(self, predicate: Callable[[Any], bool]) -> "AssociativeArray":
        """Keep only stored entries whose value satisfies ``predicate``."""
        data = {rc: v for rc, v in self._data.items() if predicate(v)}
        return AssociativeArray(data, row_keys=self._row_keys,
                                col_keys=self._col_keys, zero=self._zero,
                                backend=self._derived_backend)

    def prune_to_pattern(self) -> "AssociativeArray":
        """Drop empty rows/columns, shrinking the key sets to the pattern."""
        if self._backend.kind == "numeric":
            return self.select(self.rows_nonempty(), self.cols_nonempty())
        return AssociativeArray(self._data,
                                row_keys=self.rows_nonempty(),
                                col_keys=self.cols_nonempty(),
                                zero=self._zero,
                                backend=self._derived_backend)

    def with_keys(
        self,
        row_keys: Union[KeySet, Iterable[Any], None] = None,
        col_keys: Union[KeySet, Iterable[Any], None] = None,
    ) -> "AssociativeArray":
        """Re-embed into (super)key sets, e.g. to share an edge set ``K``."""
        rk = self._row_keys if row_keys is None else KeySet.coerce(row_keys)
        ck = self._col_keys if col_keys is None else KeySet.coerce(col_keys)
        be = self._backend
        if be.kind == "numeric":
            rlook = embed_lookup(self._row_keys, rk.position_map(),
                                 len(self._row_keys))
            clook = embed_lookup(self._col_keys, ck.position_map(),
                                 len(self._col_keys))
            nr = rlook[be.rows]
            nc = clook[be.cols]
            # Stored entries must survive the embedding (unused keys may
            # drop) — the same contract the dict constructor enforces.
            if nr.size and int(nr.min()) < 0:
                key = self._row_keys[int(be.rows[int(np.argmin(nr))])]
                raise KeyError_(f"row key {key!r} not in row key set")
            if nc.size and int(nc.min()) < 0:
                key = self._col_keys[int(be.cols[int(np.argmin(nc))])]
                raise KeyError_(f"column key {key!r} not in column key set")
            emb = NumericBackend(nr, nc, be.vals, (len(rk), len(ck)),
                                 presorted=True)
            return AssociativeArray._adopt(emb, rk, ck, self._zero)
        return AssociativeArray(self._data, row_keys=rk, col_keys=ck,
                                zero=self._zero,
                                backend=self._derived_backend)

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Strict equality: key sets, zero, and stored entries all match."""
        if not isinstance(other, AssociativeArray):
            return NotImplemented
        if self._row_keys != other._row_keys:
            return False
        if self._col_keys != other._col_keys:
            return False
        if not _values_equal(self._zero, other._zero):
            return False
        if set(self._data) != set(other._data):
            return False
        return all(_values_equal(v, other._data[rc])
                   for rc, v in self._data.items())

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("AssociativeArray is unhashable")

    def same_pattern(self, other: "AssociativeArray") -> bool:
        """Whether both arrays store exactly the same coordinates."""
        return self.nonzero_pattern() == other.nonzero_pattern()

    def allclose(self, other: "AssociativeArray", *,
                 rel_tol: float = 1e-9, abs_tol: float = 1e-12) -> bool:
        """Pattern equality plus numeric closeness of stored values."""
        if not self.same_pattern(other):
            return False
        for rc, v in self._data.items():
            w = other._data[rc]
            if isinstance(v, (int, float)) and isinstance(w, (int, float)):
                v_nan = isinstance(v, float) and math.isnan(v)
                w_nan = isinstance(w, float) and math.isnan(w)
                if v_nan or w_nan:
                    if not (v_nan and w_nan):
                        return False
                elif math.isinf(v) or math.isinf(w):
                    if v != w:
                        return False
                elif not math.isclose(v, w, rel_tol=rel_tol, abs_tol=abs_tol):
                    return False
            elif not _values_equal(v, w):
                return False
        return True

    # ------------------------------------------------------------------
    # Algebra (delegating to matmul / elementwise modules)
    # ------------------------------------------------------------------
    def dot(self, other: "AssociativeArray", op_pair,
            *, mode: str = "sparse", kernel: str = "auto") -> "AssociativeArray":
        """Array multiplication ``self ⊕.⊗ other`` (Definition I.3).

        See :func:`repro.arrays.matmul.multiply` for ``mode``/``kernel``.
        """
        from repro.arrays.matmul import multiply
        return multiply(self, other, op_pair, mode=mode, kernel=kernel)

    def add(self, other: "AssociativeArray", op) -> "AssociativeArray":
        """Element-wise ``⊕`` (union-pattern evaluation)."""
        from repro.arrays.elementwise import elementwise_add
        return elementwise_add(self, other, op)

    def multiply_elementwise(self, other: "AssociativeArray", op) -> "AssociativeArray":
        """Element-wise ``⊗`` (union-pattern evaluation)."""
        from repro.arrays.elementwise import elementwise_multiply
        return elementwise_multiply(self, other, op)

    # ------------------------------------------------------------------
    # Conversion / display
    # ------------------------------------------------------------------
    def to_dense(self) -> List[List[Any]]:
        """Dense row-major list of lists, zero-filled."""
        out = [[self._zero] * len(self._col_keys)
               for _ in range(len(self._row_keys))]
        ri = self._row_keys.position_map()
        ci = self._col_keys.position_map()
        for (r, c), v in self._data.items():
            out[ri[r]][ci[c]] = v
        return out

    def to_dict(self) -> Dict[Tuple[Any, Any], Any]:
        """A copy of the stored entries."""
        return dict(self._data)

    def __str__(self) -> str:
        from repro.arrays.printing import format_array
        return format_array(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"AssociativeArray(shape={self.shape}, nnz={self.nnz}, "
                f"zero={self._zero!r})")
