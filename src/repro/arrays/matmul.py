"""Array multiplication ``C = A ⊕.⊗ B`` (Definition I.3).

``C(k1, k2) = ⊕_{k3 ∈ K3} A(k1, k3) ⊗ B(k3, k2)`` where ``K3`` is the
shared inner key set (``A``'s columns = ``B``'s rows).

Two evaluation modes are provided, and their relationship *is* the content
of Theorem II.1:

``mode="dense"``
    The definition verbatim: the ``⊕``-fold ranges over **all** of ``K3``
    in key order, with unstored entries contributing the op-pair's zero.
    Always mathematically faithful; cost ``O(|K1|·|K2|·|K3|)``.

``mode="sparse"``
    Folds only over inner keys where **both** operands store a value — the
    sparse shortcut every real system (D4M, GraphBLAS) takes.  Exact
    whenever the op-pair satisfies the paper's criteria (0 annihilates, so
    missing terms contribute 0; zero-sum-freeness/no-zero-divisors make
    dropped zeros harmless).  For non-compliant pairs the two modes can
    disagree — the property suite exhibits this on the paper's
    non-examples.

Fold order follows ``K3``'s total order (left fold) because ``⊕`` need not
be associative or commutative; ``⊗`` is always applied as
``A-value ⊗ B-value`` because it need not be commutative either.

The ``kernel`` argument selects an implementation: ``"generic"`` (pure
Python, any value set), ``"sortmerge"`` (this module's vectorised
semiring SpGEMM for *any* op-pair with ufunc forms), or the kernels of
:mod:`repro.arrays.sparse_backend` (``"scipy"``, ``"dense_blocked"``).
``"auto"`` picks the fastest applicable one; all kernels are
property-tested to agree with ``"generic"``.

The ``sortmerge`` kernel is the whole-catalog speed path.  It reads A
in CSC order and B in CSR order, both sorted by the shared inner
coordinate code.  One ``bincount`` offsets pass gives every inner
code's run in B; the terms ``A(i,k) ⊗ B(k,j)`` are expanded in A's
inner-sorted order with one ``⊗`` ufunc call; one in-place sort of a
packed ``(row, col)`` key, tagged with each term's generation index,
groups them; ``ufunc.at`` left-folds ``⊕`` within each group.  The tag
makes the grouping stable, so every group folds in inner-key order as
the generic kernel does, for any ``⊕``.  No scipy, no Python-level
inner loop — so ``min.+``, ``max.min`` and every other certified ufunc
pair run at vectorised speed, not just ``+.×``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.arrays.associative import AssociativeArray
from repro.arrays.backend import VECTORIZE_MIN_NNZ
from repro.values.semiring import OpPair

__all__ = [
    "MatmulError",
    "multiply",
    "multiply_generic",
    "multiply_sortmerge",
    "sortmerge_coo",
    "fold_grouped",
    "route_kernel",
    "holds_numeric",
]

#: Output cell count below which a tiny product may stay generic (see
#: :func:`route_kernel`).
TINY_OUTPUT_CELLS = 4096


class MatmulError(ValueError):
    """Raised for incompatible operands or unsupported kernel choices."""


def _check_conformable(a: AssociativeArray, b: AssociativeArray) -> None:
    if a.col_keys != b.row_keys:
        raise MatmulError(
            "inner key sets differ: A has columns "
            f"{tuple(a.col_keys)[:4]}..., B has rows "
            f"{tuple(b.row_keys)[:4]}...; Definition I.3 requires a shared "
            "K3 — re-embed with with_keys() first")


def multiply(
    a: AssociativeArray,
    b: AssociativeArray,
    op_pair: OpPair,
    *,
    mode: str = "sparse",
    kernel: str = "auto",
) -> AssociativeArray:
    """``a ⊕.⊗ b`` over ``op_pair``; see module docstring for semantics.

    The result's key sets are ``(a.row_keys, b.col_keys)`` and its zero is
    ``op_pair.zero``; result entries equal to that zero are not stored.
    """
    _check_conformable(a, b)
    if mode not in ("sparse", "dense"):
        raise MatmulError(f"unknown mode {mode!r}; use 'sparse' or 'dense'")
    if kernel == "auto":
        kernel = _pick_kernel(a, b, op_pair, mode)
    if kernel == "generic":
        return multiply_generic(a, b, op_pair, mode=mode)
    from repro.arrays import sparse_backend
    return sparse_backend.multiply_vectorized(
        a, b, op_pair, kernel=kernel, mode=mode)


def route_kernel(op_pair: OpPair, mode: str, *, a_native: bool,
                 b_native: bool, nnz_a: float, nnz_b: float,
                 out_cells: float) -> str:
    """The kernel ``auto`` runs a product on: a pure function of the
    op-pair, the mode and the operands' sizes and storage.

    Vectorised kernels need numeric NumPy ufunc forms of both
    operations: ``dense_blocked`` in dense mode, ``scipy`` for the
    genuine ``+.×`` pair, ``sortmerge`` for every other such pair.
    A tiny product — fewer than ``VECTORIZE_MIN_NNZ`` operand entries
    and fewer than :data:`TINY_OUTPUT_CELLS` output cells — stays
    ``generic`` unless both operands already hold the numeric backend
    (``a_native``, ``b_native``): promoting it would cost more than the
    product, and the generic kernel keeps exact Python value types.
    The caller still checks that the stored values vectorise
    (:func:`repro.arrays.sparse_backend.vectorizable`); a planner cannot
    see them.  :func:`_pick_kernel` and the expression cost model both
    route through here.
    """
    if not (op_pair.has_ufuncs and op_pair.is_numeric):
        return "generic"
    if not (a_native and b_native) and nnz_a + nnz_b < VECTORIZE_MIN_NNZ \
            and out_cells < TINY_OUTPUT_CELLS:
        return "generic"
    if mode == "dense":
        return "dense_blocked"
    if op_pair.name in ("plus_times", "nat_plus_times"):
        return "scipy"
    return "sortmerge"


def holds_numeric(array: AssociativeArray, *,
                  transposed: bool = False) -> bool:
    """Whether ``array`` (or, with ``transposed=True``,
    ``array.transpose()``) is stored on the numeric backend.

    :func:`route_kernel` reads it only for a tiny product, whose
    operands stay below the size at which
    :meth:`AssociativeArray.transpose` promotes, so there it means that a
    vectorised kernel pays no promotion for the operand.
    """
    if transposed:
        return array.transposes_numeric()
    return array.backend == "numeric"


def _pick_kernel(a: AssociativeArray, b: AssociativeArray,
                 op_pair: OpPair, mode: str, *,
                 transposed: bool = False) -> str:
    """:func:`route_kernel` on actual operands, demoted to ``generic``
    when their values do not vectorise.

    ``transposed=True`` decides ``aᵀ ⊕.⊗ b`` without building ``aᵀ``,
    and decides it as this function would on ``a.transpose()``.
    """
    from repro.arrays import sparse_backend
    out_keys = a.col_keys if transposed else a.row_keys
    kernel = route_kernel(
        op_pair, mode, a_native=holds_numeric(a, transposed=transposed),
        b_native=holds_numeric(b), nnz_a=a.nnz, nnz_b=b.nnz,
        out_cells=len(out_keys) * len(b.col_keys))
    # Routing first: vectorizable() promotes dict operands to the
    # columnar backend, which tiny operands should never pay for.
    if kernel != "generic" \
            and not sparse_backend.vectorizable(a, b, op_pair):
        return "generic"
    return kernel


def multiply_generic(
    a: AssociativeArray,
    b: AssociativeArray,
    op_pair: OpPair,
    *,
    mode: str = "sparse",
) -> AssociativeArray:
    """Reference implementation for arbitrary value sets.

    Sparse mode builds, for every output coordinate, the term list in
    inner-key order and left-folds ``⊕`` over it; dense mode folds over the
    entire inner key set.  Both fold ``A(k1,k3) ⊗ B(k3,k2)`` with operands
    in that order.
    """
    zero = op_pair.zero
    inner = a.col_keys
    if mode == "dense":
        return _generic_dense(a, b, op_pair)

    # Row-major view of A with inner keys ordered, and row-major view of B.
    inner_pos = inner.position_map()
    a_rows: Dict[Any, List[Tuple[int, Any, Any]]] = {}
    for (r, k), v in a.to_dict().items():
        a_rows.setdefault(r, []).append((inner_pos[k], k, v))
    for terms in a_rows.values():
        terms.sort(key=lambda t: t[0])
    b_rows: Dict[Any, List[Tuple[Any, Any]]] = {}
    for (k, c), v in b.to_dict().items():
        b_rows.setdefault(k, []).append((c, v))

    # Accumulate per-(row, col) term lists; iterating A's row entries in
    # ascending inner-key order keeps each term list fold-ordered.
    out: Dict[Tuple[Any, Any], Any] = {}
    started: Dict[Tuple[Any, Any], bool] = {}
    mul = op_pair.mul
    add = op_pair.add
    for r, row_terms in a_rows.items():
        for _pos, k, av in row_terms:
            for c, bv in b_rows.get(k, ()):
                term = mul(av, bv)
                rc = (r, c)
                if rc in started:
                    out[rc] = add(out[rc], term)
                else:
                    out[rc] = term
                    started[rc] = True
    data = {rc: v for rc, v in out.items()
            if not op_pair.is_zero(v)}
    return AssociativeArray(data, row_keys=a.row_keys, col_keys=b.col_keys,
                            zero=zero,
                            backend="dict" if a.pinned and b.pinned
                            else "auto")


# ---------------------------------------------------------------------------
# The sortmerge kernel: vectorised semiring SpGEMM for any ufunc op-pair
# ---------------------------------------------------------------------------

def _range_expand(starts: np.ndarray, lens: np.ndarray,
                  total: int) -> np.ndarray:
    """Concatenated ``arange(starts[i], starts[i] + lens[i])`` ranges.

    ``total`` is ``lens.sum()``.  Element ``t`` of range ``i`` is
    ``t + (starts[i] - offset[i])``, where ``offset[i]`` is where range
    ``i`` begins in the output: one ``repeat`` of that shift plus one
    ``arange``.
    """
    offsets = np.cumsum(lens) - lens
    return np.repeat(starts - offsets, lens) + np.arange(total,
                                                          dtype=np.int64)


def _stable_key_order(key: np.ndarray,
                      key_bound: int) -> Tuple[np.ndarray, np.ndarray]:
    """``order = np.argsort(key, kind="stable")`` and ``key[order]``.

    ``key`` holds int64 values in ``[0, key_bound)``.  Each key is
    shifted left far enough to carry its own index in the low bits, so
    every packed value is unique: one in-place unstable ``sort`` then
    yields exactly the stable order, and the low bits read it back.
    Only when key plus tag would need more than 63 bits does this fall
    back to a stable ``argsort``.
    """
    n = int(key.size)
    tag_bits = (n - 1).bit_length() if n > 1 else 0
    if (key_bound - 1).bit_length() + tag_bits > 63:
        order = np.argsort(key, kind="stable")
        return order, key[order]
    packed = np.left_shift(key, tag_bits)
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    order = packed & ((1 << tag_bits) - 1)
    packed >>= tag_bits
    return order, packed


def fold_grouped(
    sort_keys: Tuple[np.ndarray, ...],
    vals: np.ndarray,
    add_ufunc: np.ufunc,
) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """Group consecutive equal key tuples and left-fold ``⊕`` per group.

    ``sort_keys`` are parallel int64 arrays already sorted so that equal
    key tuples are adjacent **and terms within a group sit in fold
    order** (ascending inner key — the caller's stable sort guarantees
    it).  Returns the per-group key arrays and the folded values.
    Shared by the sortmerge product (grouping on (row, col)), the
    vectorised vector–matrix relaxation (grouping on the output
    coordinate alone) and the row/column reductions of
    :mod:`repro.arrays.reductions` (grouping on the row or column).

    Each group starts from its first term and ``add_ufunc.at`` applies
    the others one by one, in order: a strict left fold for every
    ``⊕``.  ``ufunc.reduceat`` is not one — ``np.add.reduceat`` adds a
    segment's first term to the pairwise sum of the rest, so
    ``3 ⊕ 1e16 ⊕ −1e16`` comes out 3 instead of the left fold's 4.
    """
    n = int(vals.shape[0])
    if n == 0:
        return tuple(k[:0] for k in sort_keys), vals[:0]
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for k in sort_keys:
        np.logical_or(change[1:], k[1:] != k[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    reduced = vals[starts]
    if starts.size < n:
        later = ~change
        add_ufunc.at(reduced, np.cumsum(change)[later] - 1, vals[later])
    return tuple(k[starts] for k in sort_keys), reduced


def sortmerge_coo(
    a_inner: np.ndarray, a_outer: np.ndarray, a_vals: np.ndarray,
    b_inner: np.ndarray, b_outer: np.ndarray, b_vals: np.ndarray,
    op_pair: OpPair,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sortmerge SpGEMM core on raw coordinate/value arrays.

    Both operands arrive as COO triples **sorted ascending by inner
    code**: for ``A`` that is its CSC order (inner = column code, outer
    = row code), for ``B`` its CSR order (inner = row code, outer =
    column code).  An incidence array ``E``'s own (row, col)-sorted
    arrays are therefore ``Eᵀ``'s CSC as they stand, which is how
    :func:`repro.core.construction.adjacency_array` builds
    ``Eoutᵀ ⊕.⊗ Ein`` without a transpose.  Steps:

    1. **offsets** — one ``bincount`` + ``cumsum`` over ``b_inner``
       gives every inner code's run in ``B``;
    2. **expand** — walk ``A`` in its inner-sorted order and pair each
       entry with its code's ``B`` run (range expansion), so each
       output group's terms are generated in ascending inner-key order;
    3. **⊗** — one ufunc call over the gathered value arrays;
    4. **group + ⊕** — one in-place sort of the packed
       ``row * ncols + col`` key tagged with each term's generation
       index (:func:`_stable_key_order`), then the left fold of
       :func:`fold_grouped`.  The tag makes the order that of a stable
       sort, so every ``(row, col)`` group folds ``⊕`` in inner-key
       order exactly as the generic kernel does, whatever ``⊕`` is.

    Returns lex-sorted ``(rows, cols, vals)`` with exact zeros dropped,
    ready for ``AssociativeArray._from_numeric(presorted=True,
    filtered=True)``.
    """
    add_uf = op_pair.add.ufunc
    mul_uf = op_pair.mul.ufunc
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
             np.empty(0, dtype=np.float64))
    if a_vals.size == 0 or b_vals.size == 0:
        return empty

    # 1. B's run [b_ptr[k], b_ptr[k + 1]) for every inner code k.
    n_inner = int(max(a_inner[-1], b_inner[-1])) + 1
    b_ptr = np.zeros(n_inner + 1, dtype=np.int64)
    np.cumsum(np.bincount(b_inner, minlength=n_inner), out=b_ptr[1:])
    b_lo = b_ptr[a_inner]
    fanout = b_ptr[a_inner + 1] - b_lo
    total = int(fanout.sum())
    if total == 0:
        return empty

    # 2. Every (A entry, B entry) pair sharing an inner code, in A's
    # inner-sorted order.
    b_take = _range_expand(b_lo, fanout, total)
    out_rows = np.repeat(a_outer, fanout)
    out_cols = b_outer[b_take]

    # 3. One ⊗ over the gathered values (A-value ⊗ B-value, in order).
    prods = mul_uf(np.repeat(a_vals, fanout), b_vals[b_take])

    # 4. Group on the packed (row, col) key in generation order, fold ⊕.
    ncols = int(b_outer.max()) + 1
    key_bound = (int(a_outer.max()) + 1) * ncols
    if key_bound > 1 << 63:
        # The packed key itself would overflow int64.
        order = np.lexsort((out_cols, out_rows))
        (rows, cols), reduced = fold_grouped(
            (out_rows[order], out_cols[order]), prods[order], add_uf)
    else:
        out_rows *= ncols
        out_rows += out_cols
        order, key = _stable_key_order(out_rows, key_bound)
        (key,), reduced = fold_grouped((key,), prods[order], add_uf)
        rows, cols = np.divmod(key, ncols)
    keep = reduced != float(op_pair.zero)
    if keep.all():
        return rows, cols, reduced
    return rows[keep], cols[keep], reduced[keep]


def multiply_sortmerge(
    a: AssociativeArray,
    b: AssociativeArray,
    op_pair: OpPair,
) -> AssociativeArray:
    """``a ⊕.⊗ b`` through the sortmerge kernel (sparse semantics).

    Feeds ``a``'s cached CSC view and ``b``'s native (row, col) lex
    order — which *is* its CSR order — to :func:`sortmerge_coo`, which
    pairs them on the shared inner coordinate codes.  Both
    operands must be vectorisable (ufunc op-pair, numeric backends);
    :func:`multiply` with ``kernel="sortmerge"`` routes here after
    validating that.
    """
    from repro.arrays import sparse_backend
    if not sparse_backend.vectorizable(a, b, op_pair):
        raise MatmulError(
            f"op-pair {op_pair.name!r} / operand values are not "
            "vectorisable; use kernel='generic'")
    nb_a = a.numeric_backend()
    nb_b = b.numeric_backend()
    a_data, a_rows, _indptr, perm = nb_a.csc()
    rows, cols, vals = sortmerge_coo(
        nb_a.cols[perm], a_rows, a_data,
        nb_b.rows, nb_b.cols, nb_b.vals, op_pair)
    return AssociativeArray._from_numeric(
        rows, cols, vals, row_keys=a.row_keys, col_keys=b.col_keys,
        zero=op_pair.zero, presorted=True, filtered=True)


def _generic_dense(
    a: AssociativeArray,
    b: AssociativeArray,
    op_pair: OpPair,
) -> AssociativeArray:
    """Definition I.3 verbatim: ⊕-fold over the whole inner key set."""
    zero = op_pair.zero
    mul = op_pair.mul
    inner = tuple(a.col_keys)
    a_data = a.to_dict()
    b_data = b.to_dict()
    data: Dict[Tuple[Any, Any], Any] = {}
    for r in a.row_keys:
        for c in b.col_keys:
            terms = (mul(a_data.get((r, k), zero), b_data.get((k, c), zero))
                     for k in inner)
            total = op_pair.fold_add(terms)
            if not op_pair.is_zero(total):
                data[(r, c)] = total
    return AssociativeArray(data, row_keys=a.row_keys, col_keys=b.col_keys,
                            zero=zero,
                            backend="dict" if a.pinned and b.pinned
                            else "auto")
