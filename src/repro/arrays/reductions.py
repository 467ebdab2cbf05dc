"""Row/column reductions over arbitrary ``⊕`` operations.

The D4M idiom ``sum(A, 1)`` / ``sum(A, 2)`` generalised to any binary
operation with identity: reduce each row (or column) of an associative
array by a left fold in key order.  Degree vectors, row maxima for
``max.min`` normalisation, per-vertex strengths — the standard
post-processing steps after adjacency construction — are all instances.

Folds include **stored entries only** (the sparse convention); as with
array multiplication, that matches the dense Definition-I.3-style fold
exactly when the op's identity annihilates the missing terms, i.e. when
the entries' op is the ``⊕`` of a certified pair.

Arrays on the numeric backend (:mod:`repro.arrays.backend`) reduce
through vectorised kernels: the ``ufunc.at`` left fold of
:func:`repro.arrays.matmul.fold_grouped` over the CSR/CSC row groups
for the folds (group order is key order, so the fold order is
identical to the generic path), ``bincount`` for the pattern counts,
and index-gathered ufunc application for row/column scaling.  Every
function falls back to the generic dict implementation for exotic
value sets, NaN zeros, or ops without a ufunc form.
"""

from __future__ import annotations

import numpy as np

from typing import Any, Dict, Optional

from repro.arrays.associative import AssociativeArray
from repro.arrays.backend import (
    VECTORIZE_MIN_NNZ,
    NumericBackend,
    float64_exact,
    is_number,
    usable_numeric_zero,
)
from repro.arrays.keys import KeySet
from repro.arrays.matmul import fold_grouped
from repro.values.operations import BinaryOp

__all__ = [
    "reduce_rows",
    "reduce_cols",
    "row_counts",
    "col_counts",
    "total_reduce",
    "scale_rows",
    "scale_cols",
]


def _fast_backend(array: AssociativeArray,
                  op: Optional[BinaryOp]) -> Optional[NumericBackend]:
    """The numeric backend when the vectorised path applies, else None.

    Requires a ufunc form of ``op`` (when one is involved) and keeps
    tiny dict-backed arrays on the generic path so exact Python value
    types are preserved for the paper-figure-sized cases.  Fold-type
    callers additionally seed with the identity (see :func:`_seed`), so
    ``op`` must be associative with a plain numeric identity for the
    seeded group-reduce to equal the generic left fold.
    """
    if op is not None:
        if op.ufunc is None or not op.associative:
            return None
        if not usable_numeric_zero(op.identity):
            return None
    if array.backend != "numeric" and array.nnz < VECTORIZE_MIN_NNZ:
        return None
    return array.numeric_backend()


def _seed(op: BinaryOp, reduced: np.ndarray) -> np.ndarray:
    """Fold-from-identity semantics: ``e ⊕ (v₁ ⊕ … ⊕ vₙ)``.

    The generic path starts every fold at the identity, which matters
    when stored values fall outside the range where the identity is
    neutral (e.g. ``max0`` — identity 0 — over negative entries).  For
    the associative ops the fast path admits, prepending the identity
    to the group fold is exactly one more ufunc application.
    """
    return op.ufunc(float(op.identity), reduced)


def reduce_rows(array: AssociativeArray, op: BinaryOp) -> Dict[Any, Any]:
    """``out[r] = ⊕_c A(r, c)`` over stored entries, folded in column-key
    order.  Rows with no stored entries are omitted."""
    nb = _fast_backend(array, op)
    if nb is not None:
        # Storage is (row, col)-sorted: the stored values are CSR data.
        (rows,), reduced = fold_grouped((nb.rows,), nb.vals, op.ufunc)
        rk = array.row_keys.keys()
        return {rk[i]: v for i, v in zip(rows.tolist(),
                                         _seed(op, reduced).tolist())}
    grouped: Dict[Any, list] = {}
    for r, _c, v in array.entries():       # entries() is (row, col)-ordered
        grouped.setdefault(r, []).append(v)
    return {r: op.fold(vs) for r, vs in grouped.items()}


def reduce_cols(array: AssociativeArray, op: BinaryOp) -> Dict[Any, Any]:
    """``out[c] = ⊕_r A(r, c)`` over stored entries, folded in row-key
    order.  Columns with no stored entries are omitted."""
    nb = _fast_backend(array, op)
    if nb is not None:
        data, _rows, _indptr, perm = nb.csc()
        (cols,), reduced = fold_grouped((nb.cols[perm],), data, op.ufunc)
        ck = array.col_keys.keys()
        return {ck[j]: v for j, v in zip(cols.tolist(),
                                         _seed(op, reduced).tolist())}
    grouped: Dict[Any, list] = {}
    for r, c, v in array.entries():
        grouped.setdefault(c, []).append(v)
    return {c: op.fold(vs) for c, vs in grouped.items()}


def row_counts(array: AssociativeArray) -> Dict[Any, int]:
    """Stored entries per row (the pattern out-degree), zero-filled."""
    nb = _fast_backend(array, None)
    if nb is not None:
        counts = np.bincount(nb.rows, minlength=len(array.row_keys))
        return dict(zip(array.row_keys, counts.tolist()))
    out = {r: 0 for r in array.row_keys}
    for (r, _c) in array.nonzero_pattern():
        out[r] += 1
    return out


def col_counts(array: AssociativeArray) -> Dict[Any, int]:
    """Stored entries per column (the pattern in-degree), zero-filled."""
    nb = _fast_backend(array, None)
    if nb is not None:
        counts = np.bincount(nb.cols, minlength=len(array.col_keys))
        return dict(zip(array.col_keys, counts.tolist()))
    out = {c: 0 for c in array.col_keys}
    for (_r, c) in array.nonzero_pattern():
        out[c] += 1
    return out


def total_reduce(array: AssociativeArray, op: BinaryOp) -> Any:
    """Fold ``op`` over every stored value in (row, col) key order.

    Returns the op's identity for an empty array.
    """
    nb = _fast_backend(array, op)
    if nb is not None and nb.nnz:
        return _seed(op, op.ufunc.reduce(nb.vals)).item()
    return op.fold(array.values_list())


def _factor_array(factors: Dict[Any, Any], keys: KeySet,
                  default: Any) -> Optional[np.ndarray]:
    """Dense per-position factor gather; None when any value is exotic
    (or an int float64 cannot hold exactly)."""
    if not (is_number(default) and float64_exact(default)):
        return None
    out = np.full(len(keys), float(default), dtype=np.float64)
    positions = keys.position_map()
    for k, v in factors.items():
        pos = positions.get(k)
        if pos is None:
            continue               # extra factor keys are ignored, as get()
        if not (is_number(v) and float64_exact(v)):
            return None
        out[pos] = v
    return out


def scale_rows(
    array: AssociativeArray,
    factors: Dict[Any, Any],
    op: BinaryOp,
    *,
    missing: Optional[Any] = None,
) -> AssociativeArray:
    """``B(r, c) = op(factors[r], A(r, c))`` — e.g. row normalisation.

    Rows absent from ``factors`` use ``missing`` (default: the op's
    identity, leaving the row unchanged).
    """
    default = op.identity if missing is None else missing
    nb = _fast_backend(array, op)
    if nb is not None and usable_numeric_zero(array.zero):
        farr = _factor_array(factors, array.row_keys, default)
        if farr is not None:
            vals = op.ufunc(farr[nb.rows], nb.vals)
            return AssociativeArray._from_numeric(
                nb.rows, nb.cols, vals, row_keys=array.row_keys,
                col_keys=array.col_keys, zero=array.zero, presorted=True)
    data = {(r, c): op(factors.get(r, default), v)
            for (r, c), v in array.to_dict().items()}
    return AssociativeArray(data, row_keys=array.row_keys,
                            col_keys=array.col_keys, zero=array.zero)


def scale_cols(
    array: AssociativeArray,
    factors: Dict[Any, Any],
    op: BinaryOp,
    *,
    missing: Optional[Any] = None,
) -> AssociativeArray:
    """``B(r, c) = op(A(r, c), factors[c])`` — column-wise scaling.

    The factor is the *right* operand (op may be non-commutative).
    """
    default = op.identity if missing is None else missing
    nb = _fast_backend(array, op)
    if nb is not None and usable_numeric_zero(array.zero):
        farr = _factor_array(factors, array.col_keys, default)
        if farr is not None:
            vals = op.ufunc(nb.vals, farr[nb.cols])
            return AssociativeArray._from_numeric(
                nb.rows, nb.cols, vals, row_keys=array.row_keys,
                col_keys=array.col_keys, zero=array.zero, presorted=True)
    data = {(r, c): op(v, factors.get(c, default))
            for (r, c), v in array.to_dict().items()}
    return AssociativeArray(data, row_keys=array.row_keys,
                            col_keys=array.col_keys, zero=array.zero)
