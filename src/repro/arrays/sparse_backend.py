"""Vectorised NumPy/SciPy kernels for numeric op-pairs.

The generic kernel in :mod:`repro.arrays.matmul` works for every value set
but pays Python-interpreter cost per term.  When an op-pair's operations
have NumPy ufunc forms (``+``, ``×``, ``max``, ``min``) and the array
values are plain numbers, three vectorised kernels apply:

``"scipy"``
    ``scipy.sparse`` CSR×CSR for the genuine ``+.×`` pair — the fastest
    path and the standard adjacency-construction route in production
    systems.

``"sortmerge"``
    The semiring SpGEMM for *any* ufunc pair (implemented in
    :mod:`repro.arrays.matmul`, dispatched here for a uniform kernel
    namespace): B's per-inner-code runs from one ``bincount`` offsets
    pass, term expansion in A's inner-sorted (CSC) order, one ``⊗``
    ufunc call over the gathered values, one sort of a packed
    ``(row, col)`` key tagged with each term's generation index, and a
    left fold of ``⊕`` per group with ``ufunc.at``.  Memory is
    proportional to the number of multiplicative terms (the flop
    count), the classic space/time trade of expansion-based SpGEMM.

``"dense_blocked"``
    Definition I.3's dense fold, blocked over output rows: operands are
    densified with the op-pair's **zero as fill** (0, −∞ or +∞ — the
    semiring-aware fill makes annihilation native), then
    ``C = ⊕.reduce(⊗(A[:, :, None], B[None, :, :]), axis=1)`` per block.

Kernel/mode pairing is strict: ``scipy``/``sortmerge`` implement
*sparse* evaluation semantics, ``dense_blocked`` implements *dense*
semantics (they coincide exactly for criteria-compliant op-pairs —
property-tested).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.arrays.associative import AssociativeArray
from repro.arrays.backend import NumericBackend, is_number as _is_number
from repro.values.semiring import OpPair

__all__ = [
    "vectorizable",
    "multiply_vectorized",
    "to_scipy",
    "from_scipy",
    "KERNELS",
]

#: Kernel names accepted by :func:`multiply_vectorized`.
KERNELS = ("scipy", "sortmerge", "dense_blocked")

#: Row-block size for the dense kernel (bounds peak memory at
#: ``block × |K3| × |K2|`` float64).
DENSE_BLOCK_ROWS = 64


def vectorizable(a: AssociativeArray, b: AssociativeArray,
                 op_pair: OpPair) -> bool:
    """Whether the vectorised kernels can run this product exactly.

    Requires ufunc forms for both operations, numeric zero/one, and
    operands whose storage is (or promotes to) the numeric backend —
    arrays pinned to ``backend="dict"`` report False, which is the
    escape hatch that forces the generic path.
    """
    if not (op_pair.has_ufuncs and op_pair.is_numeric):
        return False
    return a.numeric_backend() is not None and \
        b.numeric_backend() is not None


# ---------------------------------------------------------------------------
# CSR conversion
# ---------------------------------------------------------------------------

def _to_csr_arrays(
    array: AssociativeArray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(data, indices, indptr)`` float64 CSR arrays in key order.

    The view is owned by the array's numeric backend and persists across
    operations (arrays are immutable by convention), so chained products
    pay any dict→columnar conversion once — the same trick D4M uses by
    keeping arrays in sorted-triple form.
    """
    nb = array.numeric_backend()
    if nb is None:
        from repro.arrays.matmul import MatmulError
        raise MatmulError(
            "array values/zero are not plain numbers (or the array is "
            "pinned to the dict backend); use kernel='generic'")
    return nb.csr()


def to_scipy(array: AssociativeArray) -> sp.csr_matrix:
    """Convert to ``scipy.sparse.csr_matrix`` (requires zero == 0).

    SciPy's implicit background value is 0, so arrays with a different
    zero (−∞, +∞, ...) cannot be represented faithfully and raise.
    """
    if array.zero != 0:
        raise ValueError(
            f"scipy sparse matrices assume zero == 0, array has "
            f"{array.zero!r}")
    data, indices, indptr = _to_csr_arrays(array)
    return sp.csr_matrix(
        (data, indices, indptr),
        shape=(len(array.row_keys), len(array.col_keys)))


def from_scipy(
    matrix: sp.spmatrix,
    row_keys,
    col_keys,
    *,
    zero: float = 0.0,
) -> AssociativeArray:
    """Wrap a SciPy sparse matrix as a (numeric-backed) associative array.

    Duplicate coordinates are summed first (scipy's canonical-form
    semantics: a COO matrix with duplicates *represents* their sum).
    """
    coo = matrix.tocoo()
    rk = list(row_keys)
    ck = list(col_keys)
    if coo.shape != (len(rk), len(ck)):
        raise ValueError(
            f"shape {coo.shape} does not match key sets "
            f"({len(rk)}, {len(ck)})")
    coo.sum_duplicates()        # also sorts row-major: entries arrive canonical
    return AssociativeArray._from_numeric(
        coo.row, coo.col, coo.data, row_keys=rk, col_keys=ck, zero=zero,
        presorted=True)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def multiply_vectorized(
    a: AssociativeArray,
    b: AssociativeArray,
    op_pair: OpPair,
    *,
    kernel: str,
    mode: str = "sparse",
) -> AssociativeArray:
    """Dispatch to a vectorised kernel; see module docstring for pairing."""
    from repro.arrays.matmul import MatmulError
    if kernel not in KERNELS:
        raise MatmulError(f"unknown kernel {kernel!r}; choose from {KERNELS}")
    if not vectorizable(a, b, op_pair):
        raise MatmulError(
            f"op-pair {op_pair.name!r} / operand values are not vectorisable; "
            "use kernel='generic'")
    if kernel == "dense_blocked":
        if mode != "dense":
            raise MatmulError(
                "dense_blocked implements dense semantics; pass mode='dense' "
                "(for compliant op-pairs the results coincide with sparse)")
        return _dense_blocked(a, b, op_pair)
    if mode != "sparse":
        raise MatmulError(
            f"kernel {kernel!r} implements sparse semantics; pass "
            "mode='sparse' or kernel='dense_blocked'")
    if kernel == "scipy":
        if op_pair.add.ufunc is not np.add or op_pair.mul.ufunc is not np.multiply:
            raise MatmulError(
                "the scipy kernel applies only to the +.× op-pair")
        return _scipy_plus_times(a, b, op_pair)
    from repro.arrays.matmul import multiply_sortmerge
    return multiply_sortmerge(a, b, op_pair)


def _scipy_plus_times(a: AssociativeArray, b: AssociativeArray,
                      op_pair: OpPair) -> AssociativeArray:
    """CSR×CSR through scipy for the arithmetic semiring.

    The product's CSR arrays are adopted directly as the result's
    backend — chained correlations never leave NumPy.
    """
    sa = _csr_for_pair(a)
    sb = _csr_for_pair(b)
    sc = sa @ sb
    sc.eliminate_zeros()
    sc.sort_indices()
    be = NumericBackend.from_csr(sc.data, sc.indices, sc.indptr, sc.shape)
    return AssociativeArray._adopt(be, a.row_keys, b.col_keys, op_pair.zero)


def _csr_for_pair(array: AssociativeArray) -> sp.csr_matrix:
    data, indices, indptr = _to_csr_arrays(array)
    return sp.csr_matrix(
        (data, indices, indptr),
        shape=(len(array.row_keys), len(array.col_keys)))


def _dense_blocked(a: AssociativeArray, b: AssociativeArray,
                   op_pair: OpPair) -> AssociativeArray:
    """Blocked dense evaluation with semiring-zero fill."""
    add_uf = op_pair.add.ufunc
    mul_uf = op_pair.mul.ufunc
    zero = float(op_pair.zero)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2

    if k == 0 or m == 0:
        # Empty inner key set (every ⊕-fold is empty, i.e. all zero) or
        # no output rows at all.
        return AssociativeArray.empty(a.row_keys, b.col_keys,
                                      zero=op_pair.zero)
    da = _to_dense(a, zero)
    db = _to_dense(b, zero)
    out_rows = []
    out_cols = []
    out_vals = []
    for start in range(0, m, DENSE_BLOCK_ROWS):
        stop = min(start + DENSE_BLOCK_ROWS, m)
        block = mul_uf(da[start:stop, :, None], db[None, :, :])
        cblock = add_uf.reduce(block, axis=1)
        bi, j = np.nonzero(cblock != zero)
        out_rows.append(bi.astype(np.int64) + start)
        out_cols.append(j.astype(np.int64))
        out_vals.append(cblock[bi, j])
    # Blocks come out in row order and np.nonzero is row-major, so the
    # concatenation is already lex-sorted.
    return AssociativeArray._from_numeric(
        np.concatenate(out_rows), np.concatenate(out_cols),
        np.concatenate(out_vals).astype(np.float64),
        row_keys=a.row_keys, col_keys=b.col_keys, zero=op_pair.zero,
        presorted=True, filtered=True)


def _to_dense(array: AssociativeArray, fill: float) -> np.ndarray:
    nb = array.numeric_backend()
    if nb is not None:
        out = np.full(array.shape, fill, dtype=np.float64)
        out[nb.rows, nb.cols] = nb.vals
        return out
    out = np.full(array.shape, fill, dtype=np.float64)
    rpos = array.row_keys.position_map()
    cpos = array.col_keys.position_map()
    for (r, c), v in array.to_dict().items():
        out[rpos[r], cpos[c]] = float(v)
    return out
