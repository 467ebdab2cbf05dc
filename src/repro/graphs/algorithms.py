"""Graph algorithms over adjacency arrays and op-pairs.

The reason adjacency arrays matter — the paper's opening sentence — is that
they "can be processed with a variety of algorithms".  This module provides
the classic semiring formulations, consuming the
:class:`~repro.arrays.associative.AssociativeArray` adjacency arrays this
library constructs:

* BFS levels via repeated ``∨.∧`` vector-matrix products;
* single-source shortest paths via ``min.+`` relaxation (Bellman–Ford);
* widest ("maximum bottleneck") paths via ``max.min``;
* weakly connected components;
* triangle counting on the undirected pattern;
* degree arrays.

Vectors are represented as plain ``{vertex: value}`` dicts with zeros
elided, matching the sparse-array philosophy.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.arrays.associative import AssociativeArray
from repro.graphs.digraph import GraphError

__all__ = [
    "semiring_vecmat",
    "bfs_levels",
    "shortest_path_lengths",
    "widest_path_widths",
    "weakly_connected_components",
    "triangle_count",
    "out_degrees",
    "in_degrees",
]


def _square_vertex_array(adj: AssociativeArray) -> None:
    if adj.row_keys != adj.col_keys:
        raise GraphError(
            "algorithm requires a square adjacency array (row and column "
            "key sets equal); re-embed with with_keys() over the vertex "
            "union first")


def semiring_vecmat(
    vector: Dict[Any, Any],
    adj: AssociativeArray,
    op_pair,
) -> Dict[Any, Any]:
    """``y = x ⊕.⊗ A``: sparse vector–matrix product over an op-pair.

    ``y(j) = ⊕_i x(i) ⊗ A(i, j)`` folded in row-key order; entries equal
    to the op-pair's zero are elided.

    For ufunc op-pairs over a numeric-backed adjacency the relaxation
    is fully vectorised (:func:`_vecmat_vectorized`): one gather of the
    frontier values through the cached CSC view, one ``⊗`` ufunc call,
    and a grouped ``⊕`` left fold — the dense-frontier
    hot path of the serve k-hop / path-length queries.  Everything else
    (exotic value sets, ufunc-less ops, tiny dict-backed arrays) takes
    the per-edge reference loop below.
    """
    fast = _vecmat_vectorized(vector, adj, op_pair)
    if fast is not None:
        return fast
    terms: Dict[Any, list] = {}
    row_order = {k: i for i, k in enumerate(adj.row_keys)}
    items = sorted(((i, v) for i, v in vector.items() if i in row_order),
                   key=lambda iv: row_order[iv[0]])
    cols_of: Dict[Any, list] = {}
    for (r, c), av in adj.to_dict().items():
        cols_of.setdefault(r, []).append((c, av))
    for i, xv in items:
        for c, av in cols_of.get(i, ()):
            terms.setdefault(c, []).append(op_pair.multiply(xv, av))
    out = {}
    for c, ts in terms.items():
        val = op_pair.fold_add(ts)
        if not op_pair.is_zero(val):
            out[c] = val
    return out


def _vecmat_vectorized(
    vector: Dict[Any, Any],
    adj: AssociativeArray,
    op_pair,
) -> Optional[Dict[Any, Any]]:
    """Vectorised ``x ⊕.⊗ A`` relaxation, or ``None`` when inapplicable.

    Shares the sortmerge kernel's grouping helper
    (:func:`repro.arrays.matmul.fold_grouped`): the CSC view orders
    ``A``'s entries by (col, row), so after masking to rows the frontier
    actually stores, each output column's terms sit adjacent and in
    ascending row order — exactly the reference loop's fold order — and
    one grouped left fold applies ``⊕`` per column.  Bails out (``None``) on
    ufunc-less or non-numeric op-pairs, NaN zeros, non-numeric frontier
    values, and dict-backed adjacencies below the promotion threshold.
    """
    from repro.arrays.backend import (
        VECTORIZE_MIN_NNZ,
        is_number,
        usable_numeric_zero,
    )
    from repro.arrays.matmul import fold_grouped
    if not vector:
        return {}
    if not (op_pair.has_ufuncs and op_pair.is_numeric):
        return None
    if not usable_numeric_zero(op_pair.zero):
        return None
    if adj.backend != "numeric" and adj.nnz < VECTORIZE_MIN_NNZ:
        return None
    nb = adj.numeric_backend()
    if nb is None:
        return None
    row_pos = adj.row_keys.position_map()
    idx = []
    xv = []
    for k, v in vector.items():
        p = row_pos.get(k)
        if p is None:
            continue
        if not is_number(v):
            return None
        idx.append(p)
        xv.append(float(v))
    if not idx:
        return {}

    present = np.zeros(nb.shape[0], dtype=bool)
    xvals = np.zeros(nb.shape[0], dtype=np.float64)
    present[idx] = True
    xvals[idx] = xv
    data, row_idx, _indptr, perm = nb.csc()
    keep = present[row_idx]
    if not keep.any():
        return {}
    terms = op_pair.mul.ufunc(xvals[row_idx[keep]], data[keep])
    (grp_cols,), reduced = fold_grouped(
        (nb.cols[perm][keep],), terms, op_pair.add.ufunc)
    zero = float(op_pair.zero)
    col_keys = tuple(adj.col_keys)
    return {col_keys[c]: v
            for c, v in zip(grp_cols.tolist(), reduced.tolist())
            if v != zero}


def bfs_levels(
    adj: AssociativeArray,
    source: Any,
    *,
    max_levels: Optional[int] = None,
) -> Dict[Any, int]:
    """Breadth-first levels from ``source`` following edge direction.

    Works on the nonzero *pattern* (any value set): level 0 is the source,
    level ``k`` the vertices first reached after ``k`` hops.
    """
    _square_vertex_array(adj)
    if source not in adj.row_keys:
        raise GraphError(f"source {source!r} not a vertex")
    succ: Dict[Any, list] = {}
    for (r, c) in adj.nonzero_pattern():
        succ.setdefault(r, []).append(c)
    levels = {source: 0}
    frontier = [source]
    level = 0
    limit = max_levels if max_levels is not None else len(adj.row_keys)
    while frontier and level < limit:
        level += 1
        nxt = []
        for u in frontier:
            for v in succ.get(u, ()):
                if v not in levels:
                    levels[v] = level
                    nxt.append(v)
        frontier = nxt
    return levels


def shortest_path_lengths(
    adj: AssociativeArray,
    source: Any,
    *,
    vecmat: Callable[[Dict[Any, Any], AssociativeArray, Any],
                     Dict[Any, Any]] = semiring_vecmat,
) -> Dict[Any, float]:
    """Single-source shortest path lengths by ``min.+`` relaxation.

    ``adj`` holds non-negative edge weights (parallel edges should already
    be collapsed, e.g. by constructing the adjacency array over ``min.+``).
    Runs Bellman–Ford-style rounds until fixpoint (≤ |V| rounds).
    ``vecmat`` swaps the relaxation product implementation — the query
    service passes :func:`repro.expr.vecmat` so each round runs on the
    snapshot's compiled backend instead of this module's reference
    Python fold.
    """
    _square_vertex_array(adj)
    if source not in adj.row_keys:
        raise GraphError(f"source {source!r} not a vertex")
    from repro.values.semiring import get_op_pair
    min_plus = get_op_pair("min_plus")
    dist: Dict[Any, float] = {source: 0.0}
    for _ in range(len(adj.row_keys)):
        relaxed = vecmat(dist, adj, min_plus)
        new = dict(dist)
        changed = False
        for v, d in relaxed.items():
            if d < new.get(v, math.inf):
                new[v] = d
                changed = True
        dist = new
        if not changed:
            break
    return dist


def widest_path_widths(
    adj: AssociativeArray,
    source: Any,
) -> Dict[Any, float]:
    """Maximum-bottleneck path widths by ``max.min`` relaxation.

    The Section IV reading of ``max.min``: each relaxation keeps, per
    target, "the largest of all the shortest connections".  The source has
    width +∞ by convention.
    """
    _square_vertex_array(adj)
    if source not in adj.row_keys:
        raise GraphError(f"source {source!r} not a vertex")
    from repro.values.semiring import get_op_pair
    max_min = get_op_pair("max_min")
    width: Dict[Any, float] = {source: math.inf}
    for _ in range(len(adj.row_keys)):
        relaxed = semiring_vecmat(width, adj, max_min)
        new = dict(width)
        changed = False
        for v, w in relaxed.items():
            if w > new.get(v, 0.0):
                new[v] = w
                changed = True
        width = new
        if not changed:
            break
    return width


def weakly_connected_components(adj: AssociativeArray) -> Dict[Any, int]:
    """Component index per vertex on the undirected pattern.

    Components are numbered in the order of their smallest vertex key.
    """
    _square_vertex_array(adj)
    nbrs: Dict[Any, set] = {v: set() for v in adj.row_keys}
    for (r, c) in adj.nonzero_pattern():
        nbrs[r].add(c)
        nbrs[c].add(r)
    comp: Dict[Any, int] = {}
    label = 0
    for v in adj.row_keys:
        if v in comp:
            continue
        stack = [v]
        comp[v] = label
        while stack:
            u = stack.pop()
            for w in nbrs[u]:
                if w not in comp:
                    comp[w] = label
                    stack.append(w)
        label += 1
    return comp


def triangle_count(adj: AssociativeArray) -> int:
    """Number of undirected triangles in the nonzero pattern.

    Self-loops are ignored; parallel/antiparallel edges collapse to one
    undirected edge.  Counting is per unordered vertex triple.
    """
    _square_vertex_array(adj)
    nbrs: Dict[Any, set] = {}
    for (r, c) in adj.nonzero_pattern():
        if r == c:
            continue
        nbrs.setdefault(r, set()).add(c)
        nbrs.setdefault(c, set()).add(r)
    order = {v: i for i, v in enumerate(adj.row_keys)}
    count = 0
    for u, nu in nbrs.items():
        for v in nu:
            if order[v] <= order[u]:
                continue
            for w in nu & nbrs.get(v, set()):
                if order[w] > order[v]:
                    count += 1
    return count


def _degree_backend(adj: AssociativeArray):
    """The numeric backend for degree counting, or ``None``.

    Mirrors the reductions-module bailout: an array not already numeric
    with nnz below ``VECTORIZE_MIN_NNZ`` is cheaper to count generically
    than to promote.
    """
    from repro.arrays.backend import VECTORIZE_MIN_NNZ
    if adj.backend != "numeric" and adj.nnz < VECTORIZE_MIN_NNZ:
        return None
    return adj.numeric_backend()


def out_degrees(adj: AssociativeArray) -> Dict[Any, int]:
    """Number of stored entries per row (out-degree in the pattern).

    Numeric-backed arrays count row lengths straight off the cached CSR
    index pointer (one vectorised ``diff``, no per-entry Python loop);
    everything else falls back to iterating the stored pattern.  Small
    dict-backed arrays stay generic (the usual ``VECTORIZE_MIN_NNZ``
    bailout — promotion would cost more than the count).
    """
    nb = _degree_backend(adj)
    if nb is not None:
        _data, _indices, indptr = nb.csr()
        counts = np.diff(indptr)
        return dict(zip(adj.row_keys.keys(), counts.tolist()))
    deg: Dict[Any, int] = {v: 0 for v in adj.row_keys}
    for (r, _c) in adj.nonzero_pattern():
        deg[r] += 1
    return deg


def in_degrees(adj: AssociativeArray) -> Dict[Any, int]:
    """Number of stored entries per column (in-degree in the pattern).

    The numeric fast path mirrors :func:`out_degrees` over the cached
    CSC index pointer — building it here also warms the CSC view that
    per-column neighbor queries reuse.
    """
    nb = _degree_backend(adj)
    if nb is not None:
        _data, _rows, indptr, _perm = nb.csc()
        counts = np.diff(indptr)
        return dict(zip(adj.col_keys.keys(), counts.tolist()))
    deg: Dict[Any, int] = {v: 0 for v in adj.col_keys}
    for (_r, c) in adj.nonzero_pattern():
        deg[c] += 1
    return deg
