"""Graph algorithms over adjacency arrays and op-pairs.

The reason adjacency arrays matter — the paper's opening sentence — is that
they "can be processed with a variety of algorithms".  This module provides
the classic semiring formulations, consuming the
:class:`~repro.arrays.associative.AssociativeArray` adjacency arrays this
library constructs:

* k-hop frontiers ``x ⊕.⊗ Aᵏ`` under any op-pair;
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
import operator
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.arrays.associative import AssociativeArray
from repro.arrays.backend import (
    VECTORIZE_MIN_NNZ,
    is_number,
    usable_numeric_zero,
)
from repro.arrays.matmul import sortmerge_vecmat
from repro.graphs.digraph import GraphError
from repro.values.equality import values_equal
from repro.values.semiring import get_op_pair

__all__ = [
    "semiring_vecmat",
    "semiring_khop",
    "khop_kernel",
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

    For ufunc op-pairs over a numeric-backed adjacency the product is
    one :func:`~repro.arrays.matmul.sortmerge_vecmat` call over the
    frontier's rows of ``A``'s cached CSR (:func:`_vecmat_vectorized`).
    Everything else (exotic value sets, ufunc-less ops, tiny dict-backed
    arrays) takes the per-edge reference loop below.
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


def _vecmat_backend(adj: AssociativeArray, op_pair):
    """The numeric backend of the vectorised product, or ``None`` for
    the reference loop: ufunc-less or non-numeric op-pairs, NaN zeros,
    and where :func:`_numeric_backend` gives none."""
    if not (op_pair.has_ufuncs and op_pair.is_numeric
            and usable_numeric_zero(op_pair.zero)):
        return None
    return _numeric_backend(adj)


def _as_dict(adj: AssociativeArray, cols: np.ndarray,
             vals: np.ndarray) -> Dict[Any, Any]:
    keys = adj.col_keys.keys()
    return {keys[c]: v for c, v in zip(cols.tolist(), vals.tolist())}


def _vecmat_vectorized(
    vector: Dict[Any, Any],
    adj: AssociativeArray,
    op_pair,
) -> Optional[Dict[Any, Any]]:
    """Vectorised ``x ⊕.⊗ A``, or ``None`` where :func:`_vecmat_backend`
    bails out or a frontier value is not a number: the frontier, sorted
    by row position, goes to one
    :func:`~repro.arrays.matmul.sortmerge_vecmat` call."""
    if not vector:
        return {}
    nb = _vecmat_backend(adj, op_pair)
    if nb is None:
        return None
    row_pos = adj.row_keys.position_map()
    entries = [(row_pos[k], v) for k, v in vector.items() if k in row_pos]
    if not all(is_number(v) for _p, v in entries):
        return None
    x = np.array(entries, dtype=np.float64).reshape(-1, 2)
    x = x[np.argsort(x[:, 0])]
    return _as_dict(adj, *sortmerge_vecmat(x[:, 0].astype(np.int64),
                                           x[:, 1], nb, op_pair))


def khop_kernel(adj: AssociativeArray, op_pair) -> str:
    """The kernel :func:`semiring_khop` steps on: ``"sortmerge"`` where
    :func:`semiring_vecmat` vectorises and the seed's ``1`` is a number
    other than ``0``, else ``"generic"`` (the reference loop)."""
    one = op_pair.one
    if is_number(one) and not values_equal(one, op_pair.zero) \
            and _vecmat_backend(adj, op_pair) is not None:
        return "sortmerge"
    return "generic"


def semiring_khop(adj: AssociativeArray, source: Any, k: int,
                  op_pair) -> Dict[Any, Any]:
    """The ``k``-hop frontier ``x ⊕.⊗ Aᵏ`` from ``x = {source: 1}``:
    ``k`` applications of :func:`semiring_vecmat`, stopping once the
    frontier empties.

    On the ``sortmerge`` route (:func:`khop_kernel`) the frontier stays
    as position/value arrays between hops, each hop one
    :func:`~repro.arrays.matmul.sortmerge_vecmat` step, and one dict is
    built at the end; elsewhere it loops :func:`semiring_vecmat`.
    """
    _square_vertex_array(adj)
    if source not in adj.row_keys:
        raise GraphError(f"source {source!r} not a vertex")
    if k < 0:
        raise GraphError(f"k must be >= 0, got {k}")
    frontier = {source: op_pair.one}
    if k == 0 or khop_kernel(adj, op_pair) == "generic":
        for _ in range(k):
            if not frontier:
                break
            frontier = semiring_vecmat(frontier, adj, op_pair)
        return frontier
    nb = adj.numeric_backend()
    positions = np.array([adj.row_keys.index(source)], dtype=np.int64)
    values = np.array([float(op_pair.one)])
    for _ in range(k):
        positions, values = sortmerge_vecmat(positions, values, nb, op_pair)
        if positions.size == 0:
            break
    return _as_dict(adj, positions, values)


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
) -> Dict[Any, float]:
    """Single-source shortest path lengths by ``min.+`` relaxation.

    ``adj`` holds non-negative edge weights (parallel edges should already
    be collapsed, e.g. by constructing the adjacency array over ``min.+``).
    Runs Bellman–Ford-style rounds until fixpoint (≤ |V| rounds), each
    one :func:`semiring_vecmat` relaxation.
    """
    return _relax(adj, source, "min_plus", 0.0, operator.lt, math.inf)


def widest_path_widths(
    adj: AssociativeArray,
    source: Any,
) -> Dict[Any, float]:
    """Maximum-bottleneck path widths by ``max.min`` relaxation.

    The Section IV reading of ``max.min``: each relaxation keeps, per
    target, "the largest of all the shortest connections".  The source has
    width +∞ by convention.
    """
    return _relax(adj, source, "max_min", math.inf, operator.gt, 0.0)


def _relax(adj: AssociativeArray, source: Any, pair_name: str,
           start: float, improves: Callable[[float, float], bool],
           missing: float) -> Dict[Any, float]:
    """Relax ``{source: start}`` to a fixpoint (≤ |V| rounds): each
    round one :func:`semiring_vecmat` under ``pair_name``, keeping the
    values that ``improves`` on the known ones (``missing`` if none)."""
    _square_vertex_array(adj)
    if source not in adj.row_keys:
        raise GraphError(f"source {source!r} not a vertex")
    pair = get_op_pair(pair_name)
    best: Dict[Any, float] = {source: start}
    for _ in range(len(adj.row_keys)):
        better = {v: d for v, d in semiring_vecmat(best, adj, pair).items()
                  if improves(d, best.get(v, missing))}
        if not better:
            break
        best = {**best, **better}
    return best


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


def _numeric_backend(adj: AssociativeArray):
    """The numeric backend for the vectorised paths, or ``None``.

    Mirrors the reductions-module bailout: an array not already numeric
    with nnz below ``VECTORIZE_MIN_NNZ`` is cheaper to handle generically
    than to promote, and non-numeric stored values have no backend.
    """
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
    nb = _numeric_backend(adj)
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
    nb = _numeric_backend(adj)
    if nb is not None:
        _data, _rows, indptr, _perm = nb.csc()
        counts = np.diff(indptr)
        return dict(zip(adj.col_keys.keys(), counts.tolist()))
    deg: Dict[Any, int] = {v: 0 for v in adj.col_keys}
    for (_r, c) in adj.nonzero_pattern():
        deg[c] += 1
    return deg
