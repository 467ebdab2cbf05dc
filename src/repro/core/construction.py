"""Adjacency array construction from incidence arrays.

The operation the paper is about:

    ``A = Eoutᵀ ⊕.⊗ Ein``            (Section II)
    ``Ā = Einᵀ ⊕.⊗ Eout``            (reverse graph, Corollary III.1)

plus the Definition I.5 predicate deciding whether an array *is* an
adjacency array — of a graph, or directly of an incidence pair.  The
predicate works at the level of nonzero patterns and therefore applies
even to generalized (hyperedge-like) incidence pairs such as the music
arrays of Figure 2, where a track-edge may touch several genre-vertices.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Tuple

from repro.arrays import matmul
from repro.arrays.associative import AssociativeArray
from repro.arrays.matmul import MatmulError
from repro.graphs.digraph import EdgeKeyedDigraph
from repro.values.semiring import OpPair

__all__ = [
    "adjacency_array",
    "reverse_adjacency_array",
    "correlate",
    "expected_adjacency_pattern",
    "is_adjacency_array_of",
    "is_adjacency_array_of_graph",
]


def _check_shared_edges(eout: AssociativeArray, ein: AssociativeArray) -> None:
    if eout.row_keys != ein.row_keys:
        raise MatmulError(
            "Eout and Ein must share the edge key set K as rows; re-embed "
            "with with_keys() over the union first")


def _transposed_product(
    e: AssociativeArray,
    f: AssociativeArray,
    op_pair: OpPair,
    mode: str,
    kernel: str,
) -> AssociativeArray:
    """``eᵀ ⊕.⊗ f`` with the kernel ``multiply(e.transpose(), f)`` picks.

    The shared edge key set is checked once, here.  In sparse mode two
    routes read ``e(k, r)`` as ``eᵀ(r, k)`` and build no transpose: the
    generic fold, and ``sortmerge``, which takes ``e``'s own
    (edge, vertex)-sorted COO arrays as ``eᵀ``'s CSC order without
    building a CSC index.  Every other kernel multiplies
    ``e.transpose()``.
    """
    from repro.arrays.sparse_backend import vectorizable
    _check_shared_edges(e, f)
    if kernel == "auto":
        kernel = matmul._pick_kernel(e, f, op_pair, mode, transposed=True)
    if mode == "sparse" and kernel == "generic":
        return matmul._generic_sparse(e, f, op_pair, transposed=True)
    if mode == "sparse" and kernel == "sortmerge" \
            and vectorizable(e, f, op_pair):
        ne = e.numeric_backend()
        nf = f.numeric_backend()
        rows, cols, vals = matmul.sortmerge_coo(
            ne.rows, ne.cols, ne.vals, nf.rows, nf.cols, nf.vals, op_pair)
        return AssociativeArray._from_numeric(
            rows, cols, vals, row_keys=e.col_keys, col_keys=f.col_keys,
            zero=op_pair.zero, presorted=True, filtered=True)
    return matmul._dispatch(e.transpose(), f, op_pair, mode, kernel)


def adjacency_array(
    eout: AssociativeArray,
    ein: AssociativeArray,
    op_pair: OpPair,
    *,
    mode: str = "sparse",
    kernel: str = "auto",
) -> AssociativeArray:
    """``A = Eoutᵀ ⊕.⊗ Ein : Kout × Kin → V``.

    ``mode``/``kernel`` as in :func:`repro.arrays.matmul.multiply`.  When
    ``op_pair`` satisfies the Theorem II.1 criteria the result is an
    adjacency array of the underlying graph for *any* valid incidence
    arrays; otherwise it may not be — use
    :func:`repro.core.certify.certify` to know in advance.
    """
    return _transposed_product(eout, ein, op_pair, mode, kernel)


def reverse_adjacency_array(
    eout: AssociativeArray,
    ein: AssociativeArray,
    op_pair: OpPair,
    *,
    mode: str = "sparse",
    kernel: str = "auto",
) -> AssociativeArray:
    """``Ā = Einᵀ ⊕.⊗ Eout``: the adjacency array of the *reverse* graph.

    Corollary III.1: under the same criteria, swapping the roles of the
    incidence arrays reverses every arrow.
    """
    return _transposed_product(ein, eout, op_pair, mode, kernel)


def correlate(
    e1: AssociativeArray,
    e2: AssociativeArray,
    op_pair: OpPair,
    *,
    mode: str = "sparse",
    kernel: str = "auto",
) -> AssociativeArray:
    """``E1ᵀ ⊕.⊗ E2`` — the Figure 3/5 correlation of two incidence
    sub-arrays sharing their row (edge) key set.

    This is :func:`adjacency_array` under a name that matches how the
    paper uses it on database sub-arrays (``E1`` = genre columns,
    ``E2`` = writer columns): rows of the result are ``E1``'s columns,
    columns are ``E2``'s columns.
    """
    return adjacency_array(e1, e2, op_pair, mode=mode, kernel=kernel)


def expected_adjacency_pattern(
    eout: AssociativeArray,
    ein: AssociativeArray,
) -> FrozenSet[Tuple[Any, Any]]:
    """The pattern Definition I.5 demands: ``(a, b)`` such that some edge
    ``k`` has ``Eout(k, a) ≠ 0`` and ``Ein(k, b) ≠ 0``."""
    _check_shared_edges(eout, ein)
    out_rows: dict = {}
    for (k, a) in eout.nonzero_pattern():
        out_rows.setdefault(k, []).append(a)
    pairs = set()
    for (k, b) in ein.nonzero_pattern():
        for a in out_rows.get(k, ()):
            pairs.add((a, b))
    return frozenset(pairs)


def is_adjacency_array_of(
    array: AssociativeArray,
    eout: AssociativeArray,
    ein: AssociativeArray,
    *,
    check_keys: bool = True,
) -> bool:
    """Definition I.5 against an incidence pair: ``array(a, b) ≠ 0`` iff
    some edge runs from ``a`` to ``b`` according to ``(Eout, Ein)``.

    ``check_keys=False`` relaxes the key-set comparison to pattern-only
    (useful when the array was built over pruned key sets).
    """
    if check_keys:
        if array.row_keys != eout.col_keys:
            return False
        if array.col_keys != ein.col_keys:
            return False
    return array.nonzero_pattern() == expected_adjacency_pattern(eout, ein)


def is_adjacency_array_of_graph(
    array: AssociativeArray,
    graph: EdgeKeyedDigraph,
    *,
    check_keys: bool = True,
) -> bool:
    """Definition I.5 against a graph: nonzero exactly on its edges."""
    if check_keys:
        if array.row_keys != graph.out_vertices:
            return False
        if array.col_keys != graph.in_vertices:
            return False
    return array.nonzero_pattern() == graph.adjacency_pairs()
