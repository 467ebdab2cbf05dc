"""Seeded benchmark inputs and the benchmark's own reference folds.

Inputs are generated here, not by ``repro.graphs.generators``, so a
change to the program cannot change what the benchmark feeds it.  Edges
are R-MAT samples (Graph500 quadrant probabilities) with the vertex ids
permuted, so high-degree vertices are spread over the label space, and
integer weights on both incidence sides.  Integer weights keep every
``⊕.⊗`` fold exact in float64, so results compare for equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: Graph500 R-MAT quadrant probabilities (a, b, c; d = 1 - a - b - c).
RMAT_ABC = (0.57, 0.19, 0.19)

#: Incidence weights are drawn uniformly from 1..WEIGHT_MAX.
WEIGHT_MAX = 9

#: The benchmark's own ``(⊕, ⊗)`` ufuncs for the paper's figure pairs.
PAIR_UFUNCS = {
    "plus_times": (np.add, np.multiply),
    "max_times": (np.maximum, np.multiply),
    "min_times": (np.minimum, np.multiply),
    "max_plus": (np.maximum, np.add),
    "min_plus": (np.minimum, np.add),
    "max_min": (np.maximum, np.minimum),
    "min_max": (np.minimum, np.maximum),
}


@dataclass
class EdgeSet:
    """Edges as parallel arrays: vertex ids, weights, and labels."""

    src: np.ndarray
    dst: np.ndarray
    w_out: np.ndarray
    w_in: np.ndarray
    labels: List[str]

    def keys(self) -> List[str]:
        """Edge keys, zero-padded so key order is edge order."""
        return [f"e{i:07d}" for i in range(self.src.size)]


def rmat_edges(rng: np.random.Generator, scale: int, m: int,
               perm: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``m`` R-MAT edges over ``2**scale`` vertices, ids mapped by ``perm``."""
    a, b, c = RMAT_ABC
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(m)
        down = r >= a + b
        right = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        src |= down.astype(np.int64) << bit
        dst |= right.astype(np.int64) << bit
    return perm[src], perm[dst]


def make_graph(seed: int, scale: int,
               m: int) -> Tuple[EdgeSet, np.random.Generator]:
    """The seeded edge set, and the generator for the caller's later draws."""
    rng = np.random.default_rng([seed, scale, m])
    perm = rng.permutation(1 << scale)
    src, dst = rmat_edges(rng, scale, m, perm)
    width = len(str((1 << scale) - 1))
    labels = [f"v{i:0{width}d}" for i in range(1 << scale)]
    w_out = rng.integers(1, WEIGHT_MAX + 1, m)
    w_in = rng.integers(1, WEIGHT_MAX + 1, m)
    return EdgeSet(src, dst, w_out, w_in, labels), rng


def incidence_dicts(edges: EdgeSet) -> Tuple[Dict, Dict]:
    """``{(edge, vertex): weight}`` for Eout and Ein."""
    keys = edges.keys()
    lab = edges.labels
    eout = {(k, lab[s]): w for k, s, w in
            zip(keys, edges.src.tolist(), edges.w_out.tolist())}
    ein = {(k, lab[d]): w for k, d, w in
           zip(keys, edges.dst.tolist(), edges.w_in.tolist())}
    return eout, ein


def write_incidence_tsv(edges: EdgeSet, eout_path, ein_path) -> None:
    """``edge<TAB>vertex<TAB>weight`` files, the ``repro build`` input."""
    keys = edges.keys()
    lab = edges.labels
    for path, ids, ws in ((eout_path, edges.src, edges.w_out),
                          (ein_path, edges.dst, edges.w_in)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{k}\t{lab[v]}\t{w}\n" for k, v, w in
                             zip(keys, ids.tolist(), ws.tolist())))


@dataclass
class Fold:
    """A reference adjacency array as lex-sorted positional COO arrays.

    ``rows``/``cols`` index ``row_ids``/``col_ids`` (the sorted vertex
    ids present on each side), exactly the positions a product over
    ``Eout``/``Ein``'s column key sets uses.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    row_ids: np.ndarray
    col_ids: np.ndarray


def fold(src: np.ndarray, dst: np.ndarray, w_out: np.ndarray,
         w_in: np.ndarray, pair: str = "plus_times") -> Fold:
    """``A(a, b) = ⊕ over edges a→b of w_out ⊗ w_in``, vectorised."""
    add, mul = PAIR_UFUNCS[pair]
    row_ids = np.unique(src)
    col_ids = np.unique(dst)
    r = np.searchsorted(row_ids, src)
    c = np.searchsorted(col_ids, dst)
    terms = mul(w_out.astype(np.float64), w_in.astype(np.float64))
    order = np.lexsort((c, r))
    r, c, terms = r[order], c[order], terms[order]
    change = np.ones(r.size, dtype=bool)
    change[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(change)
    return Fold(r[starts], c[starts], add.reduceat(terms, starts),
                row_ids, col_ids)


def square_dicts(f: Fold, labels: List[str]) -> Tuple[Dict, Dict]:
    """Out- and in-adjacency lists ``{vertex: {neighbor: value}}``."""
    out: Dict[str, Dict[str, float]] = {}
    inn: Dict[str, Dict[str, float]] = {}
    for i, j, v in zip(f.row_ids[f.rows].tolist(), f.col_ids[f.cols].tolist(),
                       f.vals.tolist()):
        out.setdefault(labels[i], {})[labels[j]] = v
        inn.setdefault(labels[j], {})[labels[i]] = v
    return out, inn


def write_adjacency_tsv(f: Fold, labels: List[str], path) -> None:
    """The fold as ``src<TAB>dst<TAB>value`` lines (a ``repro build``
    output file, written without the program)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(
            f"{labels[i]}\t{labels[j]}\t{int(v)}\n" for i, j, v in
            zip(f.row_ids[f.rows].tolist(), f.col_ids[f.cols].tolist(),
                f.vals.tolist())))


def weighted_draw(rng: np.random.Generator, weights: np.ndarray,
                  n: int) -> np.ndarray:
    """``n`` indices drawn with probability proportional to ``weights``."""
    p = weights.astype(np.float64)
    return rng.choice(weights.size, size=n, p=p / p.sum())
