"""Semiring matmul kernel benchmark: the non-``+.×`` catalog — JSON.

The ``sortmerge`` kernel exists to close the speed gap between genuine
``+.×`` (which rides scipy) and *every other* certified ufunc op-pair
(``min.+``, ``max.min``, …), which previously fell back to the
pure-Python generic fold.  This script measures that gap on two axes:

**matmul** — ``C = A ⊕.⊗ B`` on random square operands sized so the
product evaluates ~1M semiring terms, for ``min.+`` and ``max.min``:
``sortmerge`` vs ``generic`` (and a ``plus_times`` row with ``scipy``
for context).  The headline is the
min.+ sortmerge-over-generic speedup, expected ≥10× at this scale.

**4-hop** — ``x ⊕.⊗ A⁴`` over a ≥1M-edge adjacency via the fused
``khop_frontier`` plan, ``min.+``/sortmerge against ``+.×``/scipy on
the same edge structure.  The headline is the min.+/scipy time ratio —
how close the generic-algebra catalog now sits to the scipy fast path.

Emits one JSON document (``BENCH_semiring_matmul.json`` by default):

    PYTHONPATH=src python benchmarks/bench_semiring_matmul.py \
        [--quick] [--out F]

Like the sibling ``bench_*.py`` scripts this is plain JSON-out (not
pytest-benchmark) so the ``repro bench`` harness can gate and archive
it per commit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.arrays.associative import AssociativeArray
from repro.arrays.matmul import multiply
from repro.expr import khop_frontier
from repro.values.semiring import get_op_pair


def _random_square(n: int, nnz: int, zero: float, seed: int
                   ) -> AssociativeArray:
    """A numeric-backed n×n array with ~nnz deduped random entries.

    Coordinates are deduped through ``np.unique`` on flattened codes
    (which also leaves them lex-sorted, so the backend adopts them with
    no re-sort); values are uniform in 1..9 — never equal to any
    catalog zero (0, ±∞).
    """
    rng = np.random.default_rng(seed)
    codes = np.unique(rng.integers(0, n * n, size=int(nnz * 1.05)))
    rows, cols = codes // n, codes % n
    vals = rng.integers(1, 10, size=codes.size).astype(np.float64)
    keys = range(n)
    return AssociativeArray._from_numeric(
        rows, cols, vals, row_keys=keys, col_keys=keys, zero=zero,
        presorted=True, filtered=True)


def _product_terms(a: AssociativeArray, b: AssociativeArray) -> int:
    """Exact number of semiring terms ``A ⊕.⊗ B`` evaluates."""
    na, nb = a.numeric_backend(), b.numeric_backend()
    n = len(a.col_keys)
    per_inner_a = np.bincount(na.cols, minlength=n)
    per_inner_b = np.bincount(nb.rows, minlength=n)
    return int(per_inner_a @ per_inner_b)


def _timed(fn, repeat: int):
    best, result = None, None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _matmul_row(pair_name: str, n: int, nnz: int, repeat: int,
                *, with_scipy: bool) -> dict:
    pair = get_op_pair(pair_name)
    a = _random_square(n, nnz, float(pair.zero), seed=101)
    b = _random_square(n, nnz, float(pair.zero), seed=202)
    terms = _product_terms(a, b)

    sm_s, sm = _timed(lambda: multiply(a, b, pair, kernel="sortmerge"),
                      repeat)
    gen_s, gen = _timed(lambda: multiply(a, b, pair, kernel="generic"),
                        repeat=1)
    assert sm.allclose(gen), pair_name
    row = {
        "op_pair": pair_name,
        "n": n,
        "nnz_per_operand": a.nnz,
        "product_terms": terms,
        "product_nnz": sm.nnz,
        "seconds": {
            "sortmerge": round(sm_s, 4),
            "generic": round(gen_s, 4),
        },
        "speedup_sortmerge_vs_generic": round(gen_s / sm_s, 3),
    }
    if with_scipy:
        sc_s, sc = _timed(lambda: multiply(a, b, pair, kernel="scipy"),
                          repeat)
        assert sm.allclose(sc), pair_name
        row["seconds"]["scipy"] = round(sc_s, 4)
        row["ratio_sortmerge_vs_scipy"] = round(sm_s / sc_s, 3)
    return row


def _khop_row(n: int, nnz: int, k: int, repeat: int) -> dict:
    """min.+ k-hop (sortmerge) vs +.× k-hop (scipy), same edge set."""
    mp, pt = get_op_pair("min_plus"), get_op_pair("plus_times")
    adj_mp = _random_square(n, nnz, float(mp.zero), seed=303)
    nb = adj_mp.numeric_backend()
    adj_pt = AssociativeArray._from_numeric(
        nb.rows, nb.cols, nb.vals, row_keys=range(n), col_keys=range(n),
        zero=0.0, presorted=True, filtered=True)
    source = int(nb.rows[0])

    mp_s, mp_front = _timed(
        lambda: khop_frontier(adj_mp, source, k, mp), repeat)
    pt_s, pt_front = _timed(
        lambda: khop_frontier(adj_pt, source, k, pt), repeat)
    assert mp_front and pt_front
    # Same structure → identical reachable sets after k hops.
    assert set(mp_front) == set(pt_front)
    return {
        "n_vertices": n,
        "n_edges": adj_mp.nnz,
        "k": k,
        "frontier_size": len(mp_front),
        "seconds": {
            "minplus_sortmerge": round(mp_s, 4),
            "plustimes_scipy": round(pt_s, 4),
        },
        "ratio_minplus_vs_scipy": round(mp_s / pt_s, 3),
    }


def run(quick: bool) -> dict:
    repeat = 1 if quick else 3
    # ~1M semiring terms in both modes — the gap this kernel closes is
    # the headline and must be measured at scale even in CI smoke.
    n, nnz = 4000, 65_536
    matmuls = [_matmul_row("min_plus", n, nnz, repeat, with_scipy=False)]
    if not quick:
        matmuls.append(_matmul_row("max_min", n, nnz, repeat,
                                   with_scipy=False))
        matmuls.append(_matmul_row("plus_times", n, nnz, repeat,
                                   with_scipy=True))
    khop = _khop_row(1 << 17, 1_000_000, 4, repeat)
    return {
        "benchmark": "bench_semiring_matmul",
        "matmul": matmuls,
        "khop": khop,
        "correct": True,   # every kernel asserted equivalent above
    }


def headline(report: dict) -> dict:
    """Gateable metrics for the ``repro bench`` harness."""
    minplus = next(r for r in report["matmul"]
                   if r["op_pair"] == "min_plus")
    khop = report["khop"]
    return {
        "minplus_matmul_speedup_sortmerge_vs_generic": {
            "value": minplus["speedup_sortmerge_vs_generic"],
            "direction": "higher", "unit": "x"},
        "minplus_matmul_sortmerge_seconds": {
            "value": minplus["seconds"]["sortmerge"],
            "direction": "lower", "unit": "s"},
        "minplus_4hop_vs_scipy_ratio": {
            "value": khop["ratio_minplus_vs_scipy"],
            "direction": "lower", "unit": "x"},
        "minplus_4hop_seconds": {
            "value": khop["seconds"]["minplus_sortmerge"],
            "direction": "lower", "unit": "s"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="min.+ rows only, single repeat (CI smoke)")
    parser.add_argument("--out", default="BENCH_semiring_matmul.json",
                        help="write the JSON here (default: "
                             "BENCH_semiring_matmul.json; '-' to skip)")
    args = parser.parse_args(argv)
    report = run(args.quick)
    text = json.dumps(report, indent=2, ensure_ascii=False)
    print(text)
    if args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
