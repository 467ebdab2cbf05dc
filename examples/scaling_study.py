#!/usr/bin/env python3
"""Kernel scaling study: generic fold vs vectorised SpGEMM kernels.

Times adjacency construction ``EoutᵀEin`` on R-MAT multigraphs across
sizes for two op-pairs (``+.×`` with a scipy fast path; ``min.+`` on the
general-ufunc sortmerge path), printing a table of milliseconds and the
speedup of the best vectorised kernel over the generic reference.

This is the DESIGN.md `scaling` experiment; pytest-benchmark versions of
the same measurements live in benchmarks/bench_kernel_scaling.py.

Run:  python examples/scaling_study.py [--quick]
"""

from __future__ import annotations

import sys
import time

from repro.arrays.matmul import multiply_generic
from repro.arrays.sparse_backend import multiply_vectorized, vectorizable
from repro.graphs.generators import rmat_multigraph, random_incidence_values
from repro.graphs.incidence import incidence_arrays
from repro.values.semiring import get_op_pair


def _operands(scale, n_edges, pair, seed=99):
    graph = rmat_multigraph(scale, n_edges, seed=seed)
    ow, iw = random_incidence_values(graph, pair, seed=seed + 1)
    eout, ein = incidence_arrays(graph, zero=pair.zero,
                                 out_values=ow, in_values=iw)
    return eout.transpose(), ein


def _time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3  # ms


def main() -> None:
    quick = "--quick" in sys.argv
    sizes = [(5, 150), (7, 800)] if quick else [(5, 150), (7, 800),
                                                (9, 4000), (11, 20000)]
    print(f"{'pair':10s} {'2^scale':>8s} {'edges':>7s} "
          f"{'generic ms':>11s} {'sortmerge ms':>13s} {'scipy ms':>9s} "
          f"{'speedup':>8s}")
    for pair_name in ("plus_times", "min_plus"):
        pair = get_op_pair(pair_name)
        for scale, n_edges in sizes:
            a, b = _operands(scale, n_edges, pair)
            assert vectorizable(a, b, pair)
            t_gen = _time(lambda: multiply_generic(a, b, pair))
            t_sm = _time(lambda: multiply_vectorized(
                a, b, pair, kernel="sortmerge"))
            if pair_name == "plus_times":
                t_sci = _time(lambda: multiply_vectorized(
                    a, b, pair, kernel="scipy"))
                sci_txt = f"{t_sci:9.2f}"
                best_vec = min(t_sm, t_sci)
            else:
                sci_txt = f"{'—':>9s}"
                best_vec = t_sm
            # Correctness cross-check while we are here.
            ref = multiply_generic(a, b, pair)
            got = multiply_vectorized(a, b, pair, kernel="sortmerge")
            assert got.allclose(ref)
            print(f"{pair.display:10s} {2**scale:>8d} {n_edges:>7d} "
                  f"{t_gen:>11.2f} {t_sm:>13.2f} {sci_txt} "
                  f"{t_gen / best_vec:>7.1f}x")
    print("\n(speedup = generic / best vectorised; shapes, not absolute "
          "numbers, are the claim)")


if __name__ == "__main__":
    main()
