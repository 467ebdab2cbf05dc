#!/usr/bin/env python3
"""Lazy expressions: capture, optimize with certified rewrites, execute.

The paper's construction ``A = Eoutᵀ ⊕.⊗ Ein`` is an *expression*, and
the :mod:`repro.expr` engine treats it as one: ``lazy()`` captures a
chain of array operations as a DAG, the optimizer rewrites it under
rules whose algebraic preconditions are verified through the
certification machinery, a cost model sizes every intermediate, and
only then does anything execute.  This example walks the surface:

1. capture the incidence-to-adjacency expression lazily and print the
   optimizer's ``explain()`` transcript — the fusion rewrite and the
   Theorem II.1 properties that licensed it;
2. check the optimized plan equals the eager construction exactly;
3. fuse a degree-style reduction *into* the product (the full
   adjacency array is never materialized) and watch the license name
   associativity, commutativity and distributivity;
4. watch a rewrite get *refused*: ``(AB)ᵀ = BᵀAᵀ`` needs commutative
   ``⊗``, and ``max.concat`` fails the check with a concrete witness;
5. plan a 3-hop whole-array chain ``A·A·A`` whose hops share one
   adjacency leaf after common-subexpression elimination, and take a
   3-hop frontier from ``semiring_khop``, which steps the vector
   directly instead of planning;
6. build a ``min.+`` shortest-path plan and watch the kernel routing:
   the non-``+.×`` product rides the ``sortmerge`` kernel, the
   transcript reports its term count and working set, and the relaxed
   distances match Bellman–Ford exactly.

Run:  python examples/lazy_pipeline.py
"""

from __future__ import annotations

import repro
from repro.expr import evaluate, explain, lazy, plan
from repro.graphs.generators import rmat_multigraph


def main() -> None:
    graph = rmat_multigraph(7, 600, seed=42)
    weights = {k: float(1 + (i % 9))
               for i, k in enumerate(graph.edge_keys)}
    pair = repro.get_op_pair("plus_times")
    eout, ein = repro.incidence_arrays(graph, zero=pair.zero,
                                       out_values=weights,
                                       in_values=weights)
    print(f"workload: {graph.num_edges} edges over "
          f"{graph.num_vertices} vertices\n")

    # 1. Capture lazily; nothing has executed yet.
    expr = lazy(eout, "Eout").T.matmul(lazy(ein, "Ein"), pair)
    print("— the optimizer's plan —")
    print(explain(expr))

    # 2. Execute: identical to the eager library call.
    adjacency = evaluate(expr)
    batch = repro.adjacency_array(eout, ein, pair)
    assert adjacency == batch
    print(f"\nfused plan == eager construction "
          f"({adjacency.nnz} stored entries)\n")

    # 3. Reduction fused into the product: out-strength per vertex
    #    without materializing the adjacency array first.
    strength = expr.reduce_rows(pair.add)
    print("— reduction fused into the product —")
    print(explain(strength))
    reduced = evaluate(strength)
    assert {r: v for r, _c, v in reduced.entries()} == \
        repro.reduce_rows(adjacency, pair.add)
    print()

    # 4. A refusal: transpose pushdown needs commutative ⊗, and
    #    max.concat's ⊗ is string concatenation.
    mc = repro.get_op_pair("max_concat")
    svals = {k: "ab"[i % 2] for i, k in enumerate(graph.edge_keys)}
    seo, sei = repro.incidence_arrays(graph, zero=mc.zero,
                                      out_values=svals, in_values=svals)
    refused = plan(lazy(seo, "E").T.matmul(lazy(sei, "F"), mc).T)
    line = next(rf for rf in refused.refused
                if rf.rule == "transpose_pushdown")
    print("— a refused rewrite —")
    print(f"{line.rule}: {line.reason}\n")

    # 5. A 3-hop whole-array chain: after CSE every hop shares one
    #    adjacency leaf.  A frontier from one vertex needs no plan:
    #    semiring_khop steps x ⊕.⊗ A three times on the sortmerge kernel.
    vertices = adjacency.row_keys.union(adjacency.col_keys)
    square = adjacency.with_keys(vertices, vertices)
    chain = lazy(square, "A")
    for _ in range(2):
        chain = chain.matmul(lazy(square, "A"), pair)
    print("— a 3-hop chain sharing one adjacency leaf —")
    transcript = explain(chain)
    print(transcript)
    assert "(shared node" in transcript
    source = next(iter(square.rows_nonempty()))
    from repro.graphs.algorithms import khop_kernel, semiring_khop
    frontier = semiring_khop(square, source, 3, pair)
    print(f"3-hop frontier from {source!r}: {len(frontier)} vertices "
          f"(kernel={khop_kernel(square, pair)})\n")

    # 6. A min.+ shortest-path plan: the same expression surface, a
    #    different algebra.  The adjacency product is not +.× so scipy
    #    is off the table — the plan routes it through the sortmerge
    #    kernel, and explain() shows the routing with its term count
    #    and working set.
    mp = repro.get_op_pair("min_plus")
    weo, wei = repro.incidence_arrays(graph, zero=mp.zero,
                                      out_values={k: 0.0 for k in weights},
                                      in_values=weights)
    sp_expr = lazy(weo, "Eout").T.matmul(lazy(wei, "Ein"), mp)
    print("— min.+ shortest-path plan (sortmerge routing) —")
    transcript = explain(sp_expr)
    print(transcript)
    assert "kernel=sortmerge" in transcript
    wadj = evaluate(sp_expr)
    square_w = wadj.with_keys(vertices, vertices)
    from repro.graphs.algorithms import shortest_path_lengths
    dist = shortest_path_lengths(square_w, source)
    reachable = [v for v in dist if dist[v] < float("inf")]
    print(f"min.+ distances from {source!r}: {len(reachable)} vertices "
          f"reachable\n")

    print("lazy pipeline demo complete")


if __name__ == "__main__":
    main()
