#!/usr/bin/env python3
"""Observability: metrics, span traces, exemplars and the event log.

Every subsystem is instrumented through one dependency-free layer,
:mod:`repro.obs` — counters/gauges/histograms on thread-safe
registries, and ``contextvars``-propagated span traces that nest
automatically through however many layers a request crosses.  This
example walks the surface without starting an HTTP server:

1. drive an :class:`~repro.serve.AdjacencyService` and read its
   per-instance registry — the exact families ``GET /metrics`` renders
   (cache hit ratio, per-kind latency percentiles, snapshot age);
2. inspect the trace tree the service recorded for one k-hop query:
   planner, executor nodes, and the kernels they dispatched to
   (``repro trace`` prints the same tree from the command line);
3. instrument *your own* pipeline: open a root span on a
   :class:`~repro.obs.Tracer` and every instrumented library call —
   expression planning, kernel execution — attaches itself beneath it;
4. read the per-kernel product timings the expression executor
   records (``expr_kernel_seconds{kernel=...}`` on ``/metrics``);
5. find the OpenMetrics exemplars that link slow histogram buckets
   back to trace ids on the exposition ``GET /metrics`` renders;
6. read the structured event log — the same ring ``GET /events`` and
   ``repro events --follow`` expose — and see the publication events
   the service emitted above, stamped with their trace ids.

Run:  python examples/observability.py
"""

from __future__ import annotations

import repro
from repro.expr import evaluate, lazy
from repro.graphs.generators import rmat_multigraph
from repro.obs import Tracer, get_registry, render_prometheus, render_trace
from repro.serve import AdjacencyService


def main() -> None:
    pair = repro.get_op_pair("plus_times")

    # ------------------------------------------------------------------
    # 1. Service metrics: every query and publication is measured.
    # ------------------------------------------------------------------
    graph = rmat_multigraph(7, 600, seed=42)
    service = AdjacencyService(pair)
    service.add_edges((k, s, t, 1.0, 1.0) for k, s, t in graph.edges())
    service.publish()

    snap = service.snapshot()
    source = next(iter(snap.adjacency.rows_nonempty()))
    for _ in range(3):                       # one miss, then cache hits
        service.query("khop", vertex=source, k=3)

    print("— service registry (what GET /metrics renders) —")
    exposition = render_prometheus(service.metrics, get_registry())
    wanted = ("serve_queries_total", "serve_cache_hits", "serve_epoch")
    for line in exposition.splitlines():
        if line.startswith(wanted):
            print(f"  {line}")

    stats = service.stats()
    print(f"\ncache hit ratio: {stats['cache']['hits']}/"
          f"{stats['cache']['hits'] + stats['cache']['misses']}, "
          f"cold-path p50 "
          f"{stats['cache']['cold_latency']['p50'] * 1e3:.3f} ms\n")

    # ------------------------------------------------------------------
    # 2. The trace the service recorded for that query.
    # ------------------------------------------------------------------
    print("— span tree of the cold k-hop query (GET /trace/<id>) —")
    queries = [t for t in service.tracer.traces()     # newest first,
               if t["name"] == "service.query"]       # so the cold
    cold_root = queries[-1]["trace_id"]               # query is last
    print(render_trace(service.tracer.get(cold_root)))

    # ------------------------------------------------------------------
    # 3. Tracing your own pipeline: library spans nest automatically.
    # ------------------------------------------------------------------
    weights = {k: float(1 + (i % 9))
               for i, k in enumerate(graph.edge_keys)}
    eout, ein = repro.incidence_arrays(graph, zero=pair.zero,
                                      out_values=weights,
                                      in_values=weights)
    tracer = Tracer()
    with tracer.span("my_pipeline", edges=graph.num_edges):
        adjacency = evaluate(
            lazy(eout, "Eout").T.matmul(lazy(ein, "Ein"), pair))
    print("\n— the same propagation through your own root span —")
    print(render_trace(tracer.latest()))
    assert adjacency.nnz > 0

    # ------------------------------------------------------------------
    # 4. Per-kernel product timings recorded by the executor.
    # ------------------------------------------------------------------
    print("\n— product kernel timings (expr_kernel_seconds) —")
    for family in get_registry().families():
        if family.name != "expr_kernel_seconds":
            continue
        for labels, hist in sorted(family.children.items()):
            kernel = dict(labels).get("kernel", "?")
            print(f"  {kernel}: {hist.count} products, "
                  f"p50 {hist.percentile(0.5) * 1e3:.3f} ms")

    # ------------------------------------------------------------------
    # 5. Exemplars: histogram buckets link back to trace ids.
    # ------------------------------------------------------------------
    print("\n— exemplar-bearing bucket lines on /metrics —")
    exposition = render_prometheus(service.metrics, get_registry())
    shown = 0
    for line in exposition.splitlines():
        if " # {" in line and shown < 3:
            print(f"  {line}")
            shown += 1
    assert shown, "the k-hop queries above should have left exemplars"

    # ------------------------------------------------------------------
    # 6. The event log: lifecycle moments, stamped with trace ids.
    # ------------------------------------------------------------------
    from repro.obs import get_event_log
    log = get_event_log()
    print("\n— structured event log (GET /events) —")
    for event in log.events(limit=5):
        trace = event.get("trace_id", "-")
        print(f"  #{event['seq']} {event['kind']} trace={trace}")
    retention = log.retention()
    print(f"  retention: {retention['stored']}/{retention['capacity']} "
          f"stored, {retention['dropped']} dropped")
    published = log.events(kind="epoch_published")
    assert published, "the publish() above should have logged an event"
    # The event's trace id resolves to the publication's span tree.
    tree = service.tracer.get(published[-1]["trace_id"])
    assert tree is not None and tree.name == "service.publish"

    print("\nobservability demo complete")


if __name__ == "__main__":
    main()
