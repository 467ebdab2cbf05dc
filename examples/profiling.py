#!/usr/bin/env python3
"""Profiling: sampled CPU, flamegraphs, heap deltas, profile diffs.

The sampling profiler (:mod:`repro.obs.profile`) is the attribution
layer of the observability stack: metrics say *how much*, traces say
*where the wall time went*, the profiler says *which code burned the
CPU* — with no dependencies beyond the standard library and no code
changes in the profiled workload.  This example walks the surface
in-process (``repro profile start|stop|dump|diff`` and
``GET /profile[/flame]`` expose the same machinery over a server):

1. sample a k-hop query workload and read the collapsed stacks —
   the dominant frames are the semiring kernels, exactly where the
   paper's adjacency-construction work says the time should go;
2. per-span CPU attribution: the same samples, folded into the trace
   tree, so a span's wall time and its sampled CPU sit side by side
   (a wide gap means blocking, not compute);
3. render a self-contained HTML flamegraph plus its terminal twin;
4. account heap growth around a labelled block with ``tracemalloc``
   (``memory=True`` sessions bracket epoch publications the same way);
5. diff two profiles by self-time *share* — the function-level
   regression report ``repro profile diff`` prints.

Run:  python examples/profiling.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import repro
from repro.graphs.generators import rmat_multigraph
from repro.obs import Tracer, render_trace
from repro.obs.profile import (
    diff_function_tables,
    heap_delta,
    render_flamegraph_text,
    render_profile_diff,
    start_profile,
    stop_profile,
)
from repro.serve import AdjacencyService


def build_service(pair, scale=8, edges=1500, seed=7):
    graph = rmat_multigraph(scale, edges, seed=seed)
    service = AdjacencyService(pair, cache_size=0)   # kernels, not LRU
    service.add_edges((k, s, t, 1.0, 1.0) for k, s, t in graph.edges())
    service.publish()
    return service


def drive(service, seconds, k=4):
    vertices = list(service.snapshot().vertices)
    deadline = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < deadline:
        service.khop(vertices[n % len(vertices)], k)
        n += 1
    return n


def main() -> None:
    pair = repro.get_op_pair("plus_times")
    service = build_service(pair)

    # ------------------------------------------------------------------
    # 1. Sample a k-hop workload; the kernels dominate the profile.
    # ------------------------------------------------------------------
    start_profile(hz=200)
    queries = drive(service, 1.2)
    profile = stop_profile()

    print(f"— sampled {queries} uncached khop queries —")
    print(f"profile {profile.profile_id}: {profile.samples} samples "
          f"@ {profile.hz:g} Hz over {profile.duration:.2f}s, "
          f"overhead {profile.overhead_ratio:.2%} (self-measured)")
    print("hottest functions (self%):")
    for row in profile.top_functions(5):
        print(f"  {row['self_pct']:6.2f}%  {row['function']}")
    assert profile.samples > 0

    # ------------------------------------------------------------------
    # 2. Per-span CPU: samples folded into the trace tree.
    # ------------------------------------------------------------------
    tracer = Tracer()
    start_profile(hz=200)
    with tracer.span("profiled_pipeline"):
        drive(service, 0.6, k=5)
    stop_profile()
    print("\n— the span tree, now carrying cpu_ms/cpu_samples attrs —")
    print(render_trace(tracer.latest()))

    # ------------------------------------------------------------------
    # 3. Flamegraphs: terminal text and self-contained HTML.
    # ------------------------------------------------------------------
    print("\n— terminal flamegraph (top of the sample tree) —")
    text = render_flamegraph_text(profile.stacks, max_depth=6,
                                  min_pct=5.0)
    print("\n".join(text.splitlines()[:12]))
    with tempfile.TemporaryDirectory() as tmp:
        flame = Path(tmp) / "profile_flame.html"
        flame.write_text(profile.flamegraph_html(), encoding="utf-8")
        print(f"\nwrote {flame.name}: {flame.stat().st_size} bytes, "
              "zero external assets")

    # ------------------------------------------------------------------
    # 4. Heap accounting around a labelled block (memory=True).
    # ------------------------------------------------------------------
    start_profile(hz=20, memory=True)
    with heap_delta("publish_batch"):
        service.add_edges((f"g{i}", f"n{i}", f"n{i + 1}", 1.0, 1.0)
                          for i in range(4000))
        service.publish()
    mem_profile = stop_profile()
    delta = next(d for d in mem_profile.memory["deltas"]
                 if d["label"] == "publish_batch")
    print("\n— heap growth across the labelled publication —")
    print(f"  publish_batch grew {delta['grew_bytes'] / 1024:.0f} KiB; "
          f"top growth site: {delta['top'][0]['site'] if delta['top'] else 'n/a'}")

    # ------------------------------------------------------------------
    # 5. Profile diffs by self-time share (the repro profile diff report).
    # ------------------------------------------------------------------
    baseline = profile.function_totals()
    candidate = {name: dict(counts) for name, counts
                 in baseline.items()}
    hottest = profile.top_functions(1)[0]["function"]
    candidate[hottest] = {                      # fabricate a regression
        "self": baseline[hottest]["self"] * 4,
        "total": baseline[hottest]["total"] * 4}
    rows = diff_function_tables(baseline, candidate, top=5)
    print("\n— function-level diff of the fabricated regression —")
    print(render_profile_diff(rows))
    assert rows and rows[0]["function"] == hottest

    print("\nprofiling demo complete")


if __name__ == "__main__":
    main()
