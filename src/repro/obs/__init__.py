"""``repro.obs`` — unified observability: metrics, tracing, benchmarks.

The measurement substrate the ROADMAP's scaling items gate on.  Six
dependency-free pieces, threaded through every hot layer:

* :mod:`repro.obs.metrics` — a thread-safe registry of counters,
  gauges, and fixed-bucket histograms (with percentile estimation and
  per-bucket trace exemplars), rendered as JSON (``/stats``) or
  Prometheus/OpenMetrics text (``/metrics``).  Library-level
  instruments (expression rewrites, kernel timings, shard
  build/merge/spill) live on the process-global registry
  (:func:`~repro.obs.metrics.get_registry`); per-service instruments
  (cache hit ratio, per-endpoint latency) live on each service's own.
* :mod:`repro.obs.trace` — span tracing with ``contextvars``
  propagation: one HTTP k-hop query produces one trace tree (handler →
  cache → snapshot → expr plan → kernel), dumpable as JSON
  (``GET /trace/<id>``) and renderable by ``repro trace``; misses
  raise :class:`~repro.obs.trace.TraceNotFound` with the ring's
  retention bounds.
* :mod:`repro.obs.events` — a bounded, thread-safe structured event
  log (epoch publications, rewrite refusals, shard spills, cache
  invalidations, bench runs), each event stamped with the active trace
  id; served by ``GET /events`` and ``repro events --follow``.
* :mod:`repro.obs.bench` — the versioned benchmark harness behind
  ``repro bench``: run-id'd runs with locked manifests (git sha,
  machine info, config hash), ``BENCH_<runid>.json`` + ``report.md``
  artifacts, ``--compare`` regression gates
  with exemplar trace links, and the ``--baseline-refresh`` lifecycle
  (provenance-stamped re-locking of ``BENCH_baseline.json``).
* :mod:`repro.obs.loadgen` — workload capture (sampled, schema-
  versioned JSONL query logs off a live service), synthetic query-mix
  generation, the open-loop load generator (Poisson/fixed-rate
  arrival schedules, coordinated-omission-corrected latency on wide
  log-bucketed histograms), and the SLO-gated saturation sweep behind
  ``repro loadgen record|replay|sweep`` and ``bench_loadgen``'s
  ``sustainable_qps`` headline.
* :mod:`repro.obs.profile` — the attribution layer: a stdlib-only
  sampling profiler (daemon thread over ``sys._current_frames()``)
  aggregating collapsed stacks into flamegraphs (HTML/text), per-span
  CPU attribution stamped into trace trees, ``tracemalloc`` heap-growth
  accounting (:func:`~repro.obs.profile.heap_delta`), self-measured
  overhead ratios, and function-level profile diffs behind
  ``repro profile start|stop|dump|diff``, ``GET /profile[/flame]``,
  and the bench harness's per-run profile artifacts.
"""

from repro.obs.bench import (
    BenchError,
    CompareResult,
    DEFAULT_THRESHOLD,
    MetricDelta,
    compare,
    config_hash,
    describe_profile_diff,
    describe_with_exemplars,
    discover_benchmarks,
    harvest_exemplars,
    load_run,
    refresh_baseline,
    render_markdown,
    run_benchmarks,
    run_metadata,
)
from repro.obs.events import Event, EventLog, emit_event, get_event_log
from repro.obs.loadgen import (
    SLO,
    HTTPTarget,
    LoadgenError,
    ServiceTarget,
    Workload,
    WorkloadRecorder,
    arrival_offsets,
    render_replay,
    render_sweep,
    replay,
    sweep,
    synthesize,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS_WIDE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    install_process_gauges,
    log_buckets,
    render_prometheus,
)
from repro.obs.profile import (
    DEFAULT_HZ,
    NoActiveProfile,
    Profile,
    ProfileError,
    ProfileRing,
    ProfileSession,
    active_session,
    diff_function_tables,
    get_profile_ring,
    heap_delta,
    load_profile_functions,
    parse_collapsed,
    render_flamegraph_html,
    render_flamegraph_text,
    render_profile_diff,
    start_profile,
    stop_profile,
)
from repro.obs.trace import (
    Span,
    TraceNotFound,
    Tracer,
    current_ids,
    current_span,
    get_span_observer,
    render_trace,
    set_span_observer,
    span,
)

__all__ = [
    "BenchError",
    "CompareResult",
    "Counter",
    "DEFAULT_HZ",
    "DEFAULT_THRESHOLD",
    "Event",
    "EventLog",
    "Gauge",
    "HTTPTarget",
    "Histogram",
    "LATENCY_BUCKETS_WIDE",
    "LoadgenError",
    "MetricDelta",
    "MetricsRegistry",
    "NoActiveProfile",
    "Profile",
    "ProfileError",
    "ProfileRing",
    "ProfileSession",
    "SLO",
    "ServiceTarget",
    "Span",
    "TraceNotFound",
    "Tracer",
    "Workload",
    "WorkloadRecorder",
    "active_session",
    "arrival_offsets",
    "compare",
    "config_hash",
    "current_ids",
    "current_span",
    "describe_profile_diff",
    "describe_with_exemplars",
    "diff_function_tables",
    "discover_benchmarks",
    "emit_event",
    "get_event_log",
    "get_profile_ring",
    "get_registry",
    "get_span_observer",
    "harvest_exemplars",
    "heap_delta",
    "install_process_gauges",
    "load_profile_functions",
    "load_run",
    "log_buckets",
    "parse_collapsed",
    "refresh_baseline",
    "render_flamegraph_html",
    "render_flamegraph_text",
    "render_markdown",
    "render_profile_diff",
    "render_prometheus",
    "render_replay",
    "render_sweep",
    "render_trace",
    "replay",
    "run_benchmarks",
    "run_metadata",
    "set_span_observer",
    "span",
    "start_profile",
    "stop_profile",
    "sweep",
    "synthesize",
]
