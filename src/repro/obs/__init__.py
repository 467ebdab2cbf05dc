"""``repro.obs`` — unified observability: metrics, tracing, events, profiles.

Four dependency-free pieces, threaded through every hot layer:

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
  invalidations), each event stamped with the active trace id; served
  by ``GET /events`` and ``repro events --follow``.
* :mod:`repro.obs.profile` — the attribution layer: a stdlib-only
  sampling profiler (daemon thread over ``sys._current_frames()``)
  aggregating collapsed stacks into flamegraphs (HTML/text), per-span
  CPU attribution stamped into trace trees, ``tracemalloc`` heap-growth
  accounting (:func:`~repro.obs.profile.heap_delta`), self-measured
  overhead ratios, and function-level profile diffs behind
  ``repro profile start|stop|dump|diff`` and ``GET /profile[/flame]``.

The repository benchmark that gates changes lives outside the package,
in ``adjbench/`` (see ``BENCHMARK.json``).
"""

from repro.obs.events import Event, EventLog, emit_event, get_event_log
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
    "Counter",
    "DEFAULT_HZ",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_WIDE",
    "MetricsRegistry",
    "NoActiveProfile",
    "Profile",
    "ProfileError",
    "ProfileRing",
    "ProfileSession",
    "Span",
    "TraceNotFound",
    "Tracer",
    "active_session",
    "current_ids",
    "current_span",
    "diff_function_tables",
    "emit_event",
    "get_event_log",
    "get_profile_ring",
    "get_registry",
    "get_span_observer",
    "heap_delta",
    "install_process_gauges",
    "load_profile_functions",
    "log_buckets",
    "parse_collapsed",
    "render_flamegraph_html",
    "render_flamegraph_text",
    "render_profile_diff",
    "render_prometheus",
    "render_trace",
    "set_span_observer",
    "span",
    "start_profile",
    "stop_profile",
]
