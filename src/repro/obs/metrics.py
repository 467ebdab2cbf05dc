"""Thread-safe metrics registry: counters, gauges, histograms.

The measurement substrate for every subsystem — dependency-free (stdlib
only), cheap enough for hot paths, and renderable in two shapes:

* :meth:`MetricsRegistry.snapshot` — a plain nested dict for JSON
  surfaces (the service's ``/stats`` query);
* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format for ``GET /metrics``.

Instruments are organised as *families*: one name + help text + type,
with one child per distinct label set (``requests_total{kind="khop"}``
and ``requests_total{kind="stats"}`` are two children of one family).
Families are get-or-create and idempotent — asking for the same name
with the same type returns the same object, so instrumented library
code can run at import time without coordination.

Two registry scopes coexist by design:

* the **process-global** registry (:func:`get_registry`) carries
  library-level instruments — expression-engine rewrite/kernels
  counters, shard build/merge/spill timings — that have no natural
  owning object;
* **per-instance** registries (e.g. one per
  :class:`~repro.serve.service.AdjacencyService`) carry instruments
  whose counts must not bleed across instances (cache hit ratios,
  per-endpoint latency).  The HTTP ``/metrics`` endpoint renders both
  (:func:`render_prometheus`).

Histograms use fixed bucket upper bounds (cumulative, Prometheus
style); :meth:`Histogram.percentile` estimates quantiles by linear
interpolation inside the winning bucket — exact enough for p50/p99
dashboards without storing samples.

When an observation happens inside an active trace
(:func:`repro.obs.trace.current_ids`), the histogram additionally
records a per-bucket **exemplar** — the most recent over-threshold
``(trace_id, span_id, value)`` seen in that bucket — rendered in
OpenMetrics exemplar syntax on ``/metrics`` and surfaced by
:meth:`Histogram.snapshot` so ``/stats`` can cross-link a latency
percentile to the concrete span tree behind it.
"""

from __future__ import annotations

import gc
import math
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import current_ids

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "LATENCY_BUCKETS_WIDE",
    "log_buckets",
    "get_registry",
    "render_prometheus",
    "install_process_gauges",
]

#: Default histogram buckets (seconds): 100 µs .. 60 s, roughly
#: logarithmic — wide enough for both kernel micro-timings and epoch
#: publication latencies.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


def log_buckets(lo: float, hi: float,
                per_decade: int = 9) -> Tuple[float, ...]:
    """Logarithmically spaced bucket bounds from ``lo`` to ``hi``.

    ``per_decade`` bounds per factor of ten keeps the relative
    quantile-estimation error bounded by one bucket ratio
    (``10^(1/per_decade)`` — ~29% at the default 9/decade) across the
    whole range, instead of the unbounded *absolute* error a narrow
    fixed-bucket layout produces once observations saturate its first
    or last bucket.  Bounds are rounded to two significant digits so
    rendered ``le`` labels stay readable; they strictly increase, and
    ``hi`` is always the last one.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(
            f"need 0 < lo < hi, got lo={lo!r} hi={hi!r}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    bounds: List[float] = []
    step = 10.0 ** (1.0 / per_decade)
    value = lo
    while value < hi * (1.0 - 1e-12):
        rounded = float(f"{value:.1e}")
        if rounded >= hi:
            break                    # rounds onto (or past) ``hi``
        if not bounds or rounded > bounds[-1]:
            bounds.append(rounded)
        value *= step
    bounds.append(float(hi))
    return tuple(bounds)


#: Wide-dynamic-range latency buckets (seconds): 1 µs .. 60 s at 9
#: bounds per decade (~70 buckets).  The preset for request-latency
#: histograms that must resolve both sub-millisecond cache hits *and*
#: multi-second saturation tails — p50/p99/p99.9 stay within ~29%
#: relative error anywhere in the range, where the narrower default
#: preset pins everything below 100 µs into its first bucket.
LATENCY_BUCKETS_WIDE: Tuple[float, ...] = log_buckets(1e-6, 60.0)

LabelPairs = Tuple[Tuple[str, str], ...]


class Counter:
    """Monotone counter (one label-child of a counter family)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Settable instantaneous value, or a callback sampled at collection.

    A callback gauge (``fn=...``) reads its value lazily — the idiom
    for values that are a *function of now* (snapshot age, uptime,
    queue depth derived from a container) rather than an event count.
    """

    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self, fn: Optional[Callable[[], float]] = None) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Optional[Callable[[], float]]) -> None:
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        fn = self._fn
        if fn is not None:
            try:
                return float(fn())
            except Exception:
                return math.nan   # a broken callback must not break /metrics
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with percentile estimation and exemplars.

    Buckets are cumulative upper bounds (Prometheus ``le`` semantics)
    plus an implicit ``+Inf``; ``observe`` is O(log buckets) via binary
    search under one lock, so concurrent writers stay cheap.

    Observations made inside an active trace attach an **exemplar** to
    their bucket — the most recent ``(trace_id, span_id, value,
    timestamp)`` at or above :attr:`exemplar_threshold` — so a p99
    spike on ``/metrics`` resolves to one concrete trace id.  Untraced
    observations never allocate exemplar state.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_count", "_sum",
                 "_min", "_max", "_exemplars", "exemplar_threshold")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                 exemplar_threshold: float = 0.0) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)   # last = +Inf overflow
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: Minimum value an observation must reach to record an
        #: exemplar (0.0 = every traced observation qualifies).
        self.exemplar_threshold = exemplar_threshold
        # One optional (trace_id, span_id, value, unix_ts) per bucket.
        self._exemplars: List[Optional[Tuple[str, str, float, float]]] = \
            [None] * (len(bounds) + 1)

    def observe(self, value: float) -> None:
        # Binary search for the first bound >= value.
        lo, hi = 0, len(self.buckets)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        ids = current_ids() if value >= self.exemplar_threshold else None
        with self._lock:
            self._counts[lo] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if ids is not None:
                self._exemplars[lo] = (ids[0], ids[1], value, time.time())

    def time(self) -> "_HistogramTimer":
        """``with hist.time(): ...`` observes the block's wall time."""
        return _HistogramTimer(self)

    # -- reads ---------------------------------------------------------
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile (``0 <= q <= 1``) by bucket
        interpolation.

        ``None`` on an empty histogram (rendered as ``null`` in JSON
        surfaces — there is no quantile to estimate, and a fabricated
        bucket boundary would read as a real latency).  With exactly
        one observation the sole observed value is returned exactly.
        Otherwise, within the winning bucket the estimate interpolates
        linearly between its bounds (the lower bound of the first
        bucket is the observed minimum, the upper bound of the overflow
        bucket the observed maximum), so the error is at most one
        bucket width.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self._count
            if total == 0:
                return None
            if total == 1:
                return self._min   # the sole observation, exactly
            rank = q * total
            cumulative = 0
            for i, n in enumerate(self._counts):
                cumulative += n
                if cumulative >= rank and n:
                    lower = self._min if i == 0 else self.buckets[i - 1]
                    upper = self._max if i == len(self.buckets) \
                        else self.buckets[i]
                    lower = max(min(lower, upper), min(self._min, upper))
                    frac = (rank - (cumulative - n)) / n
                    return lower + (upper - lower) * frac
            return self._max   # pragma: no cover - defensive

    def snapshot(self) -> Dict[str, Any]:
        """Count/sum/mean/min/max plus p50/p90/p99 estimates.

        Percentiles are ``None`` (JSON ``null``) while the histogram is
        empty.  When a traced observation has attached an exemplar, the
        slowest bucket's exemplar rides along under ``"exemplar"`` —
        the one-hop link from a latency summary to ``GET /trace/<id>``.
        """
        with self._lock:
            count, total = self._count, self._sum
        out = {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
            "min": self._min if count else 0.0,
            "max": self._max if count else 0.0,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
        }
        worst = self.exemplar()
        if worst is not None:
            out["exemplar"] = worst
        return out

    def exemplar(self) -> Optional[Dict[str, Any]]:
        """The slowest-bucket exemplar as a dict, or ``None``.

        "Slowest" means the highest bucket holding one — the exemplar a
        p99 investigation wants first.
        """
        with self._lock:
            rows = list(self._exemplars)
        for i in range(len(rows) - 1, -1, -1):
            ex = rows[i]
            if ex is not None:
                trace_id, span_id, value, ts = ex
                return {"trace_id": trace_id, "span_id": span_id,
                        "value": value, "timestamp": ts}
        return None

    def exemplars(self) -> List[Optional[Dict[str, Any]]]:
        """Per-bucket exemplars aligned with :meth:`cumulative_buckets`
        rows (``None`` for buckets that never saw a traced
        observation)."""
        with self._lock:
            rows = list(self._exemplars)
        return [None if ex is None else
                {"trace_id": ex[0], "span_id": ex[1], "value": ex[2],
                 "timestamp": ex[3]}
                for ex in rows]

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` rows, ending at +Inf."""
        with self._lock:
            counts = list(self._counts)
        rows: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, counts):
            running += n
            rows.append((bound, running))
        rows.append((math.inf, running + counts[-1]))
        return rows


class _HistogramTimer:
    __slots__ = ("_hist", "_t0")

    def __init__(self, hist: Histogram) -> None:
        self._hist = hist

    def __enter__(self) -> "_HistogramTimer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._hist.observe(time.perf_counter() - self._t0)


class _Family:
    """One metric name: help text, type, and children per label set."""

    __slots__ = ("name", "help", "kind", "children", "_lock", "_ctor")

    def __init__(self, name: str, help_text: str, kind: str,
                 ctor: Callable[[], Any]) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.children: Dict[LabelPairs, Any] = {}
        self._lock = threading.Lock()
        self._ctor = ctor

    def child(self, labels: LabelPairs) -> Any:
        with self._lock:
            inst = self.children.get(labels)
            if inst is None:
                inst = self._ctor()
                self.children[labels] = inst
            return inst


def _label_key(labels: Dict[str, Any]) -> LabelPairs:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create instrument families, thread-safe end to end."""

    def __init__(self, namespace: str = "") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._families: "Dict[str, _Family]" = {}

    # -- instrument accessors ------------------------------------------
    def _family(self, name: str, help_text: str, kind: str,
                ctor: Callable[[], Any]) -> _Family:
        if not name or not all(c.isalnum() or c == "_" for c in name):
            raise ValueError(
                f"metric names are [A-Za-z0-9_]+, got {name!r}")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, help_text, kind, ctor)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}, not {kind}")
            return family

    def counter(self, name: str, help_text: str = "",
                **labels: Any) -> Counter:
        return self._family(name, help_text, "counter",
                            Counter).child(_label_key(labels))

    def gauge(self, name: str, help_text: str = "",
              fn: Optional[Callable[[], float]] = None,
              **labels: Any) -> Gauge:
        gauge = self._family(name, help_text, "gauge",
                             Gauge).child(_label_key(labels))
        if fn is not None:
            gauge.set_function(fn)
        return gauge

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  **labels: Any) -> Histogram:
        return self._family(
            name, help_text, "histogram",
            lambda: Histogram(buckets)).child(_label_key(labels))

    # -- collection -----------------------------------------------------
    def families(self) -> List[_Family]:
        with self._lock:
            return list(self._families.values())

    def snapshot(self) -> Dict[str, Any]:
        """Nested plain-dict view, JSON-ready.

        ``{name: {"type": ..., "values": {label_repr: value_or_summary}}}``
        — histogram children summarise to count/sum/percentiles.
        """
        out: Dict[str, Any] = {}
        for family in self.families():
            values: Dict[str, Any] = {}
            for labels, inst in sorted(family.children.items()):
                key = ",".join(f"{k}={v}" for k, v in labels) or ""
                if family.kind == "histogram":
                    values[key] = inst.snapshot()
                else:
                    values[key] = inst.value
            out[family.name] = {"type": family.kind, "values": values}
        return out

    def render_prometheus(self) -> str:
        """This registry's families in Prometheus text format."""
        return render_prometheus(self)

    def reset(self) -> None:
        """Drop every family (test isolation)."""
        with self._lock:
            self._families.clear()


def _fmt_value(v: float) -> str:
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if math.isnan(v):
        return "NaN"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _escape_label_value(v: str) -> str:
    """Escape a label value per the Prometheus exposition spec:
    backslash, double quote, and line feed."""
    return (v.replace("\\", r"\\").replace('"', r'\"')
             .replace("\n", r"\n"))


def _label_text(labels: LabelPairs, extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _exemplar_text(ex: Optional[Dict[str, Any]]) -> str:
    """OpenMetrics exemplar suffix for one bucket line (or '')."""
    if ex is None:
        return ""
    return (f' # {{trace_id="{_escape_label_value(ex["trace_id"])}",'
            f'span_id="{_escape_label_value(ex["span_id"])}"}} '
            f'{_fmt_value(ex["value"])} {ex["timestamp"]:.3f}')


def render_prometheus(*registries: MetricsRegistry) -> str:
    """Prometheus text exposition for one or more registries.

    Rendering several registries at once is how ``GET /metrics``
    combines a service's per-instance instruments with the
    process-global library instruments; duplicate family names across
    registries keep their first help/type line (Prometheus tolerates
    repeated samples of one family).  Histogram buckets that hold an
    exemplar render it in OpenMetrics exemplar syntax
    (``… # {trace_id="…",span_id="…"} value timestamp``), so a bucket
    count links straight to the span tree that produced it.
    """
    lines: List[str] = []
    seen_header: set = set()
    for registry in registries:
        for family in registry.families():
            if family.name not in seen_header:
                seen_header.add(family.name)
                if family.help:
                    lines.append(f"# HELP {family.name} {family.help}")
                lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, inst in sorted(family.children.items()):
                if family.kind == "histogram":
                    exemplars = inst.exemplars()
                    for i, (bound, cum) in enumerate(
                            inst.cumulative_buckets()):
                        le = 'le="%s"' % _fmt_value(bound)
                        lines.append(
                            f"{family.name}_bucket"
                            f"{_label_text(labels, le)} {cum}"
                            f"{_exemplar_text(exemplars[i])}")
                    lines.append(f"{family.name}_sum"
                                 f"{_label_text(labels)} "
                                 f"{_fmt_value(inst.sum)}")
                    lines.append(f"{family.name}_count"
                                 f"{_label_text(labels)} {inst.count}")
                else:
                    lines.append(f"{family.name}{_label_text(labels)} "
                                 f"{_fmt_value(inst.value)}")
    return "\n".join(lines) + "\n"


#: The process-global registry for library-level instruments.
_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _GLOBAL_REGISTRY


# ---------------------------------------------------------------------------
# Process runtime gauges
# ---------------------------------------------------------------------------

def _rss_bytes() -> float:
    """Resident set size.  ``/proc/self/statm`` field 2 (pages) × page
    size on Linux; elsewhere, ``resource.getrusage`` ``ru_maxrss``
    (peak, in KiB on Linux / bytes on macOS — close enough for a
    fallback gauge)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return float(pages * os.sysconf("SC_PAGESIZE"))
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes; heuristically a value under
        # 1 GiB-as-KiB is KiB.
        return float(rss * 1024 if rss < 1 << 30 else rss)
    except Exception:
        return math.nan


def _open_fds() -> float:
    """Open file descriptors via ``/proc/self/fd``; NaN where absent."""
    try:
        return float(len(os.listdir("/proc/self/fd")))
    except OSError:
        return math.nan


def install_process_gauges(
        registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Register process runtime gauges (idempotent, callback-based).

    RSS, per-generation GC collections/collected, live thread count,
    and open FD count on ``registry`` (default: the process-global
    one), each as a callback :class:`Gauge` sampled at collection time
    — the serving tier calls this once at startup and ``GET /metrics``
    reports live values with zero steady-state cost.
    """
    reg = registry if registry is not None else _GLOBAL_REGISTRY
    reg.gauge("process_resident_memory_bytes",
              "Resident set size of this process", fn=_rss_bytes)
    reg.gauge("process_open_fds",
              "Open file descriptors held by this process", fn=_open_fds)
    reg.gauge("process_threads",
              "Live Python threads", fn=lambda: float(threading.active_count()))
    for gen in range(3):
        reg.gauge("python_gc_collections_total",
                  "GC runs per generation",
                  fn=(lambda g=gen: float(gc.get_stats()[g]["collections"])),
                  generation=gen)
        reg.gauge("python_gc_collected_total",
                  "Objects collected by the GC per generation",
                  fn=(lambda g=gen: float(gc.get_stats()[g]["collected"])),
                  generation=gen)
    return reg
