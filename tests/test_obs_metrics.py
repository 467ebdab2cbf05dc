"""Tests for the metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import math
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    LATENCY_BUCKETS_WIDE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    log_buckets,
    render_prometheus,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter()
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter().inc(-1.0)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(10.0)
        g.inc(5.0)
        g.dec(2.0)
        assert g.value == 13.0

    def test_callback_gauge_reads_lazily(self):
        state = {"n": 1.0}
        g = Gauge(fn=lambda: state["n"])
        assert g.value == 1.0
        state["n"] = 7.0
        assert g.value == 7.0

    def test_broken_callback_yields_nan_not_raise(self):
        def boom():
            raise RuntimeError("broken")
        g = Gauge(fn=boom)
        assert math.isnan(g.value)


class TestHistogram:
    def test_count_sum_mean(self):
        h = Histogram(buckets=(1.0, 10.0))
        for v in (0.5, 2.0, 20.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(22.5)
        assert h.mean == pytest.approx(7.5)

    def test_percentile_bounds(self):
        h = Histogram(buckets=(0.001, 0.01, 0.1, 1.0))
        for _ in range(100):
            h.observe(0.005)   # all land in the (0.001, 0.01] bucket
        p50 = h.percentile(0.50)
        assert 0.001 <= p50 <= 0.01   # within the winning bucket
        assert h.percentile(0.0) <= h.percentile(1.0)

    def test_percentile_empty_is_none_and_range_check(self):
        h = Histogram()
        # An empty histogram has no quantile — a fabricated 0.0 would
        # read as a real (and impossibly good) latency.
        assert h.percentile(0.5) is None
        with pytest.raises(ValueError, match="quantile"):
            h.percentile(1.5)

    def test_percentile_single_observation_is_exact(self):
        h = Histogram(buckets=(0.1, 1.0))
        h.observe(0.42)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.percentile(q) == pytest.approx(0.42)

    def test_snapshot_percentiles_null_when_empty(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["p50"] is None and snap["p99"] is None

    def test_time_context_manager_observes(self):
        h = Histogram()
        with h.time():
            pass
        assert h.count == 1
        assert h.sum >= 0.0

    def test_snapshot_keys(self):
        h = Histogram(buckets=(1.0,))
        h.observe(0.5)
        snap = h.snapshot()
        assert set(snap) == {"count", "sum", "mean", "min", "max",
                             "p50", "p90", "p99", "p999"}
        assert snap["count"] == 1 and snap["min"] == 0.5

    def test_untraced_observations_attach_no_exemplar(self):
        h = Histogram(buckets=(1.0,))
        h.observe(0.5)
        assert h.exemplar() is None
        assert h.exemplars() == [None, None]
        assert "exemplar" not in h.snapshot()

    def test_traced_observation_attaches_exemplar(self):
        from repro.obs.trace import Tracer
        tracer = Tracer()
        h = Histogram(buckets=(0.1, 1.0))
        with tracer.span("op") as sp:
            h.observe(0.5)
        ex = h.exemplar()
        assert ex is not None
        assert ex["trace_id"] == sp.trace_id
        assert ex["span_id"] == sp.span_id
        assert ex["value"] == 0.5
        # Index-aligned with cumulative_buckets: 0.5 lands in (0.1, 1].
        per_bucket = h.exemplars()
        assert per_bucket[0] is None and per_bucket[2] is None
        assert per_bucket[1]["trace_id"] == sp.trace_id
        assert h.snapshot()["exemplar"]["trace_id"] == sp.trace_id

    def test_exemplar_prefers_slowest_bucket(self):
        from repro.obs.trace import Tracer
        tracer = Tracer()
        h = Histogram(buckets=(0.1, 1.0))
        with tracer.span("fast"):
            h.observe(0.05)
        with tracer.span("slow") as slow:
            h.observe(5.0)     # overflow bucket
        assert h.exemplar()["trace_id"] == slow.trace_id

    def test_exemplar_threshold_filters(self):
        from repro.obs.trace import Tracer
        tracer = Tracer()
        h = Histogram(buckets=(0.1, 1.0), exemplar_threshold=0.2)
        with tracer.span("fast"):
            h.observe(0.05)    # below threshold — no exemplar
        assert h.exemplar() is None
        with tracer.span("slow"):
            h.observe(0.5)
        assert h.exemplar() is not None

    def test_cumulative_buckets_end_at_inf(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(5.0)   # overflow
        rows = h.cumulative_buckets()
        assert rows[-1][0] == math.inf
        assert rows[-1][1] == 2           # +Inf is cumulative over all
        assert rows[0] == (1.0, 1)

    def test_needs_at_least_one_bucket(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram(buckets=())


class TestLogBuckets:
    @pytest.mark.parametrize("lo,hi,per_decade", [
        (1e-6, 60.0, 9), (1e-3, 1.0, 3), (0.5, 2.0, 1),
        (1e-4, 1.295e-4, 9)])
    def test_bounds_strictly_increase_from_lo_to_hi(self, lo, hi,
                                                    per_decade):
        bounds = log_buckets(lo, hi, per_decade)
        assert bounds[0] == lo and bounds[-1] == hi
        assert all(a < b for a, b in zip(bounds, bounds[1:])), bounds

    def test_one_step_per_bucket(self):
        bounds = log_buckets(1e-3, 1.0, 3)
        assert bounds == (0.001, 0.0022, 0.0046, 0.01, 0.022, 0.046,
                          0.1, 0.22, 0.46, 1.0)

    @pytest.mark.parametrize("lo,hi,per_decade", [
        (0.0, 1.0, 9), (-1.0, 1.0, 9), (1.0, 1.0, 9), (2.0, 1.0, 9),
        (1e-3, 1.0, 0)])
    def test_invalid_arguments_raise(self, lo, hi, per_decade):
        with pytest.raises(ValueError):
            log_buckets(lo, hi, per_decade)

    def test_wide_preset_spans_a_microsecond_to_a_minute(self):
        assert LATENCY_BUCKETS_WIDE[0] == 1e-6
        assert LATENCY_BUCKETS_WIDE[-1] == 60.0
        assert len(set(LATENCY_BUCKETS_WIDE)) == len(LATENCY_BUCKETS_WIDE)
        text = render_prometheus(self._registry_with_wide_histogram())
        bucket_lines = [line for line in text.splitlines()
                        if line.startswith("lat_seconds_bucket")]
        assert len(bucket_lines) == len(set(bucket_lines)) == \
            len(LATENCY_BUCKETS_WIDE) + 1

    @staticmethod
    def _registry_with_wide_histogram():
        reg = MetricsRegistry()
        reg.histogram("lat_seconds", buckets=LATENCY_BUCKETS_WIDE
                      ).observe(0.01)
        return reg

    @pytest.mark.parametrize("magnitude", [
        3e-6, 4e-5, 5e-4, 6e-3, 0.07, 0.8, 9.0])
    def test_wide_preset_quantiles_within_one_bucket_ratio(self,
                                                           magnitude):
        import random
        rng = random.Random(7)
        values = sorted(magnitude * 1.5 ** rng.random()
                        for _ in range(1000))
        h = Histogram(buckets=LATENCY_BUCKETS_WIDE)
        for v in values:
            h.observe(v)
        widest = max(b / a for a, b in zip(LATENCY_BUCKETS_WIDE,
                                           LATENCY_BUCKETS_WIDE[1:]))
        for q in (0.5, 0.99, 0.999):
            exact = values[min(len(values) - 1, int(q * len(values)))]
            assert abs(h.percentile(q) - exact) / exact <= widest - 1

    def test_default_preset_cannot_resolve_microseconds(self):
        h = Histogram(buckets=DEFAULT_LATENCY_BUCKETS)
        for i in range(100):
            h.observe(3e-6 + i * 1e-8)
        assert h.percentile(0.99) > 10 * 4e-6


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("requests_total", "help")
        b = reg.counter("requests_total")
        assert a is b

    def test_label_sets_are_distinct_children(self):
        reg = MetricsRegistry()
        a = reg.counter("requests_total", kind="khop")
        b = reg.counter("requests_total", kind="stats")
        assert a is not b
        a.inc()
        assert b.value == 0.0
        # Label order must not matter.
        c = reg.counter("multi", a="1", b="2")
        d = reg.counter("multi", b="2", a="1")
        assert c is d

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("thing_total")

    def test_bad_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="metric names"):
            reg.counter("bad-name")
        with pytest.raises(ValueError):
            reg.counter("")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total", "Requests", route="query").inc(3)
        reg.histogram("lat_seconds", "Latency").observe(0.01)
        snap = reg.snapshot()
        assert snap["reqs_total"]["type"] == "counter"
        assert snap["reqs_total"]["values"]["route=query"] == 3.0
        hist = snap["lat_seconds"]["values"][""]
        assert hist["count"] == 1

    def test_reset_drops_families(self):
        reg = MetricsRegistry()
        reg.counter("gone_total").inc()
        reg.reset()
        assert reg.families() == []
        assert reg.counter("gone_total").value == 0.0

    def test_global_registry_is_a_singleton(self):
        assert get_registry() is get_registry()
        assert isinstance(get_registry(), MetricsRegistry)


class TestPrometheusRendering:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total", "Total requests", route="query").inc(5)
        reg.gauge("epoch", "Current epoch").set(3)
        text = reg.render_prometheus()
        assert "# HELP reqs_total Total requests" in text
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{route="query"} 5' in text
        assert "# TYPE epoch gauge" in text
        assert "epoch 3" in text
        assert text.endswith("\n")

    def test_histogram_exposition(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "Latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = reg.render_prometheus()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text
        assert "lat_seconds_sum 0.55" in text

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("odd_total", "Odd labels",
                    path='a\\b"c\nd').inc()
        text = reg.render_prometheus()
        assert 'odd_total{path="a\\\\b\\"c\\nd"} 1' in text
        assert "\n" not in text.split("odd_total{", 1)[1].split("} ")[0]

    def test_bucket_lines_carry_openmetrics_exemplars(self):
        from repro.obs.trace import Tracer
        reg = MetricsRegistry()
        tracer = Tracer()
        h = reg.histogram("lat_seconds", "Latency", buckets=(0.1, 1.0))
        with tracer.span("req") as sp:
            h.observe(0.5)
        text = reg.render_prometheus()
        line = next(ln for ln in text.splitlines()
                    if ln.startswith('lat_seconds_bucket{le="1"}'))
        assert f'# {{trace_id="{sp.trace_id}",span_id="{sp.span_id}"}} ' \
            in line
        assert " 0.5 " in line
        # Buckets without exemplars render the plain form.
        plain = next(ln for ln in text.splitlines()
                     if ln.startswith('lat_seconds_bucket{le="0.1"}'))
        assert "#" not in plain

    def test_multi_registry_merge_keeps_one_header(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("shared_total", "From a", src="a").inc()
        b.counter("shared_total", "From b", src="b").inc(2)
        text = render_prometheus(a, b)
        assert text.count("# TYPE shared_total counter") == 1
        assert 'shared_total{src="a"} 1' in text
        assert 'shared_total{src="b"} 2' in text


class TestConcurrency:
    def test_concurrent_writers_lose_nothing(self):
        """N threads × M increments/observations land exactly."""
        reg = MetricsRegistry()
        counter = reg.counter("hits_total")
        hist = reg.histogram("lat_seconds",
                             buckets=DEFAULT_LATENCY_BUCKETS)
        n_threads, per_thread = 8, 500

        def worker(tid: int) -> None:
            # Also hammer get-or-create from every thread.
            c = reg.counter("hits_total")
            for i in range(per_thread):
                c.inc()
                hist.observe(0.001 * ((tid + i) % 10 + 1))

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert counter.value == n_threads * per_thread
        assert hist.count == n_threads * per_thread
        # Cumulative bucket rows stay monotone and consistent.
        rows = hist.cumulative_buckets()
        assert rows[-1][1] == hist.count
        assert all(rows[i][1] <= rows[i + 1][1]
                   for i in range(len(rows) - 1))

    def test_concurrent_exemplar_attachment(self):
        """Threads racing traced observations never corrupt the
        exemplar table: every recorded exemplar is one that a thread
        actually observed, in the right bucket."""
        from repro.obs.trace import Tracer
        tracer = Tracer(max_traces=256)
        hist = Histogram(buckets=(0.1, 1.0, 10.0))
        n_threads, per_thread = 8, 200
        recorded: dict = {}
        lock = threading.Lock()

        def worker(tid: int) -> None:
            for i in range(per_thread):
                value = (0.05, 0.5, 5.0, 50.0)[(tid + i) % 4]
                with tracer.span("op", tid=tid) as sp:
                    hist.observe(value)
                with lock:
                    recorded[(sp.trace_id, sp.span_id)] = value

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert hist.count == n_threads * per_thread
        exemplars = hist.exemplars()
        bounds = (0.1, 1.0, 10.0, math.inf)
        assert len(exemplars) == len(bounds)
        seen = 0
        for i, ex in enumerate(exemplars):
            if ex is None:
                continue
            seen += 1
            # The exemplar is a real observation some thread made...
            assert recorded[(ex["trace_id"], ex["span_id"])] \
                == ex["value"]
            # ...and it sits in the bucket its value belongs to.
            lower = bounds[i - 1] if i else 0.0
            assert lower < ex["value"] <= bounds[i]
        assert seen == 4   # every bucket saw traffic

    def test_concurrent_family_creation(self):
        reg = MetricsRegistry()
        errors = []

        def creator(i: int) -> None:
            try:
                reg.counter("made_total", lab=str(i % 4)).inc()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=creator, args=(i,))
                   for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        total = sum(reg.counter("made_total", lab=str(k)).value
                    for k in range(4))
        assert total == 16
