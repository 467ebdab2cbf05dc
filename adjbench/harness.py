"""Measurement loop shared by the workloads, and the metric report.

A run generates its inputs, sets the program up ``SETUPS`` times (the
median, divided by the run's probe factor, is ``setup_s``; the last
instance is kept), runs a fixed number of warm-up ops, then measures.  Every workload interleaves a **main**
and a **second** op class in one loop, so both see the same machine
drift, and probes machine speed between ops (:mod:`adjbench.stats`).
A workload may give its caller a think time (``Workload.THINK_S``).

``--trace 0`` measures for ``--seconds`` with no instrumentation.
``--trace 1`` runs four segments of a fixed op count — untraced,
traced, untraced, traced — so the traced ops are the same ops on every
run of a seed (their kernel-call counts must repeat exactly), and the
traced/untraced latency ratio is the tracing overhead.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from adjbench import stats
from adjbench.ledger import PATCHES, Ledger

pc = time.perf_counter

CLASSES = ("main", "second")

#: A timed segment runs past its deadline until each class has this
#: many samples (within three times the deadline), so a class of slow
#: ops (``build``) still has a tail above its median, with ten samples
#: beyond it.
MIN_CLASS_SAMPLES = 31

#: Program set-ups per run; ``setup_s`` is their median.
SETUPS = 5

# (metric suffix, totals key, scale, unit); times are totals in seconds.
LAYER_METRICS: List[Tuple[str, str, float, str]] = [
    ("arrays.matmul.sortmerge_ms", "arrays.matmul.sortmerge", 1e3, "ms"),
    ("arrays.matmul.scipy_ms", "arrays.matmul.scipy", 1e3, "ms"),
    ("arrays.matmul.generic_ms", "arrays.matmul.generic", 1e3, "ms"),
    ("arrays.matmul.calls.sortmerge", "arrays.matmul.calls.sortmerge", 1, "count"),
    ("arrays.matmul.calls.scipy", "arrays.matmul.calls.scipy", 1, "count"),
    ("arrays.matmul.calls.generic", "arrays.matmul.calls.generic", 1, "count"),
    ("arrays.matmul.terms", "arrays.matmul.terms", 1, "count"),
    ("arrays.matmul.bytes", "arrays.matmul.bytes", 1, "bytes_computed"),
    ("arrays.associative.transpose_ms", "arrays.associative.transpose", 1e3, "ms"),
    ("arrays.backend.index_ms", "arrays.backend.index", 1e3, "ms"),
    ("arrays.io.read_ms", "arrays.io.read", 1e3, "ms"),
    ("arrays.io.write_ms", "arrays.io.write", 1e3, "ms"),
    ("arrays.io.bytes", "arrays.io.bytes", 1, "bytes"),
    ("shard.partition_ms", "shard.partition", 1e3, "ms"),
    ("shard.execute_ms", "shard.execute", 1e3, "ms"),
    ("shard.merge_ms", "shard.merge", 1e3, "ms"),
    ("shard.wait_ms", "shard.wait_s", 1e3, "ms"),
    ("shard.merge.oplus_union_ms", "shard.merge.oplus_union", 1e3, "ms"),
    ("shard.merge.base_nnz", "shard.merge.base_nnz", 1, "count"),
    ("core.streaming.delta_ms", "core.streaming.delta", 1e3, "ms"),
    ("serve.service.publish_ms", "serve.service.publish", 1e3, "ms"),
    ("serve.snapshot.from_array_ms", "serve.snapshot.from_array", 1e3, "ms"),
    ("serve.cache.invalidated", "serve.cache.invalidated", 1, "count"),
    ("serve.service.self_ms", "serve.service", 1e3, "ms"),
    ("obs.instrument_ms", "obs.instrument", 1e3, "ms"),
    ("obs.calls", "obs.instrument#calls", 1, "count"),
    ("serve.cache.self_ms", "serve.cache", 1e3, "ms"),
    ("serve.cache.evictions", "serve.cache.evictions", 1, "count"),
    ("serve.snapshot.read_ms", "serve.snapshot.read", 1e3, "ms"),
    ("expr.plan_ms", "expr.plan", 1e3, "ms"),
    ("expr.execute_ms", "expr.execute", 1e3, "ms"),
    ("serve.http.parse_ms", "serve.http.parse", 1e3, "ms"),
    ("serve.http.handler_ms", "serve.http.handler", 1e3, "ms"),
    ("serve.http.send_ms", "serve.http.send", 1e3, "ms"),
    ("runtime.gc_ms", "runtime.gc_s", 1e3, "ms"),
    ("runtime.gc_full", "runtime.gc_full", 1, "count"),
    ("unattributed_ms", "unattributed", 1e3, "ms"),
]

#: Per-class metrics computed from more than one total.
DERIVED_METRICS = [("serve.cache.hit_ratio", "ratio"),
                   ("serve.http.wire_ms", "ms"),
                   ("tracing.overhead_pct", "%")]


def per_layer_names() -> List[Tuple[str, str]]:
    """``(name, unit)`` of every per-layer metric, for BENCHMARK.json."""
    out = []
    for cls in CLASSES:
        for suffix, _key, _scale, unit in LAYER_METRICS:
            out.append((f"{cls}.{suffix}", unit))
        for suffix, unit in DERIVED_METRICS:
            out.append((f"{cls}.{suffix}", unit))
    return out


@dataclass
class Record:
    """Ops and probes of the measured segments."""

    #: (class, seconds, ok, traced) per measured op
    ops: List[Tuple[str, float, bool, bool]] = field(default_factory=list)
    probe: stats.Probe = field(default_factory=stats.Probe)
    failures: List[str] = field(default_factory=list)

    def add(self, cls: str, dt: float, ok: bool,
            traced: bool = False) -> None:
        self.ops.append((cls, dt, ok, traced))

    def fail(self, what: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(what)


Op = Tuple[str, Callable[[], Any], Callable[[Any], bool]]


class Workload:
    """One benchmark workload.  Subclasses define the op stream."""

    name = ""
    #: Warm-up ops before any measurement (caches fill, lazy set-up
    #: finishes, the first plans are built).
    WARMUP_OPS = 0
    #: Ops per segment of a ``--trace 1`` run.
    TRACE_OPS = 0
    #: Classes whose latencies are divided by the machine-speed probe
    #: (:mod:`adjbench.stats`): ops whose time is CPU and cache work.  A
    #: latency made mostly of a kernel timer does not scale with it.
    NORMALIZE = CLASSES
    #: Think time (s) after each second-class op, which ends a cycle of
    #: the op stream, in a timed segment.  The caller spins, so its core
    #: stays busy.
    THINK_S = 0.0

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.workdir = workdir
        self.sizes: Dict[str, Any] = {}
        self.checks = 0
        #: The program object(s) a set-up built and the ops run against.
        self.instance: Any = None

    # -- to override -----------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release the previous set-up's instance (untimed)."""
        self.instance = None

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def final_checks(self, rec: Record) -> int:
        """Sampled checks after measurement; returns failures."""
        return 0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def extra_report(self) -> Dict[str, Any]:
        return {}

    def layer_totals(self, ledger: Ledger):
        """``(totals, ops per class, wire_ms per class)`` of the traced
        segments."""
        return ledger.totals, ledger.ops, {}

    def close(self) -> None:
        pass

    # -- the closed loop -------------------------------------------------------
    def start(self) -> None:
        self._stream = self.ops()

    def segment(self, rec: Record, *, seconds: Optional[float] = None,
                n_ops: Optional[int] = None,
                ledger: Optional[Ledger] = None,
                measure: bool = True) -> None:
        """Run ops until ``seconds`` pass or ``n_ops`` ran."""
        stream = self._stream
        probe = rec.probe
        start = pc()
        deadline = start + seconds if seconds is not None else None
        next_probe = start
        think = self.THINK_S if seconds is not None else 0.0
        done = 0
        counts = dict.fromkeys(CLASSES, 0)
        if ledger is not None:
            ledger.install(PATCHES)
        try:
            while True:
                if measure and pc() >= next_probe:
                    probe.run()
                    next_probe = pc() + stats.PROBE_EVERY_S
                cls, thunk, check = next(stream)
                if ledger is not None:
                    ledger.begin_op(cls)
                t0 = pc()
                try:
                    result = thunk()
                    ok = True
                except Exception as exc:   # a failed op counts, the run goes on
                    result, ok = None, False
                    rec.fail(f"{cls}: {type(exc).__name__}: {exc}")
                dt = pc() - t0
                if ledger is not None:
                    ledger.end_op()
                if ok and not check(result):
                    ok = False
                    rec.fail(f"{cls}: wrong result")
                if measure:
                    rec.add(cls, dt, ok, ledger is not None)
                if think and cls == "second":
                    until = pc() + think
                    while pc() < until:
                        pass
                done += 1
                counts[cls] += 1
                if n_ops is not None and done >= n_ops:
                    break
                if deadline is not None and past_deadline(
                        start, seconds, counts):
                    break
        finally:
            if ledger is not None:
                ledger.uninstall()


def past_deadline(start: float, seconds: float,
                  counts: Dict[str, int]) -> bool:
    """Whether a timed segment may stop (see :data:`MIN_CLASS_SAMPLES`)."""
    elapsed = pc() - start
    if elapsed < seconds:
        return False
    return (min(counts.values()) >= MIN_CLASS_SAMPLES
            or elapsed >= 3 * seconds)


def timed_setups(wl: Workload) -> List[float]:
    """Set the program up ``SETUPS`` times; returns the times.  Each
    set-up starts from a collected heap, without the previous instance."""
    times = []
    for _ in range(SETUPS):
        wl.teardown()
        gc.collect()
        t0 = pc()
        wl.setup()
        times.append(pc() - t0)
    return times


def class_latencies(rec: Record, cls: str, normalize: bool,
                    traced: Optional[bool] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Raw and reported latencies (s) of one class's good ops; reported
    ones are divided by the run's probe factor when ``normalize``."""
    raw = np.array([dt for c, dt, ok, tr in rec.ops
                    if c == cls and ok and (traced is None or tr == traced)])
    return raw, (raw / rec.probe.factor() if normalize else raw)


def end_to_end(rec: Record, setup_s: float, rss_mb: float,
               normalize: Tuple[str, ...]
               ) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
    """The end-to-end metrics and the report's per-class detail."""
    metrics: Dict[str, Dict[str, Any]] = {}
    detail: Dict[str, Any] = {}
    busy_norm = busy_raw = 0.0
    n_all = 0
    for cls, prefix in (("main", ""), ("second", "second_")):
        raw, norm = class_latencies(rec, cls, cls in normalize)
        s = stats.summarize(norm)
        r = stats.summarize(raw)
        metrics[f"{prefix}p50_ms"] = {"value": s["p50"] * 1e3, "unit": "ms"}
        metrics[f"{prefix}tail_ms"] = {"value": s["tail"] * 1e3, "unit": "ms"}
        detail[cls] = {"samples": s["n"],
                       "tail_percentile": round(s["tail_pct"], 3),
                       "tail_rank": s["n"] - stats.TAIL_BEYOND,
                       "raw_p50_ms": r["p50"] * 1e3,
                       "raw_tail_ms": r["tail"] * 1e3}
        busy_norm += float(norm.sum())
        busy_raw += float(raw.sum())
        n_all += s["n"]
    metrics["ops_per_s"] = {"value": n_all / busy_norm if busy_norm else 0.0,
                            "unit": "ops/s"}
    # Set-up is CPU work for every workload, so it is always divided by
    # the run's probe factor (over ten-run batches in a fast and a slow
    # period of the machine, the raw median moved 54%, this one 2%).
    metrics["setup_s"] = {"value": setup_s / rec.probe.factor(), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    detail["raw_ops_per_s"] = n_all / busy_raw if busy_raw else 0.0
    detail["probe"] = {"factor": rec.probe.factor(),
                       "samples": len(rec.probe.samples),
                       "ref_ms": stats.PROBE_REF_S * 1e3,
                       "applied_to": list(normalize)}
    return metrics, detail


def per_layer(totals: Dict[str, Dict[str, float]], n_ops: Dict[str, int],
              overhead: Dict[str, float],
              wire_ms: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Mean-per-op layer metrics from the traced segments' totals."""
    out: Dict[str, Dict[str, Any]] = {}
    for cls in CLASSES:
        tot = totals.get(cls, {})
        n = max(n_ops.get(cls, 0), 1)
        for suffix, key, scale, unit in LAYER_METRICS:
            out[f"{cls}.{suffix}"] = {"value": tot.get(key, 0.0) * scale / n,
                                      "unit": unit}
        hits = tot.get("serve.cache.hits", 0.0)
        looks = hits + tot.get("serve.cache.misses", 0.0)
        out[f"{cls}.serve.cache.hit_ratio"] = {
            "value": hits / looks if looks else 0.0, "unit": "ratio"}
        out[f"{cls}.serve.http.wire_ms"] = {"value": wire_ms.get(cls, 0.0),
                                            "unit": "ms"}
        out[f"{cls}.tracing.overhead_pct"] = {"value": overhead.get(cls, 0.0),
                                              "unit": "%"}
    return out


def tracing_overhead(rec: Record) -> Dict[str, float]:
    """Traced over untraced mean latency of each class, in percent."""
    out = {}
    for cls in CLASSES:
        untraced, _ = class_latencies(rec, cls, False, traced=False)
        traced, _ = class_latencies(rec, cls, False, traced=True)
        if untraced.size and traced.size:
            out[cls] = (traced.mean() / untraced.mean() - 1.0) * 100.0
    return out
