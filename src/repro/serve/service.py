"""``AdjacencyService`` — concurrent adjacency queries over epochs.

The read path the paper implies but the library so far lacked: once
``A = Eoutᵀ ⊕.⊗ Ein`` is constructed, downstream consumers ask it
questions — neighbors, degrees, k-hop frontiers (semiring
vector–matrix products, per GraphBLAS' foundations), path lengths,
top-k edges.  This module packages those questions behind one object
that is safe to share across reader threads while edges keep arriving:

* **Sources** — an adjacency TSV-triple file (``repro build`` output),
  an on-disk shard-manifest workdir (executed and ⊕-merged on load), a
  live :class:`~repro.core.streaming.StreamingAdjacencyBuilder`, or any
  in-memory :class:`~repro.arrays.associative.AssociativeArray`.
* **Epoch-based snapshot isolation** — readers answer from an immutable
  :class:`~repro.serve.snapshot.Snapshot`; a writer buffers streaming
  edge deltas in a :class:`StreamingAdjacencyBuilder` and
  :meth:`~AdjacencyService.publish` folds the delta into the next
  epoch's array with the shard ⊕-merge machinery
  (:func:`repro.shard.merge.oplus_union`), then atomically swaps the
  snapshot reference.  Reads never block on ingest; the merge identity
  is exactly the paper's edge-partition decomposition, so the published
  array equals batch construction over all edges ever ingested (gated
  by the same certification as the shard engine).
* **Query caching** — results are memoised in an LRU keyed on
  ``(epoch, query)`` (:class:`~repro.serve.cache.QueryCache`), so the
  cache can never serve a stale epoch; publication invalidates
  superseded entries.  Hit/miss/latency counters surface through the
  ``stats`` query.
* **Graph queries** — ``khop`` runs
  :func:`~repro.graphs.algorithms.semiring_khop` on the snapshot's
  arrays, under a ``kernel`` trace span naming the route it took.
"""

from __future__ import annotations

import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.arrays.associative import AssociativeArray
from repro.arrays.io import iter_tsv_triples
from repro.core.certify import Certification, certify
from repro.core.streaming import StreamingAdjacencyBuilder
from repro.graphs.algorithms import (
    khop_kernel,
    semiring_khop,
    shortest_path_lengths,
)
from repro.obs.events import emit_event
from repro.obs.metrics import LATENCY_BUCKETS_WIDE, MetricsRegistry
from repro.obs.profile import heap_delta
from repro.obs.trace import Tracer, span
from repro.serve.cache import QueryCache
from repro.serve.snapshot import ServeError, Snapshot, UnknownVertexError
from repro.shard.executor import execute_shards
from repro.shard.manifest import ShardError, ShardManifest
from repro.shard.merge import check_merge_safety, merge_spilled, oplus_union
from repro.values.semiring import OpPair, SemiringError, get_op_pair

__all__ = ["QUERY_KINDS", "AdjacencyService"]

#: The query vocabulary of the versioned read API (and the HTTP routes).
QUERY_KINDS = ("neighbors", "degrees", "khop", "path_lengths", "top_k",
               "stats")

_DIRECTIONS = ("out", "in")


class AdjacencyService:
    """Thread-safe adjacency query service with epoch snapshots.

    Parameters
    ----------
    op_pair:
        The ``⊕.⊗`` algebra the adjacency array was (and deltas will
        be) constructed over.  Certified at construction with the same
        gate as the shard merge tree — publication re-associates and
        reorders the edge-key fold, so ``⊕`` must be associative and
        commutative on top of the Theorem II.1 criteria — unless
        ``unsafe_ok``.
    initial:
        Optional initial adjacency array (epoch 0).  Default: empty.
    cache_size:
        LRU capacity of the query cache (0 disables caching).
    max_khop:
        Upper bound on the ``k`` of k-hop queries (default 256) — the
        service answers unauthenticated HTTP traffic, and an unbounded
        ``k`` would let one request pin a thread on ``k`` vector–matrix
        products.
    unsafe_ok:
        Accept non-compliant pairs; epoch merges are then *not*
        guaranteed to equal batch construction.
    certification:
        A precomputed certification for ``op_pair``, reused instead of
        re-running the criteria search (the manifest loader certifies
        once up front).
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` this service's
        instruments (request counts/latency per kind, publication
        timings, epoch/snapshot-age gauges, cache counters) live on.
        Default: a fresh per-service registry — counts never bleed
        across service instances; ``GET /metrics`` renders it together
        with the process-global registry.
    tracer:
        The :class:`~repro.obs.trace.Tracer` that records this
        service's query traces (``GET /trace/<id>``, ``repro trace``).
        Default: a fresh per-service tracer.

    Examples
    --------
    >>> from repro.values.semiring import get_op_pair
    >>> svc = AdjacencyService(get_op_pair("plus_times"))
    >>> svc.add_edge("e1", "alice", "bob", 2.0)
    >>> svc.publish()
    1
    >>> svc.query("neighbors", vertex="alice")["result"]
    {'bob': 2.0}
    """

    def __init__(
        self,
        op_pair: OpPair,
        *,
        initial: Optional[AssociativeArray] = None,
        cache_size: int = 1024,
        max_khop: int = 256,
        unsafe_ok: bool = False,
        certification_seed: int = 0xD4,
        certification: Optional[Certification] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if max_khop < 1:
            raise ServeError(f"max_khop must be >= 1, got {max_khop}")
        self._pair = op_pair
        self._unsafe_ok = unsafe_ok
        self.max_khop = max_khop
        try:
            self._certification = check_merge_safety(
                op_pair, unsafe_ok=unsafe_ok,
                certification=certification,
                certification_seed=certification_seed)
        except ShardError as exc:
            raise ServeError(str(exc)) from None
        if initial is None:
            initial = AssociativeArray({}, zero=op_pair.zero)
        self._snapshot = Snapshot.from_array(initial, epoch=0)
        self.metrics = registry if registry is not None \
            else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self._cache = QueryCache(cache_size, registry=self.metrics)
        self._write_lock = threading.RLock()
        self._delta: Optional[StreamingAdjacencyBuilder] = None
        self._started = time.time()
        #: Span summary of the most recent :meth:`publish` (``None``
        #: until the first); surfaced under ``stats["last_publication"]``
        #: so the cross-link from ``/stats`` to ``/trace/<id>`` exists
        #: without scraping the exposition text.
        self._last_publication: Optional[Dict[str, Any]] = None
        # Per-service memo of alternative-pair certifications for khop.
        self._pair_certs: Dict[str, Certification] = {}
        if self._certification is not None:
            self._pair_certs[op_pair.name] = self._certification
        # -- named instruments (the serve metrics catalog) -------------
        self._queries_total = self.metrics.counter(
            "serve_queries_total", "Queries answered (all kinds)")
        # Wide log buckets: the narrow default saturates below 100 µs,
        # misreporting p99 for sub-millisecond cached hits.
        self._request_seconds = {
            kind: self.metrics.histogram(
                "serve_request_seconds", "Query latency, by kind",
                buckets=LATENCY_BUCKETS_WIDE, kind=kind)
            for kind in QUERY_KINDS}
        self._publications_total = self.metrics.counter(
            "serve_publications_total", "Epoch publications")
        self._publish_seconds = self.metrics.histogram(
            "serve_publish_seconds",
            "Epoch publication latency (delta fold + snapshot swap)")
        self._epoch_gauge = self.metrics.gauge(
            "serve_epoch", "Current published epoch")
        self._epoch_gauge.set(0)
        self.metrics.gauge(
            "serve_snapshot_age_seconds",
            "Seconds since the current snapshot was published",
            fn=lambda: time.time() - self._snapshot.published_at)
        self.metrics.gauge(
            "serve_pending_edges", "Buffered delta edges not yet published",
            fn=lambda: self.pending_edges)
        self.metrics.gauge(
            "serve_uptime_seconds", "Seconds since service construction",
            fn=lambda: time.time() - self._started)

    # ------------------------------------------------------------------
    # Sources
    # ------------------------------------------------------------------
    @classmethod
    def from_tsv(cls, path: Union[str, Path], op_pair: OpPair,
                 **options: Any) -> "AdjacencyService":
        """Serve an adjacency TSV-triple file (``src  dst  value``).

        The natural input is ``repro build`` output; duplicate
        coordinates (e.g. a raw collapsed edge list) are folded through
        the op-pair's ``⊕``, matching streaming semantics.  ``options``
        are constructor keyword arguments.
        """
        array = AssociativeArray.from_triples(
            iter_tsv_triples(path), zero=op_pair.zero,
            combine=op_pair.add)
        return cls(op_pair, initial=array, **options)

    @classmethod
    def from_manifest(
        cls,
        workdir: Union[str, Path],
        op_pair: Optional[OpPair] = None,
        *,
        executor: str = "thread",
        n_workers: int = 4,
        kernel: str = "auto",
        backend: str = "auto",
        **options: Any,
    ) -> "AdjacencyService":
        """Serve a shard-manifest workdir (a kept ``repro build`` set).

        Executes the per-shard construction and the spilled ⊕-merge on
        load (the shard files are left untouched; spills go to a
        temporary directory).  ``op_pair`` defaults to the pair recorded
        in the manifest.
        """
        manifest = ShardManifest.load(workdir)
        if op_pair is None:
            if manifest.op_pair is None:
                raise ServeError(
                    f"manifest in {workdir} records no op-pair; pass one "
                    "explicitly")
            try:
                op_pair = get_op_pair(manifest.op_pair)
            except SemiringError as exc:
                raise ServeError(str(exc)) from None
        unsafe_ok = bool(options.get("unsafe_ok", False))
        try:
            cert = check_merge_safety(op_pair, unsafe_ok=unsafe_ok)
        except ShardError as exc:
            raise ServeError(str(exc)) from None
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as spill:
            products = execute_shards(
                manifest, op_pair, executor=executor, n_workers=n_workers,
                kernel=kernel, backend=backend, workdir=spill)
            adjacency = merge_spilled(
                [p.path for p in products], op_pair, workdir=spill,
                unsafe_ok=True)  # gated above
        return cls(op_pair, initial=adjacency, certification=cert,
                   **options)

    @classmethod
    def from_builder(cls, builder: StreamingAdjacencyBuilder,
                     **options: Any) -> "AdjacencyService":
        """Serve the current state of a live streaming builder.

        The service snapshots ``builder.adjacency()`` (numeric-backed
        when the values qualify) as epoch 0; later edges go through the
        service's own delta/publish cycle.
        """
        return cls(builder.op_pair, initial=builder.adjacency(),
                   **options)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def op_pair(self) -> OpPair:
        """The algebra this service folds deltas over."""
        return self._pair

    @property
    def epoch(self) -> int:
        """The current published epoch."""
        return self._snapshot.epoch

    @property
    def pending_edges(self) -> int:
        """Buffered delta edges not yet published."""
        delta = self._delta
        return delta.num_edges if delta is not None else 0

    @property
    def uptime_seconds(self) -> float:
        """Seconds since the service was constructed."""
        return time.time() - self._started

    @property
    def snapshot_age_seconds(self) -> float:
        """Seconds since the current snapshot was published."""
        return time.time() - self._snapshot.published_at

    def snapshot(self) -> Snapshot:
        """The current immutable snapshot (safe to keep and read)."""
        return self._snapshot

    # ------------------------------------------------------------------
    # Write path: buffer deltas, publish epochs
    # ------------------------------------------------------------------
    def add_edge(self, key: Any, src: Any, dst: Any,
                 out_value: Optional[Any] = None,
                 in_value: Optional[Any] = None) -> None:
        """Buffer one streaming edge for the next epoch.

        Semantics are exactly :meth:`StreamingAdjacencyBuilder.add_edge`
        (``A(src, dst) ⊕= w_out ⊗ w_in``); edge keys must be unique
        within a publication batch.  A refused edge buffers nothing.
        Readers see nothing until :meth:`publish`.
        """
        with self._write_lock:
            self._pending().add_edge(key, src, dst, out_value, in_value)

    def add_edges(self, items: Any) -> int:
        """Buffer ``(key, src, dst[, w_out, w_in])`` tuples; returns the
        number buffered.

        All or nothing, as :meth:`StreamingAdjacencyBuilder.add_edges`:
        a refused edge raises an error naming its index in the batch,
        and none of the batch is buffered.
        """
        with self._write_lock:
            return self._pending().add_edges(items)

    def _pending(self) -> StreamingAdjacencyBuilder:
        """The delta builder of the next epoch (callers hold the write
        lock)."""
        if self._delta is None:
            # The service gate already certified the pair; the builder's
            # own gate is skipped rather than re-run per epoch.
            self._delta = StreamingAdjacencyBuilder(self._pair,
                                                    unsafe_ok=True)
        return self._delta

    def publish(self) -> int:
        """Fold the buffered delta into the next epoch and swap it in.

        The delta builder's adjacency array (numeric-backed when values
        qualify) is ⊕-merged with the current snapshot over the union
        vertex set — the paper's edge-partition identity, via the shard
        merge machinery — and the new :class:`Snapshot` is published by
        a single reference assignment.  In-flight readers keep their
        epoch; new queries see the new one.  Cache entries of
        superseded epochs are reclaimed.  A publish with no buffered
        edges is a no-op returning the current epoch.  While a
        memory-accounting profile session is active
        (:func:`repro.obs.profile.heap_delta`), the heap growth of the
        fold/merge/swap is recorded against ``publish_epoch_<n>``.
        """
        with self._write_lock:
            delta = self._delta
            if delta is None or delta.num_edges == 0:
                return self._snapshot.epoch
            started = time.perf_counter()
            stages: Dict[str, float] = {}
            with self.tracer.span("service.publish",
                                  pending=delta.num_edges) as sp, \
                    self._publish_seconds.time(), \
                    heap_delta(f"publish_epoch_{self._snapshot.epoch + 1}"):
                delta_edges = delta.num_edges
                with span("publish.fold_delta", edges=delta_edges):
                    t0 = time.perf_counter()
                    delta_adj = delta.adjacency()
                    stages["fold_delta"] = time.perf_counter() - t0
                base = self._snapshot
                with span("publish.merge", base_nnz=base.nnz,
                          delta_nnz=delta_adj.nnz):
                    t0 = time.perf_counter()
                    merged = oplus_union(base.adjacency, delta_adj,
                                         self._pair)
                    stages["merge"] = time.perf_counter() - t0
                with span("publish.swap"):
                    t0 = time.perf_counter()
                    snapshot = Snapshot.from_array(merged,
                                                   epoch=base.epoch + 1)
                    self._snapshot = snapshot  # the atomic publication point
                    self._delta = None
                    stages["swap"] = time.perf_counter() - t0
                sp.set_attr("epoch", snapshot.epoch)
                trace_id = sp.trace_id
            self._publications_total.inc()
            self._epoch_gauge.set(snapshot.epoch)
            duration = time.perf_counter() - started
            self._last_publication = {
                "epoch": snapshot.epoch,
                "trace_id": trace_id,
                "duration_seconds": duration,
                "delta_edges": delta_edges,
                "delta_nnz": delta_adj.nnz,
                "merged_nnz": snapshot.nnz,
                "published_at": snapshot.published_at,
                "stages": stages,
            }
            # The publish span has already closed, so the trace id rides
            # along as an explicit field rather than the ambient stamp.
            emit_event("epoch_published", epoch=snapshot.epoch,
                       delta_edges=delta_edges, merged_nnz=snapshot.nnz,
                       duration_seconds=duration, trace_id=trace_id)
        self._cache.invalidate_below(snapshot.epoch)
        return snapshot.epoch

    def discard_pending(self) -> int:
        """Drop the buffered delta; returns the number of edges dropped."""
        with self._write_lock:
            n = self.pending_edges
            self._delta = None
            return n

    # ------------------------------------------------------------------
    # Read path: the versioned query API
    # ------------------------------------------------------------------
    def query(self, kind: str, **params: Any) -> Dict[str, Any]:
        """Answer one query against the current snapshot.

        Returns ``{"epoch": int, "kind": str, "cached": bool,
        "result": ...}`` — the epoch stamps which snapshot answered, so
        clients can reason about read versions.  ``stats`` bypasses the
        cache (it reports on the cache).  Unknown kinds and malformed
        parameters raise :class:`ServeError`; unknown vertices raise
        :class:`UnknownVertexError`.
        """
        latency = self._request_seconds.get(kind)
        if latency is None:
            raise ServeError(f"unknown query kind {kind!r}; known: "
                             f"{', '.join(QUERY_KINDS)}")
        self._queries_total.inc()
        snapshot = self._snapshot  # one atomic read per query
        # Span outermost: the timer's observe() must fire while the
        # span is still current, or the histogram gets no exemplar.
        with self.tracer.span("service.query", kind=kind,
                              epoch=snapshot.epoch) as sp, latency.time():
            if kind == "stats":
                return {"epoch": snapshot.epoch, "kind": kind,
                        "cached": False, "result": self._stats(snapshot)}
            compute, key = self._plan_query(snapshot, kind, params)

            def traced_compute():
                with span("compute", kind=kind):
                    return compute()
            result, cached = self._cache.get_or_compute(key, traced_compute)
            sp.set_attr("cached", cached)
            return {"epoch": snapshot.epoch, "kind": kind,
                    "cached": cached, "result": result}

    # Convenience wrappers (the library-facing spelling of the API).
    def neighbors(self, vertex: Any, *,
                  direction: str = "out") -> Dict[Any, Any]:
        """Stored neighbors of ``vertex`` as ``{neighbor: value}``."""
        return self.query("neighbors", vertex=vertex,
                          direction=direction)["result"]

    def degrees(self, *, direction: str = "out",
                vertex: Any = None) -> Any:
        """Pattern degrees — all vertices, or one when ``vertex``."""
        params = {"direction": direction}
        if vertex is not None:
            params["vertex"] = vertex
        return self.query("degrees", **params)["result"]

    def khop(self, vertex: Any, k: int, *,
             pair: Optional[str] = None) -> Dict[Any, Any]:
        """The ``k``-hop frontier ``x ⊕.⊗ Aᵏ`` from ``vertex``.

        ``pair`` names an alternative certified op-pair to fold under
        (default: the service's own); the seed vector is ``{vertex:
        one}``.
        """
        params: Dict[str, Any] = {"vertex": vertex, "k": k}
        if pair is not None:
            params["pair"] = pair
        return self.query("khop", **params)["result"]

    def path_lengths(self, vertex: Any) -> Dict[Any, float]:
        """Single-source shortest path lengths (``min.+`` relaxation)."""
        return self.query("path_lengths", vertex=vertex)["result"]

    def top_k(self, k: int = 10) -> Any:
        """The ``k`` heaviest adjacency entries as ``[src, dst, value]``."""
        return self.query("top_k", k=k)["result"]

    def stats(self) -> Dict[str, Any]:
        """Service counters (epoch, sizes, cache hit/miss/latency)."""
        return self.query("stats")["result"]

    # ------------------------------------------------------------------
    # Query planning / dispatch
    # ------------------------------------------------------------------
    def _plan_query(
        self, snapshot: Snapshot, kind: str, params: Dict[str, Any],
    ) -> Tuple[Callable[[], Any], Tuple]:
        """Validate ``params`` and return ``(compute, cache_key)``."""
        if kind == "neighbors":
            vertex = self._required(params, "vertex")
            direction = self._direction(params)
            self._no_extra(params, {"vertex", "direction"})
            compute = (lambda: snapshot.neighbors_out(vertex)) \
                if direction == "out" \
                else (lambda: snapshot.neighbors_in(vertex))
            return compute, (snapshot.epoch, kind, direction, vertex)
        if kind == "degrees":
            direction = self._direction(params)
            vertex = params.get("vertex")
            self._no_extra(params, {"vertex", "direction"})

            def compute():
                deg = snapshot.out_degrees() if direction == "out" \
                    else snapshot.in_degrees()
                if vertex is None:
                    return deg
                snapshot.require_vertex(vertex)
                return deg.get(vertex, 0)
            return compute, (snapshot.epoch, kind, direction, vertex)
        if kind == "khop":
            vertex = self._required(params, "vertex")
            k = self._nonneg_int(params, "k")
            if k > self.max_khop:
                raise ServeError(
                    f"k={k} exceeds this service's max_khop "
                    f"({self.max_khop})")
            pair = self._query_pair(params.get("pair"))
            self._no_extra(params, {"vertex", "k", "pair"})

            def compute():
                snapshot.require_vertex(vertex)
                adjacency = snapshot.adjacency
                with span("kernel", kernel=khop_kernel(adjacency, pair),
                          hops=k):
                    return semiring_khop(adjacency, vertex, k, pair)
            return compute, (snapshot.epoch, kind, vertex, k, pair.name)
        if kind == "path_lengths":
            vertex = self._required(params, "vertex")
            self._no_extra(params, {"vertex"})

            def compute():
                snapshot.require_vertex(vertex)
                return shortest_path_lengths(snapshot.adjacency, vertex)
            return compute, (snapshot.epoch, kind, vertex)
        # top_k: query() has already refused unknown kinds.
        k = self._nonneg_int(params, "k", default=10)
        self._no_extra(params, {"k"})
        return (lambda: snapshot.top_k(k)), (snapshot.epoch, kind, k)

    def _stats(self, snapshot: Snapshot) -> Dict[str, Any]:
        return {
            "op_pair": self._pair.name,
            "epoch": snapshot.epoch,
            "vertices": len(snapshot.vertices),
            "nnz": snapshot.nnz,
            "pending_edges": self.pending_edges,
            "publications": int(self._publications_total.value),
            "queries": int(self._queries_total.value),
            "uptime_seconds": time.time() - self._started,
            "snapshot_age_seconds": time.time() - snapshot.published_at,
            "publication_latency": self._publish_seconds.snapshot(),
            "last_publication": self._last_publication,
            "latency": {kind: hist.snapshot()
                        for kind, hist in self._request_seconds.items()},
            "cache": self._cache.stats(),
        }

    # -- parameter validation helpers ----------------------------------
    @staticmethod
    def _required(params: Dict[str, Any], name: str) -> Any:
        if params.get(name) is None:
            raise ServeError(f"query parameter {name!r} is required")
        return params[name]

    @staticmethod
    def _direction(params: Dict[str, Any]) -> str:
        direction = params.get("direction", "out")
        if direction not in _DIRECTIONS:
            raise ServeError(
                f"direction must be one of {_DIRECTIONS}, "
                f"got {direction!r}")
        return direction

    @staticmethod
    def _nonneg_int(params: Dict[str, Any], name: str,
                    default: Optional[int] = None) -> int:
        value = params.get(name, default)
        if value is None:
            raise ServeError(f"query parameter {name!r} is required")
        if isinstance(value, bool) or not isinstance(value, int):
            try:
                value = int(str(value))
            except ValueError:
                raise ServeError(
                    f"query parameter {name!r} must be an integer, "
                    f"got {value!r}") from None
        if value < 0:
            raise ServeError(
                f"query parameter {name!r} must be >= 0, got {value}")
        return value

    @staticmethod
    def _no_extra(params: Dict[str, Any], allowed: set) -> None:
        extra = set(params) - allowed
        if extra:
            raise ServeError(
                f"unknown query parameter(s): {', '.join(sorted(extra))}")

    def _query_pair(self, name: Optional[str]) -> OpPair:
        """Resolve and certification-gate an alternative query pair.

        The same gate as service construction — Theorem II.1 criteria
        plus associative/commutative ``⊕`` — so a pair the service
        would refuse to fold deltas under is also refused as a query
        algebra (unless the service was created ``unsafe_ok``).
        """
        if name is None or name == self._pair.name:
            return self._pair
        try:
            pair = get_op_pair(name)
        except SemiringError as exc:
            raise ServeError(str(exc)) from None
        if self._unsafe_ok:
            return pair
        cert = self._pair_certs.get(name)
        if cert is None:
            cert = certify(pair, seed=0xD4, build_witness=False)
            self._pair_certs[name] = cert
        try:
            check_merge_safety(pair, certification=cert)
        except ShardError as exc:
            raise ServeError(
                f"refusing {name!r} as a query algebra: {exc}") from None
        return pair

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"AdjacencyService({self._pair.name!r}, "
                f"epoch={self.epoch}, vertices="
                f"{len(self._snapshot.vertices)}, nnz={self._snapshot.nnz})")
