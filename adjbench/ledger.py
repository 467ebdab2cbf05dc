"""The layer ledger: where each op's time went, layer by layer.

A traced run wraps the public entry points of the program's layers,
patched at the names their callers look them up by (a module attribute
for a function imported by name, the class attribute for a method), and
restores them afterwards.  Nothing in the program changes.

Every wrapped call is a span: layer, start, end, and the span that
caused it.  A span opened on a thread with no open span of its own (a
shard worker) becomes a child of the op thread's innermost open span.
A layer's self time is its span's duration minus the union of its
children's intervals — overlapping children on other threads count
once — minus the time of leaf calls made directly inside it.

Leaf calls are the observability instruments (counters, histograms,
trace spans, the event ring, the calibration store) and the TSV line
reader: they are too frequent for a span each, so their time and call
count accumulate on the enclosing span.  Spans stay in memory until
the op (or, in the HTTP server, the request) ends, then fold into
per-class totals.  The op's own time that no span or leaf covers is
``unattributed``.
"""

from __future__ import annotations

import gc
import importlib
import os
import threading
import time
from collections import defaultdict
from functools import wraps
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

pc = time.perf_counter

#: Bytes per stored entry of a columnar operand: two int64 coordinates
#: and one float64 value.  ``arrays.matmul.bytes`` is computed from
#: operand and result sizes with it, not measured.
ENTRY_BYTES = 24

KERNEL_LAYERS = ("arrays.matmul.sortmerge", "arrays.matmul.scipy",
                 "arrays.matmul.generic")


class Span:
    __slots__ = ("layer", "t0", "t1", "parent", "children", "leaf",
                 "counts", "info", "deferred")

    def __init__(self, layer: Optional[str], parent: "Optional[Span]",
                 info: Any = None) -> None:
        self.layer = layer
        self.parent = parent
        self.children: List[Span] = []
        self.leaf: Optional[Dict[str, List[float]]] = None
        self.counts: Optional[Dict[str, float]] = None
        self.info = info
        self.deferred = None
        self.t0 = 0.0
        self.t1 = 0.0

    def add_count(self, name: str, value: float) -> None:
        if self.counts is None:
            self.counts = {}
        self.counts[name] = self.counts.get(name, 0.0) + value


def covered(intervals: List[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Ledger:
    """Records spans and leaf calls; folds them into per-class totals.

    In-process workloads bracket each op with :meth:`begin_op` /
    :meth:`end_op`.  Without an op (the HTTP server), a span opened on a
    thread with an empty stack is a request root, classed by
    ``classify(root)`` when it closes (``None`` drops it).
    """

    def __init__(self, classify: Optional[Callable[[Span], Optional[str]]] = None
                 ) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._classify = classify
        self._op: Optional[Span] = None
        self._op_cls: Optional[str] = None
        self._op_stack: Optional[List[Span]] = None
        self.totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.ops: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        self._gc_t0: Dict[int, float] = {}

    # -- span stack ---------------------------------------------------------
    def _stack(self) -> List[Span]:
        loc = self._local
        try:
            return loc.stack
        except AttributeError:
            loc.stack = []
            return loc.stack

    def _enclosing(self) -> Optional[Span]:
        st = self._stack()
        if st:
            return st[-1]
        op_stack = self._op_stack
        if op_stack:
            return op_stack[-1]
        return None

    def open(self, layer: str, info: Any = None) -> Span:
        parent = self._enclosing()
        sp = Span(layer, parent, info)
        self._stack().append(sp)
        sp.t0 = pc()
        return sp

    def close(self, sp: Span) -> None:
        sp.t1 = pc()
        st = self._stack()
        if st and st[-1] is sp:
            st.pop()
        parent = sp.parent
        if parent is not None:
            parent.children.append(sp)
        elif self._classify is not None:
            cls = self._classify(sp)
            if cls is not None:
                self._fold(sp, cls, root_is_op=False)

    def add_leaf(self, layer: str, dt: float, calls: int = 1) -> None:
        target = self._enclosing()
        if target is None:
            return
        if target.leaf is None:
            target.leaf = {}
        acc = target.leaf.get(layer)
        if acc is None:
            target.leaf[layer] = [dt, calls]
        else:
            acc[0] += dt
            acc[1] += calls

    def count(self, name: str, value: float) -> None:
        target = self._enclosing()
        if target is not None:
            target.add_count(name, value)

    # -- ops ------------------------------------------------------------------
    def begin_op(self, cls: str) -> None:
        op = Span(None, None)
        st = self._stack()
        st.append(op)
        self._op, self._op_cls, self._op_stack = op, cls, st
        op.t0 = pc()

    def end_op(self) -> float:
        op = self._op
        op.t1 = pc()
        self._stack().pop()
        self._op = self._op_stack = None
        self._fold(op, self._op_cls, root_is_op=True)
        self.ops[self._op_cls] += 1
        return op.t1 - op.t0

    # -- folding --------------------------------------------------------------
    def _fold(self, root: Span, cls: str, *, root_is_op: bool) -> None:
        with self._lock:
            tot = self.totals[cls]
            if not root_is_op:
                tot["roots"] += 1
                tot["root_s"] += root.t1 - root.t0
            todo = [root]
            while todo:
                s = todo.pop()
                leaf_time = 0.0
                if s.leaf:
                    for layer, (dt, calls) in s.leaf.items():
                        tot[layer] += dt
                        tot[layer + "#calls"] += calls
                        leaf_time += dt
                if s.deferred is not None:
                    extra, args, out = s.deferred
                    s.deferred = None
                    extra(s, args, out)
                own = (s.t1 - s.t0) - leaf_time - covered(
                    [(c.t0, c.t1) for c in s.children], s.t0, s.t1)
                tot[s.layer or "unattributed"] += max(own, 0.0)
                if s.counts:
                    for name, v in s.counts.items():
                        tot[name] += v
                todo.extend(s.children)

    # -- garbage collector ----------------------------------------------------
    def _gc_callback(self, phase: str, info: Dict[str, Any]) -> None:
        tid = threading.get_ident()
        if phase == "start":
            self._gc_t0[tid] = pc()
            return
        t0 = self._gc_t0.pop(tid, None)
        if t0 is None:
            return
        self.count("runtime.gc_s", pc() - t0)
        if info.get("generation") == 2:
            self.count("runtime.gc_full", 1)

    # -- patching -------------------------------------------------------------
    def _set(self, owner: Any, name: str, value: Any) -> None:
        had = name in vars(owner)
        self._patches.append((owner, name, had, vars(owner).get(name)))
        setattr(owner, name, value)

    def install(self, table: List[Tuple[str, str, str, Any]]) -> None:
        """Apply ``(target, kind, layer, extra)`` entries; see
        :data:`PATCHES`."""
        for target, kind, layer, extra in table:
            owner, name = _resolve(target)
            if owner is None:
                continue   # the program no longer has this name
            raw = vars(owner).get(name, getattr(owner, name))
            if isinstance(raw, classmethod):
                fn = _WRAPPERS[kind](self, raw.__func__, layer, extra)
                self._set(owner, name, classmethod(fn))
            else:
                self._set(owner, name, _WRAPPERS[kind](self, raw, layer,
                                                       extra))
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        while self._patches:
            owner, name, had, old = self._patches.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


def _resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` or ``"pkg.mod:attr"`` → (owner, attr)."""
    modname, _, path = target.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None, ""
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, ""
    if not hasattr(owner, name):
        return None, ""
    return owner, name


# ---------------------------------------------------------------------------
# Wrapper kinds
# ---------------------------------------------------------------------------

def _span(ledger: Ledger, fn, layer: str, extra) -> Callable:
    """A span; ``extra(span, args, result)`` runs when the op is folded,
    outside every timed interval (it may inspect operands)."""
    @wraps(fn)
    def wrapper(*args, **kwargs):
        sp = ledger.open(layer, args[0] if args else None)
        try:
            out = fn(*args, **kwargs)
            if extra is not None:
                sp.deferred = (extra, args, out)
            return out
        finally:
            ledger.close(sp)
    return wrapper


def _cache_store(ledger: Ledger, fn, layer: str, extra) -> Callable:
    """``QueryCache.store``: a span plus the LRU evictions it caused."""
    @wraps(fn)
    def wrapper(self, *args, **kwargs):
        before = self.evictions
        sp = ledger.open(layer)
        try:
            return fn(self, *args, **kwargs)
        finally:
            ledger.close(sp)
            sp.add_count("serve.cache.evictions", self.evictions - before)
    return wrapper


def _cached_view(ledger: Ledger, fn, layer: str, slot: str) -> Callable:
    """A span only when the backend's cached view is not built yet."""
    @wraps(fn)
    def wrapper(self):
        if getattr(self, slot) is not None:
            return fn(self)
        sp = ledger.open(layer)
        try:
            return fn(self)
        finally:
            ledger.close(sp)
    return wrapper


def _leaf(ledger: Ledger, fn, layer: str, extra) -> Callable:
    local = ledger._local

    @wraps(fn)
    def wrapper(*args, **kwargs):
        if getattr(local, "in_leaf", False):
            return fn(*args, **kwargs)
        local.in_leaf = True
        t0 = pc()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = pc() - t0
            local.in_leaf = False
            ledger.add_leaf(layer, dt)
    return wrapper


def _reader(ledger: Ledger, fn, layer: str, extra) -> Callable:
    """A line-reading generator: each ``next`` is leaf time of the
    consumer's span; the file's size counts as ``arrays.io.bytes``."""
    @wraps(fn)
    def wrapper(path, *args, **kwargs):
        try:
            ledger.count("arrays.io.bytes", os.path.getsize(path))
        except OSError:
            pass
        it = fn(path, *args, **kwargs)
        while True:
            t0 = pc()
            try:
                item = next(it)
            except StopIteration:
                ledger.add_leaf(layer, pc() - t0)
                return
            ledger.add_leaf(layer, pc() - t0)
            yield item
    return wrapper


_WRAPPERS = {"span": _span, "view": _cached_view, "leaf": _leaf,
             "reader": _reader, "store": _cache_store}


# ---------------------------------------------------------------------------
# Counts attached after a wrapped call returns
# ---------------------------------------------------------------------------

def _numeric(array) -> Any:
    """The array's columnar backend if it already has one (never
    promotes: the ledger must not change program state)."""
    be = getattr(array, "_backend", None)
    if be is not None and getattr(be, "kind", None) == "numeric":
        return be
    cache = getattr(array, "_cache", None) or {}
    nb = cache.get("numeric_backend")
    return nb if getattr(nb, "kind", None) == "numeric" else None


def _inner_counts(array, axis: str) -> np.ndarray:
    nb = _numeric(array)
    n = len(array.col_keys) if axis == "cols" else len(array.row_keys)
    if nb is not None:
        return np.bincount(nb.cols if axis == "cols" else nb.rows,
                           minlength=n)
    pos = (array.col_keys if axis == "cols" else array.row_keys).position_map()
    out = np.zeros(n, dtype=np.int64)
    for r, c in array.to_dict():
        out[pos[c if axis == "cols" else r]] += 1
    return out


def _kernel_counts(sp: Span, a, b, result, a_axis: str) -> None:
    """Calls, multiplicative terms and computed bytes of one product
    ``op(a) ⊕.⊗ b`` whose inner dimension is ``a``'s ``a_axis``.
    Products nested inside another kernel span are not counted twice."""
    if sp.parent is not None and sp.parent.layer in KERNEL_LAYERS:
        return
    terms = int(_inner_counts(a, a_axis) @ _inner_counts(b, "rows"))
    sp.add_count(sp.layer.replace("arrays.matmul.", "arrays.matmul.calls."), 1)
    sp.add_count("arrays.matmul.terms", terms)
    sp.add_count("arrays.matmul.bytes",
                 ENTRY_BYTES * (a.nnz + b.nnz + result.nnz))


def _product(sp: Span, args, out) -> None:
    _kernel_counts(sp, args[0], args[1], out, "cols")


def _fused(sp: Span, args, out) -> None:
    # (node, ne, nf, e, f) or (e, f, op_pair): Eᵀ·F, inner = E's rows.
    e, f = (args[3], args[4]) if len(args) == 5 else (args[0], args[1])
    _kernel_counts(sp, e, f, out, "rows")


def _coo_product(sp: Span, args, out) -> None:
    if sp.parent is not None and sp.parent.layer in KERNEL_LAYERS:
        return
    a_inner, b_inner = args[0], args[3]
    n = int(max(a_inner.max(initial=-1), b_inner.max(initial=-1))) + 1
    terms = int(np.bincount(a_inner, minlength=n)
                @ np.bincount(b_inner, minlength=n))
    sp.add_count("arrays.matmul.calls.sortmerge", 1)
    sp.add_count("arrays.matmul.terms", terms)
    sp.add_count("arrays.matmul.bytes",
                 ENTRY_BYTES * (a_inner.size + b_inner.size + out[0].size))


def _base_nnz(sp: Span, args, out) -> None:
    sp.add_count("shard.merge.base_nnz", args[0].nnz)


def _shard_wait(sp: Span, args, out) -> None:
    # Every shard is submitted when execute_shards opens its span; the
    # gap to the task's own start is time spent waiting for a worker.
    if sp.parent is not None:
        sp.add_count("shard.wait_s", max(sp.t0 - sp.parent.t0, 0.0))


def _written_bytes(sp: Span, args, out) -> None:
    try:
        sp.add_count("arrays.io.bytes", os.path.getsize(args[1]))
    except (OSError, IndexError):
        pass


def _cache_lookup(sp: Span, args, out) -> None:
    sp.add_count("serve.cache.hits" if out[0] else "serve.cache.misses", 1)


def _invalidated(sp: Span, args, out) -> None:
    sp.add_count("serve.cache.invalidated", out)


#: ``(target, kind, layer, extra)``.  ``target`` names the attribute the
#: callers look up: ``module:function`` for functions imported by name,
#: ``module:Class.method`` for methods.  Entries whose target no longer
#: exists are skipped, so the ledger survives refactors of the program
#: (a vanished layer then reads zero instead of failing the run).
PATCHES: List[Tuple[str, str, str, Any]] = [
    # kernels
    ("repro.arrays.matmul:multiply_generic", "span", "arrays.matmul.generic", _product),
    ("repro.arrays.matmul:multiply_sortmerge", "span", "arrays.matmul.sortmerge", _product),
    ("repro.arrays.matmul:sortmerge_coo", "span", "arrays.matmul.sortmerge", _coo_product),
    ("repro.arrays.sparse_backend:_scipy_plus_times", "span", "arrays.matmul.scipy", _product),
    ("repro.expr.execute:_fused_scipy", "span", "arrays.matmul.scipy", _fused),
    ("repro.expr.execute:_fused_sortmerge", "span", "arrays.matmul.sortmerge", _fused),
    ("repro.expr.execute:_fused_generic", "span", "arrays.matmul.generic", _fused),
    # storage
    ("repro.arrays.associative:AssociativeArray.transpose", "span", "arrays.associative.transpose", None),
    ("repro.arrays.backend:NumericBackend.csr", "view", "arrays.backend.index", "_csr"),
    ("repro.arrays.backend:NumericBackend.csc", "view", "arrays.backend.index", "_csc"),
    ("repro.arrays.associative:dict_to_numeric", "span", "arrays.backend.index", None),
    ("repro.core.streaming:dict_to_numeric", "span", "arrays.backend.index", None),
    # TSV io
    ("repro.arrays.io:iter_tsv_triples", "reader", "arrays.io.read", None),
    ("repro.shard.partition:iter_tsv_triples", "reader", "arrays.io.read", None),
    ("repro.shard.executor:iter_tsv_triples", "reader", "arrays.io.read", None),
    ("repro.serve.service:iter_tsv_triples", "reader", "arrays.io.read", None),
    ("repro.arrays.io:write_tsv_triples", "span", "arrays.io.write", _written_bytes),
    # sharded construction
    ("repro.shard.plan:ShardedAdjacencyPlan.partition", "span", "shard.partition", None),
    ("repro.shard.plan:execute_shards", "span", "shard.execute", None),
    ("repro.shard.executor:_shard_task", "span", "shard.execute", _shard_wait),
    ("repro.shard.plan:merge_spilled", "span", "shard.merge", None),
    ("repro.shard.merge:oplus_union", "span", "shard.merge.oplus_union", _base_nnz),
    ("repro.serve.service:oplus_union", "span", "shard.merge.oplus_union", _base_nnz),
    # streaming deltas and publication
    ("repro.core.streaming:StreamingAdjacencyBuilder.add_edge", "span", "core.streaming.delta", None),
    ("repro.core.streaming:StreamingAdjacencyBuilder.adjacency", "span", "core.streaming.delta", None),
    ("repro.serve.service:AdjacencyService.publish", "span", "serve.service.publish", None),
    ("repro.serve.snapshot:Snapshot.from_array", "span", "serve.snapshot.from_array", None),
    # service, cache, snapshot reads
    ("repro.serve.service:AdjacencyService.query", "span", "serve.service", None),
    ("repro.serve.service:AdjacencyService.from_tsv", "span", "serve.service", None),
    ("repro.serve.service:AdjacencyService.add_edges", "span", "serve.service", None),
    ("repro.serve.cache:QueryCache.get_or_compute", "span", "serve.cache", None),
    ("repro.serve.cache:QueryCache.lookup", "span", "serve.cache", _cache_lookup),
    ("repro.serve.cache:QueryCache.store", "store", "serve.cache", None),
    ("repro.serve.cache:QueryCache.invalidate_below", "span", "serve.cache", _invalidated),
    ("repro.serve.snapshot:Snapshot.neighbors_out", "span", "serve.snapshot.read", None),
    ("repro.serve.snapshot:Snapshot.neighbors_in", "span", "serve.snapshot.read", None),
    ("repro.serve.snapshot:Snapshot.out_degrees", "span", "serve.snapshot.read", None),
    ("repro.serve.snapshot:Snapshot.in_degrees", "span", "serve.snapshot.read", None),
    # expression engine (the k-hop route)
    ("repro.serve.service:khop_frontier", "span", "expr.execute", None),
    ("repro.expr.execute:plan", "span", "expr.plan", None),
    # HTTP front end (server process)
    ("repro.serve.http:_Handler.parse_request", "span", "serve.http.parse", None),
    ("repro.serve.http:_Handler._route", "span", "serve.http.parse", None),
    ("repro.serve.http:_Handler._body", "span", "serve.http.parse", None),
    ("repro.serve.http:_Handler.do_GET", "span", "serve.http.handler", None),
    ("repro.serve.http:_Handler.do_POST", "span", "serve.http.handler", None),
    ("repro.serve.http:_Handler._send", "span", "serve.http.send", None),
    # observability instruments
    ("repro.obs.metrics:Counter.inc", "leaf", "obs.instrument", None),
    ("repro.obs.metrics:Gauge.set", "leaf", "obs.instrument", None),
    ("repro.obs.metrics:Gauge.inc", "leaf", "obs.instrument", None),
    ("repro.obs.metrics:Gauge.dec", "leaf", "obs.instrument", None),
    ("repro.obs.metrics:Histogram.observe", "leaf", "obs.instrument", None),
    ("repro.obs.metrics:_HistogramTimer.__enter__", "leaf", "obs.instrument", None),
    ("repro.obs.metrics:_HistogramTimer.__exit__", "leaf", "obs.instrument", None),
    ("repro.obs.metrics:MetricsRegistry.counter", "leaf", "obs.instrument", None),
    ("repro.obs.metrics:MetricsRegistry.gauge", "leaf", "obs.instrument", None),
    ("repro.obs.metrics:MetricsRegistry.histogram", "leaf", "obs.instrument", None),
    ("repro.obs.trace:Tracer.span", "leaf", "obs.instrument", None),
    ("repro.obs.trace:Span.__enter__", "leaf", "obs.instrument", None),
    ("repro.obs.trace:Span.__exit__", "leaf", "obs.instrument", None),
    ("repro.obs.trace:Span.set_attr", "leaf", "obs.instrument", None),
    ("repro.obs.trace:_NullSpan.__enter__", "leaf", "obs.instrument", None),
    ("repro.obs.trace:_NullSpan.__exit__", "leaf", "obs.instrument", None),
    ("repro.serve.service:span", "leaf", "obs.instrument", None),
    ("repro.shard.plan:span", "leaf", "obs.instrument", None),
    ("repro.shard.executor:span", "leaf", "obs.instrument", None),
    ("repro.shard.merge:span", "leaf", "obs.instrument", None),
    ("repro.expr.execute:span", "leaf", "obs.instrument", None),
    ("repro.obs.events:EventLog.emit", "leaf", "obs.instrument", None),
    ("repro.obs.calibration:CalibrationStore.record", "leaf", "obs.instrument", None),
    ("repro.obs.calibration:CalibrationStore.maybe_save", "leaf", "obs.instrument", None),
]
