"""Construct per-shard adjacency arrays from an on-disk shard set.

Each shard is independent work: load its incidence pair, compute
``Aₛ = (Eout|Kₛ)ᵀ ⊕.⊗ (Ein|Kₛ)`` with
:func:`repro.core.construction.adjacency_array`, and spill the result to
disk as a pickle.  Three executors:

* ``executor="serial"`` — in-process loop (the plumbing without
  concurrency);
* ``executor="thread"`` — a thread pool (NumPy kernels release the GIL);
* ``executor="process"`` — a process pool; op-pairs travel *by registry
  name* via :mod:`repro.values.shipping`.

Results are always spilled (never returned through the pool) so peak
memory stays one shard's working set per worker — the point of the
subsystem.  The merge tree (:mod:`repro.shard.merge`) consumes the spill
files pairwise.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Set, Tuple, Union

from repro.arrays.associative import AssociativeArray
from repro.arrays.backend import BACKEND_KINDS
from repro.arrays.io import iter_tsv_triples
from repro.arrays.keys import KeySet
from repro.core.construction import adjacency_array
from repro.obs.events import emit_event
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.shard.manifest import ShardError, ShardInfo, ShardManifest
from repro.values.semiring import OpPair, SemiringError
from repro.values.shipping import registered_name, resolve_registered_pair

PairOrName = Union[OpPair, str]

__all__ = ["ShardProduct", "EXECUTORS", "load_shard", "execute_shards"]

EXECUTORS = ("serial", "thread", "process")


@dataclass(frozen=True)
class ShardProduct:
    """One shard's spilled adjacency result.

    ``seconds`` (worker build wall time) and ``bytes`` (spill file
    size) default to zero so pre-observability constructions keep
    working.
    """

    index: int
    path: Path
    nnz: int
    seconds: float = 0.0
    bytes: int = 0


def _iter_entries(path: Path, fmt: str):
    if fmt == "tsv":
        yield from iter_tsv_triples(path)
    else:
        with path.open("rb") as fh:
            while True:
                try:
                    yield pickle.load(fh)
                except EOFError:
                    return


def load_shard(
    manifest: ShardManifest,
    info: ShardInfo,
    *,
    zero: Any = 0,
    backend: str = "auto",
) -> Tuple[AssociativeArray, AssociativeArray]:
    """Load one shard's ``(Eout|Kₛ, Ein|Kₛ)`` incidence pair.

    Row keys are the union of edge keys observed on either side (both
    arrays share them, as Definition I.4 requires); column keys are the
    observed vertices of each side; ``zero`` should be the op-pair's.
    ``backend`` picks the arrays' storage backend
    (:mod:`repro.arrays.backend`).
    """
    eout_path, ein_path = manifest.shard_paths(info)
    out_triples = list(_iter_entries(eout_path, manifest.format))
    in_triples = list(_iter_entries(ein_path, manifest.format))
    keys: Set[Any] = {k for k, _v, _w in out_triples}
    keys.update(k for k, _v, _w in in_triples)
    row_keys = KeySet(keys)
    eout = AssociativeArray.from_triples(
        out_triples, row_keys=row_keys,
        col_keys={v for _k, v, _w in out_triples}, zero=zero,
        backend=backend)
    ein = AssociativeArray.from_triples(
        in_triples, row_keys=row_keys,
        col_keys={v for _k, v, _w in in_triples}, zero=zero,
        backend=backend)
    return eout, ein


def _shard_task(
    manifest: ShardManifest,
    info: ShardInfo,
    pair: PairOrName,
    mode: str,
    kernel: str,
    backend: str,
    out_path: str,
) -> Tuple[int, str, int, float, int]:
    """Worker body (module-level so process pools can pickle it).

    ``pair`` is a registry *name* when crossing a process boundary
    (op-pairs may not pickle) and the in-memory object otherwise.
    Returns ``(index, path, nnz, build_seconds, spilled_bytes)`` — the
    timing travels back as plain data because process workers cannot
    share the coordinator's metrics registry.
    """
    started = time.perf_counter()
    if isinstance(pair, str):
        pair = resolve_registered_pair(pair)
    eout, ein = load_shard(manifest, info, zero=pair.zero, backend=backend)
    adj = adjacency_array(eout, ein, pair, mode=mode, kernel=kernel)
    if backend != "auto":
        # Spilled shard results carry the requested storage backend, so
        # the ⊕-merge tree sees (and keeps) the chosen representation.
        adj = adj.with_backend(backend)
    with open(out_path, "wb") as fh:
        pickle.dump(adj, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return (info.index, out_path, adj.nnz,
            time.perf_counter() - started, os.path.getsize(out_path))


def execute_shards(
    manifest: ShardManifest,
    op_pair: OpPair,
    *,
    executor: str = "thread",
    n_workers: int = 4,
    mode: str = "sparse",
    kernel: str = "auto",
    backend: str = "auto",
    workdir: Optional[Union[str, Path]] = None,
) -> List[ShardProduct]:
    """Build every shard's adjacency array, spilled to ``workdir``.

    ``workdir`` defaults to the manifest's own directory.  Returns the
    spill records in shard-index order.  Only ``executor="process"``
    requires a *registered* op-pair (it ships the pair by name);
    serial/thread execution stays in-process and accepts any pair.
    ``backend`` pins the per-shard array storage (``"dict"`` forces the
    generic paths end to end; ``"numeric"`` compiles the columnar form
    at ingest).
    """
    if executor not in EXECUTORS:
        raise ShardError(f"unknown executor {executor!r}; use {EXECUTORS}")
    if n_workers < 1:
        raise ShardError("n_workers must be >= 1")
    if backend not in BACKEND_KINDS:
        raise ShardError(
            f"unknown backend {backend!r}; use one of {BACKEND_KINDS}")
    shipped: PairOrName = op_pair
    if executor == "process":
        try:
            shipped = registered_name(op_pair)
        except SemiringError as exc:
            raise ShardError(str(exc)) from None
    root = Path(workdir) if workdir is not None else manifest.root
    if root is None:
        raise ShardError("no workdir and the manifest has no root directory")
    root.mkdir(parents=True, exist_ok=True)
    tasks = [(info, str(root / f"adj_{info.index:05d}.pkl"))
             for info in manifest.shards]
    registry = get_registry()
    queue_depth = registry.gauge(
        "shard_executor_queue_depth",
        "Shard build tasks submitted but not yet finished")
    with span("shard.execute", shards=len(tasks), executor=executor):
        if executor == "serial" or n_workers == 1 or len(tasks) <= 1:
            raw = []
            for info, out in tasks:
                queue_depth.inc()
                try:
                    raw.append(_shard_task(manifest, info, op_pair, mode,
                                           kernel, backend, out))
                finally:
                    queue_depth.dec()
        else:
            pool_cls = ThreadPoolExecutor if executor == "thread" \
                else ProcessPoolExecutor
            with pool_cls(max_workers=min(n_workers, len(tasks))) as pool:
                futures = []
                for info, out in tasks:
                    queue_depth.inc()
                    fut = pool.submit(
                        _shard_task, manifest, info,
                        shipped if executor == "process" else op_pair,
                        mode, kernel, backend, out)
                    fut.add_done_callback(lambda _f: queue_depth.dec())
                    futures.append(fut)
                raw = [f.result() for f in futures]
    build_seconds = registry.histogram(
        "shard_build_seconds", "Per-shard adjacency build wall time")
    spilled = registry.counter(
        "shard_spill_bytes_total", "Bytes spilled by shard builds")
    for _i, _p, _nnz, seconds, nbytes in raw:
        build_seconds.observe(seconds)
        spilled.inc(nbytes)
    emit_event("shard_spill", stage="build", shards=len(raw),
               bytes=sum(nbytes for *_rest, nbytes in raw),
               executor=executor)
    return [ShardProduct(index=i, path=Path(p), nnz=nnz, seconds=secs,
                         bytes=nbytes)
            for i, p, nnz, secs, nbytes in sorted(raw)]
