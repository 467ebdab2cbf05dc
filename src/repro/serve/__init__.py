"""Concurrent adjacency query service with snapshot isolation.

The read path of the system: adjacency arrays exist so downstream
queries — neighbors, degrees, k-hop frontiers via semiring
vector–matrix products (:func:`repro.graphs.algorithms.semiring_khop`),
path lengths, top-k edges — can run against them.  This package serves
those queries under heavy concurrent traffic while edges keep
streaming in:

* :mod:`repro.serve.snapshot` — :class:`Snapshot`, the immutable
  epoch-stamped read view (square adjacency array + per-snapshot
  CSR/CSC-backed query indexes);
* :mod:`repro.serve.cache` — :class:`QueryCache`, the LRU keyed on
  ``(epoch, query)`` with hit/miss/latency counters (structurally
  incapable of serving a stale epoch);
* :mod:`repro.serve.service` — :class:`AdjacencyService`, the versioned
  read API plus the delta-buffer → ⊕-merge → atomic-publish write path
  (certification-gated like the shard engine it reuses);
* :mod:`repro.serve.http` — the stdlib ``ThreadingHTTPServer`` JSON
  front end behind ``repro serve`` / ``repro query``.
"""

from repro.serve.cache import QueryCache
from repro.serve.http import DEFAULT_PORT, build_server, serve_forever
from repro.serve.service import QUERY_KINDS, AdjacencyService
from repro.serve.snapshot import ServeError, Snapshot, UnknownVertexError

__all__ = [
    "AdjacencyService",
    "DEFAULT_PORT",
    "QUERY_KINDS",
    "QueryCache",
    "ServeError",
    "Snapshot",
    "UnknownVertexError",
    "build_server",
    "serve_forever",
]
