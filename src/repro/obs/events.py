"""Structured event log: a bounded, thread-safe JSONL event ring.

Metrics say *how much*, traces say *where the time went*; the event
log says *what happened* — the discrete state changes an operator
greps for when a dashboard looks wrong:

* ``epoch_published`` — a service folded its delta and swapped in a
  new snapshot (epoch, delta size, duration, merged nnz);
* ``rewrite_refused`` — the expression optimizer matched a rule
  structurally but the certification gate vetoed it, with the property
  evidence;
* ``shard_spill`` — a shard build or merge level spilled bytes to
  disk;
* ``cache_invalidation`` — a publication reclaimed superseded query
  cache entries;
* ``expr.kernel`` — an expression plan ran a product on a kernel;
* ``profile.start`` / ``profile.stop`` — a sampling-profiler session
  opened or closed (:mod:`repro.obs.profile`), bracketing the window
  whose samples the resulting profile covers (the stop event carries
  sample count and the self-measured overhead ratio).

Every event is stamped with a monotone sequence number, a UNIX
timestamp, and — when one is active — the current trace/span ids
(:func:`repro.obs.trace.current_ids`), so an event cross-links to the
span tree of the request that caused it.  The ring is bounded
(:class:`EventLog` drops the oldest events past ``capacity`` and
counts the drops), so instrumented library code can emit freely
without unbounded growth.

Surfaces: ``GET /events`` (``?since=SEQ&kind=KIND&limit=N``) and
``repro events [--follow]``; :meth:`EventLog.to_jsonl` renders the
canonical one-object-per-line form.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.obs.trace import current_ids

__all__ = ["Event", "EventLog", "get_event_log", "emit_event"]

#: Default ring capacity — deep enough for a busy service's recent
#: history, bounded enough to never matter for memory.
DEFAULT_CAPACITY = 1024


def _kind_predicate(spec: str):
    """Compile a kind-filter spec into a predicate.

    A spec is a comma-separated list of alternatives; each alternative
    matches exactly, or — with a trailing ``*`` — as a prefix.  So
    ``"profile.*"`` follows every profiler event and
    ``"profile.stop,epoch_published"`` watches exactly two kinds.
    Dotted event families (``profile.start``, ``http.log``) make the
    prefix form the natural "one subsystem, all kinds" filter.
    """
    exact = set()
    prefixes: List[str] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part.endswith("*"):
            prefixes.append(part[:-1])
        else:
            exact.add(part)

    def match(kind: str) -> bool:
        return kind in exact or any(kind.startswith(p)
                                    for p in prefixes)
    return match


class Event:
    """One immutable log entry."""

    __slots__ = ("seq", "kind", "timestamp", "trace_id", "span_id",
                 "fields")

    def __init__(self, seq: int, kind: str, timestamp: float,
                 trace_id: Optional[str], span_id: Optional[str],
                 fields: Dict[str, Any]) -> None:
        self.seq = seq
        self.kind = kind
        self.timestamp = timestamp
        self.trace_id = trace_id
        self.span_id = span_id
        self.fields = fields

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "seq": self.seq,
            "kind": self.kind,
            "timestamp": round(self.timestamp, 6),
        }
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
            doc["span_id"] = self.span_id
        doc.update(self.fields)
        return doc

    def __repr__(self) -> str:   # pragma: no cover - cosmetic
        return f"Event(#{self.seq} {self.kind})"


class EventLog:
    """Bounded, thread-safe ring of structured events.

    ``capacity`` bounds live entries; older events are dropped (and
    counted) as new ones arrive.  Sequence numbers are monotone across
    drops, so ``events(since=seq)`` pagination never replays and a gap
    between a reader's last seq and :meth:`retention`'s ``first_seq``
    is an honest "you missed N events" signal.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: Deque[Event] = deque(maxlen=capacity)
        self._seq = 0
        self._dropped = 0

    # -- writes ---------------------------------------------------------
    def emit(self, kind: str, **fields: Any) -> Event:
        """Append one event; stamps seq, timestamp, and the active
        trace/span ids.  Field values should be JSON-ready scalars."""
        ids = current_ids()
        with self._lock:
            self._seq += 1
            if len(self._events) == self.capacity:
                self._dropped += 1
            event = Event(self._seq, kind, time.time(),
                          ids[0] if ids else None,
                          ids[1] if ids else None, fields)
            self._events.append(event)
        return event

    def clear(self) -> None:
        """Drop every stored event (sequence numbering continues)."""
        with self._lock:
            self._events.clear()

    # -- reads ----------------------------------------------------------
    def events(self, *, since: Optional[int] = None,
               kind: Optional[str] = None,
               limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Stored events as dicts, oldest first.

        ``since`` keeps only events with ``seq > since`` (the follow
        cursor); ``kind`` filters by event kind — exact, a trailing-``*``
        prefix (``profile.*``), or a comma-separated list of either;
        ``limit`` keeps the *newest* N after filtering.
        """
        with self._lock:
            rows = list(self._events)
        if since is not None:
            rows = [e for e in rows if e.seq > since]
        if kind is not None:
            match = _kind_predicate(kind)
            rows = [e for e in rows if match(e.kind)]
        if limit is not None and limit >= 0:
            rows = rows[-limit:] if limit else []
        return [e.to_dict() for e in rows]

    def to_jsonl(self, **filters: Any) -> str:
        """The filtered events as JSON Lines (one object per line)."""
        return "\n".join(json.dumps(doc, sort_keys=True, default=str)
                         for doc in self.events(**filters))

    def retention(self) -> Dict[str, Any]:
        """Ring bounds: capacity, occupancy, seq window, drop count."""
        with self._lock:
            rows = list(self._events)
            seq, dropped = self._seq, self._dropped
        return {
            "capacity": self.capacity,
            "stored": len(rows),
            "first_seq": rows[0].seq if rows else None,
            "last_seq": seq if rows else None,
            "dropped": dropped,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


#: The process-global event log instrumented library code emits to.
_GLOBAL_LOG = EventLog()


def get_event_log() -> EventLog:
    """The process-global event log (what ``GET /events`` serves)."""
    return _GLOBAL_LOG


def emit_event(kind: str, **fields: Any) -> Event:
    """Emit onto the process-global log — the one-liner for library
    instrumentation sites."""
    return _GLOBAL_LOG.emit(kind, **fields)
