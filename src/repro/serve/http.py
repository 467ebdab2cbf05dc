"""HTTP JSON front end on stdlib ``ThreadingHTTPServer``.

The golden path for serving without importing library internals:

* ``GET /health`` — liveness plus the current epoch;
* ``GET /healthz`` — readiness for load balancers: current epoch,
  snapshot age, uptime, pending delta edges;
* ``GET /stats`` — the service's ``stats`` query (cache counters,
  per-kind latency histograms etc.);
* ``GET /metrics`` — Prometheus text exposition of the service's
  per-instance registry *plus* the process-global library registry
  (expression-engine and shard instruments);
* ``GET /trace`` / ``GET /trace/<id>`` — recent trace index / one
  trace tree as JSON (see :mod:`repro.obs.trace`); a miss returns a
  structured 404 carrying the ring's retention bounds;
* ``GET /events?since=SEQ&kind=KIND&limit=N`` — the process-global
  structured event log (:mod:`repro.obs.events`) plus its retention
  window;
* ``GET /query/<kind>?vertex=...&direction=...&k=...&pair=...`` — the
  versioned read API (``kind`` as in
  :data:`repro.serve.service.QUERY_KINDS`);
* ``GET /profile`` — a live dump of the active sampling-profiler
  session (:mod:`repro.obs.profile`): hottest functions, per-span CPU,
  self-measured overhead ratio.  With no session active this is a
  *structured 409* naming the start verb — idle is a client state
  mismatch, not a server fault;
* ``GET /profile/flame`` — the flamegraph as self-contained HTML
  (live session if one is running, else the newest finished profile
  in the ring);
* ``POST /profile/start`` / ``POST /profile/stop`` — manage the
  process-wide session (body ``{"hz": 97, "memory": false}``);
* ``POST /edges`` — buffer streaming edge deltas (JSON body
  ``{"edges": [[key, src, dst], [key, src, dst, w_out, w_in], ...],
  "publish": false}``);
* ``POST /publish`` — fold the buffered delta into the next epoch.

``ThreadingHTTPServer`` handles each request on its own thread, which
is exactly what the snapshot-isolation design is for: every request
reads one immutable snapshot reference and never blocks on ingest.
Each query request opens a root span on the service's tracer, so the
whole handler → cache → kernel path of one HTTP request is a single
trace tree.

Errors come back as JSON bodies ``{"error": ..., "status": ...}`` —
400 for malformed requests (a refused edge batch names the edge's index
and the bad field), 404 for unknown routes/kinds/vertices, and 500, plus
an ``http.error`` event on the ring, for any other handler exception.
"""

from __future__ import annotations

import json
import math
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.obs.events import emit_event, get_event_log
from repro.obs.metrics import (LATENCY_BUCKETS_WIDE, get_registry,
                               install_process_gauges, render_prometheus)
from repro.obs.profile import (DEFAULT_HZ, START_HINT, ProfileError,
                               active_session, get_profile_ring,
                               start_profile, stop_profile)
from repro.obs.trace import TraceNotFound
from repro.serve.service import QUERY_KINDS, AdjacencyService
from repro.serve.snapshot import ServeError, UnknownVertexError

__all__ = ["build_server", "serve_forever"]

#: Default TCP port of ``repro serve`` (spells "adj" on a phone pad).
DEFAULT_PORT = 8631

#: Largest accepted request body (1 MiB) — a backstop, not a quota.
_MAX_BODY = 1 << 20


def jsonable(value: Any) -> Any:
    """``value`` with non-finite floats replaced by strings.

    Strict JSON has no ``Infinity``/``NaN`` literals; ``min.+`` zeros
    (+∞) and friends travel as ``"inf"``/``"-inf"``/``"nan"`` instead
    so every client-side JSON parser accepts the body.
    """
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {_key(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def _key(key: Any) -> Any:
    """JSON object keys must be strings; non-string vertices stringify."""
    return key if isinstance(key, str) else str(key)


def _coerce_vertex(service: AdjacencyService, text: str) -> Any:
    """Map a query-string vertex back into the snapshot's key domain.

    TSV-sourced services have string vertices, so the text matches
    directly; services over int/float vertex keys get a best-effort
    numeric coercion (the string form is tried first, so a graph with
    the *string* key ``"7"`` is never misrouted).
    """
    vertices = service.snapshot().vertices
    if text in vertices:
        return text
    for cast in (int, float):
        try:
            value = cast(text)
        except ValueError:
            continue
        if value in vertices:
            return value
    return text  # unknown either way; the service reports 404


class _Handler(BaseHTTPRequestHandler):
    """One request; the service rides on the handler class."""

    service: AdjacencyService  # injected by build_server
    quiet: bool = True
    log_events: bool = False
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: N802
        """Per-request logging, off by default.

        ``BaseHTTPRequestHandler`` prints every request to stderr —
        untenable under generated load (an open-loop sweep at 1000
        req/s would emit 1000 stderr lines a second).  With
        ``log_events`` the line goes onto the bounded structured event
        ring instead (kind ``http.log``, a debug-level firehose you
        filter for explicitly: ``repro events --kind http.log``);
        with ``quiet=False`` it still reaches stderr for interactive
        runs.
        """
        if self.log_events:
            emit_event("http.log", client=self.address_string(),
                       message=fmt % args)
        elif not self.quiet:  # pragma: no cover - opt-in logging
            super().log_message(fmt, *args)

    def _send(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(jsonable(payload)).encode("utf-8")
        self._send_bytes(status, body, "application/json")

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; version=0.0.4") -> None:
        self._send_bytes(status, text.encode("utf-8"), content_type)

    def _send_bytes(self, status: int, body: bytes,
                    content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send(status, {"error": message, "status": status})

    def _fault(self, exc: Exception) -> None:
        """Answer an unexpected handler exception with a JSON 500 and
        an ``http.error`` event carrying its traceback, not a dropped
        connection."""
        error = f"{type(exc).__name__}: {exc}"
        emit_event("http.error", method=self.command, path=self.path,
                   error=error, traceback=traceback.format_exc())
        self._error(500, f"internal error: {error}")

    def _body(self) -> Optional[Dict[str, Any]]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._error(400, "malformed Content-Length")
            return None
        if length < 0 or length > _MAX_BODY:
            self._error(400, f"body must be 0..{_MAX_BODY} bytes")
            return None
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._error(400, f"malformed JSON body: {exc}")
            return None
        if not isinstance(doc, dict):
            self._error(400, "JSON body must be an object")
            return None
        return doc

    def _route(self) -> Tuple[str, Dict[str, str]]:
        split = urlsplit(self.path)
        return split.path.rstrip("/") or "/", dict(parse_qsl(split.query))

    def _observe(self, path: str, method: str, started: float) -> None:
        """Per-route HTTP instruments on the service registry.

        The route label is the first path segment only (``/query/khop``
        → ``query``) — query kinds, trace ids, and vertices never leak
        into label cardinality.
        """
        route = path.lstrip("/").split("/", 1)[0] or "root"
        metrics = self.service.metrics
        metrics.counter("http_requests_total", "HTTP requests served",
                        route=route, method=method).inc()
        metrics.histogram("http_request_seconds",
                          "Wall time spent in HTTP handlers",
                          buckets=LATENCY_BUCKETS_WIDE,
                          route=route).observe(time.perf_counter() - started)

    # -- GET -----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802
        path, params = self._route()
        started = time.perf_counter()
        try:
            if path == "/health":
                self._send(200, {"status": "ok",
                                 "epoch": self.service.epoch})
                return
            if path == "/healthz":
                self._send(200, self._healthz())
                return
            if path == "/metrics":
                self._send_text(200, render_prometheus(
                    self.service.metrics, get_registry()))
                return
            if path == "/trace" or path.startswith("/trace/"):
                self._do_trace(path[len("/trace"):].lstrip("/"))
                return
            if path == "/events":
                self._do_events(params)
                return
            if path == "/stats":
                self._send(200, self.service.query("stats"))
                return
            if path == "/profile":
                self._do_profile(params)
                return
            if path == "/profile/flame":
                self._do_profile_flame(params)
                return
            if path.startswith("/query/"):
                self._do_query(path[len("/query/"):], params)
                return
            self._error(404, f"unknown path {path!r}")
        except UnknownVertexError as exc:
            self._error(404, str(exc))
        except ServeError as exc:
            self._error(400, str(exc))
        except Exception as exc:
            self._fault(exc)
        finally:
            self._observe(path, "GET", started)

    def _healthz(self) -> Dict[str, Any]:
        """Readiness payload: freshness, uptime, ingest backlog."""
        service = self.service
        return {
            "status": "ok",
            "epoch": service.epoch,
            "snapshot_age_seconds": service.snapshot_age_seconds,
            "uptime_seconds": service.uptime_seconds,
            "pending_edges": service.pending_edges,
        }

    def _do_trace(self, trace_id: str) -> None:
        tracer = self.service.tracer
        if not trace_id:
            self._send(200, {"traces": tracer.traces()})
            return
        try:
            root = tracer.lookup(trace_id)
        except TraceNotFound as exc:
            # Structured miss: the requested id plus the ring's bounds,
            # so a client can tell "never existed" from "evicted".
            self._send(404, {"error": str(exc), "status": 404,
                             "trace_id": exc.trace_id,
                             "retention": exc.retention})
            return
        self._send(200, root.to_dict())

    def _do_events(self, params: Dict[str, str]) -> None:
        log = get_event_log()
        filters: Dict[str, Any] = {}
        for name in ("since", "limit"):
            if name in params:
                try:
                    filters[name] = int(params[name])
                except ValueError:
                    self._error(
                        400, f"{name} must be an integer, "
                        f"got {params[name]!r}")
                    return
        if "kind" in params:
            filters["kind"] = params["kind"]
        extra = set(params) - {"since", "limit", "kind"}
        if extra:
            self._error(400, "unknown event parameter(s): "
                        + ", ".join(sorted(extra)))
            return
        self._send(200, {"events": log.events(**filters),
                         "retention": log.retention()})

    def _do_profile(self, params: Dict[str, str]) -> None:
        session = active_session()
        if session is None:
            # 409, not 500: no-session is a client/state mismatch, and
            # the body names the verb that fixes it plus what the ring
            # still holds.
            self._send(409, {"error": START_HINT, "status": 409,
                             "profiles": get_profile_ring().profiles(),
                             "retention": get_profile_ring().retention()})
            return
        top = 20
        if "top" in params:
            try:
                top = max(1, int(params["top"]))
            except ValueError:
                self._error(400, f"top must be an integer, "
                            f"got {params['top']!r}")
                return
        self._send(200, session.dump(top=top,
                                     stacks=params.get("stacks") == "1"))

    def _do_profile_flame(self, params: Dict[str, str]) -> None:
        session = active_session()
        if session is not None:
            profile = session.snapshot_profile()
        else:
            ring = get_profile_ring()
            profile = ring.get(params["id"]) if "id" in params \
                else ring.latest()
            if profile is None:
                self._send(409, {"error": START_HINT, "status": 409,
                                 "retention": ring.retention()})
                return
        self._send_text(200, profile.flamegraph_html(),
                        "text/html; charset=utf-8")

    def _do_query(self, kind: str, params: Dict[str, str]) -> None:
        kind = kind.replace("-", "_")
        if kind not in QUERY_KINDS:
            self._error(
                404, f"unknown query kind {kind!r}; "
                f"known: {', '.join(QUERY_KINDS)}")
            return
        query: Dict[str, Any] = dict(params)
        if "vertex" in query:
            query["vertex"] = _coerce_vertex(self.service,
                                             query["vertex"])
        self._send(200, self.service.query(kind, **query))

    # -- POST ----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802
        path, _params = self._route()
        started = time.perf_counter()
        doc = self._body()
        if doc is None:
            return
        try:
            if path == "/edges":
                self._do_edges(doc)
                return
            if path == "/publish":
                self._send(200, {"epoch": self.service.publish()})
                return
            if path == "/profile/start":
                self._do_profile_start(doc)
                return
            if path == "/profile/stop":
                self._do_profile_stop()
                return
            self._error(404, f"unknown path {path!r}")
        except (ServeError, ValueError) as exc:
            # A refused edge (GraphError, DomainError) is a ValueError.
            self._error(400, str(exc))
        except Exception as exc:
            self._fault(exc)
        finally:
            self._observe(path, "POST", started)

    def _do_profile_start(self, doc: Dict[str, Any]) -> None:
        try:
            hz = float(doc.get("hz", DEFAULT_HZ))
        except (TypeError, ValueError):
            self._error(400, f"hz must be a number, got {doc.get('hz')!r}")
            return
        try:
            session = start_profile(hz=hz, memory=bool(doc.get("memory")))
        except ProfileError as exc:
            self._send(409, {"error": str(exc), "status": 409})
            return
        self._send(200, {"profile_id": session.profile_id,
                         "hz": session.hz, "memory": session.memory})

    def _do_profile_stop(self) -> None:
        try:
            profile = stop_profile()
        except ProfileError as exc:   # includes NoActiveProfile
            self._send(409, {"error": str(exc), "status": 409})
            return
        self._send(200, profile.to_dict())

    def _do_edges(self, doc: Dict[str, Any]) -> None:
        edges = doc.get("edges")
        if not isinstance(edges, list):
            self._error(400, 'body must carry an "edges" list')
            return
        for i, edge in enumerate(edges):
            if not isinstance(edge, list) or len(edge) not in (3, 5):
                self._error(
                    400, f"edge {i}: each edge must be [key, src, dst] or "
                    "[key, src, dst, w_out, w_in]")
                return
        buffered = self.service.add_edges(tuple(e) for e in edges)
        payload: Dict[str, Any] = {
            "buffered": buffered,
            "pending": self.service.pending_edges,
            "epoch": self.service.epoch,
        }
        if doc.get("publish"):
            payload["epoch"] = self.service.publish()
            payload["pending"] = self.service.pending_edges
        self._send(200, payload)


def build_server(
    service: AdjacencyService,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    *,
    quiet: bool = True,
    log_events: bool = False,
) -> ThreadingHTTPServer:
    """A ready-to-run ``ThreadingHTTPServer`` bound to ``host:port``.

    ``port=0`` binds an ephemeral port (``server.server_address[1]``
    reports it) — the test-friendly spelling.  ``log_events`` routes
    the per-request access log onto the structured event ring (kind
    ``http.log``) instead of stderr; off by default.  The caller owns
    the server lifecycle (``serve_forever()`` / ``shutdown()``).
    """
    # Serving is when process health matters: RSS, GC, threads, and FD
    # gauges join the global registry so GET /metrics reports them.
    install_process_gauges()
    handler = type("AdjacencyHandler", (_Handler,),
                   {"service": service, "quiet": quiet,
                    "log_events": log_events})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def serve_forever(
    service: AdjacencyService,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    *,
    quiet: bool = True,
    log_events: bool = False,
) -> None:
    """Blocking convenience wrapper used by ``repro serve``."""
    with build_server(service, host, port, quiet=quiet,
                      log_events=log_events) as server:
        server.serve_forever()
