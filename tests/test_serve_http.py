"""Tests for the HTTP JSON front end (repro.serve.http) and its CLI."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlencode

import pytest

from repro.serve import AdjacencyService, build_server
from repro.values.semiring import get_op_pair

PAIR = get_op_pair("plus_times")


@pytest.fixture()
def server():
    """A live threaded server over a small service; yields (url, service)."""
    svc = AdjacencyService(PAIR)
    svc.add_edges([("e1", "alice", "bob", 2.0, 1.0),
                   ("e2", "bob", "carol", 3.0, 1.0),
                   ("e3", "alice", "carol", 1.5, 1.0)])
    svc.publish()
    httpd = build_server(svc, "127.0.0.1", 0)
    thread = threading.Thread(
        target=lambda: httpd.serve_forever(poll_interval=0.05),
        daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    try:
        yield f"http://{host}:{port}", svc
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)


def get(url: str, path: str, **params):
    """GET → (status, parsed JSON body), errors included."""
    if params:
        path += "?" + urlencode(params)
    try:
        with urllib.request.urlopen(url + path, timeout=30) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def get_text(url: str, path: str):
    """GET → (status, content-type, raw text body) for non-JSON routes."""
    try:
        with urllib.request.urlopen(url + path, timeout=30) as resp:
            return (resp.status, resp.headers.get("Content-Type", ""),
                    resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return (exc.code, exc.headers.get("Content-Type", ""),
                exc.read().decode("utf-8"))


def post(url: str, path: str, doc=None, raw: bytes = None):
    body = raw if raw is not None else json.dumps(doc or {}).encode()
    req = urllib.request.Request(url + path, data=body, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


class TestEndpoints:
    def test_health(self, server):
        url, _svc = server
        status, doc = get(url, "/health")
        assert status == 200
        assert doc == {"status": "ok", "epoch": 1}

    def test_neighbors(self, server):
        url, _svc = server
        status, doc = get(url, "/query/neighbors", vertex="alice")
        assert status == 200
        assert doc["epoch"] == 1 and doc["kind"] == "neighbors"
        assert doc["result"] == {"bob": 2.0, "carol": 1.5}

    def test_neighbors_in(self, server):
        url, _svc = server
        _s, doc = get(url, "/query/neighbors", vertex="carol",
                      direction="in")
        assert doc["result"] == {"alice": 1.5, "bob": 3.0}

    def test_degrees(self, server):
        url, _svc = server
        _s, doc = get(url, "/query/degrees")
        assert doc["result"] == {"alice": 2, "bob": 1, "carol": 0}
        _s, doc = get(url, "/query/degrees", vertex="bob",
                      direction="in")
        assert doc["result"] == 1

    def test_khop_with_pair(self, server):
        url, _svc = server
        _s, doc = get(url, "/query/khop", vertex="alice", k=2)
        assert doc["result"] == {"carol": 6.0}
        _s, doc = get(url, "/query/khop", vertex="alice", k=2,
                      pair="min_plus")
        assert doc["result"] == {"carol": 5.0}

    def test_path_lengths_dashed_route(self, server):
        url, _svc = server
        status, doc = get(url, "/query/path-lengths", vertex="alice")
        assert status == 200
        assert doc["result"] == {"alice": 0.0, "bob": 2.0, "carol": 1.5}

    def test_top_k(self, server):
        url, _svc = server
        _s, doc = get(url, "/query/top-k", k=1)
        assert doc["result"] == [["bob", "carol", 3.0]]

    def test_stats(self, server):
        url, _svc = server
        get(url, "/query/neighbors", vertex="alice")
        get(url, "/query/neighbors", vertex="alice")
        status, doc = get(url, "/stats")
        assert status == 200
        result = doc["result"]
        assert result["epoch"] == 1 and result["nnz"] == 3
        assert result["cache"]["hits"] >= 1

    def test_cached_flag_roundtrip(self, server):
        url, _svc = server
        _s, cold = get(url, "/query/khop", vertex="bob", k=1)
        _s, warm = get(url, "/query/khop", vertex="bob", k=1)
        assert cold["cached"] is False and warm["cached"] is True


class TestErrors:
    def test_unknown_path_404(self, server):
        url, _svc = server
        status, doc = get(url, "/nope")
        assert status == 404
        assert "unknown path" in doc["error"] and doc["status"] == 404

    def test_unknown_kind_404(self, server):
        url, _svc = server
        status, doc = get(url, "/query/pagerank")
        assert status == 404
        assert "unknown query kind" in doc["error"]

    def test_unknown_vertex_404(self, server):
        url, _svc = server
        status, doc = get(url, "/query/neighbors", vertex="nobody")
        assert status == 404
        assert "unknown vertex" in doc["error"]

    def test_missing_vertex_400(self, server):
        url, _svc = server
        status, doc = get(url, "/query/neighbors")
        assert status == 400
        assert "required" in doc["error"]

    def test_bad_direction_400(self, server):
        url, _svc = server
        status, doc = get(url, "/query/neighbors", vertex="alice",
                          direction="up")
        assert status == 400
        assert "direction" in doc["error"]

    def test_bad_k_400(self, server):
        url, _svc = server
        status, doc = get(url, "/query/khop", vertex="alice", k="two")
        assert status == 400
        assert "integer" in doc["error"]

    def test_unknown_param_400(self, server):
        url, _svc = server
        status, doc = get(url, "/query/neighbors", vertex="alice",
                          flavor="mild")
        assert status == 400
        assert "unknown query parameter" in doc["error"]

    def test_malformed_json_body_400(self, server):
        url, _svc = server
        status, doc = post(url, "/edges", raw=b"{nope")
        assert status == 400
        assert "malformed JSON" in doc["error"]

    def test_non_object_body_400(self, server):
        url, _svc = server
        status, doc = post(url, "/edges", raw=b"[1, 2]")
        assert status == 400
        assert "object" in doc["error"]

    def test_edges_requires_list_400(self, server):
        url, _svc = server
        status, doc = post(url, "/edges", {"edges": "e1"})
        assert status == 400
        assert '"edges"' in doc["error"]

    def test_edge_arity_400(self, server):
        url, _svc = server
        status, doc = post(url, "/edges", {"edges": [["e9", "a"]]})
        assert status == 400
        assert "each edge" in doc["error"]

    def test_duplicate_edge_key_400(self, server):
        url, _svc = server
        status, doc = post(url, "/edges",
                           {"edges": [["d1", "a", "b"], ["d1", "a", "c"]]})
        assert status == 400
        assert "duplicate" in doc["error"]

    def test_post_unknown_path_404(self, server):
        url, _svc = server
        status, doc = post(url, "/query/neighbors", {})
        assert status == 404

    @pytest.mark.parametrize("bad,field", [
        ([["x"], "a", "b"], "key"),
        (["k", {"v": 1}, "b"], "src"),
        (["k", "a", "b", "abc", 1.0], "w_out"),
        (["k", "a", "b", -1.0, 1.0], "w_out"),
        (["k", "a", "b", 1.0, 10 ** 400], "w_in"),
    ], ids=["unhashable_key", "unhashable_vertex", "text_weight",
            "zero_sum_pair", "huge_int_weight"])
    def test_bad_edge_400_names_index_and_field(self, server, bad, field):
        url, svc = server
        post(url, "/edges", {"edges": [["p0", "a", "b", 1.0, 1.0]]})
        status, doc = post(url, "/edges", {
            "edges": [["g1", "a", "b", 2.0, 1.0], ["g2", "a", "c", 2.0, 1.0],
                      bad], "publish": True})
        assert status == 400 and doc["status"] == 400
        assert doc["error"].startswith(f"edge 2: {field} "), doc
        assert svc.pending_edges == 1 and svc.epoch == 1
        status, doc = post(url, "/edges", {
            "edges": [["g3", "a", "c", 2.0, 1.0]], "publish": True})
        assert status == 200 and doc["epoch"] == 2 and doc["pending"] == 0
        # The zero-sum pair never reaches an epoch: a keeps b.
        _s, doc = get(url, "/query/neighbors", vertex="a")
        assert doc["result"] == {"b": 1.0, "c": 2.0}

    def test_handler_fault_is_json_500_with_event(self, server,
                                                 monkeypatch):
        from repro.obs.events import get_event_log
        url, svc = server

        def broken():
            raise RuntimeError("disk on fire")
        monkeypatch.setattr(svc, "publish", broken)
        status, doc = post(url, "/publish")
        assert status == 500 and doc["status"] == 500
        assert "RuntimeError: disk on fire" in doc["error"]
        (event,) = get_event_log().events(kind="http.error", limit=1)
        assert event["path"] == "/publish"
        assert "disk on fire" in event["error"]
        assert "in broken" in event["traceback"]


class TestIngest:
    def test_edges_then_publish(self, server):
        url, svc = server
        status, doc = post(url, "/edges",
                           {"edges": [["d1", "carol", "dave", 4.0, 1.0]]})
        assert status == 200
        assert doc == {"buffered": 1, "pending": 1, "epoch": 1}
        # Not visible yet: readers still see epoch 1.
        status, doc = get(url, "/query/neighbors", vertex="carol")
        assert doc["epoch"] == 1 and doc["result"] == {}
        status, doc = post(url, "/publish")
        assert status == 200 and doc == {"epoch": 2}
        status, doc = get(url, "/query/neighbors", vertex="carol")
        assert doc["epoch"] == 2 and doc["result"] == {"dave": 4.0}

    def test_inline_publish(self, server):
        url, _svc = server
        status, doc = post(url, "/edges",
                           {"edges": [["d1", "x", "y"]], "publish": True})
        assert status == 200
        assert doc["epoch"] == 2 and doc["pending"] == 0
        _s, doc = get(url, "/query/neighbors", vertex="x")
        assert doc["result"] == {"y": 1.0}

    def test_empty_publish_is_noop(self, server):
        url, _svc = server
        status, doc = post(url, "/publish")
        assert status == 200 and doc == {"epoch": 1}


class TestJsonSafety:
    def test_nonfinite_values_stringified(self):
        """min.+ arrays carry ±∞; the JSON body must stay strict."""
        from repro.arrays.associative import AssociativeArray
        pair = get_op_pair("min_plus")
        arr = AssociativeArray({("a", "b"): 2.0}, zero=pair.zero)
        svc = AdjacencyService(pair, initial=arr)
        httpd = build_server(svc, "127.0.0.1", 0)
        thread = threading.Thread(
            target=lambda: httpd.serve_forever(poll_interval=0.05),
            daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        try:
            status, doc = get(f"http://{host}:{port}",
                              "/query/khop", vertex="a", k=0)
            assert status == 200
            # khop seed is the pair's one (0.0 for min.+): finite here,
            # but the serializer must accept the widest case too.
            from repro.serve.http import jsonable
            assert jsonable(float("inf")) == "inf"
            assert jsonable(float("-inf")) == "-inf"
            assert jsonable({"x": float("nan")}) == {"x": "nan"}
            assert jsonable([1.5, (2, float("inf"))]) == [1.5, [2, "inf"]]
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)

    def test_numeric_vertex_keys_coerced_and_stringified(self):
        from repro.arrays.associative import AssociativeArray
        arr = AssociativeArray({(1, 2): 5.0, (2, 3): 1.0})
        svc = AdjacencyService(PAIR, initial=arr)
        httpd = build_server(svc, "127.0.0.1", 0)
        thread = threading.Thread(
            target=lambda: httpd.serve_forever(poll_interval=0.05),
            daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        try:
            status, doc = get(f"http://{host}:{port}",
                              "/query/neighbors", vertex="1")
            assert status == 200
            assert doc["result"] == {"2": 5.0}
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)


class TestConcurrentHTTP:
    def test_readers_during_publication(self, server):
        """HTTP readers across epoch publications: consistent envelopes."""
        url, svc = server
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    _s, doc = get(url, "/query/degrees", vertex="hub")
                    if doc.get("status") == 404:
                        continue  # hub not published yet
                    if doc["result"] != doc["epoch"] - 1:
                        errors.append(doc)
                        return
                except Exception as exc:  # pragma: no cover - failure
                    errors.append(repr(exc))
                    return
                time.sleep(0.001)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            # Epoch e (≥2) has hub→spoke_2..e: degree e-1.
            for e in range(2, 10):
                post(url, "/edges",
                     {"edges": [[f"h{e}", "hub", f"spoke_{e}"]],
                      "publish": True})
                time.sleep(0.002)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:3]
        assert svc.epoch == 9
        assert svc.degrees(vertex="hub") == 8


class TestObservabilityEndpoints:
    def test_healthz(self, server):
        url, svc = server
        status, doc = get(url, "/healthz")
        assert status == 200
        assert doc["status"] == "ok" and doc["epoch"] == 1
        assert doc["pending_edges"] == 0
        assert doc["uptime_seconds"] >= 0.0
        assert doc["snapshot_age_seconds"] >= 0.0
        post(url, "/edges", {"edges": [["e9", "dave", "alice"]]})
        _s, doc = get(url, "/healthz")
        assert doc["pending_edges"] == 1 and doc["epoch"] == 1

    def test_metrics_prometheus_text(self, server):
        url, _svc = server
        get(url, "/query/neighbors", vertex="alice")   # generate traffic
        status, ctype, text = get_text(url, "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        # Per-service instruments and HTTP middleware counters.
        assert "# TYPE serve_queries_total counter" in text
        assert "serve_epoch 1" in text
        assert 'http_requests_total{method="GET",route="query"}' in text
        assert "http_request_seconds_bucket" in text
        # The process-global registry renders in the same exposition.
        assert "serve_cache_hits_total" in text

    def test_metrics_counts_advance_with_traffic(self, server):
        url, _svc = server
        for _ in range(3):
            get(url, "/query/degrees")
        _s, _c, text = get_text(url, "/metrics")
        line = next(ln for ln in text.splitlines()
                    if ln.startswith("serve_queries_total"))
        assert float(line.split()[-1]) >= 3

    def test_trace_index_and_tree(self, server):
        url, svc = server
        get(url, "/query/khop", vertex="alice", k=2)
        status, doc = get(url, "/trace")
        assert status == 200
        assert doc["traces"], doc
        newest = doc["traces"][0]
        assert newest["name"] == "service.query"
        status, tree = get(url, f"/trace/{newest['trace_id']}")
        assert status == 200
        assert tree["trace_id"] == newest["trace_id"]
        names = set()
        stack = [tree]
        while stack:
            node = stack.pop()
            names.add(node["name"])
            stack.extend(node["children"])
        assert "service.query" in names and "compute" in names

    def test_trace_unknown_id_404_is_structured(self, server):
        url, _svc = server
        status, doc = get(url, "/trace/t_does_not_exist")
        assert status == 404
        assert "no such trace" in doc["error"]
        assert "ring evicted" in doc["error"]
        assert doc["trace_id"] == "t_does_not_exist"
        retention = doc["retention"]
        assert retention["max_traces"] >= retention["stored"] >= 0

    def test_metrics_bucket_lines_carry_exemplars(self, server):
        url, _svc = server
        get(url, "/query/khop", vertex="alice", k=2)   # traced + timed
        _s, _c, text = get_text(url, "/metrics")
        exemplar_lines = [
            ln for ln in text.splitlines()
            if ln.startswith("serve_request_seconds_bucket")
            and " # {" in ln]
        assert exemplar_lines, "no exemplar on any latency bucket"
        suffix = exemplar_lines[0].split(" # ", 1)[1]
        assert suffix.startswith('{trace_id="t')
        assert 'span_id="s' in suffix
        # The exemplar's trace id resolves on /trace/<id>.
        trace_id = suffix.split('trace_id="', 1)[1].split('"', 1)[0]
        status, tree = get(url, f"/trace/{trace_id}")
        assert status == 200 and tree["trace_id"] == trace_id

    def test_stats_last_publication_links_trace(self, server):
        url, svc = server
        _s, doc = get(url, "/stats")
        pub = doc["result"]["last_publication"]
        assert pub["epoch"] == 1
        assert pub["delta_edges"] == 3
        assert pub["duration_seconds"] >= 0.0
        assert set(pub["stages"]) == {"fold_delta", "merge", "swap"}
        status, tree = get(url, f"/trace/{pub['trace_id']}")
        assert status == 200
        assert tree["name"] == "service.publish"

    def test_events_endpoint(self, server):
        url, _svc = server
        status, doc = get(url, "/events")
        assert status == 200
        kinds = {e["kind"] for e in doc["events"]}
        assert "epoch_published" in kinds
        retention = doc["retention"]
        assert retention["capacity"] >= retention["stored"] >= 1
        # kind filter + since cursor + limit
        _s, pub = get(url, "/events", kind="epoch_published")
        assert all(e["kind"] == "epoch_published" for e in pub["events"])
        last = pub["events"][-1]["seq"]
        _s, after = get(url, "/events", since=last)
        assert all(e["seq"] > last for e in after["events"])
        _s, one = get(url, "/events", limit=1)
        assert len(one["events"]) <= 1

    def test_events_bad_params_400(self, server):
        url, _svc = server
        status, doc = get(url, "/events", since="soon")
        assert status == 400 and "integer" in doc["error"]
        status, doc = get(url, "/events", limit="all")
        assert status == 400 and "integer" in doc["error"]
        status, doc = get(url, "/events", flavor="mild")
        assert status == 400 and "unknown" in doc["error"]


class TestProfileEndpoints:
    @pytest.fixture(autouse=True)
    def _no_leftover_session(self):
        """Profiler state is process-global: never leak it across tests."""
        from repro.obs.profile import ProfileError, stop_profile
        yield
        try:
            stop_profile()
        except ProfileError:
            pass

    def test_idle_profile_is_409_naming_the_start_verb(self, server):
        url, _svc = server
        status, doc = get(url, "/profile")
        assert status == 409                       # client-state, not 500
        assert doc["status"] == 409
        assert "repro profile start" in doc["error"]
        assert "POST /profile/start" in doc["error"]
        assert "profiles" in doc and "retention" in doc
        status, doc = get_text(url, "/profile/flame")[0], None
        assert status in (200, 409)   # 200 iff an earlier test left a ring entry

    def test_start_query_dump_stop_flow(self, server):
        url, _svc = server
        status, doc = post(url, "/profile/start", {})
        assert status == 200 and doc["profile_id"].startswith("p")
        profile_id = doc["profile_id"]
        # Double-start is a conflict, and names the live session.
        status, dup = post(url, "/profile/start", {})
        assert status == 409 and profile_id in dup["error"]
        deadline = time.time() + 5
        while time.time() < deadline:
            get(url, "/query/khop", vertex="alice", k=2)
            status, dump = get(url, "/profile", top=5)
            if dump.get("samples", 0) > 0:
                break
        assert status == 200
        assert dump["running"] is True
        assert dump["profile_id"] == profile_id
        assert dump["samples"] > 0 and dump["top_functions"]
        assert "overhead_ratio" in dump
        # A traced query's finished spans carry sampled CPU.
        status, final = post(url, "/profile/stop")
        assert status == 200
        assert final["profile_id"] == profile_id
        assert final["samples"] >= dump["samples"]
        # After stop the session is gone but the flame survives in the ring.
        status, _doc = get(url, "/profile")
        assert status == 409
        fstatus, ctype, html = get_text(url,
                                        f"/profile/flame?id={profile_id}")
        assert fstatus == 200 and ctype.startswith("text/html")
        assert "<!doctype html" in html.lower()
        status, doc = post(url, "/profile/stop")
        assert status == 409 and "repro profile start" in doc["error"]

    def test_profile_start_bad_hz_400(self, server):
        url, _svc = server
        status, doc = post(url, "/profile/start", {"hz": "fast"})
        assert status == 400
        status, doc = post(url, "/profile/start", {"hz": 100000})
        assert status == 409 or status == 400

    def test_traced_span_reports_cpu_over_http(self, server):
        url, svc = server
        # The 3-edge fixture graph answers in microseconds — no sampler
        # tick ever lands inside a span.  Give the kernels real work.
        n = 1500
        svc.add_edges([(f"x{i}", f"v{i}", f"v{(i * 7 + 1) % n}", 1.0, 1.0)
                       for i in range(n)])
        svc.publish()
        status, _doc = post(url, "/profile/start", {"hz": 200})
        assert status == 200
        def spans_with_cpu(node):
            found = []
            work = [node]
            while work:
                cur = work.pop()
                if "cpu_ms" in cur.get("attrs", {}):
                    found.append(cur)
                work.extend(cur.get("children", []))
            return found

        deadline = time.time() + 15
        cpu_spans = []
        i = 0
        while time.time() < deadline and not cpu_spans:
            for _ in range(10):
                i += 1   # vary the vertex so the query cache never hits
                get(url, "/query/khop", vertex=f"v{i % n}", k=6)
            _s, index = get(url, "/trace")
            for entry in index["traces"]:
                _s2, tree = get(url, f"/trace/{entry['trace_id']}")
                cpu_spans = spans_with_cpu(tree)
                if cpu_spans:
                    break
        post(url, "/profile/stop")
        assert cpu_spans, "no traced span picked up sampled CPU"
        attrs = cpu_spans[0]["attrs"]
        assert attrs["cpu_samples"] >= 1 and attrs["cpu_ms"] > 0

    def test_process_gauges_in_metrics(self, server):
        url, _svc = server
        _s, _c, text = get_text(url, "/metrics")
        assert "process_resident_memory_bytes" in text
        rss = next(float(ln.rsplit(" ", 1)[1])
                   for ln in text.splitlines()
                   if ln.startswith("process_resident_memory_bytes "))
        assert rss > 1 << 20          # a live interpreter exceeds 1 MiB
        assert "process_open_fds" in text
        assert "process_threads" in text
        assert 'python_gc_collections_total{generation="0"}' in text
        assert 'python_gc_collections_total{generation="2"}' in text
        assert 'python_gc_collected_total{generation="0"}' in text


class TestQueryCLI:
    def test_query_cli_roundtrip(self, server, capsys):
        from repro.cli import main
        url, _svc = server
        assert main(["query", "neighbors", "alice", "--url", url]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == {"bob": 2.0, "carol": 1.5}

    def test_query_cli_khop_pair(self, server, capsys):
        from repro.cli import main
        url, _svc = server
        assert main(["query", "khop", "alice", "-k", "2",
                     "--query-pair", "min_plus", "--url", url]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == {"carol": 5.0}

    def test_query_cli_stats(self, server, capsys):
        from repro.cli import main
        url, _svc = server
        assert main(["query", "stats", "--url", url]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["op_pair"] == "plus_times"

    def test_query_cli_error_body(self, server, capsys):
        from repro.cli import main
        url, _svc = server
        assert main(["query", "neighbors", "nobody", "--url", url]) == 1
        assert "unknown vertex" in capsys.readouterr().err

    def test_query_cli_unreachable(self, capsys):
        from repro.cli import main
        assert main(["query", "stats",
                     "--url", "http://127.0.0.1:1"]) == 1
        assert "cannot reach" in capsys.readouterr().err


class TestTraceAndEventsCLI:
    def test_trace_fetch_by_id(self, server, capsys):
        from repro.cli import main
        url, _svc = server
        get(url, "/query/khop", vertex="alice", k=1)
        _s, index = get(url, "/trace")
        trace_id = index["traces"][0]["trace_id"]
        assert main(["trace", "--id", trace_id, "--url", url]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trace_id"] == trace_id

    def test_trace_list_newest_first(self, server, capsys):
        from repro.cli import main
        url, _svc = server
        get(url, "/query/khop", vertex="alice", k=1)
        get(url, "/query/neighbors", vertex="bob")
        assert main(["trace", "--list", "--url", url]) == 0
        out = capsys.readouterr().out
        assert "newest first" in out
        assert "trace_id" in out and "spans" in out
        lines = [ln for ln in out.splitlines() if ln.strip().startswith("t")]
        assert len(lines) >= 2
        # --json yields the raw index, same order as GET /trace.
        assert main(["trace", "--list", "--url", url, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        _s, index = get(url, "/trace")
        assert [r["trace_id"] for r in rows] == \
            [r["trace_id"] for r in index["traces"]]

    def test_trace_fetch_missing_id_reports_retention(self, server,
                                                      capsys):
        from repro.cli import main
        url, _svc = server
        assert main(["trace", "--id", "t_gone", "--url", url]) == 1
        err = capsys.readouterr().err
        assert "ring evicted" in err
        assert "ring retention:" in err

    def test_trace_requires_source_or_id(self, capsys):
        from repro.cli import main
        assert main(["trace"]) == 2
        assert "--source" in capsys.readouterr().err

    def test_events_cli_lists_jsonl(self, server, capsys):
        from repro.cli import main
        url, _svc = server
        assert main(["events", "--url", url,
                     "--kind", "epoch_published"]) == 0
        out, err = capsys.readouterr()
        lines = [json.loads(ln) for ln in out.splitlines()]
        assert lines and all(
            e["kind"] == "epoch_published" for e in lines)
        assert "retention:" in err

    def test_events_cli_since_filters(self, server, capsys):
        from repro.cli import main
        url, _svc = server
        assert main(["events", "--url", url]) == 0
        out = capsys.readouterr().out
        last = json.loads(out.splitlines()[-1])["seq"]
        assert main(["events", "--url", url,
                     "--since", str(last)]) == 0
        assert capsys.readouterr().out == ""


class TestRequestLogRouting:
    """Satellite: per-request stderr logging rides the event ring."""

    def _serve(self, **server_kw):
        svc = AdjacencyService(PAIR)
        svc.add_edges([("e1", "alice", "bob", 2.0, 1.0)])
        svc.publish()
        httpd = build_server(svc, "127.0.0.1", 0, **server_kw)
        thread = threading.Thread(
            target=lambda: httpd.serve_forever(poll_interval=0.05),
            daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        return httpd, thread, f"http://{host}:{port}"

    def test_log_events_routes_access_log_to_ring(self):
        from repro.obs.events import get_event_log
        log = get_event_log()
        before = log.retention()["last_seq"] or 0
        httpd, thread, url = self._serve(log_events=True)
        try:
            get(url, "/query/neighbors", vertex="alice")
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)
        events = log.events(since=before, kind="http.log")
        assert events, "no http.log events on the ring"
        assert any("/query/neighbors" in e["message"] for e in events)
        assert all(e["client"] for e in events)

    def test_default_stays_silent_on_ring_and_stderr(self, capsys):
        from repro.obs.events import get_event_log
        log = get_event_log()
        before = log.retention()["last_seq"] or 0
        httpd, thread, url = self._serve()
        try:
            get(url, "/query/neighbors", vertex="alice")
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)
        assert log.events(since=before, kind="http.log") == []
        assert "GET /query" not in capsys.readouterr().err
