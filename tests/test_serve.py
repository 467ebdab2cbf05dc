"""Tests for the adjacency query service (repro.serve)."""

from __future__ import annotations

import threading

import pytest

from repro.arrays.associative import AssociativeArray
from repro.core.construction import adjacency_array
from repro.core.streaming import StreamingAdjacencyBuilder
from repro.graphs.incidence import incidence_arrays
from repro.serve import (
    QUERY_KINDS,
    AdjacencyService,
    QueryCache,
    ServeError,
    Snapshot,
    UnknownVertexError,
)
from repro.shard import ShardedAdjacencyPlan
from repro.values.semiring import get_op_pair


PAIR = get_op_pair("plus_times")


def small_service(**options) -> AdjacencyService:
    svc = AdjacencyService(PAIR, **options)
    svc.add_edges([("e1", "alice", "bob", 2.0, 1.0),
                   ("e2", "bob", "carol", 3.0, 1.0),
                   ("e3", "alice", "carol", 1.5, 1.0)])
    svc.publish()
    return svc


class TestSources:
    def test_from_array(self):
        arr = AssociativeArray({("a", "b"): 2.0, ("b", "c"): 1.0})
        svc = AdjacencyService(PAIR, initial=arr)
        assert svc.epoch == 0
        assert svc.neighbors("a") == {"b": 2.0}

    def test_initial_array_squared_over_vertex_union(self):
        arr = AssociativeArray({("a", "b"): 1.0})
        svc = AdjacencyService(PAIR, initial=arr)
        snap = svc.snapshot()
        assert snap.adjacency.row_keys == snap.adjacency.col_keys
        assert list(snap.vertices) == ["a", "b"]

    def test_from_tsv(self, tmp_path):
        p = tmp_path / "adj.tsv"
        p.write_text("a\tb\t2.0\nb\tc\t3.0\n", encoding="utf-8")
        svc = AdjacencyService.from_tsv(p, PAIR)
        assert svc.neighbors("a") == {"b": 2.0}

    def test_from_tsv_folds_duplicates_through_oplus(self, tmp_path):
        p = tmp_path / "adj.tsv"
        p.write_text("a\tb\t2\na\tb\t3\n", encoding="utf-8")
        svc = AdjacencyService.from_tsv(p, PAIR)
        assert svc.neighbors("a") == {"b": 5}

    def test_from_builder(self):
        b = StreamingAdjacencyBuilder(PAIR)
        b.add_edge("e1", "x", "y", 4.0)
        svc = AdjacencyService.from_builder(b)
        assert svc.neighbors("x") == {"y": 4.0}

    def test_from_manifest(self, tmp_path):
        wd = tmp_path / "shards"
        plan = ShardedAdjacencyPlan(PAIR, n_shards=2, workdir=wd,
                                    keep_workdir=True)
        plan.partition([("e1", "a", "b", 2.0, 1.0),
                        ("e2", "b", "c", 3.0, 1.0),
                        ("e3", "a", "b", 1.0, 1.0)])
        svc = AdjacencyService.from_manifest(wd)  # pair from manifest
        assert svc.neighbors("a") == {"b": 3.0}
        assert svc.neighbors("b") == {"c": 3.0}

    def test_from_manifest_missing(self, tmp_path):
        from repro.shard import ShardError
        with pytest.raises(ShardError, match="no manifest"):
            AdjacencyService.from_manifest(tmp_path)

    def test_unsafe_pair_refused(self):
        with pytest.raises(ServeError, match="Theorem II.1"):
            AdjacencyService(get_op_pair("int_plus_times"))

    def test_unsafe_pair_accepted_with_override(self):
        svc = AdjacencyService(get_op_pair("int_plus_times"),
                               unsafe_ok=True)
        svc.add_edge("e1", "a", "b", 2)
        assert svc.publish() == 1


class TestQueries:
    def test_neighbors_out_in(self):
        svc = small_service()
        assert svc.neighbors("alice") == {"bob": 2.0, "carol": 1.5}
        assert svc.neighbors("carol", direction="in") == \
            {"alice": 1.5, "bob": 3.0}

    def test_degrees(self):
        svc = small_service()
        assert svc.degrees() == {"alice": 2, "bob": 1, "carol": 0}
        assert svc.degrees(direction="in") == \
            {"alice": 0, "bob": 1, "carol": 2}
        assert svc.degrees(vertex="alice") == 2

    def test_khop(self):
        svc = small_service()
        assert svc.khop("alice", 0) == {"alice": 1}
        assert svc.khop("alice", 1) == {"bob": 2.0, "carol": 1.5}
        assert svc.khop("alice", 2) == {"carol": 6.0}

    def test_khop_alternative_pair(self):
        svc = small_service()
        # min.+ along alice→bob→carol (5.0) vs alice→carol (1.5).
        assert svc.khop("alice", 1, pair="min_plus") == \
            {"bob": 2.0, "carol": 1.5}
        assert svc.khop("alice", 2, pair="min_plus") == {"carol": 5.0}

    def test_khop_uncertified_pair_refused(self):
        svc = small_service()
        with pytest.raises(ServeError, match="Theorem II.1"):
            svc.khop("alice", 1, pair="gf2_xor_and")

    def test_khop_unknown_pair(self):
        svc = small_service()
        with pytest.raises(ServeError, match="unknown op-pair"):
            svc.khop("alice", 1, pair="bogus")

    def test_path_lengths(self):
        svc = small_service()
        assert svc.path_lengths("alice") == \
            {"alice": 0.0, "bob": 2.0, "carol": 1.5}

    def test_top_k(self):
        svc = small_service()
        assert svc.top_k(2) == [["bob", "carol", 3.0],
                                ["alice", "bob", 2.0]]
        # k beyond nnz returns everything.
        assert len(svc.top_k(99)) == 3

    def test_stats_shape(self):
        svc = small_service()
        svc.neighbors("alice")
        stats = svc.stats()
        assert stats["epoch"] == 1
        assert stats["vertices"] == 3
        assert stats["nnz"] == 3
        assert stats["op_pair"] == "plus_times"
        assert stats["publications"] == 1
        assert {"hits", "misses", "hit_rate",
                "cold_seconds_total"} <= set(stats["cache"])

    def test_stats_last_publication_summary(self):
        svc = small_service()
        pub = svc.stats()["last_publication"]
        assert pub["epoch"] == 1
        assert pub["delta_edges"] == 3
        assert pub["merged_nnz"] == 3
        assert pub["duration_seconds"] >= 0.0
        assert pub["published_at"] > 0.0
        assert pub["trace_id"].startswith("t")
        stages = pub["stages"]
        assert set(stages) == {"fold_delta", "merge", "swap"}
        assert all(v >= 0.0 for v in stages.values())
        # The trace id resolves in the service's own span ring.
        tree = svc.tracer.lookup(pub["trace_id"])
        assert tree.name == "service.publish"
        # Re-publishing updates the summary.
        svc.add_edge("e4", "carol", "dave", 7.0)
        svc.publish()
        pub2 = svc.stats()["last_publication"]
        assert pub2["epoch"] == 2 and pub2["delta_edges"] == 1

    def test_stats_last_publication_none_before_any(self):
        svc = AdjacencyService(PAIR)
        assert svc.stats()["last_publication"] is None

    def test_envelope_carries_epoch_and_kind(self):
        svc = small_service()
        out = svc.query("neighbors", vertex="alice")
        assert out["epoch"] == 1 and out["kind"] == "neighbors"
        assert out["result"] == {"bob": 2.0, "carol": 1.5}


class TestQueryErrors:
    def test_unknown_kind(self):
        with pytest.raises(ServeError, match="unknown query kind"):
            small_service().query("pagerank")

    def test_unknown_kinds_create_no_instrument_children(self):
        svc = small_service()
        for kind in ("bogus1", "bogus2", "bogus3"):
            with pytest.raises(ServeError, match="unknown query kind"):
                svc.query(kind)
        labelled = [(family.name, dict(labels)["kind"])
                    for family in svc.metrics.families()
                    for labels in family.children if dict(labels).get("kind")]
        assert labelled
        assert all(kind in QUERY_KINDS for _name, kind in labelled), \
            labelled
        assert svc.stats()["queries"] == 1   # the stats call itself

    def test_stats_latency_lists_every_kind(self):
        svc = small_service()
        svc.neighbors("alice")
        latency = svc.stats()["latency"]
        assert set(latency) == set(QUERY_KINDS)
        assert latency["neighbors"]["count"] == 1
        assert latency["khop"]["count"] == 0

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            small_service().neighbors("nobody")

    def test_unknown_vertex_is_serve_error(self):
        assert issubclass(UnknownVertexError, ServeError)

    def test_bad_direction(self):
        with pytest.raises(ServeError, match="direction"):
            small_service().neighbors("alice", direction="sideways")

    def test_missing_vertex_param(self):
        with pytest.raises(ServeError, match="required"):
            small_service().query("neighbors")

    def test_bad_k(self):
        svc = small_service()
        with pytest.raises(ServeError, match=">= 0"):
            svc.khop("alice", -1)
        with pytest.raises(ServeError, match="integer"):
            svc.query("khop", vertex="alice", k="two")

    def test_unknown_extra_param(self):
        with pytest.raises(ServeError, match="unknown query param"):
            small_service().query("neighbors", vertex="alice",
                                  flavor="spicy")


class TestPublication:
    def test_publish_advances_epoch_and_results(self):
        svc = small_service()
        assert svc.epoch == 1
        svc.add_edge("e4", "carol", "dave", 7.0)
        assert svc.pending_edges == 1
        # Readers see nothing until publication.
        with pytest.raises(UnknownVertexError):
            svc.neighbors("dave")
        assert svc.publish() == 2
        assert svc.pending_edges == 0
        assert svc.neighbors("carol") == {"dave": 7.0}

    def test_delta_oplus_merges_into_existing_entries(self):
        svc = small_service()
        svc.add_edge("e4", "alice", "bob", 10.0)
        svc.publish()
        assert svc.neighbors("alice")["bob"] == 12.0  # 2 ⊕ 10

    def test_empty_publish_is_noop(self):
        svc = small_service()
        assert svc.publish() == 1
        assert svc.publish() == 1

    def test_discard_pending(self):
        svc = small_service()
        svc.add_edge("e4", "x", "y")
        assert svc.discard_pending() == 1
        assert svc.publish() == 1  # nothing left to publish

    def test_edge_keys_scoped_per_batch(self):
        svc = small_service()
        svc.add_edge("d1", "a", "b")
        svc.publish()
        svc.add_edge("d1", "a", "b")  # same key, next batch: fine
        svc.publish()
        assert svc.neighbors("a") == {"b": 2.0}

    def test_matches_batch_construction(self):
        """Epoch merging equals batch over all edges ever ingested."""
        edges = [(f"e{i}", f"v{i % 7}", f"v{(i * 3) % 7}",
                  float(1 + i % 5), 1.0) for i in range(40)]
        svc = AdjacencyService(PAIR)
        for chunk_start in range(0, len(edges), 9):
            svc.add_edges(edges[chunk_start:chunk_start + 9])
            svc.publish()
        from repro.graphs.digraph import EdgeKeyedDigraph
        graph = EdgeKeyedDigraph((k, s, t) for k, s, t, _o, _i in edges)
        eout, ein = incidence_arrays(
            graph, zero=PAIR.zero,
            out_values={k: o for k, _s, _t, o, _i in edges},
            in_values={k: i for k, _s, _t, _o, i in edges})
        batch = adjacency_array(eout, ein, PAIR)
        vertices = svc.snapshot().vertices
        batch = batch.with_keys(vertices, vertices)
        assert svc.snapshot().adjacency.allclose(batch)

    def test_snapshot_isolation_old_reference_stays_valid(self):
        svc = small_service()
        old = svc.snapshot()
        svc.add_edge("e4", "alice", "zed", 9.0)
        svc.publish()
        assert old.epoch == 1
        assert "zed" not in old.vertices
        assert svc.snapshot().epoch == 2
        assert old.neighbors_out("alice") == {"bob": 2.0, "carol": 1.5}


class TestCaching:
    def test_hit_on_repeat_query(self):
        svc = small_service()
        first = svc.query("khop", vertex="alice", k=2)
        second = svc.query("khop", vertex="alice", k=2)
        assert first["cached"] is False
        assert second["cached"] is True
        assert first["result"] == second["result"]

    def test_publication_invalidates(self):
        svc = small_service()
        svc.query("neighbors", vertex="alice")
        svc.add_edge("e4", "alice", "dave", 1.0)
        svc.publish()
        after = svc.query("neighbors", vertex="alice")
        assert after["cached"] is False
        assert after["result"] == {"bob": 2.0, "carol": 1.5, "dave": 1.0}
        assert svc.stats()["cache"]["invalidations"] >= 1

    def test_cache_disabled(self):
        svc = small_service(cache_size=0)
        svc.query("neighbors", vertex="alice")
        out = svc.query("neighbors", vertex="alice")
        assert out["cached"] is False

    def test_stats_not_cached(self):
        svc = small_service()
        a = svc.query("stats")
        b = svc.query("stats")
        assert a["cached"] is False and b["cached"] is False
        assert b["result"]["queries"] > a["result"]["queries"]


class TestQueryCacheUnit:
    def test_lru_eviction(self):
        cache = QueryCache(maxsize=2)
        cache.store((0, "a"), 1)
        cache.store((0, "b"), 2)
        cache.lookup((0, "a"))          # refresh a
        cache.store((0, "c"), 3)        # evicts b
        assert cache.lookup((0, "a")) == (True, 1)
        assert cache.lookup((0, "b")) == (False, None)
        assert cache.evictions == 1

    def test_invalidate_below(self):
        cache = QueryCache()
        cache.store((0, "a"), 1)
        cache.store((1, "a"), 2)
        assert cache.invalidate_below(1) == 1
        assert cache.lookup((1, "a")) == (True, 2)
        assert len(cache) == 1

    def test_get_or_compute_counts_latency(self):
        cache = QueryCache()
        value, cached = cache.get_or_compute((0, "x"), lambda: 42)
        assert (value, cached) == (42, False)
        value, cached = cache.get_or_compute((0, "x"), lambda: 99)
        assert (value, cached) == (42, True)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["cold_seconds_total"] >= 0.0

    def test_bad_maxsize(self):
        with pytest.raises(ValueError, match=">= 0"):
            QueryCache(maxsize=-1)


class TestConcurrency:
    def test_concurrent_readers_during_publication(self):
        """Stress: readers never see torn state or a stale-epoch cache.

        Each epoch adds one *new* spoke to a hub, so
        ``len(neighbors(hub)) == epoch`` and ``degree(hub) == epoch``
        hold at every epoch — any torn read, or a cache entry served
        across epochs, breaks the equality.  Readers yield briefly per
        iteration (as I/O-bound HTTP readers do) so the GIL doesn't
        starve the publishing writer.
        """
        import time as _time
        svc = AdjacencyService(PAIR)
        svc.add_edge("seed", "hub", "spoke_0")
        svc.publish()  # epoch 1: 1 spoke
        errors = []
        reads = []
        stop = threading.Event()

        def reader():
            count = 0
            while not stop.is_set():
                try:
                    out = svc.query("neighbors", vertex="hub")
                    epoch, result = out["epoch"], out["result"]
                    if len(result) != epoch:
                        errors.append(
                            f"epoch {epoch} served {len(result)} "
                            f"neighbors: {sorted(result)}")
                        return
                    deg = svc.query("degrees", vertex="hub")
                    if deg["result"] != deg["epoch"]:
                        errors.append(
                            f"degree {deg['result']} at epoch "
                            f"{deg['epoch']}")
                        return
                    count += 2
                    _time.sleep(0.0005)
                except Exception as exc:  # pragma: no cover - failure
                    errors.append(repr(exc))
                    return
            reads.append(count)

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for t in threads:
            t.start()
        try:
            for e in range(2, 21):
                svc.add_edge(f"d{e}", "hub", f"spoke_{e - 1}")
                assert svc.publish() == e
                _time.sleep(0.002)  # let readers observe the epoch
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:3]
        assert sum(reads) > 0  # the readers actually read
        assert svc.epoch == 20
        assert len(svc.neighbors("hub")) == 20


class TestSnapshotUnit:
    def test_numeric_and_dict_paths_agree(self):
        data = {("a", "b"): 2.0, ("a", "c"): 1.0, ("c", "b"): 5.0}
        arr = AssociativeArray(data)
        numeric = Snapshot.from_array(arr.with_backend("numeric"), 0)
        generic = Snapshot.from_array(arr.with_backend("dict"), 0)
        for v in "abc":
            assert numeric.neighbors_out(v) == generic.neighbors_out(v)
            assert numeric.neighbors_in(v) == generic.neighbors_in(v)
        assert numeric.out_degrees() == generic.out_degrees()
        assert numeric.in_degrees() == generic.in_degrees()
        assert numeric.top_k(3) == generic.top_k(3)

    def test_non_numeric_values_served_generically(self):
        arr = AssociativeArray(
            {("d1", "d2"): frozenset({"w"}), ("d2", "d3"): "text"},
            zero=frozenset())
        snap = Snapshot.from_array(arr, 0)
        assert snap.neighbors_out("d1") == {"d2": frozenset({"w"})}
        assert snap.in_degrees() == {"d1": 0, "d2": 1, "d3": 1}
        with pytest.raises(ServeError, match="orderable"):
            snap.top_k(1)

    def test_top_k_requires_positive_k(self):
        snap = Snapshot.from_array(AssociativeArray({("a", "b"): 1.0}), 0)
        with pytest.raises(ServeError, match="k >= 1"):
            snap.top_k(0)


class TestReviewHardening:
    """Regression tests for the review findings on the query gate."""

    def test_khop_k_capped(self):
        svc = small_service()
        with pytest.raises(ServeError, match="max_khop"):
            svc.khop("alice", 999999999)
        tight = AdjacencyService(PAIR, max_khop=2,
                                 initial=small_service().snapshot()
                                 .adjacency)
        assert tight.khop("alice", 2) == {"carol": 6.0}
        with pytest.raises(ServeError, match="max_khop"):
            tight.khop("alice", 3)

    def test_bad_max_khop_rejected(self):
        with pytest.raises(ServeError, match="max_khop"):
            AdjacencyService(PAIR, max_khop=0)

    def test_khop_breaks_on_empty_frontier(self):
        # carol is a sink: large (in-cap) k must return quickly and {}.
        svc = small_service()
        assert svc.khop("carol", 256) == {}

    def test_order_sensitive_query_pair_refused(self):
        # skew_plus_times passes the criteria but its ⊕ is flagged
        # non-associative/non-commutative — same refusal as the
        # construction gate (and as the README promises).
        svc = small_service()
        with pytest.raises(ServeError, match="associative"):
            svc.khop("alice", 1, pair="skew_plus_times")
