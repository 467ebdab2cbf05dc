"""Tests for streaming (incremental) adjacency construction."""

from __future__ import annotations

import random

import pytest

from repro.core.construction import is_adjacency_array_of_graph
from repro.core.streaming import StreamingAdjacencyBuilder
from repro.graphs.digraph import GraphError
from repro.graphs.generators import erdos_renyi_multigraph
from repro.values.semiring import get_op_pair


class TestBasics:
    def test_accumulates_parallel_edges(self):
        b = StreamingAdjacencyBuilder(get_op_pair("plus_times"))
        b.add_edge("e1", "a", "b", 120)
        b.add_edge("e2", "a", "b", 30)
        assert b.adjacency()["a", "b"] == 150
        assert b.num_edges == 2

    def test_default_values_are_one(self):
        b = StreamingAdjacencyBuilder(get_op_pair("plus_times"))
        b.add_edge("e1", "a", "b")
        assert b.adjacency()["a", "b"] == 1

    def test_duplicate_key_rejected(self):
        b = StreamingAdjacencyBuilder(get_op_pair("plus_times"))
        b.add_edge("e1", "a", "b")
        with pytest.raises(GraphError, match="duplicate"):
            b.add_edge("e1", "a", "c")

    def test_zero_value_rejected(self):
        b = StreamingAdjacencyBuilder(get_op_pair("plus_times"))
        with pytest.raises(GraphError, match="nonzero"):
            b.add_edge("e1", "a", "b", 0)

    def test_add_edges_bulk(self):
        b = StreamingAdjacencyBuilder(get_op_pair("plus_times"))
        b.add_edges([("e1", "a", "b"), ("e2", "b", "c", 4, 2)])
        assert b.adjacency()["b", "c"] == 8
        with pytest.raises(GraphError, match="tuple"):
            b.add_edges([("e3", "a")])

    def test_unsafe_pair_rejected_by_default(self):
        with pytest.raises(ValueError, match="Theorem II.1"):
            StreamingAdjacencyBuilder(get_op_pair("int_plus_times"))

    def test_unsafe_override(self):
        b = StreamingAdjacencyBuilder(get_op_pair("int_plus_times"),
                                      unsafe_ok=True)
        b.add_edge("e1", "a", "b", 5)
        b.add_edge("e2", "a", "b", -5)
        # The cancellation the theorem warns about: edge exists, entry gone.
        assert not is_adjacency_array_of_graph(b.adjacency(), b.graph(),
                                               check_keys=False) \
            or b.adjacency().nnz == 0

    def test_order_sensitivity_flag(self):
        assert not StreamingAdjacencyBuilder(
            get_op_pair("plus_times")).order_sensitive
        assert StreamingAdjacencyBuilder(
            get_op_pair("skew_plus_times")).order_sensitive


#: Edges the builder must refuse, by case: the edge and the field its
#: refusal names.  The ``-1.0`` out-value would cancel an ``a → b``
#: edge of out-value ``1.0``: Lemma II.2's zero-sum witness, outside
#: ``+.×``'s value set (the non-negative reals).  An int past float
#: range makes the domain check itself raise ``OverflowError``.
BAD_EDGES = {
    "unhashable_key": ((["x"], "a", "b"), "key"),
    "unhashable_vertex": (("k", {"v": 1}, "b"), "src"),
    "text_weight": (("k", "a", "b", "abc", 1.0), "w_out"),
    "zero_sum_pair": (("k", "a", "b", -1.0, 1.0), "w_out"),
    "huge_int_weight": (("k", "a", "b", 1.0, 10 ** 400), "w_in"),
}


class TestRefusals:
    """A refused edge changes nothing: not the pending edges, not the
    accumulator, and not the next good batch."""

    @pytest.mark.parametrize("case", sorted(BAD_EDGES))
    def test_bad_edge_refused_before_any_state_changes(self, case):
        bad, field = BAD_EDGES[case]
        b = StreamingAdjacencyBuilder(get_op_pair("plus_times"))
        b.add_edge("p0", "a", "b", 1.0, 1.0)
        before = b.adjacency()
        with pytest.raises(ValueError, match=f"^{field} "):
            b.add_edge(*bad)
        # The good edges before it fold into a held cell and a new one.
        with pytest.raises(GraphError, match=f"^edge 2: {field} "):
            b.add_edges([("g1", "a", "b", 2.0, 1.0),
                         ("g2", "a", "c", 2.0, 1.0), bad])
        assert b.num_edges == 1
        assert b.adjacency() == before
        assert b.add_edges([("g3", "a", "c", 2.0, 1.0)]) == 1
        adj = b.adjacency()
        assert (adj["a", "b"], adj["a", "c"]) == (1.0, 2.0)
        assert adj == b.batch_adjacency()


class TestEquivalenceWithBatch:
    @pytest.mark.parametrize("pair_name", [
        "plus_times", "max_times", "min_plus", "max_min", "or_and"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_streaming_equals_batch(self, pair_name, seed):
        pair = get_op_pair(pair_name)
        graph = erdos_renyi_multigraph(8, 30, seed=seed)
        rng = random.Random(seed + 7)
        keys = list(graph.edge_keys)
        out_vals = dict(zip(keys, pair.domain.sample(
            rng, len(keys), exclude=pair.zero)))
        in_vals = dict(zip(keys, pair.domain.sample(
            rng, len(keys), exclude=pair.zero)))

        b = StreamingAdjacencyBuilder(pair)
        arrival = list(graph.edges())
        rng.shuffle(arrival)  # stream in arbitrary arrival order
        for k, s, t in arrival:
            b.add_edge(k, s, t, out_vals[k], in_vals[k])

        streamed = b.adjacency()
        batch = b.batch_adjacency()
        # allclose: float ⊕ is associative/commutative only up to an ulp.
        assert streamed.allclose(batch)
        assert is_adjacency_array_of_graph(streamed, graph)

    def test_order_sensitive_pair_may_diverge(self):
        """For the non-associative ⊕̃, arrival order ≠ key order can
        change values (never the pattern)."""
        pair = get_op_pair("skew_plus_times")
        b = StreamingAdjacencyBuilder(pair)
        # Reverse arrival order relative to key order.
        b.add_edge("k2", "a", "b", 2, 1)
        b.add_edge("k1", "a", "b", 1, 1)
        streamed = b.adjacency()
        batch = b.batch_adjacency()
        assert streamed.same_pattern(batch)
        # ⊕̃ folded as (2 ⊕̃ 1) vs (1 ⊕̃ 2):
        assert streamed["a", "b"] == pair.add(2, 1)
        assert batch["a", "b"] == pair.add(1, 2)
        assert streamed["a", "b"] != batch["a", "b"]


class TestRemoval:
    def test_remove_edge_rebuilds_cell(self):
        b = StreamingAdjacencyBuilder(get_op_pair("plus_times"))
        b.add_edge("e1", "a", "b", 10)
        b.add_edge("e2", "a", "b", 7)
        b.remove_edge("e1")
        assert b.adjacency()["a", "b"] == 7
        assert b.num_edges == 1

    def test_remove_last_parallel_clears_entry(self):
        b = StreamingAdjacencyBuilder(get_op_pair("plus_times"))
        b.add_edge("e1", "a", "b")
        b.remove_edge("e1")
        assert b.adjacency().nnz == 0

    def test_remove_unknown(self):
        b = StreamingAdjacencyBuilder(get_op_pair("plus_times"))
        with pytest.raises(GraphError, match="unknown edge"):
            b.remove_edge("nope")

    def test_remove_then_matches_batch(self):
        pair = get_op_pair("max_min")
        b = StreamingAdjacencyBuilder(pair)
        b.add_edge("e1", "a", "b", 5, 9)
        b.add_edge("e2", "a", "b", 2, 3)
        b.add_edge("e3", "b", "c", 4, 4)
        b.remove_edge("e1")
        assert b.adjacency() == b.batch_adjacency()


class TestOutputs:
    def test_graph_roundtrip(self, small_graph):
        b = StreamingAdjacencyBuilder(get_op_pair("plus_times"))
        for k, s, t in small_graph.edges():
            b.add_edge(k, s, t)
        assert b.graph() == small_graph

    def test_incidence_arrays_are_valid(self, small_graph):
        from repro.graphs.incidence import (
            is_source_incidence_of,
            is_target_incidence_of,
        )
        b = StreamingAdjacencyBuilder(get_op_pair("plus_times"))
        for k, s, t in small_graph.edges():
            b.add_edge(k, s, t)
        eout, ein = b.incidence_arrays()
        assert is_source_incidence_of(eout, small_graph)
        assert is_target_incidence_of(ein, small_graph)


class TestAdjacencyBackend:
    """adjacency() adopts the numeric backend when the values qualify."""

    def test_large_numeric_accumulator_is_numeric_backed(self):
        b = StreamingAdjacencyBuilder(get_op_pair("plus_times"))
        for i in range(300):
            b.add_edge(f"e{i}", f"s{i}", f"t{i}", float(i + 1))
        adj = b.adjacency()
        assert adj.backend == "numeric"
        assert adj["s7", "t7"] == 8.0

    def test_small_accumulator_stays_dict_with_exact_types(self):
        b = StreamingAdjacencyBuilder(get_op_pair("plus_times"))
        b.add_edge("e1", "a", "b", 120)
        b.add_edge("e2", "a", "b", 30)
        adj = b.adjacency()
        assert adj.backend == "dict"
        assert adj["a", "b"] == 150 and isinstance(adj["a", "b"], int)

    def test_backend_numeric_forces_columnar(self):
        b = StreamingAdjacencyBuilder(get_op_pair("plus_times"))
        b.add_edge("e1", "a", "b", 2.0)
        assert b.adjacency(backend="numeric").backend == "numeric"

    def test_backend_dict_pins(self):
        b = StreamingAdjacencyBuilder(get_op_pair("plus_times"))
        for i in range(300):
            b.add_edge(f"e{i}", f"s{i}", f"t{i}")
        adj = b.adjacency(backend="dict")
        assert adj.backend == "dict" and adj.pinned

    def test_non_numeric_values_stay_dict(self):
        pair = get_op_pair("max_concat")
        b = StreamingAdjacencyBuilder(pair)
        for i in range(300):
            b.add_edge(f"e{i:03d}", f"s{i}", f"t{i}", "x", "y")
        adj = b.adjacency()
        assert adj.backend == "dict"
        assert adj["s7", "t7"] == "xy"

    def test_numeric_and_dict_results_agree(self):
        pair = get_op_pair("plus_times")
        b = StreamingAdjacencyBuilder(pair)
        for i in range(280):
            b.add_edge(f"e{i}", f"s{i % 17}", f"t{(i * 5) % 13}",
                       float(1 + i % 4))
        assert b.adjacency().allclose(b.adjacency(backend="dict"))
