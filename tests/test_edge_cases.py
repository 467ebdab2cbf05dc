"""Edge cases and failure injection across the stack.

Inputs a production system meets eventually: empty everything, unicode
keys, NaN values, degenerate graphs, single-element domains, deep
parallel-edge stacks.
"""

from __future__ import annotations

import math

import pytest

from repro.arrays.associative import AssociativeArray
from repro.arrays.keys import KeySet
from repro.arrays.matmul import multiply
from repro.core.construction import (
    adjacency_array,
    is_adjacency_array_of_graph,
)
from repro.graphs.digraph import EdgeKeyedDigraph
from repro.graphs.incidence import incidence_arrays
from repro.values.semiring import get_op_pair


class TestEmptyEverything:
    def test_empty_array_roundtrips(self):
        a = AssociativeArray.empty([], [])
        assert a.shape == (0, 0) and a.nnz == 0
        assert a.T == a
        assert a.to_dense() == []
        assert str(a) == ""

    def test_empty_times_empty(self):
        pair = get_op_pair("plus_times")
        a = AssociativeArray.empty([], [])
        c = multiply(a, a, pair)
        assert c.nnz == 0

    def test_single_edge_graph(self):
        g = EdgeKeyedDigraph([("only", "u", "v")])
        eout, ein = incidence_arrays(g)
        adj = adjacency_array(eout, ein, get_op_pair("plus_times"))
        assert adj.to_dict() == {("u", "v"): 1}

    def test_empty_keyset_selects(self):
        ks = KeySet()
        assert len(ks.select(":")) == 0
        assert len(ks.starting_with("x")) == 0


class TestUnicodeAndOddKeys:
    def test_unicode_keys_sort_and_select(self):
        a = AssociativeArray({("ключ", "colonne|déjà"): 1,
                              ("キー", "colonne|été"): 2})
        assert a.nnz == 2
        sub = a.select(":", "colonne|*")
        assert sub.nnz == 2

    def test_keys_with_separator_chars(self):
        # Column keys containing ':' or '*' are fine as literal keys when
        # selected via lists.
        a = AssociativeArray({("r", "weird:key*"): 1})
        assert a.select(":", ["weird:key*"]).nnz == 1

    def test_numeric_vertex_keys(self):
        g = EdgeKeyedDigraph([(0, 10, 20), (1, 10, 30)])
        eout, ein = incidence_arrays(g)
        adj = adjacency_array(eout, ein, get_op_pair("plus_times"))
        assert adj.get(10, 20) == 1


class TestNaNHandling:
    def test_nan_values_are_stored_not_dropped(self):
        a = AssociativeArray({("r", "c"): math.nan})
        assert a.nnz == 1  # NaN != 0 → stored

    def test_nan_zero_array(self):
        nan = math.nan
        a = AssociativeArray({("r", "c"): 1.0, ("r", "d"): nan},
                             zero=nan)
        # The NaN entry equals the NaN zero (NaN-aware) and is dropped.
        assert a.nnz == 1

    def test_allclose_with_nan_values(self):
        a = AssociativeArray({("r", "c"): math.nan})
        b = AssociativeArray({("r", "c"): math.nan})
        assert a.allclose(b)


class TestDeepParallelStacks:
    def test_fifty_parallel_edges(self):
        g = EdgeKeyedDigraph((f"e{i:03d}", "a", "b") for i in range(50))
        eout, ein = incidence_arrays(g)
        pair = get_op_pair("plus_times")
        adj = adjacency_array(eout, ein, pair)
        assert adj["a", "b"] == 50
        assert is_adjacency_array_of_graph(adj, g)

    def test_fifty_self_loops(self):
        g = EdgeKeyedDigraph((f"e{i:03d}", "v", "v") for i in range(50))
        eout, ein = incidence_arrays(g)
        adj = adjacency_array(eout, ein, get_op_pair("max_min"))
        assert adj["v", "v"] == 1
        assert is_adjacency_array_of_graph(adj, g)


class TestMixedValueTypes:
    def test_int_float_mix_in_one_array(self):
        a = AssociativeArray({("r", "c"): 1, ("r", "d"): 2.5})
        pair = get_op_pair("plus_times")
        b = AssociativeArray({("c", "z"): 2, ("d", "z"): 2},
                             row_keys=["c", "d"], col_keys=["z"])
        c = multiply(a, b, pair, kernel="generic")
        assert c.get("r", "z") == 1 * 2 + 2.5 * 2

    def test_bool_values_with_or_and(self):
        pair = get_op_pair("or_and")
        a = AssociativeArray({("r", "k"): True}, zero=False)
        b = AssociativeArray({("k", "c"): True}, zero=False)
        c = multiply(a, b, pair)
        assert c.get("r", "c") is True


class TestLargeSanity:
    def test_thousand_edge_construction_is_adjacency(self):
        from repro.graphs.generators import rmat_multigraph
        g = rmat_multigraph(8, 1000, seed=123)
        eout, ein = incidence_arrays(g)
        pair = get_op_pair("plus_times")
        adj = adjacency_array(eout, ein, pair)
        assert is_adjacency_array_of_graph(adj, g)
        # Total weight equals edge count (unit values).
        from repro.arrays.reductions import total_reduce
        from repro.values.operations import PLUS
        assert total_reduce(adj, PLUS) == g.num_edges

    def test_kernels_agree_at_scale(self):
        from repro.arrays.sparse_backend import multiply_vectorized
        from repro.arrays.matmul import multiply_generic
        from repro.graphs.generators import rmat_multigraph
        g = rmat_multigraph(7, 600, seed=5)
        eout, ein = incidence_arrays(g)
        pair = get_op_pair("plus_times")
        a = eout.map_values(float).transpose()
        b = ein.map_values(float)
        ref = multiply_generic(a, b, pair)
        assert multiply_vectorized(a, b, pair,
                                   kernel="scipy").allclose(ref)
        assert multiply_vectorized(a, b, pair,
                                   kernel="sortmerge").allclose(ref)
