"""Property tests for the structural extensions (kron, streaming,
reductions).
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arrays.kron import kron, kronecker_graph, pair_key
from repro.arrays.matmul import multiply
from repro.arrays.reductions import reduce_rows
from repro.core.construction import adjacency_array
from repro.core.streaming import StreamingAdjacencyBuilder
from repro.graphs.incidence import incidence_arrays
from repro.values.operations import AND, PLUS
from repro.values.semiring import get_op_pair

from tests.property.strategies import graph_with_values, graphs


@st.composite
def arrays(draw, max_dim: int = 5):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    rows = [f"r{i}" for i in range(m)]
    cols = [f"c{i}" for i in range(n)]
    entries = draw(st.dictionaries(
        st.tuples(st.sampled_from(rows), st.sampled_from(cols)),
        st.integers(1, 9), max_size=m * n))
    from repro.arrays.associative import AssociativeArray
    return AssociativeArray({rc: float(v) for rc, v in entries.items()},
                            row_keys=rows, col_keys=cols)


COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


class TestKronLaws:
    @settings(max_examples=30, **COMMON)
    @given(a=arrays(max_dim=4), b=arrays(max_dim=4))
    def test_nnz_multiplicative_without_zero_divisors(self, a, b):
        from repro.values.operations import TIMES
        c = kron(a, b, TIMES)
        assert c.nnz == a.nnz * b.nnz

    @settings(max_examples=20, **COMMON)
    @given(g=graphs(max_edges=5), h=graphs(max_edges=5))
    def test_weischel_property_random(self, g, h):
        """Adjacency(G ⊗ H) pattern == kron of adjacency patterns."""
        pair = get_op_pair("or_and")

        def bool_adjacency(graph):
            eout, ein = incidence_arrays(graph, one=True, zero=False)
            adj = adjacency_array(eout, ein, pair, kernel="generic")
            verts = graph.vertices
            return adj.with_keys(row_keys=verts, col_keys=verts)

        left = kron(bool_adjacency(g), bool_adjacency(h), AND, zero=False)
        right = bool_adjacency(kronecker_graph(g, h))
        assert left.nonzero_pattern() == right.nonzero_pattern()


class TestStreamingLaws:
    @settings(max_examples=25, **COMMON)
    @given(data=graph_with_values(get_op_pair("plus_times")),
           order_seed=st.integers(0, 2**16))
    def test_streaming_equals_batch_any_arrival_order(self, data,
                                                      order_seed):
        graph, out_vals, in_vals = data
        pair = get_op_pair("plus_times")
        builder = StreamingAdjacencyBuilder(pair)
        arrival = list(graph.edges())
        random.Random(order_seed).shuffle(arrival)
        for k, s, t in arrival:
            builder.add_edge(k, s, t, out_vals[k], in_vals[k])
        # allclose, not ==: float + is only associative up to an ulp, and
        # arrival order differs from key order by construction here.
        assert builder.adjacency().allclose(builder.batch_adjacency())

    @settings(max_examples=25, **COMMON)
    @given(data=graph_with_values(get_op_pair("max_min")),
           removals=st.integers(0, 3))
    def test_removal_consistency(self, data, removals):
        graph, out_vals, in_vals = data
        pair = get_op_pair("max_min")
        builder = StreamingAdjacencyBuilder(pair)
        for k, s, t in graph.edges():
            builder.add_edge(k, s, t, out_vals[k], in_vals[k])
        keys = list(graph.edge_keys)
        for k in keys[:removals]:
            builder.remove_edge(k)
        assert builder.adjacency() == builder.batch_adjacency()


class TestReductionLaws:
    @settings(max_examples=40, **COMMON)
    @given(a=arrays())
    def test_row_reduction_equals_ones_vector_product(self, a):
        """``reduce_rows(A, +)`` equals ``A ⊕.⊗ 1`` — reduction as a
        matvec with the all-ones column, the GraphBLAS identity."""
        from repro.arrays.associative import AssociativeArray
        pair = get_op_pair("plus_times")
        ones = AssociativeArray({(c, "§"): 1.0 for c in a.col_keys},
                                row_keys=a.col_keys, col_keys=["§"])
        via_product = multiply(a, ones, pair, kernel="generic")
        direct = reduce_rows(a, PLUS)
        got = {r: via_product.get(r, "§")
               for r in via_product.rows_nonempty()}
        assert got == direct
