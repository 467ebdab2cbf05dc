"""End-to-end integration tests across the whole stack.

CSV → exploded incidence array → selection → certified correlation →
adjacency array → graph analytics — the full pipeline of the paper's
introduction, plus streaming-vs-batch and kernel-vs-kernel crossovers on
the same data.
"""

from __future__ import annotations

import io
import math

import pytest

import repro
from repro.arrays.io import explode_table, read_csv_table
from repro.arrays.reductions import reduce_rows
from repro.core.pipeline import GraphConstructionPipeline
from repro.core.streaming import StreamingAdjacencyBuilder
from repro.graphs.algorithms import bfs_levels, shortest_path_lengths
from repro.values.operations import PLUS
from repro.values.semiring import get_op_pair


CSV_TEXT = """\
flight,From,To,Airline,Minutes
f1,BOS,JFK,Delta,74
f2,BOS,JFK,JetBlue,78
f3,JFK,SFO,JetBlue,383
f4,SFO,BOS,United,330
f5,BOS,SFO,JetBlue,400
"""


class TestCsvToGraphPipeline:
    def test_full_pipeline(self):
        table = read_csv_table(io.StringIO(CSV_TEXT))
        pipe = GraphConstructionPipeline(table)

        # Airport-to-airport flight counts via +.× correlation of the
        # From/To incidence columns.
        counts = pipe.correlate("From|*", "To|*", "plus_times",
                                require_safe=True)
        assert counts["From|BOS", "To|JFK"] == 2
        assert counts["From|JFK", "To|SFO"] == 1

        # Airline-to-destination reachability over ∨.∧ ... via or_and on
        # patterns: use max_min as the numeric stand-in.
        reach = pipe.correlate("Airline|*", "To|*", "max_min")
        assert reach["Airline|JetBlue", "To|SFO"] == 1
        assert reach["Airline|Delta", "To|SFO"] == 0

    def test_explicit_edge_graph_and_analytics(self):
        """The same flights as an edge-keyed graph with minute weights."""
        g = repro.EdgeKeyedDigraph([
            ("f1", "BOS", "JFK"), ("f2", "BOS", "JFK"),
            ("f3", "JFK", "SFO"), ("f4", "SFO", "BOS"),
            ("f5", "BOS", "SFO"),
        ])
        minutes = {"f1": 74.0, "f2": 78.0, "f3": 383.0, "f4": 330.0,
                   "f5": 400.0}
        pair = get_op_pair("min_plus")
        eout, ein = repro.incidence_arrays(
            g, zero=pair.zero, out_values=minutes, in_values=pair.one)
        adj = repro.adjacency_array(eout, ein, pair)
        assert repro.is_adjacency_array_of_graph(adj, g)
        # min.+ collapsed the parallel BOS→JFK flights to the faster one.
        assert adj["BOS", "JFK"] == 74.0

        square = adj.with_keys(row_keys=g.vertices, col_keys=g.vertices)
        dist = shortest_path_lengths(square, "BOS")
        assert dist["SFO"] == min(74.0 + 383.0, 400.0)
        levels = bfs_levels(square, "BOS")
        assert levels == {"BOS": 0, "JFK": 1, "SFO": 1}


class TestStreamingMatchesPipeline:
    def test_streaming_flights(self):
        pair = get_op_pair("plus_times")
        b = StreamingAdjacencyBuilder(pair)
        b.add_edges([
            ("f1", "BOS", "JFK"), ("f2", "BOS", "JFK"),
            ("f3", "JFK", "SFO"), ("f4", "SFO", "BOS"),
            ("f5", "BOS", "SFO"),
        ])
        adj = b.adjacency()
        assert adj["BOS", "JFK"] == 2
        assert adj == b.batch_adjacency()


class TestKernelCrossoverOnSameData:
    def test_kernels_agree_on_exploded_data(self):
        table = read_csv_table(io.StringIO(CSV_TEXT))
        e = explode_table(table)
        e1 = e.select(":", "From|*").map_values(float)
        e2 = e.select(":", "To|*").map_values(float)
        pair = get_op_pair("plus_times")
        generic = repro.multiply(e1.T, e2, pair, kernel="generic")
        from repro.arrays.sparse_backend import multiply_vectorized
        sortmerge = multiply_vectorized(e1.T, e2, pair, kernel="sortmerge")
        scipy_k = multiply_vectorized(e1.T, e2, pair, kernel="scipy")
        assert generic.allclose(sortmerge)
        assert generic.allclose(scipy_k)


class TestReductionsOnMusic:
    def test_genre_track_counts(self):
        """reduce over E1ᵀ rows = tracks per genre (Figure 2 margins)."""
        from repro.datasets.music import music_e1
        sums = reduce_rows(music_e1().T, PLUS)
        assert sums == {"Genre|Electronic": 10, "Genre|Pop": 14,
                        "Genre|Rock": 6}

    def test_music_cross_check_totals(self):
        """Row sums of the Fig 3 +.× product equal genre incidence
        weights — the identity that pinned the dataset reconstruction."""
        from repro.datasets.music import music_e1, music_e2
        from repro.core.construction import correlate
        pair = get_op_pair("plus_times")
        adj = correlate(music_e1(), music_e2(), pair)
        sums = reduce_rows(adj, PLUS)
        assert sums == {"Genre|Electronic": 18, "Genre|Pop": 29,
                        "Genre|Rock": 13}
