"""Tests for semiring graph algorithms, cross-checked against networkx."""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest

from repro.arrays.associative import AssociativeArray
from repro.core.construction import adjacency_array
import repro.graphs.algorithms as algorithms
from repro.graphs.algorithms import (
    bfs_levels,
    in_degrees,
    khop_kernel,
    out_degrees,
    semiring_khop,
    semiring_vecmat,
    shortest_path_lengths,
    triangle_count,
    weakly_connected_components,
    widest_path_widths,
)
from repro.graphs.digraph import EdgeKeyedDigraph, GraphError
from repro.graphs.generators import erdos_renyi_multigraph, rmat_multigraph
from repro.graphs.incidence import incidence_arrays
from repro.values.semiring import get_op_pair


def _square_adjacency(graph, pair_name="or_and", weights=None):
    """Adjacency array over the full vertex set (square).

    Edge weights (if given) ride on ``Eout``; ``Ein`` carries the op-pair's
    ⊗-identity so the adjacency entry combines *only* the edge weights.
    """
    pair = get_op_pair(pair_name)
    if pair_name == "or_and":
        kwargs = {"one": True, "zero": False}
    else:
        kwargs = {"zero": pair.zero}
        if weights is not None:
            kwargs.update(out_values=weights, in_values=pair.one)
    eout, ein = incidence_arrays(graph, **kwargs)
    adj = adjacency_array(eout, ein, pair, kernel="generic")
    verts = graph.vertices
    return adj.with_keys(row_keys=verts, col_keys=verts)


def _nx_digraph(graph):
    g = nx.DiGraph()
    g.add_nodes_from(graph.vertices)
    g.add_edges_from(graph.edge_pairs())
    return g


class TestBfs:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_levels_match_networkx(self, seed):
        graph = erdos_renyi_multigraph(12, 30, seed=seed)
        adj = _square_adjacency(graph)
        source = tuple(graph.vertices)[0]
        got = bfs_levels(adj, source)
        want = nx.single_source_shortest_path_length(
            _nx_digraph(graph), source)
        assert got == dict(want)

    def test_max_levels_truncates(self):
        graph = EdgeKeyedDigraph.from_pairs(
            [("a", "b"), ("b", "c"), ("c", "d")])
        adj = _square_adjacency(graph)
        got = bfs_levels(adj, "a", max_levels=1)
        assert got == {"a": 0, "b": 1}

    def test_unknown_source(self):
        graph = EdgeKeyedDigraph.from_pairs([("a", "b")])
        adj = _square_adjacency(graph)
        with pytest.raises(GraphError):
            bfs_levels(adj, "zz")

    def test_requires_square(self):
        graph = EdgeKeyedDigraph.from_pairs([("a", "b")])
        pair = get_op_pair("or_and")
        eout, ein = incidence_arrays(graph, one=True, zero=False)
        adj = adjacency_array(eout, ein, pair, kernel="generic")
        with pytest.raises(GraphError, match="square"):
            bfs_levels(adj, "a")


class TestShortestPaths:
    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_match_networkx_dijkstra(self, seed):
        import random
        graph = erdos_renyi_multigraph(10, 35, seed=seed)
        rng = random.Random(seed)
        weights = {k: float(rng.randint(1, 9)) for k in graph.edge_keys}
        adj = _square_adjacency(graph, "min_plus", weights)
        source = tuple(graph.vertices)[0]
        got = shortest_path_lengths(adj, source)

        g = nx.MultiDiGraph()
        g.add_nodes_from(graph.vertices)
        for k, s, t in graph.edges():
            g.add_edge(s, t, weight=weights[k])
        want = nx.single_source_dijkstra_path_length(g, source)
        assert set(got) == set(want)
        for v in want:
            assert math.isclose(got[v], want[v]), v

    def test_line_graph_distances(self):
        graph = EdgeKeyedDigraph.from_pairs([("a", "b"), ("b", "c")])
        weights = {"e000": 2.0, "e001": 5.0}
        adj = _square_adjacency(graph, "min_plus", weights)
        got = shortest_path_lengths(adj, "a")
        assert got == {"a": 0.0, "b": 2.0, "c": 7.0}


class TestWidestPaths:
    def test_bottleneck_hand_case(self):
        # a → b (width 5) → c (width 2); direct a → c width 1.
        graph = EdgeKeyedDigraph([
            ("e1", "a", "b"), ("e2", "b", "c"), ("e3", "a", "c")])
        weights = {"e1": 5.0, "e2": 2.0, "e3": 1.0}
        adj = _square_adjacency(graph, "max_min", weights)
        got = widest_path_widths(adj, "a")
        assert got["b"] == 5.0
        assert got["c"] == 2.0  # via b beats the direct width-1 edge

    def test_source_width_infinite(self):
        graph = EdgeKeyedDigraph.from_pairs([("a", "b")])
        adj = _square_adjacency(graph, "max_min", {"e000": 3.0})
        assert widest_path_widths(adj, "a")["a"] == math.inf


class TestComponents:
    @pytest.mark.parametrize("seed", [7, 8])
    def test_match_networkx(self, seed):
        graph = erdos_renyi_multigraph(14, 10, seed=seed)
        adj = _square_adjacency(graph)
        got = weakly_connected_components(adj)
        want_sets = list(nx.weakly_connected_components(_nx_digraph(graph)))
        got_sets = {}
        for v, label in got.items():
            got_sets.setdefault(label, set()).add(v)
        assert sorted(map(sorted, got_sets.values())) \
            == sorted(map(sorted, want_sets))

    def test_labels_ordered_by_smallest_vertex(self):
        graph = EdgeKeyedDigraph.from_pairs([("a", "b"), ("x", "y")])
        adj = _square_adjacency(graph)
        comp = weakly_connected_components(adj)
        assert comp["a"] == 0 and comp["x"] == 1


class TestTriangles:
    @pytest.mark.parametrize("seed", [9, 10, 11])
    def test_match_networkx(self, seed):
        graph = erdos_renyi_multigraph(10, 40, seed=seed)
        adj = _square_adjacency(graph)
        got = triangle_count(adj)
        und = nx.Graph()
        und.add_nodes_from(graph.vertices)
        und.add_edges_from((s, t) for s, t in graph.edge_pairs() if s != t)
        want = sum(nx.triangles(und).values()) // 3
        assert got == want

    def test_hand_triangle(self):
        graph = EdgeKeyedDigraph.from_pairs(
            [("a", "b"), ("b", "c"), ("c", "a")])
        adj = _square_adjacency(graph)
        assert triangle_count(adj) == 1


class TestDegreesAndVecmat:
    def test_degrees(self, small_graph):
        adj = _square_adjacency(small_graph)
        outs = out_degrees(adj)
        ins = in_degrees(adj)
        # Pattern degrees (parallels collapsed): a→b, b→c, c→c.
        assert outs == {"a": 1, "b": 1, "c": 1}
        assert ins == {"a": 0, "b": 1, "c": 2}

    def test_vecmat_plus_times(self):
        graph = EdgeKeyedDigraph.from_pairs([("a", "b"), ("a", "c")])
        adj = _square_adjacency(graph, "plus_times",
                                {"e000": 2.0, "e001": 3.0})
        y = semiring_vecmat({"a": 10.0}, adj, get_op_pair("plus_times"))
        assert y == {"b": 20.0, "c": 30.0}

    def test_vecmat_elides_zeros(self):
        graph = EdgeKeyedDigraph.from_pairs([("a", "b")])
        adj = _square_adjacency(graph, "plus_times", {"e000": 2.0})
        y = semiring_vecmat({"c": 1.0}, adj, get_op_pair("plus_times"))
        assert y == {}


def _small(data, keys, zero=0.0):
    return AssociativeArray(data, row_keys=keys, col_keys=keys, zero=zero)


def _music_square(seed: int = 11, scale: int = 6, edges: int = 120):
    """A +.× adjacency over an R-MAT multigraph, squared over its
    vertex union."""
    pair = get_op_pair("plus_times")
    graph = rmat_multigraph(scale, edges, seed=seed)
    weights = {k: float(1 + (i % 7)) for i, k in enumerate(graph.edge_keys)}
    eout, ein = incidence_arrays(graph, zero=pair.zero, out_values=weights,
                                 in_values=weights)
    a = adjacency_array(eout, ein, pair)
    vertices = a.row_keys.union(a.col_keys)
    return a.with_keys(vertices, vertices)


class TestKhop:
    PAIR = get_op_pair("plus_times")

    def test_khop_chain_matches_vecmat_loop(self):
        a = _music_square()
        source = next(iter(a.rows_nonempty()))
        frontier = {source: self.PAIR.one}
        for _ in range(3):
            frontier = semiring_vecmat(frontier, a, self.PAIR)
        numeric = a.with_backend("numeric")
        assert khop_kernel(numeric, self.PAIR) == "sortmerge"
        assert semiring_khop(a, source, 3, self.PAIR) == frontier
        assert semiring_khop(numeric, source, 3, self.PAIR) == frontier

    def test_khop_zero_hops_and_degenerate_pair(self):
        a = _small({("a", "b"): 1.0}, ["a", "b"])
        assert semiring_khop(a, "a", 0, self.PAIR) == {"a": self.PAIR.one}
        # nonneg_max_plus has one == zero: falls back to the loop.
        degenerate = get_op_pair("nonneg_max_plus")
        assert khop_kernel(a.with_backend("numeric"), degenerate) \
            == "generic"
        assert semiring_khop(a, "a", 1, degenerate) == \
            semiring_vecmat({"a": degenerate.one}, a, degenerate)

    def test_vecmat_matches_reference(self):
        a = _music_square(edges=150)
        vec = {v: float(i + 1) for i, v in enumerate(list(a.row_keys)[:5])}
        assert semiring_vecmat(vec, a.with_backend("numeric"), self.PAIR) \
            == semiring_vecmat(vec, a.with_backend("dict"), self.PAIR)

    @pytest.mark.parametrize("backend", ["dict", "numeric"])
    def test_500_hop_cycle_walk(self, backend):
        a = _small({("a", "b"): 1.0, ("b", "a"): 1.0},
                   ["a", "b"]).with_backend(backend)
        # Even-length walk around the 2-cycle.
        assert semiring_khop(a, "a", 500, self.PAIR) == {"a": 1.0}

    @pytest.mark.parametrize("backend, step", [
        ("dict", "semiring_vecmat"), ("numeric", "sortmerge_vecmat")])
    def test_emptied_frontier_stops_after_one_step(self, monkeypatch,
                                                   backend, step):
        # b is a dead end: the frontier empties after one hop, and the
        # remaining 254 hops must not run.
        a = _small({("a", "b"): 2.0}, ["a", "b"]).with_backend(backend)
        real = getattr(algorithms, step)
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(algorithms, step, counted)
        assert semiring_khop(a, "b", 255, self.PAIR) == {}
        assert len(calls) == 1

    def test_non_square_refused(self):
        a = AssociativeArray({("a", "b"): 1.0}, row_keys=["a"],
                             col_keys=["a", "b"])
        with pytest.raises(GraphError, match="square"):
            semiring_khop(a, "a", 1, self.PAIR)

    def test_unknown_source_refused(self):
        a = _small({("a", "b"): 1.0}, ["a", "b"])
        with pytest.raises(GraphError, match="not a vertex"):
            semiring_khop(a, "zz", 1, self.PAIR)

    def test_negative_k_refused(self):
        a = _small({("a", "b"): 1.0}, ["a", "b"])
        with pytest.raises(GraphError, match="k must be"):
            semiring_khop(a, "a", -1, self.PAIR)

    def test_shortest_paths_take_no_product_argument(self):
        import inspect
        assert list(inspect.signature(shortest_path_lengths).parameters) \
            == ["adj", "source"]


class TestDegreesBackends:
    """Degrees agree across storage backends (CSR/CSC fast path)."""

    def test_numeric_matches_dict(self):
        rng = random.Random(11)
        data = {}
        for _ in range(400):
            data[(f"v{rng.randrange(40)}", f"v{rng.randrange(40)}")] = \
                float(rng.randrange(1, 9))
        keys = {r for r, _ in data} | {c for _, c in data}
        arr = AssociativeArray(data, row_keys=keys, col_keys=keys)
        numeric = arr.with_backend("numeric")
        pinned = arr.with_backend("dict")
        assert out_degrees(numeric) == out_degrees(pinned)
        assert in_degrees(numeric) == in_degrees(pinned)
        assert sum(out_degrees(numeric).values()) == arr.nnz

    def test_counts_are_python_ints(self):
        arr = AssociativeArray(
            {("a", "b"): 1.0, ("a", "c"): 2.0},
            row_keys="abc", col_keys="abc").with_backend("numeric")
        outs = out_degrees(arr)
        assert outs == {"a": 2, "b": 0, "c": 0}
        assert all(type(v) is int for v in outs.values())

    def test_empty_rows_and_cols_counted_as_zero(self):
        arr = AssociativeArray(
            {("a", "b"): 1.0}, row_keys="abcd",
            col_keys="abcd").with_backend("numeric")
        assert out_degrees(arr) == {"a": 1, "b": 0, "c": 0, "d": 0}
        assert in_degrees(arr) == {"a": 0, "b": 1, "c": 0, "d": 0}
