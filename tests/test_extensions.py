"""Tests for the extension algebras (log semiring, Viterbi, lex pairs)."""

from __future__ import annotations

import math
import random

import pytest

from repro.core.certify import certify
from repro.core.construction import (
    adjacency_array,
    is_adjacency_array_of_graph,
)
from repro.graphs.digraph import EdgeKeyedDigraph
from repro.graphs.generators import erdos_renyi_multigraph
from repro.graphs.incidence import incidence_arrays
from repro.values.extensions import (
    LEX_MIN,
    LEX_MIN_PLUS,
    LOG_SEMIRING,
    LOGADDEXP,
    PAIR_PLUS,
    LexicographicPairs,
    UnitInterval,
    VITERBI_MAX_TIMES,
)


class TestDomains:
    def test_unit_interval_membership(self):
        d = UnitInterval()
        assert d.contains(0.0) and d.contains(1.0) and d.contains(0.5)
        assert not d.contains(1.1) and not d.contains(-0.1)

    def test_unit_interval_samples(self):
        d = UnitInterval()
        assert all(d.contains(v)
                   for v in d.sample(random.Random(1), 50))

    def test_lex_pairs_membership(self):
        d = LexicographicPairs()
        assert d.contains((1.0, 2.0))
        assert d.contains(d.TOP)
        assert not d.contains((math.inf, 3.0))   # only TOP has ∞
        assert not d.contains((1.0,))
        assert not d.contains("x")

    def test_lex_pairs_samples(self):
        d = LexicographicPairs()
        assert all(d.contains(v)
                   for v in d.sample(random.Random(1), 50))


class TestOperations:
    def test_logaddexp_matches_math(self):
        got = LOGADDEXP(math.log(0.3), math.log(0.2))
        assert math.isclose(got, math.log(0.5))

    def test_logaddexp_identity(self):
        assert LOGADDEXP(-math.inf, 1.5) == 1.5
        assert LOGADDEXP(1.5, -math.inf) == 1.5

    def test_lex_min_prefers_cost_then_hops(self):
        assert LEX_MIN((3.0, 5.0), (3.0, 2.0)) == (3.0, 2.0)
        assert LEX_MIN((2.0, 9.0), (3.0, 0.0)) == (2.0, 9.0)

    def test_pair_plus_componentwise(self):
        assert PAIR_PLUS((1.0, 2.0), (3.0, 4.0)) == (4.0, 6.0)

    def test_pair_plus_top_annihilates(self):
        top = LexicographicPairs.TOP
        assert PAIR_PLUS((1.0, 2.0), top) == top
        assert PAIR_PLUS(top, (1.0, 2.0)) == top


class TestCertification:
    @pytest.mark.parametrize("pair", [
        LOG_SEMIRING, VITERBI_MAX_TIMES, LEX_MIN_PLUS,
    ], ids=lambda p: p.name)
    def test_certified_safe(self, pair):
        cert = certify(pair, seed=21)
        assert cert.safe, cert.summary()


class TestAdjacencyConstruction:
    def test_log_semiring_sums_probabilities(self):
        """Two parallel edges with probabilities 0.3, 0.2 (stored as
        logs) produce log(0.5)."""
        g = EdgeKeyedDigraph([("e1", "a", "b"), ("e2", "a", "b")])
        pair = LOG_SEMIRING
        eout, ein = incidence_arrays(
            g, zero=pair.zero,
            out_values={"e1": math.log(0.3), "e2": math.log(0.2)},
            in_values=pair.one)
        adj = adjacency_array(eout, ein, pair, kernel="generic")
        assert math.isclose(adj["a", "b"], math.log(0.5))
        assert is_adjacency_array_of_graph(adj, g)

    def test_log_semiring_vectorized_kernel_agrees(self):
        from repro.arrays.matmul import multiply_generic
        from repro.arrays.sparse_backend import multiply_vectorized
        pair = LOG_SEMIRING
        graph = erdos_renyi_multigraph(8, 30, seed=9)
        rng = random.Random(10)
        logs = {k: math.log(rng.uniform(0.05, 1.0))
                for k in graph.edge_keys}
        eout, ein = incidence_arrays(graph, zero=pair.zero,
                                     out_values=logs, in_values=pair.one)
        a, b = eout.transpose(), ein
        ref = multiply_generic(a, b, pair)
        got = multiply_vectorized(a, b, pair, kernel="sortmerge")
        assert got.allclose(ref)

    def test_viterbi_selects_most_probable_edge(self):
        g = EdgeKeyedDigraph([("e1", "a", "b"), ("e2", "a", "b")])
        pair = VITERBI_MAX_TIMES
        eout, ein = incidence_arrays(
            g, out_values={"e1": 0.3, "e2": 0.8}, in_values=1.0)
        adj = adjacency_array(eout, ein, pair, kernel="generic")
        assert adj["a", "b"] == 0.8

    def test_lex_pairs_tuple_valued_adjacency(self):
        """Cheapest-then-fewest-hops over parallel routes."""
        g = EdgeKeyedDigraph([("e1", "a", "b"), ("e2", "a", "b"),
                              ("e3", "a", "b")])
        pair = LEX_MIN_PLUS
        eout, ein = incidence_arrays(
            g, zero=pair.zero,
            out_values={"e1": (5.0, 1.0), "e2": (3.0, 4.0),
                        "e3": (3.0, 2.0)},
            in_values=pair.one)
        adj = adjacency_array(eout, ein, pair, kernel="generic")
        # Cost 3 beats cost 5; among cost-3 routes, 2 hops beats 4.
        assert adj["a", "b"] == (3.0, 2.0)
        assert is_adjacency_array_of_graph(adj, g)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lex_pairs_random_graphs_still_adjacency(self, seed):
        pair = LEX_MIN_PLUS
        graph = erdos_renyi_multigraph(7, 25, seed=seed)
        rng = random.Random(seed + 50)
        keys = list(graph.edge_keys)
        ow = dict(zip(keys, pair.domain.sample(rng, len(keys),
                                               exclude=pair.zero)))
        iw = dict(zip(keys, pair.domain.sample(rng, len(keys),
                                               exclude=pair.zero)))
        eout, ein = incidence_arrays(graph, zero=pair.zero,
                                     out_values=ow, in_values=iw)
        adj = adjacency_array(eout, ein, pair, kernel="generic")
        assert is_adjacency_array_of_graph(adj, graph)
