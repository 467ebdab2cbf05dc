"""Tests for repro.core.construction (the paper's central operation)."""

from __future__ import annotations

import pytest

from repro.arrays.associative import AssociativeArray
from repro.arrays.matmul import MatmulError
from repro.core.construction import (
    adjacency_array,
    correlate,
    expected_adjacency_pattern,
    is_adjacency_array_of,
    is_adjacency_array_of_graph,
    reverse_adjacency_array,
)
from repro.graphs.digraph import EdgeKeyedDigraph
from repro.graphs.incidence import incidence_arrays
from repro.values.semiring import get_op_pair


@pytest.fixture
def pair():
    return get_op_pair("plus_times")


class TestAdjacencyArray:
    def test_counts_parallel_edges(self, small_graph, pair):
        eout, ein = incidence_arrays(small_graph)
        adj = adjacency_array(eout, ein, pair)
        assert adj.get("a", "b") == 2   # e1 and e2
        assert adj.get("b", "c") == 1
        assert adj.get("c", "c") == 1

    def test_key_sets(self, small_graph, pair):
        eout, ein = incidence_arrays(small_graph)
        adj = adjacency_array(eout, ein, pair)
        assert adj.row_keys == small_graph.out_vertices
        assert adj.col_keys == small_graph.in_vertices

    def test_requires_shared_edge_set(self, pair):
        eout = AssociativeArray({("k1", "a"): 1},
                                row_keys=["k1"], col_keys=["a"])
        ein = AssociativeArray({("k2", "b"): 1},
                               row_keys=["k2"], col_keys=["b"])
        with pytest.raises(MatmulError, match="share the edge key set"):
            adjacency_array(eout, ein, pair)

    def test_is_adjacency_of_graph(self, small_graph, pair):
        eout, ein = incidence_arrays(small_graph)
        adj = adjacency_array(eout, ein, pair)
        assert is_adjacency_array_of_graph(adj, small_graph)

    def test_weighted_incidence_still_adjacency(self, small_graph, pair):
        eout, ein = incidence_arrays(
            small_graph,
            out_values={k: i + 2 for i, k in
                        enumerate(small_graph.edge_keys)},
            in_values={k: i + 5 for i, k in
                       enumerate(small_graph.edge_keys)})
        adj = adjacency_array(eout, ein, pair)
        assert is_adjacency_array_of_graph(adj, small_graph)


class TestReverse:
    def test_reverse_is_transpose_pattern(self, small_graph, pair):
        eout, ein = incidence_arrays(small_graph)
        fwd = adjacency_array(eout, ein, pair)
        rev = reverse_adjacency_array(eout, ein, pair)
        assert rev.nonzero_pattern() == frozenset(
            (b, a) for (a, b) in fwd.nonzero_pattern())

    def test_reverse_is_adjacency_of_reverse_graph(self, small_graph, pair):
        eout, ein = incidence_arrays(small_graph)
        rev = reverse_adjacency_array(eout, ein, pair)
        assert is_adjacency_array_of_graph(rev, small_graph.reverse())


class TestExpectedPattern:
    def test_pattern_from_incidence(self, small_graph):
        eout, ein = incidence_arrays(small_graph)
        assert expected_adjacency_pattern(eout, ein) \
            == small_graph.adjacency_pairs()

    def test_hyperedge_pattern(self):
        # A track-edge touching two genre-vertices and two writer-vertices
        # contributes the full 2×2 rectangle (the music-array case).
        eout = AssociativeArray({("k", "g1"): 1, ("k", "g2"): 1},
                                row_keys=["k"], col_keys=["g1", "g2"])
        ein = AssociativeArray({("k", "w1"): 1, ("k", "w2"): 1},
                               row_keys=["k"], col_keys=["w1", "w2"])
        assert expected_adjacency_pattern(eout, ein) == frozenset({
            ("g1", "w1"), ("g1", "w2"), ("g2", "w1"), ("g2", "w2")})

    def test_is_adjacency_array_of_incidence_pair(self, small_graph, pair):
        eout, ein = incidence_arrays(small_graph)
        adj = adjacency_array(eout, ein, pair)
        assert is_adjacency_array_of(adj, eout, ein)

    def test_check_keys_flag(self, small_graph, pair):
        eout, ein = incidence_arrays(small_graph)
        adj = adjacency_array(eout, ein, pair)
        padded = adj.with_keys(
            row_keys=list(adj.row_keys) + ["stranger"])
        assert not is_adjacency_array_of(padded, eout, ein)
        assert is_adjacency_array_of(padded, eout, ein, check_keys=False)

    def test_wrong_pattern_detected(self, small_graph, pair):
        eout, ein = incidence_arrays(small_graph)
        adj = adjacency_array(eout, ein, pair)
        broken = AssociativeArray(
            {k: v for k, v in adj.to_dict().items()
             if k != ("a", "b")},
            row_keys=adj.row_keys, col_keys=adj.col_keys)
        assert not is_adjacency_array_of_graph(broken, small_graph)


class TestCorrelate:
    def test_correlate_is_eT_e(self, pair):
        e1 = AssociativeArray({("k1", "g"): 2, ("k2", "g"): 3},
                              row_keys=["k1", "k2"], col_keys=["g"])
        e2 = AssociativeArray({("k1", "w"): 5, ("k2", "w"): 7},
                              row_keys=["k1", "k2"], col_keys=["w"])
        c = correlate(e1, e2, pair)
        assert c.get("g", "w") == 2 * 5 + 3 * 7
        assert tuple(c.row_keys) == ("g",)
        assert tuple(c.col_keys) == ("w",)


class TestTransposeFreeRoute:
    """``adjacency_array`` hands ``Eout``'s own COO arrays to sortmerge
    as ``Eoutᵀ``'s CSC, and its generic fold reads ``Eout(k, r)`` as
    ``Eoutᵀ(r, k)``; the scipy and dense routes keep multiplying
    ``Eout.transpose()``.  The kernel decision is the transposed
    product's.  An expression plan runs its fused node through
    ``adjacency_array`` itself: it names the kernel that runs, the
    backend its result is stored on, and returns ``adjacency_array``'s
    result."""

    @staticmethod
    def _weighted(pair, n_edges, seed=3):
        from repro.graphs.generators import (random_incidence_values,
                                             rmat_multigraph)
        graph = rmat_multigraph(6, n_edges, seed=seed)
        out_w, in_w = random_incidence_values(graph, pair, seed=seed + 1)
        return incidence_arrays(graph, zero=pair.zero, out_values=out_w,
                                in_values=in_w)

    def test_min_plus_builds_no_transpose_and_no_csc(self, monkeypatch):
        from repro.arrays.backend import VECTORIZE_MIN_NNZ, NumericBackend
        pair = get_op_pair("min_plus")
        eout, ein = self._weighted(pair, VECTORIZE_MIN_NNZ)
        assert eout.nnz + ein.nnz >= VECTORIZE_MIN_NNZ
        forward = adjacency_array(eout, ein, pair, kernel="generic")
        backward = reverse_adjacency_array(eout, ein, pair,
                                           kernel="generic")

        def refuse(*_args, **_kwargs):
            raise AssertionError("the sortmerge route must not call this")

        monkeypatch.setattr(AssociativeArray, "transpose", refuse)
        monkeypatch.setattr(NumericBackend, "csc", refuse)
        assert adjacency_array(eout, ein, pair) == forward
        assert reverse_adjacency_array(eout, ein, pair) == backward

    @pytest.mark.parametrize("name", ["min_plus", "plus_times"])
    def test_generic_kernel_builds_no_transpose(self, monkeypatch, name):
        from repro.arrays.matmul import multiply_generic
        pair = get_op_pair(name)
        eout, ein = (a.with_backend("dict")
                     for a in self._weighted(pair, 40))
        forward = multiply_generic(eout.transpose(), ein, pair)
        backward = multiply_generic(ein.transpose(), eout, pair)

        def refuse(*_args, **_kwargs):
            raise AssertionError("the generic route must not transpose")

        monkeypatch.setattr(AssociativeArray, "transpose", refuse)
        assert adjacency_array(eout, ein, pair, kernel="generic") == forward
        assert reverse_adjacency_array(eout, ein, pair,
                                       kernel="generic") == backward

    def test_tiny_dict_operands_stay_generic_with_int_values(
            self, small_graph):
        pair = get_op_pair("min_plus")
        eout, ein = incidence_arrays(small_graph, zero=pair.zero, one=2)
        adj = adjacency_array(eout, ein, pair)
        assert adj.backend == "dict"
        assert adj.get("a", "b") == 4
        assert all(type(v) is int for v in adj.values_list())

    @pytest.mark.parametrize("e_form", ["dict", "promoted", "numeric"])
    @pytest.mark.parametrize("f_form", ["dict", "numeric"])
    @pytest.mark.parametrize("n_edges", [20, 400])
    @pytest.mark.parametrize("name", ["min_plus", "plus_times"])
    def test_kernel_decision_matches_the_transposed_product(
            self, e_form, f_form, n_edges, name):
        from repro.arrays.matmul import _pick_kernel
        pair = get_op_pair(name)
        e, f = self._operands(pair, n_edges, e_form, f_form)
        picked = _pick_kernel(e, f, pair, "sparse", transposed=True)
        assert picked == _pick_kernel(e.transpose(), f, pair, "sparse")

    @classmethod
    def _operands(cls, pair, n_edges, e_form, f_form):
        e, f = cls._weighted(pair, n_edges)
        if e_form == "promoted":
            e.numeric_backend()          # dict storage, cached promotion
        elif e_form == "numeric":
            e = e.with_backend("numeric")
        if f_form == "numeric":
            f = f.with_backend("numeric")
        return e, f

    @staticmethod
    def _planned_run_and_eager(expr, e, f, pair, *, fused):
        """The plan's kernel for the product, the kernel the
        ``expr.kernel`` event says ran, and eager ``_pick_kernel`` on
        ``eᵀ ⊕.⊗ f`` (``fused``) or on ``e.transpose()`` times ``f``.

        Checks on the way that the executed plan equals
        ``adjacency_array(e, f)`` on the same backend, and that the
        transcript's root line names, and its byte estimate sizes, the
        backend the result is stored on."""
        from repro.arrays.matmul import _pick_kernel
        from repro.expr import plan
        from repro.expr.ast import topological_order
        from repro.expr.cost import DICT_ENTRY_BYTES, NUMERIC_ENTRY_BYTES
        from repro.obs.events import get_event_log
        the_plan = plan(expr)
        (product,) = [n for n in topological_order(the_plan.root)
                      if n.kind in ("matmul", "incidence_to_adjacency")]
        a = e if fused else e.transpose()
        eager = _pick_kernel(a, f, pair, "sparse", transposed=fused)
        result = the_plan.execute()
        (event,) = get_event_log().events(kind="expr.kernel", limit=1)
        expected = adjacency_array(e, f, pair)
        assert result == expected
        stored = result.backend
        assert stored == expected.backend
        head = the_plan.explain().splitlines()[0]
        assert head.endswith(f"entries ({stored})"), head
        root = the_plan.estimates[id(the_plan.root)]
        per = NUMERIC_ENTRY_BYTES if stored == "numeric" else DICT_ENTRY_BYTES
        assert root.bytes == root.nnz * per
        return the_plan.estimates[id(product)].kernel, event["kernel"], eager

    @pytest.mark.parametrize("e_form", ["dict", "promoted", "numeric"])
    @pytest.mark.parametrize("f_form", ["dict", "numeric"])
    @pytest.mark.parametrize("n_edges", [20, 400])
    @pytest.mark.parametrize("name", ["min_plus", "plus_times"])
    def test_plan_names_the_kernel_that_runs(self, e_form, f_form,
                                             n_edges, name):
        from repro.expr import lazy
        pair = get_op_pair(name)
        e, f = self._operands(pair, n_edges, e_form, f_form)
        expr = lazy(e).T.matmul(lazy(f), pair)
        planned, ran, eager = self._planned_run_and_eager(
            expr, e, f, pair, fused=True)
        assert planned == ran == eager

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("form", ["dict", "numeric"])
    @pytest.mark.parametrize("name", ["min_plus", "plus_times"])
    def test_plan_names_the_kernel_that_runs_on_tiny_operands(
            self, fused, form, name):
        from repro.expr import lazy
        pair = get_op_pair(name)
        # The 3-edge incidence pair of the command-line walkthrough.
        edges = ["e1", "e2", "e3"]
        e = AssociativeArray({("e1", "alice"): 2, ("e2", "alice"): 3,
                              ("e3", "bob"): 5}, row_keys=edges,
                             zero=pair.zero)
        f = AssociativeArray({("e1", "bob"): 1, ("e2", "bob"): 1,
                              ("e3", "carol"): 1}, row_keys=edges,
                             zero=pair.zero)
        if form == "numeric":
            e, f = e.with_backend("numeric"), f.with_backend("numeric")
        expr = lazy(e).T.matmul(lazy(f), pair) if fused \
            else lazy(e.transpose()).matmul(lazy(f), pair)
        kernels = self._planned_run_and_eager(expr, e, f, pair,
                                              fused=fused)
        vector = "scipy" if name == "plus_times" else "sortmerge"
        assert kernels == (("generic" if form == "dict" else vector),) * 3
