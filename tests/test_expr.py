"""Unit tests for the lazy expression engine (``repro.expr``)."""

from __future__ import annotations

import pytest

from repro.arrays.associative import AssociativeArray
from repro.arrays.elementwise import elementwise_add, elementwise_multiply
from repro.arrays.kron import kron
from repro.arrays.matmul import multiply
from repro.arrays.reductions import reduce_cols, reduce_rows
from repro.core.construction import adjacency_array
from repro.expr import (
    ExprError,
    REDUCE_KEY,
    evaluate,
    explain,
    khop_frontier,
    lazy,
    plan,
    vecmat,
)
from repro.expr.ast import IncidenceToAdjacency, Leaf, MatMul, Transpose
from repro.graphs.algorithms import semiring_vecmat
from repro.graphs.generators import rmat_multigraph
from repro.graphs.incidence import incidence_arrays
from repro.values.semiring import get_op_pair

import repro.values.exotic  # noqa: F401 — registers pairs
import repro.values.extensions  # noqa: F401

PAIR = get_op_pair("plus_times")


def _music_like(seed: int = 11, scale: int = 7, edges: int = 200):
    graph = rmat_multigraph(scale, edges, seed=seed)
    weights = {k: float(1 + (i % 7)) for i, k in enumerate(graph.edge_keys)}
    return incidence_arrays(graph, zero=PAIR.zero, out_values=weights,
                            in_values=weights)


def _small(data, rows, cols, zero=0.0):
    return AssociativeArray(data, row_keys=rows, col_keys=cols, zero=zero)


class TestConstruction:
    def test_lazy_wraps_and_reports_structure(self):
        eout, ein = _music_like()
        node = lazy(eout, "Eout")
        assert node.shape == (len(eout.row_keys), len(eout.col_keys))
        assert node.zero == eout.zero
        assert node.row_keys == eout.row_keys

    def test_nonconformable_matmul_raises_at_build_time(self):
        a = _small({("r", "c"): 1.0}, ["r"], ["c"])
        b = _small({("x", "y"): 1.0}, ["x"], ["y"])
        with pytest.raises(ExprError, match="shared K3"):
            lazy(a).matmul(lazy(b), PAIR)

    def test_misaligned_elementwise_raises(self):
        a = _small({("r", "c"): 1.0}, ["r"], ["c"])
        b = _small({("r", "d"): 1.0}, ["r"], ["d"])
        with pytest.raises(ExprError, match="identical key sets"):
            lazy(a).add(lazy(b), PAIR.add)

    def test_dense_background_elementwise_refused(self):
        a = _small({("r", "c"): 1.0}, ["r"], ["c"], zero=2.0)
        b = _small({("r", "c"): 1.0}, ["r"], ["c"], zero=2.0)
        with pytest.raises(ExprError, match="dense"):
            lazy(a).add(lazy(b), PAIR.add)

    def test_bad_mode_and_axis(self):
        a = _small({("r", "c"): 1.0}, ["r"], ["c"])
        with pytest.raises(ExprError, match="mode"):
            lazy(a).matmul(lazy(a.transpose()), PAIR, mode="bogus")
        from repro.expr.ast import Reduce
        with pytest.raises(ExprError, match="axis"):
            Reduce(lazy(a).node, PAIR.add, "diagonal")

    def test_lazy_accepts_plain_arrays_as_operands(self):
        eout, ein = _music_like()
        expr = lazy(eout).T.matmul(ein, PAIR)   # bare array auto-wrapped
        assert expr.evaluate() == adjacency_array(eout, ein, PAIR)


class TestEquivalence:
    """Optimized evaluation ≡ the eager library calls, operator by
    operator."""

    def test_incidence_to_adjacency(self):
        eout, ein = _music_like()
        expr = lazy(eout, "Eout").T.matmul(lazy(ein, "Ein"), PAIR)
        assert evaluate(expr) == adjacency_array(eout, ein, PAIR)

    def test_unoptimized_matches_too(self):
        eout, ein = _music_like()
        expr = lazy(eout).T.matmul(lazy(ein), PAIR)
        assert evaluate(expr, optimize=False) == \
            adjacency_array(eout, ein, PAIR)

    def test_elementwise_and_transpose(self):
        eout, ein = _music_like()
        a = adjacency_array(eout, ein, PAIR)
        expr = lazy(a).add(lazy(a).T.T, PAIR.add)
        assert evaluate(expr) == elementwise_add(a, a, PAIR.add)
        expr = lazy(a).multiply_elementwise(lazy(a), PAIR.mul)
        assert evaluate(expr) == elementwise_multiply(a, a, PAIR.mul)

    def test_reductions(self):
        eout, ein = _music_like()
        a = adjacency_array(eout, ein, PAIR)
        rows = evaluate(lazy(a).reduce_rows(PAIR.add))
        assert rows.col_keys == frozenset_keys([REDUCE_KEY])
        assert {r: v for r, _c, v in rows.entries()} == \
            reduce_rows(a, PAIR.add)
        cols = evaluate(lazy(a).reduce_cols(PAIR.add))
        assert {c: v for _r, c, v in cols.entries()} == \
            reduce_cols(a, PAIR.add)

    def test_select_and_with_keys(self):
        eout, ein = _music_like()
        half = list(eout.col_keys)[: len(eout.col_keys) // 2]
        expr = lazy(eout).select(":", half)
        assert evaluate(expr) == eout.select(":", half)
        wide = list(eout.col_keys) + ["zz_extra"]
        expr = lazy(eout).with_keys(col_keys=wide)
        assert evaluate(expr) == eout.with_keys(col_keys=wide)

    def test_kron(self):
        a = _small({("a", "b"): 2.0, ("b", "a"): 3.0}, ["a", "b"],
                   ["a", "b"])
        b = _small({("x", "y"): 4.0}, ["x", "y"], ["x", "y"])
        expr = lazy(a).kron(lazy(b), PAIR.mul)
        assert evaluate(expr) == kron(a, b, PAIR.mul)

    def test_khop_chain_matches_vecmat_loop(self):
        eout, ein = _music_like(scale=6, edges=120)
        a = adjacency_array(eout, ein, PAIR)
        vertices = a.row_keys.union(a.col_keys)
        a = a.with_keys(vertices, vertices)
        source = next(iter(a.rows_nonempty()))
        frontier = {source: PAIR.one}
        for _ in range(3):
            frontier = semiring_vecmat(frontier, a, PAIR)
        assert khop_frontier(a, source, 3, PAIR) == frontier

    def test_khop_zero_hops_and_degenerate_pair(self):
        a = _small({("a", "b"): 1.0}, ["a", "b"], ["a", "b"])
        assert khop_frontier(a, "a", 0, PAIR) == {"a": PAIR.one}
        # nonneg_max_plus has one == zero: falls back to the loop.
        degenerate = get_op_pair("nonneg_max_plus")
        assert khop_frontier(a, "a", 1, degenerate) == \
            semiring_vecmat({"a": degenerate.one}, a, degenerate)

    def test_vecmat_matches_reference(self):
        eout, ein = _music_like(scale=6, edges=150)
        a = adjacency_array(eout, ein, PAIR)
        vertices = a.row_keys.union(a.col_keys)
        a = a.with_keys(vertices, vertices)
        vec = {v: float(i + 1) for i, v in enumerate(list(vertices)[:5])}
        assert vecmat(vec, a, PAIR) == semiring_vecmat(vec, a, PAIR)


def frozenset_keys(keys):
    from repro.arrays.keys import KeySet
    return KeySet(keys)


class TestRewrites:
    def test_fusion_applied_and_named(self):
        eout, ein = _music_like()
        p = plan(lazy(eout).T.matmul(lazy(ein), PAIR))
        assert isinstance(p.root, IncidenceToAdjacency)
        names = [rw.rule for rw in p.applied]
        assert "fuse_incidence_adjacency" in names
        fused = next(rw for rw in p.applied
                     if rw.rule == "fuse_incidence_adjacency")
        assert any("zero-sum-free" in line for line in fused.properties)

    def test_fusion_refused_for_uncertified_pair(self):
        gf2 = get_op_pair("gf2_xor_and")
        eout = _small({("k1", "a"): 1, ("k2", "a"): 1}, ["k1", "k2"],
                      ["a"], zero=0)
        ein = _small({("k1", "b"): 1, ("k2", "b"): 1}, ["k1", "k2"],
                     ["b"], zero=0)
        expr = lazy(eout).T.matmul(lazy(ein), gf2)
        p = plan(expr)
        assert isinstance(p.root, MatMul)          # kept as written
        assert any(rf.rule == "fuse_incidence_adjacency"
                   for rf in p.refused)
        # The refused plan still evaluates, identically to eager.
        assert p.execute() == evaluate(expr, optimize=False)

    def test_double_transpose_eliminated(self):
        eout, _ = _music_like()
        p = plan(lazy(eout).T.T)
        assert isinstance(p.root, Leaf)
        assert any(rw.rule == "double_transpose" for rw in p.applied)

    def test_transpose_pushdown_gives_reverse_adjacency_fusion(self):
        eout, ein = _music_like()
        expr = lazy(eout).T.matmul(lazy(ein), PAIR).T
        p = plan(expr)
        # (EᵀF)ᵀ → FᵀE: still one fused kernel, roles swapped.
        assert isinstance(p.root, IncidenceToAdjacency)
        assert evaluate(expr) == \
            adjacency_array(eout, ein, PAIR).transpose()

    def test_transpose_pushdown_refused_noncommutative(self):
        mc = get_op_pair("max_concat")
        graph = rmat_multigraph(5, 40, seed=9)
        vals = {k: "ab"[i % 2] for i, k in enumerate(graph.edge_keys)}
        eout, ein = incidence_arrays(graph, zero=mc.zero,
                                     out_values=vals, in_values=vals)
        expr = lazy(eout).T.matmul(lazy(ein), mc).T
        p = plan(expr)
        assert any(rf.rule == "transpose_pushdown" for rf in p.refused)
        assert "FAILS" in next(
            rf.reason for rf in p.refused
            if rf.rule == "transpose_pushdown")
        assert evaluate(expr) == evaluate(expr, optimize=False)

    def test_reduce_into_matmul_fusion(self):
        eout, ein = _music_like()
        for axis in ("reduce_rows", "reduce_cols"):
            expr = getattr(lazy(eout).T.matmul(lazy(ein), PAIR),
                           axis)(PAIR.add)
            p = plan(expr)
            assert any(rw.rule == "reduce_into_matmul"
                       for rw in p.applied)
            assert p.execute() == evaluate(expr, optimize=False)

    def test_cse_shares_khop_leaves(self):
        eout, ein = _music_like(scale=6, edges=100)
        a = adjacency_array(eout, ein, PAIR)
        vertices = a.row_keys.union(a.col_keys)
        a = a.with_keys(vertices, vertices)
        al = lazy(a, "A")
        expr = al.matmul(al, PAIR).add(al.matmul(al, PAIR), PAIR.add)
        p = plan(expr)
        assert any(rw.rule == "common_subexpression_elimination"
                   for rw in p.applied)
        # Both ⊕-operands are literally the same node after CSE.
        assert p.root.children[0] is p.root.children[1]
        assert p.execute() == elementwise_add(
            multiply(a, a, PAIR), multiply(a, a, PAIR), PAIR.add)

    def test_dead_branch_matmul_with_empty_operand(self):
        eout, ein = _music_like()
        empty = AssociativeArray.empty(eout.col_keys, eout.row_keys,
                                       zero=PAIR.zero)
        expr = lazy(empty).matmul(lazy(ein), PAIR)
        p = plan(expr)
        assert isinstance(p.root, Leaf)
        assert any(rw.rule == "prune_dead_branches" for rw in p.applied)
        result = p.execute()
        assert result.nnz == 0
        assert result == evaluate(expr, optimize=False)

    def test_elementwise_with_empty_operand_not_pruned(self):
        """x ⊕ empty must evaluate, not collapse to x: the identity
        axiom only holds on the op's domain, and stored values are free
        to fall outside it (the xor-mod-2 counterexample)."""
        from repro.values.semiring import get_op_pair
        gf2 = get_op_pair("gf2_xor_and")
        x = _small({("r", "c"): 4.0}, ["r"], ["c"], zero=0.0)
        empty = AssociativeArray.empty(x.row_keys, x.col_keys, zero=0.0)
        expr = lazy(x).add(lazy(empty), gf2.add)
        p = plan(expr)
        assert not isinstance(p.root, Leaf)    # no prune
        # (4 xor 0) mod 2 = 0: the entry vanishes under eager folding,
        # exactly what a pruned plan would have gotten wrong.
        assert p.execute().nnz == 0
        assert p.execute() == evaluate(expr, optimize=False)


class TestCostAndExecution:
    def test_estimates_cover_every_node(self):
        eout, ein = _music_like()
        p = plan(lazy(eout).T.matmul(lazy(ein), PAIR))
        from repro.expr.ast import topological_order
        for node in topological_order(p.root):
            est = p.estimates[id(node)]
            assert est.nnz >= 0
            assert est.backend in ("numeric", "dict")
        leaf_est = p.estimates[id(p.root.children[0])]
        assert leaf_est.exact
        assert leaf_est.nnz == eout.nnz

    def test_explain_transcript_shape(self):
        eout, ein = _music_like()
        text = explain(lazy(eout, "Eout").T.matmul(lazy(ein, "Ein"),
                                                   PAIR))
        assert "applied rewrites:" in text
        assert "fuse_incidence_adjacency" in text
        assert "licensed by:" in text
        assert "zero-sum-free" in text
        assert "incidence_to_adjacency[+.×]" in text
        assert "leaf 'Eout'" in text
        assert "kernel=scipy" in text

    def test_memory_budget_routes_through_shard_executor(self):
        eout, ein = _music_like(scale=8, edges=400)
        expr = lazy(eout).T.matmul(lazy(ein), PAIR)
        p = plan(expr, memory_budget=1)      # everything is over budget
        assert p.shard_nodes
        assert "shard executor" in p.explain()
        assert p.execute() == adjacency_array(eout, ein, PAIR)

    @pytest.mark.parametrize("name,edges", [("plus_times", 40),
                                            ("gcd_lcm", 400)])
    def test_memory_budget_sizes_a_generic_product_on_dict_storage(
            self, name, edges):
        # Numeric-capable operands, but the product runs the generic
        # kernel (tiny operands; a pair without ufuncs), so its result
        # is dict-backed and the budget sizes it at DICT_ENTRY_BYTES.
        from repro.expr.cost import DICT_ENTRY_BYTES, NUMERIC_ENTRY_BYTES
        pair = get_op_pair(name)
        graph = rmat_multigraph(7, edges, seed=11)
        weights = {k: 1 + (i % 7) for i, k in enumerate(graph.edge_keys)}
        eout, ein = incidence_arrays(graph, zero=pair.zero,
                                     out_values=weights, in_values=weights)
        expr = lazy(eout).T.matmul(lazy(ein), pair)
        free = plan(expr)
        est = free.estimates[id(free.root)]
        assert (est.backend, est.kernel) == ("numeric", "generic")
        assert est.working_bytes == est.nnz * DICT_ENTRY_BYTES
        assert not plan(expr, memory_budget=int(est.working_bytes)).shard_nodes
        between = int(est.nnz * (NUMERIC_ENTRY_BYTES + DICT_ENTRY_BYTES) / 2)
        p = plan(expr, memory_budget=between)
        assert p.shard_nodes
        assert p.execute() == adjacency_array(eout, ein, pair)

    def test_memory_budget_respected_when_large_enough(self):
        eout, ein = _music_like()
        p = plan(lazy(eout).T.matmul(lazy(ein), PAIR),
                 memory_budget=1 << 30)
        assert not p.shard_nodes

    def test_pinned_operands_stay_generic(self):
        eout, ein = _music_like()
        expr = lazy(eout.with_backend("dict")).T.matmul(
            lazy(ein.with_backend("dict")), PAIR)
        result = evaluate(expr)
        assert result == adjacency_array(eout, ein, PAIR)

    def test_fused_generic_path_for_exotic_values(self):
        pair = get_op_pair("string_max_min")
        eout = _small({("k1", "a"): "x", ("k2", "a"): "y"},
                      ["k1", "k2"], ["a"], zero="")
        ein = _small({("k1", "b"): "z", ("k2", "b"): "w"},
                     ["k1", "k2"], ["b"], zero="")
        expr = lazy(eout).T.matmul(lazy(ein), pair)
        assert evaluate(expr) == adjacency_array(eout, ein, pair)

    def test_plan_reused_via_evaluate(self):
        eout, ein = _music_like()
        p = plan(lazy(eout).T.matmul(lazy(ein), PAIR))
        assert evaluate(p) == adjacency_array(eout, ein, PAIR)


def _min_plus_incidence(n_edges: int, form: str):
    """A weighted min.+ incidence pair stored as ``form``: ``dict``,
    ``promoted`` (dict storage with a cached columnar promotion) or
    ``numeric``."""
    from repro.graphs.generators import random_incidence_values
    pair = get_op_pair("min_plus")
    graph = rmat_multigraph(6, n_edges, seed=3)
    out_w, in_w = random_incidence_values(graph, pair, seed=4)
    e, f = incidence_arrays(graph, zero=pair.zero, out_values=out_w,
                            in_values=in_w)
    if form == "promoted":
        e.numeric_backend()
        f.numeric_backend()
    elif form == "numeric":
        e, f = e.with_backend("numeric"), f.with_backend("numeric")
    return e, f, pair


def _same_keys(a: AssociativeArray) -> AssociativeArray:
    """A second array over ``a``'s keys, stored like ``a``."""
    return a.transpose().transpose()


#: Expression shapes covering every operator node kind, each built from
#: an incidence pair (E, F) and its op-pair; ``optimize_plan`` is off for
#: "matmul" so the unfused ``Eᵀ`` then product stays in the plan (the
#: fused product alone is covered by ``tests/test_construction.py``'s
#: ``TestTransposeFreeRoute``).
_SHAPES = {
    "transpose": lambda e, f, p: lazy(e).T,
    "matmul": lambda e, f, p: lazy(e).T.matmul(lazy(f), p),
    "add": lambda e, f, p: lazy(e).add(lazy(_same_keys(e)), p.add),
    "multiply": lambda e, f, p: lazy(e).multiply_elementwise(
        lazy(_same_keys(e)), p.mul),
    "transposed_add": lambda e, f, p: lazy(e).T.add(
        lazy(_same_keys(e)).T, p.add),
    "reduce_rows": lambda e, f, p: lazy(e).reduce_rows(p.add),
    "reduce_cols": lambda e, f, p: lazy(e).T.reduce_cols(p.add),
    "transposed_select": lambda e, f, p: lazy(e).select(
        list(e.row_keys)[:3 * len(e.row_keys) // 4], list(e.col_keys)).T,
    "with_keys": lambda e, f, p: lazy(e).T.matmul(lazy(f), p)
        .with_keys(None, None),
    "kron": lambda e, f, p: lazy(e).select(list(e.row_keys)[:3],
                                           list(e.col_keys)[:4]).kron(
        lazy(f).select(list(f.row_keys)[:3], list(f.col_keys)[:4]),
        p.mul),
    "adjacency_degrees": lambda e, f, p: lazy(e).T.matmul(lazy(f), p)
        .reduce_rows(p.add),
}


class TestStoredBackend:
    """``explain()`` names and sizes every node by the backend its
    result is stored on (``CostEstimate.stored``), which can differ from
    the backend it could be promoted to (``CostEstimate.backend``, the
    routing input): a generic product of numeric-capable operands
    yields a dict-backed array, and transposing a large dict array
    promotes it."""

    @pytest.mark.parametrize("n_edges", [20, 400])
    @pytest.mark.parametrize("form", ["dict", "promoted", "numeric"])
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_every_node_is_sized_on_the_backend_it_is_stored_on(
            self, shape, form, n_edges):
        from repro.expr.ast import topological_order
        from repro.expr.cost import DICT_ENTRY_BYTES, NUMERIC_ENTRY_BYTES
        from repro.expr.execute import _Executor
        e, f, pair = _min_plus_incidence(n_edges, form)
        the_plan = plan(_SHAPES[shape](e, f, pair),
                        optimize_plan=shape != "matmul")
        executor = _Executor(the_plan)
        executor.run()
        for node in topological_order(the_plan.root):
            est = the_plan.estimates[id(node)]
            stored = executor.results[id(node)].backend
            assert est.stored == stored, (node.label(), est)
            per = NUMERIC_ENTRY_BYTES if stored == "numeric" \
                else DICT_ENTRY_BYTES
            assert est.bytes == est.nnz * per
        root_line = the_plan.explain().splitlines()[0]
        assert root_line.endswith(
            f"entries ({executor.results[id(the_plan.root)].backend})")


class TestOptimizerMemoSoundness:
    """Regression: the optimizer's memo must key on live node objects.

    An id()-keyed memo over temporary nodes that get garbage-collected
    let CPython address reuse splice a stale, unrelated subtree into
    the rewritten DAG — random trees mixing transposes, products and
    fused-product shapes evaluated differently optimized vs eager on
    ~12% of seeds.  This deterministic stress loop reproduces that
    node-churn pattern.
    """

    def test_optimized_equals_eager_under_node_churn(self):
        import random
        pair = PAIR
        for seed in range(120):
            rng = random.Random(seed)
            n = rng.randint(2, 5)
            keys = [f"v{i}" for i in range(n)]

            def fresh():
                data = {}
                for _ in range(rng.randint(0, n * n)):
                    data[(rng.choice(keys), rng.choice(keys))] = \
                        float(rng.randint(1, 9))
                return AssociativeArray(data, row_keys=keys,
                                        col_keys=keys, zero=0.0)

            expr = lazy(fresh(), "seed")
            for i in range(rng.randint(1, 5)):
                step = rng.choice(["T", "mm", "fused", "add", "ewT"])
                if step == "T":
                    expr = expr.T
                elif step == "mm":
                    expr = expr.matmul(lazy(fresh(), f"m{i}"), pair)
                elif step == "fused":
                    expr = expr.T.matmul(lazy(fresh(), f"f{i}"), pair)
                elif step == "add":
                    expr = expr.add(lazy(fresh(), f"a{i}"), pair.add)
                else:
                    # (Aᵀ ⊕ Bᵀ)ᵀ — churns temporary Transpose wrappers
                    # through transpose_over_elementwise.
                    expr = expr.T.add(lazy(fresh(), f"e{i}").T,
                                      pair.add).T
            optimized = evaluate(expr, optimize=True)
            eager = evaluate(expr, optimize=False)
            assert optimized == eager, f"seed {seed} diverged"


class TestDeepChains:
    """Regression: planning, explaining and executing a hop chain far
    past the default service bound must not approach the recursion
    limit (the walks are topological-order driven, not recursive)."""

    def test_500_hop_chain_plans_explains_and_runs(self):
        a = _small({("a", "b"): 1.0, ("b", "a"): 1.0}, ["a", "b"],
                   ["a", "b"])
        frontier = khop_frontier(a, "a", 500, PAIR)
        assert frontier == {"a": 1.0}     # even-length cycle walk
        al = lazy(a, "A")
        expr = lazy(_small({("·", "a"): 1.0}, ["·"], ["a", "b"]), "x")
        for _ in range(500):
            expr = expr.matmul(al, PAIR)
        text = explain(expr)
        assert "(shared node" in text      # the chain shares one A leaf

    def test_emptied_frontier_hops_are_cheap(self):
        # b is a dead end: the frontier empties after one hop, and the
        # remaining 254 products must short-circuit (runtime emptiness,
        # invisible to static dead-branch pruning).
        a = _small({("a", "b"): 2.0}, ["a", "b"], ["a", "b"])
        import time
        t0 = time.perf_counter()
        assert khop_frontier(a, "b", 255, PAIR) == {}
        assert time.perf_counter() - t0 < 2.0


_EXPLAIN_SCRIPT = """
import sys
from repro.arrays.associative import AssociativeArray
from repro.expr import evaluate, explain, lazy
from repro.graphs.generators import rmat_multigraph
from repro.graphs.incidence import incidence_arrays
from repro.values.semiring import get_op_pair

mp, pt = get_op_pair("min_plus"), get_op_pair("plus_times")
edges = ["e1", "e2", "e3"]
eout = AssociativeArray({("e1", "alice"): 2, ("e2", "alice"): 3,
                         ("e3", "bob"): 5}, row_keys=edges, zero=mp.zero)
ein = AssociativeArray({("e1", "bob"): 1, ("e2", "bob"): 1,
                        ("e3", "carol"): 1}, row_keys=edges, zero=mp.zero)
gout, gin = incidence_arrays(rmat_multigraph(7, 300, seed=17))
exprs = [lazy(eout, "Eout").T.matmul(lazy(ein, "Ein"), mp),
         lazy(gout, "Eout").T.matmul(lazy(gin, "Ein"), pt)]
if sys.argv[1:] == ["evaluate"]:
    for expr in exprs:
        evaluate(expr)
for expr in exprs:
    print(explain(expr))
"""


def _old_rate_file() -> dict:
    """A per-kernel rate file in the retired ``repro-calibration/v1``
    format, keyed by this machine's digest as that format was, whose
    rates (generic 1 ms/term, sortmerge 10 ns/term) would move a tiny
    min.+ product onto sortmerge if anything still read them."""
    import hashlib
    import json
    import os
    import platform
    info = {"machine": platform.machine(),
            "processor": platform.processor(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation()}
    digest = hashlib.sha256(json.dumps(info, sort_keys=True, default=str)
                            .encode("utf-8")).hexdigest()[:12]
    kernels = {"generic": {"seconds_per_term": 1e-3, "samples": 1},
               "sortmerge": {"seconds_per_term": 1e-8, "samples": 1}}
    return {"schema": "repro-calibration/v1", "updated_at": None,
            "machines": {digest: {"info": info, "kernels": kernels}}}


class TestKernelRouting:
    """Routing decisions are auditable: explain() carries a kernel
    routing section that is a function of the plan's operands alone,
    the executor emits an event per product, and the runtime
    validation demotes a vectorised pick the actual operands
    disprove."""

    def _minplus_product(self, scale=7, edges=400):
        pair = get_op_pair("min_plus")
        g = rmat_multigraph(2 ** scale, edges, seed=17)
        eout, ein = incidence_arrays(g, out_values={k: 1.0 for k in
                                                    g.edge_keys},
                                     in_values={k: 1.0 for k in
                                                g.edge_keys},
                                     zero=pair.zero)
        return lazy(eout, "Eout").T.matmul(lazy(ein, "Ein"), pair), \
            eout, ein, pair

    def test_explain_reports_sortmerge_routing(self):
        expr, _eout, _ein, _pair = self._minplus_product()
        text = explain(expr)
        assert "kernel=sortmerge" in text
        assert "kernel routing (product nodes):" in text
        assert "[min_plus] kernel=sortmerge" in text

    def test_explain_is_identical_across_fresh_processes(self, tmp_path):
        # Three fresh interpreters: an empty HOME; a HOME holding an
        # old per-kernel rate file; one that runs the expressions before
        # explaining them.  None may change a byte of explain().
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path
        import repro
        src = str(Path(repro.__file__).resolve().parent.parent)
        outputs, homes = [], []
        for case in ("empty", "rate-file", "evaluate"):
            home = tmp_path / case
            home.mkdir()
            if case == "rate-file":
                (home / ".repro").mkdir()
                (home / ".repro" / "calibration.json").write_text(
                    json.dumps(_old_rate_file()), encoding="utf-8")
            env = {k: v for k, v in os.environ.items()
                   if not k.startswith("REPRO_")}
            env.update(HOME=str(home), PYTHONPATH=src)
            args = ["evaluate"] if case == "evaluate" else []
            proc = subprocess.run(
                [sys.executable, "-c", _EXPLAIN_SCRIPT, *args],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr[-2000:]
            outputs.append(proc.stdout)
            homes.append(home)
        assert "[min_plus] kernel=generic  terms≈3" in outputs[0]
        assert "[plus_times] kernel=scipy" in outputs[0]
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]
        assert not any(homes[0].iterdir())
        assert not any(homes[2].iterdir())

    def test_executor_emits_kernel_event(self):
        from repro.obs.events import get_event_log
        expr, _eout, _ein, _pair = self._minplus_product()
        evaluate(expr)
        events = get_event_log().events(kind="expr.kernel", limit=1)
        assert events
        ev = events[0]
        assert ev["kernel"] == "sortmerge"
        assert ev["op_pair"] == "min_plus"
        assert ev["terms"] > 0
        assert ev["node"] == "incidence_to_adjacency"

    def test_sortmerge_result_matches_generic_construction(self):
        expr, eout, ein, pair = self._minplus_product()
        got = evaluate(expr)
        want = adjacency_array(eout, ein, pair, kernel="generic")
        assert got.allclose(want)

    def test_runtime_validation_demotes_disproved_pick(self):
        # Ints beyond 2**53 defeat the float64 promotion at run time;
        # the cost model's optimistic sortmerge pick must demote to
        # generic instead of failing.
        pair = get_op_pair("min_plus")
        big = 2 ** 60
        eout = AssociativeArray(
            {(f"e{i}", f"v{i % 20}"): big + i for i in range(300)},
            row_keys=[f"e{i}" for i in range(300)],
            col_keys=[f"v{i}" for i in range(20)], zero=pair.zero)
        ein = AssociativeArray(
            {(f"e{i}", f"v{(i + 1) % 20}"): big + i for i in range(300)},
            row_keys=[f"e{i}" for i in range(300)],
            col_keys=[f"v{i}" for i in range(20)], zero=pair.zero)
        expr = lazy(eout).T.matmul(lazy(ein), pair)
        p = plan(expr)
        product = [n for n in
                   __import__("repro.expr.ast", fromlist=["x"])
                   .topological_order(p.root)
                   if n.kind in ("matmul", "incidence_to_adjacency")]
        assert p.estimates[id(product[0])].kernel == "sortmerge"
        got = p.execute()                      # demoted, not crashed
        want = adjacency_array(eout, ein, pair, kernel="generic")
        assert got == want
