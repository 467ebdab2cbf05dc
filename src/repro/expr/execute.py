"""Plan and execute lazy expression DAGs.

:func:`plan` runs the full optimizer front-end — certification-gated
rewrites (:mod:`repro.expr.rewrite`), then the cost model
(:mod:`repro.expr.cost`) — and returns a :class:`Plan`: the optimized
DAG, every applied/refused rewrite with the property evidence that
decided it, per-node cost annotations, and the nodes routed to the
out-of-core shard executor.  :func:`evaluate` executes a plan;
:func:`explain` renders its transcript without executing.

Execution is a memoised post-order walk: shared nodes (k-hop chains
after common-subexpression elimination, reused sub-queries) evaluate
once.  Products honour the cost model's kernel choice, validated
against the actual operands at run time; fused
:class:`~repro.expr.ast.IncidenceToAdjacency` nodes never materialize
the transposed array on the sparse kernels: ``sortmerge`` takes
:func:`~repro.core.construction.adjacency_array`'s transpose-free
route, ``scipy`` contracts ``Eᵀ·F`` itself, and ``generic`` runs a
fused loop; a :class:`~repro.shard.plan.ShardedAdjacencyPlan` takes
plans whose estimated working set exceeds the memory budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.arrays.associative import AssociativeArray
from repro.arrays.elementwise import elementwise_apply
from repro.arrays.kron import kron
from repro.arrays.matmul import multiply
from repro.arrays.reductions import reduce_cols, reduce_rows
from repro.core.construction import adjacency_array
from repro.expr.ast import (
    Elementwise,
    ExprError,
    IncidenceToAdjacency,
    Kron,
    LazyArray,
    Leaf,
    MatMul,
    Node,
    REDUCE_KEY,
    Reduce,
    Select,
    Transpose,
    WithKeys,
    lazy,
    topological_order,
)
from repro.expr.cost import CostEstimate, estimate_plan
from repro.obs.events import emit_event
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.expr.rewrite import (
    AppliedRewrite,
    DEFAULT_RULES,
    PropertyGate,
    RefusedRewrite,
    optimize,
)
from repro.values.equality import values_equal
from repro.values.properties import DEFAULT_SAMPLES
from repro.values.semiring import OpPair

__all__ = ["Plan", "plan", "evaluate", "explain", "vecmat", "khop_frontier"]

#: Row key of the 1×n vector arrays :func:`vecmat` builds.
_VEC_KEY = "·"


@dataclass
class Plan:
    """An optimized, costed, ready-to-run expression plan."""

    root: Node
    source: Node
    applied: List[AppliedRewrite]
    refused: List[RefusedRewrite]
    estimates: Dict[int, CostEstimate]
    shard_nodes: Tuple[int, ...] = ()
    memory_budget: Optional[int] = None
    options: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(topological_order(self.root))

    @property
    def peak_bytes(self) -> float:
        """Largest estimated working set of any operator node."""
        peak = 0.0
        for node in topological_order(self.root):
            if isinstance(node, Leaf):
                continue
            est = self.estimates.get(id(node))
            if est is not None:
                peak = max(peak, est.working_bytes)
        return peak

    def execute(self) -> AssociativeArray:
        """Run the plan (memoised over shared nodes)."""
        return _Executor(self).run()

    # ------------------------------------------------------------------
    def explain(self) -> str:
        """The human-readable plan transcript.

        Names each applied rewrite together with the verified algebraic
        properties that licensed it, lists the rewrites the gate
        refused, and renders the operator tree with per-node cost
        annotations (estimated nnz, the backend the result is stored
        on, kernel, bytes).
        """
        lines: List[str] = []
        root_est = self.estimates.get(id(self.root))
        head = f"plan: {self.root.label()}"
        if root_est is not None:
            head += (f"  →  ~{_fmt_count(root_est.nnz)} entries "
                     f"({root_est.stored})")
        lines.append(head)
        lines.append(f"nodes: {self.node_count}   peak working set: "
                     f"~{_fmt_bytes(self.peak_bytes)}"
                     + (f"   memory budget: "
                        f"{_fmt_bytes(self.memory_budget)}"
                        if self.memory_budget is not None else ""))
        if self.applied:
            lines.append("applied rewrites:")
            for i, rw in enumerate(self.applied, 1):
                lines.append(f"  {i}. {rw.rule} @ {rw.site}: "
                             f"{rw.description}")
                if rw.properties:
                    lines.append("     licensed by:")
                    for prop in rw.properties:
                        lines.append(f"       - {prop}")
                else:
                    lines.append("     licensed by: structural identity "
                                 "(no algebraic properties required)")
        else:
            lines.append("applied rewrites: none")
        if self.refused:
            lines.append("refused rewrites (properties not certified):")
            for rf in self.refused:
                lines.append(f"  - {rf.rule} @ {rf.site}: {rf.reason}")
        lines.append("operator tree (est. nnz / backend / kernel):")
        tree_lines, products = self._render_tree()
        lines.extend(tree_lines)
        lines.extend(self._render_kernel_routing(products))
        return "\n".join(lines)

    def _render_kernel_routing(
        self, products: List[Tuple[int, Node]],
    ) -> List[str]:
        """One audit line per product node: the kernel it runs on, the
        op-pair it serves, the estimated term count and working set."""
        if not products:
            return []
        lines = ["kernel routing (product nodes):"]
        for num, node in products:
            est = self.estimates.get(id(node))
            if est is None:
                continue
            pair = getattr(node, "op_pair", None)
            lines.append(
                f"  #{num} [{pair.name if pair is not None else '-'}] "
                f"kernel={est.kernel}  terms≈{_fmt_count(est.flops)}  "
                f"~{_fmt_bytes(est.working_bytes)}")
        return lines

    def _render_tree(self) -> Tuple[List[str], List[Tuple[int, Node]]]:
        lines: List[str] = []
        products: List[Tuple[int, Node]] = []
        seen: Dict[int, int] = {}

        def annotate(node: Node) -> str:
            est = self.estimates.get(id(node))
            parts = [node.label()]
            if isinstance(node, Leaf):
                parts.append(f"{node.shape[0]}×{node.shape[1]}")
                parts.append(f"nnz={node.array.nnz}")
                parts.append(node.array.backend)
            elif est is not None:
                parts.append(f"{est.rows}×{est.cols}")
                parts.append(f"est_nnz≈{_fmt_count(est.nnz)}")
                parts.append(est.stored)
                if est.kernel != "-":
                    parts.append(f"kernel={est.kernel}")
                parts.append(f"~{_fmt_bytes(est.working_bytes)}")
            if id(node) in self.shard_nodes:
                parts.append("→ shard executor (over budget)")
            return "  ".join(parts)

        # Explicit stack (a deep hop chain must render without hitting
        # the recursion limit); entries are (node, prefix, tail, top).
        stack = [(self.root, "", True, True)]
        while stack:
            node, prefix, tail, top = stack.pop()
            connector = "" if top else ("└─ " if tail else "├─ ")
            ref = seen.get(id(node))
            if ref is not None:
                lines.append(f"{prefix}{connector}(shared node #{ref})")
                continue
            seen[id(node)] = len(seen) + 1
            if isinstance(node, (MatMul, IncidenceToAdjacency)):
                products.append((seen[id(node)], node))
            lines.append(f"{prefix}{connector}#{seen[id(node)]} "
                         f"{annotate(node)}")
            child_prefix = prefix + ("" if top else
                                     ("   " if tail else "│  "))
            for i, child in reversed(list(enumerate(node.children))):
                stack.append((child, child_prefix,
                              i == len(node.children) - 1, False))
        return lines, products


def _fmt_count(x: float) -> str:
    if x >= 1e6:
        return f"{x / 1e6:.1f}M"
    if x >= 1e3:
        return f"{x / 1e3:.1f}k"
    return f"{x:.0f}"


def _fmt_bytes(x: Optional[float]) -> str:
    if x is None:
        return "∞"
    for unit in ("B", "KiB", "MiB", "GiB"):
        if x < 1024 or unit == "GiB":
            return f"{x:.1f} {unit}" if unit != "B" else f"{x:.0f} B"
        x /= 1024
    return f"{x:.1f} GiB"  # pragma: no cover - unreachable


def plan(
    expr: Any,
    *,
    optimize_plan: bool = True,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0xD4,
    memory_budget: Optional[int] = None,
    shard_options: Optional[Dict[str, Any]] = None,
) -> Plan:
    """Optimize and cost ``expr`` (a :class:`LazyArray`, node, or array).

    ``optimize_plan=False`` skips the rewrite pipeline (the eager
    evaluation order, node for node) but still costs the DAG.
    ``memory_budget`` (bytes) routes fused incidence-to-adjacency nodes
    whose estimated working set exceeds it through the out-of-core
    shard executor; ``shard_options`` are extra
    :class:`~repro.shard.plan.ShardedAdjacencyPlan` keywords for that
    path.
    """
    started = time.perf_counter()
    source = lazy(expr).node
    root = source
    # Force key-set derivation bottom-up (it is lazy and recursive per
    # node): after this, no later access can descend a long unary
    # chain.  Kron nodes are skipped — their paired key sets are
    # quadratic to build and only needed at execution.
    for n in topological_order(root):
        if n.kind != "kron":
            n.row_keys
            n.col_keys
    gate = PropertyGate(samples=samples, seed=seed)
    applied: List[AppliedRewrite] = []
    refused: List[RefusedRewrite] = []
    with span("expr.plan", optimize=optimize_plan) as sp:
        if optimize_plan:
            root, applied, refused = optimize(root, gate,
                                              rules=DEFAULT_RULES)
        estimates = estimate_plan(root)
        sp.set_attr("applied", len(applied))
        sp.set_attr("refused", len(refused))
    registry = get_registry()
    registry.counter("expr_plans_total", "Expression plans built").inc()
    registry.histogram(
        "expr_plan_seconds", "Wall time of plan() (rewrites + costing)"
    ).observe(time.perf_counter() - started)
    shard_nodes: List[int] = []
    if memory_budget is not None:
        for node in topological_order(root):
            if not isinstance(node, IncidenceToAdjacency):
                continue
            est = estimates[id(node)]
            if est.working_bytes <= memory_budget:
                continue
            # Out-of-core construction re-partitions the edge fold, so
            # it needs the same license as the shard engine proper.
            ok_crit, _ = gate.criteria(node.op_pair)
            ok_add, _ = gate.add_associative_commutative(node.op_pair)
            if ok_crit and ok_add:
                shard_nodes.append(id(node))
    return Plan(root=root, source=source, applied=applied,
                refused=refused, estimates=estimates,
                shard_nodes=tuple(shard_nodes),
                memory_budget=memory_budget,
                options=dict(shard_options or {}))


def evaluate(expr: Any, *, optimize: bool = True, **options: Any
             ) -> AssociativeArray:
    """Optimize, cost, and execute ``expr``; returns the result array.

    Keyword options are forwarded to :func:`plan` (``samples``,
    ``seed``, ``memory_budget``, ``shard_options``).
    """
    if isinstance(expr, Plan):
        return expr.execute()
    return plan(expr, optimize_plan=optimize, **options).execute()


def explain(expr: Any, *, optimize: bool = True, **options: Any) -> str:
    """The optimized plan transcript for ``expr`` without executing."""
    if isinstance(expr, Plan):
        return expr.explain()
    return plan(expr, optimize_plan=optimize, **options).explain()


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

class _Executor:
    """Memoised post-order evaluation of a costed plan."""

    def __init__(self, the_plan: Plan) -> None:
        self.plan = the_plan
        self.results: Dict[int, AssociativeArray] = {}
        self._node_seconds = get_registry().histogram(
            "expr_node_seconds", "Wall time of one operator-node "
            "evaluation (memoised nodes run once)")

    def run(self) -> AssociativeArray:
        order = topological_order(self.plan.root)
        with span("expr.execute", nodes=len(order)):
            for node in order:
                if id(node) not in self.results:
                    self.results[id(node)] = self._execute(node)
        return self.results[id(self.plan.root)]

    def _execute(self, node: Node) -> AssociativeArray:
        if isinstance(node, Leaf):
            return node.array
        with span(f"node.{node.kind}") as sp:
            started = time.perf_counter()
            result = self._execute_operator(node)
            self._node_seconds.observe(time.perf_counter() - started)
            sp.set_attr("nnz", result.nnz)
        return result

    def _execute_operator(self, node: Node) -> AssociativeArray:
        children = [self.results[id(c)] for c in node.children]
        if isinstance(node, Transpose):
            return children[0].transpose()
        if isinstance(node, MatMul):
            return self._matmul(node, children[0], children[1])
        if isinstance(node, IncidenceToAdjacency):
            return self._incidence_to_adjacency(node, children[0],
                                                children[1])
        if isinstance(node, Elementwise):
            return elementwise_apply(children[0], children[1], node.op,
                                     zero=node.result_zero)
        if isinstance(node, Reduce):
            return self._reduce(node, children[0])
        if isinstance(node, Select):
            return children[0].select(node.row_selector, node.col_selector)
        if isinstance(node, WithKeys):
            return children[0].with_keys(node.new_row_keys,
                                         node.new_col_keys)
        if isinstance(node, Kron):
            return kron(children[0], children[1], node.op,
                        zero=node.result_zero)
        raise AssertionError(f"unhandled node kind {node.kind!r}")

    # -- products ------------------------------------------------------------
    def _kernel_for(self, node: Node, a: AssociativeArray,
                    b: AssociativeArray) -> str:
        """The cost model's kernel, demoted to ``generic`` when the
        actual operands' values do not vectorise (the planner cannot
        see values)."""
        est = self.plan.estimates.get(id(node))
        kernel = est.kernel if est is not None else "auto"
        if kernel in ("scipy", "sortmerge", "dense_blocked"):
            from repro.arrays.sparse_backend import vectorizable
            if not vectorizable(a, b, node.op_pair):
                return "generic"
        return kernel

    @staticmethod
    def _empty_product(node, a: AssociativeArray,
                       b: AssociativeArray) -> Optional[AssociativeArray]:
        """O(1) short-circuit: a sparse product with an empty operand
        has no multiplicative terms — valid for *every* algebra, and
        what keeps a long hop chain cheap after its frontier empties
        (static dead-branch pruning cannot see runtime emptiness)."""
        if node.mode == "sparse" and (a.nnz == 0 or b.nnz == 0):
            return AssociativeArray.empty(node.row_keys, node.col_keys,
                                          zero=node.zero)
        return None

    def _timed_product(self, node: Node, kernel: str, fn):
        """Run one product; record its wall time on the
        ``expr_kernel_seconds`` histogram, the active trace, and the
        event log.

        The event makes every routing decision auditable after the
        fact: which kernel actually ran, for which op-pair, over how
        many estimated multiplicative terms — not inferred from
        aggregate metrics.
        """
        est = self.plan.estimates.get(id(node))
        terms = est.flops if est is not None else 0.0
        with span("kernel", kernel=kernel):
            started = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - started
        get_registry().histogram(
            "expr_kernel_seconds", "Wall time of one product kernel call",
            kernel=kernel).observe(elapsed)
        pair = getattr(node, "op_pair", None)
        emit_event("expr.kernel", kernel=kernel,
                   op_pair=pair.name if pair is not None else "-",
                   terms=terms, seconds=elapsed, node=node.kind)
        return result

    def _matmul(self, node: MatMul, a: AssociativeArray,
                b: AssociativeArray) -> AssociativeArray:
        empty = self._empty_product(node, a, b)
        if empty is not None:
            return empty
        kernel = self._kernel_for(node, a, b)
        return self._timed_product(
            node, kernel,
            lambda: multiply(a, b, node.op_pair, mode=node.mode,
                             kernel=kernel))

    def _incidence_to_adjacency(
        self, node: IncidenceToAdjacency,
        e: AssociativeArray, f: AssociativeArray,
    ) -> AssociativeArray:
        empty = self._empty_product(node, e, f)
        if empty is not None:
            return empty
        if id(node) in self.plan.shard_nodes:
            return self._sharded(node, e, f)
        kernel = self._kernel_for(node, e, f)
        if node.mode == "sparse" and kernel == "generic":
            return self._timed_product(
                node, kernel, lambda: _fused_generic(e, f, node.op_pair))
        if kernel == "scipy":
            # ⊕.⊗ = +.×: hand both CSR forms to scipy and let its O(nnz)
            # counting transpose contract ``saᵀ·sb`` — no transposed
            # array, no comparison sort.
            ne, nf = e.numeric_backend(), f.numeric_backend()
            return self._timed_product(
                node, kernel, lambda: _fused_scipy(node, ne, nf, e, f))
        return self._timed_product(
            node, kernel,
            lambda: adjacency_array(e, f, node.op_pair, mode=node.mode,
                                    kernel=kernel))

    def _sharded(self, node: IncidenceToAdjacency, e: AssociativeArray,
                 f: AssociativeArray) -> AssociativeArray:
        from repro.shard.plan import ShardedAdjacencyPlan
        options = dict(self.plan.options)
        options.setdefault("n_shards", 4)
        options.setdefault("executor", "thread")
        # The planner already licensed the pair (criteria + order-
        # insensitive ⊕); re-certifying per shard run would be waste.
        options["unsafe_ok"] = True
        shard_plan = ShardedAdjacencyPlan(node.op_pair, **options)
        with span("shard.offload", n_shards=options["n_shards"],
                  executor=options["executor"]):
            return shard_plan.run((e, f)).adjacency

    # -- reductions ----------------------------------------------------------
    @staticmethod
    def _reduce(node: Reduce, array: AssociativeArray) -> AssociativeArray:
        if node.axis == "rows":
            folded = reduce_rows(array, node.op)
            data = {(r, REDUCE_KEY): v for r, v in folded.items()}
            return AssociativeArray(data, row_keys=array.row_keys,
                                    col_keys=[REDUCE_KEY],
                                    zero=array.zero)
        folded = reduce_cols(array, node.op)
        data = {(REDUCE_KEY, c): v for c, v in folded.items()}
        return AssociativeArray(data, row_keys=[REDUCE_KEY],
                                col_keys=array.col_keys, zero=array.zero)


def _fused_scipy(node: IncidenceToAdjacency, ne, nf,
                 e: AssociativeArray, f: AssociativeArray
                 ) -> AssociativeArray:
    """``Eᵀ·F`` for the arithmetic semiring, fully inside scipy.

    ``sa.T`` is a free CSC view of ``E``'s CSR, and scipy's SpGEMM
    converts it with a linear-time counting transpose — cheaper than
    materializing our lex-sorted CSC permutation first.  The product's
    CSR arrays are adopted as the result backend.
    """
    import scipy.sparse as sp
    from repro.arrays.backend import NumericBackend
    sa = sp.csr_matrix(ne.csr(), shape=ne.shape)
    sb = sp.csr_matrix(nf.csr(), shape=nf.shape)
    sc = (sa.T @ sb).tocsr()
    sc.eliminate_zeros()
    sc.sort_indices()
    be = NumericBackend.from_csr(sc.data, sc.indices, sc.indptr, sc.shape)
    return AssociativeArray._adopt(be, e.col_keys, f.col_keys,
                                   node.op_pair.zero)


def _fused_generic(e: AssociativeArray, f: AssociativeArray,
                   op_pair: OpPair) -> AssociativeArray:
    """Generic fused ``Eᵀ ⊕.⊗ F`` for arbitrary value sets.

    The body of :func:`repro.arrays.matmul.multiply_generic` reading
    ``E`` transposed on the fly — the dict of the transposed array is
    never built.  Fold order follows the shared edge-key order exactly
    as the unfused evaluation does.
    """
    zero = op_pair.zero
    inner = e.row_keys            # the shared edge key set K
    inner_pos = inner.position_map()
    a_rows: Dict[Any, List[Tuple[int, Any, Any]]] = {}
    for (k, r), v in e.to_dict().items():   # read E(k, r) as Eᵀ(r, k)
        a_rows.setdefault(r, []).append((inner_pos[k], k, v))
    for terms in a_rows.values():
        terms.sort(key=lambda t: t[0])
    b_rows: Dict[Any, List[Tuple[Any, Any]]] = {}
    for (k, c), v in f.to_dict().items():
        b_rows.setdefault(k, []).append((c, v))

    out: Dict[Tuple[Any, Any], Any] = {}
    started: Dict[Tuple[Any, Any], bool] = {}
    mul = op_pair.mul
    add = op_pair.add
    for r, row_terms in a_rows.items():
        for _pos, k, av in row_terms:
            for c, bv in b_rows.get(k, ()):
                term = mul(av, bv)
                rc = (r, c)
                if rc in started:
                    out[rc] = add(out[rc], term)
                else:
                    out[rc] = term
                    started[rc] = True
    data = {rc: v for rc, v in out.items() if not op_pair.is_zero(v)}
    return AssociativeArray(data, row_keys=e.col_keys, col_keys=f.col_keys,
                            zero=zero,
                            backend="dict" if e.pinned and f.pinned
                            else "auto")


# ---------------------------------------------------------------------------
# Vector front-ends (the query-service entry points)
# ---------------------------------------------------------------------------

def _vector_array(vector: Dict[Any, Any], array: AssociativeArray,
                  zero: Any) -> AssociativeArray:
    """A 1×n array over ``array``'s row keys from a ``{key: value}``
    vector; keys outside the row key set are ignored (matching
    :func:`repro.graphs.algorithms.semiring_vecmat`)."""
    rows = array.row_keys
    data = {(_VEC_KEY, k): v for k, v in vector.items() if k in rows}
    return AssociativeArray(data, row_keys=[_VEC_KEY], col_keys=rows,
                            zero=zero)


def vecmat(vector: Dict[Any, Any], array: AssociativeArray,
           op_pair: OpPair) -> Dict[Any, Any]:
    """``y = x ⊕.⊗ A`` through the expression engine.

    Drop-in equivalent of
    :func:`repro.graphs.algorithms.semiring_vecmat` — same fold order
    (the terms of each output coordinate arrive in row-key order), same
    zero elision — but the product runs on the array's cached compiled
    backend instead of re-indexing a Python dict per call.
    """
    x = _vector_array(vector, array, op_pair.zero)
    result = evaluate(lazy(x, name="x").matmul(lazy(array, name="A"),
                                               op_pair))
    return {c: v for _r, c, v in result.entries()}


def khop_frontier(
    adjacency: AssociativeArray,
    source: Any,
    k: int,
    op_pair: OpPair,
    *,
    optimize: bool = True,
) -> Dict[Any, Any]:
    """The k-hop frontier ``x ⊕.⊗ Aᵏ`` from ``source`` as one fused plan.

    Builds the whole hop chain as a single expression — after
    common-subexpression elimination every hop shares one ``A`` leaf
    (and therefore one compiled backend) — instead of looping Python
    vector–matrix products.  ``adjacency`` must be square (the service
    publishes square snapshots).  Falls back to the reference
    :func:`~repro.graphs.algorithms.semiring_vecmat` loop for
    degenerate algebras whose ``1`` equals their ``0`` (the seed vector
    ``{source: 1}`` is not sparse-representable there).
    """
    if k < 0:
        raise ExprError(f"k must be >= 0, got {k}")
    frontier = {source: op_pair.one}
    if k == 0:
        return frontier
    if values_equal(op_pair.one, op_pair.zero):
        from repro.graphs.algorithms import semiring_vecmat
        for _ in range(k):
            if not frontier:
                break
            frontier = semiring_vecmat(frontier, adjacency, op_pair)
        return frontier
    x = _vector_array(frontier, adjacency, op_pair.zero)
    expr = lazy(x, name="seed")
    a = lazy(adjacency, name="A")
    for _ in range(k):
        expr = expr.matmul(a, op_pair)
    result = evaluate(expr, optimize=optimize)
    return {c: v for _r, c, v in result.entries()}
