"""Plan and execute lazy expression DAGs.

:func:`plan` runs the full optimizer front-end — certification-gated
rewrites (:mod:`repro.expr.rewrite`), then the cost model
(:mod:`repro.expr.cost`) — and returns a :class:`Plan`: the optimized
DAG, every applied/refused rewrite with the property evidence that
decided it, and per-node cost annotations.  :func:`evaluate` executes a
plan; :func:`explain` renders its transcript without executing.

Execution is a memoised post-order walk: shared nodes (hop chains
``A·A·…`` after common-subexpression elimination, reused sub-queries)
evaluate once.  Vector queries (k-hop, path lengths) are not planned:
they step through :mod:`repro.graphs.algorithms`.  The engine builds
nothing of its own: every product runs
:func:`~repro.arrays.matmul.multiply` and every fused
:class:`~repro.expr.ast.IncidenceToAdjacency` node runs
:func:`~repro.core.construction.adjacency_array`, each on the cost
model's kernel, validated against the actual operands at run time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.arrays.associative import AssociativeArray
from repro.arrays.elementwise import elementwise_apply
from repro.arrays.kron import kron
from repro.arrays.matmul import multiply
from repro.arrays.reductions import reduce_cols, reduce_rows
from repro.core.construction import adjacency_array
from repro.expr.ast import (
    Elementwise,
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
from repro.values.properties import DEFAULT_SAMPLES

__all__ = ["Plan", "plan", "evaluate", "explain"]


@dataclass
class Plan:
    """An optimized, costed, ready-to-run expression plan."""

    root: Node
    source: Node
    applied: List[AppliedRewrite]
    refused: List[RefusedRewrite]
    estimates: Dict[int, CostEstimate]

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
                     f"~{_fmt_bytes(self.peak_bytes)}")
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


def _fmt_bytes(x: float) -> str:
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
) -> Plan:
    """Optimize and cost ``expr`` (a :class:`LazyArray`, node, or array).

    ``optimize_plan=False`` skips the rewrite pipeline (the eager
    evaluation order, node for node) but still costs the DAG.
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
    return Plan(root=root, source=source, applied=applied,
                refused=refused, estimates=estimates)


def evaluate(expr: Any, *, optimize: bool = True, **options: Any
             ) -> AssociativeArray:
    """Optimize, cost, and execute ``expr``; returns the result array.

    Keyword options are forwarded to :func:`plan` (``samples``,
    ``seed``).
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
        if isinstance(node, (MatMul, IncidenceToAdjacency)):
            return self._product(node, children[0], children[1])
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

    def _product(self, node: Node, a: AssociativeArray,
                 b: AssociativeArray) -> AssociativeArray:
        """Run one product node on the planned kernel:
        :func:`~repro.arrays.matmul.multiply` for a :class:`MatMul`,
        :func:`~repro.core.construction.adjacency_array` for a fused
        :class:`IncidenceToAdjacency` node.

        A sparse product with an empty operand has no multiplicative
        terms in *every* algebra, so it returns an empty array in O(1):
        that keeps a long hop chain cheap after its frontier empties,
        which static dead-branch pruning cannot see.  Otherwise the
        product's wall time goes on the ``expr_kernel_seconds``
        histogram and the active trace, and an ``expr.kernel`` event
        records which kernel ran, for which op-pair, over how many
        estimated terms, so every routing decision is auditable after
        the fact.
        """
        if node.mode == "sparse" and (a.nnz == 0 or b.nnz == 0):
            return AssociativeArray.empty(node.row_keys, node.col_keys,
                                          zero=node.zero)
        kernel = self._kernel_for(node, a, b)
        build = adjacency_array if isinstance(node, IncidenceToAdjacency) \
            else multiply
        with span("kernel", kernel=kernel):
            started = time.perf_counter()
            result = build(a, b, node.op_pair, mode=node.mode,
                           kernel=kernel)
            elapsed = time.perf_counter() - started
        get_registry().histogram(
            "expr_kernel_seconds", "Wall time of one product kernel call",
            kernel=kernel).observe(elapsed)
        est = self.plan.estimates.get(id(node))
        emit_event("expr.kernel", kernel=kernel,
                   op_pair=node.op_pair.name,
                   terms=est.flops if est is not None else 0.0,
                   seconds=elapsed, node=node.kind)
        return result

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
