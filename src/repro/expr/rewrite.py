"""Certification-gated rewrite rules for lazy expression DAGs.

Every rule here is a *theorem application*: it rewrites an expression
into a cheaper equivalent **only when the algebraic properties its
equivalence proof needs actually hold** for the op-pair at the rewrite
site.  The properties are not trusted from metadata — each requirement
is verified through the :mod:`repro.values.properties` checkers (and,
for the Theorem II.1 criteria, through the
:mod:`repro.core.certify` engine), exactly the machinery that gates
adjacency construction.  Certification thereby stops being only a
construction gate and becomes the query optimizer's license database:

``double_transpose``
    ``(Aᵀ)ᵀ → A``.  Pure structure; no properties needed.

``transpose_over_elementwise``
    ``(A op B)ᵀ → Aᵀ op Bᵀ``.  Pure structure.

``transpose_pushdown``
    ``(A ⊕.⊗ B)ᵀ → Bᵀ ⊕.⊗ Aᵀ``.  Requires **commutative ⊗** — the
    Section III observation that ``(AB)ᵀ = BᵀAᵀ`` may fail for
    non-commutative ⊗ (``max.concat``) is exactly the refusal case.

``fuse_incidence_adjacency``
    ``Eᵀ ⊕.⊗ F → incidence_to_adjacency(E, F)`` — one
    ``adjacency_array`` call, with no materialized transpose on the
    ``sortmerge`` and ``generic`` kernels.  Requires the **Theorem II.1
    criteria**: the fused kernel commits to sparse evaluation, and
    sparse ≡ faithful is precisely what the criteria certify.

``reduce_into_matmul``
    ``reduce(A ⊕.⊗ B) → A ⊕.⊗ reduce(B)`` (and the column-axis dual) —
    fold the reduction into the product so the full m×n intermediate is
    never materialized.  Requires **associative and commutative ⊕** and
    **distributivity** (the re-association/factoring steps of the
    proof), plus the criteria (pattern preservation).

``prune_dead_branches``
    A sparse product with a statically-empty factor collapses to an
    empty leaf — no terms exist, whatever the algebra.  (Element-wise
    nodes are deliberately *not* pruned: ``x ⊕ empty → x`` would need
    the identity axiom to hold for whatever values ``x`` stores, which
    no domain-level check can guarantee.)

Common-subexpression elimination (:func:`eliminate_common_subexpressions`)
runs as a final pass: it is pure structure, but it is what makes a
k-hop chain ``x·A·A·…·A`` share one ``A`` leaf (and one promoted
backend) across every hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arrays.associative import AssociativeArray
from repro.core.certify import certify_cached
from repro.obs.events import emit_event
from repro.obs.metrics import get_registry
from repro.expr.ast import (
    Elementwise,
    ExprError,
    IncidenceToAdjacency,
    Leaf,
    MatMul,
    Node,
    Reduce,
    Transpose,
    topological_order,
)
from repro.values.properties import DEFAULT_SAMPLES, check_named_property
from repro.values.semiring import OpPair

__all__ = [
    "AppliedRewrite",
    "RefusedRewrite",
    "PropertyGate",
    "RewriteRule",
    "DEFAULT_RULES",
    "optimize",
    "eliminate_common_subexpressions",
    "known_empty",
]

#: Safety bound on per-node rule applications (rewrites can cascade —
#: a pushdown exposes a fusion — but must terminate).
_MAX_APPLICATIONS_PER_NODE = 16

#: Process-wide memo of property-check reports, keyed by (property,
#: operand side, op-pair identity, samples, seed).  The same discipline
#: as :data:`repro.core.certify._CERTIFY_CACHE`: the checked pair is
#: stored in the value, pinning it alive so the ``id()`` in the key can
#: never be reused by a different pair.  Property checks are pure over
#: frozen pairs, and every ``plan()`` call builds a fresh gate — without
#: this cache each evaluation would re-run the 400-sample sweeps.
_REPORT_CACHE: Dict[Tuple, Tuple["OpPair", bool, str]] = {}


@dataclass(frozen=True)
class AppliedRewrite:
    """One rewrite the optimizer performed, with its license.

    ``properties`` holds the human-readable evidence lines — one per
    algebraic property the rule required, each naming the property and
    the verdict that licensed the application.
    """

    rule: str
    description: str
    site: str
    properties: Tuple[str, ...] = ()


@dataclass(frozen=True)
class RefusedRewrite:
    """A rewrite that matched structurally but was refused: the op-pair
    could not be certified for the properties the rule requires."""

    rule: str
    site: str
    reason: str


class PropertyGate:
    """Verified-property oracle for rewrite rules, memoised per op-pair.

    Each query runs the real checker from
    :mod:`repro.values.properties` over the pair's domain (seeded, so
    plans are reproducible) and caches the report.  The metadata claims
    on :class:`~repro.values.operations.BinaryOp` act as an additional
    veto — mirroring :func:`repro.shard.merge.check_merge_safety`, a
    pair whose author flags ``⊕`` non-associative is refused even if
    sampling fails to find a counterexample.
    """

    #: Relative tolerance for the re-association/re-ordering checks:
    #: float64 evaluation of a real-number ⊕ rounds differently per
    #: association, which is evaluation noise, not an axiom violation.
    FLOAT_REL_TOL = 1e-9

    def __init__(self, *, samples: int = DEFAULT_SAMPLES,
                 seed: int = 0xD4) -> None:
        self.samples = samples
        self.seed = seed

    # -- primitive verified checks -------------------------------------------
    def _check(self, prop: str, pair: OpPair, which: str) -> Tuple[bool, str]:
        """(verdict, evidence line) for one named property of one op.

        Memoised process-wide (see :data:`_REPORT_CACHE`), so repeated
        plans over the same algebra pay the sampling sweep once —
        matching the caching depth of the criteria path.
        """
        key = (prop, which, id(pair), self.samples, self.seed)
        cached = _REPORT_CACHE.get(key)
        if cached is not None and cached[0] is pair:
            get_registry().counter(
                "expr_property_cache_hits_total",
                "Property-report cache hits (sampling sweeps avoided)"
            ).inc()
            return cached[1], cached[2]
        get_registry().counter(
            "expr_property_cache_misses_total",
            "Property-report cache misses (sampling sweeps run)").inc()
        if prop == "distributivity":
            report = check_named_property(
                prop, pair.add, pair.mul, pair.domain,
                samples=self.samples, seed=self.seed,
                rel_tol=self.FLOAT_REL_TOL)
        else:
            op = pair.add if which == "add" else pair.mul
            report = check_named_property(
                prop, op, pair.domain, samples=self.samples,
                seed=self.seed, rel_tol=self.FLOAT_REL_TOL)
        _REPORT_CACHE[key] = (pair, report.holds, report.describe())
        return report.holds, report.describe()

    def criteria(self, pair: OpPair) -> Tuple[bool, List[str]]:
        """Theorem II.1 criteria, via the (cached) certification engine."""
        cert = certify_cached(pair, samples=self.samples, seed=self.seed)
        lines = [f"Theorem II.1 criteria for {pair.display}: "
                 + ("certified" if cert.safe else "VIOLATED")]
        lines += ["  " + r.describe() for r in (
            cert.criteria.zero_sum_free,
            cert.criteria.no_zero_divisors,
            cert.criteria.annihilator)]
        return cert.safe, lines

    def mul_commutative(self, pair: OpPair) -> Tuple[bool, List[str]]:
        ok, line = self._check("commutativity", pair, "mul")
        if ok and not pair.mul.commutative:
            return False, [line + " — but ⊗ is declared non-commutative; "
                           "the declaration vetoes"]
        return ok, [line]

    def add_associative_commutative(self, pair: OpPair) -> Tuple[bool, List[str]]:
        ok_a, line_a = self._check("associativity", pair, "add")
        ok_c, line_c = self._check("commutativity", pair, "add")
        lines = [line_a, line_c]
        if (ok_a and ok_c) and not (pair.add.associative
                                    and pair.add.commutative):
            return False, lines + ["⊕ is declared order-sensitive; the "
                                   "declaration vetoes"]
        return ok_a and ok_c, lines

    def distributive(self, pair: OpPair) -> Tuple[bool, List[str]]:
        ok, line = self._check("distributivity", pair, "both")
        return ok, [line]


class RewriteRule:
    """Base rule: a structural pattern plus its algebraic license.

    ``requires`` names the properties the rule's equivalence proof
    needs (documentation *and* contract — :meth:`licensed` must verify
    exactly these through the gate).
    """

    name = "?"
    description = "?"
    #: Property slugs the rule requires, e.g. ``("mul commutative",)``.
    requires: Tuple[str, ...] = ()

    def matches(self, node: Node) -> bool:
        """Whether the structural pattern applies at ``node``."""
        raise NotImplementedError

    def licensed(self, node: Node, gate: PropertyGate) -> Tuple[bool, List[str]]:
        """Verify the required properties; (verdict, evidence lines)."""
        return True, []

    def apply(self, node: Node) -> Node:
        """Rewrite ``node`` (only called after matches + licensed)."""
        raise NotImplementedError


class DoubleTranspose(RewriteRule):
    name = "double_transpose"
    description = "(Aᵀ)ᵀ → A"
    requires = ()

    def matches(self, node: Node) -> bool:
        return isinstance(node, Transpose) \
            and isinstance(node.children[0], Transpose)

    def apply(self, node: Node) -> Node:
        return node.children[0].children[0]


class TransposeOverElementwise(RewriteRule):
    name = "transpose_over_elementwise"
    description = "(A op B)ᵀ → Aᵀ op Bᵀ"
    requires = ()

    def matches(self, node: Node) -> bool:
        return isinstance(node, Transpose) \
            and isinstance(node.children[0], Elementwise)

    def apply(self, node: Node) -> Node:
        ew = node.children[0]
        return Elementwise(Transpose(ew.children[0]),
                           Transpose(ew.children[1]), ew.op,
                           zero=ew.result_zero, role=ew.role)


class TransposePushdown(RewriteRule):
    name = "transpose_pushdown"
    description = "(A ⊕.⊗ B)ᵀ → Bᵀ ⊕.⊗ Aᵀ"
    requires = ("commutativity of ⊗",)

    def matches(self, node: Node) -> bool:
        return isinstance(node, Transpose) \
            and isinstance(node.children[0],
                           (MatMul, IncidenceToAdjacency)) \
            and node.children[0].mode == "sparse"

    def licensed(self, node: Node, gate: PropertyGate) -> Tuple[bool, List[str]]:
        # Cᵀ(j,i) = ⊕_k A(i,k) ⊗ B(k,j) while (BᵀAᵀ)(j,i) folds
        # B(k,j) ⊗ A(i,k) over the same key order: term-wise equal iff
        # ⊗ commutes (Section III's (AB)ᵀ ≠ BᵀAᵀ caveat).
        return gate.mul_commutative(node.children[0].op_pair)

    def apply(self, node: Node) -> Node:
        mm = node.children[0]
        if isinstance(mm, IncidenceToAdjacency):
            # (EᵀF)ᵀ = FᵀE: Corollary III.1's reverse adjacency, still
            # one fused kernel with the incidence roles swapped.
            return IncidenceToAdjacency(mm.children[1], mm.children[0],
                                        mm.op_pair, mm.mode)
        return MatMul(Transpose(mm.children[1]), Transpose(mm.children[0]),
                      mm.op_pair, mm.mode)


class FuseIncidenceAdjacency(RewriteRule):
    name = "fuse_incidence_adjacency"
    description = "Eᵀ ⊕.⊗ F → incidence_to_adjacency(E, F)"
    requires = ("Theorem II.1 criteria",)

    def matches(self, node: Node) -> bool:
        return isinstance(node, MatMul) and node.mode == "sparse" \
            and isinstance(node.children[0], Transpose)

    def licensed(self, node: Node, gate: PropertyGate) -> Tuple[bool, List[str]]:
        # The fused kernel commits to sparse evaluation over the
        # compiled incidence form; sparse ≡ Definition I.3 is exactly
        # what the criteria certify, so an uncertified pair keeps the
        # evaluation shape the user literally wrote.
        return gate.criteria(node.op_pair)

    def apply(self, node: Node) -> Node:
        return IncidenceToAdjacency(node.children[0].children[0],
                                    node.children[1], node.op_pair,
                                    node.mode)


class ReduceIntoMatMul(RewriteRule):
    name = "reduce_into_matmul"
    description = "reduce(A ⊕.⊗ B) → A ⊕.⊗ reduce(B)"
    requires = ("Theorem II.1 criteria", "associativity of ⊕",
                "commutativity of ⊕", "distributivity")

    @staticmethod
    def _product(node: Node) -> Optional[Node]:
        child = node.children[0]
        if isinstance(child, (MatMul, IncidenceToAdjacency)) \
                and child.mode == "sparse":
            return child
        return None

    def matches(self, node: Node) -> bool:
        if not isinstance(node, Reduce):
            return False
        product = self._product(node)
        if product is None:
            return False
        # The folded op must be the product's own ⊕ for the exchange
        # ⊕_c ⊕_k (a⊗b) = ⊕_k (a ⊗ ⊕_c b) to even be well-typed.
        add = product.op_pair.add
        return node.op.name == add.name and node.op.func is add.func

    def licensed(self, node: Node, gate: PropertyGate) -> Tuple[bool, List[str]]:
        pair = self._product(node).op_pair
        ok_crit, lines = gate.criteria(pair)
        ok_add, add_lines = gate.add_associative_commutative(pair)
        ok_dist, dist_lines = gate.distributive(pair)
        return (ok_crit and ok_add and ok_dist,
                lines + add_lines + dist_lines)

    def apply(self, node: Node) -> Node:
        product = self._product(node)
        a, b = product.children
        pair, mode = product.op_pair, product.mode
        if isinstance(product, IncidenceToAdjacency):
            # A = Eᵀ·F.  Row-reducing A folds F's columns first
            # (⊕_c A(r,c) = ⊕_k E(k,r) ⊗ (⊕_c F(k,c))); column-reducing
            # folds E's columns, and the collapsed E is still an
            # incidence operand sharing the edge rows, so the result
            # stays one fused kernel either way.
            if node.axis == "rows":
                return IncidenceToAdjacency(
                    a, Reduce(b, node.op, "rows"), pair, mode)
            return IncidenceToAdjacency(
                Reduce(a, node.op, "rows"), b, pair, mode)
        if node.axis == "rows":
            return MatMul(a, Reduce(b, node.op, "rows"), pair, mode)
        return MatMul(Reduce(a, node.op, "cols"), b, pair, mode)


class PruneDeadBranches(RewriteRule):
    name = "prune_dead_branches"
    description = "collapse sparse products with a statically-empty factor"
    requires = ()

    # Only *products* are pruned.  An element-wise ``x ⊕ empty → x``
    # prune would additionally need ``op(v, zero) = v`` for every value
    # ``x`` actually stores — the identity axiom only certifies that on
    # the op's domain, and arrays are free to hold out-of-domain values
    # (eager evaluation folds them; a prune would not).  No static
    # check can license it, so the optimizer leaves element-wise nodes
    # alone.  The sparse-product prune needs nothing: an empty operand
    # contributes no multiplicative terms whatever the values.

    def matches(self, node: Node) -> bool:
        if isinstance(node, (MatMul, IncidenceToAdjacency)):
            if node.mode != "sparse":
                return False   # dense folds range over unstored zeros
            return any(known_empty(c) for c in node.children)
        return False

    def licensed(self, node: Node, gate: PropertyGate) -> Tuple[bool, List[str]]:
        return True, [
            "sparse evaluation: an empty operand contributes no "
            "multiplicative terms, so every output ⊕-fold is empty"]

    def apply(self, node: Node) -> Node:
        empty = AssociativeArray.empty(node.row_keys, node.col_keys,
                                       zero=node.zero)
        return Leaf(empty, name="∅")


#: The optimizer's rule pipeline, in application order.
DEFAULT_RULES: Tuple[RewriteRule, ...] = (
    DoubleTranspose(),
    TransposeOverElementwise(),
    TransposePushdown(),
    PruneDeadBranches(),
    ReduceIntoMatMul(),
    FuseIncidenceAdjacency(),
)


def known_empty(node: Node) -> bool:
    """Whether ``node`` provably evaluates to an all-zero array without
    running anything (static sparsity propagation).

    Iterative bottom-up over the DAG — a deep hop chain must not blow
    the recursion limit just to be asked whether it is empty.
    """
    memo: Dict[Node, bool] = {}
    for n in topological_order(node):
        if isinstance(n, Leaf):
            empty = n.array.nnz == 0
        elif isinstance(n, (MatMul, IncidenceToAdjacency)):
            # Sparse products of an empty factor have no terms at all.
            empty = n.mode == "sparse" \
                and any(memo[c] for c in n.children)
        elif isinstance(n, Elementwise):
            empty = all(memo[c] for c in n.children)
        elif n.kind == "kron":
            empty = any(memo[c] for c in n.children)
        elif n.kind in ("transpose", "reduce", "select", "with_keys"):
            empty = memo[n.children[0]]
        else:
            empty = False
        memo[n] = empty
    return memo[node]


def optimize(
    root: Node,
    gate: PropertyGate,
    *,
    rules: Tuple[RewriteRule, ...] = DEFAULT_RULES,
) -> Tuple[Node, List[AppliedRewrite], List[RefusedRewrite]]:
    """Bottom-up rewrite to fixpoint, then common-subexpression sharing.

    Children are optimized before their parent (memoised over the DAG),
    and a rewritten node is re-examined until no rule fires — a pushdown
    can expose a fusion.  Every application records the verified
    property evidence that licensed it; every structural match the gate
    refused is recorded too, so ``explain()`` can show *why* a plan kept
    its original shape.

    The source DAG is walked in precomputed topological order (and
    node signatures are pre-seeded the same way), so the recursive
    helper only ever descends into the shallow fresh structure a rule
    just created — a 500-hop chain optimizes without approaching the
    recursion limit.
    """
    applied: List[AppliedRewrite] = []
    refused: List[RefusedRewrite] = []
    refused_sites = set()
    # Keyed by the node *object* (identity semantics — Node defines no
    # __eq__), never by id(): temporary nodes a rule creates and then
    # discards would be garbage-collected, and CPython reuses their
    # addresses, so an id-keyed memo can hand back a stale, unrelated
    # subtree.  Object keys pin every memoised node alive for the pass.
    memo: Dict[Node, Node] = {}

    def visit(node: Node) -> Node:
        hit = memo.get(node)
        if hit is not None:
            return hit
        new_children = tuple(visit(c) for c in node.children)
        current = node if new_children == node.children \
            else node.replace_children(new_children)
        for _ in range(_MAX_APPLICATIONS_PER_NODE):
            fired = False
            for rule in rules:
                if not rule.matches(current):
                    continue
                ok, evidence = rule.licensed(current, gate)
                if not ok:
                    key = (rule.name, current.signature())
                    if key not in refused_sites:
                        refused_sites.add(key)
                        failing = [ln.strip() for ln in evidence
                                   if "FAILS" in ln or "VIOLATED" in ln
                                   or "vetoes" in ln]
                        refused.append(RefusedRewrite(
                            rule.name, current.label(),
                            "; ".join(failing or evidence)
                            or "properties not certified"))
                        get_registry().counter(
                            "expr_rewrites_refused_total",
                            "Rewrites refused per rule (properties "
                            "not certified)", rule=rule.name).inc()
                        emit_event(
                            "rewrite_refused", rule=rule.name,
                            site=current.label(),
                            reason=refused[-1].reason)
                    continue
                site = current.label()
                current = rule.apply(current)
                get_registry().counter(
                    "expr_rewrites_applied_total",
                    "Rewrites applied per rule", rule=rule.name).inc()
                # The rewritten form may itself contain unvisited
                # structure (e.g. fresh Transpose wrappers).
                rewritten_children = tuple(visit(c)
                                           for c in current.children)
                if rewritten_children != current.children:
                    current = current.replace_children(rewritten_children)
                applied.append(AppliedRewrite(
                    rule.name, rule.description, site, tuple(evidence)))
                fired = True
                break
            if not fired:
                break
        memo[node] = current
        return current

    for n in topological_order(root):
        n.signature()      # children-first: each computation is shallow
        visit(n)
    new_root = memo[root]
    new_root, shared = eliminate_common_subexpressions(new_root)
    if shared:
        applied.append(AppliedRewrite(
            "common_subexpression_elimination",
            "structurally identical subtrees share one node "
            "(evaluated once)",
            f"{shared} duplicate subtree(s) merged", ()))
        get_registry().counter(
            "expr_rewrites_applied_total", "Rewrites applied per rule",
            rule="common_subexpression_elimination").inc()
    return new_root, applied, refused


def eliminate_common_subexpressions(root: Node) -> Tuple[Node, int]:
    """Share structurally identical subtrees; returns (root, merges).

    Purely structural (same operator, same operands, same algebra ⇒
    same value), so it needs no property license.  The execution
    engine memoises by node identity, so shared nodes evaluate once.
    """
    canonical: Dict[Tuple, Node] = {}
    memo: Dict[Node, Node] = {}    # object-keyed; see optimize()
    merges = 0

    def visit(node: Node) -> Node:
        nonlocal merges
        hit = memo.get(node)
        if hit is not None:
            return hit
        new_children = tuple(visit(c) for c in node.children)
        current = node if new_children == node.children \
            else node.replace_children(new_children)
        sig = current.signature()
        kept = canonical.get(sig)
        if kept is None:
            canonical[sig] = current
            kept = current
        elif kept is not current:
            merges += 1
        memo[node] = kept
        return kept

    for n in topological_order(root):
        n.signature()
        visit(n)
    return memo[root], merges
