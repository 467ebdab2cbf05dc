"""Cost model: per-node nnz/backend/kernel estimates and memory sizing.

Before the engine runs a plan it walks the DAG once, predicting for
every node

* how many entries the node will store (``nnz``) — leaves report their
  exact count, operators propagate standard sparse estimates (the
  uniform-distribution SpGEMM bound for products, union bounds for
  element-wise ops, exact products for Kronecker);
* whether the result can drive the numeric kernels (``backend``:
  ``numeric`` when the operand chain stays on plain numbers and every
  operation has a ufunc form, ``dict`` otherwise) and which multiply
  kernel applies — decided by :func:`repro.arrays.matmul.route_kernel`,
  the same pure function eager :func:`~repro.arrays.matmul.multiply`
  routes through;
* which backend the result is stored on (``native``: a generic product
  of numeric-capable operands still yields a dict-backed array) and so
  how many bytes the materialized result (plus any kernel expansion
  buffer) will take.

The estimates drive two real decisions: the executor passes the chosen
kernel to :func:`repro.arrays.matmul.multiply` (validated against the
actual operands at run time — predictions about *values* can be wrong,
e.g. a numeric-zero array holding strings, and the engine then falls
back to the generic path), and fused incidence-to-adjacency nodes whose
estimated working set exceeds the plan's ``memory_budget`` are routed
to the out-of-core :mod:`repro.shard` executor instead of in-memory
evaluation.  Every estimate is a function of the plan's operands alone,
so ``explain()`` prints the same transcript in every process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.arrays.associative import transpose_is_numeric
from repro.arrays.backend import usable_numeric_zero
from repro.arrays.matmul import holds_numeric, route_kernel
from repro.expr.ast import (
    Elementwise,
    IncidenceToAdjacency,
    Kron,
    Leaf,
    MatMul,
    Node,
    Reduce,
    Select,
    Transpose,
    WithKeys,
    topological_order,
)

__all__ = ["CostEstimate", "estimate_plan",
           "NUMERIC_ENTRY_BYTES", "DICT_ENTRY_BYTES"]

#: Bytes per stored entry on the columnar backend (int64 row + int64
#: col + float64 value).
NUMERIC_ENTRY_BYTES = 24

#: Rough bytes per stored entry on the dict backend (key tuple, boxed
#: value, hash-table overhead).
DICT_ENTRY_BYTES = 160


@dataclass(frozen=True)
class CostEstimate:
    """Predicted execution profile of one node."""

    rows: int
    cols: int
    nnz: float
    #: ``"numeric"`` when the result's values can drive the numeric
    #: kernels (promotable), else ``"dict"`` — the routing input.
    backend: str
    kernel: str = "-"            # multiply kernel, "-" for non-products
    flops: float = 0.0           # multiplicative terms for products
    exact: bool = False          # True only for leaves
    #: Whether the result is *stored* on the numeric backend, not just
    #: promotable to it (the operand storage kernel routing reads).
    native: bool = False

    @property
    def stored(self) -> str:
        """The backend kind the result is stored on."""
        return "numeric" if self.native else "dict"

    @property
    def bytes(self) -> float:
        """Estimated bytes of the materialized result, on the backend it
        is stored on."""
        per = NUMERIC_ENTRY_BYTES if self.native else DICT_ENTRY_BYTES
        return self.nnz * per

    @property
    def working_bytes(self) -> float:
        """Result bytes plus any kernel expansion buffer.

        The expansion-based ``sortmerge`` kernel materializes every
        multiplicative term before the group-reduce, so its working set
        is proportional to the flop count, not the output size.
        """
        extra = 0.0
        if self.kernel == "sortmerge":
            extra = self.flops * NUMERIC_ENTRY_BYTES
        return self.bytes + extra


def _leaf_numeric(leaf: Leaf) -> bool:
    """Whether a leaf is predicted to drive the numeric fast paths.

    Conservative on pins and exotic zeros; optimistic about stored
    values (checking them would cost a full scan — the executor's
    runtime validation catches the optimism).
    """
    array = leaf.array
    if array.backend == "numeric":
        return True
    return not array.pinned and usable_numeric_zero(array.zero)


def _native(node: Node, est: CostEstimate, *,
            transposed: bool = False) -> bool:
    """Whether ``node``'s result (or, with ``transposed=True``, its
    transpose) is stored on the numeric backend: read off the array for
    leaves, predicted for operator results, whose promotion is untried
    and predicted to fail exactly when ``est.backend`` is ``dict``."""
    if isinstance(node, Leaf):
        return holds_numeric(node.array, transposed=transposed)
    if not transposed:
        return est.native
    return transpose_is_numeric(
        native=est.native,
        promotion=None if est.backend == "numeric" else False,
        nnz=est.nnz)


def _estimate(node: Node, memo: Dict[int, CostEstimate]) -> CostEstimate:
    if isinstance(node, Leaf):
        rows, cols = node.shape
        backend = "numeric" if _leaf_numeric(node) else "dict"
        return CostEstimate(rows, cols, float(node.array.nnz), backend,
                            exact=True, native=holds_numeric(node.array))

    child_ests = [memo[id(c)] for c in node.children]

    if isinstance(node, Transpose):
        (ce,) = child_ests
        return CostEstimate(
            ce.cols, ce.rows, ce.nnz, ce.backend,
            native=_native(node.children[0], ce, transposed=True))

    if isinstance(node, (MatMul, IncidenceToAdjacency)):
        a, b = child_ests
        fused = isinstance(node, IncidenceToAdjacency)
        if fused:
            # Eᵀ·F: the contraction runs over E's *rows* (the edges).
            inner = max(a.rows, 1)
            rows, cols = a.cols, b.cols
        else:
            inner = max(a.cols, 1)
            rows, cols = a.rows, b.cols
        # Uniform-distribution SpGEMM estimate: each of a's entries
        # meets nnz_b/inner partners on the shared inner key.
        flops = a.nnz * b.nnz / inner
        nnz = min(float(rows * cols), flops) if node.mode == "sparse" \
            else min(float(rows * cols), max(flops, 1.0))
        numeric = a.backend == "numeric" and b.backend == "numeric"
        kernel = "generic"
        if numeric:
            a_node, b_node = node.children
            kernel = route_kernel(
                node.op_pair, node.mode,
                a_native=_native(a_node, a, transposed=fused),
                b_native=_native(b_node, b), nnz_a=a.nnz, nnz_b=b.nnz,
                out_cells=rows * cols)
        backend = "numeric" if numeric else "dict"
        return CostEstimate(rows, cols, nnz, backend, kernel=kernel,
                            flops=flops, native=kernel != "generic")

    if isinstance(node, Elementwise):
        a, b = child_ests
        nnz = min(float(a.rows * a.cols), a.nnz + b.nnz)
        numeric = (a.backend == "numeric" and b.backend == "numeric"
                   and node.op.ufunc is not None
                   and usable_numeric_zero(node.result_zero))
        return CostEstimate(a.rows, a.cols, nnz,
                            "numeric" if numeric else "dict",
                            native=numeric and (a.native or b.native))

    if isinstance(node, Reduce):
        (ce,) = child_ests
        rows, cols = node.shape
        nnz = min(ce.nnz, float(rows if node.axis == "rows" else cols))
        numeric = (ce.backend == "numeric" and node.op.ufunc is not None
                   and usable_numeric_zero(node.op.identity))
        # The fold's result is built from a dict: never stored numeric.
        return CostEstimate(rows, cols, nnz,
                            "numeric" if numeric else "dict", native=False)

    if isinstance(node, Select):
        (ce,) = child_ests
        rows, cols = node.shape
        frac = 1.0
        if ce.rows and ce.cols:
            frac = (rows / ce.rows) * (cols / ce.cols)
        return CostEstimate(rows, cols, ce.nnz * frac, ce.backend,
                            native=ce.native)

    if isinstance(node, WithKeys):
        (ce,) = child_ests
        rows, cols = node.shape
        return CostEstimate(rows, cols, ce.nnz, ce.backend,
                            native=ce.native)

    if isinstance(node, Kron):
        a, b = child_ests
        rows, cols = node.shape
        numeric = (a.backend == "numeric" and b.backend == "numeric"
                   and node.op.ufunc is not None
                   and usable_numeric_zero(node.result_zero))
        return CostEstimate(rows, cols, a.nnz * b.nnz,
                            "numeric" if numeric else "dict",
                            native=numeric and (a.native or b.native))

    raise AssertionError(f"unhandled node kind {node.kind!r}")


def estimate_plan(root: Node) -> Dict[int, CostEstimate]:
    """Cost estimates for every node of the DAG, keyed by ``id(node)``."""
    memo: Dict[int, CostEstimate] = {}
    for node in topological_order(root):
        if id(node) not in memo:
            memo[id(node)] = _estimate(node, memo)
    return memo
