"""Cost model: per-node nnz/backend/kernel estimates and memory sizing.

Before the engine runs a plan it walks the DAG once, predicting for
every node

* how many entries the node will store (``nnz``) — leaves report their
  exact count, operators propagate standard sparse estimates (the
  uniform-distribution SpGEMM bound for products, union bounds for
  element-wise ops, exact products for Kronecker);
* which storage backend the result will live on (``numeric`` when the
  operand chain stays on plain numbers and every operation has a ufunc
  form, ``dict`` otherwise) and which multiply kernel applies
  (mirroring :func:`repro.arrays.matmul._pick_kernel`'s policy,
  including the small-operand bailout);
* how many bytes the materialized result (plus any kernel expansion
  buffer) will take.

The estimates drive two real decisions: the executor passes the chosen
kernel to :func:`repro.arrays.matmul.multiply` (validated against the
actual operands at run time — predictions about *values* can be wrong,
e.g. a numeric-zero array holding strings, and the engine then falls
back to the generic path), and fused incidence-to-adjacency nodes whose
estimated working set exceeds the plan's ``memory_budget`` are routed
to the out-of-core :mod:`repro.shard` executor instead of in-memory
evaluation.

The model also *learns*: every product the executor runs reports its
(kernel, multiplicative terms, wall seconds) back through
:func:`record_kernel_sample`, which feeds the process-global metrics
registry (``expr_kernel_seconds{kernel=...}`` and friends on
``/metrics``), a measured seconds-per-term rate, and the persistent
calibration store (:mod:`repro.obs.calibration`).  Later plans then
carry an estimated wall time (:attr:`CostEstimate.seconds`) computed
from observed kernel throughput, not a hardcoded constant — preferring
this process's own samples (``seconds_source == "measured"``) and
falling back to the rates a *previous* process persisted for this
machine fingerprint (``seconds_source == "calibrated"``), so even a
cold interpreter's first ``explain()`` reports wall-time estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.arrays.backend import VECTORIZE_MIN_NNZ, usable_numeric_zero
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
from repro.obs.calibration import get_calibration_store
from repro.obs.metrics import get_registry

__all__ = ["CostEstimate", "estimate_plan", "record_kernel_sample",
           "measured_seconds_per_term", "seconds_per_term",
           "NUMERIC_ENTRY_BYTES", "DICT_ENTRY_BYTES"]

#: Bytes per stored entry on the columnar backend (int64 row + int64
#: col + float64 value).
NUMERIC_ENTRY_BYTES = 24

#: Rough bytes per stored entry on the dict backend (key tuple, boxed
#: value, hash-table overhead).
DICT_ENTRY_BYTES = 160


def record_kernel_sample(kernel: str, terms: float, seconds: float) -> None:
    """Feed one executed product back into the measured cost model.

    Called by the executor after every product it runs.  The sample
    lands on the process-global registry — ``expr_kernel_seconds``
    (latency histogram), ``expr_kernel_seconds_total`` and
    ``expr_kernel_terms_total`` (the running rate numerator and
    denominator) — so ``/metrics`` and the seconds-per-term estimate
    read the same numbers, and on the persistent calibration store
    (:mod:`repro.obs.calibration`), so the *next* process's cold plans
    start from this one's measured throughput.
    """
    registry = get_registry()
    registry.histogram(
        "expr_kernel_seconds", "Wall time of one product kernel call",
        kernel=kernel).observe(seconds)
    registry.counter(
        "expr_kernel_seconds_total",
        "Cumulative product-kernel wall seconds", kernel=kernel
    ).inc(seconds)
    registry.counter(
        "expr_kernel_terms_total",
        "Cumulative multiplicative terms executed per kernel",
        kernel=kernel).inc(max(terms, 1.0))
    store = get_calibration_store()
    if store is not None:
        store.record(kernel, max(terms, 1.0), seconds)
        store.maybe_save()


def measured_seconds_per_term(kernel: str) -> Optional[float]:
    """Seconds per multiplicative term observed *in this process* for
    ``kernel``.

    ``None`` until :func:`record_kernel_sample` has seen that kernel in
    this process — the cost model never invents a throughput.  See
    :func:`seconds_per_term` for the variant that also consults the
    persistent calibration store.
    """
    registry = get_registry()
    seconds = registry.counter(
        "expr_kernel_seconds_total",
        "Cumulative product-kernel wall seconds", kernel=kernel).value
    terms = registry.counter(
        "expr_kernel_terms_total",
        "Cumulative multiplicative terms executed per kernel",
        kernel=kernel).value
    if terms <= 0 or seconds <= 0:
        return None
    return seconds / terms


def seconds_per_term(kernel: str) -> Tuple[Optional[float], str]:
    """``(rate, source)`` — the best available seconds-per-term.

    In-process samples win (``source == "measured"``); otherwise the
    persistent calibration store's EWMA for this machine fingerprint
    (``source == "calibrated"``) — that is what lets a fresh
    interpreter plan with real throughput numbers before it has run a
    single product.  ``(None, "")`` when neither exists.
    """
    rate = measured_seconds_per_term(kernel)
    if rate is not None:
        return rate, "measured"
    store = get_calibration_store()
    if store is not None:
        stored = store.rate(kernel)
        if stored is not None:
            return stored, "calibrated"
    return None, ""


@dataclass(frozen=True)
class CostEstimate:
    """Predicted execution profile of one node."""

    rows: int
    cols: int
    nnz: float
    backend: str                 # "numeric" | "dict"
    kernel: str = "-"            # multiply kernel, "-" for non-products
    flops: float = 0.0           # multiplicative terms for products
    exact: bool = False          # True only for leaves
    #: Predicted wall seconds from observed kernel throughput; ``None``
    #: until the kernel has a rate from this process or the
    #: calibration store.
    seconds: Optional[float] = None
    #: Where the rate behind :attr:`seconds` came from: ``"measured"``
    #: (this process), ``"calibrated"`` (the persistent store), or
    #: ``""`` (no rate known).
    seconds_source: str = ""

    @property
    def bytes(self) -> float:
        """Estimated bytes of the materialized result."""
        per = NUMERIC_ENTRY_BYTES if self.backend == "numeric" \
            else DICT_ENTRY_BYTES
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


def _product_kernel(node, a_est: CostEstimate, b_est: CostEstimate,
                    numeric: bool, inner: float) -> str:
    """Mirror of the eager auto-kernel policy, on estimates.

    Same preference order as :func:`repro.arrays.matmul._pick_kernel`
    (``scipy`` for genuine ``+.×``, ``sortmerge`` for every other ufunc
    pair, ``generic`` otherwise), including the calibrated refinement
    of the tiny-operand bailout: when the calibration store has
    measured seconds-per-term for both contenders, predicted wall time
    decides instead of the static nnz threshold.
    """
    from repro.arrays.matmul import (
        calibrated_tiny_pick,
        preferred_vector_kernel,
    )
    pair = node.op_pair
    if not numeric or not (pair.has_ufuncs and pair.is_numeric):
        return "generic"
    candidate = preferred_vector_kernel(pair, node.mode)
    native = a_est.backend == "numeric" and b_est.backend == "numeric"
    small = (a_est.nnz + b_est.nnz < VECTORIZE_MIN_NNZ
             and a_est.rows * b_est.cols < 4096)
    if not native and small and a_est.exact and b_est.exact:
        pick = calibrated_tiny_pick(candidate, a_est.nnz, b_est.nnz, inner)
        return candidate if pick == candidate else "generic"
    return candidate


def _estimate(node: Node, memo: Dict[int, CostEstimate]) -> CostEstimate:
    if isinstance(node, Leaf):
        rows, cols = node.shape
        backend = "numeric" if _leaf_numeric(node) else "dict"
        return CostEstimate(rows, cols, float(node.array.nnz), backend,
                            exact=True)

    child_ests = [memo[id(c)] for c in node.children]

    if isinstance(node, Transpose):
        (ce,) = child_ests
        return CostEstimate(ce.cols, ce.rows, ce.nnz, ce.backend)

    if isinstance(node, (MatMul, IncidenceToAdjacency)):
        a, b = child_ests
        if isinstance(node, IncidenceToAdjacency):
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
        kernel = _product_kernel(node, a, b, numeric, float(inner))
        backend = "numeric" if kernel != "generic" else \
            ("numeric" if numeric else "dict")
        rate, source = seconds_per_term(kernel)
        return CostEstimate(rows, cols, nnz, backend, kernel=kernel,
                            flops=flops,
                            seconds=None if rate is None else flops * rate,
                            seconds_source=source)

    if isinstance(node, Elementwise):
        a, b = child_ests
        nnz = min(float(a.rows * a.cols), a.nnz + b.nnz)
        numeric = (a.backend == "numeric" and b.backend == "numeric"
                   and node.op.ufunc is not None
                   and usable_numeric_zero(node.result_zero))
        return CostEstimate(a.rows, a.cols, nnz,
                            "numeric" if numeric else "dict")

    if isinstance(node, Reduce):
        (ce,) = child_ests
        rows, cols = node.shape
        nnz = min(ce.nnz, float(rows if node.axis == "rows" else cols))
        numeric = (ce.backend == "numeric" and node.op.ufunc is not None
                   and usable_numeric_zero(node.op.identity))
        return CostEstimate(rows, cols, nnz,
                            "numeric" if numeric else "dict")

    if isinstance(node, Select):
        (ce,) = child_ests
        rows, cols = node.shape
        frac = 1.0
        if ce.rows and ce.cols:
            frac = (rows / ce.rows) * (cols / ce.cols)
        return CostEstimate(rows, cols, ce.nnz * frac, ce.backend)

    if isinstance(node, WithKeys):
        (ce,) = child_ests
        rows, cols = node.shape
        return CostEstimate(rows, cols, ce.nnz, ce.backend)

    if isinstance(node, Kron):
        a, b = child_ests
        rows, cols = node.shape
        numeric = (a.backend == "numeric" and b.backend == "numeric"
                   and node.op.ufunc is not None
                   and usable_numeric_zero(node.result_zero))
        return CostEstimate(rows, cols, a.nnz * b.nnz,
                            "numeric" if numeric else "dict")

    raise AssertionError(f"unhandled node kind {node.kind!r}")


def estimate_plan(root: Node) -> Dict[int, CostEstimate]:
    """Cost estimates for every node of the DAG, keyed by ``id(node)``."""
    memo: Dict[int, CostEstimate] = {}
    for node in topological_order(root):
        if id(node) not in memo:
            memo[id(node)] = _estimate(node, memo)
    return memo
