"""``repro.expr`` — lazy expressions, certified rewrites, cost-based
execution.

The subsystem the GraphBLAS nonblocking model calls for: ``lazy()``
captures chains of array operations as a DAG
(:mod:`repro.expr.ast`), an optimizer applies rewrite rules whose
algebraic preconditions are *verified* through the certification
machinery before each application (:mod:`repro.expr.rewrite`), a cost
model sizes every intermediate and picks kernels
(:mod:`repro.expr.cost`), and the executor runs the optimized plan —
``Eoutᵀ ⊕.⊗ Ein`` fused into one
:func:`~repro.core.construction.adjacency_array` call, every other
product through :func:`~repro.arrays.matmul.multiply`, common
subexpressions shared (:mod:`repro.expr.execute`).

>>> from repro.expr import lazy, evaluate
>>> from repro.values.semiring import get_op_pair
>>> pair = get_op_pair("plus_times")
>>> adjacency = evaluate(
...     lazy(eout, "Eout").T.matmul(lazy(ein, "Ein"), pair))
... # doctest: +SKIP
"""

from repro.expr.ast import (
    ExprError,
    LazyArray,
    Node,
    REDUCE_KEY,
    lazy,
)
from repro.expr.cost import CostEstimate, estimate_plan
from repro.expr.execute import (
    Plan,
    evaluate,
    explain,
    plan,
)
from repro.expr.rewrite import (
    AppliedRewrite,
    DEFAULT_RULES,
    PropertyGate,
    RefusedRewrite,
    RewriteRule,
    optimize,
)

__all__ = [
    "ExprError",
    "LazyArray",
    "Node",
    "REDUCE_KEY",
    "lazy",
    "CostEstimate",
    "estimate_plan",
    "Plan",
    "plan",
    "evaluate",
    "explain",
    "AppliedRewrite",
    "RefusedRewrite",
    "RewriteRule",
    "DEFAULT_RULES",
    "PropertyGate",
    "optimize",
]
