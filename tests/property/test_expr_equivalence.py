"""Optimizer soundness, property-based.

The refactor contract of the lazy expression engine: for **random
expression trees** over **random certified op-pairs**, the optimized
plan — transpose pushdown, incidence-to-adjacency fusion,
reduction-into-matmul fusion, dead-branch pruning, CSE, cost-model
kernel choices, everything — must produce exactly the array that eager,
node-for-node evaluation produces.

Trees are grown over square arrays on a shared vertex key set so every
unary/binary step stays conformable; values are small integer-valued
floats, for which every catalog fold is exact in float64 (so strict
``==`` is the right comparison even for rewrites that re-associate
``⊕``).  A final optional reduction exercises the reduce-into-matmul
rule; transposes of products exercise the pushdown; ``.T.matmul``
chains exercise the fusion.

A second suite runs the same trees over an *uncertified* pair and
asserts the optimizer changes nothing semantically there either — the
gate refuses the algebra-dependent rewrites, and refusal must be as
sound as application.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arrays.associative import AssociativeArray
from repro.expr import evaluate, lazy, plan
from repro.values.semiring import get_op_pair

from tests.helpers import SAFE_NUMERIC_PAIRS

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])

#: Unary/binary growth steps applied while building a random tree.
_STEPS = ("transpose", "matmul", "fused_matmul", "ewise_add",
          "ewise_mul", "noop")


@st.composite
def expression_trees(draw, pair_name: str, max_depth: int = 4):
    """A random lazy expression plus the same tree's eager blueprint.

    Returns ``(expr, seed)`` where ``expr`` is the root
    :class:`~repro.expr.ast.LazyArray`; equivalence is checked by
    evaluating the identical DAG with and without the optimizer.
    """
    pair = get_op_pair(pair_name)
    zero = float(pair.zero)
    n = draw(st.integers(2, 5))
    keys = [f"v{i}" for i in range(n)]
    rng = random.Random(draw(st.integers(0, 2 ** 20)))

    def fresh_array() -> AssociativeArray:
        nnz = rng.randint(0, n * n)
        data = {}
        for _ in range(nnz):
            r, c = rng.choice(keys), rng.choice(keys)
            data[(r, c)] = float(rng.randint(1, 9))
        return AssociativeArray(data, row_keys=keys, col_keys=keys,
                                zero=zero)

    expr = lazy(fresh_array(), "seed")
    depth = draw(st.integers(1, max_depth))
    for i in range(depth):
        step = draw(st.sampled_from(_STEPS))
        if step == "transpose":
            expr = expr.T
        elif step == "matmul":
            expr = expr.matmul(lazy(fresh_array(), f"m{i}"), pair)
        elif step == "fused_matmul":
            # The paper's shape: transpose-of-left feeding a product.
            expr = expr.T.matmul(lazy(fresh_array(), f"f{i}"), pair)
        elif step == "ewise_add":
            expr = expr.add(lazy(fresh_array(), f"a{i}"), pair.add)
        elif step == "ewise_mul":
            expr = expr.multiply_elementwise(
                lazy(fresh_array(), f"x{i}"), pair.mul)
    if draw(st.booleans()):
        expr = expr.reduce_rows(pair.add) if draw(st.booleans()) \
            else expr.reduce_cols(pair.add)
    return expr


def _make_equivalence_test(name: str):
    @settings(max_examples=25, **COMMON)
    @given(expr=expression_trees(name))
    def _test(expr):
        optimized = evaluate(expr, optimize=True)
        eager = evaluate(expr, optimize=False)
        assert optimized == eager
        # Every applied rewrite must carry its license (structural
        # rules record an empty property tuple by design).
        for rw in plan(expr).applied:
            assert rw.rule
            assert rw.description

    _test.__name__ = f"test_optimized_equals_eager_{name}"
    return _test


for _name in SAFE_NUMERIC_PAIRS:
    globals()[f"test_optimized_equals_eager_{_name}"] = \
        _make_equivalence_test(_name)
del _name


def _make_uncertified_test(name: str):
    pair = get_op_pair(name)
    if not isinstance(pair.zero, (int, float)) \
            or isinstance(pair.zero, bool):   # pragma: no cover
        raise AssertionError("uncertified suite expects numeric zeros")

    @settings(max_examples=15, **COMMON)
    @given(expr=expression_trees(name, max_depth=3))
    def _test(expr):
        assert evaluate(expr, optimize=True) == \
            evaluate(expr, optimize=False)

    _test.__name__ = f"test_uncertified_unchanged_{name}"
    return _test


#: Uncertified pairs with plain numeric carriers: the gate must refuse
#: the algebra-dependent rewrites and leave evaluation untouched.
for _name in ("gf2_xor_and", "int_plus_times"):
    globals()[f"test_uncertified_unchanged_{_name}"] = \
        _make_uncertified_test(_name)
del _name
