"""Lazy expression DAGs over associative arrays.

The paper builds adjacency arrays as *algebraic expressions* over
incidence arrays (``A = Eoutᵀ ⊕.⊗ Ein``), and GraphBLAS' nonblocking
execution model captures such expressions as DAGs so an optimizer can
fuse operators before anything is materialized.  This module is the DAG:
each :class:`Node` describes one operator application — array
multiplication, element-wise ``⊕``/``⊗``, transpose, row/column
reductions, selection, re-embedding, Kronecker product — plus the fused
:class:`IncidenceToAdjacency` form the optimizer introduces.

Nothing here evaluates.  Nodes know their *key sets* and *zero* (derived
structurally from their children, without touching any stored entry), so
conformability errors surface at expression-construction time with the
same messages the eager API gives, and the cost model can reason about
shapes before execution.  Evaluation and optimization live in
:mod:`repro.expr.execute` and :mod:`repro.expr.rewrite`.

:class:`LazyArray` is the user-facing wrapper: ``lazy(A)`` lifts an
:class:`~repro.arrays.associative.AssociativeArray` into the expression
world, fluent methods mirror the eager spellings (``matmul``, ``add``,
``transpose``/``T``, ``reduce_rows`` ...), and ``evaluate()`` /
``explain()`` hand the DAG to the engine.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple, Union

from repro.arrays.associative import AssociativeArray
from repro.arrays.keys import KeySet, Selector
from repro.values.equality import values_equal
from repro.values.operations import BinaryOp
from repro.values.semiring import OpPair

__all__ = [
    "ExprError",
    "Node",
    "Leaf",
    "Transpose",
    "MatMul",
    "Elementwise",
    "Reduce",
    "Select",
    "WithKeys",
    "Kron",
    "IncidenceToAdjacency",
    "LazyArray",
    "lazy",
    "REDUCE_KEY",
    "topological_order",
]


class ExprError(ValueError):
    """Raised for malformed expressions (non-conformable operands etc.)."""


#: The collapsed key a :class:`Reduce` node folds a whole axis into.
REDUCE_KEY = "⊕"


class Node:
    """One operator application in a lazy expression DAG.

    Subclasses store their operands in :attr:`children` plus whatever
    operator metadata they need.  Key sets and the zero are derived
    lazily (and cached) from the children; :meth:`signature` is the
    structural identity used by common-subexpression elimination.
    """

    __slots__ = ("children", "_keys", "_sig")

    #: Short operator tag used in plan rendering, e.g. ``"matmul"``.
    kind = "?"

    def __init__(self, *children: "Node") -> None:
        self.children = tuple(children)
        self._keys: Optional[Tuple[KeySet, KeySet]] = None
        self._sig: Optional[Tuple] = None

    # -- structure ------------------------------------------------------------
    def _compute_keys(self) -> Tuple[KeySet, KeySet]:
        raise NotImplementedError

    @property
    def row_keys(self) -> KeySet:
        if self._keys is None:
            self._keys = self._compute_keys()
        return self._keys[0]

    @property
    def col_keys(self) -> KeySet:
        if self._keys is None:
            self._keys = self._compute_keys()
        return self._keys[1]

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.row_keys), len(self.col_keys))

    @property
    def zero(self) -> Any:
        raise NotImplementedError

    def signature(self) -> Tuple:
        """Hashable structural identity (same signature ⇒ same value)."""
        if self._sig is None:
            self._sig = self._compute_signature()
        return self._sig

    def _compute_signature(self) -> Tuple:
        raise NotImplementedError

    def replace_children(self, children: Tuple["Node", ...]) -> "Node":
        """A copy of this node over different operands."""
        raise NotImplementedError

    def label(self) -> str:
        """One-line operator description for plans and rewrite logs."""
        return self.kind

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.label()} shape={self.shape}>"


def _op_sig(op: BinaryOp) -> Tuple:
    """Structural identity of an operation (name alone is not enough —
    user ops may reuse a name over a different callable)."""
    return (op.name, id(op.func))


class Leaf(Node):
    """A concrete :class:`AssociativeArray` at the bottom of the DAG."""

    __slots__ = ("array", "name")
    kind = "leaf"

    def __init__(self, array: AssociativeArray,
                 name: Optional[str] = None) -> None:
        if not isinstance(array, AssociativeArray):
            raise ExprError(
                f"lazy() wraps AssociativeArray, got {type(array).__name__}")
        super().__init__()
        self.array = array
        self.name = name

    def _compute_keys(self) -> Tuple[KeySet, KeySet]:
        return (self.array.row_keys, self.array.col_keys)

    @property
    def zero(self) -> Any:
        return self.array.zero

    def _compute_signature(self) -> Tuple:
        return ("leaf", id(self.array))

    def replace_children(self, children: Tuple[Node, ...]) -> Node:
        return self

    def label(self) -> str:
        name = self.name or "array"
        return f"leaf {name!r}"


class Transpose(Node):
    """Definition I.2: swap the key sets."""

    __slots__ = ()
    kind = "transpose"

    def _compute_keys(self) -> Tuple[KeySet, KeySet]:
        child = self.children[0]
        return (child.col_keys, child.row_keys)

    @property
    def zero(self) -> Any:
        return self.children[0].zero

    def _compute_signature(self) -> Tuple:
        return ("transpose", self.children[0].signature())

    def replace_children(self, children: Tuple[Node, ...]) -> Node:
        return Transpose(*children)


class MatMul(Node):
    """Array multiplication ``a ⊕.⊗ b`` (Definition I.3)."""

    __slots__ = ("op_pair", "mode")
    kind = "matmul"

    def __init__(self, a: Node, b: Node, op_pair: OpPair,
                 mode: str = "sparse") -> None:
        if mode not in ("sparse", "dense"):
            raise ExprError(f"unknown mode {mode!r}; use 'sparse' or 'dense'")
        if a.col_keys != b.row_keys:
            raise ExprError(
                "inner key sets differ: left operand has columns "
                f"{tuple(a.col_keys)[:4]}..., right has rows "
                f"{tuple(b.row_keys)[:4]}...; Definition I.3 requires a "
                "shared K3 — re-embed with with_keys() first")
        super().__init__(a, b)
        self.op_pair = op_pair
        self.mode = mode

    def _compute_keys(self) -> Tuple[KeySet, KeySet]:
        a, b = self.children
        return (a.row_keys, b.col_keys)

    @property
    def zero(self) -> Any:
        return self.op_pair.zero

    def _compute_signature(self) -> Tuple:
        a, b = self.children
        return ("matmul", self.op_pair.name, self.mode,
                a.signature(), b.signature())

    def replace_children(self, children: Tuple[Node, ...]) -> Node:
        return MatMul(children[0], children[1], self.op_pair, self.mode)

    def label(self) -> str:
        suffix = " (dense)" if self.mode == "dense" else ""
        return f"matmul[{self.op_pair.display}]{suffix}"


class Elementwise(Node):
    """Element-wise ``op`` over the union pattern (aligned key sets)."""

    __slots__ = ("op", "result_zero", "role")
    kind = "elementwise"

    def __init__(self, a: Node, b: Node, op: BinaryOp, *,
                 zero: Any = None, role: str = "⊕") -> None:
        if a.row_keys != b.row_keys or a.col_keys != b.col_keys:
            raise ExprError(
                "element-wise operations require identical key sets; "
                "re-embed with with_keys() over the key-set unions first")
        super().__init__(a, b)
        self.op = op
        self.result_zero = a.zero if zero is None else zero
        self.role = role
        background = op(a.zero, b.zero)
        if not values_equal(background, self.result_zero):
            raise ExprError(
                f"op({a.zero!r}, {b.zero!r}) = {background!r} ≠ "
                f"{self.result_zero!r}: result would be dense; element-wise "
                "evaluation refused")

    def _compute_keys(self) -> Tuple[KeySet, KeySet]:
        a = self.children[0]
        return (a.row_keys, a.col_keys)

    @property
    def zero(self) -> Any:
        return self.result_zero

    def _compute_signature(self) -> Tuple:
        a, b = self.children
        return ("elementwise", _op_sig(self.op), repr(self.result_zero),
                a.signature(), b.signature())

    def replace_children(self, children: Tuple[Node, ...]) -> Node:
        return Elementwise(children[0], children[1], self.op,
                           zero=self.result_zero, role=self.role)

    def label(self) -> str:
        return f"ewise{self.role}[{self.op.name}]"


class Reduce(Node):
    """Fold one axis with ``op`` (D4M's ``sum(A, dim)`` generalized).

    ``axis="rows"`` folds each row over its columns (an m×1 result with
    the single column key :data:`REDUCE_KEY`); ``axis="cols"`` folds each
    column over its rows (1×n).  Rows/columns with no stored entries are
    omitted, matching :func:`repro.arrays.reductions.reduce_rows`.
    """

    __slots__ = ("op", "axis")
    kind = "reduce"

    def __init__(self, child: Node, op: BinaryOp, axis: str) -> None:
        if axis not in ("rows", "cols"):
            raise ExprError(f"unknown reduce axis {axis!r}; use 'rows' or "
                            "'cols'")
        super().__init__(child)
        self.op = op
        self.axis = axis

    def _compute_keys(self) -> Tuple[KeySet, KeySet]:
        child = self.children[0]
        if self.axis == "rows":
            return (child.row_keys, KeySet([REDUCE_KEY]))
        return (KeySet([REDUCE_KEY]), child.col_keys)

    @property
    def zero(self) -> Any:
        return self.children[0].zero

    def _compute_signature(self) -> Tuple:
        return ("reduce", self.axis, _op_sig(self.op),
                self.children[0].signature())

    def replace_children(self, children: Tuple[Node, ...]) -> Node:
        return Reduce(children[0], self.op, self.axis)

    def label(self) -> str:
        return f"reduce_{self.axis}[{self.op.name}]"


class Select(Node):
    """Sub-array on selected keys (Figure 1 selection semantics)."""

    __slots__ = ("row_selector", "col_selector")
    kind = "select"

    def __init__(self, child: Node, row_selector: Selector,
                 col_selector: Selector) -> None:
        super().__init__(child)
        self.row_selector = row_selector
        self.col_selector = col_selector

    def _compute_keys(self) -> Tuple[KeySet, KeySet]:
        child = self.children[0]
        return (child.row_keys.select(self.row_selector),
                child.col_keys.select(self.col_selector))

    @property
    def zero(self) -> Any:
        return self.children[0].zero

    def _compute_signature(self) -> Tuple:
        return ("select", repr(self.row_selector), repr(self.col_selector),
                self.children[0].signature())

    def replace_children(self, children: Tuple[Node, ...]) -> Node:
        return Select(children[0], self.row_selector, self.col_selector)

    def label(self) -> str:
        return (f"select[{self.row_selector!r}, {self.col_selector!r}]")


class WithKeys(Node):
    """Re-embedding into (super)key sets."""

    __slots__ = ("new_row_keys", "new_col_keys")
    kind = "with_keys"

    def __init__(self, child: Node,
                 row_keys: Union[KeySet, Iterable[Any], None] = None,
                 col_keys: Union[KeySet, Iterable[Any], None] = None) -> None:
        super().__init__(child)
        self.new_row_keys = (child.row_keys if row_keys is None
                             else KeySet.coerce(row_keys))
        self.new_col_keys = (child.col_keys if col_keys is None
                             else KeySet.coerce(col_keys))

    def _compute_keys(self) -> Tuple[KeySet, KeySet]:
        return (self.new_row_keys, self.new_col_keys)

    @property
    def zero(self) -> Any:
        return self.children[0].zero

    def _compute_signature(self) -> Tuple:
        # KeySet objects, not expanded tuples: KeySet hashes are
        # memoised, so ancestors re-hashing this signature pay O(1)
        # instead of re-walking |V| keys.
        return ("with_keys", self.new_row_keys, self.new_col_keys,
                self.children[0].signature())

    def replace_children(self, children: Tuple[Node, ...]) -> Node:
        return WithKeys(children[0], self.new_row_keys, self.new_col_keys)


class Kron(Node):
    """Kronecker product over ``mul`` with string-paired keys."""

    __slots__ = ("op", "result_zero")
    kind = "kron"

    def __init__(self, a: Node, b: Node, mul: BinaryOp, *,
                 zero: Any = None) -> None:
        super().__init__(a, b)
        self.op = mul
        self.result_zero = a.zero if zero is None else zero

    def _compute_keys(self) -> Tuple[KeySet, KeySet]:
        from repro.arrays.kron import pair_key
        a, b = self.children
        rows = KeySet([pair_key(ra, rb)
                       for ra in a.row_keys for rb in b.row_keys])
        cols = KeySet([pair_key(ca, cb)
                       for ca in a.col_keys for cb in b.col_keys])
        return (rows, cols)

    @property
    def shape(self) -> Tuple[int, int]:
        # Avoid materializing the paired key sets just for a size.
        a, b = self.children
        return (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])

    @property
    def zero(self) -> Any:
        return self.result_zero

    def _compute_signature(self) -> Tuple:
        a, b = self.children
        return ("kron", _op_sig(self.op), repr(self.result_zero),
                a.signature(), b.signature())

    def replace_children(self, children: Tuple[Node, ...]) -> Node:
        return Kron(children[0], children[1], self.op, zero=self.result_zero)

    def label(self) -> str:
        return f"kron[{self.op.name}]"


class IncidenceToAdjacency(Node):
    """The fused form of ``transpose(E) ⊕.⊗ F`` — the paper's
    ``A = Eoutᵀ ⊕.⊗ Ein`` as one call.

    Only the optimizer introduces this node (via the
    ``fuse_incidence_adjacency`` rewrite); the execution engine runs it
    through :func:`~repro.core.construction.adjacency_array` on the
    planned kernel, which builds no transpose on ``sortmerge`` or
    ``generic`` and multiplies ``Eᵀ`` on ``scipy``.
    """

    __slots__ = ("op_pair", "mode")
    kind = "incidence_to_adjacency"

    def __init__(self, e: Node, f: Node, op_pair: OpPair,
                 mode: str = "sparse") -> None:
        if e.row_keys != f.row_keys:
            raise ExprError(
                "Eout and Ein must share the edge key set K as rows; "
                "re-embed with with_keys() over the union first")
        super().__init__(e, f)
        self.op_pair = op_pair
        self.mode = mode

    def _compute_keys(self) -> Tuple[KeySet, KeySet]:
        e, f = self.children
        return (e.col_keys, f.col_keys)

    @property
    def zero(self) -> Any:
        return self.op_pair.zero

    def _compute_signature(self) -> Tuple:
        e, f = self.children
        return ("incidence_to_adjacency", self.op_pair.name, self.mode,
                e.signature(), f.signature())

    def replace_children(self, children: Tuple[Node, ...]) -> Node:
        return IncidenceToAdjacency(children[0], children[1], self.op_pair,
                                    self.mode)

    def label(self) -> str:
        return f"incidence_to_adjacency[{self.op_pair.display}]"


def topological_order(root: Node) -> Tuple[Node, ...]:
    """Children-before-parents order over the DAG (shared nodes once).

    Iterative, so a 256-hop query chain cannot hit the recursion limit.
    """
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in reversed(node.children):
            stack.append((child, False))
    return tuple(order)


class LazyArray:
    """Fluent wrapper turning method chains into expression DAGs.

    >>> from repro.expr import lazy
    >>> from repro.values.semiring import get_op_pair
    >>> expr = lazy(eout, "Eout").T.matmul(lazy(ein, "Ein"),
    ...                                    get_op_pair("plus_times"))
    ... # doctest: +SKIP
    >>> adjacency = expr.evaluate()          # doctest: +SKIP
    >>> print(expr.explain())                # doctest: +SKIP
    """

    __slots__ = ("node",)

    def __init__(self, node: Node) -> None:
        self.node = node

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def _as_node(other: Union["LazyArray", AssociativeArray, Node]) -> Node:
        if isinstance(other, LazyArray):
            return other.node
        if isinstance(other, Node):
            return other
        return Leaf(other)

    # -- operator vocabulary --------------------------------------------------
    def matmul(self, other, op_pair: OpPair, *,
               mode: str = "sparse") -> "LazyArray":
        """Lazy ``self ⊕.⊗ other`` (Definition I.3)."""
        return LazyArray(MatMul(self.node, self._as_node(other), op_pair,
                                mode))

    dot = matmul

    def add(self, other, op: BinaryOp, *, zero: Any = None) -> "LazyArray":
        """Lazy element-wise ``⊕`` over the union pattern."""
        return LazyArray(Elementwise(self.node, self._as_node(other), op,
                                     zero=zero, role="⊕"))

    def multiply_elementwise(self, other, op: BinaryOp, *,
                             zero: Any = None) -> "LazyArray":
        """Lazy element-wise ``⊗`` over the union pattern."""
        return LazyArray(Elementwise(self.node, self._as_node(other), op,
                                     zero=zero, role="⊗"))

    def transpose(self) -> "LazyArray":
        """Lazy transpose."""
        return LazyArray(Transpose(self.node))

    @property
    def T(self) -> "LazyArray":
        """Alias for :meth:`transpose`."""
        return self.transpose()

    def reduce_rows(self, op: BinaryOp) -> "LazyArray":
        """Lazy per-row fold (an m×1 result keyed ``'⊕'``)."""
        return LazyArray(Reduce(self.node, op, "rows"))

    def reduce_cols(self, op: BinaryOp) -> "LazyArray":
        """Lazy per-column fold (a 1×n result keyed ``'⊕'``)."""
        return LazyArray(Reduce(self.node, op, "cols"))

    def select(self, row_selector: Selector,
               col_selector: Selector) -> "LazyArray":
        """Lazy sub-array selection."""
        return LazyArray(Select(self.node, row_selector, col_selector))

    def with_keys(self, row_keys=None, col_keys=None) -> "LazyArray":
        """Lazy re-embedding into (super)key sets."""
        return LazyArray(WithKeys(self.node, row_keys, col_keys))

    def kron(self, other, mul: BinaryOp, *, zero: Any = None) -> "LazyArray":
        """Lazy Kronecker product."""
        return LazyArray(Kron(self.node, self._as_node(other), mul,
                              zero=zero))

    # -- structure ------------------------------------------------------------
    @property
    def row_keys(self) -> KeySet:
        return self.node.row_keys

    @property
    def col_keys(self) -> KeySet:
        return self.node.col_keys

    @property
    def shape(self) -> Tuple[int, int]:
        return self.node.shape

    @property
    def zero(self) -> Any:
        return self.node.zero

    # -- engine entry points --------------------------------------------------
    def evaluate(self, **options: Any) -> AssociativeArray:
        """Optimize and execute; see :func:`repro.expr.execute.evaluate`."""
        from repro.expr.execute import evaluate
        return evaluate(self, **options)

    def explain(self, **options: Any) -> str:
        """The optimized plan transcript without executing."""
        from repro.expr.execute import explain
        return explain(self, **options)

    def plan(self, **options: Any):
        """The optimized :class:`~repro.expr.execute.Plan` object."""
        from repro.expr.execute import plan
        return plan(self, **options)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LazyArray({self.node.label()}, shape={self.shape})"


def lazy(array: Union[AssociativeArray, LazyArray, Node],
         name: Optional[str] = None) -> LazyArray:
    """Lift an array (or existing node) into the lazy expression world."""
    if isinstance(array, LazyArray):
        return array
    if isinstance(array, Node):
        return LazyArray(array)
    return LazyArray(Leaf(array, name))
