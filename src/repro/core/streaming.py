"""Streaming (incremental) adjacency construction.

The introduction frames adjacency construction as a step "in a data
processing system" — where edges usually *arrive over time* rather than
as a finished incidence array.  :class:`StreamingAdjacencyBuilder`
maintains the adjacency array under edge insertions:

    ``A(a, b)  ⊕=  w_out ⊗ w_in``

which matches batch construction exactly when the op-pair satisfies the
Theorem II.1 criteria **and** ``⊕`` is associative and commutative — the
streaming order is arrival order while Definition I.3 folds in edge-key
order, so order-sensitive ``⊕`` operations can legitimately disagree.
The builder therefore takes the op-pair's certification stance seriously:

* by default it requires a certified-safe pair (pass ``unsafe_ok=True``
  to experiment with violators — the builder is then *not* guaranteed to
  produce an adjacency array, exactly as the theorem predicts);
* ``order_sensitive`` is reported when ``⊕`` is flagged non-associative
  or non-commutative, and the equivalence-to-batch guarantee is waived.

Deletions are supported by *rebuild*, not inverse ``⊕``: zero-sum-freeness
(criterion a) means compliant algebras have no non-trivial additive
inverses, so true decremental updates are impossible — a nice corollary
the docstring of :meth:`remove_edge` records.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.arrays.associative import AssociativeArray
from repro.arrays.backend import (
    VECTORIZE_MIN_NNZ,
    dict_to_numeric,
    usable_numeric_zero,
)
from repro.arrays.keys import KeySet
from repro.core.certify import certify
from repro.graphs.digraph import EdgeKeyedDigraph, GraphError
from repro.values.domains import DomainError
from repro.values.semiring import OpPair

__all__ = ["StreamingAdjacencyBuilder"]

#: Marks a cell that held no value before an edge folded into it.
_ABSENT = object()


class StreamingAdjacencyBuilder:
    """Build ``A = EoutᵀEin`` incrementally as edges arrive.

    Parameters
    ----------
    op_pair:
        The ``⊕.⊗`` algebra.  Certified on construction (seeded, cached
        per instance); violators are rejected unless ``unsafe_ok``.
    unsafe_ok:
        Accept non-compliant pairs (the resulting array may then fail
        Definition I.5 — useful for demonstrations, dangerous for
        production, exactly as the paper says).

    Examples
    --------
    >>> from repro.values.semiring import get_op_pair
    >>> b = StreamingAdjacencyBuilder(get_op_pair("plus_times"))
    >>> b.add_edge("e1", "alice", "bob", 120)
    >>> b.add_edge("e2", "alice", "bob", 30)
    >>> b.adjacency()["alice", "bob"]
    150
    """

    def __init__(self, op_pair: OpPair, *, unsafe_ok: bool = False,
                 certification_seed: int = 0xD4) -> None:
        self._pair = op_pair
        self._certification = certify(op_pair, seed=certification_seed,
                                      build_witness=False)
        if not self._certification.safe and not unsafe_ok:
            raise ValueError(
                "op-pair fails the Theorem II.1 criteria; streaming "
                "construction would not be guaranteed to produce an "
                "adjacency array.  Pass unsafe_ok=True to override.\n"
                + self._certification.criteria.describe())
        self._edges: Dict[Any, Tuple[Any, Any, Any, Any]] = {}
        self._acc: Dict[Tuple[Any, Any], Any] = {}
        #: ``(key, cell, value before)`` per edge of the
        #: :meth:`add_edges` batch in progress, to take them out again.
        self._journal: Optional[List[Tuple[Any, Any, Any]]] = None

    # -- properties ------------------------------------------------------
    @property
    def op_pair(self) -> OpPair:
        """The algebra this builder accumulates over."""
        return self._pair

    @property
    def num_edges(self) -> int:
        """Edges inserted so far."""
        return len(self._edges)

    @property
    def order_sensitive(self) -> bool:
        """Whether ``⊕`` is flagged non-associative/non-commutative, in
        which case streaming order may differ from batch key order."""
        return not (self._pair.add.associative
                    and self._pair.add.commutative)

    # -- updates -----------------------------------------------------------
    def add_edge(self, key: Any, src: Any, dst: Any,
                 out_value: Optional[Any] = None,
                 in_value: Optional[Any] = None) -> None:
        """Insert one edge and fold its term into ``A(src, dst)``.

        ``out_value``/``in_value`` default to the op-pair's one; both must
        be nonzero elements of its value set V (Definition I.4).  The
        edge is checked before anything is stored: a refused edge raises
        :class:`~repro.graphs.digraph.GraphError` (an unhashable field, a
        duplicate key, a zero value) or
        :class:`~repro.values.domains.DomainError` (a value outside V),
        both ``ValueError`` subclasses, and leaves the builder as it was.
        """
        try:
            hash((key, src, dst))
        except TypeError:
            for field, value in (("key", key), ("src", src), ("dst", dst)):
                try:
                    hash(value)
                except TypeError:
                    raise GraphError(
                        f"{field} {value!r} is not hashable") from None
        if key in self._edges:
            raise GraphError(f"duplicate edge key {key!r}")
        pair = self._pair
        ov = pair.one if out_value is None else out_value
        iv = pair.one if in_value is None else in_value
        for field, value in (("w_out", ov), ("w_in", iv)):
            try:
                pair.domain.validate(value)
            except (DomainError, ArithmeticError, TypeError):
                raise DomainError(
                    f"{field} {value!r} is not an element of "
                    f"{pair.domain.name}") from None
            if pair.is_zero(value):
                raise GraphError(
                    f"incidence values for edge {key!r} must be nonzero")
        term = pair.multiply(ov, iv)
        rc = (src, dst)
        before = self._acc.get(rc, _ABSENT)
        self._acc[rc] = term if before is _ABSENT \
            else pair.add(before, term)
        self._edges[key] = (src, dst, ov, iv)
        if self._journal is not None:
            self._journal.append((key, rc, before))

    def add_edges(self, triples) -> int:
        """Insert ``(key, src, dst)`` or ``(key, src, dst, w_out, w_in)``
        tuples in order; returns the number inserted.

        All or nothing: a refused edge raises a
        :class:`~repro.graphs.digraph.GraphError` that names its index in
        the batch, and the edges inserted before it are taken out again.
        """
        journal = self._journal = []
        try:
            for i, item in enumerate(triples):
                try:
                    if len(item) not in (3, 5):
                        raise GraphError(
                            f"expected 3- or 5-tuples, got "
                            f"{len(item)}-tuple")
                    self.add_edge(*item)
                except Exception as exc:
                    for key, rc, before in reversed(journal):
                        del self._edges[key]
                        if before is _ABSENT:
                            del self._acc[rc]
                        else:
                            self._acc[rc] = before
                    if isinstance(exc, ValueError):
                        raise GraphError(f"edge {i}: {exc}") from exc
                    raise
        finally:
            self._journal = None
        return len(journal)

    def remove_edge(self, key: Any) -> None:
        """Remove an edge; the affected entry is **rebuilt**, not
        decremented.

        Zero-sum-freeness — criterion (a), required for this builder's
        algebra — forbids non-trivial additive inverses, so compliant
        algebras admit no true decremental ``⊕``.  Rebuilding the affected
        (src, dst) cell from the surviving parallel edges (in edge-key
        order) is the honest alternative; cost is O(parallel edges).
        """
        try:
            src, dst, _ov, _iv = self._edges.pop(key)
        except KeyError:
            raise GraphError(f"unknown edge key {key!r}") from None
        survivors = sorted(
            (k for k, (s, t, _o, _i) in self._edges.items()
             if s == src and t == dst))
        rc = (src, dst)
        if not survivors:
            self._acc.pop(rc, None)
            return
        terms = []
        for k in survivors:
            _s, _t, ov, iv = self._edges[k]
            terms.append(self._pair.multiply(ov, iv))
        self._acc[rc] = self._pair.fold_add(terms)

    # -- outputs ------------------------------------------------------------
    def graph(self) -> EdgeKeyedDigraph:
        """The multigraph of edges inserted so far."""
        return EdgeKeyedDigraph(
            (k, s, t) for k, (s, t, _o, _i) in sorted(self._edges.items()))

    def incidence_arrays(self) -> Tuple[AssociativeArray, AssociativeArray]:
        """Batch incidence arrays of the current edge set."""
        keys = KeySet(self._edges)
        kout = KeySet({s for (s, _t, _o, _i) in self._edges.values()})
        kin = KeySet({t for (_s, t, _o, _i) in self._edges.values()})
        zero = self._pair.zero
        out_data = {(k, s): o
                    for k, (s, _t, o, _i) in self._edges.items()}
        in_data = {(k, t): i
                   for k, (_s, t, _o, i) in self._edges.items()}
        return (AssociativeArray(out_data, row_keys=keys, col_keys=kout,
                                 zero=zero),
                AssociativeArray(in_data, row_keys=keys, col_keys=kin,
                                 zero=zero))

    def adjacency(self, *, backend: str = "auto") -> AssociativeArray:
        """The current adjacency array (accumulated, O(1) per lookup).

        ``backend`` selects the result's storage backend
        (:mod:`repro.arrays.backend`).  Under ``"auto"`` the accumulator
        is adopted straight into the columnar/CSR form when the zero and
        every accumulated value are plain numbers and the array is large
        enough to benefit (``VECTORIZE_MIN_NNZ``) — so consumers that
        keep computing on the result (the ⊕-merge tree, service
        snapshots) start on the fast backend without a second
        conversion.  Small or non-numeric accumulators keep today's
        dict path, preserving exact Python value types.  ``"numeric"``
        forces the columnar form (raising when values don't qualify);
        ``"dict"`` pins the generic representation.
        """
        kout = KeySet({s for (s, _t, _o, _i) in self._edges.values()})
        kin = KeySet({t for (_s, t, _o, _i) in self._edges.values()})
        zero = self._pair.zero
        data = {rc: v for rc, v in self._acc.items()
                if not self._pair.is_zero(v)}
        if (backend == "auto" and len(data) >= VECTORIZE_MIN_NNZ
                and usable_numeric_zero(zero)):
            nb = dict_to_numeric(data, kout.position_map(),
                                 kin.position_map(),
                                 (len(kout), len(kin)))
            if nb is not None:
                return AssociativeArray._adopt(nb, kout, kin, zero)
        return AssociativeArray(data, row_keys=kout, col_keys=kin,
                                zero=zero, backend=backend)

    def batch_adjacency(self) -> AssociativeArray:
        """Reference: rebuild ``EoutᵀEin`` from scratch (edge-key fold
        order).  Equal to :meth:`adjacency` for associative+commutative
        certified pairs; property-tested."""
        from repro.core.construction import adjacency_array
        eout, ein = self.incidence_arrays()
        return adjacency_array(eout, ein, self._pair, kernel="generic")
