"""Shipping op-pairs across process boundaries by registry name.

Op-pairs close over arbitrary Python callables (often lambdas), which do
not pickle — so any executor that crosses a process boundary sends the
*registry name* instead and re-resolves it on the other side.  The user
today is :mod:`repro.shard` (out-of-core sharded construction), whose
process workers need the re-import side effects that populate the
registry in a freshly spawned interpreter; the logic lives here, next
to the registry it reads.
"""

from __future__ import annotations

from repro.values.semiring import OpPair, SemiringError, get_op_pair

__all__ = [
    "ensure_catalog_loaded",
    "registered_name",
    "resolve_registered_pair",
]


def ensure_catalog_loaded() -> None:
    """Import the modules that register op-pairs as a side effect.

    A freshly spawned worker interpreter has an empty registry beyond the
    core catalog; these imports make every shipped name resolvable.
    """
    import repro.values.exotic  # noqa: F401
    import repro.values.extensions  # noqa: F401


def registered_name(op_pair: OpPair) -> str:
    """The registry name under which ``op_pair`` can be re-resolved.

    Raises :class:`SemiringError` when the pair is not the registered
    instance of its own name — shipping such a pair by name would resolve
    to a *different* object (or fail) in the worker.
    """
    try:
        if get_op_pair(op_pair.name) is op_pair:
            return op_pair.name
    except SemiringError:
        pass
    raise SemiringError(
        f"op-pair {op_pair.name!r} is not registered; cross-process "
        "execution ships pairs by registry name (operations may not "
        "pickle)")


def resolve_registered_pair(name: str) -> OpPair:
    """Worker-side inverse of :func:`registered_name`."""
    ensure_catalog_loaded()
    return get_op_pair(name)
