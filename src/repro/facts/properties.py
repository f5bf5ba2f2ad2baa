"""First-class semantic properties and their little lattice.

A :class:`Property` is what STLlint's entry/exit handlers establish and
check ("sorting algorithms introduce a sortedness property", Section 3.1),
what Simplicissimus rule guards may require in addition to a concept
(Section 3.2's STLlint-derived flow facts), and what taxonomy entries
declare they require/establish/destroy.

Properties subclass :class:`str` deliberately: every pre-existing consumer
kept properties as raw strings in sets (``"sorted" in c.properties``), and
a ``str`` subclass lets those sets, JSON reports, and suppression codes
keep working unchanged while the objects themselves carry the semantic
payload — what mutations destroy them and what weaker properties they
imply.

Beside the mutation kinds sits :data:`INVALIDATION`, each container
kind's iterator-invalidation rules, stated once for the runtime
containers and STLlint alike.

The lattice operations work on plain ``Iterable[str]`` and return
``frozenset[str]`` so callers never need to care whether they hold
registered :class:`Property` objects or bare names.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Mapping, Optional

#: Mutation kinds the interpreter reports (one per container operation
#: class).  Invalidation is data-driven from these, not hard-coded at the
#: operation sites.
MUTATIONS = (
    "insert",      # positional insert
    "erase",       # positional erase
    "remove",      # erase-by-value
    "append",      # push_back / push_front
    "pop",         # pop_back / pop_front
    "reverse",     # in-place reordering that flips order
    "make-heap",   # heapify reordering
    "write",       # element overwrite through set_at / iterator set
    "clear",
)

#: Container operations, each with the mutation kind it reports to the
#: property tables.
OPERATION_KINDS = {"insert": "insert", "erase": "erase", "clear": "clear",
                   "push_back": "append", "push_front": "append",
                   "pop_back": "pop", "pop_front": "pop"}

#: Scopes of the iterators a container mutation kills, relative to the
#: mutated index or node ``at``.  An operation whose entry below is the
#: empty tuple kills none.
NODE = "node"                # iterators at node ``at``
AT_OR_AFTER = "at-or-after"  # iterators at index ``at`` or after it
ALL = "all"                  # every iterator
ALL_BUT_END = "all-but-end"  # every iterator but end(); ``at`` is the end node
REALLOC = "realloc"          # every iterator, if the operation reallocated

_VECTOR = {"insert": (AT_OR_AFTER, REALLOC), "erase": (AT_OR_AFTER,),
           "pop_back": (AT_OR_AFTER,), "clear": (ALL,),
           # ``at`` is the old size, so every push_back kills end().
           "push_back": (AT_OR_AFTER, REALLOC)}

#: Iterator invalidation (ISO C++ [vector.modifiers], [deque.modifiers],
#: [list.modifiers]): per container kind, per operation, the scopes of
#: the iterators that die.  The runtime façades apply it after each
#: operation; STLlint reads the same entries abstractly.  ``contig`` and
#: ``sqlite`` are vectors behind other storage; the rules belong to the
#: interface.  A kind lacks the operations it does not support (a vector
#: has no ``push_front``).
INVALIDATION: dict[str, dict[str, tuple[str, ...]]] = {
    "vector": _VECTOR,
    "contig": _VECTOR,
    "sqlite": _VECTOR,
    # At its ends a C++ deque keeps references valid, but not iterators.
    "deque": dict.fromkeys(OPERATION_KINDS, (ALL,)),
    "list": {"insert": (), "push_back": (), "push_front": (),
             "erase": (NODE,), "pop_back": (NODE,), "pop_front": (NODE,),
             "clear": (ALL_BUT_END,)},
}

_REGISTRY: dict[str, "Property"] = {}


class Property(str):
    """One named semantic property of a sequence/container.

    Attributes:
        description: one-line human rendering.
        destroyed_by: mutation kinds (from :data:`MUTATIONS`) after which
            the property can no longer be assumed.
        implies: weaker properties that hold whenever this one does
            (``strictly-sorted`` implies ``sorted`` and ``unique``).
        weakens_to: per-mutation downgrade instead of outright loss —
            appending to a ``heap`` leaves ``heap-except-last`` (exactly
            ``push_heap``'s precondition).
    """

    __slots__ = ("description", "destroyed_by", "implies", "weakens_to")

    def __new__(
        cls,
        name: str,
        *,
        description: str = "",
        destroyed_by: Iterable[str] = (),
        implies: Iterable[str] = (),
        weakens_to: Optional[Mapping[str, str]] = None,
    ) -> "Property":
        self = super().__new__(cls, name)
        self.description = description
        self.destroyed_by = frozenset(destroyed_by)
        self.implies = tuple(implies)
        self.weakens_to = dict(weakens_to or {})
        unknown = self.destroyed_by - set(MUTATIONS)
        unknown |= set(self.weakens_to) - set(MUTATIONS)
        if unknown:
            raise ValueError(
                f"property {name!r} names unknown mutation kind(s): "
                f"{sorted(unknown)}"
            )
        _REGISTRY[name] = self
        return self

    def __repr__(self) -> str:
        return f"Property({str.__repr__(self)})"


def get_property(name: str) -> Optional[Property]:
    """The registered :class:`Property` for ``name`` (None for unknown
    names — a bare string used as an ad-hoc property is legal and simply
    survives every mutation)."""
    return _REGISTRY.get(name)


# ---------------------------------------------------------------------------
# The standard properties
# ---------------------------------------------------------------------------

SORTED = Property(
    "sorted",
    description="elements are in nondecreasing order",
    destroyed_by=("insert", "append", "remove", "reverse", "make-heap",
                  "write"),
)

HEAP = Property(
    "heap",
    description="elements satisfy the binary-heap ordering",
    destroyed_by=("insert", "erase", "remove", "reverse", "append", "write"),
    weakens_to={"append": "heap-except-last"},
)

HEAP_TAIL = Property(
    "heap-except-last",
    description="a heap plus one appended element (push_heap's "
                "precondition)",
    destroyed_by=("insert", "erase", "remove", "reverse", "append", "write"),
)

DISTINCT = Property(
    "unique",
    description="no two elements compare equal",
    destroyed_by=("insert", "append", "write"),
)

STRICTLY_SORTED = Property(
    "strictly-sorted",
    description="sorted with no duplicates",
    destroyed_by=("insert", "append", "remove", "reverse", "make-heap",
                  "write"),
    implies=("sorted", "unique"),
)

SIZE_BOUNDED = Property(
    "size-bounded",
    description="the container's size is bounded by a known constant",
    destroyed_by=("insert", "append"),
)

ALL_PROPERTIES: tuple[Property, ...] = (
    SORTED, HEAP, HEAP_TAIL, DISTINCT, STRICTLY_SORTED, SIZE_BOUNDED,
)


# ---------------------------------------------------------------------------
# Lattice operations
# ---------------------------------------------------------------------------


def closure(props: Iterable[str]) -> frozenset[str]:
    """Implication closure: everything that must hold given ``props``."""
    out: set[str] = set(props)
    frontier = list(out)
    while frontier:
        p = _REGISTRY.get(frontier.pop())
        if p is None:
            continue
        for implied in p.implies:
            if implied not in out:
                out.add(implied)
                frontier.append(implied)
    return frozenset(out)


def meet(a: Iterable[str], b: Iterable[str]) -> frozenset[str]:
    """What is known on *both* paths — the join-point operation of a
    may-analysis over must-hold properties."""
    return closure(a) & closure(b)


def join(a: Iterable[str], b: Iterable[str]) -> frozenset[str]:
    """What is known on *either* path (used for reporting, never for
    soundness decisions)."""
    return closure(a) | closure(b)


def invalidate(props: Iterable[str], mutation: str) -> frozenset[str]:
    """The properties surviving one mutation of the given kind.

    Registered properties consult their ``destroyed_by``/``weakens_to``
    tables; unregistered (ad-hoc string) properties survive everything,
    matching the pre-refactor behaviour of unknown entries.
    """
    if mutation == "clear":
        return frozenset()
    out: set[str] = set()
    for name in props:
        p = _REGISTRY.get(name)
        if p is None:
            out.add(name)
            continue
        weakened = p.weakens_to.get(mutation)
        if weakened is not None:
            out.add(weakened)
        elif mutation not in p.destroyed_by:
            out.add(name)
    return frozenset(out)


def holds(prop: str, props: Iterable[str]) -> bool:
    """Does ``prop`` follow from ``props`` under implication closure?"""
    return prop in closure(props)


class FactEnv(dict):
    """Subject → property-set environment handed to property-guarded
    rewrite rules (``{"v": {"sorted"}}``).  Built by hand in tests or from
    a :class:`~repro.facts.records.FactTable` call site."""

    def holds(self, subject: str, prop: str) -> bool:
        return holds(prop, self.get(subject, ()))

    def holds_all(self, subject: str, props: Iterable[str]) -> bool:
        have = closure(self.get(subject, ()))
        return all(p in have for p in props)
