"""Library specifications: the behaviour summaries STLlint analyzes against.

"By analyzing the behavior of abstractions at a high level and ignoring the
implementation of the abstractions, STLlint is able to detect errors in the
use of libraries that could not be detected with traditional language-level
checking."  Concretely:

- :data:`CONTAINER_SPECS` gives each container kind its invalidation rule —
  the semantic iterator concept's per-model behaviour (Section 3.1: "the
  invalidation behavior of operations varies greatly across domains").
- :data:`ALGORITHM_SPECS` gives each generic algorithm its entry handler
  (precondition checks: sortedness for ``lower_bound``/``binary_search``),
  exit handler (postconditions: ``sort`` establishes sortedness), and
  result summary — the "algorithm specification extensions ... introduced
  via entry/exit handlers" of Section 3.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..facts.properties import (
    DISTINCT,
    HEAP,
    HEAP_TAIL,
    SORTED,
    STRICTLY_SORTED,
    closure,
    invalidate,
)
from .abstract_values import (
    AbstractBool,
    AbstractContainer,
    AbstractIterator,
    AbstractValue,
    Position,
    Validity,
)
from .diagnostics import DiagnosticSink

# Historical alias: the spec layer called the no-duplicates property
# UNIQUE before it moved into repro.facts.
UNIQUE = DISTINCT


@dataclass(frozen=True)
class InvalidationRule:
    """What a mutating operation does to outstanding iterators.

    ``target``: effect on the iterator passed to the operation
    (``"singular"`` or ``"keep"``); ``others``: effect on every other
    iterator of the same container (``"keep"``, ``"maybe"``, ``"singular"``).
    """

    target: str
    others: str


@dataclass(frozen=True)
class ContainerSpec:
    """Invalidation semantics for one container kind (ISO C++ rules,
    matching the dynamic behaviour of :mod:`repro.sequences`)."""

    kind: str
    erase: InvalidationRule
    insert: InvalidationRule
    push_back: Optional[InvalidationRule] = None
    push_front: Optional[InvalidationRule] = None


CONTAINER_SPECS: dict[str, ContainerSpec] = {
    # vector: erase/insert invalidate at-or-after (abstractly: the target
    # definitely, the rest maybe); push_back maybe-invalidates everything
    # (reallocation).
    "vector": ContainerSpec(
        "vector",
        erase=InvalidationRule(target="singular", others="maybe"),
        insert=InvalidationRule(target="singular", others="maybe"),
        push_back=InvalidationRule(target="keep", others="maybe"),
    ),
    # list: erase invalidates only the erased position; nothing else ever.
    "list": ContainerSpec(
        "list",
        erase=InvalidationRule(target="singular", others="keep"),
        insert=InvalidationRule(target="keep", others="keep"),
        push_back=InvalidationRule(target="keep", others="keep"),
        push_front=InvalidationRule(target="keep", others="keep"),
    ),
    # deque: any insert/erase invalidates all iterators.
    "deque": ContainerSpec(
        "deque",
        erase=InvalidationRule(target="singular", others="singular"),
        insert=InvalidationRule(target="singular", others="singular"),
        push_back=InvalidationRule(target="keep", others="maybe"),
        push_front=InvalidationRule(target="keep", others="maybe"),
    ),
    # Storage backends behind the Vector façade: the invalidation rules
    # are a property of the container *interface*, not the
    # representation, so the contiguous (array/mmap) and sqlite-backed
    # kinds follow the vector rules verbatim.
    "contig": ContainerSpec(
        "contig",
        erase=InvalidationRule(target="singular", others="maybe"),
        insert=InvalidationRule(target="singular", others="maybe"),
        push_back=InvalidationRule(target="keep", others="maybe"),
    ),
    "sqlite": ContainerSpec(
        "sqlite",
        erase=InvalidationRule(target="singular", others="maybe"),
        insert=InvalidationRule(target="singular", others="maybe"),
        push_back=InvalidationRule(target="keep", others="maybe"),
    ),
}

#: Messages, worded as the paper reports them.
MSG_SINGULAR_DEREF = "attempt to dereference a singular iterator"
MSG_MAYBE_SINGULAR_DEREF = "attempt to dereference a singular iterator"
MSG_SINGULAR_ADVANCE = "attempt to advance a singular iterator"
MSG_PAST_END_DEREF = "attempt to dereference a past-the-end iterator"
MSG_PAST_END_ADVANCE = "attempt to advance an iterator past the end"
MSG_MAYBE_END_DEREF = (
    "iterator may be past-the-end; compare it against end() before "
    "dereferencing"
)
MSG_CROSS_CONTAINER = "comparing iterators into two different containers"
MSG_UNSORTED_LOWER_BOUND = (
    "the incoming sequence [first, last) may not be sorted, but this "
    "algorithm requires a sorted sequence"
)
MSG_NOT_A_HEAP = (
    "the container may not satisfy the heap property required by this "
    "algorithm (establish it with make_heap)"
)
MSG_SORTED_LINEAR_FIND = (
    "potential optimization: the incoming sequence [first, last) is sorted, "
    "but will be searched linearly with this algorithm. Consider replacing "
    "this algorithm with one specialized for sorted sequences "
    "(e.g., lower_bound)"
)
MSG_UNMODELED_STMT = (
    "statement is not modeled by the checker but mentions a tracked "
    "container or iterator; analysis may be incomplete here"
)
MSG_UNINLINED_CALL = (
    "call passes tracked container state to a function the checker cannot "
    "inline (recursion or depth limit); its effects are not analyzed"
)
MSG_UNSTABLE_LOOP = (
    "loop analysis hit the safety cap before the abstract state "
    "stabilized; effects of later iterations may be missed"
)


class AlgorithmContext:
    """What an algorithm spec handler gets to work with.

    Besides argument plumbing, the context is the handlers' interface to
    the :mod:`repro.facts` layer: :meth:`establish`, :meth:`destroy`,
    :meth:`require`, and :meth:`apply_mutation` both update the abstract
    container state and (when the interpreter carries a
    :class:`~repro.facts.records.FactRecorder`) record what happened, so
    entry/exit handlers *produce* queryable facts instead of mutating
    interpreter-private sets.
    """

    def __init__(
        self, interp: Any, args: list[Any], line: int, name: str = ""
    ) -> None:
        self.interp = interp
        self.args = args
        self.line = line
        self.name = name
        self.sink: DiagnosticSink = interp.sink

    def iterator_args(self) -> list[AbstractIterator]:
        return [a for a in self.args if isinstance(a, AbstractIterator)]

    def range_container(self) -> Optional[AbstractContainer]:
        its = self.iterator_args()
        if len(its) >= 2 and its[0].container.cid != its[1].container.cid:
            self.sink.warning(MSG_CROSS_CONTAINER, self.line)
        return its[0].container if its else None

    def check_use(self, it: AbstractIterator) -> None:
        self.interp.check_iterator_use(it, self.line, MSG_SINGULAR_ADVANCE)

    # -- property/fact interface ------------------------------------------

    def holds(self, c: AbstractContainer, prop: str) -> bool:
        """Does ``prop`` hold (under implication closure) on ``c``?"""
        return str(prop) in closure(c.properties)

    def establish(self, c: AbstractContainer, *props: str) -> None:
        for p in props:
            c.properties.add(p)

    def destroy(self, c: AbstractContainer, *props: str) -> None:
        for p in props:
            c.properties.discard(p)

    def apply_mutation(self, c: AbstractContainer, kind: str) -> None:
        """Data-driven invalidation: drop/weaken ``c``'s properties per
        the :data:`repro.facts.properties.MUTATIONS` tables."""
        survived = invalidate(c.properties, kind)
        c.properties.clear()
        c.properties.update(survived)

    def require(self, c: AbstractContainer, prop: str, message: str) -> bool:
        """Entry-handler precondition check: warn (and record a
        ``requires-missing`` fact) when ``prop`` cannot be assumed."""
        ok = self.holds(c, prop)
        rec = getattr(self.interp, "facts", None)
        if rec is not None:
            rec.record(
                c.name or "?", prop, self.line,
                "requires" if ok else "requires-missing",
                source=self.name,
                function=self.interp.tree.name,
            )
        if not ok:
            self.sink.warning(message, self.line)
        return ok


AlgorithmHandler = Callable[[AlgorithmContext], Any]


def _spec_find(ctx: AlgorithmContext) -> Any:
    """find(first, last, value): linear search.  Exit: result may be end.
    Flow-sensitive suggestion (Section 3.2): linear search over a range
    known to be sorted should be lower_bound."""
    for it in ctx.iterator_args():
        ctx.check_use(it)
    c = ctx.range_container()
    if c is None:
        return AbstractValue("find-result")
    if ctx.holds(c, SORTED):
        ctx.sink.suggestion(MSG_SORTED_LINEAR_FIND, ctx.line)
    return AbstractIterator(
        c, Position.UNKNOWN, Validity.VALID, c.epoch,
        may_be_end=True, origin_line=ctx.line,
    )


def _spec_sort(ctx: AlgorithmContext) -> Any:
    """sort(first, last) or sort(c): exit handler establishes sortedness —
    "sorting algorithms introduce a sortedness property" (Section 3.1)."""
    c: Optional[AbstractContainer] = None
    for a in ctx.args:
        if isinstance(a, AbstractContainer):
            c = a
        elif isinstance(a, AbstractIterator):
            ctx.check_use(a)
            c = a.container
    if c is not None:
        ctx.destroy(c, HEAP, HEAP_TAIL)
        ctx.establish(c, SORTED)
    return AbstractValue()


def _spec_lower_bound(ctx: AlgorithmContext) -> Any:
    """lower_bound(first, last, value): entry handler checks the sortedness
    precondition."""
    for it in ctx.iterator_args():
        ctx.check_use(it)
    c = ctx.range_container()
    if c is not None:
        ctx.require(c, SORTED, MSG_UNSORTED_LOWER_BOUND)
    if c is None:
        return AbstractValue("lower-bound-result")
    return AbstractIterator(
        c, Position.UNKNOWN, Validity.VALID, c.epoch,
        may_be_end=True, origin_line=ctx.line,
    )


def _spec_indexed_find(ctx: AlgorithmContext) -> Any:
    """indexed_find(c, value) or indexed_find(first, last, value): search
    through a persistent backend's value index.  Entry handler checks the
    same sortedness precondition as lower_bound — the fact that licenses
    the optimizer's rewrite must still hold when the rewritten code is
    re-analyzed."""
    for it in ctx.iterator_args():
        ctx.check_use(it)
    c = ctx.range_container()
    if c is None:
        for a in ctx.args:
            if isinstance(a, AbstractContainer):
                c = a
                break
    if c is not None:
        ctx.require(c, SORTED, MSG_UNSORTED_LOWER_BOUND)
    if c is None:
        return AbstractValue("indexed-find-result")
    return AbstractIterator(
        c, Position.UNKNOWN, Validity.VALID, c.epoch,
        may_be_end=True, origin_line=ctx.line,
    )


def _spec_binary_search(ctx: AlgorithmContext) -> Any:
    for it in ctx.iterator_args():
        ctx.check_use(it)
    c = ctx.range_container()
    if c is not None:
        ctx.require(c, SORTED, MSG_UNSORTED_LOWER_BOUND)
    return AbstractBool.UNKNOWN


def _spec_max_element(ctx: AlgorithmContext) -> Any:
    """max_element(first, last): returns an iterator that is end for an
    empty range — dereferencing it unchecked is a range violation."""
    for it in ctx.iterator_args():
        ctx.check_use(it)
    c = ctx.range_container()
    if c is None:
        return AbstractValue("max-element-result")
    return AbstractIterator(
        c, Position.UNKNOWN, Validity.VALID, c.epoch,
        may_be_end=True, origin_line=ctx.line,
    )


def _spec_copy(ctx: AlgorithmContext) -> Any:
    for it in ctx.iterator_args():
        ctx.check_use(it)
    its = ctx.iterator_args()
    if len(its) >= 3:
        out = its[2]
        return AbstractIterator(
            out.container, Position.UNKNOWN, Validity.VALID,
            out.container.epoch, origin_line=ctx.line,
        )
    return AbstractValue()


def _spec_reverse(ctx: AlgorithmContext) -> Any:
    for it in ctx.iterator_args():
        ctx.check_use(it)
    c = ctx.range_container()
    if c is not None:
        ctx.apply_mutation(c, "reverse")
    return AbstractValue()


def _spec_is_sorted(ctx: AlgorithmContext) -> Any:
    for it in ctx.iterator_args():
        ctx.check_use(it)
    c = ctx.range_container()
    if c is not None and ctx.holds(c, SORTED):
        return AbstractBool.TRUE
    return AbstractBool.UNKNOWN


def _spec_unique(ctx: AlgorithmContext) -> Any:
    """unique(first, last): removes adjacent duplicates.  Exit: on a
    sorted range no two remaining elements compare equal, so the range is
    strictly sorted; on an arbitrary range only adjacent-distinctness is
    known, which we do not model."""
    for it in ctx.iterator_args():
        ctx.check_use(it)
    c = ctx.range_container()
    if c is None:
        return AbstractValue("unique-result")
    if ctx.holds(c, SORTED):
        ctx.establish(c, STRICTLY_SORTED, DISTINCT)
    return AbstractIterator(
        c, Position.UNKNOWN, Validity.VALID, c.epoch,
        may_be_end=True, origin_line=ctx.line,
    )


def _container_arg(ctx: AlgorithmContext):
    for a in ctx.args:
        if isinstance(a, AbstractContainer):
            return a
    its = ctx.iterator_args()
    return its[0].container if its else None


def _spec_make_heap(ctx: AlgorithmContext) -> Any:
    """Exit handler: establishes the heap property.  The reordering is a
    "make-heap" mutation — sortedness is destroyed by the property
    tables, not by an explicit discard here."""
    c = _container_arg(ctx)
    if c is not None:
        ctx.apply_mutation(c, "make-heap")
        ctx.establish(c, HEAP)
    return AbstractValue()


def _spec_push_heap(ctx: AlgorithmContext) -> Any:
    """Entry: requires a heap, or a heap with one appended element (the
    state push_back leaves).  Exit: full heap property restored."""
    c = _container_arg(ctx)
    if c is not None:
        if not (ctx.holds(c, HEAP) or ctx.holds(c, HEAP_TAIL)):
            ctx.require(c, HEAP, MSG_NOT_A_HEAP)
        ctx.destroy(c, HEAP_TAIL)
        ctx.establish(c, HEAP)
    return AbstractValue()


def _spec_pop_heap(ctx: AlgorithmContext) -> Any:
    """Entry: requires the heap property; the prefix remains a heap."""
    c = _container_arg(ctx)
    if c is not None:
        ctx.require(c, HEAP, MSG_NOT_A_HEAP)
    return AbstractValue()


def _spec_sort_heap(ctx: AlgorithmContext) -> Any:
    """Entry: requires heap.  Exit: sorted, no longer a heap."""
    c = _container_arg(ctx)
    if c is not None:
        ctx.require(c, HEAP, MSG_NOT_A_HEAP)
        ctx.destroy(c, HEAP)
        ctx.establish(c, SORTED)
    return AbstractValue()


ALGORITHM_SPECS: dict[str, AlgorithmHandler] = {
    "find": _spec_find,
    "find_if": _spec_find,
    "sort": _spec_sort,
    "stable_sort": _spec_sort,
    "lower_bound": _spec_lower_bound,
    "upper_bound": _spec_lower_bound,
    "indexed_find": _spec_indexed_find,
    "binary_search": _spec_binary_search,
    "max_element": _spec_max_element,
    "min_element": _spec_max_element,
    "copy": _spec_copy,
    "reverse": _spec_reverse,
    "is_sorted": _spec_is_sorted,
    "unique": _spec_unique,
    "make_heap": _spec_make_heap,
    "push_heap": _spec_push_heap,
    "pop_heap": _spec_pop_heap,
    "sort_heap": _spec_sort_heap,
}


#: Monomorphized spellings the optimizer's OPT-MONO pass may rewrite a
#: generic call site to, keyed by (algorithm, container kind).  Each
#: spelling is a module-level trampoline in repro.sequences.algorithms
#: with the SAME semantic specification as the base algorithm, so the
#: verify stage's re-lint sees identical container effects (a rewritten
#: ``sort`` still establishes SORTED for the downstream find ->
#: lower_bound chain).
MONO_ALGORITHM_SPELLINGS: dict[tuple[str, str], str] = {
    ("sort", "vector"): "sort__vector",
    ("sort", "list"): "sort__list",
    ("sort", "deque"): "sort__deque",
}

for _mono_key, _mono_name in MONO_ALGORITHM_SPELLINGS.items():
    ALGORITHM_SPECS[_mono_name] = ALGORITHM_SPECS[_mono_key[0]]
del _mono_key, _mono_name


#: Backend-optimal spellings the cost-aware pass may rewrite a generic
#: call on a persistent container kind to, keyed by (algorithm, kind).
#: Like the monomorphized spellings, each aliases the base algorithm's
#: semantic specification where the container effects are identical —
#: ``backend_sort`` still establishes SORTED, so a verified rewrite keeps
#: the facts every downstream selection relied on.  ``indexed_find`` is
#: NOT an alias: it acquires lower_bound's sortedness *pre*condition
#: (spec above), which the verify re-lint then actually checks.
BACKEND_ALGORITHM_SPELLINGS: dict[tuple[str, str], str] = {
    ("find", "sqlite"): "indexed_find",
    ("sort", "sqlite"): "backend_sort",
}

ALGORITHM_SPECS["backend_sort"] = ALGORITHM_SPECS["sort"]


def register_algorithm_spec(
    name: str, handler: AlgorithmHandler, *, override: bool = False
) -> None:
    """Extension point: libraries ship specifications for their own
    algorithms ("library-supplied semantic specifications").

    Registering a name that already has a spec (including the built-in
    ones) raises :class:`ValueError` unless ``override=True`` — silently
    replacing a specification would silently change every subsequent
    analysis.
    """
    if not override and name in ALGORITHM_SPECS:
        raise ValueError(
            f"algorithm spec {name!r} is already registered; pass "
            f"override=True to replace it"
        )
    ALGORITHM_SPECS[name] = handler


def unregister_algorithm_spec(name: str) -> Optional[AlgorithmHandler]:
    """Remove a registered spec (returns it, or None if absent).  Calls to
    an unregistered name are treated as opaque: arguments are still
    evaluated, but no container effects are assumed."""
    return ALGORITHM_SPECS.pop(name, None)
