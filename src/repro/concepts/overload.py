"""Concept-based overloading (Section 2.1).

"It is often desirable to select from several implementations of a function
based solely on the concepts modeled by the arguments, a process we refer to
as concept-based overloading."  The motivating example — choosing a sorting
algorithm by how elements can be accessed — is exactly what
:mod:`repro.sequences.algorithms` does with the :class:`GenericFunction`
defined here.

Dispatch discipline: every registered implementation carries a set of
concept requirements over argument positions.  A call considers the
implementations whose requirements the actual argument types satisfy, and
picks the unique *most specific* one, where implementation A is at least as
specific as B iff each of B's requirements is implied by one of A's on the
same positions (same- or refined-concept).  Ties raise
:class:`AmbiguousOverloadError`; an empty candidate set raises
:class:`NoMatchingOverloadError` with a per-overload explanation — the
high-level diagnostics the paper calls for.
"""

from __future__ import annotations

import functools
import inspect
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..runtime import metrics as runtime_metrics
from ..runtime.dispatch import DispatchTable, compile_table
from .concept import Concept
from .modeling import ModelRegistry, models as default_registry

RequirementSpec = tuple[Concept, tuple[int, ...]]


def _normalize_requires(
    requires: Sequence[tuple[Concept, Sequence[int] | int]]
) -> tuple[RequirementSpec, ...]:
    out: list[RequirementSpec] = []
    for concept, positions in requires:
        if isinstance(positions, int):
            positions = (positions,)
        out.append((concept, tuple(positions)))
    return tuple(out)


@dataclass
class Overload:
    """One registered implementation of a generic function."""

    impl: Callable
    requires: tuple[RequirementSpec, ...]
    name: str
    #: Times this overload was chosen by dispatch (runtime metrics).
    calls: int = field(default=0, compare=False, repr=False)

    def matches(self, arg_types: Sequence[type], registry: ModelRegistry) -> bool:
        return all(
            max(pos, default=-1) < len(arg_types)
            and registry.models(concept, tuple(arg_types[p] for p in pos))
            for concept, pos in self.requires
        )

    def why_not(self, arg_types: Sequence[type], registry: ModelRegistry) -> str:
        reasons = []
        for concept, pos in self.requires:
            if max(pos, default=-1) >= len(arg_types):
                reasons.append(f"requires argument {max(pos)} (not supplied)")
                continue
            tys = tuple(arg_types[p] for p in pos)
            report = registry.check(concept, tys)
            if not report.ok:
                names = ", ".join(t.__name__ for t in tys)
                first = report.failures[0].render()
                reasons.append(f"({names}) does not model {concept.name} ({first})")
        if not reasons:
            return f"{self.name}: matches"
        return f"{self.name}: " + "; ".join(reasons)

    def at_least_as_specific_as(
        self,
        other: "Overload",
        refines: Optional[Callable[[Concept, Concept], bool]] = None,
    ) -> bool:
        """Every requirement of ``other`` is implied by one of ours on the
        same argument positions.

        ``refines`` lets the caller supply a memoized refinement predicate
        (the registry's shared
        :class:`~repro.runtime.dispatch.SpecificityMatrix`) in place of
        per-call lattice walks."""
        if refines is None:
            refines = Concept.refines_concept
        return all(
            any(
                mine_pos == their_pos and refines(mine_c, their_c)
                for mine_c, mine_pos in self.requires
            )
            for their_c, their_pos in other.requires
        )


class GenericFunction:
    """A function dispatched on the concepts its argument types model.

    Example (the paper's sorting motivation)::

        sort = GenericFunction("sort")

        @sort.overload(requires=[(LinearAccessSequence, 0)])
        def sort_linear(seq): ...

        @sort.overload(requires=[(IndexedAccessSequence, 0)])
        def sort_indexed(seq): ...   # quicksort; wins for arrays

    ``IndexedAccessSequence`` refining ``LinearAccessSequence`` makes the
    second overload strictly more specific, so arrays get quicksort and
    linked lists the default — with no change at any call site.

    Dispatch runs through a lazily compiled
    :class:`repro.runtime.dispatch.DispatchTable`: the specificity relation
    between overloads is flattened once per (overload set, registry
    generation), after which a call is a single dict hit on the argument
    type tuple.  Registering an overload or mutating the registry discards
    the table; the next call recompiles it.
    """

    def __init__(
        self, name: str, registry: Optional[ModelRegistry] = None
    ) -> None:
        self.name = name
        self.registry = registry if registry is not None else default_registry
        self.overloads: list[Overload] = []
        self._table: Optional[DispatchTable] = None
        # Counters folded in from retired tables, so stats survive rebuilds.
        self._hits = 0
        self._misses = 0
        self._rebuilds = 0
        self._check_time_s = 0.0
        # Guards retire/rebuild/stats — everything that moves counters
        # between a live table and the folded totals.  Deliberately NOT
        # taken on the table-hit fast path: a hit only increments a live
        # table's own counter, which folding reads exactly once.
        self._lock = threading.Lock()
        # Keyword -> positional binder, derived lazily from the first
        # overload's implementation signature; reset on registration.
        self._binder: Optional[inspect.Signature] = None
        functools.update_wrapper(self, self.__call__, updated=())
        self.__name__ = name
        runtime_metrics.track_generic_function(self)

    def overload(
        self,
        requires: Sequence[tuple[Concept, Sequence[int] | int]] = (),
        name: Optional[str] = None,
    ) -> Callable[[Callable], Callable]:
        """Decorator registering an implementation with its requirements."""

        def deco(impl: Callable) -> Callable:
            with self._lock:
                self.overloads.append(
                    Overload(
                        impl, _normalize_requires(requires),
                        name or impl.__name__,
                    )
                )
                self._binder = None
                self._retire_table_locked()
            return impl

        return deco

    # -- the decision table ---------------------------------------------------

    def _retire_table_locked(self) -> None:
        """Fold a retiring table's counters into the running totals.
        Caller holds ``self._lock``: without it, two threads observing the
        same stale table would each fold its hits/misses — double-counting
        every dispatch the table ever served."""
        table = self._table
        if table is not None:
            self._hits += table.hits
            self._misses += table.misses
            self._check_time_s += table.check_time_s
            self._table = None

    def _current_table(self) -> DispatchTable:
        table = self._table
        gen = self.registry._generation
        if table is None or table.generation != gen:
            with self._lock:
                # Re-check under the lock: another thread may have rebuilt.
                table = self._table
                gen = self.registry._generation
                if table is None or table.generation != gen:
                    self._retire_table_locked()
                    table = compile_table(
                        self.name, tuple(self.overloads), self.registry, gen
                    )
                    self._table = table
                    self._rebuilds += 1
        return table

    def resolve(self, arg_types: Sequence[type]) -> Overload:
        """Resolve the overload for the given argument types (public so the
        benchmarks can measure dispatch in isolation)."""
        return self._current_table().resolve(tuple(arg_types))

    def _bind_keywords(self, args: tuple, kwargs: dict) -> tuple:
        """Bind keyword arguments onto positional slots so the dispatch key
        is the same however the call spells its arguments.

        ``sort(xs)`` and ``sort(container=xs)`` must dispatch identically:
        keying on positional args alone would give the second call an empty
        type tuple and a spurious NoMatchingOverloadError (or a silently
        less-specific overload).  Defaults are NOT applied — an argument
        the caller didn't pass stays out of the key, exactly as in the
        all-positional spelling.  Falls back to the positional-only prefix
        when the keywords don't bind (the target impl will raise the real
        TypeError with its own diagnostics)."""
        binder = self._binder
        if binder is None:
            if not self.overloads:
                return args
            try:
                binder = inspect.signature(self.overloads[0].impl)
            except (TypeError, ValueError):
                binder = False  # type: ignore[assignment]
            self._binder = binder
        if binder is False:  # unintrospectable impl: positional key only
            return args
        try:
            bound = binder.bind(*args, **kwargs)
        except TypeError:
            return args
        out = list(args)
        for param in list(binder.parameters.values())[len(args):]:
            if param.kind not in (
                param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD
            ):
                break
            if param.name not in bound.arguments:
                break  # hole: later keywords can't take positional slots
            out.append(bound.arguments[param.name])
        return tuple(out)

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        # Fast path, inlined: current-generation table, known type tuple.
        # Keyword-passed arguments are bound onto their positional slots
        # first (off the common all-positional path) so the dispatch key —
        # and therefore the chosen overload — is spelling-independent.
        if kwargs:
            key = tuple(map(type, self._bind_keywords(args, kwargs)))
        else:
            key = tuple(map(type, args))
        table = self._table
        if table is None or table.generation != self.registry._generation:
            table = self._current_table()
        chosen = table.entries.get(key)
        if chosen is not None:
            table.hits += 1
        else:
            chosen = table.resolve_slow(key)
        chosen.calls += 1
        return chosen.impl(*args, **kwargs)

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict:
        """Runtime metrics: table hits/misses, rebuilds, per-overload
        dispatch counts, time spent in uncached resolution.

        Taken under the per-function lock so a table retired mid-read
        cannot be counted both live and folded."""
        with self._lock:
            table = self._table
            live_hits = table.hits if table is not None else 0
            live_misses = table.misses if table is not None else 0
            live_check = table.check_time_s if table is not None else 0.0
            return {
                "name": self.name,
                "overloads": len(self.overloads),
                "table_size": len(table.entries) if table is not None else 0,
                "table_generation": (
                    table.generation if table is not None else None
                ),
                "hits": self._hits + live_hits,
                "misses": self._misses + live_misses,
                "rebuilds": self._rebuilds,
                "check_time_s": self._check_time_s + live_check,
                "overload_calls": {o.name: o.calls for o in self.overloads},
            }

    def reset_stats(self) -> None:
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._rebuilds = 0
            self._check_time_s = 0.0
            table = self._table
            if table is not None:
                table.hits = 0
                table.misses = 0
                table.check_time_s = 0.0
            for o in self.overloads:
                o.calls = 0

    def dispatch_table(self) -> list[str]:
        """Human-readable list of overloads with their requirements."""
        rows = []
        for o in self.overloads:
            reqs = ", ".join(
                f"args{list(pos)} : {c.name}" for c, pos in o.requires
            )
            rows.append(f"{o.name} requires [{reqs or 'nothing'}]")
        return rows


def most_refined_concept(
    candidates: Sequence[Concept],
    types: Sequence[type] | type,
    registry: Optional[ModelRegistry] = None,
) -> Optional[Concept]:
    """Tag-dispatching helper: among ``candidates``, return the most refined
    concept that ``types`` model (or None).  This is the paper's "widely-used
    method of tag dispatching" reconstructed on first-class concepts: the
    returned concept *is* the tag."""
    reg = registry if registry is not None else default_registry
    modeled = [c for c in candidates if reg.models(c, types)]
    best: Optional[Concept] = None
    for c in modeled:
        if best is None or c.refines_concept(best):
            best = c
        elif not best.refines_concept(c):
            # Unordered pair: prefer the one with more total requirements as
            # a deterministic (documented) tie-break.
            if len(c.all_requirements()) > len(best.all_requirements()):
                best = c
    return best
