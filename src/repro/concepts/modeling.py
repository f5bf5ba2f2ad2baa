"""The modeling relation: which types model which concepts.

The paper contrasts *nominal* conformance (Haskell type classes: "Types must
be explicitly declared to be instances of type classes") with *structural*
conformance (ML signatures, C++ duck-typed templates).  This module supports
both:

- **Structural**: :func:`check_concept` examines a candidate binding against
  every requirement — associated types resolvable, valid expressions
  available — with no prior declaration.
- **Nominal**: a :class:`ConceptMap` (named after the C++0x proposal the
  authors co-wrote) explicitly declares a model and may *adapt* the type,
  binding associated types and supplying operation implementations the type
  itself lacks.

A global :class:`OperationRegistry` plays the role of C++ argument-dependent
lookup for free functions such as ``source(e)`` and ``out_edges(v, g)``.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from ..runtime import metrics as runtime_metrics
from ..runtime.dispatch import SpecificityMatrix
from .concept import Concept
from .errors import (
    CheckReport,
    ConceptCheckError,
    ConceptDefinitionError,
    RequirementFailure,
    SemanticAxiomViolation,
)
from .requirements import (
    AnyType,
    Assoc,
    AssociatedType,
    CheckContextProtocol,
    ConceptRequirement,
    Exact,
    Param,
    SemanticAxiom,
    TypeExpr,
    ValidExpression,
)


class OperationRegistry:
    """Free functions usable in valid expressions, looked up by
    ``(name, owner type)`` walking the owner's MRO — a Python rendition of
    argument-dependent lookup."""

    def __init__(self) -> None:
        self._ops: dict[tuple[str, type], Callable] = {}

    def register(self, name: str, owner: type, impl: Callable) -> Callable:
        self._ops[(name, owner)] = impl
        return impl

    def register_for(self, name: str, owner: type) -> Callable[[Callable], Callable]:
        """Decorator form: ``@ops.register_for('source', MyEdge)``."""

        def deco(impl: Callable) -> Callable:
            self.register(name, owner, impl)
            return impl

        return deco

    def find(self, name: str, owner: Optional[type]) -> Optional[Callable]:
        if owner is None:
            return None
        for base in owner.__mro__:
            impl = self._ops.get((name, base))
            if impl is not None:
                return impl
        return None

    def call(self, name: str, *args: Any) -> Any:
        """Invoke a registered free function, dispatching on the first
        argument whose type has a registration."""
        for a in args:
            impl = self.find(name, type(a))
            if impl is not None:
                return impl(*args)
        raise LookupError(
            f"no operation '{name}' registered for argument types "
            f"({', '.join(type(a).__name__ for a in args)})"
        )


#: Default process-wide operation registry.
operations = OperationRegistry()


@dataclass
class ConceptMap:
    """A nominal declaration that ``types`` model ``concept``.

    ``type_bindings`` binds associated-type names to concrete types;
    ``operation_impls`` supplies (or overrides) valid-expression operations;
    ``sampler`` optionally generates example values per parameter for
    semantic-axiom testing.
    """

    concept: Concept
    types: tuple[type, ...]
    type_bindings: dict[str, type] = field(default_factory=dict)
    operation_impls: dict[str, Callable] = field(default_factory=dict)
    sampler: Optional[Callable[[], Sequence[Sequence[Any]]]] = None

    def __post_init__(self) -> None:
        if len(self.types) != self.concept.arity:
            raise ConceptDefinitionError(
                f"concept map for {self.concept.name} binds {len(self.types)} "
                f"types, expected {self.concept.arity}"
            )


class RegistrySnapshot:
    """An immutable copy of a registry's declarations, produced by
    :meth:`ModelRegistry.snapshot` and consumed by
    :meth:`ModelRegistry.restore` / :meth:`ModelRegistry.scoped`."""

    __slots__ = ("_maps", "generation")

    def __init__(
        self,
        maps: Mapping[tuple[Concept, tuple[type, ...]], ConceptMap],
        generation: int,
    ) -> None:
        self._maps = dict(maps)
        self.generation = generation

    def __len__(self) -> int:
        return len(self._maps)


class ModelRegistry:
    """Stores concept maps and answers (cached) modeling queries.

    Mutation surface: :meth:`register` / :meth:`unregister` /
    :meth:`snapshot` / :meth:`restore` / :meth:`scoped` / :meth:`invalidate`.
    Every mutation bumps a monotonic **generation counter**; memoized
    verdicts are keyed on ``(generation, concept, types)``, so a bump makes
    every previously cached verdict unreachable — downstream caches
    (``@where`` signature caches, :class:`GenericFunction` dispatch tables)
    compare generations and rebuild instead of serving stale results.
    """

    def __init__(
        self,
        ops: Optional[OperationRegistry] = None,
        label: Optional[str] = None,
    ) -> None:
        self.ops = ops if ops is not None else operations
        self.label = label if label is not None else f"registry@{id(self):#x}"
        # Keyed by the Concept object itself (NOT id(concept)): holding a
        # strong reference prevents id-reuse aliasing after a concept from
        # another scope is garbage collected.
        self._maps: dict[tuple[Concept, tuple[type, ...]], ConceptMap] = {}
        # (generation, concept, types) -> report.  Mutations bump
        # _generation and clear the dict; the generation in the key means a
        # check that was in flight during a mutation can only deposit its
        # (possibly stale) verdict under the OLD generation, where no
        # post-mutation reader will ever look.
        self._cache: dict[
            tuple[int, Concept, tuple[type, ...]], CheckReport
        ] = {}
        self._generation = 0
        self._mutex = threading.Lock()
        # Shared concept-refinement verdicts for the current generation;
        # rebuilt lazily on first use after a bump (see
        # specificity_matrix()).
        self._specificity: Optional[SpecificityMatrix] = None
        self.stats = runtime_metrics.RegistryStats()
        runtime_metrics.track_registry(self)

    # -- generations ---------------------------------------------------------

    @property
    def generation(self) -> int:
        """Monotonic counter, bumped by every mutation.  Caches keyed on a
        generation are implicitly invalidated by a bump."""
        return self._generation

    def _bump(self) -> None:
        """Invalidate all memoized verdicts (callers hold no locks)."""
        with self._mutex:
            self._generation += 1
            self._specificity = None
        self._cache.clear()
        self.stats.invalidations += 1

    def specificity_matrix(self) -> SpecificityMatrix:
        """The shared per-generation concept-refinement matrix.  All
        dispatch tables compiled against the current generation memoize
        their pairwise specificity walks here instead of re-walking the
        refinement lattice per table."""
        with self._mutex:
            matrix = self._specificity
            if matrix is None or matrix.generation != self._generation:
                matrix = SpecificityMatrix(self._generation)
                self._specificity = matrix
            return matrix

    def invalidate(self) -> None:
        """Publicly drop every memoized verdict — the supported replacement
        for reaching into ``_cache`` (used by benchmarks to measure the
        uncached path)."""
        self._bump()

    # -- declarations --------------------------------------------------------

    def declare(
        self,
        concept: Concept,
        types: Sequence[type] | type,
        type_bindings: Optional[Mapping[str, type]] = None,
        operation_impls: Optional[Mapping[str, Callable]] = None,
        sampler: Optional[Callable[[], Sequence[Sequence[Any]]]] = None,
        check: bool = True,
    ) -> ConceptMap:
        """Declare (and by default verify) that ``types`` model ``concept``.

        Returns the concept map.  With ``check=True`` a failing structural
        check raises immediately — the paper's point that errors should
        surface "at the actual point of error" rather than deep inside a
        generic function.
        """
        tys = (types,) if isinstance(types, type) else tuple(types)
        cmap = ConceptMap(
            concept,
            tys,
            dict(type_bindings or {}),
            dict(operation_impls or {}),
            sampler,
        )
        self._maps[(concept, tys)] = cmap
        self._bump()
        if check:
            report = self.check(concept, tys)
            if not report.ok:
                del self._maps[(concept, tys)]
                self._bump()
                report.raise_if_failed(context=f"concept_map declaration")
        return cmap

    def register(
        self,
        concept: Concept,
        types: Sequence[type] | type,
        **kwargs: Any,
    ) -> ConceptMap:
        """Declare that ``types`` model ``concept`` (the coherent mutation
        surface; alias of :meth:`declare`)."""
        return self.declare(concept, types, **kwargs)

    def unregister(
        self, concept: Concept, types: Sequence[type] | type
    ) -> bool:
        """Remove a previously declared concept map.  Returns True if a map
        was removed.  Bumps the generation, so every memoized verdict (and
        every downstream dispatch table) is invalidated."""
        tys = (types,) if isinstance(types, type) else tuple(types)
        removed = self._maps.pop((concept, tys), None)
        if removed is None:
            return False
        self._bump()
        return True

    def snapshot(self) -> RegistrySnapshot:
        """An immutable copy of the current declarations."""
        return RegistrySnapshot(self._maps, self._generation)

    def restore(self, snapshot: RegistrySnapshot) -> None:
        """Reset the declarations to ``snapshot`` (generation still moves
        *forward*: restoring is a mutation, not time travel — any verdict
        cached since the snapshot must die)."""
        self._maps = dict(snapshot._maps)
        self._bump()

    @contextmanager
    def scoped(self) -> Iterator["ModelRegistry"]:
        """Context manager for temporary models::

            with models.scoped():
                models.register(Monoid, SaturatingInt, ...)
                ...   # dispatch sees the model
            # on exit the declaration (and every cached verdict) is gone

        Replaces the ad-hoc save/clobber/restore of ``_maps`` found in older
        tests and benchmarks.
        """
        snap = self.snapshot()
        try:
            yield self
        finally:
            self.restore(snap)

    def concept_map_for(
        self, concept: Concept, types: tuple[type, ...]
    ) -> Optional[ConceptMap]:
        exact = self._maps.get((concept, types))
        if exact is not None:
            return exact
        # Walk MROs so a map declared for a base class covers subclasses.
        for combo in itertools.product(*(t.__mro__ for t in types)):
            found = self._maps.get((concept, tuple(combo)))
            if found is not None:
                return found
        # A map for a *refinement* of the requested concept also serves: a
        # Field map for float supplies the operations when the nested Ring /
        # Group / Monoid refinement checks run (the C++0x "concept maps are
        # inherited through refinement" rule).
        for (_c, tys), m in self._maps.items():
            if (
                m.concept is not concept
                and len(tys) == len(types)
                and m.concept.refines_concept(concept)
                and all(issubclass(t, mt) for t, mt in zip(types, tys))
            ):
                return m
        return None

    def declared_models(self, concept: Concept) -> list[ConceptMap]:
        return [m for (c, _), m in self._maps.items() if c is concept]

    # -- queries ---------------------------------------------------------------

    def check(
        self, concept: Concept, types: Sequence[type] | type
    ) -> CheckReport:
        """Structural + nominal conformance check; memoized per generation
        (the steady-state cost is one dict lookup)."""
        tys = (types,) if isinstance(types, type) else tuple(types)
        key = (self._generation, concept, tys)
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        t0 = perf_counter()
        try:
            return self._check_uncached(key, concept, tys)
        finally:
            self.stats.check_time_s += perf_counter() - t0

    def _check_uncached(
        self,
        key: tuple[int, Concept, tuple[type, ...]],
        concept: Concept,
        tys: tuple[type, ...],
    ) -> CheckReport:
        if len(tys) != concept.arity:
            report = CheckReport(concept.name, tys)
            report.failures.append(
                RequirementFailure(
                    f"{concept.arity} type argument(s)",
                    f"got {len(tys)}",
                    concept.name,
                )
            )
            self._cache[key] = report
            return report
        # Pre-seed the cache with an optimistic entry to cut recursion on
        # cyclic requirement graphs (iterator's value_type's iterator...).
        optimistic = CheckReport(concept.name, tys)
        self._cache[key] = optimistic
        ctx = CheckContext(self, concept, tys)
        report = CheckReport(concept.name, tys)
        if concept.nominal and self.concept_map_for(concept, tys) is None:
            report.failures.append(
                RequirementFailure(
                    "an explicit concept_map declaration",
                    f"{concept.name} is a nominal (semantic-state) concept; "
                    f"structural conformance cannot establish it",
                    concept.name,
                )
            )
            self._cache[key] = report
            return report
        # Refinements are checked *nested* (each parent against its own
        # concept map), not flattened into this concept's context: a
        # multi-type concept like Vector Space refines Field on S and
        # Additive Abelian Group on V, whose operation names ('op',
        # 'identity') would collide if merged into one lookup scope.
        for req in concept.refinement_requirements() + concept.own_requirements():
            failures = req.check(ctx)
            if failures:
                report.failures.extend(failures)
            else:
                report.checked.append(req.describe())
        self._cache[key] = report
        return report

    def models(self, concept: Concept, types: Sequence[type] | type) -> bool:
        return self.check(concept, types).ok

    def require(
        self,
        concept: Concept,
        types: Sequence[type] | type,
        context: Optional[str] = None,
    ) -> None:
        """Raise a :class:`ConceptCheckError` unless ``types`` model
        ``concept`` — the checkable `where` clause of Section 2.1."""
        self.check(concept, types).raise_if_failed(context)

    # -- associated types -----------------------------------------------------

    def resolve_assoc(
        self, concept: Concept, types: tuple[type, ...], owner: type, name: str
    ) -> Optional[type]:
        """Resolve associated type ``name`` on ``owner``: concept-map
        bindings first, then a class attribute that names a type."""
        cmap = self.concept_map_for(concept, types)
        if (
            cmap is not None
            and name in cmap.type_bindings
            and any(owner is t or issubclass(owner, t) for t in cmap.types)
        ):
            return cmap.type_bindings[name]
        # Any concept map mentioning this owner type may bind the name.
        for (_c, tys), m in self._maps.items():
            if owner in tys and name in m.type_bindings:
                return m.type_bindings[name]
        attr = getattr(owner, name, None)
        if isinstance(attr, type):
            return attr
        return None

    # -- semantics --------------------------------------------------------------

    def check_semantics(
        self,
        concept: Concept,
        types: Sequence[type] | type,
        samples: Optional[Sequence[Sequence[Any]]] = None,
        raise_on_failure: bool = True,
    ) -> list[SemanticAxiomViolation]:
        """Test the concept's semantic axioms on concrete sample values.

        ``samples`` is a sequence of value tuples, one value per axiom
        variable; if omitted, the concept map's sampler is used.  This is the
        runtime analogue of the paper's observation that axioms appear in
        documentation but nothing checks them — here, something does.

        Only the concept's *own* axioms are tested: inherited axioms use the
        refined concept's operation vocabulary (and, for multi-type
        refinement, different parameter types), so they are tested against
        the refined concepts' own models.
        """
        tys = (types,) if isinstance(types, type) else tuple(types)
        axioms = concept.own_axioms()
        if not axioms:
            return []
        if samples is None:
            cmap = self.concept_map_for(concept, tys)
            if cmap is None or cmap.sampler is None:
                raise ConceptDefinitionError(
                    f"no samples available to test axioms of {concept.name} "
                    f"for {', '.join(t.__name__ for t in tys)}"
                )
            samples = cmap.sampler()
        return sample_axioms(concept.name, axioms,
                             OpsNamespace(self, concept, tys), samples,
                             raise_on_failure)


def sample_axioms(
    concept_name: str,
    axioms: Sequence[SemanticAxiom],
    ops: Any,
    samples: Sequence[Sequence[Any]],
    raise_on_failure: bool = True,
) -> list[SemanticAxiomViolation]:
    """Test each axiom's predicate under ``ops`` on every sample long
    enough to bind its variables: the one sampled checker behind
    :meth:`ModelRegistry.check_semantics` and algebraic-structure
    declaration.  A predicate that is false, or raises, is a
    :class:`SemanticAxiomViolation` whose witness is the sample (plus the
    exception, if one was raised); each axiom reports its first."""
    violations: list[SemanticAxiomViolation] = []
    for axiom in axioms:
        for values in samples:
            if len(values) < len(axiom.variables):
                continue
            args = tuple(values[: len(axiom.variables)])
            try:
                ok = axiom.predicate(ops, *args)
            except Exception as exc:  # noqa: BLE001 - report as violation
                ok = False
                args = args + (f"raised {exc!r}",)
            if not ok:
                violation = SemanticAxiomViolation(concept_name, axiom.name, args)
                if raise_on_failure:
                    raise violation
                violations.append(violation)
                break
    return violations


class OpsNamespace:
    """Resolves the concept's operations for a specific binding so axiom
    predicates can invoke them uniformly: ``ops.plus(a, b)``,
    ``ops['<'](a, b)``."""

    def __init__(
        self, registry: ModelRegistry, concept: Concept, types: tuple[type, ...]
    ) -> None:
        self._registry = registry
        self._concept = concept
        self._types = types

    def __getitem__(self, op: str) -> Callable:
        cmap = self._registry.concept_map_for(self._concept, self._types)
        if cmap is not None and op in cmap.operation_impls:
            return cmap.operation_impls[op]
        dunder = ValidExpression.OPERATOR_DUNDER.get(op)

        def call(*args: Any) -> Any:
            if dunder is not None and args and hasattr(type(args[0]), dunder):
                return getattr(args[0], dunder)(*args[1:])
            if args and hasattr(type(args[0]), op):
                return getattr(args[0], op)(*args[1:])
            return self._registry.ops.call(op, *args)

        return call

    def __getattr__(self, op: str) -> Callable:
        if op.startswith("_"):
            raise AttributeError(op)
        return self[op]


class CheckContext(CheckContextProtocol):
    """Implements requirement-side queries for one conformance check."""

    def __init__(
        self, registry: ModelRegistry, concept: Concept, types: tuple[type, ...]
    ) -> None:
        self.registry = registry
        self.concept = concept
        self.types = types
        self.concept_name = concept.name
        self._bindings = {
            p.name: t for p, t in zip(concept.params, types)
        }

    def resolve(self, expr: TypeExpr) -> Optional[type]:
        if isinstance(expr, Param):
            return self._bindings.get(expr.name)
        if isinstance(expr, Exact):
            return expr.pytype
        if isinstance(expr, AnyType):
            return object
        if isinstance(expr, Assoc):
            base = self.resolve(expr.base)
            if base is None:
                return None
            return self.registry.resolve_assoc(
                self.concept, self.types, base, expr.name
            )
        return None

    #: object's non-functional default dunders (they only return
    #: NotImplemented); finding one of these inherited straight from object
    #: does NOT satisfy an operator requirement.  __eq__/__ne__/__hash__ and
    #: __init__ stay: object's identity equality and default construction
    #: are genuine, usable semantics.
    _OBJECT_STUB_DUNDERS = frozenset({
        "__lt__", "__le__", "__gt__", "__ge__",
    })

    def find_operation(
        self, name: str, owner: Optional[type], via: str
    ) -> Optional[Callable]:
        cmap = self.registry.concept_map_for(self.concept, self.types)
        if cmap is not None:
            impl = cmap.operation_impls.get(name)
            if impl is not None:
                return impl
        if owner is not None and hasattr(owner, name):
            found = getattr(owner, name)
            if not (
                name in self._OBJECT_STUB_DUNDERS
                and found is getattr(object, name, None)
            ):
                return found
        if via in ("function", "method"):
            return self.registry.ops.find(name, owner)
        return None

    def subcheck(
        self, concept: Concept, args: Sequence[Optional[type]]
    ) -> list[RequirementFailure]:
        types = tuple(a if a is not None else object for a in args)
        report = self.registry.check(concept, types)
        return list(report.failures)


#: Default process-wide model registry.
models = ModelRegistry(label="default")


def declare_model(
    concept: Concept,
    types: Sequence[type] | type,
    **kwargs: Any,
) -> ConceptMap:
    """Declare a model in the default registry (module-level convenience)."""
    return models.declare(concept, types, **kwargs)


def check_concept(concept: Concept, types: Sequence[type] | type) -> CheckReport:
    """Structurally check ``types`` against ``concept`` in the default
    registry."""
    return models.check(concept, types)


def require(concept: Concept, types: Sequence[type] | type, context: str = "") -> None:
    """Assert conformance, raising a high-level diagnostic otherwise."""
    models.require(concept, types, context or None)


def ops_for(
    concept: Concept,
    types: Sequence[type] | type,
    registry: Optional[ModelRegistry] = None,
) -> OpsNamespace:
    """The operations of ``concept`` as resolved for a model — concept-map
    adaptations included.  Generic algorithms that must work with *adapted*
    models (ones whose operations live in a concept map rather than on the
    type) invoke through this namespace::

        ops = ops_for(Drawable, type(x))
        ops.draw(x)
    """
    tys = (types,) if isinstance(types, type) else tuple(types)
    reg = registry if registry is not None else models
    return OpsNamespace(reg, concept, tys)
