"""The ``@where`` decorator: checkable where clauses on ordinary functions.

Section 2.1 surveys constraint mechanisms — CLU/Theta/Ada where clauses,
Haskell type classes, ML signatures — and asks for one that (a) groups
requirements into reusable concepts and (b) reports violations at the call
boundary.  :func:`where` is that mechanism for Python functions, and it is
**one unified API** for single- and multi-type constraints::

    @where(g=IncidenceGraph, weight=ReadablePropertyMap)
    def dijkstra(g, start, weight): ...

    @where((VectorSpace, ("v", "s")))          # multi-type: positional tuple
    def axpy(v, s, w): ...

    @where((VectorSpace, ("v", "s")), cmp=StrictWeakOrder)   # mixed
    def f(v, s, cmp): ...

Every call checks the named arguments' types against their concepts and
raises :class:`ConceptCheckError` naming the function, the argument, and the
unsatisfied requirement — never a mid-algorithm AttributeError.  Verdicts
are memoized per argument-type tuple **keyed on the registry generation**:
the steady-state cost is a set lookup, and a ``register``/``unregister`` on
the registry invalidates the site's cache instead of silently serving stale
verdicts.  Per-site hit/miss counters feed :func:`repro.runtime.stats`.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Optional, Sequence, Union

from ..runtime import metrics as runtime_metrics
from .concept import Concept
from .errors import ConceptCheckError
from .modeling import ModelRegistry, models as default_registry

ConstraintSpec = Union[
    tuple[Concept, Sequence[str]],
    tuple[Concept, str],
    "ModelRegistry",
]


def _normalize_constraints(
    positional: Sequence[Any],
    named: dict[str, Concept],
) -> tuple[Optional[ModelRegistry], list[tuple[Concept, tuple[str, ...]]]]:
    """Split ``where``'s positional arguments into an optional registry
    (legacy first-positional form) and (concept, params) constraint specs."""
    registry: Optional[ModelRegistry] = None
    specs: list[tuple[Concept, tuple[str, ...]]] = []
    rest = list(positional)
    if rest and isinstance(rest[0], ModelRegistry):
        registry = rest.pop(0)
    for item in rest:
        if not (isinstance(item, tuple) and len(item) == 2):
            raise TypeError(
                "positional @where constraints must be "
                "(Concept, parameter-names) tuples; got "
                f"{item!r}"
            )
        concept, params = item
        if not isinstance(concept, Concept):
            raise TypeError(
                f"@where constraint {item!r}: first element must be a "
                f"Concept"
            )
        if isinstance(params, str):
            params = (params,)
        specs.append((concept, tuple(params)))
    for param, concept in named.items():
        specs.append((concept, (param,)))
    return registry, specs


def where(
    *constraints: Any,
    registry: Optional[ModelRegistry] = None,
    **named: Concept,
) -> Callable[[Callable], Callable]:
    """Attach concept constraints to named parameters.

    Accepts, in one decorator:

    - ``param=Concept`` keyword constraints (single-type concepts);
    - positional ``(Concept, ("a", "b"))`` tuples (multi-type concepts);
    - an optional leading :class:`ModelRegistry` positional argument or
      ``registry=`` keyword to check against a non-default registry.

    Constraint order is positional tuples first, then keywords, in the
    order written.
    """
    pos_registry, specs = _normalize_constraints(constraints, named)
    if pos_registry is not None and registry is not None:
        raise TypeError(
            "@where received two registries (positional and keyword)"
        )
    reg = pos_registry if pos_registry is not None else registry
    reg = reg if reg is not None else default_registry

    def deco(fn: Callable) -> Callable:
        sig = inspect.signature(fn)
        for concept, params in specs:
            for p in params:
                if p not in sig.parameters:
                    raise TypeError(
                        f"@where on {fn.__name__}: no parameter {p!r} "
                        f"(constraint {concept.name})"
                    )
            if len(params) != concept.arity:
                raise TypeError(
                    f"@where on {fn.__name__}: {concept.name} constrains "
                    f"{concept.arity} type(s), got {len(params)} parameter(s)"
                )
        site = runtime_metrics.WhereSiteStats(
            getattr(fn, "__qualname__", fn.__name__)
        )
        # An omitted argument is checked as its parameter's default: the
        # hot path binds without ``apply_defaults``.
        defaults = {n: param.default for n, param in sig.parameters.items()}
        checked_ok: set[tuple[Concept, tuple[type, ...]]] = set()
        # Generation the cache was built against; a registry mutation bumps
        # the generation and the first call after it drops every memoized
        # verdict instead of serving stale ones.
        cache_gen = [-1]

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            gen = reg._generation
            if gen != cache_gen[0]:
                if checked_ok:
                    site.invalidations += 1
                checked_ok.clear()
                cache_gen[0] = gen
            arguments = sig.bind(*args, **kwargs).arguments
            for concept, params in specs:
                types = tuple(
                    type(arguments.get(p, defaults[p])) for p in params
                )
                key = (concept, types)
                if key in checked_ok:
                    site.hits += 1
                    continue
                site.misses += 1
                report = reg.check(concept, types)
                if not report.ok:
                    raise ConceptCheckError(
                        concept.name, types, report.failures,
                        context=(
                            f"{fn.__name__}({', '.join(params)}) — "
                            f"where {', '.join(params)} : {concept.name}"
                        ),
                    )
                checked_ok.add(key)
            return fn(*args, **kwargs)

        wrapper.__concept_constraints__ = tuple(specs)  # type: ignore[attr-defined]
        wrapper.__where_stats__ = site  # type: ignore[attr-defined]
        runtime_metrics.track_where_site(site)
        return wrapper

    return deco


def constraints_of(fn: Callable) -> tuple[tuple[Concept, tuple[str, ...]], ...]:
    """Introspect a @where-decorated function's declared constraints (the
    documentation-as-data story: tooling reads the same constraints the
    checker enforces)."""
    raw = getattr(fn, "__concept_constraints__", ())
    return tuple((c, tuple(p)) for c, p in raw)


def declaration_of(fn: Callable) -> str:
    """Render the function's where clause as the paper's examples do."""
    cs = constraints_of(fn)
    inner = getattr(fn, "__wrapped__", fn)
    params = ", ".join(inspect.signature(inner).parameters)
    if not cs:
        return f"{getattr(fn, '__name__', '<fn>')}({params})"
    clauses = ",\n        ".join(
        f"{', '.join(p)} : {c.name}" for c, p in cs
    )
    return f"{fn.__name__}({params})\n  where {clauses}"
