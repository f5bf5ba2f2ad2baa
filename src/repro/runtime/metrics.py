"""Runtime observability counters for the concept-dispatch fast path.

Every instrumented object — model registries, generic functions, ``@where``
call sites — owns its own plain-integer counters (a single attribute
increment on the hot path, no locks, no dict hashing beyond what dispatch
already pays) and registers itself in a process-wide :class:`weakref.WeakSet`
so :func:`repro.runtime.stats` can aggregate without keeping anything alive.

This module deliberately imports nothing from :mod:`repro.concepts`: it sits
*below* the concept layer so that modeling / overload / where can all depend
on it without cycles.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Iterable

_lock = threading.Lock()
_registries: "weakref.WeakSet[Any]" = weakref.WeakSet()
_generic_functions: "weakref.WeakSet[Any]" = weakref.WeakSet()
_where_sites: "weakref.WeakSet[Any]" = weakref.WeakSet()


class RegistryStats:
    """Counters for one :class:`~repro.concepts.modeling.ModelRegistry`.

    ``hits``/``misses`` count memoized-verdict lookups; ``invalidations``
    counts generation bumps (every mutation is one); ``check_time_s``
    accumulates wall time spent inside *uncached* conformance checks, so the
    benchmarks can report what the fast path actually avoids.
    """

    __slots__ = ("hits", "misses", "invalidations", "check_time_s")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.check_time_s = 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.check_time_s = 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "check_time_s": self.check_time_s,
        }


class WhereSiteStats:
    """Counters for one ``@where``-decorated function."""

    __slots__ = ("name", "hits", "misses", "invalidations", "__weakref__")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def snapshot(self) -> dict:
        return {
            "function": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }


# -- tracking -----------------------------------------------------------------


def track_registry(registry: Any) -> None:
    with _lock:
        _registries.add(registry)


def track_generic_function(fn: Any) -> None:
    with _lock:
        _generic_functions.add(fn)


def track_where_site(stats: WhereSiteStats) -> None:
    with _lock:
        _where_sites.add(stats)


def registries() -> list:
    with _lock:
        return list(_registries)


def generic_functions() -> list:
    with _lock:
        return list(_generic_functions)


def where_sites() -> Iterable[WhereSiteStats]:
    with _lock:
        return list(_where_sites)
