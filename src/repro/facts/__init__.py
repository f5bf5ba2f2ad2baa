"""repro.facts — the semantic-property layer shared by STLlint,
Simplicissimus, and the algorithm taxonomies.

Section 3.2 of the paper has Simplicissimus consume *STLlint-derived flow
facts* ("linear search on a sorted sequence → binary search").  Before this
package existed, the three consumers each kept a private spelling of the
same knowledge: sortedness/heapness lived inside STLlint's entry/exit
handlers, rewrite-rule guards were concept-only, and the sequence taxonomy
hard-coded its complexity notes.  This package is the single vocabulary:

- :mod:`repro.facts.properties` — first-class :class:`Property` objects
  (``sorted``, ``heap``, ``unique`` …) with a small lattice: implication
  closure, ``meet``/``join``, and data-driven invalidation on mutation
  (``invalidate(props, "append")`` knows a heap becomes heap-except-last),
  and the ``INVALIDATION`` table of which iterators each container
  operation kills, which the runtime containers and STLlint both read.
- :mod:`repro.facts.records` — :class:`Fact` / :class:`AlgorithmCallFact`
  records, the :class:`FactRecorder` STLlint writes into, and the
  :class:`FactTable` consumers query (must-hold properties at a call site,
  across all abstract paths).

``collect_facts(source)`` — the public producer API — is implemented by the
STLlint interpreter (:mod:`repro.stllint.facts_collection`) and re-exported
here lazily so this package stays at the bottom of the layering (stdlib
imports only at module scope).
"""

from __future__ import annotations

from .properties import (
    ALL_PROPERTIES,
    DISTINCT,
    HEAP,
    HEAP_TAIL,
    SIZE_BOUNDED,
    SORTED,
    STRICTLY_SORTED,
    FactEnv,
    Property,
    closure,
    get_property,
    invalidate,
    join,
    meet,
)
from .records import (
    AlgorithmCallFact,
    CallSite,
    Fact,
    FactRecorder,
    FactTable,
)

__all__ = [
    "Property", "get_property", "ALL_PROPERTIES",
    "SORTED", "HEAP", "HEAP_TAIL", "DISTINCT", "STRICTLY_SORTED",
    "SIZE_BOUNDED",
    "closure", "meet", "join", "invalidate", "FactEnv",
    "Fact", "AlgorithmCallFact", "CallSite", "FactRecorder", "FactTable",
    "collect_facts",
]


def __getattr__(name: str):
    # collect_facts is produced by the STLlint layer above this one; import
    # it lazily so repro.facts never imports repro.stllint at module scope
    # (stllint.specs imports repro.facts.properties, and an eager import
    # here would be circular).
    if name == "collect_facts":
        from ..stllint.facts_collection import collect_facts

        return collect_facts
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
