"""repro — a reproduction of *Generic Programming and High-Performance
Libraries* (Gregor, Järvi, Kulkarni, Lumsdaine, Musser, Schupp; 2004).

Subpackages (one per system the paper describes):

- :mod:`repro.concepts` — first-class concepts: requirements, refinement,
  modeling, archetypes, concept-based overloading, constraint propagation,
  taxonomies, complexity guarantees (Section 2).
- :mod:`repro.runtime` — dispatch acceleration + observability beneath the
  concept layer: generation-cached model verdicts, precompiled overload
  decision tables, `stats()`/`report()` and the ``REPRO_STATS=1`` exit
  report.
- :mod:`repro.sequences` — STL-like containers/iterators with tracked
  invalidation and concept-overloaded algorithms.
- :mod:`repro.graphs` — BGL-like graph library over the Fig. 1/2 concepts.
- :mod:`repro.linalg` — Fig. 3 vector spaces and the CLA-CRM mixed-precision
  kernels.
- :mod:`repro.stllint` — high-level static checking against library
  specifications (Section 3.1).
- :mod:`repro.simplicissimus` — concept-based rewriting (Section 3.2, Fig. 5).
- :mod:`repro.athena` — DPL-style proof checking with generic proofs
  (Section 3.3, Fig. 6).
- :mod:`repro.distributed` — message-passing simulator + the seven-dimension
  algorithm taxonomy (Section 4).
- :mod:`repro.parallel` — data-parallel library over a work/span machine
  model (Section 4).
"""

from . import concepts

__version__ = "1.0.0"

__all__ = ["concepts", "__version__"]
