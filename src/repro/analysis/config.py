"""One configuration object for the whole analysis surface.

The :class:`AnalysisConfig` dataclass holds every knob of the lint
driver, the optimizer pipeline and the service: the
:class:`~repro.analysis.session.AnalysisSession` façade, the
``python -m repro.analysis`` command line (whose flags are named after
its fields) and the daemon all build one, and the lint driver
(:mod:`repro.lint.driver`), the optimizer
(:mod:`repro.optimize.pipeline`) and
:func:`~repro.stllint.facts_collection.collect_facts` read it directly.

The config also owns the **fingerprint** that keys the on-disk cache.
Only fields that can change an analysis *result* participate:

- lint results depend on ``concept_pass`` and ``interprocedural``;
- optimize results additionally depend on ``resource`` and ``size``;
- ``fail_on`` (presentation: which severity gates the exit code),
  ``timeout_s`` (infrastructure: partial results are never cached in the
  first place), ``jobs`` (scheduling: serial and parallel runs are
  bit-identical by construction) and the cache settings themselves are
  deliberately excluded, so flipping them keeps a warm cache warm.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Optional

#: Resource whose guarantee drives the optimizer's selection, and the
#: size the asymptotic win is priced at for reporting.
DEFAULT_RESOURCE = "comparisons"
DEFAULT_SIZE = 1000.0


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs for one :class:`AnalysisSession` — lint, optimize, and
    service behaviour in one place."""

    # -- shared analysis semantics -----------------------------------------
    timeout_s: Optional[float] = None  # per-file deadline (never cached)
    # -- lint ---------------------------------------------------------------
    fail_on: str = "warning"
    concept_pass: bool = True
    interprocedural: bool = True
    exclude: tuple[str, ...] = ()
    # -- optimize -----------------------------------------------------------
    resource: str = DEFAULT_RESOURCE
    size: float = DEFAULT_SIZE
    # -- service ------------------------------------------------------------
    jobs: int = 1                      # worker processes; 0 = cpu count
    cache: bool = False                # persistent result cache on/off
    cache_dir: Optional[str] = None    # None = REPRO_ANALYSIS_CACHE or
    #                                    ~/.cache/repro-analysis

    def with_(self, **overrides) -> "AnalysisConfig":
        return replace(self, **overrides)

    # -- cache fingerprints --------------------------------------------------

    def fingerprint(self, kind: str) -> str:
        """Stable digest of the result-relevant fields for ``kind``
        (``"lint"`` or ``"optimize"``) — part of every cache key, so a
        config change invalidates by construction rather than by
        bookkeeping."""
        if kind == "lint":
            parts = ("lint", self.concept_pass, self.interprocedural)
        elif kind == "optimize":
            parts = (
                "optimize", self.concept_pass,
                self.interprocedural, self.resource, repr(self.size),
            )
        else:
            raise ValueError(f"unknown analysis kind {kind!r}")
        blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]
