"""One configuration object for the whole analysis surface.

Before this package existed, every entry point grew its own knobs:
``LintConfig`` for the lint driver, loose keyword arguments for the
optimizer pipeline, and per-CLI argparse flags that drifted apart.  The
:class:`AnalysisConfig` dataclass is the single source of truth both
CLIs, the :class:`~repro.analysis.session.AnalysisSession` façade, and
the daemon consume; the legacy shapes are derived views
(:meth:`to_lint_config` / :meth:`from_lint_config`).

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

from repro.lint.driver import LintConfig

#: Default resource/size mirrored from the optimizer pipeline (imported
#: lazily there to avoid a config->pipeline->config cycle).
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
    monomorphize: bool = False         # OPT-MONO pass (opt-in)
    # -- service ------------------------------------------------------------
    jobs: int = 1                      # worker processes; 0 = cpu count
    cache: bool = False                # persistent result cache on/off
    cache_dir: Optional[str] = None    # None = REPRO_ANALYSIS_CACHE or
    #                                    ~/.cache/repro-analysis

    # -- legacy views --------------------------------------------------------

    def to_lint_config(self) -> LintConfig:
        return LintConfig(
            fail_on=self.fail_on,
            concept_pass=self.concept_pass,
            interprocedural=self.interprocedural,
            exclude=self.exclude,
            timeout_s=self.timeout_s,
        )

    @classmethod
    def from_lint_config(
        cls, config: Optional[LintConfig] = None, **overrides,
    ) -> "AnalysisConfig":
        config = config or LintConfig()
        return cls(
            fail_on=config.fail_on,
            concept_pass=config.concept_pass,
            interprocedural=config.interprocedural,
            exclude=tuple(config.exclude),
            timeout_s=config.timeout_s,
            **overrides,
        )

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
                self.monomorphize,
            )
        else:
            raise ValueError(f"unknown analysis kind {kind!r}")
        blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]
