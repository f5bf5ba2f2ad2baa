"""repro.runtime — dispatch acceleration and observability.

The concept layer (:mod:`repro.concepts`) promises that pervasive checking
is affordable because "the steady-state cost is a dict lookup".  This
package is where that promise is enforced and *measured*:

- :mod:`repro.runtime.dispatch` compiles per-type-tuple decision tables for
  :class:`~repro.concepts.overload.GenericFunction` (specificity resolved
  once, O(1) dict hit per call), invalidated by the
  :class:`~repro.concepts.modeling.ModelRegistry` generation counter;
- :mod:`repro.runtime.metrics` holds the per-object counters (cache
  hits/misses, per-overload dispatch counts, check latencies, invalidation
  events) that every instrumented object updates on its own hot path;
- :func:`stats` aggregates those counters into one JSON-serializable
  snapshot and :func:`report` renders it for humans; both are registered
  as the ``runtime`` group of :mod:`repro.trace.counters`, so trace
  exports carry the dispatch counter tracks and setting ``REPRO_STATS=1``
  in the environment prints the report at interpreter exit — benchmarks
  assert speedups instead of guessing.

Nothing here imports :mod:`repro.concepts` at module scope: runtime sits
below the concept layer in the dependency order.
"""

from __future__ import annotations

from typing import Optional

from ..trace import counters as _counters
from . import metrics
from .dispatch import (
    DispatchTable,
    SpecificityMatrix,
    compile_table,
    registry_generation,
)

__all__ = [
    "DispatchTable",
    "SpecificityMatrix",
    "compile_table",
    "metrics",
    "registry_generation",
    "report",
    "reset_stats",
    "stats",
]


def stats() -> dict:
    """One aggregated, JSON-serializable snapshot of every live registry,
    generic function, and ``@where`` site in the process."""
    regs = []
    for reg in metrics.registries():
        snap = reg.stats.snapshot()
        snap.update(
            label=getattr(reg, "label", repr(reg)),
            generation=reg.generation,
            concept_maps=len(reg._maps),
            cache_entries=len(reg._cache),
        )
        regs.append(snap)
    regs.sort(key=lambda r: (-(r["hits"] + r["misses"]), r["label"]))

    fns = sorted(
        (gf.stats() for gf in metrics.generic_functions()),
        key=lambda s: (-(s["hits"] + s["misses"]), s["name"]),
    )
    sites = sorted(
        (s.snapshot() for s in metrics.where_sites()),
        key=lambda s: (-(s["hits"] + s["misses"]), s["function"]),
    )
    totals = {
        "model_cache_hits": sum(r["hits"] for r in regs),
        "model_cache_misses": sum(r["misses"] for r in regs),
        "invalidations": sum(r["invalidations"] for r in regs),
        "check_time_s": sum(r["check_time_s"] for r in regs)
        + sum(f["check_time_s"] for f in fns),
        "dispatch_hits": sum(f["hits"] for f in fns),
        "dispatch_misses": sum(f["misses"] for f in fns),
        "table_rebuilds": sum(f["rebuilds"] for f in fns),
        "where_hits": sum(s["hits"] for s in sites),
        "where_misses": sum(s["misses"] for s in sites),
    }
    return {
        "registries": regs,
        "generic_functions": fns,
        "where_sites": sites,
        "totals": totals,
    }


def reset_stats() -> None:
    """Zero every tracked counter (registries keep their declarations and
    generations; only the observability counters reset)."""
    for reg in metrics.registries():
        reg.stats.reset()
    for gf in metrics.generic_functions():
        gf.reset_stats()
    for site in metrics.where_sites():
        site.reset()


def report(snapshot: Optional[dict] = None, max_rows: int = 12) -> str:
    """Human-readable rendering of :func:`stats` (top ``max_rows`` most
    active entries per section)."""
    snap = snapshot if snapshot is not None else stats()
    t = snap["totals"]
    lines = [
        "== repro.runtime dispatch stats ==",
        (
            f"model cache: {t['model_cache_hits']} hits / "
            f"{t['model_cache_misses']} misses, "
            f"{t['invalidations']} invalidations, "
            f"{t['check_time_s'] * 1e3:.2f}ms in uncached checks"
        ),
        (
            f"dispatch tables: {t['dispatch_hits']} hits / "
            f"{t['dispatch_misses']} misses, "
            f"{t['table_rebuilds']} rebuilds"
        ),
        (
            f"@where sites: {t['where_hits']} hits / "
            f"{t['where_misses']} misses"
        ),
    ]

    def active(rows, key):
        return [r for r in rows if r["hits"] + r["misses"] > 0][:max_rows]

    fns = active(snap["generic_functions"], "name")
    if fns:
        lines.append("-- generic functions --")
        for f in fns:
            per = ", ".join(
                f"{name}: {n}" for name, n in sorted(
                    f["overload_calls"].items(), key=lambda kv: -kv[1]
                )
            )
            lines.append(
                f"  {f['name']}: {f['hits']} hits / {f['misses']} misses, "
                f"table size {f['table_size']}, {f['rebuilds']} rebuilds"
                + (f" [{per}]" if per else "")
            )
    sites = active(snap["where_sites"], "function")
    if sites:
        lines.append("-- @where sites --")
        for s in sites:
            lines.append(
                f"  {s['function']}: {s['hits']} hits / {s['misses']} misses"
            )
    regs = active(snap["registries"], "label")
    if regs:
        lines.append("-- model registries --")
        for r in regs:
            lines.append(
                f"  {r['label']}: gen {r['generation']}, "
                f"{r['concept_maps']} maps, {r['cache_entries']} cached "
                f"verdicts, {r['hits']} hits / {r['misses']} misses, "
                f"{r['invalidations']} invalidations"
            )
    return "\n".join(lines)


def _tracks(snap: dict) -> list:
    t = snap["totals"]
    return [
        ("dispatch.tables", "dispatch", {
            "hits": t["dispatch_hits"],
            "misses": t["dispatch_misses"],
            "rebuilds": t["table_rebuilds"],
        }),
        ("model.cache", "dispatch", {
            "hits": t["model_cache_hits"],
            "misses": t["model_cache_misses"],
            "invalidations": t["invalidations"],
        }),
        ("where.sites", "dispatch", {
            "hits": t["where_hits"],
            "misses": t["where_misses"],
        }),
    ]


_counters.register("runtime", stats, report, _tracks)
