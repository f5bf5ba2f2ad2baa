"""One registry of pull-based counter groups.

Each layer keeps its counters where its own hot path bumps them and, at
import, registers one named group here: a pull callback for its
snapshot, a renderer for the exit report, and the counter tracks that
snapshot adds to a trace.  Nothing is read until a trace export
(:func:`fold`) or the ``REPRO_STATS=1`` exit report
(:func:`install_report`) asks, so the registry puts no work on any hot
path.  Like :mod:`repro.trace.core` it imports only the standard library,
so every layer registers without an upward import.
"""

from __future__ import annotations

import atexit
import sys
from typing import Any, Callable, Optional, TextIO

#: name -> (stats(), report(snapshot), tracks(snapshot)), in registration
#: order; a track is a ``(name, category, values)`` counter sample.
_groups: dict[str, tuple[Callable, Callable, Callable]] = {}
_report_installed = False


def register(name: str, stats: Callable[[], dict],
             report: Callable[[dict], str],
             tracks: Callable[[dict], list]) -> None:
    """Register (or replace) the counter group ``name``."""
    _groups[name] = (stats, report, tracks)


def fold(tracer: Any) -> None:
    """Sample every group's tracks into ``tracer`` as counter records."""
    for stats, _, tracks in list(_groups.values()):
        for track, cat, values in tracks(stats()):
            tracer.counter(track, values, cat=cat)


def report() -> str:
    """Every group's rendered snapshot, one block per group."""
    return "\n".join(
        render(stats()) for stats, render, _ in list(_groups.values())
    )


def install_report(stream: Optional[TextIO] = None) -> None:
    """Print :func:`report` to ``stream`` (default stderr) at interpreter
    exit (idempotent); installed by ``REPRO_STATS=1``."""
    global _report_installed
    if _report_installed:
        return
    _report_installed = True

    def _emit() -> None:
        out = stream if stream is not None else sys.stderr
        try:
            print(report(), file=out, flush=True)
        except Exception:  # noqa: BLE001 - never fail interpreter shutdown
            pass

    atexit.register(_emit)
