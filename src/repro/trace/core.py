"""Span tracer core: thread-local span stacks over a monotonic clock.

The contract that makes tracing affordable everywhere (ROADMAP: "fast as
the hardware allows") is split in two:

- **disabled** (the default): every instrumentation site in the codebase
  is guarded by a single ``if core.ACTIVE is not None`` module-global
  check — no allocation, no call, no clock read.  The dispatch-table *hit*
  path is not instrumented at all: hits are already counted by
  :mod:`repro.runtime.metrics`, and the exporters fold those counters
  (through :mod:`repro.trace.counters`) into the trace as Chrome counter
  events, so the hottest loop in the system carries zero added
  instructions.
- **enabled**: spans are recorded as plain dicts against a
  ``perf_counter_ns`` origin captured at tracer construction, pushed and
  popped on a per-thread stack so nesting depth is known without walking
  parents.  Instant events and counter samples attach to the same
  timeline.

This module imports only the standard library: it sits below
:mod:`repro.runtime` (which instruments against it) and therefore below
everything else in the layering.
"""

from __future__ import annotations

import os
import threading
from time import perf_counter_ns
from typing import Any, Optional

#: The process-global tracer consulted by every instrumentation site.
#: ``None`` means disabled; sites must guard with ``if ACTIVE is not None``.
ACTIVE: Optional["Tracer"] = None

_lock = threading.Lock()


class Span:
    """One open span: a named interval on the current thread's stack.

    Returned by :meth:`Tracer.span` for use as a context manager; extra
    attributes discovered mid-span are attached with :meth:`set`.
    """

    __slots__ = ("tracer", "name", "cat", "attrs", "start_ns", "_depth")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 attrs: dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.start_ns = 0
        self._depth = 0

    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        stack = self.tracer._stack()
        self._depth = len(stack)
        stack.append(self)
        self.start_ns = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end_ns = perf_counter_ns()
        stack = self.tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer._emit_span(
            self.name, self.cat, self.start_ns, end_ns, self._depth,
            self.attrs,
        )


class Tracer:
    """Records spans, instant events, and counter samples as plain dicts.

    Every record carries microsecond timestamps relative to the tracer's
    construction (``ts_us``), the recording thread (``tid``), and free-form
    ``attrs``; spans additionally carry ``dur_us`` and nesting ``depth``.
    Exporters (:mod:`repro.trace.exporters`) turn the record list into
    newline-delimited JSON or Chrome ``chrome://tracing`` format.
    """

    def __init__(self, name: str = "repro") -> None:
        self.name = name
        self.origin_ns = perf_counter_ns()
        self.records: list[dict] = []
        self.pid = os.getpid()
        self._tls = threading.local()
        self._tids: dict[int, int] = {}

    # -- internals -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with _lock:
                tid = self._tids.setdefault(ident, len(self._tids))
        return tid

    def _us(self, ns: int) -> float:
        return (ns - self.origin_ns) / 1e3

    def _emit_span(self, name: str, cat: str, start_ns: int, end_ns: int,
                   depth: int, attrs: dict[str, Any]) -> None:
        self.records.append({
            "type": "span",
            "name": name,
            "cat": cat,
            "ts_us": self._us(start_ns),
            "dur_us": (end_ns - start_ns) / 1e3,
            "tid": self._tid(),
            "depth": depth,
            "attrs": attrs,
        })

    # -- recording API -------------------------------------------------------

    def span(self, name: str, cat: str = "repro", **attrs: Any) -> Span:
        """Open a nested span: ``with tracer.span("lint.function", fn=name):``."""
        return Span(self, name, cat, attrs)

    def complete(self, name: str, start_ns: int, cat: str = "repro",
                 **attrs: Any) -> None:
        """Record an already-timed interval (``start_ns`` from
        ``perf_counter_ns()``) without stack bookkeeping — the shape used
        by choke points that measure themselves."""
        self._emit_span(
            name, cat, start_ns, perf_counter_ns(), len(self._stack()), attrs
        )

    def event(self, name: str, cat: str = "repro", **attrs: Any) -> None:
        """Record an instant event at the current time and depth."""
        self.records.append({
            "type": "event",
            "name": name,
            "cat": cat,
            "ts_us": self._us(perf_counter_ns()),
            "tid": self._tid(),
            "depth": len(self._stack()),
            "attrs": attrs,
        })

    def counter(self, name: str, values: dict[str, float],
                cat: str = "repro") -> None:
        """Record a counter sample (renders as a Chrome counter track)."""
        self.records.append({
            "type": "counter",
            "name": name,
            "cat": cat,
            "ts_us": self._us(perf_counter_ns()),
            "tid": self._tid(),
            "values": dict(values),
        })


def enable(tracer: Optional[Tracer] = None) -> Tracer:
    """Install ``tracer`` (or a fresh one) as the process-global tracer and
    return it."""
    global ACTIVE
    with _lock:
        if tracer is None:
            tracer = ACTIVE if ACTIVE is not None else Tracer()
        ACTIVE = tracer
    return tracer


def disable() -> Optional[Tracer]:
    """Deactivate global tracing; returns the tracer that was active (its
    records remain exportable)."""
    global ACTIVE
    with _lock:
        tracer, ACTIVE = ACTIVE, None
    return tracer


def active() -> Optional[Tracer]:
    """The process-global tracer, or None when tracing is disabled."""
    return ACTIVE
