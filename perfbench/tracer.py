"""In-memory span tracer that wraps each layer's public entry points from
outside the program.

A span has a name, a start, an end, the span that caused it (its parent
on the call stack) and the run id of the closed-loop operation it belongs
to.  A layer's *self time* is its span's duration minus the time its
child spans cover.  Spans are kept in memory (raw records up to a cap,
aggregates always) and written out once, when the run ends.

Wrapping is by attribute replacement: a module-level function is
replaced in its defining module *and* in every loaded ``repro`` module
that imported it by name, a method is replaced on the class that defines
it.  :meth:`Patcher.restore` puts every original back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from typing import Any, Callable, Iterable

_clock = time.perf_counter


class Tracer:
    """Span recorder: per-name self time and call counts, plus raw span
    records up to ``cap``."""

    def __init__(self, cap: int = 100_000) -> None:
        self.cap = cap
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counts: dict[str, int] = {}
        # Raw records, parallel arrays: name id, start, end, parent, run.
        self.r_name = array("i")
        self.r_start = array("d")
        self.r_end = array("d")
        self.r_parent = array("q")
        self.r_run = array("q")
        self.spans = 0
        self.run_id = 0
        #: Wrappers record only while enabled (the timed part of an op).
        self.enabled = False
        # Stack frames: [span id, name id, start, child time].
        self._stack: list[list] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def push(self, nid: int) -> list:
        frame = [self.spans, nid, 0.0, 0.0]
        self.spans += 1
        self._stack.append(frame)
        frame[2] = _clock()
        return frame

    def pop(self, frame: list) -> None:
        end = _clock()
        stack = self._stack
        stack.pop()
        sid, nid, start, child = frame
        dur = end - start
        self.self_s[nid] += dur - child
        self.calls[nid] += 1
        parent = -1
        if stack:
            up = stack[-1]
            up[3] += dur
            parent = up[0]
        if sid < self.cap:
            self.r_name.append(nid)
            self.r_start.append(start)
            self.r_end.append(end)
            self.r_parent.append(parent)
            self.r_run.append(self.run_id)

    def self_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def dump(self, path, extra: dict) -> None:
        """Write aggregates, the capped raw spans and ``extra`` as JSON."""
        record = {
            "names": self.names,
            "self_s": dict(zip(self.names, self.self_s)),
            "calls": dict(zip(self.names, self.calls)),
            "counts": self.counts,
            "spans_total": self.spans,
            "spans_kept": len(self.r_name),
            "span_fields": ["name", "start", "end", "parent", "run"],
            "spans": [
                [self.names[n], s, e, p, r] for n, s, e, p, r in zip(
                    self.r_name, self.r_start, self.r_end, self.r_parent,
                    self.r_run)
            ],
        }
        record.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def _span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    nid = tracer.intern(name)
    push, pop = tracer.push, tracer.pop

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        frame = push(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            pop(frame)

    return traced


def _count_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    counts = tracer.counts

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if tracer.enabled:
            counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    return counted


class Patcher:
    """Installs wrappers and remembers how to undo them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module: Any, attr: str, name: str,
                 count_only: bool = False) -> None:
        """Wrap ``module.attr`` everywhere a loaded ``repro`` module binds
        the same function object."""
        original = getattr(module, attr)
        make = _count_wrapper if count_only else _span_wrapper
        wrapped = make(self.tracer, name, original)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("repro"):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def methods(self, cls: type, name: str,
                only: Iterable[str] | None = None) -> None:
        """Wrap the plain functions ``cls`` itself defines (public ones,
        plus dunder call/get/set item, or exactly ``only``)."""
        for attr, value in list(vars(cls).items()):
            if only is not None:
                if attr not in only:
                    continue
            elif attr.startswith("_") and attr not in (
                    "__call__", "__getitem__", "__setitem__", "__len__",
                    "__iter__"):
                continue
            if not callable(value) or isinstance(
                    value, (staticmethod, classmethod, type, property)):
                continue
            self._set(cls, attr, _span_wrapper(self.tracer, name, value))

    def module_functions(self, module: Any, name: str) -> None:
        """Wrap every public plain function defined in ``module``."""
        for attr, value in list(vars(module).items()):
            if (attr.startswith("_") or getattr(module, attr) is not value
                    or getattr(value, "__module__", None) != module.__name__
                    or not isinstance(value, types.FunctionType)):
                continue
            self.function(module, attr, name)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install_layers(patcher: Patcher) -> None:
    """Wrap the public boundary of every measured ``repro`` layer."""
    import repro.analysis.cache as cache
    import repro.analysis.deps as deps
    import repro.analysis.session as session
    import repro.concepts.overload as overload
    import repro.distributed.algorithms.replog as replog
    import repro.distributed.failures as failures
    import repro.distributed.reliable as reliable
    import repro.distributed.simulator as simulator
    import repro.facts.properties as properties
    import repro.lint.concept_pass as concept_pass
    import repro.lint.driver as lint_module
    import repro.optimize.pipeline as pipeline
    import repro.sequences.algorithms as algorithms
    import repro.sequences.iterators as iterators
    import repro.sequences.storage as storage
    import repro.stllint.cfg as cfg
    import repro.stllint.dataflow as dataflow
    import repro.stllint.facts_collection as facts_collection
    import repro.stllint.interpreter as interpreter
    from repro.sequences import Deque, DList, Vector
    from repro.sequences.backends import (
        ContiguousStorage,
        SqliteSequence,
        SqliteStorage,
    )

    p = patcher
    # analysis
    p.methods(session.AnalysisSession, "analysis.session",
              only=("lint_paths", "lint_file", "lint_source",
                    "optimize_paths", "optimize_file", "optimize_source",
                    "collect_facts_file"))
    p.function(deps, "dependency_fingerprints", "analysis.deps")
    p.methods(cache.AnalysisCache, "analysis.cache.get", only=("get",))
    p.methods(cache.AnalysisCache, "analysis.cache.put", only=("put",))
    # lint, stllint, facts, optimize
    p.function(lint_module, "_lint_source_impl", "lint")
    p.function(concept_pass, "run_concept_pass", "lint.concept_pass")
    p.methods(interpreter.Checker, "stllint", only=("run",))
    p.methods(dataflow.FixpointChecker, "stllint", only=("run",))
    p.function(cfg, "lower_function", "stllint.cfg")
    p.function(facts_collection, "collect_facts", "facts")
    p.function(properties, "invalidate", "facts.invalidations",
               count_only=True)
    p.function(pipeline, "_optimize_source_impl", "optimize")
    # runtime dispatch (every GenericFunction call)
    p.methods(overload.GenericFunction, "runtime.dispatch",
              only=("__call__",))
    # sequences: algorithms, container facades + iterators, storages
    p.module_functions(algorithms, "sequences.algorithms")
    for cls in (storage.SequenceFacade, Vector, Deque, DList,
                SqliteSequence, iterators.IndexIterator,
                iterators.NodeIterator, iterators.RandomAccessMixin):
        p.methods(cls, "sequences.facade")
    for cls in (storage.ListStorage, storage.DequeStorage,
                storage.LinkedStorage, ContiguousStorage, SqliteStorage):
        backend = cls.capabilities.name
        p.methods(cls, f"sequences.storage.{backend}")
    # distributed
    p.methods(simulator.Simulator, "distributed.simulator", only=("run",))
    p.methods(failures.FailurePlan, "distributed.failures",
              only=("crashed", "partitioned", "link_dead", "blocked",
                    "drops", "corrupt", "partition_groups"))
    p.methods(reliable.ReliableProcess, "distributed.reliable",
              only=("on_start", "on_message", "on_round", "on_recover"))
    p.methods(reliable.ReliableChannel, "distributed.reliable",
              only=("send", "handle_timer", "handle_message", "start"))
    p.methods(replog.ReplicatedLog, "distributed.replog",
              only=("on_start", "on_message", "on_recover"))
