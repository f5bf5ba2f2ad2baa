"""Summary-based interprocedural analysis for the fixpoint engine.

Bounded inlining (re-running the callee's body inside the caller's
abstract state up to a fixed depth) loses every effect past the bound.
This module uses the classic separate-analysis discipline instead (the
"analyze each component once against its specification" idea the paper's
generic-programming methodology is built on): each callee is analyzed
**once per abstract argument shape**, producing an input→output
:class:`Summary` that is memoized and replayed at every call site.

A *shape* captures what the transfer functions can observe about an
argument: container kind, closed property set, emptiness, iterator
position/validity, and — crucially — the *aliasing pattern* (which
arguments share a container), via per-class indices.  Two call sites
passing arguments with equal shapes provably drive the callee's abstract
execution identically, so the memoization is exact, not heuristic.

Effects on the *caller* are captured without seeing the caller's
environment by planting one hidden **sentinel iterator** per container
class before analyzing the callee: the sentinel models "some iterator
the caller holds into this container", and its final validity is
precisely the invalidation the callee inflicts on every such iterator
(the per-kind ``others`` rules of ``CONTAINER_SPECS``, transitively
through any helpers the callee itself calls).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Optional

from ..trace import core as _trace
from .abstract_values import (
    AbstractBool,
    AbstractContainer,
    AbstractIterator,
    AbstractValue,
    Position,
    Validity,
)
from .diagnostics import Severity
from .interpreter import Env


@dataclass(frozen=True)
class ClassEffect:
    """Net effect of one call on one container alias class."""

    mutated: bool
    properties_after: frozenset[str]
    maybe_empty_after: bool
    others: str  # "keep" | "maybe" | "singular" — effect on caller iterators


@dataclass
class Summary:
    """One callee's input→output behaviour for one argument shape."""

    name: str
    diagnostics: list[tuple[Severity, str, int]] = field(default_factory=list)
    class_effects: dict[int, ClassEffect] = field(default_factory=dict)
    #: arg index -> (position, validity, may_be_end) final state of an
    #: iterator argument, or None when the callee rebound the parameter
    #: (fall back to the class-level invalidation only).
    iter_arg_effects: dict[int, Optional[tuple]] = field(default_factory=dict)
    ret: tuple = ("none",)
    converged: bool = True


def arg_shapes(args: list[Any]) -> tuple[tuple, dict[int, int]]:
    """Abstract shapes for a call's arguments plus the cid→alias-class
    mapping used to build them."""
    classes: dict[int, int] = {}

    def class_of(c: AbstractContainer) -> int:
        if c.cid not in classes:
            classes[c.cid] = len(classes)
        return classes[c.cid]

    shapes: list[tuple] = []
    for v in args:
        if isinstance(v, AbstractContainer):
            shapes.append((
                "C", class_of(v), v.kind, frozenset(v.properties),
                v.maybe_empty,
            ))
        elif isinstance(v, AbstractIterator):
            c = v.container
            shapes.append((
                "I", class_of(c), c.kind, frozenset(c.properties),
                c.maybe_empty, v.position, v.validity, v.may_be_end,
            ))
        elif isinstance(v, AbstractBool):
            shapes.append(("B", v))
        else:
            shapes.append(("V",))
    return tuple(shapes), classes


def _assigned_names(fn: ast.FunctionDef) -> set[str]:
    """Names ``fn`` assigns anywhere: assignment, augmented or
    annotated assignment, ``for`` and walrus targets.  A parameter in
    this set may name a new object at exit, whose state says nothing
    about the caller's argument."""
    names: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                             ast.For, ast.AsyncFor, ast.NamedExpr)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                names.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name))
    return names


#: Hidden caller-proxy iterator names ("<...>" cannot collide with user
#: identifiers).
def _sentinel_name(k: int) -> str:
    return f"<sentinel:{k}>"


class SummaryTable:
    """Memoized function summaries, shared across one analysis run
    (one ``check_source``/``collect_facts``/lint-file invocation)."""

    def __init__(self) -> None:
        self._cache: dict[tuple, Summary] = {}
        #: Names currently being summarized — any call back into one of
        #: these is (mutual) recursion and bails out with an explicit
        #: note.
        self._computing: set[str] = set()

    def __len__(self) -> int:
        return len(self._cache)

    # -- persistence accessors ----------------------------------------------
    # The analysis service serializes tables to disk keyed by file
    # content hash (:mod:`repro.analysis.schema`); these two methods are
    # its stable seam into the memo so the cache never reaches into
    # ``_cache`` directly.

    def export_items(self):
        """Iterate ``((callee_name, shapes), Summary)`` pairs."""
        return self._cache.items()

    def insert(self, key: tuple, summary: "Summary") -> None:
        """Pre-seed one memoized summary (deserialized from disk).  Only
        sound when ``key`` was computed for the *same* module content —
        the cache guarantees that by keying tables on the file hash."""
        self._cache[key] = summary

    # -- call-site entry ----------------------------------------------------

    def apply(
        self, caller: Any, name: str, callee: ast.FunctionDef,
        args: list[Any], env: Env, line: int,
    ) -> Any:
        """Memoize-or-compute ``callee``'s summary for these argument
        shapes and apply it to the caller's state; returns the call's
        abstract result."""
        from .dataflow import STATS

        if name in self._computing:
            STATS.summary_recursion_bails += 1
            caller._note_uninlined(name, args, line)
            return AbstractValue(f"{name}()")

        shapes, classes = arg_shapes(args)
        key = (name, shapes)
        summary = self._cache.get(key)
        tr = _trace.ACTIVE
        if summary is None:
            STATS.summary_misses += 1
            self._computing.add(name)
            try:
                summary = self._compute(caller, name, callee, shapes)
            finally:
                self._computing.discard(name)
            self._cache[key] = summary
            if tr is not None:
                tr.event("stllint.summary", cat="lint", callee=name,
                         caller=caller.tree.name, line=line, cache="miss")
        else:
            STATS.summary_hits += 1
            if tr is not None:
                tr.event("stllint.summary", cat="lint", callee=name,
                         caller=caller.tree.name, line=line, cache="hit")
        return self._apply_summary(caller, summary, args, classes, env, line)

    # -- computation --------------------------------------------------------

    def _compute(
        self, caller: Any, name: str, callee: ast.FunctionDef,
        shapes: tuple,
    ) -> Summary:
        from .dataflow import FixpointChecker

        # One synthetic container per alias class, seeded from the first
        # shape that mentions the class (all mentions agree on kind and,
        # via joins at the call site, on observable state).
        class_containers: dict[int, AbstractContainer] = {}

        def ensure(k: int, kind: str, props: frozenset,
                   maybe_empty: bool) -> AbstractContainer:
            c = class_containers.get(k)
            if c is None:
                c = AbstractContainer(kind, f"<arg:{k}>")
                c.properties = set(props)
                c.maybe_empty = maybe_empty
                class_containers[k] = c
            return c

        syn_args: list[Any] = []
        for shape in shapes:
            if shape[0] == "C":
                syn_args.append(ensure(shape[1], shape[2], shape[3],
                                       shape[4]))
            elif shape[0] == "I":
                c = ensure(shape[1], shape[2], shape[3], shape[4])
                syn_args.append(AbstractIterator(
                    c, shape[5], shape[6], c.epoch, may_be_end=shape[7],
                ))
            elif shape[0] == "B":
                syn_args.append(shape[1])
            else:
                syn_args.append(AbstractValue())

        env = Env()
        for k, c in class_containers.items():
            env.vars[_sentinel_name(k)] = AbstractIterator(
                c, Position.UNKNOWN, Validity.VALID, c.epoch,
            )
        for param, value in zip(callee.args.args, syn_args):
            env.vars[param.arg] = value

        checker = FixpointChecker(
            callee, caller.sink.source_lines,
            module_functions=caller.module_functions,
            facts=caller.facts, summaries=self,
        )
        checker.analyze(env)

        summary = Summary(name=name, converged=checker.converged)
        summary.diagnostics = [
            (d.severity, d.message, d.line)
            for d in checker.sink.diagnostics
        ]

        exit_env = checker.exit_env
        if exit_env is None or not checker.converged:
            # No normal exit state (safety cap fired): assume the worst —
            # every class mutated, all properties lost, all caller
            # iterators maybe-invalidated.
            for k in class_containers:
                summary.class_effects[k] = ClassEffect(
                    mutated=True, properties_after=frozenset(),
                    maybe_empty_after=True, others="maybe",
                )
            summary.ret = ("opaque",)
            return summary

        cid_to_class = {c.cid: k for k, c in class_containers.items()}

        def exit_container(cid: int) -> Optional[AbstractContainer]:
            for v in exit_env.vars.values():
                if isinstance(v, AbstractContainer) and v.cid == cid:
                    return v
                if isinstance(v, AbstractIterator) and v.container.cid == cid:
                    return v.container
            return None

        for k, c in class_containers.items():
            out_c = exit_container(c.cid)
            sentinel = exit_env.vars.get(_sentinel_name(k))
            if isinstance(sentinel, AbstractIterator):
                others = {
                    Validity.VALID: "keep",
                    Validity.MAYBE_SINGULAR: "maybe",
                    Validity.SINGULAR: "singular",
                }[sentinel.validity]
            else:
                others = "maybe"  # sentinel lost: be conservative
            if out_c is not None:
                summary.class_effects[k] = ClassEffect(
                    mutated=out_c.epoch > 0,
                    properties_after=frozenset(out_c.properties),
                    maybe_empty_after=out_c.maybe_empty,
                    others=others,
                )
            else:
                summary.class_effects[k] = ClassEffect(
                    mutated=True, properties_after=frozenset(),
                    maybe_empty_after=True, others=others,
                )

        rebound = _assigned_names(callee)
        for idx, shape in enumerate(shapes):
            if shape[0] != "I":
                continue
            param = callee.args.args[idx].arg
            v = exit_env.vars.get(param)
            k = shape[1]
            if (
                param not in rebound
                and isinstance(v, AbstractIterator)
                and v.container.cid == class_containers[k].cid
            ):
                summary.iter_arg_effects[idx] = (
                    v.position, v.validity, v.may_be_end,
                )
            else:
                summary.iter_arg_effects[idx] = None

        summary.ret = self._classify_return(
            checker.return_value, cid_to_class)
        return summary

    @staticmethod
    def _classify_return(rv: Any, cid_to_class: dict[int, int]) -> tuple:
        if rv is None:
            return ("none",)
        if isinstance(rv, AbstractIterator):
            k = cid_to_class.get(rv.container.cid)
            if k is not None:
                return ("iter", k, rv.position, rv.validity, rv.may_be_end)
            c = rv.container
            return ("newiter", c.kind, frozenset(c.properties),
                    c.maybe_empty, rv.position, rv.validity, rv.may_be_end)
        if isinstance(rv, AbstractContainer):
            k = cid_to_class.get(rv.cid)
            if k is not None:
                return ("cont", k)
            return ("newcont", rv.kind, frozenset(rv.properties),
                    rv.maybe_empty)
        if isinstance(rv, AbstractBool):
            return ("bool", rv)
        if isinstance(rv, AbstractValue):
            return ("value", rv.note)
        return ("opaque",)

    # -- application --------------------------------------------------------

    def _apply_summary(
        self, caller: Any, summary: Summary, args: list[Any],
        classes: dict[int, int], env: Env, line: int,
    ) -> Any:
        # Alias class -> the caller's actual container object.
        class_cont: dict[int, AbstractContainer] = {}
        for v in args:
            c = (
                v if isinstance(v, AbstractContainer)
                else v.container if isinstance(v, AbstractIterator)
                else None
            )
            if c is not None:
                class_cont.setdefault(classes[c.cid], c)

        # 1. Invalidation of every caller-held iterator per class (what
        #    the sentinel experienced), then container state updates.
        for k, eff in summary.class_effects.items():
            c = class_cont.get(k)
            if c is None:
                continue
            if eff.others == "maybe":
                caller._invalidate_all(c, env, definitely=False)
            elif eff.others == "singular":
                caller._invalidate_all(c, env, definitely=True)
            if eff.mutated:
                c.mutate()
            c.properties.clear()
            c.properties.update(eff.properties_after)
            c.maybe_empty = eff.maybe_empty_after

        # 2. Strong updates on the iterator arguments themselves (their
        #    final state was tracked precisely through the callee).
        for idx, eff in summary.iter_arg_effects.items():
            if eff is None or idx >= len(args):
                continue
            v = args[idx]
            if isinstance(v, AbstractIterator):
                v.position, v.validity, v.may_be_end = eff
                v.epoch = v.container.epoch

        # 3. Replay the callee-internal diagnostics (lines are valid —
        #    same module source; the sink dedups repeats across sites).
        for severity, message, dline in summary.diagnostics:
            caller.sink.emit(severity, message, dline)

        # 4. Materialize the return value in the caller's world.
        ret = summary.ret
        tag = ret[0]
        if tag == "iter":
            c = class_cont.get(ret[1])
            if c is not None:
                return AbstractIterator(
                    c, ret[2], ret[3], c.epoch, may_be_end=ret[4],
                    origin_line=line,
                )
        elif tag == "newiter":
            c = AbstractContainer(ret[1], f"{summary.name}()")
            c.properties = set(ret[2])
            c.maybe_empty = ret[3]
            return AbstractIterator(
                c, ret[4], ret[5], c.epoch, may_be_end=ret[6],
                origin_line=line,
            )
        elif tag == "cont":
            c = class_cont.get(ret[1])
            if c is not None:
                return c
        elif tag == "newcont":
            c = AbstractContainer(ret[1], f"{summary.name}()")
            c.properties = set(ret[2])
            c.maybe_empty = ret[3]
            return c
        elif tag == "bool":
            return ret[1]
        elif tag == "value":
            return AbstractValue(ret[1])
        return AbstractValue(f"{summary.name}()")
