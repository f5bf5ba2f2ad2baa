"""Worklist dataflow fixpoint engine over the STLlint abstract domain.

:class:`FixpointChecker` is the STLlint engine.  Its transfer functions
are those of :class:`~repro.stllint.interpreter.Checker` (it reuses
``_eval``/``_exec_stmt``/``_refine``/the container and iterator
operations), and control flow runs over the explicit CFG from
:mod:`repro.stllint.cfg`:

- per-edge out-states; a block's in-state is the join over its incoming
  edges;
- at loop heads the in-state additionally joins with everything seen at
  that head before (the lattice-ascent / widening point) — since every
  CFG cycle passes through a loop head and the domain modulo mutation
  epochs has finite height, iteration reaches a true fixpoint with no
  pass-count bound;
- convergence is detected with *epoch-insensitive* structural state
  signatures: the mutation epoch is the one unbounded counter in the
  domain, and nothing downstream observes its absolute value (only
  "changed since" comparisons, which stabilize), so excluding it turns
  an infinite ascending chain into a finite one;
- calls to same-module functions use memoized input→output summaries
  (:mod:`repro.stllint.summaries`), so call-chain depth loses no
  findings.

A safety cap on total block executions backstops the termination
argument; if it ever fires the engine says so (``LINT-UNSTABLE-LOOP``
note + ``stllint.loop_bound`` trace event) instead of silently
under-approximating.
"""

from __future__ import annotations

import ast
import heapq
import textwrap
from typing import Any, Optional

from ..facts.properties import INVALIDATION
from ..trace import core as _trace
from ..trace import counters as _counters
from .abstract_values import (
    AbstractBool,
    AbstractContainer,
    AbstractIterator,
    AbstractValue,
    EpochSnapshot,
    Position,
    Validity,
    join_values,
)
from .cfg import lower_function
from .diagnostics import DiagnosticSink, source_lines
from .interpreter import Checker, Env, module_function_table
from .ir import (
    BasicBlock,
    BindHandler,
    Branch,
    DropVar,
    EvalExpr,
    ForAdvance,
    ForEnter,
    ForInit,
    ForTest,
    FunctionCFG,
    Goto,
    HavocSince,
    Return,
    SimpleStmt,
    SnapshotEpochs,
    StoreReturn,
    WithEnter,
)
from .specs import MSG_UNSTABLE_LOOP
from .summaries import SummaryTable


class FixpointStats:
    """Process-wide counters for the fixpoint engine (the dispatch-stats
    pattern applied to analysis): folded into traces at export time and
    printed at interpreter exit under ``REPRO_STATS=1``."""

    __slots__ = ("functions", "blocks", "iterations", "widenings",
                 "unstable_loops", "summary_hits", "summary_misses",
                 "summary_recursion_bails")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.functions = 0
        self.blocks = 0
        self.iterations = 0          # total block executions
        self.widenings = 0           # loop-head accumulated-state changes
        self.unstable_loops = 0      # safety-cap hits (should stay 0)
        self.summary_hits = 0
        self.summary_misses = 0
        self.summary_recursion_bails = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


#: The process-global stats object (mirrors ``repro.runtime.metrics``).
STATS = FixpointStats()


def value_signature(v: Any) -> tuple:
    """Structural, epoch-insensitive signature of one abstract value —
    the finite-height projection the convergence test runs in."""
    if isinstance(v, AbstractContainer):
        return ("C", v.cid, v.kind, frozenset(v.properties), v.maybe_empty)
    if isinstance(v, AbstractIterator):
        return ("I", v.container.cid, v.position, v.validity, v.may_be_end)
    if isinstance(v, AbstractBool):
        return ("B", v)
    if isinstance(v, AbstractValue):
        return ("V", v.note)
    if isinstance(v, EpochSnapshot):
        return ("S",)
    return ("O", type(v).__name__)


def env_signature(env: Env) -> frozenset:
    return frozenset(
        (name, value_signature(v)) for name, v in env.vars.items()
    )


class FixpointChecker(Checker):
    """CFG + worklist engine over ``Checker``'s transfer functions.

    Everything diagnostic-producing is inherited; this class adds control
    flow and interprocedural handling.
    """

    def __init__(
        self,
        tree: ast.FunctionDef,
        source_lines: list[str],
        module_functions: Optional[dict[str, ast.FunctionDef]] = None,
        facts: Any = None,
        summaries: Any = None,
    ) -> None:
        super().__init__(tree, source_lines,
                         module_functions=module_functions, facts=facts)
        self.summaries = summaries if summaries is not None else SummaryTable()
        #: Join of the states at every ``Return`` edge (None when no
        #: return block was reachable — the safety cap fired first).
        self.exit_env: Optional[Env] = None
        #: Join of all returned abstract values (None ⇔ every path
        #: returned nothing).
        self.return_value: Any = None
        self.iterations = 0
        self.widenings = 0
        self.converged = True

    # -- entry ---------------------------------------------------------------

    def run(self):
        for arg in self.tree.args.args:
            kind = self._annotation_kind(arg)
            if kind in INVALIDATION:
                self.env.vars[arg.arg] = AbstractContainer(kind, arg.arg)
            else:
                self.env.vars[arg.arg] = AbstractValue(arg.arg)
        self.analyze(self.env)
        return self.sink

    def analyze(self, env: Env) -> None:
        """Run the worklist to fixpoint from ``env`` as the entry state."""
        tr = _trace.ACTIVE
        if tr is None:
            self._analyze(env)
        else:
            with tr.span("stllint.fixpoint", cat="lint",
                         function=self.tree.name) as sp:
                self._analyze(env)
                sp.set("iterations", self.iterations)
                sp.set("widenings", self.widenings)
                sp.set("converged", self.converged)

    # -- the worklist --------------------------------------------------------

    def _analyze(self, env: Env) -> None:
        cfg = lower_function(self.tree)
        prio = {bid: i for i, bid in enumerate(cfg.reverse_postorder())}
        preds = cfg.predecessors()

        edge_out: dict[tuple[int, int], Env] = {}
        head_acc: dict[int, Env] = {}
        head_sig: dict[int, frozenset] = {}
        done_sig: dict[int, frozenset] = {}
        exit_envs: list[Env] = []
        ret_values: list[Any] = []

        heap: list[tuple[int, int]] = [(prio[cfg.entry], cfg.entry)]
        queued = {cfg.entry}
        executions = 0
        # Generous backstop: the epoch-insensitive lattice has finite
        # height, so a correct run converges far below this.
        cap = max(256, 48 * len(cfg.blocks))

        while heap:
            _, bid = heapq.heappop(heap)
            queued.discard(bid)
            block = cfg.block(bid)

            incoming = [
                edge_out[(p, bid)] for p in preds[bid]
                if (p, bid) in edge_out
            ]
            if bid == cfg.entry:
                joined = env
                for st in incoming:
                    joined = joined.join(st)
            else:
                if not incoming:
                    continue  # not (yet) reachable
                joined = incoming[0]
                for st in incoming[1:]:
                    joined = joined.join(st)

            if block.is_loop_head:
                acc = head_acc.get(bid)
                new_acc = joined if acc is None else acc.join(joined)
                sig = env_signature(new_acc)
                if bid in head_sig and head_sig[bid] != sig:
                    self.widenings += 1
                head_sig[bid] = sig
                head_acc[bid] = new_acc
                state = new_acc
            else:
                state = joined
                sig = env_signature(state)

            if done_sig.get(bid) == sig:
                continue  # same abstract in-state as last execution

            executions += 1
            if executions > cap:
                self.converged = False
                STATS.unstable_loops += 1
                self.sink.note(MSG_UNSTABLE_LOOP, block.line or
                               getattr(self.tree, "lineno", 0))
                tr = _trace.ACTIVE
                if tr is not None:
                    tr.event("stllint.loop_bound", cat="lint",
                             function=self.tree.name, executions=executions)
                break
            done_sig[bid] = sig

            # Deep-copy: the stored edge states must survive this block's
            # destructive transfer functions.
            cur = state.copy()
            for instr in block.instrs:
                self._transfer(instr, cur)

            for target, out_state in self._apply_terminator(
                    block, cur, exit_envs, ret_values):
                edge_out[(bid, target)] = out_state
                if target not in queued:
                    queued.add(target)
                    heapq.heappush(heap, (prio[target], target))

        self.iterations = executions
        STATS.functions += 1
        STATS.blocks += len(cfg.blocks)
        STATS.iterations += executions
        STATS.widenings += self.widenings

        if exit_envs:
            joined = exit_envs[0]
            for st in exit_envs[1:]:
                joined = joined.join(st)
            self.exit_env = joined
        real_returns = [v for v in ret_values if v is not None]
        if real_returns:
            rv = real_returns[0]
            for v in real_returns[1:]:
                rv = join_values(rv, v)
            self.return_value = rv

    # -- terminators ---------------------------------------------------------

    def _apply_terminator(
        self,
        block: BasicBlock,
        env: Env,
        exit_envs: list[Env],
        ret_values: list[Any],
    ) -> list[tuple[int, Env]]:
        term = block.term
        if isinstance(term, Goto):
            return [(term.target, env)]
        if isinstance(term, Branch):
            cond = self._eval(term.test, env)
            then_ok = else_ok = True
            if term.respect_constant:
                if cond is AbstractBool.TRUE:
                    else_ok = False
                elif cond is AbstractBool.FALSE:
                    then_ok = False
            out: list[tuple[int, Env]] = []
            if then_ok and else_ok:
                then_env, else_env = env.copy(), env
            elif then_ok:
                then_env, else_env = env, None
            else:
                then_env, else_env = None, env
            if then_env is not None:
                self._refine(term.test, then_env, True)
                out.append((term.then_target, then_env))
            if else_env is not None:
                self._refine(term.test, else_env, False)
                out.append((term.else_target, else_env))
            return out
        if isinstance(term, ForTest):
            # Both edges always feasible: the range may be empty, and the
            # body-entry refinement lives in the body block's ForEnter.
            return [(term.body_target, env.copy()),
                    (term.exit_target, env)]
        if isinstance(term, Return):
            if term.slot is not None:
                value = env.vars.pop(term.slot, None)
                if isinstance(value, AbstractValue) and value.note == "<none>":
                    value = None
            elif term.value is not None:
                value = self._eval(term.value, env)
            else:
                value = None
            ret_values.append(value)
            exit_envs.append(env)
            return []
        return []  # Unreachable

    # -- instruction transfer ------------------------------------------------

    def _transfer(self, instr, env: Env) -> None:
        if isinstance(instr, SimpleStmt):
            self._exec_stmt(instr.node, env)
            return
        if isinstance(instr, WithEnter):
            self._eval(instr.context_expr, env)
            if instr.optional_var:
                env.vars[instr.optional_var] = AbstractValue(
                    instr.optional_var)
            return
        if isinstance(instr, ForInit):
            iterable = self._eval(instr.iter_expr, env)
            if isinstance(iterable, AbstractContainer) and instr.target_is_name:
                env.vars[instr.it_name] = AbstractIterator(
                    iterable, Position.BEGIN, Validity.VALID,
                    iterable.epoch, may_be_end=True,
                    origin_line=instr.line,
                )
            else:
                env.vars.pop(instr.it_name, None)
            return
        if isinstance(instr, ForEnter):
            it = env.vars.get(instr.it_name)
            if isinstance(it, AbstractIterator):
                # Loop entry implies `not it.equals(c.end())`.
                it.may_be_end = False
                if it.position is Position.END:
                    it.position = Position.UNKNOWN
                it.container.maybe_empty = False
                self._iterator_op(it, "deref", [], instr.line)
                if isinstance(instr.target, ast.Name):
                    env.vars[instr.target.id] = AbstractValue(
                        instr.target.id)
            else:
                self._bind_loop_target(instr.target, env)
            return
        if isinstance(instr, ForAdvance):
            it = env.vars.get(instr.it_name)
            if isinstance(it, AbstractIterator):
                self._iterator_op(it, "increment", [], instr.line)
            return
        if isinstance(instr, DropVar):
            env.vars.pop(instr.name, None)
            return
        if isinstance(instr, SnapshotEpochs):
            env.vars[instr.key] = EpochSnapshot.of(env.vars.values())
            return
        if isinstance(instr, HavocSince):
            snap = env.vars.get(instr.key)
            if isinstance(snap, EpochSnapshot):
                pre = {
                    v.cid: snap.epoch_of(v.cid, v.epoch)
                    for v in env.vars.values()
                    if isinstance(v, AbstractContainer)
                }
                self._havoc_mutated(env, pre)
            return
        if isinstance(instr, BindHandler):
            if instr.type_expr is not None:
                self._eval(instr.type_expr, env)
            if instr.name:
                env.vars[instr.name] = AbstractValue(instr.name)
            return
        if isinstance(instr, EvalExpr):
            self._eval(instr.node, env)
            return
        if isinstance(instr, StoreReturn):
            if instr.value is not None:
                env.vars[instr.slot] = self._eval(instr.value, env)
            else:
                env.vars[instr.slot] = AbstractValue("<none>")
            return
        raise TypeError(f"unknown IR instruction {type(instr).__name__}")

    # -- interprocedural: summaries ---------------------------------------------

    def _call_function(
        self, name: str, callee: ast.FunctionDef, args: list[Any],
        env: Env, line: int,
    ) -> Any:
        """Compute (or reuse) the callee's input→output effect summary
        for these abstract argument shapes and apply it to the caller's
        state."""
        a = callee.args
        if (
            a.vararg is not None or a.kwarg is not None or a.kwonlyargs
            or a.posonlyargs or len(args) != len(a.args)
        ):
            self._note_uninlined(name, args, line)
            return AbstractValue(f"{name}()")
        return self.summaries.apply(self, name, callee, args, env, line)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def check_source(
    source: str, *, interprocedural: bool = True
) -> DiagnosticSink:
    """Check every function in ``source``; returns a combined sink.

    With ``interprocedural=True`` (the default), calls between functions
    defined in ``source`` are analyzed across function boundaries via
    memoized summaries shared by the whole module.
    """
    source = textwrap.dedent(source)
    tree = ast.parse(source)
    lines = source_lines(source)
    functions = module_function_table(tree) if interprocedural else {}
    combined = DiagnosticSink(lines)
    summaries = SummaryTable()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            sink = FixpointChecker(
                node, lines, module_functions=functions,
                summaries=summaries,
            ).run()
            for d in sink.diagnostics:
                combined.emit(d.severity, d.message, d.line)
    return combined


# ---------------------------------------------------------------------------
# Stats reporting: the ``stllint`` group of repro.trace.counters
# ---------------------------------------------------------------------------


def stats() -> dict[str, int]:
    """Snapshot of the process-wide fixpoint-engine counters."""
    return STATS.snapshot()


def reset_stats() -> None:
    STATS.reset()


def report(snapshot: Optional[dict[str, int]] = None) -> str:
    s = snapshot if snapshot is not None else stats()
    total = s["summary_hits"] + s["summary_misses"]
    rate = (100.0 * s["summary_hits"] / total) if total else 0.0
    return "\n".join([
        "== repro.stllint fixpoint stats ==",
        (
            f"functions: {s['functions']}, blocks: {s['blocks']}, "
            f"block executions: {s['iterations']}, "
            f"widenings: {s['widenings']}, "
            f"unstable loops: {s['unstable_loops']}"
        ),
        (
            f"summaries: {s['summary_hits']} hits / "
            f"{s['summary_misses']} misses ({rate:.0f}% hit rate), "
            f"{s['summary_recursion_bails']} recursion bail-outs"
        ),
    ])


def _tracks(s: dict[str, int]) -> list:
    if not any(s.values()):
        return []  # fixpoint engine never ran; keep the trace quiet
    return [
        ("stllint.fixpoint", "stllint", {
            "functions": s["functions"],
            "blocks": s["blocks"],
            "iterations": s["iterations"],
            "widenings": s["widenings"],
            "unstable_loops": s["unstable_loops"],
        }),
        ("stllint.summaries", "stllint", {
            "hits": s["summary_hits"],
            "misses": s["summary_misses"],
            "recursion_bails": s["summary_recursion_bails"],
        }),
    ]


_counters.register("stllint", stats, report, _tracks)
