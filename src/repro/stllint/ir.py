"""A small statement-level IR with an explicit control-flow graph.

:mod:`repro.stllint.cfg` lowers one function's AST into a
:class:`FunctionCFG` of :class:`BasicBlock`\\ s whose *instructions* are
either original straight-line AST statements (executed by the transfer
functions of :class:`repro.stllint.interpreter.Checker`) or small
pseudo-ops for the constructs control flow implies — ``for``-loop
iterator-protocol desugaring, ``try`` epoch snapshots and exception-edge
havoc.  Each block ends in exactly one :class:`Terminator`, so every
``break``, ``continue``, ``return``, ``raise``, and loop back-edge is an
explicit CFG edge the worklist engine (:mod:`repro.stllint.dataflow`)
can iterate to a true fixpoint.

Nothing here evaluates anything: the IR is pure structure.  All abstract
semantics stay in the interpreter's transfer functions and in
:mod:`repro.stllint.specs`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional, Union

# ---------------------------------------------------------------------------
# Instructions (straight-line, non-branching)
# ---------------------------------------------------------------------------


class Instr:
    """Base class for straight-line IR instructions."""

    __slots__ = ()


@dataclass(frozen=True)
class SimpleStmt(Instr):
    """An AST statement with no control flow of its own (assignment,
    expression statement, assert, delete, pass, unmodeled statements) —
    executed verbatim by the interpreter's statement transfer."""

    node: ast.stmt


@dataclass(frozen=True)
class WithEnter(Instr):
    """Evaluate a ``with`` item's context expression and bind its
    ``as``-name opaquely; the body is lowered inline after it."""

    context_expr: ast.expr
    optional_var: Optional[str]


@dataclass(frozen=True)
class ForInit(Instr):
    """Evaluate a ``for`` loop's iterable; when it is a tracked container
    (and the target is a plain name), bind the hidden protocol iterator
    ``it_name`` at BEGIN."""

    iter_expr: ast.expr
    it_name: str
    target_is_name: bool
    line: int


@dataclass(frozen=True)
class ForEnter(Instr):
    """Loop-body entry for a ``for`` loop: in container mode, apply the
    implicit ``not it.equals(c.end())`` refinement, check/deref the
    hidden iterator, and bind the loop target to the element; otherwise
    bind the target(s) opaquely."""

    it_name: str
    target: ast.expr
    line: int


@dataclass(frozen=True)
class ForAdvance(Instr):
    """The implicit ``it.increment()`` at the end of a container-mode
    ``for`` body (skipped by ``break``/``return`` edges, reached by
    ``continue`` — exactly Python's semantics)."""

    it_name: str
    line: int


@dataclass(frozen=True)
class DropVar(Instr):
    """Remove a hidden binding (protocol iterator, epoch snapshot) from
    the state so it cannot leak past its scope."""

    name: str


@dataclass(frozen=True)
class SnapshotEpochs(Instr):
    """Record every live container's mutation epoch under a hidden name
    at ``try`` entry (consumed by :class:`HavocSince` on the handler
    edge)."""

    key: str


@dataclass(frozen=True)
class HavocSince(Instr):
    """Exception-edge havoc: every iterator over a container mutated
    since the :class:`SnapshotEpochs` keyed ``key`` may have been
    invalidated part-way through the protected region; container
    properties are likewise unreliable."""

    key: str


@dataclass(frozen=True)
class BindHandler(Instr):
    """Evaluate an ``except`` clause's type expression and bind its
    ``as``-name opaquely on handler entry."""

    type_expr: Optional[ast.expr]
    name: Optional[str]


@dataclass(frozen=True)
class EvalExpr(Instr):
    """Evaluate an expression for its effects/diagnostics only (e.g. the
    operand of a ``raise``)."""

    node: ast.expr


@dataclass(frozen=True)
class StoreReturn(Instr):
    """Evaluate a ``return`` statement's value into the hidden slot
    ``slot`` *before* any ``finally`` blocks run, so the eventual
    :class:`Return` terminator can hand back the already-computed
    value."""

    value: Optional[ast.expr]
    slot: str


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Goto:
    """Unconditional edge."""

    target: int


@dataclass(frozen=True)
class Branch:
    """Two-way conditional edge with path-sensitive refinement on each
    side.  ``respect_constant`` distinguishes ``if`` (a definitely-true
    test kills the else edge) from loop heads, whose body is always
    explored."""

    test: ast.expr
    then_target: int
    else_target: int
    respect_constant: bool = True


@dataclass(frozen=True)
class ForTest:
    """A ``for`` loop head: both the body edge and the exit edge are
    always feasible (the range may be empty)."""

    it_name: str
    body_target: int
    exit_target: int
    line: int


@dataclass(frozen=True)
class Return:
    """Function exit.  Either evaluates ``value`` directly or, when the
    return crossed ``finally`` blocks, reads the value a
    :class:`StoreReturn` stashed in ``slot``."""

    value: Optional[ast.expr] = None
    slot: Optional[str] = None


@dataclass(frozen=True)
class Unreachable:
    """Terminator of blocks with no successors that never fall through
    (placed on dead blocks the lowering keeps for simplicity)."""


Terminator = Union[Goto, Branch, ForTest, Return, Unreachable]


# ---------------------------------------------------------------------------
# Blocks and the function CFG
# ---------------------------------------------------------------------------


@dataclass
class BasicBlock:
    """One straight-line run of instructions plus a terminator."""

    bid: int
    instrs: list[Instr] = field(default_factory=list)
    term: Terminator = field(default_factory=Unreachable)
    is_loop_head: bool = False
    line: int = 0
    label: str = ""

    def successors(self) -> list[int]:
        t = self.term
        if isinstance(t, Goto):
            return [t.target]
        if isinstance(t, Branch):
            # Deduplicate self-edges like `if c: pass` collapsing.
            out = [t.then_target]
            if t.else_target != t.then_target:
                out.append(t.else_target)
            return out
        if isinstance(t, ForTest):
            out = [t.body_target]
            if t.exit_target != t.body_target:
                out.append(t.exit_target)
            return out
        return []


@dataclass
class FunctionCFG:
    """The lowered function: blocks, the entry id, and the id of the
    virtual exit block every ``Return`` conceptually feeds."""

    name: str
    blocks: list[BasicBlock]
    entry: int

    def block(self, bid: int) -> BasicBlock:
        return self.blocks[bid]

    def predecessors(self) -> dict[int, list[int]]:
        preds: dict[int, list[int]] = {b.bid: [] for b in self.blocks}
        for b in self.blocks:
            for s in b.successors():
                preds[s].append(b.bid)
        return preds

    def loop_heads(self) -> list[int]:
        return [b.bid for b in self.blocks if b.is_loop_head]

    def reverse_postorder(self) -> list[int]:
        """Deterministic worklist priority: process blocks roughly in
        control-flow order so states reach loop heads before widening."""
        seen: set[int] = set()
        order: list[int] = []

        def visit(bid: int) -> None:
            stack = [(bid, iter(self.blocks[bid].successors()))]
            seen.add(bid)
            while stack:
                cur, succs = stack[-1]
                advanced = False
                for s in succs:
                    if s not in seen:
                        seen.add(s)
                        stack.append((s, iter(self.blocks[s].successors())))
                        advanced = True
                        break
                if not advanced:
                    order.append(cur)
                    stack.pop()

        visit(self.entry)
        # Unreachable blocks (dead code after return) keep a stable
        # position at the end; the engine never executes them anyway.
        for b in self.blocks:
            if b.bid not in seen:
                order.append(b.bid)
        order.reverse()
        return order

    def render(self) -> str:
        """Debug dump of the CFG shape."""
        lines = [f"cfg {self.name}: entry B{self.entry}"]
        for b in self.blocks:
            head = " (loop head)" if b.is_loop_head else ""
            lines.append(f"  B{b.bid}{head} [{b.label}]")
            for i in b.instrs:
                lines.append(f"    {type(i).__name__}")
            lines.append(
                f"    -> {type(b.term).__name__} {b.successors()}"
            )
        return "\n".join(lines)
