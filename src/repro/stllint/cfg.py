"""AST → CFG lowering for the fixpoint engine.

:func:`lower_function` turns one ``ast.FunctionDef`` body into a
:class:`~repro.stllint.ir.FunctionCFG`.  The interesting work is making
implicit control flow explicit:

- ``break``/``continue``/``return`` become plain edges;
- ``for`` loops get the begin/end/increment iterator-protocol desugaring
  as dedicated pseudo-instructions (``ForInit``/``ForEnter``/
  ``ForAdvance``) around an ordinary loop-head block;
- ``try`` blocks snapshot container epochs on entry and route a
  handler-dispatch edge from both the region entry and the body exit
  (an exception may fire anywhere in the body), with ``raise``
  statements adding a direct edge to the innermost enclosing handler;
- ``finally`` bodies are duplicated onto every exiting continuation
  (fall-through, ``break``, ``continue``, ``return``), matching Python's
  semantics without needing a landing-pad abstraction.

Loop heads are marked so the dataflow engine knows where to accumulate
joined states (the lattice-ascent points that guarantee termination).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

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
    Unreachable,
    WithEnter,
)

#: Hidden environment slot for return values that must survive a
#: ``finally`` block between the ``return`` statement and function exit.
RETURN_SLOT = "<return>"


@dataclass
class _LoopScope:
    """Targets for break/continue plus the cleanup needed to leave the
    loop's own hidden state (the for-protocol iterator) behind."""

    break_target: int
    continue_target: int
    it_name: Optional[str] = None  # drop on break (exit edge drops too)
    try_depth: int = 0  # len(tries) at loop entry: replay only deeper scopes


@dataclass
class _TryScope:
    """An enclosing ``try`` region: where ``raise`` dispatches, which
    snapshot to drop on the way out, and the ``finally`` body (if any)
    that every exiting edge must replay."""

    handler_target: Optional[int]
    snapshot_key: Optional[str]
    final_body: list[ast.stmt] = field(default_factory=list)


class _Lowerer:
    def __init__(self, fn: ast.FunctionDef) -> None:
        self.fn = fn
        self.blocks: list[BasicBlock] = []
        self.loops: list[_LoopScope] = []
        self.tries: list[_TryScope] = []

    # -- block plumbing -----------------------------------------------------

    def new_block(self, label: str = "", line: int = 0) -> BasicBlock:
        b = BasicBlock(bid=len(self.blocks), label=label, line=line)
        self.blocks.append(b)
        return b

    def seal(self, block: BasicBlock, term) -> None:
        if isinstance(block.term, Unreachable):
            block.term = term

    # -- entry --------------------------------------------------------------

    def lower(self) -> FunctionCFG:
        entry = self.new_block("entry", getattr(self.fn, "lineno", 0))
        last = self.lower_block(self.fn.body, entry)
        if last is not None:
            self.seal(last, Return(value=None))
        return FunctionCFG(self.fn.name, self.blocks, entry.bid)

    # -- statements ---------------------------------------------------------

    def lower_block(
        self, stmts: list[ast.stmt], cur: Optional[BasicBlock]
    ) -> Optional[BasicBlock]:
        """Lower a statement list into ``cur``; returns the block control
        falls out of, or None when every path left (return/break/...)."""
        for s in stmts:
            if cur is None:
                # Dead code after an unconditional exit: lower it into a
                # fresh unreachable block so diagnostics positions still
                # exist, but nothing jumps to it.
                cur = self.new_block("dead", getattr(s, "lineno", 0))
            cur = self.lower_stmt(s, cur)
        return cur

    def lower_stmt(
        self, node: ast.stmt, cur: BasicBlock
    ) -> Optional[BasicBlock]:
        if isinstance(node, ast.If):
            return self.lower_if(node, cur)
        if isinstance(node, ast.While):
            return self.lower_while(node, cur)
        if isinstance(node, ast.For):
            return self.lower_for(node, cur)
        if isinstance(node, ast.Try):
            return self.lower_try(node, cur)
        if isinstance(node, ast.With):
            for item in node.items:
                var = (
                    item.optional_vars.id
                    if isinstance(item.optional_vars, ast.Name) else None
                )
                cur.instrs.append(WithEnter(item.context_expr, var))
            return self.lower_block(node.body, cur)
        if isinstance(node, ast.Return):
            return self.lower_return(node, cur)
        if isinstance(node, ast.Raise):
            return self.lower_raise(node, cur)
        if isinstance(node, ast.Break):
            return self.lower_break(cur)
        if isinstance(node, ast.Continue):
            return self.lower_continue(cur)
        # Everything else is straight-line from the CFG's point of view;
        # the interpreter's statement transfer handles it (including the
        # unmodeled-statement note).
        cur.instrs.append(SimpleStmt(node))
        return cur

    def lower_if(self, node: ast.If, cur: BasicBlock) -> Optional[BasicBlock]:
        then_b = self.new_block("then", node.lineno)
        else_b = self.new_block("else", node.lineno)
        self.seal(cur, Branch(node.test, then_b.bid, else_b.bid))
        then_end = self.lower_block(node.body, then_b)
        else_end = self.lower_block(node.orelse, else_b)
        if then_end is None and else_end is None:
            return None
        join = self.new_block("if-join", node.lineno)
        if then_end is not None:
            self.seal(then_end, Goto(join.bid))
        if else_end is not None:
            self.seal(else_end, Goto(join.bid))
        return join

    def lower_while(
        self, node: ast.While, cur: BasicBlock
    ) -> Optional[BasicBlock]:
        head = self.new_block("while-head", node.lineno)
        head.is_loop_head = True
        body = self.new_block("while-body", node.lineno)
        post = self.new_block("while-post", node.lineno)
        self.seal(cur, Goto(head.bid))
        # Loop-head branch: the body edge is always explored even for a
        # constant-false-looking test, and the exit edge is always
        # feasible; refinement still applies on each side.
        self.seal(
            head,
            Branch(node.test, body.bid, post.bid, respect_constant=False),
        )
        self.loops.append(
            _LoopScope(post.bid, head.bid, try_depth=len(self.tries))
        )
        body_end = self.lower_block(node.body, body)
        self.loops.pop()
        if body_end is not None:
            self.seal(body_end, Goto(head.bid))
        if node.orelse:
            # `while ... else` runs the else body on normal exit; break
            # jumps past it.  Model conservatively: else body between head
            # exit and post would change break targets, so keep it simple —
            # run the else body at post entry (break paths join after it;
            # a sound over-approximation for a may-analysis).
            return self.lower_block(node.orelse, post)
        return post

    def lower_for(self, node: ast.For, cur: BasicBlock) -> Optional[BasicBlock]:
        line = node.lineno
        it_name = f"<for@{line}>"
        target_is_name = isinstance(node.target, ast.Name)
        cur.instrs.append(ForInit(node.iter, it_name, target_is_name, line))
        head = self.new_block("for-head", line)
        head.is_loop_head = True
        body = self.new_block("for-body", line)
        advance = self.new_block("for-advance", line)
        post = self.new_block("for-post", line)
        self.seal(cur, Goto(head.bid))
        self.seal(head, ForTest(it_name, body.bid, post.bid, line))
        body.instrs.append(ForEnter(it_name, node.target, line))
        self.loops.append(_LoopScope(
            post.bid, advance.bid, it_name=it_name,
            try_depth=len(self.tries),
        ))
        body_end = self.lower_block(node.body, body)
        self.loops.pop()
        if body_end is not None:
            self.seal(body_end, Goto(advance.bid))
        advance.instrs.append(ForAdvance(it_name, line))
        self.seal(advance, Goto(head.bid))
        post.instrs.append(DropVar(it_name))
        if node.orelse:
            # Normal exhaustion runs orelse; break skips it (break edges
            # target `post` after the orelse in Python — modelled by
            # lowering orelse into post directly, which over-approximates
            # break-paths as also seeing orelse; sound for may-analysis).
            return self.lower_block(node.orelse, post)
        return post

    def lower_try(self, node: ast.Try, cur: BasicBlock) -> Optional[BasicBlock]:
        line = node.lineno
        snap_key = f"<try@{line}>"
        cur.instrs.append(SnapshotEpochs(snap_key))

        have_handlers = bool(node.handlers)
        dispatch: Optional[BasicBlock] = None
        if have_handlers:
            dispatch = self.new_block("except-dispatch", line)
            dispatch.instrs.append(HavocSince(snap_key))

        body = self.new_block("try-body", line)
        if dispatch is not None:
            # An exception may fire before the body does anything: edge
            # from region entry straight to the dispatch block.
            self.seal(cur, Branch(
                ast.Constant(value=True, lineno=line, col_offset=0),
                body.bid, dispatch.bid, respect_constant=False,
            ))
        else:
            self.seal(cur, Goto(body.bid))

        self.tries.append(_TryScope(
            dispatch.bid if dispatch is not None else None,
            snap_key,
            list(node.finalbody),
        ))
        body_end = self.lower_block(node.body, body)
        if body_end is not None and node.orelse:
            body_end = self.lower_block(node.orelse, body_end)
        self.tries.pop()

        exits: list[BasicBlock] = []
        if body_end is not None:
            exits.append(body_end)
        if dispatch is not None and body_end is not None:
            # The body may also raise part-way through: its exit state
            # feeds the dispatch join.
            # Model with an always-both branch from a fresh block so the
            # normal continuation is unaffected.
            split = self.new_block("try-exit-split", line)
            self.seal(body_end, Goto(split.bid))
            normal = self.new_block("try-normal", line)
            self.seal(split, Branch(
                ast.Constant(value=True, lineno=line, col_offset=0),
                normal.bid, dispatch.bid, respect_constant=False,
            ))
            exits = [normal]
        if dispatch is not None:
            h_exits: list[BasicBlock] = []
            handler_blocks: list[BasicBlock] = []
            for handler in node.handlers:
                hb = self.new_block("except", handler.lineno)
                hb.instrs.append(BindHandler(handler.type, handler.name))
                handler_blocks.append(hb)
            # Dispatch fans out to every handler (which one matches is
            # unknown abstractly).
            fan = dispatch
            for i, hb in enumerate(handler_blocks):
                if i == len(handler_blocks) - 1:
                    self.seal(fan, Goto(hb.bid))
                else:
                    nxt = self.new_block("except-fan", line)
                    self.seal(fan, Branch(
                        ast.Constant(value=True, lineno=line, col_offset=0),
                        hb.bid, nxt.bid, respect_constant=False,
                    ))
                    fan = nxt
            # Handlers run outside the protected region but still inside
            # any *outer* try; their own raise/return must replay this
            # try's finally, so keep a scope with no handler but the
            # finally body.
            self.tries.append(_TryScope(None, snap_key, list(node.finalbody)))
            for handler, hb in zip(node.handlers, handler_blocks):
                h_end = self.lower_block(handler.body, hb)
                if h_end is not None:
                    h_exits.append(h_end)
            self.tries.pop()
            exits.extend(h_exits)

        if not exits:
            # Every path returned or re-raised; finally already replayed
            # on each exiting edge.
            return None
        join = self.new_block("try-join", line)
        for e in exits:
            self.seal(e, Goto(join.bid))
        join.instrs.append(DropVar(snap_key))
        if node.finalbody:
            return self.lower_block(node.finalbody, join)
        return join

    # -- exiting edges ------------------------------------------------------

    def _replay_finallys(
        self, cur: BasicBlock, from_depth: int = 0
    ) -> BasicBlock:
        """Append the finally bodies (innermost first) plus the snapshot
        cleanups of every try scope at index >= ``from_depth`` onto
        ``cur`` — the scopes an exiting edge actually leaves."""
        for scope in reversed(self.tries[from_depth:]):
            if scope.snapshot_key:
                cur.instrs.append(DropVar(scope.snapshot_key))
            if scope.final_body:
                end = self.lower_block(scope.final_body, cur)
                if end is None:  # the finally itself left (return inside)
                    return cur  # unreachable continuation; caller seals
                cur = end
        return cur

    def lower_return(
        self, node: ast.Return, cur: BasicBlock
    ) -> Optional[BasicBlock]:
        needs_slot = any(s.final_body for s in self.tries)
        if needs_slot:
            cur.instrs.append(StoreReturn(node.value, RETURN_SLOT))
            cur = self._replay_finallys(cur)
            self.seal(cur, Return(slot=RETURN_SLOT))
        else:
            cur = self._replay_finallys(cur)
            self.seal(cur, Return(value=node.value))
        return None

    def lower_raise(
        self, node: ast.Raise, cur: BasicBlock
    ) -> Optional[BasicBlock]:
        if node.exc is not None:
            cur.instrs.append(EvalExpr(node.exc))
        # Dispatch to the innermost enclosing handler, replaying finallys
        # of regions *inside* it on the way out.
        target_idx: Optional[int] = None
        for i in range(len(self.tries) - 1, -1, -1):
            if self.tries[i].handler_target is not None:
                target_idx = i
                break
        if target_idx is None:
            # No handler in this function: the exception ends the path.
            cur = self._replay_finallys(cur)
            self.seal(cur, Return(value=None))
            return None
        cur = self._replay_finallys(cur, from_depth=target_idx + 1)
        self.seal(cur, Goto(self.tries[target_idx].handler_target))
        return None

    def lower_break(self, cur: BasicBlock) -> Optional[BasicBlock]:
        if not self.loops:
            cur.instrs.append(SimpleStmt(ast.Pass(lineno=cur.line,
                                                  col_offset=0)))
            return cur
        scope = self.loops[-1]
        # Only try regions entered inside the loop are exited by a break.
        cur = self._replay_finallys(cur, from_depth=scope.try_depth)
        if scope.it_name:
            cur.instrs.append(DropVar(scope.it_name))
        self.seal(cur, Goto(scope.break_target))
        return None

    def lower_continue(self, cur: BasicBlock) -> Optional[BasicBlock]:
        if not self.loops:
            cur.instrs.append(SimpleStmt(ast.Pass(lineno=cur.line,
                                                  col_offset=0)))
            return cur
        scope = self.loops[-1]
        cur = self._replay_finallys(cur, from_depth=scope.try_depth)
        self.seal(cur, Goto(scope.continue_target))
        return None


def lower_function(fn: ast.FunctionDef) -> FunctionCFG:
    """Lower one function's AST to its control-flow graph."""
    return _Lowerer(fn).lower()
