"""The STLlint transfer functions.

Programs to check are written in a small Python subset (parsed with
:mod:`ast`, so diagnostics carry real line numbers): assignments, ``if``,
``while``, ``return``, method calls on containers/iterators, and calls to
the specified generic algorithms.  Container parameters are declared with
string annotations naming the container kind::

    def extract_fails(students: "vector", fails: "vector"):
        it = students.begin()
        while not it.equals(students.end()):
            if fgrade(it.deref()):
                fails.push_back(it.deref())
                students.erase(it)          # invalidates it (vector rule)
            else:
                it.increment()

:class:`Checker` is the abstract effect of one straight-line statement or
expression: assignments, container and iterator operations, algorithm
calls, and condition refinement.  Control flow and same-module calls are
the engine's, :class:`~repro.stllint.dataflow.FixpointChecker`, which
runs these transfer functions over the function's CFG to a fixpoint.

Analysis is a may-analysis: branches on unknown conditions run both ways
and join, and loops run until the joined state stops changing, so effects
of iteration *k* are visible in iteration *k+1*.  That is how the Fig. 4
bug surfaces: the erase branch leaves ``it`` singular, the join taints
it, and the next iteration's ``it.deref()`` fires the paper's warning.
"""

from __future__ import annotations

import ast
from typing import Any, Optional

from ..facts.properties import INVALIDATION, OPERATION_KINDS
from ..facts.properties import invalidate as _invalidate_props
from ..facts.records import FactRecorder
from ..trace import core as _trace
from .abstract_values import (
    AbstractBool,
    AbstractContainer,
    AbstractIterator,
    AbstractValue,
    Position,
    Validity,
    join_values,
)
from .diagnostics import DiagnosticSink
from .specs import (
    ABSTRACT_INVALIDATION,
    ALGORITHM_SPECS,
    MSG_CROSS_CONTAINER,
    MSG_MAYBE_END_DEREF,
    MSG_PAST_END_ADVANCE,
    MSG_PAST_END_DEREF,
    MSG_SINGULAR_ADVANCE,
    MSG_SINGULAR_DEREF,
    MSG_UNINLINED_CALL,
    MSG_UNMODELED_STMT,
    AlgorithmContext,
)


class Env:
    """Variable environment with container-identity-preserving copying."""

    def __init__(self) -> None:
        self.vars: dict[str, Any] = {}

    def copy(self) -> "Env":
        out = Env()
        cloned: dict[int, AbstractContainer] = {}

        def clone_container(c: AbstractContainer) -> AbstractContainer:
            if c.cid not in cloned:
                cloned[c.cid] = c.copy()
            return cloned[c.cid]

        for name, v in self.vars.items():
            if isinstance(v, AbstractContainer):
                out.vars[name] = clone_container(v)
            elif isinstance(v, AbstractIterator):
                it = v.copy()
                it.container = clone_container(v.container)
                out.vars[name] = it
            elif isinstance(v, AbstractValue):
                out.vars[name] = v.copy()
            else:
                out.vars[name] = v
        return out

    def join(self, other: "Env") -> "Env":
        out = Env()
        for name in set(self.vars) | set(other.vars):
            a = self.vars.get(name)
            b = other.vars.get(name)
            if a is None or b is None:
                out.vars[name] = a if a is not None else b
            else:
                out.vars[name] = join_values(a, b)
        # Re-point iterators at the joined container objects so state stays
        # consistent.
        containers: dict[int, AbstractContainer] = {
            v.cid: v for v in out.vars.values()
            if isinstance(v, AbstractContainer)
        }
        for v in out.vars.values():
            if isinstance(v, AbstractIterator) and v.container.cid in containers:
                v.container = containers[v.container.cid]
        return out


class Checker:
    """The transfer functions for one function's body: what each
    straight-line statement and expression does to the abstract state,
    and which diagnostics it emits.

    ``module_functions`` maps names of functions defined in the same
    module to their ASTs; calls to them go to :meth:`_call_function`,
    which the engine supplies (the whole-program mode of Section 3.1,
    where invalidation effects propagate across helper functions).
    """

    def __init__(
        self,
        tree: ast.FunctionDef,
        source_lines: list[str],
        module_functions: Optional[dict[str, ast.FunctionDef]] = None,
        facts: Optional[FactRecorder] = None,
    ) -> None:
        self.tree = tree
        self.sink = DiagnosticSink(source_lines, tree.name)
        self.env = Env()
        self.module_functions = module_functions or {}
        self.facts = facts

    @staticmethod
    def _annotation_kind(arg: ast.arg) -> Optional[str]:
        ann = arg.annotation
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            return ann.value.lower()
        if isinstance(ann, ast.Name):
            return ann.id.lower()
        return None

    # -- statements --------------------------------------------------------------

    def _exec_stmt(self, node: ast.stmt, env: Env) -> None:
        if isinstance(node, ast.Assign):
            self._exec_assign(node, env)
            return
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            kind = None
            if isinstance(node.annotation, ast.Constant):
                kind = str(node.annotation.value).lower()
            if node.value is not None:
                env.vars[node.target.id] = self._eval(node.value, env)
            elif kind in INVALIDATION:
                env.vars[node.target.id] = AbstractContainer(kind, node.target.id)
            return
        if isinstance(node, ast.Expr):
            self._eval(node.value, env)
            return
        if isinstance(node, ast.Assert):
            self._eval(node.test, env)
            if node.msg is not None:
                self._eval(node.msg, env)
            return
        if isinstance(node, ast.Delete):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    env.vars.pop(t.id, None)
            return
        if isinstance(node, ast.Pass):
            return
        # Unmodeled statements are evaluated for their subexpressions only.
        # If one mentions tracked container state, say so out loud rather
        # than silently losing soundness.
        self._note_unmodeled(node, env)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child, env)

    def _exec_assign(self, node: ast.Assign, env: Env) -> None:
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], (ast.Tuple, ast.List))
        ):
            target = node.targets[0]
            if (
                isinstance(node.value, (ast.Tuple, ast.List))
                and len(node.value.elts) == len(target.elts)
            ):
                # Elementwise binding (a, b = x, y) — evaluate the whole
                # right-hand side first, so swaps behave.
                values = [self._eval(v, env) for v in node.value.elts]
            else:
                self._eval(node.value, env)
                values = [AbstractValue() for _ in target.elts]
            for elt, value in zip(target.elts, values):
                if isinstance(elt, ast.Name):
                    env.vars[elt.id] = value
            return
        value = self._eval(node.value, env)
        for t in node.targets:
            if isinstance(t, ast.Name):
                env.vars[t.id] = value

    def _note_unmodeled(self, node: ast.stmt, env: Env) -> None:
        names = {
            n.id for n in ast.walk(node) if isinstance(n, ast.Name)
        }
        if any(
            isinstance(env.vars.get(n), (AbstractContainer, AbstractIterator))
            for n in names
        ):
            self.sink.note(
                f"{type(node).__name__} {MSG_UNMODELED_STMT}",
                getattr(node, "lineno", 0),
            )

    def _bind_loop_target(self, target: ast.expr, env: Env) -> None:
        if isinstance(target, ast.Name):
            env.vars[target.id] = AbstractValue(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_loop_target(elt, env)

    def _havoc_mutated(self, env: Env, pre_epochs: dict[int, int]) -> None:
        mutated = {
            v.cid for v in env.vars.values()
            if isinstance(v, AbstractContainer)
            and v.epoch != pre_epochs.get(v.cid, v.epoch)
        }
        tr = _trace.ACTIVE
        if tr is not None and mutated:
            tr.event(
                "stllint.havoc", cat="lint",
                function=self.tree.name,
                containers=len(mutated),
            )
        for v in env.vars.values():
            if isinstance(v, AbstractIterator) and v.container.cid in mutated:
                v.invalidate(definitely=False)
            elif isinstance(v, AbstractContainer) and v.cid in mutated:
                v.properties.clear()
                v.maybe_empty = True

    # -- condition refinement ------------------------------------------------------

    def _refine(self, test: ast.expr, env: Env, taken: bool) -> None:
        """Path-sensitive refinement for the `it.equals(end)` idiom."""
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self._refine(test.operand, env, not taken)
            return
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            # it == other / it != other sugar
            is_eq = isinstance(test.ops[0], ast.Eq)
            is_ne = isinstance(test.ops[0], ast.NotEq)
            if is_eq or is_ne:
                self._refine_equals(
                    test.left, test.comparators[0], env,
                    taken if is_eq else not taken,
                )
            return
        if (
            isinstance(test, ast.Call)
            and isinstance(test.func, ast.Attribute)
            and test.func.attr == "equals"
            and len(test.args) == 1
        ):
            self._refine_equals(test.func.value, test.args[0], env, taken)

    def _refine_equals(
        self, left: ast.expr, right: ast.expr, env: Env, equal: bool
    ) -> None:
        lv = self._peek(left, env)
        rv = self._peek(right, env)
        if not isinstance(lv, AbstractIterator):
            lv, rv = rv, lv
            left, right = right, left
        if not isinstance(lv, AbstractIterator):
            return
        right_is_end = (
            isinstance(rv, AbstractIterator) and rv.position is Position.END
        ) or self._is_end_call(right)
        if not right_is_end:
            return
        if equal:
            lv.position = Position.END
            lv.may_be_end = False
        else:
            if lv.position is Position.END:
                lv.position = Position.UNKNOWN
            lv.may_be_end = False
            lv.container.maybe_empty = False

    @staticmethod
    def _is_end_call(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "end"
        )

    def _peek(self, node: ast.expr, env: Env) -> Any:
        """Evaluate without side effects where possible (names only)."""
        if isinstance(node, ast.Name):
            return env.vars.get(node.id)
        return None

    # -- expressions ------------------------------------------------------------------

    def _eval(self, node: ast.expr, env: Env) -> Any:
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Name):
            return env.vars.get(node.id, AbstractValue(node.id))
        if isinstance(node, ast.Constant):
            return AbstractValue(repr(node.value))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            inner = self._eval(node.operand, env)
            if isinstance(inner, AbstractBool):
                return inner.negate()
            return AbstractBool.UNKNOWN
        if isinstance(node, ast.BoolOp):
            for v in node.values:
                self._eval(v, env)
            return AbstractBool.UNKNOWN
        if isinstance(node, ast.Compare):
            self._eval(node.left, env)
            for c in node.comparators:
                self._eval(c, env)
            return self._compare(node, env)
        if isinstance(node, ast.BinOp):
            self._eval(node.left, env)
            self._eval(node.right, env)
            return AbstractValue()
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Attribute):
            self._eval(node.value, env)
            return AbstractValue(node.attr)
        # Anything else: evaluate children, return opaque.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child, env)
        return AbstractValue()

    def _compare(self, node: ast.Compare, env: Env) -> AbstractBool:
        lv = self._peek(node.left, env)
        rv = self._peek(node.comparators[0], env) if node.comparators else None
        if isinstance(lv, AbstractIterator) and isinstance(rv, AbstractIterator):
            return self._iterator_equals(lv, rv, node.lineno)
        return AbstractBool.UNKNOWN

    def _eval_call(self, node: ast.Call, env: Env) -> Any:
        line = node.lineno
        args = [self._eval(a, env) for a in node.args]
        for kw in node.keywords:
            self._eval(kw.value, env)
        if isinstance(node.func, ast.Attribute):
            recv = self._eval(node.func.value, env)
            return self._method_call(recv, node.func.attr, args, line, env)
        if isinstance(node.func, ast.Name):
            name = node.func.id
            handler = ALGORITHM_SPECS.get(name)
            if handler is not None:
                ctx = AlgorithmContext(self, args, line, name=name)
                if self.facts is None:
                    return handler(ctx)
                c = self._primary_container(args)
                before = frozenset(c.properties) if c is not None else None
                result = handler(ctx)
                if c is not None:
                    self.facts.record_call(
                        name, line, self.tree.name,
                        c.name or "?", c.kind, before,
                        frozenset(c.properties),
                    )
                return result
            callee = self.module_functions.get(name)
            if callee is not None and not node.keywords:
                return self._call_function(name, callee, args, env, line)
            # Unknown free function: opaque result; arguments were already
            # evaluated (so a singular deref inside them is reported).
            return AbstractValue(f"{name}()")
        self._eval(node.func, env)
        return AbstractValue()

    def _call_function(
        self, name: str, callee: ast.FunctionDef, args: list[Any],
        env: Env, line: int,
    ) -> Any:
        """The abstract effect of a call to a same-module function; the
        engine supplies it."""
        raise NotImplementedError

    def _note_uninlined(self, name: str, args: list[Any], line: int) -> None:
        if any(
            isinstance(v, (AbstractContainer, AbstractIterator)) for v in args
        ):
            tr = _trace.ACTIVE
            if tr is not None:
                tr.event(
                    "stllint.uninlined", cat="lint", callee=name, line=line,
                    caller=self.tree.name,
                )
            self.sink.note(f"{name}(): {MSG_UNINLINED_CALL}", line)

    # -- container/iterator operations --------------------------------------------------

    @staticmethod
    def _primary_container(args: list[Any]) -> Optional[AbstractContainer]:
        """The container an algorithm call is 'about': the first container
        argument, else the first iterator argument's container."""
        for a in args:
            if isinstance(a, AbstractContainer):
                return a
        for a in args:
            if isinstance(a, AbstractIterator):
                return a.container
        return None

    def _mutate_properties(
        self, c: AbstractContainer, kind: str, line: int
    ) -> None:
        """Route a container mutation through the facts layer's
        data-driven invalidation tables instead of per-operation property
        discards, recording what was destroyed when facts are on."""
        survived = _invalidate_props(c.properties, kind)
        if self.facts is not None:
            for p in sorted(set(c.properties) - set(survived)):
                self.facts.record(
                    c.name or "?", p, line, "destroys", source=kind,
                    function=self.tree.name,
                )
        c.properties.clear()
        c.properties.update(survived)

    def _method_call(self, recv: Any, name: str, args: list[Any],
                     line: int, env: Env) -> Any:
        if isinstance(recv, AbstractContainer):
            return self._container_op(recv, name, args, line, env)
        if isinstance(recv, AbstractIterator):
            return self._iterator_op(recv, name, args, line)
        return AbstractValue(f".{name}()")

    def _container_op(
        self, c: AbstractContainer, name: str, args: list[Any], line: int,
        env: Env,
    ) -> Any:
        rules = ABSTRACT_INVALIDATION[c.kind]
        if name == "begin":
            return AbstractIterator(c, Position.BEGIN, Validity.VALID,
                                    c.epoch, origin_line=line)
        if name == "end":
            return AbstractIterator(c, Position.END, Validity.VALID,
                                    c.epoch, origin_line=line)
        if name in ("size", "empty"):
            return AbstractValue(f"{c.name}.{name}()")
        if name == "erase":
            target = args[0] if args else None
            if isinstance(target, AbstractIterator):
                self.check_iterator_use(
                    target, line, "attempt to erase through a singular iterator"
                )
                if target.position is Position.END:
                    self.sink.warning(
                        "attempt to erase at the past-the-end position", line
                    )
            self._apply_invalidation(c, rules["erase"], target, env)
            c.mutate()
            self._mutate_properties(c, "erase", line)
            return AbstractIterator(c, Position.UNKNOWN, Validity.VALID,
                                    c.epoch, may_be_end=True, origin_line=line)
        if name == "insert":
            target = args[0] if args else None
            if isinstance(target, AbstractIterator):
                self.check_iterator_use(
                    target, line, "attempt to insert through a singular iterator"
                )
            self._apply_invalidation(c, rules["insert"], target, env)
            c.mutate()
            self._mutate_properties(c, "insert", line)
            c.maybe_empty = False
            return AbstractIterator(c, Position.UNKNOWN, Validity.VALID,
                                    c.epoch, origin_line=line)
        if name in ("push_back", "push_front", "pop_back", "pop_front"):
            rule = rules.get(name)
            if rule is None:
                self.sink.warning(
                    f"container kind '{c.kind}' does not support {name}", line
                )
            else:
                self._apply_invalidation(c, rule, None, env)
            c.mutate()
            # The property tables know appending to a heap leaves
            # "heap except the last element" — push_heap's precondition.
            kind = OPERATION_KINDS[name]
            self._mutate_properties(c, kind, line)
            if kind == "append":
                c.maybe_empty = False
            return AbstractValue()
        if name == "remove":
            # Erase-by-value (the idiomatic Python spelling): same
            # invalidation behaviour as erase at an unknown position.
            self._apply_invalidation(c, rules["erase"], None, env)
            c.mutate()
            self._mutate_properties(c, "remove", line)
            return AbstractValue()
        if name == "clear":
            self._apply_invalidation(c, rules["clear"], None, env)
            c.mutate()
            self._mutate_properties(c, "clear", line)
            c.maybe_empty = True
            return AbstractValue()
        return AbstractValue(f"{c.name}.{name}()")

    def _apply_invalidation(self, c: AbstractContainer,
                            rule: tuple[str, str], target, env: Env) -> None:
        on_target, on_others = rule
        if on_others == "maybe":
            self._invalidate_all(c, env, definitely=False, skip=target)
        elif on_others == "singular":
            self._invalidate_all(c, env, definitely=True, skip=target)
        if isinstance(target, AbstractIterator) and on_target == "singular":
            target.invalidate(definitely=True)

    def _invalidate_all(
        self, c: AbstractContainer, env: Env, definitely: bool,
        skip: Any = None,
    ) -> None:
        # Invalidate through the *active* environment — during branch
        # execution that is a copy of the function-level env.
        for v in env.vars.values():
            if isinstance(v, AbstractIterator) and v.container.cid == c.cid \
                    and v is not skip:
                v.invalidate(definitely)

    def _iterator_op(
        self, it: AbstractIterator, name: str, args: list[Any], line: int
    ) -> Any:
        if name == "deref":
            self._check_deref(it, line)
            return AbstractValue("*it")
        if name == "set":
            self._check_deref(it, line)
            return AbstractValue()
        if name == "increment":
            self.check_iterator_use(it, line, MSG_SINGULAR_ADVANCE)
            if it.position is Position.END:
                self.sink.warning(MSG_PAST_END_ADVANCE, line)
            it.position = (
                Position.INTERIOR if it.position is Position.BEGIN
                else it.position if it.position is not Position.END
                else Position.UNKNOWN
            )
            it.may_be_end = True
            return AbstractValue()
        if name == "decrement":
            self.check_iterator_use(it, line, MSG_SINGULAR_ADVANCE)
            it.position = Position.UNKNOWN
            it.may_be_end = False
            return AbstractValue()
        if name == "advance":
            self.check_iterator_use(it, line, MSG_SINGULAR_ADVANCE)
            it.position = Position.UNKNOWN
            it.may_be_end = True
            return AbstractValue()
        if name == "clone":
            self.check_iterator_use(
                it, line, "attempt to copy a singular iterator"
            )
            return it.copy()
        if name == "equals":
            other = args[0] if args else None
            if isinstance(other, AbstractIterator):
                return self._iterator_equals(it, other, line)
            return AbstractBool.UNKNOWN
        if name == "distance":
            self.check_iterator_use(it, line, MSG_SINGULAR_ADVANCE)
            return AbstractValue("distance")
        return AbstractValue(f"it.{name}()")

    def _iterator_equals(
        self, a: AbstractIterator, b: AbstractIterator, line: int
    ) -> AbstractBool:
        if a.container.cid != b.container.cid:
            self.sink.warning(MSG_CROSS_CONTAINER, line)
            return AbstractBool.UNKNOWN
        if a.position is Position.END and b.position is Position.END:
            return AbstractBool.TRUE
        return AbstractBool.UNKNOWN

    # -- shared checks ---------------------------------------------------------------------

    def _check_deref(self, it: AbstractIterator, line: int) -> None:
        if it.validity is not Validity.VALID:
            # Fig. 4's message, at Warning severity exactly as the paper
            # reports it (a may-analysis cannot always prove the path is
            # taken, and STLlint reports the first tainted *use*).
            self.sink.warning(MSG_SINGULAR_DEREF, line)
            return
        if it.position is Position.END:
            self.sink.warning(MSG_PAST_END_DEREF, line)
            return
        if it.may_be_end:
            self.sink.warning(MSG_MAYBE_END_DEREF, line)

    def check_iterator_use(
        self, it: AbstractIterator, line: int, message: str
    ) -> None:
        if it.validity is not Validity.VALID:
            self.sink.warning(message, line)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def module_function_table(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Top-level functions of a module, for interprocedural analysis."""
    return {
        node.name: node for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
