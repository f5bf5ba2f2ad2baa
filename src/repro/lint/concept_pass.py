"""The concept-conformance lint pass.

Finds call sites of ``@where``-decorated generic algorithms (declared in
the linted module with :func:`repro.concepts.where` / ``where_multi``)
and statically verifies that the argument types model the required
concepts via the :class:`~repro.concepts.modeling.ModelRegistry` — the
"modular checking of call sites against declared constraints" story of
Section 2, run *without executing the checked code*.

The pass is deliberately conservative:

- Concept objects named in a decorator are resolved through the module's
  ``import`` statements (only *library* modules are imported — the linted
  module itself is never executed, so a call site in dead code is still
  checked, which is the whole point of static checking).
- Argument types are inferred only where inference is certain: literals,
  constructor calls of resolvable classes, and simple local assignments
  of those.  A call whose argument types cannot be inferred is skipped,
  never guessed.
"""

from __future__ import annotations

import ast
import builtins
import importlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.stllint.diagnostics import Severity

#: Types inferable from literal syntax.
_LITERAL_TYPES = {
    ast.List: list,
    ast.ListComp: list,
    ast.Dict: dict,
    ast.DictComp: dict,
    ast.Set: set,
    ast.SetComp: set,
    ast.Tuple: tuple,
    ast.JoinedStr: str,
    ast.GeneratorExp: type(x for x in ()),
}


@dataclass
class ConceptFinding:
    """One call site that violates (or cannot satisfy) a where clause."""

    line: int
    function: str          # enclosing scope of the call site
    severity: Severity
    message: str


@dataclass
class _WhereInfo:
    """A @where-decorated function's statically recovered constraints."""

    fn: ast.FunctionDef
    # (concept object, parameter names) pairs, resolution successes only.
    constraints: list[tuple[Any, tuple[str, ...]]] = field(default_factory=list)


class _ImportMap:
    """Name resolution through the module's import statements (given in
    :func:`ast.walk` order: a later binding of an alias wins)."""

    def __init__(self, imports: Iterable[ast.stmt]) -> None:
        # alias -> ("module", dotted) or ("attr", module, attr)
        self._entries: dict[str, tuple] = {}
        for node in imports:
            if isinstance(node, ast.Import):
                for a in node.names:
                    alias = a.asname or a.name.split(".")[0]
                    target = a.name if a.asname else a.name.split(".")[0]
                    self._entries[alias] = ("module", target)
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for a in node.names:
                    if a.name == "*":
                        continue
                    alias = a.asname or a.name
                    self._entries[alias] = ("attr", node.module, a.name)

    def resolve(self, node: ast.expr) -> Optional[Any]:
        """Resolve a Name/Attribute expression to a runtime object, or
        None.  Imports only modules the linted file itself imports."""
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return getattr(base, node.attr, None)
        if not isinstance(node, ast.Name):
            return None
        entry = self._entries.get(node.id)
        if entry is None:
            return getattr(builtins, node.id, None)
        try:
            if entry[0] == "module":
                return importlib.import_module(entry[1])
            module = importlib.import_module(entry[1])
            return getattr(module, entry[2], None)
        except Exception:  # noqa: BLE001 - unresolvable import: skip
            return None

    def may_import(self, tree: ast.Module) -> bool:
        """Whether :func:`run_concept_pass` may import anything for
        ``tree``: some top-level ``def`` has a call decorator whose
        callee is rooted at one of this map's aliases.  Otherwise no
        decorator resolves to ``@where`` and the pass returns before it
        resolves any other name."""
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    if isinstance(dec, ast.Call) \
                            and _root_name(dec.func) in self._entries:
                        return True
        return False


def _root_name(node: ast.expr) -> Optional[str]:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def reads_imports(tree: ast.Module, imports: Iterable[ast.stmt]) -> bool:
    """Whether linting ``tree`` may import the modules its ``imports``
    (its ``Import``/``ImportFrom`` nodes in :func:`ast.walk` order) name.
    This is everything the lint driver reads from other modules, so the
    analysis cache keys a file's results on its imports only when this
    holds (see :mod:`repro.analysis.deps`)."""
    return _ImportMap(imports).may_import(tree)


def _where_functions() -> tuple[Any, Any]:
    from repro.concepts.where import where, where_multi

    return where, where_multi


def _parse_where_decorator(
    dec: ast.expr, imports: _ImportMap
) -> Optional[list[tuple[Any, tuple[str, ...]]]]:
    """Recover (concept, params) constraints from a decorator expression,
    or None if it is not a resolvable @where/@where_multi application."""
    if not isinstance(dec, ast.Call):
        return None
    target = imports.resolve(dec.func)
    if target is None:
        return None
    where, where_multi = _where_functions()
    constraints: list[tuple[Any, tuple[str, ...]]] = []
    if target is where or target is where_multi:
        if any(kw.arg == "registry" for kw in dec.keywords):
            return None   # custom registry: our default-registry check lies
        for arg in dec.args:
            # The unified @where takes positional (Concept, params) tuples;
            # any other positional argument (a custom registry) makes the
            # site unanalyzable against the default registry.
            if not (isinstance(arg, ast.Tuple) and len(arg.elts) == 2):
                return None
            concept = imports.resolve(arg.elts[0])
            names_node = arg.elts[1]
            if concept is None:
                continue
            if isinstance(names_node, ast.Constant) and isinstance(
                names_node.value, str
            ):
                constraints.append((concept, (names_node.value,)))
            elif isinstance(names_node, (ast.Tuple, ast.List)) and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in names_node.elts
            ):
                names = tuple(e.value for e in names_node.elts)
                constraints.append((concept, names))
        for kw in dec.keywords:
            if kw.arg is None:
                return None   # **kwargs: not statically recoverable
            concept = imports.resolve(kw.value)
            if concept is not None:
                constraints.append((concept, (kw.arg,)))
        return constraints
    return None


class _Scope:
    """One lexical scope's certainly-known local types."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.types: dict[str, type] = {}


def _infer_type(
    node: ast.expr, scope: _Scope, imports: _ImportMap
) -> Optional[type]:
    for ast_cls, pytype in _LITERAL_TYPES.items():
        if isinstance(node, ast_cls):
            return pytype
    if isinstance(node, ast.Constant):
        return type(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        return _infer_type(node.operand, scope, imports)
    if isinstance(node, ast.Name):
        return scope.types.get(node.id)
    if isinstance(node, ast.Call):
        target = imports.resolve(node.func)
        if isinstance(target, type):
            return target
    return None


def run_concept_pass(
    tree: ast.Module,
    registry: Optional[Any] = None,
    imports: Optional[Iterable[ast.stmt]] = None,
) -> list[ConceptFinding]:
    """Lint a parsed module; returns concept-conformance findings.

    ``imports`` are the module's ``Import``/``ImportFrom`` nodes in
    :func:`ast.walk` order, for a caller that has already walked the
    tree; by default the tree is walked for them."""
    if imports is None:
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
    imports = _ImportMap(imports)
    if not imports.may_import(tree):
        return []
    constrained: dict[str, _WhereInfo] = {}
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for dec in node.decorator_list:
            constraints = _parse_where_decorator(dec, imports)
            if constraints:
                constrained[node.name] = _WhereInfo(node, constraints)
                break
    if not constrained:
        return []
    if registry is None:
        from repro.concepts.modeling import models as registry  # noqa: N813

    findings: list[ConceptFinding] = []

    def check_call(call: ast.Call, scope: _Scope) -> None:
        if not isinstance(call.func, ast.Name):
            return
        info = constrained.get(call.func.id)
        if info is None:
            return
        bound = _bind_arguments(info.fn, call)
        if bound is None:
            return
        for concept, params in info.constraints:
            types: list[type] = []
            for p in params:
                expr = bound.get(p)
                t = _infer_type(expr, scope, imports) if expr is not None \
                    else None
                if t is None:
                    break
                types.append(t)
            if len(types) != len(params):
                continue      # not all argument types inferable: skip
            try:
                report = registry.check(concept, tuple(types))
            except Exception:  # noqa: BLE001 - registry hiccup: skip
                continue
            if not report.ok:
                names = ", ".join(t.__name__ for t in types)
                details = "; ".join(
                    f.render() for f in report.failures[:2]
                )
                findings.append(ConceptFinding(
                    line=call.lineno,
                    function=scope.name,
                    severity=Severity.ERROR,
                    message=(
                        f"call to {call.func.id}() violates its where "
                        f"clause: ({names}) does not model "
                        f"{concept.name}: {details}"
                    ),
                ))

    def stmt_exprs(stmt: ast.stmt) -> list[ast.expr]:
        """The expressions attached directly to a statement (its nested
        statement bodies are walked separately, in scope order)."""
        out: list[ast.expr] = []
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                out.append(child)
            elif isinstance(child, ast.withitem):
                out.append(child.context_expr)
            elif isinstance(child, ast.ExceptHandler) and child.type:
                out.append(child.type)
        return out

    def walk_scope(stmts: list[ast.stmt], scope: _Scope) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk_scope(stmt.body, _Scope(stmt.name))
                continue
            if isinstance(stmt, ast.ClassDef):
                walk_scope(stmt.body, _Scope(scope.name))
                continue
            for expr in stmt_exprs(stmt):
                for sub in ast.walk(expr):
                    if isinstance(sub, ast.Call):
                        check_call(sub, scope)
            # Track certain assignments for later calls in this scope.
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                t = _infer_type(stmt.value, scope, imports)
                name = stmt.targets[0].id
                if t is not None:
                    scope.types[name] = t
                else:
                    scope.types.pop(name, None)
            # Nested statement bodies share the enclosing scope (a
            # flow-insensitive approximation that never *invents* types).
            for name in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, name, None)
                if isinstance(nested, list) and nested \
                        and isinstance(nested[0], ast.stmt):
                    walk_scope(nested, scope)
            for handler in getattr(stmt, "handlers", []) or []:
                walk_scope(handler.body, scope)

    walk_scope(tree.body, _Scope("<module>"))
    return findings


def _bind_arguments(
    fn: ast.FunctionDef, call: ast.Call
) -> Optional[dict[str, ast.expr]]:
    """Positional/keyword binding of call arguments to parameter names,
    or None when the call shape cannot be bound statically."""
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    if any(isinstance(a, ast.Starred) for a in call.args):
        return None
    if len(call.args) > len(params):
        return None
    bound: dict[str, ast.expr] = dict(zip(params, call.args))
    for kw in call.keywords:
        if kw.arg is None or kw.arg in bound:
            return None
        if kw.arg in params or kw.arg in {a.arg for a in fn.args.kwonlyargs}:
            bound[kw.arg] = kw.value
    return bound
