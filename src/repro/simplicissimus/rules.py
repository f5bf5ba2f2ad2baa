"""Concept-guarded rewrite rules.

Fig. 5's two generic rules::

    x + 0 -> x        requires (x, +) models Monoid
    x + (-x) -> 0     requires (x, +, -) models Group

"The concept-based rules are directly related to and derivable from the
axioms governing the Monoid and Group concepts" — here each rule *is* one
of those equations.  An :class:`EquationRule` carries an Athena equation
``forall x. lhs = rhs`` and is admitted only if the equation is a law the
guarding concept adds to its parents' theories (the table
:data:`repro.concepts.algebra.THEORY_OF` over :mod:`repro.athena.theories`)
or a theorem Athena proves from them
(:mod:`repro.athena.proofs.group_theory`).
The rule *refuses to fire* unless the algebra registry confirms the
(type, operator) pair models the required concept.  That guard is what
makes the rewrite sound: ``min(a+b, CAP)`` saturating addition has an
identity but is not a Group, so the inverse rule never touches it (see
the ablation bench).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

from ..athena import (
    GroupSig,
    Prop,
    group_axioms,
    monoid_axioms,
    open_forall,
    prove_group_theorems,
)
from ..athena.terms import Term, Var as TermVar
from ..concepts.algebra import (
    AlgebraRegistry,
    Concept,
    Group,
    Monoid,
    own_laws,
)
from ..facts.properties import SORTED, FactEnv
from .expr import BinOp, Call, Const, Expr, IdentityOf, Inverse, TypeEnv, Var


@dataclass
class RuleApplication:
    """Record of one successful rewrite (for reporting and the Fig. 5
    instance table).  ``savings`` is the cost model's estimated benefit
    (filled in by the engine); ``properties`` names the STLlint-derived
    facts the rule's property guard consumed, if any."""

    rule: str
    before: str
    after: str
    concept: str
    instance_type: str
    op: str
    savings: float = 0.0
    properties: tuple[str, ...] = ()


class RewriteRule:
    """Base class: ``try_rewrite`` returns the replacement expression (and
    an application record) or None.

    Rules carry two independent guards: ``requires`` (a concept the
    algebra registry must confirm, checked inside ``try_rewrite``) and
    ``requires_properties`` (STLlint-derived semantic facts like
    ``sorted``, checked by the engine via :meth:`properties_hold` before
    ``try_rewrite`` is even attempted).  A rule with both fires only when
    both hold — Section 3.2's concept-guarded rewriting extended with the
    paper's "STLlint-derived flow facts".
    """

    name: str = "<rule>"
    requires: Optional[Concept] = None
    requires_properties: tuple[str, ...] = ()

    def try_rewrite(
        self, node: Expr, tenv: TypeEnv, registry: AlgebraRegistry
    ) -> Optional[tuple[Expr, RuleApplication]]:
        raise NotImplementedError

    def property_subject(self, node: Expr) -> Optional[str]:
        """Which variable the property requirement is about.  Default:
        the first ``Var`` argument of a ``Call`` (the range argument in
        the STLlint subset's spelling ``find(v, x)``)."""
        if isinstance(node, Call):
            for a in node.args:
                if isinstance(a, Var):
                    return a.name
        return None

    def properties_hold(self, node: Expr, fenv: Optional[FactEnv]) -> bool:
        """The property guard.  With no fact environment (``fenv=None``)
        a property-requiring rule refuses to fire: absence of facts means
        nothing may be assumed."""
        if not self.requires_properties:
            return True
        if fenv is None:
            return False
        subject = self.property_subject(node)
        if subject is None:
            return False
        return fenv.holds_all(subject, self.requires_properties)


#: The generic signature rule equations are stated over: ``x * y`` is
#: any concrete operator, ``e`` its identity and ``inv(x)`` its inverse.
SIG = GroupSig()


@functools.cache
def _group_theorems() -> dict[str, Prop]:
    """The Group theorems Athena derives from the axioms, proved once."""
    return prove_group_theorems(SIG)[1]


def _equations(concept: Concept) -> list[Prop]:
    """The equations a rule guarded by ``concept`` may be: the laws its
    theory adds to its parents' (so a rule's guard is the weakest concept
    stating its equation), and for Group the theorems proved from them."""
    laws = list(own_laws(concept, SIG).values())
    return laws + list(_group_theorems().values()) if concept is Group else laws


def _canonical(p: Prop) -> Prop:
    """``p``'s body with its quantified variables renamed by position, so
    an axiom over ``x`` equals a ``pick_any`` theorem over ``x3``."""
    names, body = open_forall(p)
    return body.substitute({n: TermVar(f"?{i}") for i, n in enumerate(names)})


class EquationRule(RewriteRule):
    """A rule that is an equation ``forall x. lhs = rhs`` over :data:`SIG`,
    applied left to right; :class:`ValueError` unless the equation is one
    of :func:`_equations` of ``requires`` (up to the names of its bound
    variables).

    The left side is the pattern: ``x * y`` matches a :class:`BinOp` and
    ``inv(x)`` an :class:`Inverse`, all under one concrete operator;
    ``e`` matches that operator's identity (a literal, or an
    :class:`IdentityOf`); a variable binds one subexpression, the same
    one wherever it recurs.  The guard asks whether the type of the first
    variable's binding models ``requires`` under the operator.  The right
    side is built from the bindings, ``e`` becoming the identity value
    (``IdentityOf(x, op)`` when the model has none).
    """

    def __init__(self, name: str, requires: Concept, equation: Prop) -> None:
        if _canonical(equation) not in map(_canonical, _equations(requires)):
            raise ValueError(
                f"rule {name!r}: {equation} is neither an axiom of "
                f"{requires.name} nor a theorem proved from them"
            )
        self.name, self.requires, self.equation = name, requires, equation
        self._vars, body = open_forall(equation)
        self._lhs, self._rhs = body.args

    def try_rewrite(self, node, tenv, registry):
        binds: dict[str, Expr] = {}
        ops: set[str] = set()
        ids: list[Expr] = []
        if not _match(self._lhs, node, binds, ops, ids) or len(ops) != 1:
            return None
        (op,) = ops
        x = binds[self._vars[0]]
        typ = x.typeof(tenv)
        if typ is None or not registry.models(typ, op, self.requires):
            return None
        s = registry.lookup(typ, op)
        if not all(_is_identity_expr(e, op, s) for e in ids):
            return None
        identity = (IdentityOf(x, op) if s.identity_value is None
                    else Const(s.identity_value))
        after = _build(self._rhs, binds, op, identity)
        return after, RuleApplication(
            rule=self.name,
            before=str(node),
            after=str(after),
            concept=self.requires.name,
            instance_type=typ.__name__,
            op=op,
        )


def _match(pat: Term, node: Expr, binds: dict[str, Expr], ops: set[str],
           ids: list[Expr]) -> bool:
    """Match ``pat`` against ``node``, collecting the variables' bindings,
    the operators met and the subexpressions standing for ``e``."""
    if isinstance(pat, TermVar):
        return binds.setdefault(pat.name, node) == node
    if pat.fsym == SIG.e:
        ids.append(node)
        return True
    if not isinstance(node, BinOp if pat.fsym == SIG.op else Inverse):
        return False
    ops.add(node.op)
    return all(_match(p, c, binds, ops, ids)
               for p, c in zip(pat.args, node.children()))


def _build(t: Term, binds: dict[str, Expr], op: str, identity: Expr) -> Expr:
    """The expression ``t`` denotes, ``e`` standing for ``identity``."""
    if isinstance(t, TermVar):
        return binds[t.name]
    if t.fsym == SIG.e:
        return identity
    args = [_build(a, binds, op, identity) for a in t.args]
    return BinOp(op, *args) if t.fsym == SIG.op else Inverse(args[0], op)


@dataclass
class LambdaRule(RewriteRule):
    """A user-defined rule: arbitrary matcher plus an optional concept
    guard.  This is the extension point Section 3.2 calls "of paramount
    importance" — library authors register domain rules (the LiDIA
    ``1.0/f -> f.Inverse()`` specialization lives in
    :mod:`repro.simplicissimus.library_rules`)."""

    matcher: Callable[[Expr, TypeEnv, AlgebraRegistry], Optional[Expr]]
    name: str = "<library rule>"
    requires: Optional[Concept] = None
    doc: str = ""

    def try_rewrite(self, node, tenv, registry):
        out = self.matcher(node, tenv, registry)
        if out is None:
            return None
        typ = node.typeof(tenv) or type(None)
        return out, RuleApplication(
            rule=self.name,
            before=str(node),
            after=str(out),
            concept=self.requires.name if self.requires else "<library>",
            instance_type=typ.__name__ if isinstance(typ, type) else str(typ),
            op="",
        )


class SortedFindRule(RewriteRule):
    """``find(v, x) -> lower_bound(v, x)`` when STLlint's facts establish
    ``sorted(v)`` — the paper's flagship Section 3.2 integration ("linear
    search on a sorted sequence → binary search"), as an engine rule
    rather than a suggestion string.  The property guard (not this
    matcher) is what makes it sound: without a fact environment proving
    sortedness on every path, the rule never fires."""

    name = "sorted-find-to-lower-bound"
    requires_properties = (SORTED,)

    def try_rewrite(self, node, tenv, registry):
        if not (isinstance(node, Call) and node.func == "find" and node.args):
            return None
        new = Call("lower_bound", node.args)
        typ = node.args[0].typeof(tenv)
        return new, RuleApplication(
            rule=self.name,
            before=str(node),
            after=str(new),
            concept="<property>",
            instance_type=typ.__name__ if isinstance(typ, type) else "?",
            op="find",
            properties=tuple(str(p) for p in self.requires_properties),
        )


def _is_identity_expr(e: Expr, op: str, structure) -> bool:
    """Is ``e`` a literal identity element for the structure, or an
    ``IdentityOf`` node for the same operator?"""
    if isinstance(e, Const):
        return structure.identity_test(e.value)
    return isinstance(e, IdentityOf) and e.op == op


def _standard_rules() -> tuple[RewriteRule, ...]:
    monoid = monoid_axioms(SIG)
    theorems = _group_theorems()
    return (
        EquationRule("right-identity", Monoid, monoid["right identity"]),
        EquationRule("left-identity", Monoid, monoid["left identity"]),
        EquationRule("right-inverse", Group,
                     group_axioms(SIG)["right inverse"]),
        EquationRule("left-inverse", Group, theorems["left inverse"]),
        EquationRule("double-inverse", Group,
                     theorems["inverse involution"]),
    )


#: The two generic rules of Fig. 5 (plus their mirror/involution corollaries).
STANDARD_RULES: tuple[RewriteRule, ...] = _standard_rules()
