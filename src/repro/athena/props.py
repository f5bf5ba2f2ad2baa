"""Propositions for the Athena-style proof language.

Atoms over terms, the usual connectives, and quantifiers with
capture-avoiding instantiation.  Equality is the distinguished atom ``'='``
so the equational deduction rules can recognize it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Mapping

from .terms import App, Term, Var

_fresh_counter = itertools.count(1)


class Prop:
    """Base class of propositions."""

    def variables(self) -> set[str]:
        raise NotImplementedError

    def free_variables(self) -> set[str]:
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, Term]) -> "Prop":
        raise NotImplementedError


@dataclass(frozen=True)
class Atom(Prop):
    """``pred(t1, ..., tn)``; ``Atom('=', (a, b))`` is equality."""

    pred: str
    args: tuple[Term, ...] = ()

    def variables(self) -> set[str]:
        out: set[str] = set()
        for a in self.args:
            out |= a.variables()
        return out

    free_variables = variables

    def substitute(self, mapping: Mapping[str, Term]) -> "Atom":
        return Atom(self.pred, tuple(a.substitute(mapping) for a in self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        if len(self.args) == 2 and not self.pred.isalnum():
            return f"({self.args[0]} {self.pred} {self.args[1]})"
        return f"{self.pred}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class Falsity(Prop):
    """The absurd proposition (target of proofs by contradiction)."""

    def variables(self) -> set[str]:
        return set()

    free_variables = variables

    def substitute(self, mapping: Mapping[str, Term]) -> "Falsity":
        return self

    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Not(Prop):
    operand: Prop

    def variables(self) -> set[str]:
        return self.operand.variables()

    def free_variables(self) -> set[str]:
        return self.operand.free_variables()

    def substitute(self, mapping: Mapping[str, Term]) -> "Not":
        return Not(self.operand.substitute(mapping))

    def __str__(self) -> str:
        return f"~{self.operand}"


@dataclass(frozen=True)
class And(Prop):
    left: Prop
    right: Prop

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()

    def free_variables(self) -> set[str]:
        return self.left.free_variables() | self.right.free_variables()

    def substitute(self, mapping: Mapping[str, Term]) -> "And":
        return And(self.left.substitute(mapping), self.right.substitute(mapping))

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class Or(Prop):
    left: Prop
    right: Prop

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()

    def free_variables(self) -> set[str]:
        return self.left.free_variables() | self.right.free_variables()

    def substitute(self, mapping: Mapping[str, Term]) -> "Or":
        return Or(self.left.substitute(mapping), self.right.substitute(mapping))

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@dataclass(frozen=True)
class Implies(Prop):
    antecedent: Prop
    consequent: Prop

    def variables(self) -> set[str]:
        return self.antecedent.variables() | self.consequent.variables()

    def free_variables(self) -> set[str]:
        return self.antecedent.free_variables() | self.consequent.free_variables()

    def substitute(self, mapping: Mapping[str, Term]) -> "Implies":
        return Implies(
            self.antecedent.substitute(mapping),
            self.consequent.substitute(mapping),
        )

    def __str__(self) -> str:
        return f"({self.antecedent} ==> {self.consequent})"


@dataclass(frozen=True)
class Iff(Prop):
    left: Prop
    right: Prop

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()

    def free_variables(self) -> set[str]:
        return self.left.free_variables() | self.right.free_variables()

    def substitute(self, mapping: Mapping[str, Term]) -> "Iff":
        return Iff(self.left.substitute(mapping), self.right.substitute(mapping))

    def __str__(self) -> str:
        return f"({self.left} <==> {self.right})"


@dataclass(frozen=True)
class Forall(Prop):
    var: str
    body: Prop

    def variables(self) -> set[str]:
        return self.body.variables() | {self.var}

    def free_variables(self) -> set[str]:
        return self.body.free_variables() - {self.var}

    def substitute(self, mapping: Mapping[str, Term]) -> "Forall":
        mapping = {k: v for k, v in mapping.items() if k != self.var}
        # Capture avoidance: rename the bound variable if a substituted term
        # mentions it.
        if any(self.var in t.variables() for t in mapping.values()):
            fresh = f"{self.var}_{next(_fresh_counter)}"
            renamed = self.body.substitute({self.var: Var(fresh)})
            return Forall(fresh, renamed.substitute(mapping))
        return Forall(self.var, self.body.substitute(mapping))

    def instantiate(self, term: Term) -> Prop:
        return self.body.substitute({self.var: term})

    def __str__(self) -> str:
        return f"(forall {self.var} . {self.body})"


@dataclass(frozen=True)
class Exists(Prop):
    var: str
    body: Prop

    def variables(self) -> set[str]:
        return self.body.variables() | {self.var}

    def free_variables(self) -> set[str]:
        return self.body.free_variables() - {self.var}

    def substitute(self, mapping: Mapping[str, Term]) -> "Exists":
        mapping = {k: v for k, v in mapping.items() if k != self.var}
        if any(self.var in t.variables() for t in mapping.values()):
            fresh = f"{self.var}_{next(_fresh_counter)}"
            renamed = self.body.substitute({self.var: Var(fresh)})
            return Exists(fresh, renamed.substitute(mapping))
        return Exists(self.var, self.body.substitute(mapping))

    def instantiate(self, term: Term) -> Prop:
        return self.body.substitute({self.var: term})

    def __str__(self) -> str:
        return f"(exists {self.var} . {self.body})"


def forall(variables: str | list[str], body: Prop) -> Prop:
    """``forall('x y z', body)`` — nested universal closure."""
    if isinstance(variables, str):
        variables = variables.split()
    out = body
    for v in reversed(variables):
        out = Forall(v, out)
    return out


def equals(a: Term, b: Term) -> Atom:
    return Atom("=", (a, b))


def open_forall(p: Prop) -> tuple[list[str], Prop]:
    """The leading universally quantified variables of ``p`` and the body
    under them."""
    names = []
    while isinstance(p, Forall):
        names.append(p.var)
        p = p.body
    return names, p


def holds(p: Prop, ops: Mapping[str, Any], *values: Any) -> bool:
    """Evaluate ``p`` on concrete values: its leading quantified variables
    take ``values`` in order, a function symbol ``f`` denotes ``ops[f]``,
    ``=`` is ``==``, and ``~``/``==>`` are negation and implication (what
    the algebraic laws use).  A constant ``c`` denotes
    ``ops[c](like)``, ``like`` being the first value, so a shaped identity
    (a zero vector, an identity matrix) can take its operands' shape.
    Whatever ``ops`` raises propagates."""
    names, body = open_forall(p)
    env = dict(zip(names, values))
    like = values[0] if values else None

    def value(t: Term) -> Any:
        if isinstance(t, Var):
            return env[t.name]
        if not t.args:
            return ops[t.fsym](like)
        return ops[t.fsym](*map(value, t.args))

    def truth(q: Prop) -> bool:
        if isinstance(q, Atom) and q.pred == "=":
            return bool(value(q.args[0]) == value(q.args[1]))
        if isinstance(q, Not):
            return not truth(q.operand)
        if isinstance(q, Implies):
            return not truth(q.antecedent) or truth(q.consequent)
        raise ValueError(f"cannot evaluate {q}")

    return truth(body)
