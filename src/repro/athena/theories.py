"""Theories as first-class functions parameterized by operator mappings.

"We package up sets of axioms into functions, pass them around to other
functions and methods that need them ... Furthermore, we simulate
type-parameterization simply by parameterizing functions and methods by
functions that carry operator mappings.  This approach is illustrated in
the way we have already formalized — and used in proofs — numerous
properties of ordering concepts (such as partial ordering, strict weak
ordering, total ordering) [and] algebraic concepts (such as monoid, group,
ring, integral domain, field)."

A *signature* (:class:`OrderSig`, :class:`GroupSig`) is the operator
mapping; each ``*_axioms`` function produces the axiom set for any mapping.
Instantiating a theory for ``(int, +)`` vs ``(Fraction, *)`` is just calling
the function with a different signature — the same one generic proof then
checks against each instance (see :mod:`repro.athena.proofs`).

The algebraic theories (semigroup through vector space) are the only
statement of their laws in the library: the algebraic concepts of
:mod:`repro.concepts.algebra` sample them as semantic axioms and
Simplicissimus admits rewrite rules against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .props import And, Atom, Implies, Not, Prop, equals, forall
from .terms import App, Term, Var


# ---------------------------------------------------------------------------
# Ordering theories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderSig:
    """Operator mapping for an ordering theory: the name of the strict
    comparison predicate (``'<'``, ``'lex<'``, ``'int.<'``, ...)."""

    less: str = "<"

    def lt(self, a: Term, b: Term) -> Atom:
        return Atom(self.less, (a, b))

    def equiv(self, a: Term, b: Term) -> Prop:
        """Fig. 6's induced equivalence: E(a, b) := ~(a<b) & ~(b<a)."""
        return And(Not(self.lt(a, b)), Not(self.lt(b, a)))


def strict_weak_order_axioms(sig: OrderSig) -> list[Prop]:
    """Fig. 6: the axioms of a Strict Weak Order — "the minimal
    requirements on < for correctness of many search or sorting-related
    algorithms, including STL's max_element, binary_search, sort"."""
    x, y, z = Var("x"), Var("y"), Var("z")
    return [
        # Irreflexivity: ~(x < x)
        forall("x", Not(sig.lt(x, x))),
        # Transitivity of <
        forall("x y z", Implies(And(sig.lt(x, y), sig.lt(y, z)), sig.lt(x, z))),
        # Transitivity of the induced equivalence E
        forall("x y z", Implies(And(sig.equiv(x, y), sig.equiv(y, z)),
                                sig.equiv(x, z))),
    ]


def strict_partial_order_axioms(sig: OrderSig) -> list[Prop]:
    x, y, z = Var("x"), Var("y"), Var("z")
    return [
        forall("x", Not(sig.lt(x, x))),
        forall("x y z", Implies(And(sig.lt(x, y), sig.lt(y, z)), sig.lt(x, z))),
    ]


def total_order_axioms(sig: OrderSig) -> list[Prop]:
    """Strict weak order + totality (x<y | x=y | y<x)."""
    from .props import Or

    x, y = Var("x"), Var("y")
    return strict_weak_order_axioms(sig) + [
        forall("x y", Or(sig.lt(x, y), Or(equals(x, y), sig.lt(y, x)))),
    ]


# ---------------------------------------------------------------------------
# Algebraic theories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupSig:
    """Operator mapping for monoid/group theories: binary operation symbol,
    identity constant, inverse symbol."""

    op: str = "*"
    e: str = "e"
    inv: str = "inv"

    def ap(self, a: Term, b: Term) -> App:
        return App(self.op, (a, b))

    def identity(self) -> App:
        return App(self.e)

    def inverse(self, a: Term) -> App:
        return App(self.inv, (a,))


def semigroup_axioms(sig: GroupSig) -> dict[str, Prop]:
    x, y, z = Var("x"), Var("y"), Var("z")
    return {
        "associativity": forall(
            "x y z", equals(sig.ap(sig.ap(x, y), z), sig.ap(x, sig.ap(y, z)))),
    }


def monoid_axioms(sig: GroupSig) -> dict[str, Prop]:
    x = Var("x")
    return {
        **semigroup_axioms(sig),
        "right identity": forall("x", equals(sig.ap(x, sig.identity()), x)),
        "left identity": forall("x", equals(sig.ap(sig.identity(), x), x)),
    }


def group_axioms(sig: GroupSig) -> dict[str, Prop]:
    """Associativity + right identity + right inverse.  (Left identity and
    left inverse are *theorems*, derived in
    :mod:`repro.athena.proofs.group_theory` — a classic showpiece for proof
    reuse across instances.)"""
    x = Var("x")
    return {
        **semigroup_axioms(sig),
        "right identity": monoid_axioms(sig)["right identity"],
        "right inverse": forall(
            "x", equals(sig.ap(x, sig.inverse(x)), sig.identity())),
    }


def abelian_axioms(sig: GroupSig) -> dict[str, Prop]:
    x, y = Var("x"), Var("y")
    return {
        **group_axioms(sig),
        "commutativity": forall("x y", equals(sig.ap(x, y), sig.ap(y, x))),
    }


@dataclass(frozen=True)
class RingSig:
    """Operator mapping for ring-like theories."""

    add: GroupSig = GroupSig(op="+", e="0", inv="neg")
    mul: GroupSig = GroupSig(op="*", e="1", inv="recip")


def ring_axioms(sig: RingSig) -> dict[str, Prop]:
    """An abelian group under ``add``, a monoid under ``mul``, and ``mul``
    distributing over ``add`` on both sides."""
    x, y, z = Var("x"), Var("y"), Var("z")
    a, m = sig.add, sig.mul
    return {
        **abelian_axioms(a),
        **{f"multiplicative {name}": law
           for name, law in monoid_axioms(m).items()},
        "distributivity": forall("x y z", equals(
            m.ap(x, a.ap(y, z)), a.ap(m.ap(x, y), m.ap(x, z)))),
        "right distributivity": forall("x y z", equals(
            m.ap(a.ap(x, y), z), a.ap(m.ap(x, z), m.ap(y, z)))),
    }


def field_axioms(sig: RingSig) -> dict[str, Prop]:
    """A ring whose nonzero elements have multiplicative inverses."""
    x = Var("x")
    a, m = sig.add, sig.mul
    return {
        **ring_axioms(sig),
        "multiplicative inverse": forall("x", Implies(
            Not(equals(x, a.identity())),
            equals(m.ap(x, m.inverse(x)), m.identity()))),
    }


@dataclass(frozen=True)
class VectorSpaceSig:
    """Operator mapping for Fig. 3's vector space: the vectors' additive
    group, the scalars' field, and scalar multiplication."""

    vectors: GroupSig = GroupSig(op="+", e="0", inv="neg")
    scalars: RingSig = RingSig()
    mult: str = "mult"

    def scale(self, v: Term, s: Term) -> App:
        return App(self.mult, (v, s))


def vector_space_axioms(sig: VectorSpaceSig) -> dict[str, Prop]:
    """Vectors form an abelian group, scalars a field, and scaling
    distributes over vector addition."""
    v, w, s = Var("v"), Var("w"), Var("s")
    g = sig.vectors
    return {
        **abelian_axioms(g),
        **{f"field {name}": law
           for name, law in field_axioms(sig.scalars).items()},
        "scalar distributivity": forall("v w s", equals(
            sig.scale(g.ap(v, w), s),
            g.ap(sig.scale(v, s), sig.scale(w, s)))),
    }


# ---------------------------------------------------------------------------
# Sequence/iterator theory (container, iterator, range concepts)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RangeSig:
    """Operator mapping for the sequential-computation concepts the paper
    lists (container, iterator, range): successor function and a
    reachability predicate."""

    succ: str = "next"
    reaches: str = "reaches"

    def nxt(self, i: Term) -> App:
        return App(self.succ, (i,))

    def reach(self, a: Term, b: Term) -> Atom:
        return Atom(self.reaches, (a, b))


def range_axioms(sig: RangeSig) -> list[Prop]:
    """Reachability axioms for valid ranges: [i, i) is a valid (empty)
    range, and reachability extends through successor — the facts STLlint's
    range checks rest on."""
    i, j = Var("i"), Var("j")
    return [
        forall("i", sig.reach(i, i)),
        forall("i j", Implies(sig.reach(i, j), sig.reach(i, sig.nxt(j)))),
    ]


#: Ordering and range theories are lists of axioms; algebraic theories
#: name each law, and the algebraic concepts' semantic axioms carry those
#: names.
TheoryFn = Callable[..., "list[Prop] | dict[str, Prop]"]

#: Name -> theory function, the library's "numerous properties ... already
#: formalized".
THEORIES: dict[str, TheoryFn] = {
    "strict partial order": strict_partial_order_axioms,
    "strict weak order": strict_weak_order_axioms,
    "total order": total_order_axioms,
    "semigroup": semigroup_axioms,
    "monoid": monoid_axioms,
    "group": group_axioms,
    "abelian group": abelian_axioms,
    "ring": ring_axioms,
    "field": field_axioms,
    "vector space": vector_space_axioms,
    "range": range_axioms,
}
