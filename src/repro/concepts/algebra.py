"""Algebraic concepts and operation-tagged models.

Fig. 5's rewrite rules are guarded by *pairs*: "(x, +) models Monoid" — the
same type can model Monoid under ``+`` and under ``*`` with different
identities.  The concept system keys models by type tuples, so algebraic
modeling gets its own registry keyed by ``(type, operator symbol)``; this is
the generalization of the "tagging of certain operators with semantic
attributes such as commutativity and associativity" the paper cites from
Axiom/Maude, upgraded with identity/inverse witnesses and sample-based axiom
testing.

The hierarchy — Semigroup ⊂ Monoid ⊂ Group ⊂ AbelianGroup, and Ring/Field
over two operations — mirrors the concepts the authors "have already
formalized and used in proofs" (Section 3.3).  Their laws are written once,
as the Athena theories of :mod:`repro.athena.theories`: each concept's
semantic axioms are the laws its theory adds to its parents' theories,
sampled by evaluating the theory's propositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

from ..athena.props import Prop, holds, open_forall
from ..athena.theories import (
    GroupSig,
    RingSig,
    VectorSpaceSig,
    abelian_axioms,
    field_axioms,
    group_axioms,
    monoid_axioms,
    ring_axioms,
    semigroup_axioms,
    vector_space_axioms,
)
from .concept import Concept
from .modeling import sample_axioms
from .requirements import Param, SemanticAxiom, function

T = Param("T")

#: The algebraic concepts' operation names as an operator mapping: a law's
#: function symbols are the names an ``ops`` namespace resolves.
GROUP_OPS = GroupSig(op="op", e="identity", inv="inverse")
_MUL_OPS = GroupSig(op="mul", e="one", inv="reciprocal")

#: Each algebraic concept's theory, as a function of the operator mapping
#: of its (additive) operation; multiplication keeps the concepts' names.
THEORY_OF: dict[Concept, Callable[[GroupSig], dict[str, Prop]]] = {}


def own_laws(concept: Concept, sig: GroupSig = GROUP_OPS) -> dict[str, Prop]:
    """The laws ``concept``'s theory adds to its parents' theories, over
    ``sig``; none for a concept outside :data:`THEORY_OF`."""
    theory = THEORY_OF.get(concept)
    if theory is None:
        return {}
    inherited = {law for parent, _ in concept.refinements()
                 if parent in THEORY_OF
                 for law in THEORY_OF[parent](sig).values()}
    return {name: law for name, law in theory(sig).items()
            if law not in inherited}


def law_axiom(name: str, law: Prop) -> SemanticAxiom:
    """``law`` as a sampled axiom: its quantified variables take a sample's
    values and :func:`~repro.athena.props.holds` evaluates it under the
    ``ops`` namespace."""
    variables, body = open_forall(law)
    text = str(body)
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]  # a binary connective's own parentheses
    return SemanticAxiom(name, tuple(variables), partial(holds, law), text)


def _algebraic(theory: Callable[[GroupSig], dict[str, Prop]], name: str,
               **kwargs: Any) -> Concept:
    """A concept whose semantic axioms are :func:`own_laws` of ``theory``."""
    concept = Concept(name, **kwargs)
    THEORY_OF[concept] = theory
    concept.requirements += tuple(
        law_axiom(n, law) for n, law in own_laws(concept).items())
    return concept


# ---------------------------------------------------------------------------
# The concept hierarchy (semantic concepts: signatures + axioms)
# ---------------------------------------------------------------------------

Magma = Concept(
    "Magma",
    params=("T",),
    requirements=[
        function("op(a, b)", "op", [T, T], T),
    ],
    doc="A set with a closed binary operation.",
)

Semigroup = _algebraic(
    semigroup_axioms, "Semigroup", refines=[Magma], doc="Associative magma.")

Monoid = _algebraic(
    monoid_axioms, "Monoid",
    refines=[Semigroup],
    requirements=[function("identity()", "identity", [T], T)],
    doc="Semigroup with identity.",
)

Group = _algebraic(
    group_axioms, "Group",
    refines=[Monoid],
    requirements=[function("inverse(a)", "inverse", [T], T)],
    doc="Monoid with inverses.",
)

AbelianGroup = _algebraic(
    abelian_axioms, "Abelian Group", refines=[Group], doc="Commutative group.")

#: Fig. 3 names this structure for the additive part of a vector space.
AdditiveAbelianGroup = _algebraic(
    abelian_axioms, "Additive Abelian Group",
    refines=[AbelianGroup],
    doc="Abelian group written additively (Fig. 3's vector-addition part).",
)

Ring = _algebraic(
    lambda g: ring_axioms(RingSig(g, _MUL_OPS)), "Ring",
    refines=[AdditiveAbelianGroup],
    requirements=[
        function("mul(a, b)", "mul", [T, T], T),
        function("one()", "one", [T], T),
    ],
    doc="Ring: additive abelian group with associative, distributive mul.",
)

Field = _algebraic(
    lambda g: field_axioms(RingSig(g, _MUL_OPS)), "Field",
    refines=[Ring],
    requirements=[function("reciprocal(a)", "reciprocal", [T], T)],
    doc="Ring whose nonzero elements form a multiplicative group.",
)

V, S = Param("V"), Param("S")

#: Fig. 3: "Types V and S model the Vector Space concept if, in addition to
#: the type S modeling the Field concept and the type V modeling the
#: Additive Abelian Group concept, the above requirements are satisfied."
VectorSpace = _algebraic(
    lambda g: vector_space_axioms(
        VectorSpaceSig(g, RingSig(g, _MUL_OPS), "mult")),
    "Vector Space",
    params=("V", "S"),
    refines=[(AdditiveAbelianGroup, (V,)), (Field, (S,))],
    requirements=[
        function("mult(v, s)", "mult", [V, S], V),
        function("mult(s, v)", "mult", [S, V], V, owner_index=1),
    ],
    doc="The multi-type concept of Fig. 3; scalar type is NOT an associated "
        "type of the vector type (the CLA-CRM argument of Section 2.4).",
)


# ---------------------------------------------------------------------------
# Operation-tagged algebraic structures
# ---------------------------------------------------------------------------


@dataclass
class AlgebraicStructure:
    """A declaration that ``(typ, op_symbol)`` models an algebraic concept.

    ``identity_value``/``is_identity`` witness the identity element;
    ``is_identity`` exists separately because for shape-dependent identities
    (the identity matrix) membership cannot be tested with ``==`` against a
    single value.  ``inverse`` is required at Group level and above.
    ``samples`` are value tuples; a law is sampled on each tuple long
    enough to bind its variables.
    """

    typ: type
    op_symbol: str
    concept: Concept
    apply: Callable[[Any, Any], Any]
    identity_value: Any = None
    is_identity: Optional[Callable[[Any], bool]] = None
    inverse: Optional[Callable[[Any], Any]] = None
    samples: tuple = ()
    make_identity: Optional[Callable[[Any], Any]] = None

    def identity_for(self, like: Any) -> Any:
        """The identity element, possibly shaped like ``like`` (matrices)."""
        if self.make_identity is not None:
            return self.make_identity(like)
        return self.identity_value

    def identity_test(self, value: Any) -> bool:
        if self.is_identity is not None:
            return bool(self.is_identity(value))
        try:
            return bool(value == self.identity_value)
        except Exception:  # noqa: BLE001 - foreign __eq__
            return False

    def ops(self, sig: GroupSig) -> dict[str, Any]:
        """The structure's operations keyed by ``sig``'s symbols."""
        return {sig.op: self.apply, sig.e: self.identity_for,
                sig.inv: self.inverse}


class AlgebraRegistry:
    """Registry of :class:`AlgebraicStructure` keyed by (type, operator).

    Lookup walks the type's MRO so structures declared for a base class
    cover subclasses, matching :class:`~repro.concepts.modeling
    .OperationRegistry` semantics.
    """

    def __init__(self) -> None:
        self._structures: dict[tuple[type, str], AlgebraicStructure] = {}

    def declare(
        self, structure: AlgebraicStructure, check_axioms: bool = True
    ) -> AlgebraicStructure:
        """Register ``structure``.  With ``check_axioms``, every law of its
        concept is first sampled (see
        :func:`~repro.concepts.modeling.sample_axioms`): a failing or
        raising sample *refutes* the declaration; passing samples do not
        prove it — proving is :mod:`repro.athena`'s job."""
        if check_axioms:
            sample_axioms(structure.concept.name, structure.concept.axioms(),
                          structure.ops(GROUP_OPS), structure.samples)
        self._structures[(structure.typ, structure.op_symbol)] = structure
        return structure

    def lookup(self, typ: type, op_symbol: str) -> Optional[AlgebraicStructure]:
        for base in typ.__mro__:
            found = self._structures.get((base, op_symbol))
            if found is not None:
                return found
        return None

    def models(self, typ: type, op_symbol: str, concept: Concept) -> bool:
        """Does ``(typ, op_symbol)`` model ``concept`` (possibly via a more
        refined declaration)?  This is Simplicissimus's applicability test:
        ``(x, +) models Monoid``."""
        s = self.lookup(typ, op_symbol)
        return s is not None and s.concept.refines_concept(concept)

    def structures(self) -> list[AlgebraicStructure]:
        return list(self._structures.values())


#: Default process-wide algebra registry, pre-populated below with the
#: built-in instances from Fig. 5's table.
algebra = AlgebraRegistry()


def declare_standard_structures(registry: AlgebraRegistry) -> None:
    """Declare the Fig. 5 built-in instances (user-defined ones — strings,
    matrices, rationals — are declared by their home modules)."""
    from fractions import Fraction

    registry.declare(
        AlgebraicStructure(
            int, "+", AbelianGroup, lambda a, b: a + b,
            identity_value=0, inverse=lambda a: -a,
            samples=((3, 5, 7), (-2, 11, 0), (1, 1, 1)),
        )
    )
    registry.declare(
        AlgebraicStructure(
            int, "*", Monoid, lambda a, b: a * b,
            identity_value=1,
            samples=((3, 5, 7), (-2, 11, 1)),
        )
    )
    # Exactly-representable samples keep float associativity honest; floats
    # are declared Monoid/Group by convention (as Fig. 5 does with f*1.0->f),
    # with the caveat living in the sample choice.
    registry.declare(
        AlgebraicStructure(
            float, "*", Group, lambda a, b: a * b,
            identity_value=1.0, inverse=lambda a: 1.0 / a,
            samples=((2.0, 4.0, 0.5), (8.0, 0.25, 1.0)),
        )
    )
    registry.declare(
        AlgebraicStructure(
            float, "+", AbelianGroup, lambda a, b: a + b,
            identity_value=0.0, inverse=lambda a: -a,
            samples=((2.0, 4.0, 0.5), (8.0, 0.25, 0.0)),
        )
    )
    registry.declare(
        AlgebraicStructure(
            bool, "and", Monoid, lambda a, b: a and b,
            identity_value=True,
            samples=((True, False, True), (False, False, True)),
        )
    )
    registry.declare(
        AlgebraicStructure(
            bool, "or", Monoid, lambda a, b: a or b,
            identity_value=False,
            samples=((True, False, True), (False, False, True)),
        )
    )
    # Bitwise AND over Python's unbounded ints: the identity is the all-ones
    # pattern -1 (the role 0xFFF... plays at fixed width in Fig. 5).
    registry.declare(
        AlgebraicStructure(
            int, "&", Monoid, lambda a, b: a & b,
            identity_value=-1,
            samples=((0b1010, 0b0110, 0b1111), (7, 3, -1)),
        )
    )
    registry.declare(
        AlgebraicStructure(
            int, "|", Monoid, lambda a, b: a | b,
            identity_value=0,
            samples=((0b1010, 0b0110, 0), (7, 3, 1)),
        )
    )
    registry.declare(
        AlgebraicStructure(
            str, "concat", Monoid, lambda a, b: a + b,
            identity_value="",
            samples=(("ab", "c", ""), ("", "xy", "z")),
        )
    )
    registry.declare(
        AlgebraicStructure(
            Fraction, "*", Group, lambda a, b: a * b,
            identity_value=Fraction(1), inverse=lambda a: 1 / a,
            samples=(
                (Fraction(2, 3), Fraction(5, 7), Fraction(1)),
                (Fraction(-4, 9), Fraction(3, 2), Fraction(11)),
            ),
        )
    )
    registry.declare(
        AlgebraicStructure(
            Fraction, "+", AbelianGroup, lambda a, b: a + b,
            identity_value=Fraction(0), inverse=lambda a: -a,
            samples=(
                (Fraction(2, 3), Fraction(5, 7), Fraction(0)),
                (Fraction(-4, 9), Fraction(3, 2), Fraction(11)),
            ),
        )
    )


declare_standard_structures(algebra)
