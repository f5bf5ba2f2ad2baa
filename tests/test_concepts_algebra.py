"""Tests for the algebraic concept hierarchy and the operation-tagged
algebra registry (the machinery behind Fig. 5)."""

from fractions import Fraction

import pytest

from repro.concepts.algebra import (
    AbelianGroup,
    AdditiveAbelianGroup,
    AlgebraicStructure,
    AlgebraRegistry,
    Field,
    Group,
    Magma,
    Monoid,
    Ring,
    Semigroup,
    VectorSpace,
    algebra,
)
from repro.concepts.errors import SemanticAxiomViolation


class TestHierarchy:
    def test_refinement_chain(self):
        assert Semigroup.refines_concept(Magma)
        assert Monoid.refines_concept(Semigroup)
        assert Group.refines_concept(Monoid)
        assert AbelianGroup.refines_concept(Group)
        assert AdditiveAbelianGroup.refines_concept(AbelianGroup)
        assert Ring.refines_concept(AdditiveAbelianGroup)
        assert Field.refines_concept(Ring)

    def test_vector_space_is_multi_type(self):
        assert VectorSpace.is_multi_type
        assert VectorSpace.arity == 2

    def test_vector_space_refines_per_parameter(self):
        refs = {(p.name, tuple(str(a) for a in args))
                for p, args in [(r[0].params[0], r[1])
                                 for r in VectorSpace.refinements()]}
        # V side refines AdditiveAbelianGroup, S side refines Field
        parents = [r[0].name for r in VectorSpace.refinements()]
        assert "Additive Abelian Group" in parents
        assert "Field" in parents

    def test_monoid_has_identity_axioms(self):
        names = [a.name for a in Monoid.axioms()]
        assert "right identity" in names
        assert "left identity" in names
        assert "associativity" in names  # inherited from Semigroup

    def test_semantic_concepts_are_not_syntactic(self):
        assert not Monoid.is_syntactic()
        assert Magma.is_syntactic()


class TestStandardStructures:
    def test_int_add_is_abelian_group(self):
        assert algebra.models(int, "+", AbelianGroup)
        assert algebra.models(int, "+", Group)
        assert algebra.models(int, "+", Monoid)

    def test_int_mul_is_monoid_not_group(self):
        assert algebra.models(int, "*", Monoid)
        assert not algebra.models(int, "*", Group)

    def test_identities(self):
        assert algebra.lookup(int, "+").identity_value == 0
        assert algebra.lookup(int, "*").identity_value == 1
        assert algebra.lookup(bool, "and").identity_value is True
        assert algebra.lookup(int, "&").identity_value == -1
        assert algebra.lookup(str, "concat").identity_value == ""

    def test_inverses(self):
        s = algebra.lookup(int, "+")
        assert s.inverse(5) == -5
        f = algebra.lookup(float, "*")
        assert f.inverse(4.0) == 0.25
        r = algebra.lookup(Fraction, "*")
        assert r.inverse(Fraction(2, 3)) == Fraction(3, 2)

    def test_unknown_pair(self):
        assert algebra.lookup(str, "*") is None
        assert not algebra.models(str, "*", Monoid)

    def test_mro_walk(self):
        class MyInt(int):
            pass

        assert algebra.models(MyInt, "+", Group)

    def test_fig5_rows_all_covered(self):
        # Every (type, op) pair behind Fig. 5's ten instances must be
        # declared (Matrix is declared by repro.linalg, tested there).
        monoid_rows = [(int, "*"), (float, "*"), (bool, "and"),
                       (int, "&"), (str, "concat")]
        group_rows = [(int, "+"), (float, "*"), (Fraction, "*")]
        for typ, op in monoid_rows:
            assert algebra.models(typ, op, Monoid), (typ, op)
        for typ, op in group_rows:
            assert algebra.models(typ, op, Group), (typ, op)


class TestAxiomChecking:
    def test_declaration_with_bad_axioms_rejected(self):
        reg = AlgebraRegistry()
        # Subtraction is not associative: declaring it a Semigroup with
        # samples must be refuted.
        with pytest.raises(SemanticAxiomViolation):
            reg.declare(AlgebraicStructure(
                int, "-", Semigroup, lambda a, b: a - b,
                samples=((3, 5, 7),),
            ))

    def test_wrong_identity_rejected(self):
        reg = AlgebraRegistry()
        with pytest.raises(SemanticAxiomViolation):
            reg.declare(AlgebraicStructure(
                int, "+", Monoid, lambda a, b: a + b,
                identity_value=1,  # wrong: 1 is not the additive identity
                samples=((3,),),
            ))

    def test_saturating_add_is_not_a_group(self):
        # Saturating arithmetic has an identity but no inverses at the
        # saturation point — the kind of non-model concept guards protect
        # rewrites from (DESIGN.md ablation).
        CAP = 10

        def sat(a, b):
            return min(a + b, CAP)

        reg = AlgebraRegistry()
        with pytest.raises(SemanticAxiomViolation):
            # (5 + 7) saturates to 10, so ((5+7)-7) = 3 but (5+(7-7)) = 5:
            # associativity (inherited through Group <- Semigroup) fails.
            reg.declare(AlgebraicStructure(
                int, "sat+", Group, sat,
                identity_value=0, inverse=lambda a: -a,
                samples=((5, 7, -7),),
            ))

    def test_declaration_without_samples_is_trusting(self):
        reg = AlgebraRegistry()
        reg.declare(AlgebraicStructure(
            int, "weird", Monoid, lambda a, b: a, identity_value=0,
        ))
        assert reg.models(int, "weird", Monoid)

    def test_is_identity_predicate(self):
        s = AlgebraicStructure(
            int, "+", Monoid, lambda a, b: a + b,
            identity_value=0,
            is_identity=lambda v: v == 0,
        )
        assert s.identity_test(0)
        assert not s.identity_test(3)

    def test_make_identity_shaped(self):
        s = AlgebraicStructure(
            tuple, "cat", Monoid, lambda a, b: a + b,
            make_identity=lambda like: (),
        )
        assert s.identity_for((1, 2)) == ()


class TestOneExceptionPolicy:
    """A law that raises on a sample is a violation naming the exception,
    whether a structure's declaration or a concept map's check samples it."""

    ZERO = (Fraction(0), Fraction(1), Fraction(2))

    def test_declare_reports_a_raising_law(self):
        with pytest.raises(SemanticAxiomViolation,
                           match="ZeroDivisionError") as exc:
            AlgebraRegistry().declare(AlgebraicStructure(
                Fraction, "*", Group, lambda a, b: a * b,
                identity_value=Fraction(1), inverse=lambda a: 1 / a,
                samples=(self.ZERO,),
            ))
        assert exc.value.axiom_name == "right inverse"

    def test_check_semantics_reports_the_same_law(self):
        from repro.concepts.modeling import ModelRegistry

        reg = ModelRegistry()
        reg.declare(Group, Fraction, operation_impls={
            "op": lambda a, b: a * b,
            "identity": lambda like: Fraction(1),
            "inverse": lambda a: 1 / a,
        })
        with pytest.raises(SemanticAxiomViolation,
                           match="ZeroDivisionError") as exc:
            reg.check_semantics(Group, Fraction, samples=[self.ZERO])
        assert exc.value.axiom_name == "right inverse"


class TestLawsFromTheories:
    def test_own_laws_are_the_theory_less_the_parents(self):
        assert [a.name for a in Group.own_axioms()] == ["right inverse"]
        assert [a.name for a in AbelianGroup.own_axioms()] == ["commutativity"]
        assert AdditiveAbelianGroup.own_axioms() == ()
        assert [a.name for a in VectorSpace.own_axioms()] == [
            "scalar distributivity"]

    def test_every_algebraic_concept_map_passes_its_samples(self):
        # All of a one-type concept's laws, inherited ones included, share
        # one operation vocabulary; a multi-type concept's inherited laws
        # are about its other parameters, so it is held to its own.
        import repro.linalg  # noqa: F401 - declares the Field/Vector Space maps
        from repro.concepts import models
        from repro.concepts.algebra import THEORY_OF
        from repro.concepts.modeling import OpsNamespace, sample_axioms

        checked = 0
        for concept in THEORY_OF:
            laws = concept.axioms() if concept.arity == 1 else concept.own_axioms()
            for cmap in models.declared_models(concept):
                if cmap.sampler is not None:
                    checked += 1
                    ops = OpsNamespace(models, concept, cmap.types)
                    assert sample_axioms(concept.name, laws, ops, cmap.sampler(),
                                         raise_on_failure=False) == []
        assert checked >= 10
