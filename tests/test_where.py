"""Tests for the @where decorator (checkable where clauses)."""

import pytest

from repro.concepts import (
    Concept,
    ConceptCheckError,
    ModelRegistry,
    Param,
    constraints_of,
    declaration_of,
    method,
    where,
)
from repro.concepts.algebra import VectorSpace
from repro.graphs import AdjacencyList, EdgeListGraphImpl, IncidenceGraph
from repro.linalg import CVector

T = Param("T")
Quackable = Concept("Quackable", requirements=[method("t.quack()", "quack", [T])])


class Duck:
    def quack(self):
        return "quack"


class Dog:
    def bark(self):
        return "woof"


class TestWhere:
    def test_conforming_call_passes_through(self):
        @where(d=Quackable)
        def speak(d):
            return d.quack()

        assert speak(Duck()) == "quack"

    def test_nonconforming_call_rejected_at_boundary(self):
        @where(d=Quackable)
        def speak(d):
            return d.quack()

        with pytest.raises(ConceptCheckError) as exc:
            speak(Dog())
        msg = str(exc.value)
        assert "speak" in msg
        assert "Quackable" in msg
        assert "quack" in msg  # names the missing requirement

    def test_keyword_arguments_bound(self):
        @where(d=Quackable)
        def speak(prefix, d):
            return prefix + d.quack()

        assert speak(d=Duck(), prefix=">") == ">quack"
        with pytest.raises(ConceptCheckError):
            speak(">", d=Dog())

    def test_unknown_parameter_rejected_at_decoration(self):
        with pytest.raises(TypeError):
            @where(nope=Quackable)
            def f(d):
                pass

    def test_arity_mismatch_rejected_at_decoration(self):
        with pytest.raises(TypeError):
            @where(v=VectorSpace)  # VectorSpace binds two types
            def f(v):
                pass

    def test_check_is_cached_per_type(self):
        reg = ModelRegistry()
        calls = []
        original = reg.check

        def counting_check(concept, types):
            calls.append(types)
            return original(concept, types)

        reg.check = counting_check  # type: ignore[method-assign]

        @where(reg, d=Quackable)
        def speak(d):
            return d.quack()

        speak(Duck())
        speak(Duck())
        speak(Duck())
        assert len(calls) == 1  # later calls hit the decorator's cache

    def test_graph_algorithm_style(self):
        @where(g=IncidenceGraph)
        def degree(g, v):
            return g.out_degree(v)

        assert degree(AdjacencyList(2, [(0, 1)]), 0) == 1
        with pytest.raises(ConceptCheckError):
            degree(EdgeListGraphImpl(2, [(0, 1)]), 0)


class TestUnifiedWhere:
    """The single @where accepts positional (Concept, params) tuples for
    multi-type concepts, keyword bindings for single-type ones, and both at
    once."""

    def test_multi_type_constraint(self):
        @where((VectorSpace, ("v", "s")))
        def scale(v, s):
            return v * s

        out = scale(CVector([1j]), 2.0)
        assert out == CVector([2j])
        with pytest.raises(ConceptCheckError):
            scale("vector?", 2.0)

    def test_multiple_constraints(self):
        @where((Quackable, ("a",)), (Quackable, ("b",)))
        def duet(a, b):
            return a.quack() + b.quack()

        assert duet(Duck(), Duck()) == "quackquack"
        with pytest.raises(ConceptCheckError):
            duet(Duck(), Dog())

    def test_mixed_positional_and_keyword(self):
        @where((VectorSpace, ("v", "s")), d=Quackable)
        def noisy_scale(v, s, d):
            d.quack()
            return v * s

        assert noisy_scale(CVector([1j]), 2.0, Duck()) == CVector([2j])
        with pytest.raises(ConceptCheckError):
            noisy_scale(CVector([1j]), 2.0, Dog())

    def test_single_param_name_as_string(self):
        @where((Quackable, "d"))
        def speak(d):
            return d.quack()

        assert speak(Duck()) == "quack"
        assert constraints_of(speak) == ((Quackable, ("d",)),)

    def test_bad_positional_constraint_rejected(self):
        with pytest.raises(TypeError):
            @where(Quackable)  # bare concept: must be (Concept, params)
            def f(d):
                pass

    def test_two_registries_rejected(self):
        reg = ModelRegistry()
        with pytest.raises(TypeError):
            @where(reg, registry=reg, d=Quackable)
            def f(d):
                pass

    def test_registry_keyword(self):
        reg = ModelRegistry()

        @where((Quackable, ("d",)), registry=reg)
        def speak(d):
            return d.quack()

        assert speak(Duck()) == "quack"


class TestIntrospection:
    def test_constraints_of(self):
        @where(d=Quackable)
        def speak(d):
            return d.quack()

        cs = constraints_of(speak)
        assert cs == ((Quackable, ("d",)),)
        assert constraints_of(len) == ()

    def test_declaration_rendering(self):
        @where((VectorSpace, ("v", "s")))
        def axpy(v, s, w):
            return v * s + w

        decl = declaration_of(axpy)
        assert "axpy(v, s, w)" in decl
        assert "where v, s : Vector Space" in decl
