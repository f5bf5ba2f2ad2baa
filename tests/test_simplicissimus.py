"""Tests for the concept-based rewriter: Fig. 5 rules, guards, normalization,
user extension (LiDIA), and the cost model."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.linalg  # declares the Matrix structures used below
from repro.linalg import Matrix
from repro.simplicissimus import (
    BinOp,
    Const,
    IdentityOf,
    Inverse,
    LambdaRule,
    LiDIAFloat,
    MethodCall,
    Simplifier,
    Var,
    cost,
    fig5_instances,
    fig5_table,
    lidia_simplifier,
    normalize,
    savings,
    simplify,
)

x = Var("x")


class TestEvaluation:
    def test_const_and_var(self):
        assert Const(7).evaluate({}) == 7
        assert Var("a").evaluate({"a": 3}) == 3

    def test_binop_through_algebra(self):
        e = BinOp("+", Var("a"), Var("b"))
        assert e.evaluate({"a": 2, "b": 3}) == 5
        e2 = BinOp("concat", Var("s"), Const("!"))
        assert e2.evaluate({"s": "hi"}) == "hi!"

    def test_inverse_evaluation(self):
        assert Inverse(Const(5), "+").evaluate({}) == -5
        assert Inverse(Const(4.0), "*").evaluate({}) == 0.25

    def test_identity_of_evaluation(self):
        assert IdentityOf(Const(3), "+").evaluate({}) == 0
        m = Matrix([[2.0, 0.0], [0.0, 2.0]])
        assert IdentityOf(Const(m), "@").evaluate({}).is_identity()

    def test_method_call(self):
        e = MethodCall(Var("f"), "Inverse")
        assert e.evaluate({"f": LiDIAFloat(2, 3)}) == LiDIAFloat(3, 2)

    def test_structural_equality(self):
        assert BinOp("+", x, Const(1)) == BinOp("+", Var("x"), Const(1))
        assert BinOp("+", x, Const(1)) != BinOp("+", x, Const(2))


class TestNormalization:
    def test_subtraction_becomes_inverse(self):
        n = normalize(BinOp("-", x, Var("y")))
        assert n == BinOp("+", x, Inverse(Var("y"), "+"))

    def test_unit_division_becomes_inverse(self):
        n = normalize(BinOp("/", Const(1.0), x))
        assert n == Inverse(x, "*")

    def test_general_division(self):
        n = normalize(BinOp("/", Var("a"), Var("b")))
        assert n == BinOp("*", Var("a"), Inverse(Var("b"), "*"))

    def test_matrix_inverse_method(self):
        n = normalize(MethodCall(Var("A"), "inverse"))
        assert n == Inverse(Var("A"), "@")


class TestFig5MonoidRule:
    """x + 0 -> x for every Monoid model: the first row of Fig. 5."""

    @pytest.mark.parametrize("op,identity,typ", [
        ("+", 0, int),
        ("*", 1, int),
        ("*", 1.0, float),
        ("and", True, bool),
        ("&", -1, int),
        ("concat", "", str),
        ("*", Fraction(1), Fraction),
    ])
    def test_right_identity_fires(self, op, identity, typ):
        r = simplify(BinOp(op, x, Const(identity)), {"x": typ})
        assert r.expr == x
        assert r.applications[0].rule == "right-identity"
        assert r.applications[0].concept == "Monoid"

    def test_left_identity_fires(self):
        r = simplify(BinOp("+", Const(0), x), {"x": int})
        assert r.expr == x

    def test_matrix_identity(self):
        r = simplify(BinOp("@", Var("A"), IdentityOf(Var("A"), "@")),
                     {"A": Matrix})
        assert r.expr == Var("A")

    def test_non_identity_not_rewritten(self):
        r = simplify(BinOp("+", x, Const(1)), {"x": int})
        assert r.expr == BinOp("+", x, Const(1))
        assert not r.changed

    def test_wrong_op_identity_not_rewritten(self):
        # 1 is the identity of *, not of +.
        r = simplify(BinOp("+", x, Const(1)), {"x": int})
        assert not r.changed
        r2 = simplify(BinOp("*", x, Const(0)), {"x": int})
        assert not r2.changed

    def test_untyped_variable_blocks_rewrite(self):
        # Without a type there is no concept evidence; the guard must hold.
        r = simplify(BinOp("+", x, Const(0)), {})
        assert not r.changed

    def test_unknown_structure_blocks_rewrite(self):
        r = simplify(BinOp("sat+", x, Const(0)), {"x": int})
        assert not r.changed


class TestFig5GroupRule:
    """x + (-x) -> 0 for every Group model: the second row of Fig. 5."""

    def test_int_additive(self):
        r = simplify(BinOp("+", x, Inverse(x, "+")), {"x": int})
        assert r.expr == Const(0)
        assert r.applications[0].concept == "Group"

    def test_float_multiplicative_surface_form(self):
        # f * (1.0 / f): normalization then the group rule.
        r = simplify(BinOp("*", x, BinOp("/", Const(1.0), x)), {"x": float})
        assert r.expr == Const(1.0)

    def test_fraction(self):
        r = simplify(BinOp("*", x, Inverse(x, "*")), {"x": Fraction})
        assert r.expr == Const(Fraction(1))

    def test_matrix_inverse(self):
        r = simplify(BinOp("@", Var("A"), Inverse(Var("A"), "@")),
                     {"A": Matrix})
        assert r.expr == IdentityOf(Var("A"), "@")

    def test_left_inverse(self):
        r = simplify(BinOp("+", Inverse(x, "+"), x), {"x": int})
        assert r.expr == Const(0)

    def test_double_inverse(self):
        r = simplify(Inverse(Inverse(x, "+"), "+"), {"x": int})
        assert r.expr == x

    def test_monoid_only_type_not_grouped(self):
        # (int, *) is a Monoid but not a Group: the rule must not fire.
        r = simplify(BinOp("*", x, Inverse(x, "*")), {"x": int})
        assert r.expr != Const(1)

    def test_different_operands_not_rewritten(self):
        r = simplify(BinOp("+", x, Inverse(Var("y"), "+")),
                     {"x": int, "y": int})
        assert not r.changed


A, rat = Var("A"), Var("r")

#: One input per standard rule and per operand side, in STANDARD_RULES
#: order, with the full application record: (rule, concept, instance
#: type, op, before, after).
PINNED_REWRITES = [
    (BinOp("*", x, Const(1)), {"x": int},
     ("right-identity", "Monoid", "int", "*", "(x * 1)", "x")),
    (BinOp("@", A, IdentityOf(A, "@")), {"A": Matrix},
     ("right-identity", "Monoid", "Matrix", "@", "(A @ e[@](A))", "A")),
    (BinOp("concat", Const(""), x), {"x": str},
     ("left-identity", "Monoid", "str", "concat", "concat('', x)", "x")),
    (BinOp("@", IdentityOf(A, "@"), A), {"A": Matrix},
     ("left-identity", "Monoid", "Matrix", "@", "(e[@](A) @ A)", "A")),
    (BinOp("+", x, Inverse(x, "+")), {"x": int},
     ("right-inverse", "Group", "int", "+", "(x + inv[+](x))", "0")),
    (BinOp("@", A, Inverse(A, "@")), {"A": Matrix},
     ("right-inverse", "Group", "Matrix", "@", "(A @ inv[@](A))",
      "e[@](A)")),
    (BinOp("*", Inverse(rat, "*"), rat), {"r": Fraction},
     ("left-inverse", "Group", "Fraction", "*", "(inv[*](r) * r)",
      "Fraction(1, 1)")),
    (BinOp("@", Inverse(A, "@"), A), {"A": Matrix},
     ("left-inverse", "Group", "Matrix", "@", "(inv[@](A) @ A)",
      "e[@](A)")),
    (Inverse(Inverse(x, "+"), "+"), {"x": int},
     ("double-inverse", "Group", "int", "+", "inv[+](inv[+](x))", "x")),
    (Inverse(Inverse(A, "@"), "@"), {"A": Matrix},
     ("double-inverse", "Group", "Matrix", "@", "inv[@](inv[@](A))", "A")),
]

#: Inputs no standard rule may rewrite: untyped variables (no concept
#: evidence, even beside a typed literal), identities and inverses of
#: another operator, and an inverse under a Monoid that is no Group.
PINNED_REFUSALS = [
    (BinOp("+", x, Const(0)), {}),
    (BinOp("+", Const(0), x), {}),
    (BinOp("+", x, Inverse(x, "+")), {}),
    (BinOp("+", Inverse(x, "+"), x), {}),
    (Inverse(Inverse(x, "+"), "+"), {}),
    (BinOp("+", x, IdentityOf(x, "*")), {"x": int}),
    (BinOp("*", IdentityOf(x, "+"), x), {"x": int}),
    (IdentityOf(x, "+"), {"x": int}),
    (BinOp("*", rat, Inverse(rat, "+")), {"r": Fraction}),
    (Inverse(Inverse(rat, "*"), "+"), {"r": Fraction}),
    (BinOp("*", x, Inverse(x, "*")), {"x": int}),
]


class TestPinnedRewrites:
    """The standard rules' observable behaviour, record by record."""

    def test_table_follows_standard_rule_order(self):
        from repro.simplicissimus import STANDARD_RULES

        names = list(dict.fromkeys(rec[0] for _, _, rec in PINNED_REWRITES))
        assert names == [rule.name for rule in STANDARD_RULES]

    @pytest.mark.parametrize("expr,tenv,record", PINNED_REWRITES,
                             ids=[str(e) for e, _, _ in PINNED_REWRITES])
    def test_application_record(self, expr, tenv, record):
        result = simplify(expr, tenv)
        assert [(a.rule, a.concept, a.instance_type, a.op, a.before, a.after)
                for a in result.applications] == [record]
        assert str(result.expr) == record[-1]

    @pytest.mark.parametrize("expr,tenv", PINNED_REFUSALS,
                             ids=[str(e) for e, _ in PINNED_REFUSALS])
    def test_no_rule_fires(self, expr, tenv):
        assert not simplify(expr, tenv).changed


class TestRewriterEngine:
    def test_nested_fixpoint(self):
        # ((x + 0) * 1) + (-((x + 0) * 1)) -> 0 takes several passes.
        inner = BinOp("*", BinOp("+", x, Const(0)), Const(1))
        e = BinOp("+", inner, Inverse(inner, "+"))
        r = simplify(e, {"x": int})
        assert r.expr == Const(0)

    def test_rewrite_preserves_semantics(self):
        inner = BinOp("*", BinOp("+", x, Const(0)), Const(1))
        e = BinOp("+", inner, Inverse(inner, "+"))
        r = simplify(e, {"x": int})
        for v in (-3, 0, 17):
            assert e.evaluate({"x": v}) == r.expr.evaluate({"x": v})

    @given(st.integers(), st.integers())
    def test_semantics_preserved_property(self, a, b):
        e = BinOp("+", BinOp("*", Var("a"), Const(1)),
                  BinOp("+", Var("b"), Const(0)))
        r = simplify(e, {"a": int, "b": int})
        env = {"a": a, "b": b}
        assert e.evaluate(env) == r.expr.evaluate(env)
        assert r.expr.size() < e.size()

    def test_report_mentions_rule_and_concept(self):
        r = simplify(BinOp("*", x, Const(1)), {"x": int})
        text = r.report()
        assert "right-identity" in text
        assert "Monoid" in text
        assert "int" in text

    def test_pass_limit_respected(self):
        s = Simplifier(max_passes=1)
        inner = BinOp("+", x, Const(0))
        e = BinOp("+", inner, Const(0))
        r = s.simplify(e, {"x": int})
        assert r.passes <= 1


class TestNewModelGetsRulesForFree:
    """Fig. 5 advantage 3: 'optimization via concept-based rewrite rules
    comes essentially for free' for new data types."""

    def test_new_type_picks_up_both_rules(self):
        from repro.concepts.algebra import AlgebraicStructure, AlgebraRegistry, Group

        class Mod7(int):
            pass

        reg = AlgebraRegistry()
        reg.declare(AlgebraicStructure(
            Mod7, "+", Group, lambda a, b: Mod7((a + b) % 7),
            identity_value=Mod7(0), inverse=lambda a: Mod7((-a) % 7),
            samples=((Mod7(3), Mod7(5), Mod7(6)),),
        ))
        s = Simplifier(registry=reg)
        r1 = s.simplify(BinOp("+", x, Const(Mod7(0))), {"x": Mod7})
        assert r1.expr == x
        r2 = s.simplify(BinOp("+", x, Inverse(x, "+")), {"x": Mod7})
        assert r2.expr == Const(Mod7(0))


class TestLiDIA:
    def test_lidia_float_arithmetic(self):
        f = LiDIAFloat(6, 4)
        assert f == LiDIAFloat(3, 2)          # kept reduced
        assert f.Inverse() == LiDIAFloat(2, 3)
        assert f * f.Inverse() == LiDIAFloat(1)
        assert (1 / f) == f.Inverse()
        assert -f == LiDIAFloat(-3, 2)
        assert LiDIAFloat(-3, 2).Inverse() == LiDIAFloat(-2, 3)

    def test_zero_handling(self):
        with pytest.raises(ZeroDivisionError):
            LiDIAFloat(1, 0)
        with pytest.raises(ZeroDivisionError):
            LiDIAFloat(0).Inverse()

    def test_library_rule_specializes_division(self):
        s = lidia_simplifier()
        r = s.simplify(BinOp("/", Const(1.0), Var("f")), {"f": LiDIAFloat})
        assert r.expr == MethodCall(Var("f"), "Inverse")

    def test_library_rule_wins_over_generic_normalization(self):
        # Without the library rule, 1.0/f normalizes to Inverse(f, '*');
        # with it, the specialized method call is produced instead.
        plain = Simplifier()
        r_plain = plain.simplify(BinOp("/", Const(1.0), Var("f")),
                                 {"f": LiDIAFloat})
        assert r_plain.expr == Inverse(Var("f"), "*")
        s = lidia_simplifier()
        r = s.simplify(BinOp("/", Const(1.0), Var("f")), {"f": LiDIAFloat})
        assert r.expr == MethodCall(Var("f"), "Inverse")

    def test_specialized_form_cheaper(self):
        tenv = {"f": LiDIAFloat}
        generic = BinOp("/", Const(1.0), Var("f"))
        special = MethodCall(Var("f"), "Inverse")
        assert cost(special, tenv) < cost(generic, tenv)

    def test_rules_do_not_leak_to_other_types(self):
        s = lidia_simplifier()
        r = s.simplify(BinOp("/", Const(1.0), Var("f")), {"f": float})
        assert r.expr == Inverse(Var("f"), "*")  # generic path, no MethodCall


class TestFig5Table:
    def test_papers_ten_instances_present(self):
        renderings = {i.rendering for i in fig5_instances()}
        required = {
            "i*1 -> i", "f*1.0 -> f", "b and True -> b",
            "i&0xFFF..F -> i", "s concat '' -> s", "A@I -> A",
            "i+(-i) -> 0", "f*(1/f) -> 1.0", "A@A^-1 -> I",
        }
        missing = required - renderings
        assert not missing, missing
        # the rational instance (r * r^-1 -> 1)
        assert any(i.type_name == "Fraction" and i.concept == "Group"
                   for i in fig5_instances())

    def test_two_rules_many_instances(self):
        instances = fig5_instances()
        assert len({i.rule for i in instances}) == 2
        assert len(instances) >= 10

    def test_table_renders(self):
        text = fig5_table()
        assert "Monoid" in text
        assert "Group" in text
        assert "2 concept-based rules" in text


class TestCostModel:
    def test_savings_positive_for_rewrites(self):
        tenv = {"A": Matrix}
        before = BinOp("@", Var("A"), IdentityOf(Var("A"), "@"))
        after = simplify(before, tenv).expr
        assert savings(before, after, tenv) > 0

    def test_matrix_ops_cost_more_than_int(self):
        assert cost(BinOp("@", Var("A"), Var("B")), {"A": Matrix}) > \
            cost(BinOp("+", Var("a"), Var("b")), {"a": int})

    def test_leaves_are_free(self):
        assert cost(Var("x")) == 0
        assert cost(Const(3)) == 0


class TestConvergenceReporting:
    """PR 3 regression: hitting max_passes must not masquerade as a
    reached fixpoint."""

    def _oscillating_simplifier(self, max_passes=4):
        flip = LambdaRule(
            matcher=lambda node, tenv, reg:
                Const(2) if node == Const(1) else None,
            name="flip-1-to-2",
        )
        flop = LambdaRule(
            matcher=lambda node, tenv, reg:
                Const(1) if node == Const(2) else None,
            name="flop-2-to-1",
        )
        return Simplifier(rules=(flip, flop), max_passes=max_passes)

    def test_oscillating_rules_reported_as_not_converged(self):
        s = self._oscillating_simplifier(max_passes=4)
        res = s.simplify(Const(1))
        assert res.converged is False
        assert res.passes == 4
        assert len(res.applications) == 4  # one flip/flop per pass
        assert "NOT converge" in res.report()

    def test_oscillation_emits_trace_event(self):
        from repro import trace

        t = trace.enable(trace.Tracer())
        try:
            res = self._oscillating_simplifier(max_passes=3).simplify(
                Const(1))
        finally:
            trace.disable()
        assert res.converged is False
        exhausted = [r for r in t.records
                     if r["name"] == "rewrite.max-passes-exhausted"]
        assert len(exhausted) == 1
        assert exhausted[0]["attrs"]["max_passes"] == 3

    def test_fixpoint_still_reports_converged(self):
        res = simplify(BinOp("+", x, Const(0)), tenv={"x": int})
        assert res.converged is True
        assert "NOT" not in res.report()


class TestGrowingRewriteSizeSemantics:
    """PR 3 regression: a rewrite that grows the expression must not
    report a negative elimination count."""

    def _grow(self):
        # An inverse-normalization-style rule: one Var node becomes a
        # three-node tree.
        grow = LambdaRule(
            matcher=lambda node, tenv, reg:
                BinOp("+", Var("y"), Const(0)) if node == Var("g") else None,
            name="grow",
        )
        s = Simplifier(rules=(grow,))
        original = Var("g")
        return original, s.simplify(original)

    def test_nodes_eliminated_clamped_at_zero(self):
        original, res = self._grow()
        assert res.changed
        assert res.expr.size() > original.size()
        assert res.nodes_eliminated(original) == 0

    def test_size_delta_is_signed(self):
        original, res = self._grow()
        assert res.size_delta(original) == 2  # 1 node -> 3 nodes

    def test_shrinking_rewrite_keeps_positive_elimination(self):
        original = BinOp("+", BinOp("+", x, Const(0)), Const(0))
        res = simplify(original, tenv={"x": int})
        assert res.nodes_eliminated(original) == 4
        assert res.size_delta(original) == -4


class TestPropertyGuardedRules:
    """PR 4: rules can require STLlint-derived *properties* on top of
    concept membership — both refusal paths must hold."""

    def _find_call(self):
        from repro.simplicissimus import Call

        return Call("find", (Var("v"), Var("key")))

    def _simplifier(self):
        from repro.simplicissimus import SortedFindRule

        return Simplifier(rules=(SortedFindRule(),))

    def test_fires_when_property_holds(self):
        from repro.facts import FactEnv

        s = self._simplifier()
        r = s.simplify(self._find_call(),
                       fenv=FactEnv({"v": {"sorted"}}))
        assert str(r.expr) == "lower_bound(v, key)"
        assert r.applications[0].rule == "sorted-find-to-lower-bound"
        assert r.applications[0].properties == ("sorted",)

    def test_refuses_without_fact_environment(self):
        # Refusal path 1: no facts at all — the rule must never fire on
        # concept/type information alone.
        r = self._simplifier().simplify(self._find_call())
        assert str(r.expr) == "find(v, key)"
        assert not r.applications

    def test_refuses_when_property_absent(self):
        # Refusal path 2: facts exist but sortedness does not hold.
        from repro.facts import FactEnv

        r = self._simplifier().simplify(
            self._find_call(), fenv=FactEnv({"v": {"heap"}}))
        assert str(r.expr) == "find(v, key)"
        assert not r.applications

    def test_implied_property_satisfies_the_guard(self):
        # strictly-sorted implies sorted: the guard consults the closure.
        from repro.facts import FactEnv

        r = self._simplifier().simplify(
            self._find_call(), fenv=FactEnv({"v": {"strictly-sorted"}}))
        assert str(r.expr) == "lower_bound(v, key)"

    def test_concept_rules_unaffected_by_fenv(self):
        # Plain concept-guarded rules keep working whether or not a fact
        # environment is supplied.
        from repro.facts import FactEnv

        r = simplify(BinOp("*", x, Const(1)), {"x": int})
        s = Simplifier()
        r2 = s.simplify(BinOp("*", x, Const(1)), {"x": int},
                        fenv=FactEnv())
        assert r.expr == r2.expr == x


class TestTaxonomySavings:
    """PR 4 satellite: cost.savings() priced from taxonomy complexity
    data surfaces on RuleApplication and in report()."""

    def _rewrite(self, n=1000.0):
        from repro.facts import FactEnv
        from repro.simplicissimus import Call, SortedFindRule, taxonomy_weights

        s = Simplifier(rules=(SortedFindRule(),),
                       weights=taxonomy_weights(n))
        return s.simplify(Call("find", (Var("v"), Var("key"))),
                          fenv=FactEnv({"v": {"sorted"}}))

    def test_savings_positive_and_asymptotic(self):
        r = self._rewrite()
        app = r.applications[0]
        # O(n) -> O(log n) at n=1000: roughly n comparisons saved.
        assert app.savings == pytest.approx(1000.0, rel=0.02)
        assert r.total_savings == app.savings

    def test_report_mentions_savings(self):
        text = self._rewrite().report()
        assert "saves" in text
        assert "estimated total savings" in text

    def test_savings_scale_with_n(self):
        assert (self._rewrite(n=10_000.0).total_savings
                > self._rewrite(n=1000.0).total_savings)

    def test_default_weights_give_zero_savings(self):
        # Without taxonomy weights every call costs the same: the rewrite
        # still happens (soundness is the guard's job) but reports no win.
        from repro.facts import FactEnv
        from repro.simplicissimus import Call, SortedFindRule

        s = Simplifier(rules=(SortedFindRule(),))
        r = s.simplify(Call("find", (Var("v"), Var("key"))),
                       fenv=FactEnv({"v": {"sorted"}}))
        assert str(r.expr) == "lower_bound(v, key)"
        assert r.total_savings == 0
