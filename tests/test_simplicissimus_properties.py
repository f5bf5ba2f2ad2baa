"""Property-based tests for the rewriter: on randomly generated expression
trees, simplification must preserve semantics and never grow the tree.

The execution oracle at the end checks the standard rule set against
ground truth: on seeded random trees over every registered exact model,
at the models' own samples and at edge values, the simplified tree
evaluates to what the original does or raises what it raises; on a look-alike
that models no concept (saturating addition) nothing fires; and an
equation that is neither an axiom nor a proved theorem of the guarding
concept is refused when the rule is built.
"""

import functools
import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.athena import (
    GroupSig,
    Var as TermVar,
    equals,
    forall,
    group_axioms,
    monoid_axioms,
    prove_group_theorems,
)
from repro.concepts.algebra import (
    AbelianGroup,
    AlgebraicStructure,
    AlgebraRegistry,
    Group,
    Magma,
    Monoid,
    algebra,
)
from repro.simplicissimus import (
    STANDARD_RULES,
    BinOp,
    Const,
    EquationRule,
    Expr,
    IdentityOf,
    Inverse,
    Simplifier,
    Var,
    simplify,
)

TENV = {"x": int, "y": int, "z": int}
VARS = ["x", "y", "z"]


def exprs(max_depth: int = 4) -> st.SearchStrategy[Expr]:
    """Random int-typed expression trees over +, *, unary negation, and
    identity constants (so rewrites actually fire)."""
    leaves = st.one_of(
        st.sampled_from(VARS).map(Var),
        st.sampled_from([0, 1, -1, 2, 7]).map(Const),
    )

    def extend(children: st.SearchStrategy[Expr]) -> st.SearchStrategy[Expr]:
        return st.one_of(
            st.tuples(st.sampled_from(["+", "*"]), children, children)
            .map(lambda t: BinOp(t[0], t[1], t[2])),
            children.map(lambda e: Inverse(e, "+")),
        )

    return st.recursive(leaves, extend, max_leaves=2 ** max_depth)


@given(exprs(), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50))
@settings(max_examples=150)
def test_simplify_preserves_semantics(expr, x, y, z):
    env = {"x": x, "y": y, "z": z}
    simplified = simplify(expr, TENV).expr
    assert expr.evaluate(env) == simplified.evaluate(env)


@given(exprs())
@settings(max_examples=150)
def test_simplify_never_grows(expr):
    from repro.simplicissimus import normalize

    result = simplify(expr, TENV)
    assert result.expr.size() <= normalize(expr).size()


@given(exprs())
@settings(max_examples=100)
def test_simplify_is_idempotent(expr):
    once = simplify(expr, TENV)
    twice = simplify(once.expr, TENV, )
    assert twice.expr == once.expr


@given(exprs(), st.integers(-20, 20))
@settings(max_examples=100)
def test_untyped_env_never_rewrites_or_breaks(expr, x):
    # With no type information the guard blocks every rule; evaluation of
    # the unchanged tree still works.
    result = simplify(expr, {})
    env = {"x": x, "y": 1, "z": 2}
    assert result.expr.evaluate(env) == expr.evaluate(env)


# ---------------------------------------------------------------------------
# Execution oracle for the standard rule set
# ---------------------------------------------------------------------------

#: Every registered model whose arithmetic is exact, grouped by type: one
#: tree mixes a type's operators, so a rule must never join two of them.
EXACT_MODELS = {
    int: ("+", "*", "&", "|"),
    Fraction: ("+", "*"),
    bool: ("and", "or"),
    str: ("concat",),
}
NAMES = ("x", "y", "z")


def random_tree(rng, typ, ops, depth):
    """A random tree over ``typ``'s operators, with redexes planted: an
    operand beside an identity (literal or ``IdentityOf``), beside its own
    inverse, or under two inverses; and near misses beside them: an
    operand beside another one's inverse."""
    models = [algebra.lookup(typ, op) for op in ops]
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            return Var(rng.choice(NAMES))
        s = rng.choice(models)
        return Const(rng.choice([s.identity_value]
                                + [v for t in s.samples for v in t]))
    s = rng.choice(models)
    op = s.op_symbol
    sub = random_tree(rng, typ, ops, depth - 1)
    shapes = ["binop", "identity", "identity", "identity-of"]
    if s.inverse is not None:
        shapes += ["inverse", "inverse", "near-inverse", "double-inverse"]
    shape = rng.choice(shapes)
    if shape == "binop":
        return BinOp(op, sub, random_tree(rng, typ, ops, depth - 1))
    if shape == "identity":
        pair = [sub, Const(s.identity_value)]
    elif shape == "identity-of":
        pair = [sub, IdentityOf(random_tree(rng, typ, ops, depth - 1), op)]
    elif shape == "inverse":
        pair = [sub, Inverse(sub, op)]
    elif shape == "near-inverse":
        pair = [sub, Inverse(random_tree(rng, typ, ops, depth - 1), op)]
    else:
        return Inverse(Inverse(sub, op), op)
    rng.shuffle(pair)
    return BinOp(op, *pair)


#: Values the registry's samples avoid, by exact model: zero, where
#: ``(Fraction, *)`` has no inverse.  Float's edges (``-0.0``, ``inf``,
#: ``nan``) are in the reproducers below; float is no exact model.
EDGES = {int: (0,), Fraction: (Fraction(0),), bool: (), str: ()}

#: Why a rewrite may still change an outcome: the registry declares models
#: that break the laws their rules use.
HONEST_MODELS = ("ROADMAP item 12, models that satisfy their laws: the "
                 "registry declares (Fraction, *) and the float structures "
                 "Groups, but 0 has no inverse and float addition breaks "
                 "the laws at -0.0 and inf")


def sample_envs(typ, ops):
    """Variable bindings from the models' own axiom samples, then each
    sample again with ``x`` at an edge value."""
    samples = [t for op in ops for t in algebra.lookup(typ, op).samples]
    return [dict(zip(NAMES, t)) for t in samples] + [
        dict(zip(NAMES, (edge,) + t[1:]))
        for edge in EDGES[typ] for t in samples]


def outcome(tree, env):
    """What evaluating ``tree`` gives: its value, or the type of the
    exception it raises."""
    try:
        return tree.evaluate(env)
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return type(exc)


def raised(out):
    return isinstance(out, type) and issubclass(out, BaseException)


def same(a, b):
    """Equal outcomes: the same exception type, or equal values, where
    ``nan`` equals ``nan`` and ``-0.0`` differs from ``0.0``."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or (
            a == b and math.copysign(1.0, a) == math.copysign(1.0, b))
    return a == b


@functools.cache
def oracle(typ):
    """Simplify 150 seeded random trees over ``typ``'s models; the rules
    that fired, the number of environments, and one ``(tree, env,
    original outcome, simplified outcome)`` case per tree and
    environment."""
    rng = random.Random(2004)
    ops = EXACT_MODELS[typ]
    tenv = dict.fromkeys(NAMES, typ)
    envs = sample_envs(typ, ops)
    fired, cases = set(), []
    for _ in range(150):
        tree = random_tree(rng, typ, ops, depth=4)
        result = simplify(tree, tenv)
        assert result.converged
        fired |= {a.rule for a in result.applications}
        cases += [(str(tree), env, outcome(tree, env),
                   outcome(result.expr, env)) for env in envs]
    return fired, len(envs), cases


@pytest.mark.parametrize("typ", list(EXACT_MODELS),
                         ids=[t.__name__ for t in EXACT_MODELS])
def test_rewrites_preserve_value_on_exact_models(typ):
    fired, n_envs, cases = oracle(typ)
    valued = [case for case in cases if not raised(case[2])]
    for tree, env, want, got in valued:
        assert same(got, want), (tree, env)
    assert len(valued) > 100 * n_envs      # most trees have a value
    groups = any(algebra.models(typ, op, Group) for op in EXACT_MODELS[typ])
    assert fired == ({r.name for r in STANDARD_RULES} if groups
                     else {"right-identity", "left-identity"})


@pytest.mark.parametrize("typ", [
    pytest.param(t, marks=pytest.mark.xfail(strict=True, reason=HONEST_MODELS))
    if t is Fraction else t for t in EXACT_MODELS
], ids=[t.__name__ for t in EXACT_MODELS])
def test_rewrites_preserve_exceptions_on_exact_models(typ):
    _, _, cases = oracle(typ)
    for tree, env, want, got in cases:
        if raised(want):
            assert got is want, (tree, env)


R, X = Var("r"), Var("x")


@pytest.mark.xfail(strict=True, reason=HONEST_MODELS)
@pytest.mark.parametrize("typ,tree,env", [
    (Fraction, BinOp("*", R, Inverse(R, "*")), {"r": Fraction(0)}),
    (float, BinOp("+", X, Inverse(X, "+")), {"x": math.inf}),
    (float, BinOp("+", X, Const(0.0)), {"x": -0.0}),
], ids=["r*inv(r)-at-0", "x+inv(x)-at-inf", "x+0.0-at-minus-0.0"])
def test_rewrite_preserves_outcome_at_edge(typ, tree, env):
    result = simplify(tree, dict.fromkeys(env, typ))
    assert result.changed
    assert same(outcome(result.expr, env), outcome(tree, env))


def test_no_rule_fires_on_saturating_addition():
    cap = 10
    # Declared, but only as a Magma: 0 is no identity once x > cap.
    sat = AlgebraicStructure(int, "sat+", Magma,
                             lambda a, b: min(a + b, cap), identity_value=0)
    declared_weakly = AlgebraRegistry()
    declared_weakly.declare(sat)
    rng = random.Random(7)
    shapes = [
        lambda t: BinOp("sat+", t, Const(0)),
        lambda t: BinOp("sat+", Const(0), t),
        lambda t: BinOp("sat+", t, IdentityOf(t, "sat+")),
        lambda t: BinOp("sat+", t, Inverse(t, "sat+")),
        lambda t: BinOp("sat+", Inverse(t, "sat+"), t),
        lambda t: Inverse(Inverse(t, "sat+"), "sat+"),
    ]
    for registry in (AlgebraRegistry(), declared_weakly):
        simplifier = Simplifier(registry=registry)
        for _ in range(100):
            tree = Var(rng.choice(NAMES))
            for _ in range(rng.randrange(1, 4)):
                tree = rng.choice(shapes)(tree)
            result = simplifier.simplify(tree, dict.fromkeys(NAMES, int))
            assert not result.changed, str(tree)


SIG = GroupSig()
X = TermVar("x")


@pytest.mark.parametrize("requires,equation", [
    (Group, forall("x", equals(SIG.ap(X, SIG.inverse(X)), X))),
    (Monoid, group_axioms(SIG)["right inverse"]),
    (Monoid, prove_group_theorems(SIG)[1]["inverse involution"]),
    (Monoid, forall("x", equals(X, SIG.ap(X, SIG.identity())))),
    (Monoid, forall("x", equals(SIG.ap(X, SIG.identity()),
                                SIG.identity()))),
    (Group, monoid_axioms(GroupSig("+", "0", "neg"))["right identity"]),
    (AbelianGroup, group_axioms(SIG)["right identity"]),
], ids=["x*inv(x)=x", "group-law-under-monoid", "group-theorem-under-monoid",
        "reversed-identity", "absorbing-identity", "other-signature",
        "unlisted-concept"])
def test_mutant_equations_are_refused(requires, equation):
    with pytest.raises(ValueError, match="neither an axiom"):
        EquationRule("mutant", requires, equation)


def test_equations_compare_up_to_bound_variable_names():
    y = TermVar("y")
    rule = EquationRule("renamed", Monoid,
                        forall("y", equals(SIG.ap(y, SIG.identity()), y)))
    out = Simplifier(rules=(rule,)).simplify(BinOp("*", Var("a"), Const(1)),
                                             {"a": int})
    assert out.expr == Var("a")


def test_standard_rules_carry_their_axioms_and_theorems():
    theorems = prove_group_theorems(SIG)[1]
    expected = [
        ("right-identity", monoid_axioms(SIG)["right identity"]),
        ("left-identity", monoid_axioms(SIG)["left identity"]),
        ("right-inverse", group_axioms(SIG)["right inverse"]),
        ("left-inverse", theorems["left inverse"]),
        ("double-inverse", theorems["inverse involution"]),
    ]
    # pick_any proves each theorem over a fresh variable: compare bodies.
    assert [(r.name, r.equation.instantiate(X)) for r in STANDARD_RULES] == [
        (name, p.instantiate(X)) for name, p in expected]


def test_group_theorems_are_proved_once(monkeypatch):
    from repro.simplicissimus import rules

    def unreachable(sig):
        raise AssertionError("proved a second time")

    monkeypatch.setattr(rules, "prove_group_theorems", unreachable)
    theorem = prove_group_theorems(SIG)[1]["left inverse"]
    assert EquationRule("again", Group, theorem).name == "again"
