"""Experiment Fig-5: concept-based rewrite rules.

Regenerates Fig. 5's table (2 generic rules -> all concrete instances),
asserts the paper's ten instances are all induced, verifies each rewrite is
semantics-preserving and cost-reducing, measures rule economy (adding a new
Monoid/Group model adds rewrites with zero new rules), and times
simplification + evaluation speedups.
"""

from fractions import Fraction

import pytest

import repro.linalg  # declares Matrix structures
from repro.linalg import Matrix
from repro.simplicissimus import (
    STANDARD_RULES,
    BinOp,
    Const,
    EquationRule,
    IdentityOf,
    Inverse,
    Simplifier,
    Var,
    cost,
    fig5_instances,
    fig5_table,
    simplify,
)

x = Var("x")

#: (expr, type env, expected result check) — the paper's instances.
PAPER_INSTANCES = [
    ("i*1 -> i", BinOp("*", x, Const(1)), {"x": int}, x),
    ("f*1.0 -> f", BinOp("*", x, Const(1.0)), {"x": float}, x),
    ("b and True -> b", BinOp("and", x, Const(True)), {"x": bool}, x),
    ("i & ~0 -> i", BinOp("&", x, Const(-1)), {"x": int}, x),
    ('concat(s, "") -> s', BinOp("concat", x, Const("")), {"x": str}, x),
    ("A @ I -> A", BinOp("@", x, IdentityOf(x, "@")), {"x": Matrix}, x),
    ("i + (-i) -> 0", BinOp("+", x, Inverse(x, "+")), {"x": int}, Const(0)),
    ("f * (1.0/f) -> 1.0", BinOp("*", x, BinOp("/", Const(1.0), x)),
     {"x": float}, Const(1.0)),
    ("r * r^-1 -> 1", BinOp("*", x, Inverse(x, "*")), {"x": Fraction},
     Const(Fraction(1))),
    ("A @ A^-1 -> I", BinOp("@", x, Inverse(x, "@")), {"x": Matrix},
     IdentityOf(x, "@")),
]


def test_fig5_table(benchmark, record):
    record("fig5_rewrites", fig5_table())
    instances = fig5_instances()
    assert len({i.rule for i in instances}) == 2       # two generic rules
    assert len(instances) >= 10                        # >= the paper's ten
    # Each standard rule is an admitted axiom or theorem, not a matcher.
    assert all(isinstance(r, EquationRule) for r in STANDARD_RULES)
    benchmark(fig5_instances)


@pytest.mark.parametrize("label,expr,tenv,expected",
                         PAPER_INSTANCES, ids=[p[0] for p in PAPER_INSTANCES])
def test_fig5_instance_rewrites(benchmark, label, expr, tenv, expected):
    result = simplify(expr, tenv)
    assert result.expr == expected, label
    # Every rewrite strictly reduces the cost model.
    assert cost(result.expr, tenv) < cost(expr, tenv)
    benchmark(lambda: simplify(expr, tenv))


def test_fig5_rule_economy(benchmark, record):
    """Advantage 3: a new model needs zero new rules."""
    from repro.concepts.algebra import AlgebraicStructure, AlgebraRegistry, Group

    class Gf17(int):
        pass

    reg = AlgebraRegistry()
    before = len([i for i in fig5_instances(reg)])
    reg.declare(AlgebraicStructure(
        Gf17, "+", Group, lambda a, b: Gf17((a + b) % 17),
        identity_value=Gf17(0), inverse=lambda a: Gf17(-a % 17),
        samples=((Gf17(3), Gf17(11), Gf17(16)),),
    ))
    after = len([i for i in fig5_instances(reg)])
    assert after == before + 2  # one Monoid + one Group instance, no new rules
    s = Simplifier(registry=reg)
    assert s.simplify(BinOp("+", x, Const(Gf17(0))), {"x": Gf17}).expr == x
    record("fig5_economy",
           f"declaring one new Group model added {after - before} rewrite "
           f"instances and 0 rules")
    benchmark(lambda: fig5_instances(reg))


def test_fig5_guard_blocks_nonmodels(benchmark):
    """Ablation: without concept guards the inverse rule would corrupt
    saturating arithmetic; with them it never fires."""
    r = simplify(BinOp("sat+", x, Const(0)), {"x": int})
    assert not r.changed
    r2 = simplify(BinOp("*", x, Inverse(x, "*")), {"x": int})  # int* is no Group
    assert r2.expr != Const(1)
    benchmark(lambda: simplify(BinOp("sat+", x, Const(0)), {"x": int}))


def test_fig5_matrix_rewrite_saves_real_time(benchmark, record):
    """A @ A^-1 -> I eliminates an inversion and a multiply: measure it."""
    import numpy as np
    import timeit

    rng = np.random.default_rng(3)
    A = Matrix(rng.standard_normal((120, 120)) + np.eye(120) * 5)
    expr = BinOp("@", Var("A"), Inverse(Var("A"), "@"))
    tenv = {"A": Matrix}
    simplified = simplify(expr, tenv).expr
    t_orig = min(timeit.repeat(lambda: expr.evaluate({"A": A}),
                               number=5, repeat=3))
    t_simpl = min(timeit.repeat(lambda: simplified.evaluate({"A": A}),
                                number=5, repeat=3))
    record("fig5_matrix_speedup",
           f"A@A^-1: original {t_orig * 1e3 / 5:.2f} ms -> simplified "
           f"{t_simpl * 1e3 / 5:.2f} ms ({t_orig / t_simpl:.0f}x)")
    assert t_simpl < t_orig
    benchmark(lambda: simplified.evaluate({"A": A}))


def test_fig5_deep_expression_fixpoint(benchmark):
    """Nested redundancy is eliminated to fixpoint."""
    inner = BinOp("*", BinOp("+", x, Const(0)), Const(1))
    expr = BinOp("+", inner, Inverse(inner, "+"))
    result = benchmark(lambda: simplify(expr, {"x": int}))
    assert result.expr == Const(0)
