#!/usr/bin/env python3
"""Simplicissimus: concept-based rewriting (paper Section 3.2, Fig. 5).

Regenerates the Fig. 5 instance table from the two generic rules, shows a
guarded non-rewrite (saturating addition is not a Group), demonstrates the
LiDIA-style user rule 1.0/f -> f.Inverse() with a timing comparison, and
shows a brand-new data type picking up both rules for free.

Run:  python examples/optimizer.py
"""

import timeit

import repro.linalg  # declares the Matrix structures (the A·I / A·A^-1 rows)
from repro.concepts.algebra import AlgebraicStructure, Group, algebra
from repro.simplicissimus import (
    BinOp,
    Const,
    Inverse,
    LiDIAFloat,
    Var,
    fig5_table,
    lidia_simplifier,
    simplify,
)

print("=== Fig. 5, regenerated from two generic rules ===")
print(fig5_table())

print("\n=== A few rewrites, end to end ===")
x = Var("x")
for expr, tenv in [
    (BinOp("*", x, Const(1)), {"x": int}),
    (BinOp("*", x, BinOp("/", Const(1.0), x)), {"x": float}),
    (BinOp("concat", x, Const("")), {"x": str}),
    (BinOp("+", x, Inverse(x, "+")), {"x": int}),
]:
    r = simplify(expr, tenv)
    print(f"  {str(expr):32s} ->  {r.expr}")

print("\n=== The guard refuses unsound rewrites ===")
r = simplify(BinOp("sat+", x, Const(0)), {"x": int})
print(f"  saturating add: {r.expr}  (unchanged: no Monoid model declared)")

print("\n=== User-extensible library rules: LiDIA's Inverse() ===")
s = lidia_simplifier()
f = Var("f")
r = s.simplify(BinOp("/", Const(1.0), f), {"f": LiDIAFloat})
print("  1.0/f  ->", r.expr)

big = LiDIAFloat(123456789012345678901234567, 987654321098765432109876541)
t_div = min(timeit.repeat(lambda: LiDIAFloat(1) / big, number=2000, repeat=3))
t_inv = min(timeit.repeat(lambda: big.Inverse(), number=2000, repeat=3))
print(f"  generic 1/f : {t_div * 1e6 / 2000:8.2f} us/op  (re-reduces via gcd)")
print(f"  f.Inverse() : {t_inv * 1e6 / 2000:8.2f} us/op  (swap, no gcd)")
print(f"  specialization speedup: {t_div / t_inv:.1f}x")

print("\n=== A new model gets every rule for free ===")


class Mod97(int):
    """Arithmetic mod 97 — declared once, optimized everywhere."""

    def __new__(cls, v):
        return super().__new__(cls, v % 97)


algebra.declare(AlgebraicStructure(
    Mod97, "+", Group, lambda a, b: Mod97(a + b),
    identity_value=Mod97(0), inverse=lambda a: Mod97(-a),
    samples=((Mod97(3), Mod97(50), Mod97(96)),),
))
r1 = simplify(BinOp("+", x, Const(Mod97(0))), {"x": Mod97})
r2 = simplify(BinOp("+", x, Inverse(x, "+")), {"x": Mod97})
print("  x + 0      ->", r1.expr)
print("  x + (-x)   ->", r2.expr)
print("  (no Mod97-specific rules were written)")
