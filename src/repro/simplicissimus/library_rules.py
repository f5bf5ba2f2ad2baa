"""User-extensible, library-specific rewrite rules (Section 3.2).

"These rules are often library specific, incorporating some degree of
domain knowledge and often specializing general expressions to specific
function calls.  For instance, an arbitrary-precision floating point number
f can be inverted via the expression 1.0/f, but high-performance numerical
libraries such as LiDIA often provide a more-efficient Inverse() function.
The author of LiDIA would therefore introduce the rewrite rule
1.0/f -> f.Inverse() whenever f is a LiDIA data type."

:class:`LiDIAFloat` stands in for LiDIA's arbitrary-precision reals: an
exact rational kept in lowest terms.  Generic division must re-reduce
(a gcd per operation); ``Inverse()`` just swaps numerator and denominator —
already coprime, no gcd — which is the genuine algorithmic reason the
specialized call is faster.
"""

from __future__ import annotations

import math
from typing import Optional

from ..concepts.algebra import (
    AlgebraicStructure,
    AlgebraRegistry,
    Group,
    algebra as default_algebra,
)
from .expr import BinOp, Const, Expr, Inverse, MethodCall, TypeEnv, Var
from .rules import LambdaRule
from .rewriter import Simplifier


class LiDIAFloat:
    """Arbitrary-precision exact real: numerator/denominator in lowest
    terms (the stand-in for LiDIA's bigfloat)."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1) -> None:
        if den == 0:
            raise ZeroDivisionError("LiDIAFloat with zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        self.num = num
        self.den = den

    # -- generic arithmetic (each op pays a gcd to stay reduced) -------------

    def __mul__(self, other: "LiDIAFloat") -> "LiDIAFloat":
        return LiDIAFloat(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "LiDIAFloat") -> "LiDIAFloat":
        if isinstance(other, LiDIAFloat):
            return LiDIAFloat(self.num * other.den, self.den * other.num)
        return NotImplemented

    def __rtruediv__(self, other) -> "LiDIAFloat":
        if other in (1, 1.0):
            return self.Inverse()
        return NotImplemented

    def __add__(self, other: "LiDIAFloat") -> "LiDIAFloat":
        return LiDIAFloat(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "LiDIAFloat":
        return LiDIAFloat(-self.num, self.den)

    # -- the specialized operation the library rule targets --------------------

    def Inverse(self) -> "LiDIAFloat":
        """O(1) inversion: operands are already coprime, so swapping
        numerator and denominator needs no gcd."""
        if self.num == 0:
            raise ZeroDivisionError("Inverse of zero")
        out = LiDIAFloat.__new__(LiDIAFloat)
        if self.num < 0:
            out.num, out.den = -self.den, -self.num
        else:
            out.num, out.den = self.den, self.num
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LiDIAFloat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"LiDIAFloat({self.num}/{self.den})"


def declare_lidia(registry: AlgebraRegistry = default_algebra) -> None:
    """Declare ``(LiDIAFloat, '*')`` as a Group so the generic Fig. 5 rules
    apply to it too."""
    if registry.lookup(LiDIAFloat, "*") is None:
        registry.declare(AlgebraicStructure(
            LiDIAFloat, "*", Group, lambda a, b: a * b,
            identity_value=LiDIAFloat(1),
            inverse=lambda a: a.Inverse(),
            samples=(
                (LiDIAFloat(2, 3), LiDIAFloat(5, 7), LiDIAFloat(-4, 9)),
                (LiDIAFloat(1), LiDIAFloat(12, 5), LiDIAFloat(3)),
            ),
        ))


def lidia_inverse_rule() -> LambdaRule:
    """The paper's rule: ``1.0/f -> f.Inverse()`` whenever f is a LiDIA
    data type.  Matches both the surface division form and the normalized
    ``Inverse(f, '*')`` node."""

    def matcher(node: Expr, tenv: TypeEnv,
                registry: AlgebraRegistry) -> Optional[Expr]:
        # Surface form 1.0 / f:
        if (
            isinstance(node, BinOp)
            and node.op == "/"
            and isinstance(node.left, Const)
            and node.left.value in (1, 1.0)
            and node.right.typeof(tenv) is LiDIAFloat
        ):
            return MethodCall(node.right, "Inverse")
        # Normalized form:
        if (
            isinstance(node, Inverse)
            and node.op == "*"
            and node.operand.typeof(tenv) is LiDIAFloat
            and not isinstance(node.operand, Inverse)
        ):
            return MethodCall(node.operand, "Inverse")
        return None

    return LambdaRule(
        name="lidia-inverse",
        matcher=matcher,
        doc="1.0/f -> f.Inverse() whenever f is a LiDIA data type",
    )


def lidia_simplifier(registry: AlgebraRegistry = default_algebra) -> Simplifier:
    """A simplifier preloaded with the LiDIA specialization — what "the
    author of LiDIA would introduce"."""
    declare_lidia(registry)
    s = Simplifier(registry=registry)
    s.extend(lidia_inverse_rule())
    return s
