"""Simplicissimus: concept-based expression rewriting (Section 3.2).

Quick use::

    from repro.simplicissimus import Var, Const, simplify

    x = Var("x")
    result = simplify(x * Const(1), {"x": int})
    assert str(result.expr) == "x"        # (x, *) models Monoid
"""

from .cost import DEFAULT_WEIGHTS, cost, savings, taxonomy_weights
from .expr import (
    BinOp,
    Call,
    Const,
    Expr,
    IdentityOf,
    Inverse,
    MethodCall,
    Var,
    normalize,
    rebuild,
)
from .library_rules import (
    LiDIAFloat,
    declare_lidia,
    lidia_inverse_rule,
    lidia_simplifier,
)
from .rewriter import RewriteResult, Simplifier, simplify
from .rules import (
    STANDARD_RULES,
    EquationRule,
    LambdaRule,
    RewriteRule,
    RuleApplication,
    SortedFindRule,
)
from .standard_rules import Fig5Instance, fig5_instances, fig5_table

__all__ = [
    "BinOp", "Call", "Const", "Expr", "IdentityOf", "Inverse", "MethodCall",
    "Var", "normalize", "rebuild",
    "RewriteRule", "EquationRule", "LambdaRule", "RuleApplication",
    "SortedFindRule", "STANDARD_RULES",
    "Simplifier", "RewriteResult", "simplify",
    "LiDIAFloat", "declare_lidia", "lidia_inverse_rule", "lidia_simplifier",
    "cost", "savings", "DEFAULT_WEIGHTS", "taxonomy_weights",
    "Fig5Instance", "fig5_instances", "fig5_table",
]
