"""The rewrite engine: bottom-up, fixpoint, concept-guarded.

"While a traditional simplifier performs expression-level rewrites such as
x + 0 -> x when x is a built-in integer, Simplicissimus instead applies
rewrite rules based on the concepts of the data types."  The engine is
deliberately an *expression-level* transformer using only local information
(the paper: "Simplicissimus is limited to expression-level transformations
based only on local information") — global, flow-sensitive reasoning is
STLlint's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..concepts.algebra import AlgebraRegistry, algebra as default_algebra
from ..facts.properties import FactEnv
from ..trace import core as _trace
from .cost import savings as _savings
from .expr import Expr, TypeEnv, normalize, rebuild
from .rules import RewriteRule, RuleApplication, STANDARD_RULES


@dataclass
class RewriteResult:
    """The simplified expression plus an audit trail of rule firings.

    ``converged`` distinguishes a genuine fixpoint from a run cut off by
    ``max_passes`` — a non-converged result is still sound (every applied
    rule was concept-guarded) but may not be fully simplified, and
    :meth:`report` says so instead of passing it off as finished.
    """

    expr: Expr
    applications: list[RuleApplication] = field(default_factory=list)
    passes: int = 0
    converged: bool = True

    @property
    def changed(self) -> bool:
        return bool(self.applications)

    @property
    def total_savings(self) -> float:
        """Summed cost-model estimate across all applied rewrites."""
        return sum(a.savings for a in self.applications)

    def nodes_eliminated(self, original: Expr) -> int:
        """Nodes removed relative to ``original``, never negative: a
        rewrite that *grows* the expression (e.g. the generic inverse
        normalization introducing an ``IdentityOf`` node) eliminates
        nothing.  The signed quantity is :meth:`size_delta`."""
        return max(0, original.size() - self.expr.size())

    def size_delta(self, original: Expr) -> int:
        """Signed size change: negative when the rewrite shrank the
        expression, positive when it grew it."""
        return self.expr.size() - original.size()

    def report(self) -> str:
        head = (f"simplified in {self.passes} pass(es), "
                f"{len(self.applications)} rewrite(s):")
        if not self.converged:
            head = (f"did NOT converge within {self.passes} pass(es) "
                    f"({len(self.applications)} rewrite(s) applied; "
                    f"result may not be fully simplified):")
        lines = [head]
        for a in self.applications:
            extra = f"  (saves {a.savings:g})" if a.savings else ""
            lines.append(
                f"  [{a.rule} / {a.concept} @ {a.instance_type}] "
                f"{a.before}  ->  {a.after}{extra}"
            )
        if self.total_savings:
            lines.append(
                f"  estimated total savings: {self.total_savings:g} "
                f"weighted operation(s)"
            )
        return "\n".join(lines)


class Simplifier:
    """A rule set bound to an algebra registry.

    ``extend`` registers additional (library-specific) rules; extension
    rules run *before* the generic ones so specializations like LiDIA's
    ``1.0/f -> f.Inverse()`` win over the generic inverse normalization.
    """

    def __init__(
        self,
        rules: Sequence[RewriteRule] = STANDARD_RULES,
        registry: Optional[AlgebraRegistry] = None,
        max_passes: int = 32,
        weights: Optional[dict] = None,
    ) -> None:
        self.library_rules: list[RewriteRule] = []
        self.generic_rules: list[RewriteRule] = list(rules)
        self.registry = registry if registry is not None else default_algebra
        self.max_passes = max_passes
        # Extra cost-model weights (e.g. cost.taxonomy_weights(n)) merged
        # over the defaults when estimating each rewrite's savings.
        self.weights = weights

    def extend(self, rule: RewriteRule) -> RewriteRule:
        """Register a user/library rule (Section 3.2's extension point)."""
        self.library_rules.append(rule)
        return rule

    @property
    def rules(self) -> list[RewriteRule]:
        return self.library_rules + self.generic_rules

    def simplify(
        self,
        expr: Expr,
        tenv: Optional[TypeEnv] = None,
        pre_normalize: bool = True,
        fenv: Optional[FactEnv] = None,
    ) -> RewriteResult:
        """Rewrite to fixpoint (or ``max_passes``, reported as
        ``converged=False`` on the result).

        ``fenv`` supplies STLlint-derived facts (subject → property set)
        for property-guarded rules; without one, such rules never fire.
        """
        tenv = tenv or {}
        tr = _trace.ACTIVE
        if tr is None:
            return self._simplify(expr, tenv, pre_normalize, None, fenv)
        with tr.span("rewrite.simplify", cat="rewrite",
                     expr=str(expr)) as outer:
            result = self._simplify(expr, tenv, pre_normalize, tr, fenv)
            outer.set("passes", result.passes)
            outer.set("rewrites", len(result.applications))
            outer.set("converged", result.converged)
        return result

    def _simplify(
        self,
        expr: Expr,
        tenv: TypeEnv,
        pre_normalize: bool,
        tr: Optional[_trace.Tracer],
        fenv: Optional[FactEnv],
    ) -> RewriteResult:
        if pre_normalize:
            expr = normalize(expr)
        applications: list[RuleApplication] = []
        passes = 0
        converged = False
        while passes < self.max_passes:
            passes += 1
            seen = len(applications)
            if tr is None:
                expr, changed = self._rewrite_once(
                    expr, tenv, applications, fenv
                )
            else:
                with tr.span("rewrite.pass", cat="rewrite",
                             number=passes) as sp:
                    expr, changed = self._rewrite_once(
                        expr, tenv, applications, fenv
                    )
                    for a in applications[seen:]:
                        tr.event(
                            "rewrite.rule", cat="rewrite", rule=a.rule,
                            concept=a.concept, instance=a.instance_type,
                            before=a.before, after=a.after,
                            savings=a.savings,
                        )
                    sp.set("rewrites", len(applications) - seen)
            if not changed:
                converged = True
                break
        if not converged and tr is not None:
            tr.event(
                "rewrite.max-passes-exhausted", cat="rewrite",
                max_passes=self.max_passes, expr=str(expr),
            )
        return RewriteResult(expr, applications, passes, converged)

    def _rewrite_once(
        self,
        node: Expr,
        tenv: TypeEnv,
        applications: list[RuleApplication],
        fenv: Optional[FactEnv] = None,
    ) -> tuple[Expr, bool]:
        changed = False
        kids = []
        for c in node.children():
            new_c, c_changed = self._rewrite_once(c, tenv, applications, fenv)
            kids.append(new_c)
            changed = changed or c_changed
        if changed:
            node = rebuild(node, kids)
        for rule in self.rules:
            if rule.requires_properties and not rule.properties_hold(node, fenv):
                continue
            out = rule.try_rewrite(node, tenv, self.registry)
            if out is not None:
                new_node, record = out
                record.savings = _savings(node, new_node, tenv, self.weights)
                applications.append(record)
                return new_node, True
        return node, changed


def simplify(expr: Expr, tenv: Optional[TypeEnv] = None) -> RewriteResult:
    """One-shot simplification with the standard Fig. 5 rule set."""
    return Simplifier().simplify(expr, tenv)
