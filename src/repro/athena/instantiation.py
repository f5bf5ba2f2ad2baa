"""Instantiating generic theories and proofs for concrete models.

This is the bridge between the proof layer and the modeling layer: an
:class:`~repro.concepts.algebra.AlgebraicStructure` (say, ``(int, +)``)
gets its own operator-mapping signature (symbols ``int.+``, ``int.e``,
``int.inv``), the generic group proofs are *checked* against the
instantiated axioms, and the resulting theorems are additionally evaluated
on the structure's sample values — so a declared model gets both a
deductive certificate (the theorem follows from the axioms) and an
empirical one (the axioms, hence the theorem, hold on the samples).

"The proofs needed in semantic concept-checking are thus supplied by
library component developers along with the specified concept requirements
of the components.  Therefore the language processor must only do proof
checking, not proof search."
"""

from __future__ import annotations

from dataclasses import dataclass

from ..concepts.algebra import AlgebraicStructure, law_axiom
from ..concepts.modeling import sample_axioms
from .proofs.group_theory import prove_group_theorems
from .props import Prop
from .theories import GroupSig


def sig_for_structure(s: AlgebraicStructure) -> GroupSig:
    """A per-instance operator mapping: symbols are tagged with the model
    so different instances' theorems cannot be confused."""
    tag = f"{s.typ.__name__}.{s.op_symbol}"
    return GroupSig(op=tag, e=f"{tag}.e", inv=f"{tag}.inv")


@dataclass
class InstanceReport:
    """Result of instantiating the group theory for one model."""

    structure: AlgebraicStructure
    theorems: dict[str, Prop]
    proof_steps: int
    samples_checked: int
    empirical_ok: bool

    def render(self) -> str:
        name = f"({self.structure.typ.__name__}, '{self.structure.op_symbol}')"
        lines = [f"instance {name}: {self.proof_steps} checked deduction steps"]
        for title, thm in self.theorems.items():
            lines.append(f"  theorem [{title}]: {thm}")
        lines.append(
            f"  empirical check on {self.samples_checked} sample "
            f"assignment(s): {'ok' if self.empirical_ok else 'FAILED'}"
        )
        return "\n".join(lines)


def instantiate_group_proofs(s: AlgebraicStructure) -> InstanceReport:
    """The paper's reuse story in one call: the generic proofs are checked
    against this instance's axioms, then the theorems are evaluated on the
    instance's samples."""
    if s.inverse is None:
        raise ValueError(
            f"({s.typ.__name__}, '{s.op_symbol}') declares no inverse; "
            f"the group proofs do not apply"
        )
    sig = sig_for_structure(s)
    pf, theorems = prove_group_theorems(sig)
    failures = sample_axioms(
        s.concept.name, [law_axiom(t, thm) for t, thm in theorems.items()],
        s.ops(sig), s.samples, raise_on_failure=False)
    return InstanceReport(s, theorems, pf.steps,
                          len(theorems) * len(s.samples), not failures)
