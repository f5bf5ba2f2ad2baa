"""Ring theory: the annihilation theorem ``x * 0 = 0``.

A showcase of cross-theory generic proof: the derivation uses the
*distributivity* axiom of the Ring together with group reasoning in the
additive component (cancellation via the additive inverse) — two theories
packaged as functions, composed by passing their operator mappings around,
exactly the organization Section 3.3 describes.
"""

from __future__ import annotations

from ..proof import Proof
from ..props import Prop
from ..terms import Var
from ..theories import RingSig, ring_axioms

HOLE = Var("HOLE")


def ring_session(sig: RingSig) -> Proof:
    return Proof(ring_axioms(sig).values())


def prove_mul_zero(pf: Proof, sig: RingSig) -> Prop:
    """Theorem: ∀x. x·0 = 0.

    Chain: x·0 = x·(0+0) = x·0 + x·0, then cancel one x·0 using the
    additive inverse.
    """
    a, m = sig.add, sig.mul
    # A law missing from the session's base fails the first step using it.
    laws = ring_axioms(sig)
    add_right_id = laws["right identity"]
    add_right_inv = laws["right inverse"]
    add_assoc = laws["associativity"]
    left_distrib = laws["distributivity"]

    zero = a.identity()

    def body(p: Proof, x: Var) -> Prop:
        t = m.ap(x, zero)                       # x*0
        # 1. t = x*(0+0)   [0 = 0+0 in context x*HOLE]
        zz = p.uspec(add_right_id, zero)        # 0+0 = 0
        s1 = p.congruence(p.symmetry(zz), m.ap(x, HOLE), HOLE)
        # 2. x*(0+0) = x*0 + x*0    [distributivity at (x, 0, 0)]
        s2 = p.uspec(p.uspec(p.uspec(left_distrib, x), zero), zero)
        # 3. t = t + t
        doubled = p.chain(s1, s2)
        # 4. 0 = t + neg(t)          [right inverse at t, reversed]
        rv_t = p.uspec(add_right_inv, t)        # t + neg(t) = 0
        s4 = p.symmetry(rv_t)
        nt = a.inverse(t)
        # 5. t + neg(t) = (t+t) + neg(t)   [doubled in context HOLE + neg(t)]
        s5 = p.congruence(doubled, a.ap(HOLE, nt), HOLE)
        # 6. (t+t) + neg(t) = t + (t + neg(t))   [associativity]
        s6 = p.uspec(p.uspec(p.uspec(add_assoc, t), t), nt)
        # 7. t + (t+neg(t)) = t + 0    [right inverse in context t + HOLE]
        s7 = p.congruence(rv_t, a.ap(t, HOLE), HOLE)
        # 8. t + 0 = t                 [right identity at t]
        s8 = p.uspec(add_right_id, t)
        # 0 = t, flip to t = 0.
        zero_is_t = p.chain(s4, s5, s6, s7, s8)
        return p.symmetry(zero_is_t)

    return pf.pick_any(body, hint="x")


def prove_ring_theorems(sig: RingSig) -> tuple[Proof, dict[str, Prop]]:
    pf = ring_session(sig)
    return pf, {"annihilation": prove_mul_zero(pf, sig)}

