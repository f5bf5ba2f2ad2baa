"""Generic equational proofs over the Group theory.

The Group theory (:func:`repro.athena.theories.group_axioms`) states only
associativity, *right* identity, and *right* inverse; the classical
theorems below — left inverse, left identity, involution of inverse — are
derived once, generically, and then instantiated for every declared Group
model (ints under +, rationals under *, invertible matrices under @, ...).

Simplicissimus's ``left-inverse`` and ``double-inverse`` rewrite rules
are these theorems: :mod:`repro.simplicissimus.rules` builds each
``EquationRule`` from the proposition :func:`prove_group_theorems`
returns — rules "directly related to and derivable from the axioms
governing the Monoid and Group concepts" (Fig. 5).
"""

from __future__ import annotations

from ..proof import Proof
from ..props import Forall, Prop, equals
from ..terms import App, Term, Var
from ..theories import GroupSig, group_axioms

HOLE = Var("HOLE")


def group_session(sig: GroupSig) -> Proof:
    return Proof(group_axioms(sig).values())


def _axioms(sig: GroupSig) -> tuple[Prop, Prop, Prop]:
    assoc, right_id, right_inv = group_axioms(sig).values()
    return assoc, right_id, right_inv


def prove_left_inverse(pf: Proof, sig: GroupSig) -> Prop:
    """Theorem: ∀x. inv(x)·x = e   (from right inverse + right identity +
    associativity; the textbook eight-step calculational chain)."""
    assoc, right_id, right_inv = _axioms(sig)
    e = sig.identity()

    def body(p: Proof, x: Var) -> Prop:
        ix = sig.inverse(x)            # inv(x)
        iix = sig.inverse(ix)          # inv(inv(x))
        t = sig.ap(ix, x)              # inv(x)·x

        # 1. inv(x)·x = (inv(x)·x)·e                     [right id, reversed]
        s1 = p.symmetry(p.uspec(right_id, t))
        # 2. (inv(x)·x)·e = (inv(x)·x)·(inv(x)·inv(inv(x)))
        #    [right inv at inv(x), reversed, in context t·HOLE]
        rv_ix = p.uspec(right_inv, ix)                 # inv(x)·inv(inv(x)) = e
        s2 = p.congruence(p.symmetry(rv_ix), sig.ap(t, HOLE), HOLE)
        # 3. (inv(x)·x)·(inv(x)·iix) = inv(x)·(x·(inv(x)·iix))   [assoc]
        a3 = p.uspec(p.uspec(p.uspec(assoc, ix), x), sig.ap(ix, iix))
        # 4. inv(x)·(x·(inv(x)·iix)) = inv(x)·((x·inv(x))·iix)
        #    [assoc at (x, inv(x), iix), reversed, in context inv(x)·HOLE]
        a4_inner = p.uspec(p.uspec(p.uspec(assoc, x), ix), iix)
        s4 = p.congruence(p.symmetry(a4_inner), sig.ap(ix, HOLE), HOLE)
        # 5. inv(x)·((x·inv(x))·iix) = inv(x)·(e·iix)
        #    [right inv at x, in context inv(x)·(HOLE·iix)]
        rv_x = p.uspec(right_inv, x)                   # x·inv(x) = e
        s5 = p.congruence(rv_x, sig.ap(ix, sig.ap(HOLE, iix)), HOLE)
        # 6. inv(x)·(e·iix) = (inv(x)·e)·iix            [assoc reversed]
        a6 = p.uspec(p.uspec(p.uspec(assoc, ix), e), iix)
        s6 = p.symmetry(a6)
        # 7. (inv(x)·e)·iix = inv(x)·iix                [right id at inv(x),
        #    in context HOLE·iix]
        ri_ix = p.uspec(right_id, ix)                  # inv(x)·e = inv(x)
        s7 = p.congruence(ri_ix, sig.ap(HOLE, iix), HOLE)
        # 8. inv(x)·iix = e                             [right inv at inv(x)]
        s8 = p.claim(rv_ix)

        return p.chain(s1, s2, a3, s4, s5, s6, s7, s8)

    return pf.pick_any(body, hint="x")


def prove_left_identity(pf: Proof, sig: GroupSig) -> Prop:
    """Theorem: ∀x. e·x = x  (uses the left-inverse theorem)."""
    assoc, right_id, right_inv = _axioms(sig)
    left_inv = prove_left_inverse(pf, sig)

    def body(p: Proof, x: Var) -> Prop:
        ix = sig.inverse(x)
        e = sig.identity()
        # 1. e·x = (x·inv(x))·x          [right inv reversed, context HOLE·x]
        rv_x = p.uspec(right_inv, x)
        s1 = p.congruence(p.symmetry(rv_x), sig.ap(HOLE, x), HOLE)
        # 2. (x·inv(x))·x = x·(inv(x)·x) [assoc]
        s2 = p.uspec(p.uspec(p.uspec(assoc, x), ix), x)
        # 3. x·(inv(x)·x) = x·e          [left inverse thm, context x·HOLE]
        li_x = p.uspec(left_inv, x)
        s3 = p.congruence(li_x, sig.ap(x, HOLE), HOLE)
        # 4. x·e = x                     [right id]
        s4 = p.uspec(right_id, x)
        return p.chain(s1, s2, s3, s4)

    return pf.pick_any(body, hint="x")


def prove_inverse_involution(pf: Proof, sig: GroupSig) -> Prop:
    """Theorem: ∀x. inv(inv(x)) = x  (Simplicissimus's double-inverse
    rule)."""
    assoc, right_id, right_inv = _axioms(sig)
    left_id = prove_left_identity(pf, sig)

    def body(p: Proof, x: Var) -> Prop:
        ix = sig.inverse(x)
        iix = sig.inverse(ix)
        # 1. iix = e·iix                  [left identity thm reversed]
        s1 = p.symmetry(p.uspec(left_id, iix))
        # 2. e·iix = (x·inv(x))·iix       [right inv reversed, ctx HOLE·iix]
        rv_x = p.uspec(right_inv, x)
        s2 = p.congruence(p.symmetry(rv_x), sig.ap(HOLE, iix), HOLE)
        # 3. (x·inv(x))·iix = x·(inv(x)·iix)   [assoc]
        s3 = p.uspec(p.uspec(p.uspec(assoc, x), ix), iix)
        # 4. x·(inv(x)·iix) = x·e         [right inv at inv(x), ctx x·HOLE]
        rv_ix = p.uspec(right_inv, ix)
        s4 = p.congruence(rv_ix, sig.ap(x, HOLE), HOLE)
        # 5. x·e = x                      [right id]
        s5 = p.uspec(right_id, x)
        return p.chain(s1, s2, s3, s4, s5)

    return pf.pick_any(body, hint="x")


def prove_group_theorems(sig: GroupSig) -> tuple[Proof, dict[str, Prop]]:
    """Run all three derivations in one session."""
    pf = group_session(sig)
    theorems = {
        "left inverse": prove_left_inverse(pf, sig),
        "left identity": prove_left_identity(pf, sig),
        "inverse involution": prove_inverse_involution(pf, sig),
    }
    return pf, theorems
