"""Tests for the DPL proof checker: primitive deductions, improper
deductions rejected, the Fig. 6 derivations, generic group proofs, and
proof instantiation across models."""

from fractions import Fraction

import pytest

from repro.athena import (
    And,
    App,
    Atom,
    Falsity,
    Forall,
    GroupSig,
    Implies,
    Not,
    OrderSig,
    Proof,
    ProofError,
    Var,
    conj_swap,
    const,
    equals,
    forall,
    forward_chaining_search,
    group_axioms,
    group_session,
    hypothetical_syllogism,
    instance_of,
    instantiate_group_proofs,
    monoid_axioms,
    prove_equivalence_properties,
    prove_equiv_reflexive,
    prove_equiv_symmetric,
    prove_group_theorems,
    strict_weak_order_axioms,
    swo_session,
)
from repro.concepts.algebra import algebra

from .test_import_footprint import modules_after

A = Atom("A")
B = Atom("B")
C = Atom("C")


class TestPrimitiveDeductions:
    def test_claim_requires_membership(self):
        pf = Proof([A])
        assert pf.claim(A) == A
        with pytest.raises(ProofError):
            pf.claim(B)

    def test_both_and_projections(self):
        pf = Proof([A, B])
        conj = pf.both(A, B)
        assert conj == And(A, B)
        assert pf.left_and(conj) == A
        assert pf.right_and(conj) == B

    def test_projection_type_checked(self):
        pf = Proof([A])
        with pytest.raises(ProofError):
            pf.left_and(A)

    def test_modus_ponens(self):
        pf = Proof([Implies(A, B), A])
        assert pf.modus_ponens(Implies(A, B), A) == B

    def test_modus_ponens_mismatch_rejected(self):
        pf = Proof([Implies(A, B), C])
        with pytest.raises(ProofError):
            pf.modus_ponens(Implies(A, B), C)

    def test_assume_discharges(self):
        pf = Proof([Implies(A, B)])
        thm = pf.assume(A, lambda p: p.modus_ponens(Implies(A, B), p.claim(A)))
        assert thm == Implies(A, B)

    def test_assume_does_not_leak_hypothesis(self):
        pf = Proof([])
        pf.assume(A, lambda p: p.claim(A))
        # A itself must NOT be in the outer base, only A ==> A.
        with pytest.raises(ProofError):
            pf.claim(A)
        assert pf.base.holds(Implies(A, A))

    def test_assume_body_must_establish_result(self):
        pf = Proof([])
        with pytest.raises(ProofError):
            pf.assume(A, lambda p: B)  # B never derived

    def test_absurd(self):
        pf = Proof([A, Not(A)])
        assert pf.absurd(A, Not(A)) == Falsity()
        with pytest.raises(ProofError):
            Proof([A, Not(B)]).absurd(A, Not(B))

    def test_by_contradiction(self):
        pf = Proof([Implies(A, Falsity()), A])

        def body(p: Proof):
            return p.modus_ponens(Implies(A, Falsity()), p.claim(A))

        # Not actually a sensible theorem, but exercises the rule: assume
        # ~(~A)... here: prove Not(A)-style goals.
        pf2 = Proof([Implies(A, Falsity())])
        thm = pf2.by_contradiction(
            Not(A),
            lambda p: p.modus_ponens(Implies(A, Falsity()), p.claim(A)),
        )
        assert thm == Not(A)

    def test_cases(self):
        from repro.athena import Or

        pf = Proof([Or(A, B), Implies(A, C), Implies(B, C)])
        thm = pf.cases(
            Or(A, B),
            lambda p: p.modus_ponens(Implies(A, C), p.claim(A)),
            lambda p: p.modus_ponens(Implies(B, C), p.claim(B)),
        )
        assert thm == C

    def test_cases_branches_must_agree(self):
        from repro.athena import Or

        pf = Proof([Or(A, B)])
        with pytest.raises(ProofError):
            pf.cases(Or(A, B), lambda p: p.claim(A), lambda p: p.claim(B))

    def test_uspec(self):
        x = Var("x")
        univ = forall("x", Atom("P", (x,)))
        pf = Proof([univ])
        inst = pf.uspec(univ, const("c"))
        assert inst == Atom("P", (const("c"),))

    def test_uspec_requires_universal(self):
        pf = Proof([A])
        with pytest.raises(ProofError):
            pf.uspec(A, const("c"))

    def test_pick_any_generalizes(self):
        x = Var("x")
        univ = forall("x", Atom("P", (x,)))
        pf = Proof([univ])
        thm = pf.pick_any(lambda p, v: p.uspec(univ, v))
        assert isinstance(thm, Forall)
        assert instance_of(thm, const("k")) == Atom("P", (const("k"),))

    def test_equality_rules(self):
        a, b, c = const("a"), const("b"), const("c")
        pf = Proof([equals(a, b), equals(b, c)])
        assert pf.symmetry(equals(a, b)) == equals(b, a)
        assert pf.transitivity(equals(a, b), equals(b, c)) == equals(a, c)
        with pytest.raises(ProofError):
            pf.transitivity(equals(a, b), equals(a, c))  # does not chain

    def test_congruence(self):
        a, b = const("a"), const("b")
        hole = Var("H")
        pf = Proof([equals(a, b)])
        ctx = App("f", (hole,))
        out = pf.congruence(equals(a, b), ctx, hole)
        assert out == equals(App("f", (a,)), App("f", (b,)))

    def test_reflexivity(self):
        pf = Proof([])
        t = App("f", (const("a"),))
        assert pf.reflexivity(t) == equals(t, t)

    def test_trace_records_steps(self):
        pf = Proof([A, B])
        pf.both(A, B)
        assert pf.steps == 1
        assert "both" in pf.trace[0]


class TestMethods:
    def test_conj_swap(self):
        pf = Proof([And(A, B)])
        assert conj_swap(pf, And(A, B)) == And(B, A)

    def test_method_composition(self):
        double_swap = conj_swap.then(conj_swap)
        pf = Proof([And(A, B)])
        assert double_swap(pf, And(A, B)) == And(A, B)

    def test_hypothetical_syllogism(self):
        pf = Proof([Implies(A, B), Implies(B, C)])
        thm = hypothetical_syllogism(pf, Implies(A, B), Implies(B, C))
        assert thm == Implies(A, C)


class TestFig6:
    """Fig. 6: 'From these axioms two additional properties of E, symmetry
    and reflexivity, can be derived as theorems.'"""

    def test_reflexivity_derived(self):
        sig = OrderSig("<")
        pf = swo_session(sig)
        thm = prove_equiv_reflexive(pf, sig)
        c = const("c")
        assert instance_of(thm, c) == sig.equiv(c, c)

    def test_symmetry_derived(self):
        sig = OrderSig("<")
        pf = swo_session(sig)
        thm = prove_equiv_symmetric(pf, sig)
        a, b = const("a"), const("b")
        assert instance_of(thm, a, b) == Implies(sig.equiv(a, b), sig.equiv(b, a))

    def test_equivalence_package(self):
        pf, thms = prove_equivalence_properties(OrderSig("<"))
        assert len(thms) == 3
        assert pf.steps > 0

    def test_generic_over_operator_name(self):
        # The same proof text works for any comparison predicate — proof
        # genericity via operator mappings.
        for less in ("<", "string.<", "lex-less"):
            sig = OrderSig(less)
            pf = swo_session(sig)
            thm = prove_equiv_reflexive(pf, sig)
            c = const("c")
            inst = instance_of(thm, c)
            assert inst == And(Not(Atom(less, (c, c))), Not(Atom(less, (c, c))))

    def test_tampered_axioms_fail_to_check(self):
        # Remove irreflexivity: the reflexivity derivation must be rejected
        # (uspec premise not in the base).
        sig = OrderSig("<")
        axioms = strict_weak_order_axioms(sig)[1:]
        pf = Proof(axioms)
        with pytest.raises(ProofError):
            prove_equiv_reflexive(pf, sig)


class TestGroupProofs:
    def test_all_theorems_check(self):
        pf, thms = prove_group_theorems(GroupSig())
        assert set(thms) == {"left inverse", "left identity",
                             "inverse involution"}
        assert pf.steps > 30  # genuinely multi-step equational proofs

    def test_left_inverse_shape(self):
        sig = GroupSig("*", "e", "inv")
        pf, thms = prove_group_theorems(sig)
        c = const("c")
        inst = instance_of(thms["left inverse"], c)
        assert inst == equals(sig.ap(sig.inverse(c), c), sig.identity())

    def test_without_right_inverse_axiom_proof_rejected(self):
        sig = GroupSig()
        pf = Proof(monoid_axioms(sig).values())  # no inverse axiom
        from repro.athena.proofs.group_theory import prove_left_inverse

        with pytest.raises(ProofError):
            prove_left_inverse(pf, sig)


class TestInstantiation:
    @pytest.mark.parametrize("typ,op", [
        (int, "+"),
        (float, "*"),
        (Fraction, "*"),
        (Fraction, "+"),
    ])
    def test_instances_check_and_evaluate(self, typ, op):
        s = algebra.lookup(typ, op)
        report = instantiate_group_proofs(s)
        assert report.empirical_ok
        assert report.proof_steps > 0
        assert report.samples_checked > 0

    def test_monoid_without_inverse_rejected(self):
        s = algebra.lookup(int, "*")  # Monoid, no inverse
        with pytest.raises(ValueError):
            instantiate_group_proofs(s)

    def test_distinct_instances_get_distinct_symbols(self):
        from repro.athena import sig_for_structure

        s1 = algebra.lookup(int, "+")
        s2 = algebra.lookup(Fraction, "*")
        assert sig_for_structure(s1).op != sig_for_structure(s2).op


class TestCheckVsSearch:
    """'It is much more efficient to check a given proof than it is to
    search for an a priori unknown proof.'"""

    def test_search_finds_simple_goal(self):
        cost = forward_chaining_search([A, Implies(A, B)], B)
        assert cost is not None

    def test_search_gives_up_within_bounds(self):
        # Unreachable goal: bounded search returns None, not an infinite loop.
        assert forward_chaining_search([A], C, max_rounds=3) is None

    def test_checking_cheaper_than_search(self):
        # Same theorem: B & A from {A, B}.  Checking is 1 deduction;
        # search generates many facts before finding it.
        goal = And(B, A)
        pf = Proof([A, B])
        pf.both(B, A)
        check_steps = pf.steps
        search_cost = forward_chaining_search([A, B], goal)
        assert search_cost is not None
        assert check_steps < search_cost


class TestRangeTheory:
    """The sequential-computation (range/iterator) theory: reaches(i,
    next^k(i)) derived by a computed proof."""

    def test_kth_successor(self):
        from repro.athena import (
            RangeSig,
            instance_of,
            prove_reaches_kth_successor,
            range_session,
        )

        sig = RangeSig()
        for k in (0, 1, 5):
            pf = range_session(sig)
            thm = prove_reaches_kth_successor(pf, sig, k)
            inst = instance_of(thm, const("p"))
            assert str(inst).count("next(") == k
            # Proof length grows with k: proofs are computed values.
            # (1 reflexivity uspec + 3 steps per hop + the generalization.)
            assert pf.steps == 3 * k + 2

    def test_requires_the_axioms(self):
        from repro.athena import (
            RangeSig,
            prove_reaches_kth_successor,
            range_axioms,
        )

        sig = RangeSig()
        pf = Proof(range_axioms(sig)[:1])  # drop the extension axiom
        with pytest.raises(ProofError):
            prove_reaches_kth_successor(pf, sig, 2)

    def test_negative_k_rejected(self):
        from repro.athena import RangeSig, prove_reaches_kth_successor, range_session

        sig = RangeSig()
        with pytest.raises(ValueError):
            prove_reaches_kth_successor(range_session(sig), sig, -1)


# ---------------------------------------------------------------------------
# Lazy exports
# ---------------------------------------------------------------------------


def test_simplicissimus_loads_only_the_proofs_its_rules_use():
    # The rewrite rules are proved from the Monoid/Group axioms, so only
    # the group proofs and what they are built from load.
    assert modules_after("import repro.simplicissimus",
                         "repro.athena") == {
        "repro.athena", "repro.athena.proof", "repro.athena.proofs",
        "repro.athena.proofs.group_theory", "repro.athena.props",
        "repro.athena.terms", "repro.athena.theories"}


def test_every_exported_name_resolves():
    import repro.athena
    import repro.athena.proofs

    for package in (repro.athena, repro.athena.proofs):
        for name in package.__all__:
            assert getattr(package, name) is not None, name
            assert name in dir(package)
    with pytest.raises(AttributeError):
        repro.athena.no_such_name
