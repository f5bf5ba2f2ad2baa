"""Tests for the extension features: FloodSet consensus (filling the
taxonomy gap) and the Ring annihilation theorem."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.athena import (
    Forall,
    Proof,
    ProofError,
    RingSig,
    equals,
    instance_of,
    prove_mul_zero,
    prove_ring_theorems,
    ring_axioms,
)
from repro.athena.terms import App, const
from repro.distributed import FailurePlan, crash, standard_taxonomy
from repro.distributed.algorithms import run_floodset


class TestFloodSet:
    def test_agreement_and_validity_no_failures(self):
        values = [9, 4, 7, 2, 8, 5]
        m = run_floodset(6, f=1, values=values)
        assert m.consensus() == min(values)   # validity: an input value
        assert len(m.decisions) == 6          # everyone decides

    def test_message_and_round_complexity(self):
        n, f = 8, 2
        m = run_floodset(n, f=f)
        # (f+1) broadcast rounds of n(n-1) messages each.
        assert m.messages_sent == (f + 1) * n * (n - 1)
        assert m.finish_time <= f + 3

    def test_agreement_despite_crash_mid_protocol(self):
        values = [9, 4, 7, 2, 8, 5]
        # Process 3 (holding the min) crashes between rounds 1 and 2: its
        # value already spread in round 1, so everyone still agrees on 2.
        m = run_floodset(6, f=1, values=values, failures=crash(3, at=1.6))
        live = [r for r in range(6) if r != 3]
        assert m.agreement_among(live) == 2

    def test_agreement_when_min_holder_crashes_at_start(self):
        values = [9, 4, 7, 2, 8, 5]
        m = run_floodset(6, f=1, values=values, failures=crash(3, at=0.0))
        live = [r for r in range(6) if r != 3]
        # 2 never entered the system; agreement on the min of the rest.
        assert m.agreement_among(live) == 4

    @given(st.integers(0, 5), st.permutations([3, 1, 4, 1, 5, 9]))
    def test_agreement_under_any_single_crash(self, victim, values):
        values = list(values)
        m = run_floodset(6, f=1, values=values,
                         failures=crash(victim, at=1.6))
        live = [r for r in range(6) if r != victim]
        agreed = m.agreement_among(live)
        assert agreed is not None            # agreement
        assert agreed in values              # validity

    def test_two_crashes_need_f_2(self):
        values = [9, 4, 7, 2, 8, 5]
        plan = crash(3, at=0.0)
        plan = crash(0, at=1.6, plan=plan)
        m = run_floodset(6, f=2, values=values, failures=plan)
        live = [1, 2, 4, 5]
        assert m.agreement_among(live) is not None

    def test_taxonomy_gap_closed(self):
        tax = standard_taxonomy()
        hits = tax.query(problem="consensus", failures="crash",
                         timing="synchronous")
        # The crash/synchronous consensus cell is served by floodset and,
        # since the resilience layers landed, by the algorithms with
        # strictly weaker requirements (reliable-transport floodset and
        # the crash-recovery replicated log).
        names = {e.name for e in hits}
        assert "floodset" in names
        assert names <= {"floodset", "resilient-floodset",
                         "raft-replicated-log"}
        # The asynchronous cells remain gaps — as FLP says they must for
        # deterministic algorithms.
        gaps = tax.gaps("consensus")
        assert {g["timing"] for g in gaps} >= {"asynchronous"}


class TestRingAnnihilation:
    def test_theorem_checks(self):
        pf, thms = prove_ring_theorems(RingSig())
        thm = thms["annihilation"]
        assert isinstance(thm, Forall)
        c = const("c")
        sig = RingSig()
        assert instance_of(thm, c) == equals(
            App(sig.mul.op, (c, sig.add.identity())), sig.add.identity()
        )

    def test_proof_uses_many_steps(self):
        pf, _ = prove_ring_theorems(RingSig())
        assert pf.steps >= 15  # a genuine calculational chain

    def test_without_distributivity_rejected(self):
        sig = RingSig()
        axioms = [law for name, law in ring_axioms(sig).items()
                  if "distributivity" not in name]
        with pytest.raises(ProofError):
            prove_mul_zero(Proof(axioms), sig)

    def test_generic_over_operator_names(self):
        from repro.athena import GroupSig

        weird = RingSig(
            add=GroupSig(op="plus", e="zero", inv="minus"),
            mul=GroupSig(op="times", e="one", inv="over"),
        )
        pf, thms = prove_ring_theorems(weird)
        assert "times" in str(thms["annihilation"])
        assert "zero" in str(thms["annihilation"])

    def test_theorem_holds_numerically(self):
        """Ground the generic theorem on int and Fraction rings."""
        from fractions import Fraction

        sig = RingSig()
        pf, thms = prove_ring_theorems(sig)
        thm = thms["annihilation"]
        body = thm.body if isinstance(thm, Forall) else thm

        def eval_term(t, x):
            if t == sig.add.identity():
                return type(x)(0)
            if isinstance(t, App) and t.fsym == sig.mul.op:
                return eval_term(t.args[0], x) * eval_term(t.args[1], x)
            return x  # the bound variable

        for x in (7, -3, Fraction(5, 9)):
            lhs, rhs = body.args
            assert eval_term(lhs, x) == eval_term(rhs, x)
