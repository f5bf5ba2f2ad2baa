"""Coverage for smaller behaviours across modules: metrics helpers,
simulator timers and determinism, athena evaluation errors, checker
robustness, report rendering, and overload diagnostics."""

import pytest

from repro.concepts import (
    AnyType,
    CheckReport,
    Concept,
    Exact,
    GenericFunction,
    NoMatchingOverloadError,
    Param,
    method,
)
from repro.distributed import (
    Asynchronous,
    Complete,
    Context,
    Message,
    Process,
    Ring,
    Simulator,
)
from repro.distributed.algorithms import run_chang_roberts
from repro.distributed.metrics import RunMetrics

T = Param("T")


class TestRunMetrics:
    def test_consensus_requires_unanimity(self):
        m = RunMetrics(n=2)
        assert m.consensus() is None          # nobody decided
        m.decisions[0] = "a"
        m.decisions[1] = "a"
        assert m.consensus() == "a"
        m.decisions[1] = "b"
        assert m.consensus() is None

    def test_agreement_among_subset(self):
        m = RunMetrics(n=3)
        m.decisions[0] = 5
        m.decisions[2] = 5
        assert m.agreement_among([0, 2]) == 5
        assert m.agreement_among([0, 1]) is None

    def test_local_computation_aggregates(self):
        m = RunMetrics(n=2)
        m.local_computation[0] = 3
        m.local_computation[1] = 4
        assert m.total_local_computation == 7
        assert m.max_local_computation == 4
        assert RunMetrics().max_local_computation == 0

    def test_summary_renders(self):
        m = run_chang_roberts(5)
        text = m.summary()
        assert "messages=" in text
        assert "local-comp=" in text


class _TimerProc(Process):
    def __init__(self, rank, **params):
        super().__init__(rank, **params)
        self.fired = []

    def on_start(self, ctx: Context) -> None:
        if self.rank == 0:
            ctx.set_timer(2.5, "wake", "a")
            ctx.set_timer(1.0, "wake", "b")

    def on_message(self, ctx: Context, msg: Message) -> None:
        if msg.tag == "wake":
            self.fired.append((ctx.now, msg.payload))


class TestSimulatorInternals:
    def test_timers_fire_in_order_without_counting_as_messages(self):
        procs = [_TimerProc(r) for r in range(2)]
        sim = Simulator(Complete(2), procs)
        m = sim.run()
        assert [p for _, p in procs[0].fired] == ["b", "a"]
        assert m.messages_sent == 0

    def test_same_seed_same_run(self):
        a = run_chang_roberts(12, timing=Asynchronous(seed=5))
        b = run_chang_roberts(12, timing=Asynchronous(seed=5))
        assert a.messages_sent == b.messages_sent
        assert a.finish_time == b.finish_time

    def test_different_seeds_differ(self):
        a = run_chang_roberts(12, timing=Asynchronous(seed=5))
        b = run_chang_roberts(12, timing=Asynchronous(seed=6))
        assert a.finish_time != b.finish_time

    def test_per_process_sent_counter(self):
        m = run_chang_roberts(5)
        assert sum(m.per_process_sent.values()) == m.messages_sent


class TestAthenaEvaluation:
    def test_holds_unknown_symbol(self):
        from repro.athena import holds, sig_for_structure
        from repro.athena.props import equals
        from repro.athena.terms import App
        from repro.concepts.algebra import algebra

        s = algebra.lookup(int, "+")
        ops = s.ops(sig_for_structure(s))
        with pytest.raises(KeyError):
            holds(equals(App("mystery"), App("mystery")), ops, 7)

    def test_holds_on_quantified(self):
        from repro.athena import group_axioms, holds, sig_for_structure
        from repro.concepts.algebra import algebra

        s = algebra.lookup(int, "+")
        sig = sig_for_structure(s)
        right_id = group_axioms(sig)["right identity"]
        assert holds(right_id, s.ops(sig), 7)

    def test_inverse_required(self):
        from repro.athena import group_axioms, holds, sig_for_structure
        from repro.concepts.algebra import AlgebraicStructure, Monoid

        s = AlgebraicStructure(int, "zap", Monoid, lambda a, b: a,
                               identity_value=0)
        sig = sig_for_structure(s)
        with pytest.raises(TypeError):
            holds(group_axioms(sig)["right inverse"], s.ops(sig), 3)


class TestOverloadDiagnostics:
    def test_no_match_lists_each_attempt_with_reason(self):
        A = Concept("CovA", requirements=[method("t.a()", "a", [T])])
        B = Concept("CovB", requirements=[method("t.b()", "b", [T])])
        f = GenericFunction("frob")

        @f.overload(requires=[(A, 0)])
        def fa(x):
            return "a"

        @f.overload(requires=[(B, 0)])
        def fb(x):
            return "b"

        with pytest.raises(NoMatchingOverloadError) as exc:
            f(3)
        msg = str(exc.value)
        assert "CovA" in msg and "CovB" in msg
        assert msg.count("tried:") == 2


class TestCheckReportRendering:
    def test_ok_report_lists_checked(self):
        C = Concept("CovC", requirements=[method("t.go()", "go", [T])])

        class M:
            def go(self):
                pass

        from repro.concepts import check_concept

        text = check_concept(C, M).render()
        assert "models CovC" in text
        assert "ok: t.go()" in text

    def test_failing_report_marks_failures(self):
        C = Concept("CovD", requirements=[method("t.go()", "go", [T])])

        class M:
            pass

        from repro.concepts import check_concept

        text = check_concept(C, M).render()
        assert "does NOT model" in text
        assert "FAIL:" in text


class TestTypeExprResolution:
    def test_exact_and_any(self):
        from repro.concepts.modeling import CheckContext, ModelRegistry

        C = Concept("CovE")
        ctx = CheckContext(ModelRegistry(), C, (int,))
        assert ctx.resolve(Exact(str)) is str
        assert ctx.resolve(AnyType()) is object
        assert ctx.resolve(Param("T")) is int
        assert ctx.resolve(Param("NOPE")) is None


class TestCheckerUnmodeledStatements:
    def test_augassign_and_for_do_not_crash(self):
        from repro.stllint import check_source

        report = check_source('''
def f(v: "vector"):
    total = 0
    it = v.begin()
    while not it.equals(v.end()):
        total += use(it.deref())
        it.increment()
    return total
''')
        assert report.clean, report.render()

    def test_ann_assign_declares_container(self):
        from repro.stllint import MSG_SINGULAR_DEREF, check_source

        report = check_source('''
def f():
    v: "vector"
    it = v.begin()
    v.clear()
    x = it.deref()
''')
        assert any(d.message == MSG_SINGULAR_DEREF for d in report.warnings)
