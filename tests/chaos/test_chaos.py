"""Chaos harness: seeded fault injection against the tool drivers and
the reliable transport.

Each test picks injection points from a seeded RNG (so failures are
replayable by seed) and asserts *graceful degradation*: the run always
completes, damage is confined to per-file findings or retransmissions,
and no partial write ever reaches disk.
"""

import random

import pytest

from repro.analysis import AnalysisSession
from repro.distributed import FailurePlan, Ring, run_echo_reliable
from repro.resilience import (
    ConstantBackoff,
    RetryBudgetExhausted,
    RetryPolicy,
    call_with_policy,
)

BUGGY = '''
def f(v: "vector"):
    it = v.begin()
    v.push_back(1)
    return it.deref()
'''

OPTIMIZABLE = '''
def lookup(v: "vector", key):
    sort(v.begin(), v.end())
    it = find(v.begin(), v.end(), key)
    return it
'''


class _ChaosMonkey:
    """Raise at call indices drawn from a seeded RNG."""

    def __init__(self, seed: int, rate: float = 0.3) -> None:
        self._rng = random.Random(seed)
        self.rate = rate
        self.calls = 0
        self.raised = 0

    def maybe_raise(self) -> None:
        self.calls += 1
        if self._rng.random() < self.rate:
            self.raised += 1
            raise RuntimeError(f"chaos at call {self.calls}")


class TestLintUnderChaos:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_interpreter_chaos_degrades_per_file(self, tmp_path,
                                                 monkeypatch, seed):
        from repro.lint import driver as lint_driver

        n_files = 6
        for i in range(n_files):
            (tmp_path / f"m{i}.py").write_text(BUGGY)

        monkey = _ChaosMonkey(seed)
        real_checker = lint_driver.FixpointChecker

        def chaotic_checker(*args, **kwargs):
            checker = real_checker(*args, **kwargs)
            real_run = checker.run

            def chaotic_run():
                monkey.maybe_raise()
                return real_run()

            checker.run = chaotic_run
            return checker

        monkeypatch.setattr(lint_driver, "FixpointChecker", chaotic_checker)
        report = AnalysisSession().lint_paths([tmp_path])  # never raises
        assert len(report.files) == n_files
        internal = [f for f in report.findings
                    if f.check == "LINT-INTERNAL"]
        assert len(internal) == monkey.raised
        assert report.partial == (monkey.raised > 0)
        # Every file the monkey spared still produced its real warning.
        real = [f for f in report.findings if f.check != "LINT-INTERNAL"]
        assert len(real) >= n_files - monkey.raised


class TestOptimizeUnderChaos:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_no_chaos_ever_tears_a_write(self, tmp_path, monkeypatch, seed):
        from repro.optimize import pipeline

        monkey = _ChaosMonkey(seed, rate=0.4)
        real_collect = pipeline.analyze_source

        def chaotic_collect(source, **kwargs):
            monkey.maybe_raise()
            return real_collect(source, **kwargs)

        monkeypatch.setattr(pipeline, "analyze_source", chaotic_collect)
        for i in range(4):
            target = tmp_path / f"m{i}.py"
            target.write_text(OPTIMIZABLE)
            # must never raise
            result = AnalysisSession().optimize_file(target, write=True)
            on_disk = target.read_text()
            # Invariant: disk holds either the untouched original or the
            # fully verified rewrite — nothing in between.
            if result.verified and result.changed:
                assert on_disk == result.optimized
                assert "lower_bound" in on_disk
            else:
                assert on_disk == OPTIMIZABLE

    @pytest.mark.parametrize("seed", [5, 6])
    def test_rewriter_chaos_is_isolated(self, tmp_path, monkeypatch, seed):
        from repro.optimize import pipeline

        monkey = _ChaosMonkey(seed, rate=0.5)
        real_apply = pipeline.apply_rewrites

        def chaotic_apply(source, plans):
            monkey.maybe_raise()
            return real_apply(source, plans)

        monkeypatch.setattr(pipeline, "apply_rewrites", chaotic_apply)
        target = tmp_path / "m.py"
        target.write_text(OPTIMIZABLE)
        result = AnalysisSession().optimize_file(target, write=True)
        if monkey.raised:
            assert [f.check for f in result.findings] == ["OPT-INTERNAL"]
            assert target.read_text() == OPTIMIZABLE


class TestTransportUnderChaos:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("loss", [0.1, 0.4, 0.6])
    def test_echo_survives_random_loss(self, seed, loss):
        m = run_echo_reliable(
            Ring(6),
            failures=FailurePlan(loss_probability=loss, seed=seed))
        assert m.decisions[0] == 6
        assert m.retries_gave_up == 0


class TestRetryUnderChaos:
    @pytest.mark.parametrize("seed", range(8))
    def test_outcome_is_always_success_or_budget_exhausted(self, seed):
        rng = random.Random(seed)

        def flaky():
            if rng.random() < 0.5:
                raise ConnectionError("chaos")
            return "ok"

        policy = RetryPolicy(max_attempts=4, backoff=ConstantBackoff(0.0))
        try:
            assert call_with_policy(flaky, policy) == "ok"
        except RetryBudgetExhausted as exc:
            assert exc.attempts == 4
            assert isinstance(exc.last, ConnectionError)
