"""The end-to-end optimizer: facts -> select -> rewrite -> verify, the
``python -m repro.analysis optimize`` command, and the per-stage trace
spans."""

import dataclasses
import json

import pytest

from repro import trace
from repro.analysis import AnalysisSession
from repro.analysis.cli import main as analysis_main
from repro.facts import collect_facts
from repro.optimize import apply_rewrites, plan_rewrites

SESSION = AnalysisSession()


def optimize_cli(argv):
    """``python -m repro.analysis optimize --no-cache <argv>``."""
    return analysis_main(["optimize", "--no-cache", *argv])

SORT_THEN_FIND = '''
def lookup(v: "vector", key):
    sort(v.begin(), v.end())
    it = find(v.begin(), v.end(), key)
    return it
'''

MUTATION_BETWEEN = '''
def lookup(v: "vector", key, extra):
    sort(v.begin(), v.end())
    v.push_back(extra)
    it = find(v.begin(), v.end(), key)
    return it
'''

UNSORTED_FIND = '''
def lookup(v: "vector", key):
    it = find(v.begin(), v.end(), key)
    return it
'''

#: Non-ASCII text before the call on its line: the parser's columns are
#: UTF-8 byte offsets, not string indices.
NON_ASCII_BEFORE_FIND = (
    'def f(v: "vector", x):\n'
    '    sort(v.begin(), v.end())\n'
    '    y = "\u00e9\u00e9"; return find(v.begin(), v.end(), x)\n'
)


class TestPlanning:
    def test_sorted_find_selects_lower_bound(self):
        plans = plan_rewrites(collect_facts(SORT_THEN_FIND))
        assert len(plans) == 1
        p = plans[0]
        assert (p.call, p.replacement) == ("find", "lower_bound")
        assert "sorted" in p.properties
        assert p.savings > 0
        assert p.code == "OPT-find-to-lower-bound"

    def test_guard_refuses_after_mutation(self):
        # push_back between sort and find destroys sortedness — the
        # refusal is the soundness story.
        assert plan_rewrites(collect_facts(MUTATION_BETWEEN)) == []

    def test_guard_refuses_without_sort(self):
        assert plan_rewrites(collect_facts(UNSORTED_FIND)) == []

    def test_sort_itself_is_never_rewritten(self):
        # All comparison sorts share the O(n log n) bound: no strictly
        # better candidate exists, so sort stays.
        plans = plan_rewrites(collect_facts(SORT_THEN_FIND))
        assert all(p.call != "sort" for p in plans)


class TestRewriting:
    def test_rewrite_preserves_formatting(self):
        result = SESSION.optimize_source(SORT_THEN_FIND)
        assert result.changed
        assert result.verified and not result.reverted
        assert "lower_bound(v.begin(), v.end(), key)" in result.optimized
        # Only the callee name changed: same line count, sort untouched.
        assert (len(result.optimized.splitlines())
                == len(SORT_THEN_FIND.splitlines()))
        assert "sort(v.begin(), v.end())" in result.optimized
        assert "find" not in result.optimized

    def test_apply_rewrites_is_column_precise(self):
        src = 'x = find(a.begin(), a.end(), k)  # find stays in comments\n'
        plans = plan_rewrites(collect_facts(SORT_THEN_FIND))
        rewritten = apply_rewrites(
            SORT_THEN_FIND, plans
        )
        assert "it = lower_bound(" in rewritten
        # A plan for a different line touches nothing here.
        assert apply_rewrites(src, plans) == src
        result = SESSION.optimize_source(NON_ASCII_BEFORE_FIND)
        assert result.verified and not result.reverted
        assert result.optimized == NON_ASCII_BEFORE_FIND.replace(
            "return find(", "return lower_bound(")

    def test_apply_rewrites_reaches_every_statement_holding_a_plan(self):
        # A decorator lies before its def's first line, and a planned call
        # may sit in any top-level statement, nested or not.
        plan = plan_rewrites(collect_facts(SORT_THEN_FIND))[0]
        src = ("@register(find(a, b, k))\n"
               "def f():\n"
               "    return g(find(a, b, k))\n"
               "x = find(a, b, k)\n"
               "class C:\n"
               "    y = [find(a, b, k)]\n")
        plans = [dataclasses.replace(plan, line=n) for n in (1, 6)]
        want = src.splitlines(keepends=True)
        for n in (1, 6):
            want[n - 1] = want[n - 1].replace("find(", "lower_bound(")
        assert (plan.call, plan.replacement) == ("find", "lower_bound")
        assert apply_rewrites(src, plans) == "".join(want)

    def test_idempotent(self):
        once = SESSION.optimize_source(SORT_THEN_FIND)
        twice = SESSION.optimize_source(once.optimized)
        assert not twice.changed
        assert twice.plans == []

    def test_rewritten_source_relints_clean(self):
        result = SESSION.optimize_source(SORT_THEN_FIND)
        report = SESSION.lint_source(result.optimized)
        # The sorted-linear-find suggestion is gone and lower_bound's
        # sortedness precondition is satisfied: nothing at all to report.
        assert not report.findings

    def test_refused_file_is_unchanged(self):
        result = SESSION.optimize_source(MUTATION_BETWEEN)
        assert not result.changed
        assert result.optimized == MUTATION_BETWEEN
        assert result.plans == []

    def test_findings_carry_opt_codes(self):
        result = SESSION.optimize_source(SORT_THEN_FIND)
        assert [f.check for f in result.findings] == [
            "OPT-find-to-lower-bound"
        ]
        assert result.findings[0].severity == "suggestion"

    def test_syntax_error_is_a_finding(self):
        result = SESSION.optimize_source("def f(:\n")
        assert not result.verified
        assert [f.check for f in result.findings] == ["parse-error"]

    def test_result_serializes(self):
        data = json.loads(SESSION.optimize_source(SORT_THEN_FIND).to_json())
        assert data["changed"] is True
        assert data["rewrites"][0]["replacement"] == "lower_bound"

    def test_diff_shows_the_rewrite(self):
        d = SESSION.optimize_source(SORT_THEN_FIND).diff()
        assert "-    it = find(" in d
        assert "+    it = lower_bound(" in d


class TestOptimizeFile:
    def test_dry_run_leaves_file_alone(self, tmp_path):
        f = tmp_path / "prog.py"
        f.write_text(SORT_THEN_FIND)
        result = SESSION.optimize_file(f)
        assert result.changed
        assert f.read_text() == SORT_THEN_FIND

    def test_write_applies_verified_rewrites(self, tmp_path):
        f = tmp_path / "prog.py"
        f.write_text(SORT_THEN_FIND)
        result = SESSION.optimize_file(f, write=True)
        assert result.verified
        assert "lower_bound" in f.read_text()
        # Optimizing again finds nothing: the write converged.
        assert not SESSION.optimize_file(f).changed


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        prog = tmp_path / "prog.py"
        prog.write_text(SORT_THEN_FIND)
        clean = tmp_path / "clean.py"
        clean.write_text(MUTATION_BETWEEN)

        assert optimize_cli([str(clean), "--check"]) == 0
        assert optimize_cli([str(prog)]) == 0  # report-only: informational
        assert optimize_cli([str(prog), "--check"]) == 1
        assert optimize_cli([str(prog), "--check", "--write"]) == 2
        assert optimize_cli([]) == 2
        capsys.readouterr()

    def test_write_then_check_passes(self, tmp_path, capsys):
        prog = tmp_path / "prog.py"
        prog.write_text(SORT_THEN_FIND)
        assert optimize_cli([str(prog), "--write"]) == 0
        assert optimize_cli([str(prog), "--check"]) == 0
        capsys.readouterr()

    def test_json_output(self, tmp_path, capsys):
        prog = tmp_path / "prog.py"
        prog.write_text(SORT_THEN_FIND)
        optimize_cli([str(prog), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["rewrites"] == 1
        assert data["files"][0]["rewrites"][0]["call"] == "find"

    def test_diff_output(self, tmp_path, capsys):
        prog = tmp_path / "prog.py"
        prog.write_text(SORT_THEN_FIND)
        optimize_cli([str(prog), "--diff"])
        out = capsys.readouterr().out
        assert "+    it = lower_bound(" in out


class TestTracing:
    def test_pipeline_emits_stage_spans(self):
        tracer = trace.enable(trace.Tracer())
        try:
            SESSION.optimize_source(SORT_THEN_FIND)
        finally:
            trace.disable()
        spans = {r["name"] for r in tracer.records if r["type"] == "span"}
        assert {"optimize.facts", "optimize.select",
                "optimize.rewrite", "optimize.verify"} <= spans
        plan_events = [r for r in tracer.records
                       if r["type"] == "event" and r["name"] == "optimize.plan"]
        assert plan_events
        assert plan_events[0]["attrs"]["replacement"] == "lower_bound"

    def test_cli_trace_flag_writes_chrome_json(self, tmp_path, capsys):
        prog = tmp_path / "prog.py"
        prog.write_text(SORT_THEN_FIND)
        out = tmp_path / "trace.json"
        optimize_cli([str(prog), "--trace", str(out)])
        capsys.readouterr()
        data = json.loads(out.read_text())
        names = {ev.get("name") for ev in data["traceEvents"]}
        assert "analysis.optimize" in names
        assert "optimize.facts" in names

    def test_cli_trace_flag_uninstalls_its_tracer(self, tmp_path, capsys):
        # A tracer left installed would record every later in-process call.
        prog = tmp_path / "prog.py"
        prog.write_text(SORT_THEN_FIND)
        assert trace.active() is None
        optimize_cli([str(prog), "--trace", str(tmp_path / "trace.json")])
        capsys.readouterr()
        assert trace.active() is None

    def test_cli_trace_flag_keeps_a_tracer_already_active(self, tmp_path,
                                                          capsys):
        prog = tmp_path / "prog.py"
        prog.write_text(SORT_THEN_FIND)
        tracer = trace.enable(trace.Tracer())
        try:
            optimize_cli([str(prog), "--trace", str(tmp_path / "trace.json")])
            assert trace.active() is tracer
        finally:
            trace.disable()
        capsys.readouterr()
        assert any(r["name"] == "analysis.optimize" for r in tracer.records
                   if r["type"] == "span")


class TestCrashIsolation:
    """PR 5: the verify stage reverts even when verification *raises*;
    per-file crash isolation and deadlines keep the run alive."""

    def test_verify_crash_reverts_file(self, tmp_path, monkeypatch):
        # The try/finally regression: an exception inside verification
        # must restore the original source, on disk and in the result.
        from repro.optimize import pipeline

        target = tmp_path / "mod.py"
        target.write_text(SORT_THEN_FIND)
        real_collect = pipeline.analyze_source
        calls = {"n": 0}

        def exploding_verify_collect(source, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:       # 1st call: facts stage; 2nd: verify
                raise RuntimeError("verification crashed")
            return real_collect(source, **kwargs)

        monkeypatch.setattr(pipeline, "analyze_source",
                            exploding_verify_collect)
        result = SESSION.optimize_file(target, write=True)
        assert result.reverted
        assert "verification crashed" in result.revert_reason
        assert result.optimized == SORT_THEN_FIND
        assert target.read_text() == SORT_THEN_FIND

    def test_pipeline_crash_becomes_opt_internal(self, tmp_path,
                                                 monkeypatch):
        from repro.optimize import pipeline

        target = tmp_path / "mod.py"
        target.write_text(SORT_THEN_FIND)

        def always_explode(source, **kwargs):
            raise RuntimeError("boom in facts")

        monkeypatch.setattr(pipeline, "analyze_source", always_explode)
        result = SESSION.optimize_file(target)
        assert [f.check for f in result.findings] == ["OPT-INTERNAL"]
        assert result.reverted and not result.verified
        assert target.read_text() == SORT_THEN_FIND

    def test_crash_isolation_exit_code_without_traceback(
            self, tmp_path, monkeypatch, capsys):
        from repro.optimize import pipeline

        (tmp_path / "a.py").write_text(SORT_THEN_FIND)
        (tmp_path / "b.py").write_text(UNSORTED_FIND)
        real_collect = pipeline.analyze_source

        def explode_on_first(source, **kwargs):
            if "sort(" in source:
                raise RuntimeError("injected")
            return real_collect(source, **kwargs)

        monkeypatch.setattr(pipeline, "analyze_source", explode_on_first)
        rc = optimize_cli([str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 3
        assert "Traceback" not in captured.err
        assert "OPT-INTERNAL" in captured.out

    def test_timeout_leaves_file_untouched(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(SORT_THEN_FIND)
        rc = optimize_cli([str(target), "--timeout-s", "0", "--write"])
        capsys.readouterr()
        assert rc == 3
        assert target.read_text() == SORT_THEN_FIND

    def test_undecodable_file_skipped_others_optimized(self, tmp_path,
                                                       capsys):
        (tmp_path / "bad.py").write_bytes(b"\xff\xfe junk")
        good = tmp_path / "good.py"
        good.write_text(SORT_THEN_FIND)
        rc = optimize_cli([str(tmp_path), "--write"])
        capsys.readouterr()
        assert rc == 3                          # partial, but...
        assert "lower_bound" in good.read_text()  # ...good.py was optimized

