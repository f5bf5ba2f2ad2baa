"""The end-to-end optimizer: facts -> select -> rewrite -> verify, the
``python -m repro.optimize`` CLI, and the per-stage trace spans."""

import json

import pytest

from repro import trace
from repro.analysis import AnalysisSession
from repro.facts import collect_facts
from repro.optimize import apply_rewrites, plan_rewrites
from repro.optimize.cli import main

SESSION = AnalysisSession()

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

        assert main([str(clean), "--check"]) == 0
        assert main([str(prog)]) == 0          # report-only: informational
        assert main([str(prog), "--check"]) == 1
        assert main([str(prog), "--check", "--write"]) == 2
        assert main([]) == 2
        capsys.readouterr()

    def test_write_then_check_passes(self, tmp_path, capsys):
        prog = tmp_path / "prog.py"
        prog.write_text(SORT_THEN_FIND)
        assert main([str(prog), "--write"]) == 0
        assert main([str(prog), "--check"]) == 0
        capsys.readouterr()

    def test_json_output(self, tmp_path, capsys):
        prog = tmp_path / "prog.py"
        prog.write_text(SORT_THEN_FIND)
        main([str(prog), "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["rewrites"] == 1
        assert data["files"][0]["rewrites"][0]["call"] == "find"

    def test_diff_output(self, tmp_path, capsys):
        prog = tmp_path / "prog.py"
        prog.write_text(SORT_THEN_FIND)
        main([str(prog), "--diff"])
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
        main([str(prog), "--trace", str(out)])
        capsys.readouterr()
        data = json.loads(out.read_text())
        names = {ev.get("name") for ev in data["traceEvents"]}
        assert "optimize.run" in names
        assert "optimize.facts" in names


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
        rc = main([str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 3
        assert "Traceback" not in captured.err
        assert "OPT-INTERNAL" in captured.out

    def test_timeout_leaves_file_untouched(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(SORT_THEN_FIND)
        rc = main([str(target), "--timeout-s", "0", "--write"])
        capsys.readouterr()
        assert rc == 3
        assert target.read_text() == SORT_THEN_FIND

    def test_undecodable_file_skipped_others_optimized(self, tmp_path,
                                                       capsys):
        (tmp_path / "bad.py").write_bytes(b"\xff\xfe junk")
        good = tmp_path / "good.py"
        good.write_text(SORT_THEN_FIND)
        rc = main([str(tmp_path), "--write"])
        capsys.readouterr()
        assert rc == 3                          # partial, but...
        assert "lower_bound" in good.read_text()  # ...good.py was optimized


# ---------------------------------------------------------------------------
# OPT-MONO: monomorphizing proven-single-kind call sites
# ---------------------------------------------------------------------------

SORT_ONLY_VECTOR = '''
def prepare(v: "vector"):
    sort(v.begin(), v.end())
    return v
'''

SORT_ONLY_LIST = '''
def prepare(xs: "list"):
    sort(xs.begin(), xs.end())
    return xs
'''


class TestMonomorphize:
    def test_vector_sort_plans_specialized_spelling(self):
        from repro.optimize.monomorphize import plan_monomorphizations

        plans = plan_monomorphizations(collect_facts(SORT_ONLY_VECTOR))
        assert len(plans) == 1
        p = plans[0]
        assert (p.call, p.replacement) == ("sort", "sort__vector")
        assert p.code == "OPT-MONO-sort"
        assert "quicksort" in p.concept_to     # dispatch resolved by name
        assert "vector" in p.properties[0]
        assert "dispatch" in p.describe()

    def test_list_sort_plans_list_spelling(self):
        from repro.optimize.monomorphize import plan_monomorphizations

        plans = plan_monomorphizations(collect_facts(SORT_ONLY_LIST))
        assert [(p.call, p.replacement) for p in plans] \
            == [("sort", "sort__list")]
        assert "merge sort" in plans[0].concept_to

    def test_off_by_default(self):
        from repro.optimize.pipeline import _optimize_source_impl

        result = _optimize_source_impl(SORT_ONLY_VECTOR)
        assert result.plans == []
        assert result.optimized == SORT_ONLY_VECTOR

    def test_rewrites_and_verifies_when_enabled(self):
        from repro.optimize.pipeline import _optimize_source_impl

        result = _optimize_source_impl(SORT_ONLY_VECTOR, monomorphize=True)
        assert result.verified and not result.reverted
        assert "sort__vector(v.begin(), v.end())" in result.optimized

    def test_composes_with_taxonomy_pass(self):
        from repro.optimize.pipeline import _optimize_source_impl

        result = _optimize_source_impl(SORT_THEN_FIND, monomorphize=True)
        assert result.verified and not result.reverted
        pairs = {(p.call, p.replacement) for p in result.plans}
        assert ("find", "lower_bound") in pairs
        assert ("sort", "sort__vector") in pairs
        assert "sort__vector" in result.optimized
        assert "lower_bound" in result.optimized

    def test_idempotent(self):
        from repro.optimize.pipeline import _optimize_source_impl

        once = _optimize_source_impl(SORT_ONLY_VECTOR, monomorphize=True)
        again = _optimize_source_impl(once.optimized, monomorphize=True)
        assert again.plans == []
        assert again.optimized == once.optimized

    def test_spellings_are_lint_recognized(self):
        """The rewritten spelling carries sort's semantic spec: SORTED is
        still established, so a downstream find remains rewritable."""
        from repro.optimize.pipeline import _optimize_source_impl

        result = _optimize_source_impl(SORT_THEN_FIND, monomorphize=True)
        table = collect_facts(result.optimized)
        sites = {s.algorithm: s for s in table.call_sites()}
        assert "sort__vector" in sites
        lb = sites["lower_bound"]
        assert lb.must_hold("sorted")

    def test_cli_monomorphize_flag(self, tmp_path, capsys):
        prog = tmp_path / "prog.py"
        prog.write_text(SORT_ONLY_VECTOR)
        assert main([str(prog)]) == 0           # off: nothing to do
        out_off = capsys.readouterr().out
        assert "sort__vector" not in out_off
        assert main([str(prog), "--monomorphize", "--diff"]) == 0
        out_on = capsys.readouterr().out
        assert "sort__vector" in out_on

    def test_config_fingerprint_includes_monomorphize(self):
        from repro.analysis import AnalysisConfig

        base = AnalysisConfig()
        mono = AnalysisConfig(monomorphize=True)
        assert base.fingerprint("optimize") != mono.fingerprint("optimize")
        assert base.fingerprint("lint") == mono.fingerprint("lint")
