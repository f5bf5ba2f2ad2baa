"""One STLlint pass per source: lint findings and optimizer facts from the
same checker runs.

The differential half keeps the two loops the fused pass replaced — the
lint driver without a recorder, and ``collect_facts``'s own loop over
the top-level defs — as the oracle, and requires the fused pass to give
byte-identical findings, an equal fact table and equal plans.  The
pass-count half counts ``FixpointChecker.run`` calls: a cold lint then
optimize of one file costs two passes, and the session's handoff of the
lint pass to the optimizer is refused whenever that pass could differ
from the optimizer's own.
"""

import ast
import pathlib
import textwrap

import pytest

from repro.analysis import AnalysisConfig, AnalysisSession
from repro.analysis.cache import make_key
from repro.analysis.schema import SCHEMA_VERSION
from repro.facts.records import FactRecorder
from repro.lint.driver import LintConfig, _lint_source_impl, analyze_source
from repro.optimize.pipeline import _optimize_source_impl, plan_rewrites
from repro.stllint import facts_collection
from repro.stllint.dataflow import FixpointChecker
from repro.stllint.interpreter import module_function_table
from repro.stllint.summaries import SummaryTable

from .test_lint_oracle import generate

ROOT = pathlib.Path(__file__).resolve().parents[1]


def two_loop_collect_facts(source: str):
    """The facts loop the fused pass replaced: every top-level def, in
    source order, with one summary table."""
    source = textwrap.dedent(source)
    tree = ast.parse(source)
    lines = source.splitlines()
    functions = module_function_table(tree)
    recorder = FactRecorder()
    summaries = SummaryTable()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            FixpointChecker(
                node, lines, module_functions=functions,
                facts=recorder, summaries=summaries,
            ).run()
    return recorder.table()


def _sources():
    for d in ("examples", "src/repro", "tests/corpus"):
        for p in sorted((ROOT / d).rglob("*.py")):
            yield str(p.relative_to(ROOT)), p.read_text(encoding="utf-8")
    for seed in range(40):
        for kind in ("vector", "deque", "list"):
            yield f"<oracle {seed} {kind}>", generate(seed, kind)


def test_fused_pass_matches_the_two_loops():
    compared = 0
    for name, source in _sources():
        try:
            want_table = two_loop_collect_facts(source)
        except SyntaxError:
            continue
        want_report = _lint_source_impl(source, path=name,
                                        config=LintConfig())
        got = analyze_source(source, path=name)
        assert got.report.to_dict() == want_report.to_dict(), name
        assert got.table.facts == want_table.facts, name
        assert got.table.calls == want_table.calls, name
        assert got.table.call_sites() == want_table.call_sites(), name
        assert plan_rewrites(got.table) == plan_rewrites(want_table), name
        compared += 1
    assert compared > 250


def test_collect_facts_is_a_view_of_the_pass():
    source = (ROOT / "examples" / "optimize_demo.py").read_text()
    table = facts_collection.collect_facts(source)
    want = two_loop_collect_facts(source)
    assert table.calls == want.calls and table.facts == want.facts
    assert plan_rewrites(table)


# -- the function-set rule ------------------------------------------------------

# ``plain`` declares no container, so lint skips it; it gets one from a
# callee's return.  ``outer`` is not lintable either, but its nested
# def is (lint checks container-declaring defs at any depth).
FUNCTION_SET = '''
def make():
    v: "vector"
    sort(v.begin(), v.end())
    return v


def plain(x):
    v = make()
    it = v.begin()
    v.push_back(x)
    it.deref()
    return find(v.begin(), v.end(), x)


def outer(x):
    def inner(w: "vector"):
        sort(w.begin(), w.end())
        return find(w.begin(), w.end(), x)
    return inner
'''


def test_function_set_rule():
    got = analyze_source(FUNCTION_SET)
    plain_report = _lint_source_impl(FUNCTION_SET, config=LintConfig())
    # Diagnostics only for lint's list: ``plain``'s singular deref is
    # not reported, and the findings are those of a plain lint.
    assert got.report.to_dict() == plain_report.to_dict()
    assert got.report.functions_checked == 2          # make, inner
    assert not any(f.function == "plain" for f in got.report.findings)
    # Facts from every run: lint's list (``make``, then the nested
    # ``inner``), then the top-level defs it skipped (``plain``, whose
    # call to ``make`` records ``make``'s sort again through its
    # summary), in source order.
    assert [(c.function, c.algorithm) for c in got.table.calls] == [
        ("make", "sort"), ("inner", "sort"), ("inner", "find"),
        ("make", "sort"), ("plain", "find"),
    ]
    # The old loop saw top-level defs only: the nested def's sites are
    # the difference.
    old = two_loop_collect_facts(FUNCTION_SET)
    assert [(c.function, c.algorithm) for c in old.calls] == [
        ("make", "sort"), ("make", "sort"), ("plain", "find"),
    ]
    assert [s.line for s in plan_rewrites(got.table)] == [19]
    assert plan_rewrites(old) == []


# -- crash isolation through the seam ------------------------------------------

SORT_THEN_FIND = '''
def lookup(v: "vector", x):
    sort(v.begin(), v.end())
    return find(v.begin(), v.end(), x)


def other(v: "vector"):
    it = v.begin()
    return it
'''


def _explode_in(monkeypatch, function: str, when=lambda checker: True):
    real_run = FixpointChecker.run

    def run(self):
        if self.tree.name == function and when(self):
            raise RuntimeError(f"checker broke in {function}")
        return real_run(self)

    monkeypatch.setattr(FixpointChecker, "run", run)


def test_one_crashed_function_plans_nothing(monkeypatch, tmp_path):
    # The crash hits ``other``; ``lookup``'s facts are intact and would
    # plan a rewrite, but a partial table is never planned from.
    _explode_in(monkeypatch, "other")
    partial = analyze_source(SORT_THEN_FIND)
    assert partial.failures
    assert plan_rewrites(partial.table)          # what would be planned
    with pytest.raises(RuntimeError, match="STLlint pass incomplete"):
        _optimize_source_impl(SORT_THEN_FIND)
    target = tmp_path / "mod.py"
    target.write_text(SORT_THEN_FIND)
    session = AnalysisSession()
    report = session.lint_file(target)
    assert "LINT-INTERNAL" in [f.check for f in report.findings]
    result = session.optimize_file(target, write=True)
    assert [f.check for f in result.findings] == ["OPT-INTERNAL"]
    assert not result.plans and not result.changed
    assert target.read_text() == SORT_THEN_FIND
    with pytest.raises(RuntimeError, match="facts incomplete"):
        facts_collection.collect_facts(SORT_THEN_FIND)


def test_crash_in_the_rewrites_pass_reverts(monkeypatch):
    _explode_in(monkeypatch, "lookup",
                when=lambda c: "lower_bound" in "\n".join(
                    c.sink.source_lines))
    result = _optimize_source_impl(SORT_THEN_FIND)
    assert result.reverted and not result.verified
    assert "LINT-INTERNAL" in result.revert_reason
    assert result.optimized == SORT_THEN_FIND


def test_parse_error_keeps_its_result():
    result = _optimize_source_impl("def f(:\n", path="bad.py")
    assert [(f.check, f.line) for f in result.findings] == [
        ("parse-error", 1)]
    assert not result.verified and not result.reverted


# -- pass counts -----------------------------------------------------------------

HELPER_PROGRAM = '''
def prepare(v: "vector"):
    sort(v.begin(), v.end())


def lookup(v: "vector", x):
    prepare(v)
    return find(v.begin(), v.end(), x)


def scan(v: "list", x):
    return find(v.begin(), v.end(), x)
'''
F = 3          # prepare, lookup, scan


@pytest.fixture
def runs(monkeypatch):
    count = {"n": 0}
    real_run = FixpointChecker.run

    def counted(self):
        count["n"] += 1
        return real_run(self)

    monkeypatch.setattr(FixpointChecker, "run", counted)
    return count


def _program(tmp_path) -> pathlib.Path:
    target = tmp_path / "mod.py"
    target.write_text(HELPER_PROGRAM)
    return target


def _reference(target):
    session = AnalysisSession()
    return (session.lint_source(HELPER_PROGRAM, str(target)).to_dict(),
            _optimize_source_impl(HELPER_PROGRAM, str(target)).to_dict())


@pytest.mark.parametrize("cache", [False, True])
def test_cold_lint_then_optimize_is_two_passes(tmp_path, runs, cache):
    target = _program(tmp_path)
    want = _reference(target)
    runs["n"] = 0
    session = AnalysisSession(AnalysisConfig(
        cache=cache, cache_dir=str(tmp_path / "cache")))
    report = session.lint_file(target)
    result = session.optimize_file(target)
    assert result.plans
    assert runs["n"] == 2 * F
    assert (report.to_dict(), result.to_dict()) == want


def test_standalone_optimize_is_two_passes(tmp_path, runs):
    target = _program(tmp_path)
    result = AnalysisSession().optimize_file(target)
    assert result.plans and runs["n"] == 2 * F


def test_lint_paths_hands_nothing_off(tmp_path, runs):
    target = _program(tmp_path)
    session = AnalysisSession()
    session.lint_paths([target])
    assert runs["n"] == F
    session.optimize_file(target)
    assert runs["n"] == 3 * F


def test_preseeded_summaries_refuse_the_handoff(tmp_path, runs):
    target = _program(tmp_path)
    want = _reference(target)
    config = AnalysisConfig(cache=True, cache_dir=str(tmp_path / "cache"))
    first = AnalysisSession(config)
    first.lint_file(target)
    # Drop the lint result but keep the persisted summary table, so the
    # next lint miss starts from a pre-seeded table.
    sha = first._read(target)[1]
    first.cache.discard(make_key(
        "lint", str(target.resolve()), sha, config.fingerprint("lint"),
        "", SCHEMA_VERSION))
    assert first._get_cached("summaries", target, sha, "") is not None
    runs["n"] = 0
    session = AnalysisSession(config)
    report = session.lint_file(target)
    result = session.optimize_file(target)
    assert session.counters["lint_analyzed"] == 1
    assert runs["n"] == 3 * F
    assert (report.to_dict(), result.to_dict()) == want


def test_non_default_concept_pass_refuses_the_handoff(tmp_path, runs):
    target = _program(tmp_path)
    want_result = _reference(target)[1]
    runs["n"] = 0
    session = AnalysisSession(AnalysisConfig(concept_pass=False))
    session.lint_file(target)
    result = session.optimize_file(target)
    assert runs["n"] == 3 * F
    assert result.to_dict() == want_result


def test_handoff_is_keyed_by_content(tmp_path, runs):
    target = _program(tmp_path)
    session = AnalysisSession()
    session.lint_file(target)
    target.write_text(HELPER_PROGRAM.replace("lookup", "search"))
    result = session.optimize_file(target)
    assert runs["n"] == 3 * F
    assert [p.function for p in result.plans] == ["search"]
