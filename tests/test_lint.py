"""ConceptLint: the whole-program driver, the checker extensions it
relies on (for-loop desugaring, tuple assignment, try/except havoc,
interprocedural analysis), suppression comments, and the concept-
conformance pass over ``@where`` call sites."""

import ast
import json
import pathlib
import textwrap

import pytest

from repro.analysis import AnalysisConfig, AnalysisSession
from repro.lint import (
    ALL_CHECKS,
    UNKNOWN_SUPPRESSION_CODE,
    UNUSED_SUPPRESSION,
    LintConfig,
    all_check_codes,
    check_code,
    collect_suppressions,
    main,
    run_concept_pass,
)
from repro.stllint import (
    MSG_SINGULAR_ADVANCE,
    MSG_SINGULAR_DEREF,
    MSG_UNINLINED_CALL,
    MSG_UNMODELED_STMT,
    Severity,
    check_source,
)


def lint_source(source, path="<string>", config=None):
    session = AnalysisSession(AnalysisConfig.from_lint_config(config))
    return session.lint_source(source, path=path)


def lint_paths(paths, config=None):
    session = AnalysisSession(AnalysisConfig.from_lint_config(config))
    return session.lint_paths(paths)


def msgs(report, severity=None):
    ds = report.diagnostics
    if severity is not None:
        ds = [d for d in ds if d.severity == severity]
    return [d.message for d in ds]


# ---------------------------------------------------------------------------
# Interpreter extensions: for-loop desugaring
# ---------------------------------------------------------------------------


class TestForLoopDesugaring:
    def test_fig4_bug_with_idiomatic_for(self):
        # Fig. 4's invalidation bug, written as a Python for loop: the
        # hidden iterator is invalidated by remove(), so the loop's
        # implicit advance and deref both go singular.
        report = check_source('''
def extract(students: "vector", fails: "vector"):
    for s in students:
        if fgrade(s):
            fails.push_back(s)
            students.remove(s)
''')
        assert MSG_SINGULAR_ADVANCE in msgs(report, Severity.WARNING)
        assert MSG_SINGULAR_DEREF in msgs(report, Severity.WARNING)
        # Both are reported at the for statement, where the hidden
        # iterator lives.
        lines = {d.line for d in report.warnings}
        assert lines == {3}

    def test_clean_for_loop(self):
        report = check_source('''
def total(v: "vector"):
    acc = 0
    for x in v:
        acc = acc + x
    return acc
''')
        assert report.clean
        assert not report.diagnostics

    def test_for_over_other_container_is_safe(self):
        # Mutating a *different* container inside the loop is fine.
        report = check_source('''
def copy_all(src: "vector", dst: "vector"):
    for x in src:
        dst.push_back(x)
''')
        assert report.clean

    def test_break_suppresses_trailing_advance(self):
        # A loop that erases and immediately breaks never advances the
        # dead iterator, so no warning should fire.
        report = check_source('''
def drop_first_match(v: "vector"):
    for x in v:
        if x == 0:
            v.remove(x)
            break
''')
        assert MSG_SINGULAR_ADVANCE not in msgs(report)

    def test_for_orelse_runs_on_exit_state(self):
        report = check_source('''
def f(v: "vector"):
    for x in v:
        pass
    else:
        v.push_back(1)
''')
        assert report.clean


# ---------------------------------------------------------------------------
# Interpreter extensions: tuple assignment, try/except, unmodeled stmts
# ---------------------------------------------------------------------------


class TestTupleAssignment:
    def test_swap_preserves_iterator_validity(self):
        report = check_source('''
def f(v: "vector"):
    i = v.begin()
    j = v.end()
    i, j = j, i
    x = j.deref()
''')
        # After the swap, j is the old begin() — dereferencable.
        assert MSG_SINGULAR_DEREF not in msgs(report)

    def test_tuple_unpack_tracks_elements(self):
        report = check_source('''
def f(v: "vector"):
    a, b = v.begin(), v.end()
    x = b.deref()
''')
        # b is the end iterator; dereferencing it must be flagged.
        assert any("past-the-end" in m for m in msgs(report))

    def test_mismatched_unpack_is_opaque_not_crash(self):
        report = check_source('''
def f(v: "vector"):
    a, b = pair_of_things()
    v.push_back(a)
''')
        assert report.clean


class TestTryExceptHavoc:
    def test_handler_sees_weakened_state(self):
        # The try body may or may not have run before the exception: an
        # iterator into a container mutated in the body may be invalid
        # in the handler.
        report = check_source('''
def f(v: "vector"):
    it = v.begin()
    try:
        v.push_back(1)
    except ValueError:
        x = it.deref()
''')
        assert any("singular" in m for m in msgs(report))

    def test_untouched_containers_survive(self):
        report = check_source('''
def f(v: "vector", w: "vector"):
    it = v.begin()
    try:
        w.push_back(1)
    except ValueError:
        x = it.deref()
''')
        assert report.clean

    def test_finally_always_runs(self):
        report = check_source('''
def f(v: "vector"):
    try:
        v.push_back(1)
    finally:
        it = v.begin()
        x = it.deref()
''')
        assert report.clean


class TestUnmodeledStatements:
    def test_note_when_tracked_state_involved(self):
        report = check_source('''
def f(v: "vector"):
    v += other
''')
        notes = msgs(report, Severity.NOTE)
        assert any(MSG_UNMODELED_STMT in m for m in notes)

    def test_silent_when_no_tracked_state(self):
        report = check_source('''
def f(v: "vector"):
    n = 0
    n += 1
    v.push_back(n)
''')
        assert not report.diagnostics


# ---------------------------------------------------------------------------
# Interprocedural analysis
# ---------------------------------------------------------------------------


class TestInterprocedural:
    def test_helper_invalidates_callers_iterator(self):
        report = check_source('''
def shrink(v):
    v.erase(v.begin())

def f(v: "vector"):
    it = v.begin()
    shrink(v)
    return it.deref()
''')
        assert MSG_SINGULAR_DEREF in msgs(report)

    def test_benign_helper_stays_clean(self):
        report = check_source('''
def peek(v):
    return v.begin().deref()

def f(v: "vector"):
    v.push_back(1)
    it = v.begin()
    x = peek(v)
    return it.deref()
''')
        assert report.clean

    def test_recursion_cutoff_emits_note(self):
        report = check_source('''
def gobble(v):
    v.erase(v.begin())
    gobble(v)

def f(v: "vector"):
    gobble(v)
''')
        assert any(MSG_UNINLINED_CALL in m
                   for m in msgs(report, Severity.NOTE))

    def test_return_value_flows_back(self):
        report = check_source('''
def first(v):
    return v.begin()

def f(v: "vector"):
    it = first(v)
    v.push_back(1)
    return it.deref()
''')
        # The returned iterator aliases v; push_back may invalidate it.
        assert any("singular" in m for m in msgs(report))

    def test_disabled_interprocedural_misses_the_bug(self):
        src = '''
def shrink(v):
    v.erase(v.begin())

def f(v: "vector"):
    it = v.begin()
    shrink(v)
    return it.deref()
'''
        flagged = lint_source(src, config=LintConfig(interprocedural=True))
        plain = lint_source(src, config=LintConfig(interprocedural=False))
        assert any(f.check == "singular-deref" for f in flagged.findings)
        assert not any(f.check == "singular-deref" for f in plain.findings)


# ---------------------------------------------------------------------------
# Suppression comments and check codes
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_collect(self):
        lines = [
            "x = 1",
            "y = it.deref()  # stllint: ignore[singular-deref]",
            "z = 2  # stllint: ignore[a, b]",
            "w = 3  # stllint: ignore",
        ]
        supp = collect_suppressions(lines)
        assert supp[2] == {"singular-deref"}
        assert supp[3] == {"a", "b"}
        assert supp[4] == {ALL_CHECKS}
        assert 1 not in supp

    def test_suppressed_findings_are_counted_not_shown(self):
        report = lint_source('''
def f(v: "vector"):
    e = v.end()
    return e.deref()  # stllint: ignore[past-end-deref]
''')
        assert not report.findings
        assert report.suppressed == 1

    def test_wrong_code_does_not_suppress(self):
        report = lint_source('''
def f(v: "vector"):
    e = v.end()
    return e.deref()  # stllint: ignore[cross-container]
''')
        assert any(f.check == "past-end-deref" for f in report.findings)

    def test_bare_ignore_suppresses_everything(self):
        report = lint_source('''
def f(v: "vector"):
    e = v.end()
    return e.deref()  # stllint: ignore
''')
        assert not report.findings
        assert report.suppressed == 1

    def test_every_message_maps_to_a_code(self):
        codes = all_check_codes()
        assert "singular-deref" in codes
        assert "concept-conformance" in codes
        assert check_code(MSG_SINGULAR_ADVANCE) == "singular-advance"
        assert check_code("some future message") == "library-spec"


class TestSuppressionHygiene:
    """A suppression that can never work is itself a finding."""

    def test_unknown_code_warns(self):
        report = lint_source('''
def f(v: "vector"):
    e = v.end()
    return e.deref()  # stllint: ignore[past-end-derf]
''')
        checks = [f.check for f in report.findings]
        # The typo'd code suppresses nothing, so the real finding stays
        # and the typo is called out.
        assert "past-end-deref" in checks
        assert UNKNOWN_SUPPRESSION_CODE in checks
        bad = next(f for f in report.findings
                   if f.check == UNKNOWN_SUPPRESSION_CODE)
        assert "past-end-derf" in bad.message
        assert bad.severity == "warning"

    def test_multiple_codes_one_line(self):
        # One code suppresses the finding, the other is a typo: the
        # suppression counts as used (no unused warning) but the typo is
        # still reported.
        report = lint_source('''
def f(v: "vector"):
    e = v.end()
    return e.deref()  # stllint: ignore[past-end-deref, past-end-derf]
''')
        checks = [f.check for f in report.findings]
        assert report.suppressed == 1
        assert "past-end-deref" not in checks
        assert UNKNOWN_SUPPRESSION_CODE in checks
        assert UNUSED_SUPPRESSION not in checks

    def test_suppression_matching_no_finding_warns(self):
        report = lint_source('''
def f(v: "vector"):
    it = v.begin()
    return it.deref()  # stllint: ignore[singular-deref]
''')
        # begin() on an unknown-size container may dereference fine; the
        # suppression silences nothing and should be flagged as dead.
        checks = [f.check for f in report.findings]
        assert UNUSED_SUPPRESSION in checks
        dead = next(f for f in report.findings
                    if f.check == UNUSED_SUPPRESSION)
        assert dead.severity == "warning"
        assert dead.line == 4

    def test_used_suppression_does_not_warn(self):
        report = lint_source('''
def f(v: "vector"):
    e = v.end()
    return e.deref()  # stllint: ignore[past-end-deref]
''')
        assert report.suppressed == 1
        assert not report.findings

    def test_bare_unused_ignore_warns(self):
        report = lint_source('''
def f(v: "vector"):
    x = 1  # stllint: ignore
    return x
''')
        assert [f.check for f in report.findings] == [UNUSED_SUPPRESSION]

    def test_docstring_placeholder_not_flagged(self):
        # Documentation quoting the comment syntax as ``ignore[...]``
        # must not trip the unknown-code check.
        report = lint_source('''
"""Use ``# stllint: ignore[...]`` to silence a check."""

def f(v: "vector"):
    return v.begin()
''')
        assert not report.findings

    def test_hygiene_codes_are_listed(self):
        codes = all_check_codes()
        assert UNUSED_SUPPRESSION in codes
        assert UNKNOWN_SUPPRESSION_CODE in codes


# ---------------------------------------------------------------------------
# Concept-conformance pass
# ---------------------------------------------------------------------------


CONCEPT_SRC = '''
from repro.concepts import where
from repro.graphs.interfaces import IncidenceGraph

@where(g=IncidenceGraph)
def out_degree(g, v):
    return 0

def bad():
    return out_degree(42, 0)

def unknown(g):
    return out_degree(g, 0)
'''


class TestConceptPass:
    def test_violation_reported_as_error(self):
        report = lint_source(CONCEPT_SRC)
        errors = [f for f in report.findings if f.severity == "error"]
        assert len(errors) == 1
        assert errors[0].check == "concept-conformance"
        assert "does not model" in errors[0].message
        assert errors[0].function == "bad"

    def test_uninferrable_arguments_are_not_guessed(self):
        # `unknown` passes an un-typed parameter: no finding.
        import ast

        findings = run_concept_pass(ast.parse(CONCEPT_SRC))
        assert all(f.function != "unknown" for f in findings)

    def test_disabled_by_config(self):
        report = lint_source(
            CONCEPT_SRC, config=LintConfig(concept_pass=False)
        )
        assert not report.findings

    @pytest.mark.parametrize("source, reads", [
        (CONCEPT_SRC, True),
        ("import functools\n@functools.lru_cache(1)\ndef f(): pass\n",
         True),
        # where imported relatively, as the library's algorithms do
        ("from ..concepts import where\nfrom ..graphs import G\n"
         "@where(g=G)\ndef f(g): pass\nf(1)\n", False),
        ("import functools\n@functools.cache\ndef f(): pass\n", False),
        ("import functools\nclass C:\n    @functools.lru_cache(1)\n"
         "    def f(self): pass\n", False),
        ("import os\ndef deco(x): return x\n@deco(os)\ndef f(): pass\n",
         False),
    ])
    def test_imports_only_what_reads_imports_admits(self, source, reads,
                                                    monkeypatch):
        """The analysis cache keys a file on its imports only when
        reads_imports holds, so otherwise the pass must import nothing."""
        from repro.lint import concept_pass

        tree = ast.parse(source)
        imports = [n for n in ast.walk(tree)
                   if isinstance(n, (ast.Import, ast.ImportFrom))]
        imported = []
        with monkeypatch.context() as m:
            m.setattr(concept_pass.importlib, "import_module",
                      lambda name: imported.append(name))
            run_concept_pass(tree, imports=imports)
        assert concept_pass.reads_imports(tree, imports) is reads
        assert bool(imported) is reads


# ---------------------------------------------------------------------------
# Driver: discovery, reports, JSON, CLI
# ---------------------------------------------------------------------------


BUGGY = '''
def f(v: "vector"):
    it = v.begin()
    v.push_back(1)
    return it.deref()
'''

CLEAN = '''
def f(v: "vector"):
    v.push_back(1)
    it = v.begin()
    return it.deref()
'''


class TestDriver:
    def test_lint_paths_over_directory(self, tmp_path):
        (tmp_path / "buggy.py").write_text(BUGGY)
        (tmp_path / "clean.py").write_text(CLEAN)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "also_clean.py").write_text(CLEAN)
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text(BUGGY)

        report = lint_paths([tmp_path])
        assert len(report.files) == 3          # __pycache__ skipped
        assert report.summary()["warnings"] >= 1
        assert report.fails("warning")
        assert not report.fails("error")
        assert not report.fails("never")

    def test_exclude_patterns(self, tmp_path):
        (tmp_path / "buggy.py").write_text(BUGGY)
        report = lint_paths(
            [tmp_path], LintConfig(exclude=("*buggy*",))
        )
        assert not report.files

    def test_json_round_trips(self, tmp_path):
        (tmp_path / "buggy.py").write_text(BUGGY)
        report = lint_paths([tmp_path])
        data = json.loads(report.to_json())
        assert data["version"] == 1
        assert data["summary"]["files"] == 1
        diags = data["files"][0]["diagnostics"]
        assert diags and diags[0]["check"]
        assert diags[0]["line"] > 0

    def test_missing_path_is_a_finding(self, tmp_path):
        # A typo'd path must not produce a silently empty, passing run.
        report = lint_paths([tmp_path / "no_such_dir"])
        assert [f.check for f in report.findings] == ["io-error"]
        assert report.fails("error")

    def test_syntax_error_is_a_finding(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        report = lint_paths([tmp_path])
        assert [f.check for f in report.findings] == ["parse-error"]
        assert report.fails("error")

    def test_render_text_has_summary_line(self, tmp_path):
        (tmp_path / "buggy.py").write_text(BUGGY)
        text = lint_paths([tmp_path]).render_text()
        assert "warning(s)" in text
        assert "function(s) checked" in text

    def test_functions_without_containers_are_skipped(self):
        report = lint_source('''
def pure(x, y):
    return x + y
''')
        assert report.functions_checked == 0


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        buggy = tmp_path / "buggy.py"
        buggy.write_text(BUGGY)
        clean = tmp_path / "clean.py"
        clean.write_text(CLEAN)

        assert main([str(clean)]) == 0
        assert main([str(buggy)]) == 1
        assert main([str(buggy), "--fail-on", "error"]) == 0
        assert main([str(buggy), "--fail-on", "never"]) == 0
        assert main([]) == 2
        capsys.readouterr()

    def test_json_output(self, tmp_path, capsys):
        buggy = tmp_path / "buggy.py"
        buggy.write_text(BUGGY)
        main([str(buggy), "--format", "json"])
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["summary"]["warnings"] >= 1

    def test_list_checks(self, capsys):
        assert main(["--list-checks"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "singular-deref" in out
        assert "concept-conformance" in out


class TestCrashIsolation:
    """PR 5: per-file crash isolation, undecodable files, and per-file
    deadlines — a bad file or an interpreter bug degrades one file's
    report, never the run."""

    def test_interpreter_crash_becomes_finding(self, tmp_path, monkeypatch):
        # Inject a RuntimeError into the k-th Checker.run call: the run
        # must finish with one LINT-INTERNAL finding naming the function
        # and every other function still checked.
        from repro.lint import driver as lint_driver

        for name in ("alpha", "beta", "gamma"):
            (tmp_path / f"{name}.py").write_text(BUGGY)

        real_checker = lint_driver.FixpointChecker
        calls = {"n": 0}

        def exploding_checker(*args, **kwargs):
            checker = real_checker(*args, **kwargs)
            calls["n"] += 1
            if calls["n"] == 2:
                def boom():
                    raise RuntimeError("injected interpreter bug")
                checker.run = boom
            return checker

        monkeypatch.setattr(lint_driver, "FixpointChecker", exploding_checker)
        report = lint_paths([tmp_path])
        internal = [f for f in report.findings if f.check == "LINT-INTERNAL"]
        assert len(internal) == 1
        assert "injected interpreter bug" in internal[0].message
        assert report.partial
        assert report.summary()["internal_errors"] == 1
        # The other files' analysis still ran and found the bug.
        assert sum(1 for f in report.findings
                   if f.check != "LINT-INTERNAL") >= 2

    def test_crash_isolation_exit_code_without_traceback(
            self, tmp_path, monkeypatch, capsys):
        from repro.lint import driver as lint_driver

        (tmp_path / "a.py").write_text(CLEAN)
        (tmp_path / "b.py").write_text(CLEAN)

        real_checker = lint_driver.FixpointChecker

        def exploding_checker(*args, **kwargs):
            checker = real_checker(*args, **kwargs)
            def boom():
                raise RuntimeError("boom")
            checker.run = boom
            return checker

        monkeypatch.setattr(lint_driver, "FixpointChecker", exploding_checker)
        rc = main([str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 3                          # partial results
        assert "Traceback" not in captured.err
        assert "LINT-INTERNAL" in captured.out

    def test_undecodable_file_skipped_run_continues(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_bytes(b"\xff\xfe not utf-8")
        (tmp_path / "good.py").write_text(BUGGY)
        report = lint_paths([tmp_path])
        internal = [f for f in report.findings if f.check == "LINT-INTERNAL"]
        assert len(internal) == 1
        assert "decode" in internal[0].message
        # good.py still linted.
        assert any(f.path.endswith("good.py") for f in report.findings)
        assert main([str(tmp_path)]) == 3
        capsys.readouterr()

    def test_timeout_becomes_finding(self, tmp_path):
        (tmp_path / "slow.py").write_text(BUGGY)
        report = lint_paths([tmp_path], LintConfig(timeout_s=0.0))
        assert [f.check for f in report.findings] == ["LINT-TIMEOUT"]
        assert report.partial

    def test_internal_findings_are_not_suppressible(self, tmp_path,
                                                    monkeypatch):
        from repro.lint import driver as lint_driver

        src = BUGGY.replace(
            "it.deref()", "it.deref()  # stllint: ignore")
        (tmp_path / "hushed.py").write_text(src)

        real_checker = lint_driver.FixpointChecker

        def exploding_checker(*args, **kwargs):
            checker = real_checker(*args, **kwargs)
            def boom():
                raise RuntimeError("boom")
            checker.run = boom
            return checker

        monkeypatch.setattr(lint_driver, "FixpointChecker", exploding_checker)
        report = lint_paths([tmp_path])
        assert any(f.check == "LINT-INTERNAL" for f in report.findings)

    def test_internal_codes_listed(self):
        codes = all_check_codes()
        assert "LINT-INTERNAL" in codes
        assert "LINT-TIMEOUT" in codes


# A copy of the per-function predicate the driver used before it learned
# to collect everything in one walk; the one-walk scan must pick the
# same functions in the same order.
def _old_is_lintable(fn):
    from repro.lint.driver import _container_annotated
    from repro.stllint.specs import CONTAINER_SPECS

    if any(_container_annotated(a) for a in fn.args.args):
        return True
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.annotation, ast.Constant)
            and isinstance(node.annotation.value, str)
            and node.annotation.value.lower() in CONTAINER_SPECS
        ):
            return True
    return False


def _old_scan_module(tree):
    nodes = list(ast.walk(tree))
    return (
        [n for n in nodes
         if isinstance(n, ast.FunctionDef) and _old_is_lintable(n)],
        [n for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom))],
    )


NESTED_SRC = '''
import os
def outer(x):
    def inner():
        try:
            pass
        except ValueError:
            def in_handler():
                acc: "vector" = make()
        import json
    async def coro():
        v: "list" = make()
    return inner
class K:
    def meth(self, v: "deque"):
        match v:
            case 1:
                def in_case():
                    w: "vector" = make()
            case _:
                from os import path as os
def plain(x):
    lam = lambda: x
    return lam
'''


class TestOneWalkScan:
    ROOT = pathlib.Path(__file__).resolve().parent.parent
    DIRS = (ROOT / "src" / "repro", ROOT / "examples")

    def test_scan_matches_per_function_walks(self):
        from repro.lint.driver import _scan_module, discover_files

        sources = [NESTED_SRC] + [
            f.read_text() for f in discover_files(self.DIRS)]
        for source in sources:
            tree = ast.parse(source)
            assert _scan_module(tree) == _old_scan_module(tree)
        tree = ast.parse(NESTED_SRC)
        names = [f.name for f in _scan_module(tree)[0]]
        assert names == ["outer", "inner", "meth", "in_handler", "in_case"]

    def test_reports_match_per_function_walks(self, monkeypatch):
        from repro.analysis import AnalysisSession
        from repro.lint import driver as lint_driver

        new = AnalysisSession().lint_paths(self.DIRS).to_dict()
        monkeypatch.setattr(lint_driver, "_scan_module", _old_scan_module)
        old = AnalysisSession().lint_paths(self.DIRS).to_dict()
        assert new == old
        assert new["summary"]["functions_checked"] > 0
