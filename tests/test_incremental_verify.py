"""The optimizer's verify pass re-runs only the call-graph components its
renames touched and replays the original pass for the rest.

The oracle is a full pass over the rewritten text: for every source that
plans a rewrite, and for hand-written cases aimed at the component rule,
the incremental pass must give the same report and the same fact
recordings, in order.
"""

import dataclasses
import random
import textwrap

from repro import trace
from repro.lint.driver import analyze_source
from repro.optimize.pipeline import (
    _optimize_source_impl,
    apply_rewrites,
    plan_rewrites,
)

from .test_single_pass import _sources

#: Statements a generated def's body draws from: sorts and finds (the
#: rewrites), mutations between them (refusals), a past-end deref with
#: and without a suppression, and a call to another def of the module.
_PIECES = [
    "sort(v.begin(), v.end())",
    "it = find(v.begin(), v.end(), key)",
    "v.push_back(key)",
    "e = v.end()\n    y = e.deref()",
    "e = v.end()\n    y = e.deref()  # stllint: ignore[past-end-deref]",
    "y = key  # stllint: ignore[singular-deref]",
    "CALL(v, key)",
]


def generated_module(seed: int) -> str:
    """A module of seven defs over one container parameter each; some
    call others (forward or backward), one in four is nested in an
    outer def, and every body ends in a find, most after a sort, so
    most modules plan rewrites in several components."""
    rng = random.Random(seed)
    names = [f"f{i}" for i in range(7)]
    out = []
    for name in names:
        kind = rng.choice(["vector", "deque", "list"])
        body = [rng.choice(_PIECES).replace("CALL", rng.choice(names))
                for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.6:
            body.append("sort(v.begin(), v.end())")
        body.append("return find(v.begin(), v.end(), key)")
        text = f'def {name}(v: "{kind}", key):\n' + "".join(
            f"    {line}\n" for line in body)
        if rng.random() < 0.25:
            text = (f"def outer_{name}(key):\n"
                    + textwrap.indent(text, "    ")
                    + f"    return {name}\n")
        out.append(text)
    return "\n\n".join(out)


def _verify_both_ways(source):
    """(plans, incremental pass, full pass) over the text the default
    pipeline rewrites ``source`` to."""
    prior = analyze_source(source)
    plans = plan_rewrites(prior.table)
    optimized = apply_rewrites(source, plans)
    return (plans, analyze_source(optimized, prior=prior),
            analyze_source(optimized))


def _assert_same(got, want, name="<string>"):
    assert got.report.to_dict() == want.report.to_dict(), name
    assert got.table.calls == want.table.calls, name
    assert got.table.facts == want.table.facts, name


def test_incremental_verify_equals_a_full_pass_over_every_source():
    rewritten = reused = 0
    generated = ((f"<generated {seed}>", generated_module(seed))
                 for seed in range(60))
    for name, source in [*_sources(), *generated]:
        prior = analyze_source(source, path=name)
        if prior.failures:
            continue
        plans = plan_rewrites(prior.table)
        if not plans:
            continue
        optimized = apply_rewrites(source, plans)
        got = analyze_source(optimized, path=name, prior=prior)
        _assert_same(got, analyze_source(optimized, path=name), name)
        rewritten += 1
        reused += got.record.reused
    assert rewritten > 50
    assert reused > rewritten


# (a) The rewrite is in ``helper``; ``caller``, defined first, reports
# helper's sorted-linear-find suggestion through helper's summary, so
# its diagnostics change although its own lines do not.
CALLER_SEES_HELPER = '''
def caller(v: "vector", x):
    return helper(v, x)


def helper(w: "vector", x):
    sort(w.begin(), w.end())
    return find(w.begin(), w.end(), x)


def unrelated(v: "vector"):
    e = v.end()
    return e.deref()
'''


def test_caller_of_the_rewritten_helper_reruns():
    before = analyze_source(CALLER_SEES_HELPER)
    assert [(f.function, f.check) for f in before.report.findings
            if f.line == 8] == [("caller", "sorted-linear-find")]
    plans, got, want = _verify_both_ways(CALLER_SEES_HELPER)
    assert [(p.function, p.replacement) for p in plans] == [
        ("helper", "lower_bound")]
    assert not any(f.line == 8 for f in want.report.findings)
    _assert_same(got, want)
    # unrelated replays
    assert (len(got.record.runs), got.record.reused) == (3, 1)


# (b) The replacement name is a def of the module: the rewritten call
# names it, so its def joins the rewritten function's component.
REPLACEMENT_IS_A_DEF = '''
def lookup(v: "vector", x):
    sort(v.begin(), v.end())
    return find(v.begin(), v.end(), x)


def lower_bound(first, last, x):
    v: "vector"
    return v.begin()


def unrelated(v: "vector"):
    return v.begin()
'''


def test_replacement_name_that_is_a_module_def_reruns_it():
    plans, got, want = _verify_both_ways(REPLACEMENT_IS_A_DEF)
    assert [p.replacement for p in plans] == ["lower_bound"]
    _assert_same(got, want)
    assert (len(got.record.runs), got.record.reused) == (3, 1)


# (c) The rewritten site is in a nested container-declaring def: its run
# belongs to the top-level def around it.
NESTED = '''
def outer(x):
    def inner(w: "vector"):
        sort(w.begin(), w.end())
        return find(w.begin(), w.end(), x)
    return inner


def other(v: "vector"):
    return v.begin()
'''


def test_nested_def_reruns_with_its_enclosing_def():
    plans, got, want = _verify_both_ways(NESTED)
    assert [(p.function, p.line) for p in plans] == [("inner", 5)]
    _assert_same(got, want)
    # Runs: lint's list in walk order (other, then the nested inner),
    # then outer for its facts; inner re-runs with outer.
    assert [run[0][0] for run in got.record.runs] == [
        "other", "inner", "outer"]
    assert got.record.reused == 1


# (d) A used and an unused suppression on a def the rewrite leaves alone:
# the replayed diagnostics still reach the suppression machinery.
SUPPRESSED = '''
def lookup(v: "vector", x):
    sort(v.begin(), v.end())
    return find(v.begin(), v.end(), x)


def untouched(v: "vector"):
    e = v.end()
    y = e.deref()  # stllint: ignore[past-end-deref]
    return y  # stllint: ignore[singular-deref]
'''


def test_suppressions_on_a_replayed_def_behave_the_same():
    plans, got, want = _verify_both_ways(SUPPRESSED)
    assert plans
    _assert_same(got, want)
    assert got.record.reused == 1
    assert got.report.suppressed == 1
    assert [f.line for f in got.report.findings
            if f.check == "unused-suppression"] == [10]


# (e) A prior whose skeleton differs from the rewritten text (here one
# more line at the top) reuses nothing: the pass is a full one.
def test_skeleton_mismatch_falls_back_to_a_full_pass():
    shifted = "\n" + CALLER_SEES_HELPER
    prior = analyze_source(CALLER_SEES_HELPER)
    optimized = apply_rewrites(shifted, [
        dataclasses.replace(p, line=p.line + 1)
        for p in plan_rewrites(prior.table)])
    got = analyze_source(optimized, prior=prior)
    _assert_same(got, analyze_source(optimized))
    assert got.record.reused == 0 and "lower_bound" in optimized
    renamed = CALLER_SEES_HELPER.replace("unrelated", "unrelate_")
    got = analyze_source(renamed, prior=prior)
    _assert_same(got, analyze_source(renamed))
    assert got.record.reused == 0


#: A comment holding a form feed, then a past-end deref on line 4 and a
#: sort-then-find whose find is on line 4.
FEED_DEREF = ('def f(v: "vector"):\n    # a\fb\n    it = v.end()\n'
              '    return it.deref()  # stllint: ignore[past-end-deref]\n')
FEED_SORT_THEN_FIND = ('def lookup(v: "vector", x):\n    # a\fb\n'
                       '    sort(v.begin(), v.end())\n'
                       '    return find(v.begin(), v.end(), x)\n')


def test_line_breaks_the_parser_does_not_count():
    # A form feed is a line break to ``str.splitlines`` but not to the
    # parser; ``\n``, ``\r\n`` and a lone ``\r`` are one break each.
    # Replay, suppressions, source lines and the rewrite's column surgery
    # all count lines as the parser does.
    feed = CALLER_SEES_HELPER.replace("    return helper", "    #\f\n"
                                      "    return helper")
    for newline in ("\n", "\r\n", "\r"):
        plans, got, want = _verify_both_ways(feed.replace("\n", newline))
        assert plans
        _assert_same(got, want)
        assert got.record.reused == 1

        report = analyze_source(FEED_DEREF.replace("\n", newline)).report
        assert (report.suppressed, report.findings) == (1, [])
        bare = analyze_source(FEED_DEREF.replace(
            "  # stllint: ignore[past-end-deref]", "").replace("\n", newline))
        assert [(f.line, f.check, f.source_line)
                for f in bare.report.findings] == [
            (4, "past-end-deref", "    return it.deref()")]

        source = FEED_SORT_THEN_FIND.replace("\n", newline)
        result = _optimize_source_impl(source)
        assert result.verified and not result.reverted
        assert result.optimized == source.replace("return find",
                                                  "return lower_bound")
        assert [(f.line, f.source_line) for f in result.findings] == [
            (4, "    return find(v.begin(), v.end(), x)")]


def test_verify_span_counts_reran_and_reused_runs():
    tracer = trace.enable()
    try:
        _optimize_source_impl(CALLER_SEES_HELPER)
    finally:
        trace.disable()
    [span] = [r for r in tracer.records if r["name"] == "optimize.verify"]
    assert (span["attrs"]["reran"], span["attrs"]["reused"]) == (2, 1)
