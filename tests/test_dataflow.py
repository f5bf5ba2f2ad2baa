"""Reference tests for the CFG + worklist fixpoint engine.

The engine once ran beside a legacy bounded-inlining engine, and these
tests compared the two.  That engine is gone; its verdicts survive as
recorded literals.  On every program below the fixpoint engine must
report exactly the findings recorded here: the set both engines agreed
on where they agreed, and the fixpoint engine's own output on programs
the legacy bounds truncated (loops needing more than 6 passes, call
chains deeper than 4 calls), where it found the bugs the bounds hid.
"""

import pathlib

import pytest

from repro import trace
from repro.stllint import (
    MSG_MAYBE_END_DEREF,
    MSG_PAST_END_DEREF,
    MSG_SINGULAR_ADVANCE,
    MSG_SINGULAR_DEREF,
    MSG_SORTED_LINEAR_FIND,
    MSG_UNINLINED_CALL,
    MSG_UNSTABLE_LOOP,
    Severity,
    check_source,
)
from repro.stllint.dataflow import reset_stats, stats

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)

MSG_SINGULAR_ERASE = "attempt to erase through a singular iterator"


def findings(report):
    """Comparable finding set: notes are engine commentary (uninlined
    calls, loop bounds) and legitimately differed between engines."""
    return {
        (d.severity.value, d.message, d.line)
        for d in report.diagnostics
        if d.severity is not Severity.NOTE
    }


def diagnostics(report):
    """Every diagnostic, notes included, in emission order."""
    return [(d.severity.value, d.message, d.line) for d in report.diagnostics]


def warning(message, line):
    return ("Warning", message, line)


#: Findings per example module, recorded where both engines agreed.
#: Every example not listed must be clean.
EXAMPLE_FINDINGS = {
    "lint_demo.py": [
        warning(MSG_SINGULAR_ADVANCE, 31),
        warning(MSG_SINGULAR_DEREF, 31),
        warning(MSG_SINGULAR_DEREF, 46),
        warning(MSG_PAST_END_DEREF, 61),
    ],
    "optimize_demo.py": [
        ("Suggestion", MSG_SORTED_LINEAR_FIND, 26),
    ],
}


BUGGY_EXTRACT_FAILS = '''
def extract_fails(students: "vector", fails: "vector"):
    it = students.begin()
    while not it.equals(students.end()):
        if fgrade(it.deref()):
            fails.push_back(it.deref())
            students.erase(it)
        else:
            it.increment()
'''

FIXED_EXTRACT_FAILS = BUGGY_EXTRACT_FAILS.replace(
    "            students.erase(it)",
    "            it = students.erase(it)",
).replace("extract_fails", "extract_ok")

#: Fig. 4's findings, in the order the engine emits them.
FIG4_FINDINGS = [
    warning(MSG_SINGULAR_DEREF, 5),
    warning(MSG_SINGULAR_ADVANCE, 9),
    warning(MSG_SINGULAR_DEREF, 6),
    warning(MSG_SINGULAR_ERASE, 7),
]


# A call chain of depth 6, two deeper than the legacy inliner followed.
# The erase at the bottom invalidates the caller's iterator; only an
# engine that analyzes through every level can see the deref afterwards
# is singular.
_DEPTH = 6
DEEP_CHAIN = "\n".join(
    [f'def g{_DEPTH}(v: "vector", it):\n    v.erase(it)\n']
    + [
        f'def g{i}(v: "vector", it):\n    g{i + 1}(v, it)\n'
        for i in range(_DEPTH - 1, 0, -1)
    ]
    + [
        'def caller(v: "vector"):',
        "    it = v.begin()",
        "    g1(v, it)",
        "    x = it.deref()",
    ]
)

# Singularity that needs 8 passes to ripple down a copy chain of 8
# iterators: each iteration moves the taint one variable further, so the
# legacy 6-pass bound never reached i8 and missed the singular deref.
_COPIES = 8
SLOW_LOOP = "\n".join(
    ['def slow_propagation(v: "vector", w: "vector"):',
     "    j = w.begin()",
     "    w.erase(j)"]
    + [f"    i{k} = v.begin()" for k in range(1, _COPIES + 1)]
    + ["    while unknown():"]
    + [f"        i{k} = i{k - 1}" for k in range(_COPIES, 1, -1)]
    + ["        i1 = j",
       f"    x = i{_COPIES}.deref()"]
)

RECURSIVE = '''
def walk(v: "vector", n):
    it = v.begin()
    walk(v, n)
    return it.deref()
'''

# Shapes where the legacy engine was structurally blind: a break/continue
# raised while exploring the then-branch of an `if` aborted the sibling
# else-branch *before it was analyzed*, so the erase on the fallthrough
# path never reached the loop join.  The CFG lowering gives each path its
# own edge, so the fixpoint engine sees the erase — these findings are
# fixpoint-only, and they are true positives.
BREAK_SHAPE = '''
def break_shape(v: "vector"):
    it = v.begin()
    while unknown():
        if done():
            break
        v.erase(it)
    it.deref()
'''

CONTINUE_SHAPE = '''
def continue_shape(v: "vector"):
    it = v.begin()
    while unknown():
        if skip():
            continue
        v.erase(it)
    it.deref()
'''

EDGE_SHAPES = [
    # an except handler observes the mutation from the try body
    '''
def try_shape(v: "vector"):
    it = v.begin()
    try:
        v.erase(it)
        risky()
    except ValueError:
        it.deref()
''',
    # finally runs on the return path
    '''
def finally_shape(v: "vector"):
    it = v.begin()
    try:
        return frob()
    finally:
        v.erase(it)
''',
    # for-loop over a container with nested break/continue
    '''
def for_shape(v: "vector"):
    total = 0
    for x in v:
        if skip(x):
            continue
        if done(x):
            break
        total = total + x
    return total
''',
    # while/else and nested loops
    '''
def nested_shape(v: "vector", w: "vector"):
    it = v.begin()
    while unknown():
        jt = w.begin()
        while more():
            jt.increment()
            jt.deref()
    else:
        it.deref()
''',
]

#: EDGE_SHAPES' findings, recorded where both engines agreed.
EDGE_FINDINGS = [
    {warning(MSG_SINGULAR_DEREF, 8)},
    set(),
    set(),
    {warning(MSG_MAYBE_END_DEREF, 8)},
]

#: Findings only the fixpoint engine reported (the legacy engine: none).
TRUNCATED_FINDINGS = {
    BREAK_SHAPE: {
        warning(MSG_SINGULAR_ERASE, 7), warning(MSG_SINGULAR_DEREF, 8),
    },
    CONTINUE_SHAPE: {
        warning(MSG_SINGULAR_ERASE, 7), warning(MSG_SINGULAR_DEREF, 8),
    },
}


class TestDifferentialExamples:
    """Every example module against its recorded findings: no losses,
    no spurious extras."""

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.name for p in EXAMPLES])
    def test_engines_agree(self, path):
        source = path.read_text(encoding="utf-8")
        expected = set(EXAMPLE_FINDINGS.get(path.name, ()))
        assert findings(check_source(source)) == expected

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.name for p in EXAMPLES])
    def test_fixpoint_never_loses_a_finding(self, path):
        # Stricter than the set: notes, order and duplicates too.
        source = path.read_text(encoding="utf-8")
        expected = EXAMPLE_FINDINGS.get(path.name, [])
        assert diagnostics(check_source(source)) == expected


class TestFig4Family:
    def test_buggy_flagged_by_both_engines(self):
        report = check_source(BUGGY_EXTRACT_FAILS)
        assert findings(report) == set(FIG4_FINDINGS)

    def test_fixed_clean_under_both_engines(self):
        assert check_source(FIXED_EXTRACT_FAILS).clean

    def test_fixpoint_superset_on_fig4(self):
        report = check_source(BUGGY_EXTRACT_FAILS)
        assert diagnostics(report) == FIG4_FINDINGS


class TestDeepCallChains:
    """Summaries have no depth bound: the invalidation at the bottom of a
    depth-6 chain reaches the caller."""

    def test_fixpoint_finds_deep_invalidation(self):
        report = check_source(DEEP_CHAIN)
        assert diagnostics(report) == [warning(MSG_SINGULAR_DEREF, 22)]

    def test_shallow_chains_agree(self):
        shallow = '''
def inner(v: "vector", it):
    v.erase(it)

def outer(v: "vector"):
    it = v.begin()
    inner(v, it)
    x = it.deref()
'''
        assert findings(check_source(shallow)) == {
            warning(MSG_SINGULAR_DEREF, 8)}


class TestRebindingCallee:
    """A callee that assigns to its iterator parameter leaves the
    caller's iterator to the class-level invalidation: the state its own
    new binding ends in says nothing about the caller's argument."""

    @pytest.mark.parametrize("rebind", [
        "it = v.begin()",
        "it += 1",
        "for it in v:\n        pass",
        "if (it := v.begin()):\n        pass",
    ])
    def test_caller_iterator_stays_invalidated(self, rebind):
        src = f'''
def helper(v: "vector", it):
    v.erase(it)
    {rebind}

def caller(v: "vector"):
    it = v.begin()
    helper(v, it)
    x = it.deref()
'''
        line = src.splitlines().index("    x = it.deref()") + 1
        assert warning(MSG_SINGULAR_DEREF, line) in findings(
            check_source(src))


class TestSlowLoops:
    """The worklist iterates until the abstract state stops changing, not
    until an arbitrary pass count runs out."""

    def test_fixpoint_finds_slow_taint(self):
        report = check_source(SLOW_LOOP)
        assert findings(report) == {warning(MSG_SINGULAR_DEREF, 21)}

    def test_fixpoint_converges_without_bound_notes(self):
        report = check_source(SLOW_LOOP)
        assert not any(
            d.message == MSG_UNSTABLE_LOOP for d in report.diagnostics
        )


class TestRecursion:
    def test_both_engines_terminate_and_degrade_gracefully(self):
        report = check_source(RECURSIVE)
        assert findings(report) == set()
        assert diagnostics(report) == [
            ("Note", f"walk(): {MSG_UNINLINED_CALL}", 4)]

    def test_mutual_recursion(self):
        src = '''
def ping(v: "vector"):
    pong(v)

def pong(v: "vector"):
    ping(v)
'''
        assert diagnostics(check_source(src)) == [
            ("Note", f"pong(): {MSG_UNINLINED_CALL}", 3)]


class TestEdgeShapes:
    """break/continue/raise/finally lower to explicit CFG edges."""

    @pytest.mark.parametrize("src", EDGE_SHAPES)
    def test_engines_agree(self, src):
        expected = EDGE_FINDINGS[EDGE_SHAPES.index(src)]
        assert findings(check_source(src)) == expected

    @pytest.mark.parametrize("src", [BREAK_SHAPE, CONTINUE_SHAPE])
    def test_fixpoint_sees_the_path_legacy_truncates(self, src):
        # The erase sits on the fallthrough path past an exiting `if`
        # arm.  The CFG engine must flag the deref after the loop (the
        # erase path is feasible and loops back).
        assert findings(check_source(src)) == TRUNCATED_FINDINGS[src]

    def test_handler_sees_body_mutation(self):
        fix = check_source(EDGE_SHAPES[0])
        assert any(
            d.message == MSG_SINGULAR_DEREF for d in fix.warnings
        )


class TestEngineSelection:
    def test_check_source_default_is_fixpoint(self):
        # check_source runs the fixpoint engine: its counters advance
        # and the deep chain's invalidation is found.
        reset_stats()
        report = check_source(DEEP_CHAIN)
        assert stats()["functions"] >= 1
        assert any(
            d.message == MSG_SINGULAR_DEREF for d in report.warnings
        )


class TestFixpointStats:
    def test_counters_advance_and_loops_stay_stable(self):
        reset_stats()
        check_source(SLOW_LOOP)
        s = stats()
        assert s["functions"] >= 1
        assert s["blocks"] >= 3
        assert s["iterations"] > s["blocks"]  # the loop actually iterated
        assert s["widenings"] >= 1
        assert s["unstable_loops"] == 0

    def test_summary_cache_hits_on_repeated_shapes(self):
        reset_stats()
        src = '''
def helper(v: "vector"):
    v.sort()

def a(v: "vector"):
    helper(v)

def b(v: "vector"):
    helper(v)
'''
        check_source(src)
        s = stats()
        assert s["summary_misses"] >= 1
        assert s["summary_hits"] >= 1

    def test_fixpoint_spans_carry_iteration_counts(self):
        tracer = trace.enable(trace.Tracer())
        try:
            check_source(SLOW_LOOP)
        finally:
            trace.disable()
        spans = [
            r for r in tracer.records
            if r["type"] == "span" and r["name"] == "stllint.fixpoint"
        ]
        assert spans
        attrs = spans[0]["attrs"]
        assert attrs["iterations"] > 0
        assert attrs["converged"] is True
