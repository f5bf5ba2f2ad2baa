"""Tests for STLlint: Fig. 4's invalidation bug, range violations,
sortedness entry/exit handlers, optimization suggestions, and semantic
archetypes — plus agreement between the static verdicts and the dynamic
behaviour of the real containers."""

import ast

import pytest

from repro.sequences import SingularIteratorError, Vector
from repro.sequences.algorithms import accumulate, count, find, max_element
from repro.stllint import (
    AbstractContainer,
    Checker,
    Env,
    MSG_MAYBE_END_DEREF,
    MSG_PAST_END_DEREF,
    MSG_SINGULAR_DEREF,
    MSG_SORTED_LINEAR_FIND,
    MSG_UNSORTED_LOWER_BOUND,
    MultipassViolation,
    MultiPassSequence,
    Severity,
    SinglePassSequence,
    Validity,
    check_source,
    check_traversal_requirement,
)

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

FIXED_EXTRACT_FAILS = '''
def extract_fails(students: "vector", fails: "vector"):
    it = students.begin()
    while not it.equals(students.end()):
        if fgrade(it.deref()):
            fails.push_back(it.deref())
            it = students.erase(it)
        else:
            it.increment()
'''


class TestFig4:
    """The paper's flagship example: the misguided 'optimization' from an
    introductory C++ text book."""

    def test_buggy_version_flagged(self):
        report = check_source(BUGGY_EXTRACT_FAILS)
        assert any(
            d.message == MSG_SINGULAR_DEREF for d in report.warnings
        )

    def test_warning_text_matches_paper(self):
        report = check_source(BUGGY_EXTRACT_FAILS)
        rendered = report.render()
        assert "Warning: attempt to dereference a singular iterator" in rendered

    def test_warning_points_at_the_dereference_line(self):
        # The paper's output anchors the warning at `if (fgrade(*iter))`.
        report = check_source(BUGGY_EXTRACT_FAILS)
        derefs = [d for d in report.warnings if d.message == MSG_SINGULAR_DEREF]
        assert any("fgrade" in d.source_line for d in derefs)

    def test_fixed_version_clean(self):
        report = check_source(FIXED_EXTRACT_FAILS)
        assert report.clean, report.render()

    def test_static_verdict_matches_dynamic_behaviour(self):
        # The static warning corresponds to a real runtime failure on our
        # tracked containers, and the fixed version really runs.
        def buggy(students, fails):
            it = students.begin()
            while not it.equals(students.end()):
                if it.deref() < 60:
                    fails.push_back(it.deref())
                    students.erase(it)
                else:
                    it.increment()

        def fixed(students, fails):
            it = students.begin()
            while not it.equals(students.end()):
                if it.deref() < 60:
                    fails.push_back(it.deref())
                    it = students.erase(it)
                else:
                    it.increment()

        with pytest.raises(SingularIteratorError):
            buggy(Vector([70, 40, 80]), Vector())
        out = Vector()
        src = Vector([70, 40, 80, 30])
        fixed(src, out)
        assert out.to_list() == [40, 30]
        assert src.to_list() == [70, 80]


class TestInvalidationRules:
    def test_vector_erase_taints_other_iterators(self):
        report = check_source('''
def f(v: "vector"):
    a = v.begin()
    b = v.begin()
    v.erase(b)
    x = a.deref()
''')
        assert any(d.message == MSG_SINGULAR_DEREF for d in report.warnings)

    def test_list_erase_spares_other_iterators(self):
        report = check_source('''
def f(l: "list"):
    a = l.begin()
    b = l.begin()
    b.increment()
    l.erase(b)
    x = a.deref()
''')
        assert not any(d.message == MSG_SINGULAR_DEREF for d in report.warnings)

    def test_list_erased_iterator_itself_is_dead(self):
        report = check_source('''
def f(l: "list"):
    b = l.begin()
    l.erase(b)
    x = b.deref()
''')
        assert any(d.message == MSG_SINGULAR_DEREF for d in report.warnings)

    def test_deque_push_back_taints(self):
        report = check_source('''
def f(d: "deque"):
    a = d.begin()
    d.push_back(v)
    x = a.deref()
''')
        assert any(d.message == MSG_SINGULAR_DEREF for d in report.warnings)

    @pytest.mark.parametrize("op", ["push_back", "push_front"])
    def test_deque_push_makes_iterators_singular(self, op):
        # A deque push kills every iterator at run time, so the abstract
        # iterator is definitely singular, not merely maybe-singular.
        tree = ast.parse(
            f'def f(d: "deque"):\n    a = d.begin()\n    d.{op}(x)\n'
        ).body[0]
        checker = Checker(tree, [])
        env = Env()
        env.vars["d"] = AbstractContainer("deque", "d")
        for stmt in tree.body:
            checker._exec_stmt(stmt, env)
        assert env.vars["a"].validity is Validity.SINGULAR

    @pytest.mark.parametrize("op", ["push_front", "pop_front"])
    def test_vector_has_no_front_operations(self, op):
        report = check_source(f'''
def f(v: "vector"):
    v.{op}()
''')
        assert any(f"does not support {op}" in d.message
                   for d in report.warnings)

    def test_vector_push_back_taints_via_reallocation(self):
        report = check_source('''
def f(v: "vector"):
    a = v.begin()
    v.push_back(x)
    y = a.deref()
''')
        assert any(d.message == MSG_SINGULAR_DEREF for d in report.warnings)

    def test_list_push_back_is_safe(self):
        report = check_source('''
def f(l: "list"):
    a = l.begin()
    l.push_back(x)
    y = a.deref()
''')
        assert report.clean

    def test_clear_kills_everything(self):
        report = check_source('''
def f(l: "list"):
    a = l.begin()
    l.clear()
    y = a.deref()
''')
        assert any(d.message == MSG_SINGULAR_DEREF for d in report.warnings)


class TestRangeViolations:
    def test_deref_of_end(self):
        report = check_source('''
def f(v: "vector"):
    e = v.end()
    x = e.deref()
''')
        assert any(d.message == MSG_PAST_END_DEREF for d in report.warnings)

    def test_unchecked_find_result(self):
        # find may return end(); dereferencing without the equals(end())
        # check is the range violation STLlint detects statically.
        report = check_source('''
def f(v: "vector"):
    i = find(v.begin(), v.end(), 42)
    x = i.deref()
''')
        assert any(d.message == MSG_MAYBE_END_DEREF for d in report.warnings)

    def test_checked_find_result_clean(self):
        report = check_source('''
def f(v: "vector"):
    i = find(v.begin(), v.end(), 42)
    if not i.equals(v.end()):
        x = i.deref()
''')
        assert report.clean, report.render()

    def test_checked_other_way_round(self):
        report = check_source('''
def f(v: "vector"):
    i = find(v.begin(), v.end(), 42)
    if i.equals(v.end()):
        return
    x = i.deref()
''')
        assert report.clean, report.render()

    def test_cross_container_comparison(self):
        report = check_source('''
def f(a: "vector", b: "vector"):
    i = a.begin()
    j = b.begin()
    if i.equals(j):
        return
''')
        assert any("different containers" in d.message for d in report.warnings)

    def test_increment_of_end(self):
        report = check_source('''
def f(v: "vector"):
    e = v.end()
    e.increment()
''')
        assert any("past the end" in d.message for d in report.warnings)


class TestSortednessProperty:
    """Entry/exit handlers: 'sorting algorithms introduce a sortedness
    property that can be used in checking for proper use of algorithms that
    require it, such as binary search' (Section 3.1)."""

    def test_sort_then_lower_bound_clean(self):
        report = check_source('''
def f(v: "vector"):
    sort(v.begin(), v.end())
    i = lower_bound(v.begin(), v.end(), 42)
''')
        assert not any(d.message == MSG_UNSORTED_LOWER_BOUND
                       for d in report.warnings)

    def test_unsorted_lower_bound_flagged(self):
        report = check_source('''
def f(v: "vector"):
    i = lower_bound(v.begin(), v.end(), 42)
''')
        assert any(d.message == MSG_UNSORTED_LOWER_BOUND
                   for d in report.warnings)

    def test_unsorted_binary_search_flagged(self):
        report = check_source('''
def f(v: "vector"):
    found = binary_search(v.begin(), v.end(), 42)
''')
        assert any(d.message == MSG_UNSORTED_LOWER_BOUND
                   for d in report.warnings)

    def test_mutation_clears_sortedness(self):
        report = check_source('''
def f(v: "vector"):
    sort(v.begin(), v.end())
    v.push_back(x)
    found = binary_search(v.begin(), v.end(), 42)
''')
        assert any(d.message == MSG_UNSORTED_LOWER_BOUND
                   for d in report.warnings)

    def test_sortedness_lost_at_join_if_one_branch_mutates(self):
        report = check_source('''
def f(v: "vector"):
    sort(v.begin(), v.end())
    if cond(v):
        v.push_back(x)
    found = binary_search(v.begin(), v.end(), 42)
''')
        assert any(d.message == MSG_UNSORTED_LOWER_BOUND
                   for d in report.warnings)

    def test_sortedness_survives_joins_when_both_branches_keep_it(self):
        report = check_source('''
def f(v: "vector"):
    sort(v.begin(), v.end())
    if cond(v):
        y = v.size()
    found = binary_search(v.begin(), v.end(), 42)
''')
        assert not any(d.message == MSG_UNSORTED_LOWER_BOUND
                       for d in report.warnings)


class TestOptimizationSuggestion:
    """Section 3.2: 'STLlint produces the following warning when given a
    program that first sorts a data structure and later attempts to perform
    a linear search'."""

    def test_sorted_then_find_suggests_lower_bound(self):
        report = check_source('''
def f(v: "vector"):
    sort(v.begin(), v.end())
    i = find(v.begin(), v.end(), 42)
    if not i.equals(v.end()):
        x = i.deref()
''')
        assert any(d.message == MSG_SORTED_LINEAR_FIND
                   for d in report.suggestions)

    def test_suggestion_text_matches_paper(self):
        report = check_source('''
def f(v: "vector"):
    sort(v.begin(), v.end())
    i = find(v.begin(), v.end(), 42)
''')
        rendered = report.render()
        assert "searched linearly" in rendered
        assert "lower_bound" in rendered

    def test_unsorted_find_not_flagged(self):
        report = check_source('''
def f(v: "vector"):
    i = find(v.begin(), v.end(), 42)
''')
        assert not report.suggestions

    def test_suggestions_are_not_errors(self):
        report = check_source('''
def f(v: "vector"):
    sort(v.begin(), v.end())
    i = find(v.begin(), v.end(), 42)
''')
        assert report.clean  # suggestion only


class TestSemanticArchetypes:
    """Section 3.1's max_element demonstration."""

    def test_max_element_needs_forward_iterator(self):
        assert check_traversal_requirement(max_element) == "forward iterator"

    def test_find_honours_input_iterator(self):
        assert check_traversal_requirement(
            lambda f, l: find(f, l, 4)
        ) == "input iterator"

    def test_accumulate_honours_input_iterator(self):
        assert check_traversal_requirement(
            lambda f, l: accumulate(f, l, 0)
        ) == "input iterator"

    def test_single_pass_raises_on_second_traversal(self):
        sp = SinglePassSequence([1, 2, 3])
        first = sp.begin()
        second = first.clone()
        second.increment()
        with pytest.raises(MultipassViolation):
            first.deref()

    def test_single_pass_allows_one_traversal(self):
        sp = SinglePassSequence([1, 2, 3])
        it = sp.begin()
        seen = []
        while not it.equals(sp.end()):
            seen.append(it.deref())
            it.increment()
        assert seen == [1, 2, 3]

    def test_multipass_archetype_permits_revisiting(self):
        mp = MultiPassSequence([1, 2, 3])
        a = mp.begin()
        b = a.clone()
        b.increment()
        assert a.deref() == 1  # still fine

    def test_max_element_correct_on_multipass(self):
        mp = MultiPassSequence([3, 9, 2])
        assert max_element(mp.begin(), mp.end()).deref() == 9


class TestCheckerRobustness:
    def test_multiple_functions(self):
        report = check_source(BUGGY_EXTRACT_FAILS + FIXED_EXTRACT_FAILS)
        assert any(d.message == MSG_SINGULAR_DEREF for d in report.warnings)

    def test_loop_terminates_on_non_converging_programs(self):
        report = check_source('''
def f(v: "vector"):
    it = v.begin()
    while cond(it):
        v.push_back(x)
        it = v.begin()
''')
        assert report is not None  # fixpoint machinery terminated

    def test_return_inside_branch(self):
        report = check_source('''
def f(v: "vector"):
    i = find(v.begin(), v.end(), 1)
    if i.equals(v.end()):
        return
    x = i.deref()
''')
        assert report.clean

    def test_nested_loops(self):
        report = check_source('''
def f(v: "vector", w: "list"):
    i = v.begin()
    while not i.equals(v.end()):
        j = w.begin()
        while not j.equals(w.end()):
            use(i.deref(), j.deref())
            j.increment()
        i.increment()
''')
        assert report.clean, report.render()

    def test_diagnostics_deduplicated(self):
        report = check_source(BUGGY_EXTRACT_FAILS)
        keys = [(d.line, d.message) for d in report.diagnostics]
        assert len(keys) == len(set(keys))

    def test_unannotated_params_opaque(self):
        report = check_source('''
def f(x):
    y = x.frobnicate()
    return y
''')
        assert report.clean


class TestHeapPropertyHandlers:
    """The heap family's pre/postconditions, checked like sortedness:
    make_heap establishes the property, push_back weakens it to
    heap-except-last, push_heap restores it, sort_heap consumes it and
    yields sortedness."""

    def test_full_protocol_clean(self):
        report = check_source('''
def f(v: "vector"):
    make_heap(v)
    v.push_back(x)
    push_heap(v)
    pop_heap(v)
    m = v.pop_back()
    sort_heap(v)
    found = binary_search(v.begin(), v.end(), 42)
''')
        assert report.clean, report.render()

    def test_sort_heap_without_make_heap(self):
        from repro.stllint import MSG_NOT_A_HEAP

        report = check_source('''
def f(v: "vector"):
    sort_heap(v)
''')
        assert any(d.message == MSG_NOT_A_HEAP for d in report.warnings)

    def test_pop_heap_after_unrestored_push_back(self):
        from repro.stllint import MSG_NOT_A_HEAP

        report = check_source('''
def f(v: "vector"):
    make_heap(v)
    v.push_back(x)
    pop_heap(v)
''')
        assert any(d.message == MSG_NOT_A_HEAP for d in report.warnings)

    def test_make_heap_destroys_sortedness(self):
        report = check_source('''
def f(v: "vector"):
    sort(v.begin(), v.end())
    make_heap(v)
    found = binary_search(v.begin(), v.end(), 42)
''')
        assert any("may not be sorted" in d.message for d in report.warnings)

    def test_sort_heap_establishes_sortedness(self):
        report = check_source('''
def f(v: "vector"):
    make_heap(v)
    sort_heap(v)
    found = binary_search(v.begin(), v.end(), 42)
''')
        assert not any("may not be sorted" in d.message
                       for d in report.warnings)
