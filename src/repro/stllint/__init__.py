"""STLlint: high-level static checking against library specifications
(Section 3.1), plus the concept-level optimization advice of Section 3.2.

Quick use::

    from repro.stllint import check_source

    report = check_source('''
    def extract_fails(students: "vector", fails: "vector"):
        it = students.begin()
        while not it.equals(students.end()):
            if fgrade(it.deref()):
                fails.push_back(it.deref())
                students.erase(it)
            else:
                it.increment()
    ''')
    print(report.render())
    # Warning: attempt to dereference a singular iterator
    #     if fgrade(it.deref()):
"""

from .abstract_values import (
    AbstractBool,
    AbstractContainer,
    AbstractIterator,
    AbstractValue,
    Position,
    Validity,
)
from .archetype_check import (
    MultiPassSequence,
    MultipassViolation,
    SinglePassIterator,
    SinglePassSequence,
    check_traversal_requirement,
)
from .dataflow import (
    FixpointChecker,
    FixpointStats,
    check_source,
)
from .dataflow import report as fixpoint_report
from .dataflow import reset_stats as reset_fixpoint_stats
from .dataflow import stats as fixpoint_stats
from .diagnostics import Diagnostic, DiagnosticSink, Severity
from .facts_collection import collect_facts
from .interpreter import Checker, Env, module_function_table
from .summaries import Summary, SummaryTable
from .specs import (
    ALGORITHM_SPECS,
    MSG_CROSS_CONTAINER,
    MSG_MAYBE_END_DEREF,
    MSG_NOT_A_HEAP,
    MSG_PAST_END_DEREF,
    MSG_SINGULAR_ADVANCE,
    MSG_SINGULAR_DEREF,
    MSG_SORTED_LINEAR_FIND,
    MSG_UNINLINED_CALL,
    MSG_UNMODELED_STMT,
    MSG_UNSORTED_LOWER_BOUND,
    MSG_UNSTABLE_LOOP,
    SORTED,
    register_algorithm_spec,
    unregister_algorithm_spec,
)

__all__ = [
    "AbstractBool", "AbstractContainer", "AbstractIterator", "AbstractValue",
    "Position", "Validity",
    "Diagnostic", "DiagnosticSink", "Severity",
    "Checker", "Env", "check_source",
    "collect_facts",
    "module_function_table",
    "FixpointChecker", "FixpointStats", "Summary", "SummaryTable",
    "fixpoint_stats", "reset_fixpoint_stats", "fixpoint_report",
    "ALGORITHM_SPECS", "register_algorithm_spec",
    "unregister_algorithm_spec", "SORTED",
    "MSG_CROSS_CONTAINER", "MSG_MAYBE_END_DEREF", "MSG_NOT_A_HEAP",
    "MSG_PAST_END_DEREF", "MSG_SINGULAR_ADVANCE",
    "MSG_SINGULAR_DEREF", "MSG_SORTED_LINEAR_FIND",
    "MSG_UNINLINED_CALL", "MSG_UNMODELED_STMT",
    "MSG_UNSORTED_LOWER_BOUND", "MSG_UNSTABLE_LOOP",
    "SinglePassSequence", "SinglePassIterator", "MultiPassSequence",
    "MultipassViolation", "check_traversal_requirement",
]
