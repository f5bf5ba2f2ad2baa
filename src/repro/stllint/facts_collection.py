"""collect_facts: STLlint as a *producer* of queryable semantic facts.

The same symbolic interpretation that powers ``check_source`` — entry/exit
handlers, loop fixpoints, interprocedural summaries — here records what
it learned about container properties into a
:class:`~repro.facts.records.FactTable` instead of keeping it
interpreter-private.  This is the producer half of
the paper's Section 3.2 integration: "STLlint-derived flow facts" feed
Simplicissimus's property-guarded rewrites and the ``repro.optimize``
pipeline, which ask the table questions like "is ``v`` known sorted on
every path reaching the ``find`` call at line 7?".
"""

from __future__ import annotations

import ast
import textwrap

from ..facts.records import FactRecorder, FactTable
from ..trace import core as _trace
from .dataflow import FixpointChecker
from .interpreter import module_function_table
from .summaries import SummaryTable


def collect_facts(
    source: str, *, interprocedural: bool = True
) -> FactTable:
    """Analyze every function in ``source`` and return the facts learned.

    Diagnostics are still produced internally (the analysis is identical
    to ``check_source``) but discarded here; callers wanting both should
    lint separately — the runs are cheap and independent.

    With ``interprocedural=True`` (the default), calls between functions
    defined in ``source`` are analyzed across function boundaries via
    memoized summaries, so a helper's ``sort`` establishes sortedness
    visible at the caller's ``find``.
    """
    source = textwrap.dedent(source)
    tree = ast.parse(source)
    lines = source.splitlines()
    functions = module_function_table(tree) if interprocedural else {}
    recorder = FactRecorder()
    summaries = SummaryTable()

    def run() -> None:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                FixpointChecker(
                    node, lines, module_functions=functions,
                    facts=recorder, summaries=summaries,
                ).run()

    tr = _trace.ACTIVE
    if tr is None:
        run()
    else:
        with tr.span("facts.collect", cat="facts") as sp:
            run()
            sp.set("call_sites", len(recorder.calls))
            sp.set("facts", len(recorder.facts))
    return recorder.table()
