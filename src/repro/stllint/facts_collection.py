"""collect_facts: STLlint as a *producer* of queryable semantic facts.

The checker runs that produce the lint driver's findings — entry/exit
handlers, loop fixpoints, interprocedural summaries — also record what
they learned about container properties into a
:class:`~repro.facts.records.FactTable` instead of keeping it
interpreter-private: one pass serves the checker and the optimizer, as
one symbolic execution does in the paper.  This is the producer half of
the paper's Section 3.2 integration: "STLlint-derived flow facts" feed
Simplicissimus's property-guarded rewrites and the ``repro.optimize``
pipeline, which ask the table questions like "is ``v`` known sorted on
every path reaching the ``find`` call at line 7?".
"""

from __future__ import annotations

import ast
import textwrap

from ..facts.records import FactTable
from ..trace import core as _trace


def collect_facts(
    source: str, *, interprocedural: bool = True
) -> FactTable:
    """Analyze every function in ``source`` and return the facts learned.

    A view over the lint driver's fused pass
    (:func:`repro.lint.driver.analyze_source`): one checker run per
    function yields both the findings and the facts, so a caller that
    wants both should call ``analyze_source`` and read ``.report`` and
    ``.table`` instead of paying for a second pass.  This view skips the
    concept pass, which records no facts.

    With ``interprocedural=True`` (the default), calls between functions
    defined in ``source`` are analyzed across function boundaries via
    memoized summaries, so a helper's ``sort`` establishes sortedness
    visible at the caller's ``find``.

    Raises :class:`SyntaxError` when ``source`` does not parse and
    :class:`RuntimeError` when a checker crash left the facts incomplete
    (a partial table could claim properties a missing path refutes).
    """
    from ..analysis.config import AnalysisConfig
    from ..lint.driver import analyze_source

    source = textwrap.dedent(source)
    ast.parse(source)
    config = AnalysisConfig(concept_pass=False,
                            interprocedural=interprocedural)
    tr = _trace.ACTIVE
    if tr is None:
        analysis = analyze_source(source, config=config)
    else:
        with tr.span("facts.collect", cat="facts") as sp:
            analysis = analyze_source(source, config=config)
            sp.set("call_sites", len(analysis.table.calls))
            sp.set("facts", len(analysis.table.facts))
    if analysis.failures:
        raise RuntimeError(
            f"facts incomplete: {analysis.failures[0].message}")
    return analysis.table
