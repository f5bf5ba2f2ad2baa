#!/usr/bin/env python3
"""What ``repro.analysis lint`` finds (Sections 2 and 3.1, end to end).

Every function below is *dead code* — nothing here ever calls them — and
that is the point: the linter checks them statically, the way STLlint
"analyzes whole programs" without running them.  Expected findings:

- ``extract_fails``: Fig. 4's invalidation bug, written as an idiomatic
  Python ``for`` loop (the implicit iterator is invalidated by
  ``remove``, so the loop's hidden advance/deref go singular).
- ``drop_front_twice``: the same class of bug *across a function
  boundary* — a helper mutates the container, the caller's iterator
  dies; caught by interprocedural (inlined) analysis.
- ``misuse_graph_algorithm``: a ``@where`` clause violated at a call
  site — ``int`` does not model Incidence Graph — reported as a
  concept-conformance error without executing anything.
- ``peek_sentinel``: a deliberate past-the-end read, silenced with a
  ``# stllint: ignore[...]`` suppression comment (it is counted, not
  shown).

Run:  python examples/lint_demo.py       (lints this very file)
      python -m repro.analysis lint examples/  (the whole directory)
"""

from repro.concepts import where
from repro.graphs.interfaces import IncidenceGraph


def extract_fails(students: "vector", fails: "vector"):
    """Fig. 4's misguided 'optimization', Python-style."""
    for s in students:
        if fgrade(s):                  # noqa: F821 - analyzed, never run
            fails.push_back(s)
            students.remove(s)         # invalidates the loop's iterator


def shrink(v):
    """Helper with no annotations: analyzed at its call sites, with the
    caller's abstract arguments."""
    v.erase(v.begin())


def drop_front_twice(v: "vector"):
    it = v.begin()
    shrink(v)                          # the helper invalidates `it` ...
    return it.deref()                  # ... so this dereference is flagged


@where(g=IncidenceGraph)
def out_edge_count(g, v):
    """A generic graph algorithm with a declared where clause."""
    return len(list(out_edges(v, g)))  # noqa: F821 - analyzed, never run


def misuse_graph_algorithm():
    return out_edge_count(42, 0)       # int does not model Incidence Graph


def peek_sentinel(v: "vector"):
    e = v.end()
    return e.deref()  # stllint: ignore[past-end-deref] -- sentinel slot read


if __name__ == "__main__":
    import pathlib

    from repro.analysis import AnalysisSession

    report = AnalysisSession().lint_paths([pathlib.Path(__file__)])
    print(report.render_text())
