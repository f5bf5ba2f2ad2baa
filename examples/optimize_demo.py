#!/usr/bin/env python3
"""What ``repro.analysis optimize`` rewrites (Section 3.2, end to end).

Both functions below are *dead code* analyzed statically, like
``lint_demo.py``.  The optimizer collects STLlint facts, consults the
sequence taxonomy, and:

- ``lookup_sorted``: the paper's sort-then-linear-find — sortedness is
  established on every path reaching the ``find`` call, so the taxonomy's
  ``lower_bound`` (O(log n) comparisons, same position-returning result)
  replaces it.  Run with ``--diff`` to see the rewrite, ``--write`` to
  apply it.
- ``lookup_after_mutation``: a ``push_back`` lands between the ``sort``
  and the ``find``, destroying sortedness; the property guard refuses the
  rewrite and the linear search stays — the refusal is the soundness
  story, not a missed optimization.

Run:  python examples/optimize_demo.py            (optimizes this file, dry)
      python -m repro.analysis optimize --diff examples/optimize_demo.py
"""


def lookup_sorted(v: "vector", key):
    """Sorted on every path at the find call: rewritten to lower_bound."""
    sort(v.begin(), v.end())           # noqa: F821 - analyzed, never run
    it = find(v.begin(), v.end(), key)  # noqa: F821
    if not it.equals(v.end()):
        return it.deref()
    return None


def lookup_after_mutation(v: "vector", key, extra):
    """The mutation between sort and find kills sortedness: NOT rewritten."""
    sort(v.begin(), v.end())           # noqa: F821
    v.push_back(extra)                 # destroys the sortedness fact
    it = find(v.begin(), v.end(), key)  # noqa: F821
    if not it.equals(v.end()):
        return it.deref()
    return None


if __name__ == "__main__":
    import pathlib

    from repro.analysis import AnalysisSession

    result = AnalysisSession().optimize_file(pathlib.Path(__file__))
    print(result.render())
    print(result.diff() or "(no changes)")
