#!/usr/bin/env python3
"""CI gate: self-host the optimizer over ``examples/`` and demand *exact*
rewrites.

``examples/optimize_demo.py`` plants both sides of the Section 3.2
story: one sort-then-linear-find the pipeline must rewrite to
``lower_bound``, and one with a mutation in between that the property
guard must refuse.  The gate checks:

- exactly the expected (file, function, call -> replacement) plans are
  produced — a lost rewrite or a new spurious one both fail;
- every changed file verifies (rewritten source re-lints with no new
  findings) and nothing is reverted;
- the pipeline is idempotent: optimizing the optimized output plans
  zero further rewrites;
- the verify stage's pass, which re-runs only the call-graph components
  the rewrite touched, equals a full pass over the optimized text:
  the same report and the same fact recordings, in order.

Run:  python tools/optimize_gate.py          (from the repo root)
"""

import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.analysis import AnalysisConfig, AnalysisSession  # noqa: E402
from repro.lint.driver import analyze_source  # noqa: E402
from repro.optimize import pipeline  # noqa: E402

#: The complete set of (file, function, call, replacement) rewrites the
#: example directory must produce — no more, no less.
EXPECTED = {
    ("optimize_demo.py", "lookup_sorted", "find", "lower_bound"),
}


def _same_pass(got, want) -> bool:
    return (got.report.to_dict() == want.report.to_dict()
            and got.table.calls == want.table.calls
            and got.table.facts == want.table.facts)


def main() -> int:
    # The verify stage's passes, by the text they analyzed: the pipeline
    # calls ``analyze_source`` with the original's pass as ``prior``.
    verify_passes: dict = {}

    def capture(source, **kwargs):
        analysis = analyze_source(source, **kwargs)
        if kwargs.get("prior") is not None:
            verify_passes[source] = analysis
        return analysis

    pipeline.analyze_source = capture
    try:
        return _run(verify_passes)
    finally:
        pipeline.analyze_source = analyze_source


def _run(verify_passes: dict) -> int:
    ok = True
    actual: set = set()
    session = AnalysisSession(AnalysisConfig())
    for path in sorted((REPO / "examples").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        result = session.optimize_source(source, path=str(path))
        for plan in result.plans:
            actual.add((path.name, plan.function, plan.call,
                        plan.replacement))
            print(f"{path.name}: {plan.describe()}")
        if result.reverted:
            ok = False
            print(f"optimize gate: {path.name} REVERTED: "
                  f"{result.revert_reason}")
        if result.changed and not result.verified:
            ok = False
            print(f"optimize gate: {path.name} changed but did not verify")
        if result.changed:
            got = verify_passes.get(result.optimized)
            want = analyze_source(result.optimized, path=str(path))
            if got is None or not _same_pass(got, want):
                ok = False
                print(f"optimize gate: {path.name} verify pass differs "
                      f"from a full pass over the optimized text")
            again = session.optimize_source(result.optimized, path=str(path))
            if again.plans:
                ok = False
                print(f"optimize gate: {path.name} not idempotent — "
                      f"second pass planned {len(again.plans)} rewrite(s)")

    missing = EXPECTED - actual
    unexpected = actual - EXPECTED
    if missing:
        ok = False
        print("optimize gate: MISSING expected rewrites:")
        for item in sorted(missing):
            print(f"  {item}")
    if unexpected:
        ok = False
        print("optimize gate: UNEXPECTED rewrites (unsound or untracked):")
        for item in sorted(unexpected):
            print(f"  {item}")

    if ok:
        print("optimize gate: OK — examples produce exactly the expected "
              "rewrites, all verified and idempotent, each verify pass "
              "equal to a full one")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
