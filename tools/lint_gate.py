#!/usr/bin/env python3
"""CI gate: self-host ConceptLint over ``examples/`` and demand *exact*
findings.

``examples/lint_demo.py`` deliberately plants one bug of each class the
linter exists to catch (Fig. 4 loop invalidation, an interprocedural
variant, a ``@where`` violation, and one suppressed past-the-end read);
every other example must lint clean.  Any drift — a lost warning, a new
false positive, a suppression that stops working — fails the build.

The gate also self-hosts over ``src/repro/trace/``, ``src/repro/facts/``
and ``src/repro/optimize/`` — the tracer is the bottom layer everything
else reports into, and the facts/optimizer layers are what the linter's
own verdicts feed, so all three must lint completely clean.

Finally, the fixpoint engine is run directly over *every* function in
``src/repro/`` (the driver's container-annotation filter bypassed): each
of the ~1400 functions must lower to a CFG, reach a true dataflow
fixpoint, and never trip the engine's runaway-safety cap.  This is the
whole-repo exercise of the CFG lowering against real-world statement
shapes — comprehensions, ``with``, nested functions, try/finally.

Run:  python tools/lint_gate.py          (from the repo root)
"""

import ast
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.analysis import AnalysisConfig, AnalysisSession  # noqa: E402
from repro.stllint.dataflow import (  # noqa: E402
    FixpointChecker,
    reset_stats,
    stats,
)
from repro.stllint.interpreter import module_function_table  # noqa: E402

#: The complete set of (file, function, check) findings the example
#: directory must produce — no more, no less.
EXPECTED = {
    ("lint_demo.py", "extract_fails", "singular-advance"),
    ("lint_demo.py", "extract_fails", "singular-deref"),
    ("lint_demo.py", "drop_front_twice", "singular-deref"),
    ("lint_demo.py", "misuse_graph_algorithm", "concept-conformance"),
    ("optimize_demo.py", "lookup_sorted", "sorted-linear-find"),
}

#: Self-hosted source trees that must produce zero findings.
CLEAN_DIRS = ("trace", "facts", "optimize", "sequences/backends")

EXPECTED_SUPPRESSED = 1


def self_host_fixpoint() -> tuple[bool, int, list[str]]:
    """Run the fixpoint engine over every function in ``src/repro``.

    Returns (ok, functions analyzed, problem descriptions).  A problem is
    a function that crashed the engine or failed to converge (safety-cap
    hit) — both mean the CFG lowering or the worklist is broken.
    """
    reset_stats()
    problems: list[str] = []
    analyzed = 0
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            problems.append(f"{path}: does not parse: {exc.msg}")
            continue
        lines = source.splitlines()
        functions = module_function_table(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            analyzed += 1
            rel = path.relative_to(REPO)
            try:
                checker = FixpointChecker(
                    node, lines, module_functions=functions,
                )
                checker.run()
            except Exception as exc:  # noqa: BLE001 - gate reports, not raises
                problems.append(
                    f"{rel}:{node.lineno} {node.name}: "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            if not checker.converged:
                problems.append(
                    f"{rel}:{node.lineno} {node.name}: "
                    f"hit the safety cap before reaching a fixpoint"
                )
    if stats()["unstable_loops"] != len(
        [p for p in problems if "safety cap" in p]
    ):
        problems.append(
            "fixpoint stats disagree with per-function convergence flags"
        )
    return not problems, analyzed, problems


def main() -> int:
    session = AnalysisSession(AnalysisConfig())
    report = session.lint_paths([REPO / "examples"])
    actual = {
        (f.path.split("/")[-1], f.function, f.check)
        for f in report.findings
    }

    ok = True

    clean_functions = 0
    for sub in CLEAN_DIRS:
        clean_report = session.lint_paths([REPO / "src" / "repro" / sub])
        clean_functions += clean_report.summary()["functions_checked"]
        if clean_report.findings:
            ok = False
            print(f"lint gate: src/repro/{sub}/ must lint clean, found:")
            for f in clean_report.findings:
                print(f"  {f.render()}")
    missing = EXPECTED - actual
    unexpected = actual - EXPECTED
    if missing:
        ok = False
        print("lint gate: MISSING expected findings:")
        for item in sorted(missing):
            print(f"  {item}")
    if unexpected:
        ok = False
        print("lint gate: UNEXPECTED findings (new bug or false positive):")
        for item in sorted(unexpected):
            print(f"  {item}")

    suppressed = report.summary()["suppressed"]
    if suppressed != EXPECTED_SUPPRESSED:
        ok = False
        print(
            f"lint gate: expected {EXPECTED_SUPPRESSED} suppressed "
            f"finding(s), got {suppressed}"
        )

    fixpoint_ok, analyzed, problems = self_host_fixpoint()
    if not fixpoint_ok:
        ok = False
        print("lint gate: fixpoint self-host over src/repro/ FAILED:")
        for p in problems[:20]:
            print(f"  {p}")
        if len(problems) > 20:
            print(f"  ... and {len(problems) - 20} more")

    print(report.render_text())
    if ok:
        dirs = ", ".join(f"src/repro/{d}/" for d in CLEAN_DIRS)
        print("lint gate: OK — examples produce exactly the expected "
              f"findings; {dirs} lint clean "
              f"({clean_functions} function(s) checked); fixpoint engine "
              f"converged on all {analyzed} function(s) in src/repro/")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
