"""Experiment T-lint: whole-program linting throughput (Section 3.1).

STLlint's pitch is that library-level symbolic execution is cheap enough
to run over whole programs.  This bench measures the ConceptLint driver
end-to-end: over the repo's own ``examples/`` directory (the self-hosted
CI gate) and over a synthetic project sweep of clean scanner functions
mixed with buggy Fig.-4-style purgers, reporting functions/second and
confirming the driver's precision does not drift (every planted bug is
found, every clean function stays clean).

Standalone mode (the CI analysis-bench smoke job)::

    PYTHONPATH=src python benchmarks/bench_lint_throughput.py --quick

times a whole-repo self-lint, then a cold → warm incremental pass
through the analysis service's result cache, and writes
``benchmarks/out/lint_throughput.json``; it exits nonzero if any loop
hits the fixpoint engine's safety cap or the warm cached pass fails to
beat the cold one by :data:`MAX_WARM_RATIO`.
"""

import json
import pathlib
import tempfile
import time

from repro.analysis import AnalysisConfig, AnalysisSession

HERE = pathlib.Path(__file__).parent
EXAMPLES = HERE.parent / "examples"
SRC = HERE.parent / "src" / "repro"
OUT_JSON = HERE / "out" / "lint_throughput.json"

#: A warm (all-cached) re-lint of src/repro must take at most this
#: fraction of the cold wall time (measured far below; slack for CI).
MAX_WARM_RATIO = 0.5

CLEAN_TEMPLATE = '''
def scan_{i}(v: "vector"):
    total = 0
    it = v.begin()
    while it != v.end():
        total = total + it.deref()
        it.increment()
    return total
'''

BUGGY_TEMPLATE = '''
def purge_{i}(students: "vector", fails: "vector"):
    for s in students:
        if fgrade(s):
            fails.push_back(s)
            students.remove(s)
'''


def synthetic_module(n_clean: int, n_buggy: int) -> str:
    parts = [CLEAN_TEMPLATE.format(i=i) for i in range(n_clean)]
    parts += [BUGGY_TEMPLATE.format(i=i) for i in range(n_buggy)]
    return "\n".join(parts)


def test_lint_examples_directory(record):
    """The CI gate workload: lint every example shipped with the repo."""
    t0 = time.perf_counter()
    report = AnalysisSession(AnalysisConfig()).lint_paths([EXAMPLES])
    elapsed = time.perf_counter() - t0
    s = report.summary()

    # lint_demo.py plants exactly one concept error and three iterator
    # warnings, optimize_demo.py one outstanding sorted-linear-find
    # suggestion; every other example must stay clean.
    assert s["errors"] == 1, report.render_text()
    assert s["warnings"] == 3, report.render_text()
    assert s["suggestions"] == 1, report.render_text()
    assert s["suppressed"] == 1
    dirty = {fr.path.split("/")[-1] for fr in report.files if fr.findings}
    assert dirty == {"lint_demo.py", "optimize_demo.py"}

    record(
        "lint_examples",
        "T-lint: self-hosted lint of examples/\n"
        f"  files: {s['files']}  functions checked: {s['functions_checked']}\n"
        f"  errors: {s['errors']}  warnings: {s['warnings']}  "
        f"suggestions: {s['suggestions']}  suppressed: {s['suppressed']}\n"
        f"  wall time: {elapsed * 1e3:.1f} ms",
    )


def test_lint_throughput_sweep(record):
    """Functions/second as the synthetic project grows."""
    rows = ["T-lint: synthetic project sweep (clean scanners + buggy purgers)",
            f"{'functions':>10} {'buggy':>6} {'ms':>10} {'fn/s':>11}"]
    throughputs = []
    for n_clean, n_buggy in [(5, 1), (20, 4), (60, 12)]:
        src = synthetic_module(n_clean, n_buggy)
        session = AnalysisSession(AnalysisConfig())
        t0 = time.perf_counter()
        report = session.lint_source(
            src, path=f"synthetic_{n_clean + n_buggy}.py",
        )
        elapsed = time.perf_counter() - t0

        # Precision must not drift with scale: every planted bug is
        # caught (advance + deref per buggy function, at the for line),
        # and no clean scanner is flagged.
        singular = [f for f in report.findings if "singular" in f.message]
        assert len(singular) == 2 * n_buggy, report.path
        assert report.functions_checked == n_clean + n_buggy
        assert all(
            "purge_" in f.function for f in report.findings
            if f.severity in ("error", "warning")
        )

        fps = report.functions_checked / elapsed
        throughputs.append(fps)
        rows.append(
            f"{n_clean + n_buggy:>10} {n_buggy:>6} "
            f"{elapsed * 1e3:>10.1f} {fps:>11.0f}"
        )

    # Loose floor: symbolic execution of these small functions should
    # comfortably exceed 20 functions/second on any machine.
    assert min(throughputs) > 20, throughputs
    record("lint_throughput", "\n".join(rows))


def test_lint_single_function_cost(benchmark):
    """Per-function symbolic-execution cost for the Fig. 4 bug."""
    src = BUGGY_TEMPLATE.format(i=0)
    session = AnalysisSession(AnalysisConfig())

    def run():
        return session.lint_source(src)

    report = benchmark(run)
    assert any("singular" in f.message for f in report.findings)


# ---------------------------------------------------------------------------
# standalone mode (CI analysis-bench smoke job)
# ---------------------------------------------------------------------------


def _measure(repeats: int) -> dict:
    """Whole-repo self-lint (src/repro + examples), best of ``repeats``."""
    from repro.stllint.dataflow import reset_stats, stats

    paths = [SRC, EXAMPLES]
    reset_stats()
    best = None
    for _ in range(repeats):
        session = AnalysisSession(AnalysisConfig())
        t0 = time.perf_counter()
        report = session.lint_paths(paths)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    s = report.summary()
    fixpoint_stats = stats()
    return {
        "workload": [str(SRC), str(EXAMPLES)],
        "best_ms": best * 1e3,
        "files": s["files"],
        "errors": s["errors"],
        "warnings": s["warnings"],
        "suggestions": s["suggestions"],
        "fixpoint_stats": fixpoint_stats,
        "unstable_loops": fixpoint_stats["unstable_loops"],
        "ok": fixpoint_stats["unstable_loops"] == 0,
    }


def _measure_cache() -> dict:
    """Cold → warm self-lint of ``src/repro`` through the result cache."""
    with tempfile.TemporaryDirectory(prefix="bench-cache-") as cache_dir:
        config = AnalysisConfig(cache=True, cache_dir=cache_dir)

        cold_session = AnalysisSession(config)
        t0 = time.perf_counter()
        cold = cold_session.lint_paths([SRC])
        cold_ms = (time.perf_counter() - t0) * 1e3

        warm_session = AnalysisSession(config)
        t0 = time.perf_counter()
        warm = warm_session.lint_paths([SRC])
        warm_ms = (time.perf_counter() - t0) * 1e3

    identical = cold.to_dict() == warm.to_dict()
    hits = warm_session.counters["lint_from_cache"]
    return {
        "workload": str(SRC),
        "cold_ms": cold_ms,
        "warm_ms": warm_ms,
        "warm_over_cold": warm_ms / cold_ms if cold_ms else 1.0,
        "warm_hits": hits,
        "warm_misses": warm_session.counters["lint_analyzed"],
        "identical_reports": identical,
        "ok": (
            identical
            and hits > 0
            and warm_session.counters["lint_analyzed"] == 0
            and warm_ms / cold_ms <= MAX_WARM_RATIO
        ),
    }


def _render(m: dict) -> str:
    return "\n".join([
        "T-lint standalone: whole-repo self-lint (src/repro + examples)",
        f"  best: {m['best_ms']:.1f} ms   "
        f"unstable loops: {m['unstable_loops']}",
    ])


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="single timing pass (CI smoke mode)")
    parser.add_argument("--json", type=pathlib.Path, default=OUT_JSON,
                        help=f"summary JSON output path (default {OUT_JSON})")
    args = parser.parse_args(argv)

    m = _measure(repeats=1 if args.quick else 3)
    m["cache"] = _measure_cache()
    print(_render(m))
    c = m["cache"]
    print("T-lint cache: cold -> warm self-lint of src/repro through the "
          "analysis service")
    print(f"  cold: {c['cold_ms']:.1f} ms   warm: {c['warm_ms']:.1f} ms   "
          f"ratio: {c['warm_over_cold']:.3f} "
          f"(budget {MAX_WARM_RATIO})")
    print(f"  warm cache hits: {c['warm_hits']}   "
          f"re-analyzed: {c['warm_misses']}   "
          f"identical reports: {c['identical_reports']}")
    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(m, indent=2, default=str) + "\n")
    print(f"summary written to {args.json}")
    if not m["ok"] or not c["ok"]:
        print("FAIL: unstable loops, or warm cached pass above "
              f"{MAX_WARM_RATIO}x cold")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
