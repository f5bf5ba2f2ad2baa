#!/usr/bin/env python3
"""CI gate: fault-inject the tool drivers and demand graceful degradation.

Three scenarios, all seeded and in-process:

1. **lint chaos** — a ``RuntimeError`` is injected into a fixed subset of
   checker runs (through the driver's ``FixpointChecker`` binding) while
   ``python -m repro.analysis lint --no-cache`` lints a scratch tree.
   The run must exit 3 (partial results), print one LINT-INTERNAL
   finding per injection, never a traceback, and still report the real
   bugs in spared files.
2. **optimize chaos** — the same treatment for ``analyze_source`` during
   ``python -m repro.analysis optimize --no-cache --write``.  The
   no-torn-write invariant is checked: every file on disk is either the
   untouched original or the fully verified rewrite.
3. **cache chaos** — the same checker-seam injection through
   ``python -m repro.analysis lint`` with the result cache enabled.
   Partial (LINT-INTERNAL) results must never be cached: a clean re-run
   over the same cache must re-analyze the crashed file, report the real
   findings, and serve the spared files from cache.
4. **transport chaos** — reliable echo/floodset runs across a grid of
   loss probabilities and seeds; every run must reach the correct
   decision with zero exhausted retry budgets.
5. **replicated-log chaos** — the Raft-style log under a seeded
   partition/churn schedule at loss 0.3, with ``max_time`` set low
   enough that the run is cut off mid-recovery.  The run must exit
   cleanly (no exception escapes), honor truncation (``truncated`` set,
   ``finish_time <= max_time``, every event past the limit dropped),
   and the same plan driven to quiescence must still commit everything.

Run:  python tools/chaos_gate.py          (from the repo root)
"""

import contextlib
import io
import pathlib
import shutil
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.analysis import cache as analysis_cache  # noqa: E402
from repro.analysis.cli import main as analysis_main  # noqa: E402
from repro.distributed import (  # noqa: E402
    FailurePlan, Ring, heal, partition,
    run_echo_reliable, run_floodset_reliable,
)
from repro.distributed.algorithms.replog import (  # noqa: E402
    run_replicated_log,
)
from repro.lint import driver as lint_driver  # noqa: E402
from repro.optimize import pipeline  # noqa: E402

BUGGY = '''
def f(v: "vector"):
    it = v.begin()
    v.push_back(1)
    return it.deref()
'''

OPTIMIZABLE = '''
def lookup(v: "vector", key):
    sort(v.begin(), v.end())
    it = find(v.begin(), v.end(), key)
    return it
'''


def _run_cli(fn, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fn(argv)
    return rc, out.getvalue(), err.getvalue()


def check(ok: bool, label: str, detail: str = "") -> bool:
    print(f"chaos gate: {'PASS' if ok else 'FAIL'} — {label}"
          + (f" ({detail})" if detail else ""))
    return ok


def lint_chaos(tmp: pathlib.Path) -> bool:
    tree = tmp / "lint"
    tree.mkdir()
    n_files = 5
    for i in range(n_files):
        (tree / f"m{i}.py").write_text(BUGGY)

    real_checker = lint_driver.FixpointChecker
    calls = {"n": 0}
    inject_at = {2, 4}                    # fixed, replayable injections

    def chaotic_checker(*args, **kwargs):
        checker = real_checker(*args, **kwargs)
        calls["n"] += 1
        if calls["n"] in inject_at:
            n = calls["n"]

            def boom():
                raise RuntimeError(f"chaos at checker run #{n}")

            checker.run = boom
        return checker

    lint_driver.FixpointChecker = chaotic_checker
    try:
        rc, out, err = _run_cli(
            analysis_main, ["lint", "--no-cache", str(tree)])
    finally:
        lint_driver.FixpointChecker = real_checker

    ok = True
    ok &= check(rc == 3, "lint exits 3 on partial results", f"rc={rc}")
    ok &= check("Traceback" not in err, "lint prints no traceback")
    ok &= check(out.count("LINT-INTERNAL") == len(inject_at),
                "one LINT-INTERNAL finding per injection")
    ok &= check(out.count("singular-deref") == n_files - len(inject_at),
                "spared files still report their real bug")
    return ok


def optimize_chaos(tmp: pathlib.Path) -> bool:
    tree = tmp / "opt"
    tree.mkdir()
    n_files = 4
    for i in range(n_files):
        (tree / f"m{i}.py").write_text(OPTIMIZABLE)

    real_collect = pipeline.analyze_source
    calls = {"n": 0}
    inject_at = {1, 4}

    def chaotic_collect(source, **kwargs):
        calls["n"] += 1
        if calls["n"] in inject_at:
            raise RuntimeError(f"chaos at analyze_source #{calls['n']}")
        return real_collect(source, **kwargs)

    pipeline.analyze_source = chaotic_collect
    try:
        rc, out, err = _run_cli(
            analysis_main, ["optimize", "--no-cache", str(tree), "--write"])
    finally:
        pipeline.analyze_source = real_collect

    ok = True
    ok &= check(rc == 3, "optimize exits 3 on partial results", f"rc={rc}")
    ok &= check("Traceback" not in err, "optimize prints no traceback")
    ok &= check("OPT-INTERNAL" in out, "crashes reported as OPT-INTERNAL")
    torn = [
        p.name for p in sorted(tree.glob("*.py"))
        if p.read_text() != OPTIMIZABLE
        and "lower_bound" not in p.read_text()
    ]
    ok &= check(not torn, "no torn writes on disk", ", ".join(torn))
    rewritten = sum(
        1 for p in tree.glob("*.py") if "lower_bound" in p.read_text()
    )
    ok &= check(rewritten >= 1, "spared files still rewritten",
                f"{rewritten}/{n_files}")
    return ok


def cache_chaos(tmp: pathlib.Path) -> bool:
    tree = tmp / "cachetree"
    tree.mkdir()
    n_files = 3
    for i in range(n_files):
        (tree / f"m{i}.py").write_text(BUGGY)
    cache_dir = str(tmp / "cachestore")

    real_checker = lint_driver.FixpointChecker
    calls = {"n": 0}
    inject_at = {2}

    def chaotic_checker(*args, **kwargs):
        checker = real_checker(*args, **kwargs)
        calls["n"] += 1
        if calls["n"] in inject_at:
            n = calls["n"]

            def boom():
                raise RuntimeError(f"chaos at checker run #{n}")

            checker.run = boom
        return checker

    lint_driver.FixpointChecker = chaotic_checker
    try:
        rc, out, err = _run_cli(
            analysis_main, ["lint", str(tree), "--cache-dir", cache_dir])
    finally:
        lint_driver.FixpointChecker = real_checker

    ok = True
    ok &= check(rc == 3, "analysis lint exits 3 under injection",
                f"rc={rc}")
    ok &= check(out.count("LINT-INTERNAL") == len(inject_at),
                "crash reported as LINT-INTERNAL")

    # Clean re-run over the same cache: the crashed file must be
    # re-analyzed (its partial result was never cached), the spared
    # files served from cache, and every real bug reported.
    analysis_cache.reset_stats()
    rc, out, err = _run_cli(
        analysis_main, ["lint", str(tree), "--cache-dir", cache_dir])
    ok &= check(rc == 1, "clean re-run exits 1 on the real findings",
                f"rc={rc}")
    ok &= check("LINT-INTERNAL" not in out,
                "partial result was not served from cache")
    ok &= check(out.count("singular-deref") == n_files,
                "re-run reports every real bug",
                f"{out.count('singular-deref')}/{n_files}")
    hits = analysis_cache.stats()["hits"]
    ok &= check(hits >= n_files - len(inject_at),
                "spared files served from cache", f"hits={hits}")
    return ok


def transport_chaos() -> bool:
    ok = True
    for loss in (0.2, 0.5):
        for seed in (0, 1):
            m = run_echo_reliable(
                Ring(6),
                failures=FailurePlan(loss_probability=loss, seed=seed))
            ok &= check(
                m.decisions.get(0) == 6 and m.retries_gave_up == 0,
                f"reliable echo at loss={loss} seed={seed}",
                f"decision={m.decisions.get(0)} retx={m.retransmissions}")
    m = run_floodset_reliable(
        5, f=1, failures=FailurePlan(loss_probability=0.5, seed=3))
    ok &= check(m.consensus() == 0 and len(m.decisions) == 5,
                "reliable floodset consensus at loss=0.5",
                f"consensus={m.consensus()} retx={m.retransmissions}")
    return ok


def _partition_churn_plan() -> FailurePlan:
    plan = FailurePlan(loss_probability=0.3, seed=7,
                       churn={4: [(40.0, 70.0)]})
    plan = partition(10.0, [{0, 1, 2}, {3, 4}], plan=plan)
    return heal(35.0, plan=plan)


def replog_chaos() -> bool:
    ok = True

    # Cut the run off mid-recovery: rank 4 is still down at t=50, the
    # partition has healed, retransmissions are in flight.  The loop
    # must stop cleanly at the limit, not raise.
    try:
        m = run_replicated_log(
            5, {0: ["a", "b", "c"], 3: ["x"]},
            failures=_partition_churn_plan(), seed=2,
            heartbeat_interval=4.0, max_time=50.0, on_limit="truncate")
    except Exception as exc:  # noqa: BLE001 — the gate's whole point
        return check(False, "replicated log truncates without raising",
                     repr(exc))
    ok &= check(m.truncated, "truncation flag set at max_time")
    ok &= check(m.finish_time <= 50.0, "no event processed past max_time",
                f"finish_time={m.finish_time}")
    ok &= check("TRUNCATED" in m.summary() and "replog[" in m.summary(),
                "summary reports truncation and replog counters")

    # The same plan driven to quiescence still commits everything on
    # every replica — truncation was a budget, not a correctness hole.
    m = run_replicated_log(
        5, {0: ["a", "b", "c"], 3: ["x"]},
        failures=_partition_churn_plan(), seed=2,
        heartbeat_interval=4.0, max_time=5000, on_limit="truncate")
    expected = set(m.expected_commands)
    ok &= check(
        not m.truncated and len(m.decisions) == 5
        and all(set(p) == expected for p in m.decisions.values()),
        "full run commits every entry on every replica",
        f"decided={len(m.decisions)}")
    ok &= check(m.recoveries == 1 and m.recovery_replays > 0,
                "churned replica recovered via leader replay",
                f"replays={m.recovery_replays}")
    return ok


def main() -> int:
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="chaos_gate_"))
    try:
        ok = lint_chaos(tmp)
        ok &= optimize_chaos(tmp)
        ok &= cache_chaos(tmp)
        ok &= transport_chaos()
        ok &= replog_chaos()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"chaos gate: {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
