"""Experiment T-trace-overhead: tracing must be free when it is off.

The contract (`repro.trace` docstring): the dispatch-table *hit* path
carries zero added instructions — hits reach traces as counters folded in
from :mod:`repro.runtime.metrics` — and every other choke point pays one
module-global ``is None`` check when disabled.  The gate checks both
halves by counting work, not by timing it (a 5% ceiling on a
sub-microsecond path flips under load):

- **hit path**: no code object that a warm ``sort.resolve`` runs names
  the tracer (``_trace`` or ``ACTIVE``);
- **miss path**: with the tracer off, ``resolve_slow`` runs exactly three
  lines, the read of ``ACTIVE``, its one ``is None`` test and the return
  of the uninstrumented ``_resolve_slow``, and calls nothing else.

It also reports, without gating them, the timings of both paths:

- **hit path**: warm ``sort.resolve`` per-op time, against the recorded
  ``dispatch_cache_stats.json`` baseline when present (CI runs
  ``bench_dispatch_cache.py --quick`` first in the same job) and against
  an in-process control repetition;
- **miss path**: ``resolve_slow`` (instrumented, tracer disabled) A/B'd
  against the uninstrumented ``_resolve_slow`` it guards, on the same
  table with the entry cache cleared per call;
- **enabled mode**: a tracer is switched on, traced dispatch/rewrite work
  runs, and the resulting Chrome trace is written to
  ``benchmarks/out/trace_overhead_trace.json`` (CI uploads it; the test
  suite schema-checks it).

Standalone mode (CI bench-smoke job)::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py --quick

exits nonzero if the disabled tracer does any work on either path.
"""

import gc
import inspect
import json
import pathlib
import sys
import timeit

#: Names through which code reaches the tracer.
TRACER_NAMES = {"_trace", "ACTIVE"}
#: The lines ``resolve_slow`` may run with the tracer off.
MISS_PATH_LINES = ["tr = _trace.ACTIVE", "if tr is None:",
                   "return self._resolve_slow(key)"]
OUT_DIR = pathlib.Path(__file__).parent / "out"
OUT_JSON = OUT_DIR / "trace_overhead.json"
OUT_TRACE = OUT_DIR / "trace_overhead_trace.json"
DISPATCH_BASELINE_JSON = OUT_DIR / "dispatch_cache_stats.json"


def _traced_calls(fn) -> list:
    """Run ``fn`` under ``sys.settrace``; return ``(code, lines, callees)``
    for every frame it runs: the source lines that frame executed, and
    the names of the functions it called."""
    frames: dict = {}

    def local(frame, event, arg):
        if event == "line":
            frames[frame][1].append(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        frames[frame] = (frame.f_code, [], [])
        if frame.f_back in frames:
            frames[frame.f_back][2].append(frame.f_code.co_name)
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return list(frames.values())


def _source_line(code, lineno: int) -> str:
    lines, first = inspect.getsourcelines(code)
    return lines[lineno - first].strip()


def disabled_path_problems() -> list[str]:
    """What the disabled tracer costs on the dispatch paths, as a list of
    problems (empty: nothing)."""
    from repro import trace
    from repro.runtime.dispatch import DispatchTable
    from repro.sequences import Vector
    from repro.sequences.algorithms import sort

    trace.disable()
    key = (Vector,)
    sort.resolve(key)  # warm
    problems = []

    hit = _traced_calls(lambda: sort.resolve(key))
    if DispatchTable.resolve.__code__ not in [c for c, _, _ in hit]:
        problems.append("the hit path did not reach DispatchTable.resolve")
    for code, _, _ in hit:
        named = TRACER_NAMES & set(code.co_names)
        if named:
            problems.append(f"hit path: {code.co_name} names "
                            f"{sorted(named)}")

    table = sort._current_table()
    table.entries.clear()
    miss = _traced_calls(lambda: table.resolve_slow(key))
    sort.resolve(key)  # leave the table warm
    slow = DispatchTable.resolve_slow.__code__
    runs = [(lines, callees) for code, lines, callees in miss
            if code is slow]
    if len(runs) != 1:
        problems.append(f"miss path: resolve_slow ran {len(runs)} times")
    else:
        lines, callees = runs[0]
        ran = [_source_line(slow, n) for n in lines]
        if ran != MISS_PATH_LINES:
            problems.append(f"miss path: resolve_slow ran {ran}")
        if callees != ["_resolve_slow"]:
            problems.append(f"miss path: resolve_slow called {callees}")
    return problems


def _per_op(fn, iterations: int, repeat: int = 5) -> float:
    return min(timeit.repeat(fn, number=iterations, repeat=repeat)) / iterations


def _per_op_ab(fn_a, fn_b, iterations: int, repeat: int = 5) -> tuple[float, float]:
    """Interleaved A/B timing: ABBA rounds so neither arm absorbs the
    warmup (caches, branch predictors) or a load spike alone; GC is off
    during measurement; min-of-rounds per arm."""
    fn_a()
    fn_b()
    timeit.timeit(fn_a, number=iterations)  # warmup round, discarded
    timeit.timeit(fn_b, number=iterations)
    t_a = t_b = float("inf")
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeat):
            t_a = min(t_a, timeit.timeit(fn_a, number=iterations))
            t_b = min(t_b, timeit.timeit(fn_b, number=iterations))
            t_b = min(t_b, timeit.timeit(fn_b, number=iterations))
            t_a = min(t_a, timeit.timeit(fn_a, number=iterations))
    finally:
        if gc_was_on:
            gc.enable()
    return t_a / iterations, t_b / iterations


def _overhead_pct(t_new_us: float, t_base_us: float) -> float:
    return (t_new_us / t_base_us - 1.0) * 100.0


def _measure(iterations: int, repeat: int = 5) -> dict:
    from repro import trace
    from repro.sequences import Vector
    from repro.sequences.algorithms import sort
    from repro.simplicissimus import Simplifier
    from repro.simplicissimus.expr import BinOp, Const, Var

    problems = disabled_path_problems()
    key = (Vector,)

    # -- hit path, disabled tracer (bench_dispatch_cache's quick path) ----
    t_hit, t_hit_control = _per_op_ab(
        lambda: sort.resolve(key), lambda: sort.resolve(key),
        iterations, repeat,
    )

    recorded_us = None
    if DISPATCH_BASELINE_JSON.exists():
        recorded_us = json.loads(DISPATCH_BASELINE_JSON.read_text()).get(
            "cached_resolve_us"
        )

    # -- miss path, disabled tracer: instrumented wrapper vs its body -----
    table = sort._current_table()
    # The miss path is µs-scale: longer samples, or scheduler jitter
    # dominates the per-op delta.
    miss_iters = max(400, iterations // 5)

    def miss_instrumented():
        table.entries.clear()
        table.resolve_slow(key)

    def miss_bare():
        table.entries.clear()
        table._resolve_slow(key)

    t_miss, t_miss_bare = _per_op_ab(
        miss_instrumented, miss_bare, miss_iters, repeat
    )
    sort.resolve(key)  # leave the table warm

    # -- enabled mode: real spans, exported as the CI artifact ------------
    tracer = trace.enable(trace.Tracer("bench_trace_overhead"))
    t_hit_enabled = _per_op(lambda: sort.resolve(key), iterations, repeat)
    table.entries.clear()
    sort.resolve(key)  # one traced miss + memoization
    x = Var("x")
    Simplifier().simplify(
        BinOp("+", BinOp("+", x, Const(0)), Const(0)), tenv={"x": int}
    )
    trace.disable()
    OUT_DIR.mkdir(exist_ok=True)
    trace.export_chrome(tracer, OUT_TRACE)

    hit_vs_control = _overhead_pct(t_hit * 1e6, t_hit_control * 1e6)
    hit_vs_recorded = (
        _overhead_pct(t_hit * 1e6, recorded_us)
        if recorded_us else None
    )
    miss_overhead = _overhead_pct(t_miss * 1e6, t_miss_bare * 1e6)
    return {
        "iterations": iterations,
        "hit_disabled_us": t_hit * 1e6,
        "hit_control_us": t_hit_control * 1e6,
        "hit_enabled_us": t_hit_enabled * 1e6,
        "hit_recorded_baseline_us": recorded_us,
        "miss_disabled_us": t_miss * 1e6,
        "miss_bare_us": t_miss_bare * 1e6,
        "overhead_hit_vs_control_pct": hit_vs_control,
        "overhead_hit_vs_recorded_pct": hit_vs_recorded,
        "overhead_miss_pct": miss_overhead,
        "trace_events": len(tracer.records),
        "trace_path": str(OUT_TRACE),
        "problems": problems,
    }


def _render(m: dict) -> str:
    rec = (f"{m['hit_recorded_baseline_us']:.3f}us "
           f"({m['overhead_hit_vs_recorded_pct']:+.1f}%)"
           if m["hit_recorded_baseline_us"] else "absent")
    return "\n".join([
        f"{'path':<34s} {'per-op':>12s}",
        f"{'hit, tracer disabled':<34s} {m['hit_disabled_us']:>10.3f}us",
        f"{'hit, control repeat':<34s} {m['hit_control_us']:>10.3f}us",
        f"{'hit, tracer enabled':<34s} {m['hit_enabled_us']:>10.3f}us",
        f"{'miss, instrumented (disabled)':<34s} {m['miss_disabled_us']:>10.3f}us",
        f"{'miss, bare body':<34s} {m['miss_bare_us']:>10.3f}us",
        f"recorded quick baseline: {rec}",
        f"disabled overhead (timed, not gated): hit "
        f"{m['overhead_hit_vs_control_pct']:.2f}% / "
        f"miss {m['overhead_miss_pct']:.2f}%",
        "disabled tracer work: " + ("none" if not m["problems"]
                                    else "; ".join(m["problems"])),
        f"enabled trace: {m['trace_events']} record(s) -> {m['trace_path']}",
    ])


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_disabled_tracer_does_no_work(record):
    m = _measure(iterations=2_000)
    record("trace_overhead", _render(m))
    assert not m["problems"], m["problems"]


def test_emitted_trace_is_valid_chrome_json():
    from repro.trace import validate_chrome_trace

    _measure(iterations=200)
    doc = json.loads(OUT_TRACE.read_text())
    events = validate_chrome_trace(doc)
    names = {e["name"] for e in events}
    assert "dispatch.miss" in names
    assert "rewrite.simplify" in names
    assert any(e["ph"] == "C" for e in events), "counters not folded in"


# ---------------------------------------------------------------------------
# standalone mode (CI bench-smoke job)
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer iterations (CI smoke mode)")
    parser.add_argument("--json", type=pathlib.Path, default=OUT_JSON,
                        help=f"summary JSON output path (default {OUT_JSON})")
    args = parser.parse_args(argv)

    m = _measure(iterations=500 if args.quick else 5_000)
    print(_render(m))
    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(m, indent=2, default=str) + "\n")
    print(f"summary written to {args.json}")
    if m["problems"]:
        print("FAIL: the disabled tracer does work on the dispatch paths")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
