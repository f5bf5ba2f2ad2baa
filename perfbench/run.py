#!/usr/bin/env python3
"""The repository's benchmark: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --workload all      # every workload in turn

Run from the repository root.  With ``--trace 0`` the last line of
standard output is one JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer split instead, measured by
wrapping each layer's public entry points (see ``tracer.py``), and the
spans are written to ``.perfbench_out/``.  Everything else printed
before it is a human-readable report.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from workloads import tail

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("analyze-cold", "lint-edit", "containers", "replog")
#: Set-ups per run; setup_s is the median.
SETUP_REPS = 3
#: The traced run measures this share of --seconds untraced, then
#: repeats exactly the same operations traced.
TRACE_SHARE = 0.4
#: A traced phase stops early rather than run past this many seconds.
TRACE_BUDGET_S = 100.0

#: Throughput and latencies are in reference units (see SpeedProbe):
#: operations per thousand reference times, and multiples of the
#: reference time.  The report also prints them in wall-clock units.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput": "ops/kref",
    "latency_p50": "ref",
    "latency_tail": "ref",
}

STORAGE_BACKENDS = ("vector", "deque", "list", "contig", "sqlite")

PER_LAYER = {
    "analysis.session.self_s": "s",
    "analysis.deps.self_s": "s",
    "analysis.cache.get_s": "s",
    "analysis.cache.put_s": "s",
    "analysis.cache.hit_ratio": "ratio",
    "analysis.reanalyzed_per_edit": "count",
    "lint.self_s": "s",
    "lint.concept_pass.self_s": "s",
    "stllint.functions": "count",
    "stllint.self_s": "s",
    "stllint.cfg.self_s": "s",
    "stllint.fixpoint.iterations": "count",
    "stllint.fixpoint.widenings": "count",
    "stllint.summary_hit_ratio": "ratio",
    "facts.self_s": "s",
    "facts.invalidations": "count",
    "optimize.self_s": "s",
    "optimize.rewrites_applied": "count",
    "optimize.rewrites_refused": "count",
    "runtime.dispatch.calls": "count",
    "runtime.dispatch.self_s": "s",
    "runtime.dispatch.hit_ratio": "ratio",
    "runtime.table_rebuilds": "count",
    "concepts.check_s": "s",
    "sequences.algorithms.self_s": "s",
    "sequences.facade.self_s": "s",
    **{f"sequences.storage.{b}.{m}": u for b in STORAGE_BACKENDS
       for m, u in (("calls", "count"), ("self_s", "s"))},
    "sequences.storage.sqlite.roundtrips": "count",
    "distributed.events": "count",
    "distributed.simulator.self_s": "s",
    "distributed.failures.self_s": "s",
    "distributed.reliable.self_s": "s",
    "distributed.replog.self_s": "s",
    "distributed.retransmissions": "count",
    "distributed.useful_delivery_ratio": "ratio",
    "distributed.sharded.run_s": "s",
    "distributed.sharded.speedup": "ratio",
    "bench.self_s": "s",
    "bench.traced_s": "s",
    "bench.untraced_s": "s",
    "bench.trace_overhead_ratio": "ratio",
    "bench.spans": "count",
}

#: Modules every workload's set-up imports (timed as part of set-up).
IMPORTS = ("repro.analysis", "repro.sequences", "repro.sequences.backends",
           "repro.distributed.algorithms.replog", "repro.resilience.concepts")


class OpTimer:
    """Times one operation; when tracing, enables the layer wrappers and
    opens the operation's root span for exactly the timed part."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.root = tracer.intern("bench") if tracer is not None else None
        self.seconds = 0.0

    def __enter__(self) -> "OpTimer":
        if self.tracer is not None:
            self.tracer.enabled = True
            self._frame = self.tracer.push(self.root)
        self._t0 = time.perf_counter()
        return self

    def lap(self) -> float:
        return time.perf_counter() - self._t0

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.pop(self._frame)
            self.tracer.enabled = False


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def value(self) -> int:
        return self.a * 3 + self.b


def cpu_reference(_files: list) -> int:
    """Fixed interpreter work that uses nothing from the program:
    allocate objects, call a method on each, sort them by a key."""
    items = [_Item(i % 13, i) for i in range(3000)]
    total = 0
    for item in items:
        total += item.value()
    items.sort(key=lambda item: (item.a, -item.b))
    return total


def io_reference(files: list) -> int:
    """Fixed file work that uses nothing from the program: read and hash
    a set of small files (written once by :func:`reference_files`)."""
    total = 0
    for path in files:
        total += len(hashlib.sha256(path.read_bytes()).hexdigest())
    return total


def reference_files(root: pathlib.Path) -> list[pathlib.Path]:
    """Forty fixed 30 KB text files for :func:`io_reference`."""
    root.mkdir(parents=True, exist_ok=True)
    files = []
    for i in range(40):
        path = root / f"ref_{i:02d}.txt"
        path.write_text("".join(f"line {i} {j} {'x' * (j % 50)}\n"
                                for j in range(700)))
        files.append(path)
    return files


#: Reference work per workload kind: interpreter-bound workloads use the
#: CPU reference; lint-edit, whose time goes mostly to reading, hashing
#: and parsing files, uses the file reference, which follows its speed
#: changes (on the host measured: slope 1.1 against 0.45 for the CPU
#: reference, in log time over 9-operation windows).
REFERENCES = {"cpu": cpu_reference, "io": io_reference}


class SpeedProbe:
    """Tracks how fast the host runs this kind of work right now.

    The hosts this benchmark runs on are shared: the same operations
    take up to 40% less time for a minute or two at a time, depending on
    other tenants.  Between operations, at most every ``every`` seconds,
    the probe times its reference work (median of ``reps``).  The
    reference time of an instant is the median of the measurements taken
    within ``half_window`` seconds before or after it, which follows
    those phases but not single outliers.  Operation times divided by it
    are in *reference units*."""

    def __init__(self, kind: str, files: list, every: float = 0.5,
                 reps: int = 5, half_window: float = 3.0) -> None:
        self.work = REFERENCES[kind]
        self.files = files
        self.every = every
        self.reps = reps
        self.half_window = half_window
        self.stamps: list[float] = []
        self.measurements: list[float] = []
        self._due = 0.0

    def poll(self, force: bool = False) -> None:
        if not force and time.perf_counter() < self._due:
            return
        times = []
        for _ in range(self.reps):
            t0 = time.perf_counter()
            self.work(self.files)
            times.append(time.perf_counter() - t0)
        self.stamps.append(time.perf_counter())
        self.measurements.append(statistics.median(times))
        self._due = time.perf_counter() + self.every

    def reference_at(self, t: float) -> float:
        lo = bisect.bisect_left(self.stamps, t - self.half_window)
        hi = bisect.bisect_right(self.stamps, t + self.half_window)
        if lo == hi:                    # no measurement that close
            lo = min(lo, len(self.stamps) - 1)
            hi = lo + 1
        return statistics.median(self.measurements[lo:hi])


def make_probe(workload) -> SpeedProbe:
    files = []
    if workload.reference == "io":
        files = reference_files(ref_dir(workload.work))
    return SpeedProbe(workload.reference, files)


def ref_dir(work: pathlib.Path) -> pathlib.Path:
    return work.with_name(work.name + "-ref")


def drive(workload, seconds: float, probe: SpeedProbe, tracer=None,
          max_ops: int | None = None) -> list[float]:
    """Closed loop, one client: issue operation i+1 only after operation
    i has completed and been checked.  Runs for ``seconds`` of wall time,
    or for exactly ``max_ops`` operations.  Returns the reference time
    of each operation, aligned with the samples it appended to
    ``workload.samples``."""
    timer = OpTimer(tracer)
    deadline = time.perf_counter() + seconds
    stamps = []
    i = 0
    while (i < max_ops) if max_ops is not None else (
            time.perf_counter() < deadline):
        probe.poll()
        if tracer is not None:
            tracer.run_id = i
        workload.step(i, timer)
        stamps.append(time.perf_counter())
        i += 1
        if max_ops is not None and time.perf_counter() > deadline:
            break
    probe.poll(force=True)
    return [probe.reference_at(t) for t in stamps]


def make_workload(name: str, work: pathlib.Path):
    if name == "analyze-cold":
        return workloads.AnalyzeCold(work)
    if name == "lint-edit":
        return workloads.LintEdit(work, SRC / "repro")
    if name == "containers":
        return workloads.Containers(work)
    return workloads.Replog(work)


def import_seconds() -> list[float]:
    """Import time of the program's modules in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import "
            + ", ".join(IMPORTS) + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_REPS - 1):
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def setup(workload, seed: int, reps: int) -> float:
    """Set the workload up ``reps`` times from scratch; median seconds."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def report_lines(workload, extra: dict) -> None:
    print(f"workload {workload.name}: {workload.attempted} attempted, "
          f"{workload.failed} failed, fail_ratio "
          f"{workload.failed / max(1, workload.attempted):.6f}")
    for name, (value, unit) in {**extra, **workload.detail()}.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in workload.failures:
        print(f"  FAILED: {problem}")


def run_untraced(workload, args, import_s: float) -> dict:
    import_s = [import_s] + import_seconds()
    setup_s = statistics.median(import_s) + setup(workload, args.seed,
                                                  SETUP_REPS)
    extra = {}
    if workload.name == "lint-edit":
        extra["warm_pass_s"] = (statistics.median(
            workload.warm_pass() for _ in range(3)), "s")
    probe = make_probe(workload)
    refs = drive(workload, args.seconds, probe)
    workload.finish()
    xs = workload.samples
    costs = [x / r for x, r in zip(xs, refs)]
    value, pct, beyond = tail(costs, workload.tail_pct)
    raw_tail, _, _ = tail(xs, workload.tail_pct)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput": 1e3 * len(costs) / sum(costs),
        "latency_p50": statistics.median(costs),
        "latency_tail": value,
    }
    extra.update({
        "reference_ms": (1e3 * statistics.median(probe.measurements),
                         f"ms (median of {len(probe.measurements)})"),
        "wall_throughput": (len(xs) / sum(xs), "ops/s"),
        "wall_latency_p50": (1e3 * statistics.median(xs), "ms"),
        "wall_latency_tail": (1e3 * raw_tail, "ms"),
        "tail_percentile": (pct, f"(of {len(xs)} ops, {beyond} beyond)"),
    })
    report_lines(workload, extra)
    return metrics


def counter_snapshot() -> dict:
    import repro.analysis.cache as analysis_cache
    import repro.runtime as runtime
    import repro.stllint.dataflow as dataflow

    totals = runtime.stats()["totals"]
    snap = {k: totals[k] for k in ("dispatch_hits", "dispatch_misses",
                                   "table_rebuilds", "check_time_s")}
    snap.update({f"fix_{k}": v for k, v in dataflow.stats().items()})
    snap.update({f"cache_{k}": v for k, v in analysis_cache.stats().items()})
    return snap


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, delta: dict, counts: dict, traced_s: float,
                  untraced_s: float, overhead: float) -> dict:
    st = tracer.self_time
    m = {
        "analysis.session.self_s": st("analysis.session"),
        "analysis.deps.self_s": st("analysis.deps"),
        "analysis.cache.get_s": st("analysis.cache.get"),
        "analysis.cache.put_s": st("analysis.cache.put"),
        "analysis.cache.hit_ratio": _ratio(
            delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]),
        "lint.self_s": st("lint"),
        "lint.concept_pass.self_s": st("lint.concept_pass"),
        "stllint.functions": delta["fix_functions"],
        "stllint.self_s": st("stllint"),
        "stllint.cfg.self_s": st("stllint.cfg"),
        "stllint.fixpoint.iterations": delta["fix_iterations"],
        "stllint.fixpoint.widenings": delta["fix_widenings"],
        "stllint.summary_hit_ratio": _ratio(
            delta["fix_summary_hits"],
            delta["fix_summary_hits"] + delta["fix_summary_misses"]),
        "facts.self_s": st("facts"),
        "facts.invalidations": tracer.counts.get("facts.invalidations", 0),
        "optimize.self_s": st("optimize"),
        "runtime.dispatch.calls": (delta["dispatch_hits"]
                                   + delta["dispatch_misses"]),
        "runtime.dispatch.self_s": st("runtime.dispatch"),
        "runtime.dispatch.hit_ratio": _ratio(
            delta["dispatch_hits"],
            delta["dispatch_hits"] + delta["dispatch_misses"]),
        "runtime.table_rebuilds": delta["table_rebuilds"],
        "concepts.check_s": delta["check_time_s"],
        "sequences.algorithms.self_s": st("sequences.algorithms"),
        "sequences.facade.self_s": st("sequences.facade"),
        "distributed.simulator.self_s": st("distributed.simulator"),
        "distributed.failures.self_s": st("distributed.failures"),
        "distributed.reliable.self_s": st("distributed.reliable"),
        "distributed.replog.self_s": st("distributed.replog"),
        "bench.self_s": st("bench"),
        "bench.traced_s": traced_s,
        "bench.untraced_s": untraced_s,
        "bench.trace_overhead_ratio": overhead,
        "bench.spans": tracer.spans,
    }
    for b in STORAGE_BACKENDS:
        m[f"sequences.storage.{b}.calls"] = tracer.calls_of(
            f"sequences.storage.{b}")
        m[f"sequences.storage.{b}.self_s"] = st(f"sequences.storage.{b}")
    m.update(counts)
    return {name: m.get(name, 0) for name in PER_LAYER}


def sharded_comparison(workload, seed: int) -> dict:
    """Serial vs ``shards=2`` on the replog workload's first inputs; the
    sharded loop must reproduce the serial run exactly."""
    from workloads import inputs, run_replog

    serial, sharded = [], []
    for i in range(2):
        spec = inputs.generate_replog_run(seed, i)
        t0 = time.perf_counter()
        a = run_replog(spec)
        serial.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        b = run_replog(spec, shards=2)
        sharded.append(time.perf_counter() - t0)
        workload.check(None if a.as_comparable() == b.as_comparable()
                       else f"run {i}: shards=2 differs from serial")
    return {"distributed.sharded.run_s": statistics.median(sharded),
            "distributed.sharded.speedup": _ratio(
                statistics.median(serial), statistics.median(sharded))}


def run_traced(workload, args) -> dict:
    import tracer as tracing

    probe = make_probe(workload)
    workload.setup(args.seed)
    refs = drive(workload, args.seconds * TRACE_SHARE, probe)
    untraced = list(zip(workload.samples, refs))
    workload.setup(args.seed)

    tracer = tracing.Tracer()
    patcher = tracing.Patcher(tracer)
    tracing.install_layers(patcher)
    before = counter_snapshot()
    try:
        refs = drive(workload, TRACE_BUDGET_S, probe, tracer=tracer,
                     max_ops=len(untraced))
    finally:
        patcher.restore()
    after = counter_snapshot()
    delta = {k: after[k] - before[k] for k in before}
    traced = list(zip(workload.samples, refs))
    untraced = untraced[:len(traced)]
    counts = workload.counters()
    if workload.name == "replog":
        counts.update(sharded_comparison(workload, args.seed))
    workload.finish()
    # Overhead compares the same operations in reference units, so a
    # change of host speed between the two phases does not count.
    overhead = _ratio(sum(x / r for x, r in traced),
                      sum(x / r for x, r in untraced)) - 1.0
    metrics = layer_metrics(tracer, delta, counts,
                            sum(x for x, _ in traced),
                            sum(x for x, _ in untraced), overhead)
    done = len(traced)
    report_lines(workload, {"traced_ops": (done, "ops")})
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"trace-{workload.name}-seed{args.seed}.json",
                {"workload": workload.name, "seed": args.seed,
                 "metrics": metrics})
    return metrics


def run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return done.returncode or 1
        results[name] = json.loads(lines[-1])
        for metric, value in results[name]["metrics"].items():
            print(f"  {metric} = {value['value']:.6g} {value['unit']}")
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    for module in IMPORTS:
        __import__(module)
    import_s = time.perf_counter() - t0
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workload = make_workload(args.workload, work)
    try:
        if args.trace:
            metrics, units = run_traced(workload, args), PER_LAYER
        else:
            metrics, units = run_untraced(workload, args, import_s), END_TO_END
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ref_dir(work), ignore_errors=True)
    print(json.dumps({
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
