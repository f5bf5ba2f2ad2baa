"""The four workloads: set-up, one closed-loop operation, and oracles.

Each workload is driven by one client in one process: the next operation
is issued only after the previous one has completed (see ``run.py``).
An operation's timed part is only the call into the program; generating
its input and checking its output against the oracle happen outside the
timer.
"""

from __future__ import annotations

import math
import os
import pathlib
import shutil
import statistics
import time

import inputs
import oracles


def tail(xs: list[float], pct: int) -> tuple[float, int, int]:
    """The ``pct``-th percentile (nearest rank) of ``xs`` if at least ten
    samples lie beyond it; otherwise the highest lower rung of a fixed
    ladder that has ten beyond (or the maximum, for tiny samples).
    Returns ``(value, percentile, samples beyond)``."""
    s = sorted(xs)
    n = len(s)
    for p in (99, 95, 90, 80, 75, 66, 60, 50):
        if p > pct:
            continue
        idx = max(0, math.ceil(p / 100 * n) - 1)
        if n - 1 - idx >= 10:
            return s[idx], p, n - 1 - idx
    return s[-1], 100, 0


class Workload:
    """Common shape: ``setup`` builds fresh state from the seed,
    ``step(i, timer)`` runs operation ``i`` inside ``timer`` and checks
    it, ``finish`` runs the end-of-run oracle."""

    name = ""
    #: The percentile reported as the latency tail (see ``tail``).
    tail_pct = 95
    #: The reference work whose time is the latency unit (``run.py``).
    reference = "cpu"

    def __init__(self, work: pathlib.Path) -> None:
        self.work = work
        self.reset()

    def reset(self) -> None:
        self.samples: list[float] = []       # seconds per operation
        self.attempted = self.failed = 0
        self.failures = []

    def record(self, seconds: float, problem: str | None) -> None:
        """One timed operation and its oracle verdict."""
        self.samples.append(seconds)
        self.check(problem)

    def check(self, problem: str | None) -> None:
        """Count one attempted operation, failed when ``problem`` is set."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(problem)

    def counters(self) -> dict:
        """Workload-side per-layer counts for the traced run."""
        return {}

    def finish(self) -> None:
        pass

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------


class AnalyzeCold(Workload):
    """Generated projects linted, then optimized, file by file through a
    fresh cached session on an empty cache directory per project."""

    name = "analyze-cold"
    tail_pct = 90

    def setup(self, seed: int) -> None:
        from repro.analysis import AnalysisConfig, AnalysisSession

        self.seed = seed
        self.reset()
        self.lint_s: list[float] = []
        self.optimize_s: list[float] = []
        self.applied = self.refused = 0
        self._project = -1
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        # Warm-up: one small project of the same seed through the whole
        # pipeline, so lazy imports and process-wide tables are built.
        warm = inputs.generate_project(seed, index=-1, files=4)
        root = self.work / "warm"
        paths = _write_tree(root, warm["files"])
        session = AnalysisSession(AnalysisConfig(
            cache=True, cache_dir=str(root / ".cache"), jobs=1))
        for path in paths:
            session.lint_file(path)
            session.optimize_file(path)
        shutil.rmtree(root)

    def _open_project(self, index: int) -> None:
        from repro.analysis import AnalysisConfig, AnalysisSession

        if self._project >= 0:
            shutil.rmtree(self.work / f"p{self._project}",
                          ignore_errors=True)
        self._project = index
        project = inputs.generate_project(self.seed, index=index)
        root = self.work / f"p{index}"
        self._paths = _write_tree(root, project["files"])
        self._keys = [project["key"][rel] for rel in project["files"]]
        self._session = AnalysisSession(AnalysisConfig(
            cache=True, cache_dir=str(root / ".cache"), jobs=1))

    def step(self, i: int, timer) -> None:
        index, f = divmod(i, inputs.FILES_PER_PROJECT)
        if index != self._project:
            self._open_project(index)
        path = self._paths[f]
        with timer:
            report = self._session.lint_file(path)
            mid = timer.lap()
            result = self._session.optimize_file(path)
        self.lint_s.append(mid)
        self.optimize_s.append(timer.seconds - mid)
        key = self._keys[f]
        problem = oracles.check_analysis(report, result, key)
        self.applied += len(result.plans)
        planned = {(p.line, p.call) for p in result.plans}
        self.refused += sum(
            1 for line, call in key["refused"] if (line, call) not in planned
        ) + int(result.reverted)
        self.record(timer.seconds,
                    problem and f"{path.name}: {problem}")

    def detail(self) -> dict:
        busy = sum(self.samples)
        return {
            "cold_files_per_s": (len(self.samples) / busy, "1/s"),
            "lint_ms_p50": (1e3 * statistics.median(self.lint_s), "ms"),
            "optimize_ms_p50": (1e3 * statistics.median(self.optimize_s),
                                "ms"),
        }

    def counters(self) -> dict:
        return {"optimize.rewrites_applied": self.applied,
                "optimize.rewrites_refused": self.refused}


def _write_tree(root: pathlib.Path, files: dict) -> list[pathlib.Path]:
    paths = []
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------


class LintEdit(Workload):
    """A scratch copy of ``src/repro``, warmed once, then a seeded script
    of one-file edits, each followed by a new-session cached lint of the
    whole tree (what ``python -m repro.lint --cache`` does)."""

    name = "lint-edit"
    tail_pct = 66
    reference = "io"

    def __init__(self, work: pathlib.Path, source_tree: pathlib.Path) -> None:
        super().__init__(work)
        self.source_tree = source_tree

    def _config(self, cached: bool = True):
        from repro.analysis import AnalysisConfig

        if not cached:
            return AnalysisConfig(jobs=1)
        return AnalysisConfig(cache=True, cache_dir=str(self.cache_dir),
                              jobs=1)

    def setup(self, seed: int) -> None:
        from repro.analysis import AnalysisSession

        self.reset()
        self.close()
        self.reanalyzed: list[int] = []
        shutil.rmtree(self.work, ignore_errors=True)
        self.cache_dir = self.work / "cache"
        shutil.copytree(self.source_tree, self.work / "tree" / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        # File discovery skips any path component starting with a dot,
        # and the work directory may sit below one: lint the tree by its
        # path relative to its parent, which becomes the working
        # directory until close().
        self._cwd = os.getcwd()
        os.chdir(self.work / "tree")
        self.tree = pathlib.Path("repro")
        self.original = {
            p.relative_to(self.tree).as_posix(): p.read_text("utf-8")
            for p in sorted(self.tree.rglob("*.py"))
        }
        self.current = dict(self.original)
        modules = inputs.classify_modules(self.original)
        self.script = inputs.generate_edit_script(seed, modules)
        # Warm once: a cold cached pass fills the cache, a second pass
        # runs warm.
        AnalysisSession(self._config()).lint_paths([self.tree])
        self.last = AnalysisSession(self._config()).lint_paths([self.tree])

    def warm_pass(self) -> float:
        """One no-change cached re-lint (seconds)."""
        from repro.analysis import AnalysisSession

        t0 = time.perf_counter()
        AnalysisSession(self._config()).lint_paths([self.tree])
        return time.perf_counter() - t0

    def step(self, i: int, timer) -> None:
        from repro.analysis import AnalysisSession

        edit = self.script[i % len(self.script)]
        rel = edit["file"]
        if edit["kind"] == "revert":
            text = self.original[rel]
        else:
            text = self.current[rel] + edit["text"]
        self.current[rel] = text
        path = self.tree / rel
        path.write_text(text, encoding="utf-8")
        session = AnalysisSession(self._config())
        with timer:
            report = session.lint_paths([self.tree])
        self.last = report
        self.reanalyzed.append(session.counters["lint_analyzed"])
        fresh = AnalysisSession(self._config(cached=False)).lint_file(path)
        problem = oracles.check_file_report(report, fresh)
        self.record(timer.seconds,
                    problem and f"edit {i} ({rel}): {problem}")

    def finish(self) -> None:
        from repro.analysis import AnalysisSession

        cold = AnalysisSession(self._config(cached=False)).lint_paths(
            [self.tree])
        problem = oracles.check_project_report(self.last, cold)
        self.check(problem and f"final tree: {problem}")

    def close(self) -> None:
        if getattr(self, "_cwd", None) is not None:
            os.chdir(self._cwd)
            self._cwd = None

    def detail(self) -> dict:
        return {"reanalyzed_per_edit": (
            statistics.fmean(self.reanalyzed), "count")}

    def counters(self) -> dict:
        return {"analysis.reanalyzed_per_edit":
                statistics.fmean(self.reanalyzed)}


# ---------------------------------------------------------------------------


class Containers(Workload):
    """A seeded stream of generic-algorithm calls over a pool of
    containers on every storage backend, checked against plain lists."""

    name = "containers"
    tail_pct = 95

    def setup(self, seed: int) -> None:
        self.reset()
        self.close()
        self.call_s: list[float] = []
        self.call_kinds: list[str] = []
        self.pool, self.mirror = _build_pool(inputs.generate_pool(seed))
        self.ops = inputs.OpStream(seed, inputs.generate_pool(seed))
        # Warm-up: the same kinds of calls on a throwaway pool, so every
        # dispatch table the stream needs is compiled before timing.
        warm_spec = [dict(c, items=c["items"][:12])
                     for c in inputs.generate_pool(seed)]
        warm_pool, warm_mirror = _build_pool(warm_spec)
        warm_ops = inputs.OpStream(seed, warm_spec)
        for _ in range(400):
            op = next(warm_ops)
            _apply(op, warm_pool, warm_mirror)
        for c in warm_pool:
            c.close()

    def step(self, i: int, timer) -> None:
        # One operation is one block of the stream: a call on every
        # container of the pool, with the same mix of calls in every
        # block.  Single calls range from microseconds (a push_back) to
        # tens of milliseconds (a scan of a large sqlite sequence), so a
        # percentile over single calls jumps between those classes as
        # the mix drifts; a percentile over blocks does not.
        batch_s = 0.0
        for _ in range(len(self.pool)):
            op = next(self.ops)
            name, index, arg = op
            c = self.pool[index]
            with timer:
                result = _CALLS[name](c, arg)
            batch_s += timer.seconds
            self.call_s.append(timer.seconds)
            self.call_kinds.append(
                "read" if name in inputs.READS else "write")
            problem = oracles.check_container_op(op, c, result, self.mirror)
            self.check(problem and f"block {i} {name}: {problem}")
        self.samples.append(batch_s)

    def finish(self) -> None:
        for index, c in enumerate(self.pool):
            problem = oracles.check_container_contents(c, self.mirror[index])
            self.check(problem and f"container {index}: {problem}")

    def detail(self) -> dict:
        out = {"calls_per_s": (len(self.call_s) / sum(self.call_s), "1/s")}
        for kind in ("read", "write"):
            xs = [s for s, k in zip(self.call_s, self.call_kinds)
                  if k == kind]
            out[f"{kind}_us_p50"] = (1e6 * statistics.median(xs), "us")
            value, pct, beyond = tail(xs, 99)
            out[f"{kind}_us_tail"] = (
                1e6 * value, f"us (p{pct}, {beyond} beyond)")
        return out

    def counters(self) -> dict:
        return {"sequences.storage.sqlite.roundtrips": sum(
            getattr(c.storage(), "roundtrips", 0) for c in self.pool)}

    def close(self) -> None:
        for c in getattr(self, "pool", ()):
            c.close()
        self.pool = []


def _build_pool(spec: list[dict]) -> tuple[list, list]:
    from repro.sequences import Deque, DList, Vector
    from repro.sequences.backends import ContiguousVector, SqliteSequence

    classes = {"Vector": Vector, "Deque": Deque, "DList": DList,
               "ContiguousVector": ContiguousVector,
               "SqliteSequence": SqliteSequence}
    pool = [classes[c["kind"]](c["items"]) for c in spec]
    mirror = [list(c["items"]) for c in spec]
    return pool, mirror


def _at(c, pos: int):
    from repro.sequences.algorithms import advance

    it = c.begin()
    advance(it, pos)
    return it


def _call_find_in(c, v):
    from repro.sequences.algorithms import find_in
    return find_in(c, v)


def _call_lower_bound(c, v):
    from repro.sequences.algorithms import lower_bound
    return lower_bound(c.begin(), c.end(), v)


def _call_indexed_find(c, v):
    from repro.sequences.algorithms import indexed_find
    return indexed_find(c, v)


def _call_accumulate(c, _):
    from repro.sequences.algorithms import accumulate
    return accumulate(c.begin(), c.end(), 0)


def _call_copy_into(c, _):
    from repro.sequences import Vector
    from repro.sequences.algorithms import copy_into
    return copy_into(c, Vector())


def _call_insert(c, arg):
    pos, v = arg
    return c.insert(_at(c, pos), v)


def _call_erase(c, pos):
    return c.erase(_at(c, pos))


def _call_set(c, arg):
    pos, v = arg
    _at(c, pos).set(v)


def _call_sort(c, _):
    from repro.sequences.algorithms import sort
    return sort(c)


_CALLS = {
    "find_in": _call_find_in,
    "lower_bound": _call_lower_bound,
    "indexed_find": _call_indexed_find,
    "accumulate": _call_accumulate,
    "copy_into": _call_copy_into,
    "push_back": lambda c, v: c.push_back(v),
    "insert": _call_insert,
    "erase": _call_erase,
    "set": _call_set,
    "sort": _call_sort,
}


def _apply(op: tuple, pool: list, mirror: list):
    name, index, arg = op
    result = _CALLS[name](pool[index], arg)
    oracles.mirror_apply(op, mirror)
    return result


# ---------------------------------------------------------------------------


class Replog(Workload):
    """Seeded runs of the replicated log under loss, a partition that
    heals and one churned replica, on the default serial event loop."""

    name = "replog"
    tail_pct = 75

    def setup(self, seed: int) -> None:
        from repro.resilience.concepts import register_replicated_log_models

        self.seed = seed
        self.reset()
        self.messages = 0
        self.delivered = self.duplicates = self.retx = 0
        register_replicated_log_models()
        # Warm-up: a small run with the same fault shape.
        spec = inputs.generate_replog_run(seed, -1, n=16)
        run_replog(spec)

    def step(self, i: int, timer) -> None:
        spec = inputs.generate_replog_run(self.seed, i)
        plan = build_plan(spec)
        with timer:
            metrics = run_replog(spec, plan)
        problem = oracles.check_replog(metrics, spec["n"])
        self.messages += metrics.messages_sent
        self.delivered += metrics.messages_delivered
        self.duplicates += metrics.duplicates_suppressed
        self.retx += metrics.retransmissions
        self.record(timer.seconds, problem and f"run {i}: {problem}")

    def detail(self) -> dict:
        return {
            "sim_run_s": (statistics.median(self.samples), "s"),
            "sim_msgs_per_s": (self.messages / sum(self.samples), "1/s"),
        }

    def counters(self) -> dict:
        return {
            "distributed.events": self.delivered,
            "distributed.retransmissions": self.retx,
            # Deliveries (messages and timers) that were not duplicates
            # suppressed by the reliable transport.
            "distributed.useful_delivery_ratio": (
                (self.delivered - self.duplicates) / self.delivered
                if self.delivered else 0.0),
        }


def build_plan(spec: dict):
    from repro.distributed.failures import FailurePlan, heal, partition

    churn = spec["churn"]
    plan = FailurePlan(
        loss_probability=spec["loss"], seed=spec["plan_seed"],
        churn={churn["rank"]: [(churn["down"], churn["up"])]})
    part = spec["partition"]
    plan = partition(part["at"], [set(part["minority"])], plan=plan)
    plan = heal(part["heal"], plan=plan)
    return plan.validate()


def run_replog(spec: dict, plan=None, shards: int | None = None):
    from repro.distributed.algorithms.replog import run_replicated_log

    proposals = {int(r): cmds for r, cmds in spec["proposals"].items()}
    return run_replicated_log(
        spec["n"], proposals, failures=plan or build_plan(spec),
        seed=spec["sim_seed"], shards=shards, max_time=5000,
        on_limit="truncate")
