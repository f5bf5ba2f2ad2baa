"""Experiment T-service: the incremental analysis service.

The tentpole claim of ``repro.analysis`` is that whole-program linting
becomes *incremental*: a warm re-run costs hashing plus cache reads, an
edit re-analyzes only the edited file and the files whose analysis reads
it (see ``repro.analysis.deps``), and
the worker pool changes wall time but never output.  This bench checks
all three on a synthetic project (pytest mode) and on a scratch copy of
``src/repro`` itself (standalone mode), plus a smoke pass over the
line-delimited JSON protocol.

Standalone mode (the CI analysis-service smoke job)::

    PYTHONPATH=src python benchmarks/bench_analysis_service.py --quick

writes ``benchmarks/out/analysis_service.json`` and exits nonzero if a
warm run re-analyzes anything, an edit re-analyzes other than the edited
file plus the files that read it, a served report differs from a
cacheless lint, or parallel findings differ from serial.
"""

import io
import json
import pathlib
import shutil
import tempfile
import time

from repro.analysis import AnalysisConfig, AnalysisSession
from repro.analysis import deps as analysis_deps
from repro.analysis.service import AnalysisService

HERE = pathlib.Path(__file__).parent
SRC = HERE.parent / "src" / "repro"
OUT_JSON = HERE / "out" / "analysis_service.json"

HELPER = '''
def grade(s):
    return s % 5
'''

LEAF = '''
from helpers import grade

def scan_{i}(v: "vector"):
    total = 0
    it = v.begin()
    while it != v.end():
        total = total + grade(it.deref())
        it.increment()
    return total

def purge_{i}(students: "vector", fails: "vector"):
    for s in students:
        if grade(s) == 0:
            fails.push_back(s)
            students.remove(s)
'''

READER = '''
import helpers


@helpers.grade(1)
def hook():
    pass
'''


def make_project(root: pathlib.Path, n_leaves: int) -> None:
    root.mkdir(parents=True, exist_ok=True)
    (root / "helpers.py").write_text(HELPER)
    for i in range(n_leaves):
        (root / f"leaf_{i}.py").write_text(LEAF.format(i=i))


def run_cycle(config, paths):
    """One fresh-session lint pass; returns (report, counters, seconds)."""
    session = AnalysisSession(config)
    t0 = time.perf_counter()
    report = session.lint_paths(paths)
    return report, session.counters, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# pytest mode: shape assertions on a synthetic project
# ---------------------------------------------------------------------------


def test_cold_warm_edit_cycle(record):
    """Cold analyzes all; warm analyzes none; an edit re-analyzes the
    edited file plus exactly the files whose reads reach it."""
    n = 8
    with tempfile.TemporaryDirectory(prefix="bench-svc-") as td:
        root = pathlib.Path(td) / "proj"
        make_project(root, n)
        config = AnalysisConfig(cache=True,
                                cache_dir=str(pathlib.Path(td) / "cache"))

        cold, c_cold, t_cold = run_cycle(config, [root])
        assert c_cold["lint_analyzed"] == n + 1
        assert c_cold["lint_from_cache"] == 0

        warm, c_warm, t_warm = run_cycle(config, [root])
        assert c_warm["lint_analyzed"] == 0
        assert c_warm["lint_from_cache"] == n + 1
        assert warm.to_dict() == cold.to_dict()

        # Edit one leaf (nothing imports it): exactly one re-analysis.
        leaf = root / "leaf_3.py"
        leaf.write_text(leaf.read_text() + "\n# touched\n")
        after_leaf, c_leaf, t_leaf = run_cycle(config, [root])
        assert c_leaf["lint_analyzed"] == 1
        assert c_leaf["lint_from_cache"] == n

        # Edit the shared helper: every leaf imports it, but linting a
        # leaf reads nothing from it (no decorator resolves through an
        # import), so only the helper re-analyzes.
        helper = root / "helpers.py"
        helper.write_text(helper.read_text() + "\n# touched\n")
        after_helper, c_helper, _ = run_cycle(config, [root])
        assert c_helper["lint_analyzed"] == \
            _expected_dirty(_files(root), helper) == 1
        assert c_helper["lint_from_cache"] == n

        # A module that reads the helper through a decorator re-analyzes
        # with it, and nothing else does.
        (root / "reader.py").write_text(READER)
        run_cycle(config, [root])
        helper.write_text(helper.read_text() + "\n# touched again\n")
        after_reader, c_reader, _ = run_cycle(config, [root])
        assert c_reader["lint_analyzed"] == \
            _expected_dirty(_files(root), helper) == 2
        uncached, _, _ = run_cycle(AnalysisConfig(), [root])
        assert after_reader.to_dict() == uncached.to_dict()

    record(
        "analysis_service_cycle",
        "T-service: cold -> warm -> edit cycle "
        f"({n} leaves + 1 shared helper)\n"
        f"  cold:       {c_cold['lint_analyzed']} analyzed "
        f"in {t_cold * 1e3:.1f} ms\n"
        f"  warm:       {c_warm['lint_from_cache']} from cache "
        f"in {t_warm * 1e3:.1f} ms\n"
        f"  leaf edit:  {c_leaf['lint_analyzed']} re-analyzed, "
        f"{c_leaf['lint_from_cache']} from cache "
        f"in {t_leaf * 1e3:.1f} ms\n"
        f"  helper edit: {c_helper['lint_analyzed']} re-analyzed "
        "(every leaf imports it, none reads it)\n"
        f"  helper edit with a reader: {c_reader['lint_analyzed']} "
        "re-analyzed (the helper and the module that reads it)",
    )


def test_parallel_output_is_bit_identical(record):
    """--jobs N must be a pure scheduling knob: same bytes as serial."""
    with tempfile.TemporaryDirectory(prefix="bench-svc-") as td:
        root = pathlib.Path(td) / "proj"
        make_project(root, 6)

        serial, _, t1 = run_cycle(AnalysisConfig(jobs=1), [root])
        parallel, _, t2 = run_cycle(AnalysisConfig(jobs=2), [root])
        assert serial.to_json() == parallel.to_json()
        assert len(serial.findings) > 0  # the purgers' planted bugs

    record(
        "analysis_service_parallel",
        "T-service: serial vs 2-worker lint of the synthetic project\n"
        f"  serial: {t1 * 1e3:.1f} ms   parallel: {t2 * 1e3:.1f} ms\n"
        f"  findings: {len(serial.findings)} (bit-identical output)",
    )


def test_protocol_smoke():
    """The LDJSON daemon answers every op and honours the exit-code
    contract, and malformed input never kills the loop."""
    with tempfile.TemporaryDirectory(prefix="bench-svc-") as td:
        root = pathlib.Path(td) / "proj"
        make_project(root, 2)
        session = AnalysisSession(AnalysisConfig(
            cache=True, cache_dir=str(pathlib.Path(td) / "cache")))
        requests = [
            {"op": "ping"},
            {"op": "lint", "paths": [str(root)]},
            "this is not json",
            {"op": "lint", "paths": [str(root)]},   # warm now
            {"op": "stats"},
            {"op": "invalidate"},
            {"op": "shutdown"},
        ]
        in_stream = io.StringIO("\n".join(
            r if isinstance(r, str) else json.dumps(r) for r in requests
        ) + "\n")
        out_stream = io.StringIO()
        AnalysisService(session).serve(in_stream, out_stream)
        responses = [json.loads(line)
                     for line in out_stream.getvalue().splitlines()]

    assert len(responses) == len(requests)
    ping, lint1, bad, lint2, stats, inv, bye = responses
    assert ping["ok"] and ping["pong"]
    assert lint1["ok"] and lint1["exit_code"] == 1  # planted purger bugs
    assert not bad["ok"] and bad["exit_code"] == 2
    assert lint2["report"] == lint1["report"]
    assert stats["stats"]["session"]["lint_from_cache"] == 3
    assert inv["invalidated"] > 0
    assert bye["ok"] and bye["stopping"]


# ---------------------------------------------------------------------------
# standalone mode (CI analysis-service smoke job)
# ---------------------------------------------------------------------------


def _files(root: pathlib.Path) -> list:
    from repro.lint.driver import discover_files

    return discover_files([root])


def _expected_dirty(files, edited: pathlib.Path) -> int:
    """1 + the number of files whose read-name closure reaches
    ``edited``: the files their read names match, and everything those
    import, transitively."""
    scans = {}
    for f in files:
        try:
            scans[f] = analysis_deps.scan_imports(
                f.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError):
            pass
    graph = analysis_deps.dependency_graph(scans, lambda f: scans[f][0])
    reads = analysis_deps.dependency_graph(scans, lambda f: scans[f][1])
    edited = edited.resolve()
    return 1 + sum(edited in analysis_deps.reachable(graph, reads[f])
                   for f in scans if f != edited)


def _measure() -> dict:
    """Cold -> warm -> one-file-edit over a scratch copy of src/repro."""
    result = {"workload": "copy of src/repro"}
    with tempfile.TemporaryDirectory(prefix="bench-svc-") as td:
        tree = pathlib.Path(td) / "repro"
        shutil.copytree(SRC, tree)
        config = AnalysisConfig(cache=True,
                                cache_dir=str(pathlib.Path(td) / "cache"))

        cold, c_cold, t_cold = run_cycle(config, [tree])
        warm, c_warm, t_warm = run_cycle(config, [tree])

        # Touch one real module; only it and the files whose read-name
        # closure reaches it may re-analyze.
        edited = tree / "optimize" / "cli.py"
        edited.write_text(edited.read_text(encoding="utf-8")
                          + "\n# touched by bench\n", encoding="utf-8")
        files = _files(tree)
        expected_dirty = _expected_dirty(files, edited)
        after, c_edit, t_edit = run_cycle(config, [tree])

        result.update({
            "files": len(files),
            "cold_ms": t_cold * 1e3,
            "warm_ms": t_warm * 1e3,
            "edit_ms": t_edit * 1e3,
            "warm_hits": c_warm["lint_from_cache"],
            "warm_analyzed": c_warm["lint_analyzed"],
            "edit_analyzed": c_edit["lint_analyzed"],
            "edit_expected_dirty": expected_dirty,
            "warm_identical": warm.to_dict() == cold.to_dict(),
        })

        # Serial vs parallel on the same (pre-edit-irrelevant) tree,
        # no cache: pure pool path must be bit-identical.
        serial, _, t_serial = run_cycle(AnalysisConfig(jobs=1), [tree])
        parallel, _, t_parallel = run_cycle(AnalysisConfig(jobs=2), [tree])
        result["serial_ms"] = t_serial * 1e3
        result["parallel_ms"] = t_parallel * 1e3
        result["parallel_identical"] = serial.to_json() == parallel.to_json()
        result["edit_identical"] = after.to_dict() == serial.to_dict()

        # Protocol smoke against the warmed cache.
        in_stream = io.StringIO("\n".join(json.dumps(r) for r in [
            {"op": "ping"},
            {"op": "lint", "paths": [str(tree)]},
            {"op": "stats"},
            {"op": "shutdown"},
        ]) + "\n")
        out_stream = io.StringIO()
        AnalysisService(AnalysisSession(config)).serve(in_stream, out_stream)
        responses = [json.loads(line)
                     for line in out_stream.getvalue().splitlines()]
        result["protocol_ok"] = (
            len(responses) == 4
            and all(r["ok"] for r in responses)
            and responses[2]["stats"]["session"]["lint_from_cache"]
            == len(files)
        )

    result["ok"] = (
        result["warm_identical"]
        and result["warm_hits"] == result["files"]
        and result["warm_analyzed"] == 0
        and result["edit_analyzed"] == result["edit_expected_dirty"]
        and result["edit_identical"]
        and result["edit_analyzed"] < result["files"]
        and result["parallel_identical"]
        and result["protocol_ok"]
    )
    return result


def _render(m: dict) -> str:
    return "\n".join([
        "T-service standalone: incremental self-lint of a src/repro copy",
        f"  files: {m['files']}   cold: {m['cold_ms']:.1f} ms   "
        f"warm: {m['warm_ms']:.1f} ms ({m['warm_hits']} hits)   "
        f"edit: {m['edit_ms']:.1f} ms",
        f"  one-file edit re-analyzed {m['edit_analyzed']} file(s) "
        f"(expected {m['edit_expected_dirty']}: the file + the files "
        "whose reads reach it); served report equals a cacheless lint: "
        f"{m['edit_identical']}",
        f"  serial {m['serial_ms']:.1f} ms vs 2 workers "
        f"{m['parallel_ms']:.1f} ms — identical output: "
        f"{m['parallel_identical']}",
        f"  LDJSON protocol smoke ok: {m['protocol_ok']}",
    ])


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode (single pass; same checks)")
    parser.add_argument("--json", type=pathlib.Path, default=OUT_JSON,
                        help=f"summary JSON output path (default {OUT_JSON})")
    args = parser.parse_args(argv)

    m = _measure()
    print(_render(m))
    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(m, indent=2, default=str) + "\n")
    print(f"summary written to {args.json}")
    if not m["ok"]:
        print("FAIL: warm run re-analyzed files, edit invalidation drifted "
              "from the read-name closure, a served report differed from "
              "a cacheless lint, parallel output diverged, or the "
              "protocol smoke failed")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
