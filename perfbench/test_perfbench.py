"""The benchmark's own tests: seeded inputs, oracles, metric names.

Run:  python3 -m pytest perfbench -q      (from the repository root)
"""

from __future__ import annotations

import copy
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _modules() -> dict:
    sources = {
        p.relative_to(ROOT / "src" / "repro").as_posix(): p.read_text()
        for p in sorted((ROOT / "src" / "repro").rglob("*.py"))
    }
    return inputs.classify_modules(sources)


def _ops(seed: int, n: int = 500) -> list:
    stream = inputs.OpStream(seed, inputs.generate_pool(seed))
    return [next(stream) for _ in range(n)]


GENERATORS = {
    "analyze-cold": lambda seed: inputs.generate_project(seed, index=3),
    "lint-edit": lambda seed: inputs.generate_edit_script(seed, _modules()),
    "containers-pool": inputs.generate_pool,
    "containers-ops": _ops,
    "replog": lambda seed: inputs.generate_replog_run(seed, 5),
}


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    gen = GENERATORS[name]
    first = inputs.canonical(gen(11))
    assert inputs.canonical(gen(11)) == first
    assert inputs.canonical(gen(12)) != first


def test_project_key_covers_every_planted_shape():
    project = inputs.generate_project(4)
    keys = project["key"].values()
    assert len(project["files"]) == inputs.FILES_PER_PROJECT
    checks = {c for k in keys for _line, c in k["findings"]}
    assert {"singular-deref", "singular-erase", "singular-advance",
            "sorted-linear-find"} <= checks
    replacements = {r for k in keys for _l, _c, r in k["rewrites"]}
    assert replacements == {"lower_bound", "backend_sort", "indexed_find"}
    assert all(k["refused"] for k in keys)


def test_edit_script_mixes_hubs_leaves_and_kinds():
    modules = _modules()
    script = inputs.generate_edit_script(3, modules)
    files = {e["file"] for e in script}
    assert files & set(modules["hubs"]) and files & set(modules["leaves"])
    assert {e["kind"] for e in script} == {"comment", "add_function",
                                           "revert"}


def test_replog_plans_validate():
    from workloads import build_plan

    for i in range(20):
        build_plan(inputs.generate_replog_run(9, i))


# -- oracles reject corrupted answers -------------------------------------------


@pytest.fixture(scope="module")
def analyzed():
    from repro.analysis import AnalysisConfig, AnalysisSession

    project = inputs.generate_project(2, files=4)
    session = AnalysisSession(AnalysisConfig())
    out = []
    for rel, source in project["files"].items():
        out.append((session.lint_source(source, rel),
                    session.optimize_source(source, rel),
                    project["key"][rel]))
    return out


def test_analysis_oracle_accepts_the_program(analyzed):
    for report, result, key in analyzed:
        assert oracles.check_analysis(report, result, key) is None


def test_analysis_oracle_rejects_a_lost_finding(analyzed):
    report, result, key = analyzed[0]
    bad = copy.deepcopy(report)
    bad.findings.pop()
    assert oracles.check_analysis(bad, result, key) is not None


def test_analysis_oracle_rejects_a_rewrite_of_a_refused_site(analyzed):
    report, result, key = analyzed[0]
    line, call = key["refused"][0]
    bad = copy.deepcopy(result)
    bad.plans.append(_fake_plan(line, call))
    assert oracles.check_analysis(report, bad, key) is not None


def _fake_plan(line: int, call: str):
    from repro.optimize.pipeline import PlannedRewrite

    return PlannedRewrite(
        line=line, function="f", subject="v", call=call,
        replacement="lower_bound", concept_from="", concept_to="",
        bound_from="", bound_to="", properties=(), savings=0.0,
        code="OPT-find-to-lower-bound")


def test_lint_edit_oracles_reject_a_stale_report(tmp_path):
    from repro.analysis import AnalysisConfig, AnalysisSession
    from repro.lint.driver import LintFinding

    path = tmp_path / "mod.py"
    path.write_text(inputs.planted_function(1).lstrip())
    session = AnalysisSession(AnalysisConfig())
    project = session.lint_paths([path])
    fresh = session.lint_file(path)
    assert oracles.check_file_report(project, fresh) is None
    assert oracles.check_project_report(project, project) is None
    stale = copy.deepcopy(project)
    stale.files[0].findings.append(LintFinding(
        path=str(path), function="f", line=1, severity="warning",
        check="singular-deref", message="stale"))
    assert oracles.check_file_report(stale, fresh) is not None
    assert oracles.check_project_report(stale, project) is not None


def test_container_oracles_reject_wrong_answers():
    from repro.sequences import Vector
    from repro.sequences.algorithms import find_in

    c = Vector([5, 3, 9, 3])
    mirror = [[5, 3, 9, 3]]
    op = ("find_in", 0, 3)
    assert oracles.check_container_op(op, c, find_in(c, 3),
                                      copy.deepcopy(mirror)) is None
    wrong = c.begin()                       # position 0 holds 5, not 3
    assert oracles.check_container_op(op, c, wrong,
                                      copy.deepcopy(mirror)) is not None
    op = ("accumulate", 0, None)
    assert oracles.check_container_op(op, c, 21, mirror) is not None
    assert oracles.check_container_contents(c, [5, 3, 9, 3]) is None
    assert oracles.check_container_contents(c, [5, 3, 3, 9]) is not None


def test_replog_oracles_reject_lost_commands_and_double_leaders():
    from repro.distributed.algorithms.replog import ReplicatedLogRecord
    from workloads import run_replog

    spec = inputs.generate_replog_run(1, 0, n=8)
    metrics = run_replog(spec)
    assert oracles.check_replog(metrics, 8) is None
    rank = next(iter(metrics.decisions))
    metrics.decisions[rank] = metrics.decisions[rank][:-1]
    assert oracles.check_replog(metrics, 8) is not None
    forged = ReplicatedLogRecord(
        n=3, leadership=((1, 0), (1, 2)), history=(),
        finals=((0, ()), (1, ()), (2, ())), expected=())
    assert oracles.check_replog_record(forged) is not None


# -- metric and workload names ---------------------------------------------------


def test_names_match_benchmark_json(benchmark_json):
    workloads = [w["name"] for w in benchmark_json["workloads"]]
    assert tuple(workloads) == run.WORKLOADS
    declared_e2e = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER
    for name in [*workloads, *declared_e2e, *declared_layer]:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(benchmark_json, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "replog",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in benchmark_json[key]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    for name in printed:
        assert NAME.fullmatch(name), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "containers",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


# -- statistics and tracing ---------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    xs = [float(i) for i in range(1000)]
    assert run.tail(xs, 99) == (989.0, 99, 10)
    value, pct, beyond = run.tail(xs[:40], 99)
    assert (pct, beyond) == (75, 10)
    assert run.tail(xs[:5], 99) == (4.0, 100, 0)


def test_reference_time_is_the_median_of_nearby_probes():
    probe = run.SpeedProbe("cpu", [], half_window=1.0)
    probe.stamps = [0.0, 0.5, 1.0, 5.0]
    probe.measurements = [1.0, 2.0, 3.0, 9.0]
    assert probe.reference_at(0.5) == 2.0
    assert probe.reference_at(5.2) == 9.0
    assert probe.reference_at(3.0) == 9.0     # none within 1 s: the next


def test_self_time_is_span_minus_children():
    t = tracer.Tracer()
    outer, inner = t.intern("outer"), t.intern("inner")
    f_out = t.push(outer)
    f_in = t.push(inner)
    t.pop(f_in)
    t.pop(f_out)
    starts, ends = list(t.r_start), list(t.r_end)
    inner_span = ends[0] - starts[0]
    outer_span = ends[1] - starts[1]
    assert t.self_time("inner") == pytest.approx(inner_span)
    assert t.self_time("outer") == pytest.approx(
        outer_span - inner_span)
    # Records are appended as spans end; span ids are given as they
    # start, so the inner span (recorded first) names the outer, id 0.
    assert list(t.r_parent) == [0, -1]


def test_patcher_wraps_and_restores():
    import repro.sequences.algorithms as algorithms
    from repro.sequences import Vector

    original = algorithms.accumulate
    t = tracer.Tracer()
    patcher = tracer.Patcher(t)
    tracer.install_layers(patcher)
    try:
        assert algorithms.accumulate is not original
        v = Vector([1, 2, 3])
        t.enabled = True
        assert algorithms.accumulate(v.begin(), v.end(), 0) == 6
        t.enabled = False
        assert t.calls_of("sequences.algorithms") == 1
        assert t.calls_of("sequences.facade") > 0
    finally:
        patcher.restore()
    assert algorithms.accumulate is original
