"""Tests for repro.trace: span tracer core, exporters + Chrome schema,
activation paths, and the instrumentation of all four layers (dispatch,
rewriter, lint driver, simulator)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import pytest

from repro import trace
from repro.trace import core as trace_core

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(__file__)), "examples")


@pytest.fixture(autouse=True)
def _no_global_tracer():
    """Every test starts and ends with tracing disabled."""
    trace.disable()
    yield
    trace.disable()


def spans(tracer, name=None):
    out = [r for r in tracer.records if r["type"] == "span"]
    return out if name is None else [r for r in out if r["name"] == name]


def events(tracer, name=None):
    out = [r for r in tracer.records if r["type"] == "event"]
    return out if name is None else [r for r in out if r["name"] == name]


class TestTracerCore:
    def test_disabled_by_default(self):
        assert trace.active() is None

    def test_span_nesting_depth_and_timing(self):
        t = trace.Tracer()
        with t.span("outer", cat="t"):
            with t.span("inner", cat="t", k=1):
                pass
        inner, outer = t.records  # inner closes (and records) first
        assert inner["name"] == "inner" and inner["depth"] == 1
        assert outer["name"] == "outer" and outer["depth"] == 0
        assert inner["dur_us"] >= 0
        assert outer["dur_us"] >= inner["dur_us"]
        assert inner["ts_us"] >= outer["ts_us"]
        assert inner["attrs"] == {"k": 1}

    def test_span_records_error_attr_and_pops_stack(self):
        t = trace.Tracer()
        with pytest.raises(ValueError):
            with t.span("boom"):
                raise ValueError("x")
        (sp,) = spans(t)
        assert sp["attrs"]["error"] == "ValueError"
        assert t._stack() == []

    def test_mid_span_attrs_and_events(self):
        t = trace.Tracer()
        with t.span("s") as sp:
            sp.set("found", 3)
            t.event("e", detail="d")
        ev, sp_rec = t.records
        assert ev["depth"] == 1  # nested under the open span
        assert sp_rec["attrs"]["found"] == 3

    def test_complete_records_interval(self):
        from time import perf_counter_ns

        t = trace.Tracer()
        t0 = perf_counter_ns()
        t.complete("c", t0, cat="t", k="v")
        (sp,) = spans(t)
        assert sp["dur_us"] >= 0 and sp["attrs"] == {"k": "v"}

    def test_per_thread_stacks(self):
        t = trace.Tracer()
        seen = {}

        def worker():
            with t.span("w"):
                seen["depth"] = len(t._stack())

        with t.span("main"):
            th = threading.Thread(target=worker)
            th.start()
            th.join()
        # The worker's span does not nest under the main thread's.
        assert seen["depth"] == 1
        w = spans(t, "w")[0]
        m = spans(t, "main")[0]
        assert w["depth"] == 0
        assert w["tid"] != m["tid"]

    def test_enable_disable_roundtrip(self):
        t = trace.enable()
        assert trace.active() is t
        assert trace.enable() is t  # idempotent: keeps the active tracer
        assert trace.disable() is t
        assert trace.active() is None


class TestExporters:
    def _sample(self):
        t = trace.Tracer("sample")
        with t.span("a", cat="x", n=1):
            t.event("ev", cat="x")
        t.counter("ctr", {"v": 2.0}, cat="x")
        return t

    def test_ndjson_one_record_per_line(self, tmp_path):
        t = self._sample()
        out = tmp_path / "t.ndjson"
        trace.export_ndjson(t, out, fold_counters=False)
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["type"] for r in lines] == ["event", "span", "counter"]

    def test_chrome_export_validates(self, tmp_path):
        t = self._sample()
        out = tmp_path / "t.json"
        trace.export_chrome(t, out, fold_counters=False)
        doc = json.loads(out.read_text())
        evs = trace.validate_chrome_trace(doc)
        assert [e["ph"] for e in evs] == ["i", "X", "C"]
        x = evs[1]
        assert x["name"] == "a" and x["args"] == {"n": 1}
        assert isinstance(x["dur"], float)

    def test_chrome_export_folds_runtime_counters(self, tmp_path):
        from repro import runtime
        from repro.analysis import AnalysisConfig, AnalysisSession
        from repro.analysis import cache as analysis_cache

        t = self._sample()
        out = tmp_path / "t.json"
        trace.export_chrome(t, out)  # fold_counters defaults on
        evs = trace.validate_chrome_trace(json.loads(out.read_text()))
        counters = {e["name"] for e in evs if e["ph"] == "C"}
        assert {"dispatch.tables", "model.cache", "where.sites"} <= counters

        # After a lint through a cached session every registered group
        # has counted something, so all six tracks appear.
        session = AnalysisSession(AnalysisConfig(
            cache=True, cache_dir=str(tmp_path / "cache")))
        session.lint_paths([os.path.join(EXAMPLES, "lint_demo.py")])
        t = self._sample()
        trace.export_chrome(t, out)
        evs = trace.validate_chrome_trace(json.loads(out.read_text()))
        tracks = {e["name"]: e["args"] for e in evs if e["ph"] == "C"}
        assert {"dispatch.tables", "model.cache", "where.sites",
                "stllint.fixpoint", "stllint.summaries",
                "analysis.cache"} <= set(tracks)
        assert tracks["analysis.cache"] == analysis_cache.stats()
        totals = runtime.stats()["totals"]
        assert tracks["where.sites"] == {
            "hits": totals["where_hits"], "misses": totals["where_misses"],
        }

    def test_export_to_file_object(self):
        import io

        t = self._sample()
        buf = io.StringIO()
        trace.export_chrome(t, buf, fold_counters=False)
        trace.validate_chrome_trace(json.loads(buf.getvalue()))

    @pytest.mark.parametrize("doc,msg", [
        (42, "JSON array or object"),
        ({"no_events": []}, "traceEvents"),
        ({"traceEvents": [{"ph": "X"}]}, "lacks 'name'"),
        ({"traceEvents": [{"name": "a", "ph": "?", "ts": 0, "pid": 1,
                           "tid": 0}]}, "unknown phase"),
        ({"traceEvents": [{"name": "a", "ph": "X", "ts": 0, "pid": 1,
                           "tid": 0}]}, "lacks numeric 'dur'"),
    ])
    def test_validator_rejects_malformed(self, doc, msg):
        with pytest.raises(ValueError, match=msg):
            trace.validate_chrome_trace(doc)


class TestDispatchInstrumentation:
    def _generic(self):
        from repro.concepts import (
            Concept, GenericFunction, ModelRegistry, Param, method,
        )

        T = Param("T")
        reg = ModelRegistry(label="trace-test")
        Quackable = Concept(
            "TrQuackable", requirements=[method("t.quack()", "quack", [T])]
        )
        f = GenericFunction("tr_probe", registry=reg)

        @f.overload(requires=[(Quackable, 0)])
        def impl(x):
            return x.quack()

        class Duck:
            def quack(self):
                return "quack"

        return f, Duck

    def test_miss_and_compile_spans(self):
        f, Duck = self._generic()
        t = trace.enable(trace.Tracer())
        d = Duck()
        f(d)  # cold call: table compile + one miss
        f(d)  # warm call: no new records
        trace.disable()
        compiles = spans(t, "dispatch.compile")
        misses = spans(t, "dispatch.miss")
        assert len(compiles) == 1 and len(misses) == 1
        assert compiles[0]["attrs"]["function"] == "tr_probe"
        assert misses[0]["attrs"]["chosen"] == "impl"
        assert misses[0]["attrs"]["args"] == ["Duck"]
        n_after_warm = len(t.records)
        f(d)
        assert len(t.records) == n_after_warm  # hits add zero records

    def test_failed_resolution_span_carries_error(self):
        from repro.concepts import NoMatchingOverloadError

        f, Duck = self._generic()
        t = trace.enable(trace.Tracer())
        with pytest.raises(NoMatchingOverloadError):
            f(3)
        trace.disable()
        (miss,) = spans(t, "dispatch.miss")
        assert miss["attrs"]["error"] == "NoMatchingOverloadError"


class TestRewriterInstrumentation:
    def test_pass_spans_and_rule_events(self):
        from repro.simplicissimus import BinOp, Const, Simplifier, Var

        t = trace.enable(trace.Tracer())
        try:
            expr = BinOp("+", BinOp("+", Var("x"), Const(0)), Const(0))
            res = Simplifier().simplify(expr, tenv={"x": int})
        finally:
            trace.disable()
        assert res.converged
        (top,) = spans(t, "rewrite.simplify")
        assert top["attrs"]["converged"] is True
        assert top["attrs"]["rewrites"] == len(res.applications) == 2
        assert len(spans(t, "rewrite.pass")) == res.passes
        rules = events(t, "rewrite.rule")
        assert len(rules) == 2
        assert all(ev["attrs"]["rule"] == "right-identity" for ev in rules)

    def test_global_tracer_is_picked_up(self):
        from repro.simplicissimus import BinOp, Const, Var, simplify

        t = trace.enable(trace.Tracer())
        simplify(BinOp("+", Var("x"), Const(0)), tenv={"x": int})
        trace.disable()
        assert spans(t, "rewrite.simplify")


class TestSimulatorInstrumentation:
    def test_delivery_and_round_events(self):
        from repro.distributed import Complete, Process, Simulator

        class Ping(Process):
            def on_start(self, ctx):
                ctx.send(1 - self.rank, "ping")

        t = trace.enable(trace.Tracer())
        try:
            m = Simulator(Complete(2), [Ping(0), Ping(1)]).run()
        finally:
            trace.disable()
        (run_span,) = spans(t, "sim.run")
        assert run_span["attrs"]["truncated"] is False
        assert len(events(t, "sim.deliver")) == m.messages_delivered == 2
        assert len(events(t, "sim.round")) == m.rounds >= 1

    def test_drop_and_truncation_events(self):
        from repro.distributed import Complete, FailurePlan, Process, Simulator

        class Ping(Process):
            def on_start(self, ctx):
                ctx.send(1 - self.rank, "ping")

        t = trace.enable(trace.Tracer())
        try:
            plan = FailurePlan(dead_links={(0, 1)})
            m = Simulator(Complete(2), [Ping(0), Ping(1)],
                          failures=plan).run()
        finally:
            trace.disable()
        assert len(events(t, "sim.drop")) == m.messages_dropped == 2
        assert not events(t, "sim.deliver")

        class Flood(Process):
            def on_start(self, ctx):
                ctx.send(1 - self.rank, "go")

            def on_message(self, ctx, msg):
                ctx.send(msg.src, "go")

        t2 = trace.enable(trace.Tracer())
        try:
            m2 = Simulator(Complete(2), [Flood(0), Flood(1)],
                           max_messages=50, on_limit="truncate").run()
        finally:
            trace.disable()
        assert m2.truncated
        (trunc,) = events(t2, "sim.truncated")
        assert "message budget" in trunc["attrs"]["reason"]
        (run_span,) = spans(t2, "sim.run")
        assert run_span["attrs"]["truncated"] is True


class TestStatsReport:
    """``REPRO_STATS=1`` prints every registered counter group's report
    at interpreter exit, once."""

    def _lint_stderr(self, **extra_env):
        env = dict(os.environ,
                   PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        env.pop("REPRO_STATS", None)
        env.update(extra_env)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "lint",
             "--no-cache", os.path.join(EXAMPLES, "lint_demo.py"),
             "--fail-on", "never"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stderr

    def test_switch_prints_each_group_once(self):
        err = self._lint_stderr(REPRO_STATS="1")
        assert err.count("== repro.runtime dispatch stats ==") == 1
        assert err.count("== repro.stllint fixpoint stats ==") == 1

    def test_unset_prints_nothing(self):
        err = self._lint_stderr()
        assert "== repro.runtime dispatch stats ==" not in err
        assert "== repro.stllint fixpoint stats ==" not in err


class TestLintTraceCLI:
    def test_trace_flag_writes_valid_chrome_trace(self, tmp_path):
        from repro.analysis.cli import main

        out = tmp_path / "lint_trace.json"
        code = main(["lint", "--no-cache",
                     os.path.join(EXAMPLES, "lint_demo.py"),
                     "--trace", str(out), "--fail-on", "never"])
        trace.disable()  # the flag enables the global tracer
        assert code == 0
        evs = trace.validate_chrome_trace(json.loads(out.read_text()))
        names = {e["name"] for e in evs}
        assert {"analysis.lint", "lint.file", "lint.function",
                "lint.concept-pass", "lint.finding"} <= names
        fn_spans = [e for e in evs
                    if e["name"] == "lint.function" and e["ph"] == "X"]
        assert {s["args"]["function"] for s in fn_spans} == {
            "extract_fails", "drop_front_twice", "peek_sentinel",
        }
        # The default engine runs each function to a fixpoint and the
        # interprocedural demo exercises the summary choke point; the
        # process-wide fixpoint counters are folded in at export.
        assert "stllint.fixpoint" in names
        assert "stllint.summary" in names
        counters = {e["name"] for e in evs if e["ph"] == "C"}
        assert "stllint.summaries" in counters

    @pytest.mark.parametrize("command,demo", [
        ("lint", "lint_demo.py"), ("optimize", "optimize_demo.py"),
    ])
    def test_analysis_cli_trace_flag_names_its_span(self, tmp_path, command,
                                                    demo):
        from repro.analysis.cli import main

        out = tmp_path / "trace.json"
        main([command, "--no-cache", os.path.join(EXAMPLES, demo),
              "--trace", str(out)])
        trace.disable()  # the flag enables the global tracer
        evs = trace.validate_chrome_trace(json.loads(out.read_text()))
        (run,) = [e for e in evs if e["name"] == f"analysis.{command}"]
        assert run["args"]["paths"] == [os.path.join(EXAMPLES, demo)]

    def test_env_activation_subprocess(self, tmp_path):
        """REPRO_TRACE=1 python -m repro.analysis lint --no-cache
        examples/lint_demo.py --trace out.json."""
        out = tmp_path / "out.json"
        env = dict(os.environ, REPRO_TRACE="1",
                   PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "lint",
             "--no-cache", os.path.join(EXAMPLES, "lint_demo.py"),
             "--trace", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1  # planted findings fail the lint run
        assert out.exists(), proc.stderr
        evs = trace.validate_chrome_trace(json.loads(out.read_text()))
        assert any(e["name"] == "lint.file" for e in evs)

    def test_env_out_exports_at_exit(self, tmp_path):
        out = tmp_path / "atexit.json"
        env = dict(os.environ, REPRO_TRACE="1", REPRO_TRACE_OUT=str(out),
                   PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        code = (
            "from repro.simplicissimus import BinOp, Const, Var, simplify;"
            "simplify(BinOp('+', Var('x'), Const(0)), tenv={'x': int})"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        evs = trace.validate_chrome_trace(json.loads(out.read_text()))
        assert any(e["name"] == "rewrite.simplify" for e in evs)
