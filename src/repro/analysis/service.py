"""The analysis daemon: a line-delimited JSON protocol over a session.

``python -m repro.analysis serve`` reads one JSON request per line on
stdin and writes one JSON response per line on stdout.  The protocol is
deliberately tiny — it is the :class:`~repro.analysis.session
.AnalysisSession` surface, verb for verb:

    {"op": "ping"}
    {"op": "lint", "paths": ["src"], "fail_on": "warning"}
    {"op": "optimize", "paths": ["src"], "check": true}
    {"op": "stats"}
    {"op": "invalidate", "paths": ["src/mod.py"]}   # omit paths: drop all
    {"op": "shutdown"}

Every response carries ``ok`` plus ``exit_code`` with the same 0/1/2/3
meaning the command line uses (see :data:`repro.analysis.cli
.EXIT_CODES_EPILOG`), so a client can treat the daemon as a warm,
long-lived stand-in for ``python -m repro.analysis lint`` / ``optimize``.
A malformed line never kills the daemon: it yields an ``ok: false``
response with ``exit_code: 2`` and the loop continues.

``watch`` re-runs lint over a path set on a polling cadence; thanks to
the content-hash cache each cycle re-analyzes only what changed.
"""

from __future__ import annotations

import json
import sys
import time
from typing import IO, Optional, Sequence

from .cli import EXIT_USAGE, lint_exit_code, optimize_exit_code
from .session import AnalysisSession


class AnalysisService:
    """Dispatches protocol requests against one shared session."""

    def __init__(self, session: AnalysisSession) -> None:
        self.session = session
        self.running = True

    # -- request handlers ----------------------------------------------------

    def handle(self, request: object) -> dict:
        """Handle one decoded request; never raises."""
        if not isinstance(request, dict):
            return self._error("request is not a JSON object")
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(
            op, str) and not op.startswith("_") else None
        if handler is None:
            return self._error(f"unknown op {op!r}")
        try:
            response = handler(request)
        except Exception as exc:  # noqa: BLE001 - daemon must survive
            return self._error(f"{type(exc).__name__}: {exc}")
        response.setdefault("ok", True)
        response.setdefault("exit_code", 0)
        response["op"] = op
        return response

    @staticmethod
    def _error(message: str) -> dict:
        return {"ok": False, "error": message, "exit_code": EXIT_USAGE}

    @staticmethod
    def _paths(request: dict) -> Optional[list]:
        paths = request.get("paths")
        if not isinstance(paths, list) or not paths \
                or not all(isinstance(p, str) for p in paths):
            return None
        return paths

    def _op_ping(self, request: dict) -> dict:
        return {"pong": True}

    def _op_lint(self, request: dict) -> dict:
        paths = self._paths(request)
        if paths is None:
            return self._error("lint needs a non-empty 'paths' list")
        fail_on = request.get("fail_on", self.session.config.fail_on)
        before = dict(self.session.counters)
        report = self.session.lint_paths(paths)
        return {
            "exit_code": lint_exit_code(report, fail_on),
            "report": report.to_dict(),
            **_lint_counts(before, self.session.counters),
        }

    def _op_optimize(self, request: dict) -> dict:
        paths = self._paths(request)
        if paths is None:
            return self._error("optimize needs a non-empty 'paths' list")
        write = bool(request.get("write", False))
        check = bool(request.get("check", not write))
        if write and request.get("check"):
            return self._error("'check' and 'write' are mutually exclusive")
        results = self.session.optimize_paths(paths, write=write)
        return {
            "exit_code": optimize_exit_code(results, check=check,
                                            write=write),
            "files": [r.to_dict() for r in results],
        }

    def _op_stats(self, request: dict) -> dict:
        return {"stats": self.session.stats()}

    def _op_invalidate(self, request: dict) -> dict:
        paths = request.get("paths")
        if paths is not None and self._paths(request) is None:
            return self._error("'paths' must be a non-empty string list "
                               "(omit it to drop every entry)")
        return {"invalidated": self.session.invalidate(paths)}

    def _op_shutdown(self, request: dict) -> dict:
        self.running = False
        return {"stopping": True}

    # -- the loop ------------------------------------------------------------

    def serve(self, in_stream: Optional[IO[str]] = None,
              out_stream: Optional[IO[str]] = None) -> int:
        """Read requests line by line until EOF or ``shutdown``."""
        in_stream = in_stream if in_stream is not None else sys.stdin
        out_stream = out_stream if out_stream is not None else sys.stdout
        for line in in_stream:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                response = self._error(f"bad JSON: {exc}")
            else:
                response = self.handle(request)
            out_stream.write(json.dumps(response, sort_keys=True) + "\n")
            out_stream.flush()
            if not self.running:
                break
        return 0


def _lint_counts(before: dict, after: dict) -> dict:
    """What one lint pass did: files analyzed or served from the cache,
    and import lists parsed or served from the import store."""
    return {
        "analyzed": after["lint_analyzed"] - before["lint_analyzed"],
        "from_cache": after["lint_from_cache"] - before["lint_from_cache"],
        "imports_scanned":
            after["imports_scanned"] - before["imports_scanned"],
        "imports_from_cache":
            after["imports_from_cache"] - before["imports_from_cache"],
    }


def watch(
    session: AnalysisSession,
    paths: Sequence[str],
    interval_s: float = 1.0,
    max_cycles: Optional[int] = None,
    out_stream: Optional[IO[str]] = None,
    sleep=time.sleep,
) -> int:
    """Poll ``paths``, re-linting on a cadence; the cache makes each
    cycle proportional to what changed, not to the tree size.

    Emits one JSON line per cycle.  ``max_cycles`` bounds the loop (for
    tests and CI smoke jobs); ``None`` runs until interrupted.
    """
    out_stream = out_stream if out_stream is not None else sys.stdout
    fail_on = session.config.fail_on
    cycle = 0
    exit_code = 0
    while max_cycles is None or cycle < max_cycles:
        if cycle:
            sleep(interval_s)
        before = dict(session.counters)
        report = session.lint_paths(paths)
        exit_code = lint_exit_code(report, fail_on)
        out_stream.write(json.dumps({
            "cycle": cycle,
            "exit_code": exit_code,
            "findings": len(report.findings),
            **_lint_counts(before, session.counters),
        }, sort_keys=True) + "\n")
        out_stream.flush()
        cycle += 1
    return exit_code
