"""Command-line entry point: ``python -m repro.analysis <command>``.

The one command line over the unified session:

- ``lint`` — STLlint over files and directories (Section 3.1);
- ``optimize`` — the Section 3.2 optimizer: report rewrites (``--diff``
  to show them), gate on them (``--check``) or apply them (``--write``);
- ``serve`` — line-delimited JSON daemon on stdin/stdout;
- ``watch`` — poll a path set, re-linting only what changed;
- ``stats`` — session/cache configuration and counters;
- ``invalidate`` — drop cache entries (for given paths, or all).

Every command builds one :class:`~repro.analysis.session.AnalysisSession`
from its flags.  Unchanged files are served from the on-disk result
cache unless ``--no-cache`` is given; results are identical either way.
The 0/1/2/3 exit-code contract (:data:`EXIT_CODES_EPILOG`) is shared
with the daemon (:mod:`repro.analysis.service`).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import pathlib
import sys
from typing import Iterator, Optional, Sequence

from repro.lint.suppressions import all_check_codes

from .config import DEFAULT_RESOURCE, DEFAULT_SIZE, AnalysisConfig
from .session import AnalysisSession

#: The exit-code contract of every command and of the daemon.
EXIT_OK = 0        # clean: nothing at/above threshold, nothing outstanding
EXIT_FINDINGS = 1  # findings/outstanding rewrites/reverted files
EXIT_USAGE = 2     # bad arguments
EXIT_PARTIAL = 3   # run finished but some per-file analysis was cut short

EXIT_CODES_EPILOG = """\
exit codes (shared by every command and the serve daemon):
  0  clean — no finding at/above the threshold, nothing outstanding
  1  findings — a finding reached --fail-on, --check found outstanding
     rewrites, or a failed verification reverted a file
  2  usage error — bad arguments or no paths given
  3  partial results — crash isolation or a --timeout-s deadline turned
     part of the analysis into *-INTERNAL / *-TIMEOUT findings; the
     reported findings are valid but incomplete (and are never cached)
"""


def lint_exit_code(report, fail_on: str) -> int:
    """0/1/3 for a :class:`~repro.lint.driver.ProjectReport`."""
    if report.partial:
        return EXIT_PARTIAL
    return EXIT_FINDINGS if report.fails(fail_on) else EXIT_OK


def optimize_exit_code(results, check: bool = False,
                       write: bool = False) -> int:
    """0/1/3 for a list of optimizer results."""
    from repro.optimize.pipeline import OPT_INTERNAL, OPT_TIMEOUT

    partial = any(
        f.check in (OPT_INTERNAL, OPT_TIMEOUT)
        for r in results for f in r.findings
    )
    if partial:
        return EXIT_PARTIAL
    if any(r.reverted for r in results):
        return EXIT_FINDINGS
    outstanding = sum(
        len(r.plans) for r in results if not (write and r.verified)
    )
    if check and outstanding:
        return EXIT_FINDINGS
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="STLlint and the source-to-source optimizer over one "
                    "cached, parallel analysis session, as a CLI or "
                    "daemon.",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_lint = sub.add_parser(
        "lint",
        help="lint paths: iterator/invalidation checking, library "
             "pre/postconditions and @where concept conformance",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_common_options(p_lint, analyzes=True, reports=True)
    p_lint.add_argument("paths", nargs="*",
                        help="files or directories to lint")
    _add_fail_on(p_lint)
    p_lint.add_argument(
        "--no-concept-pass", dest="concept_pass", action="store_false",
        help="skip @where call-site conformance checking",
    )
    p_lint.add_argument(
        "--no-interprocedural", dest="interprocedural",
        action="store_false", help="do not analyze same-module calls",
    )
    p_lint.add_argument(
        "--exclude", action="append", default=[], metavar="GLOB",
        help="glob pattern of paths to skip (repeatable)",
    )
    p_lint.add_argument(
        "--list-checks", action="store_true",
        help="print every check code usable in "
             "'# stllint: ignore[<check>]' and exit",
    )

    p_opt = sub.add_parser(
        "optimize",
        help="report, check or apply verified algorithm rewrites",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_common_options(p_opt, analyzes=True, reports=True)
    p_opt.add_argument("paths", nargs="*",
                       help="files or directories to optimize")
    p_opt.add_argument("--check", action="store_true",
                       help="report only; exit 1 if any rewrite is "
                            "outstanding")
    p_opt.add_argument("--write", action="store_true",
                       help="apply verified rewrites to the files in place")
    p_opt.add_argument("--diff", action="store_true",
                       help="print a unified diff for each changed file")
    p_opt.add_argument(
        "--resource", default=DEFAULT_RESOURCE,
        help="complexity resource driving selection "
             f"(default: {DEFAULT_RESOURCE})",
    )
    p_opt.add_argument(
        "--size", type=float, default=DEFAULT_SIZE,
        help="size n at which estimated savings are priced "
             f"(default: {DEFAULT_SIZE:g})",
    )

    p_serve = sub.add_parser(
        "serve", help="line-delimited JSON daemon on stdin/stdout")
    _add_common_options(p_serve, analyzes=True)

    p_watch = sub.add_parser(
        "watch", help="poll paths, re-linting what changed")
    _add_common_options(p_watch, analyzes=True)
    p_watch.add_argument("paths", nargs="+",
                         help="files or directories to watch")
    p_watch.add_argument("--interval-s", type=float, default=1.0,
                         metavar="SECONDS", help="poll period (default: 1)")
    p_watch.add_argument("--max-cycles", type=int, default=None, metavar="N",
                         help="stop after N cycles (default: run forever)")
    _add_fail_on(p_watch)

    p_stats = sub.add_parser(
        "stats", help="print session/cache configuration and counters "
                      "as JSON")
    _add_common_options(p_stats)

    p_inv = sub.add_parser("invalidate", help="drop cache entries")
    _add_common_options(p_inv)
    p_inv.add_argument("paths", nargs="*",
                       help="paths whose entries to drop (none = all)")
    return parser


def _add_fail_on(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fail-on",
        choices=("error", "warning", "suggestion", "note", "never"),
        default="warning",
        help="least severe finding that fails the run (default: warning)",
    )


def _add_common_options(parser: argparse.ArgumentParser, *,
                        analyzes: bool = False,
                        reports: bool = False) -> None:
    """The shared options a command reads.  Every command reads the cache
    (``stats`` reports it, ``invalidate`` drops from it); commands that
    analyze files (``analyzes``) take the analysis knobs and may turn the
    cache off; ``lint`` and ``optimize`` (``reports``) also print JSON.
    The dests are AnalysisConfig field names."""
    g = parser.add_argument_group("common analysis options")
    if analyzes:
        g.add_argument(
            "--timeout-s", type=float, default=None, metavar="SECONDS",
            help="per-file analysis deadline; on expiry the file gets a "
                 "*-TIMEOUT finding and the run continues (exit code 3)",
        )
        g.add_argument(
            "--trace", type=pathlib.Path, default=None, metavar="OUT.json",
            help="record analysis spans and write a Chrome trace-event "
                 "JSON (load via chrome://tracing)",
        )
        g.add_argument(
            "--jobs", "-j", type=int, default=1, metavar="N",
            help="worker processes for files the cache cannot serve "
                 "(0 = all cores); output is bit-identical to --jobs 1",
        )
    if reports:
        g.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON on stdout")
    if analyzes:
        g.add_argument(
            "--no-cache", dest="cache", action="store_false",
            help="disable the on-disk result cache (default: enabled)",
        )
    else:
        parser.set_defaults(cache=True)
    g.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache location (default: $REPRO_ANALYSIS_CACHE, else "
             "$XDG_CACHE_HOME/repro-analysis)",
    )


def _usage_error(parser: argparse.ArgumentParser, message: str) -> int:
    parser.print_usage(sys.stderr)
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        return _usage_error(parser, "no command given")
    if args.command == "lint" and args.list_checks:
        for code in all_check_codes():
            print(code)
        return EXIT_OK
    if args.command == "optimize" and args.check and args.write:
        return _usage_error(parser,
                            "--check and --write are mutually exclusive")
    if args.command in ("lint", "optimize") and not args.paths:
        return _usage_error(parser, "no paths given")

    config = {f.name: getattr(args, f.name)
              for f in dataclasses.fields(AnalysisConfig)
              if hasattr(args, f.name)}
    if "exclude" in config:
        config["exclude"] = tuple(config["exclude"])
    session = AnalysisSession(AnalysisConfig(**config))
    batch = args.command in ("lint", "optimize")
    with _traced(args, f"analysis.{args.command}" if batch else None):
        return _run(args, session)


@contextlib.contextmanager
def _traced(args: argparse.Namespace, span: Optional[str]) -> Iterator[None]:
    """``--trace OUT.json`` enables the global tracer and writes a Chrome
    trace once the body finishes; while any tracer is active the body
    runs inside a ``span`` span (none when ``span`` is None) over
    ``args.paths``.  A tracer that ``--trace`` installed is uninstalled
    on the way out, so later calls in the same process are not traced;
    one that was active before the call stays active."""
    from repro import trace

    out = getattr(args, "trace", None)
    prior = trace.active()
    tracer = trace.enable() if out is not None else prior
    try:
        if tracer is None or span is None:
            yield
        else:
            with tracer.span(span, cat="analysis",
                             paths=[str(p) for p in args.paths]):
                yield
        if out is not None:
            trace.export_chrome(tracer, out)
            print(f"trace written to {out}", file=sys.stderr)
    finally:
        if out is not None and prior is None:
            trace.disable()


def _run(args: argparse.Namespace, session: AnalysisSession) -> int:
    if args.command == "lint":
        report = session.lint_paths(args.paths)
        print(report.to_json() if args.json else report.render_text())
        return lint_exit_code(report, args.fail_on)
    if args.command == "optimize":
        results = session.optimize_paths(args.paths, write=args.write)
        _print_optimize(args, results)
        return optimize_exit_code(results, check=args.check,
                                  write=args.write)
    if args.command == "serve":
        from .service import AnalysisService

        return AnalysisService(session).serve()
    if args.command == "watch":
        from .service import watch

        return watch(session, args.paths, interval_s=args.interval_s,
                     max_cycles=args.max_cycles)
    if args.command == "stats":
        print(json.dumps(session.stats(), indent=2, sort_keys=True))
    elif args.command == "invalidate":
        count = session.invalidate(args.paths or None)
        print(json.dumps({"invalidated": count}))
    return EXIT_OK


def _print_optimize(args: argparse.Namespace, results: list) -> None:
    reverted = sum(1 for r in results if r.reverted)
    if args.json:
        from .schema import SCHEMA_VERSION

        print(json.dumps({
            "version": 1,               # legacy key, frozen forever
            "schema_version": SCHEMA_VERSION,
            "files": [r.to_dict() for r in results],
            "summary": {
                "files": len(results),
                "rewrites": sum(len(r.plans) for r in results),
                "reverted": reverted,
                "written": sum(
                    1 for r in results
                    if args.write and r.changed and r.verified
                ),
            },
        }, indent=2))
        return
    for r in results:
        print(r.render())
        if args.diff and r.changed:
            sys.stdout.write(r.diff())
    total = sum(len(r.plans) for r in results)
    action = "applied" if args.write else "available"
    print(f"{total} rewrite(s) {action} across {len(results)} file(s)"
          + (f", {reverted} reverted" if reverted else ""))


if __name__ == "__main__":
    sys.exit(main())
