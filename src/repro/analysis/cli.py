"""Command-line entry point: ``python -m repro.analysis <command>``.

One binary over the unified session:

- ``lint`` / ``optimize`` — the batch tools, but incremental: unchanged
  files are served from the on-disk cache (disable with ``--no-cache``);
- ``serve`` — line-delimited JSON daemon on stdin/stdout;
- ``watch`` — poll a path set, re-linting only what changed;
- ``stats`` — session/cache configuration and counters;
- ``invalidate`` — drop cache entries (for given paths, or all).

Exit codes follow the shared 0/1/2/3 contract (see ``--help``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .args import (
    EXIT_CODES_EPILOG,
    EXIT_USAGE,
    common_parser,
    lint_exit_code,
    optimize_exit_code,
    session_from_args,
    traced,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Incremental analysis service: cached, parallel lint "
                    "and optimize behind one session, as a CLI or daemon.",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    parent = common_parser(cache_default=True)

    p_lint = sub.add_parser(
        "lint", parents=[parent],
        help="lint paths (cache-accelerated)",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_lint.add_argument("paths", nargs="+",
                        help="files or directories to lint")
    p_lint.add_argument(
        "--fail-on",
        choices=("error", "warning", "suggestion", "note", "never"),
        default="warning",
        help="least severe finding that fails the run (default: warning)",
    )

    p_opt = sub.add_parser(
        "optimize", parents=[parent],
        help="report/apply rewrites (cache-accelerated)",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_opt.add_argument("paths", nargs="+",
                       help="files or directories to optimize")
    mode = p_opt.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="exit 1 if any rewrite is outstanding")
    mode.add_argument("--write", action="store_true",
                      help="apply verified rewrites in place")

    p_serve = sub.add_parser(
        "serve", parents=[parent],
        help="line-delimited JSON daemon on stdin/stdout",
    )
    del p_serve  # only the shared options

    p_watch = sub.add_parser(
        "watch", parents=[parent],
        help="poll paths, re-linting what changed",
    )
    p_watch.add_argument("paths", nargs="+",
                         help="files or directories to watch")
    p_watch.add_argument("--interval-s", type=float, default=1.0,
                         metavar="SECONDS", help="poll period (default: 1)")
    p_watch.add_argument("--max-cycles", type=int, default=None, metavar="N",
                         help="stop after N cycles (default: run forever)")

    sub.add_parser("stats", parents=[parent],
                   help="print session/cache configuration and counters")

    p_inv = sub.add_parser("invalidate", parents=[parent],
                           help="drop cache entries")
    p_inv.add_argument("paths", nargs="*",
                       help="paths whose entries to drop (none = all)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: no command given", file=sys.stderr)
        return EXIT_USAGE

    session = session_from_args(
        args, **({"fail_on": args.fail_on}
                 if getattr(args, "fail_on", None) else {}))
    batch = args.command in ("lint", "optimize")
    with traced(args, f"analysis.{args.command}" if batch else None,
                "analysis"):
        rc = _run(args, session)
    return rc


def _run(args: argparse.Namespace, session) -> int:
    if args.command == "lint":
        report = session.lint_paths(args.paths)
        rc = lint_exit_code(report, args.fail_on)
        print(report.to_json() if args.json else report.render_text())
    elif args.command == "optimize":
        results = session.optimize_paths(args.paths, write=args.write)
        rc = optimize_exit_code(results, check=args.check, write=args.write)
        if args.json:
            from .schema import SCHEMA_VERSION

            print(json.dumps({
                "version": 1,
                "schema_version": SCHEMA_VERSION,
                "files": [r.to_dict() for r in results],
            }, indent=2))
        else:
            for r in results:
                print(r.render())
    elif args.command == "serve":
        from .service import AnalysisService

        rc = AnalysisService(session).serve()
    elif args.command == "watch":
        from .service import watch

        rc = watch(session, args.paths, interval_s=args.interval_s,
                   max_cycles=args.max_cycles)
    elif args.command == "stats":
        print(json.dumps(session.stats(), indent=2, sort_keys=True))
        rc = 0
    elif args.command == "invalidate":
        count = session.invalidate(args.paths or None)
        print(json.dumps({"invalidated": count}))
        rc = 0
    else:  # pragma: no cover - argparse rejects unknown commands
        return EXIT_USAGE
    return rc


if __name__ == "__main__":
    sys.exit(main())
