"""Command-line entry point: ``python -m repro.lint <paths>``.

A thin batch view over :class:`repro.analysis.AnalysisSession`; shares
the common flag set and the 0/1/2/3 exit-code contract with
``repro.optimize`` and ``repro.analysis`` (see ``--help``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.args import (
    EXIT_CODES_EPILOG,
    EXIT_USAGE,
    common_parser,
    lint_exit_code,
    session_from_args,
    traced,
)

from .suppressions import all_check_codes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "ConceptLint: whole-program STLlint driver — symbolic "
            "iterator/invalidation checking, library pre/postconditions, "
            "and @where concept-conformance checking over Python sources."
        ),
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[common_parser(cache_default=False)],
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text; --json is equivalent "
             "to --format json)",
    )
    parser.add_argument(
        "--fail-on", choices=("error", "warning", "suggestion", "note",
                              "never"),
        default="warning",
        help="least severe finding that fails the run (default: warning)",
    )
    parser.add_argument(
        "--no-concept-pass", action="store_true",
        help="skip @where call-site conformance checking",
    )
    parser.add_argument(
        "--no-interprocedural", action="store_true",
        help="do not analyze same-module calls",
    )
    parser.add_argument(
        "--exclude", action="append", default=[], metavar="GLOB",
        help="glob pattern of paths to skip (repeatable)",
    )
    parser.add_argument(
        "--list-checks", action="store_true",
        help="print every check code usable in "
             "'# stllint: ignore[<check>]' and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_checks:
        for code in all_check_codes():
            print(code)
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given", file=sys.stderr)
        return EXIT_USAGE
    session = session_from_args(
        args,
        fail_on=args.fail_on,
        concept_pass=not args.no_concept_pass,
        interprocedural=not args.no_interprocedural,
        exclude=tuple(args.exclude),
    )
    with traced(args, "lint.run", "lint"):
        report = session.lint_paths(args.paths)
    if args.json or args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return lint_exit_code(report, args.fail_on)


if __name__ == "__main__":
    sys.exit(main())
