"""Command-line entry point: ``python -m repro.optimize <paths>``.

Modes:

- default: report the rewrites that would be applied (with diffs via
  ``--diff``), leaving files untouched;
- ``--write``: apply verified rewrites in place;
- ``--check``: CI mode — exit 1 if any file has outstanding rewrites
  (so a tree that should already be optimal gates the build).

A thin batch view over :class:`repro.analysis.AnalysisSession`; shares
the common flag set and the 0/1/2/3 exit-code contract with
``repro.lint`` and ``repro.analysis`` (see ``--help``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.analysis.args import (
    EXIT_CODES_EPILOG,
    EXIT_USAGE,
    common_parser,
    optimize_exit_code,
    session_from_args,
    traced,
)

from .pipeline import DEFAULT_RESOURCE, DEFAULT_SIZE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.optimize",
        description=(
            "Source-to-source optimizer: collects STLlint facts, selects "
            "asymptotically better algorithms from the sequence taxonomy, "
            "rewrites call sites, and verifies the result by re-linting."
        ),
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[common_parser(cache_default=False)],
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to optimize",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="report only; exit 1 if any rewrite is outstanding",
    )
    parser.add_argument(
        "--write", action="store_true",
        help="apply verified rewrites to the files in place",
    )
    parser.add_argument(
        "--diff", action="store_true",
        help="print a unified diff for each changed file",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text; --json is equivalent "
             "to --format json)",
    )
    parser.add_argument(
        "--resource", default=DEFAULT_RESOURCE,
        help="complexity resource driving selection "
             f"(default: {DEFAULT_RESOURCE})",
    )
    parser.add_argument(
        "--size", type=float, default=DEFAULT_SIZE,
        help="size n at which estimated savings are priced "
             f"(default: {DEFAULT_SIZE:g})",
    )
    parser.add_argument(
        "--monomorphize", action="store_true",
        help="also run the OPT-MONO pass: rewrite generic call sites "
             "whose container kind is the same on every path to their "
             "specialized direct-call spellings (e.g. sort -> "
             "sort__vector)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.check and args.write:
        parser.print_usage(sys.stderr)
        print("error: --check and --write are mutually exclusive",
              file=sys.stderr)
        return EXIT_USAGE
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given", file=sys.stderr)
        return EXIT_USAGE

    session = session_from_args(
        args, resource=args.resource, size=args.size,
        monomorphize=args.monomorphize,
    )
    with traced(args, "optimize.run", "optimize"):
        results = session.optimize_paths(args.paths, write=args.write)

    reverted = sum(1 for r in results if r.reverted)
    if args.json or args.format == "json":
        from repro.analysis.schema import SCHEMA_VERSION

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
    else:
        for r in results:
            print(r.render())
            if args.diff and r.changed:
                sys.stdout.write(r.diff())
        total = sum(len(r.plans) for r in results)
        action = "applied" if args.write else "available"
        print(f"{total} rewrite(s) {action} across {len(results)} file(s)"
              + (f", {reverted} reverted" if reverted else ""))

    return optimize_exit_code(results, check=args.check, write=args.write)


if __name__ == "__main__":
    sys.exit(main())
