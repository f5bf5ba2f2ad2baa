"""Shared CLI vocabulary for ``repro.lint``, ``repro.optimize``, and
``repro.analysis``.

The three command-line tools are views over the same
:class:`~repro.analysis.session.AnalysisSession`, so the flags they
share — ``--timeout-s``, ``--trace``, ``--jobs``, ``--json``, and
the cache switches — are defined once here as an
argparse *parent* parser, the ``--trace`` steps are :func:`traced`, and
the exit-code contract is documented once as :data:`EXIT_CODES_EPILOG`.

This module imports only the standard library at module level (the
``repro.analysis`` package is still initializing when the legacy CLIs
import it), so config construction and the exit-code helpers resolve
their ``repro`` dependencies lazily.
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import sys
from typing import Iterator, Optional

#: The exit-code contract every analysis CLI follows.
EXIT_OK = 0        # clean: nothing at/above threshold, nothing outstanding
EXIT_FINDINGS = 1  # findings/outstanding rewrites/reverted files
EXIT_USAGE = 2     # bad arguments
EXIT_PARTIAL = 3   # run finished but some per-file analysis was cut short

EXIT_CODES_EPILOG = """\
exit codes (shared by repro.lint, repro.optimize, repro.analysis):
  0  clean — no finding at/above the threshold, nothing outstanding
  1  findings — a finding reached --fail-on, --check found outstanding
     rewrites, or a failed verification reverted a file
  2  usage error — bad arguments or no paths given
  3  partial results — crash isolation or a --timeout-s deadline turned
     part of the analysis into *-INTERNAL / *-TIMEOUT findings; the
     reported findings are valid but incomplete (and are never cached)
"""


def common_parser(cache_default: bool = False) -> argparse.ArgumentParser:
    """The shared parent parser.

    ``cache_default`` picks the polarity of the cache switch: the legacy
    CLIs default off (``--cache`` opts in, byte-identical to the
    pre-service behaviour), the analysis service defaults on
    (``--no-cache`` opts out).
    """
    parent = argparse.ArgumentParser(add_help=False)
    g = parent.add_argument_group("common analysis options")
    g.add_argument(
        "--timeout-s", type=float, default=None, metavar="SECONDS",
        help="per-file analysis deadline; on expiry the file gets a "
             "*-TIMEOUT finding and the run continues (exit code 3)",
    )
    g.add_argument(
        "--trace", type=pathlib.Path, default=None, metavar="OUT.json",
        help="record analysis spans and write a Chrome trace-event JSON "
             "(load via chrome://tracing)",
    )
    g.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes for files the cache cannot serve "
             "(0 = all cores); output is bit-identical to --jobs 1",
    )
    g.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON on stdout (same as "
             "--format json where --format exists)",
    )
    if cache_default:
        g.add_argument(
            "--no-cache", dest="cache", action="store_false",
            help="disable the on-disk result cache (default: enabled)",
        )
    else:
        g.add_argument(
            "--cache", action="store_true",
            help="serve unchanged files from the on-disk result cache "
                 "(default: disabled; identical results either way)",
        )
    g.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache location (default: $REPRO_ANALYSIS_CACHE, else "
             "$XDG_CACHE_HOME/repro-analysis)",
    )
    parent.set_defaults(cache=cache_default)
    return parent


def session_from_args(args: argparse.Namespace, **overrides):
    """Build an :class:`~repro.analysis.session.AnalysisSession` from a
    namespace produced by a :func:`common_parser`-derived parser."""
    from repro.analysis import AnalysisConfig, AnalysisSession

    fields = dict(
        timeout_s=args.timeout_s,
        jobs=args.jobs,
        cache=args.cache,
        cache_dir=args.cache_dir,
    )
    fields.update(overrides)
    return AnalysisSession(AnalysisConfig(**fields))


@contextlib.contextmanager
def traced(args: argparse.Namespace, span: Optional[str],
           cat: str) -> Iterator[None]:
    """The ``--trace`` contract every CLI shares: ``--trace OUT.json``
    enables the global tracer and writes a Chrome trace once the body
    finishes; while any tracer is active the body runs inside a ``span``
    span (none when ``span`` is None) over ``args.paths``."""
    from repro import trace

    tracer = trace.enable() if args.trace is not None else trace.active()
    if tracer is None or span is None:
        yield
    else:
        with tracer.span(span, cat=cat,
                         paths=[str(p) for p in args.paths]):
            yield
    if args.trace is not None:
        trace.export_chrome(tracer, args.trace)
        print(f"trace written to {args.trace}", file=sys.stderr)


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
