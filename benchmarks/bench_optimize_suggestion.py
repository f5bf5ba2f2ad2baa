"""Experiment T-optimize: STLlint's algorithm-selection advice and its
payoff (Section 3.2).

Regenerates the paper's suggestion ("Consider replacing this algorithm with
one specialized for sorted sequences (e.g., lower_bound)") on a
sort-then-find program, then measures the suggested change: linear find vs
binary lower_bound over a size sweep — the asymptotic separation (n vs
log n) that "complete verification ... would permit high-level
optimizations that improve the asymptotic performance".

PR 4 closes the loop: ``repro.optimize`` now *applies* the suggestion, so
the bench also runs the full facts -> select -> rewrite -> verify pipeline
on the same program, times the suggested and the applied variants, and
emits a machine-readable row (``out/optimize_pipeline.json``).
"""

import json
import pathlib
import timeit

import pytest

from repro.analysis import AnalysisSession
from repro.sequences import Vector
from repro.sequences.algorithms import find, lower_bound
from repro.stllint import MSG_SORTED_LINEAR_FIND, check_source

OUT_DIR = pathlib.Path(__file__).parent / "out"

PROGRAM = '''
def lookup(v: "vector"):
    sort(v.begin(), v.end())
    i = find(v.begin(), v.end(), 42)
    if not i.equals(v.end()):
        return i.deref()
'''

IMPROVED = PROGRAM.replace("find(", "lower_bound(")


def render() -> str:
    lines = ["STLlint on sort-then-linear-find:"]
    lines.append(check_source(PROGRAM).render())
    lines.append("")
    lines.append("after applying the suggestion (lower_bound):")
    improved = check_source(IMPROVED)
    lines.append(improved.render() or "no diagnostics")
    lines.append("")
    lines.append("measured payoff (worst-case probe at the end):")
    lines.append(f"{'n':>8s} {'find (linear)':>15s} {'lower_bound':>13s} "
                 f"{'speedup':>8s}")
    for exp in (8, 10, 12, 14):
        n = 2 ** exp
        v = Vector(sorted(range(n)))
        needle = n - 1
        t_lin = min(timeit.repeat(
            lambda: find(v.begin(), v.end(), needle), number=3, repeat=3)) / 3
        t_bin = min(timeit.repeat(
            lambda: lower_bound(v.begin(), v.end(), needle),
            number=3, repeat=3)) / 3
        lines.append(f"{n:8d} {t_lin * 1e6:13.1f}us {t_bin * 1e6:11.1f}us "
                     f"{t_lin / t_bin:7.1f}x")
    return "\n".join(lines)


def test_suggestion_emitted(benchmark, record):
    record("optimize_suggestion", render())
    report = check_source(PROGRAM)
    assert any(d.message == MSG_SORTED_LINEAR_FIND for d in report.suggestions)
    # After the rewrite, the suggestion is gone and nothing else fires.
    improved = check_source(IMPROVED)
    assert not improved.suggestions
    assert improved.clean
    benchmark(lambda: check_source(PROGRAM))


def test_pipeline_applies_the_suggestion(benchmark, record):
    """End to end: the optimizer must *perform* the rewrite the linter
    only suggested, the rewritten program must equal the hand-improved
    one semantically (same callee), and the measured payoff of the
    applied variant goes into a machine-readable row."""
    session = AnalysisSession()
    result = benchmark(lambda: session.optimize_source(PROGRAM))
    assert result.changed and result.verified and not result.reverted
    assert len(result.plans) == 1
    plan = result.plans[0]
    assert (plan.call, plan.replacement) == ("find", "lower_bound")
    assert "lower_bound(v.begin(), v.end(), 42)" in result.optimized
    # The applied output is exactly the suggested variant.
    assert result.optimized == IMPROVED
    # And it re-lints clean (this is what "verified" means).
    assert check_source(result.optimized).clean

    # Time both variants of the changed call at one representative size.
    n = 2 ** 12
    v = Vector(sorted(range(n)))
    t_suggested = min(timeit.repeat(
        lambda: find(v.begin(), v.end(), n - 1), number=3, repeat=3)) / 3
    t_applied = min(timeit.repeat(
        lambda: lower_bound(v.begin(), v.end(), n - 1),
        number=3, repeat=3)) / 3

    OUT_DIR.mkdir(exist_ok=True)
    row = {
        "experiment": "optimize_pipeline",
        "program": "sort-then-linear-find",
        "rewrites": [p.to_dict() for p in result.plans],
        "verified": result.verified,
        "n": n,
        "suggested_variant_us": t_suggested * 1e6,
        "applied_variant_us": t_applied * 1e6,
        "speedup": t_suggested / t_applied,
    }
    (OUT_DIR / "optimize_pipeline.json").write_text(
        json.dumps(row, indent=2) + "\n")
    record("optimize_pipeline",
           f"pipeline: {plan.describe()}\n"
           f"measured at n={n}: suggested(find)={t_suggested * 1e6:.1f}us, "
           f"applied(lower_bound)={t_applied * 1e6:.1f}us, "
           f"{t_suggested / t_applied:.1f}x")
    assert t_suggested / t_applied > 5


@pytest.mark.parametrize("exp", [8, 12, 16])
def test_linear_find(benchmark, exp):
    n = 2 ** exp
    v = Vector(sorted(range(n)))
    it = benchmark(lambda: find(v.begin(), v.end(), n - 1))
    assert it.deref() == n - 1


@pytest.mark.parametrize("exp", [8, 12, 16])
def test_binary_lower_bound(benchmark, exp):
    n = 2 ** exp
    v = Vector(sorted(range(n)))
    it = benchmark(lambda: lower_bound(v.begin(), v.end(), n - 1))
    assert it.deref() == n - 1


def test_asymptotic_separation(benchmark, record):
    """Shape: speedup grows with n roughly like n / log n."""
    speedups = {}
    for exp in (8, 12, 14):
        n = 2 ** exp
        v = Vector(sorted(range(n)))
        t_lin = min(timeit.repeat(
            lambda: find(v.begin(), v.end(), n - 1), number=2, repeat=3))
        t_bin = min(timeit.repeat(
            lambda: lower_bound(v.begin(), v.end(), n - 1),
            number=2, repeat=3))
        speedups[n] = t_lin / t_bin
    record("optimize_separation",
           "\n".join(f"n={n}: {s:.1f}x" for n, s in speedups.items()))
    ns = sorted(speedups)
    assert speedups[ns[-1]] > speedups[ns[0]]   # separation grows
    assert speedups[ns[-1]] > 10                # and is large at 16k
    v = Vector(sorted(range(2 ** 12)))
    benchmark(lambda: lower_bound(v.begin(), v.end(), 2 ** 12 - 1))
