"""Oracles behind ``failed``: each returns ``None`` when the program's
output is right and a one-line description of the disagreement when it
is not.  None of them asks the code under test what the answer is: the
expected values come from the generators' answer keys, from plain-list
mirrors, from a cacheless re-analysis, or from the replicated log's
safety laws."""

from __future__ import annotations

import bisect

# -- analyze-cold -------------------------------------------------------------


def check_analysis(report, result, key: dict) -> str | None:
    """Lint findings and optimizer rewrites of one generated file against
    the generator's answer key."""
    findings = sorted([f.line, f.check] for f in report.findings)
    if findings != key["findings"]:
        return f"findings {findings} != expected {key['findings']}"
    if result.reverted or not result.verified:
        return f"optimizer reverted: {result.revert_reason}"
    rewrites = sorted([p.line, p.call, p.replacement] for p in result.plans)
    if rewrites != key["rewrites"]:
        return f"rewrites {rewrites} != expected {key['rewrites']}"
    planned = {(p.line, p.call) for p in result.plans}
    for line, call in key["refused"]:
        if (line, call) in planned:
            return f"unsound rewrite of {call} at line {line}"
    return None


# -- lint-edit ----------------------------------------------------------------


def check_file_report(project_report, fresh) -> str | None:
    """The cached project report's entry for one file must equal a
    cacheless lint of that file."""
    for report in project_report.files:
        if report.path == fresh.path:
            if report.to_dict() != fresh.to_dict():
                return "cached report differs from a cacheless lint"
            return None
    return f"{fresh.path} missing from the project report"


def check_project_report(cached, cold) -> str | None:
    """The last cached pass must equal a fresh cold lint of the tree."""
    if cached.to_dict() != cold.to_dict():
        a = {r.path: r.to_dict() for r in cached.files}
        b = {r.path: r.to_dict() for r in cold.files}
        diff = sorted(p for p in a.keys() | b.keys() if a.get(p) != b.get(p))
        return f"{len(diff)} file(s) differ from a cold lint, first {diff[:1]}"
    return None


# -- containers ---------------------------------------------------------------


def _position(c, it) -> int | None:
    """Index of ``it`` in ``c``, or None for the end iterator."""
    from repro.sequences.algorithms import distance

    if it.equals(c.end()):
        return None
    return distance(c.begin(), it)


def check_container_op(op: tuple, c, result, mirror: list) -> str | None:
    """Check one call's result against the plain-list mirror of its
    container, then apply the call to the mirror."""
    name, index, arg = op
    values = mirror[index]
    problem = None
    if name in ("find_in", "indexed_find"):
        want = values.index(arg) if arg in values else None
        got = _position(c, result)
        if got != want:
            problem = f"found position {got}, expected {want}"
    elif name == "lower_bound":
        want = bisect.bisect_left(values, arg)
        got = _position(c, result)
        got = len(values) if got is None else got
        if got != want:
            problem = f"lower bound {got}, expected {want}"
    elif name == "accumulate":
        if result != sum(values):
            problem = f"sum {result}, expected {sum(values)}"
    elif name == "copy_into":
        if result.to_list() != values:
            problem = "copy differs from the source"
    mirror_apply(op, mirror)
    if problem is None and c.size() != len(mirror[index]):
        problem = f"size {c.size()}, expected {len(mirror[index])}"
    return problem


def mirror_apply(op: tuple, mirror: list) -> None:
    name, index, arg = op
    values = mirror[index]
    if name == "push_back":
        values.append(arg)
    elif name == "insert":
        values.insert(arg[0], arg[1])
    elif name == "erase":
        del values[arg]
    elif name == "set":
        values[arg[0]] = arg[1]
    elif name == "sort":
        values.sort()


def check_container_contents(c, values: list) -> str | None:
    got = list(c)
    if got != values:
        first = next((i for i, (a, b) in enumerate(zip(got, values))
                      if a != b), min(len(got), len(values)))
        return f"contents differ from the mirror at index {first}"
    return None


# -- replog -------------------------------------------------------------------


def check_replog(metrics, n: int) -> str | None:
    """Every replica decides exactly the proposed commands, and the run's
    record satisfies the ReplicatedLogSafety laws (election safety,
    prefix order, committed-never-lost, completeness)."""
    from repro.distributed.algorithms.replog import record_run

    if metrics.truncated:
        return f"run truncated: {metrics.truncation_reason}"
    expected = set(metrics.expected_commands)
    if len(metrics.decisions) != n:
        return f"{n - len(metrics.decisions)} replica(s) decided nothing"
    for rank, decided in sorted(metrics.decisions.items()):
        if set(decided) != expected or len(decided) != len(expected):
            return f"replica {rank} decided {decided}"
    return check_replog_record(record_run(metrics, n))


def check_replog_record(record) -> str | None:
    from repro.concepts import models
    from repro.distributed.algorithms.replog import ReplicatedLogRecord
    from repro.resilience.concepts import ReplicatedLogSafety

    violations = models.check_semantics(
        ReplicatedLogSafety, ReplicatedLogRecord, samples=[(record,)],
        raise_on_failure=False)
    if violations:
        return "safety law violated: " + ", ".join(
            v.axiom_name for v in violations)
    return None
