"""Fact records: what STLlint's analysis learned, as queryable data.

The interpreter (producer side) writes into a :class:`FactRecorder`; the
optimizer and property-guarded rewrite rules (consumer side) query the
resulting :class:`FactTable`.  Because the symbolic interpreter is a
may-analysis that can visit one source line several times (loop fixpoint
iterations, both arms of a join, summarized callees), a call site's
*must-hold* properties are the **meet** of every recording at that
``(line, algorithm)`` — a property counts only if it held on every
explored path, which is what makes a rewrite decision based on it sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .properties import FactEnv, closure, meet


@dataclass(frozen=True)
class Fact:
    """One property event at one program point.

    ``kind`` is one of:

    - ``"establishes"`` — an exit handler added the property
      (``sort`` establishes ``sorted``);
    - ``"destroys"`` — a mutation or exit handler removed it;
    - ``"requires"`` — an entry handler checked it and it held;
    - ``"requires-missing"`` — an entry handler checked it and it did not
      (the same event that produced a diagnostic);
    - ``"holds"`` — observed to hold at a call site.
    """

    subject: str
    prop: str
    line: int
    kind: str
    source: str = ""        # algorithm or operation responsible
    function: str = ""      # enclosing analyzed function

    def render(self) -> str:
        return (f"L{self.line}: {self.source or '?'} {self.kind} "
                f"{self.prop}({self.subject})")


@dataclass(frozen=True)
class AlgorithmCallFact:
    """One recording of a specified-algorithm call during analysis."""

    algorithm: str
    line: int
    function: str
    subject: str                       # primary (range) container name
    container_kind: str
    properties_before: frozenset[str]
    properties_after: frozenset[str]


@dataclass
class CallSite:
    """All recordings of one ``(line, algorithm)`` site, merged.

    ``properties`` / ``properties_after`` are the meet across recordings:
    must-hold on every explored abstract path.
    """

    algorithm: str
    line: int
    function: str
    subject: str
    container_kind: str
    properties: frozenset[str]
    properties_after: frozenset[str]
    recordings: int = 1

    def merge(self, other: AlgorithmCallFact) -> None:
        self.properties = meet(self.properties, other.properties_before)
        self.properties_after = meet(
            self.properties_after, other.properties_after
        )
        self.recordings += 1

    def must_hold(self, prop: str) -> bool:
        """True when ``prop`` held on every explored path into the call."""
        return str(prop) in closure(self.properties)

    def render(self) -> str:
        props = ",".join(sorted(self.properties)) or "-"
        return (f"L{self.line}: {self.algorithm}({self.subject}) "
                f"[{props}] in {self.function}")


class FactRecorder:
    """Accumulates facts during one analysis run (producer side)."""

    def __init__(self) -> None:
        self.facts: list[Fact] = []
        self.calls: list[AlgorithmCallFact] = []

    def record(self, subject: str, prop: str, line: int, kind: str,
               source: str = "", function: str = "") -> None:
        self.facts.append(Fact(subject, str(prop), line, kind, source,
                               function))

    def record_call(
        self,
        algorithm: str,
        line: int,
        function: str,
        subject: str,
        container_kind: str,
        before: Iterable[str],
        after: Iterable[str],
    ) -> None:
        before = closure(before)
        after = closure(after)
        self.calls.append(AlgorithmCallFact(
            algorithm, line, function, subject, container_kind,
            before, after,
        ))
        for p in sorted(after - before):
            self.record(subject, p, line, "establishes", algorithm, function)
        for p in sorted(before - after):
            self.record(subject, p, line, "destroys", algorithm, function)

    def table(self) -> "FactTable":
        return FactTable(self.facts, self.calls)


class FactTable:
    """Queryable result of fact collection (consumer side)."""

    def __init__(self, facts: Iterable[Fact],
                 calls: Iterable[AlgorithmCallFact]) -> None:
        self.facts: list[Fact] = list(facts)
        self.calls: list[AlgorithmCallFact] = list(calls)
        self._sites: dict[tuple[int, str], CallSite] = {}
        for c in self.calls:
            key = (c.line, c.algorithm)
            site = self._sites.get(key)
            if site is None:
                self._sites[key] = CallSite(
                    c.algorithm, c.line, c.function, c.subject,
                    c.container_kind, c.properties_before,
                    c.properties_after,
                )
            else:
                site.merge(c)

    # -- queries -----------------------------------------------------------

    def call_sites(self, algorithm: Optional[str] = None) -> list[CallSite]:
        sites = sorted(self._sites.values(), key=lambda s: (s.line, s.algorithm))
        if algorithm is None:
            return sites
        return [s for s in sites if s.algorithm == algorithm]

    def site(self, line: int, algorithm: str) -> Optional[CallSite]:
        return self._sites.get((line, algorithm))

    def must_properties(self, line: int, algorithm: str) -> frozenset[str]:
        """Properties that held on every explored path entering the call."""
        site = self._sites.get((line, algorithm))
        return site.properties if site is not None else frozenset()

    def holds(self, prop: str, line: int, algorithm: str) -> bool:
        return str(prop) in self.must_properties(line, algorithm)

    def env_at(self, line: int, algorithm: Optional[str] = None) -> FactEnv:
        """A :class:`FactEnv` (subject → must-hold properties) for the call
        site(s) at ``line`` — the bridge into property-guarded rewrite
        rules."""
        env = FactEnv()
        for site in self._sites.values():
            if site.line != line:
                continue
            if algorithm is not None and site.algorithm != algorithm:
                continue
            have = env.get(site.subject)
            env[site.subject] = (
                site.properties if have is None else meet(have, site.properties)
            )
        return env

    def established(self, prop: Optional[str] = None) -> list[Fact]:
        out = [f for f in self.facts if f.kind == "establishes"]
        if prop is not None:
            out = [f for f in out if f.prop == str(prop)]
        return out

    def render(self) -> str:
        lines = [s.render() for s in self.call_sites()]
        lines += [f.render() for f in self.facts
                  if f.kind in ("establishes", "destroys",
                                "requires-missing")]
        return "\n".join(lines) if lines else "(no facts)"

    def to_dict(self) -> dict:
        return {
            "call_sites": [
                {
                    "line": s.line,
                    "algorithm": s.algorithm,
                    "function": s.function,
                    "subject": s.subject,
                    "container_kind": s.container_kind,
                    "properties": sorted(s.properties),
                    "properties_after": sorted(s.properties_after),
                    "recordings": s.recordings,
                }
                for s in self.call_sites()
            ],
            "facts": [
                {
                    "line": f.line, "kind": f.kind, "prop": f.prop,
                    "subject": f.subject, "source": f.source,
                    "function": f.function,
                }
                for f in self.facts
            ],
        }
