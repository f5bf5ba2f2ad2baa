"""Pay only for what you import: the exact set of ``repro`` modules a
fresh interpreter holds after each top-level import.

Sets, not times, so the gate is deterministic.  A module that joins a set
is either needed by the package that now loads it — update the set here —
or an eager import that should be made lazy.
"""

import os
import pathlib
import subprocess
import sys

import pytest


def modules_after(statement: str, package: str = "repro") -> set:
    """The modules of ``package`` (itself included) a fresh interpreter
    holds after running ``statement``."""
    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    code = (f"{statement}\nimport sys\nprint(*sorted(m for m in sys.modules"
            f" if m == {package!r} or m.startswith({package + '.'!r})))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=src), check=True)
    return set(proc.stdout.split())


def _named(package: str, *modules: str) -> set:
    return {package} | {f"{package}.{m}" for m in modules}


CORE = (
    {"repro"}
    | _named("repro.concepts", "archetypes", "complexity", "concept",
             "docgen", "dsl", "errors", "modeling", "overload",
             "propagation", "requirements", "taxonomy", "where")
    | _named("repro.runtime", "dispatch", "metrics")
    | _named("repro.trace", "core", "counters", "exporters")
)
FACTS = _named("repro.facts", "properties", "records")
RESILIENCE = _named("repro.resilience", "concepts", "policy", "runner")
SEQUENCES = (
    CORE | FACTS | {"repro.concepts.builtins"}
    | _named("repro.sequences", "algorithms", "deque", "dlist", "errors",
             "function_objects", "heap", "iterators", "storage", "tree",
             "vector")
)

EXPECTED = {
    "import repro": CORE,
    "import repro.sequences": SEQUENCES,
    "import repro.analysis": (
        CORE | FACTS | RESILIENCE | {"repro.concepts.builtins"}
        | _named("repro.analysis", "cache", "config", "deps", "schema",
                 "session")
        | _named("repro.lint", "concept_pass", "driver", "suppressions")
        | _named("repro.stllint", "abstract_values", "archetype_check",
                 "cfg", "dataflow", "diagnostics", "facts_collection",
                 "interpreter", "ir", "specs", "summaries")
    ),
    "import repro.simplicissimus": (
        CORE | FACTS | {"repro.concepts.algebra"}
        | _named("repro.athena", "proof", "proofs",
                 "proofs.group_theory", "props", "terms", "theories")
        | _named("repro.simplicissimus", "cost", "expr", "library_rules",
                 "rewriter", "rules", "standard_rules")
    ),
    "import repro.distributed": (
        SEQUENCES | RESILIENCE | {"repro.sequences.views"}
        | _named("repro.distributed", "core", "failures", "metrics",
                 "network", "reliable", "sharded", "simulator", "taxonomy",
                 "timing", "algorithms")
        | _named("repro.distributed.algorithms", "bully", "chang_roberts",
                 "dynamic_tree", "echo", "flooding", "floodset",
                 "hirschberg_sinclair", "itai_rodeh", "replog",
                 "spanning_tree", "token_ring")
        | _named("repro.graphs", "adjacency_list", "algorithms",
                 "edge_list", "grid", "interfaces", "property_maps",
                 "visitors")
    ),
}


@pytest.mark.parametrize("statement", sorted(EXPECTED))
def test_top_level_import_loads_exactly_its_modules(statement):
    loaded = modules_after(statement)
    # No import pays for the optimizer.
    assert not {m for m in loaded if m.startswith("repro.optimize")}
    assert loaded == EXPECTED[statement], (
        f"joined: {sorted(loaded - EXPECTED[statement])}, "
        f"left: {sorted(EXPECTED[statement] - loaded)}")
