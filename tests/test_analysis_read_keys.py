"""The analysis cache keys a file's results on what linting it reads
from other modules: the modules the concept pass imports, which it does
only for files with a top-level call decorator rooted at an absolute
import (see :mod:`repro.analysis.deps`).

Every project here sits on ``sys.path``, so the concept pass really
imports it.  Between edits its modules are evicted from ``sys.modules``
and bytecode is never written: otherwise an edited module would never
reach the pass, and a cached report would trivially equal an uncached
one."""

import copy
import importlib
import pathlib
import random
import sys

import pytest

from repro.analysis import AnalysisConfig, AnalysisSession
from repro.analysis import deps as analysis_deps


@pytest.fixture()
def project(tmp_path, monkeypatch):
    """A writer for a project directory on ``sys.path``; each write
    evicts the project's modules so the next import sees it."""
    root = tmp_path / "proj"
    root.mkdir()
    monkeypatch.syspath_prepend(str(root))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    config = AnalysisConfig(cache=True, cache_dir=str(tmp_path / "cache"))

    def evict():
        for name, module in list(sys.modules.items()):
            if str(getattr(module, "__file__", "")).startswith(str(root)):
                del sys.modules[name]
        importlib.invalidate_caches()

    def write(**modules):
        for name, text in modules.items():
            path = root / (name.replace(".", "/") + ".py")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        evict()

    def lint():
        """(cached report, re-analyzed count, uncached report)."""
        session = AnalysisSession(config)
        cached = session.lint_paths([root])
        evict()
        fresh = AnalysisSession().lint_paths([root])
        evict()
        return cached, session.counters["lint_analyzed"], fresh

    write.root, write.lint = root, lint
    yield write
    evict()


UTIL = "FLAG = 1\n"

HELPERS = '''
import rk_util


def deco(*args):
    return lambda fn: fn
'''

READER = '''
import rk_helpers


@rk_helpers.deco(1)
def hook():
    pass
'''

PLAIN = '''
import rk_helpers


def hook():
    return rk_helpers.deco
'''

# Shaped like sequences/heap.py: ``where`` imported relatively.
HEAP = '''
from ..rk_helpers import deco as where
from ..rk_helpers import Sortable


@where(c=Sortable)
def push_heap(c):
    return c


def use():
    return push_heap(3)
'''

DECORATED = '''
import rk_helpers


@rk_helpers.deco(2)
def hook():
    return rk_helpers.deco
'''


class TestReadKeys:
    def setup_project(self, project):
        project(rk_util=UTIL, rk_helpers=HELPERS, rk_reader=READER,
                rk_plain=PLAIN, **{"rk_pkg.__init__": "",
                                   "rk_pkg.heap": HEAP})
        cached, analyzed, fresh = project.lint()
        assert analyzed == 6
        assert cached.to_dict() == fresh.to_dict()

    def assert_edit(self, project, dirty, **modules):
        project(**modules)
        cached, analyzed, fresh = project.lint()
        assert analyzed == dirty
        if dirty:
            assert dirty == _expected_dirty(
                project.root, project.root / f"{next(iter(modules))}.py")
        assert cached.to_dict() == fresh.to_dict()

    def test_read_sets(self):
        def reads(text):
            return analysis_deps.scan_imports(text)[1]

        assert reads(READER) == {"rk_helpers"}
        assert reads(PLAIN) == reads(HEAP) == set()
        assert analysis_deps.scan_imports(HEAP)[0] >= {"rk_helpers"}

    def test_editing_a_read_module_reanalyzes_its_reader(self, project):
        self.setup_project(project)
        # rk_helpers and rk_reader; rk_plain and rk_pkg/heap.py import
        # it too, but linting them reads nothing.
        self.assert_edit(project, 2, rk_helpers=HELPERS + "\n# edit\n")

    def test_editing_what_a_read_module_imports_reanalyzes(self, project):
        self.setup_project(project)
        self.assert_edit(project, 2, rk_util="FLAG = 2\n")

    def test_adding_and_removing_a_decorator_switches_reads(self, project):
        self.setup_project(project)
        self.assert_edit(project, 1, rk_plain=DECORATED)
        self.assert_edit(project, 3, rk_util="FLAG = 3\n")
        # Back to the original bytes: their entry is still valid.
        self.assert_edit(project, 0, rk_plain=PLAIN)
        self.assert_edit(project, 2, rk_util="FLAG = 4\n")


def _expected_dirty(root, edited):
    """1 + every file whose read-name closure reaches ``edited``, from a
    fresh parse of every file."""
    files = sorted(root.rglob("*.py"))
    scans = {f: analysis_deps.scan_imports(f.read_text()) for f in files}
    graph = analysis_deps.dependency_graph(files, lambda f: scans[f][0])
    reads = analysis_deps.dependency_graph(files, lambda f: scans[f][1])
    return 1 + sum(edited in analysis_deps.reachable(graph, reads[f])
                   for f in files if f != edited)


# ---------------------------------------------------------------------------
# Seeded cache-coherence oracle
# ---------------------------------------------------------------------------

BASE = '''
class Base:
{methods}
'''

HUB = '''
from repro.concepts import Concept, Param, method, where
from coh_mixins import Base

T = Param("T")
Quackable = Concept("Quackable", requirements=[
    method("t.{required}()", "{required}", [T])])
{requires}


class Duck(Base):
{duck}


class Goose:
{goose}


@where({chorus}=Quackable)
def chorus(d):
    return d


def sing():
    return chorus(Duck()), chorus(Goose())
'''

REQUIRES = {
    "where": "requires = where",
    "plain": "def requires(*args, **kwargs):\n    return lambda fn: fn",
}

CALLER_A = '''
import coh_hub
from coh_hub import Duck, Goose


@coh_hub.requires(d=coh_hub.Quackable)
def speak(d):
    return d


def calls():
    return speak(Duck()), speak(Goose())
'''

CALLER_B = '''
import coh_hub
from repro.concepts import where


@where(x=coh_hub.Quackable)
def fly(x):
    return x


def calls():
    return fly(coh_hub.Goose()), fly(coh_hub.Duck()), fly(3)
'''

PLAIN_IMPORTER = '''
import coh_hub

{decorator}
def walk(d):
    return d


def calls():
    return walk(coh_hub.Goose())
'''

RELATIVE_IMPORTER = '''
from ..coh_hub import Quackable, requires

{decorator}
def waddle(d):
    return d


def calls():
    return waddle(3)
'''


def _methods(names):
    return "\n".join(f"    def {n}(self):\n        return '{n}'"
                     for n in sorted(names)) or "    pass"


class CoherenceProject:
    """The oracle's project as a state; ``render`` gives every file."""

    SOUNDS = ("quack", "honk")

    def __init__(self):
        self.state = {
            "base": {"quack"}, "required": "quack", "requires": "where",
            "duck": set(), "goose": {"honk"}, "chorus": "d",
            "plain": False, "relative": False,
        }

    def edit(self, rng):
        """One seeded edit; returns its description."""
        s = self.state
        kind = rng.choice(("base", "required", "requires", "duck",
                           "goose", "chorus", "plain", "relative"))
        if kind in ("base", "duck", "goose"):
            s[kind] = s[kind] ^ {rng.choice(self.SOUNDS)}
        elif kind == "required":
            s[kind] = "honk" if s[kind] == "quack" else "quack"
        elif kind == "requires":
            s[kind] = "plain" if s[kind] == "where" else "where"
        elif kind == "chorus":
            s[kind] = "x" if s[kind] == "d" else "d"
        else:
            s[kind] = not s[kind]
        return kind

    def render(self):
        s = self.state
        absolute = "@coh_hub.requires(d=coh_hub.Quackable)"
        return {
            "coh_base": BASE.format(methods=_methods(s["base"])),
            # Reads nothing itself: an edit to coh_base reaches the
            # callers only through the import closure of what they read.
            "coh_mixins": "from coh_base import Base  # noqa: F401\n",
            "coh_hub": HUB.format(
                required=s["required"], requires=REQUIRES[s["requires"]],
                duck=_methods(s["duck"]), goose=_methods(s["goose"]),
                chorus=s["chorus"]),
            "coh_caller_a": CALLER_A,
            "coh_caller_b": CALLER_B,
            "coh_plain": PLAIN_IMPORTER.format(
                decorator=absolute if s["plain"] else ""),
            "coh_pkg.__init__": "",
            "coh_pkg.rel": RELATIVE_IMPORTER.format(
                decorator="@requires(d=Quackable)" if s["relative"]
                else ""),
        }


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_seeded_edits_keep_the_cache_coherent(project, seed):
    """After every seeded edit a cached lint equals an uncached one, and
    the edits do change findings, so the check is not vacuous.  Every
    fourth edit reverts the whole project to an earlier state, which
    re-analyzes nothing: each of its files' bytes and reads were keyed
    before."""
    rng = random.Random(f"cache-coherence:{seed}")
    proj = CoherenceProject()
    project(**proj.render())
    cached, _, fresh = project.lint()
    assert cached.to_dict() == fresh.to_dict()
    history = [_concept_findings(fresh)]
    states = [copy.deepcopy(proj.state)]
    served = 0
    for step in range(20):
        if step % 4 == 3:
            kind = "revert"
            proj.state = copy.deepcopy(rng.choice(states[:-1]))
        else:
            kind = proj.edit(rng)
        states.append(copy.deepcopy(proj.state))
        project(**proj.render())
        cached, analyzed, fresh = project.lint()
        assert cached.to_dict() == fresh.to_dict(), (step, kind)
        assert kind != "revert" or analyzed == 0, step
        history.append(_concept_findings(fresh))
        served += len(fresh.files) - analyzed
    assert served > 0
    assert any(a != b for a, b in zip(history, history[1:]))


def _concept_findings(report):
    return sorted((f.path, f.line, f.message) for f in report.findings
                  if f.check == "concept-conformance")


# ---------------------------------------------------------------------------
# Lazily re-exporting packages
# ---------------------------------------------------------------------------

ATHENA_USER = '''
from repro.athena import method


@method("m")
def m(ab):
    return ab
'''


def test_a_lazy_package_keys_its_readers_on_every_submodule(tmp_path):
    # repro.athena imports its submodules on first use of a name (PEP
    # 562), so a file whose decorator reads `method` through the package
    # must be re-analyzed when methods.py changes.
    athena = (pathlib.Path(analysis_deps.__file__).resolve().parents[1]
              / "athena")
    user = tmp_path / "athena_user.py"
    user.write_text(ATHENA_USER)
    files = sorted(athena.rglob("*.py")) + [user]
    scans = {f: analysis_deps.scan_imports(f.read_text()) for f in files}
    assert analysis_deps.LAZY in scans[athena / "__init__.py"][0]
    hashes = {f: "original" for f in files}
    before, closures = analysis_deps.dependency_fingerprints(
        files, hashes, scans.__getitem__)
    assert {athena / "methods.py",
            athena / "proofs" / "group_theory.py"} <= set(closures[user])
    hashes[athena / "methods.py"] = "edited"
    after, _ = analysis_deps.dependency_fingerprints(
        files, hashes, scans.__getitem__)
    assert after[user] != before[user]
