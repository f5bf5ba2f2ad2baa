"""Real execution as STLlint's reference.

A seeded generator writes small programs over one container ``v``:
``begin()``, ``clone()`` copies, ``end()``-guarded ``deref``/``increment``/
``erase``/``insert``, ``push_back``, ``while flip()`` loops with
``break``/``continue``, ``if``/``else``, ``try``/``except``, and chains of
helpers ``g1 -> ... -> gk`` with ``k`` up to 6.  Each program is linted
once and then executed on the container the annotation names
(``Vector``, ``Deque``, ``DList``), under seeded coin flips.  The
containers raise :class:`SingularIteratorError` on every use of an
invalidated iterator, so execution gives the exact answer.

The property: every ``SingularIteratorError`` has a non-note finding at
the line that raised it, or at the line in ``main`` of the call that led
there.

Two details of the harness:

- The programs never write ``jt = it``.  A Python rebinding makes two
  names for one iterator object; the abstract model treats assignment
  as a copy.  ``jt = it.clone()`` is the copy both sides agree on.
- Helpers may assign to their parameter ``it``.  That rebinding once
  handed the new binding's state back to the caller's iterator, which
  the callee had left singular; the corpus reproducer
  ``helper_rebinds_iterator_param.py`` keeps that fixed.
- ``equals`` on a singular iterator would raise, ending the run before
  the *use* STLlint is specified to flag (Fig. 4 reports the deref, not
  the loop test).  The harness answers such comparisons by position and
  counts them instead.
"""

import pathlib
import random
import traceback

import pytest

from repro.sequences import Deque, DList, Vector
from repro.sequences.errors import IteratorUsageError, SingularIteratorError
from repro.sequences.iterators import IndexIterator, NodeIterator
from repro.stllint import MSG_SINGULAR_DEREF, Severity, check_source

CORPUS = pathlib.Path(__file__).resolve().parent / "corpus"

CONTAINERS = {"vector": Vector, "deque": Deque, "list": DList}

PROGRAMS = 150          # generated programs per container kind
RUNS = 12               # executions per program
FLIPS = 24              # coin flips per execution before flip() is False
MAX_CHAIN = 6           # deepest helper chain g1 -> ... -> g6

LIST_FALSE_NEGATIVE = (
    "list erase invalidates every iterator at the erased node, but the "
    "model only invalidates the erase target; two begin() iterators "
    "alias one node (tests/corpus/list_erase_same_position.py)"
)

FILENAME = "<oracle>"


class _Program:
    """Writes one random program; ``lines`` accumulates its source."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.lines: list[str] = []

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def guarded(self, indent: int, x: str, op: str) -> None:
        self.emit(indent, f"if not {x}.equals(v.end()):")
        self.emit(indent + 1, op)

    def simple(self, indent: int, names: list[str], call: str) -> None:
        rng = self.rng
        x = rng.choice(names)
        t = rng.choice(names)
        choice = rng.randrange(10 if call else 9)
        if choice == 0:
            self.emit(indent, f"{t} = v.begin()")
        elif choice == 1:
            y = rng.choice([n for n in names if n != t])
            self.emit(indent, f"{t} = {y}.clone()")
        elif choice == 2:
            self.guarded(indent, x, f"y = {x}.deref()")
        elif choice == 3:
            self.guarded(indent, x, f"{x}.increment()")
        elif choice == 4:
            self.guarded(indent, x, f"v.erase({x})")
        elif choice == 5:
            self.guarded(indent, t, f"{t} = v.erase({t})")
        elif choice == 6:
            self.guarded(indent, t, f"{t} = v.insert({t}, 0)")
        elif choice == 7:
            self.guarded(indent, x, f"v.insert({x}, 0)")
        elif choice == 8:
            self.emit(indent, "v.push_back(1)")
        else:
            self.emit(indent, f"{call}(v, {x})")

    def block(self, indent: int, names: list[str], call: str,
              depth: int, in_loop: bool, in_try: bool = False) -> None:
        rng = self.rng
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(10) if depth < 2 else 0
            if kind == 6:
                self.emit(indent, "while flip():")
                self.block(indent + 1, names, call, depth + 1, True)
            elif kind == 7:
                self.emit(indent, "if flip():")
                self.block(indent + 1, names, call, depth + 1, in_loop)
                self.emit(indent, "else:")
                self.block(indent + 1, names, call, depth + 1, in_loop)
            elif kind == 8:
                self.emit(indent, "try:")
                self.block(indent + 1, names, call, depth + 1, in_loop, True)
                self.emit(indent, "except ValueError:")
                self.block(indent + 1, names, call, depth + 1, in_loop)
            elif kind == 9 and in_loop:
                self.emit(indent, "if flip():")
                self.emit(indent + 1, rng.choice(["break", "continue"]))
            elif in_try and kind == 9:
                self.emit(indent, "risky()")
            else:
                self.simple(indent, names, call)


def generate(seed: int, kind: str) -> str:
    """The program for ``seed``; ``kind`` is only the annotation."""
    rng = random.Random(seed)
    p = _Program(rng)
    chain = rng.randint(0, MAX_CHAIN)
    for i in range(chain, 0, -1):
        callee = f"g{i + 1}" if i < chain else ""
        p.emit(0, f'def g{i}(v: "{kind}", it):')
        p.emit(1, "kt = v.begin()")
        p.block(1, ["it", "kt"], callee, 1, False)
        if callee:
            p.emit(1, f"{callee}(v, it)")
        p.emit(0, "")
    p.emit(0, f'def main(v: "{kind}"):')
    p.emit(1, "jt = v.begin()")
    p.emit(1, "kt = v.begin()")
    p.block(1, ["jt", "kt"], "g1" if chain else "", 0, False)
    return "\n".join(p.lines) + "\n"


class _Coins:
    """Seeded ``flip``/``risky`` with a cap on the number of flips."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.left = FLIPS

    def flip(self) -> bool:
        self.left -= 1
        return self.left > 0 and self.rng.random() < 0.5

    def risky(self) -> None:
        if self.rng.random() < 0.3:
            raise ValueError("risky")


def _singular_lines(exc: BaseException) -> set[int]:
    frames = [f for f in traceback.extract_tb(exc.__traceback__)
              if f.filename == FILENAME]
    main = [f.lineno for f in frames if f.name == "main"]
    return {frames[-1].lineno, *main}


@pytest.fixture
def singular_equals(monkeypatch):
    """Answer ``equals`` on singular iterators by position; count them."""
    count = {"n": 0}

    def index_equals(self, other):
        if not (self._valid and other._valid):
            count["n"] += 1
        return (isinstance(other, IndexIterator)
                and self._container is other._container
                and self._index == other._index)

    def node_equals(self, other):
        if not (self._valid and other._valid):
            count["n"] += 1
        return isinstance(other, NodeIterator) and self._node is other._node

    monkeypatch.setattr(IndexIterator, "equals", index_equals)
    monkeypatch.setattr(NodeIterator, "equals", node_equals)
    return count


@pytest.mark.parametrize("kind", [
    "vector",
    "deque",
    pytest.param("list", marks=pytest.mark.xfail(
        strict=True, reason=LIST_FALSE_NEGATIVE)),
])
def test_every_singular_use_is_flagged(kind, singular_equals):
    make = CONTAINERS[kind]
    raised = 0
    missed = []
    for seed in range(PROGRAMS):
        source = generate(seed, kind)
        flagged = {
            d.line for d in check_source(source).diagnostics
            if d.severity is not Severity.NOTE
        }
        namespace: dict = {}
        exec(compile(source, FILENAME, "exec"), namespace)
        for run in range(RUNS):
            coins = _Coins(seed * RUNS + run)
            namespace.update(flip=coins.flip, risky=coins.risky)
            try:
                namespace["main"](make(range(run % 5)))
            except SingularIteratorError as exc:
                raised += 1
                lines = _singular_lines(exc)
                if not lines & flagged:
                    missed.append((seed, sorted(lines), source))
            except (IteratorUsageError, IndexError, ValueError):
                pass   # past-the-end, erase at end, an escaped risky()
    assert raised > 0, f"no {kind} run raised; the oracle checked nothing"
    assert not missed, (
        f"{len(missed)} unflagged singular use(s) on {kind} "
        f"({singular_equals['n']} singular equals answered); first: "
        f"seed {missed[0][0]}, lines {missed[0][1]}\n{missed[0][2]}"
    )


#: Shrunk oracle failures: (file, function to run, container, line of
#: the singular use, why STLlint misses it, or None once it is fixed).
CORPUS_CASES = [
    ("list_erase_same_position.py", "erase_same_position", DList, 5,
     LIST_FALSE_NEGATIVE),
    ("helper_rebinds_iterator_param.py", "caller", Vector, 9, None),
]


@pytest.mark.parametrize("name, function, make, line", [
    pytest.param(name, function, make, line,
                 marks=() if reason is None else pytest.mark.xfail(
                     strict=True, reason=reason),
                 id=name.removesuffix(".py"))
    for name, function, make, line, reason in CORPUS_CASES
])
def test_corpus_reproducer_is_flagged(name, function, make, line):
    source = (CORPUS / name).read_text()
    namespace: dict = {}
    exec(compile(source, FILENAME, "exec"), namespace)
    with pytest.raises(SingularIteratorError):
        namespace[function](make([1, 2]))
    report = check_source(source)
    assert any(d.message == MSG_SINGULAR_DEREF and d.line == line
               for d in report.warnings)
