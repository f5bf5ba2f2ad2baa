"""Seeded input generators and their answer keys.

Every generator takes the seed as an argument and is a pure function of
it: the same seed yields byte-identical inputs (see ``canonical``).  The
program under test only ever receives the generated inputs.  Answer keys
come from what the generator *planted* -- each function shape below
declares the findings and rewrites it must produce -- never from running
the linter or the optimizer.
"""

from __future__ import annotations

import ast
import json
import random
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# analyze-cold: a generated project of lintable functions
# ---------------------------------------------------------------------------

#: Container kinds STLlint tracks (annotation strings) and how a function
#: shape may use each.
RAM_KINDS = ("vector", "list", "deque", "contig")
ALL_KINDS = RAM_KINDS + ("sqlite",)
#: Mutations that destroy sortedness between a sort and a find.
BREAKING_MUTATIONS = (
    "{v}.push_back({x})",
    "{v}.insert({v}.begin(), {x})",
    "reverse({v}.begin(), {v}.end())",
)

FILES_PER_PROJECT = 24
#: Shape mix, one entry per function slot; each file draws its slots
#: from this list by shuffling, so every file has the same composition.
#: The sizes that drive analysis work are fixed per file as well: one
#: scanner with one loop and one with three, helper chains whose depths
#: add up to ``CHAIN_DEPTHS``, sqlite finds alternating sorted and
#: unsorted from file to file.  Per-file work then stays comparable
#: across files and seeds.
SHAPE_MIX = ("scan", "scan", "fig4", "sort_find", "sort_mutate_find",
             "sqlite_find", "chain", "clean_chain")
SCAN_LOOPS = (1, 3)
CHAIN_DEPTHS = 7


@dataclass
class Shape:
    """One generated function group: its source lines plus the planted
    expectations, with line numbers relative to the group's first line."""

    lines: list[str]
    findings: list[tuple[int, str]] = field(default_factory=list)
    rewrites: list[tuple[int, str, str]] = field(default_factory=list)
    refused: list[tuple[int, str]] = field(default_factory=list)


def _scan(rng: random.Random, name: str, loops: int) -> Shape:
    kind = rng.choice(ALL_KINDS)
    v = rng.choice(("v", "xs", "items", "seq"))
    lines = [f'def {name}({v}: "{kind}", key):', "    n = 0"]
    for k in range(loops):
        lines += [
            f"    it{k} = {v}.begin()",
            f"    while not it{k}.equals({v}.end()):",
            f"        if it{k}.deref() == key:",
            "            n = n + 1",
            f"        it{k}.increment()",
        ]
    lines += [f"    for x in {v}:", "        n = n + x", "    return n"]
    return Shape(lines)


def _fig4(rng: random.Random, name: str) -> Shape:
    kind = rng.choice(ALL_KINDS)
    s, f = rng.choice((("students", "fails"), ("orders", "late"),
                       ("jobs", "dead")))
    pred = rng.choice(("fgrade", "overdue", "stale"))
    lines = [
        f'def {name}({s}: "{kind}", {f}: "vector"):',
        f"    it = {s}.begin()",
        f"    while not it.equals({s}.end()):",
        f"        if {pred}(it.deref()):",
        f"            {f}.push_back(it.deref())",
        f"            {s}.erase(it)",
        "        else:",
        "            it.increment()",
    ]
    # Fig. 4: erase(it) leaves `it` singular; the next trip round the
    # loop dereferences it twice, the erase reuses it, and the else-arm
    # advances it.
    return Shape(lines, findings=[(3, "singular-deref"),
                                  (4, "singular-deref"),
                                  (5, "singular-erase"),
                                  (7, "singular-advance")])


def _lookup_tail(v: str) -> list[str]:
    return [
        f"    it = find({v}.begin(), {v}.end(), key)",
        f"    if not it.equals({v}.end()):",
        "        return it.deref()",
        "    return None",
    ]


def _sort_find(rng: random.Random, name: str) -> Shape:
    kind = rng.choice(RAM_KINDS)
    v = rng.choice(("v", "table", "ids"))
    lines = [f'def {name}({v}: "{kind}", key):',
             f"    sort({v}.begin(), {v}.end())"] + _lookup_tail(v)
    # Sorted on every path at the find: suggested and rewritten.
    return Shape(lines, findings=[(2, "sorted-linear-find")],
                 rewrites=[(2, "find", "lower_bound")])


def _sort_mutate_find(rng: random.Random, name: str) -> Shape:
    kind = rng.choice(ALL_KINDS)
    v = rng.choice(("v", "table", "ids"))
    mutation = rng.choice(BREAKING_MUTATIONS).format(v=v, x="extra")
    lines = [f'def {name}({v}: "{kind}", key, extra):',
             f"    sort({v}.begin(), {v}.end())",
             f"    {mutation}"] + _lookup_tail(v)
    # The mutation destroys sortedness: the find rewrite must be refused.
    # A sqlite sort still moves to the backend's own sort.
    rewrites = [(1, "sort", "backend_sort")] if kind == "sqlite" else []
    return Shape(lines, rewrites=rewrites, refused=[(3, "find")])


def _sqlite_find(rng: random.Random, name: str, sort_first: bool) -> Shape:
    s = rng.choice(("s", "store", "rows"))
    if sort_first:
        lines = [f'def {name}({s}: "sqlite", key):',
                 f"    sort({s}.begin(), {s}.end())"] + _lookup_tail(s)
        return Shape(lines, findings=[(2, "sorted-linear-find")],
                     rewrites=[(1, "sort", "backend_sort"),
                               (2, "find", "indexed_find")])
    # Unsorted: the scan stays a scan.
    lines = [f'def {name}({s}: "sqlite", key):'] + _lookup_tail(s)
    return Shape(lines, refused=[(1, "find")])


def _chain(rng: random.Random, name: str, mutating: bool,
           depth: int) -> Shape:
    helpers = [f"{name}_h{i}" for i in range(depth)]
    lines: list[str] = []
    for i, h in enumerate(helpers):
        if i + 1 < depth:
            body = f"    return {helpers[i + 1]}(v, it)"
        elif mutating:
            body = "    v.erase(it)"
        else:
            body = "    return v.size()"
        lines += [f"def {h}(v, it):", body, "", ""]
    kind = rng.choice(RAM_KINDS)
    start = len(lines)
    lines += [f'def {name}(v: "{kind}"):', "    it = v.begin()",
              f"    {helpers[0]}(v, it)", "    return it.deref()"]
    # The bottom helper erases the caller's iterator: the dereference
    # after the call is of a singular iterator, whatever the depth.
    findings = [(start + 3, "singular-deref")] if mutating else []
    return Shape(lines, findings=findings)


def generate_project(seed: int, index: int = 0,
                     files: int = FILES_PER_PROJECT) -> dict:
    """The ``index``-th project of a seed: ``files`` modules and their
    answer key.

    Returns ``{"files": {relpath: source}, "key": {relpath: {...}}}``
    where each key entry lists the expected findings as ``[line,
    check]``, the expected rewrites as ``[line, call, replacement]`` and
    the sites whose rewrite must be refused as ``[line, call]``.
    """
    rng = random.Random(f"analyze-cold:{seed}:{index}")
    out: dict = {"files": {}, "key": {}}
    for i in range(files):
        rel = f"pkg{i % 4}/mod_{i:03d}.py"
        slots = list(SHAPE_MIX)
        rng.shuffle(slots)
        lines = [f'"""Generated module {i} of project {index}."""', "", ""]
        key = {"findings": [], "rewrites": [], "refused": []}
        loops = list(SCAN_LOOPS)
        depth = rng.randint(1, CHAIN_DEPTHS - 1)
        shapes = {
            "scan": lambda name: _scan(rng, name, loops.pop()),
            "fig4": lambda name: _fig4(rng, name),
            "sort_find": lambda name: _sort_find(rng, name),
            "sort_mutate_find": lambda name: _sort_mutate_find(rng, name),
            "sqlite_find": lambda name: _sqlite_find(rng, name, i % 2 == 0),
            "chain": lambda name: _chain(rng, name, True, depth),
            "clean_chain": lambda name: _chain(
                rng, name, False, CHAIN_DEPTHS - depth),
        }
        for j, shape_name in enumerate(slots):
            shape = shapes[shape_name](f"{shape_name}_{i}_{j}")
            base = len(lines) + 1          # 1-based line of shape line 0
            key["findings"] += [[base + d, c] for d, c in shape.findings]
            key["rewrites"] += [[base + d, c, r] for d, c, r in shape.rewrites]
            key["refused"] += [[base + d, c] for d, c in shape.refused]
            lines += shape.lines + ["", ""]
        for k in key.values():
            k.sort()
        out["files"][rel] = "\n".join(lines).rstrip() + "\n"
        out["key"][rel] = key
    return out


# ---------------------------------------------------------------------------
# lint-edit: a seeded script of one-file edits over a source tree
# ---------------------------------------------------------------------------

EDIT_SCRIPT_LENGTH = 400
#: Fixed cycle of edit classes, so every seed has the same hub/leaf and
#: kind mix and only the chosen files and texts vary.
EDIT_CYCLE = (("leaf", "comment"), ("hub", "comment"),
              ("leaf", "add_function"), ("leaf", "revert"),
              ("hub", "revert"), ("leaf", "comment"),
              ("hub", "add_function"), ("leaf", "revert"))


def classify_modules(sources: dict[str, str], package: str = "repro",
                     hubs: int = 4) -> dict:
    """Split a package's modules into hubs (most imported by other
    modules) and leaves (imported by none).

    ``sources`` maps posix paths relative to the package directory
    (``pkg/mod.py``) to text.  An import names a module when it spells
    any dotted suffix of the module's path (``repro.lint.cli``,
    ``lint.cli`` or ``cli``), the same over-approximation the
    analysis cache's dependency tracking documents, so a leaf edit
    re-analyzes one file and a hub edit re-analyzes its importers."""
    modules: dict[str, set[str]] = {}
    for rel in sources:
        parts = [package] + rel[:-3].split("/")
        if parts[-1] == "__init__":
            parts = parts[:-1]
        for n in range(1, len(parts) + 1):
            modules.setdefault(".".join(parts[-n:]), set()).add(rel)
    importers: dict[str, set] = {rel: set() for rel in sources}
    for rel, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [base] + [f"{base}.{a.name}" if base else a.name
                                  for a in node.names]
            for name in names:
                for hit in modules.get(name, ()):
                    if hit != rel:
                        importers[hit].add(rel)
    ranked = sorted(sources, key=lambda r: (-len(importers[r]), r))
    hub_list = [r for r in ranked[:hubs] if importers[r]]
    leaf_list = sorted(r for r in sources if not importers[r])
    return {"hubs": hub_list, "leaves": leaf_list}


def planted_function(tag: int) -> str:
    """A lintable function with a planted Fig. 4 bug, appended by an
    ``add_function`` edit."""
    return (
        f'\n\ndef _perfbench_edit_{tag}(xs: "vector", out: "vector"):\n'
        "    it = xs.begin()\n"
        "    while not it.equals(xs.end()):\n"
        "        if it.deref() < 0:\n"
        "            out.push_back(it.deref())\n"
        "            xs.erase(it)\n"
        "        else:\n"
        "            it.increment()\n"
    )


def generate_edit_script(seed: int, modules: dict,
                         length: int = EDIT_SCRIPT_LENGTH) -> list[dict]:
    """The edit script for ``lint-edit``: a list of one-file edits.

    ``modules`` is :func:`classify_modules` output.  An edit is
    ``{"file": rel, "kind": "comment"|"add_function"|"revert", "text":
    str}``; ``text`` is appended to the file's current content (empty
    for a revert, which restores the original).  A revert restores a
    random still-modified file of its class, or degrades to a comment
    edit when there is none.  Hub edits visit the hubs round-robin in a
    seeded order, so every seed spreads its expensive edits over the
    same hubs.
    """
    rng = random.Random(f"lint-edit:{seed}")
    hubs = rng.sample(modules["hubs"], len(modules["hubs"]))
    hub_edits = 0
    dirty: dict[str, list[str]] = {"hub": [], "leaf": []}
    script = []
    for i in range(length):
        klass, kind = EDIT_CYCLE[i % len(EDIT_CYCLE)]
        if kind == "revert" and dirty[klass]:
            rel = dirty[klass].pop(rng.randrange(len(dirty[klass])))
            script.append({"file": rel, "kind": "revert", "text": ""})
            continue
        if kind == "revert":
            kind = "comment"
        if klass == "hub":
            rel = hubs[hub_edits % len(hubs)]
            hub_edits += 1
        else:
            rel = rng.choice(modules["leaves"])
        if kind == "comment":
            text = f"\n# edit {i}: {rng.getrandbits(32):08x}\n"
        else:
            text = planted_function(i)
        if rel not in dirty[klass]:
            dirty[klass].append(rel)
        script.append({"file": rel, "kind": kind, "text": text})
    return script


# ---------------------------------------------------------------------------
# containers: a pool of containers and a stream of generic-algorithm calls
# ---------------------------------------------------------------------------

CONTAINER_KINDS = ("Vector", "Deque", "DList", "ContiguousVector",
                   "SqliteSequence")
#: Sizes per kind: one container per ladder rung.  Seeds vary the
#: values and the call stream, not the working set.
SIZE_LADDER = (16, 24, 48, 96, 192, 384, 768, 1000)
SIZE_SLACK = 3
#: The calls that only read; the others (push_back, insert, erase, set,
#: sort) write.
READS = ("find_in", "accumulate", "copy_into", "lower_bound",
         "indexed_find")
#: The call cycle every container runs through: 24 reads and 16
#: writes, growth (push_back, insert) and shrinkage (erase) balanced,
#: and each sort followed by reads that need the sorted order
#: (``indexed_find`` is a ``lower_bound`` on containers without a value
#: index).
SCHEDULE = (
    "find_in", "accumulate", "push_back", "find_in", "erase",
    "copy_into", "set", "find_in", "accumulate", "insert",
    "sort", "lower_bound", "indexed_find", "find_in", "lower_bound",
    "erase", "find_in", "accumulate", "push_back", "set",
    "find_in", "accumulate", "erase", "insert", "find_in",
    "sort", "lower_bound", "indexed_find", "find_in", "lower_bound",
    "erase", "accumulate", "copy_into", "push_back", "erase",
    "find_in", "accumulate", "insert", "find_in", "erase",
)
VALUE_RANGE = 5000


def generate_pool(seed: int) -> list[dict]:
    """The container pool: ``[{"kind": name, "items": [int, ...]}]``."""
    rng = random.Random(f"containers-pool:{seed}")
    return [
        {"kind": kind,
         "items": [rng.randrange(VALUE_RANGE) for _ in range(size)]}
        for kind in CONTAINER_KINDS for size in SIZE_LADDER
    ]


class OpStream:
    """Endless seeded stream of container operations, in blocks of one
    call per container.

    Each container runs through :data:`SCHEDULE`, one step per block,
    from a phase drawn anew every ``len(SCHEDULE)`` blocks.  The phases
    are a permutation, so every block holds every step exactly once and
    every seed has the same mix, while which calls share a block varies
    from cycle to cycle.  Seeds choose the phases, the values and the
    positions.  The stream keeps a plain-list model of every container so that
    positions are in range, sizes stay within ``SIZE_SLACK`` of their
    initial size (a growing write on a grown container becomes an erase,
    a shrinking one on a shrunk container a push_back), and sorted-only
    reads on a container not sorted since its last write become
    ``find_in``.  An op is ``(name, container_index, arg)`` where ``arg``
    is a value, a position, or ``(position, value)``."""

    def __init__(self, seed: int, pool: list[dict]) -> None:
        if len(pool) != len(SCHEDULE):
            raise ValueError("one container per schedule step is needed")
        self._rng = random.Random(f"containers-ops:{seed}")
        self._base = [len(c["items"]) for c in pool]
        self._kinds = [c["kind"] for c in pool]
        self._sorted = [False] * len(pool)
        self._values = [list(c["items"]) for c in pool]
        self._issued = 0

    def __iter__(self):
        return self

    def __next__(self) -> tuple:
        rng = self._rng
        block, i = divmod(self._issued, len(self._base))
        self._issued += 1
        step = block % len(SCHEDULE)
        if i == 0 and step == 0:
            self._phase = rng.sample(range(len(SCHEDULE)), len(SCHEDULE))
        op = SCHEDULE[(self._phase[i] + step) % len(SCHEDULE)]
        vals = self._values[i]
        size = len(vals)
        if op == "indexed_find" and self._kinds[i] != "SqliteSequence":
            op = "lower_bound"
        if op in ("lower_bound", "indexed_find") and not self._sorted[i]:
            op = "find_in"
        if op in ("push_back", "insert") and size >= self._base[i] + SIZE_SLACK:
            op = "erase"
        elif op == "erase" and size <= self._base[i] - SIZE_SLACK:
            op = "push_back"
        if op in ("find_in", "lower_bound", "indexed_find"):
            # Half the lookups hit a present value, half probe at random.
            if rng.random() < 0.5:
                arg = vals[rng.randrange(size)]
            else:
                arg = rng.randrange(VALUE_RANGE)
        elif op in ("accumulate", "copy_into", "sort"):
            arg = None
        elif op == "push_back":
            arg = rng.randrange(VALUE_RANGE)
        elif op == "erase":
            arg = rng.randrange(size)
        else:                                   # insert, set
            pos = rng.randrange(size + (op == "insert"))
            arg = (pos, rng.randrange(VALUE_RANGE))
        self._advance(i, op, arg)
        return op, i, arg

    def _advance(self, i: int, op: str, arg) -> None:
        vals = self._values[i]
        if op == "push_back":
            vals.append(arg)
        elif op == "insert":
            vals.insert(arg[0], arg[1])
        elif op == "erase":
            del vals[arg]
        elif op == "set":
            vals[arg[0]] = arg[1]
        elif op == "sort":
            vals.sort()
            self._sorted[i] = True
            return
        else:
            return
        self._sorted[i] = False


# ---------------------------------------------------------------------------
# replog: seeded, validate()-clean fault plans for the replicated log
# ---------------------------------------------------------------------------

REPLICAS = 64
LOSS = 0.05


def generate_replog_run(seed: int, index: int, n: int = REPLICAS) -> dict:
    """Inputs for the ``index``-th replicated-log run of a seed: the
    proposals and a fault plan description with loss, one partition of
    an eighth of the replicas that later heals, and one churned replica
    (down, then back with state loss, while the log is replicating)."""
    rng = random.Random(f"replog:{seed}:{index}")
    churned = rng.randrange(1, n)
    down = round(rng.uniform(1.0, 6.0), 3)
    up = round(down + rng.uniform(8.0, 16.0), 3)
    others = [r for r in range(1, n) if r != churned]
    minority = sorted(rng.sample(others, n // 8))
    split = round(rng.uniform(4.0, 10.0), 3)
    healed = round(split + rng.uniform(8.0, 20.0), 3)
    proposers = rng.sample(range(n), 3)
    proposals = {
        proposers[0]: ["a", "b"],
        proposers[1]: ["c"],
        proposers[2]: ["d", "e"],
    }
    return {
        "n": n,
        "sim_seed": rng.randrange(1 << 30),
        "proposals": {str(r): cmds for r, cmds in sorted(proposals.items())},
        "loss": LOSS,
        "plan_seed": rng.randrange(1 << 30),
        "churn": {"rank": churned, "down": down, "up": up},
        "partition": {"at": split, "heal": healed, "minority": minority},
    }


def canonical(obj) -> bytes:
    """Canonical bytes of a generated input (for identity checks)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
