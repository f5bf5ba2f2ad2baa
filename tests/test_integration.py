"""Integration tests: flows that cross system boundaries.

The paper's thesis is that ONE mechanism (concepts) unifies checking,
optimization, verification, and library organization.  These tests make a
single artifact travel through several systems and assert the systems
agree with each other.
"""

import numpy as np
import pytest

from repro.concepts import (
    ArchetypeViolation,
    GenericFunction,
    exercise,
    models,
    parse_concept,
    where,
)
from repro.concepts.algebra import AlgebraicStructure, AlgebraRegistry, Group
from repro.concepts.complexity import fits, linear, linearithmic


class TestOneTypeThroughEverySystem:
    """Declare GF(13) addition once; watch four systems pick it up."""

    def setup_method(self):
        class Gf13(int):
            def __new__(cls, v):
                return super().__new__(cls, v % 13)

        self.Gf13 = Gf13
        self.reg = AlgebraRegistry()
        self.reg.declare(AlgebraicStructure(
            Gf13, "+", Group, lambda a, b: Gf13(a + b),
            identity_value=Gf13(0), inverse=lambda a: Gf13(-a),
            samples=((Gf13(3), Gf13(11), Gf13(12)), (Gf13(0), Gf13(1), Gf13(7))),
        ))

    def test_simplicissimus_picks_it_up(self):
        from repro.simplicissimus import BinOp, Const, Inverse, Simplifier, Var

        s = Simplifier(registry=self.reg)
        x = Var("x")
        assert s.simplify(BinOp("+", x, Const(self.Gf13(0))),
                          {"x": self.Gf13}).expr == x
        assert s.simplify(BinOp("+", x, Inverse(x, "+")),
                          {"x": self.Gf13}).expr == Const(self.Gf13(0))

    def test_athena_proves_its_theorems(self):
        from repro.athena import instantiate_group_proofs

        report = instantiate_group_proofs(self.reg.lookup(self.Gf13, "+"))
        assert report.empirical_ok
        assert "left inverse" in report.theorems

    def test_parallel_reduce_accepts_it(self):
        from repro.parallel.parray import ParallelArray
        from repro.parallel import Machine

        values = [self.Gf13(v) for v in (5, 9, 12, 4)]
        pa = ParallelArray(np.array(values, dtype=object), Machine(),
                           registry=self.reg)
        # dtype=object arrays take the registry fold path.
        total = pa.reduce("+", unsafe=False) if \
            self.reg.lookup(object, "+") else None
        # The element-type probe for object arrays is `object`; declare at
        # that level for the collective, mirroring what a library would do:
        self.reg.declare(AlgebraicStructure(
            object, "+", Group,
            self.reg.lookup(self.Gf13, "+").apply,
            identity_value=self.Gf13(0),
            inverse=self.reg.lookup(self.Gf13, "+").inverse,
        ), check_axioms=False)
        total = ParallelArray(np.array(values, dtype=object), Machine(),
                              registry=self.reg).reduce("+")
        assert total == self.Gf13(5 + 9 + 12 + 4)

    def test_mini_mpi_allreduce_accepts_it(self):
        from repro.parallel import run_spmd

        Gf13, reg = self.Gf13, self.reg

        def program(comm):
            return comm.allreduce(Gf13(comm.rank + 10), op="+")

        res = run_spmd(program, size=4, registry=reg)
        assert res.returns[0] == Gf13(10 + 11 + 12 + 13)


class TestDslToDispatchToArchetype:
    """A concept written in the DSL drives overloading AND archetype
    verification of the overload bodies."""

    def test_pipeline(self):
        Streamy = parse_concept("""
concept Streamy<S> {
    method read(S)
}
""")
        Seeky = parse_concept("""
concept Seeky<S> refines Streamy<S> {
    method seek(S, int)
}
""", env={"Streamy": Streamy})

        fetch = GenericFunction("fetch")

        @fetch.overload(requires=[(Streamy, 0)])
        def fetch_stream(s):
            return ("scan", s.read())

        @fetch.overload(requires=[(Seeky, 0)])
        def fetch_seek(s):
            s.seek(42)
            return ("jump", s.read())

        class Tape:
            def read(self):
                return "data"

        class Disk(Tape):
            def seek(self, pos):
                pass

        assert fetch(Tape())[0] == "scan"
        assert fetch(Disk())[0] == "jump"

        # Archetype check: fetch_stream stays within Streamy's budget...
        assert exercise(fetch_stream, Streamy, lambda a: [a.instance("S")])
        # ...but fetch_seek does not (it needs Seeky), and the archetype
        # catches exactly that.
        with pytest.raises(ArchetypeViolation):
            exercise(fetch_seek, Streamy, lambda a: [a.instance("S")])
        assert exercise(fetch_seek, Seeky, lambda a: [a.instance("S")])


class TestStllintAdviceIsExecutable:
    """The optimizer suggestion names a real algorithm that really works on
    the real containers and really is asymptotically better."""

    def test_suggestion_to_measurement(self):
        import timeit

        from repro.sequences import Vector
        from repro.sequences.algorithms import find, lower_bound, sort
        from repro.stllint import MSG_SORTED_LINEAR_FIND, check_source

        report = check_source('''
def f(v: "vector"):
    sort(v.begin(), v.end())
    i = find(v.begin(), v.end(), 42)
''')
        suggestion = [d for d in report.suggestions
                      if d.message == MSG_SORTED_LINEAR_FIND]
        assert suggestion and "lower_bound" in suggestion[0].message
        # Apply it on a real container; both find the element.
        v = Vector(range(4096))
        assert find(v.begin(), v.end(), 4095).deref() == 4095
        assert lower_bound(v.begin(), v.end(), 4095).deref() == 4095
        t_find = min(timeit.repeat(
            lambda: find(v.begin(), v.end(), 4095), number=2, repeat=3))
        t_lb = min(timeit.repeat(
            lambda: lower_bound(v.begin(), v.end(), 4095), number=2, repeat=3))
        assert t_lb < t_find


class TestTaxonomyGuaranteesMatchMeasurement:
    """Complexity guarantees in the taxonomy fit actual measurements
    (validated with the big-O algebra's empirical `fits` check)."""

    def test_chang_roberts_messages_fit_quadratic(self):
        from repro.concepts.complexity import parse
        from repro.distributed.algorithms import run_chang_roberts, worst_case_ids

        data = []
        for n in (16, 32, 64, 128):
            m = run_chang_roberts(n, ids=worst_case_ids(n))
            data.append(({"n": n}, float(m.messages_sent)))
        assert fits(parse("n^2"), data, tolerance=2.5)
        assert not fits(parse("n"), data, tolerance=2.5)

    def test_echo_messages_fit_linear_in_links(self):
        from repro.concepts.complexity import parse
        from repro.distributed import Grid
        from repro.distributed.algorithms import run_echo

        data = []
        for k in (3, 5, 8, 12):
            topo = Grid(k, k)
            m = run_echo(topo)
            data.append(({"m": topo.num_links()}, float(m.messages_sent)))
        assert fits(parse("m"), data, tolerance=1.2)

    def test_hs_fits_nlogn_not_quadratic(self):
        from repro.concepts.complexity import parse
        from repro.distributed.algorithms import (
            run_hirschberg_sinclair,
            worst_case_ids,
        )

        data = []
        for n in (16, 32, 64, 128, 256):
            m = run_hirschberg_sinclair(n, ids=worst_case_ids(n))
            data.append(({"n": n}, float(m.messages_sent)))
        assert fits(parse("n log n"), data, tolerance=2.0)
        assert not fits(parse("n^2"), data, tolerance=2.0)


class TestWherePlusSubstrates:
    """@where constraints compose with the real substrates."""

    def test_where_guards_a_user_pipeline(self):
        from repro.concepts import ConceptCheckError
        from repro.concepts.builtins import RandomAccessContainer, SortedRange
        from repro.sequences import DList, TreeMap, Vector
        from repro.sequences.algorithms import binary_search

        @where(sorted_data=SortedRange)
        def lookup(sorted_data, needle):
            return binary_search(sorted_data.begin(), sorted_data.end(), needle)

        t = TreeMap([5, 1, 9])
        assert lookup(t, 5)
        assert not lookup(t, 2)
        # A plain Vector may be unsorted: the nominal SortedRange constraint
        # rejects it at the call boundary.
        with pytest.raises(ConceptCheckError):
            lookup(Vector([3, 1]), 1)
