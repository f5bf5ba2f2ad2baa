"""Experiment T-overload: concept-based overloading of sort (Section 2.1).

"If they can only be accessed linearly (as with a linked list) we might
select a default algorithm, but if they can be accessed efficiently via
indexing (as with an array) we can apply the more-efficient quicksort
algorithm."

Shapes asserted: the dispatcher picks quicksort for Vector/Deque and the
linear merge sort for DList with no call-site change; dispatch itself is
cheap (cached); and quicksort-on-vector beats merge-sort-on-vector for
large n (the reason overloading matters).
"""

import random

import pytest

from repro.sequences import Deque, DList, Vector
from repro.sequences.algorithms import _sort_linear, is_sorted, sort
from repro.sequences.function_objects import Less


def _data(n, seed=0):
    rng = random.Random(seed)
    return [rng.randrange(10 * n) for _ in range(n)]


def test_dispatch_choices(benchmark, record):
    rows = ["container        chosen overload"]
    for cls in (Vector, Deque, DList):
        chosen = sort.resolve((cls,)).name
        rows.append(f"{cls.__name__:16s} {chosen}")
    record("overload_sort_dispatch", "\n".join(rows))
    assert "quicksort" in sort.resolve((Vector,)).name
    assert "quicksort" in sort.resolve((Deque,)).name
    assert "merge sort" in sort.resolve((DList,)).name
    benchmark(lambda: sort.resolve((Vector,)))


@pytest.mark.parametrize("n", [1_000, 10_000])
def test_sort_vector_via_dispatch(benchmark, n):
    data = _data(n)

    def run():
        v = Vector(data)
        sort(v)
        return v

    v = benchmark(run)
    assert is_sorted(v.begin(), v.end())


@pytest.mark.parametrize("n", [1_000, 10_000])
def test_sort_dlist_via_dispatch(benchmark, n):
    data = _data(n)

    def run():
        l = DList(data)
        sort(l)
        return l

    l = benchmark(run)
    assert l.to_list() == sorted(data)


def test_quicksort_beats_linear_access_sort(benchmark, record):
    """The payoff of dispatching (Section 2.1): with *only* linear access
    and O(1) space, sorting is O(n^2) element moves (insertion sort through
    iterators); indexed access enables O(n log n) quicksort.  The gap grows
    with n — the asymptotic win concept-based overloading buys for free at
    every call site."""
    import timeit

    from repro.sequences.algorithms import insertion_sort_range

    # The default order on plain ints runs the interpreter's list.sort
    # (no comparison can be observed there); a fresh Less() is a custom
    # comparator, so the "quicksort" column times the Python quicksort.
    lines = [f"{'n':>7s} {'quicksort (indexed)':>20s} {'native':>8s} "
             f"{'insertion (linear)':>19s} {'speedup':>8s}"]
    speedups = {}
    for n in (500, 1_000, 2_000):
        data = _data(n, seed=7)
        t_qs = min(timeit.repeat(lambda: sort(Vector(data), Less()),
                                 number=1, repeat=3))
        t_native = min(timeit.repeat(lambda: sort(Vector(data)),
                                     number=1, repeat=3))
        def linear_run():
            v = Vector(data)
            insertion_sort_range(v.begin(), v.end())
            return v
        t_ins = min(timeit.repeat(linear_run, number=1, repeat=3))
        speedups[n] = t_ins / t_qs
        lines.append(f"{n:7d} {t_qs * 1e3:18.1f}ms {t_native * 1e3:6.2f}ms "
                     f"{t_ins * 1e3:17.1f}ms {speedups[n]:7.1f}x")
    record("overload_sort_payoff", "\n".join(lines))
    # correctness of both paths
    data = _data(1000, seed=7)
    v1, v2, v3 = Vector(data), Vector(data), Vector(data)
    sort(v1, Less())
    sort(v3)
    insertion_sort_range(v2.begin(), v2.end())
    assert v1.to_list() == v2.to_list() == v3.to_list() == sorted(data)
    # shape: quicksort wins and the gap grows with n
    assert speedups[2_000] > speedups[500] > 1.0
    benchmark(lambda: sort(Vector(_data(1000))))


def test_dispatch_overhead_is_cached(benchmark):
    v = Vector([3, 1, 2])
    sort(v)  # warm the cache

    def resolve():
        return sort.resolve((Vector,))

    assert benchmark(resolve) is not None


# ---------------------------------------------------------------------------
# standalone mode (CI bench-smoke job)
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    import argparse
    import timeit

    parser = argparse.ArgumentParser(
        description="overload-sort dispatch smoke check")
    parser.add_argument("--quick", action="store_true",
                        help="fewer iterations (CI smoke mode)")
    args = parser.parse_args(argv)

    choices = {cls.__name__: sort.resolve((cls,)).name
               for cls in (Vector, Deque, DList)}
    for name, chosen in choices.items():
        print(f"{name:16s} -> {chosen}")
    ok = ("quicksort" in choices["Vector"]
          and "quicksort" in choices["Deque"]
          and "merge sort" in choices["DList"])

    iters = 500 if args.quick else 5_000
    t = min(timeit.repeat(lambda: sort.resolve((Vector,)),
                          number=iters, repeat=5)) / iters
    print(f"cached resolve: {t * 1e6:.3f}us/op")

    data = _data(1_000)
    v = Vector(data)
    sort(v)
    ok = ok and v.to_list() == sorted(data)
    if not ok:
        print("FAIL: dispatch choices or sorted output wrong")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
