"""Experiment T-backends: storage-backend split pays where it claims to.

The split puts three representations behind one concept-checked container
interface (PR "storage-backend split"); this bench asserts the two shape
claims that justify it:

- **indexed wins on persistent storage**: ``indexed_find`` on a sorted
  :class:`~repro.sequences.backends.sqlite_store.SqliteSequence` must be
  at least ``MIN_INDEXED_SPEEDUP``x faster than the linear iterator scan
  at ``N_SQLITE`` elements — the asymmetry the io-weighted taxonomy
  selection (``find`` → ``indexed_find``) is built on.  Round-trip
  counters are asserted too: the scan reads the sequence in ``walk``'s
  doubling chunks, so it pays exactly the trips that schedule needs to
  reach the probe (about probe / ``WALK_CHUNK_CAP``); the indexed path
  pays one, total.
- **the engine answers unsorted reads**: ``find_in`` and ``accumulate``
  on an unsorted ``N_ENGINE``-element sqlite sequence each make exactly
  one round trip (a value-index probe, one ``SUM``), timed against the
  range scans they replace: ``find`` over the same range, and the walk
  summed in Python.  The gate is the round-trip count, not the timing.
- **contiguity is not a tax**: a sequential sweep over a
  :class:`~repro.sequences.backends.contiguous.ContiguousVector` (one
  ``array`` block) must stay within ``MAX_CONTIG_RATIO``x of the plain
  list-backed :class:`~repro.sequences.Vector` — same façade, same
  iterators, only the store differs.

Standalone mode (used by the CI bench-smoke job)::

    PYTHONPATH=src python benchmarks/bench_backends.py --quick

prints the table, writes ``benchmarks/out/backends.json``, and exits
nonzero if any gate is missed.
"""

import json
import pathlib
import sys
import timeit

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

MIN_INDEXED_SPEEDUP = 10.0
MAX_CONTIG_RATIO = 2.0
#: The indexed-vs-scan gate is pinned at this size (the ISSUE's n=10k).
N_SQLITE = 10_000
#: The engine-read gate's size: the containers workload's largest.
N_ENGINE = 1000
OUT_JSON = pathlib.Path(__file__).parent / "out" / "backends.json"


def _time_per_call(fn, iterations: int, repeat: int = 3) -> float:
    return min(
        timeit.repeat(fn, number=iterations, repeat=repeat)
    ) / iterations


def _schedule_trips(upto: int) -> int:
    """Bulk reads ``walk`` makes from position 0 to reach ``upto``."""
    from repro.sequences.iterators import WALK_CHUNK_CAP, WALK_CHUNK_FIRST

    trips, covered, size = 0, 0, WALK_CHUNK_FIRST
    while covered <= upto:
        covered += size
        trips += 1
        size = min(size * 2, WALK_CHUNK_CAP)
    return trips


def _measure_indexed_vs_scan(scan_iters: int, indexed_iters: int) -> dict:
    """find (iterator scan) vs indexed_find on one sorted sqlite
    sequence, plus the round-trip counters behind the wall-clock gap."""
    from repro.sequences.algorithms import find, indexed_find
    from repro.sequences.backends import SqliteSequence

    s = SqliteSequence(range(N_SQLITE))
    s.assert_fact("sorted")
    probe = N_SQLITE // 2

    store = s.storage()
    before = store.roundtrips
    assert indexed_find(s, probe).deref() == probe
    indexed_trips = store.roundtrips - before - 1   # minus the deref

    before = store.roundtrips
    assert find(s.begin(), s.end(), probe).deref() == probe
    scan_trips = store.roundtrips - before - 1

    t_indexed = _time_per_call(lambda: indexed_find(s, probe),
                               indexed_iters)
    t_scan = _time_per_call(lambda: find(s.begin(), s.end(), probe),
                            scan_iters)
    return {
        "n": N_SQLITE,
        "probe": probe,
        "indexed_us": t_indexed * 1e6,
        "scan_us": t_scan * 1e6,
        "speedup": t_scan / t_indexed,
        "indexed_roundtrips": indexed_trips,
        "scan_roundtrips": scan_trips,
        "scan_schedule_roundtrips": _schedule_trips(probe),
        "min_speedup": MIN_INDEXED_SPEEDUP,
        "ok": (t_scan / t_indexed >= MIN_INDEXED_SPEEDUP
               and indexed_trips == 1
               and scan_trips == _schedule_trips(probe)),
    }


def _measure_engine_reads(iters: int) -> dict:
    """find_in and accumulate on one unsorted sqlite sequence, answered
    in the engine, against the range scans: ``find`` over the same range
    and the walk summed in Python.  Round trips exclude the deref."""
    import random

    from repro.sequences.algorithms import accumulate, find, find_in
    from repro.sequences.backends import SqliteSequence
    from repro.sequences.iterators import python_range

    xs = list(range(N_ENGINE))
    random.Random(N_ENGINE).shuffle(xs)
    s = SqliteSequence(xs)
    probe = xs[N_ENGINE // 2]
    store = s.storage()

    def trips(fn):
        before = store.roundtrips
        fn()
        return store.roundtrips - before

    find_trips = trips(lambda: find_in(s, probe).index)
    acc_trips = trips(lambda: accumulate(s.begin(), s.end(), 0))
    assert find_in(s, probe).index == N_ENGINE // 2
    assert accumulate(s.begin(), s.end(), 0) == sum(xs)
    times = {
        "find_in_us": lambda: find_in(s, probe),
        "find_scan_us": lambda: find(s.begin(), s.end(), probe),
        "accumulate_us": lambda: accumulate(s.begin(), s.end(), 0),
        "accumulate_scan_us": lambda: sum(python_range(s.begin(), s.end())),
    }
    out = {key: _time_per_call(fn, iters) * 1e6 for key, fn in times.items()}
    s.close()
    return {
        "n": N_ENGINE,
        **out,
        "find_in_roundtrips": find_trips,
        "accumulate_roundtrips": acc_trips,
        "ok": find_trips == 1 and acc_trips == 1,
    }


def _measure_sweep(n: int, repeat: int = 5) -> dict:
    """One full sequential iterator sweep, list-backed vs contiguous."""
    from repro.sequences import Vector
    from repro.sequences.backends import ContiguousVector

    expected = (n - 1) * n // 2

    def sweep(container):
        total = 0
        it, end = container.begin(), container.end()
        while not it.equals(end):
            total += it.deref()
            it.increment()
        assert total == expected
        return total

    v = Vector(range(n))
    c = ContiguousVector(range(n))
    t_vector = min(timeit.repeat(lambda: sweep(v), number=1, repeat=repeat))
    t_contig = min(timeit.repeat(lambda: sweep(c), number=1, repeat=repeat))
    ratio = t_contig / t_vector
    return {
        "n": n,
        "vector_ms": t_vector * 1e3,
        "contig_ms": t_contig * 1e3,
        "ratio": ratio,
        "max_ratio": MAX_CONTIG_RATIO,
        "ok": ratio <= MAX_CONTIG_RATIO,
    }


def _measure(quick: bool) -> dict:
    indexed = _measure_indexed_vs_scan(
        scan_iters=2 if quick else 5,
        indexed_iters=50 if quick else 500,
    )
    engine = _measure_engine_reads(iters=20 if quick else 200)
    sweep = _measure_sweep(n=10_000 if quick else 50_000)
    return {
        "indexed_vs_scan": indexed,
        "engine_reads": engine,
        "sequential_sweep": sweep,
        "ok": indexed["ok"] and engine["ok"] and sweep["ok"],
    }


def _render(m: dict) -> str:
    ix = m["indexed_vs_scan"]
    en = m["engine_reads"]
    sw = m["sequential_sweep"]
    return "\n".join([
        f"indexed find vs scan on sorted sqlite, n={ix['n']}:",
        f"  {'iterator scan':<24s} {ix['scan_us']:>12.1f}us  "
        f"({ix['scan_roundtrips']} round trips)",
        f"  {'indexed_find':<24s} {ix['indexed_us']:>12.1f}us  "
        f"({ix['indexed_roundtrips']} round trip)",
        f"  speedup: {ix['speedup']:.1f}x "
        f"(floor {ix['min_speedup']:.0f}x) "
        f"{'OK' if ix['ok'] else 'FAIL'}",
        f"engine reads vs range scans on unsorted sqlite, n={en['n']}:",
        f"  {'find (range scan)':<24s} {en['find_scan_us']:>12.1f}us",
        f"  {'find_in (value index)':<24s} {en['find_in_us']:>12.1f}us  "
        f"({en['find_in_roundtrips']} round trip)",
        f"  {'walk + sum':<24s} {en['accumulate_scan_us']:>12.1f}us",
        f"  {'accumulate (SUM)':<24s} {en['accumulate_us']:>12.1f}us  "
        f"({en['accumulate_roundtrips']} round trip)",
        f"  one round trip each: {'OK' if en['ok'] else 'FAIL'}",
        f"sequential sweep, n={sw['n']}:",
        f"  {'Vector (list store)':<24s} {sw['vector_ms']:>12.2f}ms",
        f"  {'ContiguousVector':<24s} {sw['contig_ms']:>12.2f}ms",
        f"  ratio: {sw['ratio']:.2f}x (ceiling {sw['max_ratio']:.0f}x) "
        f"{'OK' if sw['ok'] else 'FAIL'}",
    ])


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_indexed_find_beats_scan(benchmark, record):
    m = _measure_indexed_vs_scan(scan_iters=2, indexed_iters=50)
    record("backends_indexed", _render({
        "indexed_vs_scan": m,
        "engine_reads": _measure_engine_reads(iters=20),
        "sequential_sweep": _measure_sweep(n=10_000),
    }))
    assert m["indexed_roundtrips"] == 1, m
    assert m["scan_roundtrips"] == m["scan_schedule_roundtrips"], m
    assert m["speedup"] >= MIN_INDEXED_SPEEDUP, (
        f"indexed_find only {m['speedup']:.1f}x faster than the scan; "
        f"floor is {MIN_INDEXED_SPEEDUP}x"
    )
    from repro.sequences.algorithms import indexed_find
    from repro.sequences.backends import SqliteSequence

    s = SqliteSequence(range(1000))
    s.assert_fact("sorted")
    benchmark(lambda: indexed_find(s, 500))


def test_engine_reads_take_one_round_trip(benchmark):
    m = _measure_engine_reads(iters=20)
    assert m["find_in_roundtrips"] == 1, m
    assert m["accumulate_roundtrips"] == 1, m
    from repro.sequences.algorithms import accumulate
    from repro.sequences.backends import SqliteSequence

    s = SqliteSequence(range(N_ENGINE))
    benchmark(lambda: accumulate(s.begin(), s.end(), 0))


def test_contiguous_sweep_within_ratio(benchmark):
    m = _measure_sweep(n=10_000)
    assert m["ok"], (
        f"contiguous sweep {m['ratio']:.2f}x the list-backed Vector; "
        f"ceiling is {MAX_CONTIG_RATIO}x"
    )
    from repro.sequences.backends import ContiguousVector

    c = ContiguousVector(range(100))
    benchmark(lambda: c.to_list())


# ---------------------------------------------------------------------------
# standalone mode (CI bench-smoke job)
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer iterations (CI smoke mode)")
    parser.add_argument("--json", type=pathlib.Path, default=OUT_JSON,
                        help=f"stats JSON output path (default {OUT_JSON})")
    args = parser.parse_args(argv)

    m = _measure(quick=args.quick)
    print(_render(m))
    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(m, indent=2, default=str) + "\n")
    print(f"stats written to {args.json}")
    if not m["indexed_vs_scan"]["ok"]:
        print(
            f"FAIL: indexed_find only "
            f"{m['indexed_vs_scan']['speedup']:.1f}x faster than the "
            f"scan (floor {MIN_INDEXED_SPEEDUP:.0f}x), or round-trip "
            f"counts off"
        )
        return 1
    if not m["engine_reads"]["ok"]:
        print(
            f"FAIL: find_in made {m['engine_reads']['find_in_roundtrips']} "
            f"and accumulate {m['engine_reads']['accumulate_roundtrips']} "
            f"round trips on unsorted sqlite, not one each"
        )
        return 1
    if not m["sequential_sweep"]["ok"]:
        print(
            f"FAIL: contiguous sweep {m['sequential_sweep']['ratio']:.2f}x "
            f"the list-backed Vector (ceiling {MAX_CONTIG_RATIO:.0f}x)"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
