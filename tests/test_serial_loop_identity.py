"""The serial event loop's fast paths change cost, never results.

``FailurePlan.crashed``/``partitioned``/``link_dead`` short-circuit for
fault kinds a plan does not contain, the backoff jitter draw is
memoized and the simulator reuses one ``Context`` per rank.  These tests
pin what must not move:

- ``RunMetrics.as_comparable()`` digests of seeded runs (replicated
  log, reliable Echo, reliable FloodSet) over plans that mix crashes,
  churn, partition/heal, dead links, per-link loss and byzantine
  payloads, under all three timing models — recorded before the fast
  paths existed;
- the fault-plan queries against test-local copies of their original
  bodies, over generated plans, including plans mutated after
  construction and after they were already queried;
- one more digest at replog's benchmark shape (64 replicas), where
  stale retry timers and quorum sorts are common;
- the cheap ``Message`` keeps the frozen dataclass's contract, and the
  reliable transport's per-rank wrapper context follows churn recovery
  onto the fresh channel;
- the backoff formula and the bound on its cache;
- that a finished simulator is freed by reference counting alone (a
  simulator <-> context cycle would hold every process until the next
  cyclic collection, which shows up as peak RSS).
"""

from __future__ import annotations

import gc
import hashlib
import json
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import (
    Asynchronous,
    Complete,
    FailurePlan,
    FailurePlanError,
    Message,
    PartiallySynchronous,
    PartitionEvent,
    Process,
    ResilientFloodSet,
    Simulator,
    Synchronous,
    byzantine_lying_id,
    churn,
    crash,
    heal,
    partition,
    random_connected,
    run_echo_reliable,
    run_replicated_log,
    wrap_reliable,
)
from repro.distributed.algorithms.echo import Echo
from repro.resilience import ExponentialBackoff
from repro.resilience import policy as policy_module
from repro.trace import core as trace_core

N = 8


# ---------------------------------------------------------------------------
# Seeded runs and their recorded digests
# ---------------------------------------------------------------------------


def _mixed_plan() -> FailurePlan:
    """Every fault kind at once, declared up front."""
    plan = FailurePlan(
        crashes={7: 40.0},
        churn={2: [(3.0, 9.0)]},
        dead_links={(1, 3)},
        link_loss={(4, 0): 0.3},
        loss_probability=0.1,
        seed=11,
    )
    plan = partition(4.0, [{0, 1, 2}], plan=plan)
    plan = heal(12.0, plan=plan)
    return byzantine_lying_id(5, 99, plan=plan)


def _mutated_plan() -> FailurePlan:
    """A plan grown by the convenience mutators after construction,
    with two partitions in force one after the other."""
    plan = FailurePlan(loss_probability=0.15, seed=23)
    crash(6, at=25.0, plan=plan)
    churn(1, 2.0, 7.0, plan=plan)
    churn(1, 15.0, 18.0, plan=plan)
    partition(3.0, [{0, 3}, {4, 5, 6}], plan=plan)
    partition(8.0, [{1, 2, 7}], plan=plan)
    heal(14.0, plan=plan)
    plan.dead_links.add((2, 6))
    return plan


PLANS = {"mixed": _mixed_plan, "mutated": _mutated_plan}

TIMINGS = {
    "sync": Synchronous,
    "async": lambda: Asynchronous(max_delay=3.0, seed=4),
    "psync": lambda: PartiallySynchronous(bound=2.0, seed=4),
}


def _replog(timing, plan):
    return run_replicated_log(
        N, {0: ["a", "b"], 3: ["x"]}, failures=plan, timing=timing,
        seed=3, max_time=400, on_limit="truncate")


def _echo(timing, plan):
    return run_echo_reliable(random_connected(N, extra_edge_prob=0.3,
                                              seed=3),
                             timing=timing, failures=plan)


def _floodset(timing, plan):
    procs = [ResilientFloodSet(r, initial=10 + r, f=2) for r in range(N)]
    sim = Simulator(Complete(N), wrap_reliable(procs), timing=timing,
                    failures=plan, max_time=400, on_limit="truncate")
    return sim.run()


ALGORITHMS = {"replog": _replog, "echo": _echo, "floodset": _floodset}


def _plain(obj):
    if isinstance(obj, (set, frozenset)):
        return sorted(obj, key=repr)
    return repr(obj)


def digest(metrics) -> str:
    blob = json.dumps(metrics.as_comparable(), sort_keys=True,
                      default=_plain)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_case(algorithm: str, timing: str, plan: str):
    return ALGORITHMS[algorithm](TIMINGS[timing](), PLANS[plan]())


#: sha256 of ``as_comparable()`` per (algorithm, timing, plan), recorded
#: with the original per-event code paths.
EXPECTED = {
    ('replog', 'sync', 'mixed'):
        "1d408ac817820600e33fdf44e443be4c13316aa95f0676d89bbf9e69525422ac",
    ('replog', 'sync', 'mutated'):
        "8e9a45359845bf6e8b5ee28afe851d5a3f9924f33f4b951007c5a1b0c2f6b05f",
    ('replog', 'async', 'mixed'):
        "498e2a87b5f66ff33bd83a8d8d9d87f14a2d57a45ae70092a89a674e49a91b73",
    ('replog', 'async', 'mutated'):
        "42bfef89a88f0d9844212d3f0fb7cded8cb0036472e427fb0bd99e563aa9648d",
    ('replog', 'psync', 'mixed'):
        "b02b79115fd49beddda24a968c96902e33014660a650ad025076e436e11e03a2",
    ('replog', 'psync', 'mutated'):
        "b71af1051a25cd9ba622be030e087baf116db23e21647b2bb51186c0448af3ed",
    ('echo', 'sync', 'mixed'):
        "84f86bc024e2dce7932d67985b8220f1fe0c1db7855e88a18d394c50cebdceab",
    ('echo', 'sync', 'mutated'):
        "22b5303104eefa8d320c596dcd91ac30d53c9bc4e4ca6eef41192ca25601d472",
    ('echo', 'async', 'mixed'):
        "7e5831ef7b171cebb59a5fe8813dd4a5062fa5c2d7afa108b6b44f932e02b535",
    ('echo', 'async', 'mutated'):
        "c26fa07a7c8716977be799a8b09c8f4eb6fb4a301174cab081522919796bcb65",
    ('echo', 'psync', 'mixed'):
        "8347e3ed6a4dda485add67f6bf129eddb1d46c149f3ddf3e91a4a3fa45e846cf",
    ('echo', 'psync', 'mutated'):
        "4c7e5d4ae70235b999b43cbea3b4d09f474ad2064572b7901071464d6e9eaea4",
    ('floodset', 'sync', 'mixed'):
        "64ec793c77bbf69f4f320f53cec853ade09c7aa89ec14d9f606995ce889d0bb5",
    ('floodset', 'sync', 'mutated'):
        "46d5ee3976402bae609644a591094ec9a6a560489da592296c8c4343824782d5",
    ('floodset', 'async', 'mixed'):
        "2a024049ed9858573f6f28ba671b3eff5745f8d5b7f254234dc6ea8bf70c8dca",
    ('floodset', 'async', 'mutated'):
        "f7e64b1f03445177e01ce507ac04f4cdb0020ce9609bfcad9575cd948eb338d0",
    ('floodset', 'psync', 'mixed'):
        "307915ffea47edf77678e94f9fd2970efc2a65639a5f103f05324bd3373cfeaa",
    ('floodset', 'psync', 'mutated'):
        "7cd4bc065028064c33a308932e4d288faa797452fabf29a57b4ef84ce74332c1",
}


@pytest.mark.parametrize("case", sorted(EXPECTED), ids="-".join)
def test_run_metrics_are_bit_identical(case):
    metrics = run_case(*case)
    assert digest(metrics) == EXPECTED[case]


def test_cases_exercise_the_faults():
    """The pinned runs really hit the short-circuited paths' slow sides."""
    m = run_case("replog", "sync", "mixed")
    assert m.partition_drops > 0
    assert m.recoveries == 1
    assert m.retransmissions > 0
    m = run_case("floodset", "psync", "mutated")
    assert m.partition_drops > 0
    assert m.recoveries == 2


def _replog_at_scale():
    """replog's benchmark shape, built here: 64 replicas, 5% loss, an
    8-replica partition that heals and one churned replica."""
    plan = FailurePlan(loss_probability=0.05, seed=29,
                       churn={9: [(3.0, 14.0)]})
    plan = partition(6.0, [set(range(48, 56))], plan=plan)
    plan = heal(20.0, plan=plan).validate()
    return run_replicated_log(
        64, {5: ["a", "b"], 17: ["c"], 40: ["d", "e"]}, failures=plan,
        seed=12, max_time=5000, on_limit="truncate")


def test_replog_at_scale_is_bit_identical():
    m = _replog_at_scale()
    assert digest(m) == \
        "eccc068912688c84cae35d00a59bcbd4a52ebf7666f01d492284bf36c94a4cb4"
    assert m.partition_drops > 0
    assert m.recoveries == 1
    assert m.retransmissions > 0


# ---------------------------------------------------------------------------
# Message and wrapper-context contracts
# ---------------------------------------------------------------------------


def test_message_fields_are_read_only():
    m = Message(0, 1, "t", (1, 2))
    for field in ("src", "dst", "tag", "payload"):
        with pytest.raises(AttributeError):
            setattr(m, field, 5)
    assert m == Message(0, 1, "t", (1, 2))


def test_message_equality_and_hash_go_by_field():
    a, b = Message(0, 1, "t", (1, 2)), Message(0, 1, "t", (1, 2))
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b, Message(0, 1, "t", (1, 3))}) == 2
    assert Message(0, 1, "t") == Message(0, 1, "t", None)
    assert a != Message(1, 0, "t", (1, 2))


def test_message_repr_and_str():
    m = Message(3, 4, "vote", (2, True))
    assert repr(m) == "Message(src=3, dst=4, tag='vote', payload=(2, True))"
    assert str(m) == "3->4 vote((2, True))"


def test_message_survives_pickle():
    m = Message(3, 4, "append", (1, 0, 0, (("cmd", 0),), 0))
    back = pickle.loads(pickle.dumps(m))
    assert type(back) is Message
    assert back == m


def test_wrapper_context_follows_churn_onto_the_new_channel():
    seen = []  # (time, wrapper context) of every rank-1 inner event

    class Ticker(Process):
        def on_start(self, ctx):
            ctx.set_timer(1.0, "tick")

        def on_message(self, ctx, msg):
            if self.rank == 1:
                seen.append((ctx.now, ctx))
            if msg.tag == "tick" and ctx.now < 20:
                ctx.send(1 - self.rank, "ping")
                ctx.set_timer(1.0, "tick")

    sim = Simulator(Complete(2), wrap_reliable([Ticker(0), Ticker(1)]),
                    failures=churn(1, 5.5, 9.5))
    sim.run()
    assert sim.metrics.recoveries == 1
    before = [ctx for t, ctx in seen if t < 5.5]
    after = [ctx for t, ctx in seen if t >= 9.5]
    assert before and after
    # One wrapper per rank and run on each side of the recovery ...
    assert len({id(ctx) for ctx in before}) == 1
    assert len({id(ctx) for ctx in after}) == 1
    # ... and after it, the wrapper holds the channel the recovery
    # restored, not the pre-crash one.
    new_channel = sim.processes[1].channel
    assert after[0].channel is new_channel
    assert before[0].channel is not new_channel


# ---------------------------------------------------------------------------
# Fault-plan queries against their original bodies
# ---------------------------------------------------------------------------


def ref_crashed(plan, rank, now):
    t = plan.crashes.get(rank)
    if t is not None and now >= t:
        return True
    for down, up in plan.churn.get(rank, ()):
        if down <= now < up:
            return True
    return False


def ref_partition_groups(plan, now):
    active = None
    for e in plan.partitions:
        if e.at > now:
            break
        active = e.groups
    return active


def ref_partitioned(plan, u, v, now):
    groups = ref_partition_groups(plan, now)
    if groups is None or u == v:
        return False
    gu = gv = None
    for i, g in enumerate(groups):
        if u in g:
            gu = i
        if v in g:
            gv = i
    return gu != gv


def ref_link_dead(plan, u, v):
    return (min(u, v), max(u, v)) in plan.dead_links


RANKS = range(6)
#: Query ranks include one no group, crash or churn entry ever names.
QUERY_RANKS = range(7)


def _groups(draw):
    owner = draw(st.lists(st.integers(-1, 2), min_size=len(RANKS),
                          max_size=len(RANKS)))
    groups = [{r for r, g in zip(RANKS, owner) if g == k} for k in range(3)]
    return [g for g in groups if g]


@st.composite
def plans(draw):
    times = draw(st.lists(st.integers(0, 40), unique=True, max_size=6))
    partitions = []
    for at in sorted(times):
        groups = _groups(draw) if draw(st.booleans()) else None
        partitions.append((float(at), groups))
    crashes = draw(st.dictionaries(st.sampled_from(RANKS),
                                   st.floats(0, 40), max_size=3))
    churn_plan = {}
    for rank in draw(st.lists(st.sampled_from(RANKS), unique=True,
                              max_size=3)):
        cuts = sorted(draw(st.lists(st.integers(0, 40), unique=True,
                                    min_size=2, max_size=6)))
        intervals = [(float(a), float(b))
                     for a, b in zip(cuts[::2], cuts[1::2])]
        if rank in crashes:
            crashes[rank] = max(crashes[rank], intervals[-1][1])
        churn_plan[rank] = intervals
    dead = draw(st.sets(st.tuples(st.sampled_from(RANKS),
                                  st.sampled_from(RANKS)), max_size=4))
    return FailurePlan(crashes=crashes, churn=churn_plan,
                       partitions=partitions, dead_links=set(dead))


MUTATIONS = st.lists(st.tuples(
    st.sampled_from(["crash", "churn", "partition", "heal", "dead",
                     "clear", "replace"]),
    st.sampled_from(RANKS), st.integers(0, 45), st.integers(1, 8),
), max_size=6)


def _mutate(plan, op, rank, at, width, groups):
    if op == "crash":
        crash(rank, at=float(at), plan=plan)
    elif op == "churn":
        churn(rank, float(at), float(at + width), plan=plan)
    elif op == "partition":
        partition(float(at) + 0.5, groups, plan=plan)
    elif op == "heal":
        heal(float(at) + 0.25, plan=plan)
    elif op == "dead":
        plan.dead_links.add((rank, (rank + width) % len(RANKS)))
    elif op == "clear":
        plan.partitions.clear()
    else:
        # Swap in a different event at an existing time: same ``at``,
        # new ``groups`` object.
        if plan.partitions:
            i = rank % len(plan.partitions)
            plan.partitions[i] = PartitionEvent(
                plan.partitions[i].at, tuple(frozenset(g) for g in groups))


def _probe_times(plan):
    times = {0.0, 50.0}
    times.update(e.at for e in plan.partitions)
    times.update(plan.crashes.values())
    for intervals in plan.churn.values():
        for down, up in intervals:
            times.update((down, up))
    return sorted(times | {t + 0.1 for t in times} | {t - 0.1 for t in times})


def _agree(plan):
    for now in _probe_times(plan):
        for u in QUERY_RANKS:
            assert plan.crashed(u, now) == ref_crashed(plan, u, now)
            for v in QUERY_RANKS:
                assert plan.partitioned(u, v, now) == \
                    ref_partitioned(plan, u, v, now), (u, v, now)
    for u in QUERY_RANKS:
        for v in QUERY_RANKS:
            assert plan.link_dead(u, v) == ref_link_dead(plan, u, v)


@given(plans(), MUTATIONS, st.data())
@settings(max_examples=60, deadline=None)
def test_fault_queries_match_original_bodies(plan, mutations, data):
    _agree(plan)
    for op, rank, at, width in mutations:
        groups = _groups(data.draw) or [{rank}]
        try:
            _mutate(plan, op, rank, at, width, groups)
        except FailurePlanError:
            pass  # a rejected mutation may leave the plan half-changed
        _agree(plan)


# ---------------------------------------------------------------------------
# Backoff draw
# ---------------------------------------------------------------------------


def _documented_delay(b, attempt):
    level = b.base * b.multiplier ** attempt
    if b.jitter:
        u = random.Random(b.seed * 2654435761 + attempt).random()
        level += b.jitter * u * level * (b.multiplier - 1.0)
    return min(b.cap, level)


@pytest.mark.parametrize("seed", [0, 1, 7, 12345, -3])
def test_backoff_matches_documented_formula(seed):
    for b in (ExponentialBackoff(seed=seed),
              ExponentialBackoff(base=2.5, multiplier=1.3, cap=20.0,
                                 jitter=0.4, seed=seed),
              ExponentialBackoff(base=0.1, jitter=0.0, seed=seed)):
        expected = [_documented_delay(b, k) for k in range(30)]
        # Twice: the second pass is served from the cache.
        assert [b.delay(k) for k in range(30)] == expected
        assert b.schedule(30) == expected


def test_backoff_cache_is_bounded():
    draw = policy_module._jitter_draw
    maxsize = draw.cache_info().maxsize
    assert maxsize is not None
    for seed in range(maxsize + 100):
        ExponentialBackoff(seed=seed).delay(0)
    assert draw.cache_info().currsize <= maxsize


# ---------------------------------------------------------------------------
# No reference cycle outlives a run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_finished_simulator_is_freed_without_gc(traced):
    if traced:
        trace_core.enable(trace_core.Tracer())
    gc.collect()
    gc.disable()
    try:
        procs = wrap_reliable([Echo(r, initiator=0) for r in range(N)])
        plan = FailurePlan(loss_probability=0.2, seed=3)
        sim = Simulator(Complete(N), procs, failures=plan)
        assert sim.run().decisions[0] == N
        sim_ref = weakref.ref(sim)
        proc_ref = weakref.ref(procs[3])
        del sim, procs
        assert sim_ref() is None
        assert proc_ref() is None
    finally:
        gc.enable()
        trace_core.disable()
