"""Retry/timeout/backoff policies as first-class, law-abiding objects.

Delivery and progress guarantees are *semantic requirements* in exactly
the paper's Section 3.1 sense: a backoff schedule must produce
non-negative, monotone non-decreasing delays; a retry policy must stay
inside a bounded total budget; a circuit breaker must traverse
closed → open → half-open → closed and nothing else.  Those laws are
stated as concept axioms in :mod:`repro.resilience.concepts` and checked
through the same archetype/model machinery as every other concept in the
library.

Determinism is part of the contract: no object here reads the wall clock
or the process-global ``random`` module.  Jitter comes from a seeded RNG
derived per ``(seed, attempt)`` so ``delay(k)`` is a *pure function* —
two policies with the same seed retransmit at identical offsets, which is
what makes the reliable-transport simulations and the chaos harness
replayable.  Time enters only through an injected ``clock`` callable
(:class:`Deadline`, :class:`CircuitBreaker`), defaulting to
``time.monotonic`` for real tool drivers and replaced by virtual or
manual clocks in simulations and tests.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional


class ResilienceError(RuntimeError):
    """Base class for resilience-layer failures."""


class DeadlineExceeded(ResilienceError):
    """A :class:`Deadline` expired; carries how far over budget we are."""

    def __init__(self, message: str, overrun: float = 0.0) -> None:
        super().__init__(message)
        self.overrun = overrun


class RetryBudgetExhausted(ResilienceError):
    """Every attempt allowed by a :class:`RetryPolicy` failed.

    ``last`` is the final attempt's exception, ``attempts`` how many were
    made — the caller sees *why* we gave up, not just that we did.
    """

    def __init__(self, message: str, attempts: int,
                 last: Optional[BaseException] = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last = last


class CircuitOpenError(ResilienceError):
    """The breaker is open: the operation was not even attempted."""


# ---------------------------------------------------------------------------
# Backoff strategies
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _jitter_draw(seed: int) -> float:
    """The first ``random()`` of an RNG seeded with ``seed``: a pure
    function, memoized because seeding a Mersenne Twister costs far more
    than the draw.  Reliable-transport runs use the default policy
    (``seed=0``, attempts clamped below ``max_attempts=25``), so they
    ask for only 25 keys; ``maxsize`` is just a memory bound for
    backoffs built with other seeds."""
    return random.Random(seed).random()


class Backoff:
    """Base backoff strategy: maps an attempt index to a delay.

    The concept laws (:data:`repro.resilience.concepts.BackoffStrategy`):
    ``delay(k) >= 0`` and ``delay(k+1) >= delay(k)`` for every ``k >= 0``.
    """

    def delay(self, attempt: int) -> float:
        raise NotImplementedError

    def schedule(self, attempts: int) -> list[float]:
        """The first ``attempts`` delays, for inspection and law checks."""
        return [self.delay(k) for k in range(attempts)]


@dataclass(frozen=True)
class ConstantBackoff(Backoff):
    """The same delay before every retry."""

    base: float = 1.0

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("backoff delay must be non-negative")

    def delay(self, attempt: int) -> float:
        return self.base


@dataclass(frozen=True)
class ExponentialBackoff(Backoff):
    """Exponential growth with deterministic bounded jitter.

    ``delay(k)`` is drawn from ``[level_k, level_k * multiplier]`` where
    ``level_k = base * multiplier**k``, using an RNG seeded by
    ``(seed, k)`` — a pure function of its inputs.  Because the jittered
    value never exceeds the *next* level's floor, the schedule is monotone
    non-decreasing by construction (the cap, once reached, pins every
    later delay to the same value).
    """

    base: float = 0.5
    multiplier: float = 2.0
    cap: float = 60.0
    jitter: float = 0.5          # fraction of the level gap used for jitter
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ValueError("base delay must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1 (delays must not shrink)")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, attempt: int) -> float:
        if attempt < 0:
            raise ValueError("attempt index must be >= 0")
        level = self.base * self.multiplier ** attempt
        if self.jitter:
            u = _jitter_draw(self.seed * 2654435761 + attempt)
            level += self.jitter * u * level * (self.multiplier - 1.0)
        return min(self.cap, level)


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


class Deadline:
    """A monotone time budget with an injected clock.

    ``Deadline.after(2.5)`` expires 2.5 clock-seconds from construction;
    cooperative code calls :meth:`check` at safe points and gets a
    :class:`DeadlineExceeded` once the budget is gone.  The clock is any
    zero-argument callable returning seconds — ``time.monotonic`` for
    tool drivers, a simulator's virtual ``now`` or a :class:`ManualClock`
    in tests.
    """

    __slots__ = ("budget", "clock", "_start")

    def __init__(self, budget: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if budget < 0:
            raise ValueError("deadline budget must be non-negative")
        self.budget = budget
        self.clock = clock
        self._start = clock()

    @classmethod
    def after(cls, seconds: float,
              clock: Callable[[], float] = time.monotonic) -> "Deadline":
        return cls(seconds, clock)

    def elapsed(self) -> float:
        return self.clock() - self._start

    def remaining(self) -> float:
        return self.budget - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, label: str = "operation") -> None:
        over = -self.remaining()
        if over >= 0:
            raise DeadlineExceeded(
                f"{label} exceeded its {self.budget:g}s deadline "
                f"(by {over:.3f}s)", overrun=over,
            )


class ManualClock:
    """A hand-cranked clock for deterministic deadline/breaker tests."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("a monotonic clock cannot go backwards")
        self.now += dt


# ---------------------------------------------------------------------------
# Retry policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How often, and how patiently, an operation is retried.

    ``max_attempts`` counts the first try: 4 attempts mean at most three
    retries.  ``max_total_delay`` bounds the *sum* of backoff delays —
    the law checked by the ``RetryableOperation`` concept: whatever the
    strategy, the cumulative waiting a policy can impose is finite and
    declared up front.
    """

    max_attempts: int = 3
    backoff: Backoff = field(default_factory=ConstantBackoff)
    max_total_delay: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("a policy must allow at least one attempt")
        if self.max_total_delay is not None and self.max_total_delay < 0:
            raise ValueError("max_total_delay must be non-negative")

    def delays(self) -> Iterator[float]:
        """The delay before each retry (at most ``max_attempts - 1``),
        truncated so the running total never exceeds ``max_total_delay``."""
        spent = 0.0
        for attempt in range(self.max_attempts - 1):
            d = self.backoff.delay(attempt)
            if self.max_total_delay is not None and \
                    spent + d > self.max_total_delay:
                return
            spent += d
            yield d

    def total_budget(self) -> float:
        """The worst-case cumulative delay this policy can impose."""
        return sum(self.delays())

    def allows(self, attempt: int, spent_delay: float = 0.0) -> bool:
        """May attempt number ``attempt`` (0-based) still be made, given
        ``spent_delay`` seconds already burned on backoff?"""
        if attempt >= self.max_attempts:
            return False
        if self.max_total_delay is not None and \
                spent_delay > self.max_total_delay:
            return False
        return True


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Fail fast once an operation keeps failing; probe again later.

    State law (checked in tests and stated as concept documentation):
    ``closed --[failure_threshold consecutive failures]--> open``;
    ``open --[reset_timeout elapsed]--> half-open``;
    ``half-open --[success]--> closed``, ``half-open --[failure]--> open``.
    No other transition exists.
    """

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout < 0:
            raise ValueError("reset_timeout must be non-negative")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.clock = clock
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        if self._state == OPEN and \
                self.clock() - self._opened_at >= self.reset_timeout:
            self._state = HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May the next call proceed?  (Open circuits reject instantly.)"""
        return self.state != OPEN

    def record_success(self) -> None:
        self._failures = 0
        self._state = CLOSED

    def record_failure(self) -> None:
        state = self.state
        if state == HALF_OPEN:
            self._state = OPEN
            self._opened_at = self.clock()
            return
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._state = OPEN
            self._opened_at = self.clock()

    def guard(self, label: str = "operation") -> None:
        if not self.allow():
            raise CircuitOpenError(
                f"{label} rejected: circuit open after "
                f"{self._failures} consecutive failure(s)"
            )
