"""Timing models — taxonomy dimension 6.

"Timing properties required from the underlying network.  Further refining
this concept leads to synchronous, asynchronous, and partially-synchronous
networks."

A timing model assigns each message a delivery delay.  Synchronous delivery
takes exactly one round; asynchronous delay is unbounded (here: randomized
up to ``max_delay``, optionally adversarially reordered); partially
synchronous delay is arbitrary but bounded by Δ.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .core import Message


class TimingModel:
    name: str = "timing"

    def delay(self, msg: Message, now: float) -> float:
        raise NotImplementedError


@dataclass
class Synchronous(TimingModel):
    """Lock-step rounds: every message sent in round r arrives at r+1.
    'Time' equals the round count."""

    name: str = "synchronous"

    def delay(self, msg: Message, now: float) -> float:
        # Deliver at the next integer round boundary.
        nxt = math.floor(now) + 1.0
        return nxt - now


@dataclass
class Asynchronous(TimingModel):
    """Unbounded (randomized) delays: delivery order is adversarial up to
    the seed.  No global rounds exist; 'time' is the makespan under the
    sampled delays."""

    max_delay: float = 10.0
    seed: int = 0
    name: str = "asynchronous"

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def delay(self, msg: Message, now: float) -> float:
        return 0.001 + self._rng.random() * self.max_delay


@dataclass
class PartiallySynchronous(TimingModel):
    """Delays are arbitrary but bounded by ``bound`` (Δ)."""

    bound: float = 2.0
    seed: int = 0
    name: str = "partially-synchronous"

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def delay(self, msg: Message, now: float) -> float:
        return 0.001 + self._rng.random() * (self.bound - 0.001)
