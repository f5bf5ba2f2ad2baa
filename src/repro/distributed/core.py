"""Core abstractions of the message-passing substrate.

Section 4's taxonomy classifies algorithms by *method of information
sharing* ("we have thus far concentrated on message passing"), so the
substrate is a message-passing process model in the mpi4py/actor style:
a :class:`Process` reacts to ``on_start`` and ``on_message`` events through
a :class:`Context` that can send messages, consult the local topology view,
**charge local computation** (the cost dimension the paper complains is
"rarely accounted for"), and decide/halt.
"""

from __future__ import annotations

from functools import partial
from typing import Any, NamedTuple, Optional


class Message(NamedTuple):
    """A point-to-point message.

    A named tuple: the serial loop builds one per send and per timer, and
    a tuple subclass builds in well under half the time of a frozen
    dataclass.  Fields are read-only, equality and hash go by field, and
    a ``Message`` therefore also equals the plain 4-tuple of its fields.
    """

    src: int
    dst: int
    tag: str
    payload: Any = None

    def __str__(self) -> str:
        return f"{self.src}->{self.dst} {self.tag}({self.payload})"


#: ``Message`` from a ``(src, dst, tag, payload)`` tuple, skipping the
#: Python-level ``__new__``: the hot paths build one per send and timer.
new_message = partial(tuple.__new__, Message)


class Context:
    """A process's handle on the simulator during one event handling."""

    def __init__(self, sim: Any, rank: int) -> None:
        self._sim = sim
        self.rank = rank
        #: A wrapping layer's view of this context (the reliable
        #: transport's), cached here so that it lives exactly as long as
        #: this per-run context does.
        self._wrapper: Optional[Context] = None

    # -- communication -----------------------------------------------------

    def send(self, dst: int, tag: str, payload: Any = None) -> None:
        """Queue a message for delivery (delay decided by the timing model)."""
        self._sim._send(new_message((self.rank, dst, tag, payload)))

    def broadcast_neighbors(self, tag: str, payload: Any = None,
                            exclude: Optional[int] = None) -> None:
        for nbr in self.neighbors():
            if nbr != exclude:
                self.send(nbr, tag, payload)

    def set_timer(self, delay: float, tag: str, payload: Any = None) -> None:
        """Schedule a local timer event (a self-message outside the network:
        it is not counted as a message and ignores the timing model)."""
        self._sim._set_timer(self.rank, delay, tag, payload)

    # -- local topology view ---------------------------------------------------

    def neighbors(self) -> list[int]:
        return self._sim.topology.neighbors(self.rank)

    @property
    def now(self) -> float:
        return self._sim.now

    @property
    def metrics(self) -> Any:
        """The live :class:`~repro.distributed.metrics.RunMetrics` of this
        run (the reliable transport folds its counters in through here)."""
        return self._sim.metrics

    # -- accounting --------------------------------------------------------------

    def charge(self, ops: int = 1) -> None:
        """Account ``ops`` units of local computation — the taxonomy
        dimension 'mobile and sensor networks, where local computation is
        at a premium' motivates."""
        self._sim.metrics.local_computation[self.rank] += ops

    # -- termination ----------------------------------------------------------------

    def decide(self, value: Any) -> None:
        """Record this process's decision (leader id, parent, ...)."""
        self._sim.metrics.decisions[self.rank] = value

    def halt(self) -> None:
        self._sim._halted.add(self.rank)


class Process:
    """Base class for distributed algorithm processes.

    Subclasses implement ``on_start`` and ``on_message``.  State lives on
    the instance; the simulator owns scheduling.
    """

    def __init__(self, rank: int, **params: Any) -> None:
        self.rank = rank
        self.params = params

    def on_start(self, ctx: Context) -> None:  # pragma: no cover - default
        pass

    def on_message(self, ctx: Context, msg: Message) -> None:  # pragma: no cover
        pass

    def on_round(self, ctx: Context, round_no: int) -> None:
        """Called at the start of each round under synchronous timing
        (optional)."""

    def on_recover(self, ctx: Context) -> None:
        """Called when the simulator revives this process after a churn
        downtime.  By then the simulator has already rolled the instance
        back to its construction-time state (state loss); the default
        models a reboot by replaying ``on_start``.  Timers armed before
        the crash may still fire afterwards — handlers must tolerate
        stale self-messages (the reliable transport's do)."""
        self.on_start(ctx)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} rank={self.rank}>"
