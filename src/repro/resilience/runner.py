"""Executing operations under a policy: retries, deadlines, isolation.

:func:`call_with_policy` is the one retry loop in the system — the
reliable transport re-implements the *schedule* over simulator timers
(it cannot block) rather than calling it.  Time never passes
implicitly: sleeping is delegated to an injected ``sleep`` callable
(default: none — the loop retries immediately, which is what
cooperative callers and simulations want).

:func:`isolated` converts an unexpected exception into a structured
:class:`IsolatedFailure` value instead of a traceback.  The lint and
optimize drivers use neither function: they isolate per-file crashes
with their own ``try``/``except`` (LINT-INTERNAL / OPT-INTERNAL
findings) and bound per-file work with :class:`Deadline` only.

Trace events (all behind the usual ``ACTIVE is None`` guard):
``resilience.retry`` per retry, ``resilience.give_up`` when the budget
is exhausted, ``resilience.breaker_open`` on fail-fast rejections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Type

from ..trace import core as _trace

from .policy import (
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    RetryBudgetExhausted,
    RetryPolicy,
)


def call_with_policy(
    fn: Callable[[], Any],
    policy: Optional[RetryPolicy] = None,
    deadline: Optional[Deadline] = None,
    breaker: Optional[CircuitBreaker] = None,
    retry_on: Tuple[Type[BaseException], ...] = (Exception,),
    sleep: Optional[Callable[[float], None]] = None,
    label: str = "operation",
) -> Any:
    """Call ``fn`` until it succeeds or the policy gives up.

    Raises :class:`RetryBudgetExhausted` (carrying the last exception)
    when attempts run out, :class:`DeadlineExceeded` as soon as the
    deadline expires between attempts, and :class:`CircuitOpenError`
    without attempting anything when the breaker is open.  Exceptions
    outside ``retry_on`` propagate immediately — only *expected* failure
    modes are retried.
    """
    policy = policy or RetryPolicy()
    tr = _trace.ACTIVE
    if breaker is not None and not breaker.allow():
        if tr is not None:
            tr.event("resilience.breaker_open", cat="resilience",
                     label=label)
        raise CircuitOpenError(f"{label} rejected: circuit open")
    spent = 0.0
    last: Optional[BaseException] = None
    for attempt in range(policy.max_attempts):
        if deadline is not None:
            deadline.check(label)
        try:
            result = fn()
        except retry_on as exc:
            last = exc
            if breaker is not None:
                breaker.record_failure()
            delay = policy.backoff.delay(attempt)
            retries_left = (
                attempt + 1 < policy.max_attempts
                and policy.allows(attempt + 1, spent + delay)
                and (breaker is None or breaker.allow())
            )
            if not retries_left:
                break
            spent += delay
            if tr is not None:
                tr.event("resilience.retry", cat="resilience", label=label,
                         attempt=attempt + 1, delay=delay,
                         error=type(exc).__name__)
            if sleep is not None and delay > 0:
                sleep(delay)
            continue
        if breaker is not None:
            breaker.record_success()
        return result
    if tr is not None:
        tr.event("resilience.give_up", cat="resilience", label=label,
                 attempts=policy.max_attempts,
                 error=type(last).__name__ if last else None)
    raise RetryBudgetExhausted(
        f"{label} failed after {policy.max_attempts} attempt(s): {last!r}",
        attempts=policy.max_attempts, last=last,
    )


@dataclass(frozen=True)
class IsolatedFailure:
    """A crash converted to a value: what failed, where, and how."""

    label: str
    error: str                    # exception type name
    message: str
    timed_out: bool = False

    def describe(self) -> str:
        kind = "deadline exceeded" if self.timed_out else "internal error"
        return f"{self.label}: {kind} — {self.error}: {self.message}"


def isolated(
    fn: Callable[[], Any],
    label: str = "operation",
    deadline: Optional[Deadline] = None,
) -> Tuple[Any, Optional[IsolatedFailure]]:
    """Run ``fn`` under crash isolation: ``(result, None)`` on success,
    ``(None, IsolatedFailure)`` on any exception.  A pre-expired deadline
    short-circuits without calling ``fn`` at all.

    ``KeyboardInterrupt``/``SystemExit`` are *not* swallowed: isolation
    protects the run from the workload, never from the operator.
    """
    if deadline is not None and deadline.expired():
        return None, IsolatedFailure(
            label=label, error="DeadlineExceeded",
            message=f"budget of {deadline.budget:g}s exhausted before start",
            timed_out=True,
        )
    try:
        return fn(), None
    except DeadlineExceeded as exc:
        return None, IsolatedFailure(
            label=label, error=type(exc).__name__, message=str(exc),
            timed_out=True,
        )
    except Exception as exc:  # noqa: BLE001 - the whole point
        tr = _trace.ACTIVE
        if tr is not None:
            tr.event("resilience.isolated_failure", cat="resilience",
                     label=label, error=type(exc).__name__)
        return None, IsolatedFailure(
            label=label, error=type(exc).__name__, message=str(exc),
        )
