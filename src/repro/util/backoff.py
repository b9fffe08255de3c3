"""Decorrelated-jitter backoff for retry loops.

Fixed-delay retries synchronize: N MEs started by the same scheduler
all sleep ``delay`` and all wake together, hammering the service in
lockstep forever.  Decorrelated jitter (the AWS architecture-blog
variant) breaks that: each sleep is drawn from
``uniform(base, 3 * previous)`` and clamped to a cap, so independent
pollers drift apart within a few attempts while the expected delay
stays near the configured one early on and growth is bounded.

Queue pops long-poll in the store (``wait``), so these sleeps only pace
the retry after a wait that returned early and empty (a server cap, a
shutdown wake) and rarely happen at all.
"""

from __future__ import annotations

import random


def poll_cap(delay: float) -> float:
    """The default max-delay cap for a poll loop configured with ``delay``.

    Grows a few binary orders above the configured delay but never past
    one second: polling loops back off enough to decorrelate without
    turning a liveness check into a multi-second stall.
    """
    return max(delay, min(1.0, delay * 16.0))


class DecorrelatedJitter:
    """Stateful sleep-duration source: ``min(cap, uniform(base, 3*prev))``.

    ``reset()`` after a successful attempt so the next dry spell starts
    from ``base`` again.  Not thread-safe; use one instance per loop.
    """

    def __init__(
        self,
        base: float,
        cap: float | None = None,
        rng: random.Random | None = None,
    ) -> None:
        if base <= 0:
            raise ValueError(f"base must be positive, got {base}")
        self.base = base
        self.cap = poll_cap(base) if cap is None else max(cap, base)
        self._rng = rng if rng is not None else random.Random()
        self._prev = base

    def next(self) -> float:
        """The next sleep duration (advances the internal state)."""
        value = min(self.cap, self._rng.uniform(self.base, self._prev * 3.0))
        self._prev = value
        return value

    def reset(self) -> None:
        """Start the next dry spell from ``base`` again."""
        self._prev = self.base
