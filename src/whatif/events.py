"""Events, the run queue, and the two clock flavors.

Everything that happens in a run flows through one priority queue ordered
by (timestamp, sequence number), which gives reconciliation a total order.
Queue items are either Events (consumed by the engine loop) or plain
callables (scheduled work: the simulated executor's scripted effects).
Under the simulated clock the loop jumps time to each item; under the
wall clock it waits in the executor until items fall due, so one thread
runs the whole run.
"""

from __future__ import annotations

import heapq
import time
from enum import Enum
from typing import Callable, Optional, Union

from .lifecycle import Phase
from .values import Value


class EventKind(Enum):
    TIME = "Time"
    STATE = "State"
    METRICS = "Metrics"

    __hash__ = object.__hash__  # members are singletons; Enum's own hash is Python code

    def __str__(self) -> str:
        return self.value


class Event(Value):
    """What happened; its queue entry holds when it is due, and the engine stamps what it causes."""

    __slots__ = ("kind", "subject", "timer_id", "phase", "failure_mode", "reason")

    def __init__(
        self,
        kind: EventKind,
        subject: str = "",
        timer_id: str = "",  # TIME
        phase: Optional[Phase] = None,  # STATE
        failure_mode: str = "",  # STATE, when phase is Failed
        reason: str = "",
    ):
        self.kind = kind
        self.subject = subject
        self.timer_id = timer_id
        self.phase = phase
        self.failure_mode = failure_mode
        self.reason = reason

    def describe(self) -> dict:
        """Compact, JSON-safe view for trace records; ``_value_`` skips Enum's ``value`` descriptor."""
        data: dict = {"event": self.kind._value_}
        if self.subject:
            data["subject"] = self.subject
        if self.timer_id:
            data["timer"] = self.timer_id
        if self.phase is not None:
            data["phase"] = self.phase._value_
        if self.failure_mode:
            data["mode"] = self.failure_mode
        if self.reason:
            data["reason"] = self.reason
        return data


QueueItem = Union[Event, Callable[[], None]]


class EventQueue:
    """Priority queue of (at, seq, item).

    The sequence number breaks timestamp ties in push order, which is what
    makes simulated runs fully deterministic.
    """

    def __init__(self):
        self._heap: list = []
        self._seq = 0

    def push(self, at: float, item: QueueItem) -> int:
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (at, seq, item))
        return seq

    def __len__(self) -> int:
        return len(self._heap)

    def pop_next(self) -> Optional[tuple]:
        """Pop the earliest item immediately (simulated time)."""
        if not self._heap:
            return None
        at, _, item = heapq.heappop(self._heap)
        return at, item

    def wait_next(self, clock, wait: Callable[[Optional[float]], bool]) -> Optional[tuple]:
        """Pop the earliest item once it falls due on the wall clock.

        Meanwhile ``wait(seconds until due)`` may push items (``Executor.wait``).
        On an empty queue, return None once ``wait(None)`` says nothing can arrive.
        """
        while True:
            if not self._heap:
                if not wait(None):
                    return None
                continue
            delay = self._heap[0][0] - clock.now()
            if delay <= 0:
                at, _, item = heapq.heappop(self._heap)
                return at, item
            wait(delay)


class SimClock:
    """Virtual time; advances only when the loop consumes queue items."""

    virtual = True

    def __init__(self, start: float = 0.0):
        self._now = start

    def now(self) -> float:
        return self._now

    def set(self, at: float) -> None:
        """Move to ``at``; ValueError for an ``at`` earlier than the clock's time, which no queue item may be due at."""
        if at < self._now:
            raise ValueError(f"cannot set the simulated clock back from {self._now!r} to {at!r}")
        self._now = at


class WallClock:
    """Seconds since run start on the monotonic clock, which never decreases.

    Stepping the system clock cannot move run time: only the unix time
    captured at start is used, to map the unix-ms stamps jobs print.
    """

    virtual = False

    def __init__(self):
        self._t0 = time.monotonic()
        self._unix0 = time.time()

    def now(self) -> float:
        return time.monotonic() - self._t0

    def set(self, at: float) -> None:
        """Nothing to do: a wall-clock item pops only once it is due."""

    def from_unix_ms(self, ms: float) -> float:
        return ms / 1000.0 - self._unix0
