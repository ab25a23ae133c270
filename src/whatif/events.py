"""Events, the run queue, and the two clock flavors.

Everything that happens in a run flows through one priority queue ordered
by (timestamp, sequence number), which gives reconciliation a total order.
Queue items are either Events (consumed by the engine loop) or plain
callables (scheduled work such as scripted simulator effects and timer
internals). Under the simulated clock the loop jumps time to each item;
under the wall clock it waits until items fall due, while executor watcher
threads push events concurrently.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

from .lifecycle import FailureClass, Phase


class EventKind(Enum):
    TIME = "Time"
    STATE = "State"
    METRICS = "Metrics"
    TAG = "Tag"

    def __str__(self) -> str:
        return self.value


@dataclass
class Event:
    kind: EventKind
    at: float
    subject: str = ""
    timer_id: str = ""  # TIME
    phase: Optional[Phase] = None  # STATE
    failure_mode: str = ""  # STATE, when phase is Failed
    failure_class: Optional[FailureClass] = None
    reason: str = ""
    tags: dict = field(default_factory=dict)  # TAG

    def describe(self) -> dict:
        """Compact, JSON-safe view for trace records."""
        data: dict = {"event": self.kind.value}
        if self.subject:
            data["subject"] = self.subject
        if self.timer_id:
            data["timer"] = self.timer_id
        if self.phase is not None:
            data["phase"] = self.phase.value
        if self.failure_mode:
            data["mode"] = self.failure_mode
        if self.failure_class is not None:
            data["class"] = self.failure_class.value
        if self.reason:
            data["reason"] = self.reason
        if self.tags:
            data["tags"] = dict(self.tags)
        return data


QueueItem = Union[Event, Callable[[], None]]


class EventQueue:
    """Priority queue of (at, seq, item) with thread-safe pushes.

    The sequence number breaks timestamp ties in push order, which is what
    makes simulated runs fully deterministic.
    """

    def __init__(self):
        self._heap: list = []
        self._seq = 0
        self._cond = threading.Condition()

    def push(self, at: float, item: QueueItem) -> int:
        with self._cond:
            seq = self._seq
            self._seq += 1
            heapq.heappush(self._heap, (at, seq, item))
            self._cond.notify()
            return seq

    def push_event(self, event: Event) -> int:
        return self.push(event.at, event)

    def __len__(self) -> int:
        with self._cond:
            return len(self._heap)

    def peek_time(self) -> Optional[float]:
        with self._cond:
            return self._heap[0][0] if self._heap else None

    def pop_next(self) -> Optional[tuple]:
        """Pop the earliest item immediately (simulated time)."""
        with self._cond:
            if not self._heap:
                return None
            at, _, item = heapq.heappop(self._heap)
            return at, item

    def wait_next(self, clock, poll: float = 0.05) -> Optional[tuple]:
        """Block until the earliest item falls due on the wall clock."""
        with self._cond:
            while True:
                now = clock.now()
                if self._heap:
                    at = self._heap[0][0]
                    if at <= now:
                        popped_at, _, item = heapq.heappop(self._heap)
                        return popped_at, item
                    self._cond.wait(timeout=min(at - now, poll))
                else:
                    self._cond.wait(timeout=poll)


class SimClock:
    """Virtual time; advances only when the loop consumes queue items."""

    virtual = True

    def __init__(self, start: float = 0.0):
        self._now = start

    def now(self) -> float:
        return self._now

    def set(self, at: float) -> None:
        if at > self._now:
            self._now = at


class WallClock:
    """Seconds since run start on the monotonic clock, never decreasing.

    Stepping the system clock cannot move run time: only the unix time
    captured at start is used, to map the unix-ms stamps jobs print. Watcher
    threads read the clock too, so reads and ``set`` share a lock.
    """

    virtual = False

    def __init__(self):
        self._t0 = time.monotonic()
        self._unix0 = time.time()
        self._last = 0.0
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            self._last = max(self._last, time.monotonic() - self._t0)
            return self._last

    def set(self, at: float) -> None:
        with self._lock:
            self._last = max(self._last, at)

    def from_unix_ms(self, ms: float) -> float:
        return ms / 1000.0 - self._unix0
