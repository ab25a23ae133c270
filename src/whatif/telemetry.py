"""Embedded telemetry: time-series store and checkpoint snapshots.

This is the data plane behind metrics expressions and run reports. The
store is in-memory, per-run, and ``save`` writes it in the line protocol
jobs speak on stdout, with each stamp in run-relative seconds instead of
unix milliseconds, written exactly (``repr``)::

    metric <name> <float> <seconds>

Every ingest and query runs on the engine's thread: the process executor
ingests job output while the loop waits in it. The engine names the
metrics its assertions read with ``watch``; an ingest of such a metric
then pushes a Metrics event into the run queue, at most one pending per
metric, which is how both executors wake the loop.
"""

from __future__ import annotations

import bisect
import math

from .errors import UnknownMetric
from .events import Event, EventKind
from .lifecycle import ResourceNode, iter_nodes


class MetricsStore:
    """Per-run time-series store keyed by metric name.

    Points arrive in time order per name; anything older than the last
    accepted point for its name, any NaN value and any stamp that is not
    finite is dropped and counted.
    """

    def __init__(self):
        self._times: dict[str, list[float]] = {}
        self._values: dict[str, list[float]] = {}
        self.dropped = 0
        self._watched: frozenset = frozenset()
        self._pending: set = set()  # watched metrics with an unacknowledged event
        self._queue = None
        self._clock = None

    def watch(self, names, queue, clock) -> None:
        """Push a Metrics event into ``queue`` when a point of one of ``names`` arrives.

        A metric has at most one pending event: later points need none until
        the engine takes the notice with ``take_notices``, since the
        evaluation that follows reads them from the store anyway.
        """
        self._watched = frozenset(names)
        self._queue = queue
        self._clock = clock

    def take_notices(self) -> list[str]:
        """The watched metrics with new points since the last call; their next point notifies again."""
        names, self._pending = list(self._pending), set()
        return names

    def declare(self, name: str) -> None:
        """Register a metric name before any point arrives."""
        self._times.setdefault(name, [])
        self._values.setdefault(name, [])

    def ingest(self, name: str, value: float, at: float) -> bool:
        """Store one point. Returns False when dropped: out of order, a NaN
        value, which no threshold compares with and which hides the later
        points of a window from MAX and MIN, or a stamp that is not finite,
        which no window holds and ``metrics.txt`` cannot keep."""
        times = self._times.setdefault(name, [])
        values = self._values.setdefault(name, [])
        if (times and at < times[-1]) or value != value or not math.isfinite(at):
            self.dropped += 1
            return False
        times.append(at)
        values.append(value)
        if name in self._watched and name not in self._pending:
            self._pending.add(name)
            self._queue.push(self._clock.now(), Event(EventKind.METRICS, subject=name))
        return True

    def query(self, name: str, frm: float, to: float) -> list[tuple[float, float]]:
        """All points with frm <= at <= to, in time order."""
        if frm > to:
            raise ValueError(f"query window inverted: {frm} > {to}")
        if name not in self._times:
            raise UnknownMetric(name)
        times = self._times[name]
        lo = bisect.bisect_left(times, frm)
        hi = bisect.bisect_right(times, to)
        return list(zip(times[lo:hi], self._values[name][lo:hi]))

    def points_from(self, name: str, start: int) -> list[tuple[float, float]]:
        """The points of ``name`` from the ``start``-th accepted one on, in time order."""
        if name not in self._times:
            raise UnknownMetric(name)
        return list(zip(self._times[name][start:], self._values[name][start:]))

    def names(self) -> list[str]:
        return list(self._times)

    def series(self, name: str) -> list[tuple[float, float]]:
        if name not in self._times:
            raise UnknownMetric(name)
        return list(zip(self._times[name], self._values[name]))

    def save(self, path) -> None:
        """Persist every accepted point, one ``metric <name> <value> <seconds>`` line each."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, times in self._times.items():
                for at, value in zip(times, self._values[name]):
                    fh.write(f"metric {name} {value!r} {at!r}\n")

    @classmethod
    def load(cls, path) -> "MetricsStore":
        """Read what ``save`` wrote; ValueError for a non-blank line of another shape or a bad number."""
        store = cls()
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != 4 or parts[0] != "metric":
                    raise ValueError(f"line {number} is not 'metric <name> <value> <seconds>': {line.strip()!r}")
                at = float(parts[3])
                if not math.isfinite(at):
                    raise ValueError(f"stamp {parts[3]} of {parts[1]} is not finite")
                store.ingest(parts[1], float(parts[2]), at)
        return store


def snapshot(exprs, tree: ResourceNode, store: MetricsStore, now: float) -> tuple[dict, dict]:
    """A checkpoint's ``(values, phases)``: its reducer-only expressions and every node's phase at ``now``.

    ``exprs`` is a list of (key, MetricsExprAst) pairs; an expression whose
    window holds no data contributes no key.
    """
    from .expressions import eval_reducer

    values = {}
    for key, ast in exprs:
        reduced = eval_reducer(ast, store, now)
        if reduced is not None:
            values[key] = reduced
    return values, {node.name: node.phase for node in iter_nodes(tree)}
