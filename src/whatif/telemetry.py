"""Embedded telemetry: time-series store, checkpoints, annotation log.

This is the data plane behind metrics expressions and run reports. The
store is in-memory, per-run, with optional append-only persistence using
the same line protocol jobs speak on stdout::

    metric <name> <float> <unix-ms>

Ingestion may happen concurrently from executor watchers; queries take a
consistent snapshot under the same lock. The engine names the metrics its
assertions read with ``watch``; an ingest of such a metric then pushes a
Metrics event into the run queue, at most one pending per metric, which
is how both executors, threads included, wake the loop.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass
from typing import Optional

from .errors import (
    DuplicateCheckpoint,
    UnknownMetric,
    UnknownRegion,
)
from .events import Event, EventKind
from .lifecycle import ResourceNode, iter_nodes


@dataclass(frozen=True)
class MetricPoint:
    name: str
    value: float
    at: float


@dataclass(frozen=True)
class Checkpoint:
    """Immutable snapshot of metric reductions and tree phases."""

    name: str
    at: float
    values: dict
    phases: dict


@dataclass
class Annotation:
    """Timeline marker: a Point for instants, a Region for spans."""

    kind: str  # "Point" | "Region"
    label: str
    start: float
    end: Optional[float] = None


class MetricsStore:
    """Per-run time-series store keyed by metric name.

    Points arrive in time order per name; anything older than the last
    accepted point for its name is dropped and counted as a warning.
    """

    def __init__(self):
        self._lock = threading.Lock()
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
        with self._lock:
            self._watched = frozenset(names)
            self._queue = queue
            self._clock = clock

    def take_notices(self) -> list[str]:
        """The watched metrics with new points since the last call; their next point notifies again."""
        with self._lock:
            names, self._pending = list(self._pending), set()
            return names

    def declare(self, name: str) -> None:
        """Register a metric name before any point arrives."""
        with self._lock:
            self._times.setdefault(name, [])
            self._values.setdefault(name, [])

    def known(self, name: str) -> bool:
        with self._lock:
            return name in self._times

    def ingest(self, point: MetricPoint) -> bool:
        """Store one point. Returns False when dropped as out-of-order."""
        with self._lock:
            times = self._times.setdefault(point.name, [])
            values = self._values.setdefault(point.name, [])
            if times and point.at < times[-1]:
                self.dropped += 1
                return False
            times.append(point.at)
            values.append(point.value)
            notify = point.name in self._watched and point.name not in self._pending
            if notify:
                self._pending.add(point.name)
        if notify:
            self._queue.push_event(Event(EventKind.METRICS, self._clock.now(), subject=point.name))
        return True

    def query(self, name: str, frm: float, to: float) -> list[tuple[float, float]]:
        """All points with frm <= at <= to, in time order."""
        if frm > to:
            raise ValueError(f"query window inverted: {frm} > {to}")
        with self._lock:
            if name not in self._times:
                raise UnknownMetric(name)
            times = self._times[name]
            lo = bisect.bisect_left(times, frm)
            hi = bisect.bisect_right(times, to)
            return list(zip(times[lo:hi], self._values[name][lo:hi]))

    def points_from(self, name: str, start: int) -> list[tuple[float, float]]:
        """The points of ``name`` from the ``start``-th accepted one on, in time order."""
        with self._lock:
            if name not in self._times:
                raise UnknownMetric(name)
            return list(zip(self._times[name][start:], self._values[name][start:]))

    def names(self) -> list[str]:
        with self._lock:
            return list(self._times)

    def series(self, name: str) -> list[tuple[float, float]]:
        with self._lock:
            if name not in self._times:
                raise UnknownMetric(name)
            return list(zip(self._times[name], self._values[name]))

    def save(self, path) -> None:
        """Persist every accepted point in the stdout line protocol."""
        with self._lock:
            names = list(self._times)
            with open(path, "w", encoding="ascii") as fh:
                for name in names:
                    for at, value in zip(self._times[name], self._values[name]):
                        fh.write(f"metric {name} {value!r} {round(at * 1000)}\n")

    @classmethod
    def load(cls, path) -> "MetricsStore":
        store = cls()
        with open(path, encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) != 4 or parts[0] != "metric":
                    continue
                store.ingest(MetricPoint(parts[1], float(parts[2]), int(parts[3]) / 1000.0))
        return store


class CheckpointRegistry:
    """Named, write-once snapshots referenceable from later assertions."""

    def __init__(self):
        self._checkpoints: dict[str, Checkpoint] = {}

    def snapshot(
        self,
        name: str,
        exprs,
        tree: ResourceNode,
        store: MetricsStore,
        now: float,
    ) -> Checkpoint:
        """Evaluate reducer-only expressions and freeze them under ``name``.

        ``exprs`` is a list of (key, MetricsExprAst) pairs; an expression
        whose window holds no data contributes no key. The phase map
        captures every node of the tree.
        """
        from .expressions import eval_reducer

        if name in self._checkpoints:
            raise DuplicateCheckpoint(name)
        values = {}
        for key, ast in exprs:
            reduced = eval_reducer(ast, store, now)
            if reduced is not None:
                values[key] = reduced
        phases = {node.name: node.phase for node in iter_nodes(tree)}
        checkpoint = Checkpoint(name, now, values, phases)
        self._checkpoints[name] = checkpoint
        return checkpoint

    def get(self, name: str) -> Optional[Checkpoint]:
        return self._checkpoints.get(name)

    def all(self) -> list[Checkpoint]:
        return list(self._checkpoints.values())


class AnnotationLog:
    """Point and region markers for the run timeline.

    Services are marked with Points; Calls and Faults open Regions that
    must be closed by run end (the engine closes leftovers on abort).
    """

    def __init__(self):
        self._annotations: list[Annotation] = []
        self._open: dict[str, Annotation] = {}

    def point(self, label: str, at: float) -> Annotation:
        annotation = Annotation("Point", label, at)
        self._annotations.append(annotation)
        return annotation

    def open_region(self, label: str, start: float) -> Annotation:
        annotation = Annotation("Region", label, start)
        self._annotations.append(annotation)
        self._open[label] = annotation
        return annotation

    def close_region(self, label: str, end: float) -> Annotation:
        annotation = self._open.pop(label, None)
        if annotation is None:
            raise UnknownRegion(label)
        annotation.end = max(end, annotation.start)
        return annotation

    def open_labels(self) -> list[str]:
        return list(self._open)

    def all(self) -> list[Annotation]:
        return list(self._annotations)
