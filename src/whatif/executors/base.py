"""Executor-facing data types and the shared backend interface.

The document parser builds the specs from a document's job and fault
bodies, under the schema that ``parse_job_body`` and ``parse_fault_body``
describe.
"""

from __future__ import annotations

import time
from typing import Optional

from ..events import Event, EventKind
from ..lifecycle import Phase
from ..values import FrozenValue, Value


class SimEffect(FrozenValue):
    __slots__ = ("offset", "op", "metric", "value", "target")

    def __init__(
        self,
        offset: float,
        op: str,
        metric: Optional[str] = None,
        value: Optional[float] = None,
        target: Optional[str] = None,
    ):
        self.offset = offset
        self.op = op
        self.metric = metric
        self.value = value
        self.target = target


class JobSpec(Value):
    __slots__ = ("name", "command", "script", "env", "metrics_source", "declares")

    def __init__(
        self,
        name: str = "",
        command: Optional[str] = None,
        script: Optional[list] = None,
        env: Optional[dict] = None,
        metrics_source: str = "none",  # "stdout-lines" | "none"
        declares: Optional[list] = None,  # the metrics the engine declares once the job starts
    ):
        self.name = name
        self.command = command
        self.script = [] if script is None else script
        self.env = {} if env is None else env
        self.metrics_source = metrics_source
        self.declares = [] if declares is None else declares

    def named(self, name: str) -> "JobSpec":
        """A shallow copy under another name: it shares the script, env and declares."""
        return JobSpec(name, self.command, self.script, self.env, self.metrics_source, self.declares)


class FaultSpec(Value):
    __slots__ = ("kind", "targets", "dst", "direction", "duration")

    def __init__(
        self,
        kind: str,
        targets: Optional[list] = None,
        dst: Optional[list] = None,
        direction: str = "both",
        duration: Optional[float] = None,
    ):
        self.kind = kind  # kill | suspend | partition
        self.targets = [] if targets is None else targets
        self.dst = [] if dst is None else dst  # partition destinations
        self.direction = direction  # partition: to | from | both
        self.duration = duration


class Executor:
    """Backend interface: the engine calls it, and it answers through events.

    Executors only start, signal and observe: they emit State events for a
    job's Running and its end into the bound queue, and ingest metric points
    into the bound store. The engine owns a job's state. It marks a started
    job Pending and declares its metrics, and it injects a fault only when
    every target is Running as recorded, so a target that ended meanwhile
    takes no effect: its own end is its one report. The engine keeps the
    faults in effect, each named by its action, and decides when each ends
    and which of its targets resume.
    """

    name = "abstract"

    def bind(self, queue, clock, store) -> None:
        self.queue = queue
        self.clock = clock
        self.store = store

    def start_job(self, spec: JobSpec) -> None:
        raise NotImplementedError

    def kill_job(self, name: str) -> None:
        raise NotImplementedError

    def inject_fault(self, action: str, spec: FaultSpec) -> None:
        raise NotImplementedError

    def revoke_fault(self, action: str, resume: list[str]) -> None:
        """Undo the action's suspend or partition, and let the jobs in ``resume`` go on."""
        raise NotImplementedError

    def wait(self, timeout: Optional[float]) -> bool:
        """Block until a job has news or ``timeout`` seconds pass; False when no job can bring news.

        ``None`` sets no limit. Here no job can: this sleeps, or returns at once for no limit.
        """
        if timeout is not None:
            time.sleep(timeout)
        return False

    def shutdown(self) -> None:
        pass

    def _emit(self, name: str, phase: Phase, mode: str = "", reason: str = "") -> None:
        self.queue.push(self.clock.now(), Event(
            EventKind.STATE, subject=name, phase=phase, failure_mode=mode, reason=reason,
        ))

