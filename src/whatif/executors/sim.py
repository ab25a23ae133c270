"""Deterministic discrete-event executor.

Jobs are scripts of timed effects; nothing here consults wall time or
randomness, so identical scripts produce identical event sequences. A
minimal message layer (send / block effects) exists solely to give
network partitions observable meaning: partitions drop messages per
direction, suspends freeze a job's effect chain and drop the metric
emissions scheduled inside the window.
"""

from __future__ import annotations

from ..errors import SpawnError
from ..lifecycle import Phase
from .base import Executor, FaultSpec, JobSpec


class _SimJob:
    """One simulated job. At most one ``_fire`` of it is queued at a time,
    and none while it is blocked or held."""

    __slots__ = ("spec", "started_at", "index", "suspended", "blocked", "held", "mailbox", "finished")

    def __init__(self, spec: JobSpec, started_at: float):
        self.spec = spec
        self.started_at = started_at
        self.index = 0  # next effect to fire
        self.suspended = False
        self.blocked = False
        self.held = False  # chain paused by a suspend window
        self.mailbox = 0
        self.finished = False


class SimExecutor(Executor):
    name = "sim"

    def __init__(self):
        self.jobs: dict[str, _SimJob] = {}
        self.partitions: dict[str, FaultSpec] = {}  # by action: the partitions `_dropped` reads

    # --- jobs -----------------------------------------------------------

    def start_job(self, spec: JobSpec) -> None:
        if spec.name in self.jobs:
            raise SpawnError(f"job name already in use: {spec.name}")
        if not spec.script:
            raise SpawnError(f"{spec.name}: simulated jobs need a script")
        job = _SimJob(spec, self.clock.now())
        self.jobs[spec.name] = job
        self._schedule_next(job)

    def kill_job(self, name: str) -> None:
        self.jobs[name].finished = True

    # --- faults -----------------------------------------------------------

    def inject_fault(self, action: str, spec: FaultSpec) -> None:
        if spec.kind == "kill":
            for target in spec.targets:
                if not self.jobs[target].finished:  # a job that ended already made its one report
                    self.kill_job(target)
                    self._emit(target, Phase.FAILED, mode="kill", reason=f"killed by {action}")
        elif spec.kind == "suspend":
            for target in spec.targets:
                self.jobs[target].suspended = True
        else:
            self.partitions[action] = spec

    def revoke_fault(self, action: str, resume: list[str]) -> None:
        self.partitions.pop(action, None)
        for name in resume:  # a finished job is never scheduled again
            job = self.jobs[name]
            job.suspended = False
            if job.held:
                job.held = False
                self._schedule_next(job)  # its held effect, now
            elif job.blocked and job.mailbox > 0:
                job.blocked = False
                job.mailbox -= 1
                job.index += 1
                self._schedule_next(job)

    # --- effect chain -----------------------------------------------------------

    def _schedule_next(self, job: _SimJob) -> None:
        if job.finished or job.blocked or job.held or job.index >= len(job.spec.script):
            return
        effect = job.spec.script[job.index]
        due = max(self.clock.now(), job.started_at + effect.offset)
        self.queue.push(due, lambda: self._fire(job))

    def _fire(self, job: _SimJob) -> None:
        if job.finished:
            return
        effect = job.spec.script[job.index]
        if job.suspended:
            if effect.op == "metric":
                # Emissions scheduled inside the suspend window are dropped.
                job.index += 1
                self._schedule_next(job)
            else:
                job.held = True
            return
        if effect.op == "block":
            if job.mailbox > 0:
                job.mailbox -= 1
                job.index += 1
                self._schedule_next(job)
            else:
                job.blocked = True
            return
        self._apply(job, effect)
        job.index += 1
        self._schedule_next(job)

    def _apply(self, job: _SimJob, effect) -> None:
        name = job.spec.name
        now = self.clock.now()
        if effect.op == "metric":
            self.store.ingest(effect.metric, effect.value, now)
        elif effect.op == "send":
            self._deliver(name, effect.target)
        elif effect.op == "crash":
            job.finished = True
            self._emit(name, Phase.FAILED, mode="crash", reason="crashed")
        elif effect.op == "failed":
            job.finished = True
            self._emit(name, Phase.FAILED, mode="crash", reason="scripted failure")
        elif effect.op == "success":
            job.finished = True
            self._emit(name, Phase.SUCCESS)
        elif effect.op == "running":
            self._emit(name, Phase.RUNNING)

    # --- message layer ------------------------------------------------------------

    def _deliver(self, src: str, dst: str) -> None:
        if self._dropped(src, dst):
            return
        target = self.jobs.get(dst)
        if target is None or target.finished:
            return
        if target.blocked and not target.suspended:
            target.blocked = False
            target.index += 1
            self._schedule_next(target)
        else:
            target.mailbox += 1

    def _dropped(self, src: str, dst: str) -> bool:
        # direction "to": source->dst delivered, dst->source dropped.
        for spec in self.partitions.values():
            if spec.direction in ("to", "both") and src in spec.dst and dst in spec.targets:
                return True
            if spec.direction in ("from", "both") and src in spec.targets and dst in spec.dst:
                return True
        return False
