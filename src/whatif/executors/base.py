"""Executor-facing data types and the shared backend interface.

Job bodies come out of templates (or inline action bodies) as small YAML
maps. Simulated jobs carry a script of timed effects; process jobs carry a
command line. A job may declare metric names up front so that queries can
distinguish a quiet metric from a mis-wired one.

Script schema::

    script:
      - { at: 0s,  do: running }
      - { at: 2s,  do: metric, name: goroutines, value: 1200 }
      - { at: 3s,  do: send, to: masters-0 }
      - { at: 4s,  do: block }              # wait for one message
      - { at: 10s, do: success }            # or failed / crash

Fault schema::

    kind: kill | suspend | partition
    targets: [ name-or-macro, ... ]         # kill / suspend
    source: masters-0                       # partition
    dst: "masters-1, masters-2"             # partition; list or comma string
    direction: to | from | both
    duration: 10m                           # required except for kill
"""

from __future__ import annotations

import math
import time
from typing import Optional

from ..durations import parse_duration
from ..errors import SchemaError, UnknownHandle
from ..events import Event, EventKind
from ..lifecycle import Phase
from ..values import FrozenValue, Value

EFFECT_OPS = ("running", "success", "failed", "crash", "metric", "send", "block")
FAULT_KINDS = ("kill", "suspend", "partition")


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
        declares: Optional[list] = None,
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

    Concrete executors emit State events into the queue they are bound to,
    and a ``fault-revoked`` Tag event when a fault ends, and they ingest
    metric points straight into the bound store. The fault bookkeeping is
    shared: ``faults`` holds the faults still in effect by the name of the
    action that injected them (a kill is over once injected), and one with
    a duration is revoked when the duration elapses, unless revoked before.
    A target of overlapping suspends resumes when the last of them ends.
    """

    name = "abstract"

    def __init__(self):
        self.faults: dict[str, FaultSpec] = {}  # action -> its fault in effect

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

    def revoke_fault(self, action: str) -> None:
        """End the action's fault in effect: undo it, then report its end."""
        spec = self.faults.pop(action, None)
        if spec is None:
            raise UnknownHandle(action)
        if spec.kind == "suspend":  # a target resumes once no suspend holds it
            suspended = {t for other in self.faults.values() if other.kind == "suspend" for t in other.targets}
            for target in spec.targets:
                if target not in suspended:
                    self._resume_target(target)
        self.queue.push(self.clock.now(), Event(
            EventKind.TAG,
            subject=action,
            tags={"event": "fault-revoked", "action": action, "fault": spec.kind, "targets": ",".join(spec.targets)},
        ))

    def wait(self, timeout: Optional[float]) -> bool:
        """Block until a job has news or ``timeout`` seconds pass; False when no job can bring news.

        ``None`` sets no limit. Here no job can: this sleeps, or returns at once for no limit.
        """
        if timeout is not None:
            time.sleep(timeout)
        return False

    def shutdown(self) -> None:
        pass

    def _resume_target(self, name: str) -> None:
        """Let a job that no suspend holds any longer go on."""
        raise NotImplementedError

    def _record_fault(self, action: str, spec: FaultSpec) -> None:
        """Record a fault just injected for ``action``."""
        if spec.kind != "kill":
            self.faults[action] = spec
            if spec.duration is not None:
                self.queue.push(self.clock.now() + spec.duration, lambda: self._auto_revoke(action))

    def _auto_revoke(self, action: str) -> None:
        if action in self.faults:
            self.revoke_fault(action)

    def _emit(self, name: str, phase: Phase, mode: str = "", reason: str = "") -> None:
        self.queue.push(self.clock.now(), Event(
            EventKind.STATE, subject=name, phase=phase, failure_mode=mode, reason=reason,
        ))


def _parse_effect(raw, index: int) -> SimEffect:
    if not isinstance(raw, dict):
        raise SchemaError(f"script[{index}] must be a map")
    if "at" not in raw or "do" not in raw:
        raise SchemaError(f"script[{index}] needs 'at' and 'do'")
    try:
        offset = parse_duration(raw["at"])
    except ValueError as exc:
        raise SchemaError(f"script[{index}].at: {exc}") from exc
    op = raw["do"]
    if op not in EFFECT_OPS:
        raise SchemaError(f"script[{index}]: unknown effect {op!r}")
    metric = value = target = None
    if op == "metric":
        if "name" not in raw or "value" not in raw:
            raise SchemaError(f"script[{index}]: metric effect needs name and value")
        metric = str(raw["name"])
        try:
            value = float(raw["value"])
        except (TypeError, ValueError, OverflowError):
            value = math.nan
        if math.isnan(value):
            raise SchemaError(f"script[{index}].value: expected a number, got {raw['value']!r}")
    elif op == "send":
        if "to" not in raw:
            raise SchemaError(f"script[{index}]: send effect needs 'to'")
        target = str(raw["to"])
    return SimEffect(offset, op, metric=metric, value=value, target=target)


def parse_job_body(body: dict) -> JobSpec:
    """Build a JobSpec from a resolved template body or inline action body."""
    if not isinstance(body, dict):
        raise SchemaError("job body must be a map")
    spec = JobSpec()
    for key, value in body.items():
        if key == "command":
            spec.command = str(value)
        elif key == "script":
            if not isinstance(value, list):
                raise SchemaError("script must be a list of effects")
            spec.script = [_parse_effect(e, i) for i, e in enumerate(value)]
            offsets = [e.offset for e in spec.script]
            if offsets != sorted(offsets):
                raise SchemaError("script offsets must be non-decreasing")
        elif key == "env":
            if not isinstance(value, dict):
                raise SchemaError("env must be a map")
            spec.env = {str(k): str(v) for k, v in value.items()}
        elif key == "metrics":
            if value not in ("stdout-lines", "none"):
                raise SchemaError(f"metrics must be 'stdout-lines' or 'none', got {value!r}")
            spec.metrics_source = value
        elif key == "expectedRuntime":  # checked, then ignored: no executor uses it
            try:
                parse_duration(value)
            except ValueError as exc:
                raise SchemaError(f"expectedRuntime: {exc}") from exc
        elif key == "declares":
            if not isinstance(value, list):
                raise SchemaError("declares must be a list of metric names")
            spec.declares = [str(v) for v in value]
        elif key == "kind":
            pass  # allow templates to label their bodies
        else:
            raise SchemaError(f"unknown job body key {key!r}")
    if spec.command is None and not spec.script:
        raise SchemaError("job body needs a command or a script")
    return spec


def _target_list(raw, where: str, clusters=None) -> list:
    if isinstance(raw, str):
        names = [part.strip() for part in raw.split(",") if part.strip()]
    elif isinstance(raw, list):
        names = [str(part) for part in raw]
    else:
        raise SchemaError(f"{where} must be a name, list, or comma-separated string")
    if clusters is None:
        return names
    from ..dsl import expand_targets

    return expand_targets(names, clusters)


def parse_fault_body(body: dict, clusters=None) -> FaultSpec:
    """Build a FaultSpec, expanding addressing macros when a cluster index (name -> instances) is given."""
    if not isinstance(body, dict):
        raise SchemaError("fault body must be a map")
    kind = body.get("kind")
    if kind not in FAULT_KINDS:
        raise SchemaError(f"unknown fault kind {kind!r}")
    spec = FaultSpec(kind=kind)
    if "duration" in body:
        try:
            spec.duration = parse_duration(body["duration"])
        except ValueError as exc:
            raise SchemaError(f"fault duration: {exc}") from exc
        if spec.duration <= 0:
            raise SchemaError("fault duration must be positive")
    if kind == "partition":
        if "source" not in body or "dst" not in body:
            raise SchemaError("partition requires source and dst")
        spec.targets = _target_list(body["source"], "source", clusters)
        spec.dst = _target_list(body["dst"], "dst", clusters)
        spec.direction = body.get("direction", "both")
        if spec.direction not in ("to", "from", "both"):
            raise SchemaError(f"unknown partition direction {body.get('direction')!r}")
        if not spec.targets or not spec.dst:
            raise SchemaError("partition requires at least one source and one destination")
        if spec.duration is None:
            raise SchemaError("partition requires a duration")
    else:
        if "targets" not in body:
            raise SchemaError(f"{kind} fault requires targets")
        spec.targets = _target_list(body["targets"], "targets", clusters)
        if not spec.targets:
            raise SchemaError(f"{kind} fault requires at least one target")
        if kind == "suspend" and spec.duration is None:
            raise SchemaError("suspend requires a duration")
    extra = set(body) - {"kind", "targets", "source", "dst", "direction", "duration"}
    if extra:
        raise SchemaError(f"unknown fault keys {sorted(extra)}")
    return spec
