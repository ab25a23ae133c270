"""The reconciliation core: one logical loop that owns all run state.

Events (state changes, timers, metric ingests, tag notifications) are
consumed in (timestamp, sequence) order from a single queue. Each event
starts a reconciliation cycle that re-checks dependencies, dispatches
newly satisfied actions in document order, evaluates assertions, and
decides the run outcome. Executors affect the run only through the events
they emit, and the engine affects executors only through commands, so a
simulated run is a deterministic function of (document, seed).

A cycle's work grows with what the event touched, not with the document:
every phase change goes through ``Engine._move``, which marks the actions
that depend on the changed node for a dependency recheck, keeps per-cluster
phase counters, and bumps the scope versions that decide whether a state
assertion needs evaluating again.

A metrics assertion is evaluated only at the instants its value can change:
when its action is dispatched, when a point of its metric is ingested (the
store pushes a Metrics event), when the oldest point in its window expires
or a future-stamped one enters it (one armed timer per rule), when a
checkpoint its threshold reads is taken, and once more when its action
succeeds. Each rule keeps its window reduced incrementally
(``WindowAggregate``). A metric or checkpoint that does not exist yet reads
as no data until that last evaluation, so the order in which the jobs that
declare metrics start does not matter.
"""

from __future__ import annotations

import heapq
import logging
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import yaml

from .dsl import (
    ENGINE_DEFAULT_TIMEOUT,
    ActionSpec,
    ScenarioDoc,
    _with_builtins,
    build_tree,
    effective_timeout,
    expand_targets,  # unused here; bench/tracer.py wraps it on this module
    instantiate_template,
    validate,
)
from .errors import (
    InvalidScenario,
    IllegalTransition,
    SchemaError,
    SpawnError,
    TargetNotRunning,
    UnknownCheckpoint,
    UnknownHandle,
    UnknownMetric,
    UnsupportedFault,
    WhatifError,
)
from .events import Event, EventKind, EventQueue, SimClock, WallClock
from .executors.base import Executor, FaultSpec, JobSpec, parse_fault_body, parse_job_body
from .expressions import (
    MetricsExprAst,
    WindowAggregate,
    alert_holds,
    eval_metrics,  # unused here; bench/tracer.py wraps it on this module
    eval_state,
    parse_expression,
    snapshot_scope,
)
from .lifecycle import (
    ChaosTag,
    FailureClass,
    Phase,
    ResourceNode,
    advance_to,
    aggregate_phase,
    classify_failure,
    find_node,  # unused here; bench/tracer.py wraps it on this module
    iter_nodes,
    phase_order,
    revoke_chaos_tag,
    tag_chaos_target,
)
from .telemetry import AnnotationLog, CheckpointRegistry, MetricsStore
from .trace import RunTrace

logger = logging.getLogger(__name__)

GUARD_SLACK = 60.0


class Outcome(Enum):
    SUCCESS = "Success"
    FAILED = "Failed"
    ABORTED = "Aborted"

    def __str__(self) -> str:
        return self.value


@dataclass
class ReconcileCommand:
    verb: str  # CreateJob | KillJob | InjectFault | RevokeFault | Snapshot | Annotate | Transition | AbortRun
    target: str
    args: dict = field(default_factory=dict)


@dataclass(eq=False)
class Rule:
    """A metrics assertion of one action, with its incremental window."""

    order: int  # position among all rules, in document order
    owner: str
    text: str
    ast: MetricsExprAst
    window: WindowAggregate
    timer: str  # id of its window timer
    due: Optional[float] = None  # when its armed window timer fires


@dataclass
class RunResult:
    outcome: Outcome
    reason: str
    trace: RunTrace
    store: MetricsStore = field(default_factory=MetricsStore, compare=False)
    checkpoints: CheckpointRegistry = field(default_factory=CheckpointRegistry, compare=False)
    annotations: AnnotationLog = field(default_factory=AnnotationLog, compare=False)


def ready_since(clause, nodes: dict) -> Optional[float]:
    """When the running/success parts of a clause became satisfied; None if not.

    ``nodes`` maps resource names to tree nodes. A `running` target satisfies
    once it reached Running and has not failed; completing successfully keeps
    it satisfied so a fast job cannot deadlock its dependents.
    """
    base = 0.0
    for name in clause.running:
        node = nodes.get(name)
        if node is None or node.phase not in (Phase.RUNNING, Phase.SUCCESS):
            return None
        at = node.phase_times.get(Phase.RUNNING)
        if at is None:
            at = node.phase_times.get(node.phase, 0.0)
        base = max(base, at)
    for name in clause.success:
        node = nodes.get(name)
        if node is None or node.phase != Phase.SUCCESS:
            return None
        base = max(base, node.phase_times.get(Phase.SUCCESS, 0.0))
    return base


def dependency_satisfied(clause, nodes: dict, clock) -> bool:
    """True when every referenced state holds and any `after` delay elapsed."""
    base = ready_since(clause, nodes)
    if base is None:
        return False
    if clause.after is not None:
        return clock.now() + 1e-9 >= base + clause.after
    return True


class Engine:
    """Runs one scenario to completion over a bound executor."""

    def __init__(
        self,
        doc: ScenarioDoc,
        templates: Optional[dict] = None,
        executor: Optional[Executor] = None,
        clock=None,
        seed: int = 0,
        default_timeout: float = ENGINE_DEFAULT_TIMEOUT,
    ):
        self.doc = doc
        self.templates = templates or {}
        report = validate(doc, self.templates, default_timeout)
        if not report.ok:
            raise InvalidScenario(report)

        if executor is None:
            from .executors.sim import SimExecutor

            executor = SimExecutor()
        self.executor = executor
        self.clock = clock if clock is not None else (SimClock() if executor.name == "sim" else WallClock())
        self.seed = seed
        self.default_timeout = default_timeout

        self.queue = EventQueue()
        self.trace = RunTrace()
        self.store = MetricsStore()
        self.checkpoints = CheckpointRegistry()
        self.annotations = AnnotationLog()
        self.executor.bind(self.queue, self.clock, self.store)

        self.tree = build_tree(doc)
        self.nodes = {node.name: node for node in iter_nodes(self.tree)}
        self.actions = {action.name: action for action in doc.actions}
        # Each action's assertions in text order: a state AST, or a Rule for a
        # metrics one. Rules are also indexed by the metric they read and by
        # the checkpoints their thresholds read; `armed` holds the rules with
        # a window timer in the queue.
        self.asserts: dict[str, list] = {}
        self.rules: dict[str, list[Rule]] = {}
        self.checkpoint_readers: dict[str, list[Rule]] = {}
        self.armed: set[Rule] = set()
        order = 0
        for action in doc.actions:
            for index, text in enumerate(action.assertions):
                ast = parse_expression(text)
                if isinstance(ast, MetricsExprAst):
                    window = WindowAggregate(ast.metric, ast.reducer, ast.window)
                    rule = Rule(order, action.name, text, ast, window, f"window:{action.name}:{index}")
                    order += 1
                    self.rules.setdefault(ast.metric, []).append(rule)
                    for name in dict.fromkeys(t.checkpoint[0] for t in ast.condition.terms if t.checkpoint):
                        self.checkpoint_readers.setdefault(name, []).append(rule)
                    ast = rule
                self.asserts.setdefault(action.name, []).append((text, ast))
        self.checkpoint_exprs = {
            action.name: [(key, parse_expression(text)) for key, text in action.values.items()]
            for action in doc.actions
            if action.kind == "Checkpoint"
        }

        # Incremental dispatch, by action index in document order: the actions
        # waiting on each name, and those due for a dependency check (all of
        # them in the first cycle).
        self.dependents: dict[str, list[int]] = {}
        for index, action in enumerate(doc.actions):
            for name in dict.fromkeys(action.depends.names()):
                self.dependents.setdefault(name, []).append(index)
        self.dirty: set[int] = set(range(len(doc.actions)))
        self.timed: set[int] = set()  # `after:` timer armed, not yet dispatched
        # Per-cluster child counts by phase bucket (see _bucket; every child
        # starts Uninitialized), per-node scope versions, the scope version
        # each asserting action last evaluated its state assertions against,
        # and the number of actions not yet terminal.
        self.child_counts = {
            node.name: [len(node.children), 0, 0, 0, 0]
            for node in self.nodes.values()
            if node.kind == "cluster"
        }
        self.scope_version: Counter = Counter()
        self.state_checked: dict[str, int] = {}
        self.unfinished = len(doc.actions)
        self.job_specs: dict[str, JobSpec] = {}  # resolved template text -> parsed job

        self.dispatched: set = set()
        self.started: set = set()  # jobs whose start_job returned
        self.kill_watch: dict[str, list] = {}  # chaos action -> kill targets
        self.active_faults: dict[str, str] = {}  # chaos action -> executor handle
        self.finished = False
        self.outcome = Outcome.SUCCESS
        self.reason = ""

    # --- public surface ---------------------------------------------------

    def run(self) -> RunResult:
        """Run to an outcome. An internal error aborts the run; cleanup always runs."""
        try:
            self._loop()
        except Exception as exc:
            logger.exception("internal error")
            self._abort(f"internal error: {type(exc).__name__}: {exc}")
        except BaseException as exc:  # KeyboardInterrupt, SystemExit: clean up, record, re-raise
            self._abort(f"interrupted: {type(exc).__name__}")
            raise
        finally:
            self._finalize()
        return RunResult(
            self.outcome, self.reason, self.trace,
            store=self.store, checkpoints=self.checkpoints, annotations=self.annotations,
        )

    def _loop(self) -> None:
        now = self.clock.now()
        self.trace.append(
            "run", now,
            scenario=self.doc.name, seed=self.seed, executor=self.executor.name,
            actions=[{"name": a.name, "kind": a.kind} for a in self.doc.actions],
            assertions={name: [t for t, _ in pairs] for name, pairs in self.asserts.items()},
        )
        self.store.watch(self.rules.keys(), self.queue, self.clock)
        self._move(self.tree, Phase.RUNNING, now, None)
        guard = sum(effective_timeout(a, self.doc, self.default_timeout) for a in self.doc.actions)
        self.queue.push(now + guard + GUARD_SLACK, Event(EventKind.TIME, now + guard + GUARD_SLACK, timer_id="guard"))

        commands: list[ReconcileCommand] = []
        self._recheck_dispatch(commands)
        self._check_completion()

        while not self.finished:
            popped = self.queue.pop_next() if self.clock.virtual else self.queue.wait_next(self.clock)
            if popped is None:
                self._abort("timeout: no pending events but actions remain unfinished")
                break
            at, item = popped
            self.clock.set(at)
            if isinstance(item, Event):
                self.trace.append("event", at, **item.describe())
                self.reconcile(item)
            else:
                item()  # scheduled executor/timer work; may emit events

    def reconcile(self, event: Event) -> list[ReconcileCommand]:
        """One reconciliation cycle; returns the commands it issued."""
        commands: list[ReconcileCommand] = []
        if self.finished:
            return commands
        try:
            if event.kind == EventKind.STATE:
                self._on_state(event, commands)
            elif event.kind == EventKind.TIME:
                self._on_time(event, commands)
            elif event.kind == EventKind.METRICS:
                self._on_metrics(event, commands)
            elif event.kind == EventKind.TAG:
                self._on_tag(event, commands)
            if not self.finished:
                self._recheck_dispatch(commands)
                self._check_completion()
        except IllegalTransition as exc:
            self._abort(f"illegal transition: {exc}", commands)
        return commands

    def fire_tag_event(self, source: str, payload: dict) -> Event:
        """Enqueue a Tag event carrying contextual data between controllers."""
        tags = dict(payload)
        event = Event(EventKind.TAG, self.clock.now(), subject=tags.get("target", ""), tags=tags)
        if source:
            event.tags.setdefault("source", source)
        self.queue.push_event(event)
        return event

    # --- event handlers -----------------------------------------------------

    def _on_state(self, event: Event, commands: list) -> None:
        node = self.nodes.get(event.subject)
        if node is None:
            logger.warning("state event for unknown resource %s", event.subject)
            return
        if node.phase.terminal or event.phase is None:
            return
        now = event.at

        if event.phase == Phase.FAILED:
            node.failure_class = event.failure_class or classify_failure(node, event.failure_mode)
            node.failure_reason = event.reason or event.failure_mode or "failed"
        self._move(node, event.phase, now, commands)

        newly_terminal = [node] if node.phase.terminal else []
        owner = node.owner
        if owner is not None and owner.kind == "cluster" and not owner.phase.terminal:
            agg = self.cluster_phase(owner)
            if phase_order(agg) > phase_order(owner.phase):
                self._move(owner, agg, now, commands)
                if owner.phase.terminal:
                    newly_terminal.append(owner)

        for done in newly_terminal:
            self._on_terminal(done, now, commands)
            if self.finished:
                return

        self._watch_kill_faults(event.subject, now, commands)
        if not self.finished:
            self._evaluate_state_assertions(now, commands)

    def _on_terminal(self, node: ResourceNode, now: float, commands: list) -> None:
        if node.name in self.actions:
            action = self.actions[node.name]
            if action.kind in ("Call", "Chaos") and node.name in self.annotations.open_labels():
                self._close_region(node.name, now, commands)
        if node.phase == Phase.FAILED:
            if node.failure_class == FailureClass.UNEXPECTED:
                self._fail(f"{node.name}: {node.failure_reason or 'unexpected failure'}", commands)
                return
            # Expected failure: culpable only when it pushed its owner over
            # tolerance, or when it sits at scenario level (tolerance 0).
            owner = node.owner
            if owner is not None and owner.kind == "cluster":
                if owner.phase == Phase.FAILED:
                    self._fail(f"{node.name}: expected failure beyond cluster tolerance", commands)
                return
            if owner is self.tree or (owner is not None and owner.kind == "scenario"):
                self._fail(f"{node.name}: {node.failure_reason or 'failure'} at scenario level", commands)
            return
        if node.phase == Phase.SUCCESS and node.name in self.asserts:
            self._evaluate_action_assertions(node.name, now, commands, state=True, metrics=True)

    def _on_time(self, event: Event, commands: list) -> None:
        timer = event.timer_id
        now = event.at
        if timer == "guard":
            self._abort("timeout: run exceeded its total timeout budget", commands)
        elif timer.startswith("timeout:"):
            name = timer.split(":", 1)[1]
            node = self.nodes.get(name)
            if node is not None and not node.phase.terminal:
                self._abort(f"timeout: action {name} did not finish in time", commands)
        elif timer.startswith("window:"):
            self._evaluate_rules(now, commands)
        # "after:" timers only need the dispatch recheck that follows.

    def _on_metrics(self, event: Event, commands: list) -> None:
        self._evaluate_rules(event.at, commands)

    def _on_tag(self, event: Event, commands: list) -> None:
        tags = event.tags
        if tags.get("event") == "fault-revoked":
            action = tags.get("action", "")
            self.active_faults.pop(action, None)
            for target in [t for t in tags.get("targets", "").split(",") if t]:
                if target in self.nodes:
                    revoke_chaos_tag(self.tree, target)
            node = self.nodes.get(action)
            if node is not None and not node.phase.terminal:
                if action in self.annotations.open_labels():
                    self._close_region(action, event.at, commands)
                self._move(node, Phase.SUCCESS, event.at, commands)
                self._on_terminal(node, event.at, commands)
            return
        if event.subject and event.subject not in self.nodes:
            logger.warning("tag event for unknown target %s", event.subject)

    # --- dispatch -------------------------------------------------------------

    def _recheck_dispatch(self, commands: list) -> None:
        """Dispatch every newly satisfied action, in document order.

        Only two kinds of action can have become satisfied since they were
        last checked: the dirty ones, whose targets changed phase, and the
        ones with an armed `after:` timer, which turn satisfied at any event
        at or past their due instant. Each pass visits those in document
        order; an action dirtied by a dispatch joins the current pass when
        it comes later in the document and the next pass otherwise, and
        passes repeat while a dispatch made progress.
        """
        progress = True
        while progress and not self.finished:
            progress = False
            pending = sorted(self.dirty | self.timed)  # a sorted list is a heap
            queued = set(pending)
            self.dirty = set()
            while pending:
                index = heapq.heappop(pending)
                action = self.doc.actions[index]
                if action.name in self.dispatched:
                    continue
                clause = action.depends
                if not dependency_satisfied(clause, self.nodes, self.clock):
                    self._maybe_arm_after(action, index)
                    continue
                self.dispatched.add(action.name)
                self.timed.discard(index)
                self._dispatch(action, commands)
                progress = True
                if self.finished:
                    return
                later = {i for i in self.dirty if i > index}
                self.dirty -= later
                for i in later - queued:
                    heapq.heappush(pending, i)
                queued |= later

    def _maybe_arm_after(self, action: ActionSpec, index: int) -> None:
        clause = action.depends
        if clause.after is None or index in self.timed:
            return
        base = ready_since(clause, self.nodes)
        if base is None:
            return
        self.timed.add(index)
        due = base + clause.after
        self.queue.push(due, Event(EventKind.TIME, due, timer_id=f"after:{action.name}"))

    def _dispatch(self, action: ActionSpec, commands: list) -> None:
        now = self.clock.now()
        timeout = effective_timeout(action, self.doc, self.default_timeout)
        due = now + timeout
        self.queue.push(due, Event(EventKind.TIME, due, timer_id=f"timeout:{action.name}"))
        try:
            if action.kind == "Service":
                self._dispatch_service(action, now, commands)
            elif action.kind == "Cluster":
                self._dispatch_cluster(action, now, commands)
            elif action.kind == "Call":
                self._dispatch_call(action, now, commands)
            elif action.kind == "Chaos":
                self._dispatch_chaos(action, now, commands)
            elif action.kind == "Checkpoint":
                self._dispatch_checkpoint(action, now, commands)
        except (SchemaError, WhatifError) as exc:
            self._fail(f"{action.name}: {exc}", commands)
        # A live action's assertions: the first look at a metrics window, and
        # at a state scope that may never change again.
        if action.name in self.asserts and self._live(action.name):
            self._evaluate_action_assertions(action.name, now, commands, state=True, metrics=True)

    def _dispatch_service(self, action: ActionSpec, now: float, commands: list) -> None:
        spec = self._resolve_job(action, action.inputs[0] if action.inputs else {}, action.name)
        self._create_job(spec, now, commands)
        self.annotations.point(action.name, now)
        self._trace_annotation("point", action.name, now, commands)

    def _dispatch_cluster(self, action: ActionSpec, now: float, commands: list) -> None:
        node = self.nodes[action.name]
        self._move(node, Phase.PENDING, now, commands)
        for index, child in enumerate(node.children):
            inputs = action.inputs[index % len(action.inputs)] if action.inputs else {}
            spec = self._resolve_job(action, inputs, child.name)
            self._create_job(spec, now, commands)
            self.annotations.point(child.name, now)
            self._trace_annotation("point", child.name, now, commands)

    def _dispatch_call(self, action: ActionSpec, now: float, commands: list) -> None:
        spec = self._resolve_job(action, action.inputs[0] if action.inputs else {}, action.name)
        self._create_job(spec, now, commands)
        self.annotations.open_region(action.name, now)
        self._trace_annotation("open", action.name, now, commands)

    def _dispatch_chaos(self, action: ActionSpec, now: float, commands: list) -> None:
        spec = self._resolve_fault(action)
        node = self.nodes[action.name]
        self._move(node, Phase.PENDING, now, commands)
        tag = ChaosTag(spec.kind, action.name)
        for target in spec.targets:
            tag_chaos_target(self.tree, target, tag)
            self.trace.append(
                "event", now, event="Tag", subject=target,
                tags={ChaosTag.key: spec.kind, "target": target, "source": action.name},
            )
        command = ReconcileCommand("InjectFault", action.name, {
            "kind": spec.kind, "targets": list(spec.targets), "dst": list(spec.dst),
            "direction": spec.direction, "duration": spec.duration,
        })
        commands.append(command)
        self._trace_command(command, now)
        try:
            handle = self.executor.inject_fault(action.name, spec)
        except (UnsupportedFault, TargetNotRunning, SpawnError) as exc:
            self._fail(f"{action.name}: {type(exc).__name__}: {exc}", commands)
            return
        self._move(node, Phase.RUNNING, now, commands)
        self.annotations.open_region(action.name, now)
        self._trace_annotation("open", action.name, now, commands)
        if spec.kind == "kill":
            self.kill_watch[action.name] = list(spec.targets)
        else:
            self.active_faults[action.name] = handle

    def _dispatch_checkpoint(self, action: ActionSpec, now: float, commands: list) -> None:
        node = self.nodes[action.name]
        self._move(node, Phase.RUNNING, now, commands)
        command = ReconcileCommand("Snapshot", action.name, {"keys": list(action.values)})
        commands.append(command)
        self._trace_command(command, now)
        try:
            checkpoint = self.checkpoints.snapshot(
                action.name, self.checkpoint_exprs.get(action.name, []), self.tree, self.store, now,
            )
        except UnknownMetric as exc:
            self._fail(f"{action.name}: expression error: unknown metric {exc}", commands)
            return
        self.trace.append(
            "checkpoint", now, name=checkpoint.name,
            values=dict(checkpoint.values),
            phases={name: phase.value for name, phase in checkpoint.phases.items()},
        )
        self._move(node, Phase.SUCCESS, now, commands)
        self._on_terminal(node, now, commands)
        self._evaluate_rules(now, commands, set(self.checkpoint_readers.get(action.name, ())))

    def _create_job(self, spec: JobSpec, now: float, commands: list) -> None:
        command = ReconcileCommand("CreateJob", spec.name, {
            "command": spec.command, "script_effects": len(spec.script), "metrics": spec.metrics_source,
        })
        commands.append(command)
        self._trace_command(command, now)
        try:
            self.executor.start_job(spec)
            self.started.add(spec.name)
        except SpawnError as exc:
            # The job never came up: surface the standard lifecycle so the
            # failure classifies as an unexpected crash of that service.
            for phase in (Phase.PENDING, Phase.RUNNING):
                self.queue.push_event(Event(EventKind.STATE, now, subject=spec.name, phase=phase))
            self.queue.push_event(Event(
                EventKind.STATE, now, subject=spec.name, phase=Phase.FAILED,
                failure_mode="crash", reason=f"spawn failed: {exc}",
            ))

    def _resolve_job(self, action: ActionSpec, inputs: dict, name: str) -> JobSpec:
        """The job spec for one instance, parsed once per distinct template text."""
        if action.inline_job is not None:
            return parse_job_body(action.inline_job).named(name)
        ref = action.callable if action.kind == "Call" else action.template_ref
        template = self.templates[ref]
        text = instantiate_template(template, _with_builtins(template, inputs, action, self.doc))
        spec = self.job_specs.get(text)
        if spec is None:
            try:
                body = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                raise SchemaError(f"template {ref} body does not parse: {exc}") from exc
            spec = self.job_specs[text] = parse_job_body(body)
        return spec.named(name)

    def _resolve_fault(self, action: ActionSpec) -> FaultSpec:
        if action.fault is not None:
            return parse_fault_body(action.fault, self.doc)
        template = self.templates[action.template_ref]
        text = instantiate_template(template, action.inputs[0] if action.inputs else {})
        body = yaml.safe_load(text)
        return parse_fault_body(body, self.doc)

    # --- assertions ------------------------------------------------------------

    def _live(self, name: str) -> bool:
        """Whether the action's assertions are checked: dispatched, not yet terminal."""
        return not self.finished and name in self.dispatched and not self.nodes[name].phase.terminal

    def _evaluate_state_assertions(self, now: float, commands: list) -> None:
        for name in self.asserts:  # in document order
            if self._live(name):
                self._evaluate_action_assertions(name, now, commands, state=True, metrics=False)

    def _evaluate_action_assertions(self, name: str, now: float, commands: list, state: bool, metrics: bool) -> None:
        node = self.nodes[name]
        # A state assertion reads only the owner's scope, and it held false
        # the last time that scope was seen, so it needs no re-evaluation
        # until a job in the scope changes phase.
        version = self.scope_version[name]
        state = state and self.state_checked.get(name) != version
        for text, item in self.asserts.get(name, []):
            if self.finished:
                return
            if isinstance(item, Rule):
                if metrics and self._evaluate_rule(item, now, commands):
                    return
            elif state and eval_state(item, snapshot_scope(node)):
                self._fire(name, text, now, commands)
                return
        if state:
            self.state_checked[name] = version

    def _evaluate_rules(self, now: float, commands: list, changed: Optional[set] = None) -> None:
        """Evaluate every live rule whose value may have changed, in document order.

        Those are the rules in ``changed``, the rules on each metric with new
        points (the store's pending notices, taken here, not only the one of
        the event at hand) and the rules whose window timer is due. Any other
        rule reads what it read when it was last evaluated and found quiet,
        so the first rule to fire is the one a poll of every rule would find.
        """
        changed = set(changed or ())
        for metric in self.store.take_notices():
            changed.update(self.rules.get(metric, ()))
        changed.update(rule for rule in self.armed if rule.due <= now)
        for rule in sorted(changed, key=lambda r: r.order):
            if not self._live(rule.owner):
                self.armed.discard(rule)  # finished: never evaluated again
            elif self._evaluate_rule(rule, now, commands):
                return

    def _evaluate_rule(self, rule: Rule, now: float, commands: list) -> bool:
        """Evaluate one metrics rule at ``now``; True when that failed the run.

        A metric no job has declared yet, or a checkpoint not taken yet,
        reads as no data: its first point, or the checkpoint, evaluates the
        rule again. Only the last evaluation, once the action succeeded,
        fails the run on a reference that still does not exist.

        A rule that stays quiet and live re-arms its window timer for the
        next instant its window changes without an ingest; a timer that
        falls due after the rule was evaluated at or past it finds nothing.
        """
        if rule.due is not None and rule.due <= now:
            rule.due = None
            self.armed.discard(rule)
        try:
            fired = alert_holds(rule.ast, self._rule_value(rule, now), self.checkpoints)
        except (UnknownMetric, UnknownCheckpoint, ValueError) as exc:
            if isinstance(exc, ValueError) or self.nodes[rule.owner].phase.terminal:
                self._fail(f"{rule.owner}: expression error: {type(exc).__name__}: {exc}", commands)
                return True
            fired = False
        if fired:
            self._fire(rule.owner, rule.text, now, commands)
            return True
        due = rule.window.next_change()
        if due is not None and self._live(rule.owner) and (rule.due is None or due < rule.due):
            rule.due = due
            self.armed.add(rule)
            self.queue.push(due, Event(EventKind.TIME, due, timer_id=rule.timer))
        return False

    def _rule_value(self, rule: Rule, now: float) -> Optional[float]:
        return rule.window.advance(self.store, now)

    def _fire(self, name: str, text: str, now: float, commands: list) -> None:
        self.trace.append("event", now, event="Metrics", subject=name, expr=text, fired=True)
        self._fail(f"{name}: assertion fired: {text}", commands)

    # --- fault bookkeeping -------------------------------------------------------

    def _watch_kill_faults(self, subject: str, now: float, commands: list) -> None:
        for action_name, targets in list(self.kill_watch.items()):
            if subject not in targets:
                continue
            if all(self.nodes[t].phase.terminal for t in targets if t in self.nodes):
                del self.kill_watch[action_name]
                node = self.nodes[action_name]
                if not node.phase.terminal:
                    if action_name in self.annotations.open_labels():
                        self._close_region(action_name, now, commands)
                    self._move(node, Phase.SUCCESS, now, commands)
                    self._on_terminal(node, now, commands)

    # --- outcome ----------------------------------------------------------------

    def _check_completion(self) -> None:
        if self.finished or self.unfinished:
            return
        action_nodes = [self.nodes[a.name] for a in self.doc.actions]
        agg = aggregate_phase([(n.phase, n.failure_class) for n in action_nodes], tolerated=0)
        if agg == Phase.SUCCESS or not action_nodes:
            self.outcome = Outcome.SUCCESS
            self.reason = "all actions completed"
        else:
            failed = next(n for n in action_nodes if n.phase == Phase.FAILED)
            self.outcome = Outcome.FAILED
            self.reason = f"{failed.name}: {failed.failure_reason or 'failed'}"
        self.finished = True

    def _fail(self, reason: str, commands: list) -> None:
        if self.finished:
            return
        self.outcome = Outcome.FAILED
        self.reason = reason
        self.finished = True
        command = ReconcileCommand("AbortRun", self.doc.name, {"outcome": "Failed", "reason": reason})
        commands.append(command)
        self._trace_command(command, self.clock.now())

    def _abort(self, reason: str, commands: Optional[list] = None) -> None:
        if self.finished:
            return
        self.outcome = Outcome.ABORTED
        self.reason = reason
        self.finished = True
        command = ReconcileCommand("AbortRun", self.doc.name, {"outcome": "Aborted", "reason": reason})
        if commands is not None:
            commands.append(command)
        self._trace_command(command, self.clock.now())

    def _finalize(self) -> None:
        now = self.clock.now()
        for action_name, handle in list(self.active_faults.items()):
            command = ReconcileCommand("RevokeFault", action_name, {})
            self._trace_command(command, now)
            try:
                self.executor.revoke_fault(handle)
            except UnknownHandle:
                pass
            self.active_faults.pop(action_name, None)
        for label in self.annotations.open_labels():
            self._close_region(label, now, None)
        for node in iter_nodes(self.tree):
            if node.name in self.started and not node.phase.terminal:
                command = ReconcileCommand("KillJob", node.name, {})
                self._trace_command(command, now)
                self.executor.kill_job(node.name)
        self.executor.shutdown()
        if not self.tree.phase.terminal and self.outcome in (Outcome.SUCCESS, Outcome.FAILED):
            target = Phase.SUCCESS if self.outcome == Outcome.SUCCESS else Phase.FAILED
            self._move(self.tree, target, now, None)
        self.trace.append("outcome", now, outcome=self.outcome.value, reason=self.reason)

    # --- phase changes ---------------------------------------------------------------

    def _move(self, node: ResourceNode, target: Phase, at: float, commands: Optional[list]) -> None:
        """Advance ``node`` to ``target``: the one place where a phase changes.

        Traces each hop, then updates what depends on phases: the dependents
        to recheck, the owner cluster's child counts, the unfinished-action
        count, and the scope versions of the node and its ancestors.
        """
        bucket = _bucket(node)
        hops = advance_to(node, target, at)
        if not hops:
            return
        for phase in hops:
            self._trace_transition(node, phase, commands)
        owner = node.owner
        if owner is not None and owner.kind == "cluster":
            counts = self.child_counts[owner.name]
            counts[bucket] -= 1
            counts[_bucket(node)] += 1
        if owner is self.tree and node.phase.terminal:
            self.unfinished -= 1
        self.dirty.update(self.dependents.get(node.name, ()))
        while node is not None:
            self.scope_version[node.name] += 1
            node = node.owner

    def cluster_phase(self, cluster: ResourceNode) -> Phase:
        """The cluster's aggregate phase, from its child counts.

        Equal to ``aggregate_phase`` over the cluster's children, in O(1).
        """
        unstarted, running, _, expected, unexpected = self.child_counts[cluster.name]
        if unexpected or expected > cluster.tolerated:
            return Phase.FAILED
        if unstarted:
            return Phase.PENDING
        if running:
            return Phase.RUNNING
        return Phase.SUCCESS

    # --- trace helpers -------------------------------------------------------------

    def _trace_transition(self, node: ResourceNode, phase: Phase, commands: Optional[list] = None) -> None:
        at = node.phase_times.get(phase, self.clock.now())
        data = {"subject": node.name, "to": phase.value}
        if phase == Phase.FAILED:
            if node.failure_class is not None:
                data["class"] = node.failure_class.value
            if node.failure_reason:
                data["reason"] = node.failure_reason
        self.trace.append("transition", at, **data)
        if commands is not None:
            commands.append(ReconcileCommand("Transition", node.name, {"to": phase.value}))

    def _trace_command(self, command: ReconcileCommand, at: float) -> None:
        self.trace.append("command", at, verb=command.verb, target=command.target, args=command.args)

    def _trace_annotation(self, action: str, label: str, at: float, commands: Optional[list], **extra) -> None:
        kind = "Point" if action == "point" else "Region"
        self.trace.append("annotation", at, action=action, label=label, ann_kind=kind, **extra)
        if commands is not None:
            commands.append(ReconcileCommand("Annotate", label, {"action": action}))

    def _close_region(self, label: str, at: float, commands: Optional[list]) -> None:
        region = self.annotations.close_region(label, at)
        self._trace_annotation("close", label, at, commands, start=region.start, end=region.end)


def _bucket(node: ResourceNode) -> int:
    """Index of the node's phase in a cluster's child counts."""
    if node.phase == Phase.FAILED:
        return 3 if node.failure_class == FailureClass.EXPECTED else 4
    return _BUCKETS[node.phase]


_BUCKETS = {Phase.UNINITIALIZED: 0, Phase.PENDING: 0, Phase.RUNNING: 1, Phase.SUCCESS: 2}


def run_scenario(
    doc: ScenarioDoc,
    templates: Optional[dict] = None,
    executor: Optional[Executor] = None,
    clock=None,
    seed: int = 0,
    default_timeout: float = ENGINE_DEFAULT_TIMEOUT,
) -> RunResult:
    """Validate, run, and trace one scenario; see Engine for the mechanics."""
    engine = Engine(doc, templates, executor, clock=clock, seed=seed, default_timeout=default_timeout)
    return engine.run()
