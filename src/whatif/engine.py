"""The reconciliation core: one logical loop that owns all run state.

Events (state changes, timers, metric ingests) are consumed in
(timestamp, sequence) order from a single queue. Each event starts a
reconciliation cycle that re-checks dependencies, dispatches newly
satisfied actions in document order, evaluates assertions, and decides
the run outcome. Executors affect the run only through the events
they emit, and the engine reaches executors only through calls, each traced
as a ``command`` record, so a simulated run is a deterministic function of
(document, seed) and its trace is the run's one record of what it did.

Time is ``Engine.now``: the clock is read once per step (the run start, a
cycle, an abort from outside one, the cleanup), and the step's records carry it.

The engine keeps the run's one record of the faults in effect (the kill
watch and ``in_effect``); executors keep none. A fault target is running when
its recorded phase is Running and no kill watches it. A failure is Expected
exactly when it is observed as a kill while a kill fault watches its job.

A cycle's work grows with what the event touched, not with the document:
every phase change goes through ``Engine._move``, which keeps per-cluster
phase counts and marks for a recheck only what the change can turn true.
An action is due for a dependency recheck when a node its ``depends``
names enters a phase the clause waits for (Running for a ``running:``
part, Success for either part). An action's state assertions turn stale
when a job in its scope (a cluster's instances, or any other action's own
job) leaves or enters a count slot one of them reads. A cluster's phase
and its state assertions are answered from those counts
(``CountedScope``), so a child's event costs O(1) however many instances
the cluster has. Armed window timers and `after:` waits sit in heaps by due
instant, and the run's end kills only the jobs it keeps as live.

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
from enum import Enum
from operator import attrgetter
from typing import Optional

from .dsl import (
    ActionSpec,
    ScenarioDoc,
    ValidationReport,
    compile_scenario,
    expand_targets,  # unused here; bench/tracer.py wraps it on this module
    instantiate_template,  # unused here; bench/tracer.py wraps it on this module
    validate,  # unused here; bench/tracer.py wraps it on this module
)
from .errors import (
    InvalidScenario,
    SpawnError,
    TargetNotRunning,
    UnknownCheckpoint,
    UnknownMetric,
    UnsupportedFault,
)
from .events import Event, EventKind, EventQueue, SimClock, WallClock
from .executors.base import Executor, FaultSpec, JobSpec
from .expressions import (
    MetricsExprAst,
    WindowAggregate,
    alert_holds,
    eval_metrics,  # unused here; bench/tracer.py wraps it on this module
    eval_state,
    iter_compares,
    parse_expression,  # unused here; bench/tracer.py wraps it on this module
    scope_job_nodes,
    snapshot_scope,  # unused here; bench/tracer.py wraps it on this module
)
from .lifecycle import (
    SLOTS,
    FailureClass,
    Phase,
    ResourceNode,
    advance_to,
    aggregate_phase,  # unused here; bench/tracer.py wraps it on this module
    counted_phase,
    find_node,  # unused here; bench/tracer.py wraps it on this module
    iter_nodes,  # unused here; bench/tracer.py wraps it on this module
    phase_order,
    slot,
)
from .telemetry import MetricsStore, snapshot
from .trace import FORMAT, RunTrace


def _logger():
    """The engine's logger. Only rare branches log, so ``logging`` loads on first use."""
    import logging

    return logging.getLogger(__name__)


class Outcome(Enum):
    SUCCESS = "Success"
    FAILED = "Failed"
    ABORTED = "Aborted"

    def __str__(self) -> str:
        return self.value


class Rule:
    """A metrics assertion of one action, with its incremental window."""

    __slots__ = ("order", "owner", "text", "ast", "window", "timer", "due")

    def __init__(
        self,
        order: int,
        owner: str,
        text: str,
        ast: MetricsExprAst,
        window: WindowAggregate,
        timer: str,
    ):
        self.order = order  # position among all rules, in document order
        self.owner = owner
        self.text = text
        self.ast = ast
        self.window = window
        self.timer = timer  # id of its window timer
        self.due: Optional[float] = None  # when its armed window timer fires


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
        base = max(base, node.phase_times[Phase.RUNNING])
    for name in clause.success:
        node = nodes.get(name)
        if node is None or node.phase != Phase.SUCCESS:
            return None
        base = max(base, node.phase_times[Phase.SUCCESS])
    return base


def dependency_satisfied(clause, nodes: dict, now: float) -> bool:
    """True when every referenced state holds and any `after` delay elapsed by ``now``."""
    base = ready_since(clause, nodes)
    if base is None:
        return False
    if clause.after is not None:
        return now + 1e-9 >= base + clause.after
    return True


class Engine:
    """Runs one scenario to completion over a bound executor.

    The document's plan (``compile_scenario``, compiled once per loaded
    document) gives every name, job, fault and expression the run needs.
    The run's phases live in its own copy of the plan's tree, so any number
    of engines can share one plan.
    """

    def __init__(
        self,
        doc: ScenarioDoc,
        templates: Optional[dict] = None,
        executor: Optional[Executor] = None,
        clock=None,
        seed: int = 0,
    ):
        self.doc = doc
        plan = compile_scenario(doc, templates)
        if not plan.report.ok:
            raise InvalidScenario(ValidationReport(list(plan.report.findings)))
        self.plan = plan

        if executor is None:
            from .executors.sim import SimExecutor

            executor = SimExecutor()
        self.executor = executor
        self.clock = clock if clock is not None else (SimClock() if executor.name == "sim" else WallClock())
        self.seed = seed

        self.queue = EventQueue()
        self.trace = RunTrace()
        self.store = MetricsStore()
        self.checkpoints: dict[str, dict] = {}  # checkpoint name -> its values, each written once
        self.executor.bind(self.queue, self.clock, self.store)

        # The run's own nodes, copied from the plan's tree and indexed in the plan's order.
        copies: dict[ResourceNode, ResourceNode] = {}
        self.tree = _copy_tree(plan.tree, copies)
        self.nodes = {name: copies[node] for name, node in plan.nodes.items()}
        # Each action's assertions in text order: a state AST, or a Rule for a
        # metrics one. Rules are also indexed by the metric they read and by
        # the checkpoints their thresholds read; `armed` is a heap of the
        # (due, order) of each window timer in the queue, an entry stale once
        # its rule's `due` moved, and `by_order` finds an entry's rule.
        self.asserts: dict[str, list] = {}
        self.rules: dict[str, list[Rule]] = {}
        self.checkpoint_readers: dict[str, list[Rule]] = {}
        self.armed: list[tuple[float, int]] = []
        self.by_order: list[Rule] = []
        for owner, pairs in plan.asserts.items():
            for index, (text, ast) in enumerate(pairs):
                if isinstance(ast, MetricsExprAst):
                    window = WindowAggregate(ast.metric, ast.reducer, ast.window)
                    rule = Rule(len(self.by_order), owner, text, ast, window, f"window:{owner}:{index}")
                    self.by_order.append(rule)
                    self.rules.setdefault(ast.metric, []).append(rule)
                    for name in dict.fromkeys(t.checkpoint[0] for t in ast.condition.terms if t.checkpoint):
                        self.checkpoint_readers.setdefault(name, []).append(rule)
                    ast = rule
                self.asserts.setdefault(owner, []).append((text, ast))

        # Incremental dispatch, by action index in document order: the actions
        # due for a dependency check (all of them in the first cycle); the
        # plan's `dependents` names the actions waiting on each (name, phase).
        self.dirty: set[int] = set(range(len(doc.actions)))
        self.timed: set[int] = set()  # `after:` timer armed, not yet dispatched
        self.waits: list[tuple[float, int]] = []  # a heap of each timed action's (due, index)
        # Per-cluster child counts by phase slot (see lifecycle.slot; every
        # child starts Uninitialized), the stale asserting actions (a job in
        # their scope left or entered a slot their state assertions read since
        # those were last evaluated), each asserting action's place in
        # document order, and the number of actions not yet terminal.
        self.phase_counts = {name: [instances] + [0] * (SLOTS - 1) for name, instances in plan.clusters.items()}
        self.stale: set[str] = set()
        # Each job in the scope of an action with state assertions, with that
        # action and the count slots its state assertions read.
        self.watchers: dict[ResourceNode, tuple[str, frozenset]] = {}
        for name, pairs in self.asserts.items():
            reads = frozenset().union(*(slots_read(ast) for _, ast in pairs))
            if reads:
                for job in scope_job_nodes(self.nodes[name]):
                    self.watchers[job] = (name, reads)
        self.assert_order = {name: index for index, name in enumerate(self.asserts)}
        self.unfinished = len(doc.actions)

        self.dispatched: set = set()
        self.live_jobs: set[ResourceNode] = set()  # the jobs started and not ended: `_finalize` kills them
        # The faults in effect by action: each kill's count of live targets, the one kill
        # watching each target, and the suspends and partitions in injection order.
        self.kill_watch: dict[str, int] = {}
        self.kill_watchers: dict[str, str] = {}
        self.in_effect: dict[str, FaultSpec] = {}
        self.holds: dict[str, int] = {}  # each target's count of suspends in effect on it
        self.now = 0.0  # the engine's time: the clock's one reading for the step under way
        self.finished = False
        self.outcome = Outcome.ABORTED  # until the run decides it: an undecided run is no Success
        self.reason = ""

    # --- public surface ---------------------------------------------------

    def run(self) -> Engine:
        """Run to an outcome; returns the engine. An internal error aborts the run; cleanup always runs."""
        try:
            self._loop()
        except BaseException as exc:  # an interrupt (KeyboardInterrupt, SystemExit) propagates after the cleanup
            self.now = self.clock.now()  # the abort is a step of its own
            self._abort_for(exc)
        finally:
            self._finalize()
        return self

    def _loop(self) -> None:
        self.now = self.clock.now()
        self.trace.append(
            "run", self.now,
            scenario=self.doc.name, seed=self.seed, executor=self.executor.name,
            actions=[{"name": a.name, "kind": a.kind} for a in self.doc.actions],
            assertions={name: [t for t, _ in pairs] for name, pairs in self.asserts.items()}, format=FORMAT,
        )
        self.store.watch(self.rules.keys(), self.queue, self.clock)
        self._move(self.tree, Phase.RUNNING)

        self._recheck_dispatch()
        self._check_completion()

        while not self.finished:
            popped = self.queue.pop_next() if self.clock.virtual else self.queue.wait_next(self.clock, self.executor.wait)
            if popped is None:
                self.now = self.clock.now()
                self._abort("timeout: no pending events but actions remain unfinished")
                break
            at, item = popped  # when the item was due; a fact's time is its step's
            self.clock.set(at)
            if isinstance(item, Event):
                self.reconcile(item)
            else:
                item()  # scheduled executor/timer work; may emit events

    def reconcile(self, event: Event) -> None:
        """One reconciliation cycle, a step: the event and what it caused are traced at one clock reading."""
        if self.finished:
            return
        self.now = self.clock.now()
        self.trace.append("event", self.now, **event.describe())
        kind = event.kind
        if kind is EventKind.STATE:
            self._on_state(event)
        elif kind is EventKind.TIME:
            self._on_time(event)
        elif kind is EventKind.METRICS:
            self._evaluate_rules()
        if not self.finished:
            self._recheck_dispatch()
            self._check_completion()

    # --- event handlers -----------------------------------------------------

    def _on_state(self, event: Event) -> None:
        node = self.nodes.get(event.subject)
        if node is None:
            _logger().warning("state event for unknown resource %s", event.subject)
            return
        if node.phase.terminal:
            return

        if event.phase is Phase.FAILED:
            expected = event.failure_mode == "kill" and node.name in self.kill_watchers
            node.failure_class = FailureClass.EXPECTED if expected else FailureClass.UNEXPECTED
            node.failure_reason = event.reason or event.failure_mode or "failed"
        self._move(node, event.phase)

        newly_terminal = [node] if node.phase.terminal else []
        if newly_terminal:
            self.live_jobs.discard(node)
        owner = node.owner
        if owner is not None and owner.kind == "cluster" and not owner.phase.terminal:
            agg = self.cluster_phase(owner)
            if phase_order(agg) > phase_order(owner.phase):
                self._move(owner, agg)
                if owner.phase.terminal:
                    newly_terminal.append(owner)

        for done in newly_terminal:
            self._on_terminal(done)
            if self.finished:
                return

        self._watch_kill_faults(node)
        if not self.finished:
            self._evaluate_state_assertions()

    def _on_terminal(self, node: ResourceNode) -> None:
        if node.phase == Phase.FAILED:
            if node.failure_class == FailureClass.UNEXPECTED:
                self._fail(f"{node.name}: {node.failure_reason or 'unexpected failure'}")
                return
            # Expected failure: culpable only when it pushed its owner over
            # tolerance, or when it sits at scenario level (tolerance 0).
            owner = node.owner
            if owner is not None and owner.kind == "cluster":
                if owner.phase == Phase.FAILED:
                    self._fail(f"{node.name}: expected failure beyond cluster tolerance")
                return
            if owner is self.tree:
                self._fail(f"{node.name}: {node.failure_reason or 'failure'} at scenario level")
            return
        if node.phase == Phase.SUCCESS and node.name in self.asserts:
            self._evaluate_action_assertions(node.name, metrics=True)

    def _on_time(self, event: Event) -> None:
        kind, _, name = event.timer_id.partition(":")
        if kind == "timeout":
            node = self.nodes.get(name)
            if node is not None and not node.phase.terminal:
                self._abort(f"timeout: action {name} did not finish in time")
        elif kind == "window":
            self._evaluate_rules()
        elif kind == "fault":
            self._end_fault(name)
        # "after:" timers only need the dispatch recheck that follows.

    # --- dispatch -------------------------------------------------------------

    def _recheck_dispatch(self) -> None:
        """Dispatch every newly satisfied action, in document order.

        Only two kinds of action can have become satisfied since they were
        last checked: the dirty ones, a target of which entered a phase their
        clause waits for, and the ones popped from ``waits`` at the first
        cycle at or past the due instant of their `after:` timer (a timer
        armed in a cycle falls due after it). Each pass visits those in
        document order; an action dirtied by a dispatch joins the current
        pass when it comes later in the document and the next pass
        otherwise, and passes repeat while a dispatch made progress. A cycle
        with no such action makes no pass.
        """
        while self.waits and self.waits[0][0] <= self.now + 1e-9:  # as `dependency_satisfied` compares
            self.dirty.add(heapq.heappop(self.waits)[1])
        if not self.dirty:
            return
        progress = True
        while progress and not self.finished:
            progress = False
            pending = sorted(self.dirty)  # a sorted list is a heap
            queued = set(pending)
            self.dirty = set()
            while pending:
                index = heapq.heappop(pending)
                action = self.doc.actions[index]
                if action.name in self.dispatched:
                    continue
                clause = action.depends
                if not dependency_satisfied(clause, self.nodes, self.now):
                    self._maybe_arm_after(action, index)
                    continue
                self.dispatched.add(action.name)
                self.timed.discard(index)
                self._dispatch(action)
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
        heapq.heappush(self.waits, (base + clause.after, index))
        self.queue.push(base + clause.after, Event(EventKind.TIME, timer_id=f"after:{action.name}"))

    def _dispatch(self, action: ActionSpec) -> None:
        timeout = self.plan.timeouts[action.name]
        self.queue.push(self.now + timeout, Event(EventKind.TIME, timer_id=f"timeout:{action.name}"))
        if action.kind in ("Service", "Call"):
            self._create_job(self._resolve_job(action, 0, action.name))
        elif action.kind == "Cluster":
            self._dispatch_cluster(action)
        elif action.kind == "Chaos":
            self._dispatch_chaos(action)
        elif action.kind == "Checkpoint":
            self._dispatch_checkpoint(action)
        # A live action's assertions: the first look at a metrics window, and
        # at a state scope that may never change again.
        if action.name in self.asserts and self._live(action.name):
            self._evaluate_action_assertions(action.name, metrics=True)

    def _dispatch_cluster(self, action: ActionSpec) -> None:
        node = self.nodes[action.name]
        self._move(node, Phase.PENDING)
        for index, child in enumerate(node.children):
            self._create_job(self._resolve_job(action, index, child.name))

    def _dispatch_chaos(self, action: ActionSpec) -> None:
        spec = self.plan.faults[action.name]
        node = self.nodes[action.name]
        self._move(node, Phase.PENDING)
        self._trace_command("InjectFault", action.name, {
            "kind": spec.kind, "targets": list(spec.targets), "dst": list(spec.dst),
            "direction": spec.direction, "duration": spec.duration,
        })
        try:
            for target in spec.targets:  # as recorded; a killed job's exit may not be seen yet
                if self.nodes[target].phase != Phase.RUNNING or target in self.kill_watchers:
                    raise TargetNotRunning(target)
            self.executor.inject_fault(action.name, spec)
        except (UnsupportedFault, TargetNotRunning) as exc:
            self._fail(f"{action.name}: {type(exc).__name__}: {exc}")
            return
        self._move(node, Phase.RUNNING)
        if spec.kind == "kill":
            watched = dict.fromkeys(spec.targets)  # each one Running
            self.kill_watch[action.name] = len(watched)
            for target in watched:
                self.kill_watchers[target] = action.name
        else:
            self.in_effect[action.name] = spec
            for target in spec.targets if spec.kind == "suspend" else ():
                self.holds[target] = self.holds.get(target, 0) + 1
            self.queue.push(self.now + spec.duration, Event(EventKind.TIME, timer_id=f"fault:{action.name}"))

    def _dispatch_checkpoint(self, action: ActionSpec) -> None:
        node = self.nodes[action.name]
        self._move(node, Phase.RUNNING)
        self._trace_command("Snapshot", action.name, {"keys": list(action.values)})
        try:
            values, phases = snapshot(self.plan.checkpoint_exprs.get(action.name, []), self.tree, self.store, self.now)
        except UnknownMetric as exc:
            self._fail(f"{action.name}: expression error: unknown metric {exc}")
            return
        self.checkpoints[action.name] = values
        self.trace.append(
            "checkpoint", self.now, name=action.name,
            values=dict(values),
            phases={name: phase.value for name, phase in phases.items()},
        )
        self._move(node, Phase.SUCCESS)
        self._on_terminal(node)
        self._evaluate_rules(set(self.checkpoint_readers.get(action.name, ())))

    def _create_job(self, spec: JobSpec) -> None:
        self._trace_command("CreateJob", spec.name, {
            "command": spec.command, "script_effects": len(spec.script), "metrics": spec.metrics_source,
        })
        try:
            self.executor.start_job(spec)
        except SpawnError as exc:
            # The job never came up: it fails as an unexpected crash, and its
            # step records the Pending and Running it passes through.
            self.queue.push(self.now, Event(
                EventKind.STATE, subject=spec.name, phase=Phase.FAILED,
                failure_mode="crash", reason=f"spawn failed: {exc}",
            ))
            return
        except KeyboardInterrupt:  # it may land once the job is started: as Pending, the cleanup kills it
            self._move(self.nodes[spec.name], Phase.PENDING)
            self.live_jobs.add(self.nodes[spec.name])
            raise
        for metric in spec.declares:  # the spawn succeeded
            self.store.declare(metric)
        self._move(self.nodes[spec.name], Phase.PENDING)
        self.live_jobs.add(self.nodes[spec.name])

    def _resolve_job(self, action: ActionSpec, index: int, name: str) -> JobSpec:
        """The plan's job for instance ``index``, under the instance's name.

        Instance ``index`` takes the job of inputs map ``index``, cycling
        through the maps; a Service or Call is instance 0.
        """
        specs = self.plan.jobs[action.name]
        return specs[index % len(specs)].named(name)

    # --- assertions ------------------------------------------------------------

    def _live(self, name: str) -> bool:
        """Whether the action's assertions are checked: dispatched, not yet terminal."""
        return not self.finished and name in self.dispatched and not self.nodes[name].phase.terminal

    def _evaluate_state_assertions(self) -> None:
        """Evaluate the state assertions of the live stale actions, in document order.

        A state assertion reads only some count slots of its owner's scope,
        and it held false the last time they were seen, so it needs no
        re-evaluation until a job in the scope leaves or enters one of them.
        An action that is not live drops out too: a terminal one is done, and
        the others are evaluated at dispatch.
        """
        if not self.stale:
            return
        stale, self.stale = self.stale, set()
        for name in sorted(stale, key=self.assert_order.__getitem__):
            if self._live(name):
                self._evaluate_action_assertions(name, metrics=False)

    def _evaluate_action_assertions(self, name: str, metrics: bool) -> None:
        """Evaluate the action's state assertions, and its metrics rules when ``metrics``."""
        node = self.nodes[name]
        self.stale.discard(name)
        for text, item in self.asserts.get(name, []):
            if isinstance(item, Rule):
                if metrics and self._evaluate_rule(item):
                    return
            elif eval_state(item, self._scope(node)):
                self._fire(name, text)
                return

    def _scope(self, node: ResourceNode) -> CountedScope:
        """The asserting action's scope: a cluster's children, or a leaf action's own job."""
        counts = self.phase_counts.get(node.name)
        if counts is None:
            counts = [0] * SLOTS
            counts[slot(node.phase, node.failure_class)] = 1
        return CountedScope(node, counts, self.nodes)

    def _evaluate_rules(self, changed: Optional[set] = None) -> None:
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
        while self.armed and self.armed[0][0] <= self.now:
            due, order = heapq.heappop(self.armed)
            if self.by_order[order].due == due:
                changed.add(self.by_order[order])
        for rule in sorted(changed, key=attrgetter("order")) if len(changed) > 1 else changed:
            if self._live(rule.owner) and self._evaluate_rule(rule):
                return

    def _evaluate_rule(self, rule: Rule) -> bool:
        """Evaluate one metrics rule at ``self.now``; True when that failed the run.

        A metric no job has declared yet, or a checkpoint not taken yet,
        reads as no data: its first point, or the checkpoint, evaluates the
        rule again. Only the last evaluation, once the action succeeded,
        fails the run on a reference that still does not exist.

        A rule that stays quiet and live re-arms its window timer for the
        next instant its window changes without an ingest; a timer that
        falls due after the rule was evaluated at or past it finds nothing.
        """
        if rule.due is not None and rule.due <= self.now:
            rule.due = None
        try:
            fired = alert_holds(rule.ast, self._rule_value(rule), self.checkpoints)
        except (UnknownMetric, UnknownCheckpoint, ValueError) as exc:
            if isinstance(exc, ValueError) or self.nodes[rule.owner].phase.terminal:
                self._fail(f"{rule.owner}: expression error: {type(exc).__name__}: {exc}")
                return True
            fired = False
        if fired:
            self._fire(rule.owner, rule.text)
            return True
        due = rule.window.next_change()
        if due is not None and (rule.due is None or due < rule.due) and self._live(rule.owner):
            rule.due = due
            heapq.heappush(self.armed, (due, rule.order))
            self.queue.push(due, Event(EventKind.TIME, timer_id=rule.timer))
        return False

    def _rule_value(self, rule: Rule) -> Optional[float]:
        return rule.window.advance(self.store, self.now)

    def _fire(self, name: str, text: str) -> None:
        self.trace.append("fired", self.now, owner=name, expr=text)
        self._fail(f"{name}: assertion fired: {text}")

    # --- fault bookkeeping -------------------------------------------------------

    def _watch_kill_faults(self, target: ResourceNode) -> None:
        """Count a watched target, which was Running at injection, so its one later State event is terminal;
        a kill fault whose count reaches 0 succeeds."""
        action_name = self.kill_watchers.pop(target.name, None)
        if action_name is None:
            return
        self.kill_watch[action_name] -= 1
        if not self.kill_watch[action_name]:
            del self.kill_watch[action_name]
            self._end_fault(action_name)

    def _end_fault(self, action: str) -> None:
        """The one place a Chaos action ends: a kill once its last live target is terminal, a suspend
        or partition at its ``fault:`` timer, which revokes it."""
        if action in self.in_effect:  # a kill is over once injected
            self._revoke(action)
        node = self.nodes[action]
        self._move(node, Phase.SUCCESS)
        self._on_terminal(node)

    def _revoke(self, action: str) -> None:
        """Take a suspend or partition out of ``in_effect`` and undo it. A target of overlapping
        suspends resumes when the last of them ends."""
        spec = self.in_effect.pop(action)
        targets = spec.targets if spec.kind == "suspend" else ()
        for target in targets:
            self.holds[target] -= 1
        resume = [t for t in targets if not self.holds[t]]
        self._trace_command("RevokeFault", action)
        self.executor.revoke_fault(action, resume)

    # --- outcome ----------------------------------------------------------------

    def _check_completion(self) -> None:
        """Succeed once every action is terminal: a Failed one already failed the run (``_on_terminal``)."""
        if self.finished or self.unfinished:
            return
        self.outcome = Outcome.SUCCESS
        self.reason = "all actions completed"
        self.finished = True

    def _fail(self, reason: str) -> None:
        self._abort(reason, Outcome.FAILED)

    def _abort(self, reason: str, outcome: Outcome = Outcome.ABORTED) -> None:
        """Decide the run, unless it is decided already: traced as an AbortRun at the step's time."""
        if self.finished:
            return
        self.outcome = outcome
        self.reason = reason
        self.finished = True
        self._trace_command("AbortRun", self.doc.name, {"outcome": outcome.value, "reason": reason})

    def _abort_for(self, exc: BaseException) -> None:
        """Abort the run for an exception that escaped a step; log an internal error, re-raise an interrupt."""
        if not isinstance(exc, Exception):
            self._abort(f"interrupted: {type(exc).__name__}")
            raise exc
        _logger().error("internal error", exc_info=exc)
        self._abort(f"internal error: {type(exc).__name__}: {exc}")

    def _finalize(self) -> None:
        """The cleanup and the outcome, a step of its own. Each cleanup call is made, also after an earlier one
        raised; the first that raised aborts a run that had a verdict. After a clean cleanup the root takes the
        verdict's phase, a call that may raise like the others. The ``outcome`` record is always written."""
        self.now = self.clock.now()
        raised = []
        for action_name in list(self.in_effect):
            try:
                self._revoke(action_name)
            except BaseException as exc:
                raised.append(exc)
        for node in sorted(self.live_jobs, key=attrgetter("order")):  # in the plan's depth-first order
            try:
                self._trace_command("KillJob", node.name)
                self.executor.kill_job(node.name)
            except BaseException as exc:
                raised.append(exc)
        try:
            self.executor.shutdown()
        except BaseException as exc:
            raised.append(exc)
        if not raised and self.outcome != Outcome.ABORTED:
            try:
                self._move(self.tree, Phase.SUCCESS if self.outcome == Outcome.SUCCESS else Phase.FAILED)
            except BaseException as exc:
                raised.append(exc)
        try:
            if raised and self.outcome != Outcome.ABORTED:
                self.finished = False  # a verdict stands only on a clean cleanup
            for exc in raised:
                self._abort_for(exc)
        finally:
            self.trace.append("outcome", self.now, outcome=self.outcome.value, reason=self.reason)

    # --- phase changes ---------------------------------------------------------------

    def _move(self, node: ResourceNode, target: Phase) -> None:
        """Advance ``node`` to ``target``: the one place where a phase changes.

        Traces each hop, then updates what depends on phases: the owner
        cluster's child counts, the unfinished-action count, the dependents
        to recheck and the stale set. Only the phase the node ends in can
        satisfy a dependent (a hop through Running to Failed satisfies none),
        so the dependents are those waiting on that phase. The stale set
        gains the action whose scope holds the node when the move left or
        entered a slot that action's state assertions read; a cluster's own
        move changes nothing in its scope.
        """
        left = slot(node.phase, node.failure_class)
        hops = advance_to(node, target, self.now)
        if not hops:
            return
        for phase in hops:
            self._trace_transition(node, phase)
        entered = slot(node.phase, node.failure_class)
        owner = node.owner
        if owner is not None and owner.kind == "cluster":
            counts = self.phase_counts[owner.name]
            counts[left] -= 1
            counts[entered] += 1
        elif owner is self.tree and node.phase.terminal:
            self.unfinished -= 1
        waiting = self.plan.dependents.get((node.name, node.phase))
        if waiting:
            self.dirty.update(waiting)
        watch = self.watchers.get(node)
        if watch is not None and (left in watch[1] or entered in watch[1]):
            self.stale.add(watch[0])

    def cluster_phase(self, cluster: ResourceNode) -> Phase:
        """The cluster's aggregate phase, from its child counts.

        Equal to ``aggregate_phase`` over the cluster's children, in O(1).
        """
        return counted_phase(self.phase_counts[cluster.name], cluster.tolerated)

    # --- trace helpers -------------------------------------------------------------

    def _trace_transition(self, node: ResourceNode, phase: Phase) -> None:
        """Record one hop; only a Failed one carries a class and a reason, so the
        others go to ``append`` as keywords. ``_value_`` skips Enum's ``value`` descriptor."""
        if phase is not Phase.FAILED:
            self.trace.append("transition", node.phase_times[phase], subject=node.name, to=phase._value_)
            return
        data = {"subject": node.name, "to": phase._value_}
        if node.failure_class is not None:
            data["class"] = node.failure_class._value_
        if node.failure_reason:
            data["reason"] = node.failure_reason
        self.trace.append("transition", node.phase_times[phase], **data)

    def _trace_command(self, verb: str, target: str, args: Optional[dict] = None) -> None:
        """Record one call into the executor, or the run's abort."""
        self.trace.append("command", self.now, verb=verb, target=target, args={} if args is None else args)


def _copy_tree(model: ResourceNode, copies: dict) -> ResourceNode:
    """A fresh, Uninitialized copy of the subtree at ``model``; ``copies`` maps each model node to its copy.
    Each copy's ``order`` is its place in the depth-first walk of the whole tree."""
    node = copies[model] = ResourceNode(model.name, model.kind, tolerated=model.tolerated)
    node.order = len(copies)
    for child in model.children:
        node.add_child(_copy_tree(child, copies))
    return node


class CountedScope:
    """An asserting action's scope, answered from phase counts in O(1).

    Answers the questions of ``ScopeSnapshot``, which scans its jobs instead:
    ``counts`` holds how many of the scope's jobs sit in each phase slot (a
    cluster's live counts, or a leaf action's one job) and ``nodes`` finds a
    named job.
    """

    __slots__ = ("owner", "counts", "nodes")

    def __init__(self, owner: ResourceNode, counts: list, nodes: dict):
        self.owner = owner
        self.counts = counts
        self.nodes = nodes

    def count(self, fn: str, subject: Optional[str] = None) -> int:
        slots = _COUNTED_BY[fn]
        if subject is None:
            return sum(self.counts[i] for i in slots)
        job = self._job(subject)
        return int(job is not None and slot(job.phase, job.failure_class) in slots)

    def phase_of(self, subject: str) -> Optional[Phase]:
        job = self._job(subject)
        return None if job is None else job.phase

    def aggregate(self) -> Phase:
        return counted_phase(self.counts, 0)

    def _job(self, name: str) -> Optional[ResourceNode]:
        node = self.nodes.get(name)
        owner = self.owner
        if node is not None and (node.owner is owner if owner.children else node is owner):
            return node
        return None


# The slots each state fn counts; `.state.failed()` counts either class.
_COUNTED_BY = {p.value.lower(): (slot(p, None),) for p in (Phase.PENDING, Phase.RUNNING, Phase.SUCCESS)}
_COUNTED_BY.update(failed=(slot(Phase.FAILED, FailureClass.EXPECTED), slot(Phase.FAILED, None)), all=range(SLOTS))


def slots_read(ast) -> frozenset:
    """The count slots a state assertion's answer depends on: a count reads the
    slots its fn counts, and a phase comparison (a job's phase, or the
    aggregate) reads every slot. A metrics rule reads none."""
    return frozenset(
        index
        for compare in iter_compares(ast)
        for index in (range(SLOTS) if isinstance(compare.value, str) else _COUNTED_BY[compare.call.fn])
    )


def run_scenario(
    doc: ScenarioDoc,
    templates: Optional[dict] = None,
    executor: Optional[Executor] = None,
    clock=None,
    seed: int = 0,
) -> Engine:
    """Validate, run, and trace one scenario; returns the finished Engine, see there for the mechanics."""
    engine = Engine(doc, templates, executor, clock=clock, seed=seed)
    return engine.run()
