"""Reconciliation: dispatch ordering, dependencies, outcomes, determinism."""

import itertools
import random

import pytest
import yaml

from whatif.dsl import DependsClause, Template, parse_scenario
from whatif.engine import Engine, Outcome, dependency_satisfied, ready_since, run_scenario
from whatif.errors import InvalidScenario, UnsupportedFault
from whatif.events import Event, EventKind
from whatif.executors import make_executor
from whatif.executors.sim import SimExecutor
from whatif.lifecycle import Phase, ResourceNode, advance_to, iter_nodes
from whatif.report import build_report
from whatif.trace import RunTrace

from conftest import SCENARIOS, script_template, stage_template
from oracles import assert_one_time_per_fact, run_one_time_per_step
from test_acceptance import CORPUS_TEMPLATES, LEAK_TEMPLATES, PANIC_DOC, PANIC_TEMPLATES, _leak_doc, _stage_doc
from test_golden import GOLDEN, _build, corpus_docs


def state_event(subject, phase, mode="", reason=""):
    return Event(EventKind.STATE, subject=subject, phase=phase, failure_mode=mode, reason=reason)


class LaggingEngine(Engine):
    """A defective engine: it stamps each State event's facts 1 s before the event's own record."""

    def _on_state(self, event):
        self.now -= 1.0
        super()._on_state(event)


def nodes(tree):
    return {n.name: n for n in iter_nodes(tree)}


def cycle(engine, event):
    """Run one reconciliation cycle; return the trace records it appended after the event's own."""
    start = len(engine.trace)
    engine.reconcile(event)
    assert engine.trace.records[start].data == event.describe()
    return engine.trace.records[start + 1:]


def report_regions(trace) -> dict:
    """The report's Regions by label. Each one ends no earlier than it starts,
    when its action ends, or with the run if the action never did."""
    report = build_report(trace.records)
    [outcome_at] = [r.at for r in trace if r.kind == "outcome"]
    regions = {a["label"]: a for a in report["annotations"] if a["kind"] == "Region"}
    for label, region in regions.items():
        assert region["end"] >= region["start"], label
        assert region["end"] == report["resources"][label].get("end", outcome_at), label
    return regions


def dispatch_commands(records):
    return [
        (r.data["verb"], r.data["target"]) for r in records
        if r.kind == "command" and r.data["verb"] in ("CreateJob", "InjectFault")
    ]


class TestReconcileExamples:
    """Step the engine by hand through the partition demo scenario."""

    @pytest.fixture
    def engine(self, partition_demo):
        doc, templates = partition_demo
        engine = Engine(doc, templates)
        # Initial cycle dispatches the dependency-free cluster.
        first = cycle(engine, Event(EventKind.TIME, timer_id="start"))
        assert dispatch_commands(first) == [("CreateJob", f"masters-{i}") for i in range(4)]
        return engine

    def drive_to_running(self, engine, names):
        records = []
        for name in names:
            records = cycle(engine, state_event(name, Phase.RUNNING))
        return records

    def test_masters_running_creates_boot(self, engine):
        records = self.drive_to_running(engine, [f"masters-{i}" for i in range(4)])
        assert ("CreateJob", "boot") in dispatch_commands(records)

    def test_time_event_with_no_waiting_timers(self, engine):
        assert cycle(engine, Event(EventKind.TIME, timer_id="nothing-waits")) == []

    def test_wait_success_dispatches_two_in_document_order(self, engine):
        self.drive_to_running(engine, [f"masters-{i}" for i in range(4)])
        for call in ("boot", "import-workload", "wait-for-3x-replication"):
            engine.reconcile(state_event(call, Phase.RUNNING))
            records = cycle(engine, state_event(call, Phase.SUCCESS))
        assert dispatch_commands(records) == [
            ("CreateJob", "run-workload"),
            ("InjectFault", "partition0"),
        ]


class TestDependencySatisfied:
    def tree(self, **phases):
        root = ResourceNode("root", kind="scenario")
        for name, (phase, at) in phases.items():
            node = root.add_child(ResourceNode(name))
            advance_to(node, phase, at)
        return root

    def test_running_target(self):
        tree = self.tree(masters=(Phase.RUNNING, 1.0))
        clause = DependsClause(running=["masters"])
        assert dependency_satisfied(clause, nodes(tree), 2.0)

    def test_success_required_not_running(self):
        tree = self.tree(boot=(Phase.RUNNING, 1.0))
        clause = DependsClause(success=["boot"])
        assert not dependency_satisfied(clause, nodes(tree), 2.0)

    def test_after_delay(self):
        tree = self.tree(boot=(Phase.SUCCESS, 0.0))
        tree.children[0].phase_times[Phase.SUCCESS] = 0.0
        clause = DependsClause(success=["boot"], after=10.0)
        assert not dependency_satisfied(clause, nodes(tree), 5.0)
        assert dependency_satisfied(clause, nodes(tree), 10.0)

    def test_running_satisfied_by_later_success(self):
        tree = self.tree(fast=(Phase.SUCCESS, 1.0))
        clause = DependsClause(running=["fast"])
        assert dependency_satisfied(clause, nodes(tree), 2.0)

    def test_failed_target_never_satisfies(self):
        tree = self.tree(bad=(Phase.FAILED, 1.0))
        assert not dependency_satisfied(DependsClause(running=["bad"]), nodes(tree), 9.0)
        assert not dependency_satisfied(DependsClause(success=["bad"]), nodes(tree), 9.0)

    def test_ready_since_is_latest_target_time(self):
        tree = self.tree(a=(Phase.SUCCESS, 3.0), b=(Phase.SUCCESS, 7.0))
        clause = DependsClause(success=["a", "b"])
        assert ready_since(clause, nodes(tree)) == 7.0


class TestRunOutcomes:
    def test_singleton_success(self):
        doc = parse_scenario(
            "spec:\n- action: Service\n  name: solo\n"
            "  service:\n    script:\n"
            "    - { at: 0s, do: running }\n    - { at: 1s, do: success }\n"
        )
        result = run_scenario(doc)
        assert result.outcome is Outcome.SUCCESS

    def test_empty_scenario_succeeds(self):
        result = run_scenario(parse_scenario("spec: []\n"))
        assert result.outcome is Outcome.SUCCESS

    def test_invalid_scenario_raises(self):
        doc = parse_scenario(
            "spec:\n- action: Call\n  name: a\n  depends: { success: [ghost] }\n"
            "  call: { callable: t, services: [] }\n"
        )
        with pytest.raises(InvalidScenario):
            run_scenario(doc, {"t": Template("t", {}, "command: true\n")})

    def test_untagged_crash_fails_run_naming_service(self):
        doc = parse_scenario(
            "spec:\n- action: Service\n  name: fragile\n"
            "  service:\n    script:\n"
            "    - { at: 0s, do: running }\n    - { at: 5s, do: crash }\n"
        )
        result = run_scenario(doc)
        assert result.outcome is Outcome.FAILED
        assert "fragile" in result.reason

    def test_an_expected_failure_at_scenario_level_fails_the_run_with_its_reason(self):
        """No tolerance applies at scenario level, so even a declared kill fails the run, naming its reason.
        The failure ends its cycle: the kill that watched the victim does not go on to succeed."""
        doc = parse_scenario(
            "spec:\n- action: Service\n  name: victim\n"
            "  service:\n    script:\n"
            "    - { at: 0s, do: running }\n    - { at: 60s, do: success }\n"
            "- action: Chaos\n  name: kill\n  depends: { running: [victim] }\n"
            "  chaos: { fault: { kind: kill, targets: [victim] } }\n"
        )
        result = run_scenario(doc)
        assert (result.outcome, result.reason) == (Outcome.FAILED, "victim: killed by kill at scenario level")
        records = result.trace.records
        [abort] = [r for r in records if r.kind == "command" and r.data["verb"] == "AbortRun"]
        after = records[abort.seq + 1]
        assert (after.kind, after.data) == ("transition", {"subject": result.tree.name, "to": "Failed"})

    def test_demo_runs_green_with_ordered_dispatch(self, partition_demo):
        doc, templates = partition_demo
        result = run_scenario(doc, templates)
        assert result.outcome is Outcome.SUCCESS
        order = [r.data["target"] for r in result.trace
                 if r.kind == "command" and r.data["verb"] in ("CreateJob", "InjectFault")]
        assert order == [
            "masters-0", "masters-1", "masters-2", "masters-3",
            "boot", "import-workload", "wait-for-3x-replication",
            "run-workload", "partition0",
        ]

    def test_action_timeout_aborts(self):
        doc = parse_scenario(
            "spec:\n- action: Service\n  name: slow\n  timeout: 10s\n"
            "  service:\n    script:\n"
            "    - { at: 0s, do: running }\n    - { at: 60s, do: success }\n"
        )
        result = run_scenario(doc)
        assert result.outcome is Outcome.ABORTED
        assert "timeout" in result.reason and "slow" in result.reason

    def test_unsatisfiable_dependency_aborts_on_its_targets_timeout(self):
        doc = parse_scenario(
            "defaults: { timeout: 30s }\n"
            "spec:\n"
            "- action: Service\n  name: forever\n"
            "  service:\n    script:\n    - { at: 0s, do: running }\n"
            "- action: Call\n  name: waiter\n  depends: { success: [forever] }\n"
            "  call: { callable: t, services: [] }\n"
        )
        templates = {"t": script_template("t", ["{ at: 0s, do: running }", "{ at: 1s, do: success }"])}
        result = run_scenario(doc, templates)
        assert (result.outcome, result.reason) == (Outcome.ABORTED, "timeout: action forever did not finish in time")

    def test_after_delay_longer_than_every_timeout_succeeds(self):
        """A timeout bounds an action from its dispatch; the wait for its dependencies is not counted."""
        doc = parse_scenario((SCENARIOS / "long-after.yaml").read_text())
        result = run_scenario(doc)
        assert (result.outcome, result.reason) == (Outcome.SUCCESS, "all actions completed")
        assert [r.at for r in result.trace if r.kind == "outcome"] == [302.0]

    def test_job_that_never_finishes_aborts_at_its_documents_timeout(self):
        doc = parse_scenario(
            "defaults: { timeout: 5s }\n"
            "spec:\n- action: Service\n  name: forever\n"
            "  service:\n    script:\n    - { at: 0s, do: running }\n"
        )
        result = run_scenario(doc)
        assert (result.outcome, result.reason) == (Outcome.ABORTED, "timeout: action forever did not finish in time")
        assert [r.at for r in result.trace if r.kind == "outcome"] == [5.0]

    @pytest.mark.parametrize("defaults, own, at", [
        pytest.param("defaults: { timeout: 5s }\n", "  timeout: 2s\n", 2.0, id="shorter-own"),
        pytest.param("defaults: { timeout: 5s }\n", "  timeout: 10s\n", 10.0, id="longer-own"),
        pytest.param("", "", 3600.0, id="engine"),
    ])
    def test_an_actions_timeout_is_its_own_else_its_documents_else_the_engines(self, defaults, own, at):
        doc = parse_scenario(
            defaults + "spec:\n- action: Service\n  name: forever\n" + own
            + "  service:\n    script:\n    - { at: 0s, do: running }\n"
        )
        result = run_scenario(doc)
        assert (result.outcome, result.reason) == (Outcome.ABORTED, "timeout: action forever did not finish in time")
        assert [r.at for r in result.trace if r.kind == "outcome"] == [at]

    def test_an_executor_that_loses_a_jobs_end_aborts_when_nothing_is_pending(self):
        class Losing(SimExecutor):
            """A defective executor: starting a job drops every queued item, its action's timeout with them."""

            def start_job(self, spec):
                super().start_job(spec)
                while self.queue.pop_next() is not None:
                    pass

        doc = parse_scenario(
            "spec:\n- action: Service\n  name: lost\n"
            "  service:\n    script:\n    - { at: 0s, do: running }\n    - { at: 1s, do: success }\n"
        )
        result = run_scenario(doc, executor=Losing())
        assert (result.outcome, result.reason) == (
            Outcome.ABORTED, "timeout: no pending events but actions remain unfinished",
        )

    def test_spawn_failure_fails_the_run_as_a_crash(self):
        doc = parse_scenario("spec:\n- action: Service\n  name: cmd\n  service: { command: 'sleep 1' }\n")
        result = run_scenario(doc)
        assert result.outcome is Outcome.FAILED
        assert result.reason == "cmd: spawn failed: cmd: simulated jobs need a script"
        [failed] = [r for r in result.trace if r.kind == "transition" and r.data == {
            "subject": "cmd", "to": "Failed", "class": "Unexpected", "reason": result.reason[len("cmd: "):],
        }]
        assert failed.at == 0.0

    def test_scripted_failure_fails_the_run_as_unexpected(self):
        doc = parse_scenario(
            "spec:\n- action: Service\n  name: bad\n"
            "  service:\n    script:\n    - { at: 0s, do: running }\n    - { at: 2s, do: failed }\n"
        )
        result = run_scenario(doc)
        assert (result.outcome, result.reason) == (Outcome.FAILED, "bad: scripted failure")
        [failed] = [r for r in result.trace if r.kind == "transition" and r.data["subject"] == "bad"
                    and r.data["to"] == "Failed"]
        assert (failed.at, failed.data["class"]) == (2.0, "Unexpected")

    def test_after_delay_schedules_later(self):
        doc = parse_scenario(
            "spec:\n"
            "- action: Call\n  name: first\n  call: { callable: t, services: [] }\n"
            "- action: Call\n  name: second\n  depends: { success: [first], after: 10s }\n"
            "  call: { callable: t, services: [] }\n"
        )
        templates = {"t": script_template("t", ["{ at: 0s, do: running }", "{ at: 1s, do: success }"])}
        result = run_scenario(doc, templates)
        assert result.outcome is Outcome.SUCCESS
        second_create = next(r for r in result.trace
                             if r.kind == "command" and r.data["verb"] == "CreateJob"
                             and r.data["target"] == "second")
        assert second_create.at == 11.0  # first succeeded at 1s + 10s delay

    def test_expected_failure_within_tolerance_continues(self):
        doc = parse_scenario(
            "spec:\n"
            "- action: Cluster\n  name: pool\n"
            "  cluster: { templateRef: worker, instances: 3, toleratedFailures: 1 }\n"
            "- action: Chaos\n  name: cull\n  depends: { running: [pool] }\n"
            "  chaos: { fault: { kind: kill, targets: [pool-1] } }\n"
        )
        templates = {"worker": script_template("worker", [
            "{ at: 0s, do: running }", "{ at: 20s, do: success }",
        ])}
        result = run_scenario(doc, templates)
        assert result.outcome is Outcome.SUCCESS
        failed = next(r for r in result.trace if r.kind == "transition" and r.data["subject"] == "pool-1"
                      and r.data["to"] == "Failed")
        assert failed.data["class"] == "Expected"

    def test_expected_failure_beyond_tolerance_fails(self):
        doc = parse_scenario(
            "spec:\n"
            "- action: Cluster\n  name: pool\n"
            "  cluster: { templateRef: worker, instances: 3 }\n"
            "- action: Chaos\n  name: cull\n  depends: { running: [pool] }\n"
            "  chaos: { fault: { kind: kill, targets: [pool-1] } }\n"
        )
        templates = {"worker": script_template("worker", [
            "{ at: 0s, do: running }", "{ at: 20s, do: success }",
        ])}
        result = run_scenario(doc, templates)
        assert result.outcome is Outcome.FAILED
        assert "pool-1" in result.reason

    def test_checkpoint_over_unknown_metric_fails_run(self):
        doc = parse_scenario(
            "spec:\n- action: Checkpoint\n  name: snap\n"
            "  checkpoint:\n    values: { g: 'MAX() QUERY(ghost, 1m, now)' }\n"
        )
        result = run_scenario(doc)
        assert result.outcome is Outcome.FAILED
        assert "unknown metric" in result.reason and "snap" in result.reason

    def test_state_assertion_fires(self):
        doc = parse_scenario(
            "spec:\n"
            "- action: Cluster\n  name: pool\n"
            "  cluster: { templateRef: worker, instances: 2, toleratedFailures: 1 }\n"
            "  assertions: ['.state.failed() > 0']\n"
            "- action: Chaos\n  name: cull\n  depends: { running: [pool] }\n"
            "  chaos: { fault: { kind: kill, targets: [pool-0] } }\n"
        )
        templates = {"worker": script_template("worker", [
            "{ at: 0s, do: running }", "{ at: 30s, do: success }",
        ])}
        result = run_scenario(doc, templates)
        assert result.outcome is Outcome.FAILED
        assert "assertion fired" in result.reason

    SOLO = (
        "spec:\n- action: Service\n  name: solo\n"
        "  service:\n    script:\n"
        "    - { at: 0s, do: running }\n    - { at: 1s, do: success }\n"
    )

    def broken_run(self, monkeypatch, exc):
        engine = Engine(parse_scenario(self.SOLO))

        def reconcile(event):
            raise exc

        monkeypatch.setattr(engine, "reconcile", reconcile)
        return engine

    def test_whatif_error_inside_the_run_aborts_it(self, monkeypatch):
        engine = self.broken_run(monkeypatch, UnsupportedFault("r"))
        result = engine.run()
        assert (result.outcome, result.reason) == (Outcome.ABORTED, "internal error: UnsupportedFault: r")
        outcomes = [r.data for r in result.trace if r.kind == "outcome"]
        assert outcomes == [{"outcome": "Aborted", "reason": "internal error: UnsupportedFault: r"}]
        assert engine.tree.phase is not Phase.SUCCESS

    def test_a_record_stamped_before_the_last_aborts_the_run(self):
        """The trace refuses a fact time that goes backwards; the run aborts (exit 3) instead of hiding it."""
        result = LaggingEngine(parse_scenario(self.SOLO)).run()
        assert result.outcome is Outcome.ABORTED
        assert result.reason.startswith("internal error: ValueError: transition record at -1.0 is earlier")
        assert [r.kind for r in result.trace][-2:] == ["command", "outcome"]
        assert_one_time_per_fact(result)  # the refused record is not in the trace

    def test_an_item_due_before_the_simulated_time_aborts_the_run(self):
        """The simulated clock never goes back: an item queued in the past is an engine defect, and the run aborts."""

        class PastDue(Engine):
            def _on_state(self, event):
                super()._on_state(event)
                if event.phase is Phase.RUNNING:
                    self.queue.push(self.now - 1.0, Event(EventKind.TIME, timer_id="late"))

        result = PastDue(parse_scenario(self.SOLO)).run()
        assert (result.outcome, result.reason) == (
            Outcome.ABORTED, "internal error: ValueError: cannot set the simulated clock back from 0.0 to -1.0")
        assert [r.kind for r in result.trace][-2:] == ["command", "outcome"]

    @pytest.mark.parametrize("depends", [
        pytest.param("", id="first-pass"),
        pytest.param("  depends: { success: [solo] }\n", id="later-cycle"),
    ])
    def test_an_illegal_transition_in_a_dispatch_is_an_internal_error(self, depends, caplog):
        """An engine bug met while dispatching is no test failure: the run aborts (exit 3) with one
        internal error, logged once, whether the run's first pass or a later cycle meets it."""
        doc = parse_scenario(self.SOLO + "- action: Checkpoint\n  name: snap\n" + depends)
        engine = Engine(doc)
        engine.nodes["snap"].phase = Phase.SUCCESS  # so its dispatch moves it backwards
        with caplog.at_level("ERROR", logger="whatif.engine"):
            result = engine.run()
        reason = "internal error: IllegalTransition: snap: Success -> Running"
        assert (result.outcome, result.reason) == (Outcome.ABORTED, reason)
        aborts = [r.data["args"] for r in result.trace if r.kind == "command" and r.data["verb"] == "AbortRun"]
        assert aborts == [{"outcome": "Aborted", "reason": reason}]
        assert [r.getMessage() for r in caplog.records] == ["internal error"]

    def test_internal_error_and_unknown_subjects_log_on_the_engine_logger(self, monkeypatch, caplog):
        engine = Engine(parse_scenario(self.SOLO))
        with caplog.at_level("WARNING", logger="whatif.engine"):
            engine.reconcile(state_event("ghost", Phase.RUNNING))
            self.broken_run(monkeypatch, RuntimeError("boom")).run()
        logged = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
        assert logged == [
            ("whatif.engine", "WARNING", "state event for unknown resource ghost"),
            ("whatif.engine", "ERROR", "internal error"),
        ]
        assert caplog.records[-1].exc_info[0] is RuntimeError

    def test_interrupt_records_an_aborted_outcome_and_propagates(self, monkeypatch):
        engine = self.broken_run(monkeypatch, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            engine.run()
        outcomes = [r.data for r in engine.trace if r.kind == "outcome"]
        assert outcomes == [{"outcome": "Aborted", "reason": "interrupted: KeyboardInterrupt"}]
        assert engine.tree.phase is not Phase.SUCCESS

    def test_a_cleanup_error_keeps_the_reason_of_a_run_aborted_already(self, monkeypatch, caplog):
        """Only a verdict is overruled by a cleanup call that raised: an aborted run keeps its reason."""
        doc = parse_scenario(
            "spec:\n- action: Service\n  name: slow\n  timeout: 5s\n"
            "  service: { script: [ { at: 0s, do: running }, { at: 60s, do: success } ] }\n"
        )
        engine = Engine(doc)

        def kill_job(name):
            raise OSError("kill failed")

        monkeypatch.setattr(engine.executor, "kill_job", kill_job)
        with caplog.at_level("ERROR", logger="whatif.engine"):
            result = engine.run()
        assert (result.outcome, result.reason) == (Outcome.ABORTED, "timeout: action slow did not finish in time")
        assert [r.data["verb"] for r in result.trace if r.kind == "command"][-2:] == ["AbortRun", "KillJob"]
        assert [r.kind for r in result.trace][-1] == "outcome"
        assert caplog.records[-1].exc_info[0] is OSError

    def test_the_cleanup_kills_live_jobs_in_plan_order_not_dispatch_order(self):
        """The cluster comes first in the document and is dispatched after the
        Service it depends on; the abort finds all three jobs live, and kills
        them in the tree's depth-first order."""
        doc = parse_scenario(
            "spec:\n"
            "- { action: Cluster, name: db, timeout: 5s, depends: { running: [front] },"
            " cluster: { templateRef: slow, instances: 2 } }\n"
            "- { action: Service, name: front, service: { templateRef: slow } }\n"
        )
        result = run_scenario(doc, {"slow": script_template("slow", ["{ at: 0s, do: running }", "{ at: 60s, do: success }"])})
        assert (result.outcome, result.reason) == (Outcome.ABORTED, "timeout: action db did not finish in time")
        commands = [(r.data["verb"], r.data["target"]) for r in result.trace if r.kind == "command"]
        assert [target for verb, target in commands if verb == "CreateJob"] == ["front", "db-0", "db-1"]
        assert [target for verb, target in commands if verb == "KillJob"] == ["db-0", "db-1", "front"]


class TestTraceInvariants:
    def test_ordering_soundness_success_dependencies(self, partition_demo):
        doc, templates = partition_demo
        trace = run_scenario(doc, templates).trace
        success_at = {}
        for record in trace:
            if record.kind == "transition" and record.data["to"] == "Success":
                success_at.setdefault(record.data["subject"], record.seq)
        creates = {r.data["target"]: r.seq for r in trace
                   if r.kind == "command" and r.data["verb"] == "CreateJob"}
        for action in doc.actions:
            for dep in action.depends.success:
                target = creates.get(action.name)
                if target is None:
                    continue
                assert success_at[dep] < target

    def test_no_overlap_for_chained_calls(self, partition_demo):
        doc, templates = partition_demo
        regions = report_regions(run_scenario(doc, templates).trace)
        chain = ["boot", "import-workload", "wait-for-3x-replication", "run-workload"]
        for first, second in zip(chain, chain[1:]):
            assert regions[first]["end"] <= regions[second]["start"]

    def test_abort_on_unexpected_stops_creating_jobs(self):
        doc = parse_scenario(
            "spec:\n"
            "- action: Service\n  name: fragile\n"
            "  service:\n    script:\n"
            "    - { at: 0s, do: running }\n    - { at: 5s, do: crash }\n"
            "- action: Call\n  name: late\n  depends: { after: 30s }\n"
            "  call: { callable: t, services: [] }\n"
        )
        templates = {"t": script_template("t", ["{ at: 0s, do: running }", "{ at: 1s, do: success }"])}
        result = run_scenario(doc, templates)
        assert result.outcome is Outcome.FAILED
        crash_seq = next(r.seq for r in result.trace
                         if r.kind == "event" and r.data.get("mode") == "crash")
        late_creates = [r for r in result.trace
                        if r.kind == "command" and r.data["verb"] == "CreateJob" and r.seq > crash_seq]
        assert late_creates == []

    def test_active_fault_revoked_when_run_dies(self):
        """A crash mid-partition still leaves the fault revoked and the
        region closed."""
        doc = parse_scenario(
            "spec:\n"
            "- action: Service\n  name: steady\n"
            "  service:\n    script:\n"
            "    - { at: 0s, do: running }\n    - { at: 500s, do: success }\n"
            "- action: Service\n  name: fragile\n"
            "  service:\n    script:\n"
            "    - { at: 0s, do: running }\n    - { at: 10s, do: crash }\n"
            "- action: Chaos\n  name: net\n  depends: { running: [steady] }\n"
            "  chaos:\n    fault: { kind: partition, source: steady, dst: fragile,\n"
            "             direction: both, duration: 300s }\n"
        )
        result = run_scenario(doc)
        assert result.outcome is Outcome.FAILED
        assert any(r.kind == "command" and r.data["verb"] == "RevokeFault"
                   for r in result.trace)
        regions = report_regions(result.trace)
        assert list(regions) == ["net"] and regions["net"]["end"] == 10.0

    @pytest.mark.parametrize("executor,body,duration", [
        ("sim", "script: [{at: 0s, do: running}, {at: 900s, do: success}]", 600.0),
        ("process", "command: sleep 1", 0.3),
    ])
    def test_a_fault_ends_at_its_timer(self, executor, body, duration):
        """A suspend's `fault:` timer, its RevokeFault and its action's Success
        are one step, the fault's duration after the InjectFault: exactly on
        the simulated clock, once due on the wall clock."""
        doc = parse_scenario(
            f"spec:\n- action: Service\n  name: napper\n  service: {{ {body} }}\n"
            "- action: Chaos\n  name: pause\n  depends: { running: [napper] }\n"
            f"  chaos: {{ fault: {{ kind: suspend, targets: [napper], duration: {duration}s }} }}\n"
        )
        result = run_scenario(doc, executor=make_executor(executor))
        assert result.outcome is Outcome.SUCCESS, result.reason
        trace = result.trace.records
        [inject] = [r.at for r in trace if r.kind == "command" and r.data["verb"] == "InjectFault"]
        [timer] = [r for r in trace if r.kind == "event" and r.data.get("timer") == "fault:pause"]
        [revoke] = [r for r in trace if r.kind == "command" and r.data["verb"] == "RevokeFault"]
        [success] = [r for r in trace if r.kind == "transition" and r.data == {"subject": "pause", "to": "Success"}]
        assert timer.seq < revoke.seq < success.seq
        assert timer.at == revoke.at == success.at
        if executor == "sim":
            assert timer.at == inject + duration
        else:
            assert inject + duration <= timer.at < inject + duration + 1.0

    @pytest.mark.parametrize("executor,body,unstartable", [
        ("sim", "script: [{at: 0s, do: running}, {at: 200ms, do: success}]", "command: sleep 1"),
        ("process", "command: sleep 0.2", "script: [{at: 0s, do: running}]"),
    ])
    def test_the_engine_marks_a_started_job_pending(self, executor, body, unstartable):
        """Each CreateJob that starts its job is followed, at its time, by the job's Pending, and no
        executor reports a Pending. A job that cannot start fails in one State event, whose step
        walks it through Pending and Running to Failed."""
        doc = parse_scenario(
            f"spec:\n- action: Service\n  name: svc\n  service: {{ {body} }}\n"
            "- action: Cluster\n  name: c\n  depends: { running: [svc] }\n"
            "  cluster: { templateRef: node, instances: 2 }\n"
            "- action: Service\n  name: broken\n  depends: { success: [c] }\n"
            f"  service: {{ {unstartable} }}\n"
        )
        result = run_scenario(doc, {"node": Template("node", {}, body)}, make_executor(executor))
        assert result.outcome is Outcome.FAILED and result.reason.startswith("broken: spawn failed: ")
        records = result.trace.records
        assert [r for r in records if r.kind == "event" and r.data.get("phase") == "Pending"] == []
        creates = [r for r in records if r.kind == "command" and r.data["verb"] == "CreateJob"]
        assert [r.data["target"] for r in creates] == ["svc", "c-0", "c-1", "broken"]
        for create in creates[:-1]:
            after = records[create.seq + 1]
            assert (after.kind, after.at, after.data) == (
                "transition", create.at, {"subject": create.data["target"], "to": "Pending"},
            )
        [event] = [r for r in records if r.kind == "event" and r.data.get("subject") == "broken"]
        step = list(itertools.takewhile(lambda r: r.kind != "event", records[event.seq + 1:]))
        hops = [r for r in records if r.kind == "transition" and r.data["subject"] == "broken"]
        assert [r.data["to"] for r in hops] == ["Pending", "Running", "Failed"]
        assert all(r in step for r in hops)

    def test_every_event_record_names_an_event_kind(self, partition_demo):
        """On the demo, golden, corpus, panic and acceptance runs, each `event`
        record is a State, Time or Metrics event: the engine's only kinds."""
        runs = [partition_demo, *(_build(name) for name in sorted(GOLDEN))]
        runs += [(doc, CORPUS_TEMPLATES) for doc in corpus_docs()]
        runs.append((parse_scenario(PANIC_DOC), PANIC_TEMPLATES))
        runs += [(_leak_doc(node), LEAK_TEMPLATES) for node in ("healthy-node", "leaky-node")]
        runs += [(_stage_doc(policy, [2.0, 3.0], 1.0), {"stage": stage_template()}) for policy in ("parallel", "time", "state")]
        kinds = {kind.value for kind in EventKind}
        assert kinds == {"State", "Time", "Metrics"}
        for doc, templates in runs:
            named = {r.data["event"] for r in run_scenario(doc, templates).trace if r.kind == "event"}
            assert named <= kinds, (doc.name, named - kinds)

    def test_every_region_closes_once(self, partition_demo):
        """On green, failed and timed-out runs, each Region of the report ends once, no earlier than it starts."""
        runs = [partition_demo, *(_build(name) for name in sorted(GOLDEN))]
        runs += [(doc, CORPUS_TEMPLATES) for doc in corpus_docs()]
        runs.append((parse_scenario(PANIC_DOC), PANIC_TEMPLATES))
        runs.append((parse_scenario(
            "spec:\n- action: Call\n  name: slow\n  timeout: 10s\n  call: { callable: t, services: [] }\n"
        ), {"t": script_template("t", ["{ at: 0s, do: running }", "{ at: 60s, do: success }"])}))
        outcomes, regions = [], []
        for doc, templates in runs:
            result = run_scenario(doc, templates)
            outcomes.append(result.outcome)
            regions.append(len(report_regions(result.trace)))
        assert outcomes[-2:] == [Outcome.FAILED, Outcome.ABORTED]
        assert regions[-2:] == [1, 1] and sum(regions) >= 180

    def test_an_earlier_record_is_rejected(self):
        trace = RunTrace()
        trace.append("run", 1.0)
        trace.append("event", 1.0)
        with pytest.raises(ValueError, match="command record at 0.5 is earlier than the last record's 1.0"):
            trace.append("command", 0.5)
        assert [r.at for r in trace] == [1.0, 1.0]

    def test_timestamps_non_decreasing(self, partition_demo):
        """On the demo, the golden documents, the 25 corpus documents and the
        panic run, record times never decrease, every transition record is
        stamped at the phase time the engine decided on, and every record of
        one step carries that step's reading of the clock."""
        runs = [partition_demo, *(_build(name) for name in sorted(GOLDEN))]
        runs += [(doc, CORPUS_TEMPLATES) for doc in corpus_docs()]
        runs.append((parse_scenario(PANIC_DOC), PANIC_TEMPLATES))
        assert len(runs) == 31
        for doc, templates in runs:
            run_one_time_per_step(Engine(doc, templates))

    def test_determinism_two_runs_byte_identical(self, partition_demo):
        doc, templates = partition_demo
        a = run_scenario(doc, templates, seed=0).trace.to_text()
        b = run_scenario(doc, templates, seed=0).trace.to_text()
        assert a == b


FAULT_TEMPLATES = {
    "node": Template("node", {"up": None, "end": None, "how": None},
                     "script:\n- { at: '{{up}}', do: running }\n- { at: '{{end}}', do: {{how}} }\n"),
    "task": Template("task", {"services": None, "dur": None},
                     "env: { TARGETS: '{{services}}' }\n"
                     "script:\n- { at: 0s, do: running }\n- { at: '{{dur}}', do: success }\n"),
}


def fault_document(rng: random.Random) -> str:
    """One cluster `c` of 1-4 instances, then 1-5 kills, suspends, partitions and Calls.

    Each action depends on `c` or an earlier Call, often with an `after:`
    delay; whole-second times make many events share an instant.
    """
    instances = rng.randint(1, 4)
    names = [f"c-{i}" for i in range(instances)]
    inputs = []
    for _ in range(instances):
        up = rng.randint(0, 3)
        how = rng.choice(["success"] * 5 + ["crash"])
        inputs.append({"up": f"{up}s", "end": f"{up + rng.randint(0, 4)}s", "how": how})
    spec = [{"action": "Cluster", "name": "c", "cluster": {
        "templateRef": "node", "instances": instances, "toleratedFailures": instances - 1, "inputs": inputs}}]
    calls = []
    for index in range(rng.randint(1, 5)):
        name = f"a{index}"
        kind = rng.choice(["kill", "suspend", "partition", "Call"] if instances > 1 else ["kill", "suspend", "Call"])
        depends = {rng.choice(["running", "running", "success"]): [rng.choice(["c", *calls])]}
        if rng.random() < 0.6:
            depends["after"] = f"{rng.randint(0, 4)}s"
        action = {"action": "Call" if kind == "Call" else "Chaos", "name": name, "depends": depends}
        duration = f"{rng.randint(1, 3)}s"
        if kind == "Call":
            action["call"] = {"callable": "task", "services": [".cluster.c.all"],
                              "inputs": [{"dur": f"{rng.randint(0, 3)}s"}]}
            calls.append(name)
        elif kind == "partition":
            source, dst = rng.sample(names, 2)
            action["chaos"] = {"fault": {"kind": kind, "source": source, "dst": dst, "duration": duration}}
        else:
            fault = {"kind": kind, "targets": rng.sample(names, rng.randint(1, instances))}
            if kind == "suspend":
                fault["duration"] = duration
            action["chaos"] = {"fault": fault}
        spec.append(action)
    return yaml.safe_dump({"name": "faults", "spec": spec}, sort_keys=False)


def check_fault_targets(records) -> tuple[list, int, int]:
    """Check each InjectFault of a trace against the transitions recorded before it.

    A target is running when its last transition is Running and no earlier
    applied kill named it. A TargetNotRunning refusal, the AbortRun record that
    follows the InjectFault, must name a target that is not; a fault that was
    not refused must have every target running. Returns the violations, and
    the number of faults refused and applied.
    """
    last, killed, wrong, refused, applied = {}, set(), [], 0, 0
    for record, after in zip(records, records[1:]):
        if record.kind == "transition":
            last[record.data["subject"]] = record.data["to"]
        if record.kind != "command" or record.data["verb"] != "InjectFault":
            continue
        args = record.data["args"]
        running = {t for t in args["targets"] if last.get(t) == "Running" and t not in killed}
        prefix = f"{record.data['target']}: TargetNotRunning: "
        reason = after.data["args"]["reason"] if after.kind == "command" and after.data["verb"] == "AbortRun" else ""
        if reason.startswith(prefix):
            refused += 1
            if reason[len(prefix):] in running:
                wrong.append(f"seq {record.seq}: refused {reason[len(prefix):]}, recorded Running")
        else:
            applied += 1
            if set(args["targets"]) - running:
                wrong.append(f"seq {record.seq}: applied to {sorted(set(args['targets']) - running)}, not Running")
            if args["kind"] == "kill":
                killed.update(args["targets"])
    return wrong, refused, applied


class TestFaultTargets:
    def test_a_target_recorded_running_takes_the_fault(self):
        """`k` is dispatched at 2s, the instant `s` succeeds: the trace shows `s` Running at
        the InjectFault, so the kill is applied, and `s`'s own Success, its one report, ends it."""
        doc = parse_scenario(
            "spec:\n- action: Service\n  name: s\n"
            "  service: { script: [{at: 0s, do: running}, {at: 2s, do: success}] }\n"
            "- action: Chaos\n  name: k\n  depends: { running: [s], after: 2s }\n"
            "  chaos: { fault: { kind: kill, targets: [s] } }\n"
        )
        result = run_scenario(doc)
        assert (result.outcome, result.reason) == (Outcome.SUCCESS, "all actions completed")
        assert check_fault_targets(result.trace.records) == ([], 0, 1)
        hops = [r.data["to"] for r in result.trace if r.kind == "transition" and r.data["subject"] == "s"]
        assert hops == ["Pending", "Running", "Success"]

    def test_every_refusal_and_every_applied_fault_agree_with_the_trace(self):
        """On 300 seeded random documents, the trace alone justifies each fault's refusal or application."""
        rng = random.Random(1)
        refused = applied = 0
        for number in range(300):
            text = fault_document(rng)
            result = run_scenario(parse_scenario(text), FAULT_TEMPLATES)
            wrong, was_refused, was_applied = check_fault_targets(result.trace.records)
            assert wrong == [], (number, text, wrong)
            refused += was_refused
            applied += was_applied
        assert refused >= 30 and applied >= 100, (refused, applied)
