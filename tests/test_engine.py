"""Reconciliation: dispatch ordering, dependencies, outcomes, determinism."""

import pytest

from whatif.dsl import DependsClause, Template, parse_scenario
from whatif.engine import Engine, Outcome, dependency_satisfied, ready_since, run_scenario
from whatif.errors import InvalidScenario, UnknownRegion
from whatif.events import Event, EventKind, SimClock
from whatif.lifecycle import Phase, ResourceNode, advance_to, iter_nodes

from conftest import script_template


def state_event(subject, phase, at=0.0, mode="", reason=""):
    return Event(EventKind.STATE, at, subject=subject, phase=phase, failure_mode=mode, reason=reason)


def nodes(tree):
    return {n.name: n for n in iter_nodes(tree)}


def dispatch_commands(commands):
    return [(c.verb, c.target) for c in commands if c.verb in ("CreateJob", "InjectFault")]


class TestReconcileExamples:
    """Step the engine by hand through the partition demo scenario."""

    @pytest.fixture
    def engine(self, partition_demo):
        doc, templates = partition_demo
        engine = Engine(doc, templates)
        # Initial cycle dispatches the dependency-free cluster.
        first = engine.reconcile(Event(EventKind.TIME, 0.0, timer_id="start"))
        assert dispatch_commands(first) == [("CreateJob", f"masters-{i}") for i in range(4)]
        return engine

    def drive_to_running(self, engine, names, at=0.0):
        commands = []
        for name in names:
            engine.reconcile(state_event(name, Phase.PENDING, at))
            commands = engine.reconcile(state_event(name, Phase.RUNNING, at))
        return commands

    def test_masters_running_creates_boot(self, engine):
        commands = self.drive_to_running(engine, [f"masters-{i}" for i in range(4)])
        assert ("CreateJob", "boot") in dispatch_commands(commands)

    def test_time_event_with_no_waiting_timers(self, engine):
        commands = engine.reconcile(Event(EventKind.TIME, 0.0, timer_id="nothing-waits"))
        assert commands == []

    def test_wait_success_dispatches_two_in_document_order(self, engine):
        self.drive_to_running(engine, [f"masters-{i}" for i in range(4)])
        for call in ("boot", "import-workload", "wait-for-3x-replication"):
            engine.reconcile(state_event(call, Phase.PENDING))
            engine.reconcile(state_event(call, Phase.RUNNING))
            commands = engine.reconcile(state_event(call, Phase.SUCCESS))
        assert dispatch_commands(commands) == [
            ("CreateJob", "run-workload"),
            ("InjectFault", "partition0"),
        ]

    def test_tag_event_for_unknown_target_changes_nothing(self, engine):
        before = {n: node.phase for n, node in engine.nodes.items()}
        event = engine.fire_tag_event("chaos-controller", {"target": "ghost-7", "x": "1"})
        assert event.kind is EventKind.TAG
        commands = engine.reconcile(event)
        assert commands == []
        assert {n: node.phase for n, node in engine.nodes.items()} == before

    def test_empty_tag_payload_is_legal(self, engine):
        event = engine.fire_tag_event("", {})
        assert engine.reconcile(event) == []


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
        assert dependency_satisfied(clause, nodes(tree), SimClock(2.0))

    def test_success_required_not_running(self):
        tree = self.tree(boot=(Phase.RUNNING, 1.0))
        clause = DependsClause(success=["boot"])
        assert not dependency_satisfied(clause, nodes(tree), SimClock(2.0))

    def test_after_delay(self):
        tree = self.tree(boot=(Phase.SUCCESS, 0.0))
        tree.children[0].phase_times[Phase.SUCCESS] = 0.0
        clause = DependsClause(success=["boot"], after=10.0)
        assert not dependency_satisfied(clause, nodes(tree), SimClock(5.0))
        assert dependency_satisfied(clause, nodes(tree), SimClock(10.0))

    def test_running_satisfied_by_later_success(self):
        tree = self.tree(fast=(Phase.SUCCESS, 1.0))
        clause = DependsClause(running=["fast"])
        assert dependency_satisfied(clause, nodes(tree), SimClock(2.0))

    def test_failed_target_never_satisfies(self):
        tree = self.tree(bad=(Phase.FAILED, 1.0))
        assert not dependency_satisfied(DependsClause(running=["bad"]), nodes(tree), SimClock(9.0))
        assert not dependency_satisfied(DependsClause(success=["bad"]), nodes(tree), SimClock(9.0))

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

    def test_unsatisfiable_dependency_aborts_on_guard(self):
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
        assert result.outcome is Outcome.ABORTED
        assert "timeout" in result.reason

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
        engine = self.broken_run(monkeypatch, UnknownRegion("r"))
        result = engine.run()
        assert (result.outcome, result.reason) == (Outcome.ABORTED, "internal error: UnknownRegion: r")
        outcomes = [r.data for r in result.trace if r.kind == "outcome"]
        assert outcomes == [{"outcome": "Aborted", "reason": "internal error: UnknownRegion: r"}]
        assert engine.tree.phase is not Phase.SUCCESS

    def test_interrupt_records_an_aborted_outcome_and_propagates(self, monkeypatch):
        engine = self.broken_run(monkeypatch, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            engine.run()
        outcomes = [r.data for r in engine.trace if r.kind == "outcome"]
        assert outcomes == [{"outcome": "Aborted", "reason": "interrupted: KeyboardInterrupt"}]
        assert engine.tree.phase is not Phase.SUCCESS


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
        trace = run_scenario(doc, templates).trace
        closes = {r.data["label"]: r.seq for r in trace
                  if r.kind == "annotation" and r.data["action"] == "close"}
        opens = {r.data["label"]: r.seq for r in trace
                 if r.kind == "annotation" and r.data["action"] == "open"}
        chain = ["boot", "import-workload", "wait-for-3x-replication", "run-workload"]
        for first, second in zip(chain, chain[1:]):
            assert closes[first] < opens[second]

    def test_tag_precedes_injection(self, partition_demo):
        doc, templates = partition_demo
        trace = run_scenario(doc, templates).trace
        tag_seq = min(r.seq for r in trace
                      if r.kind == "event" and r.data.get("event") == "Tag"
                      and r.data.get("tags", {}).get("metadata.Chaos"))
        inject_seq = min(r.seq for r in trace
                         if r.kind == "command" and r.data["verb"] == "InjectFault")
        assert tag_seq < inject_seq

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
        assert result.annotations.open_labels() == []

    def test_timestamps_non_decreasing(self, partition_demo):
        doc, templates = partition_demo
        trace = run_scenario(doc, templates).trace
        times = [r.at for r in trace]
        assert times == sorted(times)

    def test_determinism_two_runs_byte_identical(self, partition_demo):
        doc, templates = partition_demo
        a = run_scenario(doc, templates, seed=0).trace.to_text()
        b = run_scenario(doc, templates, seed=0).trace.to_text()
        assert a == b
