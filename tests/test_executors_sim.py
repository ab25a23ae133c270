"""Simulated executor: scripts, faults, the message layer, determinism."""

import pytest

from whatif.dsl import parse_job_body, parse_scenario
from whatif.engine import Engine, Outcome, run_scenario
from whatif.errors import SpawnError
from whatif.executors.base import FaultSpec, JobSpec, SimEffect
from whatif.lifecycle import Phase

from conftest import make_sim_harness


def script(*effects):
    return [SimEffect(*e) if isinstance(e, tuple) else e for e in effects]


def job(name, *effects, declares=()):
    return JobSpec(name=name, script=script(*effects), declares=list(declares))


def states(delivered):
    return [(e.subject, e.phase.value) for _, e in delivered if e.phase is not None]


class TestScriptedJobs:
    def test_running_then_success(self, sim_harness):
        ex, queue, clock, store = sim_harness
        ex.start_job(job("j", (0.0, "running"), (10.0, "success")))
        delivered = ex.advance_to(20.0)
        assert states(delivered) == [("j", "Running"), ("j", "Success")]  # the engine marks Pending
        assert [at for at, _ in delivered] == [0.0, 10.0]

    def test_metrics_ingested_at_virtual_time(self, sim_harness):
        ex, queue, clock, store = sim_harness
        ex.start_job(job(
            "j", (0.0, "running"),
            SimEffect(1.0, "metric", metric="goroutines", value=1200.0),
            (2.0, "success"),
        ))
        ex.advance_to(5.0)
        assert store.series("goroutines") == [(1.0, 1200.0)]

    def test_crash_reports_mode(self, sim_harness):
        ex, queue, clock, store = sim_harness
        ex.start_job(job("j", (0.0, "running"), (3.0, "crash")))
        failed = [e for _, e in ex.advance_to(5.0) if e.phase is Phase.FAILED]
        assert failed[0].failure_mode == "crash"

    def test_script_required(self, sim_harness):
        ex, *_ = sim_harness
        with pytest.raises(SpawnError):
            ex.start_job(JobSpec(name="j", command="true"))

    def test_equal_time_fires_in_registration_order(self, sim_harness):
        ex, queue, clock, store = sim_harness
        ex.start_job(job("a", (0.0, "running"), (5.0, "success")))
        ex.start_job(job("b", (0.0, "running"), (5.0, "success")))
        assert states(ex.advance_to(5.0)) == [
            ("a", "Running"), ("b", "Running"),
            ("a", "Success"), ("b", "Success"),
        ]

    def test_advance_to_now_is_empty(self, sim_harness):
        ex, queue, clock, store = sim_harness
        ex.start_job(job("j", (1.0, "running")))
        ex.advance_to(0.0)
        clock.set(0.0)
        assert ex.advance_to(0.0) == []

    def test_advance_backwards_rejected(self, sim_harness):
        ex, queue, clock, store = sim_harness
        clock.set(5.0)
        with pytest.raises(ValueError):
            ex.advance_to(1.0)

    def test_determinism_identical_scripts(self):
        def run_once():
            ex, queue, clock, store = make_sim_harness()
            ex.start_job(job("a", (0.0, "running"), SimEffect(1.0, "metric", metric="m", value=1.0), (2.0, "success")))
            ex.start_job(job("b", (0.5, "running"), (2.0, "success")))
            delivered = ex.advance_to(10.0)
            return [(at, e.subject, str(e.phase)) for at, e in delivered], store.series("m")

        assert run_once() == run_once()


class TestKill:
    def test_kill_fails_target_with_mode(self, sim_harness):
        ex, queue, clock, store = sim_harness
        ex.start_job(job("m-2", (0.0, "running"), (100.0, "success")))
        ex.advance_to(1.0)
        ex.inject_fault("killer", FaultSpec("kill", targets=["m-2"]))
        failed = [e for _, e in ex.advance_to(2.0) if e.phase is Phase.FAILED]
        assert failed and failed[0].failure_mode == "kill"

    def test_target_must_be_running(self):
        """The engine refuses a fault on a target it has not recorded Running: `j` is still Pending at 1s."""
        doc = parse_scenario(
            "spec:\n- action: Service\n  name: j\n"
            "  service: { script: [{at: 5s, do: running}, {at: 9s, do: success}] }\n"
            "- action: Chaos\n  name: killer\n  depends: { after: 1s }\n"
            "  chaos: { fault: { kind: kill, targets: [j] } }\n"
        )
        result = run_scenario(doc)
        assert (result.outcome, result.reason) == (Outcome.FAILED, "killer: TargetNotRunning: j")

    def test_a_kill_on_an_ended_job_emits_nothing(self, sim_harness):
        """The job's own end is its one report: no Failed(kill) follows its Success."""
        ex, queue, clock, store = sim_harness
        ex.start_job(job("j", (0.0, "running"), (1.0, "success")))
        ex.advance_to(1.0)
        ex.inject_fault("killer", FaultSpec("kill", targets=["j"]))
        assert ex.advance_to(5.0) == []

    def test_killed_job_emits_nothing_more(self, sim_harness):
        ex, queue, clock, store = sim_harness
        ex.start_job(job(
            "j", (0.0, "running"),
            SimEffect(5.0, "metric", metric="m", value=1.0),
            (9.0, "success"),
        ))
        ex.advance_to(1.0)
        ex.inject_fault("killer", FaultSpec("kill", targets=["j"]))
        assert all(e.phase is not Phase.SUCCESS for _, e in ex.advance_to(20.0))
        assert "m" not in store.names()  # never ingested; the engine declares a job's metrics


class TestSuspend:
    def make_emitter(self, ex):
        effects = [(0.0, "running")]
        effects += [SimEffect(float(t), "metric", metric="m", value=float(t)) for t in range(1, 11)]
        effects += [(11.0, "success")]
        ex.start_job(job("j", *effects))

    def test_conservation_drops_only_in_window(self, sim_harness):
        ex, queue, clock, store = sim_harness
        self.make_emitter(ex)
        ex.advance_to(2.5)
        ex.inject_fault("pause", FaultSpec("suspend", targets=["j"], duration=3.0))
        ex.advance_to(5.5)
        ex.revoke_fault("pause", ["j"])
        delivered = ex.advance_to(30.0)
        # Emissions scheduled strictly inside (2.5, 5.5) are dropped.
        assert [at for at, _ in store.series("m")] == [1.0, 2.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert any(e.phase is Phase.SUCCESS for _, e in delivered)

    def test_terminal_transition_defers_to_resume(self, sim_harness):
        ex, queue, clock, store = sim_harness
        ex.start_job(job("j", (0.0, "running"), (2.0, "success")))
        ex.advance_to(1.0)
        ex.inject_fault("pause", FaultSpec("suspend", targets=["j"], duration=10.0))
        ex.advance_to(11.0)
        ex.revoke_fault("pause", ["j"])
        success = [at for at, e in ex.advance_to(30.0) if e.phase is Phase.SUCCESS]
        assert success == [11.0]  # held until the window ends

    def test_revokes_between_the_same_two_effects_give_the_same_run(self):
        def run(revoke_at: float):
            ex, queue, clock, store = make_sim_harness()
            self.make_emitter(ex)
            ex.advance_to(2.5)
            ex.inject_fault("pause", FaultSpec("suspend", targets=["j"], duration=3.0))
            delivered = ex.advance_to(revoke_at)
            ex.revoke_fault("pause", ["j"])
            delivered += ex.advance_to(30.0)
            return delivered, store.series("m")

        assert run(5.1) == run(5.9)  # no effect is due in (5, 6)

    def test_a_revoke_resumes_only_the_jobs_it_names(self, sim_harness):
        ex, queue, clock, store = sim_harness
        ex.start_job(job("j", (0.0, "running"), (2.0, "success")))
        ex.advance_to(1.0)
        ex.inject_fault("pause", FaultSpec("suspend", targets=["j"], duration=10.0))
        ex.inject_fault("other", FaultSpec("suspend", targets=["j"], duration=29.0))
        ex.advance_to(11.0)
        ex.revoke_fault("pause", [])  # `other` still holds j
        assert not any(e.phase is Phase.SUCCESS for _, e in ex.advance_to(30.0))
        ex.revoke_fault("other", ["j"])
        assert [at for at, e in ex.advance_to(40.0) if e.phase is Phase.SUCCESS] == [30.0]

    def test_overlapping_suspends_resume_when_the_last_ends(self):
        """Through the engine: `a` holds x over 5-65 s and `b` over 35-95 s, so x emits nothing in 5-95 s."""
        doc = parse_scenario("""
spec:
- action: Service
  name: x
  service:
    declares: [m]
    script:
    - { at: 0s, do: running }
""" + "".join(f"    - {{ at: {t}s, do: metric, name: m, value: {t} }}\n" for t in range(0, 101, 10)) + """\
    - { at: 110s, do: success }
- action: Chaos
  name: a
  depends: { running: [x], after: 5s }
  chaos: { fault: { kind: suspend, targets: [x], duration: 60s } }
- action: Chaos
  name: b
  depends: { running: [x], after: 35s }
  chaos: { fault: { kind: suspend, targets: [x], duration: 60s } }
""")
        engine = Engine(doc)
        revokes = []
        revoke = engine.executor.revoke_fault
        engine.executor.revoke_fault = lambda action, resume: revokes.append((action, resume)) or revoke(action, resume)
        result = engine.run()
        assert result.outcome is Outcome.SUCCESS
        assert revokes == [("a", []), ("b", ["x"])]
        assert [at for at, _ in result.store.series("m")] == [0.0, 100.0]

    def test_message_received_while_suspended_releases_a_blocked_job_on_resume(self, sim_harness):
        ex, queue, clock, store = sim_harness
        ex.start_job(job("A", (0.0, "running"), SimEffect(3.0, "send", target="B"), (4.0, "success")))
        ex.start_job(job("B", (0.0, "running"), (1.0, "block"), (2.0, "success")))
        ex.advance_to(1.5)  # B is blocked
        ex.inject_fault("pause", FaultSpec("suspend", targets=["B"], duration=10.0))
        ex.advance_to(11.5)
        ex.revoke_fault("pause", ["B"])
        b_success = [at for at, e in ex.advance_to(30.0) if e.subject == "B" and e.phase is Phase.SUCCESS]
        assert b_success == [11.5]  # the message came at 3 s; the resume at 11.5 s releases it


def chatty_pair():
    """Two nodes that each message the other, then block for the reply.

    A node completes only if its peer's message arrives, which makes
    deliveries directly observable as Success events.
    """
    a = job("A", (0.0, "running"), SimEffect(2.0, "send", target="B"), (3.0, "block"), (10.0, "success"))
    b = job("B", (0.0, "running"), SimEffect(2.0, "send", target="A"), (3.0, "block"), (10.0, "success"))
    return a, b


class TestPartition:
    @pytest.mark.parametrize("direction,a_to_b,b_to_a", [
        ("to", True, False),     # source->dst delivered, dst->source dropped
        ("from", False, True),
        ("both", False, False),
    ])
    def test_direction_semantics_two_nodes(self, direction, a_to_b, b_to_a):
        ex, queue, clock, store = make_sim_harness()
        spec_a, spec_b = chatty_pair()
        ex.start_job(spec_a)
        ex.start_job(spec_b)
        ex.advance_to(1.0)
        ex.inject_fault("net", FaultSpec(
            "partition", targets=["A"], dst=["B"], direction=direction, duration=100.0,
        ))
        delivered = ex.advance_to(50.0)
        a_done = any(e.subject == "A" and e.phase is Phase.SUCCESS for _, e in delivered)
        b_done = any(e.subject == "B" and e.phase is Phase.SUCCESS for _, e in delivered)
        assert b_done == a_to_b  # B finishes iff A's message reached it
        assert a_done == b_to_a

    def test_no_partition_both_deliver(self):
        ex, queue, clock, store = make_sim_harness()
        spec_a, spec_b = chatty_pair()
        ex.start_job(spec_a)
        ex.start_job(spec_b)
        assert sum(1 for _, e in ex.advance_to(50.0) if e.phase is Phase.SUCCESS) == 2

    def test_revoked_partition_delivers_again(self):
        ex, queue, clock, store = make_sim_harness()
        # A sends late (after revoke); B blocks until the message arrives.
        ex.start_job(job("A", (0.0, "running"), SimEffect(8.0, "send", target="B"), (9.0, "success")))
        ex.start_job(job("B", (0.0, "running"), (1.0, "block"), (2.0, "success")))
        ex.advance_to(0.5)
        ex.inject_fault("net", FaultSpec(
            "partition", targets=["B"], dst=["A"], direction="to", duration=5.0,
        ))
        ex.advance_to(5.5)
        ex.revoke_fault("net", [])
        b_success = [at for at, e in ex.advance_to(30.0) if e.subject == "B" and e.phase is Phase.SUCCESS]
        assert b_success and b_success[0] == 8.0  # unblocked by the post-revoke message


class TestParseJobBody:
    def test_script_parses(self):
        spec = parse_job_body({"script": [
            {"at": "0s", "do": "running"},
            {"at": "1s", "do": "metric", "name": "m", "value": 2},
            {"at": "2s", "do": "send", "to": "x"},
            {"at": "3s", "do": "block"},
            {"at": "4s", "do": "success"},
        ]})
        assert [e.op for e in spec.script] == ["running", "metric", "send", "block", "success"]

    def test_offsets_must_be_sorted(self):
        from whatif.errors import SchemaError
        with pytest.raises(SchemaError, match="non-decreasing"):
            parse_job_body({"script": [
                {"at": "5s", "do": "running"},
                {"at": "1s", "do": "success"},
            ]})

    def test_a_metric_value_past_every_float_is_rejected(self):
        from whatif.errors import SchemaError
        with pytest.raises(SchemaError, match=r"script\[0\].value: expected a number, got 1000"):
            parse_job_body({"script": [{"at": "0s", "do": "metric", "name": "m", "value": 10**400}]})

    def test_declares_and_metrics_source(self):
        spec = parse_job_body({"command": "true", "metrics": "stdout-lines", "declares": ["m"]})
        assert spec.metrics_source == "stdout-lines"
        assert spec.declares == ["m"]
        metric = {"do": "metric", "value": 1}
        spec = parse_job_body({"declares": ["b", "a"], "script": [
            {"at": "0s", "name": "a", **metric}, {"at": "1s", "name": "c", **metric}, {"at": "2s", "name": "c", **metric},
        ]})
        assert spec.declares == ["b", "a", "c"]  # the declares entries, then the script's metric names, each once

    def test_expected_runtime_is_checked_and_ignored(self):
        from whatif.errors import SchemaError
        spec = parse_job_body({"command": "true", "expectedRuntime": "90s"})
        assert spec == parse_job_body({"command": "true"})
        with pytest.raises(SchemaError, match="expectedRuntime: "):
            parse_job_body({"command": "true", "expectedRuntime": "soon"})
