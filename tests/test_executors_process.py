"""Local-process executor: real children, exit mapping, signals, metrics."""

import sys
import time

import pytest

from whatif.dsl import Template, parse_scenario
from whatif.engine import Outcome, run_scenario
from whatif.errors import SpawnError, TargetNotRunning, UnsupportedFault
from whatif.events import EventQueue, WallClock
from whatif.executors.base import FaultSpec, JobSpec
from whatif.executors.process import ProcessExecutor
from whatif.lifecycle import Phase
from whatif.telemetry import MetricsStore

EMITTER = (
    "python3 -c 'import time;"
    '[print("metric beats %d %d" % (i, int(time.time()*1000)), flush=True) or time.sleep(0.1)'
    " for i in range(3)]'"
)


def make_harness():
    executor = ProcessExecutor()
    queue = EventQueue()
    clock = WallClock()
    store = MetricsStore()
    executor.bind(queue, clock, store)
    return executor, queue, clock, store


def drain(queue, clock, want, timeout=10.0):
    """Collect State/Tag events until ``want`` terminal states arrived."""
    events = []
    deadline = time.time() + timeout
    terminal = 0
    while time.time() < deadline and terminal < want:
        popped = queue.pop_next()
        if popped is None:
            time.sleep(0.02)
            continue
        _, item = popped
        if hasattr(item, "phase"):
            events.append(item)
            if item.phase in (Phase.SUCCESS, Phase.FAILED):
                terminal += 1
        elif callable(item):
            item()
    return events


class TestWallClock:
    def test_never_decreases_when_the_system_clock_steps_back(self, monkeypatch):
        clock = WallClock()
        real_time = time.time
        readings = [clock.now()]
        monkeypatch.setattr(time, "time", lambda: real_time() - 3600.0)
        for _ in range(200):
            readings.append(clock.now())
        assert readings == sorted(readings)
        assert readings[-1] < 60.0


class TestProcessJobs:
    def test_exit_zero_maps_to_success(self):
        executor, queue, clock, store = make_harness()
        executor.start_job(JobSpec(name="ok", command="true"))
        events = drain(queue, clock, want=1)
        assert [e.phase for e in events] == [Phase.PENDING, Phase.RUNNING, Phase.SUCCESS]
        executor.shutdown()

    def test_exit_one_maps_to_failed(self):
        executor, queue, clock, store = make_harness()
        executor.start_job(JobSpec(name="bad", command="false"))
        events = drain(queue, clock, want=1)
        failed = events[-1]
        assert failed.phase is Phase.FAILED
        assert failed.failure_mode == "crash"
        assert "exit=1" in failed.reason
        executor.shutdown()

    def test_missing_binary_is_spawn_error(self):
        executor, queue, clock, store = make_harness()
        with pytest.raises(SpawnError):
            executor.start_job(JobSpec(name="ghost", command="definitely-not-a-binary-xyz"))
        executor.shutdown()

    def test_stdout_metric_lines_ingested(self):
        executor, queue, clock, store = make_harness()
        executor.start_job(JobSpec(
            name="emitter", command=EMITTER, metrics_source="stdout-lines", declares=["beats"],
        ))
        drain(queue, clock, want=1)
        series = store.series("beats")
        assert [value for _, value in series] == [0.0, 1.0, 2.0]
        assert all(at >= 0.0 for at, _ in series)
        executor.shutdown()

    def test_stdout_pipe_closed_by_the_terminal_event(self):
        executor, queue, clock, store = make_harness()
        executor.start_job(JobSpec(
            name="emitter", command=EMITTER, metrics_source="stdout-lines", declares=["beats"],
        ))
        events = drain(queue, clock, want=1)
        assert events[-1].phase is Phase.SUCCESS
        assert executor.procs["emitter"].stdout.closed
        executor.shutdown()

    def test_non_metric_lines_ignored(self):
        executor, queue, clock, store = make_harness()
        executor.start_job(JobSpec(
            name="noisy",
            command="python3 -c 'print(\"hello world\"); print(\"metric m nonsense 12\")'",
            metrics_source="stdout-lines",
            declares=["m"],
        ))
        drain(queue, clock, want=1)
        assert store.series("m") == []
        executor.shutdown()


class TestProcessFaults:
    def test_partition_unsupported(self):
        executor, queue, clock, store = make_harness()
        with pytest.raises(UnsupportedFault):
            executor.inject_fault("net", FaultSpec(
                "partition", targets=["a"], dst=["b"], duration=1.0,
            ))
        executor.shutdown()

    def test_kill_running_process(self):
        executor, queue, clock, store = make_harness()
        executor.start_job(JobSpec(name="sleeper", command="sleep 30"))
        time.sleep(0.2)
        executor.inject_fault("killer", FaultSpec("kill", targets=["sleeper"]))
        events = drain(queue, clock, want=1)
        failed = events[-1]
        assert failed.phase is Phase.FAILED and failed.failure_mode == "kill"
        executor.shutdown()

    def test_kill_requires_running_target(self):
        executor, queue, clock, store = make_harness()
        with pytest.raises(TargetNotRunning):
            executor.inject_fault("killer", FaultSpec("kill", targets=["nope"]))
        executor.shutdown()

    def test_suspend_then_resume_completes(self):
        executor, queue, clock, store = make_harness()
        executor.start_job(JobSpec(name="napper", command="sleep 0.5"))
        time.sleep(0.1)
        handle = executor.inject_fault("pause", FaultSpec("suspend", targets=["napper"], duration=30.0))
        time.sleep(0.3)
        executor.revoke_fault(handle)
        events = drain(queue, clock, want=1)
        assert events[-1].phase is Phase.SUCCESS
        tags = [e for e in events if e.tags.get("event") == "fault-revoked"]
        assert tags
        executor.shutdown()


class TestSuspendClassification:
    def test_crash_after_resume_is_unexpected(self):
        """The suspend tag lives only for the fault window; a later nonzero
        exit is the application's own failure."""
        doc = parse_scenario("""
spec:
- action: Service
  name: flaky
  service:
    command: sh -c 'sleep 1; exit 3'
- action: Chaos
  name: pause
  depends: { running: [flaky] }
  chaos: { fault: { kind: suspend, targets: [flaky], duration: 300ms } }
""")
        result = run_scenario(doc, {}, ProcessExecutor())
        assert result.outcome is Outcome.FAILED
        assert "flaky" in result.reason
        failed = next(r for r in result.trace
                      if r.kind == "transition" and r.data["subject"] == "flaky"
                      and r.data["to"] == "Failed")
        assert failed.data["class"] == "Unexpected"
        # The suspend fault itself completed cleanly before the crash.
        pause = [r for r in result.trace if r.kind == "transition" and r.data["subject"] == "pause"]
        assert pause[-1].data["to"] == "Success"


class TestExecutorParity:
    """Kill/suspend-only scenarios produce the same per-job event shapes."""

    DOC = """
spec:
- action: Service
  name: steady
  service:
    templateRef: steady
- action: Chaos
  name: cut
  depends: { running: [steady] }
  chaos: { fault: { kind: kill, targets: [steady] } }
"""

    def shapes(self, trace):
        out = {}
        for record in trace:
            if record.kind == "transition":
                out.setdefault(record.data["subject"], []).append(
                    (record.data["to"], record.data.get("class")),
                )
        return out

    def test_same_state_sequences_on_both_executors(self):
        doc = parse_scenario(self.DOC)
        sim_templates = {"steady": Template("steady", {}, (
            "script:\n- { at: 0s, do: running }\n- { at: 30s, do: success }\n"
        ))}
        proc_templates = {"steady": Template("steady", {}, "command: sleep 30\n")}
        sim_result = run_scenario(doc, sim_templates)
        proc_result = run_scenario(doc, proc_templates, ProcessExecutor())
        assert sim_result.outcome is proc_result.outcome is Outcome.FAILED
        assert self.shapes(sim_result.trace) == self.shapes(proc_result.trace)


SPIKY = """
import sys, time
for value in (10, 12, 11, 99):
    print("metric x %s %d" % (value, int(time.time() * 1000)), flush=True)
    time.sleep(0.1)
time.sleep(float(sys.argv[1]))
"""


class TestProcessAlerts:
    def test_spike_fails_the_run_while_the_emitter_still_runs(self, tmp_path):
        tail = 6.0
        emitter = tmp_path / "spiky.py"
        emitter.write_text(SPIKY)
        rule = "MAX() QUERY(x, 1m, now) IS ABOVE(50)"
        doc = parse_scenario(f"""
spec:
- action: Service
  name: spiky
  service: {{ command: {sys.executable} {emitter} {tail}, metrics: stdout-lines, declares: [x] }}
  assertions: ["{rule}"]
""")
        started = time.monotonic()
        result = run_scenario(doc, {}, ProcessExecutor())
        assert time.monotonic() - started < tail
        assert result.outcome is Outcome.FAILED
        assert result.reason == f"spiky: assertion fired: {rule}"
        spike_at = next(at for at, value in result.store.series("x") if value == 99)
        fired = next(r for r in result.trace if r.kind == "event" and r.data.get("fired"))
        assert spike_at <= fired.at < spike_at + tail
