"""Local-process executor: real children, exit mapping, signals, metrics."""

import fcntl
import glob
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from conftest import REPO
from oracles import run_one_time_per_step

from whatif import cli
from whatif.dsl import Template, parse_scenario
from whatif.engine import Engine, Outcome, run_scenario
from whatif.errors import SpawnError, UnsupportedFault
from whatif.events import EventQueue, SimClock, WallClock
from whatif.executors import make_executor
from whatif.executors.base import FaultSpec, JobSpec, SimEffect
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


def states(target, group=False):
    """The state letter of process ``target``, or of each member of process group ``target``, by pid."""
    found = {}
    for path in glob.glob("/proc/[0-9]*/stat") if group else [f"/proc/{target}/stat"]:
        try:
            with open(path) as fh:
                stat = fh.read()
        except OSError:  # no such process (any more)
            continue
        state, _, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        if not group or int(pgrp) == target:
            found[int(stat.split(None, 1)[0])] = state
    return found


def gone(target, group=False, timeout=10.0):
    """True once process ``target``, or every member of process group ``target``, has exited.

    A zombie counts as gone: it has exited, and one that was re-parented
    waits for PID 1 to reap it, which the run cannot do. A process still
    alive after ``timeout`` fails the test, which lists each pid left over
    and its state.
    """
    deadline = time.monotonic() + timeout
    while True:
        left = {pid: state for pid, state in states(target, group).items() if state != "Z"}
        if not left:
            return True
        if time.monotonic() >= deadline:
            pytest.fail(f"alive after {timeout} s, by pid: {left}")
        time.sleep(0.02)


def drain(executor, queue, want, timeout=10.0):
    """Collect State events until ``want`` terminal states arrived."""
    events = []
    deadline = time.monotonic() + timeout
    terminal = 0
    while time.monotonic() < deadline and terminal < want:
        popped = queue.pop_next()
        if popped is None:
            executor.wait(max(0.0, deadline - time.monotonic()))
            continue
        _, event = popped  # the process executor queues nothing but its State events
        events.append(event)
        if event.phase in (Phase.SUCCESS, Phase.FAILED):
            terminal += 1
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
        events = drain(executor, queue, want=1)
        assert [e.phase for e in events] == [Phase.RUNNING, Phase.SUCCESS]
        executor.shutdown()

    def test_exit_one_maps_to_failed(self):
        executor, queue, clock, store = make_harness()
        executor.start_job(JobSpec(name="bad", command="false"))
        events = drain(executor, queue, want=1)
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

    def test_a_failed_spawn_emits_no_state(self):
        executor, queue, clock, store = make_harness()
        with pytest.raises(SpawnError):
            executor.start_job(JobSpec(name="ghost", command="definitely-not-a-binary-xyz"))
        assert queue.pop_next() is None
        executor.shutdown()

    def test_a_script_only_job_fails_the_run_as_a_spawn_failure(self):
        """A job with no command is refused before anything is spawned."""
        doc = parse_scenario("spec:\n- { action: Service, name: scripted, service: { script: [{ at: 0s, do: running }] } }\n")
        executor = ProcessExecutor()
        result = run_scenario(doc, {}, executor)
        assert (result.outcome, result.reason) == (
            Outcome.FAILED, "scripted: spawn failed: scripted: process jobs need a command")
        assert executor.procs == {}

    def test_a_run_under_an_ignored_sigchld_reads_its_jobs_exit_status(self):
        """SIGCHLD is at its default while the run's jobs live, and SIG_IGN again after."""
        doc = parse_scenario("spec:\n- { action: Service, name: s, service: { templateRef: t } }\n")
        templates = {"t": Template("t", {}, "command: \"sh -c 'exit 3'\"\n")}
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            result = run_scenario(doc, templates, ProcessExecutor())
            after = signal.getsignal(signal.SIGCHLD)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert (result.outcome, result.reason) == (Outcome.FAILED, "s: exit=3")
        assert after == signal.SIG_IGN

    def test_an_ignored_sigchld_outside_the_main_thread_is_a_spawn_error(self):
        executor, queue, clock, store = make_harness()
        raised = []

        def start():
            try:
                executor.start_job(JobSpec(name="ok", command="true"))
            except SpawnError as exc:
                raised.append(str(exc))

        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            thread = threading.Thread(target=start)
            thread.start()
            thread.join()
        finally:
            signal.signal(signal.SIGCHLD, previous)
        executor.shutdown()
        assert raised == ["ok: SIGCHLD is ignored, so the job's exit status would be lost, "
                          "and only the main thread can set it to its default"]
        assert executor.procs == {}

    def test_stdout_metric_lines_ingested(self):
        executor, queue, clock, store = make_harness()
        executor.start_job(JobSpec(
            name="emitter", command=EMITTER, metrics_source="stdout-lines", declares=["beats"],
        ))
        drain(executor, queue, want=1)
        series = store.series("beats")
        assert [value for _, value in series] == [0.0, 1.0, 2.0]
        assert all(at >= 0.0 for at, _ in series)
        executor.shutdown()

    def test_stdout_pipe_closed_by_the_terminal_event(self):
        executor, queue, clock, store = make_harness()
        executor.start_job(JobSpec(
            name="emitter", command=EMITTER, metrics_source="stdout-lines", declares=["beats"],
        ))
        events = drain(executor, queue, want=1)
        assert events[-1].phase is Phase.SUCCESS
        assert executor.procs["emitter"].stdout is None  # closed
        executor.shutdown()

    def test_non_metric_lines_ignored(self):
        executor, queue, clock, store = make_harness()
        store.declare("m")  # as the engine does once the job starts
        executor.start_job(JobSpec(
            name="noisy",
            command="python3 -c 'print(\"hello world\"); print(\"metric m nonsense 12\")'",
            metrics_source="stdout-lines",
        ))
        drain(executor, queue, want=1)
        assert store.series("m") == []
        executor.shutdown()


class TestSpawnContract:
    """What a job starts with: the caller's signal mask, SIGPIPE and SIGXFSZ at default, fds 0-2 of the
    caller's inheritable fds, and a bare command looked up on its own env's PATH."""

    @staticmethod
    def run_job(command, env=None):
        executor, queue, clock, store = make_harness()
        try:
            executor.start_job(JobSpec(name="probe", command=command, env=env or {}))
            return drain(executor, queue, want=1)[-1]
        finally:
            executor.shutdown()

    def test_a_job_starts_with_no_signal_blocked_and_sigpipe_and_sigxfsz_at_default(self, tmp_path):
        status = tmp_path / "status"
        assert signal.pthread_sigmask(signal.SIG_BLOCK, []) == set()  # the caller's mask
        assert self.run_job(f"sh -c 'exec cat /proc/self/status > {status}'").phase is Phase.SUCCESS
        fields = dict(line.split(":\t", 1) for line in status.read_text().splitlines() if ":\t" in line)
        ignored = int(fields["SigIgn"], 16)
        assert int(fields["SigBlk"], 16) == 0
        assert [sig for sig in (signal.SIGPIPE, signal.SIGXFSZ) if ignored >> (sig - 1) & 1] == []

    def test_a_job_does_not_see_an_inheritable_fd_of_the_caller(self, tmp_path):
        listing = tmp_path / "fds"
        read_end, write_end = os.pipe()
        inheritable = fcntl.fcntl(write_end, fcntl.F_DUPFD, 100)  # F_DUPFD sets no close-on-exec
        try:
            assert os.get_inheritable(inheritable)
            assert self.run_job(f"sh -c 'exec ls /proc/self/fd > {listing}'").phase is Phase.SUCCESS
        finally:
            for fd in (read_end, write_end, inheritable):
                os.close(fd)
        fds = [int(name) for name in listing.read_text().split()]
        assert {0, 1, 2} <= set(fds) and inheritable not in fds

    def test_a_bare_command_is_looked_up_on_the_jobs_own_path(self, tmp_path):
        folder = tmp_path / "bin"
        folder.mkdir()
        ran = tmp_path / "ran"
        tool = folder / "whatif-probe-tool"
        tool.write_text(f"#!/bin/sh\necho ran > {ran}\n")
        tool.chmod(0o755)
        assert self.run_job("whatif-probe-tool", env={"PATH": str(folder)}).phase is Phase.SUCCESS
        assert ran.read_text() == "ran\n"
        with pytest.raises(SpawnError, match="No such file or directory: 'true'"):  # on the caller's PATH only
            self.run_job("true", env={"PATH": str(folder)})


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
        events = drain(executor, queue, want=1)
        failed = events[-1]
        assert failed.phase is Phase.FAILED and failed.failure_mode == "kill"
        executor.shutdown()

    def test_a_fault_on_an_exited_job_leaves_the_reaping_to_its_exit(self):
        executor, queue, clock, store = make_harness()
        executor.start_job(JobSpec(name="quick", command="true"))
        proc = executor.procs["quick"]
        gone(proc.pid)  # exited; unreaped, it is a zombie that pins its group id
        executor.inject_fault("killer", FaultSpec("kill", targets=["quick"]))  # the kill reaches no live process
        assert proc.returncode is None and states(proc.pid) == {proc.pid: "Z"}  # still pinned, not reaped
        events = drain(executor, queue, want=1)
        assert [e.phase for e in events] == [Phase.RUNNING, Phase.SUCCESS]  # one exit report, its own
        assert queue.pop_next() is None
        executor.shutdown()

    def test_a_reaped_job_is_signalled_no_more(self, monkeypatch):
        executor, queue, clock, store = make_harness()
        executor.start_job(JobSpec(name="napper", command="sleep 30"))
        executor.inject_fault("pause", FaultSpec("suspend", targets=["napper"]))  # revoked by hand below
        os.killpg(executor.procs["napper"].pid, signal.SIGKILL)  # killed from outside the run
        assert drain(executor, queue, want=1)[-1].phase is Phase.FAILED  # seen and reaped
        sent = []
        monkeypatch.setattr(os, "killpg", lambda pgid, sig: sent.append((pgid, sig)))
        executor.inject_fault("again", FaultSpec("suspend", targets=["napper"]))
        executor.inject_fault("killer", FaultSpec("kill", targets=["napper"]))
        executor.revoke_fault("pause", ["napper"])
        executor.kill_job("napper")
        assert sent == []  # its group id is no longer pinned
        executor.shutdown()

    def test_kill_requires_running_target(self):
        """The engine refuses a kill on a job it has not started: nothing is signalled."""
        doc = parse_scenario(
            "spec:\n- action: Service\n  name: late\n  depends: { after: 10s }\n"
            "  service: { command: sleep 30 }\n"
            "- action: Chaos\n  name: killer\n  chaos: { fault: { kind: kill, targets: [late] } }\n"
        )
        executor = ProcessExecutor()
        result = run_scenario(doc, {}, executor)
        assert (result.outcome, result.reason) == (Outcome.FAILED, "killer: TargetNotRunning: late")
        assert executor.procs == {}

    def test_suspend_then_resume_completes(self):
        executor, queue, clock, store = make_harness()
        executor.start_job(JobSpec(name="napper", command="sleep 0.5"))
        time.sleep(0.1)
        executor.inject_fault("pause", FaultSpec("suspend", targets=["napper"], duration=30.0))
        time.sleep(0.3)
        executor.revoke_fault("pause", ["napper"])
        events = drain(executor, queue, want=1)
        assert events[-1].phase is Phase.SUCCESS
        executor.shutdown()


    def test_overlapping_suspends_resume_when_the_last_ends(self):
        """Through the engine: `a` holds napper over 0-0.2 s and `b` over 0.1-0.4 s; only `b`'s end resumes it."""
        doc = parse_scenario("""
spec:
- action: Service
  name: napper
  timeout: 5s
  service: { command: sleep 0.8 }
- action: Chaos
  name: a
  depends: { running: [napper] }
  chaos: { fault: { kind: suspend, targets: [napper], duration: 200ms } }
- action: Chaos
  name: b
  depends: { running: [napper], after: 100ms }
  chaos: { fault: { kind: suspend, targets: [napper], duration: 300ms } }
""")
        executor = ProcessExecutor()
        revoke = executor.revoke_fault
        seen = []

        def spy(action, resume):
            revoke(action, resume)
            pid = executor.procs["napper"].pid
            seen.append((action, resume, states(pid)[pid] if action == "a" else None))

        executor.revoke_fault = spy
        result = run_scenario(doc, {}, executor)
        assert (result.outcome, result.reason) == (Outcome.SUCCESS, "all actions completed")
        assert seen == [("a", [], "T"), ("b", ["napper"], None)]  # `b` still held it after `a` ended


class TestSuspendClassification:
    def test_crash_after_resume_is_unexpected(self):
        """A suspend excuses no failure: a nonzero exit after the resume is
        the application's own failure."""
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

    KILL_THEN_SUSPEND = """
spec:
- action: Cluster
  name: c
  cluster: { templateRef: node, instances: 2, toleratedFailures: 1 }
- action: Chaos
  name: k
  depends: { running: [c] }
  chaos: { fault: { kind: kill, targets: [c-0] } }
- action: Chaos
  name: s
  depends: { running: [c] }
  chaos: { fault: { kind: suspend, targets: [c-0], duration: 200ms } }
"""

    @pytest.mark.parametrize("executor", ["sim", "process"])
    def test_duplicate_name_rejected(self, executor):
        """A second job under a name in use is refused; the first one stands."""
        ex = make_executor(executor)
        ex.bind(EventQueue(), SimClock() if executor == "sim" else WallClock(), MetricsStore())
        spec = JobSpec(name="j", command="sleep 30", script=[SimEffect(0.0, "running")])
        ex.start_job(spec)
        try:
            with pytest.raises(SpawnError, match="^job name already in use: j$"):
                ex.start_job(spec)
        finally:
            ex.shutdown()
        if executor == "process":
            assert list(ex.procs) == ["j"]
            assert gone(ex.procs["j"].pid, group=True)

    @pytest.mark.parametrize("executor", ["sim", "process"])
    def test_a_target_a_kill_still_watches_is_not_running(self, executor):
        """`k` and `s` are dispatched in one cycle: `s` finds c-0 killed, whether or not its exit was seen."""
        templates = {"node": Template("node", {}, (
            "script:\n- { at: 0s, do: running }\n- { at: 1s, do: success }\n" if executor == "sim" else "command: sleep 1\n"
        ))}
        result = run_scenario(parse_scenario(self.KILL_THEN_SUSPEND), templates, make_executor(executor))
        assert (result.outcome, result.reason) == (Outcome.FAILED, "s: TargetNotRunning: c-0")


SPIKY = """
import sys, time
for value in sys.argv[2:]:
    print("metric x %s %d" % (value, int(time.time() * 1000)), flush=True)
    time.sleep(0.1)
time.sleep(float(sys.argv[1]))
"""


class TestProcessAlerts:
    @staticmethod
    def run_spiky(tmp_path, rule, args):
        """Run one Service that prints a point of ``x`` for each value in ``args[1:]``, then sleeps ``args[0]`` s."""
        emitter = tmp_path / "spiky.py"
        emitter.write_text(SPIKY)
        doc = parse_scenario(f"""
spec:
- action: Service
  name: spiky
  service: {{ command: {sys.executable} {emitter} {args}, metrics: stdout-lines, declares: [x] }}
  assertions: ["{rule}"]
""")
        return run_scenario(doc, {}, ProcessExecutor())

    def test_spike_fails_the_run_while_the_emitter_still_runs(self, tmp_path):
        tail = 6.0
        rule = "MAX() QUERY(x, 1m, now) IS ABOVE(50)"
        started = time.monotonic()
        result = self.run_spiky(tmp_path, rule, f"{tail} 10 12 11 99")
        assert time.monotonic() - started < tail
        assert result.outcome is Outcome.FAILED
        assert result.reason == f"spiky: assertion fired: {rule}"
        spike_at = next(at for at, value in result.store.series("x") if value == 99)
        fired = next(r for r in result.trace if r.kind == "fired")
        assert spike_at <= fired.at < spike_at + tail

    def test_a_nan_point_is_dropped_and_hides_no_later_point(self, tmp_path):
        rule = "MAX() QUERY(x, 1m, now) IS ABOVE(70)"
        result = self.run_spiky(tmp_path, rule, "0 nan 100")
        assert result.outcome is Outcome.FAILED
        assert result.reason == f"spiky: assertion fired: {rule}"
        assert [value for _, value in result.store.series("x")] == [100.0]
        assert result.store.dropped == 1


# Four points of x: stamped `inf`, a minute before the run, `nan`, and now.
STAMPS = """
import time
now = time.time() * 1000
for value, stamp in ((1, "inf"), (2, "%d" % (now - 60000)), (3, "nan"), (4, "%d" % now)):
    print("metric x %d %s" % (value, stamp), flush=True)
"""


def test_stamps_not_finite_are_dropped_and_one_before_the_start_is_kept(tmp_path, monkeypatch):
    emitter = tmp_path / "stamps.py"
    emitter.write_text(STAMPS)
    scenario = tmp_path / "stamps.yaml"
    scenario.write_text(f"""
spec:
- action: Service
  name: stamps
  service: {{ command: {sys.executable} {emitter}, metrics: stdout-lines, declares: [x] }}
""")
    engines = []

    class RecordingEngine(Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr("whatif.engine.Engine", RecordingEngine)
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario), "--executor", "process", "--out", str(out)]) == 0
    store = engines[0].store
    assert store.dropped == 2
    (early, two), (late, four) = store.series("x")
    assert (two, four) == (2.0, 4.0)
    assert -70.0 < early < -50.0 and late >= 0.0
    assert cli.main(["report", str(out)]) == 0
    assert MetricsStore.load(out / "metrics.txt").series("x") == store.series("x")


class TestNothingOutlivesARun:
    def test_timeout_abort_kills_the_background_processes_of_a_job(self, tmp_path):
        pidfile = tmp_path / "pid"
        doc = parse_scenario("spec:\n- { action: Call, name: slow, timeout: 300ms, call: { callable: t, services: [] } }\n")
        templates = {"t": Template("t", {}, f"command: \"sh -c 'sleep 30 & echo $! > {pidfile}; sleep 30'\"\n")}
        executor = ProcessExecutor()
        result = run_scenario(doc, templates, executor)
        assert result.outcome is Outcome.ABORTED
        assert result.reason == "timeout: action slow did not finish in time"
        assert executor.procs["slow"].returncode is not None
        assert gone(executor.procs["slow"].pid, group=True)
        assert gone(int(pidfile.read_text()))

    def test_runs_of_one_loaded_document_leave_no_process(self, tmp_path):
        """Two runs share the document's plan; each kills and reaps what it started."""
        pidfile = tmp_path / "pids"
        doc = parse_scenario(
            "spec:\n"
            "- { action: Cluster, name: c, timeout: 500ms,"
            " cluster: { templateRef: node, instances: 2, toleratedFailures: 1 } }\n"
            "- { action: Chaos, name: k, depends: { running: [c] }, chaos: { fault: { kind: kill, targets: [c-0] } } }\n"
        )
        templates = {"node": Template("node", {}, f"command: \"sh -c 'sleep 30 & echo $! >> {pidfile}; sleep 30'\"\n")}
        for _ in range(2):
            executor = ProcessExecutor()
            result = run_scenario(doc, templates, executor)
            assert (result.outcome, result.reason) == (Outcome.ABORTED, "timeout: action c did not finish in time")
            killed = [r.data["subject"] for r in result.trace if r.kind == "transition" and r.data.get("class") == "Expected"]
            assert killed == ["c-0"]
            assert sorted(executor.procs) == ["c-0", "c-1"]
            for proc in executor.procs.values():
                assert proc.returncode is not None
                assert gone(proc.pid, group=True)
        pids = pidfile.read_text().split()
        assert len(pids) >= 2  # c-1's of each run; c-0 may be killed before it starts its own
        assert all(gone(int(pid)) for pid in pids)

    def test_an_executor_that_loses_a_jobs_end_aborts_at_once(self):
        """A drained queue aborts the run at once, as on the simulator, with the job still alive."""

        class Losing(ProcessExecutor):
            """A defective executor: starting a job drops every queued item, its action's timeout with them."""

            def start_job(self, spec):
                super().start_job(spec)
                while self.queue.pop_next() is not None:
                    pass

        doc = parse_scenario("spec:\n- { action: Service, name: lost, service: { command: 'sleep 30' } }\n")
        executor = Losing()
        started = time.monotonic()
        result = run_scenario(doc, {}, executor)
        assert time.monotonic() - started < 2.0
        assert (result.outcome, result.reason) == (
            Outcome.ABORTED, "timeout: no pending events but actions remain unfinished",
        )
        assert gone(executor.procs["lost"].pid, group=True)

    def test_exit_is_seen_while_a_background_process_holds_stdout(self):
        executor, queue, clock, store = make_harness()
        started = time.monotonic()
        executor.start_job(JobSpec(name="quick", command="sh -c 'sleep 5 & exit 3'", metrics_source="stdout-lines"))
        events = drain(executor, queue, want=1)
        assert time.monotonic() - started < 0.2
        assert events[-1].phase is Phase.FAILED and events[-1].reason == "exit=3"
        assert executor.procs["quick"].stdout is None  # closed
        executor.shutdown()
        assert gone(executor.procs["quick"].pid, group=True)

    # A second signal at once must not cut the cleanup short nor turn the run into a Success.
    @pytest.mark.parametrize(
        "sigs", [(signal.SIGTERM,), (signal.SIGINT,), (signal.SIGTERM, signal.SIGINT)],
        ids=["SIGTERM", "SIGINT", "SIGTERM-then-SIGINT"],
    )
    def test_signalled_cli_run_exits_3_with_run_files(self, tmp_path, sigs):
        pidfile = tmp_path / "pid"
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            "spec:\n- action: Service\n  name: svc\n"
            f"  service: {{ command: \"sh -c 'echo $$ > {pidfile}; sleep 30 & sleep 30'\" }}\n"
        )
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        run = subprocess.Popen(
            [sys.executable, "-m", "whatif.cli", "run", str(scenario), "--executor", "process", "--out", str(out)],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 20
            while not (pidfile.exists() and pidfile.read_text().strip()) and time.monotonic() < deadline:
                time.sleep(0.02)
            pgid = int(pidfile.read_text())
            for sig in sigs:
                run.send_signal(sig)
            _, stderr = run.communicate(timeout=20)
        finally:
            run.kill()
            run.wait()
        assert run.returncode == 3, stderr
        assert "Traceback" not in stderr
        assert (out / "trace.ndjson").exists() and (out / "metrics.txt").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["outcome"] == "Aborted" and report["reason"].startswith("interrupted:")
        assert gone(pgid, group=True)

    def test_an_interrupted_abort_is_no_success(self):
        class InterruptedAbort(Engine):
            def _abort(self, reason):
                raise KeyboardInterrupt

        doc = parse_scenario("spec:\n- { action: Call, name: slow, timeout: 300ms, call: { callable: t, services: [] } }\n")
        executor = ProcessExecutor()
        engine = InterruptedAbort(doc, {"t": Template("t", {}, "command: 'sleep 30'\n")}, executor)
        with pytest.raises(KeyboardInterrupt):
            engine.run()
        assert engine.outcome is Outcome.ABORTED
        assert engine.trace.records[-1].data["outcome"] == "Aborted"
        assert gone(executor.procs["slow"].pid, group=True)

    def test_an_interrupt_after_the_fork_leaves_no_job(self, monkeypatch):
        def interrupted(pid):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "pidfd_open", interrupted)
        doc = parse_scenario("spec:\n- { action: Service, name: svc, service: { command: 'sleep 30' } }\n")
        executor = ProcessExecutor()
        with pytest.raises(KeyboardInterrupt):
            run_scenario(doc, {}, executor)
        assert executor.procs["svc"].returncode == -signal.SIGKILL
        assert gone(executor.procs["svc"].pid, group=True)

    def test_a_signal_during_the_spawn_is_handled_with_the_job_recorded(self, monkeypatch):
        """SIGINT sent to this thread as the spawn returns waits until the job is recorded, then interrupts
        the run, whose cleanup kills the job."""
        spawn = os.posix_spawn

        def signalled(*args, **kwargs):
            pid = spawn(*args, **kwargs)
            signal.pthread_kill(threading.get_ident(), signal.SIGINT)  # to this thread, not to a watchdog's
            return pid

        engines = []

        class RecordingEngine(Engine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        monkeypatch.setattr(os, "posix_spawn", signalled)
        monkeypatch.setattr("whatif.engine.Engine", RecordingEngine)
        doc = parse_scenario("spec:\n- { action: Service, name: svc, service: { command: \"sh -c 'sleep 30 & sleep 30'\" } }\n")
        executor = ProcessExecutor()
        with pytest.raises(KeyboardInterrupt):
            run_scenario(doc, {}, executor)
        records = engines[0].trace.records
        assert records[-1].data == {"outcome": "Aborted", "reason": "interrupted: KeyboardInterrupt"}
        assert [r.data["target"] for r in records if r.kind == "command" and r.data["verb"] == "KillJob"] == ["svc"]
        assert executor.procs["svc"].returncode == -signal.SIGKILL
        assert gone(executor.procs["svc"].pid, group=True)

    @pytest.mark.parametrize("step", ["pidfd", "pipe"])
    def test_an_interrupt_while_registering_a_job_leaves_no_job(self, step, monkeypatch):
        def open_pidfds():
            return sum(1 for fd in os.listdir("/proc/self/fd")
                       if _readlink(f"/proc/self/fd/{fd}") == "anon_inode:[pidfd]")

        executor = ProcessExecutor()
        register = executor._selector.register

        def interrupted(fileobj, events, data=None):
            if (fileobj == executor.procs["svc"].pidfd) == (step == "pidfd"):
                raise KeyboardInterrupt
            return register(fileobj, events, data)

        monkeypatch.setattr(executor._selector, "register", interrupted)
        doc = parse_scenario("spec:\n- { action: Service, name: svc, service: { command: 'sleep 30', metrics: stdout-lines } }\n")
        engine = Engine(doc, {}, executor)
        before = open_pidfds()
        with pytest.raises(KeyboardInterrupt):
            engine.run()
        assert engine.trace.records[-1].kind == "outcome"
        assert engine.outcome is Outcome.ABORTED
        assert executor._selector.get_map() is None  # closed
        assert open_pidfds() == before
        assert executor.procs["svc"].returncode == -signal.SIGKILL
        assert executor.procs["svc"].stdout is None  # closed
        assert gone(executor.procs["svc"].pid, group=True)


def _readlink(path):
    try:
        return os.readlink(path)
    except OSError:  # the fd listing itself, closed by now
        return None


def test_a_process_run_starts_no_thread():
    counts = []

    class CountingExecutor(ProcessExecutor):
        def wait(self, timeout):
            counts.append(threading.active_count())
            super().wait(timeout)

    body = json.dumps({"command": EMITTER.replace("range(3)", "range(10)"), "metrics": "stdout-lines",
                       "declares": ["beats"]})
    doc = parse_scenario("""
spec:
- { action: Service, name: a, service: { templateRef: emitter } }
- { action: Service, name: b, service: { templateRef: emitter } }
- action: Chaos
  name: cut
  depends: { running: [a, b], after: 200ms }
  chaos: { fault: { kind: kill, targets: [a] } }
""")
    before = threading.active_count()
    result = run_one_time_per_step(Engine(doc, {"emitter": Template("emitter", {}, body)}, CountingExecutor()))
    assert result.outcome is Outcome.FAILED
    assert result.store.series("beats")
    assert counts and set(counts) == {before}
    assert threading.active_count() == before


def _at(result, kind, **data):
    """The ``at`` of the one record of ``kind`` whose fields include ``data``."""
    [at] = [r.at for r in result.trace if r.kind == kind and data.items() <= r.data.items()]
    return at


def test_a_dependent_is_dispatched_at_the_time_its_depends_held():
    """An event and every record its cycle writes share one reading of the wall clock."""
    doc = parse_scenario("""
spec:
- { action: Service, name: a, service: { command: 'sleep 0.1' } }
- { action: Service, name: b, depends: { running: [a] }, service: { command: 'true' } }
""")
    result = run_one_time_per_step(Engine(doc, {}, ProcessExecutor()))
    assert result.outcome is Outcome.SUCCESS, result.reason
    running = _at(result, "transition", subject="a", to="Running")
    assert _at(result, "event", event="State", subject="a", phase="Running") == running
    assert _at(result, "command", verb="CreateJob", target="b") == running


def test_an_after_delay_is_waited_out_with_no_job_alive():
    """The executor sleeps until the `after:` timer falls due, with no job left to bring news."""
    waits = []

    class RecordingExecutor(ProcessExecutor):
        def wait(self, timeout):
            waits.append((sum(job.returncode is None for job in self.procs.values()), timeout))
            super().wait(timeout)

    doc = parse_scenario("""
spec:
- { action: Service, name: a, service: { command: 'true' } }
- { action: Call, name: b, depends: { success: [a], after: 300ms }, call: { callable: t, services: [] } }
""")
    result = run_one_time_per_step(Engine(doc, {"t": Template("t", {}, "command: 'true'\n")}, RecordingExecutor()))
    assert result.outcome is Outcome.SUCCESS, result.reason
    created = _at(result, "command", verb="CreateJob", target="b")
    assert created == _at(result, "event", event="Time", timer="after:b")
    assert created >= _at(result, "transition", subject="a", to="Success") + 0.3
    assert any(jobs == 0 and timeout is not None and timeout > 0 for jobs, timeout in waits), waits
