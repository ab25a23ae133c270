"""CLI exit codes, run artifacts, and report formats."""

import errno
import json
import os
import random
import signal
import sys
from pathlib import Path

import pytest

from whatif.cli import main
from whatif.dsl import ActionSpec, DependsClause, ScenarioDoc, load_templates, parse_scenario
from whatif.engine import run_scenario
from whatif.executors import SimExecutor
from whatif.report import build_report, load_run, plot_data, report_json_text
from whatif.telemetry import MetricsStore
from whatif.trace import RunTrace
from conftest import SCENARIOS, script_template
from documents import render_scenario
from test_engine import LaggingEngine

VALID = SCENARIOS / "partition-demo.yaml"
TEMPLATES = SCENARIOS / "templates"
NAME_COLLISION = SCENARIOS / "invalid" / "name-collision.yaml"
BAD_JOB_BODY = SCENARIOS / "invalid" / "bad-job-body.yaml"
BAD_METRIC_VALUE = SCENARIOS / "invalid" / "bad-metric-value.yaml"
BAD_TIMESTAMP = SCENARIOS / "invalid" / "bad-timestamp.yaml"
BAD_DURATION = SCENARIOS / "invalid" / "bad-duration.yaml"
SEVERAL_ERRORS = SCENARIOS / "invalid" / "several-errors.yaml"
NON_SCALAR_FIELDS = SCENARIOS / "invalid" / "non-scalar-fields.yaml"
TOO_MANY_INSTANCES = SCENARIOS / "invalid" / "too-many-instances.yaml"
INVALID_DOCUMENTS = sorted((SCENARIOS / "invalid").glob("*.yaml"))
# The stdout of `whatif validate <document> --templates scenarios/templates`
# for each document of scenarios/invalid, in <document stem>.txt.
VALIDATE_OUTPUTS = Path(__file__).resolve().parent / "validate_outputs"
RUN_FILES = ["trace.ndjson", "metrics.txt", "report.json"]  # in the order `run` writes them

NINES = "9" * 400  # overflows a float to inf
SERVICE = ("{action: Service, name: s, service: {declares: [m], script: [{at: 0s, do: running}, "
           "{at: 1s, do: metric, name: m, value: 1}, {at: 5s, do: success}]}}")

CYCLIC = """
spec:
- action: Call
  name: a
  depends: { success: [b] }
  call: { callable: boot, services: [] }
- action: Call
  name: b
  depends: { success: [a] }
  call: { callable: boot, services: [] }
"""

TIMED_OUT_CALL = "spec:\n- action: Call\n  name: slow\n  timeout: 10s\n  call: { callable: t, services: [] }\n"

# The trace of TIMED_OUT_CALL as runs wrote it when each annotation was also
# its own `annotation` record.
TIMED_OUT_CALL_OLD_TRACE = """\
{"actions":[{"kind":"Call","name":"slow"}],"assertions":{},"at":0.0,"executor":"sim","kind":"run","scenario":"scenario","seed":0,"seq":0}
{"at":0.0,"kind":"transition","seq":1,"subject":"scenario","to":"Pending"}
{"at":0.0,"kind":"transition","seq":2,"subject":"scenario","to":"Running"}
{"args":{"command":null,"metrics":"none","script_effects":2},"at":0.0,"kind":"command","seq":3,"target":"slow","verb":"CreateJob"}
{"action":"open","ann_kind":"Region","at":0.0,"kind":"annotation","label":"slow","seq":4}
{"at":0.0,"event":"State","kind":"event","phase":"Pending","seq":5,"subject":"slow"}
{"at":0.0,"kind":"transition","seq":6,"subject":"slow","to":"Pending"}
{"at":0.0,"event":"State","kind":"event","phase":"Running","seq":7,"subject":"slow"}
{"at":0.0,"kind":"transition","seq":8,"subject":"slow","to":"Running"}
{"at":10.0,"event":"Time","kind":"event","seq":9,"timer":"timeout:slow"}
{"args":{"outcome":"Aborted","reason":"timeout: action slow did not finish in time"},"at":10.0,"kind":"command","seq":10,"target":"scenario","verb":"AbortRun"}
{"action":"close","ann_kind":"Region","at":10.0,"end":10.0,"kind":"annotation","label":"slow","seq":11,"start":0.0}
{"args":{},"at":10.0,"kind":"command","seq":12,"target":"slow","verb":"KillJob"}
{"at":10.0,"kind":"outcome","outcome":"Aborted","reason":"timeout: action slow did not finish in time","seq":13}
"""

# A run whose report has a checkpoint, one quiet assertion and one that fires.
WATCHED = """
name: watched
spec:
- action: Service
  name: emitter
  service:
    declares: [cpu]
    script:
    - { at: 0s, do: running }
    - { at: 1s, do: metric, name: cpu, value: 40 }
    - { at: 3s, do: metric, name: cpu, value: 90 }
    - { at: 5s, do: success }
  assertions:
  - MAX() QUERY(cpu, 10s, now) IS ABOVE(100)
  - MAX() QUERY(cpu, 10s, now) IS ABOVE(CHECKPOINT(base.cpu) * 2)
- action: Checkpoint
  name: base
  depends: { running: [emitter], after: 2s }
  checkpoint: { values: { cpu: "MAX() QUERY(cpu, 5s, now)" } }
"""

CRASHY = """
spec:
- action: Service
  name: fragile
  service:
    script:
    - { at: 0s, do: running }
    - { at: 2s, do: crash }
"""

# The crash fails the run at 2 s, and the cleanup revokes the suspend and kills `steady`.
CRASH_DURING_SUSPEND = CRASHY + """\
- action: Service
  name: steady
  service: { script: [ { at: 0s, do: running }, { at: 2h, do: success } ] }
- action: Chaos
  name: pause
  depends: { running: [ steady ] }
  chaos: { fault: { kind: suspend, targets: [ steady ], duration: 1h } }
"""

SLOW = """
spec:
- action: Service
  name: slow
  timeout: 5s
  service:
    script:
    - { at: 0s, do: running }
    - { at: 60s, do: success }
"""

TWO_SERVICES = """
spec:
- action: Service
  name: first
  service: { script: [ { at: 0s, do: running }, { at: 5s, do: success } ] }
- action: Service
  name: second
  service: { script: [ { at: 0s, do: running }, { at: 5s, do: success } ] }
"""


class BrokenExecutor(SimExecutor):
    """A simulator whose second start_job fails with an error that is not a WhatifError."""

    def __init__(self):
        super().__init__()
        self.starts = 0
        self.killed = []

    def start_job(self, spec):
        self.starts += 1
        if self.starts == 2:
            raise RuntimeError("executor bug")
        super().start_job(spec)

    def kill_job(self, name):
        self.killed.append(name)
        super().kill_job(name)


class TestValidate:
    @pytest.mark.parametrize("document", INVALID_DOCUMENTS, ids=lambda path: path.stem)
    def test_invalid_document_output_is_pinned(self, document, capsys):
        assert main(["validate", str(document), "--templates", str(TEMPLATES)]) == 2
        assert capsys.readouterr().out == (VALIDATE_OUTPUTS / f"{document.stem}.txt").read_text()

    def test_valid_scenario_exit_0(self, capsys):
        assert main(["validate", str(VALID), "--templates", str(TEMPLATES)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_verbose_flag_still_accepted(self, capsys):
        assert main(["-v", "validate", str(VALID), "--templates", str(TEMPLATES)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_name_collision_exit_2(self, capsys):
        assert main(["validate", str(NAME_COLLISION), "--templates", str(TEMPLATES)]) == 2
        assert "db-1: name used by an action and by an instance of cluster db" in capsys.readouterr().out

    def test_bad_job_bodies_exit_2(self, tmp_path, capsys):
        assert main(["validate", str(BAD_JOB_BODY), "--templates", str(TEMPLATES)]) == 2
        out = capsys.readouterr().out
        assert "misspelled-effect: script[0]: unknown effect 'runnning'" in out
        assert "unknown-key: unknown job body key 'scirpt'" in out
        (tmp_path / "templates").mkdir()
        (tmp_path / "templates" / "lib.yaml").write_text("name: broken\nbody: 'script: [unclosed'\n")
        path = tmp_path / "templated.yaml"
        path.write_text("spec:\n- {action: Service, name: s, service: {templateRef: broken}}\n")
        assert main(["validate", str(path), "--templates", str(tmp_path / "templates")]) == 2
        assert "s: template broken body does not parse: " in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_numeric_metric_values_exit_2(self, command, tmp_path, capsys):
        args = [command, str(BAD_METRIC_VALUE), "--templates", str(TEMPLATES)]
        assert main(args + (["--out", str(tmp_path / "out")] if command == "run" else [])) == 2
        captured = capsys.readouterr()
        assert "word: script[1].value: expected a number, got 'high'" in captured.out + captured.err
        assert "list: script[1].value: expected a number, got [1]" in captured.out + captured.err
        assert "nan: script[1].value: expected a number, got nan" in captured.out + captured.err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("spec,message", [
        pytest.param(f"defaults: {{timeout: .nan}}\nspec: [{SERVICE}]\n",
                     "defaults.timeout: not a finite duration: nan", id="default-timeout"),
        pytest.param("spec:\n- {action: Call, name: c, timeout: .inf, call: {callable: t, services: []}}\n",
                     "(c).timeout: not a finite duration: inf", id="timeout"),
        pytest.param(f"spec:\n- {{action: Call, name: c, timeout: {NINES}, call: {{callable: t, services: []}}}}\n",
                     "(c).timeout: not a finite duration: 999", id="integer-timeout"),
        pytest.param(f"spec:\n- {{action: Call, name: c, depends: {{after: '{NINES}s'}}, call: {{callable: t, services: []}}}}\n",
                     "(c).depends.after: not a finite duration: '999", id="after"),
        pytest.param(f"spec:\n- {SERVICE}\n- {{action: Chaos, name: k, chaos: {{fault: {{kind: suspend, targets: [s], duration: .nan}}}}}}\n",
                     "k: invalid fault: fault duration: not a finite duration: nan", id="fault-duration"),
        pytest.param("spec:\n- {action: Service, name: s, service: {script: [{at: .nan, do: running}]}}\n",
                     "s: script[0].at: not a finite duration: nan", id="script-at"),
        pytest.param(f"spec:\n- {SERVICE[:-1]}, assertions: ['MAX() QUERY(m, {NINES}, now) IS ABOVE(5)']}}\n",
                     "query window: not a finite duration: '999", id="query-window"),
    ])
    def test_non_finite_durations_exit_2(self, command, spec, message, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(spec)
        args = [command, str(path)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
        assert main(args) == 2
        captured = capsys.readouterr()
        assert message in captured.out + captured.err

    def test_bad_duration_file_exit_2(self, capsys):
        assert main(["validate", str(BAD_DURATION)]) == 2
        captured = capsys.readouterr()
        errors = captured.out.splitlines()
        assert len(errors) == 2 and captured.err == ""
        assert errors[0] == "error: document: defaults.timeout: not a finite duration: nan"
        assert errors[1].startswith("error: emitter: expression 'MAX() QUERY(load, 999")
        assert "query window: not a finite duration: '999" in errors[1]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_several_errors_file_reports_each_action_once(self, command, tmp_path, capsys):
        args = [command, str(SEVERAL_ERRORS)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
        assert main(args) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [
            "warning: document: unknown top-level key 'owner'",
            "error: server: spec[0] (server).timeout: not a finite duration: nan",
            "error: client: spec[1] (client): depends must be a map",
            "error: stall: spec[2] (stall): unknown body key 'retries'",
        ]
        assert not (tmp_path / "out").exists()

    def test_non_scalar_fields_file_reports_each_action_once(self, capsys):
        assert main(["validate", str(NON_SCALAR_FIELDS), "--templates", str(TEMPLATES)]) == 2
        errors = capsys.readouterr().out.splitlines()
        assert [line.split(":")[1].strip() for line in errors] == [
            "list-command", "map-env-value", "map-in-declares", "map-metric-name", "nested-targets", "nested-source",
        ]
        assert all(line.startswith("error: ") and "expected a scalar" in line for line in errors)

    def test_too_many_instances_is_one_error(self, capsys):
        assert main(["validate", str(TOO_MANY_INSTANCES), "--templates", str(TEMPLATES)]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "error: document: clusters have 123456789 instances in all, more than 100000",
        ]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_finite_timeout_default_exit_2(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, str(VALID), "--templates", str(TEMPLATES), "--timeout-default", NINES])
        assert info.value.code == 2
        assert "argument --timeout-default: not a finite duration: '999" in capsys.readouterr().err

    def test_bad_timestamp_exit_2(self, capsys):
        assert main(["validate", str(BAD_TIMESTAMP), "--templates", str(TEMPLATES)]) == 2
        assert capsys.readouterr().err == "error: cannot construct a value: month must be in 1..12\n"

    def test_bad_timestamp_input_exit_2(self, tmp_path, capsys):
        (tmp_path / "templates").mkdir()
        (tmp_path / "templates" / "lib.yaml").write_text(
            "name: dated\nparameters: [when]\nbody: 'script: [{at: {{when}}, do: running}]'\n")
        path = tmp_path / "templated.yaml"
        path.write_text("spec:\n- {action: Service, name: s, service: {templateRef: dated, inputs: [{when: '2001-13-45'}]}}\n")
        assert main(["validate", str(path), "--templates", str(tmp_path / "templates")]) == 2
        assert ("s: template dated body does not parse: cannot construct a value: month must be in 1..12"
                in capsys.readouterr().out)

    def test_cyclic_deps_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cyclic.yaml"
        path.write_text(CYCLIC)
        assert main(["validate", str(path), "--templates", str(TEMPLATES)]) == 2
        assert "dependency cycle" in capsys.readouterr().out

    def test_missing_template_dir_exit_2(self, tmp_path):
        assert main(["validate", str(VALID), "--templates", str(tmp_path / "nope")]) == 2

    def test_unreadable_scenario_exit_2(self, tmp_path):
        assert main(["validate", str(tmp_path / "missing.yaml")]) == 2


class TestRun:
    def test_healthy_run_exit_0_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run", str(VALID), "--templates", str(TEMPLATES), "--out", str(out),
        ])
        assert code == 0
        assert (out / "trace.ndjson").is_file()
        assert (out / "metrics.txt").is_file()
        assert (out / "report.json").is_file()

    def test_crash_run_exit_1_names_service(self, tmp_path, capsys):
        path = tmp_path / "crashy.yaml"
        path.write_text(CRASHY)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["outcome"] == "Failed"
        assert "fragile" in report["reason"]

    def test_spawn_failure_exit_1(self, tmp_path, capsys):
        """A simulated Service with only a command cannot start: the test fails, it does not abort."""
        path = tmp_path / "command-only.yaml"
        path.write_text("spec:\n- action: Service\n  name: cmd\n  service: { command: 'sleep 1' }\n")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "cmd: spawn failed" in capsys.readouterr().err

    def test_timeout_exit_3(self, tmp_path):
        path = tmp_path / "slow.yaml"
        path.write_text(SLOW)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("text,code", [(TWO_SERVICES, 0), (CRASHY, 1), (SLOW, 3)], ids=["success", "failed", "aborted"])
    def test_a_signal_while_the_run_files_are_written_keeps_the_outcome(self, text, code, tmp_path, monkeypatch, capsys):
        save = RunTrace.save

        def signalled_save(trace, path):
            os.kill(os.getpid(), signal.SIGTERM)
            save(trace, path)

        monkeypatch.setattr(RunTrace, "save", signalled_save)
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == code
        assert sorted(p.name for p in out.iterdir()) == ["metrics.txt", "report.json", "trace.ndjson"]
        assert build_report(load_run(out)[0]) == json.loads((out / "report.json").read_text())
        assert capsys.readouterr().err.endswith("SIGTERM after the outcome: ignored\n")

    def test_internal_error_exit_3_writes_run_files(self, tmp_path, monkeypatch):
        executor = BrokenExecutor()
        monkeypatch.setattr("whatif.cli.make_executor", lambda name: executor)
        path = tmp_path / "two.yaml"
        path.write_text(TWO_SERVICES)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 3
        records = [json.loads(line) for line in (out / "trace.ndjson").read_text().splitlines()]
        assert records[-1]["kind"] == "outcome"
        assert records[-1]["outcome"] == "Aborted"
        assert records[-1]["reason"] == "internal error: RuntimeError: executor bug"
        assert executor.killed == ["first"]
        kills = [r["target"] for r in records if r["kind"] == "command" and r["verb"] == "KillJob"]
        assert kills == ["first"]
        assert json.loads((out / "report.json").read_text())["outcome"] == "Aborted"

    @pytest.mark.parametrize("raiser", ["revoke", "kill", "shutdown"])
    @pytest.mark.parametrize("exc,reason", [
        (OSError("cleanup failed"), "internal error: OSError: cleanup failed"),
        (KeyboardInterrupt(), "interrupted: KeyboardInterrupt"),
    ], ids=["error", "interrupt"])
    def test_a_cleanup_call_that_raises_exit_3_after_the_rest_of_the_cleanup(
        self, exc, reason, raiser, tmp_path, monkeypatch,
    ):
        cleanup = []

        def call(*made):
            cleanup.append(made)
            if made[0] == raiser:
                raise exc

        monkeypatch.setattr(SimExecutor, "revoke_fault", lambda executor, action, resume: call("revoke", action))
        monkeypatch.setattr(SimExecutor, "kill_job", lambda executor, name: call("kill", name))
        monkeypatch.setattr(SimExecutor, "shutdown", lambda executor: call("shutdown"))
        path = tmp_path / "scenario.yaml"
        path.write_text(CRASH_DURING_SUSPEND)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 3
        assert cleanup == [("revoke", "pause"), ("kill", "steady"), ("shutdown",)]
        records = [json.loads(line) for line in (out / "trace.ndjson").read_text().splitlines()]
        commands = [(r["verb"], r["target"], r["args"].get("outcome")) for r in records if r["kind"] == "command"]
        assert commands[-4:] == [
            ("AbortRun", "scenario", "Failed"), ("RevokeFault", "pause", None),
            ("KillJob", "steady", None), ("AbortRun", "scenario", "Aborted"),
        ]
        assert [(r["outcome"], r["reason"]) for r in records if r["kind"] == "outcome"] == [("Aborted", reason)]
        assert build_report(load_run(out)[0]) == json.loads((out / "report.json").read_text())

    def test_a_record_stamped_before_the_last_exit_3_writes_run_files(self, tmp_path, monkeypatch):
        monkeypatch.setattr("whatif.cli.Engine", LaggingEngine)
        out = tmp_path / "out"
        assert main(["run", str(VALID), "--templates", str(TEMPLATES), "--out", str(out)]) == 3
        assert {p.name for p in out.iterdir()} == {"trace.ndjson", "metrics.txt", "report.json"}
        report = json.loads((out / "report.json").read_text())
        assert (report["outcome"], report["reason"].split(":")[:2]) == ("Aborted", ["internal error", " ValueError"])

    def test_a_failure_at_the_run_header_exit_3_without_a_report(self, tmp_path, monkeypatch, capsys):
        """The run aborts with no `run` record, so no report can be built: exit 3, not a traceback."""
        append = RunTrace.append

        def failing_append(trace, kind, at, **data):
            if kind == "run":
                raise OSError("disk gone")
            return append(trace, kind, at, **data)

        monkeypatch.setattr(RunTrace, "append", failing_append)
        out = tmp_path / "out"
        assert main(["run", str(VALID), "--templates", str(TEMPLATES), "--out", str(out)]) == 3
        assert sorted(p.name for p in out.iterdir()) == ["metrics.txt", "trace.ndjson"]
        err = capsys.readouterr().err
        assert err.startswith("Aborted: internal error: OSError: disk gone\n")
        assert err.endswith("error: trace is missing its run header or outcome record\n")
        monkeypatch.undo()
        assert main(["report", str(out)]) == 2

    @pytest.mark.parametrize("exc", [OSError("disk gone"), MemoryError(), KeyboardInterrupt()],
                             ids=["oserror", "memoryerror", "interrupt"])
    @pytest.mark.parametrize("record", ["root-transition", "outcome"])
    def test_a_failure_at_the_last_two_records_exit_3(self, record, exc, tmp_path, monkeypatch, capsys):
        """The root's terminal transition and the `outcome` record are the demo's last two appends. An
        exception at either ends the run with exit 3, not a traceback, and an interrupt never exits 0."""
        demo = run_scenario(parse_scenario(VALID.read_text()), load_templates(TEMPLATES)).trace.records
        root = demo[0].data["scenario"]
        assert [(r.kind, r.data.get("subject")) for r in demo[-2:]] == [("transition", root), ("outcome", None)]
        fail_at = len(demo) - (record == "root-transition")  # 1-based, as the appends are counted
        append, calls = RunTrace.append, []

        def failing_append(trace, kind, at, **data):
            calls.append(kind)
            if len(calls) == fail_at:
                raise exc
            return append(trace, kind, at, **data)

        monkeypatch.setattr(RunTrace, "append", failing_append)
        out = tmp_path / "out"
        assert main(["run", str(VALID), "--templates", str(TEMPLATES), "--out", str(out)]) == 3
        monkeypatch.undo()
        if record == "outcome":  # the trace ends before its outcome: no report can be built
            assert sorted(p.name for p in out.iterdir()) == ["metrics.txt", "trace.ndjson"]
            assert capsys.readouterr().err.endswith("error: trace is missing its run header or outcome record\n")
            return
        reason = "interrupted: KeyboardInterrupt" if isinstance(exc, KeyboardInterrupt) else (
            f"internal error: {type(exc).__name__}: {exc}")
        report = json.loads((out / "report.json").read_text())
        assert (report["outcome"], report["reason"]) == ("Aborted", reason)
        assert capsys.readouterr().err.startswith(f"Aborted: {reason}\n")
        assert build_report(load_run(out)[0]) == report

    def test_out_under_a_regular_file_exit_2_before_the_run(self, tmp_path, capsys):
        marker = tmp_path / "ran"
        path = tmp_path / "touch.yaml"
        path.write_text(f"spec:\n- action: Service\n  name: toucher\n  service: {{ command: touch {marker} }}\n")
        (tmp_path / "file").write_text("")
        assert main(["run", str(path), "--executor", "process", "--out", str(tmp_path / "file" / "sub")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not marker.exists()

    def test_unwritable_run_file_exit_2_after_the_outcome(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "trace.ndjson").mkdir(parents=True)
        assert main(["run", str(VALID), "--templates", str(TEMPLATES), "--out", str(out)]) == 2
        outcome, error = capsys.readouterr().err.splitlines()
        assert outcome == "Success: all actions completed"
        assert error.startswith("error: ") and "trace.ndjson" in error

    @pytest.mark.parametrize("torn", RUN_FILES)
    def test_a_write_that_fails_part_way_leaves_no_partial_file_exit_2(self, torn, tmp_path, monkeypatch, capsys):
        """As on a full disk, half of the file's text is out when its write raises: the run files
        written before it stay, whole, and neither the torn file nor a temporary one is left."""
        write_text, save = Path.write_text, MetricsStore.save

        def tear(path):
            if torn in path.name:
                os.truncate(path, path.stat().st_size // 2)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def torn_write_text(path, *args, **kwargs):  # RunTrace.save writes through it too
            written = write_text(path, *args, **kwargs)
            tear(path)
            return written

        def torn_save(store, path):
            save(store, path)
            tear(Path(path))

        monkeypatch.setattr(Path, "write_text", torn_write_text)
        monkeypatch.setattr(MetricsStore, "save", torn_save)
        out = tmp_path / "out"
        assert main(["run", str(VALID), "--templates", str(TEMPLATES), "--out", str(out)]) == 2
        assert sorted(p.name for p in out.iterdir()) == sorted(RUN_FILES[:RUN_FILES.index(torn)])
        assert capsys.readouterr().err.endswith(f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")

    def test_invalid_scenario_exit_2(self, tmp_path):
        path = tmp_path / "cyclic.yaml"
        path.write_text(CYCLIC)
        assert main(["run", str(path), "--templates", str(TEMPLATES), "--out", str(tmp_path / "out")]) == 2

    def test_process_executor_flag(self, tmp_path):
        path = tmp_path / "proc.yaml"
        path.write_text(
            "spec:\n- action: Service\n  name: quickie\n"
            "  service: { command: sleep 0.2 }\n"
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--executor", "process", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["executor"] == "process"

    @pytest.mark.parametrize("executor,service", [
        ("sim", {"script": [{"at": "0s", "do": "running"}, {"at": "1s", "do": "metric", "name": "cpü", "value": 1.5},
                            {"at": "2s", "do": "success"}]}),
        ("process", {"metrics": "stdout-lines", "command": (
            f"{sys.executable} -c \"import sys, time; "
            f"sys.stdout.buffer.write(('metric cp\\u00fc 1.5 %r\\n' % (time.time() * 1000)).encode())\"")}),
    ])
    def test_a_non_ascii_metric_name_is_written_and_read_back(self, executor, service, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(json.dumps({"spec": [{"action": "Service", "name": "s", "service": service}]}),
                        encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        out = tmp_path / "out"
        assert main(["run", str(path), "--executor", executor, "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == {"trace.ndjson", "metrics.txt", "report.json"}
        records, store = load_run(out)
        assert [value for _, value in store.series("cpü")] == [1.5]
        assert build_report(records) == json.loads((out / "report.json").read_text())
        capsys.readouterr()
        assert main(["report", str(out), "--format", "plotdata"]) == 0
        assert list(json.loads(capsys.readouterr().out)["series"]) == ["cpü"]

    def test_same_doc_and_seed_identical_trace_files(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main([
                "run", str(VALID), "--templates", str(TEMPLATES),
                "--out", str(out), "--seed", "0",
            ]) == 0
        assert (out_a / "trace.ndjson").read_bytes() == (out_b / "trace.ndjson").read_bytes()


TEMPLATE_FILE = """
name: node
body: |
  script:
  - { at: 0s, do: running }
  - { at: 5s, do: success }
---
name: task
body: |
  script:
  - { at: 0s, do: running }
  - { at: 1s, do: success }
"""

EXIT_BY_CLASS = {"success": 0, "failed": 1, "invalid": 2, "aborted": 3}


def _generate_doc(rng: random.Random, klass: str) -> ScenarioDoc:
    actions = []
    for i in range(rng.randint(1, 4)):
        if rng.random() < 0.4:
            action = ActionSpec(name=f"a{i}", kind="Cluster", template_ref="node",
                                instances=rng.randint(1, 3))
        else:
            action = ActionSpec(name=f"a{i}", kind="Call", template_ref="task", services=[])
        if actions and rng.random() < 0.6:
            action.depends = DependsClause(success=[rng.choice(actions).name])
        actions.append(action)
    if klass == "failed":
        actions.append(ActionSpec(name="doomed", kind="Service", inline={
            "script": [{"at": "0s", "do": "running"}, {"at": "2s", "do": "crash"}],
        }))
    elif klass == "invalid":
        actions[0].depends = DependsClause(success=["ghost"])
    elif klass == "aborted":
        actions.append(ActionSpec(name="stuck", kind="Service", timeout=2.0, inline={
            "script": [{"at": "0s", "do": "running"}, {"at": "60s", "do": "success"}],
        }))
    return ScenarioDoc(name="generated", actions=actions)


class TestExitCodeContract:
    """The 0/1/2/3 contract holds across generated scenarios of each class."""

    @pytest.mark.parametrize("seed", range(16))
    def test_exit_codes(self, seed, tmp_path):
        klass = ("success", "failed", "invalid", "aborted")[seed % 4]
        doc = _generate_doc(random.Random(seed), klass)
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(render_scenario(doc))
        template_dir = tmp_path / "templates"
        template_dir.mkdir()
        (template_dir / "lib.yaml").write_text(TEMPLATE_FILE)
        code = main([
            "run", str(scenario), "--templates", str(template_dir),
            "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_BY_CLASS[klass]


class TestReport:
    @pytest.fixture
    def run_dir(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(VALID), "--templates", str(TEMPLATES), "--out", str(out)]) == 0
        return out

    def test_text_timeline(self, run_dir, capsys):
        assert main(["report", str(run_dir)]) == 0
        text = capsys.readouterr().out
        assert "outcome: Success" in text
        assert "partition0" in text

    def test_json_round_trips(self, run_dir, capsys):
        assert main(["report", str(run_dir), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"] == "Success"
        assert len(report["actions"]) == 6

    def test_json_matches_run_artifact(self, run_dir, capsys):
        assert main(["report", str(run_dir), "--format", "json"]) == 0
        regenerated = capsys.readouterr().out
        assert regenerated == (run_dir / "report.json").read_text()

    def test_plotdata_has_series_and_region_markers(self, run_dir, capsys):
        assert main(["report", str(run_dir), "--format", "plotdata"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "cpu" in data["series"] and "ops" in data["series"]
        partition = next(m for m in data["annotations"] if m["label"] == "partition0")
        assert partition["kind"] == "Region"
        assert partition["end"] - partition["start"] == 600.0

    def test_plotdata_text_is_the_stdlib_encoding(self, run_dir, capsys):
        assert main(["report", str(run_dir), "--format", "plotdata"]) == 0
        records, store = load_run(run_dir)
        expected = json.dumps(plot_data(build_report(records), store), sort_keys=True, indent=2) + "\n"
        assert capsys.readouterr().out == expected

    def test_empty_run_dir_exit_2(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 2

    def test_corrupt_trace_exit_2(self, tmp_path):
        (tmp_path / "trace.ndjson").write_text("not json\n")
        assert main(["report", str(tmp_path)]) == 2

    @pytest.mark.parametrize("line", [
        "[1,2]", '"text"', "7", '{"seq":0,"kind":"run"}', '{"seq":0,"at":"0","kind":"run"}',
        '{"seq":true,"at":0,"kind":"run"}', '{"seq":0,"at":false,"kind":"run"}', '{"seq":0,"at":1e400,"kind":"run"}',
        '{"seq":0,"at":-Infinity,"kind":"run"}', '{"seq":0,"at":NaN,"kind":"run"}',
    ])
    def test_trace_line_that_is_not_a_record_exit_2(self, run_dir, line, capsys):
        trace = run_dir / "trace.ndjson"
        lines = trace.read_text().splitlines()
        trace.write_text("\n".join(lines[:3] + [line] + lines[3:]) + "\n")
        assert main(["report", str(run_dir)]) == 2
        assert capsys.readouterr().err.startswith("error: unreadable trace: line 4 is not a record")

    def test_a_trace_of_a_bool_seq_and_non_finite_at_exit_2(self, tmp_path, capsys):
        (tmp_path / "trace.ndjson").write_text(
            '{"seq":true,"at":false,"kind":"run"}\n{"seq":1,"at":1e400,"kind":"outcome","outcome":"Success"}\n')
        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: unreadable trace: line 1 is not a record")

    def test_record_missing_a_field_exit_2(self, run_dir, capsys):
        trace = run_dir / "trace.ndjson"
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        transition = next(r for r in records if r["kind"] == "transition")
        del transition["subject"]
        trace.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["report", str(run_dir)]) == 2
        assert capsys.readouterr().err == "error: malformed trace record: KeyError: 'subject'\n"

    @pytest.mark.parametrize("field, value, kind", [("values", [1], "dict"), ("phases", "Running", "dict"), ("name", 7, "str")])
    def test_field_of_the_wrong_type_exit_2(self, run_dir, field, value, kind, capsys):
        record = {"seq": 999, "at": 1, "kind": "checkpoint", "name": "x", "values": {}, "phases": {}}
        record[field] = value
        with (run_dir / "trace.ndjson").open("a") as trace:
            trace.write(json.dumps(record) + "\n")
        assert main(["report", str(run_dir)]) == 2
        assert capsys.readouterr().err == f"error: malformed trace record 999: {field} is not a {kind}\n"

    def test_assertion_texts_not_a_list_exit_2(self, run_dir, capsys):
        trace = run_dir / "trace.ndjson"
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        records[0]["assertions"] = {"run-workload": "MAX() > 1"}
        trace.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["report", str(run_dir)]) == 2
        assert capsys.readouterr().err == "error: malformed trace record 0: assertions of run-workload is not a list\n"

    def test_old_trace_with_annotation_records_gives_the_same_report(self, tmp_path, capsys):
        (tmp_path / "trace.ndjson").write_text(TIMED_OUT_CALL_OLD_TRACE)
        assert main(["report", str(tmp_path), "--format", "json"]) == 0
        templates = {"t": script_template("t", ["{ at: 0s, do: running }", "{ at: 60s, do: success }"])}
        result = run_scenario(parse_scenario(TIMED_OUT_CALL), templates)
        assert capsys.readouterr().out == report_json_text(build_report(result.trace.records))

    def test_text_view_of_checkpoints_and_assertions(self, tmp_path, capsys):
        path = tmp_path / "watched.yaml"
        path.write_text(WATCHED)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        fired = "MAX() QUERY(cpu, 10s, now) IS ABOVE(CHECKPOINT(base.cpu) * 2)"
        assert capsys.readouterr().out == f"""\
scenario: watched  executor: sim  seed: 0
outcome: Failed  (emitter: assertion fired: {fired})

timeline:
       0.000  watched -> Pending
       0.000  watched -> Running
       0.000  emitter -> Pending
       0.000  emitter -> Running
       0.000  * emitter
       2.000  base -> Pending
       2.000  base -> Running
       2.000  base -> Success
       3.000  watched -> Failed

checkpoints:
  base @ 2.000: cpu=40.0

assertions:
  [quiet] emitter: MAX() QUERY(cpu, 10s, now) IS ABOVE(100)
  [FIRED] emitter: {fired}
"""

    @pytest.mark.parametrize("line", ["metric cpu load 3.0 1.0", "metric  4.0 1.0", "cpu 3.0 1.0 x"])
    def test_metrics_line_of_another_shape_exit_2(self, run_dir, line, capsys):
        with open(run_dir / "metrics.txt", "a") as fh:
            fh.write(line + "\n")
        assert main(["report", str(run_dir), "--format", "plotdata"]) == 2
        assert capsys.readouterr().err.startswith("error: unreadable metrics: line ")

    def test_unreadable_metrics_exit_2(self, run_dir, capsys):
        (run_dir / "metrics.txt").write_text("metric cpu high 1000\n")
        assert main(["report", str(run_dir)]) == 2
        assert capsys.readouterr().err.startswith("error: unreadable metrics: ")
