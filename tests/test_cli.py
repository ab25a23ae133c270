"""CLI exit codes, run artifacts, and report formats."""

import json
import random

import pytest

from whatif.cli import main
from whatif.dsl import ActionSpec, DependsClause, ScenarioDoc, render_scenario
from whatif.executors import SimExecutor
from conftest import SCENARIOS

VALID = SCENARIOS / "partition-demo.yaml"
TEMPLATES = SCENARIOS / "templates"

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

CRASHY = """
spec:
- action: Service
  name: fragile
  service:
    script:
    - { at: 0s, do: running }
    - { at: 2s, do: crash }
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
    def test_valid_scenario_exit_0(self, capsys):
        assert main(["validate", str(VALID), "--templates", str(TEMPLATES)]) == 0
        assert "ok" in capsys.readouterr().out

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

    def test_timeout_exit_3(self, tmp_path):
        path = tmp_path / "slow.yaml"
        path.write_text(SLOW)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3

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
            action = ActionSpec(name=f"a{i}", kind="Call", callable="task", services=[])
        if actions and rng.random() < 0.6:
            action.depends = DependsClause(success=[rng.choice(actions).name])
        actions.append(action)
    if klass == "failed":
        actions.append(ActionSpec(name="doomed", kind="Service", inline_job={
            "script": [{"at": "0s", "do": "running"}, {"at": "2s", "do": "crash"}],
        }))
    elif klass == "invalid":
        actions[0].depends = DependsClause(success=["ghost"])
    elif klass == "aborted":
        actions.append(ActionSpec(name="stuck", kind="Service", timeout=2.0, inline_job={
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

    def test_empty_run_dir_exit_2(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 2

    def test_corrupt_trace_exit_2(self, tmp_path):
        (tmp_path / "trace.ndjson").write_text("not json\n")
        assert main(["report", str(tmp_path)]) == 2
