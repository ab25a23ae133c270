"""What `import whatif`, `import whatif.cli` and each command load, checked in fresh interpreters.

A simulated run needs neither the process executor (with ``signal``) nor
``logging``, and the package's data classes are plain
classes, so importing it must not load these modules; nor must the CLI,
which sets up no ``logging``. `import whatif` loads nothing else:
each public name loads its module on first access, so validating a document
loads no engine, and `whatif report` loads no PyYAML, DSL or engine. The
checks count modules; they time nothing. The document schema lives in
``whatif.dsl``, and no executor module imports it.
"""

import ast
import json
import subprocess
import sys

import pytest

import whatif
from conftest import REPO, SCENARIOS

NOT_LOADED = ("dataclasses", "inspect", "logging", "subprocess", "signal")

PROBE = f"""
import json, sys
sys.path.insert(0, {str(REPO / "src")!r})
before = set(sys.modules)
import whatif
added = sorted(set(sys.modules) - before)

before = set(sys.modules)
from_package = whatif.ProcessExecutor
from whatif.executors import ProcessExecutor, make_executor
made = make_executor("process")
executor_added = sorted(set(sys.modules) - before)
from whatif.executors import process
print(json.dumps({{
    "added": added,
    "executor_added": executor_added,
    "package_attr": from_package is process.ProcessExecutor,
    "executors_attr": ProcessExecutor is process.ProcessExecutor,
    "made": type(made) is process.ProcessExecutor,
    "in_all": "ProcessExecutor" in whatif.__all__ and "ProcessExecutor" in whatif.executors.__all__,
}}))
"""


CLI_PROBE = f"""
import json, sys
sys.path.insert(0, {str(REPO / "src")!r})
before = set(sys.modules)
import whatif.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


@pytest.fixture(scope="module")
def result() -> dict:
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout)


def test_import_loads_no_process_executor_logging_or_dataclasses(result):
    assert "whatif.engine" not in result["added"]
    assert [name for name in NOT_LOADED if name in result["added"]] == []
    assert "whatif.executors.process" not in result["added"]


def test_cli_import_loads_none_of_them():
    done = subprocess.run([sys.executable, "-c", CLI_PROBE], capture_output=True, text=True, timeout=60, check=True)
    added = json.loads(done.stdout)
    assert "whatif.cli" in added
    assert [name for name in NOT_LOADED if name in added] == []
    assert "whatif.executors.process" not in added


def test_process_executor_still_resolves(result):
    assert result["package_attr"] and result["executors_attr"]
    assert result["made"]
    assert result["in_all"]


def test_the_process_executor_loads_no_subprocess(result):
    """It spawns its jobs with ``os.posix_spawn``; ``subprocess`` is not part of it."""
    assert "whatif.executors.process" in result["executor_added"]
    assert "subprocess" not in result["executor_added"]


def test_unknown_attribute_still_raises():
    import whatif
    import whatif.executors

    for module in (whatif, whatif.executors):
        with pytest.raises(AttributeError, match="NoSuchName"):
            module.NoSuchName


def test_no_executor_module_imports_the_document_parser():
    found = []
    for path in sorted((REPO / "src" / "whatif" / "executors").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):  # function-level imports too
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            if any("dsl" in name.split(".") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_import_loads_only_the_package(result):
    assert result["added"] == ["whatif"]


VALIDATE_PROBE = f"""
import sys
sys.path.insert(0, {str(REPO / "src")!r})
before = set(sys.modules)
import whatif
doc = whatif.parse_scenario(open({str(SCENARIOS / "partition-demo.yaml")!r}).read())
templates = whatif.load_templates({str(SCENARIOS / "templates")!r})
ok = whatif.validate(doc, templates).ok
added = sorted(set(sys.modules) - before)
import json
print(json.dumps({{"ok": ok, "added": added}}))
"""

NOT_LOADED_BY_VALIDATE = (
    "whatif.engine", "whatif.trace", "whatif.telemetry", "whatif.report", "whatif.executors.sim", "json",
)


def test_validating_loads_no_engine_trace_telemetry_report_or_simulator():
    done = subprocess.run([sys.executable, "-c", VALIDATE_PROBE], capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(done.stdout)
    assert result["ok"]
    assert "whatif.dsl" in result["added"]
    assert [name for name in NOT_LOADED_BY_VALIDATE if name in result["added"]] == []


# Runs `python -m whatif.cli <args>` and writes the modules it loaded to the file named first.
CLI_RUN_PROBE = f"""
import json, runpy, sys
sys.path.insert(0, {str(REPO / "src")!r})
listing, sys.argv = sys.argv[1], ["whatif"] + sys.argv[2:]
before = set(sys.modules)
try:
    runpy.run_module("whatif.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
with open(listing, "w") as fh:
    json.dump({{"code": code, "added": sorted(set(sys.modules) - before)}}, fh)
"""

NOT_LOADED_BY_REPORT = ("yaml", "whatif.dsl", "whatif.expressions", "whatif.engine", "whatif.executors")


def test_report_command_loads_no_yaml_dsl_expressions_engine_or_executors(tmp_path):
    from whatif.cli import main

    out = tmp_path / "demo"
    scenario, templates = SCENARIOS / "partition-demo.yaml", SCENARIOS / "templates"
    assert main(["run", str(scenario), "--templates", str(templates), "--out", str(out)]) == 0
    listing = tmp_path / "modules.json"
    done = subprocess.run(
        [sys.executable, "-c", CLI_RUN_PROBE, str(listing), "report", str(out)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    result = json.loads(listing.read_text())
    assert result["code"] == 0
    assert done.stdout.startswith("scenario:")
    assert "whatif.report" in result["added"]
    assert [name for name in NOT_LOADED_BY_REPORT if name in result["added"]] == []


NAMES_PROBE = f"""
import json, sys
sys.path.insert(0, {str(REPO / "src")!r})
import whatif
names = {{}}
for name in whatif.__all__:
    bound_at_import = name in vars(whatif)
    value = getattr(whatif, name)
    names[name] = [bound_at_import, value.__module__, value is getattr(sys.modules[value.__module__], name)]
star = {{}}
exec("from whatif import *", star)
from whatif import dsl
print(json.dumps({{
    "names": names,
    "star": sorted(name for name in whatif.__all__ if star.get(name) is getattr(whatif, name)),
    "submodule": dsl is sys.modules["whatif.dsl"],
}}))
"""


def test_each_public_name_loads_its_module_on_first_access():
    done = subprocess.run([sys.executable, "-c", NAMES_PROBE], capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(done.stdout)
    assert sorted(result["names"]) == sorted(whatif.__all__)
    for name, (bound_at_import, module, same) in result["names"].items():
        assert not bound_at_import, name
        assert module.startswith("whatif.") and same, name
    assert result["star"] == sorted(whatif.__all__)
    assert result["submodule"]
