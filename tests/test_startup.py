"""What `import whatif` and `import whatif.cli` load, checked in fresh interpreters.

A simulated run needs neither the process executor (with ``subprocess`` and
``signal``) nor ``logging``, and the package's data classes are plain
classes, so importing it must not load these modules; nor must the CLI,
which loads ``logging`` only for ``-v``. The check counts modules; it times
nothing. The document schema lives in ``whatif.dsl``, and no executor module
imports it.
"""

import ast
import json
import subprocess
import sys

import pytest

from conftest import REPO

NOT_LOADED = ("dataclasses", "inspect", "logging", "subprocess", "signal")

PROBE = f"""
import json, sys
sys.path.insert(0, {str(REPO / "src")!r})
before = set(sys.modules)
import whatif
added = sorted(set(sys.modules) - before)

from_package = whatif.ProcessExecutor
from whatif.executors import ProcessExecutor, make_executor
made = make_executor("process")
from whatif.executors import process
print(json.dumps({{
    "added": added,
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
    assert "whatif.engine" in result["added"]
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
