"""Golden traces from fresh interpreters under two string hash seeds.

Enum members hash by identity, which differs from process to process, and
strings by a per-process seed. A run that iterated a set or a dict in hash
order would write a trace that depends on the interpreter. So each ``GOLDEN``
document of ``test_golden`` runs in a fresh interpreter under
``PYTHONHASHSEED=0`` and ``=1``, and each trace digest must be the pinned one.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import REPO
from test_golden import GOLDEN

PROBE = f"""
import json, sys, tempfile
from pathlib import Path
sys.path[:0] = [{str(REPO / "src")!r}, {str(REPO / "tests")!r}]
from test_golden import GOLDEN, _build, trace_digest
with tempfile.TemporaryDirectory() as tmp:
    print(json.dumps({{name: trace_digest(*_build(name), Path(tmp)) for name in sorted(GOLDEN)}}))
"""


@pytest.mark.parametrize("seed", ["0", "1"])
def test_golden_traces_do_not_depend_on_the_interpreter(seed):
    env = {**os.environ, "PYTHONHASHSEED": seed}
    result = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == GOLDEN
