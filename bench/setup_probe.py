"""Set-up probe, run in a fresh interpreter by the benchmark.

    python3 bench/setup_probe.py SCENARIO TEMPLATE_DIR

Times what `whatif run` pays before the engine starts: `import whatif`, then
reading and parsing the scenario, loading the templates and validating.
Prints one JSON object with `import_s`, `setup_s` and the `scale` to
reference speed: the slower of the speeds measured in this interpreter just
before and just after the timing.
"""

import os
import sys
import time

from reference import speed_scale  # this script's directory is on sys.path

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

before = speed_scale()
start = time.perf_counter()
import whatif  # noqa: E402

imported = time.perf_counter()
doc = whatif.parse_scenario(open(sys.argv[1]).read())
templates = whatif.load_templates(sys.argv[2])
report = whatif.validate(doc, templates)
done = time.perf_counter()
scale = min(before, speed_scale())
if not report.ok:
    sys.exit(f"scenario does not validate: {report}")
print(f'{{"import_s": {imported - start!r}, "setup_s": {done - start!r}, "scale": {scale!r}}}')
