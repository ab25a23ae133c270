"""Seeded workload generators.

Each generator writes a scenario file and a template directory, the same
inputs `whatif run` reads, and returns what the run must conclude. The seed
varies durations, values and fault targets but never the amount of work, so
host time per run stays comparable across seeds.
"""

from __future__ import annotations

import random
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

EMITTER = Path(__file__).resolve().parent / "emitter.py"

# Sizes: one simulated repetition takes 0.06-0.25 s on 2 vCPUs, so a 30 s
# run gathers the hundred samples its p90 needs. The traced run confirms
# that each workload still stresses its layer at these sizes.
CHAIN_CALLS = 40
FANOUT_INSTANCES = 60
FANOUT_TOLERATED = 3
METRICS_POINTS = 80
METRICS_PERIOD_S = 25
PROCESS_INSTANCES = 2


@dataclass
class Workload:
    name: str
    executor: str  # "sim" | "process"
    scenario: Path
    templates: Path
    verdict: str
    reason: str


def _write(out: Path, name: str, spec: list, templates: list) -> tuple[Path, Path]:
    scenario = out / "scenario.yaml"
    scenario.write_text(yaml.safe_dump({"name": name, "spec": spec}, sort_keys=False))
    template_dir = out / "templates"
    template_dir.mkdir()
    (template_dir / "bench.yaml").write_text(yaml.safe_dump_all(templates, sort_keys=False))
    return scenario, template_dir


def _script(effects: list[str]) -> str:
    return "script:\n" + "".join(f"  - {{ {e} }}\n" for e in effects)


def chain(seed: int, out: Path) -> Workload:
    """Calls chained by `success` over a 3-instance cluster, `after:` on every tenth."""
    rng = random.Random(seed)
    durations = [rng.randint(2, 6) for _ in range(CHAIN_CALLS)]
    end = sum(durations) + 5 * (CHAIN_CALLS // 10) + 30
    victim = rng.randrange(3)
    spec = [
        {"action": "Cluster", "name": "db",
         "cluster": {"templateRef": "bench.db", "instances": 3, "toleratedFailures": 1,
                     "inputs": [{"end": f"{end}s"}]}},
        {"action": "Chaos", "name": "kill-db", "depends": {"success": ["c0"]},
         "chaos": {"fault": {"kind": "kill", "targets": [f"db-{victim}"]}}},
    ]
    for i, dur in enumerate(durations):
        depends = {"running": ["db"]} if i == 0 else {"success": [f"c{i - 1}"]}
        if i and i % 10 == 0:
            depends["after"] = "5s"
        spec.append({"action": "Call", "name": f"c{i}", "depends": depends,
                     "call": {"callable": "bench.stage", "services": [".cluster.db.all"],
                              "inputs": [{"dur": f"{dur}s"}]}})
    templates = [
        {"name": "bench.db", "parameters": {"end": None},
         "body": _script(["at: 100ms, do: running", "at: {{end}}, do: success"])},
        {"name": "bench.stage", "parameters": {"services": None, "dur": None},
         "body": "env: { TARGETS: '{{services}}' }\n"
                 + _script(["at: 0s, do: running", "at: {{dur}}, do: success"])},
    ]
    scenario, template_dir = _write(out, "bench-chain", spec, templates)
    return Workload("chain", "sim", scenario, template_dir, "Success", "all actions completed")


def fanout(seed: int, out: Path) -> Workload:
    """One wide cluster with tolerated kills and a state assertion over all instances."""
    rng = random.Random(seed)
    k = FANOUT_TOLERATED
    inputs = [{"up": f"{rng.randint(50, 900)}ms"} for _ in range(FANOUT_INSTANCES)]
    victims = sorted(rng.sample(range(FANOUT_INSTANCES), k))
    spec = [
        {"action": "Cluster", "name": "db",
         "cluster": {"templateRef": "bench.node", "instances": FANOUT_INSTANCES,
                     "toleratedFailures": k, "inputs": inputs},
         "assertions": [f".state.failed() > {k}"]},
        {"action": "Call", "name": "work", "depends": {"running": ["db"]},
         "call": {"callable": "bench.work", "services": [".cluster.db.all"],
                  "inputs": [{"dur": f"{rng.randint(40, 60)}s"}]}},
        {"action": "Chaos", "name": "kill-some", "depends": {"running": ["db"], "after": "20s"},
         "chaos": {"fault": {"kind": "kill", "targets": [f"db-{v}" for v in victims]}}},
    ]
    templates = [
        {"name": "bench.node", "parameters": {"up": None},
         "body": _script(["at: '{{up}}', do: running", "at: 90s, do: success"])},
        {"name": "bench.work", "parameters": {"services": None, "dur": None},
         "body": "env: { TARGETS: '{{services}}' }\n"
                 + _script(["at: 0s, do: running", "at: {{dur}}, do: success"])},
    ]
    scenario, template_dir = _write(out, "bench-fanout", spec, templates)
    return Workload("fanout", "sim", scenario, template_dir, "Success", "all actions completed")


MAX_RULE = "MAX() QUERY(cpu, 1h, now) IS ABOVE(CHECKPOINT(baseline.cpu) * 1.5)"


def metrics(seed: int, out: Path) -> Workload:
    """A shared `cpu` series read by three windowed assertions; a late spike fails the run."""
    rng = random.Random(seed)
    effects = ["at: 0s, do: running"]
    for i in range(1, METRICS_POINTS + 1):
        value = 200.0 if i == METRICS_POINTS - 2 else round(rng.uniform(40.0, 60.0), 2)
        effects.append(f"at: {i * METRICS_PERIOD_S}s, do: metric, name: cpu, value: {value}")
    end = (METRICS_POINTS + 6) * METRICS_PERIOD_S
    effects.append(f"at: {end}s, do: success")
    spec = [
        {"action": "Cluster", "name": "node",
         "cluster": {"templateRef": "bench.cpu", "instances": 2}},
        {"action": "Checkpoint", "name": "baseline", "depends": {"running": ["node"], "after": "1m"},
         "checkpoint": {"values": {"cpu": "MAX() QUERY(cpu, 1h, now)"}}},
        {"action": "Chaos", "name": "pause", "depends": {"success": ["baseline"]},
         "chaos": {"fault": {"kind": "suspend", "targets": ["node-1"], "duration": "1m"}}},
        {"action": "Call", "name": "soak", "depends": {"success": ["baseline"]},
         "call": {"callable": "bench.soak", "services": [".cluster.node.all"]},
         "assertions": [
             MAX_RULE,
             "AVG() QUERY(cpu, 10m, now) IS OUTSIDE(10, 500)",
             "COUNT() QUERY(cpu, 1h, now) IS ABOVE(100000)",
         ]},
    ]
    templates = [
        {"name": "bench.cpu", "body": _script(effects)},
        {"name": "bench.soak", "parameters": {"services": None},
         "body": "env: { TARGETS: '{{services}}' }\n"
                 + _script(["at: 0s, do: running", f"at: {end + 60}s, do: success"])},
    ]
    scenario, template_dir = _write(out, "bench-metrics", spec, templates)
    return Workload("metrics", "sim", scenario, template_dir, "Failed",
                    f"soak: assertion fired: {MAX_RULE}")


def process(seed: int, out: Path) -> Workload:
    """Real emitter processes; a timed kill pushes the cluster past tolerance."""
    rng = random.Random(seed)
    victim = rng.randrange(PROCESS_INSTANCES)
    command = shlex.join([sys.executable, str(EMITTER), "--seed", str(seed)])
    spec = [
        {"action": "Cluster", "name": "emit",
         "cluster": {"templateRef": "bench.emitter", "instances": PROCESS_INSTANCES}},
        {"action": "Chaos", "name": "kill-one", "depends": {"running": ["emit"], "after": "100ms"},
         "chaos": {"fault": {"kind": "kill", "targets": [f"emit-{victim}"]}}},
    ]
    templates = [
        {"name": "bench.emitter",
         "body": yaml.safe_dump({"command": command, "metrics": "stdout-lines", "declares": ["cpu"]})},
    ]
    scenario, template_dir = _write(out, "bench-process", spec, templates)
    return Workload("process", "process", scenario, template_dir, "Failed",
                    f"emit-{victim}: expected failure beyond cluster tolerance")


GENERATORS = {"chain": chain, "fanout": fanout, "metrics": metrics, "process": process}
