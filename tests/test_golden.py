"""Golden traces: simulated runs whose trace.ndjson must stay byte-identical.

Each document below is run on the sim executor and the sha256 of its saved
trace is compared with the digest recorded when the test was written. A
change that alters a trace on purpose must say so and re-record the digest;
any other mismatch means the engine's observable behaviour drifted.
"""

import hashlib
import random

import pytest
import yaml

from whatif.dsl import Template, parse_scenario
from whatif.engine import run_scenario

from conftest import stage_template
from test_acceptance import CORPUS_TEMPLATES, DEFECTS, _generate_scenario


def _script(effects: list) -> str:
    return "script:\n" + "".join(f"- {{ {e} }}\n" for e in effects)


def _doc(name: str, spec: list):
    return parse_scenario(yaml.safe_dump({"name": name, "spec": spec}, sort_keys=False))


def chain_doc(n: int):
    """N Calls chained by `success`, with `after:` on every tenth."""
    rng = random.Random(n)
    durations = [rng.randint(1, 5) for _ in range(n)]
    end = sum(durations) + 5 * (n // 10) + 30
    spec = [{"action": "Service", "name": "svc",
             "service": {"script": [{"at": "100ms", "do": "running"}, {"at": f"{end}s", "do": "success"}]}}]
    for i, dur in enumerate(durations):
        depends = {"success": [f"c{i - 1}"]} if i else {"running": ["svc"]}
        if i and i % 10 == 0:
            depends["after"] = "5s"
        spec.append({"action": "Call", "name": f"c{i}", "depends": depends,
                     "call": {"callable": "stage", "services": ["svc"], "inputs": [{"dur": f"{dur}s"}]}})
    return _doc(f"chain-{n}", spec), {"stage": stage_template()}


def cluster_doc(n: int, tolerated: int = 3):
    """One templated cluster with per-instance inputs, a tolerated kill and a failed-count assertion."""
    rng = random.Random(n)
    victims = sorted(rng.sample(range(n), tolerated))
    spec = [
        {"action": "Cluster", "name": "db",
         "cluster": {"templateRef": "node", "instances": n, "toleratedFailures": tolerated,
                     "inputs": [{"up": f"{rng.randint(50, 900)}ms"} for _ in range(n)]},
         "assertions": [f".state.failed() > {tolerated}"]},
        {"action": "Call", "name": "work", "depends": {"running": ["db"]},
         "call": {"callable": "work", "services": [".cluster.db.all"]}},
        {"action": "Chaos", "name": "kill-some", "depends": {"running": ["db"], "after": "20s"},
         "chaos": {"fault": {"kind": "kill", "targets": [f"db-{v}" for v in victims]}}},
    ]
    templates = {
        "node": Template("node", {"up": None}, _script(["at: '{{up}}', do: running", "at: 90s, do: success"])),
        "work": Template("work", {"services": None},
                         "env: { TARGETS: '{{services}}' }\n"
                         + _script(["at: 0s, do: running", "at: 45s, do: success"])),
    }
    return _doc(f"cluster-{n}", spec), templates


def metrics_doc(points: int):
    """One job emitting P points 1 s apart, read by a windowed MAX assertion that fires late."""
    rng = random.Random(points)
    effects = ["at: 0s, do: running"]
    for i in range(1, points + 1):
        value = 500.0 if i == points - 5 else round(rng.uniform(10.0, 90.0), 2)
        effects.append(f"at: {i}s, do: metric, name: g, value: {value}")
    effects.append(f"at: {points + 10}s, do: success")
    spec = [
        {"action": "Service", "name": "emit", "service": {"templateRef": "emit"}},
        {"action": "Call", "name": "watch", "depends": {"running": ["emit"]},
         "call": {"callable": "watch", "services": ["emit"]},
         "assertions": ["MAX() QUERY(g, 1h, now) IS ABOVE(400)"]},
    ]
    templates = {
        "emit": Template("emit", {}, _script(effects)),
        "watch": Template("watch", {}, _script(["at: 0s, do: running", f"at: {points + 20}s, do: success"])),
    }
    return _doc(f"metrics-{points}", spec), templates


AFTER_RACE = """
name: after-race
spec:
- {action: Service, name: a, service: {script: [{at: 0s, do: running}, {at: 1s, do: success}]}}
- {action: Service, name: c, timeout: 3s, service: {script: [{at: 0s, do: running}, {at: 2s, do: success}]}}
- {action: Service, name: b, depends: {success: [a], after: 2s}, service: {script: [{at: 0s, do: running}, {at: 1s, do: success}]}}
"""


def corpus_docs():
    """The valid (`none`) documents of the criterion-7 validation corpus, in generation order."""
    rng = random.Random(7)
    docs = []
    for index in range(200):
        defect = DEFECTS[index % len(DEFECTS)]
        doc = _generate_scenario(rng, defect)
        if defect == "none":
            docs.append(doc)
    return docs


def trace_digest(doc, templates, tmp_path) -> str:
    path = tmp_path / "trace.ndjson"
    run_scenario(doc, templates).trace.save(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of trace.ndjson for each generated document.
GOLDEN = {
    "after-race": "ef13febd7a77aeb18e364dc738e1ef204e5d16257bca9ecd3668fb1eded3b99b",
    "chain-120": "f54e8e0417c6868084fcbabc9bfb32fe2464fb9ab3ab92a241900769946dbe38",
    "cluster-200": "c92a79aed5da6608030e0668589c24d43294f4af748b80b8c633e07ff1055a6a",
    "metrics-300": "cb7b7fcb5e64adc62d61b2cc2b72a79ced0d29825f5e54d15bb6d517e2eeb1db",
}
DEMO_GOLDEN = "46cc3bb79aa9ec259fea54ba2ebaa72e9ad46812bbc9e875fddbbc288400b471"
# sha256 over the concatenated per-document digests of the 25 corpus documents.
CORPUS_GOLDEN = "7c037029eb5d12975a8d3a0fda522bc49a93d020b732bb98a97c3b28092eb5f4"


def _build(name: str):
    family, _, size = name.partition("-")
    if family == "after":
        return parse_scenario(AFTER_RACE), {}
    return {"chain": chain_doc, "cluster": cluster_doc, "metrics": metrics_doc}[family](int(size))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace(name, tmp_path):
    doc, templates = _build(name)
    assert trace_digest(doc, templates, tmp_path) == GOLDEN[name]


def test_golden_demo(partition_demo, tmp_path):
    doc, templates = partition_demo
    assert trace_digest(doc, templates, tmp_path) == DEMO_GOLDEN


def test_golden_validation_corpus(tmp_path):
    digests = [trace_digest(doc, CORPUS_TEMPLATES, tmp_path) for doc in corpus_docs()]
    assert len(digests) == 25
    assert hashlib.sha256("".join(digests).encode("ascii")).hexdigest() == CORPUS_GOLDEN

