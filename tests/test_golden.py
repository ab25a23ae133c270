"""Golden traces: simulated runs whose trace.ndjson must stay byte-identical.

Each document below is run on the sim executor and the sha256 of its saved
trace is compared with the digest recorded when the test was written. A
change that alters a trace on purpose must say so and re-record the digest;
any other mismatch means the engine's observable behaviour drifted.

The same runs also pin the sha256 of their report.json text: the report is
what an operator reads, so it stays byte-identical even across a deliberate
change of the trace format.
"""

import hashlib
import random

import pytest
import yaml

from whatif.dsl import Template, parse_scenario
from whatif.engine import run_scenario
from whatif.report import METRICS_FILE, TRACE_FILE, build_report, load_run, report_json_text

from conftest import stage_template
from test_acceptance import CORPUS_TEMPLATES, DEFECTS, PANIC_DOC, PANIC_TEMPLATES, _generate_scenario


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
    "after-race": "d7a13426c6a8f883ac85b8e7caaaa7dea5a905fefa0f8b2ef256d8e8c72ad29e",
    "chain-120": "e9d0b88584ada4c66c5b172bfaf272cf9caaac4a27529e0a515ed19ad33d3c5f",
    "cluster-200": "9cab1a6f7b338b6e87b1c431d345746e622137274269080ade1acdd2d40b13e2",
    "metrics-300": "945088e735abc19a3c7287dd2ed3a8d038f35cb51edf63bd17ae4560df02531a",
}
DEMO_GOLDEN = "70b6447f1cb4033c3cf8a2fad5d00ef7aa12f46b62550e40910a269eb47c4705"
# sha256 over the concatenated per-document digests of the 25 corpus documents.
CORPUS_GOLDEN = "21a8493262d34368e27db825141e29ae59c1ce79c27d60f29d6e0c6f90819d64"


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


def report_digest(doc, templates) -> str:
    report = build_report(run_scenario(doc, templates).trace.records)
    return hashlib.sha256(report_json_text(report).encode("ascii")).hexdigest()


# sha256 of report.json for the golden documents, the demo and the panic run.
REPORT_GOLDEN = {
    "after-race": "18372683a1dbfad3e0931496e112c7158b0ad6ed38460394aa0c770cb3ac6948",
    "chain-120": "e1c9761557389b14b5a3c8e4fe6d5c5bb6a88dd1a569c9404463280473505490",
    "cluster-200": "bc7d13460a026d4ec41f0c27e117c179e5c7793101af69e802c1c265686c542e",
    "metrics-300": "069ed5ccc5bc5e698648fea45a8d05a4ee5347e51425d12f53a6bc8928a389e5",
}
DEMO_REPORT_GOLDEN = "b67fcc757b5166d6db8b7f1eac8666eccf9abfbad4ad54d386bcbe4b91fc3a32"
PANIC_REPORT_GOLDEN = "d1033cc224257a283d7936e3e132a5da0a3acf1ae82135836ddec7668c161699"
# sha256 over the concatenated per-document report digests of the 25 corpus documents.
CORPUS_REPORT_GOLDEN = "1dd458fe4d18185e72622dd98f933f52591536fbddc566913d68b0e4f5b15793"


@pytest.mark.parametrize("name", sorted(REPORT_GOLDEN))
def test_golden_report(name):
    assert report_digest(*_build(name)) == REPORT_GOLDEN[name]


def test_golden_demo_report(partition_demo):
    assert report_digest(*partition_demo) == DEMO_REPORT_GOLDEN


def test_golden_panic_report():
    assert report_digest(parse_scenario(PANIC_DOC), PANIC_TEMPLATES) == PANIC_REPORT_GOLDEN


def test_golden_corpus_reports():
    digests = [report_digest(doc, CORPUS_TEMPLATES) for doc in corpus_docs()]
    assert hashlib.sha256("".join(digests).encode("ascii")).hexdigest() == CORPUS_REPORT_GOLDEN


def test_report_from_memory_equals_report_from_run_files(partition_demo, tmp_path):
    """`whatif run` builds report.json from the trace records it holds; reading
    the run files back must give the same report, on every golden document."""
    cases = [partition_demo, *(_build(name) for name in sorted(GOLDEN))]
    cases += [(doc, CORPUS_TEMPLATES) for doc in corpus_docs()]
    for doc, templates in cases:
        result = run_scenario(doc, templates)
        result.trace.save(tmp_path / TRACE_FILE)
        result.store.save(tmp_path / METRICS_FILE)
        in_memory = build_report(result.trace.records)
        from_files = build_report(load_run(tmp_path)[0])
        assert in_memory == from_files, doc.name
        assert report_json_text(in_memory) == report_json_text(from_files), doc.name
