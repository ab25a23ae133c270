"""Compile once, then run: validation and the engine share one Plan.

`compile_scenario` resolves every name through one index, so checking a
macro or a state assertion costs the same in a document of any size, and
the engine reads each template text, fault and expression from the plan
instead of deriving it again. A kill fault counts its targets that are not
yet terminal, so a wide kill costs O(1) per target event, and an event
re-evaluates only the state assertions whose scope it changed. The scaling
checks count operations (`conftest.count_operations`), not wall time.
"""

import sys

import pytest
import yaml

from whatif import dsl
from whatif.dsl import Template, compile_scenario, instantiate_template, parse_job_body, parse_scenario, validate
from whatif.engine import Engine, Outcome, run_scenario

from conftest import count_operations

NODE = Template("node", {}, "script:\n- { at: 0s, do: running }\n- { at: 100s, do: success }\n")
STEP = Template("step", {"services": None}, "env: { TARGETS: '{{services}}' }\n"
                "script:\n- { at: 0s, do: running }\n- { at: 1s, do: success }\n")


def _doc(spec):
    return parse_scenario(yaml.safe_dump({"name": "plan", "spec": spec}, sort_keys=False))


def chain(n: int, kind: str):
    """N Calls chained by success beside a 2-instance cluster; each Call has
    one macro target (`macro`) or one state assertion (`assertion`)."""
    spec = [{"action": "Cluster", "name": "db", "cluster": {"templateRef": "node", "instances": 2}}]
    for i in range(n):
        call = {"action": "Call", "name": f"c{i}",
                "depends": {"success": [f"c{i - 1}"]} if i else {"running": ["db"]},
                "call": {"callable": "step", "services": [".cluster.db.all" if kind == "macro" else "db-0"]}}
        if kind == "assertion":
            call["assertions"] = [".state.failed() > 0"]
        spec.append(call)
    return _doc(spec), {"node": NODE, "step": STEP}


def wide_kill(n: int):
    """A cluster of N instances and one kill fault on N-1 of them, all tolerated."""
    return _doc([
        {"action": "Cluster", "name": "db",
         "cluster": {"templateRef": "node", "instances": n, "toleratedFailures": n - 1}},
        {"action": "Chaos", "name": "kill-most", "depends": {"running": ["db"]},
         "chaos": {"fault": {"kind": "kill", "targets": [f"db-{i}" for i in range(1, n)]}}},
    ]), {"node": NODE}


@pytest.mark.parametrize("kind", ["macro", "assertion"])
def test_validate_work_per_action_does_not_grow_with_the_document(kind):
    per_action = {}
    for n in (250, 1000):
        doc, templates = chain(n, kind)
        report, ops = count_operations(lambda: validate(doc, templates))
        assert report.ok, str(report)
        per_action[n] = ops / n
    assert per_action[1000] <= 1.1 * per_action[250], per_action


def test_counting_puts_back_an_outer_tracer():
    def outer(frame, event, arg):
        return None

    around = sys.gettrace()
    sys.settrace(outer)
    try:
        report, ops = count_operations(lambda: validate(*chain(2, "macro")))
        assert sys.gettrace() is outer
    finally:
        sys.settrace(around)
    assert report.ok and ops > 0


def test_wide_kill_work_per_event_does_not_grow_with_the_cluster():
    total, per_event = {}, {}
    for n in (200, 400):
        doc, templates = wide_kill(n)
        result, ops = count_operations(lambda: run_scenario(doc, templates))
        assert (result.outcome, result.reason) == (Outcome.SUCCESS, "all actions completed")
        killed = [r for r in result.trace if r.kind == "transition" and r.data.get("class") == "Expected"]
        assert len(killed) == n - 1
        events = sum(1 for r in result.trace if r.kind == "event")
        total[n], per_event[n] = ops, ops / events
    assert per_event[400] <= 1.1 * per_event[200], per_event
    assert total[400] <= 2.3 * total[200], total


def test_state_assertion_work_per_event_does_not_grow_with_the_chain():
    """An event re-evaluates only the state assertions whose scope it changed,
    not every asserting action of the document."""
    per_event = {}
    for n in (250, 1000):
        doc, templates = chain(n, "assertion")
        result, ops = count_operations(lambda: run_scenario(doc, templates, default_timeout=1e6))
        assert (result.outcome, result.reason) == (Outcome.SUCCESS, "all actions completed")
        per_event[n] = ops / sum(1 for r in result.trace if r.kind == "event")
    assert per_event[1000] <= 1.1 * per_event[250], per_event


def test_engine_compiles_each_expression_and_template_once(monkeypatch):
    """Parsing and instantiation happen in `compile_scenario` only: once per
    expression and once per inputs map, however many instances and events."""
    counts = {"parse": 0, "instantiate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dsl, "parse_expression", counted("parse", dsl.parse_expression))
    monkeypatch.setattr(dsl, "instantiate_template", counted("instantiate", dsl.instantiate_template))
    node = Template("node", {"cpu": None}, "declares: [cpu]\nscript:\n- { at: 0s, do: running }\n"
                    "- { at: 1s, do: metric, name: cpu, value: {{cpu}} }\n- { at: 100s, do: success }\n")
    doc = _doc([
        {"action": "Cluster", "name": "db", "assertions": [".state.failed() > 1"],
         "cluster": {"templateRef": "node", "instances": 6, "inputs": [{"cpu": "5"}, {"cpu": "7"}]}},
        {"action": "Checkpoint", "name": "seen", "depends": {"running": ["db"], "after": "2s"},
         "checkpoint": {"values": {"cpu": "MAX() QUERY(cpu, 1m, now)"}}},
        {"action": "Call", "name": "work", "depends": {"success": ["seen"]},
         "call": {"callable": "step", "services": [".cluster.db.all"]},
         "assertions": ["MAX() QUERY(cpu, 1m, now) IS ABOVE(CHECKPOINT(seen.cpu))"]},
    ])
    engine = Engine(doc, {"node": node, "step": STEP})
    assert counts == {"parse": 3, "instantiate": 3}
    assert engine.run().outcome is Outcome.SUCCESS
    assert counts == {"parse": 3, "instantiate": 3}


def counting_loader(monkeypatch) -> list:
    """Count every YAML stream the program parses from now on: the list it appends each one to."""
    parses = []

    class CountingLoader(dsl._YAML_LOADER):
        def __init__(self, stream):
            parses.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(dsl, "_YAML_LOADER", CountingLoader)
    return parses


@pytest.mark.parametrize("instances", [200, 1000])
def test_compile_parses_each_template_once(instances, monkeypatch):
    """The first compile parses each distinct instance text once, and a
    second compile or a run of the same templates parses nothing."""
    node = Template("node", {"up": None, "cpu": None}, "declares: [cpu]\nscript:\n- { at: '{{up}}', do: running }\n"
                    "- { at: 1s, do: metric, name: cpu, value: {{cpu}} }\n- { at: 100s, do: success }\n")
    inputs = [{"up": f"{i}ms", "cpu": str(i % 97)} for i in range(instances)]
    doc = _doc([
        {"action": "Cluster", "name": "db", "cluster": {"templateRef": "node", "instances": instances, "inputs": inputs}},
        {"action": "Call", "name": "work", "depends": {"running": ["db"]},
         "call": {"callable": "step", "services": ["db-0", "db-1"]}},
    ])
    templates = {"node": node, "step": Template(STEP.name, STEP.parameters, STEP.body)}
    parses = counting_loader(monkeypatch)
    plan = compile_scenario(doc, templates)
    assert plan.report.ok, str(plan.report)
    assert len(node._parsed) == instances
    assert len(parses) == instances + 1
    again = compile_scenario(doc, templates)
    result = run_scenario(doc, templates, seed=1)
    assert len(parses) == instances + 1
    assert again.jobs == plan.jobs
    assert result.outcome == Outcome.SUCCESS, result.reason
    monkeypatch.undo()
    for given, spec in list(zip(inputs, plan.jobs["db"]))[::97]:
        assert spec == parse_job_body(dsl.load_yaml(instantiate_template(node, given)))


def test_runs_of_one_loaded_document_parse_its_templates_once(monkeypatch):
    """Running the same loaded document again constructs no YAML after the
    first compile, and every run writes the same trace."""
    body = "declares: [cpu]\nscript:\n- { at: 0s, do: running }\n" + "".join(
        f"- {{ at: {i}s, do: metric, name: cpu, value: {i % 7}.5 }}\n" for i in range(1, 40)
    ) + "- { at: 60s, do: success }\n"
    doc = _doc([
        {"action": "Cluster", "name": "db", "cluster": {"templateRef": "node", "instances": 3}},
        {"action": "Call", "name": "work", "depends": {"running": ["db"], "after": "5s"},
         "call": {"callable": "step", "services": [".cluster.db.all"]},
         "assertions": ["MAX() QUERY(cpu, 30s, now) IS ABOVE(7)"]},
    ])
    templates = {"node": Template("node", {}, body), "step": Template(STEP.name, STEP.parameters, STEP.body)}
    parses = counting_loader(monkeypatch)
    traces = []
    for run in range(3):
        result = run_scenario(doc, templates, seed=1)
        assert (result.outcome, result.reason) == (Outcome.SUCCESS, "all actions completed")
        assert len(parses) == 2, run
        traces.append(result.trace.to_text())
    assert traces[0] == traces[1] == traces[2]


def test_plan_indexes_every_name_once():
    doc, templates = wide_kill(4)
    plan = compile_scenario(doc, templates)
    assert plan.report.ok
    assert list(plan.nodes) == ["plan", "db", "db-0", "db-1", "db-2", "db-3", "kill-most"]
    assert plan.clusters == {"db": 4}
    spec, targets = plan.faults["kill-most"]
    assert spec.targets == ["db-1", "db-2", "db-3"]
    assert targets == [plan.nodes[name] for name in spec.targets]
    assert plan.dependents == {"db": [1]}
    assert plan.jobs == {"db": [parse_job_body(dsl.load_yaml(NODE.body))]}
