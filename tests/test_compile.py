"""Compile once, then run: validation and the engine share one Plan.

`compile_scenario` resolves every name through one index, so checking a
macro or a state assertion costs the same in a document of any size, and
the engine reads each template text, fault and expression from the plan
instead of deriving it again. A kill fault counts its targets that are not
yet terminal, so a wide kill costs O(1) per target event, and an event
re-evaluates only the state assertions whose scope it changed. The window
and `after:` timers wait in heaps, a revoked suspend reads its targets'
counts and the run's end kills only the jobs still live, so none of those
costs grows with what is waiting, in effect or already ended. A loaded
document keeps its plan, which holds no run state, so every later compile and run of
it shares that plan. The scaling checks count operations
(`conftest.count_operations`), not wall time.
"""

import hashlib
import sys

import pytest
import yaml

from whatif import dsl
from whatif.dsl import Template, compile_scenario, instantiate_template, parse_job_body, parse_scenario, validate
from whatif.engine import Engine, Outcome, run_scenario
from whatif.errors import Finding
from whatif.lifecycle import Phase, iter_nodes

from conftest import count_operations
from test_acceptance import CORPUS_TEMPLATES
from test_golden import CORPUS_GOLDEN, DEMO_GOLDEN, GOLDEN, _build, corpus_docs, trace_digest

NODE = Template("node", {}, "script:\n- { at: 0s, do: running }\n- { at: 100s, do: success }\n")
STEP = Template("step", {"services": None}, "env: { TARGETS: '{{services}}' }\n"
                "script:\n- { at: 0s, do: running }\n- { at: 1s, do: success }\n")


def _doc(spec, **top):
    return parse_scenario(yaml.safe_dump({"name": "plan", **top, "spec": spec}, sort_keys=False))


def chain(n: int, kind: str, **top):
    """N Calls chained by success beside a 2-instance cluster; each Call has
    one macro target (`macro`) or one state assertion (`assertion`). Each
    keyword is a top-level key of the document, such as ``defaults``."""
    spec = [{"action": "Cluster", "name": "db", "cluster": {"templateRef": "node", "instances": 2}}]
    for i in range(n):
        call = {"action": "Call", "name": f"c{i}",
                "depends": {"success": [f"c{i - 1}"]} if i else {"running": ["db"]},
                "call": {"callable": "step", "services": [".cluster.db.all" if kind == "macro" else "db-0"]}}
        if kind == "assertion":
            call["assertions"] = [".state.failed() > 0"]
        spec.append(call)
    return _doc(spec, **top), {"node": NODE, "step": STEP}


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
        doc, templates = chain(n, "assertion", defaults={"timeout": "1000000s"})
        result, ops = count_operations(lambda: run_scenario(doc, templates))
        assert (result.outcome, result.reason) == (Outcome.SUCCESS, "all actions completed")
        per_event[n] = ops / sum(1 for r in result.trace if r.kind == "event")
    assert per_event[1000] <= 1.1 * per_event[250], per_event


def ended_cluster(n: int):
    """A cluster of N instances that all succeed, so no job is left to kill at the run's end."""
    return _doc([{"action": "Cluster", "name": "db", "cluster": {"templateRef": "node", "instances": n}}]), {
        "node": Template("node", {}, "script:\n- { at: 0s, do: running }\n- { at: 1s, do: success }\n")}


def quiet_rules(n: int, points: int):
    """N quiet metrics rules, each kept armed by one point in a 1 h window, beside
    one rule whose metric gets a point every second, ``points`` times."""
    hot = Template("hot", {}, "declares: [hot]\nscript:\n- { at: 0s, do: running }\n"
                   + "".join(f"- {{ at: {i}s, do: metric, name: hot, value: 1 }}\n" for i in range(1, points + 1))
                   + f"- {{ at: {points + 1}s, do: success }}\n")
    quiet = Template("quiet", {}, f"declares: [{', '.join(f'q{i}' for i in range(n))}]\n"
                     "script:\n- { at: 0s, do: running }\n"
                     + "".join(f"- {{ at: 0s, do: metric, name: q{i}, value: 1 }}\n" for i in range(n))
                     + "- { at: 300s, do: success }\n")
    return _doc([
        {"action": "Service", "name": "quiet", "service": {"templateRef": "quiet"},
         "assertions": [f"MAX() QUERY(q{i}, 1h, now) IS ABOVE(1000)" for i in range(n)]},
        {"action": "Service", "name": "hot", "service": {"templateRef": "hot"},
         "assertions": ["MAX() QUERY(hot, 1s, now) IS ABOVE(1000)"]},
    ]), {"hot": hot, "quiet": quiet}


def waiting_services(n: int, instances: int):
    """N Services that wait out `after: 250s` from a cluster's Running, while
    the cluster's instances end one per second."""
    node = Template("node", {"end": None}, "script:\n- { at: 0s, do: running }\n- { at: {{end}}, do: success }\n")
    spec = [{"action": "Cluster", "name": "db", "cluster": {
        "templateRef": "node", "instances": instances, "inputs": [{"end": f"{i + 1}s"} for i in range(instances)]}}]
    spec += [{"action": "Service", "name": f"w{j}", "depends": {"running": ["db"], "after": "250s"},
              "service": {"templateRef": "node", "inputs": [{"end": "1s"}]}} for j in range(n)]
    return _doc(spec), {"node": node}


def run_operations(doc, templates) -> int:
    result, ops = count_operations(lambda: run_scenario(doc, templates))
    assert (result.outcome, result.reason) == (Outcome.SUCCESS, "all actions completed")
    return ops


def test_run_end_work_does_not_grow_with_the_ended_jobs():
    """The cleanup kills the jobs started and not ended, not a walk of the tree."""
    cleanup = {}
    for n in (10, 1000):
        engine = Engine(*ended_cluster(n))
        finalize = engine._finalize
        engine._finalize = lambda: cleanup.__setitem__(n, count_operations(finalize)[1])
        assert engine.run().outcome is Outcome.SUCCESS
    assert cleanup[1000] <= 1.1 * cleanup[10], cleanup


def test_hot_metric_point_work_does_not_grow_with_the_armed_rules():
    """A point on one metric pops only the window timers that are due, not every armed rule."""
    per_point = {}
    for n in (10, 1000):
        per_point[n] = (run_operations(*quiet_rules(n, 200)) - run_operations(*quiet_rules(n, 100))) / 100
    assert per_point[1000] <= 1.1 * per_point[10], per_point


def test_state_event_work_does_not_grow_with_the_actions_waiting_out_after():
    """An event rechecks an action waiting out `after:` only once its timer is due."""
    per_event = {}
    for n in (10, 1000):
        per_event[n] = (run_operations(*waiting_services(n, 200)) - run_operations(*waiting_services(n, 100))) / 100
    assert per_event[1000] <= 1.1 * per_event[10], per_event


def test_revoke_work_does_not_grow_with_the_suspends_in_effect():
    """N suspends, one on each instance of a cluster, end one per second: each revoke
    reads its own targets' counts of the suspends holding them, not every fault in effect."""
    per_event = {}
    for n in (50, 400):
        doc, templates = _doc([{"action": "Cluster", "name": "db", "cluster": {"templateRef": "node", "instances": n}}] + [
            {"action": "Chaos", "name": f"pause{i}", "depends": {"running": ["db"]},
             "chaos": {"fault": {"kind": "suspend", "targets": [f"db-{i}"], "duration": f"{i + 1}s"}}}
            for i in range(n)]), {"node": NODE}
        result, ops = count_operations(lambda: run_scenario(doc, templates))
        assert (result.outcome, result.reason) == (Outcome.SUCCESS, "all actions completed")
        per_event[n] = ops / sum(1 for r in result.trace if r.kind == "event")
    assert per_event[400] <= 1.1 * per_event[50], per_event


def count_calls(monkeypatch, *names) -> dict:
    """Count the calls of each named `dsl` function from now on: the dict, by name, that holds the counts."""
    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(dsl, name, counted(name, getattr(dsl, name)))
    return counts


def test_engine_compiles_each_expression_and_template_once(monkeypatch):
    """Parsing and instantiation happen in `compile_scenario` only: once per
    expression and once per inputs map, however many instances and events."""
    counts = count_calls(monkeypatch, "parse_expression", "instantiate_template")
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
    assert counts == {"parse_expression": 3, "instantiate_template": 3}
    assert engine.run().outcome is Outcome.SUCCESS
    assert counts == {"parse_expression": 3, "instantiate_template": 3}


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
    """The first compile of a document parses each distinct instance text
    once; a second compile or a run of it parses none, and a freshly parsed
    equal document parses them again."""
    node = Template("node", {"up": None, "cpu": None}, "declares: [cpu]\nscript:\n- { at: '{{up}}', do: running }\n"
                    "- { at: 1s, do: metric, name: cpu, value: {{cpu}} }\n- { at: 100s, do: success }\n")
    inputs = [{"up": f"{i}ms", "cpu": str(i % 97)} for i in range(instances)]
    spec = [
        {"action": "Cluster", "name": "db", "cluster": {"templateRef": "node", "instances": instances, "inputs": inputs}},
        {"action": "Call", "name": "work", "depends": {"running": ["db"]},
         "call": {"callable": "step", "services": ["db-0", "db-1"]}},
    ]
    doc, copy = _doc(spec), _doc(spec)
    templates = {"node": node, "step": STEP}
    counts = count_calls(monkeypatch, "load_yaml")
    plan = compile_scenario(doc, templates)
    assert plan.report.ok, str(plan.report)
    assert counts["load_yaml"] == instances + 1
    again = compile_scenario(doc, templates)
    result = run_scenario(doc, templates, seed=1)
    assert counts["load_yaml"] == instances + 1
    assert again.jobs == plan.jobs
    assert result.outcome == Outcome.SUCCESS, result.reason
    assert compile_scenario(copy, templates).jobs == plan.jobs
    assert counts["load_yaml"] == 2 * (instances + 1)
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
    templates = {"node": Template("node", {}, body), "step": STEP}
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
    assert plan.faults["kill-most"].targets == ["db-1", "db-2", "db-3"]
    # `kill-most` waits for `running: [db]`: db entering Running or Success can satisfy it.
    assert plan.dependents == {("db", Phase.RUNNING): [1], ("db", Phase.SUCCESS): [1]}
    assert plan.jobs == {"db": [parse_job_body(dsl.load_yaml(NODE.body))]}


def test_plan_dependents_wait_only_for_the_phases_a_clause_reads():
    """A name under `success:` waits for Success alone, also when `running:` names it too."""
    job = "service: {script: [{at: 0s, do: running}, {at: 1s, do: success}]}"
    doc = parse_scenario(f"""
name: waits
spec:
- {{action: Service, name: a, {job}}}
- {{action: Service, name: b, {job}}}
- {{action: Service, name: c, depends: {{running: [a, b], success: [b]}}, {job}}}
- {{action: Service, name: d, depends: {{success: [a]}}, {job}}}
""")
    plan = compile_scenario(doc)
    assert plan.report.ok
    assert plan.dependents == {
        ("a", Phase.RUNNING): [2], ("a", Phase.SUCCESS): [2, 3], ("b", Phase.SUCCESS): [2],
    }


# --- one plan for every run of a loaded document ------------------------------------

COMPILE_STEPS = ("parse_expression", "instantiate_template", "parse_job_body")


def test_runs_of_one_loaded_document_compile_it_once(partition_demo, tmp_path, monkeypatch):
    """Every golden document and the corpus, each loaded once and run three
    times: every run writes its pinned trace, and only the first compiles."""
    named = {"demo": partition_demo, **{name: _build(name) for name in GOLDEN}}
    corpus = corpus_docs()
    counts = count_calls(monkeypatch, *COMPILE_STEPS)
    for run in range(3):
        counts.update(dict.fromkeys(COMPILE_STEPS, 0))
        digests = {name: trace_digest(doc, templates, tmp_path) for name, (doc, templates) in named.items()}
        assert digests == {"demo": DEMO_GOLDEN, **GOLDEN}, run
        corpus_digests = "".join(trace_digest(doc, CORPUS_TEMPLATES, tmp_path) for doc in corpus)
        assert hashlib.sha256(corpus_digests.encode("ascii")).hexdigest() == CORPUS_GOLDEN, run
        if run:
            assert counts == dict.fromkeys(COMPILE_STEPS, 0), run
        else:
            assert all(counts.values()), counts


# A kill, a suspend, a checkpoint and a metrics rule that reads it.
STATELESS = """
name: stateless
spec:
- {action: Cluster, name: db, cluster: {templateRef: node, instances: 4, toleratedFailures: 1},
   assertions: [".state.failed() > 1"]}
- {action: Service, name: emit, service: {script: [{at: 0s, do: running}, {at: 1s, do: metric, name: load, value: 5},
   {at: 3s, do: metric, name: load, value: 4}, {at: 30s, do: success}]}}
- {action: Chaos, name: kill, depends: {running: [db]}, chaos: {fault: {kind: kill, targets: [db-0]}}}
- {action: Chaos, name: pause, depends: {running: [db], after: 2s},
   chaos: {fault: {kind: suspend, targets: [db-1], duration: 5s}}}
- {action: Checkpoint, name: seen, depends: {running: [emit], after: 2s},
   checkpoint: {values: {load: "MAX() QUERY(load, 1m, now)"}}}
- {action: Call, name: watch, depends: {success: [seen]}, call: {callable: step, services: [.cluster.db.all]},
   assertions: ["MAX() QUERY(load, 1m, now) IS ABOVE(CHECKPOINT(seen.load))"]}
"""


def test_the_plan_holds_no_run_state():
    """Two engines built from one loaded document before either runs, run in
    the other order, each write the trace of a freshly parsed copy's run, and
    leave the shared plan as a fresh compile makes it."""
    templates = {"node": NODE, "step": STEP}
    doc = parse_scenario(STATELESS)
    first, second = Engine(doc, templates), Engine(doc, templates)
    assert first.plan is second.plan
    second.run()
    first.run()
    fresh = run_scenario(parse_scenario(STATELESS), templates)
    assert (fresh.outcome, fresh.reason) == (Outcome.SUCCESS, "all actions completed")
    faults = [r.data["args"]["kind"] for r in fresh.trace if r.kind == "command" and r.data["verb"] == "InjectFault"]
    assert faults == ["kill", "suspend"]
    assert [r.data["name"] for r in fresh.trace if r.kind == "checkpoint"] == ["seen"]
    assert first.trace.to_text() == second.trace.to_text() == fresh.trace.to_text()
    plan = first.plan
    assert all(node.phase is Phase.UNINITIALIZED and not node.phase_times for node in iter_nodes(plan.tree))
    again = compile_scenario(parse_scenario(STATELESS), templates)
    assert (plan.faults, plan.jobs) == (again.faults, again.jobs)


def test_only_templates_equal_by_value_share_a_plan():
    doc, templates = chain(3, "macro")
    plan = compile_scenario(doc, templates)
    assert compile_scenario(doc, templates) is plan
    reloaded = {name: Template(t.name, dict(t.parameters), t.body) for name, t in templates.items()}
    assert compile_scenario(doc, reloaded) is plan
    edited = dict(templates, step=Template(STEP.name, STEP.parameters, STEP.body.replace("1s", "2s")))
    other = compile_scenario(doc, edited)
    assert other is not plan
    assert [spec.script[-1].offset for spec in other.jobs["c0"]] == [2.0]


def test_a_template_changed_in_place_compiles_again():
    """The plan is kept with a copy of each template's values, so reassigning
    a template's body or changing its parameters in place is seen."""
    doc, _ = chain(3, "macro")
    step = Template(STEP.name, dict(STEP.parameters), STEP.body)
    templates = {"node": NODE, "step": step}
    plan = compile_scenario(doc, templates)
    step.body = STEP.body.replace("1s", "2s")
    edited = compile_scenario(doc, templates)
    assert edited is not plan
    assert [spec.script[-1].offset for spec in edited.jobs["c0"]] == [2.0]
    assert run_scenario(doc, templates).trace.to_text() == run_scenario(chain(3, "macro")[0], templates).trace.to_text()
    step.parameters["extra"] = "x"
    assert compile_scenario(doc, templates) is not edited


def test_an_equal_fresh_document_gets_its_own_plan():
    doc, templates = chain(3, "macro")
    copy, _ = chain(3, "macro")
    assert copy == doc
    assert compile_scenario(copy, templates) is not compile_scenario(doc, templates)


def test_a_returned_report_is_the_callers():
    doc, templates = chain(3, "macro")
    report = validate(doc, templates)
    report.findings.append(Finding("error", "c0", "added by the caller"))
    assert not report.ok
    assert validate(doc, templates).ok
    assert run_scenario(doc, templates).outcome is Outcome.SUCCESS

