"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they pass.
"""

import itertools
import math
import random
import time

import pytest

from whatif.dsl import ActionSpec, DependsClause, ScenarioDoc, Template, parse_scenario, validate
from whatif.engine import Outcome, run_scenario
from whatif.expressions import (
    ScopeJob,
    ScopeSnapshot,
    eval_reducer,
    eval_state,
    parse_expression,
)
from whatif.lifecycle import (
    FailureClass,
    Phase,
    ResourceNode,
    aggregate_phase,
    propagate,
)
from whatif.telemetry import MetricPoint, MetricsStore

from conftest import stage_template

U, P, R, S, F = Phase.UNINITIALIZED, Phase.PENDING, Phase.RUNNING, Phase.SUCCESS, Phase.FAILED
EXP, UNEXP = FailureClass.EXPECTED, FailureClass.UNEXPECTED


def _passed(number: int, text: str) -> None:
    print(f"[PASS] criterion {number}: {text}")


# --- criterion 1: scheduling-policy comparison ---------------------------------


def _stage_doc(policy: str, durations, delay=None) -> ScenarioDoc:
    actions = []
    for i, duration in enumerate(durations):
        action = ActionSpec(
            name=f"stage-{i}", kind="Call", callable="stage", services=[],
            inputs=[{"dur": f"{duration}s"}],
        )
        if policy == "state" and i:
            action.depends = DependsClause(success=[f"stage-{i-1}"])
        elif policy == "time" and i:
            action.depends = DependsClause(after=i * delay)
        actions.append(action)
    return ScenarioDoc(name=f"stages-{policy}", actions=actions)


def _regions(result, count):
    spans = {}
    for annotation in result.annotations.all():
        if annotation.kind == "Region":
            spans[annotation.label] = (annotation.start, annotation.end)
    return [spans[f"stage-{i}"] for i in range(count)]


def _overlapping_pairs(spans):
    pairs = 0
    for (a0, a1), (b0, b1) in itertools.combinations(spans, 2):
        if a0 < b1 and b0 < a1:  # strict interior intersection
            pairs += 1
    return pairs


def test_criterion_1_scheduling_policies():
    templates = {"stage": stage_template()}
    started = time.monotonic()
    for seed in range(100):
        rng = random.Random(seed)
        durations = [round(rng.uniform(2.0, 8.0), 1) for _ in range(6)]
        short_delay = round(0.9 * min(durations), 2)  # below every stage duration
        long_delay = 2.0 * max(durations)

        parallel = run_scenario(_stage_doc("parallel", durations), templates, seed=seed)
        assert parallel.outcome is Outcome.SUCCESS
        assert _overlapping_pairs(_regions(parallel, 6)) >= 1

        overlapped = run_scenario(_stage_doc("time", durations, short_delay), templates, seed=seed)
        assert overlapped.outcome is Outcome.SUCCESS
        assert _overlapping_pairs(_regions(overlapped, 6)) >= 1

        idle_run = run_scenario(_stage_doc("time", durations, long_delay), templates, seed=seed)
        assert idle_run.outcome is Outcome.SUCCESS
        spans = _regions(idle_run, 6)
        assert _overlapping_pairs(spans) == 0
        makespan = spans[-1][1] - spans[0][0]
        busy = sum(end - start for start, end in spans)
        assert (makespan - busy) / makespan > 0.25

        chained = run_scenario(_stage_doc("state", durations), templates, seed=seed)
        assert chained.outcome is Outcome.SUCCESS
        spans = _regions(chained, 6)
        assert _overlapping_pairs(spans) == 0
        for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
            assert next_start == prev_end  # dispatched in the cycle of the `success` it waited for

    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"300 simulated runs took {elapsed:.1f}s"
    _passed(1, f"scheduling policies behave as claimed for 100 seeds in {elapsed:.1f}s")


# --- criterion 2: panic-abort ----------------------------------------------------


PANIC_DOC = """
name: sstable-panic
spec:
- action: Cluster
  name: nodes
  cluster:
    templateRef: node
    instances: 3
    inputs:
      - { lifetime: 300s, exit: success }
      - { lifetime: 300s, exit: success }
      - { lifetime: 30s, exit: crash }
- action: Call
  name: workload
  depends: { running: [ nodes ] }
  call: { callable: long-call, services: [ .cluster.nodes.all ] }
- action: Call
  name: never-reached
  depends: { after: 60s }
  call: { callable: long-call, services: [] }
"""

PANIC_TEMPLATES = {
    "node": Template("node", {"lifetime": None, "exit": None},
                     "script:\n- { at: 0s, do: running }\n- { at: {{lifetime}}, do: {{exit}} }\n"),
    "long-call": Template("long-call", {},
                          "script:\n- { at: 0s, do: running }\n- { at: 200s, do: success }\n"),
}


def test_criterion_2_panic_abort():
    result = run_scenario(parse_scenario(PANIC_DOC), PANIC_TEMPLATES)
    assert result.outcome is Outcome.FAILED
    assert "nodes-2" in result.reason

    crash_seq = next(r.seq for r in result.trace
                     if r.kind == "event" and r.data.get("mode") == "crash")
    creates_after = [r for r in result.trace
                     if r.kind == "command" and r.data["verb"] == "CreateJob" and r.seq > crash_seq]
    assert creates_after == []

    assert result.annotations.open_labels() == []
    regions = [a for a in result.annotations.all() if a.kind == "Region"]
    assert regions and all(a.end is not None for a in regions)
    _passed(2, "untagged crash fails the run, halts dispatch, and closes every region")


# --- criterion 3: fault-then-continue with checkpoint comparison ---------------------


def _leak_doc(template_name: str) -> ScenarioDoc:
    return parse_scenario("""
name: goroutine-leak
spec:
- action: Cluster
  name: nodes
  cluster: { templateRef: %s, instances: 4 }
- action: Call
  name: warmup
  depends: { running: [ nodes ] }
  call: { callable: short-call, services: [ .cluster.nodes.all ] }
- action: Checkpoint
  name: maxSeen
  depends: { success: [ warmup ] }
  checkpoint:
    values: { goroutines: "MAX() QUERY(goroutines, 5m, now)" }
- action: Chaos
  name: partition0
  depends: { success: [ maxSeen ] }
  chaos:
    fault: { kind: partition, source: nodes-0, dst: "nodes-1, nodes-2, nodes-3",
             direction: "to", duration: 10m }
- action: Call
  name: verify
  depends: { success: [ partition0 ] }
  call: { callable: short-call, services: [ .cluster.nodes.all ] }
  assertions:
    - "MAX() QUERY(goroutines, 5m, now) IS ABOVE(CHECKPOINT(maxSeen.goroutines) * 1.2)"
""" % template_name)


def _node_script(leaking: bool) -> str:
    lines = ["- { at: 0s, do: running }",
             "- { at: 1s, do: metric, name: goroutines, value: 1000 }"]
    for t in range(60, 601, 60):
        if leaking and t >= 300:
            value = 1000 + (t - 240) * 2  # climbs during the partition window
        else:
            value = 1000 + (t % 120) // 24
        lines.append(f"- {{ at: {t}s, do: metric, name: goroutines, value: {value} }}")
    lines.append("- { at: 700s, do: success }")
    return "script:\n" + "\n".join(lines) + "\n"


LEAK_TEMPLATES = {
    "healthy-node": Template("healthy-node", {}, _node_script(False)),
    "leaky-node": Template("leaky-node", {}, _node_script(True)),
    "short-call": Template("short-call", {},
                           "script:\n- { at: 0s, do: running }\n- { at: 2s, do: success }\n"),
}


def test_criterion_3_fault_then_continue_checkpoint():
    started = time.monotonic()
    healthy = run_scenario(_leak_doc("healthy-node"), LEAK_TEMPLATES)
    assert healthy.outcome is Outcome.SUCCESS, healthy.reason
    maxseen = healthy.checkpoints.get("maxSeen")
    assert maxseen is not None and maxseen.values["goroutines"] == 1000.0
    # The partition was injected and repaired: its region spans 10 sim-minutes.
    region = next(a for a in healthy.annotations.all() if a.label == "partition0")
    assert region.end - region.start == 600.0

    leaky = run_scenario(_leak_doc("leaky-node"), LEAK_TEMPLATES)
    assert leaky.outcome is Outcome.FAILED
    assert "assertion fired" in leaky.reason and "verify" in leaky.reason
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"both variants took {elapsed:.1f}s"
    _passed(3, f"checkpoint comparison passes healthy and fails leaky in {elapsed:.1f}s")


# --- criterion 4: lifecycle oracle equivalence ---------------------------------------


CHILD_KINDS = [(U, None), (P, None), (R, None), (S, None), (F, EXP), (F, UNEXP), (F, None)]


def _aggregate_oracle(children, tolerated):
    unexpected = sum(1 for p, c in children if p is F and c is not EXP)
    expected = sum(1 for p, c in children if p is F and c is EXP)
    if unexpected > 0 or expected > tolerated:
        return F
    if any(p in (U, P) for p, _ in children):
        return P
    if any(p is R for p, _ in children):
        return R
    return S


def test_criterion_4_lifecycle_oracle_equivalence():
    checked = 0
    for size in range(5):
        for children in itertools.combinations_with_replacement(CHILD_KINDS, size):
            for tolerated in range(4):
                assert aggregate_phase(list(children), tolerated) is _aggregate_oracle(children, tolerated)
                checked += 1

    propagated = 0
    for size in range(1, 5):
        for children in itertools.combinations_with_replacement(CHILD_KINDS, size):
            failed_indexes = [i for i, (p, _) in enumerate(children) if p is F]
            if not failed_indexes:
                continue
            for tolerated in range(4):
                victim_index = failed_indexes[0]
                root = ResourceNode("scenario", kind="scenario")
                cluster = root.add_child(ResourceNode("cluster", kind="cluster"))
                cluster.tolerated = tolerated
                for i, (phase, fclass) in enumerate(children):
                    child = cluster.add_child(ResourceNode(f"child-{i}"))
                    if i == victim_index:
                        child.phase = R  # about to fail
                    else:
                        child.phase = phase
                        child.failure_class = fclass
                cluster.phase = _aggregate_oracle(
                    [(c.phase, c.failure_class) for c in cluster.children], tolerated,
                )
                victim = cluster.children[victim_index]
                victim.phase = F
                victim.failure_class = children[victim_index][1]

                propagate(cluster, victim.name)
                expected = _aggregate_oracle([(c.phase, c.failure_class) for c in cluster.children], tolerated)
                assert cluster.phase is expected, (children, tolerated)
                propagated += 1
    assert checked == 1320 and propagated > 1000  # 330 multisets of size <= 4, 4 tolerances
    _passed(4, f"aggregate/propagate match brute force on {checked} + {propagated} cases")


# --- criterion 5: expression oracle equivalence -----------------------------------------


def test_criterion_5_expression_oracle_equivalence():
    # Reducers: all windows over series of <= 10 deterministic points.
    rng = random.Random(5)
    reducers = {
        "MAX": max, "MIN": min, "SUM": math.fsum,  # correctly rounded sums
        "AVG": lambda v: math.fsum(v) / len(v),
        "LAST": lambda v: v[-1],
        "COUNT": lambda v: float(len(v)),
    }
    windows_checked = 0
    for size in range(11):
        for _ in range(20):  # twenty generated series per size
            points = sorted(
                (round(rng.uniform(0, 100), 1), round(rng.uniform(-50, 50), 2))
                for _ in range(size)
            )
            store = MetricsStore()
            store.declare("m")
            for at, value in points:
                store.ingest(MetricPoint("m", value, at))
            for window, now in [(100, 100), (50, 75), (50, 50), (10, 95)]:
                in_window = [value for at, value in points if now - window <= at <= now]
                for name, brute in reducers.items():
                    ast = parse_expression(f"{name}() QUERY(m, {window}s, now)")
                    got = eval_reducer(ast, store, now=now)
                    expected = brute(in_window) if in_window else None
                    assert got == expected, (name, points, window, now)
                    windows_checked += 1

    # State expressions: every scope of <= 3 jobs against a counting oracle.
    battery = [
        (".state.failed() > 1", lambda c: c[F] > 1),
        (".state.running() >= 2", lambda c: c[R] >= 2),
        (".state.success() == 0", lambda c: c[S] == 0),
        (".state.pending() != 1", lambda c: c[P] != 1),
        (".state.all() < 3", lambda c: c["n"] < 3),
        ("(.state.running() >= 1) AND (.state.failed() == 0)", lambda c: c[R] >= 1 and c[F] == 0),
        ("NOT (.state.failed() > 0) OR (.state.success() > 0)", lambda c: (not c[F] > 0) or c[S] > 0),
    ]
    job_kinds = [U, P, R, S, (F, EXP), (F, UNEXP)]
    scopes_checked = 0
    for size in range(4):
        for combo in itertools.combinations_with_replacement(job_kinds, size):
            jobs = tuple(
                ScopeJob(f"job-{i}", p if isinstance(p, Phase) else p[0],
                         None if isinstance(p, Phase) else p[1])
                for i, p in enumerate(combo)
            )
            snap = ScopeSnapshot("owner", jobs)
            counts = {phase: 0 for phase in Phase}
            for job in jobs:
                counts[job.phase] += 1
            counts["n"] = len(jobs)
            for text, oracle in battery:
                assert eval_state(parse_expression(text), snap) == oracle(counts)
                scopes_checked += 1
    assert windows_checked == 11 * 20 * 4 * 6 and scopes_checked == 84 * len(battery)
    _passed(5, f"reducers exact on {windows_checked} windows; state oracle on {scopes_checked} scope cases")


# --- criterion 6: determinism --------------------------------------------------------------


def test_criterion_6_determinism(partition_demo):
    doc, templates = partition_demo
    reference = run_scenario(doc, templates, seed=0).trace.to_text().encode("ascii")
    for _ in range(19):
        again = run_scenario(doc, templates, seed=0).trace.to_text().encode("ascii")
        assert again == reference
    _passed(6, f"20 runs, byte-identical traces of {len(reference)} bytes")


# --- criterion 7: validation corpus ----------------------------------------------------------


DEFECTS = ("none", "cycle", "dangling", "missing-template", "bad-expression",
           "bad-macro", "tolerance", "scope")

CORPUS_TEMPLATES = {
    "node": Template("node", {}, "script:\n- { at: 0s, do: running }\n- { at: 9s, do: success }\n"),
    "task": Template("task", {}, "script:\n- { at: 0s, do: running }\n- { at: 1s, do: success }\n"),
}


def _generate_scenario(rng: random.Random, defect: str) -> ScenarioDoc:
    actions = []
    cluster_names = []
    for i in range(rng.randint(2, 6)):
        name = f"act{i}"
        if rng.random() < 0.4:
            instances = rng.randint(2, 4)
            action = ActionSpec(
                name=name, kind="Cluster", template_ref="node", instances=instances,
                tolerated_failures=rng.randint(0, instances - 1),
            )
            cluster_names.append(name)
        else:
            services = []
            if cluster_names and rng.random() < 0.5:
                services.append(f".cluster.{rng.choice(cluster_names)}.all")
            action = ActionSpec(name=name, kind="Call", callable="task", services=services)
        if actions and rng.random() < 0.7:
            dep = rng.choice(actions).name
            action.depends = DependsClause(success=[dep]) if rng.random() < 0.5 else DependsClause(running=[dep])
        actions.append(action)
    doc = ScenarioDoc(name="generated", actions=actions)

    if defect == "cycle":
        a, b = rng.sample(actions, 2)
        a.depends.success = list(set(a.depends.success) | {b.name})
        b.depends.success = list(set(b.depends.success) | {a.name})
    elif defect == "dangling":
        rng.choice(actions).depends.success = ["ghost-action"]
    elif defect == "missing-template":
        calls = [a for a in actions if a.kind == "Call"]
        if calls:
            rng.choice(calls).callable = "no-such-template"
        else:
            rng.choice(actions).template_ref = "no-such-template"
    elif defect == "bad-expression":
        rng.choice(actions).assertions = [rng.choice(
            [".state.failed(3) > 1", "MAX() QUERY(m, 1m, now) IS", ".state.bogus() > 1"],
        )]
    elif defect == "bad-macro":
        target = f".cluster.{rng.choice(cluster_names)}.99" if cluster_names and rng.random() < 0.5 else ".cluster.ghost.all"
        calls = [a for a in actions if a.kind == "Call"]
        if calls:
            rng.choice(calls).services = [target]
        else:
            actions.append(ActionSpec(name="extra", kind="Call", callable="task", services=[target]))
    elif defect == "tolerance":
        clusters = [a for a in actions if a.kind == "Cluster"]
        if clusters:
            cluster = rng.choice(clusters)
        else:
            cluster = ActionSpec(name="extra", kind="Cluster", template_ref="node", instances=2)
            actions.append(cluster)
        cluster.tolerated_failures = cluster.instances + rng.randint(0, 2)
    elif defect == "scope":
        owner = next((a for a in actions if a.kind == "Cluster"), actions[0])
        foreign = "ghost-job" if len(cluster_names) < 2 else f"{[c for c in cluster_names if c != owner.name][0]}-0"
        owner.assertions = [f"{foreign}.state.failed() > 0"]
    return doc


def test_criterion_7_validation_corpus():
    rng = random.Random(7)
    false_accepts = false_rejects = 0
    for index in range(200):
        defect = DEFECTS[index % len(DEFECTS)]
        doc = _generate_scenario(rng, defect)
        ok = validate(doc, CORPUS_TEMPLATES).ok
        if defect == "none" and not ok:
            false_rejects += 1
        if defect != "none" and ok:
            false_accepts += 1
    assert false_accepts == 0 and false_rejects == 0
    _passed(7, "200 labeled scenarios classified with zero false accepts/rejects")


# --- criterion 8: process-executor smoke -------------------------------------------------------


PROCESS_DOC = """
name: process-smoke
spec:
- action: Cluster
  name: sleepers
  cluster:
    templateRef: sleeper
    instances: 2
    toleratedFailures: 1
- action: Service
  name: emitter
  service:
    command: >-
      python3 -c 'import time;
      [print("metric beats %d %d" % (i, int(time.time()*1000)), flush=True) or time.sleep(0.2)
      for i in range(4)]'
    metrics: stdout-lines
    declares: [beats]
- action: Chaos
  name: kill0
  depends: { running: [ sleepers, emitter ] }
  chaos:
    fault: { kind: kill, targets: [ .cluster.sleepers.0 ] }
"""


def test_criterion_8_process_smoke():
    from whatif.executors.process import ProcessExecutor

    started = time.monotonic()
    result = run_scenario(
        parse_scenario(PROCESS_DOC),
        {"sleeper": Template("sleeper", {}, "command: sleep 3\n")},
        ProcessExecutor(),
    )
    elapsed = time.monotonic() - started
    assert result.outcome is Outcome.SUCCESS, result.reason
    killed = next(r for r in result.trace
                  if r.kind == "transition" and r.data["subject"] == "sleepers-0"
                  and r.data["to"] == "Failed")
    assert killed.data["class"] == "Expected"
    assert len(result.store.series("beats")) >= 3
    assert elapsed < 30.0
    _passed(8, f"process scenario with tagged kill finished green in {elapsed:.1f}s")
