"""Incremental reconciliation against brute-force oracles.

The engine rechecks an action's dependencies only when a node its `depends`
names entered a phase the clause waits for (plus the actions with an armed
`after:` timer), derives cluster phases and answers state assertions from
phase counts, and re-evaluates an action's state assertions only when a job
in its scope left or entered a count slot they read. The oracle engine below
rechecks every undispatched action and re-evaluates every state assertion
over a `snapshot_scope` on every cycle; on random documents both must write
the same trace. After every cycle each cluster's counted phase must equal
`aggregate_phase` over its children, and every asserting action's counted
scope must answer as its snapshot does.
"""

import sys

import yaml
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from whatif import engine as engine_module
from whatif.dsl import Template, parse_scenario, validate
from whatif.engine import Engine, dependency_satisfied
from whatif.expressions import STATE_FNS, ScopeJob, eval_state, snapshot_scope
from whatif.lifecycle import Phase, aggregate_phase

from test_golden import AFTER_RACE, chain_doc, cluster_doc


class CheckedEngine(Engine):
    """The engine under test, checking its phase counts after each cycle."""

    def reconcile(self, event):
        super().reconcile(event)
        for name in self.phase_counts:
            cluster = self.nodes[name]
            expected = aggregate_phase([(c.phase, c.failure_class) for c in cluster.children], cluster.tolerated)
            assert self.cluster_phase(cluster) is expected, (name, self.phase_counts[name])
        for action in self.doc.actions:
            name, owner = action.name, self.nodes[action.name]
            counted, snapshot = Engine._scope(self, owner), snapshot_scope(owner)
            for subject in [None, *self.nodes, "ghost"]:
                for fn in STATE_FNS:
                    assert counted.count(fn, subject) == snapshot.count(fn, subject), (name, fn, subject)
                if subject is not None:
                    assert counted.phase_of(subject) is snapshot.phase_of(subject), (name, subject)
            assert counted.aggregate() is snapshot.aggregate(), name


class FullScanEngine(CheckedEngine):
    """Oracle: a full dependency scan and every state assertion, every cycle.

    It also evaluates them after every State event itself, so an engine that
    skipped that evaluation would not skip it in the oracle too. On a correct
    engine the second evaluation reads what the first read, and writes nothing.
    """

    def _on_state(self, event):
        super()._on_state(event)
        if not self.finished:
            self._evaluate_state_assertions()

    def _recheck_dispatch(self):
        progress = True
        while progress and not self.finished:
            progress = False
            for index, action in enumerate(self.doc.actions):
                if action.name in self.dispatched:
                    continue
                if not dependency_satisfied(action.depends, self.nodes, self.now):
                    self._maybe_arm_after(action, index)
                    continue
                self.dispatched.add(action.name)
                self._dispatch(action)
                progress = True
                if self.finished:
                    return

    def _evaluate_state_assertions(self):
        for name in self.asserts:  # in document order
            if self._live(name):
                self._evaluate_action_assertions(name, metrics=False)

    def _scope(self, node):
        return snapshot_scope(node)


TEMPLATES = {
    "node": Template("node", {"up": None, "end": None, "how": "success"},
                     "script:\n- { at: '{{up}}', do: running }\n- { at: '{{end}}', do: {{how}} }\n"),
    "task": Template("task", {"services": None, "dur": None, "how": "success"},
                     "env: { TARGETS: '{{services}}' }\n"
                     "script:\n- { at: 0s, do: running }\n- { at: '{{dur}}', do: {{how}} }\n"),
}

seconds = st.integers(0, 4).map(lambda s: f"{s}s")


@st.composite
def state_assertions(draw, jobs):
    """A state assertion over the scope holding ``jobs`` (a cluster's instances,
    or a Service's or Call's own job): any state fn or a phase, of the whole
    scope or of one named job, sometimes negated or two comparisons joined."""

    def comparison():
        subject = draw(st.sampled_from(["", *jobs]))
        if draw(st.integers(0, 3)) == 0:
            op = draw(st.sampled_from(["==", "!="]))
            text = f'{subject}.state.all() {op} "{draw(st.sampled_from([p.value for p in Phase]))}"'
        else:
            op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
            text = f"{subject}.state.{draw(st.sampled_from(STATE_FNS))}() {op} {draw(st.integers(0, len(jobs)))}"
        return f"NOT ({text})" if draw(st.integers(0, 4)) == 0 else text

    first = comparison()
    join = draw(st.sampled_from([None, "AND", "OR"]))
    return first if join is None else f"({first}) {join} ({comparison()})"


@st.composite
def scripts(draw):
    up = draw(st.integers(0, 3))
    end = up + draw(st.integers(0, 5))
    how = draw(st.sampled_from(["success", "success", "success", "crash"]))
    return [{"at": f"{up}s", "do": "running"}, {"at": f"{end}s", "do": how}]


@st.composite
def documents(draw):
    """Services, Clusters, Calls, kill Chaos and Checkpoints with random dependencies.

    Dependencies follow a random order that is independent of document
    order, so a dependent may come before its targets. Whole-second timings
    make many events share an instant. Together these exercise the pass
    order within a cycle and `after:` timers racing other events. Services,
    Clusters and Calls may carry state assertions over their own scope, and
    a Call's job may crash.
    """
    n = draw(st.integers(1, 8))
    kinds = draw(st.lists(st.sampled_from(["Service", "Cluster", "Call", "Chaos", "Checkpoint", "Checkpoint"]),
                          min_size=n, max_size=n))
    names = [f"a{i}" for i in range(n)]
    services = [name for name, kind in zip(names, kinds) if kind == "Service"]
    clusters = {name: draw(st.integers(1, 4)) for name, kind in zip(names, kinds) if kind == "Cluster"}
    rank = draw(st.permutations(range(n)))
    spec = []
    for i, (name, kind) in enumerate(zip(names, kinds)):
        earlier = [names[j] for j in range(n) if rank[j] < rank[i]]
        # A kill waits for its cluster to run; one that could not is a Service.
        victim_clusters = [c for c in clusters if c in earlier]
        if kind == "Call" and not (services or clusters) or kind == "Chaos" and not victim_clusters:
            kind = "Service"
            services.append(name)
        action = {"action": kind, "name": name}
        depends = {}
        if earlier and draw(st.integers(0, 3)):
            for key in draw(st.lists(st.sampled_from(["running", "success"]), min_size=1, max_size=2, unique=True)):
                depends[key] = draw(st.lists(st.sampled_from(earlier), min_size=1, max_size=2, unique=True))
        if draw(st.integers(0, 3)) == 0:
            depends["after"] = draw(seconds)
        if draw(st.integers(0, 3)) == 0:
            action["timeout"] = f"{draw(st.integers(1, 12))}s"
        if kind == "Service":
            action["service"] = {"script": draw(scripts())}
            if draw(st.integers(0, 2)) == 0:
                action["assertions"] = draw(st.lists(state_assertions([name]), min_size=1, max_size=2))
        elif kind == "Cluster":
            instances = clusters[name]
            inputs = []
            for _ in range(instances):
                up = draw(st.integers(0, 3))
                inputs.append({"up": f"{up}s", "end": f"{up + draw(st.integers(0, 6))}s"})
                if draw(st.integers(0, 7)) == 0:
                    inputs[-1]["how"] = "crash"
            action["cluster"] = {"templateRef": "node", "instances": instances,
                                 "toleratedFailures": draw(st.integers(0, instances - 1)), "inputs": inputs}
            if draw(st.booleans()):
                jobs = [f"{name}-{i}" for i in range(instances)]
                action["assertions"] = draw(st.lists(state_assertions(jobs), min_size=1, max_size=2))
        elif kind == "Call":
            targets = draw(st.lists(
                st.sampled_from(services + [f".cluster.{c}.all" for c in clusters]),
                min_size=1, max_size=2, unique=True))
            how = draw(st.sampled_from(["success", "success", "success", "crash"]))
            action["call"] = {"callable": "task", "services": targets, "inputs": [{"dur": draw(seconds), "how": how}]}
            if draw(st.integers(0, 2)) == 0:
                action["assertions"] = draw(st.lists(state_assertions([name]), min_size=1, max_size=2))
        elif kind == "Chaos":
            cluster = draw(st.sampled_from(victim_clusters))
            victims = draw(st.lists(st.integers(0, clusters[cluster] - 1), min_size=1, unique=True))
            action["chaos"] = {"fault": {"kind": "kill", "targets": [f"{cluster}-{v}" for v in victims]}}
            depends["running"] = sorted(set(depends.get("running", [])) | {cluster})
        else:
            action["checkpoint"] = {"values": {}}
        if depends:
            action["depends"] = depends
        spec.append(action)
    return yaml.safe_dump({"name": "random", "spec": spec}, sort_keys=False)


# When `s` succeeds, the cycle's first pass holds only `k`. Dispatching `k`
# (a Checkpoint, which succeeds at once) satisfies `y`, later in the
# document, within that pass, and `x`, earlier, in the next one.
PASS_ORDER = """
name: pass-order
spec:
- {action: Service, name: x, depends: {success: [k]}, service: {script: [{at: 0s, do: running}, {at: 1s, do: success}]}}
- {action: Service, name: s, service: {script: [{at: 0s, do: running}, {at: 1s, do: success}]}}
- {action: Checkpoint, name: k, depends: {success: [s]}, checkpoint: {values: {}}}
- {action: Service, name: y, depends: {success: [k]}, service: {script: [{at: 0s, do: running}, {at: 1s, do: success}]}}
"""

# Two tolerated kills: the expected failures keep the cluster within
# tolerance, and the second one makes the cluster's state assertion fire.
TOLERATED_KILLS = """
name: tolerated-kills
spec:
- {action: Cluster, name: db, assertions: [".state.failed() > 1"],
   cluster: {templateRef: node, instances: 3, toleratedFailures: 2, inputs: [{up: 0s, end: 9s}]}}
- {action: Chaos, name: kill, depends: {running: [db], after: 1s},
   chaos: {fault: {kind: kill, targets: [db-0, db-1]}}}
"""


# One tolerated kill makes the cluster's state assertion hold at 5 s, not at
# the cluster's Success at 100 s.
ONE_KILL = """
name: one-kill
spec:
- {action: Cluster, name: db, assertions: [".state.failed() > 0"],
   cluster: {templateRef: node, instances: 3, toleratedFailures: 1, inputs: [{up: 0s, end: 100s}]}}
- {action: Chaos, name: kill, depends: {running: [db], after: 5s},
   chaos: {fault: {kind: kill, targets: [db-0]}}}
"""


# `late` waits on `a` with `success:` only: `a` passes through Running first,
# which can satisfy nothing, and `late` is dispatched at `a`'s Success.
SUCCESS_ONLY = """
name: success-only
spec:
- {action: Service, name: late, depends: {success: [a]}, service: {script: [{at: 0s, do: running}, {at: 1s, do: success}]}}
- {action: Service, name: a, service: {script: [{at: 1s, do: running}, {at: 3s, do: success}]}}
- {action: Service, name: b, depends: {running: [a]}, service: {script: [{at: 0s, do: running}, {at: 1s, do: success}]}}
"""

# `b`'s `after:` timer is armed when `a` runs, and `a` crashes before it
# falls due: a failed `running:` target satisfies nothing, and `b` is never
# dispatched.
ARMED_THEN_FAILED = """
name: armed-then-failed
spec:
- {action: Service, name: a, service: {script: [{at: 0s, do: running}, {at: 1s, do: crash}]}}
- {action: Service, name: b, depends: {running: [a], after: 2s}, service: {script: [{at: 0s, do: running}, {at: 1s, do: success}]}}
"""

# A named instance's count, read while the other instances move: it holds
# only once db-1 has left Running and another instance still runs (at 2 s).
NAMED_INSTANCE = """
name: named-instance
spec:
- {action: Cluster, name: db, assertions: ["(db-1.state.running() == 0) AND (.state.running() > 0)"],
   cluster: {templateRef: node, instances: 3, inputs: [{up: 1s, end: 5s}, {up: 0s, end: 2s}, {up: 1s, end: 4s}]}}
"""

# A Call's assertion over its own job, which crashes: the job's Failed move
# enters a slot the assertion reads, and ends the action before it is read.
CRASHING_CALL = """
name: crashing-call
spec:
- {action: Service, name: s, service: {script: [{at: 0s, do: running}, {at: 9s, do: success}]}}
- {action: Call, name: c, depends: {running: [s]}, assertions: [".state.failed() > 0"],
   call: {callable: task, services: [s], inputs: [{dur: 2s, how: crash}]}}
"""


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
@example(PASS_ORDER)
@example(AFTER_RACE)
@example(TOLERATED_KILLS)
@example(ONE_KILL)
@example(SUCCESS_ONLY)
@example(ARMED_THEN_FAILED)
@example(NAMED_INSTANCE)
@example(CRASHING_CALL)
def test_incremental_dispatch_matches_full_scan(text):
    doc = parse_scenario(text)
    assume(validate(doc, TEMPLATES).ok)
    incremental = CheckedEngine(parse_scenario(text), TEMPLATES).run()
    oracle = FullScanEngine(parse_scenario(text), TEMPLATES).run()
    assert incremental.trace.to_text() == oracle.trace.to_text()
    assert (incremental.outcome, incremental.reason) == (oracle.outcome, oracle.reason)


def test_cluster_assertion_cost_grows_linearly_in_instances(monkeypatch):
    """A cluster's state assertion is answered from its phase counts: running
    a cluster of N instances builds no scope snapshot, and the Python calls
    the whole run makes grow linearly in N, not with N per child event."""
    snapshot_jobs = []
    monkeypatch.setattr(ScopeJob, "__init__", lambda job, *a, **k: snapshot_jobs.append(a))
    calls = {}
    for n in (100, 400):
        doc, templates = cluster_doc(n)
        engine = Engine(doc, templates)
        made = [0]

        def count(frame, event, arg):
            if event == "call":
                made[0] += 1

        sys.setprofile(count)
        try:
            result = engine.run()
        finally:
            sys.setprofile(None)
        assert result.reason == "all actions completed"
        calls[n] = made[0]
    assert snapshot_jobs == []
    assert calls[400] <= 4.4 * calls[100], calls


def test_cluster_assertion_is_evaluated_as_often_whatever_the_instances(monkeypatch):
    """`.state.failed() > 3` reads the Failed slots only, so the instances
    that go Pending, Running and Success never make it stale: it is
    evaluated at dispatch and at each kill, whatever N is."""
    evaluations = {}
    for n in (100, 400):
        calls = []
        monkeypatch.setattr(engine_module, "eval_state", lambda ast, scope: calls.append(ast) or eval_state(ast, scope))
        doc, templates = cluster_doc(n)
        assert Engine(doc, templates).run().reason == "all actions completed"
        evaluations[n] = len(calls)
    assert evaluations[100] == evaluations[400] <= 5, evaluations


def test_a_chained_call_is_checked_once_at_start_and_once_when_its_predecessor_succeeds(monkeypatch):
    """Only a node entering a phase the clause waits for rechecks its dependents:
    on a chain of N Calls each action is checked in the first cycle, and each
    Call again when the one before it succeeds (the first Call: when the
    service runs). An action with an armed `after:` timer is checked once
    more, at the first cycle at or past its due instant; those checks are
    counted apart, one for each such Call."""
    for n in (120, 480):
        doc, templates = chain_doc(n)
        engine = Engine(doc, templates)
        checks = {"armed": 0, "other": 0}
        by_clause = {id(action.depends): index for index, action in enumerate(doc.actions)}

        def counted(clause, nodes, now):
            checks["armed" if by_clause[id(clause)] in engine.timed else "other"] += 1
            return dependency_satisfied(clause, nodes, now)

        monkeypatch.setattr(engine_module, "dependency_satisfied", counted)
        assert engine.run().reason == "all actions completed"
        assert checks["other"] == 2 * n + 1, (n, checks)
        assert checks["armed"] == sum(action.depends.after is not None for action in doc.actions), (n, checks)
