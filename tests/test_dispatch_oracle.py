"""Incremental reconciliation against brute-force oracles.

The engine rechecks only the actions whose dependencies changed (plus those
with an armed `after:` timer), derives cluster phases and answers state
assertions from phase counts, and skips state assertions whose scope did
not change. The oracle engine below rechecks every undispatched action and
re-evaluates every state assertion over a `snapshot_scope` on every cycle;
on random documents both must write the same trace. After every cycle each
cluster's counted phase must equal `aggregate_phase` over its children, and
every asserting action's counted scope must answer as its snapshot does.
"""

import sys

import yaml
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from whatif.dsl import Template, parse_scenario, validate
from whatif.engine import Engine, dependency_satisfied
from whatif.expressions import STATE_FNS, ScopeJob, snapshot_scope
from whatif.lifecycle import Phase, aggregate_phase

from test_golden import AFTER_RACE, cluster_doc


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
    "task": Template("task", {"services": None, "dur": None},
                     "env: { TARGETS: '{{services}}' }\n"
                     "script:\n- { at: 0s, do: running }\n- { at: '{{dur}}', do: success }\n"),
}

seconds = st.integers(0, 4).map(lambda s: f"{s}s")


@st.composite
def cluster_assertions(draw, cluster, instances):
    """A state assertion over a cluster: any state fn or a phase, of the whole
    cluster or of one named instance, sometimes two comparisons joined."""

    def comparison():
        subject = draw(st.sampled_from(["", *(f"{cluster}-{i}" for i in range(instances))]))
        if draw(st.integers(0, 3)) == 0:
            op = draw(st.sampled_from(["==", "!="]))
            return f'{subject}.state.all() {op} "{draw(st.sampled_from([p.value for p in Phase]))}"'
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        return f"{subject}.state.{draw(st.sampled_from(STATE_FNS))}() {op} {draw(st.integers(0, instances))}"

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
    order within a cycle and `after:` timers racing other events.
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
                action["assertions"] = draw(st.lists(cluster_assertions(name, instances), min_size=1, max_size=2))
        elif kind == "Call":
            targets = draw(st.lists(
                st.sampled_from(services + [f".cluster.{c}.all" for c in clusters]),
                min_size=1, max_size=2, unique=True))
            action["call"] = {"callable": "task", "services": targets, "inputs": [{"dur": draw(seconds)}]}
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


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
@example(PASS_ORDER)
@example(AFTER_RACE)
@example(TOLERATED_KILLS)
@example(ONE_KILL)
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
