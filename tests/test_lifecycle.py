"""Phase chain, aggregation, the engine's fault table, classification, propagation."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from whatif.dsl import parse_scenario
from whatif.engine import Engine
from whatif.errors import IllegalTransition
from whatif.events import Event, EventKind
from whatif.executors.base import Executor
from whatif.dsl import FAULT_KINDS
from whatif.lifecycle import (
    FailureClass,
    Phase,
    ResourceNode,
    advance_to,
    aggregate_phase,
    find_node,
)

from conftest import script_template
from oracles import propagate, transition

U, P, R, S, F = Phase.UNINITIALIZED, Phase.PENDING, Phase.RUNNING, Phase.SUCCESS, Phase.FAILED
EXP, UNEXP = FailureClass.EXPECTED, FailureClass.UNEXPECTED

# Every way one child can look to its parent: four live phases, plus Failed
# split by classification (None behaves as Unexpected).
CHILD_KINDS = [(U, None), (P, None), (R, None), (S, None), (F, EXP), (F, UNEXP), (F, None)]


class TestTransition:
    def test_pending_to_running(self):
        node = ResourceNode("n", phase=P)
        transition(node, R)
        assert node.phase is R

    def test_uninitialized_to_pending(self):
        node = ResourceNode("n")
        transition(node, P)
        assert node.phase is P

    def test_terminal_guard(self):
        node = ResourceNode("n", phase=S)
        with pytest.raises(IllegalTransition):
            transition(node, F)

    def test_no_skips_no_backwards(self):
        legal = {(U, P), (P, R), (R, S), (R, F)}
        for a, b in itertools.product(Phase, Phase):
            node = ResourceNode("n", phase=a)
            if (a, b) in legal or a == b:
                transition(node, b)
            else:
                with pytest.raises(IllegalTransition):
                    transition(node, b)

    def test_same_phase_is_noop(self):
        node = ResourceNode("n", phase=R)
        transition(node, R)
        assert node.phase is R

    def test_advance_walks_the_chain(self):
        node = ResourceNode("n")
        hops = advance_to(node, F, at=3.0)
        assert hops == [P, R, F]
        assert node.phase is F
        assert node.phase_times[R] == 3.0

    @pytest.mark.parametrize("start", list(Phase))
    @pytest.mark.parametrize("target", list(Phase))
    def test_advance_takes_the_one_walk_of_legal_edges(self, start, target):
        """``advance_to`` sets each hop itself: its hops are the one walk of edges ``transition``
        accepts, and it raises, leaving the node as it was, where there is no such walk."""

        def walks(phase):
            if phase is target:
                return [[]]
            found = []
            for nxt in Phase:
                try:
                    transition(ResourceNode("r", phase=phase), nxt)
                except IllegalTransition:
                    continue
                if nxt is not phase:
                    found += [[nxt, *rest] for rest in walks(nxt)]
            return found

        node = ResourceNode("n", phase=start)
        expected = walks(start)
        if not expected:
            with pytest.raises(IllegalTransition):
                advance_to(node, target, at=2.0)
            assert (node.phase, node.phase_times) == (start, {})
            return
        assert len(expected) == 1
        assert advance_to(node, target, at=2.0) == expected[0]
        assert node.phase is target
        assert node.phase_times == dict.fromkeys(expected[0], 2.0)


class TestAggregate:
    def test_all_success(self):
        assert aggregate_phase([(S, None)] * 3, 0) is S

    def test_one_still_running(self):
        assert aggregate_phase([(S, None), (R, None), (S, None)], 0) is R

    def test_tolerated_expected_failure(self):
        children = [(S, None), (F, EXP), (S, None)]
        assert aggregate_phase(children, 1) is S
        assert aggregate_phase(children, 0) is F

    def test_unexpected_always_fails(self):
        assert aggregate_phase([(S, None), (F, UNEXP)], 5) is F

    def test_pending_wins_over_running(self):
        assert aggregate_phase([(R, None), (U, None)], 0) is P

    def test_empty_children_vacuously_succeed(self):
        assert aggregate_phase([], 0) is S

    def test_order_independence(self):
        children = [(S, None), (F, EXP), (R, None), (P, None)]
        results = {aggregate_phase(list(perm), 1) for perm in itertools.permutations(children)}
        assert len(results) == 1


def aggregate_oracle(children, tolerated):
    """Independent restatement of the lifecycle table, by literal counting."""
    n_unexpected = len([1 for p, c in children if p is F and c is not EXP])
    n_expected = len([1 for p, c in children if p is F and c is EXP])
    if n_unexpected > 0:
        return F
    if n_expected > tolerated:
        return F
    if any(p is U or p is P for p, _ in children):
        return P
    if any(p is R for p, _ in children):
        return R
    return S


def all_multisets(max_size):
    for size in range(max_size + 1):
        yield from itertools.combinations_with_replacement(CHILD_KINDS, size)


def test_aggregate_exhaustive_oracle():
    """Every child multiset of size <= 4 for every tolerance 0..3."""
    checked = 0
    for children in all_multisets(4):
        for tolerated in range(4):
            assert aggregate_phase(list(children), tolerated) is aggregate_oracle(children, tolerated), (
                children, tolerated,
            )
            checked += 1
    assert checked > 1000


class TestFaultTable:
    """The engine holds a suspend or partition in its fault table until the fault is revoked."""

    DOC = """
spec:
- action: Cluster
  name: masters
  cluster: { templateRef: node, instances: 2 }
- action: Chaos
  name: net
  depends: { running: [ masters ] }
  chaos: { fault: { kind: partition, source: masters-0, dst: masters-1, duration: 10s } }
"""

    def engine(self):
        templates = {"node": script_template("node", ["{ at: 0s, do: running }", "{ at: 60s, do: success }"])}
        return Engine(parse_scenario(self.DOC), templates)

    def test_filled_at_injection(self, monkeypatch):
        engine = self.engine()
        end_fault = engine._end_fault
        seen = []

        def spy(action):
            seen.append((engine.now, action, dict(engine.in_effect)))
            return end_fault(action)

        monkeypatch.setattr(engine, "_end_fault", spy)
        engine.run()
        spec = engine.plan.faults["net"]
        assert seen == [(10.0, "net", {"net": spec})]

    def test_empty_after_the_revoke(self):
        engine = self.engine()
        result = engine.run()
        revokes = [(r.at, r.data["target"]) for r in result.trace if r.kind == "command" and r.data["verb"] == "RevokeFault"]
        assert revokes == [(10.0, "net")]  # at the fault's end, not at the run's
        assert engine.in_effect == {}


class ObservingExecutor(Executor):
    """Brings each job up at once, applies no fault, and fails job ``t`` at 1 s in the observed mode."""

    name = "sim"

    def __init__(self, mode):
        self.mode = mode

    def start_job(self, spec):
        self._emit(spec.name, P)
        self._emit(spec.name, R)
        if spec.name == "t":
            self.queue.push(1.0, Event(EventKind.STATE, subject="t", phase=F, failure_mode=self.mode))

    def kill_job(self, name):
        pass

    def inject_fault(self, action, spec):
        pass

    def revoke_fault(self, action, resume):
        pass


class TestClassify:
    """A failure is Expected exactly when it is observed as a kill while a kill fault watches its job."""

    @staticmethod
    def failure_class(fault, mode):
        doc = """
spec:
- action: Service
  name: t
  service: { script: [ { at: 0s, do: running } ] }
- action: Service
  name: u
  service: { script: [ { at: 0s, do: running } ] }
"""
        if fault is not None:
            body = {
                "kill": "kind: kill, targets: [t]",
                "suspend": "kind: suspend, targets: [t], duration: 10s",
                "partition": "kind: partition, source: t, dst: u, duration: 10s",
            }[fault]
            doc += f"- action: Chaos\n  name: f\n  depends: {{ running: [t, u] }}\n  chaos: {{ fault: {{ {body} }} }}\n"
        result = Engine(parse_scenario(doc), executor=ObservingExecutor(mode)).run()
        failed = [r.data for r in result.trace if r.kind == "transition" and r.data["to"] == "Failed"]
        assert [data["subject"] for data in failed[:1]] == ["t"]
        return failed[0]["class"]

    @pytest.mark.parametrize("fault", list(FAULT_KINDS) + [None])
    @pytest.mark.parametrize("mode", ["kill", "crash"])
    def test_table(self, fault, mode):
        expected = "Expected" if (fault, mode) == ("kill", "kill") else "Unexpected"
        assert self.failure_class(fault, mode) == expected


# --- propagation ------------------------------------------------------------


def build_random_tree(rng: random.Random, max_depth=4, max_children=6):
    """A consistent ownership tree: internal phases equal their aggregates."""
    counter = itertools.count()

    def build(depth):
        node = ResourceNode(f"n{next(counter)}")
        if depth < max_depth and rng.random() < 0.6:
            node.kind = "cluster"
            node.tolerated = rng.randint(0, 2)
            for _ in range(rng.randint(1, max_children)):
                node.add_child(build(depth + 1))
        else:
            phase, fclass = rng.choice(CHILD_KINDS)
            node.phase = phase
            node.failure_class = fclass
        return node

    root = build(1)
    recompute_bottom_up(root)
    return root


def recompute_bottom_up(node):
    for child in node.children:
        recompute_bottom_up(child)
    if node.children:
        node.phase = aggregate_oracle(
            [(c.phase, c.failure_class) for c in node.children], node.tolerated,
        )


def running_leaves(node):
    if not node.children:
        return [node] if node.phase is R else []
    out = []
    for child in node.children:
        out.extend(running_leaves(child))
    return out


def test_propagate_examples():
    root = ResourceNode("scenario", kind="scenario")
    cluster = root.add_child(ResourceNode("masters", kind="cluster", phase=R))
    for i in range(4):
        cluster.add_child(ResourceNode(f"masters-{i}", phase=R))

    # Unexpected child failure with zero tolerance fails the cluster.
    node = find_node(cluster, "masters-0")
    node.phase = F
    node.failure_class = UNEXP
    propagate(cluster, "masters-0")
    assert cluster.phase is F

    # Expected failure within tolerance keeps the cluster running.
    root2 = ResourceNode("scenario", kind="scenario")
    cluster2 = root2.add_child(ResourceNode("masters", kind="cluster", phase=R))
    cluster2.tolerated = 1
    for i in range(4):
        cluster2.add_child(ResourceNode(f"masters-{i}", phase=R))
    node = find_node(cluster2, "masters-0")
    node.phase = F
    node.failure_class = EXP
    propagate(cluster2, "masters-0")
    assert cluster2.phase is R


def test_propagate_missing_leaf_is_noop():
    tree = ResourceNode("scenario", kind="scenario")
    before = tree.phase
    propagate(tree, "ghost")
    assert tree.phase is before and tree.children == []


@pytest.mark.parametrize("seed", range(120))
def test_propagate_matches_bottom_up_recompute(seed):
    rng = random.Random(seed)
    tree = build_random_tree(rng)
    leaves = running_leaves(tree)
    if not leaves:
        return
    victim = rng.choice(leaves)
    victim.phase = F
    victim.failure_class = rng.choice([EXP, UNEXP, None])

    propagate(tree, victim.name)
    actual = {n.name: n.phase for n in iter_all(tree)}

    recompute_bottom_up(tree)
    expected = {n.name: n.phase for n in iter_all(tree)}
    assert actual == expected


def iter_all(node):
    yield node
    for child in node.children:
        yield from iter_all(child)


# --- phase monotonicity property ----------------------------------------------

@given(st.lists(st.sampled_from(list(Phase)), max_size=8))
@settings(max_examples=200)
def test_phase_sequences_are_chain_prefixes(targets):
    """However a node is driven, its history is a prefix of U,P,R,(S|F)."""
    node = ResourceNode("n")
    history = [node.phase]
    for target in targets:
        try:
            transition(node, target)
        except IllegalTransition:
            continue
        if history[-1] is not node.phase:
            history.append(node.phase)
    chains = [[U, P, R, S], [U, P, R, F]]
    assert any(history == chain[: len(history)] for chain in chains)
