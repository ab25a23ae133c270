"""Shared lifecycle semantics for every resource the engine manages.

All managed resources (scenario, clusters, services, calls, faults,
checkpoints) carry the same five-value phase field and move along a single
legal chain:

    Uninitialized -> Pending -> Running -> Success | Failed

Success and Failed are terminal. Parents with children derive their phase
from their children via ``aggregate_phase``, and failure classification
(expected chaos vs. application bug) is decided by the chaos tag placed on
a service before a fault is injected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional, Sequence

from .errors import IllegalTransition, UnknownService

META_CHAOS_KEY = "metadata.Chaos"
META_CHAOS_SOURCE_KEY = "metadata.Chaos.source"

FAULT_KINDS = ("kill", "partition", "suspend")


class Phase(Enum):
    UNINITIALIZED = "Uninitialized"
    PENDING = "Pending"
    RUNNING = "Running"
    SUCCESS = "Success"
    FAILED = "Failed"

    @property
    def terminal(self) -> bool:
        return self in (Phase.SUCCESS, Phase.FAILED)

    def __str__(self) -> str:
        return self.value


class FailureClass(Enum):
    EXPECTED = "Expected"
    UNEXPECTED = "Unexpected"

    def __str__(self) -> str:
        return self.value


# Legal edges of the lifecycle chain. There are no skips: a resource that
# fails before it ever ran still passes through Running on its way down,
# so every phase history is a prefix of U, P, R, (S|F).
LEGAL_TRANSITIONS = {
    (Phase.UNINITIALIZED, Phase.PENDING),
    (Phase.PENDING, Phase.RUNNING),
    (Phase.RUNNING, Phase.SUCCESS),
    (Phase.RUNNING, Phase.FAILED),
}

_CHAIN = (Phase.UNINITIALIZED, Phase.PENDING, Phase.RUNNING)


@dataclass(frozen=True)
class ChaosTag:
    """Marker placed on a service before a fault targets it."""

    fault_kind: str  # kill | partition | suspend
    source_action: str

    key = META_CHAOS_KEY


@dataclass
class ResourceNode:
    """One node of the ownership tree (scenario, action, or child job)."""

    name: str
    kind: str = "service"
    phase: Phase = Phase.UNINITIALIZED
    owner: Optional["ResourceNode"] = field(default=None, repr=False)
    children: list["ResourceNode"] = field(default_factory=list)
    meta: dict[str, str] = field(default_factory=dict)
    failure_reason: Optional[str] = None
    failure_class: Optional[FailureClass] = None
    tolerated: int = 0
    phase_times: dict[Phase, float] = field(default_factory=dict)

    def add_child(self, child: "ResourceNode") -> "ResourceNode":
        child.owner = self
        self.children.append(child)
        return child

    @property
    def chaos_tag(self) -> Optional[ChaosTag]:
        kind = self.meta.get(META_CHAOS_KEY)
        if kind is None:
            return None
        return ChaosTag(kind, self.meta.get(META_CHAOS_SOURCE_KEY, ""))


def iter_nodes(tree: ResourceNode) -> Iterator[ResourceNode]:
    """Yield tree nodes in depth-first, child-order traversal."""
    yield tree
    for child in tree.children:
        yield from iter_nodes(child)


def find_node(tree: ResourceNode, name: str) -> Optional[ResourceNode]:
    for node in iter_nodes(tree):
        if node.name == name:
            return node
    return None


def transition(node: ResourceNode, to: Phase, at: float = 0.0) -> ResourceNode:
    """Move a node along one legal edge of the lifecycle chain.

    A transition to the node's current phase is a no-op. Anything off the
    legal chain raises IllegalTransition, which signals an engine bug and
    aborts the run.
    """
    if to == node.phase:
        return node
    if (node.phase, to) not in LEGAL_TRANSITIONS:
        raise IllegalTransition(f"{node.name}: {node.phase} -> {to}")
    node.phase = to
    node.phase_times.setdefault(to, at)
    return node


def advance_to(node: ResourceNode, target: Phase, at: float = 0.0) -> list[Phase]:
    """Walk the node forward to ``target`` through every intermediate phase.

    Returns the phases actually entered, in order, so the caller can record
    each hop. Moving backwards raises IllegalTransition.
    """
    order = list(_CHAIN) + [target if target.terminal else Phase.SUCCESS]
    if node.phase.terminal:
        if node.phase == target:
            return []
        raise IllegalTransition(f"{node.name}: {node.phase} -> {target}")
    if not target.terminal and order.index(target) < order.index(node.phase):
        raise IllegalTransition(f"{node.name}: {node.phase} -> {target}")
    hops: list[Phase] = []
    while node.phase != target:
        nxt = order[order.index(node.phase) + 1]
        transition(node, nxt, at)
        hops.append(nxt)
    return hops


def aggregate_phase(
    children: Sequence[tuple[Phase, Optional[FailureClass]]],
    tolerated: int = 0,
) -> Phase:
    """Derive a parent's phase from its children's phases.

    Failed children classified Expected count against ``tolerated``; once
    within tolerance they are treated as completed, so a cluster that
    absorbed a declared fault can still reach Success. A Failed child with
    no classification is treated as Unexpected.
    """
    if tolerated < 0:
        raise ValueError("tolerated must be >= 0")
    unexpected = 0
    expected = 0
    for phase, fclass in children:
        if phase == Phase.FAILED:
            if fclass == FailureClass.EXPECTED:
                expected += 1
            else:
                unexpected += 1
    if unexpected > 0 or expected > tolerated:
        return Phase.FAILED
    if any(p in (Phase.UNINITIALIZED, Phase.PENDING) for p, _ in children):
        return Phase.PENDING
    if all(p == Phase.SUCCESS or p == Phase.FAILED for p, _ in children):
        # Failed children here are Expected and within tolerance.
        return Phase.SUCCESS
    return Phase.RUNNING


def tag_chaos_target(tree: ResourceNode, target_service: str, tag: ChaosTag) -> ResourceNode:
    """Place a chaos tag on the named service, before the fault is injected."""
    node = find_node(tree, target_service)
    if node is None:
        raise UnknownService(target_service)
    node.meta[META_CHAOS_KEY] = tag.fault_kind
    node.meta[META_CHAOS_SOURCE_KEY] = tag.source_action
    return tree


def revoke_chaos_tag(tree: ResourceNode, target_service: str) -> ResourceNode:
    """Remove the chaos tag when the fault window ends."""
    node = find_node(tree, target_service)
    if node is None:
        raise UnknownService(target_service)
    node.meta.pop(META_CHAOS_KEY, None)
    node.meta.pop(META_CHAOS_SOURCE_KEY, None)
    return tree


def classify_failure(node: ResourceNode, observed_mode: str) -> FailureClass:
    """Decide whether a failure was part of the experiment.

    Expected only when the node carries a chaos tag whose fault kind matches
    the observed failure mode; a kill tag does not excuse an unrelated crash.
    """
    tag = node.chaos_tag
    if tag is not None and tag.fault_kind == observed_mode:
        return FailureClass.EXPECTED
    return FailureClass.UNEXPECTED


def propagate(tree: ResourceNode, failed_leaf: str, at: float = 0.0) -> ResourceNode:
    """Re-aggregate ancestors of a failed leaf, bottom-up, within ``tree``.

    A leaf that does not exist is a no-op (nothing to propagate). Each
    ancestor with children is moved to its aggregate phase through legal
    intermediate hops; terminal ancestors are left alone.
    """
    leaf = find_node(tree, failed_leaf)
    if leaf is None:
        return tree
    node = leaf.owner
    while node is not None:
        if node.children and not node.phase.terminal:
            agg = aggregate_phase(
                [(c.phase, c.failure_class) for c in node.children],
                node.tolerated,
            )
            if phase_order(agg) > phase_order(node.phase):
                advance_to(node, agg, at)
        if node is tree:
            break
        node = node.owner
    return tree


def phase_order(p: Phase) -> int:
    """Position of a phase on the lifecycle chain; Failed sorts after Success."""
    return (Phase.UNINITIALIZED, Phase.PENDING, Phase.RUNNING, Phase.SUCCESS, Phase.FAILED).index(p)
