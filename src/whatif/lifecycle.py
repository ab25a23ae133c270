"""Shared lifecycle semantics for every resource the engine manages.

All managed resources (scenario, clusters, services, calls, faults,
checkpoints) carry the same five-value phase field and move along a single
legal chain:

    Uninitialized -> Pending -> Running -> Success | Failed

Success and Failed are terminal. Parents with children derive their phase
from their children via ``aggregate_phase``, and failure classification
(expected chaos vs. application bug) is decided by the fault kind a chaos
action marks on a service before it injects the fault.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, Optional, Sequence

from .errors import IllegalTransition

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


class ResourceNode:
    """One node of the ownership tree (scenario, action, or child job).

    Nodes compare by identity: each stands for one resource of the run.
    """

    __slots__ = (
        "name", "kind", "phase", "owner", "children", "chaos",
        "failure_reason", "failure_class", "tolerated", "phase_times",
    )

    def __init__(
        self,
        name: str,
        kind: str = "service",
        phase: Phase = Phase.UNINITIALIZED,
        owner: Optional["ResourceNode"] = None,
        children: Optional[list["ResourceNode"]] = None,
        chaos: Optional[str] = None,
        failure_reason: Optional[str] = None,
        failure_class: Optional[FailureClass] = None,
        tolerated: int = 0,
        phase_times: Optional[dict[Phase, float]] = None,
    ):
        self.name = name
        self.kind = kind
        self.phase = phase
        self.owner = owner
        self.children = [] if children is None else children
        self.chaos = chaos  # kind of the fault aimed at this service until it is revoked
        self.failure_reason = failure_reason
        self.failure_class = failure_class
        self.tolerated = tolerated
        self.phase_times = {} if phase_times is None else phase_times

    def add_child(self, child: "ResourceNode") -> "ResourceNode":
        child.owner = self
        self.children.append(child)
        return child


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


def classify_failure(node: ResourceNode, observed_mode: str) -> FailureClass:
    """Decide whether a failure was part of the experiment.

    Expected only when a fault of the observed failure mode is aimed at the
    node; a kill does not excuse an unrelated crash.
    """
    if node.chaos is not None and node.chaos == observed_mode:
        return FailureClass.EXPECTED
    return FailureClass.UNEXPECTED


def phase_order(p: Phase) -> int:
    """Position of a phase on the lifecycle chain; Failed sorts after Success."""
    return (Phase.UNINITIALIZED, Phase.PENDING, Phase.RUNNING, Phase.SUCCESS, Phase.FAILED).index(p)
