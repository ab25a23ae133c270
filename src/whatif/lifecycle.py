"""Shared lifecycle semantics for every resource the engine manages.

All managed resources (scenario, clusters, services, calls, faults,
checkpoints) carry the same five-value phase field and move along a single
legal chain, which is the declaration order of ``Phase``:

    Uninitialized -> Pending -> Running -> Success | Failed

Success and Failed are terminal. ``phase_order``, ``transition`` and
``advance_to`` all read the chain from that order. Parents with children
derive their phase from how many children sit in each ``slot``
(``counted_phase``; ``aggregate_phase`` counts a list of children first).
A Failed node's class (expected chaos vs. application bug) is set by the
engine, which keeps the record of the faults in effect.

The engine reads these on every event, so they are cheap: ``Phase`` and
``FailureClass`` members hash by identity (each is a singleton, and
``Enum``'s own hash is Python code), and ``terminal`` is a plain attribute
set on each member when the enum is built. No run iterates a set of
phases, so identity hashes, which differ between processes, never reach a
trace.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, Optional, Sequence

from .errors import IllegalTransition


class Phase(Enum):
    UNINITIALIZED = "Uninitialized"
    PENDING = "Pending"
    RUNNING = "Running"
    SUCCESS = "Success"
    FAILED = "Failed"

    def __init__(self, value: str):
        self.terminal = value in ("Success", "Failed")

    __hash__ = object.__hash__  # members are singletons; Enum's own hash is Python code

    def __str__(self) -> str:
        return self.value


class FailureClass(Enum):
    EXPECTED = "Expected"
    UNEXPECTED = "Unexpected"

    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


# The chain in declaration order. There are no skips: a resource that fails
# before it ever ran still passes through Running on its way down, so every
# phase history is a prefix of U, P, R, (S|F).
_PHASES = tuple(Phase)
_ORDER = {phase: index for index, phase in enumerate(_PHASES)}

# Phase counts have one slot per phase, then one for Failed children that
# are not classified Expected (see ``slot``).
SLOTS = len(_PHASES) + 1


class ResourceNode:
    """One node of the ownership tree (scenario, action, or child job).

    Nodes compare by identity: each stands for one resource of the run.
    """

    __slots__ = (
        "name", "kind", "phase", "owner", "children",
        "failure_reason", "failure_class", "tolerated", "phase_times",
    )

    def __init__(
        self,
        name: str,
        kind: str = "service",
        phase: Phase = Phase.UNINITIALIZED,
        owner: Optional["ResourceNode"] = None,
        children: Optional[list["ResourceNode"]] = None,
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


def _next(phase: Phase, target: Phase) -> Phase:
    """The phase after the non-terminal ``phase`` on the way to ``target``."""
    nxt = _PHASES[_ORDER[phase] + 1]
    return target if nxt.terminal and target.terminal else nxt


def transition(node: ResourceNode, to: Phase, at: float = 0.0) -> ResourceNode:
    """Move a node along one legal edge of the lifecycle chain.

    A transition to the node's current phase is a no-op. Anything off the
    legal chain raises IllegalTransition, which signals an engine bug and
    aborts the run.
    """
    if to is node.phase:
        return node
    if node.phase.terminal or to is not _next(node.phase, to):
        raise IllegalTransition(f"{node.name}: {node.phase} -> {to}")
    node.phase = to
    node.phase_times[to] = at  # the chain enters each phase once
    return node


def advance_to(node: ResourceNode, target: Phase, at: float = 0.0) -> list[Phase]:
    """Walk the node forward to ``target`` through every intermediate phase.

    Returns the phases actually entered, in order, so the caller can record
    each hop. Moving backwards raises IllegalTransition.
    """
    if node.phase is target:
        return []
    if node.phase.terminal or _ORDER[target] < _ORDER[node.phase]:
        raise IllegalTransition(f"{node.name}: {node.phase} -> {target}")
    hops: list[Phase] = []
    while node.phase is not target:
        transition(node, _next(node.phase, target), at)
        hops.append(node.phase)
    return hops


def slot(phase: Phase, failure_class: Optional[FailureClass]) -> int:
    """Index of a child's phase in phase counts: its place on the chain, or
    the last slot for a Failed child not classified Expected."""
    if phase is Phase.FAILED and failure_class is not FailureClass.EXPECTED:
        return SLOTS - 1
    return _ORDER[phase]


def counted_phase(counts: Sequence[int], tolerated: int) -> Phase:
    """A parent's phase from its children's counts per ``slot``.

    Failed children classified Expected count against ``tolerated``; once
    within tolerance they are treated as completed, so a cluster that
    absorbed a declared fault can still reach Success. Any other Failed
    child fails the parent.
    """
    uninitialized, pending, running, _, expected, unexpected = counts
    if unexpected or expected > tolerated:
        return Phase.FAILED
    if uninitialized or pending:
        return Phase.PENDING
    if running:
        return Phase.RUNNING
    return Phase.SUCCESS


def aggregate_phase(
    children: Sequence[tuple[Phase, Optional[FailureClass]]],
    tolerated: int = 0,
) -> Phase:
    """Derive a parent's phase from its children's (phase, failure class) pairs."""
    if tolerated < 0:
        raise ValueError("tolerated must be >= 0")
    counts = [0] * SLOTS
    for phase, failure_class in children:
        counts[slot(phase, failure_class)] += 1
    return counted_phase(counts, tolerated)


def phase_order(p: Phase) -> int:
    """Position of a phase on the lifecycle chain; Failed sorts after Success."""
    return _ORDER[p]
