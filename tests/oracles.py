"""Reference implementations that the tests compare the program against."""

import json
import math
from pathlib import Path

from whatif.errors import IllegalTransition
from whatif.lifecycle import Phase, ResourceNode, advance_to, aggregate_phase, find_node, iter_nodes, phase_order
from whatif.trace import TraceRecord, check_record

# The legal edges of the lifecycle chain, written out: Uninitialized ->
# Pending -> Running -> Success | Failed.
LEGAL_EDGES = {
    Phase.UNINITIALIZED: (Phase.PENDING,),
    Phase.PENDING: (Phase.RUNNING,),
    Phase.RUNNING: (Phase.SUCCESS, Phase.FAILED),
}


def transition(node: ResourceNode, to: Phase, at: float = 0.0) -> ResourceNode:
    """Move a node along one legal edge of the lifecycle chain: the edge
    check that ``advance_to``'s hops are held to.

    A transition to the node's current phase is a no-op. Anything off the
    chain raises IllegalTransition.
    """
    if to is node.phase:
        return node
    if to not in LEGAL_EDGES.get(node.phase, ()):
        raise IllegalTransition(f"{node.name}: {node.phase} -> {to}")
    node.phase = to
    node.phase_times[to] = at
    return node


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


def assert_one_time_per_fact(engine) -> None:
    """The finished run's trace gives each fact one time: record times never
    decrease, and each transition record's ``at`` is the engine's phase time."""
    times = [record.at for record in engine.trace]
    assert times == sorted(times)
    nodes = {node.name: node for node in iter_nodes(engine.tree)}
    for record in engine.trace:
        if record.kind == "transition":
            phase_time = nodes[record.data["subject"]].phase_times[Phase(record.data["to"])]
            assert record.at == phase_time, (record.to_json(), phase_time)


def run_one_time_per_step(engine):
    """Run ``engine`` and check that each step's records carry its one clock
    reading, what ``engine.now`` held in it. The steps are the run start, each
    ``reconcile`` (its event's own record first), an ``_abort`` from outside a
    cycle and ``_finalize``; between them they write every record once.
    Checks ``assert_one_time_per_fact`` too, and returns the engine."""
    steps = []  # (method name, index of its first record, of the record after its last, engine.now)
    depth = 0

    def stepped(name, method):
        def step(*args):
            nonlocal depth
            if depth:  # called inside another step: part of it
                return method(*args)
            depth, start = 1, len(engine.trace)
            try:
                method(*args)
            finally:  # checked after the run: the engine turns an AssertionError into an abort
                depth = 0
                steps.append((name, start, len(engine.trace), engine.now))
        return step

    names = ("reconcile", "_abort", "_finalize")
    for name in names:
        setattr(engine, name, stepped(name, getattr(engine, name)))
    try:
        engine.run()
    finally:
        for name in names:
            delattr(engine, name)
    records = engine.trace.records
    head = records[:steps[0][1]]
    assert head and {record.at for record in head} == {head[0].at}, [r.to_json() for r in head]
    written = len(head)
    for name, start, end, now in steps:
        assert start == written, (name, start, written)  # no record outside a step
        step = records[start:end]
        assert all(record.at == now for record in step), (name, now, [r.to_json() for r in step])
        assert name != "reconcile" or not step or step[0].kind == "event", step[0].to_json()
        written = end
    assert written == len(records)
    assert_one_time_per_fact(engine)
    return engine


def load_trace_per_line(path) -> list[TraceRecord]:
    """The records of a trace file, each line read by ``json.loads``, checked by ``trace.check_record`` and then
    against the record before it: the reference for ``trace.load_trace``."""
    records = []
    for number, line in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        if not line.strip():
            continue
        payload = json.loads(line)
        seq, at = (payload.get("seq"), payload.get("at")) if isinstance(payload, dict) else (None, None)
        if not (isinstance(seq, int) and not isinstance(seq, bool)
                and isinstance(at, (int, float)) and not isinstance(at, bool) and at == at and abs(at) != math.inf
                and isinstance(payload.get("kind"), str)):
            raise ValueError(f"line {number} is not a record with a seq, an at and a kind")
        seq = payload.pop("seq")
        at = payload.pop("at")
        kind = payload.pop("kind")
        try:
            check_record(kind, payload)
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
        if seq != len(records):
            raise ValueError(f"line {number}: seq {seq} where {len(records)} is due")
        if not records and kind != "run":
            raise ValueError(f"line {number}: the first record is {kind}, not run")
        if records and (at < records[-1].at or records[-1].kind == "outcome"):
            raise ValueError(f"line {number}: {kind} at {at!r} after {records[-1].kind} at {records[-1].at!r}")
        records.append(TraceRecord(seq, at, kind, payload))
    return records
