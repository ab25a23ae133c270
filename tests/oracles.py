"""Reference implementations that the tests compare the program against."""

import json
from pathlib import Path

from whatif.lifecycle import Phase, ResourceNode, advance_to, aggregate_phase, find_node, iter_nodes, phase_order
from whatif.trace import TraceRecord


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


def load_trace_per_line(path) -> list[TraceRecord]:
    """The records of a trace file, each line read by ``json.loads``: the reference for ``trace.load_trace``."""
    records = []
    for number, line in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        if not line.strip():
            continue
        payload = json.loads(line)
        if not (isinstance(payload, dict) and isinstance(payload.get("seq"), int)
                and isinstance(payload.get("at"), (int, float)) and isinstance(payload.get("kind"), str)):
            raise ValueError(f"line {number} is not a record with a seq, an at and a kind")
        seq = payload.pop("seq")
        at = payload.pop("at")
        kind = payload.pop("kind")
        records.append(TraceRecord(seq, at, kind, payload))
    return records
