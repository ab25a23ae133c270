"""Reference implementations that the tests compare the program against."""

from whatif.lifecycle import ResourceNode, advance_to, aggregate_phase, find_node, phase_order


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
