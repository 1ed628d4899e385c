"""One connectivity oracle for a finished layer, shared by the tests."""


def union_find_reason(nodes, edges):
    """The layer check builds ran before they checked each walk as it
    joined, kept as an oracle: a union-find over the traced edges (one dict,
    path halving). Why the layer fails, or None if it is one part with every
    edge end inside it."""
    if not nodes:
        return "empty layer"
    root = dict(zip(nodes, nodes))
    parts = len(nodes)
    try:
        for a, b in edges:
            # Two statements per halving step: `a = root[a] = root[root[a]]`
            # would assign to root at the new a and break the forest.
            while root[a] != a:
                root[a] = root[root[a]]
                a = root[a]
            while root[b] != b:
                root[b] = root[root[b]]
                b = root[b]
            if a != b:
                root[a] = b
                parts -= 1
    except KeyError as exc:
        return f"traced edge leaves the layer at node {exc.args[0]}"
    return None if parts == 1 else "layer is not connected through traced edges"
