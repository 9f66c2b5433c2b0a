"""The layer entry points the benchmark trace wraps in ``repro.graphs.alldense``.

``perfbench`` replays a query's worlds with counting wrappers set on
these module attributes; a refactor that renames one, or stops calling it
through the module, silently zeroes that layer's metrics.
"""
import numpy as np
import pytest

from repro.graphs import alldense

WRAPPED = ("charikar_peel", "k_core_nodes", "instance_peel", "instance_core",
           "list_cliques", "enumerate_instances", "goldberg_search")

# K4 with a pendant: it has edges, triangles and 2-stars.
GRAPH = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3], [3, 4]])

REACHED = {
    "edge": {"charikar_peel", "k_core_nodes", "goldberg_search"},
    "clique:3": {"list_cliques", "instance_peel", "instance_core", "goldberg_search"},
    "2-star": {"enumerate_instances", "instance_peel", "instance_core", "goldberg_search"},
}
# Lengths of the instance lists the wrappers see: 4 triangles, 15 2-stars.
LISTED = {"edge": [], "clique:3": [4], "2-star": [15]}


@pytest.mark.parametrize("notion", list(REACHED))
def test_all_densest_reaches_wrapped_entry_points(monkeypatch, notion):
    calls = {name: 0 for name in WRAPPED}
    listed = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            if name in ("list_cliques", "enumerate_instances"):
                listed.append(len(out))
            return out
        return wrapper

    for name in WRAPPED:
        monkeypatch.setattr(alldense, name, counting(name, getattr(alldense, name)))
    res = alldense.all_densest(GRAPH, notion)
    assert res.subgraphs
    assert {name for name, c in calls.items() if c} == REACHED[notion]
    assert listed == LISTED[notion]
