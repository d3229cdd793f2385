import json
import re
import tracemalloc

import pytest

from leveltree.errors import StructureError
from leveltree.tree import RootedTree, WeightedTree, to_dot, tree_json


def chain(n):
    parent = {f"v{k}": (f"v{k-1}" if k > 1 else "o") for k in range(1, n + 1)}
    return RootedTree(root="o", parent=parent)


def test_vertex_order(nested_tree):
    # v >= w iff v lies on the path from w to the root
    path = nested_tree.tree.root_path
    assert path("c") == ("c", "b", "o")
    assert "o" in path("c") and "c" not in path("o")
    assert "a" not in path("b") and "b" not in path("a")


def test_edges_biject_with_nonroot_vertices(deep_fan):
    tree = deep_fan.tree
    assert tree.edges == tree.vertices - {tree.root} == set(tree.parent)


def test_single_vertex_tree():
    t = RootedTree(root="o", parent={})
    assert t.edges == frozenset()
    assert t.vertices == {"o"} and t.children("o") == ()


def test_cycle_and_orphan_rejection():
    with pytest.raises(StructureError):
        RootedTree(root="o", parent={"a": "b", "b": "a"})
    with pytest.raises(StructureError):
        RootedTree(root="o", parent={"a": "ghost"})
    with pytest.raises(StructureError):
        RootedTree(root="o", parent={"o": "a", "a": "o"})
    with pytest.raises(StructureError, match="^cycle through 'a'$"):
        RootedTree(root="o", parent={"a": "a"})  # a self-loop
    with pytest.raises(StructureError, match="^cycle through 'b'$"):
        # a chain running into a cycle
        RootedTree(root="o", parent={"c": "b", "b": "a", "a": "b", "d": "o"})
    with pytest.raises(StructureError, match="^cycle through 'a'$"):
        # a cycle the root cannot reach
        RootedTree(root="o", parent={"r": "o", "a": "b", "b": "c", "c": "a"})


def test_long_path_builds():
    tree = chain(2000)
    assert len(tree.root_path("v2000")) == 2001
    assert tree.children("v2000") == ()


def test_long_path_holds_linear_memory():
    # the tree keeps its parent and child maps, no root path per vertex
    tracemalloc.start()
    try:
        tree = chain(8000)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 10 * 2 ** 20
    assert len(tree.root_path("v8000")) == 8001


def test_weight_validation(nested_tree):
    with pytest.raises(StructureError):
        WeightedTree(tree=nested_tree.tree, weight={"o": 0})
    with pytest.raises(StructureError):
        WeightedTree(tree=nested_tree.tree,
                     weight={"o": 0, "a": -1, "b": 0, "c": 0, "d": 0})


def test_stability(nested_tree, boundary_tree):
    assert nested_tree.base.is_stable()  # the bare vertex has three edges
    assert not boundary_tree.base.is_stable()  # p has only two


def test_json_round_trip(deep_fan):
    blob = json.loads(tree_json(deep_fan.base, deep_fan.level))
    again = WeightedTree.from_json_dict(blob)
    assert again == deep_fan.base


def test_dot_output_mentions_every_edge(nested_tree):
    dot = to_dot(nested_tree.base, nested_tree.level)
    assert dot.startswith("digraph")
    for e in nested_tree.tree.edges:
        assert f'"{e}"' in dot
    # names holding a quote or a backslash are escaped inside their quotes
    odd = WeightedTree(tree=RootedTree(root="o", parent={'a"b': "o", "c\\d": 'a"b'}),
                       weight={"o": 0, 'a"b': 1, "c\\d": 1})
    dot = to_dot(odd, {"o": 0, 'a"b': -1, "c\\d": -2})
    assert '"a\\"b" -> "c\\\\d" [label="c\\\\d"];' in dot
    # every quote opens or closes a well-formed DOT string
    assert '"' not in re.sub(r'"(?:[^"\\]|\\.)*"', "", dot)
