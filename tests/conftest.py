import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from leveltree.levels import make_level_tree  # noqa: E402

F = Fraction


@pytest.fixture
def nested_tree():
    """Four edges: a weighted child of the root two gaps down, and a bare
    middle vertex one gap down carrying two weighted children."""
    return make_level_tree(
        root="o",
        parent={"a": "o", "b": "o", "c": "b", "d": "b"},
        weight={"o": 0, "a": 1, "b": 0, "c": 1, "d": 1},
        level={"o": 0, "a": -2, "b": -1, "c": -2, "d": -2},
    )


@pytest.fixture
def deep_fan():
    """Thirteen vertices over six occupied levels, with two edges dropping
    below the bottom weighted level and three edges fully below it."""
    return make_level_tree(
        root="o",
        parent={"v1": "o", "v2": "o", "p3": "v1", "v3": "p3", "a1": "p3",
                "b1": "v2", "b2": "v2", "b3": "b2", "b4": "v2",
                "w0": "v1", "c1": "w0", "c2": "w0"},
        weight={"o": 0, "v1": 0, "v2": 0, "p3": 0, "v3": 1, "a1": 1,
                "b1": 1, "b2": 1, "b3": 1, "b4": 1, "w0": 0, "c1": 1, "c2": 1},
        level={"o": 0, "v1": -1, "v2": -2, "p3": -2, "v3": -3, "a1": -3,
               "b1": -3, "b2": -3, "b3": F(-7, 2), "b4": F(-7, 2),
               "w0": F(-7, 2), "c1": -4, "c2": -4},
    )


@pytest.fixture
def deep_fan_special():
    return {F(-1): "v1", F(-2): "v2", F(-3): "v3"}


@pytest.fixture
def boundary_tree():
    """Minimal instance where contracting the middle level parks a dropping
    edge's upper endpoint exactly on the new bottom level."""
    return make_level_tree(
        root="o",
        parent={"p": "o", "r": "o", "q": "p"},
        weight={"o": 0, "p": 0, "r": 1, "q": 1},
        level={"o": 0, "p": -1, "r": -2, "q": -3},
    )
