import os
from itertools import product

import pytest
from hypothesis import settings

from rtmtools import (
    SINK,
    SOURCE,
    BoundQuiver,
    Quiver,
    RootedTree,
    TreeOverQ,
    find_nonidentity_idempotent,
    random_instance,
    split,
)

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run, and a
# failure prints the blob that replays it locally (@reproduce_failure).
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def loop_tail_quiver() -> BoundQuiver:
    """Two vertices, an arrow beta into a vertex carrying a loop alpha, alpha^2 = 0."""
    q = Quiver(["1", "2"], [("beta", "1", "2"), ("alpha", "2", "2")])
    return BoundQuiver(q, [("alpha", "alpha")])


@pytest.fixture
def sink_tree(loop_tail_quiver) -> TreeOverQ:
    """Five-vertex sink tree whose module splits off one simple summand."""
    tree = RootedTree(
        [1, 2, 3, 4, 5],
        [("a2", 2, 1), ("a3", 3, 1), ("a4", 4, 1), ("a5", 5, 2)],
        SINK,
    )
    return TreeOverQ(
        tree,
        loop_tail_quiver,
        {1: "2", 2: "2", 3: "1", 4: "2", 5: "1"},
        {"a2": "alpha", "a3": "beta", "a4": "alpha", "a5": "beta"},
    )


@pytest.fixture
def two_loop_quiver() -> BoundQuiver:
    """One vertex with loops alpha and beta, all eight length-3 words zero."""
    q = Quiver(["1"], [("alpha", "1", "1"), ("beta", "1", "1")])
    rels = [tuple(w) for w in product(["alpha", "beta"], repeat=3)]
    return BoundQuiver(q, rels)


@pytest.fixture
def source_tree_factory(two_loop_quiver):
    """Depth-two source trees over the two-loop quiver, one per label choice."""

    def build(a2: str, a3: str, a4: str, a5: str) -> TreeOverQ:
        tree = RootedTree(
            [1, 2, 3, 4, 5],
            [("a2", 1, 2), ("a3", 1, 3), ("a4", 2, 4), ("a5", 3, 5)],
            SOURCE,
        )
        return TreeOverQ(
            tree,
            two_loop_quiver,
            {n: "1" for n in range(1, 6)},
            {"a2": a2, "a3": a3, "a4": a4, "a5": a5},
        )

    return build


SINK_DOCUMENT = """\
# five-vertex sink tree over the loop-tail quiver
QUIVER
vertex 1
vertex 2
arrow alpha 2 2
arrow beta 1 2
RELATIONS
rel alpha alpha
TREE SINK
node 1 2
node 2 2
node 3 1
node 4 2
node 5 1
arrow a2 2 1 alpha
arrow a3 3 1 beta
arrow a4 4 1 alpha
arrow a5 5 2 beta
"""


@pytest.fixture
def sink_document() -> str:
    return SINK_DOCUMENT


def source_document(a2: str, a3: str, a4: str, a5: str) -> str:
    rels = "\n".join(
        "rel " + " ".join(w) for w in product(["alpha", "beta"], repeat=3)
    )
    return (
        "QUIVER\nvertex 1\narrow alpha 1 1\narrow beta 1 1\nRELATIONS\n"
        + rels
        + "\nTREE SOURCE\nnode 1 1\nnode 2 1\nnode 3 1\nnode 4 1\nnode 5 1\n"
        + f"arrow a2 1 2 {a2}\narrow a3 1 3 {a3}\narrow a4 2 4 {a4}\narrow a5 3 5 {a5}\n"
    )


@pytest.fixture
def source_document_factory():
    return source_document


@pytest.fixture(scope="session")
def random_splits():
    """(tree, split) for every decomposable `random_instance`, seeds 0-199, both orientations, p = 3 or 5."""
    out = []
    for seed in range(200):
        for orientation in (SINK, SOURCE):
            t = random_instance(seed, orientation)
            endo = find_nonidentity_idempotent(t)
            if endo is not None:
                out.append((t, split(t, endo, (3, 5)[seed % 2])))
    assert len(out) >= 90
    return out
