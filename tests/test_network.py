"""Pullback networks, double covers, triangles, and the traversal census."""

import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtmtools import (
    SINK,
    SOURCE,
    BoundQuiver,
    PullbackNetwork,
    Quiver,
    RootedTree,
    TreeOverQ,
    maximal_r_free_traversals,
    random_instance,
    to_dot,
    triangles,
    two_cover,
)
from rtmtools.network import _edge
from test_ggm import _star


def links_at(net):
    """(kind, link, far end) for every link at each vertex of a network or a
    double cover; kind is f (along an arrow), b (against one) or e."""
    moves = {v: [] for v in net.vertices}
    for a in net.arrows:
        moves[a.source].append(("f", a, a.target))
        moves[a.target].append(("b", a, a.source))
    for u, w in net.edges:
        moves[u].append(("e", (u, w), w))
        moves[w].append(("e", (u, w), u))
    return moves


def blocked_triples(net):
    """The vertex sets of the listed triangles of a network, or of a double cover's base."""
    return {t.vertices for t in triangles(getattr(net, "base", net))}


def reference_walks(net):
    """The census by exhaustive search, as a reference for the count.

    Lists every maximal unblocked walk from every vertex and identifies a
    walk with its inverse by vertex sequence.  Maps the lesser of the two
    vertex sequences to the word of step kinds read along it.  A window is
    blocked when its projection (the first two coordinates) is a listed
    triangle.
    """
    moves, blocked = links_at(net), blocked_triples(net)

    def legal(prev, link, at):
        return [m for m in moves[at] if m[1] != link and frozenset(v[:2] for v in (prev, at, m[2])) not in blocked]

    walks = {}

    def extend(vseq, steps):
        nexts = legal(vseq[-2], steps[-1][1], vseq[-1])
        for kind, link, to in nexts:
            extend(vseq + (to,), steps + ((kind, link),))
        if not nexts and not legal(vseq[1], steps[0][1], vseq[0]):
            word = "".join(kind for kind, _ in steps)
            if vseq[::-1] < vseq:
                vseq, word = vseq[::-1], word[::-1].translate(str.maketrans("fb", "bf"))
            walks[vseq] = word

    for v in net.vertices:
        if not moves[v]:
            walks[(v,)] = ""
        for kind, link, to in moves[v]:
            extend((v, to), ((kind, link),))
    return walks


def census_keys(net):
    """Vertex sequences up to reversal; they determine traversals uniquely."""
    return set(reference_walks(net))


def test_network_of_sink_example(sink_tree):
    net = PullbackNetwork(sink_tree, sink_tree)
    assert len(net.vertices) == 13
    assert (5, 5) in net.vertices and (2, 4) in net.vertices and (4, 1) in net.vertices
    assert len(net.arrows) == 8
    assert set(net.edges) == {
        _edge((2, 2), (2, 4)),
        _edge((4, 2), (4, 4)),
        _edge((1, 2), (1, 4)),
    }
    assert set(net.forest_roots) == {(1, 1), (1, 4), (1, 2), (4, 1), (2, 1)}


def test_single_vertex_pair(loop_tail_quiver):
    t = TreeOverQ(RootedTree([1], [], SINK), loop_tail_quiver, {1: "2"}, {})
    net = PullbackNetwork(t, t)
    assert net.vertices == ((1, 1),)
    assert not net.arrows and not net.edges
    assert maximal_r_free_traversals(net) == 1
    assert reference_walks(net) == {((1, 1),): ""}


def test_orientation_mismatch_rejected(sink_tree, loop_tail_quiver):
    as_source = TreeOverQ(RootedTree([1], [], SOURCE), loop_tail_quiver, {1: "2"}, {})
    with pytest.raises(ValueError, match="orientation"):
        PullbackNetwork(sink_tree, as_source)


def test_codomain_mismatch_rejected(sink_tree, loop_tail_quiver):
    other = BoundQuiver(loop_tail_quiver.quiver, [])
    t2 = TreeOverQ(RootedTree([1], [], SINK), other, {1: "2"}, {})
    with pytest.raises(ValueError, match="bound quiver"):
        PullbackNetwork(sink_tree, t2)


def test_two_cover_doubles_everything(sink_tree):
    net = PullbackNetwork(sink_tree, sink_tree)
    cover = two_cover(net)
    assert len(cover.vertices) == 2 * len(net.vertices)
    assert len(cover.arrows) == 2 * len(net.arrows)
    assert len(cover.edges) == 2 * len(net.edges)
    assert {_edge((2, 2, 1), (2, 4, -1)), _edge((2, 2, -1), (2, 4, 1))} <= set(cover.edges)
    # the projection is two-to-one on vertices
    fibers = {}
    for v in cover.vertices:
        fibers.setdefault(v[:2], []).append(v)
    assert all(len(f) == 2 for f in fibers.values())


def test_empty_cover(loop_tail_quiver):
    t1 = TreeOverQ(RootedTree([1], [], SINK), loop_tail_quiver, {1: "1"}, {})
    t2 = TreeOverQ(RootedTree([1], [], SINK), loop_tail_quiver, {1: "2"}, {})
    net = PullbackNetwork(t1, t2)
    assert not net.vertices
    assert not two_cover(net).vertices


def test_triangles_of_sink_example(sink_tree):
    net = PullbackNetwork(sink_tree, sink_tree)
    tris = triangles(net)
    assert len(tris) == 2
    assert all(t.kind == "1-edge" for t in tris)
    assert frozenset({(2, 2), (2, 4), (1, 1)}) in {t.vertices for t in tris}


def test_no_edges_means_no_triangles(loop_tail_quiver):
    tree = RootedTree([1, 2, 3], [("a2", 2, 1), ("a3", 3, 2)], SINK)
    t = TreeOverQ(
        tree, loop_tail_quiver, {1: "2", 2: "2", 3: "1"}, {"a2": "alpha", "a3": "beta"}
    )
    net = PullbackNetwork(t, t)
    assert not net.edges
    assert not triangles(net)


def test_three_edge_triangle_in_source_case():
    q = Quiver(["1"], [("alpha", "1", "1")])
    bq = BoundQuiver(q, [("alpha", "alpha")])
    star = RootedTree([1, 2, 3, 4], [("a2", 1, 2), ("a3", 1, 3), ("a4", 1, 4)], SOURCE)
    t1 = TreeOverQ(star, bq, {n: "1" for n in range(1, 5)}, {a: "alpha" for a in star.arrows})
    t2 = TreeOverQ(RootedTree([1], [], SOURCE), bq, {1: "1"}, {})
    net = PullbackNetwork(t1, t2)
    tris = triangles(net)
    assert len(tris) == 1
    assert tris[0].kind == "3-edge"
    assert tris[0].vertices == frozenset({(2, 1), (3, 1), (4, 1)})


def test_census_of_sink_example(sink_tree):
    net = PullbackNetwork(sink_tree, sink_tree)
    keys = census_keys(net)
    assert len(keys) == 13
    assert ((2, 4), (2, 2), (5, 5)) in keys  # descend then cross the edge
    assert ((4, 2), (4, 4)) in keys  # a bare edge
    assert ((2, 1), (5, 3)) in keys  # a smaller component
    assert ((1, 4), (1, 2), (3, 5)) in keys  # arrow plus edge component
    assert ((4, 1),) in keys  # the isolated vertex
    assert not any(len(k) == 1 for k in keys - {((4, 1),)})


def test_census_counts_up_to_inversion(sink_tree):
    net = PullbackNetwork(sink_tree, sink_tree)
    walks, cover_walks = reference_walks(net), reference_walks(two_cover(net))
    assert maximal_r_free_traversals(net) == len(walks) == 13
    assert len(cover_walks) == 2 * 13
    # halving the directed count is exact: no walk is its own reverse
    assert all(len(k) == 1 or k != k[::-1] for k in list(walks) + list(cover_walks))


def test_projection_preserves_r_freeness(sink_tree):
    net = PullbackNetwork(sink_tree, sink_tree)
    cover = two_cover(net)
    links = {(a.source, a.target) for a in net.arrows} | {(a.target, a.source) for a in net.arrows}
    links |= set(net.edges) | {(v, u) for u, v in net.edges}
    blocked = blocked_triples(net)
    for vseq in reference_walks(cover):
        down = tuple(v[:2] for v in vseq)
        assert all(step in links for step in zip(down, down[1:]))
        for u, v, w in zip(down, down[1:], down[2:]):
            assert u != w and frozenset((u, v, w)) not in blocked


SHAPES = {SINK: re.compile(r"f*e?b*"), SOURCE: re.compile(r"b*e?f*")}


def test_structural_invariants_on_random_instances():
    for seed in range(30):
        for orientation in (SINK, SOURCE):
            t1 = random_instance(seed, orientation, max_vertices=8, end_dim_cap=None)
            t2 = random_instance(
                seed + 500, orientation, max_vertices=8, end_dim_cap=None, codomain=t1.codomain
            )
            net = PullbackNetwork(t1, t2)
            edge_set, moves = set(net.edges), links_at(net)
            for v in net.vertices:
                ups = [m for m in moves[v] if m[0] == ("f" if orientation == SINK else "b")]
                assert len(ups) <= 1
                assert (len(ups) == 0) == (v in net.forest_roots)
            # at most one link between two vertices, and the arrow part is acyclic
            seen_pairs = set()
            for a in net.arrows:
                pair = _edge(a.source, a.target)
                assert pair not in seen_pairs and pair not in edge_set
                seen_pairs.add(pair)
            for v in net.vertices:  # following pullback parents ends at a root
                for _ in net.vertices:
                    v = net.pullback_parent.get(v, v)
                assert v in net.forest_roots
            # edge transitivity
            for e1 in net.edges:
                for shared, far in ((e1[0], e1[1]), (e1[1], e1[0])):
                    for kind, _, other in moves[shared]:
                        if kind == "e" and other != far:
                            assert _edge(far, other) in edge_set
            # census shape law: at most one edge, arrows never flip back
            for word in reference_walks(net).values():
                assert SHAPES[orientation].fullmatch(word), (seed, orientation, word)


def test_linked_is_membership_in_the_listed_links():
    # the predicate on the pullback forest and the edge classes, against both orders of every listed arrow and edge
    nets = [PullbackNetwork(s, s) for s in (_star(k, o) for k in (3, 4, 5) for o in (SINK, SOURCE))]
    for seed in range(100):
        for orientation in (SINK, SOURCE):
            t = random_instance(seed, orientation)
            u = random_instance(seed + 1000, orientation, codomain=t.codomain)
            nets += [PullbackNetwork(a, b) for a, b in ((t, t), (t, u), (u, t))]
    for net in nets:
        pairs = [(a.source, a.target) for a in net.arrows] + list(net.edges)
        listed = set(pairs) | {(w, u) for u, w in pairs}
        for u, w in product(net.vertices, repeat=2):
            if u != w:
                assert net.linked(u, w) == ((u, w) in listed)


def test_dot_output_is_stable(sink_tree):
    net = PullbackNetwork(sink_tree, sink_tree)
    dot = to_dot(net)
    assert dot == to_dot(PullbackNetwork(sink_tree, sink_tree))
    assert '"2,2" -> "1,1"' in dot
    assert "style=dashed" in dot
    cover_dot = to_dot(two_cover(net))
    assert '"2,2,+"' in cover_dot and '"2,2,-"' in cover_dot


DEEPER = {"max_vertices": 16, "max_depth": 5}


@pytest.mark.parametrize("shape", [{}, DEEPER], ids=["default", "deeper"])
@pytest.mark.parametrize("orientation", [SINK, SOURCE])
def test_census_count_matches_the_search_on_random_instances(orientation, shape):
    for seed in range(200):
        t = random_instance(seed, orientation, end_dim_cap=None, **shape)
        u = random_instance(seed + 1000, orientation, end_dim_cap=None, codomain=t.codomain, **shape)
        for t1, t2 in ((t, t), (t, u), (u, t)):
            assert_counts_match_the_references(PullbackNetwork(t1, t2))


def assert_counts_match_the_references(net):
    """Triangle count, census and cover doubling against the listed triangles and the exhaustive search."""
    listed = triangles(net)
    assert net.triangle_count == len(listed)
    census = maximal_r_free_traversals(net)
    assert census == len(reference_walks(net))
    assert len(reference_walks(two_cover(net))) == 2 * census
    # blocking is adjacency: two links u-v-w close a listed triangle exactly when u and w are linked
    blocked = {t.vertices for t in listed}
    for v, moves in links_at(net).items():
        for _, _, u in moves:
            for _, _, w in moves:
                if u < w:
                    assert net.linked(u, w) == (frozenset((u, v, w)) in blocked)


def _tree_from_parents(parents, labels, orientation, bq):
    """A tree whose vertex i + 2 hangs below vertex parents[i] (at most i + 1), vertex 1 the root."""
    n = len(parents) + 1
    arrows = [
        (f"a{c}", c, p) if orientation == SINK else (f"a{c}", p, c)
        for c, p in zip(range(2, n + 1), parents)
    ]
    tree = RootedTree(list(range(1, n + 1)), arrows, orientation)
    return TreeOverQ(tree, bq, {v: "1" for v in range(1, n + 1)}, {a[0]: label for a, label in zip(arrows, labels)})


def _parent_arrays(draw, size):
    parents = [draw(st.integers(1, i + 1)) for i in range(size)]
    labels = [draw(st.sampled_from(("alpha", "beta"))) for _ in range(size)]
    return parents, labels


@st.composite
def _tree_pairs(draw):
    orientation = draw(st.sampled_from((SINK, SOURCE)))
    shapes = [_parent_arrays(draw, draw(st.integers(0, 8))) for _ in range(2)]
    height = 0
    for parents, _ in shapes:
        depth = {1: 0}
        for c, p in enumerate(parents, start=2):
            depth[c] = depth[p] + 1
        height = max(height, *depth.values())
    q = Quiver(["1"], [("alpha", "1", "1"), ("beta", "1", "1")])
    bq = BoundQuiver(q, list(product(("alpha", "beta"), repeat=max(height, 1) + 1)))  # relations have length >= 2
    return [_tree_from_parents(parents, labels, orientation, bq) for parents, labels in shapes]


@settings(max_examples=300, deadline=None)
@given(_tree_pairs())
def test_counts_match_the_references_on_arbitrary_trees(trees):
    # any parent array, with unbounded fan-out (random_instance gives at most 3 children)
    t1, t2 = trees
    for a, b in ((t1, t2), (t1, t1)):
        assert_counts_match_the_references(PullbackNetwork(a, b))
