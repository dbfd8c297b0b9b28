"""Pullback networks, double covers, triangles, and the traversal census."""

import re

import pytest

from rtmtools import (
    SINK,
    SOURCE,
    BoundQuiver,
    Quiver,
    RootedTree,
    TreeOverQ,
    maximal_r_free_traversals,
    pullback_network,
    random_instance,
    to_dot,
    triangles,
    two_cover,
)
from rtmtools.network import _edge


def _moves(net, v):
    """(kind, link, far end) for every link at `v`; kind is f, b or e."""
    return (
        [("f", a, a.target) for a in net.arrows_from(v)]
        + [("b", a, a.source) for a in net.arrows_into(v)]
        + [("e", e, e[1] if e[0] == v else e[0]) for e in net.edges_at(v)]
    )


def reference_walks(net):
    """The census by exhaustive search, as a reference for the count.

    Lists every maximal unblocked walk from every vertex and identifies a
    walk with its inverse by vertex sequence.  Maps the lesser of the two
    vertex sequences to the word of step kinds read along it.
    """

    def legal(prev, link, at):
        return [
            m
            for m in _moves(net, at)
            if m[1] != link and frozenset(map(net.project, (prev, at, m[2]))) not in net.triangle_set
        ]

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
        if not _moves(net, v):
            walks[(v,)] = ""
        for kind, link, to in _moves(net, v):
            extend((v, to), ((kind, link),))
    return walks


def census_keys(net):
    """Vertex sequences up to reversal; they determine traversals uniquely."""
    return set(reference_walks(net))


def test_network_of_sink_example(sink_tree):
    net = pullback_network(sink_tree, sink_tree)
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
    net = pullback_network(t, t)
    assert net.vertices == ((1, 1),)
    assert not net.arrows and not net.edges
    assert maximal_r_free_traversals(net) == 1
    assert reference_walks(net) == {((1, 1),): ""}


def test_orientation_mismatch_rejected(sink_tree, loop_tail_quiver):
    as_source = TreeOverQ(RootedTree([1], [], SOURCE), loop_tail_quiver, {1: "2"}, {})
    with pytest.raises(ValueError, match="orientation"):
        pullback_network(sink_tree, as_source)


def test_codomain_mismatch_rejected(sink_tree, loop_tail_quiver):
    other = BoundQuiver(loop_tail_quiver.quiver, [])
    t2 = TreeOverQ(RootedTree([1], [], SINK), other, {1: "2"}, {})
    with pytest.raises(ValueError, match="bound quiver"):
        pullback_network(sink_tree, t2)


def test_two_cover_doubles_everything(sink_tree):
    net = pullback_network(sink_tree, sink_tree)
    cover = two_cover(net)
    assert len(cover.vertices) == 2 * len(net.vertices)
    assert len(cover.arrows) == 2 * len(net.arrows)
    assert len(cover.edges) == 2 * len(net.edges)
    assert {_edge((2, 2, 1), (2, 4, -1)), _edge((2, 2, -1), (2, 4, 1))} <= set(cover.edges)
    # the projection is two-to-one on vertices
    fibers = {}
    for v in cover.vertices:
        fibers.setdefault(cover.project(v), []).append(v)
    assert all(len(f) == 2 for f in fibers.values())


def test_empty_cover(loop_tail_quiver):
    t1 = TreeOverQ(RootedTree([1], [], SINK), loop_tail_quiver, {1: "1"}, {})
    t2 = TreeOverQ(RootedTree([1], [], SINK), loop_tail_quiver, {1: "2"}, {})
    net = pullback_network(t1, t2)
    assert not net.vertices
    assert not two_cover(net).vertices


def test_triangles_of_sink_example(sink_tree):
    net = pullback_network(sink_tree, sink_tree)
    tris = triangles(net)
    assert len(tris) == 2
    assert all(t.kind == "1-edge" for t in tris)
    assert frozenset({(2, 2), (2, 4), (1, 1)}) in {t.vertices for t in tris}


def test_no_edges_means_no_triangles(loop_tail_quiver):
    tree = RootedTree([1, 2, 3], [("a2", 2, 1), ("a3", 3, 2)], SINK)
    t = TreeOverQ(
        tree, loop_tail_quiver, {1: "2", 2: "2", 3: "1"}, {"a2": "alpha", "a3": "beta"}
    )
    net = pullback_network(t, t)
    assert not net.edges
    assert not triangles(net)


def test_three_edge_triangle_in_source_case():
    q = Quiver(["1"], [("alpha", "1", "1")])
    bq = BoundQuiver(q, [("alpha", "alpha")])
    star = RootedTree([1, 2, 3, 4], [("a2", 1, 2), ("a3", 1, 3), ("a4", 1, 4)], SOURCE)
    t1 = TreeOverQ(star, bq, {n: "1" for n in range(1, 5)}, {a: "alpha" for a in star.arrows})
    t2 = TreeOverQ(RootedTree([1], [], SOURCE), bq, {1: "1"}, {})
    net = pullback_network(t1, t2)
    tris = triangles(net)
    assert len(tris) == 1
    assert tris[0].kind == "3-edge"
    assert tris[0].vertices == frozenset({(2, 1), (3, 1), (4, 1)})


def test_census_of_sink_example(sink_tree):
    net = pullback_network(sink_tree, sink_tree)
    keys = census_keys(net)
    assert len(keys) == 13
    assert ((2, 4), (2, 2), (5, 5)) in keys  # descend then cross the edge
    assert ((4, 2), (4, 4)) in keys  # a bare edge
    assert ((2, 1), (5, 3)) in keys  # a smaller component
    assert ((1, 4), (1, 2), (3, 5)) in keys  # arrow plus edge component
    assert ((4, 1),) in keys  # the isolated vertex
    assert not any(len(k) == 1 for k in keys - {((4, 1),)})


def test_census_counts_up_to_inversion(sink_tree):
    net = pullback_network(sink_tree, sink_tree)
    for shown in (net, two_cover(net)):
        walks = reference_walks(shown)
        assert maximal_r_free_traversals(shown) == len(walks)
        # halving the directed count is exact: no walk is its own reverse
        assert all(len(k) == 1 or k != k[::-1] for k in walks)
    assert maximal_r_free_traversals(two_cover(net)) == 2 * 13


def test_projection_preserves_r_freeness(sink_tree):
    net = pullback_network(sink_tree, sink_tree)
    cover = two_cover(net)
    links = {(a.source, a.target) for a in net.arrows} | {(a.target, a.source) for a in net.arrows}
    links |= set(net.edges) | {(v, u) for u, v in net.edges}
    for vseq in reference_walks(cover):
        down = tuple(cover.project(v) for v in vseq)
        assert all(step in links for step in zip(down, down[1:]))
        for u, v, w in zip(down, down[1:], down[2:]):
            assert u != w and frozenset((u, v, w)) not in net.triangle_set


SHAPES = {SINK: re.compile(r"f*e?b*"), SOURCE: re.compile(r"b*e?f*")}


def test_structural_invariants_on_random_instances():
    for seed in range(30):
        for orientation in (SINK, SOURCE):
            t1 = random_instance(seed, orientation, max_vertices=8, end_dim_cap=None)
            t2 = random_instance(
                seed + 500, orientation, max_vertices=8, end_dim_cap=None, codomain=t1.codomain
            )
            net = pullback_network(t1, t2)
            edge_set = set(net.edges)
            for v in net.vertices:
                ups = net.arrows_from(v) if orientation == SINK else net.arrows_into(v)
                assert len(ups) <= 1
                assert (len(ups) == 0) == (net.pullback_height[v] == 0)
            # at most one link between two vertices, and the arrow part is acyclic
            seen_pairs = set()
            for a in net.arrows:
                pair = _edge(a.source, a.target)
                assert pair not in seen_pairs and pair not in edge_set
                seen_pairs.add(pair)
            assert all(net.pullback_height[v] <= len(net.vertices) for v in net.vertices)
            # edge transitivity
            for e1 in net.edges:
                for shared, far in ((e1[0], e1[1]), (e1[1], e1[0])):
                    for e2 in net.edges_at(shared):
                        other = e2[0] if e2[1] == shared else e2[1]
                        if other != far:
                            assert _edge(far, other) in edge_set
            # census shape law: at most one edge, arrows never flip back
            for word in reference_walks(net).values():
                assert SHAPES[orientation].fullmatch(word), (seed, orientation, word)


def test_dot_output_is_stable(sink_tree):
    net = pullback_network(sink_tree, sink_tree)
    dot = to_dot(net)
    assert dot == to_dot(pullback_network(sink_tree, sink_tree))
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
            net = pullback_network(t1, t2)
            for shown in (net, two_cover(net)):
                assert maximal_r_free_traversals(shown) == len(reference_walks(shown)), seed
