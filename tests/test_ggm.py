"""Generalized graph maps: enumeration, induced maps, spans, branch morphisms."""

import numpy as np
import pytest
from dense import blocks, identity_map
from reference import branch_morphism_from_ggm, flat, is_complete, is_connected, is_involution_free, is_r_free

from rtmtools import (
    SINK,
    SOURCE,
    BoundQuiver,
    PullbackNetwork,
    Quiver,
    RootedTree,
    Subnetwork,
    TreeOverQ,
    enumerate_ggms,
    ggm,
    ggm_matrix,
    hom_space,
    hom_span,
    push_down,
    random_instance,
    rref,
    to_dot,
    two_cover,
)
from rtmtools.ggm import _closures, _obligation_table, _stream
from rtmtools.network import TwoCover

DIAGONAL = frozenset({(1, 1, 1), (2, 2, 1), (3, 3, 1), (4, 4, 1), (5, 5, 1)})
SHIFTED = frozenset({(1, 1, 1), (2, 2, 1), (3, 3, 1), (4, 2, 1), (5, 5, 1)})
EDGE_ONLY = frozenset({(4, 2, 1), (4, 4, -1)})
DEEP_PAIR = frozenset({(2, 1, 1), (5, 3, 1)})
LONE = frozenset({(4, 1, 1)})


def test_enumeration_of_sink_example(sink_tree):
    ggms = enumerate_ggms(sink_tree, sink_tree)
    assert {g.vertices for g in ggms} == {DIAGONAL, SHIFTED, EDGE_ONLY, DEEP_PAIR, LONE}
    signed = enumerate_ggms(sink_tree, sink_tree, with_signs=True)
    assert len(signed) == 10
    # canonical form: the least vertex pair always carries +1
    for g in ggms:
        least = min(v[:2] for v in g.vertices)
        assert (least[0], least[1], 1) in g.vertices


def test_no_graph_map_projects_to_the_forbidden_pairs(sink_tree):
    ggms = enumerate_ggms(sink_tree, sink_tree, with_signs=True)
    projected = {v[:2] for g in ggms for v in g.vertices}
    assert (2, 4) not in projected
    assert (1, 4) not in projected


def _counted_span(t1, t2, m1, m2, target=None):
    """`hom_span`'s maps and rank, with the maps its stream yielded, counted through a wrapper on `ggm._stream`."""
    streamed, stream = [], ggm._stream

    def counting(cover):
        for g in stream(cover):
            streamed.append(g)
            yield g

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ggm, "_stream", counting)
        maps, rank = hom_span(t1, t2, m1, m2, target=target)
    return maps, rank, streamed


def _assert_a_graph_map_basis(maps, rank, m1, m2, listed):
    """The kept maps number the rank, their induced maps are independent over GF(p), and each is a listed map."""
    assert len(maps) == rank
    rows = [flat(ggm_matrix(g, m1, m2)) for g in maps]
    assert (rref(np.stack(rows), m1.prime)[1] if rows else 0) == len(maps)
    assert {g.vertices for g in maps} <= {g.vertices for g in listed}


def test_single_vertex_pair_has_one_graph_map(loop_tail_quiver):
    t = TreeOverQ(RootedTree([1], [], SINK), loop_tail_quiver, {1: "2"}, {})
    ggms = enumerate_ggms(t, t)
    assert len(ggms) == 1
    assert ggms[0].vertices == frozenset({(1, 1, 1)})
    rep = push_down(t, 3)
    _, rank = hom_span(t, t, rep, rep)
    assert rank == 1


def _star(k, orientation):
    """Root 1 with k leaves over one vertex with a loop alpha, alpha^2 = 0."""
    quiver = BoundQuiver(Quiver(["1"], [("alpha", "1", "1")]), [("alpha", "alpha")])
    arrows = [(f"a{n}", n, 1) if orientation == SINK else (f"a{n}", 1, n) for n in range(2, k + 2)]
    tree = RootedTree(list(range(1, k + 2)), arrows, orientation)
    return TreeOverQ(tree, quiver, {n: "1" for n in range(1, k + 2)}, {a: "alpha" for a, _, _ in arrows})


def test_closure_stream_emits_each_map_once_from_its_least_pair():
    trees = [random_instance(seed, o) for seed in range(200) for o in (SINK, SOURCE)]
    trees += [_star(k, o) for k in (3, 4, 5) for o in (SINK, SOURCE)]
    for t in trees:
        cover = two_cover(PullbackNetwork(t, t))
        table = _obligation_table(cover.base)
        position = {pair: i for i, pair in enumerate(cover.base.vertices)}
        assert list(table) == list(cover.base.vertices)  # one entry per network pair, the sign a label
        for c in cover.base.edge_classes:  # the members of an edge class share one parent obligation
            assert len({id(table[v][-1]) for v in c}) == 1
        raw = [(pair, g) for pair in cover.base.vertices for g in _closures(cover, table, pair, position)]
        assert len({g.vertices for _, g in raw}) == len(raw)
        for pair, g in raw:
            assert min(v[:2] for v in g.vertices) == pair and pair + (1,) in g.vertices
    assert len(raw) == 3180  # star k=5, both orientations alike


def test_a_graph_map_is_its_ascending_signed_pairs():
    # Every streamed map holds its signed pairs ascending, +1 at the least, and its vertex set is built from them;
    # the listing order and the span rank are those of the vertex sets, sorted and reduced without `pairs`.
    instances = list(_random_pairs()) + [(_star(k, o), _star(k, o)) for k in (3, 4, 5) for o in (SINK, SOURCE)]
    for t1, t2 in instances:
        stream = list(_stream(two_cover(PullbackNetwork(t1, t2))))
        for g in stream:
            for h in (g, g.negate()):
                assert all(u < v for u, v in zip(h.pairs, h.pairs[1:]))
                assert h.vertices == frozenset(h.pairs)
            assert g.pairs[0][2] == 1
        by_vertices = sorted(stream, key=lambda g: (len(g.vertices), tuple(sorted(g.vertices))))
        assert [g.pairs for g in enumerate_ggms(t1, t2)] == [g.pairs for g in by_vertices]
        m1, m2 = push_down(t1, 3), push_down(t2, 3)
        cell = ggm._cells(m1, m2)
        rows = np.zeros((len(stream), len(cell)), dtype=np.int64)
        for r, g in enumerate(stream):
            for n, m, s in g.vertices:
                rows[r, cell[n, m]] = s % 3
        assert hom_span(t1, t2, m1, m2)[1] == (rref(rows, 3)[1] if rows.size else 0)


def test_the_search_lists_no_links(monkeypatch, sink_tree):
    # The search reads the pullback forest and the edge classes: the edge list and the cover's lists are never built.
    pairs = [(sink_tree, sink_tree)] + [(_star(k, o), _star(k, o)) for k in (3, 4, 5) for o in (SINK, SOURCE)]
    for seed in range(5):
        for orientation in (SINK, SOURCE):
            t = random_instance(seed, orientation)
            pairs += [(t, t), (t, random_instance(seed + 1000, orientation, codomain=t.codomain))]

    def listed(self):
        raise AssertionError("a list of links was built")

    for cls, name in ((PullbackNetwork, "edges"), (TwoCover, "vertices"), (TwoCover, "arrows"), (TwoCover, "edges")):
        monkeypatch.setattr(cls, name, property(listed))
    for t1, t2 in pairs:
        m1, m2 = push_down(t1, 3), push_down(t2, 3)
        dim = hom_space(m1, m2).dimension
        assert hom_span(t1, t2, m1, m2, target=dim)[1] == dim
        maps, rank, streamed = _counted_span(t1, t2, m1, m2)
        listed = enumerate_ggms(t1, t2, with_signs=True)
        assert len(listed) == 2 * len(streamed)
        _assert_a_graph_map_basis(maps, rank, m1, m2, listed)


def test_completeness_reports_first_failure(sink_tree):
    cover = two_cover(PullbackNetwork(sink_tree, sink_tree))
    lonely = Subnetwork(cover, [(1, 4, 1)])
    report = is_complete(lonely)
    assert not report.ok
    assert report.vertex == (1, 4, 1)
    assert "child 2" in report.reason
    assert is_complete(Subnetwork(cover, [])).ok  # vacuously complete
    for g in enumerate_ggms(sink_tree, sink_tree, with_signs=True):
        assert is_complete(g).ok
        assert is_connected(g) and is_involution_free(g) and is_r_free(g)


def test_induced_matrices_of_sink_example(sink_tree):
    rep = push_down(sink_tree, 3)
    ggms = {g.vertices: g for g in enumerate_ggms(sink_tree, sink_tree)}
    identity = ggm_matrix(ggms[DIAGONAL], rep, rep)
    assert identity.blocks == identity_map(rep).blocks
    edge_map = ggm_matrix(ggms[EDGE_ONLY], rep, rep)
    # v4 goes to v2 - v4; everything else dies
    col = blocks(edge_map)["2"][:, rep.basis_index("2", 4)]
    np.testing.assert_array_equal(col, [0, 1, 2])  # -1 is 2 mod 3
    assert not blocks(edge_map)["1"].any()
    assert not blocks(edge_map)["2"][:, rep.basis_index("2", 1)].any()
    lone_map = ggm_matrix(ggms[LONE], rep, rep)
    np.testing.assert_array_equal(
        blocks(lone_map)["2"][:, rep.basis_index("2", 4)], [1, 0, 0]
    )
    shifted = ggm_matrix(ggms[SHIFTED], rep, rep)
    for q in rep.basis:
        np.testing.assert_array_equal(blocks(shifted)[q], (blocks(identity)[q] + blocks(edge_map)[q]) % 3)


def test_span_rank_matches_oracle_on_sink_example(sink_tree):
    rep = push_down(sink_tree, 3)
    maps, rank, streamed = _counted_span(sink_tree, sink_tree, rep, rep)
    assert (len(streamed), len(maps), rank) == (5, 4, 4)
    assert hom_space(rep, rep).dimension == 4
    _assert_a_graph_map_basis(maps, rank, rep, rep, enumerate_ggms(sink_tree, sink_tree))


def test_all_induced_maps_intertwine_and_are_nonzero(sink_tree):
    rep = push_down(sink_tree, 3)
    for g in enumerate_ggms(sink_tree, sink_tree, with_signs=True):
        h = ggm_matrix(g, rep, rep)
        assert h.intertwines()
        assert any(h.blocks.values())


def test_sign_antisymmetry(sink_tree):
    rep = push_down(sink_tree, 3)
    for g in enumerate_ggms(sink_tree, sink_tree):
        flipped, h = blocks(ggm_matrix(g.negate(), rep, rep)), blocks(ggm_matrix(g, rep, rep))
        for q in rep.basis:
            np.testing.assert_array_equal(flipped[q], -h[q] % 3)


def test_branch_morphism_examples(sink_tree):
    ggms = {g.vertices: g for g in enumerate_ggms(sink_tree, sink_tree)}
    deep = branch_morphism_from_ggm(ggms[DEEP_PAIR], (2, 1))
    assert deep.vertex_map == {2: 1, 5: 3}
    assert deep.arrow_map == {"a5": "a3"}
    assert deep.check(sink_tree, sink_tree)
    shifted = branch_morphism_from_ggm(ggms[SHIFTED], (4, 2))
    assert shifted.vertex_map == {4: 2}
    leaf = branch_morphism_from_ggm(ggms[DIAGONAL], (4, 4))
    assert leaf.vertex_map == {4: 4}
    with pytest.raises(ValueError):
        branch_morphism_from_ggm(ggms[DIAGONAL], (2, 4))


def test_branch_morphism_source_case(source_tree_factory):
    t = source_tree_factory("alpha", "alpha", "alpha", "alpha")
    for g in enumerate_ggms(t, t):
        for (n, m, _) in g.vertices:
            morphism = branch_morphism_from_ggm(g, (n, m))
            # source case: the codomain branch embeds into the domain branch
            assert morphism.domain_root == m and morphism.codomain_root == n
            assert morphism.check(t, t)


def test_height_law_at_graph_map_vertices(sink_tree):
    tree = sink_tree.tree

    def branch_height(n):
        return max(tree.height[v] for v in tree.branch_vertices(n)) - tree.height[n]

    for g in enumerate_ggms(sink_tree, sink_tree, with_signs=True):
        for (n, m, _) in g.vertices:
            assert branch_height(n) <= branch_height(m)


def test_span_matches_oracle_on_source_pair(source_tree_factory):
    t = source_tree_factory("alpha", "beta", "alpha", "beta")
    rep = push_down(t, 3)
    _, rank = hom_span(t, t, rep, rep)
    assert rank == hom_space(rep, rep).dimension


def test_span_matches_oracle_on_random_pairs():
    for seed in range(25):
        for orientation in (SINK, SOURCE):
            t1 = random_instance(seed, orientation, max_vertices=7, end_dim_cap=8)
            t2 = random_instance(
                seed + 300, orientation, max_vertices=7, end_dim_cap=8, codomain=t1.codomain
            )
            m1, m2 = push_down(t1, 3), push_down(t2, 3)
            _, rank = hom_span(t1, t2, m1, m2)
            dim = hom_space(m1, m2).dimension
            assert rank == dim, (seed, orientation)


def test_branch_morphisms_valid_on_random_pairs():
    for seed in range(10):
        for orientation in (SINK, SOURCE):
            t1 = random_instance(seed, orientation, max_vertices=6, end_dim_cap=8)
            t2 = random_instance(
                seed + 900, orientation, max_vertices=6, end_dim_cap=8, codomain=t1.codomain
            )
            for g in enumerate_ggms(t1, t2):
                for (n, m, _) in g.vertices:
                    morphism = branch_morphism_from_ggm(g, (n, m))
                    if orientation == SINK:
                        assert morphism.check(t1, t2)
                    else:
                        assert morphism.check(t2, t1)


def test_ggm_dot_contains_signed_labels(sink_tree):
    ggms = {g.vertices: g for g in enumerate_ggms(sink_tree, sink_tree)}
    dot = to_dot(ggms[EDGE_ONLY])
    assert '"4,2,+"' in dot and '"4,4,-"' in dot and "style=dashed" in dot


def _random_pairs():
    """`random_instance` seeds 0-199 in both orientations, as self-pairs and partner pairs both ways."""
    for seed in range(200):
        for orientation in (SINK, SOURCE):
            t = random_instance(seed, orientation)
            u = random_instance(seed + 1000, orientation, codomain=t.codomain)
            yield from ((t, t), (t, u), (u, t))


def test_induced_maps_and_span_rank_follow_the_signed_pairs():
    for t1, t2 in _random_pairs():
        for p in (3, 5):
            m1, m2 = push_down(t1, p), push_down(t2, p)
            ggms = enumerate_ggms(t1, t2)
            rows = []
            for g in ggms:
                want = {q: np.zeros((m2.dim(q), m1.dim(q)), dtype=np.int64) for q in m1.basis}
                for n, m, s in g.vertices:
                    q = t1.vertex_label[n]
                    want[q][m2.basis_index(q, m), m1.basis_index(q, n)] = s % p
                h = ggm_matrix(g, m1, m2)
                got = blocks(h)
                assert got.keys() == want.keys()
                for q in want:
                    np.testing.assert_array_equal(got[q], want[q])
                rows.append(flat(h))
            maps, rank, streamed = _counted_span(t1, t2, m1, m2)
            assert [g.vertices for g in sorted(streamed, key=Subnetwork.sort_key)] == [g.vertices for g in ggms]
            assert rank == (rref(np.stack(rows), p)[1] if rows and rows[0].size else 0)
            _assert_a_graph_map_basis(maps, rank, m1, m2, ggms)


def test_hom_span_stops_at_the_target_rank():
    for t1, t2 in _random_pairs():
        stream = list(_stream(two_cover(PullbackNetwork(t1, t2))))
        listed = enumerate_ggms(t1, t2)
        for p in (3, 5):
            m1, m2 = push_down(t1, p), push_down(t2, p)
            dim = hom_space(m1, m2).dimension
            # the rank of each prefix of the stream's induced maps, and the maps that raise it, in stream order
            rows = [flat(ggm_matrix(g, m1, m2)) for g in stream]
            ranks = [0] + [rref(np.stack(rows[:k]), p)[1] for k in range(1, len(rows) + 1)]
            raised = [g.vertices for g, before, after in zip(stream, ranks, ranks[1:]) if after > before]
            full, rank, streamed = _counted_span(t1, t2, m1, m2)
            assert rank == dim == ranks[-1] and len(streamed) == len(stream)
            assert [g.vertices for g in full] == raised
            _assert_a_graph_map_basis(full, rank, m1, m2, listed)
            # the stream stops after the shortest prefix whose induced maps reach rank dim
            maps, streamed_rank, streamed = _counted_span(t1, t2, m1, m2, target=dim)
            assert streamed_rank == dim and len(streamed) == ranks.index(dim)
            assert [g.vertices for g in maps] == raised
            # a target beyond the span, as when rank and dimension disagree, streams every map
            maps, short_rank, streamed = _counted_span(t1, t2, m1, m2, target=dim + 1)
            assert short_rank == rank and len(streamed) == len(stream)
            assert [g.vertices for g in maps] == raised


@pytest.mark.parametrize("orientation", [SINK, SOURCE])
def test_hom_span_stops_after_a_pinned_number_of_maps_on_stars(orientation):
    # The stop depends on the stream order, which these counts pin: star k has Hom dimension k**2 + 1.
    for k, streamed in ((3, 13), (4, 29), (5, 56), (6, 97), (8, 233), (10, 461), (25, 7526)):
        t = _star(k, orientation)
        m = push_down(t, 3)
        maps, rank, stream = _counted_span(t, t, m, m, target=k * k + 1)
        assert (rank, len(stream)) == (k * k + 1, streamed)
        assert hom_space(m, m).dimension == rank
        # listing every map is cheap up to star 5 (3,180 maps); beyond it the kept maps are checked against the stream
        _assert_a_graph_map_basis(maps, rank, m, m, enumerate_ggms(t, t) if k <= 5 else stream)


def _reversed_ids(t):
    """The same labelled tree with its vertex ids in reverse order."""
    top = max(t.tree.vertices) + 1
    arrows = [(a, top - t.tree.arrow_source[a], top - t.tree.arrow_target[a]) for a in t.tree.arrow_source]
    tree = RootedTree([top - n for n in t.tree.vertices], arrows, t.tree.orientation)
    return TreeOverQ(tree, t.codomain, {top - n: q for n, q in t.vertex_label.items()}, t.arrow_label)


def test_enumeration_matches_the_lexicographic_reverse_search():
    # Seeds in pair order, refusing lexicographically smaller pairs: every map from its least pair, signed +1 there.
    for t1, t2 in _random_pairs():
        for u1, u2 in ((t1, t2), (_reversed_ids(t1), _reversed_ids(t2))):
            cover = two_cover(PullbackNetwork(u1, u2))
            table = _obligation_table(cover.base)
            position = {pair: i for i, pair in enumerate(cover.base.vertices)}
            want = [g for pair in cover.base.vertices for g in _closures(cover, table, pair, position)]
            want.sort(key=Subnetwork.sort_key)
            got = enumerate_ggms(u1, u2)
            assert [(g.vertices, g.arrows, g.edges) for g in got] == [(g.vertices, g.arrows, g.edges) for g in want]


@pytest.mark.parametrize("orientation", [SINK, SOURCE])
def test_built_maps_and_their_flips_pass_the_validating_constructor(orientation):
    # A graph map skips the checks of `Subnetwork.__init__`: its links are read off the cover between its vertices.
    for seed in range(200):
        t = random_instance(seed, orientation)
        u = random_instance(seed + 1000, orientation, codomain=t.codomain)
        for t1, t2 in ((t, t), (t, u), (u, t)):
            for g in enumerate_ggms(t1, t2, with_signs=True):
                checked = Subnetwork(g.cover, g.vertices, g.arrows, g.edges)
                assert (checked.vertices, checked.arrows, checked.edges) == (g.vertices, g.arrows, g.edges)
                flip = g.negate()
                assert type(flip) is type(g)
                checked = Subnetwork(g.cover, flip.vertices, flip.arrows, flip.edges)
                assert (checked.vertices, checked.arrows, checked.edges) == (flip.vertices, flip.arrows, flip.edges)


@pytest.mark.parametrize("orientation", [SINK, SOURCE])
def test_a_tree_that_fails_validation_still_reports_a_vertex_outside_the_cover(orientation):
    # Two alpha-children with different vertex labels: a child witness falls outside the network.
    q = BoundQuiver(Quiver(["A", "B"], [("alpha", "A", "A")]), [])
    arrows = [("a2", 2, 1), ("a3", 3, 1)] if orientation == SINK else [("a2", 1, 2), ("a3", 1, 3)]
    t = TreeOverQ(RootedTree([1, 2, 3], arrows, orientation), q, {1: "A", 2: "A", 3: "B"}, {"a2": "alpha", "a3": "alpha"})
    with pytest.raises(ValueError, match="subnetwork vertex outside the cover"):
        enumerate_ggms(t, t)


def test_a_subnetwork_built_from_outside_is_checked(sink_tree):
    cover = two_cover(PullbackNetwork(sink_tree, sink_tree))
    with pytest.raises(ValueError, match="vertex outside the cover"):
        Subnetwork(cover, [(1, 3, 1)])
    arrow = next(a for a in cover.arrows if a.source[2] > 0)
    with pytest.raises(ValueError, match="not supported"):
        Subnetwork(cover, [arrow.source], [arrow])
    with pytest.raises(ValueError, match="link outside the cover"):
        Subnetwork(cover, [arrow.source, arrow.target], [arrow._replace(label=arrow.label[:2] + (-1,))])
