"""Indecomposability decisions, induced idempotents, and splitting."""

import inspect
import random
import sys
import tracemalloc

import numpy as np
import pytest
from dense import actions, blocks, identity_map

from rtmtools import (
    SINK,
    SOURCE,
    BoundQuiver,
    BranchMorphism,
    IdempotentEndo,
    Quiver,
    RootedTree,
    TreeOverQ,
    cor2_report,
    decompose_fully,
    embeds,
    find_nonidentity_idempotent,
    has_nontrivial_idempotent,
    hom_space,
    is_indecomposable,
    module_idempotent,
    push_down,
    random_instance,
    split,
    verify_iso,
)
from rtmtools import oracle, structure
from rtmtools.structure import first_certificate
from rtmtools.trees import restrict


def test_embeds_examples(sink_tree):
    hit = embeds(sink_tree, 4, 2)
    assert hit is not None and hit.vertex_map == {4: 2}
    assert embeds(sink_tree, 2, 4) is None  # child 5 has no counterpart
    same = embeds(sink_tree, 2, 2)
    assert same is not None and same.vertex_map == {2: 2, 5: 5}
    assert embeds(sink_tree, 3, 1) is None  # different vertex labels
    leafy = embeds(sink_tree, 3, 5)  # both leaves with the same label
    assert leafy is not None and leafy.vertex_map == {3: 5}


def test_find_idempotent_on_sink_example(sink_tree):
    endo = find_nonidentity_idempotent(sink_tree)
    assert endo is not None
    assert endo.vertex_map == {1: 1, 2: 2, 3: 3, 4: 2, 5: 5}
    assert endo.arrow_map()["a4"] == "a2"
    assert endo.fixed_vertices() == (1, 2, 3, 5)
    parent, n1, n2, _ = first_certificate(sink_tree)
    assert (parent, n1, n2) == (1, 4, 2)


def test_no_idempotent_when_labels_distinct(source_tree_factory):
    t = source_tree_factory("alpha", "beta", "alpha", "beta")
    assert find_nonidentity_idempotent(t) is None
    assert is_indecomposable(t)


def test_single_vertex_indecomposable(loop_tail_quiver):
    t = TreeOverQ(RootedTree([1], [], SINK), loop_tail_quiver, {1: "2"}, {})
    assert find_nonidentity_idempotent(t) is None
    assert is_indecomposable(t)


def test_sink_example_is_decomposable_but_its_core_is_not(sink_tree):
    assert not is_indecomposable(sink_tree)
    endo = find_nonidentity_idempotent(sink_tree)
    core = split(sink_tree, endo, 3).summands[0]
    assert core.tree.vertices == (1, 2, 3, 5)
    assert is_indecomposable(core)
    rep = push_down(core, 3)
    assert has_nontrivial_idempotent(hom_space(rep, rep)).status == "none"


def test_source_all_equal_labels_decomposable(source_tree_factory):
    t = source_tree_factory("alpha", "alpha", "alpha", "alpha")
    assert not is_indecomposable(t)
    rep = push_down(t, 3)
    assert has_nontrivial_idempotent(hom_space(rep, rep)).status == "found"


def test_idempotent_invariants_validated(sink_tree):
    not_a_morphism = "not a label-compatible endomorphism"
    with pytest.raises(ValueError, match=not_a_morphism):  # parents do not commute at 5
        IdempotentEndo(sink_tree, {1: 1, 2: 4, 3: 3, 4: 2, 5: 5})
    with pytest.raises(ValueError, match=not_a_morphism):  # moves the root
        IdempotentEndo(sink_tree, {1: 2, 2: 2, 3: 3, 4: 4, 5: 5})
    with pytest.raises(ValueError, match=not_a_morphism):  # label clash: 3 and 4 carry different labels
        IdempotentEndo(sink_tree, {1: 1, 2: 2, 3: 4, 4: 4, 5: 5})
    with pytest.raises(ValueError, match=not_a_morphism):  # not total: 5 has no image
        IdempotentEndo(sink_tree, {1: 1, 2: 2, 3: 3, 4: 2})
    with pytest.raises(ValueError, match=not_a_morphism):  # 6 is not a tree vertex
        IdempotentEndo(sink_tree, {1: 1, 2: 2, 3: 3, 4: 2, 5: 5, 6: 6})


def test_idempotence_is_checked_on_a_morphism(loop_tail_quiver):
    star = RootedTree([1, 2, 3, 4], [(f"a{n}", n, 1) for n in (2, 3, 4)], SINK)
    t = TreeOverQ(star, loop_tail_quiver, {n: "2" for n in range(1, 5)}, {f"a{n}": "alpha" for n in (2, 3, 4)})
    IdempotentEndo(t, {1: 1, 2: 4, 3: 4, 4: 4})
    with pytest.raises(ValueError, match="not idempotent at 2"):  # 2 -> 3 -> 4
        IdempotentEndo(t, {1: 1, 2: 3, 3: 4, 4: 4})


def test_module_idempotent_sink(sink_tree):
    endo = find_nonidentity_idempotent(sink_tree)
    ide = module_idempotent(sink_tree, endo.vertex_map, push_down(sink_tree, 3))
    rep = ide.domain
    # identity except v4 -> v2
    np.testing.assert_array_equal(
        blocks(ide)["2"][:, rep.basis_index("2", 4)],
        np.eye(3, dtype=int)[:, rep.basis_index("2", 2)],
    )
    assert all(np.array_equal(b @ b % 3, b) for b in blocks(ide).values())
    assert ide.intertwines()
    assert ide.blocks != identity_map(rep).blocks and any(ide.blocks.values())


def test_module_idempotent_identity_map(sink_tree):
    identity = IdempotentEndo(sink_tree, {n: n for n in sink_tree.tree.vertices})
    ide = module_idempotent(sink_tree, identity.vertex_map, push_down(sink_tree, 3))
    assert ide.blocks == identity_map(ide.domain).blocks


def test_module_idempotent_source(source_tree_factory):
    t = source_tree_factory("alpha", "alpha", "alpha", "alpha")
    endo = IdempotentEndo(t, {1: 1, 2: 3, 3: 3, 4: 5, 5: 5})
    ide = module_idempotent(t, endo.vertex_map, push_down(t, 3))
    rep = ide.domain
    block = blocks(ide)["1"]
    np.testing.assert_array_equal(block[:, rep.basis_index("1", 1)], [1, 0, 0, 0, 0])
    np.testing.assert_array_equal(block[:, rep.basis_index("1", 3)], [0, 1, 1, 0, 0])
    assert not block[:, rep.basis_index("1", 2)].any()
    assert all(np.array_equal(b @ b % 3, b) for b in blocks(ide).values())
    assert ide.intertwines()


def test_split_of_sink_example(sink_tree):
    endo = find_nonidentity_idempotent(sink_tree)
    dec = split(sink_tree, endo, 3)
    assert [s.tree.vertices for s in dec.summands] == [(1, 2, 3, 5), (4,)]
    assert dec.summands[1].vertex_label[4] == "2"  # simple summand at vertex 2
    assert verify_iso(dec.witness)
    # witness column of v4 is v4 - v2
    col = blocks(dec.witness)["2"][:, dec.witness.domain.basis_index("2", 4)]
    expected = np.zeros(3, dtype=int)
    expected[dec.witness.codomain.basis_index("2", 4)] = 1
    expected[dec.witness.codomain.basis_index("2", 2)] = 2  # -1 mod 3
    np.testing.assert_array_equal(col, expected)


def test_split_is_the_direct_sum_of_the_summands_in_the_basis_of_the_tree(random_splits):
    for t, dec in random_splits:
        # the witness maps the direct sum to the module of t for a sink tree, and back for a source tree
        w = dec.witness
        summed, rep = (w.domain, w.codomain) if t.orientation == SINK else (w.codomain, w.domain)
        assert summed.basis == rep.basis
        parts = [s.tree.vertices for s in dec.summands]
        assert sorted(n for part in parts for n in part) == list(t.tree.vertices)
        fixed = set(parts[0])
        assert dec.summands[0].tree.root == t.tree.root
        assert parts[1:] == sorted(parts[1:])
        for s in dec.summands[1:]:
            top = s.tree.root
            assert top not in fixed and t.tree.parent[top] in fixed
            want = restrict(t, t.tree.branch_vertices(top))
            assert (s.tree.vertices, s.tree.arrow_source, s.tree.arrow_target) == (
                want.tree.vertices,
                want.tree.arrow_source,
                want.tree.arrow_target,
            )
            assert (s.vertex_label, s.arrow_label) == (want.vertex_label, want.arrow_label)
        # each arrow matrix is block-diagonal over the summands, with the summand's module as its block
        q = t.codomain.quiver
        dense_sum = actions(summed)
        covered = {a: np.zeros(mat.shape, dtype=bool) for a, mat in dense_sum.items()}
        for s in dec.summands:
            block = push_down(s, rep.prime)
            for a, mat in dense_sum.items():
                rows = [summed.basis_index(q.target(a), n) for n in block.basis[q.target(a)]]
                cols = [summed.basis_index(q.source(a), n) for n in block.basis[q.source(a)]]
                np.testing.assert_array_equal(mat[np.ix_(rows, cols)], actions(block)[a])
                covered[a][np.ix_(rows, cols)] = True
        assert not any(mat[~covered[a]].any() for a, mat in dense_sum.items())


def _two_loop_tree(two_loop_quiver, orientation, edges):
    """A tree over the two-loop quiver from (child, parent, arrow label) edges; every vertex is labelled 1."""
    vertices = sorted({1} | {c for c, _, _ in edges})
    arrows = [(f"a{c}", *((c, p) if orientation == SINK else (p, c))) for c, p, _ in edges]
    return TreeOverQ(RootedTree(vertices, arrows, orientation), two_loop_quiver, {n: "1" for n in vertices}, {f"a{c}": a for c, _, a in edges})


@pytest.mark.parametrize("orientation", [SINK, SOURCE])
def test_split_along_several_tops(two_loop_quiver, orientation):
    star = _two_loop_tree(two_loop_quiver, orientation, [(n, 1, "alpha") for n in (2, 3, 4)])
    # tops 5 < 6, but the branch at 6 holds 2, so it comes first
    comb = _two_loop_tree(two_loop_quiver, orientation, [(5, 1, "alpha"), (6, 1, "alpha"), (7, 1, "alpha"), (2, 6, "beta"), (3, 7, "beta")])
    cases = [
        (star, {1: 1, 2: 4, 3: 4, 4: 4}, [(1, 4), (2,), (3,)]),
        (comb, {1: 1, 2: 3, 3: 3, 5: 7, 6: 7, 7: 7}, [(1, 3, 7), (2, 6), (5,)]),
    ]
    for t, vertex_map, parts in cases:
        dec = split(t, IdempotentEndo(t, vertex_map), 3)
        assert [s.tree.vertices for s in dec.summands] == parts
        for s in dec.summands[1:]:
            want = restrict(t, t.tree.branch_vertices(s.tree.root))
            assert _shape(s) == _shape(want)
        assert verify_iso(dec.witness)


def test_split_rejects_identity(sink_tree):
    identity = IdempotentEndo(sink_tree, {n: n for n in sink_tree.tree.vertices})
    with pytest.raises(ValueError):
        split(sink_tree, identity, 3)


def test_split_source_case(source_tree_factory):
    t = source_tree_factory("alpha", "alpha", "alpha", "alpha")
    endo = find_nonidentity_idempotent(t)
    dec = split(t, endo, 3)
    assert sum(len(s.tree.vertices) for s in dec.summands) == 5
    assert verify_iso(dec.witness)


def test_star_with_identical_leaves():
    from rtmtools import BoundQuiver, Quiver

    q = Quiver(["u", "w"], [("g", "u", "w")])
    bq = BoundQuiver(q, [])
    star = RootedTree([1, 2, 3], [("a2", 2, 1), ("a3", 3, 1)], SINK)
    t = TreeOverQ(star, bq, {1: "w", 2: "u", 3: "u"}, {"a2": "g", "a3": "g"})
    endo = find_nonidentity_idempotent(t)
    dec = split(t, endo, 3)
    assert [len(s.tree.vertices) for s in dec.summands] == [2, 1]
    assert verify_iso(dec.witness)
    rep = push_down(t, 3)
    assert has_nontrivial_idempotent(hom_space(rep, rep)).status == "found"


def test_decompose_fully(sink_tree, source_tree_factory):
    pieces = decompose_fully(sink_tree, 3)
    assert [p.tree.vertices for p in pieces] == [(1, 2, 3, 5), (4,)]
    assert all(is_indecomposable(p) for p in pieces)
    t = source_tree_factory("alpha", "alpha", "alpha", "alpha")
    pieces = decompose_fully(t, 3)
    assert sorted(len(p.tree.vertices) for p in pieces) == [2, 3]
    assert all(is_indecomposable(p) for p in pieces)
    solo = source_tree_factory("alpha", "beta", "alpha", "beta")
    assert decompose_fully(solo, 3) == [solo]


def test_decompose_fully_does_not_recurse_per_split(loop_tail_quiver):
    # A star with k same-labelled leaves splits off one leaf per split, each
    # split inside the summand of the previous one: k - 1 nested splits.
    k = 40
    tree = RootedTree(range(1, k + 2), [(f"a{n}", n, 1) for n in range(2, k + 2)], SINK)
    t = TreeOverQ(
        tree,
        loop_tail_quiver,
        {n: "2" for n in range(1, k + 2)},
        {f"a{n}": "alpha" for n in range(2, k + 2)},
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 30)
    try:
        pieces = decompose_fully(t, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert sorted(len(p.tree.vertices) for p in pieces) == [1] * (k - 1) + [2]


def _chained_splits(t, prime):
    """Reference pieces: `split` each piece in turn, depth-first, each split checking its own witness."""
    pieces, todo = [], [t]
    while todo:
        piece = todo.pop()
        endo = find_nonidentity_idempotent(piece)
        if endo is None:
            pieces.append(piece)
        else:
            todo.extend(reversed(split(piece, endo, prime).summands))
    return pieces


def _shape(t):
    return (t.tree.vertices, t.tree.arrow_source, t.tree.arrow_target, t.vertex_label, t.arrow_label)


def test_decompose_fully_matches_chained_splits_under_one_composed_witness(monkeypatch):
    witnesses = []
    verify = oracle.verify_iso
    monkeypatch.setattr(oracle, "verify_iso", lambda h: witnesses.append(h) or verify(h))
    decomposable = 0
    for seed in range(200):
        for orientation in (SINK, SOURCE):
            t = random_instance(seed, orientation)
            for prime in (3, 5):
                witnesses.clear()
                pieces = decompose_fully(t, prime)
                composite = list(witnesses)
                assert [_shape(x) for x in pieces] == [_shape(x) for x in _chained_splits(t, prime)]
                if len(pieces) == 1:
                    assert composite == []
                    continue
                decomposable += 1
                # one witness, between the direct sum of the pieces in t's basis and the module of t:
                # from the direct sum for a sink tree, to it for a source tree
                [w] = composite
                assert verify(w)
                rep, q = push_down(t, prime), t.codomain.quiver
                summand_side, module_side = (w.domain, w.codomain) if orientation == SINK else (w.codomain, w.domain)
                summed = {a: np.zeros_like(m) for a, m in actions(rep).items()}
                for x in pieces:
                    for e in x.tree.arrows:
                        a = x.arrow_label[e]
                        row = rep.basis_index(q.target(a), x.tree.arrow_target[e])
                        summed[a][row, rep.basis_index(q.source(a), x.tree.arrow_source[e])] = 1
                assert w.domain.basis == w.codomain.basis == rep.basis
                for a, m in actions(rep).items():
                    np.testing.assert_array_equal(actions(summand_side)[a], summed[a])
                    np.testing.assert_array_equal(actions(module_side)[a], m)
    assert decomposable >= 150


def _corrupt_entry(prime, cut, columns):
    """Move the greatest off-identity entry of W by 1.

    Not every such move breaks W: on a source star, the column of a leaf may
    take any multiple of another leaf.  The test uses trees on which it does.
    """
    j, r = max((j, r) for j, column in columns.items() for r in column if r != j)
    return cut, {**columns, j: {**columns[j], r: (columns[j][r] + 1) % prime}}


def _leave_uncut(prime, cut, columns):
    """Keep the first cut arrow in the direct sum."""
    return cut[1:], columns


@pytest.mark.parametrize("corrupt", [_corrupt_entry, _leave_uncut])
@pytest.mark.parametrize("prime", [3, 5])
def test_decompose_fully_raises_on_a_corrupted_composite(monkeypatch, sink_tree, source_tree_factory, loop_tail_quiver, corrupt, prime):
    verified = structure._verified_witness
    monkeypatch.setattr(structure, "_verified_witness", lambda t, rep, cut, columns: verified(t, rep, *corrupt(prime, cut, columns)))
    stars = [
        TreeOverQ(
            RootedTree(range(1, 5), [(f"a{n}", *((n, 1) if orientation == SINK else (1, n))) for n in (2, 3, 4)], orientation),
            loop_tail_quiver,
            {n: "2" for n in range(1, 5)},
            {f"a{n}": "alpha" for n in (2, 3, 4)},
        )
        for orientation in (SINK, SOURCE)
    ]
    for t in [sink_tree, source_tree_factory("alpha", "alpha", "alpha", "alpha"), *stars]:
        with pytest.raises(AssertionError, match="witness failed verification"):
            decompose_fully(t, prime)


def _corrupted_witnesses(t, witness, rng):
    """Copies of a certificate's witness with one image sent to a random vertex, or one non-root vertex dropped."""
    n1, vmap = witness.domain_root, witness.vertex_map
    copies = []
    for _ in range(5):
        m = {**vmap, rng.choice(sorted(vmap)): rng.choice(t.tree.vertices)}
        copies.append(BranchMorphism(n1, m[n1], m))
    if len(vmap) > 1:
        dropped = rng.choice(sorted(set(vmap) - {n1}))
        copies.append(BranchMorphism(n1, vmap[n1], {n: m for n, m in vmap.items() if n != dropped}))
    return copies


def _induces_a_moving_idempotent(t, witness):
    """The whole-piece check: the witness with the identity elsewhere is an IdempotentEndo that moves n1."""
    vertex_map = {n: n for n in t.tree.vertices}
    vertex_map.update(witness.vertex_map)
    try:
        IdempotentEndo(t, vertex_map)
    except ValueError:
        return False
    return vertex_map[witness.domain_root] != witness.domain_root


@pytest.mark.parametrize("shape", [{}, {"max_vertices": 16, "max_depth": 5, "end_dim_cap": None}], ids=["default", "deeper"])
@pytest.mark.parametrize("orientation", [SINK, SOURCE])
def test_certificate_check_agrees_with_the_whole_piece_idempotent(orientation, shape):
    checked = rejected = 0
    for seed in range(200):
        rng = random.Random(seed)
        todo = [random_instance(seed, orientation, **shape)]
        while todo:  # every piece of the decomposition
            t = todo.pop()
            cert = first_certificate(t)
            if cert is None:
                continue
            for witness in [cert[-1]] + _corrupted_witnesses(t, cert[-1], rng):
                try:
                    moved = structure._checked_moves(t, witness, t.tree.child_lists, t.tree.parent)
                except AssertionError:
                    moved = None
                    rejected += 1
                assert (moved is not None) == _induces_a_moving_idempotent(t, witness), (seed, witness)
                checked += 1
            todo += split(t, find_nonidentity_idempotent(t), 3).summands
    assert checked >= 150 and 0.2 * checked <= rejected <= 0.8 * checked


def _root_to_itself(t, witness):
    n1 = witness.domain_root
    return BranchMorphism(n1, n1, {**witness.vertex_map, n1: n1})


def _root_to_parent(t, witness):
    n1 = witness.domain_root
    up = t.tree.parent[n1]
    return BranchMorphism(n1, up, {**witness.vertex_map, n1: up})


def _drop_a_leaf(t, witness):
    leaf = max(witness.vertex_map)
    return BranchMorphism(witness.domain_root, witness.codomain_root, {n: m for n, m in witness.vertex_map.items() if n != leaf})


@pytest.mark.parametrize("corrupt", [_root_to_itself, _root_to_parent, _drop_a_leaf])
def test_decompose_fully_raises_on_a_corrupted_certificate(monkeypatch, sink_tree, source_tree_factory, corrupt):
    certificate = structure.first_certificate

    def corrupted(t, *view):
        cert = certificate(t, *view)
        return None if cert is None else (*cert[:3], corrupt(t, cert[3]))

    monkeypatch.setattr(structure, "first_certificate", corrupted)
    monkeypatch.setattr(oracle, "verify_iso", lambda h: pytest.fail("the composite was checked after a corrupted certificate"))
    trees = [source_tree_factory("alpha", "alpha", "alpha", "alpha")]  # the certificate moves 2 and 4
    if corrupt is not _drop_a_leaf:
        trees.append(sink_tree)  # the certificate moves the leaf 4 alone
    for t in trees:
        with pytest.raises(AssertionError, match="sibling certificate failed its check"):
            decompose_fully(t, 3)


@pytest.mark.parametrize("orientation", [SINK, SOURCE])
def test_decompose_fully_refuses_a_certificate_into_a_split_off_branch(monkeypatch, loop_tail_quiver, orientation):
    # After the first split of a star, the root keeps two of its three leaves in its view; the leaf
    # split off is still a sibling in t, but not in the piece, so mapping onto it is no idempotent of the piece.
    edges = [(f"a{n}", *((n, 1) if orientation == SINK else (1, n))) for n in (2, 3, 4)]
    t = TreeOverQ(RootedTree(range(1, 5), edges, orientation), loop_tail_quiver, {n: "2" for n in range(1, 5)}, {f"a{n}": "alpha" for n in (2, 3, 4)})
    certificate = structure.first_certificate

    def onto_a_split_off_leaf(t, root=None, children=None):
        cert = certificate(t, root, children)
        gone = [] if cert is None or children is None else [n for n in t.tree.children(cert[0]) if n not in children[cert[0]]]
        return (cert[0], cert[1], gone[0], BranchMorphism(cert[1], gone[0], {cert[1]: gone[0]})) if gone else cert

    monkeypatch.setattr(structure, "first_certificate", onto_a_split_off_leaf)
    monkeypatch.setattr(oracle, "verify_iso", lambda h: pytest.fail("the composite was checked after a corrupted certificate"))
    with pytest.raises(AssertionError, match="sibling certificate failed its check"):
        decompose_fully(t, 3)


def test_dimension_conservation(sink_tree):
    rep = push_down(sink_tree, 3)
    pieces = decompose_fully(sink_tree, 3)
    summed: dict = {}
    for p in pieces:
        for q, vs in push_down(p, 3).basis.items():
            summed[q] = summed.get(q, 0) + len(vs)
    assert summed == {q: rep.dim(q) for q in rep.basis}


def test_cor2_reports(source_tree_factory):
    distinct = source_tree_factory("alpha", "beta", "alpha", "beta")
    assert cor2_report(distinct).indecomposable
    blocked = source_tree_factory("alpha", "alpha", "beta", "alpha")
    report = cor2_report(blocked)
    assert report.indecomposable  # same sibling labels, but branches do not embed
    both = source_tree_factory("alpha", "alpha", "beta", "beta")
    report = cor2_report(both)
    assert not report.indecomposable
    assert report.pair == (2, 3)
    assert report.witness.vertex_map == {2: 3, 4: 5}


def test_cor2_precondition_checked(source_tree_factory):
    # grow a tree whose root branch is itself decomposable
    t = source_tree_factory("alpha", "alpha", "alpha", "alpha")
    deep = RootedTree(
        [0, 1, 2, 3, 4, 5],
        [("a1", 0, 1), ("a2", 1, 2), ("a3", 1, 3), ("a4", 2, 4), ("a5", 3, 5)],
        SOURCE,
    )
    bad = TreeOverQ(
        deep,
        t.codomain,
        {n: "1" for n in range(6)},
        {"a1": "beta", "a2": "alpha", "a3": "alpha", "a4": "alpha", "a5": "alpha"},
    )
    with pytest.raises(ValueError, match="decomposable"):
        cor2_report(bad)


def test_embeds_is_orientation_independent(two_loop_quiver):
    """The pairwise DP sees only (vertex label, child label) data."""
    labels = {"a2": "alpha", "a3": "alpha", "a4": "alpha", "a5": "beta"}
    as_source = TreeOverQ(
        RootedTree([1, 2, 3, 4, 5], [("a2", 1, 2), ("a3", 1, 3), ("a4", 2, 4), ("a5", 3, 5)], SOURCE),
        two_loop_quiver,
        {n: "1" for n in range(1, 6)},
        labels,
    )
    as_sink = TreeOverQ(
        RootedTree([1, 2, 3, 4, 5], [("a2", 2, 1), ("a3", 3, 1), ("a4", 4, 2), ("a5", 5, 3)], SINK),
        two_loop_quiver,
        {n: "1" for n in range(1, 6)},
        labels,
    )
    for x in range(1, 6):
        for y in range(1, 6):
            hit_source = embeds(as_source, x, y)
            hit_sink = embeds(as_sink, x, y)
            assert (hit_source is None) == (hit_sink is None)
            if hit_source is not None:
                assert hit_source.vertex_map == hit_sink.vertex_map


def test_theorem_round_trip_on_random_instances():
    for seed in range(30):
        for orientation in (SINK, SOURCE):
            t = random_instance(seed, orientation, max_vertices=8, end_dim_cap=8)
            rep = push_down(t, 3)
            search = has_nontrivial_idempotent(hom_space(rep, rep))
            assert search.available
            assert is_indecomposable(t) == (search.status == "none"), seed


def test_embeds_witnesses_respect_heights():
    """A branch morphism can only land in a branch at least as tall."""
    for seed in range(20):
        for orientation in (SINK, SOURCE):
            t = random_instance(seed, orientation, max_vertices=8, end_dim_cap=None)
            tree = t.tree

            def branch_height(n):
                return max(tree.height[v] for v in tree.branch_vertices(n)) - tree.height[n]

            for x in tree.vertices:
                for y in tree.vertices:
                    witness = embeds(t, x, y)
                    if witness is not None:
                        assert witness.check(t, t)
                        assert branch_height(x) <= branch_height(y)


def _twin_chain(n):
    """Two same-labelled sink chains of length n under the root 1, over the linear quiver A_(n+1)."""
    q = BoundQuiver(Quiver([f"q{i}" for i in range(n + 1)], [(f"b{i}", f"q{i}", f"q{i - 1}") for i in range(1, n + 1)]), [])
    arrows, vertex_label, arrow_label = [], {1: "q0"}, {}
    for first in (2, n + 2):
        for depth in range(1, n + 1):
            v = first + depth - 1
            arrows.append((f"a{v}", v, 1 if depth == 1 else v - 1))
            vertex_label[v], arrow_label[f"a{v}"] = f"q{depth}", f"b{depth}"
    return TreeOverQ(RootedTree(range(1, 2 * n + 2), arrows, SINK), q, vertex_label, arrow_label)


def test_first_certificate_on_a_long_twin_chain_keeps_linear_memory():
    # Each memoized pair keeps its chosen child pairs.  Copying every child's whole mapping into its
    # parent held about 4.5 M mapping entries here: n**2 / 2.
    n = 3000
    t = _twin_chain(n)
    tracemalloc.start()
    try:
        parent, n1, n2, witness = first_certificate(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (parent, n1, n2) == (1, 2, n + 2)
    assert witness.vertex_map == {v: v + n for v in range(2, n + 2)}
    assert peak < 8 * 2**20
