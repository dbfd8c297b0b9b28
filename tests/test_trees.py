"""Rooted trees, labellings, and module materialization."""

import random
import time
from itertools import product

import numpy as np
import pytest
from dense import actions, sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from rtmtools import (
    SINK,
    SOURCE,
    BoundQuiver,
    ModuleHom,
    ModuleRep,
    Quiver,
    RootedTree,
    StructureError,
    TreeOverQ,
    check_locally_bound,
    push_down,
    random_instance,
    validate_tree_over_q,
)
from rtmtools import algebra
from rtmtools.algebra import first_relation
from rtmtools.cli import main
from rtmtools.textio import parse_document
from rtmtools.trees import TreeValidationReport, restrict


def test_sink_tree_structure(sink_tree):
    tree = sink_tree.tree
    assert tree.root == 1
    assert tree.parent == {2: 1, 3: 1, 4: 1, 5: 2}
    assert tree.height == {1: 0, 2: 1, 3: 1, 4: 1, 5: 2}
    assert tree.children(1) == (2, 3, 4)
    assert validate_tree_over_q(sink_tree).ok


# (vertices, arrows written for a sink tree, message); a source tree
# reverses every arrow, which keeps each case's shape and its message.
STRUCTURE_ERRORS = {
    "duplicate vertex": ([1, 1, 2], [("a", 2, 1)], "duplicate tree vertex labels"),
    "empty tree": ([], [], "empty tree"),
    "non-integer vertex": ([1, 2.5], [("a", 2.5, 1)], "tree vertices must be integer labels"),
    "duplicate arrow": ([1, 2, 3], [("a", 2, 1), ("a", 3, 1)], "duplicate tree arrow 'a'"),
    "undeclared endpoint": ([1, 2], [("a", 2, 9)], "tree arrow 'a' has undeclared endpoint"),
    "loop": ([1, 2], [("a", 2, 2)], "tree arrow 'a' is a loop"),
    "second child arrow": (
        [1, 2, 3, 4],
        [("a", 2, 1), ("b", 3, 1), ("c", 3, 1)],
        "some non-root vertex has more than one child arrow",
    ),
    "too few arrows": ([1, 2, 3], [("a", 2, 1)], "a tree on n vertices needs exactly n-1 arrows"),
    "too many arrows": (
        [1, 2, 3],
        [("a", 2, 1), ("b", 3, 2), ("c", 1, 3)],
        "a tree on n vertices needs exactly n-1 arrows",
    ),
    "two roots": ([1, 2, 3], [("a", 2, 1), ("b", 2, 3)], "some non-root vertex has more than one child arrow"),
    "cycle beside an isolated vertex": (
        [1, 2, 3, 4],
        [("a", 2, 1), ("b", 3, 2), ("c", 1, 3)],
        "underlying graph is not connected",
    ),
}


@pytest.mark.parametrize("orientation", [SINK, SOURCE])
@pytest.mark.parametrize("case", sorted(STRUCTURE_ERRORS))
def test_structure_errors(tmp_path, capsys, case, orientation):
    vertices, arrows, message = STRUCTURE_ERRORS[case]
    if orientation == SOURCE:
        arrows = [(name, tgt, src) for name, src, tgt in arrows]
    with pytest.raises(StructureError) as err:
        RootedTree(vertices, arrows, orientation)
    assert str(err.value) == message
    if case in ("empty tree", "non-integer vertex"):
        return  # the parser refuses these before a tree is built
    path = tmp_path / "bad.rtm"
    path.write_text(
        f"QUIVER\nvertex q\narrow alpha q q\nTREE {orientation.upper()}\n"
        + "".join(f"node {v} q\n" for v in vertices)
        + "".join(f"arrow {name} {src} {tgt} alpha\n" for name, src, tgt in arrows)
    )
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: line 0: {message}\n"


def test_bound_condition_failure_reports_offending_path(sink_tree):
    bad = TreeOverQ(
        sink_tree.tree,
        sink_tree.codomain,
        {1: "2", 2: "2", 3: "1", 4: "2", 5: "2"},
        {"a2": "alpha", "a3": "beta", "a4": "alpha", "a5": "alpha"},
    )
    report = validate_tree_over_q(bad)
    assert not report.ok
    vertices, relation = report.witness
    assert relation == ("alpha", "alpha")
    assert vertices == (5, 2, 1)


def test_single_vertex_tree_valid(loop_tail_quiver):
    t = TreeOverQ(RootedTree([7], [], SINK), loop_tail_quiver, {7: "1"}, {})
    assert validate_tree_over_q(t).ok


def _branch(t, vertex):
    return restrict(t, t.tree.branch_vertices(vertex))


def test_branch_examples(sink_tree):
    b = _branch(sink_tree, 2)
    assert b.tree.vertices == (2, 5)
    assert b.tree.arrows == ("a5",)
    assert b.tree.root == 2
    assert validate_tree_over_q(b).ok
    assert _branch(sink_tree, 1).tree.vertices == sink_tree.tree.vertices
    assert _branch(sink_tree, 4).tree.vertices == (4,)


def test_branch_sizes_add_up(sink_tree):
    tree = sink_tree.tree
    for n in tree.vertices:
        total = 1 + sum(len(_branch(sink_tree, c).tree.vertices) for c in tree.children(n))
        assert len(_branch(sink_tree, n).tree.vertices) == total


def _relations_vanish(rep):
    """Every relation acts by zero: the product of its arrows' dense actions, the first-traversed arrow rightmost."""
    mats = actions(rep)
    for relation in rep.codomain.relations:
        word = mats[relation[0]]
        for a in relation[1:]:
            word = mats[a] @ word % rep.prime
        if word.any():
            return False
    return True


def test_push_down_sink_matrices(sink_tree):
    rep = push_down(sink_tree, 3)
    assert rep.basis == {"1": (3, 5), "2": (1, 2, 4)}
    assert sum(rep.dim(q) for q in rep.basis) == 5
    np.testing.assert_array_equal(actions(rep)["beta"], [[1, 0], [0, 1], [0, 0]])
    np.testing.assert_array_equal(actions(rep)["alpha"], [[0, 1, 1], [0, 0, 0], [0, 0, 0]])
    assert _relations_vanish(rep)


def test_push_down_source_action(source_tree_factory):
    t = source_tree_factory("alpha", "alpha", "alpha", "beta")
    rep = push_down(t, 3)
    # alpha sends v1 to v2 + v3 and v2 to v4; beta sends v3 to v5
    alpha = actions(rep)["alpha"]
    np.testing.assert_array_equal(alpha[:, 0], [0, 1, 1, 0, 0])
    np.testing.assert_array_equal(alpha[:, 1], [0, 0, 0, 1, 0])
    np.testing.assert_array_equal(actions(rep)["beta"][:, 2], [0, 0, 0, 0, 1])
    assert _relations_vanish(rep)


def test_push_down_single_vertex(loop_tail_quiver):
    t = TreeOverQ(RootedTree([1], [], SINK), loop_tail_quiver, {1: "2"}, {})
    rep = push_down(t, 3)
    assert {q: rep.dim(q) for q in rep.basis} == {"1": 0, "2": 1}
    assert rep.actions == {"alpha": {}, "beta": {}}


def _dense_push_down(t, p):
    """Reference module: zero matrices shaped by the bases, a 1 at (row of the target, column of the source) per tree arrow."""
    q, tree = t.codomain.quiver, t.tree
    basis = {v: [n for n in tree.vertices if t.vertex_label[n] == v] for v in q.vertices}
    mats = {a: np.zeros((len(basis[q.target(a)]), len(basis[q.source(a)])), dtype=np.int64) for a in q.arrows}
    for e in tree.arrows:
        a = t.arrow_label[e]
        mats[a][basis[q.target(a)].index(tree.arrow_target[e]), basis[q.source(a)].index(tree.arrow_source[e])] = 1
    return basis, mats


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 199), st.sampled_from((SINK, SOURCE)), st.sampled_from((3, 5)))
def test_push_down_entries_match_the_dense_reference(seed, orientation, p):
    t = random_instance(seed, orientation)
    rep = push_down(t, p)
    basis, mats = _dense_push_down(t, p)
    assert rep.basis == {v: tuple(vs) for v, vs in basis.items()}
    assert rep.actions == {a: sparse(m) for a, m in mats.items()}
    for a, m in actions(rep).items():
        np.testing.assert_array_equal(m, mats[a])


def test_modules_and_maps_check_their_entries(sink_tree):
    rep = push_down(sink_tree, 3)
    with pytest.raises(ValueError, match=r"arrow 'beta' has an entry at \(3, 0\), outside its shape \(3, 2\)"):
        ModuleRep(3, rep.codomain, rep.basis, {"beta": {(3, 0): 1}})
    with pytest.raises(ValueError, match=r"block at '1' has an entry at \(0, -1\)"):
        ModuleHom(rep, rep, {"1": {(0, -1): 1}})
    # residues are reduced and zeros dropped
    assert ModuleRep(3, rep.codomain, rep.basis, {"alpha": {(0, 1): 4, (0, 2): 3}}).actions["alpha"] == {(0, 1): 1}
    assert ModuleHom(rep, rep, {"2": {(1, 1): -1, (0, 0): 6}}).blocks == {"1": {}, "2": {(1, 1): 2}}


def test_push_down_rejects_bad_primes(sink_tree):
    for p in (2, 4, 9, 1):
        with pytest.raises(ValueError):
            push_down(sink_tree, p)
    push_down(sink_tree, 101)  # any odd prime below the int64 bound is fine
    push_down(sink_tree, 16777213)  # the largest prime below 2**24
    with pytest.raises(ValueError, match=r"p < 2\*\*24"):
        push_down(sink_tree, 16777259)  # the least prime above it


def test_relation_vanishing_on_random_instances():
    for seed in range(25):
        for orientation in (SINK, SOURCE):
            t = random_instance(seed, orientation, max_vertices=8, end_dim_cap=None)
            assert _relations_vanish(push_down(t, 3))


def _per_leaf_report(t):
    """Reference validation: every whole root-to-leaf image word searched by `first_relation`, leaf by leaf."""
    tree, q = t.tree, t.codomain.quiver
    for a in tree.arrows:
        lab = t.arrow_label[a]
        if q.source(lab) != t.vertex_label[tree.arrow_source[a]] or q.target(lab) != t.vertex_label[tree.arrow_target[a]]:
            return TreeValidationReport(False, f"labels do not commute at tree arrow {a!r}", (a, lab))
    arrow_between = {(tree.arrow_source[a], tree.arrow_target[a]): a for a in tree.arrows}
    for leaf in tree.leaves():
        chain = [leaf]
        while chain[-1] != tree.root:
            chain.append(tree.parent[chain[-1]])
        if leaf != tree.root and tree.arrow_target[tree.child_arrow[leaf]] == leaf:
            chain.reverse()
        # the image word, read from the tree arrow that runs from each chain vertex to the next
        word = tuple(t.arrow_label[arrow_between[a, b]] for a, b in zip(chain, chain[1:]))
        hit = first_relation(t.codomain, word)
        if hit is not None:
            i, rel = hit
            return TreeValidationReport(False, "image of a tree path lies in the relation ideal", (tuple(chain[i : i + len(rel) + 1]), rel))
    return TreeValidationReport(True)


def _random_shape(rng, orientation):
    """A random tree on up to 24 vertices, each parent drawn among the three vertices before it, so often deep."""
    n = rng.randint(1, 24)
    arrows = [(f"a{v}", *((v, p) if orientation == SINK else (p, v))) for v in range(1, n) for p in [rng.randrange(max(0, v - 3), v)]]
    return RootedTree(range(n), arrows, orientation)


def _relabelled(tree, codomain, rng):
    """The tree with random labels over `codomain`: each arrow label leaves (or enters) its parent's
    label when the quiver has such an arrow, and one vertex label in ten trees is redrawn."""
    q = codomain.quiver
    vertex_label, arrow_label = {tree.root: rng.choice(sorted(q.vertices))}, {}
    down = [tree.root]
    for v in down:
        down.extend(tree.children(v))
    for v in down[1:]:
        a, up = tree.child_arrow[v], tree.parent[v]
        leaving = tree.arrow_source[a] == up
        options = sorted(x for x in q.arrows if (q.source(x) if leaving else q.target(x)) == vertex_label[up])
        arrow_label[a] = lab = rng.choice(options or sorted(q.arrows))
        vertex_label[v] = q.target(lab) if leaving else q.source(lab)
    if rng.random() < 0.1:
        vertex_label[rng.choice(down)] = rng.choice(sorted(q.vertices))
    return TreeOverQ(tree, codomain, vertex_label, arrow_label)


def test_validation_reports_what_the_per_leaf_check_reports(sink_tree, two_loop_quiver):
    loops = Quiver(["1"], [("alpha", "1", "1"), ("beta", "1", "1")])
    codomains = [
        two_loop_quiver,  # every length-3 word
        BoundQuiver(loops, [("alpha", "beta", "alpha"), ("beta", "beta"), ("alpha",) * 5]),
        BoundQuiver(loops, [("alpha", "alpha", "beta", "alpha", "alpha", "beta")]),  # an overlapping prefix
    ]
    bad = TreeOverQ(sink_tree.tree, sink_tree.codomain, {**sink_tree.vertex_label, 5: "2"}, {**sink_tree.arrow_label, "a5": "alpha"})
    cases = [sink_tree, bad]
    for seed in range(200):
        for orientation in (SINK, SOURCE):
            t = random_instance(seed, orientation)
            rng = random.Random(seed)
            cases += [t, _relabelled(t.tree, t.codomain, rng)]
            cases += [_relabelled(_random_shape(rng, orientation), bq, rng) for bq in [t.codomain, *codomains]]
    messages = []
    for t in cases:
        report = validate_tree_over_q(t)
        assert report == _per_leaf_report(t)
        messages.append(report.message)
    assert messages.count("image of a tree path lies in the relation ideal") >= 300
    assert sum(m.startswith("labels do not commute") for m in messages) >= 50


def _comb(spine, orientation, codomain):
    """A spine of `spine` alpha arrows down from the root, with one beta leaf off each spine vertex."""
    edges = [(v, v - 1, "alpha") for v in range(1, spine + 1)] + [(spine + v, v, "beta") for v in range(1, spine + 1)]
    arrows = [(f"a{c}", *((c, p) if orientation == SINK else (p, c))) for c, p, _ in edges]
    tree = RootedTree(range(2 * spine + 1), arrows, orientation)
    return TreeOverQ(tree, codomain, {v: "1" for v in tree.vertices}, {f"a{c}": lab for c, _, lab in edges})


@pytest.mark.parametrize("orientation", [SINK, SOURCE])
def test_validation_is_linear_on_a_comb(orientation):
    # Checking each whole root-to-leaf word took 3.3-3.7 s on this comb: O(sum of the leaf depths).
    loops = Quiver(["1"], [("alpha", "1", "1"), ("beta", "1", "1")])
    t = _comb(4000, orientation, BoundQuiver(loops, [("beta", "beta"), ("beta", "alpha", "beta")]))
    start = time.perf_counter()
    report = validate_tree_over_q(t)
    assert time.perf_counter() - start < 0.5
    assert report.ok
    # the same comb with alpha^3 = 0 fails at its first leaf in ascending order that lies at depth >= 3
    t = _comb(4000, orientation, BoundQuiver(loops, [("alpha",) * 3]))
    report = validate_tree_over_q(t)
    assert report == _per_leaf_report(t)
    assert report.witness == ((0, 1, 2, 3) if orientation == SOURCE else (3, 2, 1, 0), ("alpha",) * 3)


def _alpha_forest(chains, depth, orientation):
    """A root with `chains` chains of `depth` alpha arrows, over three loops bound by every word of
    six arrows but alpha^6, and by alpha^31: 729 relations, none in the image of a root path."""
    q = Quiver(["1"], [(x, "1", "1") for x in ("alpha", "beta", "gamma")])
    rels = [w for w in product(q.arrows, repeat=6) if set(w) != {"alpha"}] + [("alpha",) * 31]
    n = chains * depth + 1
    edges = [(v, v - 1 if (v - 1) % depth else 0) for v in range(1, n)]
    arrows = [(f"a{c}", *((c, p) if orientation == SINK else (p, c))) for c, p in edges]
    tree = RootedTree(range(n), arrows, orientation)
    return TreeOverQ(tree, BoundQuiver(q, rels), dict.fromkeys(range(n), "1"), {a: "alpha" for a, _, _ in arrows})


@pytest.mark.parametrize("orientation", [SINK, SOURCE])
def test_validation_reads_all_relations_in_one_walk(orientation):
    # One automaton walk per relation took 4.9-6.0 s on this forest of 19,981 vertices.
    t = _alpha_forest(666, 30, orientation)
    assert len(t.codomain.relations) == 729
    start = time.perf_counter()
    report = validate_tree_over_q(t)
    assert time.perf_counter() - start < 0.5
    assert report.ok
    # a beta at depth 25 of the first chain is a relation with the five alphas below it
    bad = TreeOverQ(t.tree, t.codomain, t.vertex_label, {**t.arrow_label, "a25": "beta"})
    report = validate_tree_over_q(bad)
    assert report == _per_leaf_report(bad)
    assert report.witness[1] == ("alpha",) * 5 + ("beta",)


@pytest.mark.parametrize("orientation", [SINK, SOURCE])
def test_each_bound_quiver_builds_each_relation_table_once(monkeypatch, sink_document, source_document_factory, orientation):
    built = []
    automaton = algebra.relation_automaton
    monkeypatch.setattr(algebra, "relation_automaton", lambda words: built.append(1) or automaton(words))
    text = sink_document if orientation == SINK else source_document_factory("alpha", "beta", "alpha", "beta")
    t = parse_document(text).tree
    for _ in range(3):
        push_down(t, 3)
        assert validate_tree_over_q(t).ok
        assert check_locally_bound(t.codomain).ok
    # a source tree reads its relations forward, as the locally-bound check does; a sink tree reads them reversed
    assert len(built) == (1 if orientation == SOURCE else 2)
