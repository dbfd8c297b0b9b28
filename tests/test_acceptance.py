"""Acceptance criteria, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  The randomized suites draw 200 seeded instances (100
seeds, both orientations, at most 8 tree vertices) once per session.
"""

import re
from itertools import product

import numpy as np
import pytest
from dense import blocks

from rtmtools import (
    SINK,
    SOURCE,
    PullbackNetwork,
    Quiver,
    BoundQuiver,
    check_locally_bound,
    decompose_fully,
    enumerate_ggms,
    find_nonidentity_idempotent,
    ggm_matrix,
    has_nontrivial_idempotent,
    hom_space,
    hom_span,
    is_indecomposable,
    maximal_r_free_traversals,
    module_idempotent,
    push_down,
    random_instance,
    split,
    verify_iso,
)
from rtmtools.cli import main
from rtmtools.network import _edge
from test_network import links_at, reference_walks


def _report(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def instances():
    out = []
    for seed in range(100):
        for orientation in (SINK, SOURCE):
            out.append(random_instance(seed, orientation, max_vertices=8, end_dim_cap=8))
    return out


EXPECTED_GGM_VERTEX_SETS = {
    frozenset({(1, 1, 1), (2, 2, 1), (3, 3, 1), (4, 4, 1), (5, 5, 1)}),
    frozenset({(1, 1, 1), (2, 2, 1), (3, 3, 1), (4, 2, 1), (5, 5, 1)}),
    frozenset({(4, 2, 1), (4, 4, -1)}),
    frozenset({(2, 1, 1), (5, 3, 1)}),
    frozenset({(4, 1, 1)}),
}


def test_criterion_1_five_vertex_example_fidelity(sink_tree):
    net = PullbackNetwork(sink_tree, sink_tree)
    roots_ok = set(net.forest_roots) == {(1, 1), (1, 4), (1, 2), (4, 1), (2, 1)}
    census_ok = maximal_r_free_traversals(net) == 13
    ggms = enumerate_ggms(sink_tree, sink_tree)
    sets_ok = {g.vertices for g in ggms} == EXPECTED_GGM_VERTEX_SETS
    signed = enumerate_ggms(sink_tree, sink_tree, with_signs=True)
    count_ok = len(ggms) == 5 and len(signed) == 10
    projected = {v[:2] for g in signed for v in g.vertices}
    exclusion_ok = (2, 4) not in projected and (1, 4) not in projected
    _report(
        1,
        roots_ok and census_ok and sets_ok and count_ok and exclusion_ok,
        "forest roots, census of 13, the five graph maps, and the exclusions "
        f"(roots={roots_ok}, census={census_ok}, sets={sets_ok}, "
        f"counts={count_ok}, exclusion={exclusion_ok})",
    )


def test_criterion_2_span_law(sink_tree, instances):
    rep = push_down(sink_tree, 3)
    _, rank = hom_span(sink_tree, sink_tree, rep, rep)
    example_ok = rank == 4 and hom_space(rep, rep).dimension == 4
    disagreements = 0
    for t in instances:
        m = push_down(t, 3)
        _, r = hom_span(t, t, m, m)
        if r != hom_space(m, m).dimension:
            disagreements += 1
    _report(
        2,
        example_ok and disagreements == 0,
        f"span rank 4 = oracle dim 4 on the five-vertex example; "
        f"{len(instances)} random instances with {disagreements} disagreements",
    )


def test_criterion_3_theorem_round_trip(sink_tree, source_tree_factory, instances):
    worked = [sink_tree, source_tree_factory("alpha", "beta", "alpha", "beta")]
    bad = 0
    unavailable = 0
    for t in list(instances) + worked:
        verdict = is_indecomposable(t)
        for p in (3, 5):
            rep = push_down(t, p)
            search = has_nontrivial_idempotent(hom_space(rep, rep))
            if not search.available:
                unavailable += 1
                continue
            if verdict != (search.status == "none"):
                bad += 1
    _report(
        3,
        bad == 0 and unavailable == 0,
        f"{len(instances) + 2} instances x (p=3, p=5): {bad} disagreements, "
        f"{unavailable} oracle gaps",
    )


def test_criterion_4_decomposition_fidelity(sink_tree, sink_document, tmp_path, capsys):
    endo = find_nonidentity_idempotent(sink_tree)
    dec = split(sink_tree, endo, 3)
    dims = sorted(len(s.tree.vertices) for s in dec.summands)
    core = dec.summands[0]
    library_ok = (
        dims == [1, 4]
        and core.tree.vertices == (1, 2, 3, 5)
        and dec.summands[1].vertex_label[4] == "2"
        and verify_iso(dec.witness)
    )
    path = tmp_path / "m.rtm"
    path.write_text(sink_document, encoding="utf-8")
    code = main(["decompose", str(path)])
    out = capsys.readouterr().out
    cli_ok = (
        code == 0
        and "SUMMAND 1 (dim 4)" in out
        and "SUMMAND 2 (dim 1)" in out
        and "node 4 2" in out
        and "witness: OK" in out
    )
    _report(4, library_ok and cli_ok, f"split dims {dims}, core {core.tree.vertices}, witness verified, command agrees")


def test_criterion_5_source_example_census(source_tree_factory):
    mismatches = []
    for labels in product(["alpha", "beta"], repeat=4):
        t = source_tree_factory(*labels)
        expected_decomposable = labels[0] == labels[1] and labels[2] == labels[3]
        theorem = not is_indecomposable(t)
        rep = push_down(t, 3)
        oracle_says = has_nontrivial_idempotent(hom_space(rep, rep)).status == "found"
        if not (theorem == oracle_says == expected_decomposable):
            mismatches.append(labels)
    _report(
        5,
        not mismatches,
        f"16 label assignments: exactly the 4 with matched labels decompose (mismatches: {mismatches})",
    )


SHAPES = {SINK: re.compile(r"f*e?b*"), SOURCE: re.compile(r"b*e?f*")}


def _forest_ok(net):
    moves = links_at(net)

    def up(v):
        return [a for kind, a, _ in moves[v] if kind == ("f" if net.orientation == SINK else "b")]

    roots = 0
    for v in net.vertices:
        ups = up(v)
        if len(ups) > 1:
            return False
        steps = 0
        at = v
        while True:  # following parents must terminate at a root
            outs = up(at)
            if not outs:
                break
            at = outs[0].target if net.orientation == SINK else outs[0].source
            steps += 1
            if steps > len(net.vertices):
                return False
        roots += not up(v)
    return roots == len(net.forest_roots)


def test_criterion_6_structural_property_suites(instances):
    checked = {"census": 0, "ggm": 0, "idem": 0, "split": 0}
    for t in instances:
        orientation = t.orientation
        net = PullbackNetwork(t, t)
        assert _forest_ok(net)
        edge_set, moves = set(net.edges), links_at(net)
        for e1 in net.edges:
            for shared, far in ((e1[0], e1[1]), (e1[1], e1[0])):
                for kind, _, other in moves[shared]:
                    if kind == "e" and other != far:
                        assert _edge(far, other) in edge_set
        walks = reference_walks(net)
        assert maximal_r_free_traversals(net) == len(walks)
        for word in walks.values():
            assert SHAPES[orientation].fullmatch(word)
            assert word.count("e") <= 1
            checked["census"] += 1
        rep = push_down(t, 3)
        heights = t.tree.height

        def branch_height(n):
            return max(heights[v] for v in t.tree.branch_vertices(n)) - heights[n]

        for g in enumerate_ggms(t, t):
            h = ggm_matrix(g, rep, rep)
            assert h.intertwines() and any(h.blocks.values())
            flipped = blocks(ggm_matrix(g.negate(), rep, rep))
            assert all(np.array_equal(flipped[q], -b % 3) for q, b in blocks(h).items())
            for (n, m, _) in g.vertices:
                if orientation == SINK:
                    assert branch_height(n) <= branch_height(m)
                else:
                    assert branch_height(m) <= branch_height(n)
            checked["ggm"] += 1
        endo = find_nonidentity_idempotent(t)
        if endo is not None:
            ide = module_idempotent(t, endo.vertex_map, push_down(t, 3))
            assert all(np.array_equal(b @ b % 3, b) for b in blocks(ide).values()) and ide.intertwines()
            checked["idem"] += 1
            dec = split(t, endo, 3)
            assert verify_iso(dec.witness)
            checked["split"] += 1
            pieces = decompose_fully(t, 3)
            assert all(is_indecomposable(p) for p in pieces)
            total: dict = {}
            for p in pieces:
                for q, vs in push_down(p, 3).basis.items():
                    total[q] = total.get(q, 0) + len(vs)
            assert total == {q: rep.dim(q) for q in rep.basis}
    _report(
        6,
        all(v > 0 for v in checked.values()),
        f"{len(instances)} instances, zero violations "
        f"({checked['census']} traversals, {checked['ggm']} graph maps, "
        f"{checked['idem']} idempotents, {checked['split']} splits)",
    )


def test_criterion_7_locally_bound_checker(loop_tail_quiver, two_loop_quiver):
    accepts = check_locally_bound(loop_tail_quiver).ok and check_locally_bound(two_loop_quiver).ok
    loop = BoundQuiver(Quiver(["v"], [("loop", "v", "v")]), [])
    rejected = check_locally_bound(loop)
    rejects = (not rejected.ok) and rejected.cycle == ("loop",)
    _report(7, accepts and rejects, "accepts both bound quivers, rejects the free loop with its cycle")
