"""Bound quivers: ideal membership, locally-bound check, path enumeration."""

import random
import time
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference import automaton_state_count, enumerate_paths_from

from rtmtools import (
    BoundQuiver,
    Quiver,
    StructureError,
    check_locally_bound,
)
from rtmtools.algebra import first_relation, relation_automaton


def brute_force_relation_free_paths(bq, vertex, max_len):
    """Independent oracle: exhaustive walk plus naive subword filtering."""
    q = bq.quiver

    def contains_relation(word):
        return any(
            word[i : i + len(r)] == r
            for r in bq.relations
            for i in range(len(word) - len(r) + 1)
        )

    out = [()]
    frontier = [(vertex, ())]
    for _ in range(max_len):
        nxt = []
        for at, word in frontier:
            for a in q.arrows:
                if q.source(a) != at:
                    continue
                w = word + (a,)
                if not contains_relation(w):
                    nxt.append((q.target(a), w))
                    out.append(w)
        frontier = nxt
    return sorted(out, key=lambda w: (len(w), w))


def test_loop_tail_quiver_is_locally_bound(loop_tail_quiver):
    assert check_locally_bound(loop_tail_quiver).ok


def test_unbounded_loop_reports_cycle_witness():
    q = Quiver(["v"], [("loop", "v", "v")])
    bq = BoundQuiver(q, [])
    report = check_locally_bound(bq)
    assert not report.ok
    assert report.cycle == ("loop",)
    # the witness really is a relation-free cycle: it composes back to its start
    path = q.path(q.source(report.cycle[0]), report.cycle)
    assert path.source == path.target
    repeated = q.path(path.source, report.cycle * 3)
    assert first_relation(bq, repeated.arrows) is None


def test_two_loop_quiver_with_length_three_relations_is_bound(two_loop_quiver):
    assert check_locally_bound(two_loop_quiver).ok


def test_two_loops_without_relations_not_bound():
    q = Quiver(["1"], [("alpha", "1", "1"), ("beta", "1", "1")])
    report = check_locally_bound(BoundQuiver(q, []))
    assert not report.ok


def test_path_in_ideal_examples(loop_tail_quiver):
    q = loop_tail_quiver.quiver
    assert first_relation(loop_tail_quiver, q.path("1", ("beta", "alpha")).arrows) is None
    assert first_relation(loop_tail_quiver, q.path("2", ("alpha", "alpha")).arrows) is not None
    assert first_relation(loop_tail_quiver, q.path("2").arrows) is None


def test_first_relation_reports_position_and_relation(loop_tail_quiver, two_loop_quiver):
    assert first_relation(loop_tail_quiver, ("beta", "alpha", "alpha")) == (1, ("alpha", "alpha"))
    assert first_relation(loop_tail_quiver, ("beta", "alpha")) is None
    # relations are tried in order, so an earlier relation wins over an earlier position
    word = ("beta", "beta", "beta", "alpha", "alpha", "alpha")
    first = two_loop_quiver.relations[0]
    assert first == ("alpha", "alpha", "alpha")
    assert first_relation(two_loop_quiver, word) == (3, first)


def test_every_relation_is_in_its_own_ideal(two_loop_quiver):
    q = two_loop_quiver.quiver
    for rel in two_loop_quiver.relations:
        assert first_relation(two_loop_quiver, q.path("1", rel).arrows) is not None


def test_ideal_membership_monotone_under_extension(two_loop_quiver):
    q = two_loop_quiver.quiver
    rng = random.Random(7)
    for _ in range(100):
        word = tuple(rng.choice(["alpha", "beta"]) for _ in range(rng.randint(0, 6)))
        path = q.path("1", word)
        if first_relation(two_loop_quiver, path.arrows) is not None:
            longer = q.path("1", word + (rng.choice(["alpha", "beta"]),))
            assert first_relation(two_loop_quiver, longer.arrows) is not None


def test_malformed_relations_rejected(loop_tail_quiver):
    q = loop_tail_quiver.quiver
    with pytest.raises(StructureError):
        BoundQuiver(q, [("alpha",)])  # length 1
    with pytest.raises(StructureError):
        BoundQuiver(q, [("alpha", "beta")])  # not composable


def test_enumerate_paths_matches_brute_force(loop_tail_quiver):
    got = enumerate_paths_from(loop_tail_quiver, "1", 3)
    assert [p.arrows for p in got] == [(), ("beta",), ("beta", "alpha")]
    assert [p.arrows for p in got] == brute_force_relation_free_paths(loop_tail_quiver, "1", 3)


def test_enumerate_paths_zero_length(loop_tail_quiver):
    got = enumerate_paths_from(loop_tail_quiver, "2", 0)
    assert len(got) == 1 and got[0].arrows == () and got[0].source == "2"


def test_enumerate_paths_two_loops(two_loop_quiver):
    got = enumerate_paths_from(two_loop_quiver, "1", 9)
    assert len(got) == 7  # 1 + 2 + 4, every length-3 word dies
    assert [p.arrows for p in got] == brute_force_relation_free_paths(two_loop_quiver, "1", 9)


def test_enumeration_order_is_length_then_lex(two_loop_quiver):
    words = [p.arrows for p in enumerate_paths_from(two_loop_quiver, "1", 2)]
    assert words == sorted(words, key=lambda w: (len(w), w))


def _random_bound_quiver(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    vertices = [f"q{i}" for i in range(n)]
    arrows = [
        (f"g{j}", rng.choice(vertices), rng.choice(vertices))
        for j in range(rng.randint(1, n + 2))
    ]
    q = Quiver(vertices, arrows)
    pairs = [(a, b) for a in q.arrows for b in q.arrows if q.target(a) == q.source(b)]
    rels = [p for p in pairs if rng.random() < 0.6]
    return BoundQuiver(q, rels)


def reference_state_count(bq):
    """Reachable (quiver vertex, memory) pairs, where the memory is the longest suffix of the
    walked word that is a proper prefix of a relation, found by searching the suffixes; a step
    that completes a relation is refused."""
    q = bq.quiver
    prefixes = {()} | {rel[:k] for rel in bq.relations for k in range(1, len(rel))}
    seen, stack = set(), [(v, ()) for v in q.vertices]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        vertex, memory = state
        for arrow in q.arrows_from(vertex):
            word = memory + (arrow,)
            if any(word[len(word) - len(r) :] == r for r in bq.relations if len(r) <= len(word)):
                continue
            stack.append((q.target(arrow), next(word[i:] for i in range(len(word) + 1) if word[i:] in prefixes)))
    return len(seen)


def _random_walk_relations(seed):
    """A random quiver whose relations are random walks of 2 to 5 arrows, so they share prefixes and overlap."""
    rng = random.Random(seed)
    q = _random_bound_quiver(seed).quiver
    rels = []
    for _ in range(rng.randint(0, 6)):
        word = [rng.choice(q.arrows)]
        for _ in range(rng.randint(1, 4)):
            options = q.arrows_from(q.target(word[-1]))
            if options:
                word.append(rng.choice(options))
        if len(word) >= 2:
            rels.append(word)
    return BoundQuiver(q, rels)


@given(
    st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=5).map(tuple), min_size=1, max_size=6),
    st.lists(st.sampled_from("abc"), max_size=30).map(tuple),
    st.data(),
)
def test_relation_automaton_marks_the_ends_of_words(words, text, data):
    first = words[0]
    i = data.draw(st.integers(0, len(first) - 1))
    j = data.draw(st.integers(i + 1, len(first)))
    # a duplicate, a word inside another, and a word sharing the first's prefix
    words = words + [first, first[i:j], first + first[:j]]
    for ws in (words, [w[::-1] for w in words]):
        step, dead = relation_automaton(ws)
        state = 0
        for k, x in enumerate(text, start=1):
            state = step[state].get(x, 0)
            assert dead[state] == any(text[max(0, k - len(w)) : k] == w for w in ws)


def test_state_count_matches_the_suffix_search(loop_tail_quiver, two_loop_quiver):
    cases = [loop_tail_quiver, two_loop_quiver]
    cases += [f(seed) for seed in range(400) for f in (_random_bound_quiver, _random_walk_relations)]
    for bq in cases:
        assert automaton_state_count(bq) == reference_state_count(bq)


def test_unbounded_report_holds_a_closed_relation_free_walk():
    # the witness of a cycle of two or more arrows used to hold None
    failing = 0
    for bq in (f(seed) for seed in range(400) for f in (_random_bound_quiver, _random_walk_relations)):
        report = check_locally_bound(bq)
        if report.ok:
            continue
        failing += 1
        q = bq.quiver
        walk = q.path(q.source(report.cycle[0]), report.cycle)
        assert walk.source == walk.target, f"{report.cycle} is not closed"
        longest = max(map(len, bq.relations), default=0)
        assert first_relation(bq, q.path(walk.source, report.cycle * (longest + 2)).arrows) is None, report.cycle
    assert failing == 432


def test_locally_bound_check_is_fast_with_many_relations():
    # Every word of 7 arrows over three loops but alpha^7, and alpha^31: the relation-free
    # words are the powers of alpha below 31.  Scanning every relation per step took 0.36 s.
    q = Quiver(["1"], [(x, "1", "1") for x in ("alpha", "beta", "gamma")])
    rels = [w for w in product(q.arrows, repeat=7) if set(w) != {"alpha"}] + [("alpha",) * 31]
    bq = BoundQuiver(q, rels)
    assert len(bq.relations) == 2187
    start = time.perf_counter()
    report = check_locally_bound(bq)
    assert time.perf_counter() - start < 0.1
    assert report.ok
    assert max(len(p.arrows) for p in enumerate_paths_from(bq, "1", 40)) == 30


def test_locally_bound_iff_path_enumeration_saturates():
    for seed in range(200):
        bq = _random_bound_quiver(seed)
        cap = automaton_state_count(bq)
        longest = max(
            (len(p.arrows) for v in bq.quiver.vertices for p in enumerate_paths_from(bq, v, cap)),
            default=0,
        )
        if check_locally_bound(bq).ok:
            assert longest < cap, f"seed {seed}: bound quiver has a length-{cap} path"
        else:
            assert longest == cap, f"seed {seed}: unbounded quiver saturated early"


def test_equality_compares_contents_not_identity(two_loop_quiver):
    assert two_loop_quiver == two_loop_quiver and two_loop_quiver.quiver == two_loop_quiver.quiver
    q = two_loop_quiver.quiver
    copy = Quiver(["1"], [("alpha", "1", "1"), ("beta", "1", "1")])
    assert copy is not q and copy == q
    same = BoundQuiver(copy, reversed(two_loop_quiver.relations))
    assert same is not two_loop_quiver and same == two_loop_quiver
    fewer = BoundQuiver(copy, two_loop_quiver.relations[1:])
    assert fewer != two_loop_quiver and two_loop_quiver != fewer
    assert Quiver(["1"], [("alpha", "1", "1")]) != q
