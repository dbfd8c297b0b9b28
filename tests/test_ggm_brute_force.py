"""Cross-check the closure enumeration against literal brute force.

On tiny instances we can afford to test every connected subnetwork of the
double cover against the defining conditions directly: a connected
subnetwork with at least two vertices is a set of links plus their
endpoints, so iterating over link subsets (and single vertices) is
exhaustive.  This certifies both the enumeration and, by dropping the
involution-freeness condition, the no-ghost property: every non-empty
complete connected unblocked subnetwork induces a nonzero map.

On larger random pairs the enumeration is compared with the search it
replaced, which seeds every vertex, copies its state at every step and
drops duplicates.
"""

from itertools import combinations

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import far_ends, is_complete, is_connected, is_involution_free, is_r_free

from rtmtools import (
    SINK,
    SOURCE,
    PullbackNetwork,
    Subnetwork,
    enumerate_ggms,
    ggm_matrix,
    push_down,
    random_instance,
    triangles,
    two_cover,
)
from rtmtools.ggm import _met, _Obligations
from rtmtools.network import NetArrow


def _canonical(sub):
    """The subnetwork or its sign flip, whichever gives its least vertex pair +1."""
    least = min(v[:2] for v in sub.vertices)
    sign = dict(((v[0], v[1]), v[2]) for v in sub.vertices)[least]
    return sub.negate() if sign < 0 else sub


def brute_force_subnetworks(cover):
    """Every connected subnetwork of the cover, as Subnetwork objects."""
    links = [("a", a) for a in cover.arrows] + [("e", e) for e in cover.edges]
    for v in cover.vertices:
        yield Subnetwork(cover, [v])
    for size in range(1, len(links) + 1):
        for chosen in combinations(links, size):
            arrows = [link for kind, link in chosen if kind == "a"]
            edges = [link for kind, link in chosen if kind == "e"]
            vertices = set()
            for a in arrows:
                vertices.update((a.source, a.target))
            for e in edges:
                vertices.update(e)
            sub = Subnetwork(cover, vertices, arrows, edges)
            if is_connected(sub):
                yield sub


def canonical_triple(sub):
    canon = _canonical(sub)
    return (canon.vertices, canon.arrows, canon.edges)


def test_enumeration_matches_brute_force_on_tiny_instances():
    checked_pairs = 0
    total_ggms = 0
    for seed in range(80):
        for orientation in (SINK, SOURCE):
            t = random_instance(seed, orientation, max_vertices=4, end_dim_cap=None)
            cover = two_cover(PullbackNetwork(t, t))
            if len(cover.arrows) + len(cover.edges) > 12:
                continue
            expected = set()
            ghosts = []
            rep = push_down(t, 3)
            blocked = {tri.vertices for tri in triangles(cover.base)}
            for sub in brute_force_subnetworks(cover):
                ends = far_ends(sub)
                r_free = not any(
                    frozenset((u[:2], v[:2], w[:2])) in blocked
                    for v, far in ends.items()
                    for i, u in enumerate(far)
                    for w in far[i + 1 :]
                )
                assert is_r_free(sub) == r_free  # blocking read off adjacency agrees with the listed triangles
                if not (is_complete(sub).ok and r_free):
                    continue
                induced = ggm_matrix(sub, rep, rep)
                if not any(induced.blocks.values()):
                    ghosts.append(sub)  # would contradict ghost-freeness
                if is_involution_free(sub):
                    expected.add(canonical_triple(sub))
            assert not ghosts, (seed, orientation)
            enumerated = {canonical_triple(g) for g in enumerate_ggms(t, t)}
            assert enumerated == expected, (seed, orientation)
            checked_pairs += 1
            total_ggms += len(expected)
    assert checked_pairs >= 60
    assert total_ggms >= 80


class _CopyingState:
    """Closure state of the enumeration before reverse-search pruning."""

    def __init__(self, cover, blocked):
        self.cover, self.signs, self.links, self.neighbours, self.pending = cover, {}, set(), {}, []
        self.blocked = blocked  # vertex sets of the listed triangles downstairs

    def copy(self):
        st = _CopyingState(self.cover, self.blocked)
        st.signs, st.links = dict(self.signs), set(self.links)
        st.neighbours, st.pending = dict(self.neighbours), list(self.pending)
        return st

    def add_vertex(self, vertex):
        have = self.signs.get(vertex[:2])
        if have is None:
            self.signs[vertex[:2]] = vertex[2]
            self.pending.append(vertex)
            return True
        return have == vertex[2]

    def add_link(self, link):
        if link in self.links:
            return True
        u, v = (link.source, link.target) if isinstance(link, NetArrow) else link
        for shared, far in ((u, v), (v, u)):
            for other_far in self.neighbours.get(shared, ()):
                if frozenset((other_far[:2], shared[:2], far[:2])) in self.blocked:
                    return False
        self.links.add(link)
        self.neighbours[u] = self.neighbours.get(u, ()) + (v,)
        self.neighbours[v] = self.neighbours.get(v, ()) + (u,)
        return True


def _seed_every_vertex_and_deduplicate(t1, t2):
    """The closure of every network pair with sign +1, brought to canonical
    sign, duplicates dropped: a reference for the pruned enumeration."""
    cover = two_cover(PullbackNetwork(t1, t2))
    table = _Obligations(cover.base)
    blocked = {t.vertices for t in triangles(cover.base)}

    def search(state):
        while state.pending:
            vertex = state.pending[-1]
            for _, witnesses in table[vertex]:
                if not _met(witnesses, state.links):
                    break
            else:
                state.pending.pop()
                continue
            for witness, link in witnesses:
                branch = state.copy()
                if branch.add_vertex(witness) and branch.add_link(link):
                    yield from search(branch)
            return
        arrows = [link for link in state.links if isinstance(link, NetArrow)]
        edges = [link for link in state.links if not isinstance(link, NetArrow)]
        yield Subnetwork(cover, [p + (s,) for p, s in state.signs.items()], arrows, edges)

    found = {}
    for pair in cover.base.vertices:
        seed = _CopyingState(cover, blocked)
        seed.add_vertex(pair + (1,))
        for sub in search(seed):
            canon = _canonical(sub)
            found.setdefault(canon.vertices, canon)
    return sorted(found.values(), key=Subnetwork.sort_key)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 199),
    st.sampled_from((SINK, SOURCE)),
    st.integers(1, 16),
    st.integers(2, 5),
    st.integers(2, 4),
    st.sampled_from(("self", "to-partner", "from-partner")),
)
def test_enumeration_matches_seeding_every_vertex(seed, orientation, max_vertices, depth, children, pairing):
    shape = dict(max_depth=depth, max_children=children, max_vertices=max_vertices, end_dim_cap=None)
    t = random_instance(seed, orientation, **shape)
    u = random_instance(seed + 1000, orientation, codomain=t.codomain, **shape)
    a, b = {"self": (t, t), "to-partner": (t, u), "from-partner": (u, t)}[pairing]
    # The number of network pairs predicts the listing.  Over every seed in both orientations with 16
    # vertices, depth 2, 3 or 5 and 2 to 4 children (10,800 pairs of trees), the networks of at most 64
    # pairs held at most 2,962 maps, and every edge-class size (1 to 4) occurs among them; above that
    # many held over 20,000, and the self-pair of seed 101 (source, depth 2, 4 children), 116 pairs,
    # held over 370,000.
    assume(len(PullbackNetwork(a, b).vertices) <= 64)
    want = [(s.vertices, s.arrows, s.edges) for s in _seed_every_vertex_and_deduplicate(a, b)]
    assert [(g.vertices, g.arrows, g.edges) for g in enumerate_ggms(a, b)] == want
