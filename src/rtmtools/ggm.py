"""Generalized graph maps and the Hom-spaces they span.

A generalized graph map is a non-empty subnetwork of the signed double
cover that is complete, connected, unblocked (no two of its links pass
through a triangle) and contains no vertex together with its sign flip.
Each one induces a homomorphism between the two tree modules: the basis
vector of a domain tree vertex is sent to the signed sum of its partners.
For rooted-tree pairs these maps span the whole Hom-space.

The completeness obligations are read off the network's two coordinates:
a pair must witness every tree child of its child-side coordinate (by an
arrow from a pullback child) and, unless it is a root, the tree parent of
its parent-side coordinate (by the arrow to its pullback parent or an
edge).  The network decides which coordinate is which, so nothing here
depends on the orientation.  Each is the tuple of its witness pairs; the
pairs of an edge class share their parent-side one.  The search meets them
as it grows a map and never blocks a triangle or holds a pair with both
signs, so no map it emits is checked again.  A map is its
ascending signed pairs; its vertex set and its links, read off the cover,
are built when asked for (see the lemma of `GeneralizedGraphMap`).

Enumeration works by obligation closure.  Inside a hypothetical graph map,
every completeness obligation has a unique witness (a second witness would
create a blocked triangle), so each graph map is the closure of any one of
its pairs; a depth-first search that branches over every admissible
witness is therefore exhaustive.  Seeding it from each vertex pair with
sign +1 and refusing smaller pairs finds every map exactly once, from its
least pair, then signed with +1 at its lexicographically least pair.
Pairs rank by the depths of their two vertices and the seeds run from the
deepest pair up, so the first maps out are small and mostly independent.

A map's signed pairs are the nonzero entries of its induced homomorphism
in the flat coordinates of `trees.hom_layout`.  `hom_span` reduces them,
one sparse row per map, into an echelon basis over GF(p) with the oracle's
`_insert`, and keeps only the maps whose rows raise the rank, a
graph-map basis of the span; listing every map is `enumerate_ggms`'s job.
It can stop once the rank reaches a target such as the Hom dimension; the
maps after the stop are then never built, so never checked.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .network import Edge, NetArrow, PullbackNetwork, TwoCover, _edge, _lift, two_cover
from .oracle import _insert
from .trees import ModuleHom, ModuleRep, TreeOverQ, hom_layout


class Subnetwork:
    """A sign-respecting selection of double-cover vertices, arrows and edges."""

    def __init__(self, cover: TwoCover, vertices: Iterable, arrows: Iterable[NetArrow] = (), edges: Iterable[Edge] = ()):
        self.cover = cover
        self.vertices = frozenset(vertices)
        self.pairs = tuple(sorted(self.vertices))
        self.arrows = frozenset(arrows)
        self.edges = frozenset(edges)
        if not self.vertices <= cover.vertices:
            raise ValueError("subnetwork vertex outside the cover")
        if not self.arrows <= cover.arrows or not self.edges <= cover.edges:
            raise ValueError("subnetwork link outside the cover")
        for a in self.arrows:
            if a.source not in self.vertices or a.target not in self.vertices:
                raise ValueError(f"arrow {a} not supported by subnetwork vertices")
        for e in self.edges:
            if e[0] not in self.vertices or e[1] not in self.vertices:
                raise ValueError(f"edge {e} not supported by subnetwork vertices")

    def negate(self) -> "Subnetwork":
        """The sign flip, checked like any input: the cover holds both signs of every vertex, arrow and edge."""
        flip = {v: (v[0], v[1], -v[2]) for v in self.vertices}
        arrows = [NetArrow(flip[a.source], flip[a.target], a.label[:2] + (-a.label[2],)) for a in self.arrows]
        return Subnetwork(self.cover, flip.values(), arrows, [_edge(flip[u], flip[w]) for u, w in self.edges])

    def sort_key(self) -> tuple:
        return (len(self.pairs), self.pairs)


class GeneralizedGraphMap(Subnetwork):
    """A complete, connected, unblocked, involution-free subnetwork, kept as its signed pairs.

    Lemma: a graph map holds every link of the cover between two of its
    vertices, so its arrows and edges are read off the cover when asked
    for.  Proof.  Each obligation has exactly one witness in a map, as two
    would close a triangle.  Take an edge class C, a lone pair being a
    class of one.  The only links between the pullback subtrees under C and
    the rest of the network are the arrows from C's members up to their
    shared pullback parent P, and the child obligation of P admits exactly
    those arrows.  So a map holds at most one of them, from some member v,
    and v then holds no edge of C.  Every other held member of C meets its
    parent obligation by one edge of C, so the held edges of C pair off
    the held members other than v, and each pair, with its subtrees, is
    cut off from the rest of the map.  So a connected map holds of C either
    v alone or the two ends of one held edge and nothing outside their
    subtrees: an edge of C between held pairs is held, and an arrow u -> P
    between held pairs has u = v.  A held link fixes the signs of its ends.
    The pairs are taken as the search built them, unchecked; `Subnetwork`
    checks a selection made outside.
    """

    def __init__(self, cover: TwoCover, pairs: tuple):
        self.cover = cover
        self.pairs = pairs

    @cached_property
    def vertices(self) -> frozenset:
        return frozenset(self.pairs)

    @cached_property
    def arrows(self) -> frozenset:
        ups = ((self.cover.base.up(v[:2]), v[2]) for v in self.vertices)
        return frozenset(_lift(up[1], s) for up, s in ups if up is not None and up[0] + (s,) in self.vertices)

    @cached_property
    def edges(self) -> frozenset:
        # the class of a pair holds the pair, whose sign flip no graph map holds
        ends = ((v, w + (-v[2],)) for v in self.vertices for w in self.cover.base.edge_class.get(v[:2], ()))
        return frozenset(_edge(v, w) for v, w in ends if w in self.vertices)

    def negate(self) -> "GeneralizedGraphMap":
        return GeneralizedGraphMap(self.cover, tuple([(n, m, -s) for n, m, s in self.pairs]))


def _obligation_table(base: PullbackNetwork) -> dict:
    """The completeness obligations of every network pair, keyed by pair.

    Each obligation is the tuple of its witness pairs.  A child obligation
    lists the pullback children over one tree child; the members of an edge
    class C share one parent obligation, `(P,) + C` with P their pullback
    parent if any, and the search skips the pair itself.  Witnesses are read
    from the trees, so on a tree that fails validation one may fall outside
    the network; the closure then reports it.
    """
    c, p = base.child_side, base.parent_side
    tc, tp = base.trees[c], base.trees[p]
    table, shared = {}, {}
    for v in base.vertices:
        obligations = []
        for x in tc.tree.children(v[c]):
            label = tc.child_label(x)
            pairs = ((x, y) if c == 0 else (y, x) for y in tp.tree.children(v[p]) if tp.child_label(y) == label)
            obligations.append(tuple(pairs))
        if v[p] != tp.tree.root:
            up, cls = base.pullback_parent.get(v), base.edge_class.get(v, ())
            if (up, cls) not in shared:
                shared[up, cls] = cls if up is None else (up,) + cls
            obligations.append(shared[up, cls])
        table[v] = obligations
    return table


def _closures(cover: TwoCover, table: dict, seed: tuple, position: dict) -> Iterator[GeneralizedGraphMap]:
    """Every graph map whose least vertex pair is the seed, canonically signed.

    Pairs rank by `position`, one rank per network pair.  A depth-first
    search over witness choices that grows one state in place, on the
    network's pairs with one sign per pair: a witness across an edge, which
    keeps the pair's child-side coordinate as no arrow does, takes the other
    sign.  An obligation is met when a held neighbour of the pair is one of
    its witnesses.  Pairs and held links are kept in order of addition, so
    going back to a choice point truncates them to the lengths it saved;
    only an obligation with two or more admissible witnesses leaves a choice
    point.  Pairs ranked below the seed are refused, so a map is found only
    from its least pair.  Two branches differ in a witness link at one pair,
    and a map holding both links would be blocked, so no map is found twice.
    The seed has sign +1, and every map is yielded with +1 at its
    lexicographically least pair.
    """
    floor, linked_any, c, lifts = position[seed], cover.base.linked_any, cover.base.child_side, cover.lifts
    signs = {seed: 1}
    vertices = [seed]  # in order of addition
    links: list = []  # held links as (pair, witness), in order of addition
    neighbours: dict = defaultdict(list)  # pair -> far ends of its held links
    choices: list = []  # (pair count, link count, cursor, untried admissible witnesses)

    def admissible(pair, witness, sign) -> bool:
        # a pair outside the network (an invalid tree) is admitted, to be reported when added
        if position.get(witness, floor) < floor or signs.get(witness, sign) != sign:
            return False  # a pair below the seed, or held with the other sign
        # the new link and one held at either end close a triangle
        return not linked_any(witness, neighbours[pair]) and not linked_any(pair, neighbours[witness])

    i = k = 0  # cursor: obligation k of vertices[i]
    while True:
        options: list = []
        if i < len(vertices):
            pair = vertices[i]
            obligations = table[pair]
            if k == len(obligations):
                i, k = i + 1, 0
                continue
            witnesses = obligations[k]
            for held in neighbours[pair]:
                if held in witnesses:
                    break
            else:
                held = None
            if held is not None:  # met
                k += 1
                continue
            sign = signs[pair]
            options = [(w, sign if w[c] != pair[c] else -sign) for w in witnesses if w != pair]
            options = [(w, s) for w, s in options if admissible(pair, w, s)]
            if len(options) > 1:
                choices.append((len(vertices), len(links), i, k, options))
        else:
            pairs = sorted(signs)
            flip = signs[pairs[0]]  # a pair's lift is +1, lifts[pair][1], exactly when its sign is flip
            yield GeneralizedGraphMap(cover, tuple([lifts[pair][signs[pair] == flip] for pair in pairs]))
        if not options:  # closed or dead end: resume the latest choice point
            if not choices:
                return
            n_vertices, n_links, i, k, options = choices[-1]
            while len(links) > n_links:
                u, w = links.pop()
                neighbours[u].pop()
                neighbours[w].pop()
            while len(vertices) > n_vertices:
                del signs[vertices.pop()]
            if len(options) == 1:
                choices.pop()
        witness, sign = options.pop()
        pair = vertices[i]
        if witness not in signs:
            if witness not in position:  # a tree that fails validation
                raise ValueError("subnetwork vertex outside the cover")
            signs[witness] = sign
            vertices.append(witness)
        links.append((pair, witness))
        neighbours[pair].append(witness)
        neighbours[witness].append(pair)
        k += 1


def _stream(cover: TwoCover) -> Iterator[GeneralizedGraphMap]:
    """Every canonical graph map, seeded from the deepest vertex pair up.

    Reverse search needs only some total order on the pairs (Avis & Fukuda
    1996).  Pairs rank by the depths of their domain and codomain vertices,
    which unlike vertex ids survive relabelling, so a map whose least pair
    is deep holds only deep pairs: the first maps out are small and their
    induced maps mostly independent.  One obligation table serves every
    seed.
    """
    base = cover.base
    depth1, depth2 = base.t1.tree.height, base.t2.tree.height
    order = sorted(base.vertices, key=lambda v: (depth1[v[0]], depth2[v[1]]))
    position = {pair: i for i, pair in enumerate(order)}
    table = _obligation_table(base)
    for pair in reversed(order):
        yield from _closures(cover, table, pair, position)


def enumerate_ggms(t1: TreeOverQ, t2: TreeOverQ, with_signs: bool = False) -> list[GeneralizedGraphMap]:
    """Every generalized graph map for the pair, canonically signed, in `sort_key` order.

    Each map is normalized so its lexicographically least vertex pair
    carries sign +1; `with_signs` also returns the sign flips.  The closure
    is seeded once from each network pair and refuses smaller pairs, so
    every map comes out exactly once, from its least pair (the canonical
    parent of reverse search, Avis & Fukuda 1996); see `_stream`.
    """
    ggms = sorted(_stream(two_cover(PullbackNetwork(t1, t2))), key=Subnetwork.sort_key)
    if with_signs:
        ggms += [g.negate() for g in ggms]
    return ggms


def _cells(m1: ModuleRep, m2: ModuleRep) -> dict:
    """The flat column of each pair (n, m) in the `hom_layout` of (m1, m2).

    A graph map sends v_n to the signed sum of its partners v_m, so each
    signed pair (n, m, s) is the entry s of block q at (m, n), q the label
    of n and m; every other entry is 0.
    """
    cell = {}
    for q, offset, _, cols in hom_layout(m1, m2):
        for j, n in enumerate(m1.basis[q]):
            for i, m in enumerate(m2.basis[q]):
                cell[n, m] = offset + i * cols + j
    return cell


def ggm_matrix(g: GeneralizedGraphMap, m1: ModuleRep, m2: ModuleRep) -> ModuleHom:
    """The homomorphism induced by a graph map between the modules of its trees: v_n maps to the signed sum of partners."""
    label = g.cover.base.t1.vertex_label
    blocks: dict = {}
    for n, m, s in g.pairs:
        q = label[n]
        blocks.setdefault(q, {})[m2.basis_index(q, m), m1.basis_index(q, n)] = s
    return ModuleHom(m1, m2, blocks)


def hom_span(
    t1: TreeOverQ, t2: TreeOverQ, m1: ModuleRep, m2: ModuleRep, target: Optional[int] = None
) -> tuple[list[GeneralizedGraphMap], int]:
    """The streamed canonical graph maps whose rows raised the rank, in stream order, and the rank.

    `m1` and `m2` are the modules of `t1` and `t2` (see `push_down`).  Each
    map's signed pairs, a sparse row in the `hom_layout` coordinates, are
    reduced into an echelon basis over GF(p); a map is kept only when its
    row adds a pivot, so the maps kept are a basis of the span of those
    streamed and `len(maps) == rank`.  The stream stops once the
    rank reaches `target`; with `target=None`, or one never reached, every
    map is streamed.  Maps after the stop are never built, so never checked;
    a stop at the Hom dimension is sound because every map is a homomorphism.
    """
    p = m1.prime
    cell = _cells(m1, m2)
    basis: dict = {}  # pivot column -> row with 1 there and nothing left of it
    maps = []
    stream = _stream(two_cover(PullbackNetwork(t1, t2)))
    while len(basis) != target:
        g = next(stream, None)
        if g is None:
            break
        if _insert({cell[n, m]: s % p for n, m, s in g.pairs}, basis, p):
            maps.append(g)
    return maps, len(basis)
