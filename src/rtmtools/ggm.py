"""Generalized graph maps and the Hom-spaces they span.

A generalized graph map is a non-empty subnetwork of the signed double
cover that is complete, connected, unblocked (no two of its links pass
through a triangle) and contains no vertex together with its sign flip.
Each one induces a homomorphism between the two tree modules: the basis
vector of a domain tree vertex is sent to the signed sum of its partners.
For rooted-tree pairs these maps span the whole Hom-space.

The completeness obligations are read off the network's two coordinates:
a vertex must witness every tree child of its child-side coordinate (by an
arrow from a pullback child) and, unless it is a root, the tree parent of
its parent-side coordinate (by the arrow to its pullback parent or an
edge).  The network decides which coordinate is which, so nothing here
depends on the orientation.  The search below meets them as it grows a
map and never blocks a triangle or holds a sign flip, so no map it emits
is checked again against the definition.

Enumeration works by obligation closure.  Inside a hypothetical graph map,
every completeness obligation has a unique witness (a second witness would
create a blocked triangle), so each graph map is the closure of any one of
its vertices; a depth-first search that branches over every admissible
witness is therefore exhaustive.  Seeding it from each vertex pair with
sign +1 and refusing smaller pairs finds every map exactly once, from its
least pair, then signed with +1 at its lexicographically least pair.
Pairs rank by the depths of their two vertices and the seeds run from the
deepest pair up, so the first maps out are small and mostly independent.

A map's signed pairs are the nonzero entries of its induced homomorphism
in the flat coordinates of `trees.hom_layout`.  `hom_span` reduces them,
one sparse row per map, into an echelon basis over GF(p) with the oracle's
elimination step, and can stop once the rank reaches a target such as the
Hom dimension; the maps after the stop are then never built, so never
checked.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Optional

from .network import Edge, NetArrow, PullbackNetwork, TwoCover, _edge, _lift, two_cover
from .oracle import _eliminate
from .trees import ModuleHom, ModuleRep, TreeOverQ, hom_layout


class Subnetwork:
    """A sign-respecting selection of double-cover vertices, arrows and edges."""

    def __init__(self, cover: TwoCover, vertices: Iterable, arrows: Iterable[NetArrow] = (), edges: Iterable[Edge] = ()):
        self.cover = cover
        self.vertices = frozenset(vertices)
        self.arrows = frozenset(arrows)
        self.edges = frozenset(edges)
        if not self.vertices <= cover.vertex_set:
            raise ValueError("subnetwork vertex outside the cover")
        if not self.arrows <= cover.arrow_set or not self.edges <= cover.edge_set:
            raise ValueError("subnetwork link outside the cover")
        for a in self.arrows:
            if a.source not in self.vertices or a.target not in self.vertices:
                raise ValueError(f"arrow {a} not supported by subnetwork vertices")
        for e in self.edges:
            if e[0] not in self.vertices or e[1] not in self.vertices:
                raise ValueError(f"edge {e} not supported by subnetwork vertices")

    @classmethod
    def _built(cls, cover: TwoCover, vertices: Iterable, arrows: Iterable[NetArrow], edges: Iterable[Edge]):
        """A subnetwork whose links are known to lie in the cover, between its vertices.

        For maps this module built, and their sign flips; skips the checks of `__init__`.
        """
        sub = cls.__new__(cls)
        sub.cover = cover
        sub.vertices = frozenset(vertices)
        sub.arrows = frozenset(arrows)
        sub.edges = frozenset(edges)
        return sub

    def negate(self) -> "Subnetwork":
        return self._built(self.cover, *_flip(self.vertices, self.arrows, self.edges))

    def sort_key(self) -> tuple:
        return (len(self.vertices), tuple(sorted(self.vertices)))


def _flip(vertices: Iterable, arrows: Iterable[NetArrow], edges: Iterable[Edge]) -> tuple:
    """The sign flips of a subnetwork's vertices, arrows and edges; the cover holds both signs of each."""

    def flip(v):
        return (v[0], v[1], -v[2])

    return (
        map(flip, vertices),
        (NetArrow(flip(a.source), flip(a.target), a.label[:2] + (-a.label[2],)) for a in arrows),
        (_edge(flip(e[0]), flip(e[1])) for e in edges),
    )


class _Obligations(dict):
    """Completeness obligations of signed vertices, computed on first use.

    Maps a signed vertex to its list of (obligation, [(witness vertex,
    link), ...]); an obligation is ("child", x) for a tree child x of the
    child-side coordinate, or ("parent",).  An obligation is met exactly
    when one of its witness links is present.  Witnesses are read from the
    trees, so on a tree that fails validation a witness may fall outside
    the network; the closure then reports it.
    """

    def __init__(self, base: PullbackNetwork):
        super().__init__()
        self.base = base

    def __missing__(self, vertex) -> list:
        base = self.base
        c, p = base.child_side, base.parent_side
        tc, tp = base.trees[c], base.trees[p]
        v, s = vertex[:2], vertex[2]
        obligations = []
        for x in tc.tree.children(v[c]):
            witnesses = []
            for y in tp.tree.children(v[p]):
                if tp.child_label(y) == tc.child_label(x):
                    w = (x, y) if c == 0 else (y, x)
                    witnesses.append((w + (s,), _lift(base.up(w)[1], s)))
            obligations.append((("child", x), witnesses))
        if v[p] != tp.tree.root:
            up = base.up(v)
            witnesses = [] if up is None else [(up[0] + (s,), _lift(up[1], s))]
            for w in base.partners(v):
                witnesses.append((w + (-s,), _edge(vertex, w + (-s,))))
            obligations.append((("parent",), witnesses))
        self[vertex] = obligations
        return obligations


def _met(witnesses: list, links) -> bool:
    return any(link in links for _, link in witnesses)


def _closures(
    cover: TwoCover, table: _Obligations, seed, position: Optional[dict] = None
) -> Iterator["GeneralizedGraphMap"]:
    """Every graph map whose least vertex pair is the seed's, canonically signed.

    Pairs rank by `position`, by default lexicographically.  A depth-first
    search over witness choices that grows one state in place.  Vertices
    and links are kept in order of addition, so going back to a choice
    point truncates them to the lengths it saved; only an obligation with
    two or more admissible witnesses leaves a choice point.  Pairs ranked
    below the seed's are refused, so a map is found only from its least
    pair.  Two branches differ in a witness link at one vertex, and a map
    holding both links would be blocked, so no map is found twice.  Maps
    are yielded with +1 at their lexicographically least pair.
    """
    if position is None:
        position = {pair: i for i, pair in enumerate(cover.base.vertices)}
    floor, linked = position[seed[:2]], cover.base.linked
    signs = {seed[:2]: seed[2]}
    vertices = [seed]  # in order of addition
    links: dict = {}  # link -> (vertex, witness), in order of addition
    neighbours: dict = defaultdict(list)  # vertex -> far ends of its links
    choices: list = []  # (vertex count, link count, cursor, untried admissible witnesses)

    def admissible(vertex, witness) -> bool:
        # a pair outside the network (an invalid tree) is admitted, for the map to report
        if position.get(witness[:2], floor) < floor or signs.get(witness[:2], witness[2]) != witness[2]:
            return False  # a pair below the seed's, or the sign flip of a vertex held
        for shared, far in ((vertex, witness), (witness, vertex)):
            for other in neighbours.get(shared, ()):
                if (other[:2], far[:2]) in linked:  # the new link and one held at `shared` close a triangle
                    return False
        return True

    i = k = 0  # cursor: obligation k of vertices[i]
    while True:
        options: list = []
        if i < len(vertices):
            vertex = vertices[i]
            obligations = table[vertex]
            if k == len(obligations):
                i, k = i + 1, 0
                continue
            witnesses = obligations[k][1]
            if _met(witnesses, links):
                k += 1
                continue
            options = [(w, link) for w, link in witnesses if admissible(vertex, w)]
            if len(options) > 1:
                choices.append((len(vertices), len(links), i, k, options))
        else:
            arrows = [link for link in links if isinstance(link, NetArrow)]
            edges = [link for link in links if not isinstance(link, NetArrow)]
            if not cover.vertex_set.issuperset(vertices):  # a tree that fails validation
                raise ValueError("subnetwork vertex outside the cover")
            # every link joins two held vertices, and lies in the cover when they do
            parts = (vertices, arrows, edges)
            yield GeneralizedGraphMap._built(cover, *(parts if min(vertices)[2] > 0 else _flip(*parts)))
        if not options:  # closed or dead end: resume the latest choice point
            if not choices:
                return
            n_vertices, n_links, i, k, options = choices[-1]
            while len(links) > n_links:
                _, (u, w) = links.popitem()
                neighbours[u].pop()
                neighbours[w].pop()
            while len(vertices) > n_vertices:
                del signs[vertices.pop()[:2]]
            if len(options) == 1:
                choices.pop()
        witness, link = options.pop()
        vertex = vertices[i]
        if witness[:2] not in signs:
            signs[witness[:2]] = witness[2]
            vertices.append(witness)
        links[link] = (vertex, witness)
        neighbours[vertex].append(witness)
        neighbours[witness].append(vertex)
        k += 1


class GeneralizedGraphMap(Subnetwork):
    """A complete, connected, unblocked, involution-free subnetwork."""


def _stream(cover: TwoCover) -> Iterator[GeneralizedGraphMap]:
    """Every canonical graph map, seeded from the deepest vertex pair up.

    Reverse search needs only some total order on the pairs (Avis & Fukuda
    1996).  Pairs rank by the depths of their domain and codomain vertices,
    which unlike vertex ids survive relabelling, so a map whose least pair
    is deep holds only deep pairs: the first maps out are small and their
    induced maps mostly independent.
    """
    base = cover.base
    depth1, depth2 = base.t1.tree.height, base.t2.tree.height
    order = sorted(base.vertices, key=lambda v: (depth1[v[0]], depth2[v[1]]))
    position = {pair: i for i, pair in enumerate(order)}
    table = _Obligations(base)
    for pair in reversed(order):
        yield from _closures(cover, table, pair + (1,), position)


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
    for n, m, s in g.vertices:
        q = label[n]
        blocks.setdefault(q, {})[m2.basis_index(q, m), m1.basis_index(q, n)] = s
    return ModuleHom(m1, m2, blocks)


def hom_span(
    t1: TreeOverQ, t2: TreeOverQ, m1: ModuleRep, m2: ModuleRep, target: Optional[int] = None
) -> tuple[list[GeneralizedGraphMap], int]:
    """Streamed canonical graph maps, in `sort_key` order, and the rank of their span.

    `m1` and `m2` are the modules of `t1` and `t2` (see `push_down`).  Each
    map's signed pairs, a sparse row in the `hom_layout` coordinates, are
    reduced into an echelon basis over GF(p).  The stream stops once the
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
        maps.append(g)
        row = {cell[n, m]: s % p for n, m, s in g.vertices}
        while row and (c := min(row)) in basis:
            _eliminate(row, basis[c], c, p)
        if row:
            inverse = pow(row[c], -1, p)
            basis[c] = {k: v * inverse % p for k, v in row.items()}
    return sorted(maps, key=Subnetwork.sort_key), len(basis)
