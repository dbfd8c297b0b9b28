"""Pullback networks of labelled-tree pairs and their traversal combinatorics.

For two rooted trees over the same bound quiver, with the same orientation,
the pullback network pairs compatibly labelled tree vertices.  Its arrow
part is the pullback quiver (a forest of rooted trees): a pair of child
vertices with the same child-arrow label is joined to the pair of their
parents by an arrow running the way the two tree arrows run.  Its
undirected edges pair vertices that differ in one coordinate only, where
they are same-labelled siblings: the codomain coordinate for sink trees and
the domain coordinate for source trees.  That choice, made once in
`PullbackNetwork`, is the only place this module reads the orientation.
The signed double of the network carries the sign bookkeeping needed over
fields of odd characteristic.

Traversals are non-backtracking walks along links (arrows, reversed arrows,
edges).  A traversal is blocked as soon as two consecutive links visit three
vertices that induce a triangle; the census of maximal unblocked traversals
is the combinatorial skeleton behind Hom-space computations.  Both are read
off the pullback forest and the edge classes, the only stored form of the
links: two links u-v-w pass through a triangle exactly when u and w are
linked (`PullbackNetwork.linked`), the triangles are counted per edge class
(`PullbackNetwork.triangle_count`), and the census from the number of
pullback-forest leaves under each vertex (`maximal_r_free_traversals`).
`triangles` lists the triangles, as a reference for the tests.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import NamedTuple, Optional

from .trees import SINK, TreeOverQ, top_down


class NetArrow(NamedTuple):
    """A directed network link; the label records the tree arrows over it."""

    source: tuple
    target: tuple
    label: tuple


Edge = tuple  # normalized pair (u, v) of network vertices with u < v


def _edge(u, v) -> Edge:
    return (u, v) if u < v else (v, u)


def _lift(arrow: NetArrow, sign: int) -> NetArrow:
    """The arrow of the signed double lying over `arrow` on the given sheet."""
    return NetArrow(arrow.source + (sign,), arrow.target + (sign,), arrow.label + (sign,))


class PullbackNetwork:
    """The pairing network of two same-orientation trees over one bound quiver.

    Coordinate `parent_side` of a vertex pair is the one whose same-labelled
    siblings are joined by edges; `child_side` is the other one.  A graph
    map must witness every tree child on the child side and the tree parent
    on the parent side.  `pullback_parent` maps each non-root vertex of the
    pullback forest to its parent.

    The edges join every two pairs of one edge class: the pairs that share
    their child-side coordinate and whose parent-side coordinates are
    same-labelled siblings.  The pairs of a class share their pullback
    parent, if they have one.  `edge_classes` lists the classes of two or
    more pairs, and `edge_class` maps each of their pairs to its class.
    """

    def __init__(self, t1: TreeOverQ, t2: TreeOverQ):
        if t1.codomain != t2.codomain:
            raise ValueError("the two trees must live over the same bound quiver")
        if t1.orientation != t2.orientation:
            raise ValueError(
                "mixed sink/source pairs are not supported: the pairing network "
                "is only defined when both trees share an orientation"
            )
        self.t1 = t1
        self.t2 = t2
        self.trees = (t1, t2)
        self.orientation = t1.orientation
        self.parent_side = 1 if self.orientation == SINK else 0
        self.child_side = 1 - self.parent_side

        by_label: dict = {}
        for m in t2.tree.vertices:
            by_label.setdefault(t2.vertex_label[m], []).append(m)
        self.vertices = tuple(
            sorted((n, m) for n in t1.tree.vertices for m in by_label.get(t1.vertex_label[n], ()))
        )
        vertex_set = frozenset(self.vertices)
        self.pullback_parent: dict = {}
        arrows = []
        for v in self.vertices:
            up = self.up(v)
            if up is not None:
                self.pullback_parent[v] = up[0]
                arrows.append(up[1])
        for v, w in self.pullback_parent.items():
            if w not in vertex_set:
                raise ValueError(
                    f"pullback parent {w} of pair {v} is not a network vertex: "
                    "its coordinates carry different vertex labels"
                )
        self.arrows = tuple(sorted(arrows))

        side, tp = self.parent_side, self.trees[self.parent_side]
        classes: dict = {}
        for v in self.vertices:  # ascending, so each class is sorted
            x = v[side]
            if x != tp.tree.root:
                classes.setdefault((v[self.child_side], tp.tree.parent[x], tp.child_label(x)), []).append(v)
        self.edge_classes = tuple(tuple(c) for c in classes.values() if len(c) > 1)
        self.edge_class = {v: c for c in self.edge_classes for v in c}

    def up(self, pair) -> Optional[tuple]:
        """The parent pair of `pair` and the arrow joining the two, or None.

        Defined when neither coordinate is a root and both child arrows
        carry the same label; the arrow runs the way the two tree arrows run.
        """
        n, m = pair
        tree1, tree2 = self.t1.tree, self.t2.tree
        if n == tree1.root or m == tree2.root or self.t1.child_label(n) != self.t2.child_label(m):
            return None
        e1, e2 = tree1.child_arrow[n], tree2.child_arrow[m]
        arrow = NetArrow(
            (tree1.arrow_source[e1], tree2.arrow_source[e2]),
            (tree1.arrow_target[e1], tree2.arrow_target[e2]),
            (e1, e2),
        )
        return (tree1.parent[n], tree2.parent[m]), arrow

    @cached_property
    def edges(self) -> tuple:
        """The edges, listed and sorted, each as (u, w) with u < w: every two pairs of one edge class."""
        return tuple(sorted((u, w) for c in self.edge_classes for i, u in enumerate(c) for w in c[i + 1 :]))

    def linked(self, u, w) -> bool:
        """Whether an arrow or an edge joins u and w: one is the other's pullback parent, or both lie in one class.

        Two links u-v and v-w, u != w, pass through a triangle exactly when
        u and w are linked: no two links join the same two vertices, so three
        vertices carry three links exactly when each two of them are linked.
        This is the blocking test of graph maps and traversals.
        """
        parent, cls = self.pullback_parent.get, self.edge_class.get(u)
        return parent(u) == w or parent(w) == u or (u != w and cls is not None and cls is self.edge_class.get(w))

    @property
    def triangle_count(self) -> int:
        """The number of triangles, counted per edge class.

        Every triangle has an edge: the arrows form a forest.  Three pairs
        carrying three edges are three pairs of one class.  An edge and two
        arrows form a triangle exactly when the ends of the edge share their
        pullback parent, as every pair of their class then does.  So a class
        of s pairs holds C(s, 3) triangles of the first kind, and C(s, 2) of
        the second when it has a pullback parent.
        """
        return sum(comb(len(c), 3) + comb(len(c), 2) * (c[0] in self.pullback_parent) for c in self.edge_classes)

    @cached_property
    def forest_roots(self) -> tuple:
        """Roots of the pullback quiver: vertices with no pullback parent."""
        return tuple(v for v in self.vertices if v not in self.pullback_parent)


@dataclass(frozen=True)
class Triangle:
    """Three vertices carrying exactly three links between them."""

    vertices: frozenset
    kind: str  # "1-edge" or "3-edge"


def triangles(net: PullbackNetwork) -> tuple[Triangle, ...]:
    """All triangles of the network, listed: a reference for the counts.

    Every triangle contains at least one edge (directed cycles are absent and
    each vertex has at most one pullback parent), so the search walks the
    edges: an edge whose endpoints share their pullback parent gives the
    one-edge type, and two incident edges whose far endpoints are also
    joined give the three-edge type.
    """
    edge_set, ends = frozenset(net.edges), defaultdict(list)
    for u, v in net.edges:
        ends[u].append(v)
        ends[v].append(u)
    found: dict[frozenset, Triangle] = {}
    for u, v in net.edges:
        parent = net.pullback_parent.get(u)
        if parent is not None and parent == net.pullback_parent.get(v):
            key = frozenset((u, v, parent))
            found.setdefault(key, Triangle(key, "1-edge"))
        for mid, far in ((u, v), (v, u)):
            for w in ends[mid]:
                if w != far and _edge(w, far) in edge_set:
                    key = frozenset((u, v, w))
                    found.setdefault(key, Triangle(key, "3-edge"))
    return tuple(sorted(found.values(), key=lambda t: sorted(t.vertices)))


class TwoCover:
    """The signed double of a pullback network.

    Vertices and arrows are doubled with a sign; each undirected edge lifts
    to the two sign-crossing edges.  Dropping the sign projects the cover
    onto `base`, where its blocking is decided.  Only `base` is stored: the
    vertices, arrows and edges are sets built when first read.
    """

    def __init__(self, base: PullbackNetwork):
        self.base = base

    @cached_property
    def vertices(self) -> frozenset:
        return frozenset(v + (s,) for v in self.base.vertices for s in (-1, 1))

    @cached_property
    def arrows(self) -> frozenset:
        return frozenset(_lift(a, s) for a in self.base.arrows for s in (-1, 1))

    @cached_property
    def edges(self) -> frozenset:
        # u < w, so each lift of the edge (u, w) starts at its end over u
        return frozenset((u + (s,), w + (-s,)) for u, w in self.base.edges for s in (-1, 1))


def two_cover(net: PullbackNetwork) -> TwoCover:
    return TwoCover(net)


def maximal_r_free_traversals(net: PullbackNetwork) -> int:
    """The number of maximal unblocked traversals, counted up to inversion.

    A traversal is maximal when no single link can extend it at either end
    without backtracking or passing through a triangle.  Zero-length
    traversals are admitted only at isolated vertices, so each connected
    component contributes at least one traversal.

    The census is counted from the pullback forest, never listed.  A legal
    walk climbs the forest, crosses at most one edge, then descends: f*e?b*
    for sink trees, b*e?f* for source trees.  A step down cannot be followed
    by a step up, as each vertex has at most one pullback parent.  The ends
    of an edge share their pullback parent, if any, so a step up after an
    edge, or an edge after a step down, closes a 1-edge triangle; two edges
    at one vertex close a 3-edge triangle.  So a maximal walk climbs from a
    forest leaf to a vertex v, then crosses an edge v-w and descends from w
    to a leaf, or turns down at v into a child outside the class of the one
    it came from, or stops at v if v is a root with no edge whose children
    lie in one class (read backwards, it descends from v).

    With L(v) the number of leaves under v (1 at a leaf), the directed walks
    across the edges of a class C number (sum L)**2 - sum L**2 over C, the
    ordered pairs of distinct ends.  Those that turn at v number the same
    over the children of v, less the same over each class among them; but
    when C has a pullback parent p, its edge walks are as many as the turns
    at p that it blocks, so only the classes of roots count on their own.
    Each root r where walks stop adds 2 L(r).

    Halving the directed count is exact: no two links join the same two
    vertices, so a walk is its vertex sequence, and a non-backtracking walk
    without loops is never its own reverse.

    The signed double (`two_cover`) has exactly twice as many maximal
    traversals.  Its projection is a 2-sheeted covering of graphs: the links
    at (v, s) biject with those at v (arrows stay on sheet s, edges cross to
    sheet -s), and blocking is decided on the projection.  So a walk of the
    cover extends, legally, exactly as its projection does, and each maximal
    traversal of the network, and each isolated vertex, lifts to exactly
    two: one from each lift of its first vertex.
    """
    children: dict = {v: [] for v in net.vertices}
    for v, w in net.pullback_parent.items():
        children[w].append(v)
    order = [v for r in net.forest_roots for v in top_down(children, r)]  # parents before children
    leaves: dict = {}
    for v in reversed(order):
        leaves[v] = sum(leaves[c] for c in children[v]) or 1
    directed = isolated = 0
    for group in list(children.values()) + [c for c in net.edge_classes if c[0] not in net.pullback_parent]:
        total = sum(leaves[v] for v in group)
        directed += total * total - sum(leaves[v] ** 2 for v in group)
    for r in net.forest_roots:
        kids = children[r]
        if r in net.edge_class:
            continue
        if not kids:
            isolated += 1
        elif len(net.edge_class.get(kids[0], kids[:1])) == len(kids):  # the children lie in one class
            directed += 2 * leaves[r]
    return directed // 2 + isolated


def _vertex_name(v) -> str:
    if len(v) == 3:
        sign = "+" if v[2] > 0 else "-"
        return f"{v[0]},{v[1]},{sign}"
    return f"{v[0]},{v[1]}"


def to_dot(net, name: str = "network") -> str:
    """Graphviz rendering of a network, its double cover or a subnetwork such as
    a graph map: arrows solid and directed, edges dashed, in sorted order."""
    lines = [f"digraph {name} {{"]
    for v in sorted(net.vertices):
        lines.append(f'  "{_vertex_name(v)}";')
    for a in sorted(net.arrows):
        label = ",".join(str(x) for x in a.label[:2])
        lines.append(
            f'  "{_vertex_name(a.source)}" -> "{_vertex_name(a.target)}" [label="({label})"];'
        )
    for e in sorted(net.edges):
        lines.append(
            f'  "{_vertex_name(e[0])}" -> "{_vertex_name(e[1])}" [dir=none, style=dashed];'
        )
    lines.append("}")
    return "\n".join(lines)
