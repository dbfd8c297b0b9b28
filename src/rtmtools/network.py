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
is the combinatorial skeleton behind Hom-space computations.  The census is
counted, never listed: a dynamic programme on the acyclic graph of directed
steps counts the maximal walks in both directions, and halving that count
is exact because no walk is its own reverse (see
`maximal_r_free_traversals`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Union

from .trees import SINK, TreeOverQ


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


class _LinkedNetwork:
    """Shared adjacency plumbing for the base network and its double cover."""

    vertices: tuple
    arrows: tuple
    edges: tuple

    def _build_indexes(self) -> None:
        self.vertex_set = frozenset(self.vertices)
        self.arrow_set = frozenset(self.arrows)
        self.edge_set = frozenset(self.edges)
        self._arrows_from: dict = {v: [] for v in self.vertices}
        self._arrows_into: dict = {v: [] for v in self.vertices}
        self._edges_at: dict = {v: [] for v in self.vertices}
        for a in self.arrows:
            self._arrows_from[a.source].append(a)
            self._arrows_into[a.target].append(a)
        for e in self.edges:
            self._edges_at[e[0]].append(e)
            self._edges_at[e[1]].append(e)

    def arrows_from(self, v) -> list:
        return self._arrows_from[v]

    def arrows_into(self, v) -> list:
        return self._arrows_into[v]

    def edges_at(self, v) -> list:
        return self._edges_at[v]


class PullbackNetwork(_LinkedNetwork):
    """The pairing network of two same-orientation trees over one bound quiver.

    Coordinate `parent_side` of a vertex pair is the one whose same-labelled
    siblings are joined by edges; `child_side` is the other one.  A graph
    map must witness every tree child on the child side and the tree parent
    on the parent side.  `pullback_parent` maps each non-root vertex of the
    pullback forest to its parent.
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
        self.vertex_set = frozenset(self.vertices)
        self.pullback_parent: dict = {}
        arrows = []
        for v in self.vertices:
            up = self.up(v)
            if up is not None:
                self.pullback_parent[v] = up[0]
                arrows.append(up[1])
        for v, w in self.pullback_parent.items():
            if w not in self.vertex_set:
                raise ValueError(
                    f"pullback parent {w} of pair {v} is not a network vertex: "
                    "its coordinates carry different vertex labels"
                )
        self.arrows = tuple(sorted(arrows))
        self.edges = tuple(sorted({_edge(v, w) for v in self.vertices for w in self.partners(v)}))
        self._build_indexes()

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

    def partners(self, pair) -> list:
        """Network vertices joined to `pair` by an edge: same-labelled siblings on the parent side."""
        side, tp = self.parent_side, self.trees[self.parent_side]
        x = pair[side]
        if x == tp.tree.root:
            return []
        out = []
        for x2 in tp.tree.children(tp.tree.parent[x]):
            w = pair[:side] + (x2,) + pair[side + 1 :]
            if x2 != x and tp.child_label(x2) == tp.child_label(x) and w in self.vertex_set:
                out.append(w)
        return out

    def project(self, vertex):
        return vertex

    @cached_property
    def forest_roots(self) -> tuple:
        """Roots of the pullback quiver: vertices with no pullback parent."""
        return tuple(v for v in self.vertices if v not in self.pullback_parent)

    @cached_property
    def pullback_height(self) -> dict:
        """Height of each vertex inside its rooted tree of the pullback forest."""
        heights: dict = {}
        for v in self.vertices:
            climbed = []
            while v not in heights and v in self.pullback_parent:
                climbed.append(v)
                v = self.pullback_parent[v]
            h = heights.setdefault(v, 0)
            for u in reversed(climbed):
                h += 1
                heights[u] = h
        return heights

    @cached_property
    def triangle_set(self) -> frozenset:
        return frozenset(t.vertices for t in triangles(self))


@dataclass(frozen=True)
class Triangle:
    """Three vertices carrying exactly three links between them."""

    vertices: frozenset
    kind: str  # "1-edge" or "3-edge"


def triangles(net: PullbackNetwork) -> tuple[Triangle, ...]:
    """All triangles of the network.

    Every triangle contains at least one edge (directed cycles are absent and
    each vertex has at most one pullback parent), so the search walks the
    edges: an edge whose endpoints share their pullback parent gives the
    one-edge type, and two incident edges whose far endpoints are also
    joined give the three-edge type.
    """
    found: dict[frozenset, Triangle] = {}
    for u, v in net.edges:
        parent = net.pullback_parent.get(u)
        if parent is not None and parent == net.pullback_parent.get(v):
            key = frozenset((u, v, parent))
            found.setdefault(key, Triangle(key, "1-edge"))
        for mid, far in ((u, v), (v, u)):
            for e2 in net.edges_at(mid):
                w = e2[0] if e2[1] == mid else e2[1]
                if w == far:
                    continue
                if _edge(w, far) in net.edge_set:
                    key = frozenset((u, v, w))
                    found.setdefault(key, Triangle(key, "3-edge"))
    return tuple(sorted(found.values(), key=lambda t: sorted(t.vertices)))


class TwoCover(_LinkedNetwork):
    """The signed double of a pullback network.

    Vertices and arrows are doubled with a sign; each undirected edge lifts
    to the two sign-crossing edges.  The projection drops the sign.
    """

    def __init__(self, base: PullbackNetwork):
        self.base = base
        self.vertices = tuple(sorted((n, m, s) for (n, m) in base.vertices for s in (-1, 1)))
        self.arrows = tuple(sorted(_lift(a, s) for a in base.arrows for s in (-1, 1)))
        self.edges = tuple(
            sorted(
                _edge(e[0] + (s,), e[1] + (-s,))
                for e in base.edges
                for s in (-1, 1)
            )
        )
        self._build_indexes()

    def project(self, vertex):
        return vertex[:2]

    @property
    def triangle_set(self) -> frozenset:
        return self.base.triangle_set


Network = Union[PullbackNetwork, TwoCover]


def pullback_network(t1: TreeOverQ, t2: TreeOverQ) -> PullbackNetwork:
    return PullbackNetwork(t1, t2)


def two_cover(net: PullbackNetwork) -> TwoCover:
    return TwoCover(net)


def _window_blocked(net: Network, u, v, w) -> bool:
    """Whether the visited triple (u, v, w) induces a triangle downstairs."""
    triple = frozenset((net.project(u), net.project(v), net.project(w)))
    return triple in net.triangle_set


def _neighbours(net: Network, v) -> list:
    """The far ends of the links at `v`: arrow heads, arrow tails, edge partners."""
    return (
        [a.target for a in net.arrows_from(v)]
        + [a.source for a in net.arrows_into(v)]
        + [e[1] if e[0] == v else e[0] for e in net.edges_at(v)]
    )


def maximal_r_free_traversals(net: Network) -> int:
    """The number of maximal unblocked traversals, counted up to inversion.

    A traversal is maximal when no single link can extend it at either end
    without backtracking or passing through a triangle.  Zero-length
    traversals are admitted only at isolated vertices, so each connected
    component contributes at least one traversal.

    The census is counted, never listed, on the graph of directed steps.  A
    step (u, v) runs along one link; (v, w) may follow it when w != u and
    {u, v, w} does not project to a triangle.  Each step begins one maximal
    walk if nothing may follow it, and otherwise as many as its successors
    together.  A step has no legal predecessor exactly when its reverse has
    no successor; the maximal walks are counted from those steps.

    The step graph is acyclic, in the cover too, because blocking is decided
    on the projection.  A legal walk climbs the pullback forest, crosses at
    most one edge, then descends: f*e?b* for sink trees, b*e?f* for source
    trees.  A step down cannot be followed by a step up, as each vertex has
    at most one pullback parent.  The two ends of an edge share their
    pullback parent, so a step up after an edge, or an edge after a step
    down, closes a blocked 1-edge triangle; two edges at one vertex close a
    3-edge triangle.  So no walk is longer than twice the forest height + 1.

    Halving the directed count is exact: no two links join the same two
    vertices, so a walk is its vertex sequence, and a non-backtracking walk
    without loops is never its own reverse.
    """
    succ: dict = {}
    isolated = 0
    for v in net.vertices:
        around = _neighbours(net, v)
        isolated += not around
        for u in around:
            succ[u, v] = [(v, w) for w in around if w != u and not _window_blocked(net, u, v, w)]
    walks: dict = {}  # step -> number of maximal walks it begins
    stack = list(succ)
    while stack:
        todo = [s for s in succ[stack[-1]] if s not in walks]
        if todo:
            stack += todo
        else:
            step = stack.pop()
            walks[step] = sum(walks[s] for s in succ[step]) or 1
    directed = sum(walks[u, v] for u, v in succ if not succ[v, u])
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
