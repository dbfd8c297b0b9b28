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
is the combinatorial skeleton behind Hom-space computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Union

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

        self.vertices = tuple(
            sorted(
                (n, m)
                for n in t1.tree.vertices
                for m in t2.tree.vertices
                if t1.vertex_label[n] == t2.vertex_label[m]
            )
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

    def project_arrow(self, arrow: NetArrow) -> NetArrow:
        return NetArrow(arrow.source[:2], arrow.target[:2], arrow.label[:2])

    def project_edge(self, edge: Edge) -> Edge:
        return _edge(edge[0][:2], edge[1][:2])

    @property
    def triangle_set(self) -> frozenset:
        return self.base.triangle_set


Network = Union[PullbackNetwork, TwoCover]


def pullback_network(t1: TreeOverQ, t2: TreeOverQ) -> PullbackNetwork:
    return PullbackNetwork(t1, t2)


def two_cover(net: PullbackNetwork) -> TwoCover:
    return TwoCover(net)


# A traversal step is ("fwd", arrow), ("bwd", arrow) or ("edge", edge).
Step = tuple


def _step_endpoints(step: Step, at) -> tuple:
    kind, link = step
    if kind == "fwd":
        return link.source, link.target
    if kind == "bwd":
        return link.target, link.source
    u, v = link
    if at == u:
        return u, v
    return v, u


def _inverse_step(step: Step) -> Step:
    kind, link = step
    if kind == "fwd":
        return ("bwd", link)
    if kind == "bwd":
        return ("fwd", link)
    return step


class Traversal:
    """A non-backtracking walk along links, beginning at `start`."""

    def __init__(self, start, steps: Iterable[Step] = ()):
        self.start = start
        self.steps = tuple(steps)

    def __len__(self) -> int:
        return len(self.steps)

    def vertex_sequence(self) -> tuple:
        out = [self.start]
        for step in self.steps:
            frm, to = _step_endpoints(step, out[-1])
            out.append(to)
        return tuple(out)

    def inverse(self) -> "Traversal":
        vseq = self.vertex_sequence()
        return Traversal(vseq[-1], tuple(_inverse_step(s) for s in reversed(self.steps)))

    def step_kinds(self) -> tuple[str, ...]:
        return tuple(kind for kind, _ in self.steps)

    def validate(self, net: Network) -> None:
        """Raise ValueError unless this is a well-formed traversal of `net`."""
        if self.start not in net.vertex_set:
            raise ValueError(f"unknown start vertex {self.start}")
        at = self.start
        prev: Optional[Step] = None
        for step in self.steps:
            kind, link = step
            if kind in ("fwd", "bwd"):
                if link not in net.arrow_set:
                    raise ValueError(f"unknown arrow {link}")
                frm, to = _step_endpoints(step, at)
                if frm != at:
                    raise ValueError(f"step {step} does not start at {at}")
            elif kind == "edge":
                if link not in net.edge_set:
                    raise ValueError(f"unknown edge {link}")
                if at not in link:
                    raise ValueError(f"edge {link} is not incident to {at}")
                frm, to = _step_endpoints(step, at)
            else:
                raise ValueError(f"unknown step kind {kind!r}")
            if prev is not None and step == _inverse_step(prev):
                raise ValueError("traversal backtracks")
            prev = step
            at = to


def _window_blocked(net: Network, u, v, w) -> bool:
    """Whether the visited triple (u, v, w) induces a triangle downstairs."""
    triple = frozenset((net.project(u), net.project(v), net.project(w)))
    return triple in net.triangle_set


def is_r_free(traversal: Traversal, net: Network) -> bool:
    """No two consecutive links pass through a triangle (after projection)."""
    traversal.validate(net)
    vseq = traversal.vertex_sequence()
    for i in range(len(vseq) - 2):
        if _window_blocked(net, vseq[i], vseq[i + 1], vseq[i + 2]):
            return False
    return True


def _moves_from(net: Network, v) -> list[Step]:
    moves: list[Step] = [("fwd", a) for a in net.arrows_from(v)]
    moves += [("bwd", a) for a in net.arrows_into(v)]
    moves += [("edge", e) for e in net.edges_at(v)]
    return moves


def _legal_extensions(net: Network, at, prev_vertex, prev_step: Optional[Step]) -> list[Step]:
    out = []
    for step in _moves_from(net, at):
        if prev_step is not None and step == _inverse_step(prev_step):
            continue
        _, to = _step_endpoints(step, at)
        if prev_step is not None and _window_blocked(net, prev_vertex, at, to):
            continue
        out.append(step)
    return out


def maximal_r_free_traversals(net: Network) -> list[Traversal]:
    """All maximal unblocked traversals, counted up to inversion.

    A traversal is maximal when no single link can extend it at either end
    without backtracking or passing through a triangle.  Zero-length
    traversals are admitted only at isolated vertices, so each connected
    component contributes at least one traversal.
    """
    results: dict[tuple, Traversal] = {}

    def record(trav: Traversal) -> None:
        vseq = trav.vertex_sequence()
        key = min(vseq, vseq[::-1])
        results.setdefault(key, trav if key == vseq else trav.inverse())

    def extend(start, steps: list[Step], at, prev_vertex) -> None:
        nexts = _legal_extensions(net, at, prev_vertex, steps[-1])
        if not nexts:
            trav = Traversal(start, steps)
            back = trav.inverse()
            bseq = back.vertex_sequence()
            if not _legal_extensions(net, bseq[-1], bseq[-2], back.steps[-1]):
                record(trav)
            return
        for step in nexts:
            _, to = _step_endpoints(step, at)
            extend(start, steps + [step], to, at)

    for v in net.vertices:
        first_moves = _moves_from(net, v)
        if not first_moves:
            record(Traversal(v))
            continue
        for step in first_moves:
            _, to = _step_endpoints(step, v)
            extend(v, [step], to, v)
    return [results[k] for k in sorted(results)]


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
