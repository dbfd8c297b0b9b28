"""Rooted trees over a bound quiver and the modules they present.

A rooted tree is a finite tree-shaped quiver with a unique sink (orientation
"sink") or unique source (orientation "source"), the root.  A labelling of
its vertices and arrows by a bound quiver, compatible with sources and
targets and avoiding the relation ideal, presents a module over the
zero-relation algebra: one basis vector per tree vertex, with each quiver
arrow acting by the sum of the tree arrows lying over it.

Every linear map between such bases, the action of an arrow in a
`ModuleRep` or a block of a `ModuleHom`, is kept as its nonzero entries
{(row, column): residue mod p}; its dimensions come from the bases.  For a
tree these are one entry 1 per tree arrow, the coefficient quiver of the
module (Ringel, Exceptional modules are tree modules, 1998).

This module owns the flat coordinates of a homomorphism: `hom_layout`
places each per-vertex block, row-major, in sorted quiver-vertex order, and
`ModuleHom.from_flat` reads a map back from a flat row.  The oracle's
unknowns and the graph maps' rows use the same layout.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .algebra import BoundQuiver, StructureError, first_relation

SINK = "sink"
SOURCE = "source"


def top_down(children: dict, vertex: int) -> list[int]:
    """`vertex` and its descendants under the child lists `children`, parents before children."""
    out = [vertex]
    for v in out:  # the list grows while it is read
        out.extend(children[v])
    return out


class RootedTree:
    """Tree quiver with labelled integer vertices and a unique sink or source.

    Exposes the root, the parent map, per-vertex child arrows (the unique
    arrow joining a non-root vertex to its parent), the ascending child
    lists (`child_lists`, read through `children`) and the height function.
    """

    def __init__(
        self,
        vertices: Iterable[int],
        arrows: Iterable[tuple[str, int, int]],
        orientation: str,
    ):
        if orientation not in (SINK, SOURCE):
            raise ValueError(f"orientation must be {SINK!r} or {SOURCE!r}")
        self.orientation = orientation
        self.vertices = tuple(sorted(vertices))
        if len(set(self.vertices)) != len(self.vertices):
            raise StructureError("duplicate tree vertex labels")
        if not self.vertices:
            raise StructureError("empty tree")
        if not all(isinstance(v, int) for v in self.vertices):
            raise StructureError("tree vertices must be integer labels")
        vertex_set = set(self.vertices)

        # This is the one place where the orientation picks an end of an
        # arrow: the child end of a sink arrow is its source, of a source
        # arrow its target.  Each vertex is the child end of at most one arrow.
        sink = orientation == SINK
        self.arrow_source: dict[str, int] = {}
        self.arrow_target: dict[str, int] = {}
        self.child_arrow: dict[int, str] = {}
        self.parent: dict[int, int] = {}
        for name, src, tgt in arrows:
            if name in self.arrow_source:
                raise StructureError(f"duplicate tree arrow {name!r}")
            if src not in vertex_set or tgt not in vertex_set:
                raise StructureError(f"tree arrow {name!r} has undeclared endpoint")
            if src == tgt:
                raise StructureError(f"tree arrow {name!r} is a loop")
            self.arrow_source[name] = src
            self.arrow_target[name] = tgt
            child, par = (src, tgt) if sink else (tgt, src)
            if child in self.parent:
                raise StructureError("some non-root vertex has more than one child arrow")
            self.child_arrow[child] = name
            self.parent[child] = par
        self.arrows = tuple(self.arrow_source)
        if len(self.arrows) != len(self.vertices) - 1:
            raise StructureError("a tree on n vertices needs exactly n-1 arrows")
        roots = [v for v in self.vertices if v not in self.parent]
        if len(roots) != 1:
            raise StructureError(f"tree has {len(roots)} candidate {orientation} roots, needs exactly 1")
        self.root = roots[0]

        children: dict[int, list[int]] = {v: [] for v in self.vertices}
        for v in self.vertices:  # ascending, so each child list is sorted
            if v in self.parent:
                children[self.parent[v]].append(v)
        self.child_lists: dict[int, tuple[int, ...]] = {v: tuple(cs) for v, cs in children.items()}

        # Every non-root vertex has one parent, so the walk down from the root
        # reaches exactly the vertices whose parent chain ends at the root; a
        # vertex it misses lies on a cycle or below one.
        self.height: dict[int, int] = {self.root: 0}
        for v in top_down(children, self.root)[1:]:
            self.height[v] = self.height[self.parent[v]] + 1
        if len(self.height) != len(self.vertices):
            raise StructureError("underlying graph is not connected")

    def children(self, vertex: int) -> tuple[int, ...]:
        return self.child_lists[vertex]

    def branch_vertices(self, vertex: int) -> tuple[int, ...]:
        """Vertices of the branch of `vertex` (itself and all descendants)."""
        return tuple(sorted(top_down(self.child_lists, vertex)))

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertices if not self.child_lists[v])


@dataclass(frozen=True)
class TreeValidationReport:
    ok: bool
    message: str = ""
    witness: tuple = ()


class TreeOverQ:
    """A rooted tree together with a labelling into a bound quiver.

    `vertex_label[n]` is the quiver vertex under tree vertex n and
    `arrow_label[a]` the quiver arrow under tree arrow a.  Structural
    totality is enforced here; the geometric conditions (commuting squares
    and avoidance of the relation ideal) are checked by
    :func:`validate_tree_over_q`, which reports rather than raises.
    """

    def __init__(
        self,
        tree: RootedTree,
        codomain: BoundQuiver,
        vertex_label: dict[int, str],
        arrow_label: dict[str, str],
    ):
        self.tree = tree
        self.codomain = codomain
        self.vertex_label = dict(vertex_label)
        self.arrow_label = dict(arrow_label)
        for v in tree.vertices:
            if v not in self.vertex_label:
                raise StructureError(f"tree vertex {v} has no quiver-vertex label")
            if self.vertex_label[v] not in codomain.quiver.vertex_set:
                raise StructureError(f"label of vertex {v} is not a quiver vertex")
        for a in tree.arrows:
            if a not in self.arrow_label:
                raise StructureError(f"tree arrow {a!r} has no quiver-arrow label")
            if self.arrow_label[a] not in codomain.quiver.arrow_source:
                raise StructureError(f"label of arrow {a!r} is not a quiver arrow")

    @property
    def orientation(self) -> str:
        return self.tree.orientation

    def child_label(self, vertex: int) -> str:
        """Quiver arrow under the child arrow of a non-root vertex."""
        return self.arrow_label[self.tree.child_arrow[vertex]]

    def image_word(self, tree_vertices: list[int]) -> tuple[str, ...]:
        """Image of the directed tree path visiting the given vertices.

        The vertex list follows arrow direction: consecutive entries joined
        by a tree arrow from the earlier to the later.
        """
        tree = self.tree
        word = []
        for a, b in zip(tree_vertices, tree_vertices[1:]):
            arrow = tree.child_arrow[a] if tree.parent.get(a) == b else tree.child_arrow[b]
            assert (tree.arrow_source[arrow], tree.arrow_target[arrow]) == (a, b)
            word.append(self.arrow_label[arrow])
        return tuple(word)


def validate_tree_over_q(t: TreeOverQ) -> TreeValidationReport:
    """Check commuting squares and the bound condition, with a witness.

    The bound condition looks for each relation in the image of each
    root-to-leaf path; every tree path is contained in one of these, so
    checking their images suffices.  One walk down from the root gives each
    vertex the state of the relations' string-matching automaton
    (`BoundQuiver.automaton`, over the reversed relations when the arrows
    run toward the root) and a flag: a vertex fails if its parent
    fails or a relation ends at it.  Only the first failing leaf, in
    ascending order, has its whole image word searched by
    `algebra.first_relation`, for the witness.
    """
    tree, q = t.tree, t.codomain.quiver
    for a in tree.arrows:
        lab = t.arrow_label[a]
        if q.source(lab) != t.vertex_label[tree.arrow_source[a]] or q.target(lab) != t.vertex_label[tree.arrow_target[a]]:
            return TreeValidationReport(
                False,
                f"labels do not commute at tree arrow {a!r}",
                (a, lab),
            )
    down = top_down(tree.child_lists, tree.root)
    # Whether the arrows run from the root to the leaves, so that a root path
    # read downward is read in traversal order.
    leaving = len(down) > 1 and tree.arrow_target[tree.child_arrow[down[1]]] == down[1]
    step, dead = t.codomain.automaton(reverse=not leaving)
    state, failing = {tree.root: 0}, {tree.root: False}
    for v in down[1:]:
        up = tree.parent[v]
        state[v] = step[state[up]].get(t.child_label(v), 0)
        failing[v] = failing[up] or dead[state[v]]
    leaf = next((leaf for leaf in tree.leaves() if failing[leaf]), None)
    if leaf is None:
        return TreeValidationReport(True)
    chain = [leaf]
    while chain[-1] != tree.root:
        chain.append(tree.parent[chain[-1]])
    if leaving:
        chain.reverse()  # the arrows run from the root to the leaf
    i, rel = first_relation(t.codomain, t.image_word(chain))
    return TreeValidationReport(
        False,
        "image of a tree path lies in the relation ideal",
        (tuple(chain[i : i + len(rel) + 1]), rel),
    )


def require_valid(t: TreeOverQ) -> None:
    """Raise ValueError naming the first validation failure of the labelled tree."""
    report = validate_tree_over_q(t)
    if not report.ok:
        raise ValueError(f"invalid labelled tree: {report.message}")


def restrict(t: TreeOverQ, vertices: tuple[int, ...]) -> TreeOverQ:
    """The labelled subtree on `vertices`, which must span a rooted subtree."""
    tree, vset = t.tree, set(vertices)
    arrows = [tree.child_arrow[v] for v in vertices if tree.parent.get(v) in vset]
    sub = RootedTree(vertices, [(a, tree.arrow_source[a], tree.arrow_target[a]) for a in arrows], tree.orientation)
    return TreeOverQ(
        sub,
        t.codomain,
        {v: t.vertex_label[v] for v in vertices},
        {a: t.arrow_label[a] for a in arrows},
    )


# Products of two residues mod p < 2**24, summed over fewer than 2**15 terms
# (the idempotent scan's products of flat rows), stay below 2**63.  A dense
# int64 block with 2**15 rows already takes 8 GB, so the arithmetic stays exact.
PRIME_BOUND = 2**24


def is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _residues(entries: dict, shape: tuple[int, int], p: int, what: str) -> dict:
    """`entries` {(row, column): value} reduced mod p, zeros dropped; an index outside `shape` raises ValueError."""
    out = {}
    for (i, j), x in entries.items():
        if not (0 <= i < shape[0] and 0 <= j < shape[1]):
            raise ValueError(f"{what} has an entry at ({i}, {j}), outside its shape {shape}")
        if x := int(x) % p:
            out[i, j] = x
    return out


def _sparse_product(left: dict, right: dict, p: int) -> dict:
    """The entries of left @ right mod p, given the entries of both."""
    by_row: dict = {}
    for (k, j), v in right.items():
        by_row.setdefault(k, []).append((j, v))
    out: dict = {}
    for (i, k), x in left.items():
        for j, v in by_row.get(k, ()):
            out[i, j] = out.get((i, j), 0) + x * v
    return {key: x % p for key, x in out.items() if x % p}


class ModuleRep:
    """A module over the zero-relation algebra over GF(p), as the nonzero entries of its arrow actions.

    One ordered basis of tree vertices per quiver vertex, and per quiver
    arrow its action {(row, column): nonzero residue}, from the basis at its
    source (columns) to the basis at its target (rows).  Any residues are
    accepted, not only the 1s of a tree; an arrow left out acts by zero.
    """

    def __init__(self, prime: int, codomain: BoundQuiver, basis: dict[str, tuple[int, ...]], actions: dict[str, dict]):
        self.prime = prime
        self.codomain = codomain
        q = codomain.quiver
        self.basis = {v: tuple(basis.get(v, ())) for v in q.vertices}
        self.actions = {
            a: _residues(actions.get(a, {}), (self.dim(q.target(a)), self.dim(q.source(a))), prime, f"arrow {a!r}")
            for a in q.arrows
        }
        self._index = {v: {n: i for i, n in enumerate(vs)} for v, vs in self.basis.items()}

    def dim(self, qvertex: str) -> int:
        return len(self.basis[qvertex])

    def basis_index(self, qvertex: str, tree_vertex: int) -> int:
        return self._index[qvertex][tree_vertex]


def push_down(t: TreeOverQ, prime: int = 3) -> ModuleRep:
    """Materialize the module presented by the labelled tree over GF(prime).

    A tree arrow from n to m labelled a is the entry 1 of the action of a at
    the row of m and the column of n: in a sink tree a vertex's vector goes
    to its parent, in a source tree to the sum of its children along a.
    Basis order is ascending vertex label.  The prime and the tree are
    checked first; an invalid one raises ValueError.
    """
    if prime >= PRIME_BOUND:  # checked first: trial division would crawl
        raise ValueError(f"prime {prime} is too large: int64 arithmetic is exact only for p < 2**24")
    if not is_odd_prime(prime):
        raise ValueError(f"need an odd prime, got {prime}")
    require_valid(t)
    q, tree = t.codomain.quiver, t.tree
    basis: dict[str, list[int]] = {qv: [] for qv in q.vertices}
    for n in tree.vertices:  # already ascending
        basis[t.vertex_label[n]].append(n)
    index = {n: i for vs in basis.values() for i, n in enumerate(vs)}
    actions: dict = {a: {} for a in q.arrows}
    for e in tree.arrows:
        actions[t.arrow_label[e]][index[tree.arrow_target[e]], index[tree.arrow_source[e]]] = 1
    return ModuleRep(prime, t.codomain, basis, actions)


class ModuleHom:
    """A homomorphism between two modules, as the nonzero entries of its per-quiver-vertex blocks.

    The block at q is {(row, column): nonzero residue}, rows indexed by the
    codomain's basis at q and columns by the domain's; a vertex left out
    maps by zero.
    """

    def __init__(self, domain: ModuleRep, codomain: ModuleRep, blocks: dict[str, dict]):
        if domain.prime != codomain.prime:
            raise ValueError("domain and codomain use different primes")
        if domain.codomain != codomain.codomain:
            raise ValueError("domain and codomain live over different bound quivers")
        self.domain = domain
        self.codomain = codomain
        self.prime = domain.prime
        self.blocks = {
            q: _residues(blocks.get(q, {}), (codomain.dim(q), domain.dim(q)), self.prime, f"block at {q!r}")
            for q in domain.basis
        }

    def intertwines(self) -> bool:
        """Whether the blocks commute with every quiver-arrow action: X_tgt A1 = A2 X_src, as entries."""
        q, p = self.domain.codomain.quiver, self.prime
        return all(
            _sparse_product(self.blocks[q.target(a)], self.domain.actions[a], p)
            == _sparse_product(self.codomain.actions[a], self.blocks[q.source(a)], p)
            for a in q.arrows
        )

    @classmethod
    def from_flat(cls, domain: ModuleRep, codomain: ModuleRep, vec: np.ndarray) -> "ModuleHom":
        """The homomorphism whose block entries, laid out by `hom_layout`, are `vec`: its nonzeros, read by one `np.flatnonzero`."""
        layout = hom_layout(domain, codomain)
        starts = [off for _, off, _, _ in layout]
        blocks: dict = {q: {} for q, _, _, _ in layout}
        cells = np.flatnonzero(vec)
        for k, x in zip(cells.tolist(), np.asarray(vec)[cells].tolist()):
            q, off, _, cols = layout[bisect_right(starts, k) - 1]  # the last block starting at or before k
            blocks[q][divmod(k - off, cols)] = x
        return cls(domain, codomain, blocks)


def hom_layout(m1: ModuleRep, m2: ModuleRep) -> list[tuple[str, int, int, int]]:
    """(qvertex, offset, rows, cols) of each block of a flat homomorphism m1 -> m2.

    Blocks come in sorted quiver-vertex order, each one row-major, rows
    indexed by the basis of m2 and columns by the basis of m1.
    """
    layout = []
    offset = 0
    for q in sorted(m1.basis):
        rows, cols = m2.dim(q), m1.dim(q)
        layout.append((q, offset, rows, cols))
        offset += rows * cols
    return layout


@dataclass
class BranchMorphism:
    """A label-compatible quiver morphism between branches of two trees."""

    domain_root: int
    codomain_root: int
    vertex_map: dict[int, int] = field(default_factory=dict)
    arrow_map: dict[str, str] = field(default_factory=dict)

    def check(self, t_dom: TreeOverQ, t_cod: TreeOverQ) -> bool:
        """Total on the branch, roots map to roots, parents commute, labels are preserved."""
        dom = t_dom.tree
        if set(self.vertex_map) != set(dom.branch_vertices(self.domain_root)):
            return False
        if self.vertex_map[self.domain_root] != self.codomain_root:
            return False
        for n, img in self.vertex_map.items():
            if t_dom.vertex_label[n] != t_cod.vertex_label.get(img):
                return False
            if n == self.domain_root:
                continue
            par = dom.parent[n]
            if self.vertex_map.get(par) != t_cod.tree.parent.get(img):
                return False
            if t_dom.child_label(n) != t_cod.child_label(img):
                return False
        return True
