"""Reference implementations of the paper's objects that no command needs.

The commands reach graph maps only through their search, which meets every
condition of the definition by construction, and reach Hom-spaces only
through the flat rows of `trees.hom_layout`.  The tests check those paths
against the predicates and conversions kept here: the defining conditions
of a graph map, the branch morphism at one of its vertices, relation-free
path enumeration on the relations' automaton, and the flat row of a map,
the inverse of `ModuleHom.from_flat`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rtmtools.algebra import BoundQuiver, Path, StructureError, _reachable_states
from rtmtools.ggm import GeneralizedGraphMap, Subnetwork, _met, _Obligations
from rtmtools.trees import BranchMorphism, ModuleHom, hom_layout


def signed_pairs(sub: Subnetwork) -> dict:
    return {(n, m): s for (n, m, s) in sub.vertices}


def is_involution_free(sub: Subnetwork) -> bool:
    pairs = [v[:2] for v in sub.vertices]
    return len(set(pairs)) == len(pairs)


def far_ends(sub: Subnetwork) -> dict:
    """The far end of each link at each vertex."""
    ends: dict = {v: [] for v in sub.vertices}
    for u, w in [(a.source, a.target) for a in sub.arrows] + list(sub.edges):
        ends[u].append(w)
        ends[w].append(u)
    return ends


def is_connected(sub: Subnetwork) -> bool:
    if not sub.vertices:
        return True
    ends = far_ends(sub)
    seen = set()
    stack = [next(iter(sub.vertices))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(ends[v])
    return seen == set(sub.vertices)


def is_r_free(sub: Subnetwork) -> bool:
    """No two incident links of the subnetwork project through a triangle: their far ends are not linked."""
    linked = sub.cover.base.linked
    for ends in far_ends(sub).values():
        for i, u in enumerate(ends):
            if any((u[:2], w[:2]) in linked for w in ends[i + 1 :]):
                return False
    return True


@dataclass(frozen=True)
class CompletenessReport:
    ok: bool
    vertex: tuple = ()
    reason: str = ""


def is_complete(sub: Subnetwork) -> CompletenessReport:
    """Check every completeness obligation, reporting the first failure."""
    base = sub.cover.base
    table = _Obligations(base)
    links = sub.arrows | sub.edges
    for vertex in sorted(sub.vertices):
        for obligation, witnesses in table[vertex]:
            if _met(witnesses, links):
                continue
            if obligation[0] == "child":
                side = ("domain", "codomain")[base.child_side]
                arrow = base.trees[base.child_side].tree.child_arrow[obligation[1]]
                reason = f"no witness for {side} arrow {arrow} of child {obligation[1]}"
            else:
                reason = "no witness for the parent-side arrow"
            return CompletenessReport(False, vertex, reason)
    return CompletenessReport(True)


def branch_morphism_from_ggm(g: GeneralizedGraphMap, pair: tuple) -> BranchMorphism:
    """Extract the branch-to-branch morphism rooted at a graph-map vertex.

    It maps the branch of the child-side coordinate of `pair` into the
    branch of the parent-side one: the domain branch into the codomain
    branch for sink trees, the other way round for source trees.  Each
    inductive step follows the unique witness arrow inside the graph map;
    uniqueness is asserted, as it is what the unblocked condition grants.
    """
    if pair not in signed_pairs(g):
        raise ValueError(f"{pair} is not a vertex pair of the graph map")
    base = g.cover.base
    c, p = base.child_side, base.parent_side
    tc = base.trees[c].tree
    morphism = BranchMorphism(pair[c], pair[p], {pair[c]: pair[p]}, {})
    queue = [pair]
    for v in queue:  # the queue grows while it is read
        for x in tc.children(v[c]):
            arrow = tc.child_arrow[x]
            witnesses = [a for a in g.arrows if a.label[c] == arrow and v in (a.source[:2], a.target[:2])]
            if len(witnesses) != 1:
                raise AssertionError(f"witness for child {x} not unique: {witnesses}")
            a = witnesses[0]
            w = (a.source if a.target[:2] == v else a.target)[:2]
            morphism.vertex_map[x] = w[p]
            morphism.arrow_map[arrow] = a.label[p]
            queue.append(w)
    return morphism


def automaton_state_count(bq: BoundQuiver) -> int:
    """Number of reachable product-automaton states; caps path lengths when bound."""
    return len(_reachable_states(bq))


def enumerate_paths_from(bq: BoundQuiver, vertex: str, max_len: int) -> list[Path]:
    """All relation-free paths starting at `vertex` of length <= max_len.

    Returned in length-then-lexicographic order on arrow words.  Extensions
    of a relation-containing path also contain the relation, so the walk
    prunes as soon as a relation completes.
    """
    quiver = bq.quiver
    if vertex not in quiver.vertex_set:
        raise StructureError(f"unknown vertex {vertex!r}")
    step, dead = bq.automaton()
    out = [quiver.path(vertex)]
    frontier = [(out[0], 0)]  # (path, automaton state after its word)
    for _ in range(max_len):
        nxt = []
        for p, state in frontier:
            for arrow in quiver.arrows_from(p.target):
                after = step[state].get(arrow, 0)
                if not dead[after]:
                    nxt.append((Path(vertex, quiver.target(arrow), p.arrows + (arrow,)), after))
        if not nxt:
            break
        frontier = nxt
        out.extend(p for p, _ in nxt)
    return out


def flat(h: ModuleHom) -> np.ndarray:
    """Row vector of all block entries, in the `hom_layout` of the pair: the inverse of `ModuleHom.from_flat`."""
    layout = hom_layout(h.domain, h.codomain)
    row = np.zeros(sum(rows * cols for _, _, rows, cols in layout), dtype=np.int64)
    cells = {off + i * cols + j: x for q, off, _, cols in layout for (i, j), x in h.blocks[q].items()}
    row[list(cells)] = list(cells.values())
    return row
