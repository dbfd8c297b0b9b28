"""Indecomposability decisions and decomposition of tree modules.

The central criterion: the module of a labelled rooted tree is decomposable
exactly when the tree admits a non-identity idempotent label-compatible
endomorphism, and such an endomorphism exists exactly when two distinct
same-labelled siblings admit a label-compatible morphism from one branch
into the other.  The sibling search is a memoized pairwise dynamic program,
so the whole decision is polynomial; the oracle's local-End test provides
the independent cross-check.

A split moves only the branch of the first sibling of a certificate, so
`decompose_fully` splits the pieces of one view of the input tree along
certificates alone.

All of this reads only the tree's parent map, so it is the same for both
orientations, except in two places.  The module of a source tree is the
transpose dual of the module of the opposite sink tree, so the induced
idempotent of a source tree (`module_idempotent`) is the transpose of the
sink formula, and so is its split witness (`_verified_witness`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .trees import (
    SOURCE,
    BranchMorphism,
    ModuleHom,
    ModuleRep,
    TreeOverQ,
    push_down,
    restrict,
    top_down,
)
from . import oracle


class IdempotentEndo:
    """An idempotent label-compatible endomorphism, given by its vertex map.

    The arrow map is determined: the child arrow of n goes to the child
    arrow of the image of n.
    """

    def __init__(self, t: TreeOverQ, vertex_map: dict[int, int]):
        self.t = t
        self.vertex_map = dict(vertex_map)
        root = t.tree.root
        if not BranchMorphism(root, root, self.vertex_map).check(t, t):
            raise ValueError("vertex map is not a label-compatible endomorphism fixing the root")
        for n, img in self.vertex_map.items():
            if self.vertex_map[img] != img:
                raise ValueError(f"not idempotent at {n}")

    def fixed_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(n for n, v in self.vertex_map.items() if v == n))

    def arrow_map(self) -> dict[str, str]:
        tree = self.t.tree
        return {
            tree.child_arrow[n]: tree.child_arrow[self.vertex_map[n]]
            for n in tree.vertices
            if n != tree.root
        }


def embeds(
    t: TreeOverQ, x: int, y: int, _memo: Optional[dict] = None, _children: Optional[dict] = None
) -> Optional[BranchMorphism]:
    """Label-compatible morphism from the branch of x into the branch of y.

    One exists iff x and y carry the same vertex label and every child of x
    has some child of y with the same arrow label whose branch accepts the
    child's branch.  Memoized over vertex pairs, each keeping only the child
    pairs it chose; the mapping is assembled once, walking down from (x, y).
    Ties resolved to the least admissible target child, so witnesses are
    deterministic.  `_children` are the child lists of a view of t.
    """
    children = t.tree.child_lists if _children is None else _children
    memo = {} if _memo is None else _memo

    def search(a: int, b: int):
        """Yields each child pair it needs solved; returns the child pairs chosen, or None."""
        if t.vertex_label[a] != t.vertex_label[b]:
            return None
        chosen = []
        for c in children[a]:
            for d in children[b]:
                if t.child_label(d) == t.child_label(c) and (yield c, d) is not None:
                    chosen.append((c, d))
                    break
            else:
                return None
        return chosen

    # An explicit stack of suspended searches: deep trees must not hit
    # Python's recursion limit.
    stack, result = ([] if (x, y) in memo else [((x, y), search(x, y))]), None
    while stack:
        pair, frame = stack[-1]
        try:
            need = frame.send(result)
        except StopIteration as done:
            memo[pair] = result = done.value
            stack.pop()
            continue
        if need in memo:
            result = memo[need]
        else:
            stack.append((need, search(*need)))
            result = None
    if memo[x, y] is None:
        return None
    mapping, stack = {}, [(x, y)]
    while stack:  # preorder, children in order
        a, b = stack.pop()
        mapping[a] = b
        stack += reversed(memo[a, b])
    return BranchMorphism(x, y, mapping, {t.tree.child_arrow[c]: t.tree.child_arrow[m] for c, m in mapping.items() if c != x})


def first_certificate(
    t: TreeOverQ, root: Optional[int] = None, children: Optional[dict] = None
) -> Optional[tuple[int, int, int, BranchMorphism]]:
    """First (parent, n1, n2, witness) sibling certificate in breadth-first order, in t or in the piece at `root` of a view."""
    children = t.tree.child_lists if children is None else children
    queue = [t.tree.root if root is None else root]
    memo: dict = {}
    for parent in queue:  # the queue grows while it is read
        kids = children[parent]
        for n1 in kids:
            for n2 in kids:
                if n1 == n2 or t.child_label(n1) != t.child_label(n2):
                    continue
                witness = embeds(t, n1, n2, memo, children)
                if witness is not None:
                    return parent, n1, n2, witness
        queue.extend(kids)
    return None


def find_nonidentity_idempotent(t: TreeOverQ) -> Optional[IdempotentEndo]:
    """First non-identity idempotent endomorphism, or None.

    Built from the first same-labelled sibling pair whose branches embed:
    the branch of the first sibling maps by the embedding witness and
    everything else is fixed.
    """
    cert = first_certificate(t)
    if cert is None:
        return None
    _, _, _, witness = cert
    vertex_map = {n: n for n in t.tree.vertices}
    vertex_map.update(witness.vertex_map)
    return IdempotentEndo(t, vertex_map)


def is_indecomposable(t: TreeOverQ) -> bool:
    """Theorem-level decision through the sibling-embedding criterion."""
    return first_certificate(t) is None


def module_idempotent(t: TreeOverQ, vertex_map: dict[int, int], rep: ModuleRep) -> ModuleHom:
    """The endomorphism of `rep`, the module of t, induced by `vertex_map` with the identity elsewhere.

    Sink orientation sends v_n to the vector of the image vertex; source
    orientation uses the transpose, sending v_n to the sum over the fiber
    of n.  `oracle.verify_idempotent` checks the result; an image with
    another label raises AssertionError.
    """
    blocks: dict = {q: {} for q in rep.basis}
    for n in t.tree.vertices:
        m, q = vertex_map.get(n, n), t.vertex_label[n]
        if t.vertex_label.get(m) != q:
            raise AssertionError(f"vertex {n} and its image {m} carry different labels")
        i, j = (n, m) if t.orientation == SOURCE else (m, n)
        blocks[q][rep.basis_index(q, i), rep.basis_index(q, j)] = 1
    return ModuleHom(rep, rep, blocks)


@dataclass
class Decomposition:
    """Summands plus the explicit isomorphism between their direct sum and the split module (`_verified_witness`)."""

    summands: list[TreeOverQ]
    witness: ModuleHom


def _compose(columns: dict[int, dict[int, int]], moved: dict[int, int], p: int) -> dict[int, dict[int, int]]:
    """W <- W (1 + S) in place, for the idempotent moving each n of `moved` to moved[n]; returns `columns`.

    1 + S is the sink formula of the idempotent on fixed columns and 1 minus
    it on moved ones: column n of S is -v_{moved[n]}, or 0 if n is fixed, so
    S**2 = 0. `columns`: the columns of W that are not v_n, {row vertex:
    nonzero residue}.
    """
    for n, m in moved.items():
        column = dict(columns.get(n, {n: 1}))
        for r, y in columns.get(m, {m: 1}).items():
            column[r] = (column.get(r, 0) - y) % p
        columns[n] = {r: y for r, y in column.items() if y}
    return columns


def _checked_moves(t: TreeOverQ, witness: BranchMorphism, children: dict, parent: dict) -> dict[int, int]:
    """The vertex map of a sibling certificate's witness, checked on the branch it moves in a view of t.

    With the identity elsewhere, it is an idempotent endomorphism of the
    piece exactly when it is a label-compatible morphism from the branch of
    n1 and n2 = witness(n1) is another sibling of n1 under the same arrow
    label, in the view's `children` and `parent`.  Raises AssertionError
    otherwise.
    """
    n1, n2, vmap = witness.domain_root, witness.codomain_root, witness.vertex_map
    ok = n1 != n2 and n1 in parent and parent.get(n2) == parent[n1] and vmap.get(n1) == n2
    ok = ok and vmap.keys() == set(top_down(children, n1)) and all(
        t.vertex_label[n] == t.vertex_label.get(m)
        and (n == n1 or parent.get(m) == vmap[parent[n]])
        and t.child_label(n) == t.child_label(m)
        for n, m in vmap.items()
    )
    if not ok:
        raise AssertionError("sibling certificate failed its check")
    return vmap


def _verified_witness(t: TreeOverQ, rep: ModuleRep, cut: list[str], columns: dict[int, dict[int, int]]) -> ModuleHom:
    """The isomorphism between `rep`, the module of t, and `rep` with the `cut` tree arrows zeroed (the direct sum).

    W, the product of the (1 + S) of `_compose`, sends v_n to `columns[n]`,
    or to v_n if n has no column, and maps the direct sum to `rep` for a
    sink tree.  A source split does by 1 - S^T, whose inverse is 1 + S^T, so
    for a source tree W^T, its entries with row and column swapped, maps
    `rep` to the direct sum.  Raises AssertionError unless
    `oracle.verify_iso` accepts the witness.
    """
    tree, q = t.tree, t.codomain.quiver
    actions = {a: dict(entries) for a, entries in rep.actions.items()}
    for arrow in cut:
        a = t.arrow_label[arrow]
        row = rep.basis_index(q.target(a), tree.arrow_target[arrow])
        del actions[a][row, rep.basis_index(q.source(a), tree.arrow_source[arrow])]
    blocks = {qv: {(i, i): 1 for i in range(rep.dim(qv))} for qv in rep.basis}
    for n, column in columns.items():
        qv = t.vertex_label[n]
        j = rep.basis_index(qv, n)
        del blocks[qv][j, j]
        blocks[qv].update(((rep.basis_index(qv, m), j), y) for m, y in column.items())
    summed = ModuleRep(rep.prime, rep.codomain, rep.basis, actions)
    if t.orientation == SOURCE:
        witness = ModuleHom(rep, summed, {qv: {(j, i): y for (i, j), y in b.items()} for qv, b in blocks.items()})
    else:
        witness = ModuleHom(summed, rep, blocks)
    if not oracle.verify_iso(witness):
        raise AssertionError("split witness failed verification")
    return witness


def split(t: TreeOverQ, endo: IdempotentEndo, prime: int = 3) -> Decomposition:
    """Split the module along a non-identity idempotent endomorphism, in the basis of t.

    The fixed subtree (the image subtree) carries the first summand.  It is
    closed under parents, so the moved vertices are the branches at their
    tops, the moved vertices with a fixed parent; each carries one more
    summand, in order of least vertex.  Their direct sum is the module of t
    with the arrow above each top cut.  The witness is verified.
    """
    moved = {n: m for n, m in endo.vertex_map.items() if m != n}
    if not moved:
        raise ValueError("cannot split along the identity")
    tree = t.tree
    tops = [n for n in moved if tree.parent[n] not in moved]
    fixed = tuple(n for n in tree.vertices if n not in moved)
    summands = [restrict(t, part) for part in [fixed] + sorted(tree.branch_vertices(n) for n in tops)]
    witness = _verified_witness(t, push_down(t, prime), [tree.child_arrow[n] for n in tops], _compose({}, moved, prime))
    return Decomposition(summands, witness)


def decompose_fully(t: TreeOverQ, prime: int = 3) -> list[TreeOverQ]:
    """Split until every piece is indecomposable; pieces in depth-first order.

    A piece is a root vertex of one view of t's tree: t's child lists less
    the top of each branch split off.  A piece splits along its first sibling
    certificate, checked on the branch it moves, by removing the top from
    its parent's list, which no other piece holds.  So the split witnesses
    multiply into one, on t's module with the arrows above the tops cut,
    checked once.  Only final pieces become trees (`restrict`).
    """
    rep = push_down(t, prime)
    tree = t.tree
    children, parent = {v: list(kids) for v, kids in tree.child_lists.items()}, dict(tree.parent)
    roots, cut, columns, todo = [], [], {}, [tree.root]
    while todo:
        root = todo.pop()
        cert = first_certificate(t, root, children)
        if cert is None:
            roots.append(root)
            continue
        _compose(columns, _checked_moves(t, cert[-1], children, parent), prime)
        top = cert[-1].domain_root
        children[parent.pop(top)].remove(top)
        cut.append(tree.child_arrow[top])
        todo += [top, root]  # the rest of the piece comes out first
    if not cut:
        return [t]
    _verified_witness(t, rep, cut, columns)
    return [restrict(t, tuple(sorted(top_down(children, r)))) for r in roots]


@dataclass
class Cor2Report:
    """Root-level decomposability certificate for recursive construction."""

    indecomposable: bool
    pair: Optional[tuple[int, int]] = None
    witness: Optional[BranchMorphism] = None


def cor2_report(t: TreeOverQ) -> Cor2Report:
    """Decide decomposability at the root, given indecomposable branches.

    Every branch at a root child must itself be indecomposable; this is
    checked and violations raise.  The module is then decomposable iff two
    distinct root children share their arrow label and one branch embeds
    into the other.
    """
    for k in t.tree.children(t.tree.root):
        if first_certificate(t, k) is not None:
            raise ValueError(f"branch at root child {k} is decomposable")
    # With every root-child branch indecomposable, a certificate can only sit
    # at the root, and the breadth-first order checks the root first.
    cert = first_certificate(t)
    if cert is None:
        return Cor2Report(True)
    _, n1, n2, witness = cert
    return Cor2Report(False, (n1, n2), witness)
