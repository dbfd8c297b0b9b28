"""Indecomposability decisions and decomposition of tree modules.

The central criterion: the module of a labelled rooted tree is decomposable
exactly when the tree admits a non-identity idempotent label-compatible
endomorphism, and such an endomorphism exists exactly when two distinct
same-labelled siblings admit a label-compatible morphism from one branch
into the other.  The sibling search is a memoized pairwise dynamic program,
so the whole decision is polynomial; the exhaustive idempotent scan of the
oracle module provides the independent cross-check.

A split moves only the branch of the first sibling of a certificate, so
`decompose_fully` checks and splits along the certificate's witness alone.

All of this reads only the tree's parent map, so it is the same for both
orientations.  The one exception is the induced idempotent
(`_idempotent_entries`): the module of a source tree is the transpose dual
of the module of the opposite sink tree, so the induced idempotent of a
source tree is the transpose of the sink formula.  Every split witness is
built from that idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .trees import (
    SOURCE,
    BranchMorphism,
    ModuleHom,
    ModuleRep,
    TreeOverQ,
    branch,
    push_down,
    restrict,
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

    def is_identity(self) -> bool:
        return all(v == n for n, v in self.vertex_map.items())

    def fixed_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(n for n, v in self.vertex_map.items() if v == n))

    def image_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.vertex_map.values())))

    def arrow_map(self) -> dict[str, str]:
        tree = self.t.tree
        return {
            tree.child_arrow[n]: tree.child_arrow[self.vertex_map[n]]
            for n in tree.vertices
            if n != tree.root
        }


def embeds(t: TreeOverQ, x: int, y: int, _memo: Optional[dict] = None) -> Optional[BranchMorphism]:
    """Label-compatible morphism from the branch of x into the branch of y.

    One exists iff x and y carry the same vertex label and every child of x
    has some child of y with the same arrow label whose branch accepts the
    child's branch.  Memoized over vertex pairs; ties resolved to the least
    admissible target child, so witnesses are deterministic.
    """
    memo = {} if _memo is None else _memo

    def search(a: int, b: int):
        """Yields each child pair it needs solved; returns the mapping or None."""
        if t.vertex_label[a] != t.vertex_label[b]:
            return None
        mapping = {a: b}
        for c in t.tree.children(a):
            for d in t.tree.children(b):
                if t.child_label(d) == t.child_label(c):
                    sub = yield c, d
                    if sub is not None:
                        mapping.update(sub)
                        break
            else:
                return None
        return mapping

    def solve(a: int, b: int) -> Optional[dict[int, int]]:
        # An explicit stack of suspended searches: deep trees must not hit
        # Python's recursion limit.
        if (a, b) in memo:
            return memo[(a, b)]
        stack = [((a, b), search(a, b))]
        result = None
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
        return result

    mapping = solve(x, y)
    if mapping is None:
        return None
    tree = t.tree
    arrow_map = {
        tree.child_arrow[c]: tree.child_arrow[mapping[c]]
        for c in mapping
        if c != x
    }
    return BranchMorphism(x, y, mapping, arrow_map)


def first_certificate(t: TreeOverQ) -> Optional[tuple[int, int, int, BranchMorphism]]:
    """First (parent, n1, n2, witness) sibling certificate in breadth-first order."""
    queue = [t.tree.root]
    memo: dict = {}
    for parent in queue:  # the queue grows while it is read
        kids = t.tree.children(parent)
        for n1 in kids:
            for n2 in kids:
                if n1 == n2 or t.child_label(n1) != t.child_label(n2):
                    continue
                witness = embeds(t, n1, n2, memo)
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


def module_idempotent(t: TreeOverQ, endo: IdempotentEndo, prime: int = 3) -> ModuleHom:
    """The induced idempotent endomorphism of the materialized module.

    Sink orientation sends v_n to the vector of the image vertex; source
    orientation uses the transpose, sending v_n to the sum over the fiber
    of n.
    """
    if endo.t is not t:
        IdempotentEndo(t, endo.vertex_map)  # revalidate against this tree
    rep = push_down(t, prime)
    blocks = {q: np.zeros((rep.dim(q), rep.dim(q)), dtype=np.int64) for q in rep.basis}
    for i, j in _idempotent_entries(t, endo.vertex_map):
        q = t.vertex_label[j]
        blocks[q][rep.basis_index(q, i), rep.basis_index(q, j)] = 1
    return ModuleHom(rep, rep, blocks)


def _idempotent_entries(t: TreeOverQ, vertex_map: dict[int, int]) -> list[tuple[int, int]]:
    """(row, column) of the 1 of the induced idempotent at each n of vertex_map: (image of n, n), transposed for a source tree."""
    pairs = [(m, n) for n, m in vertex_map.items()]
    return [(n, m) for m, n in pairs] if t.orientation == SOURCE else pairs


@dataclass
class Decomposition:
    """Summands plus the explicit isomorphism from their direct sum (`witness.domain`,
    in the basis of the split module `witness.codomain`)."""

    summands: list[TreeOverQ]
    witness: ModuleHom


def _split_step(t: TreeOverQ, moved: dict[int, int]) -> tuple[list[TreeOverQ], list[str], dict[int, dict[int, int]]]:
    """The summands of the split along an idempotent, the tree arrows it cuts, and its witness W minus 1.

    `moved` holds the image of each vertex the idempotent moves; it fixes
    every other vertex.  The fixed subtree (equal to the image subtree)
    carries the first summand.  It is closed under parents, so the moved
    vertices are the branches at their tops, the moved vertices with a fixed
    parent; each carries one more summand, in order of least vertex.  Their
    direct sum is the module of t with the arrow above each top cut, in t's
    basis.  W sends v_n to P v_n for a fixed vertex n and to (1 - P) v_n for
    any other, P the induced idempotent, so W - 1 is the off-diagonal part of
    P negated on the moved columns: sparse columns {vertex: {row vertex: +-1}}.
    """
    if not moved:
        raise ValueError("cannot split along the identity")
    tree = t.tree
    tops = [n for n in moved if tree.parent[n] not in moved]
    fixed = tuple(n for n in tree.vertices if n not in moved)
    summands = [restrict(t, part) for part in [fixed] + sorted(tree.branch_vertices(n) for n in tops)]
    moves: dict = {}
    for i, j in _idempotent_entries(t, moved):
        moves.setdefault(j, {})[i] = -1 if j in moved else 1
    return summands, [tree.child_arrow[n] for n in tops], moves


def _checked_moves(t: TreeOverQ, witness: BranchMorphism) -> dict[int, int]:
    """The vertex map of a sibling certificate's witness, checked on the branch it moves.

    With the identity elsewhere, it is an idempotent endomorphism of t
    exactly when it is a label-compatible morphism from the branch of n1 and
    n2 = witness(n1) is another sibling of n1 under the same arrow label.
    Raises AssertionError otherwise.
    """
    tree, n1, n2 = t.tree, witness.domain_root, witness.codomain_root
    siblings = n1 != n2 and tree.parent.get(n1) == tree.parent.get(n2)
    if not (witness.check(t, t) and siblings and t.child_label(n1) == t.child_label(n2)):
        raise AssertionError("sibling certificate failed its check")
    return witness.vertex_map


def _verified_witness(t: TreeOverQ, rep: ModuleRep, cut: list[str], columns: dict[int, dict[int, int]]) -> ModuleHom:
    """The map from `rep` with the `cut` tree arrows zeroed (the direct sum) to `rep`, the module of t.

    It sends v_n to `columns[n]` ({row vertex: residue}), or to v_n if n has
    no column; it raises AssertionError unless `oracle.verify_iso` accepts it.
    """
    tree, q = t.tree, t.codomain.quiver
    matrices = {a: m.copy() for a, m in rep.matrices.items()}
    for arrow in cut:
        a = t.arrow_label[arrow]
        row = rep.basis_index(q.target(a), tree.arrow_target[arrow])
        matrices[a][row, rep.basis_index(q.source(a), tree.arrow_source[arrow])] = 0
    blocks = {qv: np.eye(rep.dim(qv), dtype=np.int64) for qv in rep.basis}
    for n, column in columns.items():
        qv = t.vertex_label[n]
        j = rep.basis_index(qv, n)
        blocks[qv][:, j] = 0
        blocks[qv][[rep.basis_index(qv, m) for m in column], j] = list(column.values())
    witness = ModuleHom(ModuleRep(rep.prime, rep.codomain, rep.basis, matrices), rep, blocks)
    if not oracle.verify_iso(witness):
        raise AssertionError("split witness failed verification")
    return witness


def split(t: TreeOverQ, endo: IdempotentEndo, prime: int = 3) -> Decomposition:
    """Split the module along a non-identity idempotent endomorphism (see `_split_step`).

    The witness realizes the isomorphism explicitly, and is verified before returning.
    """
    summands, cut, moves = _split_step(t, {n: m for n, m in endo.vertex_map.items() if m != n})
    witness = _verified_witness(t, push_down(t, prime), cut, {j: {j: 1, **col} for j, col in moves.items()})
    return Decomposition(summands, witness)


def decompose_fully(t: TreeOverQ, prime: int = 3) -> list[TreeOverQ]:
    """Split until every piece is indecomposable; pieces in depth-first order.

    Each piece splits along its first sibling certificate, checked on the
    branch it moves (`_checked_moves`).  Every piece is a restriction of t
    in t's basis, so the whole iteration is t's module with the arrows cut
    by every split.  The split witnesses multiply into one W from the direct
    sum of the pieces to the module of t, which `oracle.verify_iso` checks
    once.  `push_down` validates t once.  An explicit stack, not recursion,
    so a piece may split any number of times.
    """
    rep = push_down(t, prime)
    pieces, cut, columns = [], [], {}  # columns: those of W that are not v_n
    todo = [t]
    while todo:
        piece = todo.pop()
        cert = first_certificate(piece)
        if cert is None:
            pieces.append(piece)
            continue
        summands, arrows, moves = _split_step(piece, _checked_moves(piece, cert[-1]))
        cut += arrows
        # W <- W (1 + moves), column j gaining moves[j][i] W v_i.  No column read is
        # written: a sink split reads fixed columns and writes others, a source split the reverse.
        for j, move in moves.items():
            column = dict(columns.get(j, {j: 1}))
            for i, x in move.items():
                for r, y in columns.get(i, {i: 1}).items():
                    column[r] = (column.get(r, 0) + x * y) % prime
            columns[j] = {r: y for r, y in column.items() if y}
        todo.extend(reversed(summands))
    if cut:
        _verified_witness(t, rep, cut, columns)
    return pieces


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
        if not is_indecomposable(branch(t, k)):
            raise ValueError(f"branch at root child {k} is decomposable")
    # With every root-child branch indecomposable, a certificate can only sit
    # at the root, and the breadth-first order checks the root first.
    cert = first_certificate(t)
    if cert is None:
        return Cor2Report(True)
    _, n1, n2, witness = cert
    return Cor2Report(False, (n1, n2), witness)
