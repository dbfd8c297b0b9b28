"""Independent ground truth over GF(p).

Everything here is deliberately oblivious to the combinatorics implemented
elsewhere: Hom-spaces are computed by solving the intertwining equations,
idempotents are found by exhaustively scanning the endomorphism space or
checked as given, and isomorphisms are verified by rank.  Arithmetic is
exact integer arithmetic modulo an odd prime below 2**24; inverses are
Python's `pow(x, -1, p)`.  No floating point is used anywhere.

Modules and maps arrive as the nonzero entries of their actions and blocks:
the Hom system is written from them, and an isomorphism or an idempotent is
checked on them with no numpy call.  Dense int64 arrays hold only the flat
rows of a Hom basis, for the idempotent scan, and the matrices of `rref`
and `nullspace`.

Every elimination is one forward sparse elimination, `_gauss_jordan`, on
rows {column: nonzero residue} of Python ints; that alone gives the Hom
dimension and the rank of each block of a claimed isomorphism.  A reduced
form, for the Hom basis (only when it is read) and the dense wrappers
`rref` and `nullspace`, is one `_back_substitute` of the echelon, last
pivot first.  `ggm.hom_span` reduces its rows with the same step,
`_eliminate`.  Columns go in ascending order and the pivot is the
sparsest eligible row (Markowitz's rule), so the intertwining systems of
tree modules cost about their nonzeros and fill-in; the reduced form, hence
every basis and witness, does not depend on the pivot row chosen.  The
unknowns are the flat coordinates of a homomorphism, laid out by
`trees.hom_layout`.

The idempotent scan works in coordinates of the endomorphism basis, never on
candidate matrices.  A vector in the span has its coordinates at the free
columns of the solve, and structure constants gamma (B_k B_l = sum_m
gamma_klm B_m) come from one batched product per block size; a basis
whose span is not closed under composition raises ValueError.  The
scan then evaluates e**2 - e on coefficient vectors, in the same ascending
order as a scan of every combination, so it returns the same witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby
from typing import Iterator, Optional

import numpy as np

from .algebra import BoundQuiver, Quiver, check_locally_bound
from .trees import (
    SINK,
    ModuleHom,
    ModuleRep,
    RootedTree,
    TreeOverQ,
    _sparse_product,
    hom_layout,
    push_down,
    validate_tree_over_q,
)


def _eliminate(row: dict, pivot: dict, c: int, p: int) -> tuple[list[int], list[int]]:
    """row -= row[c] * pivot over GF(p), in place, for a pivot row with 1 at column c.

    Rows are {column: nonzero residue}.  Returns the columns the step
    filled in and those it cancelled, column c among them; with p prime,
    only a column already in row can cancel.
    """
    f = row[c]
    filled, cancelled = [], []
    for k, v in pivot.items():
        x = row.get(k)
        if x is None:
            row[k] = -f * v % p
            filled.append(k)
        elif x := (x - f * v) % p:
            row[k] = x
        else:
            del row[k]
            cancelled.append(k)
    return filled, cancelled


def _gauss_jordan(rows: list[dict], p: int) -> list[tuple[int, dict]]:
    """Forward echelon form of sparse rows over GF(p): (pivot column, row) pairs, ascending.

    Columns are taken in ascending order.  The pivot is the row not yet
    used with the fewest nonzeros in that column (Markowitz's rule), scaled
    to 1 there, and the column is cleared from the rows not yet used; an
    index column -> rows sends each step only to the rows with a nonzero
    there.  So a pivot row has no nonzero before its pivot column, and the
    pivot columns are those of the reduced form: the echelon gives the rank,
    and `_back_substitute` turns it into the RREF.  `rows` is reduced in
    place.
    """
    where: dict = {}  # column -> indices of the rows with a nonzero there
    for i, row in enumerate(rows):
        for c in row:
            where.setdefault(c, set()).add(i)
    used = set()
    pivots = []
    for c in sorted(where):
        free = [i for i in where[c] if i not in used]
        if not free:
            continue
        i = min(free, key=lambda i: (len(rows[i]), i)) if len(free) > 1 else free[0]
        pivot = rows[i]
        if pivot[c] != 1:
            inverse = pow(pivot[c], -1, p)
            for k, v in pivot.items():
                pivot[k] = v * inverse % p
        for k in [k for k in free if k != i]:
            filled, cancelled = _eliminate(rows[k], pivot, c, p)
            for col in filled:
                where[col].add(k)
            for col in cancelled:
                where[col].discard(k)
        used.add(i)
        pivots.append((c, pivot))
    return pivots


def _back_substitute(pivots: list[tuple[int, dict]], p: int) -> list[tuple[int, dict]]:
    """The RREF of a forward echelon form from `_gauss_jordan`, reduced in place and returned.

    Last pivot first, each row is cleared of the later pivot columns it
    holds by their reduced rows, which hold only their pivot and free
    columns: fill lands only at free columns, and a row of n nonzeros
    takes at most n - 1 steps.
    """
    reduced: dict = {}  # pivot column -> its reduced row
    for c, row in reversed(pivots):
        for k in [k for k in row if k in reduced]:
            _eliminate(row, reduced[k], k, p)
        reduced[c] = row
    return pivots


def _sparse_rows(entries: dict, count: int) -> list[dict]:
    """`count` sparse rows holding the entries {(row, column): value}."""
    rows: list[dict] = [{} for _ in range(count)]
    for (i, j), x in entries.items():
        rows[i][j] = x
    return rows


def _dense_rows(mat: np.ndarray, p: int) -> list[dict]:
    """The rows of a 2-d matrix as sparse rows, from one `np.nonzero`."""
    m = np.asarray(mat, dtype=np.int64) % p
    if m.ndim != 2:
        raise ValueError("need a 2-d matrix")
    i, j = np.nonzero(m)
    return _sparse_rows(dict(zip(zip(i.tolist(), j.tolist()), m[i, j].tolist())), len(m))


def _null_rows(pivots: list[tuple[int, dict]], cols: int, p: int) -> np.ndarray:
    """Rows form the basis of the nullspace of an RREF, one per free column, ascending.

    The row of free column f has 1 at f and minus the entry of pivot row r
    at f in the pivot column of r.
    """
    free = sorted(set(range(cols)).difference(c for c, _ in pivots))
    position = {f: i for i, f in enumerate(free)}
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[range(len(free)), free] = 1
    r, c, v = [], [], []
    for pc, row in pivots:
        for k, x in row.items():
            if k != pc:
                r.append(position[k])
                c.append(pc)
                v.append(-x % p)
    basis[r, c] = v
    return basis


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """Reduced row-echelon form over GF(p): (reduced matrix, rank, pivot columns).

    Dense in and out: the nonzeros of the matrix go through `_gauss_jordan`
    and `_back_substitute` on Python ints, so the result is exact.
    """
    rows = _dense_rows(mat, p)
    pivots = _back_substitute(_gauss_jordan(rows, p), p)
    reduced = np.zeros((len(rows), np.shape(mat)[1]), dtype=np.int64)
    for r, (_, row) in enumerate(pivots):
        reduced[r, list(row)] = list(row.values())
    return reduced, len(pivots), tuple(c for c, _ in pivots)


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Rows form a basis of the right nullspace over GF(p), one per free column, ascending."""
    return _null_rows(_back_substitute(_gauss_jordan(_dense_rows(mat, p), p), p), np.shape(mat)[1], p)


class HomBasis:
    """The homomorphisms from `domain` to `codomain` over GF(prime), as their solve leaves them.

    `echelon` is the forward echelon form of the intertwining equations,
    (pivot column, row) pairs over the `width` unknowns of
    `trees.hom_layout`, so `dimension` is width minus its rank.  The rest
    is built when first read: `rows`, the basis as flat rows, one per free
    column in ascending order, with 1 at that column and 0 at the other
    free columns (`_back_substitute` on the echelon, then `_null_rows`);
    `free`, those columns; and `basis`, the rows as maps.  So a caller that
    reads only `dimension` substitutes back nothing and builds no map.
    `free` relies on the ascending column order of the forward pass, whose pivots are the RREF's.
    """

    def __init__(self, domain: ModuleRep, codomain: ModuleRep, echelon: list[tuple[int, dict]], width: int):
        self.domain = domain
        self.codomain = codomain
        self.prime = domain.prime
        self.dimension = width - len(echelon)
        self._echelon = echelon
        self._width = width

    @cached_property
    def rows(self) -> np.ndarray:
        return _null_rows(_back_substitute(self._echelon, self.prime), self._width, self.prime)

    @cached_property
    def free(self) -> list[int]:
        return sorted(set(range(self._width)).difference(c for c, _ in self._echelon))

    @cached_property
    def basis(self) -> list[ModuleHom]:
        return [ModuleHom.from_flat(self.domain, self.codomain, row) for row in self.rows]


def hom_space(m1: ModuleRep, m2: ModuleRep) -> HomBasis:
    """Solve the intertwining equations directly, as sparse rows.

    Unknowns are all entries of the per-vertex blocks, in `trees.hom_layout`;
    for every quiver arrow the equation X_target A1 - A2 X_source = 0
    contributes one row per entry (i, j), built straight from the entries of
    the actions A1 and A2.  The solve stops at forward elimination, which
    gives the dimension; the `HomBasis` builds its basis from the echelon
    form only when the basis is first read.
    """
    if m1.prime != m2.prime:
        raise ValueError("modules use different primes")
    if m1.codomain != m2.codomain:
        raise ValueError("modules live over different bound quivers")
    p = m1.prime
    layout = hom_layout(m1, m2)
    offsets = {q: off for q, off, _, _ in layout}
    quiver = m1.codomain.quiver
    rows: list[dict] = []
    for a in quiver.arrows:
        src, tgt = quiver.source(a), quiver.target(a)
        off_s, off_t = offsets[src], offsets[tgt]
        n_i, n_j, n_l = m2.dim(tgt), m1.dim(src), m1.dim(tgt)
        # Row (i, j) gets X_tgt[i, l] * A1[l, j] and -A2[i, k] * X_src[k, j],
        # over the entries of A1 and A2; on a loop (src == tgt) the two
        # terms can meet in one cell, and add.
        eqs: list[dict] = [{} for _ in range(n_i * n_j)]
        for (l, j), x in m1.actions[a].items():
            for i in range(n_i):
                eqs[i * n_j + j][off_t + i * n_l + l] = x
        for (i, k), x in m2.actions[a].items():
            for j in range(n_j):
                row, cell = eqs[i * n_j + j], off_s + k * n_j + j
                row[cell] = row.get(cell, 0) - x
        rows += eqs
    echelon = _gauss_jordan([{c: x % p for c, x in row.items() if x % p} for row in rows], p)
    return HomBasis(m1, m2, echelon, sum(r * c for _, _, r, c in layout))


@dataclass
class IdempotentSearch:
    """Outcome of the exhaustive idempotent scan."""

    status: str  # "found" | "none" | "unavailable"
    idempotent: Optional[ModuleHom] = None
    reason: str = ""  # why the scan is unavailable

    @property
    def available(self) -> bool:
        return self.status != "unavailable"


# The scan's table of low coordinates has at most this many rows; when p is
# larger, it takes the values of the single low coordinate in chunks.
_SCAN_ROWS = 1 << 14


@lru_cache(maxsize=16)
def _low_rows(p: int, low: int, first: int, stop: int) -> np.ndarray:
    """Rows [a, 1] for the vectors a on coordinates 0..low-1 with last digit in first..stop-1.

    Ascending mixed-radix order, least significant digit first.  Callers
    ask for at most _SCAN_ROWS rows, so the cache stays small.
    """
    index = np.arange(first * p ** (low - 1), stop * p ** (low - 1))
    rows = np.ones((len(index), low + 1), dtype=np.int64)
    rows[:, :low] = index[:, None] // p ** np.arange(low) % p
    rows.flags.writeable = False
    return rows


def _low_table(gamma: np.ndarray, sym: np.ndarray, p: int, rows: np.ndarray) -> np.ndarray:
    """Residues Q(a) - a mod p of the vectors a listed by `_low_rows`.

    Q(a)_m = sum_kl a_k a_l gamma[k, l, m].  The table grows one digit at a
    time: digit j with value t adds t times a term linear in the digits so
    far (a 2-D product with sym, gamma plus its transpose) and t**2
    gamma[j, j].  No product overflows: a table with two or more digits
    has p**2 <= _SCAN_ROWS, and the first digit has no linear term.
    """
    low = rows.shape[1] - 1
    table = np.zeros((1, gamma.shape[2]), dtype=np.int64)
    for j in range(low):
        t = rows[: p ** (j + 1) : p**j, j, None, None]  # the values of digit j
        linear = rows[: len(table), :j] @ sym[:j, j]
        table = ((table + t * linear + (t * t % p) * gamma[j, j]) % p).reshape(len(table) * len(t), -1)
    table[:, :low] -= rows[:, :low]
    return table % p


def _block_weights(gamma: np.ndarray, sym: np.ndarray, p: int, low: int) -> Iterator[np.ndarray]:
    """[cross term; Q(b) - b] mod p for each value b of coordinates low.., ascending.

    Block b adds rows @ weights to the low table: its cross term with the
    low digits is sum_l b_l sym[l, :low], and weights[-1] meets the 1 that
    ends each row.  Block 0 adds nothing.  The other weights are one
    product of the features [1, b_l, b_l b_l'] with a fixed matrix.
    """
    dim = gamma.shape[0]
    high = dim - low
    yield np.zeros((low + 1, dim), dtype=np.int64)
    if not high:
        return
    to_weights = np.zeros((1 + high + high * high, low + 1, dim), dtype=np.int64)
    to_weights[1 : 1 + high, :low] = sym[low:, :low]
    to_weights[np.arange(1, 1 + high), low, np.arange(low, dim)] = -1
    to_weights[1 + high :, low] = gamma[low:, low:].reshape(high * high, dim)
    to_weights = to_weights.reshape(len(to_weights), -1)
    for b in range(1, p**high):
        digits = [b // p**k % p for k in range(high)]
        features = np.array([1, *digits, *(x * y % p for x in digits for y in digits)], dtype=np.int64)
        yield (features @ to_weights % p).reshape(low + 1, dim)


def _idempotent_indices(gamma: np.ndarray, p: int) -> Iterator[int]:
    """Indices sum_k c_k p**k of the vectors c with Q(c) = c, ascending.

    The low coordinates come from one table of at most _SCAN_ROWS rows;
    when p is larger, the single low coordinate is tabulated in chunks of
    _SCAN_ROWS values.  Each value b of the high coordinates reuses the
    table through `_block_weights`.  Two coordinates screen the rows; only
    the survivors are compared in full.
    """
    dim = gamma.shape[0]
    low = 1
    while low < dim and p ** (low + 1) <= _SCAN_ROWS:
        low += 1
    sym = gamma + gamma.transpose(1, 0, 2)
    step = max(1, _SCAN_ROWS // p ** (low - 1))  # values of the last low digit per table
    table = None
    for b, weights in enumerate(_block_weights(gamma, sym, p, low)):
        for first in range(0, p, step):
            if table is None or step < p:
                rows = _low_rows(p, low, first, min(first + step, p))
                table = _low_table(gamma, sym, p, rows)
                rows_t, table_t = np.ascontiguousarray(rows.T), np.ascontiguousarray(table[:, :2].T)  # for the screen
            hits = np.flatnonzero(~((weights[:, :2].T @ rows_t + table_t) % p).any(axis=0))
            if hits.size and dim > 2:
                hits = hits[~((rows[hits] @ weights + table[hits]) % p).any(axis=1)]
            yield from (b * p**low + first * p ** (low - 1) + hits).tolist()


def has_nontrivial_idempotent(end_basis: HomBasis, cap: int = 10**7) -> IdempotentSearch:
    """Scan every linear combination of the basis for an idempotent != 0, 1.

    The scan covers all p**dim candidates; if that exceeds the cap the
    result is an explicit "unavailable", with its reason, rather than a
    weaker answer.  Candidates are checked in ascending mixed-radix order
    of their coefficient vectors, the first basis element least
    significant, so the returned witness is deterministic.

    The scan runs on coefficient vectors, not matrices.  The products
    B_k B_l of the basis rows, one batched product per block size, give
    the structure constants gamma with B_k B_l = sum_m gamma[k, l, m] B_m,
    read at the free columns of the solve, and e = sum_k c_k B_k is
    idempotent iff sum_kl c_k c_l gamma[k, l] = c.  The zero vector and the
    coordinates of the identity are skipped, and the first hit is turned
    back into blocks.  A basis whose span is not closed under composition
    raises ValueError.
    """
    if end_basis.dimension == 0:
        return IdempotentSearch("none")
    p = end_basis.prime
    dim = end_basis.dimension
    if p**dim > cap:
        reason = f"endomorphism space too large for the scan ({p}**{dim} candidates > cap {cap})"
        return IdempotentSearch("unavailable", reason=reason)
    domain, codomain = end_basis.domain, end_basis.codomain
    if domain is not codomain and domain.basis != codomain.basis:
        raise ValueError("idempotent search needs an endomorphism basis")
    rows = end_basis.rows
    # The basis extended by the identity, so one batched product over the n x n
    # blocks, for each n, gives every B_k B_l and, as its last row, the identity.
    products = np.zeros(((dim + 1) ** 2, rows.shape[1]), dtype=np.int64)
    for n, group in groupby(sorted((n, off) for _, off, n, _ in hom_layout(domain, codomain) if n), key=lambda x: x[0]):
        cols = np.concatenate([np.arange(off, off + n * n) for _, off in group])
        s = rows[:, cols].reshape(dim, -1, n, n)
        s = np.concatenate([s, np.broadcast_to(np.eye(n, dtype=np.int64), (1, *s.shape[1:]))])
        products[:, cols] = (s[:, None] @ s[None]).reshape((dim + 1) ** 2, len(cols)) % p
    coords = products[:, end_basis.free]
    spanned = ((coords @ rows) % p == products).all(axis=1)
    if not spanned[:-1].all():
        raise ValueError("the span of the basis is not closed under composition")
    skip = sum(c * p**k for k, c in enumerate(coords[-1].tolist())) if spanned[-1] else 0
    gamma = coords.reshape(dim + 1, dim + 1, dim)[:dim, :dim]
    for index in _idempotent_indices(gamma, p):
        if index and index != skip:
            break
    else:
        return IdempotentSearch("none")
    entries = np.array([index // p**k % p for k in range(dim)]) @ rows
    return IdempotentSearch("found", ModuleHom.from_flat(domain, codomain, entries))


def verify_iso(h: ModuleHom) -> bool:
    """True iff every per-vertex block is square and invertible and h intertwines.

    A block is invertible iff the forward elimination of its entries has
    full rank: a rank needs no back-substitution.  `ModuleHom.intertwines`
    multiplies the same entries.  Nothing here calls numpy.
    """
    for qv, blk in h.blocks.items():
        n = h.domain.dim(qv)
        if h.codomain.dim(qv) != n or len(_gauss_jordan(_sparse_rows(blk, n), h.prime)) != n:
            return False
    return h.intertwines()


def verify_idempotent(e: ModuleHom) -> bool:
    """True iff e is an idempotent endomorphism other than 0 and 1.

    Its domain is its codomain, it intertwines, e @ e = e in every block,
    some block is nonzero and some block is not the identity.  As in
    `verify_iso`, only block entries are multiplied: no numpy call.
    """
    dom, p = e.domain, e.prime
    return (
        (dom.basis, dom.actions) == (e.codomain.basis, e.codomain.actions)
        and e.intertwines()
        and all(_sparse_product(b, b, p) == b for b in e.blocks.values())
        and any(e.blocks.values())
        and any(b != {(i, i): 1 for i in range(dom.dim(q))} for q, b in e.blocks.items())
    )


class GenerationExhausted(RuntimeError):
    """The rejection sampler ran out of attempts."""


def random_instance(
    seed: int,
    orientation: str = SINK,
    max_depth: int = 3,
    max_children: int = 3,
    max_vertices: int = 12,
    end_dim_cap: Optional[int] = 12,
    codomain: Optional[BoundQuiver] = None,
    budget: int = 400,
) -> TreeOverQ:
    """Deterministic pseudorandom valid labelled tree.

    Rejection-samples until the labelled tree validates, the bound quiver is
    locally bound, and the endomorphism space is small enough for the
    exhaustive idempotent scan to stay useful.  Attempt k of a seed draws
    from its own `random.Random(f"{seed}:{k}")`, so the same seed always
    yields the same instance.  Each attempt draws its tree shape before any
    orientation-dependent choice, so the two orientations explore mirrored
    shapes.  Drawn quivers have one or two vertices, and each composable
    pair of arrows is a relation with probability 1/2.
    """
    for attempt in range(budget):
        rng = random.Random(f"{seed}:{attempt}")
        bq = codomain
        if bq is None:
            q_vertices = [f"q{i}" for i in range(1, rng.randint(1, 2) + 1)]
            n_arrows = rng.randint(1, len(q_vertices) + 2)
            quiver = Quiver(
                q_vertices,
                [(f"g{j}", rng.choice(q_vertices), rng.choice(q_vertices)) for j in range(1, n_arrows + 1)],
            )
            arrows = quiver.arrows
            candidates = [(a, b) for a in arrows for b in arrows if quiver.target(a) == quiver.source(b)]
            bq = BoundQuiver(quiver, [pair for pair in candidates if rng.random() < 0.5])
            if not check_locally_bound(bq).ok:
                continue

        parent: dict[int, int] = {}
        depth, fanout = {1: 0}, {1: 0}
        for v in range(2, rng.randint(1, max_vertices) + 1):
            pool = sorted(u for u in depth if depth[u] < max_depth and fanout[u] < max_children)
            if not pool:
                break
            parent[v] = par = rng.choice(pool)
            depth[v], fanout[v] = depth[par] + 1, 0
            fanout[par] += 1

        quiver = bq.quiver
        vertex_label = {1: rng.choice(sorted(quiver.vertices))}
        arrow_label: dict[str, str] = {}
        tree_arrows = []
        sink = orientation == SINK  # a sink tree's arrows run from child to parent
        parent_end, child_end = (quiver.target, quiver.source) if sink else (quiver.source, quiver.target)
        for v, par in parent.items():  # in ascending v
            options = sorted(a for a in quiver.arrows if parent_end(a) == vertex_label[par])
            if not options:
                break
            name = f"a{v}"
            arrow_label[name] = rng.choice(options)
            vertex_label[v] = child_end(arrow_label[name])
            tree_arrows.append((name, v, par) if sink else (name, par, v))
        if len(vertex_label) < len(depth):
            continue  # a parent's label has no arrow at the parent's end
        t = TreeOverQ(RootedTree(sorted(depth), tree_arrows, orientation), bq, vertex_label, arrow_label)
        if not validate_tree_over_q(t).ok:
            continue
        reps = (push_down(t, p) for p in (3, 5))  # lazy: no p = 5 module once p = 3 is over the cap
        if end_dim_cap is None or all(hom_space(rep, rep).dimension <= end_dim_cap for rep in reps):
            return t
    raise GenerationExhausted(f"no valid instance for seed {seed} in {budget} attempts")


__all__ = [
    "GenerationExhausted",
    "HomBasis",
    "IdempotentSearch",
    "has_nontrivial_idempotent",
    "hom_space",
    "nullspace",
    "random_instance",
    "rref",
    "verify_idempotent",
    "verify_iso",
]
