"""Independent ground truth over GF(p).

Everything here is deliberately oblivious to the combinatorics implemented
elsewhere: Hom-spaces are computed by solving the intertwining equations,
isomorphisms are verified by rank, and idempotents are checked as given or
found by testing that the endomorphism ring is local.  All arithmetic is on
Python ints modulo an odd prime, in sparse rows {column: nonzero residue};
only the dense wrappers `rref` and `nullspace`, for the tests, import numpy.

Every elimination is the forward sparse elimination `_gauss_jordan`, which
alone gives the Hom dimension and the block ranks of `verify_iso`; a
reduced form, for the Hom basis and the dense wrappers, is one
`_back_substitute` of the echelon.  The unknowns are the flat coordinates
of a homomorphism, laid out by `trees.hom_layout`.

By Fitting's lemma a module is indecomposable exactly when its
endomorphism ring is local; `has_nontrivial_idempotent` decides that on an
End basis (Lux and Szőke, Computing decompositions of modules over
finite-dimensional algebras, Experiment. Math. 16, 2007).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

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


def _dense_rows(mat, p: int) -> list[dict]:
    """The rows of a 2-d matrix as sparse rows, from one `np.nonzero`."""
    import numpy as np
    m = np.asarray(mat, dtype=np.int64) % p
    if m.ndim != 2:
        raise ValueError("need a 2-d matrix")
    i, j = np.nonzero(m)
    return _sparse_rows(dict(zip(zip(i.tolist(), j.tolist()), m[i, j].tolist())), len(m))


def _kernel_rows(pivots: list[tuple[int, dict]], width: int, p: int) -> list[dict]:
    """A basis of the nullspace of an RREF as sparse rows, one per free column f, ascending: 1 at f and,
    at the pivot column of each pivot row, minus that row's entry at f."""
    pivot_columns = {c for c, _ in pivots}
    rows = {f: {f: 1} for f in range(width) if f not in pivot_columns}
    for c, row in pivots:
        for k, x in row.items():
            if k != c:
                rows[k][c] = -x % p
    return list(rows.values())


def rref(mat, p: int):
    """Reduced row-echelon form over GF(p): (reduced matrix, rank, pivot columns).

    Dense in and out: the nonzeros of the matrix go through `_gauss_jordan`
    and `_back_substitute` on Python ints, so the result is exact.
    """
    import numpy as np
    rows = _dense_rows(mat, p)
    pivots = _back_substitute(_gauss_jordan(rows, p), p)
    reduced = np.zeros((len(rows), np.shape(mat)[1]), dtype=np.int64)
    for r, (_, row) in enumerate(pivots):
        reduced[r, list(row)] = list(row.values())
    return reduced, len(pivots), tuple(c for c, _ in pivots)


def nullspace(mat, p: int):
    """Rows form a basis of the right nullspace over GF(p), one per free column, ascending."""
    import numpy as np
    cols = np.shape(mat)[1]
    rows = _kernel_rows(_back_substitute(_gauss_jordan(_dense_rows(mat, p), p), p), cols, p)
    basis = np.zeros((len(rows), cols), dtype=np.int64)
    for r, row in enumerate(rows):
        basis[r, list(row)] = list(row.values())
    return basis


class HomBasis:
    """The homomorphisms from `domain` to `codomain` over GF(prime), as their solve leaves them.

    `echelon` is the forward echelon form of the intertwining equations over
    the `width` unknowns of `trees.hom_layout`, so `dimension` is width minus
    its rank.  `basis`, built when first read by `_back_substitute` and
    `_kernel_rows`, is one map per free column, ascending, with 1 there and 0
    at the other free columns; reading only `dimension` builds no map.
    """

    def __init__(self, domain: ModuleRep, codomain: ModuleRep, echelon: list[tuple[int, dict]], width: int):
        self.domain = domain
        self.codomain = codomain
        self.prime = domain.prime
        self.dimension = width - len(echelon)
        self._echelon = echelon
        self._width = width

    @cached_property
    def basis(self) -> list[ModuleHom]:
        rows = _kernel_rows(_back_substitute(self._echelon, self.prime), self._width, self.prime)
        return [ModuleHom.from_flat(self.domain, self.codomain, row) for row in rows]


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
    """Outcome of the local-End test of `has_nontrivial_idempotent`."""

    status: str  # "found" | "none" | "unavailable"
    idempotent: Optional[ModuleHom] = None
    reason: str = ""  # why the test is unavailable

    @property
    def available(self) -> bool:
        return self.status != "unavailable"


def _insert(row: dict, echelon: dict, p: int) -> bool:
    """Reduce `row` in place by `echelon`, {pivot column: row with 1 there and no nonzero before it}; add what is left."""
    while row and (c := min(row)) in echelon:
        _eliminate(row, echelon[c], c, p)
    if row:
        inverse = pow(row[c], -1, p)
        echelon[c] = {k: x * inverse % p for k, x in row.items()}
    return bool(row)


def _apply(op: list[dict], v: dict, p: int, s: int = 0) -> dict:
    """(op - s)(v), for op a map on a module of dimension n, as n sparse columns {row: residue}, and v {index: residue}."""
    out = {j: -s * x for j, x in v.items()} if s else {}
    for j, x in v.items():
        for i, y in op[j].items():
            out[i] = out.get(i, 0) + x * y
    return {i: x % p for i, x in out.items() if x % p}


def _minimal_polynomial(op: list[dict], v: dict, p: int) -> list[int]:
    """The monic f of least degree with f(op) v = 0, coefficients constant first.

    Each of v, op v, op² v, … enters an echelon with a 1 in a column of its
    own, from n up; the first one that reduces to those columns holds f.
    """
    n, echelon = len(op), {}
    for k in range(n + 1):
        row = {**v, n + k: 1}
        _insert(row, echelon, p)
        if min(row) >= n:
            return [row.get(n + j, 0) for j in range(k + 1)]
        v = _apply(op, v, p)


def _eigenvalue(f: list[int], p: int) -> int:
    """λ with f = (t - λ)**k, if f has that form: for k = p**a * m, p ∤ m, -m λ is f's coefficient of t**(k - p**a)."""
    k = m = len(f) - 1
    while m % p == 0:
        m //= p
    return -f[k - k // m] * pow(m, -1, p) % p


def _poly_mod(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod f over GF(p); polynomials are coefficient lists, constant first, with no trailing zero."""
    a, d, inverse = [x % p for x in a], len(f) - 1, pow(f[-1], -1, p)
    for i in range(len(a) - 1, d - 1, -1):
        x = a[i] * inverse
        for j in range(d):
            a[i - d + j] = (a[i - d + j] - x * f[j]) % p
    a = a[:d]
    while a and not a[-1]:
        a.pop()
    return a


def _poly_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a**e mod f over GF(p), f of degree at least 1: square, then multiply by a at each 1 bit."""
    out = [1]
    for bit in bin(e)[2:]:
        for b in (out, a)[: 1 + int(bit)]:
            product = [0] * (len(out) + len(b))
            for i, x in enumerate(out):
                for j, y in enumerate(b):
                    product[i + j] += x * y
            out = _poly_mod(product, f, p)
    return out


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """A greatest common divisor over GF(p), by Euclid's algorithm."""
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _root(f: list[int], p: int) -> Optional[int]:
    """A root in GF(p) of the monic polynomial f, or None, with no loop over GF(p).

    g = gcd(f, t**p - t) is the product of t - r over the distinct roots r
    of f; while it has two or more, it is cut to a proper factor
    gcd(g, (t + a)**((p - 1) / 2) - 1), for a drawn from a seeded generator
    (Cantor and Zassenhaus, Math. Comp. 36, 1981).
    """
    power = _poly_powmod([0, 1], p, f, p) + [0, 0]
    power[1] -= 1
    g, draw = _poly_gcd(f, _poly_mod(power, f, p), p), random.Random(p)
    while len(g) > 2:
        h = _poly_powmod([draw.randrange(p), 1], (p - 1) // 2, g, p) + [0]
        h[0] -= 1
        if 1 < len(h := _poly_gcd(g, _poly_mod(h, g, p), p)) < len(g):
            g = h
    return -g[0] * pow(g[1], -1, p) % p if len(g) == 2 else None


def _reaches_zero(ops: list[list[dict]], shifts: list[int], n: int, p: int) -> bool:
    """Whether M ⊇ JM ⊇ J(JM) ⊇ … reaches 0, J the span of the maps op - s; a space whose image has its dimension ends it."""
    space = [{i: 1} for i in range(n)]
    while space:
        image: dict = {}
        for op, s in zip(ops, shifts):
            for v in space:
                if _insert(_apply(op, v, p, s), image, p) and len(image) == len(space):
                    return False
        space = list(image.values())
    return True


def _fitting_projection(op: list[dict], r: int, p: int) -> Optional[list[dict]]:
    """The columns of the projection onto im c**s along ker c**s, c = op - r; None if that image is 0 or M.

    s is where the images of the powers of c stop shrinking, so M is
    im c**s ⊕ ker c**s (Fitting).  The reduced form of the rows [u_k | e_k],
    u_k a basis of the image and then of the kernel, holds [e_j | x] at
    pivot j, where e_j = Σ x_k u_k.
    """
    n, rank = len(op), -1
    power, image = [{j: 1} for j in range(n)], {j: {j: 1} for j in range(n)}  # c**0 and its image
    while len(image) != rank:  # then power is c**(s + 1), with the image of c**s
        rank, power, image = len(image), [_apply(op, v, p, r) for v in power], {}
        for v in power:
            _insert(dict(v), image, p)
    if rank in (0, n):
        return None
    rows = _sparse_rows({(i, j): x for j, v in enumerate(power) for i, x in v.items()}, n)
    basis = list(image.values()) + _kernel_rows(_back_substitute(_gauss_jordan(rows, p), p), n, p)
    reduced = _back_substitute(_gauss_jordan([{**u, n + k: 1} for k, u in enumerate(basis)], p), p)
    return [_apply(basis, {k - n: x for k, x in row.items() if n <= k < n + rank}, p) for _, row in reduced]


# (End dim) * (dim M)**2 bounds the maps the local-End test applies to vectors:
# its chain has at most dim M steps of at most dim M vectors each.
LOCAL_TEST_BOUND = 2 * 10**6


def has_nontrivial_idempotent(end_basis: HomBasis) -> IdempotentSearch:
    """Whether the span of an End basis holds an idempotent other than 0 and 1: whether End(M) is local.

    "none": with λ_b read off the minimal polynomial of each basis map b at
    e_0, the chain M ⊇ JM ⊇ J(JM) ⊇ …, J the span of the b - λ_b, reaches 0,
    so each element of the span is a scalar plus a nilpotent.  "found": the
    chain stalls, and at a root r of its minimal polynomial at some e_i a
    basis map b has b - r not nilpotent; the projection onto im (b - r)**n
    along ker (b - r)**n (Fitting's lemma) has passed `verify_idempotent`.
    "unavailable", with its reason, otherwise, and when (End dim) *
    (dim M)**2 is over LOCAL_TEST_BOUND, checked before the basis is read.
    On an End basis from `hom_space` "none" and "found" are exact.
    """
    dim, p, domain, codomain = end_basis.dimension, end_basis.prime, end_basis.domain, end_basis.codomain
    if domain is not codomain and domain.basis != codomain.basis:
        raise ValueError("idempotent search needs an endomorphism basis")
    where = [(q, i) for q, vs in domain.basis.items() for i in range(len(vs))]  # M's basis, quiver vertex by quiver vertex
    n = len(where)
    if dim * n * n > LOCAL_TEST_BOUND:
        reason = f"local-End test over its bound (End dim {dim} * (dim M {n})**2 = {dim * n * n} > {LOCAL_TEST_BOUND})"
        return IdempotentSearch("unavailable", reason=reason)
    offset = {q: k - i for k, (q, i) in enumerate(where)}
    ops = [[{} for _ in range(n)] for _ in range(dim)]
    for op, b in zip(ops, end_basis.basis):
        for q, block in b.blocks.items():
            for (i, j), x in block.items():
                op[offset[q] + j][offset[q] + i] = x
    if _reaches_zero(ops, [_eigenvalue(_minimal_polynomial(op, {0: 1}, p), p) for op in ops], n, p):
        return IdempotentSearch("none")
    for op in ops:
        r = next((r for i in range(n) if (r := _root(_minimal_polynomial(op, {i: 1}, p), p)) is not None), None)
        if r is not None and (projection := _fitting_projection(op, r, p)) is not None:
            blocks: dict = {q: {} for q in domain.basis}
            for j, column in enumerate(projection):
                blocks[where[j][0]].update({(where[i][1], where[j][1]): x for i, x in column.items()})
            if verify_idempotent(e := ModuleHom(domain, codomain, blocks)):
                return IdempotentSearch("found", e)
    reason = f"End(M) is not GF({p}) plus a nilpotent ideal, and no eigenvalue in GF({p}) splits M"
    return IdempotentSearch("unavailable", reason=reason)


def verify_iso(h: ModuleHom) -> bool:
    """True iff every per-vertex block is square and invertible and h intertwines.

    A block is invertible iff the forward elimination of its entries has
    full rank: a rank needs no back-substitution.  `ModuleHom.intertwines`
    multiplies the same entries.
    """
    for qv, blk in h.blocks.items():
        n = h.domain.dim(qv)
        if h.codomain.dim(qv) != n or len(_gauss_jordan(_sparse_rows(blk, n), h.prime)) != n:
            return False
    return h.intertwines()


def verify_idempotent(e: ModuleHom) -> bool:
    """True iff e is an idempotent endomorphism other than 0 and 1.

    Its domain is its codomain, it intertwines, e @ e = e in every block,
    some block is nonzero and some block is not the identity.
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

    Rejection-samples until the labelled tree validates (once per attempt),
    the bound quiver is locally bound, and the endomorphism space has
    dimension at most `end_dim_cap` at p = 3 and 5, small enough for the
    tests' exhaustive reference scan.  Attempt k of a seed draws
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
        try:
            rep = push_down(t, 3)  # the attempt's one validation of its tree
        except ValueError:
            continue
        reps = (rep, ModuleRep(5, bq, rep.basis, rep.actions))  # the same entries over GF(5)
        if end_dim_cap is None or all(hom_space(m, m).dimension <= end_dim_cap for m in reps):
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
