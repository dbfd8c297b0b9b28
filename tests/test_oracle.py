"""Exact GF(p) linear algebra, idempotent scans, and the instance generator."""

import hashlib
import sys

import numpy as np
import pytest
from dense import actions, blocks, hom, identity_map, module
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import flat

from rtmtools import (
    SINK,
    SOURCE,
    BoundQuiver,
    HomBasis,
    ModuleHom,
    ModuleRep,
    Quiver,
    decompose_fully,
    GenerationExhausted,
    RootedTree,
    TreeOverQ,
    find_nonidentity_idempotent,
    has_nontrivial_idempotent,
    hom_space,
    nullspace,
    push_down,
    random_instance,
    rref,
    split,
    verify_iso,
)
from rtmtools import oracle
from rtmtools.cli import main
from rtmtools.textio import parse_document
from rtmtools.trees import hom_layout

# The largest prime below the 2**24 bound pins the int64 no-overflow claim.
PRIMES = (3, 5, 16777213)


def test_rref_examples():
    _, rank, _ = rref(np.eye(3, dtype=int), 3)
    assert rank == 3
    reduced, rank, pivots = rref(np.array([[1, 2], [2, 1]]), 3)
    assert rank == 1 and pivots == (0,)  # second row is twice the first mod 3
    np.testing.assert_array_equal(reduced, [[1, 2], [0, 0]])
    assert rref(np.zeros((2, 4), dtype=int), 5)[1] == 0


def test_rref_is_deterministic_and_reduced():
    rng = np.random.default_rng(11)
    for p in (3, 5):
        mat = rng.integers(0, p, size=(6, 9))
        reduced, rank, pivots = rref(mat, p)
        again, _, _ = rref(mat, p)
        np.testing.assert_array_equal(reduced, again)
        for row, c in enumerate(pivots):
            assert reduced[row, c] == 1
            assert np.count_nonzero(reduced[:, c]) == 1


def test_nullspace_solves_the_system():
    rng = np.random.default_rng(23)
    for p in (3, 5):
        mat = rng.integers(0, p, size=(5, 8))
        basis = nullspace(mat, p)
        _, rank, _ = rref(mat, p)
        assert basis.shape[0] == 8 - rank
        assert not ((mat @ basis.T) % p).any()
        if basis.shape[0]:
            assert rref(basis, p)[1] == basis.shape[0]  # independent rows


def test_end_of_sink_example_has_dimension_four(sink_tree):
    rep = push_down(sink_tree, 3)
    basis = hom_space(rep, rep)
    assert basis.dimension == 4
    for h in basis.basis:
        assert h.intertwines()


def test_hom_space_contains_identity(sink_tree):
    rep = push_down(sink_tree, 3)
    basis = hom_space(rep, rep)
    assert basis.dimension >= 1
    stacked = np.stack([flat(h) for h in basis.basis])
    _, rank, _ = rref(stacked, 3)
    with_id = np.vstack([stacked, flat(identity_map(rep))])
    assert rref(with_id, 3)[1] == rank  # identity already in the span


def test_hom_between_different_simples_is_zero(loop_tail_quiver):
    t1 = TreeOverQ(RootedTree([1], [], SINK), loop_tail_quiver, {1: "1"}, {})
    t2 = TreeOverQ(RootedTree([1], [], SINK), loop_tail_quiver, {1: "2"}, {})
    assert hom_space(push_down(t1, 3), push_down(t2, 3)).dimension == 0


def test_end_is_invariant_under_splitting(sink_tree):
    rep = push_down(sink_tree, 3)
    endo = find_nonidentity_idempotent(sink_tree)
    dec = split(sink_tree, endo, 3)
    assert hom_space(rep, dec.witness.domain).dimension == hom_space(rep, rep).dimension == 4


def test_idempotent_scan_on_sink_example(sink_tree):
    rep = push_down(sink_tree, 3)
    search = has_nontrivial_idempotent(hom_space(rep, rep))
    assert search.status == "found"
    e = search.idempotent
    assert all(np.array_equal(b @ b % 3, b) for b in blocks(e).values())
    assert e.intertwines() and _dense_intertwines(e)
    assert any(e.blocks.values()) and e.blocks != identity_map(rep).blocks


def test_idempotent_scan_on_simple_module(loop_tail_quiver):
    t = TreeOverQ(RootedTree([1], [], SINK), loop_tail_quiver, {1: "2"}, {})
    rep = push_down(t, 3)
    assert has_nontrivial_idempotent(hom_space(rep, rep)).status == "none"


def test_idempotent_scan_respects_cap(sink_tree):
    rep = push_down(sink_tree, 3)
    basis = hom_space(rep, rep)
    search = has_nontrivial_idempotent(basis, cap=10)  # 3^4 = 81 > 10
    assert search.status == "unavailable"
    assert not search.available
    assert search.reason == "endomorphism space too large for the scan (3**4 candidates > cap 10)"


@pytest.mark.parametrize("p", (3, 5, 7))
def test_idempotent_scan_cap_boundary(sink_tree, p):
    basis = hom_space(push_down(sink_tree, p), push_down(sink_tree, p))
    total = p**basis.dimension
    assert has_nontrivial_idempotent(basis, cap=total).status == "found"
    search = has_nontrivial_idempotent(basis, cap=total - 1)
    assert search.status == "unavailable"
    assert search.reason.endswith(f"({p}**{basis.dimension} candidates > cap {total - 1})")


def test_verify_iso(sink_tree):
    rep = push_down(sink_tree, 3)
    assert verify_iso(identity_map(rep))
    assert not verify_iso(ModuleHom(rep, rep, {}))
    simple = push_down(TreeOverQ(RootedTree([1], [], SINK), sink_tree.codomain, {1: "2"}, {}), 3)
    # blocks that are not square: 1x3 and 0x2 one way, 3x1 and 2x0 the other, with a nonzero in row 2 of 3
    assert not verify_iso(ModuleHom(rep, simple, {"2": {(0, 0): 1}}))
    assert not verify_iso(ModuleHom(simple, rep, {"2": {(2, 0): 1}}))
    endo = find_nonidentity_idempotent(sink_tree)
    assert verify_iso(split(sink_tree, endo, 3).witness)


def _dense_intertwines(h) -> bool:
    q, x, a1, a2 = h.domain.codomain.quiver, blocks(h), actions(h.domain), actions(h.codomain)
    return all(np.array_equal(x[q.target(a)] @ a1[a] % h.prime, a2[a] @ x[q.source(a)] % h.prime) for a in q.arrows)


def _dense_is_iso(h) -> bool:
    """`verify_iso` by dense products and the Python-int reference rank."""
    square = all(blk.shape[0] == blk.shape[1] for blk in blocks(h).values())
    return square and all(_reference_rref(blk, h.prime)[1] == len(blk) for blk in blocks(h).values()) and _dense_intertwines(h)


def _with_block(h, q, block):
    return hom(h.domain, h.codomain, {**blocks(h), q: block})


def test_verify_iso_rejects_a_witness_with_one_entry_changed(random_splits):
    for _, dec in random_splits:
        w = dec.witness
        assert verify_iso(w) and _dense_is_iso(w)
        # the first entry, in block and row-major order, whose change by +1 the reference rejects
        dense_w = blocks(w)
        changed = (
            _with_block(w, q, dense_w[q] + np.eye(1, dense_w[q].size, k, dtype=np.int64).reshape(dense_w[q].shape))
            for q in sorted(dense_w)
            for k in range(dense_w[q].size)
        )
        bad = next(h for h in changed if not _dense_is_iso(h))
        assert not verify_iso(bad)


def test_verify_iso_rejects_a_singular_block_that_intertwines(random_splits):
    for t, dec in random_splits:
        # the projection of the direct sum onto its first summand intertwines and is idempotent;
        # the witness maps from the direct sum for a sink tree and to it for a source tree
        first = set(dec.summands[0].tree.vertices)
        summed = dec.witness.domain if t.orientation == SINK else dec.witness.codomain
        projection = hom(summed, summed, {q: np.diag([int(n in first) for n in vs]).reshape(len(vs), len(vs)) for q, vs in summed.basis.items()})
        inner, outer = (projection, dec.witness) if t.orientation == SINK else (dec.witness, projection)
        h = hom(inner.domain, outer.codomain, {q: blocks(outer)[q] @ blocks(inner)[q] for q in summed.basis})
        assert _dense_intertwines(h) and not _dense_is_iso(h)
        assert not verify_iso(h)


def test_verify_iso_rejects_an_invertible_map_that_does_not_intertwine(random_splits):
    for _, dec in random_splits:
        w = dec.witness
        # scale a block by 2, or shear it by 1 + E_ij: invertible, so only intertwining can fail
        changes, dense_w = [], blocks(w)
        for q in sorted(dense_w):
            n = len(dense_w[q])
            changes.append(_with_block(w, q, 2 * dense_w[q]))
            for i, j in ((i, j) for i in range(n) for j in range(n) if i != j):
                shear = np.eye(n, dtype=np.int64)
                shear[i, j] = 1
                changes.append(_with_block(w, q, dense_w[q] @ shear))
        h = next(h for h in changes if not _dense_intertwines(h))
        assert all(_reference_rref(blk, h.prime)[1] == len(blk) for blk in blocks(h).values())
        assert not verify_iso(h)


def test_random_instance_is_deterministic():
    a = random_instance(0, SINK)
    b = random_instance(0, SINK)
    assert a.tree.vertices == b.tree.vertices
    assert a.tree.arrow_source == b.tree.arrow_source
    assert a.vertex_label == b.vertex_label
    assert a.arrow_label == b.arrow_label
    assert a.codomain == b.codomain


def _draw_text(t) -> str:
    """Every choice the sampler makes: the bound quiver, the tree and its labels."""
    q = t.codomain.quiver
    parts = list(sorted(q.vertices))
    parts += [f"{a}:{q.source(a)}>{q.target(a)}" for a in sorted(q.arrows)]
    parts += ["rel " + " ".join(r) for r in sorted(t.codomain.relations)]
    parts += [t.orientation] + [f"{n}:{t.vertex_label[n]}" for n in t.tree.vertices]
    parts += [
        f"{a}:{t.tree.arrow_source[a]}>{t.tree.arrow_target[a]}:{t.arrow_label[a]}"
        for a in sorted(t.tree.arrows)
    ]
    return " ".join(parts)


def test_random_instance_draws_are_pinned():
    """2,400 draws and 400 one-attempt outcomes hash to a recorded digest.

    Seeds 0-199 in both orientations and three shapes, each draw with a
    `codomain=` partner; then `budget=1` in the default shape, which either
    accepts attempt 0 or raises `GenerationExhausted`.  Census documents,
    CLI goldens and most property tests are built from these draws, so any
    change to the sampler that moves one of them fails here first.
    """
    shapes = (
        {},
        dict(max_vertices=16, max_depth=5, end_dim_cap=None),
        dict(max_depth=2, max_children=4, max_vertices=16, end_dim_cap=None),
    )
    digest = hashlib.sha256()
    for shape in shapes:
        for orientation in (SINK, SOURCE):
            for seed in range(200):
                t = random_instance(seed, orientation, **shape)
                u = random_instance(seed + 1000, orientation, codomain=t.codomain, **shape)
                digest.update(f"{_draw_text(t)}\n{_draw_text(u)}\n".encode())
    for orientation in (SINK, SOURCE):
        for seed in range(200):
            try:
                line = _draw_text(random_instance(seed, orientation, budget=1))
            except GenerationExhausted as exc:
                line = str(exc)
            digest.update(f"{line}\n".encode())
    assert digest.hexdigest() == "cb3f7ad716a27b5c9a8763cf62935bf9ed841ebdc138953ea017a0db2d8ab46e"


def test_orientations_share_tree_shapes():
    """Attempt 0 draws the tree shape before any orientation-dependent choice."""
    checked = 0
    for seed in range(240):
        try:
            sink = random_instance(seed, SINK, max_vertices=8, end_dim_cap=None, budget=1)
            source = random_instance(seed, SOURCE, max_vertices=8, end_dim_cap=None, budget=1)
        except GenerationExhausted:
            continue
        assert sink.tree.parent == source.tree.parent
        checked += 1
    assert checked >= 10


def test_single_loop_codomain_forces_flat_trees():
    from rtmtools import BoundQuiver, Quiver

    q = Quiver(["1"], [("alpha", "1", "1")])
    bq = BoundQuiver(q, [("alpha", "alpha")])
    for seed in range(15):
        t = random_instance(seed, SINK, codomain=bq, end_dim_cap=None)
        assert max(t.tree.height.values()) <= 1  # any longer path dies in the ideal


def test_generation_budget_exhaustion():
    with pytest.raises(GenerationExhausted):
        random_instance(0, SINK, budget=0)


def test_field_stability_of_verdicts():
    from rtmtools import is_indecomposable

    for seed in range(20):
        for orientation in (SINK, SOURCE):
            t = random_instance(seed, orientation, max_vertices=7, end_dim_cap=8)
            verdicts = []
            for p in (3, 5):
                rep = push_down(t, p)
                search = has_nontrivial_idempotent(hom_space(rep, rep))
                assert search.available
                verdicts.append(search.status == "none")
            assert verdicts[0] == verdicts[1] == is_indecomposable(t)


@st.composite
def matrices_mod_p(draw):
    """(matrix, p): up to 12x12, empty shapes included, often sparse."""
    p = draw(st.sampled_from(PRIMES))
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    entry = st.one_of(st.just(0), st.integers(-(p - 1), p - 1))
    flat = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=np.int64).reshape(rows, cols), p


def _reference_rref(mat: np.ndarray, p: int):
    """Gauss-Jordan on Python ints, one whole row at a time."""
    m = [[int(x) % p for x in row] for row in mat.tolist()]
    pivots = []
    for c in range(mat.shape[1]):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, len(pivots), tuple(pivots)


@settings(max_examples=120, deadline=None)
@given(matrices_mod_p())
def test_rref_matches_a_python_int_reference(case):
    mat, p = case
    reduced, rank, pivots = rref(mat, p)
    want, want_rank, want_pivots = _reference_rref(mat, p)
    assert reduced.shape == mat.shape
    assert reduced.tolist() == want
    assert (rank, pivots) == (want_rank, want_pivots)


@settings(max_examples=120, deadline=None)
@given(matrices_mod_p(), st.randoms(use_true_random=False))
def test_rref_does_not_depend_on_the_row_order(case, rng):
    # The pivot is the sparsest eligible row, so a permutation changes which row is chosen.
    mat, p = case
    order = list(range(mat.shape[0]))
    rng.shuffle(order)
    reduced, rank, pivots = rref(mat, p)
    again, again_rank, again_pivots = rref(mat[order], p)
    assert again.tolist() == reduced.tolist()
    assert (again_rank, again_pivots) == (rank, pivots)


@settings(max_examples=120, deadline=None)
@given(matrices_mod_p())
def test_nullspace_rows_annihilate_the_matrix(case):
    mat, p = case
    basis = nullspace(mat, p)
    rank = _reference_rref(mat, p)[1]
    assert basis.shape[0] == mat.shape[1] - rank
    rows = mat.tolist()
    for vec in basis.tolist():
        assert len(vec) == mat.shape[1]
        assert all(sum(a * b for a, b in zip(row, vec)) % p == 0 for row in rows)
    assert _reference_rref(basis, p)[1] == basis.shape[0]  # independent rows


def _kronecker_hom_kernel(m1, m2) -> np.ndarray:
    """The Hom system built from Kronecker products with identities, solved."""
    p = m1.prime
    layout = hom_layout(m1, m2)
    offsets = {q: (off, rows, cols) for q, off, rows, cols in layout}
    total = sum(rows * cols for _, _, rows, cols in layout)
    quiver = m1.codomain.quiver
    blocks = []
    for a in quiver.arrows:
        src, tgt = quiver.source(a), quiver.target(a)
        block = np.zeros((m2.dim(tgt) * m1.dim(src), total), dtype=np.int64)
        off_t, rows_t, cols_t = offsets[tgt]
        if rows_t * cols_t:
            block[:, off_t : off_t + rows_t * cols_t] = np.kron(
                np.eye(rows_t, dtype=np.int64), actions(m1)[a].T
            )
        off_s, rows_s, cols_s = offsets[src]
        if rows_s * cols_s:
            block[:, off_s : off_s + rows_s * cols_s] -= np.kron(
                actions(m2)[a], np.eye(cols_s, dtype=np.int64)
            )
        blocks.append(block % p)
    system = np.vstack(blocks) if blocks else np.zeros((0, total), dtype=np.int64)
    return nullspace(system, p) if total else np.zeros((0, 0), dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 199),
    st.sampled_from((SINK, SOURCE)),
    st.sampled_from((3, 5)),
    st.sampled_from(("self", "to-partner", "from-partner")),
)
def test_hom_space_matches_the_kronecker_system(seed, orientation, p, pairing):
    t = random_instance(seed, orientation)
    u = random_instance(seed + 1000, orientation, codomain=t.codomain)
    a, b = {"self": (t, t), "to-partner": (t, u), "from-partner": (u, t)}[pairing]
    m1, m2 = push_down(a, p), push_down(b, p)
    got = hom_space(m1, m2)
    want = _kronecker_hom_kernel(m1, m2)
    assert got.dimension == want.shape[0]
    for h, row in zip(got.basis, want):
        np.testing.assert_array_equal(flat(h), row)


# Two loops and an arrow between them, no relations: arbitrary matrices give
# modules, including loops with a nonzero diagonal, where the two terms of an
# intertwining equation meet in one cell.  Tree modules never do that.
LOOPS = BoundQuiver(Quiver(["1", "2"], [("alpha", "1", "1"), ("beta", "1", "2"), ("gamma", "2", "2")]), [])


@st.composite
def loop_modules(draw):
    p = draw(st.sampled_from((3, 5)))

    def draw_module():
        dims = {q: draw(st.integers(0, 3)) for q in ("1", "2")}
        mats = {}
        for a, s, t in (("alpha", "1", "1"), ("beta", "1", "2"), ("gamma", "2", "2")):
            flat = draw(st.lists(st.integers(0, p - 1), min_size=dims[t] * dims[s], max_size=dims[t] * dims[s]))
            mats[a] = np.array(flat, dtype=np.int64).reshape(dims[t], dims[s])
        return module(p, LOOPS, {q: tuple(range(1, d + 1)) for q, d in dims.items()}, mats)

    return draw_module(), draw_module()


@settings(max_examples=120, deadline=None)
@given(loop_modules())
def test_hom_space_matches_the_kronecker_system_on_loops(pair):
    m1, m2 = pair
    got = hom_space(m1, m2)
    want = _kronecker_hom_kernel(m1, m2)
    assert got.dimension == want.shape[0]
    for h, row in zip(got.basis, want):
        np.testing.assert_array_equal(flat(h), row)


def _hom_rows_by_a_fresh_solve(m1, m2) -> np.ndarray:
    """The Hom basis as rows, by a fresh elimination of the very system `hom_space` eliminates, then `_null_rows`.

    The elimination runs forward, then `_back_substitute`; the `HomBasis` substitutes back in the echelon it keeps.
    """
    systems = []
    forward = oracle._gauss_jordan

    def recording(rows, p):
        systems.append([dict(row) for row in rows])
        return forward(rows, p)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_gauss_jordan", recording)
        hom_space(m1, m2)
    (system,) = systems
    width = sum(r * c for _, _, r, c in hom_layout(m1, m2))
    return oracle._null_rows(oracle._back_substitute(forward(system, m1.prime), m1.prime), width, m1.prime)


@pytest.mark.parametrize("orientation", (SINK, SOURCE))
def test_hom_basis_from_the_forward_echelon_is_the_interleaved_basis(orientation):
    checked = 0
    for seed in range(200):
        t = random_instance(seed, orientation)
        u = random_instance(seed + 1000, orientation, codomain=t.codomain)
        for a, b in ((t, t), (t, u), (u, t)):
            for p in (3, 5):
                m1, m2 = push_down(a, p), push_down(b, p)
                got = hom_space(m1, m2)
                want = _hom_rows_by_a_fresh_solve(m1, m2)
                assert got.rows.shape == want.shape and got.dimension == len(want)
                np.testing.assert_array_equal(got.rows, want)
                np.testing.assert_array_equal(got.rows[:, got.free], np.eye(got.dimension, dtype=np.int64))
                assert len(got.basis) == len(want)
                for h, row in zip(got.basis, want):
                    assert h.blocks == ModuleHom.from_flat(m1, m2, row).blocks
                checked += got.dimension
    assert checked > 1000


@st.composite
def random_instance_modules(draw):
    seed, orientation = draw(st.integers(0, 199)), draw(st.sampled_from((SINK, SOURCE)))
    p, pairing = draw(st.sampled_from((3, 5))), draw(st.sampled_from(("self", "to-partner", "from-partner")))
    t = random_instance(seed, orientation)
    u = random_instance(seed + 1000, orientation, codomain=t.codomain)
    a, b = {"self": (t, t), "to-partner": (t, u), "from-partner": (u, t)}[pairing]
    return push_down(a, p), push_down(b, p)


def _assert_dense(h, want: dict):
    """The blocks of h, as dense matrices, are `want` mod p."""
    got = blocks(h)
    assert got.keys() == want.keys()
    for q, b in want.items():
        np.testing.assert_array_equal(got[q], b % h.prime)


@settings(max_examples=120, deadline=None)
@given(st.one_of(loop_modules(), random_instance_modules()))
def test_from_flat_inverts_flatten_on_hom_bases(pair):
    m1, m2 = pair
    layout = hom_layout(m1, m2)
    basis = hom_space(m1, m2).basis
    for h in basis:
        row, dense_h = flat(h), blocks(h)
        assert row.shape == (sum(rows * cols for _, _, rows, cols in layout),)
        for q, off, rows, cols in layout:  # zero-size blocks included
            assert dense_h[q].shape == (rows, cols)
            np.testing.assert_array_equal(row[off : off + rows * cols], dense_h[q].ravel())
        back = ModuleHom.from_flat(h.domain, h.codomain, row)
        assert back.blocks == h.blocks
        assert h.intertwines() and _dense_intertwines(h)


def _materialising_scan(end_basis: HomBasis):
    """The idempotent scan on candidate matrices: every combination, chunk by chunk."""
    if end_basis.dimension == 0:
        return "none", None
    sample = end_basis.basis[0]
    p, dim = sample.prime, end_basis.dimension
    qs = sorted(sample.blocks)
    stacked = {q: np.stack([blocks(h)[q] for h in end_basis.basis]) for q in qs}
    identity = {q: np.eye(sample.codomain.dim(q), dtype=np.int64) for q in qs}
    powers = np.array([p**k for k in range(dim)], dtype=np.int64)
    for lo in range(1, p**dim, 1 << 14):  # index 0 is the zero map
        idx = np.arange(lo, min(lo + (1 << 14), p**dim), dtype=np.int64)
        coeffs = (idx[:, None] // powers[None, :]) % p
        ok = np.ones(len(idx), dtype=bool)
        is_id = np.ones(len(idx), dtype=bool)
        per_q = {}
        for q in qs:
            cand = np.tensordot(coeffs, stacked[q], axes=([1], [0])) % p
            per_q[q] = cand
            ok &= ((cand @ cand) % p == cand).all(axis=(1, 2))
            is_id &= (cand == identity[q]).all(axis=(1, 2))
        hits = np.flatnonzero(ok & ~is_id)
        if hits.size:
            return "found", {q: per_q[q][hits[0]] for q in qs}
    return "none", None


def _star(k, orientation):
    ends = (lambda n: (n, 1)) if orientation == SINK else (lambda n: (1, n))
    return parse_document(
        "QUIVER\nvertex 1\narrow alpha 1 1\nRELATIONS\nrel alpha alpha\n"
        + f"TREE {orientation.upper()}\n"
        + "".join(f"node {n} 1\n" for n in range(1, k + 2))
        + "".join("arrow a{} {} {} alpha\n".format(n, *ends(n)) for n in range(2, k + 2))
    ).tree


def _uniserial_document(length, orientation):
    """A chain of `length` alpha-arrows over a loop with alpha**(length + 1) = 0."""
    ends = (lambda n: (n, n - 1)) if orientation == SINK else (lambda n: (n - 1, n))
    return (
        "QUIVER\nvertex 1\narrow alpha 1 1\nRELATIONS\nrel" + " alpha" * (length + 1) + "\n"
        + f"TREE {orientation.upper()}\n"
        + "".join(f"node {n} 1\n" for n in range(1, length + 2))
        + "".join("arrow a{} {} {} alpha\n".format(n, *ends(n)) for n in range(2, length + 2))
    )


def _twin_chain(n, orientation):
    """Two same-labelled chains of length n under one root, over A_(n+1)."""
    down = orientation == SINK
    lines = ["QUIVER"] + [f"vertex q{i}" for i in range(n + 1)]
    lines += [f"arrow b{i} q{i} q{i - 1}" if down else f"arrow b{i} q{i - 1} q{i}" for i in range(1, n + 1)]
    lines += ["RELATIONS", f"TREE {orientation.upper()}", "node 1 q0"]
    for first in (2, n + 2):
        for depth in range(1, n + 1):
            v, up = first + depth - 1, 1 if depth == 1 else first + depth - 2
            src, tgt = (v, up) if down else (up, v)
            lines += [f"node {v} q{depth}", f"arrow x{v} {src} {tgt} b{depth}"]
    return parse_document("\n".join(lines) + "\n").tree


@st.composite
def scan_cases(draw):
    """(tree, p): random instances, stars, twin chains and uniserial chains."""
    orientation = draw(st.sampled_from((SINK, SOURCE)))
    family = draw(st.sampled_from(("random", "star", "twin", "uniserial")))
    if family == "random":
        t = random_instance(draw(st.integers(0, 199)), orientation)
    elif family == "star":
        t = _star(draw(st.integers(0, 3)), orientation)
    elif family == "twin":
        t = _twin_chain(draw(st.integers(1, 7)), orientation)
    else:
        t = parse_document(_uniserial_document(draw(st.integers(1, 7)), orientation)).tree
    return t, draw(st.sampled_from((3, 5, 7)))


@settings(max_examples=150, deadline=None)
@given(scan_cases())
def test_idempotent_scan_matches_the_materialising_scan(case):
    t, p = case
    rep = push_down(t, p)
    basis = hom_space(rep, rep)
    assume(p**basis.dimension <= 10**5)  # the reference builds every candidate
    search = has_nontrivial_idempotent(basis)
    status, want = _materialising_scan(basis)
    assert search.status == status
    if want is not None:
        _assert_dense(search.idempotent, want)


def _loop_module(p, dim):
    """One vertex of dimension `dim` on the loop quiver, every arrow zero."""
    zero = {"alpha": np.zeros((dim, dim)), "beta": np.zeros((0, dim)), "gamma": np.zeros((0, 0))}
    return module(p, LOOPS, {"1": tuple(range(1, dim + 1))}, zero)


def _spanning_basis(rep, maps) -> HomBasis:
    """The `HomBasis` over End(rep) whose rows span `maps`: the solve of the equations that annihilate them."""
    rows = np.stack([flat(h) for h in maps])
    equations = nullspace(rows, rep.prime)
    echelon = oracle._gauss_jordan(oracle._dense_rows(equations, rep.prime), rep.prime)
    return HomBasis(rep, rep, echelon, rows.shape[1])


def test_idempotent_scan_rejects_a_span_not_closed_under_composition():
    rep = _loop_module(3, 2)
    swap = hom(rep, rep, {"1": np.array([[0, 1], [1, 0]])})  # its square is 1
    with pytest.raises(ValueError, match="not closed under composition"):
        has_nontrivial_idempotent(_spanning_basis(rep, [swap]))


@pytest.mark.parametrize("p", (3, 16411))  # above 2**14, the table is built in chunks
def test_idempotent_scan_without_the_identity_in_the_span(p):
    rep = _loop_module(p, 2)
    corner = hom(rep, rep, {"1": np.array([[1, 0], [0, 0]])})
    search = has_nontrivial_idempotent(_spanning_basis(rep, [corner]))
    assert search.status == "found" and search.idempotent.blocks == corner.blocks
    if p > 1 << 14:  # every chunk scanned: the span of the identity holds no other idempotent
        rep = _loop_module(p, 1)
        assert has_nontrivial_idempotent(hom_space(rep, rep)).status == "none"


@pytest.mark.parametrize("orientation", (SINK, SOURCE))
def test_indec_on_uniserial_chain_ten(tmp_path, capsys, orientation):
    # End dimension 11 at p = 3: all 177,147 combinations are scanned.
    path = tmp_path / "chain10.rtm"
    path.write_text(_uniserial_document(10, orientation), encoding="utf-8")
    assert main(["indec", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == "theorem: INDECOMPOSABLE\noracle (p=3): INDECOMPOSABLE\nverdict: AGREE\n"


@st.composite
def sparse_matrices(draw, primes=(3, 5, 7)):
    """(matrix, p), p in `primes`: up to 30x30, mostly zeros; a row is often a combination of two others."""
    p = draw(st.sampled_from(primes))
    rows, cols = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    mat = np.zeros((rows, cols), dtype=np.int64)
    if rows and cols:
        cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        for (i, j), x in draw(st.dictionaries(cell, st.integers(1, p - 1), max_size=2 * (rows + cols))).items():
            mat[i, j] = x
        if rows >= 3 and draw(st.booleans()):
            i, j, k = draw(st.permutations(range(rows)))[:3]
            mat[i] = (mat[j] + draw(st.integers(0, p - 1)) * mat[k]) % p
    return mat, p


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
@example((np.array([[1, 1, 0], [1, 1, 0], [0, 1, 1]]), 3))  # a repeated row
@example((np.array([[1, 2, 0, 0], [0, 1, 3, 0], [1, 3, 3, 0], [0, 0, 1, 4]]), 5))  # row 2 = row 0 + row 1
def test_forward_elimination_rank_is_the_rref_rank(case):
    mat, p = case
    echelon = oracle._gauss_jordan(oracle._dense_rows(mat, p), p)
    assert len(echelon) == rref(mat, p)[1] == _reference_rref(mat, p)[1]


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(PRIMES))
@example((np.array([[0, 2, 1, 0], [1, 1, 0, 2], [2, 2, 0, 1]]), 3))  # row 2 = 2 * row 1
def test_gauss_jordan_on_the_forward_echelon_is_the_rref(case):
    # `HomBasis` reduces the echelon rows of the Hom solve only when its basis is read.
    mat, p = case
    echelon = oracle._gauss_jordan(oracle._dense_rows(mat, p), p)
    assert all(min(row) == c and row[c] == 1 for c, row in echelon)
    want, rank, pivots = _reference_rref(mat, p)
    reduced = oracle._back_substitute(echelon, p)
    assert tuple(c for c, _ in reduced) == pivots
    assert [row for _, row in reduced] == [{k: x for k, x in enumerate(row) if x} for row in want[:rank]]


def _back_substitution_steps(m1, m2) -> tuple[int, int]:
    """`_eliminate` calls while the Hom basis is read, and the bound: sum(len(row) - 1) over the echelon."""
    basis = hom_space(m1, m2)
    bound = sum(len(row) - 1 for _, row in basis._echelon)
    calls = []
    eliminate = oracle._eliminate
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_eliminate", lambda *args: calls.append(args[2]) or eliminate(*args))
        basis.rows
    return len(calls), bound


@pytest.mark.parametrize("orientation", (SINK, SOURCE))
def test_back_substitution_takes_at_most_a_step_per_nonzero(orientation):
    # Back-substitution in ascending column order took 3,967 steps on twin chain 120, against this bound of 719.
    for n in (40, 60, 80, 100, 120):
        rep = push_down(_twin_chain(n, orientation), 3)
        steps, bound = _back_substitution_steps(rep, rep)
        assert steps <= bound
    for seed in range(50):
        t = random_instance(seed, orientation)
        u = random_instance(seed + 1000, orientation, codomain=t.codomain)
        for a, b in ((t, t), (t, u), (u, t)):
            steps, bound = _back_substitution_steps(push_down(a, 3), push_down(b, 3))
            assert steps <= bound


def test_verify_iso_eliminates_forward_only(monkeypatch):
    # Clearing each pivot column from the rows already used as well (back-substitution) costs about
    # n**2 / 2 elimination steps on an upper-bidiagonal block, the inverse of a star's composite witness.
    n = 2000
    rep = ModuleRep(3, BoundQuiver(Quiver(["1"], []), []), {"1": tuple(range(n))}, {})
    upper = np.eye(n, dtype=np.int64) + 2 * np.eye(n, k=1, dtype=np.int64)
    calls = []
    eliminate = oracle._eliminate
    monkeypatch.setattr(oracle, "_eliminate", lambda *args: calls.append(args[2]) or eliminate(*args))
    for block in (upper, upper.T):
        calls.clear()
        assert verify_iso(hom(rep, rep, {"1": block}))
        assert len(calls) <= n
    zero_column = upper.copy()
    zero_column[n // 2 - 1 : n // 2 + 1, n // 2] = 0
    repeated_row = upper.copy()
    repeated_row[n // 2] = upper[n // 2 - 1]  # a nonzero in every row and column, yet singular
    for singular in (zero_column, repeated_row):
        assert not verify_iso(hom(rep, rep, {"1": singular}))


def _numpy_calls(fn) -> list:
    """Names of the numpy functions and array methods called while fn runs."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and "numpy" in frame.f_code.co_filename.split("/"):
            calls.append(frame.f_code.co_name)
        elif event == "c_call":
            owner = getattr(arg, "__self__", None)
            if (getattr(arg, "__module__", None) or "").startswith("numpy") or isinstance(owner, (np.ndarray, np.generic)):
                calls.append(arg.__name__)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("orientation", (SINK, SOURCE))
def test_verify_iso_on_the_twin_chain_600_witness_calls_no_numpy(monkeypatch, orientation):
    # Reading each block's nonzeros with numpy took 1,801 calls on this witness, one per quiver vertex and arrow.
    witnesses = []
    verify = oracle.verify_iso
    monkeypatch.setattr(oracle, "verify_iso", lambda h: witnesses.append(h) or verify(h))
    assert len(decompose_fully(_twin_chain(600, orientation))) == 2
    [w] = witnesses
    assert len(w.blocks) == 601
    assert _numpy_calls(lambda: flat(w))  # the profile sees numpy
    results = []
    assert _numpy_calls(lambda: results.append(verify(w))) == []
    assert results == [True]
