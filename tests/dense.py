"""Dense numpy views of the sparse module format, for tests with dense references.

`ModuleRep` keeps each arrow action and `ModuleHom` each per-vertex block
as its nonzero entries {(row, column): residue}.  These helpers build both
from dense matrices and read them back as dense matrices, shaped by the
bases.
"""

import numpy as np

from rtmtools import ModuleHom, ModuleRep


def sparse(mat) -> dict:
    """The nonzero entries {(row, column): value} of a 2-d array, as Python ints."""
    mat = np.asarray(mat, dtype=np.int64)
    rows, cols = np.nonzero(mat)
    return dict(zip(zip(rows.tolist(), cols.tolist()), mat[rows, cols].tolist()))


def dense(entries: dict, shape: tuple[int, int]) -> np.ndarray:
    """The int64 matrix of the given shape holding `entries`, zero elsewhere."""
    mat = np.zeros(shape, dtype=np.int64)
    for (i, j), x in entries.items():
        mat[i, j] = x
    return mat


def actions(rep: ModuleRep) -> dict:
    """Each arrow's action as a dense matrix, rows by the basis at its target."""
    q = rep.codomain.quiver
    return {a: dense(e, (rep.dim(q.target(a)), rep.dim(q.source(a)))) for a, e in rep.actions.items()}


def blocks(h: ModuleHom) -> dict:
    """Each per-vertex block as a dense matrix, rows by the codomain's basis."""
    return {q: dense(e, (h.codomain.dim(q), h.domain.dim(q))) for q, e in h.blocks.items()}


def module(prime, codomain, basis, matrices: dict) -> ModuleRep:
    """The module whose arrows act by the dense `matrices`."""
    return ModuleRep(prime, codomain, basis, {a: sparse(m) for a, m in matrices.items()})


def hom(domain: ModuleRep, codomain: ModuleRep, matrices: dict) -> ModuleHom:
    """The map whose blocks are the dense `matrices`."""
    return ModuleHom(domain, codomain, {q: sparse(m) for q, m in matrices.items()})
