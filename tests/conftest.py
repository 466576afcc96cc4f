"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from resalg import expr, fock

# pools for seeded random expressions: spectral parameters are well separated
# so pair rewriting never divides by a tiny gap, vectors exercise the zero
# vector (R2) and non-unit scalings (R3)
Z_POOL = (1.0, 2.0, -1.0, 0.5 + 1.0j, -2.0 + 0.5j)
F_POOL = (
    (1.0, 0.0),
    (0.0, 1.0),
    (2.0, 0.0),
    (1.0, 1.0),
    (0.0, -3.0),
    (0.0, 0.0),
)


def random_expression(
    rng: np.random.Generator, n_terms_max=3, word_max=4, f_pool=F_POOL
) -> expr.Expr:
    terms = []
    for _ in range(int(rng.integers(1, n_terms_max + 1))):
        length = int(rng.integers(0, word_max + 1))
        word = tuple(
            expr.Generator(
                Z_POOL[int(rng.integers(len(Z_POOL)))],
                f_pool[int(rng.integers(len(f_pool)))],
            )
            for _ in range(length)
        )
        coeff = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        terms.append((coeff, word))
    return expr.Expr(tuple(terms))


def csc_from_stencil(rep: fock.FockRep, data: np.ndarray):
    """scipy's CSC matrix of the values `data` on the representation's row
    stencil, converted by scipy from the (row, column, value) triplets: the
    reference for the package's own stencil product.  The conversion sums
    the zero-valued slots past a mode's boundary into the diagonal."""
    from scipy import sparse

    rows = np.broadcast_to(np.arange(rep.dim), rep.cols.shape)
    triplets = (data.ravel(), (rows.ravel(), rep.cols.ravel()))
    return sparse.coo_matrix(triplets, shape=(rep.dim, rep.dim)).tocsc()


def csc_generator(rep: fock.FockRep, f):
    """G_f as scipy's CSC matrix, built by `csc_from_stencil`."""
    return csc_from_stencil(rep, fock.generator_values(rep, f))


def family_resolvent(family, z, f) -> np.ndarray:
    """Dense resolvent (iz + G_f + s(f))^-1 of a shifted operator family: the
    plain solver's full matrix at z - i s(f)."""
    shifted = complex(z) - 1j * family.shift(f)
    return fock.ResolventSolver(family.rep, shifted, f).matrix()
