"""Tests for the truncated Fock realization."""

import struct
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from conftest import F_POOL, csc_from_stencil, csc_generator, random_expression
from resalg import fock, symplectic, verify
from resalg.expr import DomainError, parse, resolvent


SQ2 = 1.0 / np.sqrt(2.0)


def commutator(a, b):
    return a @ b - b @ a


def canonical(rep, k, row):
    """Dense Q_k (row 0) or P_k (row 1), read from the representation's entries."""
    return fock.PatternMatrix(rep, rep.entries[2 * k + row]).toarray()


# ---------------------------------------------------------------------------
# construction


def test_two_level_hand_values():
    rep = fock.build_rep(1, 2)
    q, p = canonical(rep, 0, 0), canonical(rep, 0, 1)
    assert np.allclose(q, [[0, SQ2], [SQ2, 0]])
    assert np.allclose(p, [[0, -1j * SQ2], [1j * SQ2, 0]])
    # at two levels the commutator is i*diag(1, -1)
    assert np.allclose(commutator(q, p), 1j * np.diag([1.0, -1.0]))


def test_commutation_defect_is_rank_one_at_top():
    rep = fock.build_rep(1, 16)
    q, p = canonical(rep, 0, 0), canonical(rep, 0, 1)
    defect = commutator(q, p) - 1j * np.eye(16)
    expected = np.zeros((16, 16), dtype=complex)
    expected[15, 15] = -16j
    assert np.allclose(defect, expected, atol=1e-13)


def test_two_mode_layout():
    a = np.diag(np.sqrt(np.arange(1.0, 3)), 1)
    q1, p1 = (a + a.conj().T) * SQ2, (a - a.conj().T) * SQ2 / 1j
    for modes in (1, 2, 3):
        rep = fock.build_rep(modes, 3)
        assert rep.dim == 3 ** modes
        # mode 1 is the leftmost tensor factor
        for k in range(modes):
            left, right = np.eye(3 ** k), np.eye(3 ** (modes - 1 - k))
            assert np.allclose(canonical(rep, k, 0), np.kron(np.kron(left, q1), right))
            assert np.allclose(canonical(rep, k, 1), np.kron(np.kron(left, p1), right))
        # a slot past a mode's boundary points at its own row and holds 0:
        # each mode has one such slot below and one above per top-level state
        absent = rep.cols == np.arange(rep.dim)
        absent[rep.diagonal] = False
        assert absent.sum() == 2 * modes * 3 ** (modes - 1)
        assert np.all(rep.entries[:, absent] == 0)
    # different modes commute exactly
    rep = fock.build_rep(2, 3)
    assert np.allclose(commutator(canonical(rep, 0, 0), canonical(rep, 1, 1)), 0.0)


def test_build_rep_validation():
    with pytest.raises(ValueError):
        fock.build_rep(0, 4)
    with pytest.raises(ValueError):
        fock.build_rep(1, 1)
    with pytest.raises(ValueError):
        fock.build_rep(3, 17)  # 17**3 = 4913 > 4096
    fock.build_rep(2, 64)  # 4096 exactly is allowed


def test_generator_linearity_and_hermiticity():
    rep = fock.build_rep(2, 5)
    f = (1.0, -2.0, 0.5, 3.0)
    g = (0.0, 1.0, -1.0, 0.25)
    gf = fock.generator(rep, f).toarray()
    gg = fock.generator(rep, g).toarray()
    combo = fock.generator(rep, tuple(2 * x + y for x, y in zip(f, g))).toarray()
    assert np.allclose(combo, 2 * gf + gg, atol=1e-12)
    assert np.allclose(gf, gf.conj().T, atol=1e-13)


@pytest.mark.parametrize("modes, levels", [(1, 7), (2, 5), (3, 4)])
def test_generator_matches_dense_sum(modes, levels):
    rep = fock.build_rep(modes, levels)
    f = np.random.default_rng(modes).standard_normal(2 * modes)
    expected = np.zeros((rep.dim, rep.dim), dtype=complex)
    for k in range(modes):
        expected += f[2 * k] * canonical(rep, k, 0)
        expected += f[2 * k + 1] * canonical(rep, k, 1)
    assert np.array_equal(fock.generator(rep, f).toarray(), expected)
    assert np.array_equal(fock.generator_values(rep, f), fock.generator(rep, f).data)


@pytest.mark.parametrize("modes, levels", [(1, 7), (2, 5)])
def test_stacked_generator_values_have_the_bits_of_each_point(modes, levels):
    rep = fock.build_rep(modes, levels)
    points = np.random.default_rng(modes).standard_normal((6, 2 * modes))
    points[0] = 0.0
    stacked = fock.generator_values(rep, points)
    assert stacked.shape == (len(points), *rep.cols.shape)
    for p, values in zip(points, stacked):
        assert values.tobytes() == fock.generator_values(rep, p).tobytes()
    with pytest.raises(ValueError):
        fock.generator_values(rep, points[:, :-1])


@pytest.mark.parametrize("modes, levels", [(1, 64), (2, 12), (3, 6)])
def test_pattern_product_is_bitwise_scipys_csc_product(modes, levels):
    """Within a proven rounding bound of scipy's CSC product, not bit for bit,
    as the two sum a row's slots in different orders:
    |ours - CSC| <= 2 gamma_k (|A||x|) entrywise, gamma_k = ku / (1 - ku).

    Each entry of either product is a sum of at most m = 2n+1 terms a x.
    One complex multiply is a x (1 + e) with |e| <= sqrt(2) gamma_2 <=
    gamma_3 (Higham 2002, section 3.6, lemma 3.5), fused or not; each of the
    m - 1 complex additions rounds both parts with relative error <= u, so
    any summation order stays within gamma_(m-1) of the terms it adds
    (section 3.1).  Together (lemma 3.3) each product is within gamma_k
    (|A||x|) of A x with k = m + 2 = 2n + 3, and the two differ by at most
    twice that.  The zero-valued slots past a mode's boundary add exact
    zeros to ours, and CSC sums them into the diagonal exactly.  |A||x| is
    evaluated in floating point, low by at most a relative gamma_k (the abs,
    the product and m - 1 sums of nonnegative terms), which the division by
    1 - 2 gamma_k covers with the bound's own scalings."""
    rep = fock.build_rep(modes, levels)
    rng = np.random.default_rng(levels)
    f = rng.standard_normal(2 * modes)
    plain, shifted = fock.generator(rep, f), fock.generator(rep, f)
    shifted.data[rep.diagonal] += 1j * (0.7 - 1.3j)  # iz + G_f, as the solver forms it
    u = np.finfo(float).eps / 2
    k = 2 * modes + 3
    gamma = k * u / (1 - k * u)
    for ours in (plain, shifted):
        ref = csc_from_stencil(rep, ours.data)
        assert np.array_equal(ours.toarray(), ref.toarray())
        for shape in ((rep.dim,), (rep.dim, 1), (rep.dim, 7)):
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            got = ours @ x
            assert got.shape == shape and got.dtype == complex
            bound = 2 * gamma * (abs(ref) @ np.abs(x)) / (1 - 2 * gamma)
            assert np.all(np.abs(got - ref @ x) <= bound)


@pytest.mark.parametrize("columns", [None, 3, 9, 19])
@pytest.mark.parametrize("modes, levels", [(1, 64), (2, 16), (3, 8)])
def test_pattern_product_is_bitwise_the_indexed_einsum(modes, levels, columns):
    # column independence: each column of a block product has the bytes of
    # that column's own product, a 1-D x those of its one-column block, and
    # x is left unwritten
    rep = fock.build_rep(modes, levels)
    rng = np.random.default_rng(levels + (columns or 0))
    ours = fock.generator(rep, rng.standard_normal(2 * modes))
    shape = (rep.dim,) if columns is None else (rep.dim, columns)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    before = x.tobytes()
    got = ours @ x
    block = ours @ x.reshape(rep.dim, -1)
    assert got.shape == shape and got.dtype == complex
    assert got.tobytes() == block.reshape(shape).tobytes()
    for j in range(block.shape[1]):
        assert block[:, j].tobytes() == (ours @ x.reshape(rep.dim, -1)[:, j]).tobytes()
    assert x.tobytes() == before


@pytest.mark.parametrize("modes, levels", [(1, 64), (2, 16), (3, 8)])
def test_box_columns_are_bitwise_the_stencil_product(modes, levels):
    # G_f sel read off the stencil, at every cutoff, signed zeros included
    rng = np.random.default_rng(modes * levels)
    units = list(np.eye(2 * modes))
    for f in units + [np.ones(2 * modes), -np.ones(2 * modes), rng.standard_normal(2 * modes)]:
        gf = fock.generator(rep := fock.build_rep(modes, levels), f)
        for m in range(1, levels + 1):
            idx = fock.box_indices(rep, m)
            sel = np.zeros((rep.dim, len(idx)), dtype=complex)
            sel[idx, np.arange(len(idx))] = 1.0
            got, want = gf.columns(idx), gf @ sel
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (f, m)


def test_generator_commutator_matches_form_below_top():
    # -i[G_f, G_g] acts as sigma(f,g) on states below the top level
    rep = fock.build_rep(1, 12)
    f, g = (1.0, 2.0), (-0.5, 3.0)
    gf, gg = fock.generator(rep, f).toarray(), fock.generator(rep, g).toarray()
    k = -1j * commutator(gf, gg)
    sig = symplectic.pair(rep.space, f, g)
    assert np.allclose(k[:11, :11], sig * np.eye(11), atol=1e-12)


# ---------------------------------------------------------------------------
# resolvents


def test_resolvent_vacuum_element_against_eig_oracle():
    # fixed value computed from the spectral decomposition of the position
    # operator at 128 levels; the direct solve agrees to 3e-16
    rep = fock.build_rep(1, 128)
    r = fock.resolvent_matrix(rep, 1.0, (1.0, 0.0))
    assert abs(r[0, 0] - (-0.7578721561411996j)) < 1e-12


def test_resolvent_zero_vector_is_scalar():
    rep = fock.build_rep(1, 8)
    r = fock.resolvent_matrix(rep, 2.5, (0.0, 0.0))
    assert np.allclose(r, (1.0 / (2.5j)) * np.eye(8), atol=1e-14)


def test_resolvent_defining_equation():
    rep = fock.build_rep(2, 6)
    z, f = 1.5 - 0.75j, (1.0, 0.0, -2.0, 0.5)
    r = fock.resolvent_matrix(rep, z, f)
    lhs = (1j * z * np.eye(rep.dim) + fock.generator(rep, f).toarray()) @ r
    assert np.allclose(lhs, np.eye(rep.dim), atol=1e-11)


def test_resolvent_norm_bound():
    # operator norm bounded by 1/|Re z| since the generator is hermitian
    rep = fock.build_rep(1, 32)
    for z in (1.0, -0.5, 2.0 + 3.0j, -0.75 - 4.0j):
        r = fock.resolvent_matrix(rep, z, (0.3, -1.2))
        assert np.linalg.norm(r, 2) <= 1.0 / abs(z.real) + 1e-10


def test_resolvent_adjoint_relation():
    rep = fock.build_rep(1, 24)
    z, f = 1.25 + 0.5j, (2.0, -1.0)
    r = fock.resolvent_matrix(rep, z, f)
    r_adj = fock.resolvent_matrix(rep, -z.conjugate(), f)
    assert np.allclose(r.conj().T, r_adj, atol=1e-12)


def test_resolvent_imaginary_z_rejected():
    rep = fock.build_rep(1, 4)
    with pytest.raises(DomainError):
        fock.resolvent_matrix(rep, 2j, (1.0, 0.0))
    with pytest.raises(DomainError):
        fock.ResolventSolver(rep, 0.0, (1.0, 0.0))


def test_solver_apply_matches_matrix():
    rep = fock.build_rep(2, 5)
    solver = fock.ResolventSolver(rep, -1.0 + 2.0j, (1.0, 1.0, 0.0, -1.0))
    full = solver.matrix()
    rng = np.random.default_rng(7)
    block = rng.standard_normal((rep.dim, 3)) + 1j * rng.standard_normal((rep.dim, 3))
    assert np.allclose(solver.apply(block), full @ block, atol=1e-11)
    assert 0.0 <= solver.backward_error <= 1e-12
    # callers cannot write into it
    with pytest.raises(ValueError):
        full[0, 0] = 0.0


@pytest.mark.parametrize(
    "modes, levels, z",
    [(1, 1024, 1.0 - 0.5j), (2, 32, -2.0 + 1.0j), (3, 10, 0.75 + 2.0j)],
)
def test_solver_apply_matches_dense_solve_on_box(modes, levels, z):
    rep = fock.build_rep(modes, levels)
    f = np.random.default_rng(levels).standard_normal(2 * modes)
    idx = fock.box_indices(rep, 4)
    sel = np.zeros((rep.dim, len(idx)), dtype=complex)
    sel[idx, np.arange(len(idx))] = 1.0
    dense = fock.generator(rep, f).toarray() + 1j * z * np.eye(rep.dim)
    got = fock.ResolventSolver(rep, z, f).apply(sel)
    expected = np.linalg.solve(dense, sel)
    assert np.linalg.norm(got - expected) <= 2e-15 * np.linalg.norm(expected)


def test_broken_factorization_raises_at_construction(monkeypatch):
    # a tridiagonal solve that returns twice the solution
    gttrf, gttrs = fock._gttrf_gttrs()

    def broken(*args, **kwargs):
        x, info = gttrs(*args, **kwargs)
        return 2.0 * x, info

    monkeypatch.setattr(fock, "_gttrf_gttrs", lambda: (gttrf, broken))
    rep = fock.build_rep(1, 8)
    with pytest.raises(RuntimeError, match="probe residual .* condition estimate"):
        fock.ResolventSolver(rep, 1.0, (1.0, 0.0))


@pytest.mark.parametrize("modes, levels", [(1, 8), (2, 6)])
def test_solver_stores_no_operator(monkeypatch, modes, levels):
    rep = fock.build_rep(modes, levels)
    solver = fock.ResolventSolver(rep, 1.0 - 0.5j, np.arange(1.0, 2 * modes + 1))
    assert not any(isinstance(v, fock.PatternMatrix) for v in vars(solver).values())
    # matrix() rebuilds iz + G_f for its own guard
    plain, built = fock.generator, []
    monkeypatch.setattr(fock, "generator", lambda *a: built.append(a) or plain(*a))
    full = solver.matrix()
    assert len(built) == 1
    dense = plain(rep, solver.f).toarray() + 1j * solver.z * np.eye(rep.dim)
    assert np.allclose(full @ dense, np.eye(rep.dim), atol=1e-12)


# binds the package's LAPACK routines, then imports scipy.linalg and prints
# whether get_lapack_funcs hands out the very same routine objects
_LATER_SCIPY_LINALG = """
import sys
import numpy as np
from resalg import fock
bound = [fock.lapack(name) for name in ("zgttrf", "zgttrs", "dstebz", "dstevd")]
print("scipy.linalg" in sys.modules)
from scipy.linalg import get_lapack_funcs
scipys = [*get_lapack_funcs(("gttrf", "gttrs"), dtype=np.complex128),
          *get_lapack_funcs(("stebz", "stevd"), dtype=np.float64)]
print(all(a is b for a, b in zip(bound, scipys)), sys.modules["scipy.linalg._flapack"].__name__)
"""


def test_lapack_routines_are_scipys_after_a_later_import():
    proc = subprocess.run(
        [sys.executable, "-c", _LATER_SCIPY_LINALG], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "True scipy.linalg._flapack"]


def _lapack_results():
    # a one-mode solve, which asks LAPACK, and a basis, which does not
    one, two = fock.build_rep(1, 64), fock.build_rep(2, 10)
    block = np.random.default_rng(5).standard_normal((64, 4)) + 0j
    solver = fock.ResolventSolver(one, 1.0 - 0.5j, (0.7, -1.3))
    return [solver.apply(block), *two.basis]


def test_lapack_fallback_gives_identical_solves(monkeypatch):
    import scipy.linalg

    expected = _lapack_results()
    asked = []
    real = scipy.linalg.get_lapack_funcs

    def counting(names, *args, **kwargs):
        asked.append(names)
        return real(names, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counting)
    monkeypatch.setattr(fock, "_flapack_file", lambda: None)  # the extension is not found
    fock.lapack.cache_clear()
    try:
        got = _lapack_results()
    finally:
        fock.lapack.cache_clear()
    assert sorted(asked) == ["gttrf", "gttrs"]
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


class _SuperLU:
    """The reference resolvent: scipy's SuperLU of the sparse iz + G_f,
    assembled here as scipy's CSC, independently of the package's product."""

    def __init__(self, rep, z, f):
        from scipy import sparse
        from scipy.sparse.linalg import splu

        a = csc_generator(rep, f) + 1j * z * sparse.identity(rep.dim)
        self._lu = splu(sparse.csc_matrix(a))
        self.dim = rep.dim

    def apply(self, block):
        return self._lu.solve(block)

    def matrix(self):
        return self.apply(np.eye(self.dim, dtype=complex))


@pytest.mark.parametrize(
    "modes, levels, z, f",
    [
        (1, 64, 1.0 - 0.5j, (0.7, -1.3)),
        (1, 64, -2.0, (-1.0, 0.0)),
        (2, 16, -2.0 + 1.0j, (1.0, 1.0, 1.0, 1.0)),
        (2, 16, 0.5 + 2.0j, (0.0, -1.5, -0.3, 0.8)),
        (2, 16, 1.5, (0.0, 0.0, 0.0, 2.0)),
        (3, 8, 0.75 + 2.0j, (-0.4, 0.9, 0.0, 0.0, 1.2, -0.6)),
        (3, 8, -1.0 - 1.0j, (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
        (1, 1024, -0.5 + 3.0j, (1.1, 0.4)),
    ],
)
def test_spectral_backend_matches_superlu_on_box(modes, levels, z, f):
    # the package solver (tridiagonal LU at one mode, spectral from two on)
    # against SuperLU as a differential oracle
    rep = fock.build_rep(modes, levels)
    solver, lu = fock.ResolventSolver(rep, z, f), _SuperLU(rep, z, f)
    assert (solver._lu is None) == (modes > 1)
    idx = fock.box_indices(rep, 4 if modes < 3 else 3)
    sel = np.zeros((rep.dim, len(idx)), dtype=complex)
    sel[idx, np.arange(len(idx))] = 1.0
    for got, expected in (
        (solver.apply(sel)[idx], lu.apply(sel)[idx]),
        (solver.apply(sel[:, 0]), lu.apply(sel[:, 0])),
        (solver.matrix(), lu.matrix()),
    ):
        assert got.shape == expected.shape
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


def test_multi_mode_solvers_use_the_spectral_backend():
    assert fock.ResolventSolver(fock.build_rep(1, 8), 1.0, (1.0, 0.0))._lu is not None
    assert fock.ResolventSolver(fock.build_rep(2, 8), 1.0, (1.0,) * 4)._lu is None


def test_one_mode_of_two_levels_uses_the_spectral_backend():
    # scipy's ?gttrf wrapper rejects a matrix of order 2, so one mode at N=2
    # is solved in the eigenbasis, like two or more modes
    rep = fock.build_rep(1, 2)
    z, f = 1.0 - 0.5j, (1.0, -0.5)
    solver = fock.ResolventSolver(rep, z, f)
    assert solver._lu is None
    assert solver.backward_error <= 1e-14
    expected = np.linalg.inv(fock.generator(rep, f).toarray() + 1j * z * np.eye(2))
    assert np.linalg.norm(solver.matrix() - expected) <= 1e-14 * np.linalg.norm(expected)
    assert fock.ResolventSolver(fock.build_rep(1, 3), z, f)._lu is not None


def test_tridiagonal_backend_rejects_more_than_one_mode(monkeypatch):
    # iz + G_f is tridiagonal only for one mode; forcing the LU branch on
    # two modes must fail loudly, not factor the wrong bands
    monkeypatch.setattr(fock, "_spectral", lambda rep: False)
    with pytest.raises(ValueError, match="tridiagonal LU needs one mode, got 2"):
        fock.ResolventSolver(fock.build_rep(2, 4), 1.0, (1.0, 0.0, 0.0, 1.0))


def test_spectral_solver_of_a_negated_vector_is_exactly_scaled():
    # f and -f share their phases; only the sign of r changes, so
    # c R(c lam, c f) = R(lam, f) holds bit for bit at c = -1
    rep = fock.build_rep(2, 12)
    f = (-0.5, 1.25, 0.0, -2.0)
    plain = fock.ResolventSolver(rep, 1.0, f)
    negated = fock.ResolventSolver(rep, -1.0, tuple(-x for x in f))
    block = np.eye(rep.dim, 5, dtype=complex)
    assert np.array_equal(-negated.apply(block), plain.apply(block))


@pytest.mark.parametrize("planted", ["eigenvectors", "eigenvalues"])
def test_bad_basis_raises_at_construction(planted):
    rep = fock.build_rep(2, 8)
    u, x = rep.basis
    if planted == "eigenvectors":
        u = u + 1e-6 * np.random.default_rng(3).standard_normal(u.shape)
    else:
        x = x + 1e-6
    rep.__dict__["basis"] = (u, x)  # what the cached property would hold
    with pytest.raises(RuntimeError, match="probe residual .* condition estimate"):
        fock.ResolventSolver(rep, 1.0, (1.0, 0.5, -1.0, 0.0))


# 12 and 16 are the levels of perfbench's verify_2m, 128 the top of two_mode_ladder
@pytest.mark.parametrize("levels", [2, 3, 10, 12, 16, 64, 128, 257])
def test_basis_is_bitwise_eigh_tridiagonal(levels):
    # scipy's ?stevd is the reference: same bytes, zero signs included, and
    # U in its Fortran layout, which sets the order of the solves' sums
    from scipy.linalg import eigh_tridiagonal

    x, u = eigh_tridiagonal(np.zeros(levels), np.sqrt(np.arange(1, levels) / 2.0))
    basis_u, basis_x = fock.build_rep(1, levels).basis
    assert u.flags.f_contiguous and basis_u.flags.f_contiguous
    assert not basis_u.flags.writeable and not basis_x.flags.writeable
    assert np.array_equal(basis_u.view(np.uint64), u.view(np.uint64))
    assert np.array_equal(basis_x.view(np.uint64), x.view(np.uint64))


def test_basis_is_built_once_per_rep(monkeypatch):
    calls = []
    real = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    for rep in (fock.build_rep(2, 10), fock.build_rep(3, 4)):
        before = len(calls)
        for z, f in ((1.0, np.eye(2 * rep.modes)[0]), (-2.0, np.ones(2 * rep.modes))):
            fock.ResolventSolver(rep, z, f).matrix()
        assert len(calls) == before + 1
        assert rep.basis is rep.basis
        with pytest.raises(ValueError):
            rep.basis[0][0, 0] = 0.0


def test_guard_probes_are_built_once_per_dimension_and_read_only():
    solvers = [fock.ResolventSolver(fock.build_rep(2, 6), z, (1.0, 0.0, 0.0, 1.0))
               for z in (1.0, 2.0)]
    probes = fock._probes(36)
    assert probes is fock._probes(36) and probes.shape == (36, 3)
    assert all(s.backward_error <= fock.PROBE_RESIDUAL_TOL for s in solvers)
    with pytest.raises(ValueError):
        probes[0, 0] = 0.0


@pytest.mark.parametrize("modes, levels", [(1, 2), (2, 6), (3, 4)])
def test_spectral_solve_leaves_the_callers_block_alone(modes, levels):
    # a read-only block goes in; f with no touched mode scales it by 1/(iz)
    rep = fock.build_rep(modes, levels)
    rng = np.random.default_rng(levels)
    block = rng.standard_normal((rep.dim, 4)) + 1j * rng.standard_normal((rep.dim, 4))
    kept = block.copy()
    block.setflags(write=False)
    for f in (np.zeros(2 * modes), np.ones(2 * modes), np.eye(2 * modes)[-1]):
        out = fock.ResolventSolver(rep, 2.0, f).apply(block)
        assert out.flags.writeable and not np.shares_memory(out, block)
        assert np.array_equal(block, kept)
    unscaled = fock.ResolventSolver(rep, 2.0, np.zeros(2 * modes)).apply(block)
    assert np.array_equal(unscaled, block * (1.0 / 2j))


def test_basis_nodes_are_gauss_hermite():
    rep = fock.build_rep(2, 64)
    u, x = rep.basis
    nodes, _ = np.polynomial.hermite.hermgauss(64)
    assert np.max(np.abs(x - nodes)) <= 1e-13
    # Q = U diag(x) U^T on one mode, with U orthogonal
    q = canonical(fock.build_rep(1, 64), 0, 0)
    assert np.linalg.norm(q @ u - u * x) <= 1e-13 * np.linalg.norm(q)
    assert np.linalg.norm(u.T @ u - np.eye(64)) <= 1e-13


# ---------------------------------------------------------------------------
# expression evaluation


def test_evaluate_homomorphism():
    rep = fock.build_rep(1, 16)
    e = parse("R(1,[1,0])*R(2,[0,1]) + (0-2i)*I")
    r1 = fock.resolvent_matrix(rep, 1.0, (1.0, 0.0))
    r2 = fock.resolvent_matrix(rep, 2.0, (0.0, 1.0))
    expected = r1 @ r2 - 2j * np.eye(16)
    assert np.allclose(fock.evaluate(rep, e), expected, atol=1e-12)


def test_evaluate_power():
    rep = fock.build_rep(1, 10)
    e = resolvent(1.0, (1.0, 0.5)) ** 3
    r = fock.resolvent_matrix(rep, 1.0, (1.0, 0.5))
    assert np.allclose(fock.evaluate(rep, e), r @ r @ r, atol=1e-12)


def _evaluate_reference(rep, e):
    # the word loop that evaluate ran before apply_expr existed
    solvers = {}
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    eye = np.eye(rep.dim, dtype=complex)
    for coeff, word in e.terms:
        acc = eye
        for g in reversed(word):
            key = (g.z, g.f)
            if key not in solvers:
                solvers[key] = fock.ResolventSolver(rep, g.z, g.f)
            acc = solvers[key].apply(acc)
        out += coeff * acc
    return out


# identity terms, a repeated letter and the zero vector, in one and two modes
_FIXED_EXPRESSIONS = {
    1: "2*I + R(1,[0,0])*R(1,[0,0]) - (0.5+1i)*R(2,[1,1])*R(-1,[0,1])*R(2,[1,1])",
    2: "(0-1i)*I + R(1,[0,0,0,0])*R(1,[0,0,0,0]) + R(2,[1,0,0,1])^2*R(-1,[0,1,1,0])",
}
# the one-mode pool of conftest with each vector on mode 1 or mode 2
_F_POOL_2M = tuple((*f, 0.0, 0.0) for f in F_POOL) + tuple(
    (0.0, 0.0, *f) for f in F_POOL
)


def _expressions(modes):
    rng = np.random.default_rng(61 + modes)
    pool = F_POOL if modes == 1 else _F_POOL_2M
    return [parse(_FIXED_EXPRESSIONS[modes])] + [
        random_expression(rng, f_pool=pool) for _ in range(12)
    ]


@pytest.mark.parametrize("modes, levels", [(1, 24), (2, 6)])
def test_evaluate_equals_reference_loop(modes, levels):
    rep = fock.build_rep(modes, levels)
    for e in _expressions(modes):
        reference = _evaluate_reference(rep, e)
        assert np.array_equal(fock.evaluate(rep, e), reference), str(e)


@pytest.mark.parametrize("modes, levels, cutoff", [(1, 24, 6), (2, 6, 3)])
def test_apply_expr_matches_evaluated_matrix(modes, levels, cutoff):
    rep = fock.build_rep(modes, levels)
    block = fock.probe_block(rep, cutoff, seed=5)
    block[:, -1] = np.random.default_rng(9).standard_normal(rep.dim)  # a full column
    solver = verify.SolverCache(rep).solver
    for e in _expressions(modes):
        expected = fock.evaluate(rep, e) @ block
        got = fock.apply_expr(e, block, solver)
        assert got.shape == block.shape
        gap = np.linalg.norm(got - expected)
        assert gap <= 1e-13 * np.linalg.norm(expected), str(e)
        # Schur probing through the block agrees with probing the formed matrix
        applied = partial(fock.apply_expr, e, solver=solver)
        by_block = fock.schur_constant(rep, applied, cutoff)
        by_matrix = fock.schur_constant(rep, fock.evaluate(rep, e), cutoff)
        gap = abs(by_block.mean - by_matrix.mean)
        assert gap <= 1e-13 * max(1.0, abs(by_matrix.mean))
        assert by_block.probes_used == by_matrix.probes_used


def test_apply_expr_of_zero_is_zero():
    rep = fock.build_rep(1, 8)
    block = np.ones((8, 2), dtype=complex)
    out = fock.apply_expr(parse("0"), block, lambda z, f: pytest.fail("no letter"))
    assert np.array_equal(out, np.zeros((8, 2)))


def test_evaluate_respects_rewriting():
    # numerical check that the pair rewrite preserves the evaluated operator
    from resalg.expr import simplify

    rep = fock.build_rep(1, 32)
    e = resolvent(1.0, (1.0, 0.0)) * resolvent(2.0, (1.0, 0.0))
    assert np.allclose(
        fock.evaluate(rep, e), fock.evaluate(rep, simplify(e)), atol=1e-12
    )


# ---------------------------------------------------------------------------
# compression and scalar probing


def test_box_indices_two_modes():
    rep = fock.build_rep(2, 4)
    idx = fock.box_indices(rep, 2)
    # levels (l1, l2) with both < 2 at base 4: 0, 1, 4, 5
    assert idx.tolist() == [0, 1, 4, 5]
    with pytest.raises(ValueError):
        fock.box_indices(rep, 0)
    with pytest.raises(ValueError):
        fock.box_indices(rep, 5)


def test_complex_gaussians_are_seeded():
    draw = fock.complex_gaussians(7, (50, 3))
    assert draw.shape == (50, 3) and draw.dtype == complex
    assert draw.tobytes() == fock.complex_gaussians(7, (50, 3)).tobytes()
    assert draw.tobytes() != fock.complex_gaussians(8, (50, 3)).tobytes()


def test_complex_gaussians_are_standard():
    # |z|^2 ~ Exp(1) with a uniform phase: E|z|^2 = 1 and E z = 0
    z = fock.complex_gaussians(3, (10**5,))
    assert np.all(np.isfinite(z))
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) <= 0.02
    assert abs(np.mean(z)) <= 0.02
    assert abs(np.mean(z * z)) <= 0.02  # circular: E z^2 = 0


def test_rayleigh_quotients_of_a_column_do_not_depend_on_its_block():
    # dense columns past numpy's 8192-element buffer, where an einsum down
    # the columns sums a column in pieces that depend on the block's width
    rng = np.random.default_rng(11)
    shape = (16384, 19)
    probes, images = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                      for _ in range(2))
    whole = fock.rayleigh_quotients(probes, images)
    for width in (1, 2, 3, 6):
        parts = [fock.rayleigh_quotients(probes[:, s:s + width], images[:, s:s + width])
                 for s in range(0, shape[1], width)]
        assert np.concatenate(parts).tobytes() == whole.tobytes(), width
    expected = np.sum(probes.conj() * images, axis=0) / np.sum(np.abs(probes) ** 2, axis=0)
    assert np.allclose(whole, expected, rtol=1e-12, atol=0.0)


def test_schur_constant_detects_scalar():
    rep = fock.build_rep(2, 8)
    f, g = (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)
    k = -1j * commutator(csc_generator(rep, f), csc_generator(rep, g))
    report = fock.schur_constant(rep, k.__matmul__, cutoff=6, seed=3)
    assert report.is_scalar
    sig = symplectic.pair(rep.space, f, g)
    assert abs(report.mean - sig) < 1e-10
    assert report.probes_used == 36 + 10


def test_schur_constant_flags_non_scalar():
    rep = fock.build_rep(1, 8)
    report = fock.schur_constant(rep, fock.generator(rep, (1.0, 0.0)).__matmul__, cutoff=4)
    assert not report.is_scalar
    assert report.max_deviation > 0.1


# ---------------------------------------------------------------------------
# containers


def test_matrix_container_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    m = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    path = tmp_path / "m.bin"
    fock.save_matrix(path, m)
    back = fock.load_matrix(path)
    assert back.shape == (5, 7)
    assert np.array_equal(back, m)


@pytest.mark.parametrize("layout", ["C", "F", "real"])
def test_matrix_container_payload_is_the_row_major_bytes(tmp_path, layout):
    # the bytes of the old two-copy write, m.astype("<c16").tobytes(order="C")
    rng = np.random.default_rng(12)
    m = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    m[0, 0] = complex(-0.0, -0.0)
    m = {"C": m, "F": m.T, "real": m.real}[layout]
    path = tmp_path / "m.bin"
    fock.save_matrix(path, m)
    payload = np.ascontiguousarray(m, dtype=complex).astype("<c16").tobytes(order="C")
    assert path.read_bytes()[24:] == payload
    assert path.read_bytes()[8:24] == struct.pack("<QQ", *m.shape)


def test_matrix_container_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a matrix")
    with pytest.raises(ValueError):
        fock.load_matrix(path)


def test_matrix_json_round_trip():
    m = np.array([[1.0 + 2.0j, -0.5], [0.0, 3.25j]])
    back = fock.matrix_from_json(fock.matrix_to_json(m))
    assert np.array_equal(back, m)
