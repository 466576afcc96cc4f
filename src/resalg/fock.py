"""Truncated Fock-space realization of the canonical generators.

Each of the n modes keeps its lowest N number states.  The ladder operator a
acts as a|m> = sqrt(m)|m-1>, and

    Q = (a + a*) / sqrt(2),      P = (a - a*) / (i sqrt(2)).

Multi-mode operators are identity-padded tensor products with mode 1 as the
leftmost factor.  The truncation defect [Q_k, P_k] - i is a rank-one matrix
per mode with entry -iN at the top number state, so everything supported
below the boundary behaves canonically.

Each Q_k and P_k, a tridiagonal matrix padded by Kronecker products with
identities, is stored as its values on one row stencil (`FockRep`) that all
of them and the identity share, so a generator G_f or a shifted iz + G_f is
one weighted sum of value arrays (`PatternMatrix`).  A resolvent
(`ResolventSolver`) applies (iz + G_f)^-1 to blocks of columns without
forming it: with one mode of N >= 3 by the LAPACK tridiagonal LU
(?gttrf/?gttrs) of iz + G_f, otherwise by the eigenbasis of one mode's
truncated Q (`FockRep.basis`, numpy's `eigh`).  Dense matrices are formed
only on request: evaluated expressions, and full resolvents
(`ResolventSolver.matrix`), which no command forms.  No scipy package is
imported: the LU comes from scipy's LAPACK extension module (`lapack`).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import math
import os
import random
import struct
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np

from resalg import symplectic
from resalg.expr import DomainError, Expr

# caps the dimension: evaluated expressions are dense
DEFAULT_MAX_DIM = 4096

# a factorization whose probe residual exceeds this times max(1, |z|) is
# rejected as numerically broken
PROBE_RESIDUAL_TOL = 1e-10

# the Schur test: the largest deviation of a Rayleigh quotient from their mean
# in a multiple of 1, and the number of seeded random probes
SCHUR_TOL = 1e-8
RANDOM_PROBES = 10

_MAGIC = b"RAMX"
_DTYPE_TAG = b"c16\x00"


@dataclass(frozen=True)
class FockRep:
    """Immutable per-mode position/momentum matrices on one row stencil.

    Row r of every Q_k, P_k and the identity has its entries among the
    columns r - s_1 < ... < r - s_n < r < r + s_n < ... < r + s_1, s_k being
    the stride of mode k: slot t of row r is column cols[t, r], and slot
    `diagonal` is r itself.  `entries` holds the values of Q_1, P_1, ...,
    Q_n, P_n on the slots.  A slot past a mode's boundary points at r and
    holds 0 in every row of `entries`."""

    space: symplectic.SymplecticSpace
    levels: int
    cols: np.ndarray = field(repr=False)
    entries: np.ndarray = field(repr=False)

    @property
    def modes(self) -> int:
        return self.space.modes

    @property
    def dim(self) -> int:
        return self.levels ** self.modes

    @property
    def diagonal(self) -> int:
        return self.modes

    @cached_property
    def basis(self) -> tuple:
        """(U, x) with Q = U diag(x) U^T for one mode's truncated Q, which
        every mode shares; built on first access, read-only.  Q is real
        symmetric tridiagonal, so U is real orthogonal, and x are the
        Gauss-Hermite nodes in ascending order (Golub & Welsch 1969).  numpy's
        `eigh` of the dense Q gives the bytes of scipy's ?stevd; U is kept
        Fortran-ordered like ?stevd's, as the layout sets `_real_matmul`'s sums."""
        offdiag = np.sqrt(np.arange(1, self.levels) / 2.0)
        x, u = np.linalg.eigh(np.diag(offdiag, -1) + np.diag(offdiag, 1))
        u = np.asfortranarray(u)
        for arr in (u, x):
            arr.setflags(write=False)
        return u, x


class PatternMatrix:
    """The matrix with values `data` (changeable in place), shaped like
    `rep.cols`: 2n+1 diagonals, slot n the main one, slots t and 2n - t those
    at -s_t and +s_t.  `m @ x` adds one shifted product per slot, in slot
    order, with no BLAS; a slot past a boundary holds 0 and adds exact zeros."""

    def __init__(self, rep: FockRep, data: np.ndarray):
        self.rep, self.data = rep, data

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x, n = np.asarray(x), self.rep.modes
        d = self.data.reshape(self.data.shape + (1,) * (x.ndim - 1))
        y = d[n] * x
        for k in range(n):
            s = self.rep.levels ** (n - 1 - k)
            y[s:] += d[k, s:] * x[:-s]
            y[:-s] += d[2 * n - k, :-s] * x[s:]
        return y

    def columns(self, idx: np.ndarray) -> np.ndarray:
        """`self @ sel` for the identity's columns `sel` at the indices idx,
        read off the stencil: column j holds the diagonal value at row idx[j]
        and, for each slot t whose column is present, data[2n - t, r] at row
        r = cols[t, idx[j]], where column idx[j] sits in r's mirror slot.
        The product computes each of these entries as one term times 1.0
        plus exact zeros, so the bits are its bits."""
        cols, diagonal = self.rep.cols, self.rep.diagonal
        rows = cols[:, idx]
        t, j = np.nonzero(rows != idx)
        out = np.zeros((self.rep.dim, len(idx)), dtype=complex)
        out[idx, np.arange(len(idx))] = self.data[diagonal, idx]
        out[rows[t, j], j] = self.data[2 * diagonal - t, rows[t, j]]
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.rep.dim,) * 2, dtype=complex)
        np.add.at(out, (np.arange(self.rep.dim), self.rep.cols), self.data)
        return out


def build_rep(n: int, levels: int, max_dim: int = DEFAULT_MAX_DIM) -> FockRep:
    """Standard-form representation with n modes and `levels` states per mode."""
    if n < 1:
        raise ValueError("need at least one mode")
    if levels < 2:
        raise ValueError("need at least two levels per mode")
    if levels ** n > max_dim:
        raise ValueError(
            f"dimension {levels}**{n} exceeds the memory cap {max_dim}"
        )
    dim = levels ** n
    rows = np.arange(dim)
    # slot k of row r is column r - s_k, slot 2n - k column r + s_k and slot n
    # column r, with s_k = levels**(n-1-k) the stride of mode k
    cols = np.tile(rows, (2 * n + 1, 1))
    entries = np.zeros((2 * n, 2 * n + 1, dim), dtype=complex)
    for k in range(n):
        stride = levels ** (n - 1 - k)
        level = (rows // stride) % levels
        # below the diagonal a*|m-1> = sqrt(m)|m>, above it a|m+1> = sqrt(m+1)|m>
        below = k, -stride, level > 0, 0.0, np.sqrt(level)
        above = 2 * n - k, stride, level < levels - 1, np.sqrt(level + 1.0), 0.0
        for t, step, valid, a, a_star in (below, above):
            cols[t, valid] += step
            entries[2 * k, t] = (a + a_star) / np.sqrt(2.0)
            entries[2 * k + 1, t] = (a - a_star) / (1j * np.sqrt(2.0))
    entries[:, cols == rows] = 0.0  # the diagonal and the slots past a boundary
    # every matrix built on the stencil shares these arrays
    for arr in (cols, entries):
        arr.setflags(write=False)
    return FockRep(symplectic.standard_space(n), levels, cols, entries)


def generator_values(rep: FockRep, f) -> np.ndarray:
    """Values of G_f on the representation's row stencil: the weighted sum
    of the Q_k, P_k value rows.  For a points x dim array f, the values of
    every point's G_f stacked along a leading axis; the sum is element-wise,
    so each has the bits of its point's own."""
    points = np.asarray(f, dtype=float)
    if points.ndim == 2 and points.shape[1] == rep.space.dim:
        weights = points.T[..., None, None]
    else:
        weights = symplectic.as_vector(rep.space, points)
    data = np.zeros((*points.shape[:-1], *rep.cols.shape), dtype=complex)
    for weight, values in zip(weights, rep.entries):
        data += weight * values
    return data


def generator(rep: FockRep, f) -> PatternMatrix:
    """Hermitian field generator G_f = sum_k f_{2k-1} Q_k + f_{2k} P_k, as
    the `PatternMatrix` of `generator_values`."""
    return PatternMatrix(rep, generator_values(rep, f))


@lru_cache(maxsize=16)
def _probes(dim: int) -> np.ndarray:
    """The guard's probe columns, built once per dimension; read-only: the
    first and last basis state plus the flat unit vector."""
    probes = np.zeros((dim, 3), dtype=complex)
    probes[0, 0] = 1.0
    probes[-1, 1] = 1.0
    probes[:, 2] = 1.0 / np.sqrt(dim)
    probes.setflags(write=False)
    return probes


def _spectral(rep: FockRep) -> bool:
    """The backend choice of `ResolventSolver`, by its cost model."""
    return rep.modes > 1 or rep.levels < 3


class ResolventSolver:
    """Applies R = (iz + G_f)^-1 to blocks of columns without forming it.

    One mode of three or more levels: iz + G_f is tridiagonal.  LAPACK
    ?gttrf factors it in O(N) by Gaussian elimination with partial pivoting,
    which is backward stable (Higham 2002, section 9.5), and a ?gttrs solve
    costs O(1) per column entry, which no dense basis matches.

    Two or more modes, and one mode of N=2 (scipy's ?gttrf wrapper rejects
    n=2): the Kronecker-spectral form.  The number operator is
    diagonal, so a Q + b P = r e^{i theta N} Q e^{-i theta N} exactly on the
    truncated space, with a = r cos(theta), b = r sin(theta).  With
    Q = U diag(x) U^T (`FockRep.basis`) and G_f a Kronecker sum over modes,
    R = V diag(1/(iz + sum_k r_k x_{j_k})) V* with V = (x)_k e^{i theta_k N} U
    (the fast diagonalization method of Lynch, Rice & Thomas 1964).  The
    solver keeps the phases e^{i theta_k N} and their conjugates as (N, 1)
    columns, and that diagonal; a solve contracts U^T and U along one mode
    axis at a time, skips the modes where f vanishes, and never writes to
    the caller's block.  For n modes of N levels, set-up is O(N^n) on top of
    one N x N `eigh` per representation, and a solve costs 2nN
    multiply-adds per column entry.  A sparse LU of iz + G_f fills in from
    two modes on and is slower to set up and to apply
    (scripts/bench_resolvent.py).

    Construction solves three probe columns (`_probes`, one read-only
    block per dimension) and keeps their residual against the sparse
    iz + G_f as `backward_error`; a solver that misses
    PROBE_RESIDUAL_TOL raises RuntimeError there, so both backends, LU
    factors and eigenbasis alike, are checked against the ladder operators.
    The solver stores no operator: iz + G_f serves that guard and is then
    dropped, and `matrix()` rebuilds it for its own guard.
    """

    def __init__(self, rep: FockRep, z, f):
        z = complex(z)
        if z.real == 0.0:
            raise DomainError(f"resolvent parameter z={z} requires Re(z) != 0")
        self.z = z
        self.f = tuple(float(x) for x in f)
        self.dim = rep.dim
        self._rep = rep
        shifted = self._shifted()
        if _spectral(rep):
            self._lu = None
            self._spectral_setup(rep, z)
        else:
            self._lu = _tridiagonal_lu(rep, shifted.data)
        probes = _probes(self.dim)
        self.backward_error = self._check(shifted, self._solve(probes), probes)

    def _shifted(self) -> PatternMatrix:
        """iz + G_f on the representation's stencil."""
        shifted = generator(self._rep, self.f)
        shifted.data[self._rep.diagonal] += 1j * self.z
        return shifted

    def _spectral_setup(self, rep: FockRep, z: complex):
        u, x = rep.basis
        fv = symplectic.as_vector(rep.space, self.f)
        levels = np.arange(rep.levels)
        self._u = u
        self._levels = rep.levels
        # (k, e^{i theta_k N}, e^{-i theta_k N}) as (N, 1) columns for every
        # mode k that f touches
        self._phases = []
        denom = np.full((1,) * rep.modes, 1j * z)
        for k in range(rep.modes):
            a, b = fv[2 * k], fv[2 * k + 1]
            if a == 0.0 and b == 0.0:
                continue
            # theta in (-pi/2, pi/2] and r signed, so that f and -f share
            # their phases exactly and only r changes sign
            sign = -1.0 if a < 0.0 or (a == 0.0 and b < 0.0) else 1.0
            a, b = sign * a, sign * b
            phase = np.exp(1j * math.atan2(b, a) * levels)[:, None]
            self._phases.append((k, phase, phase.conj()))
            shape = [1] * rep.modes
            shape[k] = rep.levels
            denom = denom + sign * math.hypot(a, b) * x.reshape(shape)
        full = (rep.levels,) * rep.modes
        self._inverse = np.broadcast_to(1.0 / denom, full).reshape(-1, 1)

    def _solve(self, block: np.ndarray) -> np.ndarray:
        y = np.asarray(block, dtype=complex).reshape(self.dim, -1)
        if self._lu is not None:
            y, _ = _gttrf_gttrs()[1](*self._lu, y)
            return y.reshape(np.shape(block))
        n = self._levels
        # V* y, then the diagonal, then V: mode k is axis 1 of the
        # (n**k, n, rest) view, and U acts on the real and imaginary parts.
        # Only V's phases scale in place, on the products' own arrays, so the
        # caller's block is never written.
        for k, _, conj in self._phases:
            y = _real_matmul(self._u.T, y.reshape(n ** k, n, -1) * conj)
        y = y.reshape(self.dim, -1) * self._inverse
        for k, phase, _ in self._phases:
            y = _real_matmul(self._u, y.reshape(n ** k, n, -1))
            y *= phase
        return y.reshape(np.shape(block))

    def apply(self, block: np.ndarray) -> np.ndarray:
        """Returns R @ block."""
        return self._solve(block)

    def matrix(self) -> np.ndarray:
        """The full resolvent; read-only."""
        out = self.apply(np.eye(self.dim, dtype=complex))
        probes = _probes(self.dim)
        self._check(self._shifted(), out @ probes, probes)
        out.setflags(write=False)
        return out

    def _check(self, shifted: PatternMatrix, solved: np.ndarray, probes: np.ndarray) -> float:
        """Residual of (iz + G_f) @ solved against the probe columns that
        `solved` was computed from; raises when the solve is broken."""
        err = float(np.linalg.norm(shifted @ solved - probes))
        if not err <= PROBE_RESIDUAL_TOL * max(1.0, abs(self.z)):
            # the Frobenius norm bounds the spectral norm of iz + G_f
            cond_bound = (abs(self.z) + np.linalg.norm(shifted.data)) / abs(self.z.real)
            raise RuntimeError(
                f"resolvent solve failed: probe residual {err:.3e}, "
                f"condition estimate {cond_bound:.3e}"
            )
        return err


def _flapack_file():
    """Path of scipy's LAPACK extension, found without importing scipy;
    None when there is none."""
    spec = importlib.util.find_spec("scipy")
    paths = [os.path.join(folder, "linalg", "_flapack" + suffix)
             for folder in (spec and spec.submodule_search_locations) or ()
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    return next((path for path in paths if os.path.isfile(path)), None)


@cache
def lapack(name: str):
    """LAPACK routine `name` ("zgttrf", ...) from scipy's extension module, loaded
    alone under the name a later `import scipy.linalg` reuses (that package costs
    about 25 MB); from `get_lapack_funcs` when the file is missing."""
    path = _flapack_file()
    if path is None:
        from scipy.linalg import get_lapack_funcs

        return get_lapack_funcs(name[1:], dtype={"d": np.float64, "z": np.complex128}[name[0]])
    module = sys.modules.get("scipy.linalg._flapack")
    if module is None:
        spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
        sys.modules[spec.name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return getattr(module, name)


def _gttrf_gttrs():
    return lapack("zgttrf"), lapack("zgttrs")


def _tridiagonal_lu(rep: FockRep, data: np.ndarray) -> tuple:
    """?gttrf factors (dl, d, du, du2, ipiv) of the one-mode matrix with
    values `data` on the stencil, whose slots 0, 1 and 2 are its sub-, main
    and super-diagonal; a zero pivot leaves inf or nan in the solves, which
    the probe guard rejects."""
    if rep.modes != 1:
        raise ValueError(f"the tridiagonal LU needs one mode, got {rep.modes}")
    return _gttrf_gttrs()[0](data[0, 1:], data[1], data[2, :-1])[:5]


def _real_matmul(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a @ y for a real matrix a and a stack y of complex matrices, as one
    real product on the interleaved real and imaginary parts."""
    y = np.ascontiguousarray(y)
    return np.matmul(a, y.view(np.float64)).view(complex)


def resolvent_matrix(rep: FockRep, z, f) -> np.ndarray:
    """Dense resolvent (iz + G_f)^-1 via `ResolventSolver`; read-only."""
    return ResolventSolver(rep, z, f).matrix()


def apply_expr(e: Expr, block: np.ndarray, solver) -> np.ndarray:
    """Returns e @ block without forming e: each word is applied to the
    block by successive solves, rightmost letter first.  `solver(z, f)`
    returns the ResolventSolver of the letter R(z, f)."""
    out = np.zeros(block.shape, dtype=complex)
    for coeff, word in e.terms:
        acc = block
        for g in reversed(word):
            acc = solver(g.z, g.f).apply(acc)
        out += coeff * acc
    return out


def evaluate(rep: FockRep, e: Expr) -> np.ndarray:
    """Homomorphic evaluation of an expression: `apply_expr` on the
    identity, with one factorization per distinct letter."""
    solver = cache(lambda z, f: ResolventSolver(rep, z, f))
    return apply_expr(e, np.eye(rep.dim, dtype=complex), solver)


def box_indices(rep: FockRep, cutoff: int) -> np.ndarray:
    """Indices of basis states with every mode level below `cutoff`."""
    if not 1 <= cutoff <= rep.levels:
        raise ValueError(f"cutoff must be in [1, {rep.levels}], got {cutoff}")
    idx = np.arange(rep.dim)
    keep = np.ones(rep.dim, dtype=bool)
    for k in range(rep.modes):
        keep &= (idx // rep.levels ** k) % rep.levels < cutoff
    return idx[keep]


@dataclass(frozen=True)
class SchurReport:
    """Result of probing whether an operator acts as a multiple of 1."""

    mean: complex
    max_deviation: float
    probes_used: int
    is_scalar: bool


def complex_gaussians(seed: int, shape) -> np.ndarray:
    """Standard complex Gaussians (E|z|^2 = 1) of the given shape, seeded.

    The bytes come from the standard library's `random.Random(seed)`, so
    numpy.random, 6 MB of resident memory, is never imported.  Each entry
    takes two little-endian 64-bit words, the first n of the stream for u
    and the next n for v, each turned into a uniform in (0, 1] by
    ((bits >> 11) + 1) 2^-53.  Then z = sqrt(-ln u) e^(2 pi i v): |z|^2 =
    -ln u ~ Exp(1), and the phase is uniform and independent of it, which is
    the law of a standard complex Gaussian."""
    n = math.prod(shape)
    words = np.frombuffer(random.Random(seed).randbytes(16 * n), dtype="<u8")
    u, v = ((words.reshape(2, n) >> 11) + 1) * 2.0**-53
    radius, phase = np.sqrt(-np.log(u)), 2.0 * np.pi * v
    out = np.empty(n, dtype=complex)
    out.real, out.imag = radius * np.cos(phase), radius * np.sin(phase)
    return out.reshape(shape)


def random_probes(seed: int, size: int) -> np.ndarray:
    """RANDOM_PROBES seeded random unit columns of length `size`: the rows
    of `complex_gaussians(seed, (RANDOM_PROBES, size))`, normalized."""
    rows = complex_gaussians(seed, (RANDOM_PROBES, size))
    return np.stack([phi / np.linalg.norm(phi) for phi in rows], axis=1)


def probe_block(rep: FockRep, cutoff: int, seed: int = 0) -> np.ndarray:
    """Probe columns of the Schur test: the basis states below the cutoff,
    then the `random_probes` supported on them."""
    idx = box_indices(rep, cutoff)
    probes = np.zeros((rep.dim, len(idx) + RANDOM_PROBES), dtype=complex)
    probes[idx, np.arange(len(idx))] = 1.0
    probes[idx, len(idx):] = random_probes(seed, len(idx))
    return probes


def schur_constant(rep: FockRep, k: np.ndarray, cutoff: int, seed: int = 0) -> SchurReport:
    """`schur_report` of K on the columns of `probe_block`.  K is a dense
    matrix, or a function that applies K to a block of columns, so K itself
    need not be formed."""
    if not callable(k):
        k = np.asarray(k, dtype=complex)
        if k.shape != (rep.dim, rep.dim):
            raise ValueError(f"matrix shape {k.shape} does not match dim {rep.dim}")
        k = k.__matmul__  # one product for every probe column
    probes = probe_block(rep, cutoff, seed)
    return schur_report(rayleigh_quotients(probes, k(probes)))


def rayleigh_quotients(probes: np.ndarray, images: np.ndarray) -> np.ndarray:
    """The Rayleigh quotients <phi, K phi>/<phi, phi> of the probe columns
    phi, given their images K phi.  Each column's products are summed alone,
    pairwise along a contiguous row of the transposed block, so a column's
    quotient has the same bits in any block of columns; an einsum down the
    columns does not, as numpy buffers its rows in pieces that depend on the
    block's width."""
    def column_sums(a, b):
        return np.multiply(a.T.conj(), b.T, order="C").sum(axis=1)

    return column_sums(probes, images) / column_sums(probes, probes).real


def schur_report(values: np.ndarray) -> SchurReport:
    """Whether K is a multiple of 1, from its Rayleigh quotients over the
    probe columns: K is scalar when they all lie within SCHUR_TOL of their
    mean."""
    mean = complex(np.mean(values))
    max_dev = float(np.max(np.abs(values - mean)))
    return SchurReport(mean=mean, max_deviation=max_dev, probes_used=len(values),
                       is_scalar=max_dev <= SCHUR_TOL)


# ---------------------------------------------------------------------------
# matrix container: 4-byte magic, 4-byte dtype tag, two uint64 dims (little
# endian), then row-major complex doubles


def save_matrix(path, m: np.ndarray):
    m = np.ascontiguousarray(m, dtype="<c16")  # the one copy, if any
    if m.ndim != 2:
        raise ValueError("only 2-d matrices are stored")
    header = _MAGIC + _DTYPE_TAG + struct.pack("<QQ", m.shape[0], m.shape[1])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(m.data)


def load_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(24)
        if len(head) != 24 or head[:4] != _MAGIC:
            raise ValueError("not a matrix container file")
        if head[4:8] != _DTYPE_TAG:
            raise ValueError(f"unsupported dtype tag {head[4:8]!r}")
        rows, cols = struct.unpack("<QQ", head[8:24])
        data = np.frombuffer(fh.read(), dtype="<c16")
    if data.size != rows * cols:
        raise ValueError("container payload truncated")
    return data.reshape(rows, cols).astype(complex)


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "real": m.real.tolist(),
        "imag": m.imag.tolist(),
    }


def matrix_from_json(d: dict) -> np.ndarray:
    m = np.array(d["real"], dtype=float) + 1j * np.array(d["imag"], dtype=float)
    if m.shape != (d["rows"], d["cols"]):
        raise ValueError("matrix json shape mismatch")
    return m
