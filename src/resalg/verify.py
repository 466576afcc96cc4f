"""Numerical certification of the resolvent-family identities.

Each identity is turned into a residual: the spectral norm of a compressed
block of (left side - right side) evaluated at a ladder of truncation levels.
Identities that hold exactly in finite matrix algebra (pseudo-resolvent
difference, adjoint symmetry, zero-direction scalar, scaling covariance) must
sit at solver precision for every level.  Identities that involve two
non-commuting directions pick up boundary defects, so for those a convergence
protocol applies: residuals must not grow along the ladder (10% slack, with a
small absolute noise floor) and the final residual must clear the tolerance.

All checks are pure functions of immutable inputs and are independent of one
another; the suite merely runs them in a fixed order and merges the results.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial, reduce

import numpy as np

from resalg import fock, symplectic
from resalg.expr import DomainError, Expr, check_dimension, derivation, parse

FAMILY_ORDER = (
    "pseudo",
    "adjoint",
    "zero_vector",
    "rel_i",
    "rel_ii",
    "rel_iii",
    "rel_iv",
    "almost_inner",
)

EXACT_TOL = 1e-9
CONVERGENCE_SLACK = 1.1
NOISE_FLOOR = 1e-12
SIGMA_CROSS_TOL = 1e-8
# bytes of box solves a SolverCache keeps; a box solve past them is
# recomputed, with the same bits
BOX_MEMO_BYTES = 16 * 2**20

_PROBE_MONOMIAL = re.compile(r"^(I|[QP][0-9]+(\*[QP][0-9]+)*)$")


class ConfigError(ValueError):
    """Raised when a suite configuration is malformed."""


@dataclass(frozen=True)
class RelationCheck:
    """One certified identity: a residual per truncation level plus verdict."""

    relation: str
    params: dict
    truncations: tuple
    compression: int
    residuals: tuple
    tolerance: float
    verdict: bool
    seed: int = 0

    def __post_init__(self):
        if len(self.residuals) != len(self.truncations):
            raise ValueError("one residual per truncation level required")

    def to_report(self) -> dict:
        params = dict(self.params)
        params["compression"] = self.compression
        return {
            "relation": self.relation,
            "params": params,
            "truncations": [int(n) for n in self.truncations],
            "residuals": [float(r) for r in self.residuals],
            "tolerance": float(self.tolerance),
            "verdict": "pass" if self.verdict else "fail",
            "seed": int(self.seed),
        }


def _verdict(residuals, tol: float, exact: bool) -> bool:
    if not residuals or not all(map(math.isfinite, residuals)):
        return False
    if exact:
        return all(r <= tol for r in residuals)
    ok = residuals[-1] <= tol
    for prev, nxt in zip(residuals, residuals[1:]):
        if nxt > max(CONVERGENCE_SLACK * prev, NOISE_FLOOR):
            ok = False
    return ok


class SolverCache:
    """Per-representation memo of factored resolvents, generators, box
    selections, box solves and rel_iii's solves of its Gaussian block.
    Every block it hands out is read-only."""

    def __init__(self, rep: fock.FockRep):
        self.rep = rep
        self._solvers = {}
        self._generators = {}
        self._boxes = {}
        self._box_solves = {}
        self._box_bytes = 0
        self._gaussian_solves = {}

    def solver(self, z, f) -> fock.ResolventSolver:
        key = (complex(z), tuple(float(x) for x in f))
        if key not in self._solvers:
            self._solvers[key] = fock.ResolventSolver(self.rep, key[0], key[1])
        return self._solvers[key]

    def box(self, m: int) -> tuple:
        """(idx, sel), read-only: the indices of the states below the cutoff
        m in every mode, and the columns of the identity at those indices."""
        if m not in self._boxes:
            idx = fock.box_indices(self.rep, m)
            sel = np.zeros((self.rep.dim, len(idx)), dtype=complex)
            sel[idx, np.arange(len(idx))] = 1.0
            idx.setflags(write=False)
            sel.setflags(write=False)
            self._boxes[m] = idx, sel
        return self._boxes[m]

    def box_solve(self, z, f, m: int) -> np.ndarray:
        """R(z, f) applied to the box columns `sel` of cutoff m; read-only.
        The first blocks, up to BOX_MEMO_BYTES, are kept for the whole
        suite, so each is solved once per (z, f, m).  Products of two or
        more resolvents are not kept: they would hold a block per chain."""
        key = (complex(z), tuple(float(x) for x in f), m)
        block = self._box_solves.get(key)
        if block is None:
            block = self.solver(z, f).apply(self.box(m)[1])
            block.setflags(write=False)
            if self._box_bytes + block.nbytes <= BOX_MEMO_BYTES:
                self._box_solves[key] = block
                self._box_bytes += block.nbytes
        return block

    def gaussian_solve(self, z, f) -> np.ndarray:
        """R(z, f) applied to `_gaussian_block(dim)`; read-only and kept for
        the whole suite, so rel_iii's scales share one solve per (z, f).
        These blocks are NORM_BOUND_COLUMNS wide, one per direction, and
        are kept apart from BOX_MEMO_BYTES."""
        key = (complex(z), tuple(float(x) for x in f))
        if key not in self._gaussian_solves:
            block = self.solver(*key).apply(_gaussian_block(self.rep.dim))
            block.setflags(write=False)
            self._gaussian_solves[key] = block
        return self._gaussian_solves[key]

    def generator(self, f) -> fock.PatternMatrix:
        """G_f on the representation's row stencil."""
        key = tuple(float(x) for x in f)
        if key not in self._generators:
            self._generators[key] = fock.generator(self.rep, key)
        return self._generators[key]


# rel_iii's randomized norm bound (`_norm_bound`): NORM_BOUND_FACTOR times the
# largest image of NORM_BOUND_COLUMNS seeded Gaussian columns, below the
# spectral norm with probability at most FACTOR**(-2 * COLUMNS) = 1e-12
NORM_BOUND_FACTOR = 10.0
NORM_BOUND_COLUMNS = 6


@lru_cache(maxsize=16)
def _gaussian_block(n: int) -> np.ndarray:
    """Omega of `_norm_bound` for dimension n, drawn once per dimension
    (`fock.complex_gaussians` of seed 0); read-only."""
    omega = fock.complex_gaussians(0, (n, NORM_BOUND_COLUMNS))
    omega.setflags(write=False)
    return omega


def _norm_bound(matvec, n: int) -> float:
    """A randomized upper bound on the spectral norm of the n x n operator
    A: x -> matvec(x), from one block product (Dixon 1983; Halko, Martinsson
    & Tropp 2011, section 4.3): `_image_bound` of A Omega.

    Omega (`_gaussian_block`) holds r = NORM_BOUND_COLUMNS complex Gaussian
    columns with E|omega_j|^2 = 1, drawn by `fock.complex_gaussians` from
    seed 0, and the bound is alpha * max_i |A omega_i| with alpha =
    NORM_BOUND_FACTOR.  Why it holds: let v be a top right singular vector
    of A.  Then |A omega| >= sigma_1 |v* omega|, and v* omega is a standard
    complex Gaussian, so |v* omega|^2 ~ Exp(1) and P(|v* omega| < 1/alpha) =
    1 - exp(-alpha^-2) <= alpha^-2.
    The columns are independent, so P(sigma_1 > alpha max_i |A omega_i|)
    <= alpha^(-2r), 1e-12 at alpha = 10, r = 6.  The seed is fixed, so the
    bound is reproducible, not certain.  The zero operator gives exactly
    0.0.  The column norms are taken by einsum, which stays off threaded
    BLAS, so the result does not depend on the BLAS thread count.
    """
    return _image_bound(matvec(_gaussian_block(n)))


def _image_bound(image: np.ndarray) -> float:
    """The bound of `_norm_bound`, given the image A Omega."""
    squares = np.einsum("ij,ij->j", image.conj(), image).real
    return NORM_BOUND_FACTOR * math.sqrt(squares.max())


def _space(space, caches) -> symplectic.SymplecticSpace:
    return space if space is not None else caches[0].rep.space


def _scalar_param(z):
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def _params(f=None, g=None, lam=None, mu=None, c=None, probe=None, sigma=None):
    """Report params of one check; arguments left at None are omitted."""
    params = {}
    for key, vec in (("f", f), ("g", g)):
        if vec is not None:
            params[key] = [float(x) for x in vec]
    for key, z in (("lambda", lam), ("mu", mu), ("c", c)):
        if z is not None:
            params[key] = _scalar_param(z)
    if probe is not None:
        params["probe"] = probe
    if sigma is not None:
        params["sigma"] = sigma
    return params


def _check(relation, caches, params, m, tol, exact, residual) -> RelationCheck:
    """The ladder driver: one residual per `SolverCache`, then the verdict.

    `residual(cache, idx, sel)` returns the box block of (left side - right
    side), whose spectral norm is the level's residual.  With m None the
    check is a full-norm one, reported with compression 0:
    `residual(cache, None, None)` returns the norm itself.
    """
    residuals = []
    for cache in caches:
        if m is None:
            residuals.append(residual(cache, None, None))
            continue
        idx, sel = cache.box(m)
        # what norm(block, 2) computes, without its argument handling
        block = residual(cache, idx, sel)
        residuals.append(float(np.linalg.svd(block, compute_uv=False).max()))
    return RelationCheck(
        relation=relation,
        params=params,
        truncations=tuple(c.rep.levels for c in caches),
        compression=0 if m is None else m,
        residuals=tuple(residuals),
        tolerance=tol,
        verdict=_verdict(residuals, tol, exact=exact),
    )


# ---------------------------------------------------------------------------
# individual checks


def _pseudo_block(a, b, ax: np.ndarray, bx: np.ndarray) -> np.ndarray:
    """(R_a - R_b - i(z_b - z_a) R_a R_b) x for the solvers a and b at z_a
    and z_b, given ax = R_a x and bx = R_b x: the pseudo-resolvent residual
    applied to the columns x."""
    block = ax - bx
    block -= 1j * (b.z - a.z) * a.apply(bx)
    return block


def check_pseudo_resolvent(caches, f, lam, mu, m):
    """R(lam,f) - R(mu,f) = i(mu-lam) R(lam,f) R(mu,f), exact in matrix algebra."""
    if complex(lam) == complex(mu):
        raise ValueError("pseudo-resolvent check needs two distinct parameters")

    def residual(cache, idx, sel):
        a, b = cache.solver(lam, f), cache.solver(mu, f)
        return _pseudo_block(a, b, cache.box_solve(lam, f, m), cache.box_solve(mu, f, m))[idx]

    return _check("pseudo", caches, _params(f, lam=lam, mu=mu), m, EXACT_TOL, True, residual)


def check_adjoint_symmetry(caches, f, lam, m):
    """R(lam,f)* = R(-conj(lam),f), exact in matrix algebra."""

    def residual(cache, idx, sel):
        left = cache.box_solve(lam, f, m)[idx].conj().T
        right = cache.box_solve(-complex(lam).conjugate(), f, m)[idx]
        return left - right

    return _check("adjoint", caches, _params(f, lam=lam), m, EXACT_TOL, True, residual)


def check_zero_vector(caches, lam, m):
    """R(lam,0) = (1/(i lam))*1, exact in matrix algebra."""

    def residual(cache, idx, sel):
        zero = (0.0,) * cache.rep.space.dim
        block = cache.box_solve(lam, zero, m)[idx]
        block -= (1.0 / (1j * complex(lam))) * np.eye(len(idx))
        return block

    return _check("zero_vector", caches, _params(lam=lam), m, EXACT_TOL, True, residual)


def check_relation_i(caches, f, g, lam, mu, m, tol=1e-6, space=None):
    """[R(lam,f), R(mu,g)] = i sigma(f,g) R(lam,f) R(mu,g)^2 R(lam,f)."""
    sig = symplectic.pair(_space(space, caches), f, g)

    def residual(cache, idx, sel):
        a = cache.solver(lam, f)
        b = cache.solver(mu, g)
        ba = b.apply(cache.box_solve(lam, f, m))
        block = a.apply(cache.box_solve(mu, g, m)) - ba
        block -= 1j * sig * a.apply(b.apply(ba))
        return block[idx]

    params = _params(f, g, lam, mu, sigma=sig)
    return _check("rel_i", caches, params, m, tol, False, residual)


def check_relation_ii(caches, f, g, lam, mu, m, tol=1e-6, space=None):
    """R(lam+mu,f+g)(R(lam,f)+R(mu,g)+i sigma(f,g) R(lam,f)^2 R(mu,g))
    = R(lam,f) R(mu,g); needs lam, mu, lam+mu away from the imaginary axis."""
    lam, mu = complex(lam), complex(mu)
    if lam.real == 0.0 or mu.real == 0.0 or (lam + mu).real == 0.0:
        raise DomainError(
            "additivity check requires Re(lam), Re(mu), Re(lam+mu) all nonzero"
        )
    sig = symplectic.pair(_space(space, caches), f, g)
    fg = tuple(float(x) + float(y) for x, y in zip(f, g))

    def residual(cache, idx, sel):
        a = cache.solver(lam, f)
        b = cache.solver(mu, g)
        s = cache.solver(lam + mu, fg)
        b_sel = cache.box_solve(mu, g, m)
        ab = a.apply(b_sel)
        inner = cache.box_solve(lam, f, m) + b_sel
        inner += 1j * sig * a.apply(ab)
        block = s.apply(inner) - ab
        return block[idx]

    params = _params(f, g, lam, mu, sigma=sig)
    return _check("rel_ii", caches, params, m, tol, False, residual)


def check_relation_iii(caches, f, lam, c):
    """c R(c lam, c f) = R(lam, f), exact in matrix algebra; full-norm check.

    The residual is `_norm_bound` of the difference, applied to its block of
    random columns, so neither resolvent is formed.  R(lam, f) Omega comes
    from the level's memo (`SolverCache.gaussian_solve`), which every scale
    c shares, and R(c lam, c f) Omega is one solve.
    """
    c = complex(c)
    if c == 0 or c.imag != 0.0:
        raise ValueError("scaling parameter c must be real and nonzero")
    cf = tuple(c.real * float(x) for x in f)

    def residual(cache, idx, sel):
        scaled = cache.solver(c * complex(lam), cf)
        plain = cache.gaussian_solve(lam, f)
        return _image_bound(c * scaled.apply(_gaussian_block(cache.rep.dim)) - plain)

    return _check("rel_iii", caches, _params(f, lam=lam, c=c), None, EXACT_TOL, True, residual)


def check_relation_iv(caches, f, g, mu, m, tol=1e-6, space=None):
    """i[G_f, R(mu,g)] = sigma(f,g) R(mu,g)^2."""
    sig = symplectic.pair(_space(space, caches), f, g)

    def residual(cache, idx, sel):
        b = cache.solver(mu, g)
        gf = cache.generator(f)
        b_sel = cache.box_solve(mu, g, m)
        block = 1j * (gf @ b_sel - b.apply(gf.columns(idx)))
        block -= sig * b.apply(b_sel)
        return block[idx]

    params = _params(f, g, mu=mu, sigma=sig)
    return _check("rel_iv", caches, params, m, tol, False, residual)


def _probe_monomial(cache: SolverCache, pattern: str):
    """The function x -> A x for a monomial A in the canonical pair, which
    applies its factors to x in turn, rightmost first."""
    factors = []
    for token in () if pattern == "I" else pattern.split("*"):
        mode = int(token[1:]) - 1
        if not 0 <= mode < cache.rep.modes:
            raise ValueError(f"probe {pattern!r} references mode {mode + 1}")
        # the generator along a coordinate direction is Q_k or P_k itself
        unit = np.zeros(cache.rep.space.dim)
        unit[2 * mode if token[0] == "Q" else 2 * mode + 1] = 1.0
        factors.append(cache.generator(unit))
    return lambda x: reduce(lambda y, g: g @ y, reversed(factors), x)


def check_almost_inner(caches, f, lam, probe, m, tol=1e-6, space=None):
    """R(lam,f) d_f(A) R(lam,f) = i[A, R(lam,f)] for a probe operator A.

    String probes name monomials in the canonical pair ("Q1", "Q1*P1", "I");
    their derivative is taken as the commutator i[G_f, A], which makes the
    identity exact in matrix algebra.  Expression probes go through the
    symbolic derivation rule instead, which is where truncation shows up, so
    they fall under the convergence protocol; they and their derivation are
    applied to the box columns by solves (`fock.apply_expr`), never formed.
    """
    if isinstance(probe, Expr):
        probe_id, probe_expr = str(probe), probe
    elif isinstance(probe, str) and _PROBE_MONOMIAL.match(probe):
        probe_id, probe_expr = probe, None
    elif isinstance(probe, str):
        probe_id, probe_expr = probe, parse(probe)
    else:
        raise TypeError("probe must be a monomial name or an expression")
    exact = probe_expr is None
    if not exact:
        deriv_expr = derivation(_space(space, caches), f, probe_expr)

    def residual(cache, idx, sel):
        a = cache.solver(lam, f)
        if exact:  # d_f(A) = i[G_f, A], by products with G_f and the factors of A
            apply_probe, gf = _probe_monomial(cache, probe_id), cache.generator(f)

            def apply_deriv(x):
                return 1j * (gf @ apply_probe(x) - apply_probe(gf @ x))
        else:  # by solves, with the letters factored in the level's cache
            apply_probe = partial(fock.apply_expr, probe_expr, solver=cache.solver)
            apply_deriv = partial(fock.apply_expr, deriv_expr, solver=cache.solver)
        x = cache.box_solve(lam, f, m)
        block = a.apply(apply_deriv(x))
        block -= 1j * (apply_probe(x) - a.apply(apply_probe(sel)))
        return block[idx]

    params = _params(f, lam=lam, probe=probe_id)
    return _check(
        "almost_inner", caches, params, m, EXACT_TOL if exact else tol, exact, residual
    )


# ---------------------------------------------------------------------------
# configuration


def _default_vectors(modes: int) -> tuple:
    dim = 2 * modes
    basis = tuple(
        tuple(1.0 if j == i else 0.0 for j in range(dim)) for i in range(dim)
    )
    return basis + ((1.0,) * dim,)


def _integer(value) -> int:
    """An integral number, as an int; a bool or a string is not one."""
    if not _number(value).is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _number(value) -> float:
    """A real number as a float; a bool or a string is not one, and an
    integer beyond the float range is not finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{value!r} is not a number")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{value} is not finite") from exc


def _real(value) -> float:
    """A finite real number; inf and nan are not."""
    if not math.isfinite(x := _number(value)):
        raise ValueError(f"{value!r} is not finite")
    return x


def _spectral(value) -> complex:
    """A finite real or complex number, or [re, im]."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_real(value[0]), _real(value[1]))
    z = value if isinstance(value, complex) else complex(_real(value))
    return complex(_real(z.real), _real(z.imag))


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{value!r} is not a string")
    return value


def _list(read, unique=False):
    """Reader of a list (or tuple) of items that `read` takes, as a tuple."""

    def read_list(value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{value!r} is not a list")
        items = (read(x) for x in value)  # once each if unique, first seen first
        return tuple(dict.fromkeys(items) if unique else items)

    return read_list


def _optional(read):
    return lambda value: None if value is None else read(value)


def _space_config(value) -> dict:
    """A space description: its `n` an integer and its `form` rows of
    finite reals; `space_from_config` checks the rest."""
    if not isinstance(value, dict):
        raise ValueError(f"{value!r} is not an object")
    read = {"n": _integer, "form": _list(_list(_real))}
    return {key: read.get(key, lambda x: x)(x) for key, x in value.items()}


# How each Config field is read.  Config(...), Config.from_dict and
# dataclasses.replace all pass every field through its reader, then the
# cross-field checks run.  `symplectic.space_from_config` builds `space`.
# A repeated scale, vector or probe is read once: no check runs twice.
_READERS = {
    "modes": _integer,
    "truncations": _list(_integer),
    "compression": _integer,
    "tolerance": _real,
    "seed": _integer,
    "space": _optional(_space_config),
    "lambdas": _list(_spectral),
    "scales": _list(_real, unique=True),
    "vectors": _optional(_list(_list(_real), unique=True)),
    "probes": _list(_string, unique=True),
    "families": _optional(_list(_string)),
    "max_dim": _integer,
}


def _json_value(value):
    """A field value as JSON: a tuple as a list, a complex by `_scalar_param`."""
    if isinstance(value, tuple):
        return [_json_value(x) for x in value]
    return _scalar_param(value) if isinstance(value, complex) else value


@dataclass(frozen=True)
class Config:
    """Suite configuration; validated eagerly so bad files fail fast."""

    modes: int = 1
    truncations: tuple = (64, 128, 256)
    compression: int = 6
    tolerance: float = 1e-6
    seed: int = 0
    space: dict = None  # bilinear-form description; only the standard form is accepted
    lambdas: tuple = (1.0, -1.0, 2.0)
    scales: tuple = (-1.0, 0.5, 2.5)
    vectors: tuple = None  # None means basis directions plus the diagonal
    probes: tuple = ()
    families: tuple = None  # None means all applicable
    max_dim: int = fock.DEFAULT_MAX_DIM

    def __post_init__(self):
        for name, read in _READERS.items():
            try:
                object.__setattr__(self, name, read(getattr(self, name)))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad {name}: {exc}") from exc
        if self.modes < 1:
            raise ConfigError("modes must be a positive integer")
        if self.seed < 0:  # random.Random(-s) would draw the probes of seed s
            raise ConfigError(f"bad seed: {self.seed} is negative")
        trunc = self.truncations
        if not trunc:
            raise ConfigError("truncation list must be nonempty")
        if any(n < 2 for n in trunc) or list(trunc) != sorted(set(trunc)):
            raise ConfigError("truncation list must be strictly ascending, each >= 2")
        if trunc[-1] ** self.modes > self.max_dim:
            raise ConfigError(
                f"dimension {trunc[-1]}**{self.modes} exceeds the memory cap "
                f"{self.max_dim}"
            )
        if not 1 <= self.compression <= trunc[0]:
            raise ConfigError("compression cutoff must lie in [1, smallest truncation]")
        if not self.tolerance > 0.0:
            raise ConfigError("tolerance must be positive")
        if not self.lambdas or any(z.real == 0.0 for z in self.lambdas):
            raise ConfigError("every spectral parameter needs a nonzero real part")
        repeat = next((z for i, z in enumerate(self.lambdas) if z in self.lambdas[:i]), None)
        if repeat is not None:  # the pair grids would pair it with itself
            raise ConfigError(f"spectral parameter {_scalar_param(repeat)} is repeated")
        if any(c == 0.0 for c in self.scales):
            raise ConfigError("scaling parameters must be nonzero")
        if self.vectors is None:
            object.__setattr__(self, "vectors", _default_vectors(self.modes))
        if any(len(v) != 2 * self.modes for v in self.vectors):
            raise ConfigError(
                f"every vector must have {2 * self.modes} coordinates"
            )
        for probe in self.probes:  # a monomial's modes are checked when it runs
            if not _PROBE_MONOMIAL.match(probe):
                try:
                    check_dimension(parse(probe), 2 * self.modes)
                except ValueError as exc:
                    raise ConfigError(f"bad probes: {probe!r}: {exc}") from exc
        fams = self.families
        if fams is not None:
            if not fams:
                raise ConfigError("families must name at least one family")
            unknown = [x for x in fams if x not in FAMILY_ORDER]
            if unknown:
                raise ConfigError(f"unknown relation families: {unknown}")
            empty = [row[0] for row in _suite_table(self) if row[0] in fams and not row[-1]]
            if empty:
                raise ConfigError(f"families {empty} have no grid points to check")
        if self.space is not None:
            try:
                space = self.space_object()
            except (TypeError, ValueError) as exc:
                raise ConfigError(str(exc)) from exc
            if space.dim != 2 * self.modes:
                raise ConfigError("space dimension does not match mode count")
            # the Fock representation realizes only the standard form
            if not space.is_standard():
                raise ConfigError("only the standard symplectic form is supported")

    def space_object(self) -> symplectic.SymplecticSpace:
        if self.space is None:
            return symplectic.standard_space(self.modes)
        return symplectic.space_from_config(self.space)

    def enabled_families(self) -> tuple:
        """The named families, or else every family with grid points."""
        if self.families is not None:
            return self.families
        return tuple(row[0] for row in _suite_table(self) if row[-1])

    def to_dict(self) -> dict:
        out = {info.name: _json_value(getattr(self, info.name)) for info in fields(self)}
        return {"schema_version": 1, **out}

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        data = dict(data)
        version = data.pop("schema_version", 1)
        if version != 1:
            raise ConfigError(f"unsupported config schema version {version}")
        unknown = set(data) - set(_READERS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str, **overrides) -> "Config":
        """The config of a JSON object, `overrides` in place of its fields."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict({**data, **overrides})


# ---------------------------------------------------------------------------
# suite


@dataclass(frozen=True)
class SuiteResult:
    """All checks from one configuration plus the cross-validation scalar.

    If the cross-validation fails, `sigma_cross_max` is infinite and
    `sigma_cross_error` says why; the suite then does not pass.
    """

    config: Config
    checks: tuple
    sigma_cross_max: float
    sigma_cross_error: str = None

    def __iter__(self):
        return iter(self.checks)

    def __len__(self):
        return len(self.checks)

    def __getitem__(self, item):
        return self.checks[item]

    @property
    def all_pass(self) -> bool:
        checks_pass = bool(self.checks) and all(c.verdict for c in self.checks)
        return checks_pass and self.sigma_cross_error is None

    def families(self) -> tuple:
        present = {c.relation for c in self.checks}
        return tuple(x for x in FAMILY_ORDER if x in present)

    def to_report(self) -> dict:
        report = {
            "schema_version": 1,
            "config": self.config.to_dict(),
            "families": list(self.families()),
            "checks": [c.to_report() for c in self.checks],
            "sigma_cross_max": float(self.sigma_cross_max),
            "all_pass": self.all_pass,
        }
        if self.sigma_cross_error is not None:
            report["sigma_cross_error"] = self.sigma_cross_error
        return report


def _distinct_pairs(values):
    values = list(values)
    return [(a, b) for i, a in enumerate(values) for b in values[i + 1 :]]


def _suite_table(config: Config) -> tuple:
    """The relation table: one (relation, check, tolerance, keywords, grid)
    row per family in report order.  `keywords` names the suite-wide
    arguments (`m`, `tol`, `space`) the check takes; a grid point holds the
    rest.  Each build reads the checks from the module, so wrappers apply."""
    lambdas, vectors, tol = config.lambdas, config.vectors, config.tolerance
    lam0 = lambdas[0]
    lam_pairs = dict.fromkeys([(lam0, lam0), (lam0, lambdas[-1])])  # once for one lambda
    vec_pairs = _distinct_pairs(vectors)
    box, converging = ("m",), ("m", "tol", "space")
    return (
        ("pseudo", check_pseudo_resolvent, EXACT_TOL, box, [
            dict(f=f, lam=lam, mu=mu)
            for lam, mu in _distinct_pairs(lambdas) for f in vectors
        ]),
        ("adjoint", check_adjoint_symmetry, EXACT_TOL, box, [
            dict(f=f, lam=lam) for lam in lambdas for f in vectors
        ]),
        ("zero_vector", check_zero_vector, EXACT_TOL, box, [
            dict(lam=lam) for lam in lambdas
        ]),
        ("rel_i", check_relation_i, tol, converging, [
            dict(f=f, g=g, lam=lam, mu=mu) for lam, mu in lam_pairs for f, g in vec_pairs
        ]),
        ("rel_ii", check_relation_ii, tol, converging, [
            dict(f=f, g=g, lam=lam, mu=mu)
            for lam, mu in lam_pairs if (complex(lam) + complex(mu)).real != 0.0
            for f, g in vec_pairs
        ]),
        ("rel_iii", check_relation_iii, EXACT_TOL, (), [
            dict(f=f, lam=lam0, c=c) for c in config.scales for f in vectors
        ]),
        ("rel_iv", check_relation_iv, tol, converging, [
            dict(f=f, g=g, mu=lam0) for f in vectors for g in vectors if f != g
        ]),
        ("almost_inner", check_almost_inner, tol, converging, [
            dict(f=f, lam=lam0, probe=probe) for probe in config.probes for f in vectors
        ]),
    )


def run_suite(config: Config) -> SuiteResult:
    """Runs every enabled family over the configured grid.

    A check that raises is recorded as failed (with the error message in its
    params) and the suite continues; a failed sigma cross-validation is
    recorded in the result.  Deterministic for a fixed config.
    """
    space = config.space_object()
    caches = [
        SolverCache(fock.build_rep(config.modes, n, config.max_dim))
        for n in config.truncations
    ]
    shared = {"m": config.compression, "tol": config.tolerance, "space": space}
    enabled = config.enabled_families()
    checks = []
    for relation, check_fn, tol, keywords, grid in _suite_table(config):
        if relation not in enabled:
            continue
        kwargs = {k: shared[k] for k in keywords}
        for point in grid:
            try:
                check = check_fn(caches, **point, **kwargs)
            except Exception as exc:  # noqa: BLE001 - a failed check must not kill the suite
                error = f"{type(exc).__name__}: {exc}"
                check = RelationCheck(
                    relation=relation,
                    params=dict(_params(**point), error=error),
                    truncations=config.truncations,
                    compression=kwargs.get("m", 0),
                    residuals=(math.inf,) * len(config.truncations),
                    tolerance=tol,
                    verdict=False,
                )
            checks.append(replace(check, seed=config.seed))
    sigma_cross_max, sigma_cross_error = _sigma_cross_validation(
        caches[-1], space, config.vectors, config.compression, config.seed
    )
    return SuiteResult(config, tuple(checks), sigma_cross_max, sigma_cross_error)


def _sigma_cross_validation(cache, space, vectors, m, seed) -> tuple:
    """Pins the bilinear pairing against the scalar extracted from the
    commutator of two field generators.  Returns (largest gap, None), or
    (inf, reason) at the first pair where they disagree."""
    worst = 0.0
    pairs = _distinct_pairs(vectors)
    probed = pairing_probes(cache, space, pairs, m, seed)
    for (f, g), (report, target, gap, ok) in zip(pairs, probed):
        if not ok:
            return math.inf, (
                f"commutator scalar {report.mean} disagrees with the pairing "
                f"{target} for f={f}, g={g} (gap {gap:.3e})"
            )
        worst = max(worst, gap)
    return worst, None


def pairing_probes(cache: SolverCache, space, pairs, m: int, seed: int):
    """Schur-probes K = -i[G_f, G_g] on the box idx of cutoff m against
    sigma(f, g), which K acts as below the truncation boundary, for each
    pair (f, g).  G_v is self-adjoint and maps the box into the box `near`
    of cutoff m + 1 (N at most), so only its stencil rows on both are read:
    a basis column's quotient is K_jj = 2 Im sum_t G_f[j, c_t] conj(G_g[j,
    c_t]) over j's slots t, and (G_v phi)[near] is formed once per vector
    for the random probes phi.  Yields (report, sigma(f, g), gap, ok) per
    pair, ok when K is scalar and the gap is at most SIGMA_CROSS_TOL."""
    rep, idx = cache.rep, fock.box_indices(cache.rep, m)
    near = fock.box_indices(rep, min(m + 1, rep.levels))
    full = np.zeros((rep.dim, fock.RANDOM_PROBES), dtype=complex)  # phi, zero off the box
    full[idx] = phi = fock.random_probes(seed, len(idx))
    gathered, on_near = full[rep.cols[:, near]], np.searchsorted(near, rep.cols[:, idx])
    stencils = {}  # v: (G_v's stencil rows on idx, (G_v phi)[near])
    for v, data in {tuple(v): cache.generator(v).data for p in pairs for v in p}.items():
        stencils[v] = data[:, idx], np.einsum("tr,tr...->r...", data[:, near], gathered)
    for f, g in pairs:
        (d_f, image_f), (d_g, image_g) = stencils[tuple(f)], stencils[tuple(g)]
        k_phi = -1j * (np.einsum("tj,tj...->j...", d_f, image_g[on_near])
                       - np.einsum("tj,tj...->j...", d_g, image_f[on_near]))
        diag = 2.0 * np.einsum("tj,tj->j", d_f, d_g.conj()).imag  # K on the basis columns
        report = fock.schur_report(np.concatenate([diag, fock.rayleigh_quotients(phi, k_phi)]))
        target = symplectic.pair(space, f, g)
        gap = abs(report.mean - target)
        yield report, target, gap, report.is_scalar and gap <= SIGMA_CROSS_TOL
