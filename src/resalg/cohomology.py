"""Correction machinery for gauged generator families.

A gauge attaches a real constant to each lattice direction, modelling the
per-direction ambiguity G_f -> G_f + c(f)*1 of the field generators.  The
failure of additivity of a gauged family is measured by the symmetric
2-cocycle xi(f,g) = c(f)+c(g)-c(f+g), extracted operatorically by probing
G'_f + G'_g - G'_{f+g} for its scalar value.  Solving the coboundary
equation gamma(f)+gamma(g)-gamma(f+g) = xi(f,g) on the lattice, then
sampling per-axis scaling defects zeta on a scalar grid, yields corrections
that make the family exactly additive and homogeneous.  Finally, two
admissible families generating the same algebra differ per direction by a
recoverable scalar shift.

Everything runs on an integer lattice box [-B,B]^d.  Every lattice table
(the gauge, the potential, the family shifts, and xi with one axis per
argument) is a float array in `lattice_points` order.  The gauge, the
potential and the shifts are total on the box, so each of their lattice
identities is one coboundary delta (`_coboundary`); only xi holds NaN, at
the pairs whose sum leaves the box.  Only the JSON gauge files and the
report name points as coordinate lists.  All extractions go through scalar
probing of the candidate operator rather than reading the closed form, so
the tests can use the closed form as an independent oracle.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cache

import numpy as np

from resalg import fock, verify

DEFAULT_BOX = 3
DEFAULT_SCALAR_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)
DEFAULT_CUTOFF = 6

COCYCLE_TOL = 1e-10
SWEEP_TOL = 1e-9
ZETA_TOL = 1e-10
IMPROVE_TOL = 1e-10
RECONSTRUCT_TOL = 1e-9
# the Schur-probe tolerance of a scaling defect's Rayleigh quotients
ZETA_PROBE_TOL = 1e-9

_INT_EPS = 1e-9
_RAY_KEY_DIGITS = 12
# in-box pairs whose additivity improve_family also checks by matrix norms
_MATRIX_SAMPLES = 12
# entries of each temporary of a chunked pass over pairs: pairs x probed
# entries in `build_cocycle` (256 KB of complex values), pairs x shifts in
# `verify_cocycle` and rows x points in `_coboundary` (128 KB of doubles)
_CHUNK_ENTRIES = 2**14


class NotScalarError(RuntimeError):
    """An operator expected to be a multiple of the identity is not."""


class PathDependenceError(RuntimeError):
    """Two sweep orders for the coboundary disagree beyond tolerance."""


class AdditivityError(ValueError):
    """A sampled scalar table violates its additivity contract."""


class ImprovementError(RuntimeError):
    """The corrected family misses exact additivity or homogeneity."""


class ReconstructionError(RuntimeError):
    """A recovered shift fails to reproduce the second family."""


def lattice_points(dim: int, box: int):
    """All integer-coordinate points of [-box, box]^dim, lexicographic."""
    return list(itertools.product(range(-box, box + 1), repeat=dim))


def _coords(dim: int, box: int) -> np.ndarray:
    """`lattice_points` as a points x dim integer array."""
    return np.array(lattice_points(dim, box), dtype=np.intp).reshape(-1, dim)


def _index(f, box: int):
    """Position of f in `lattice_points` order; None unless f is an integer
    point of the box."""
    index = 0
    for x in f:
        r = round(float(x))
        if abs(float(x) - r) > _INT_EPS or abs(r) > box:
            return None
        index = index * (2 * box + 1) + r + box
    return index


def _lookup(table: np.ndarray, box: int, what: str, *points) -> float:
    """table's entry at the lattice indices of `points`, one per axis;
    KeyError off the box or where the entry is NaN (undefined)."""
    index = tuple(_index(p, box) for p in points)
    if None in index or np.isnan(table[index]):
        where = ", ".join(str(tuple(p)) for p in points)
        raise KeyError(f"{what} undefined at {where}")
    return float(table[index])


def _ray_key(c: float) -> float:
    return round(float(c), _RAY_KEY_DIGITS)


def _basis(dim: int, axis: int):
    return tuple(1 if i == axis else 0 for i in range(dim))


def _point_index(coords, box: int) -> np.ndarray:
    """Positions in `lattice_points` order of the integer points whose
    coordinates, one array per axis, are `coords`; -1 outside the box."""
    index, inside = 0, True
    for x in coords:
        index = index * (2 * box + 1) + (x + box)
        inside = inside & (np.abs(x) <= box)
    return np.where(inside, index, -1)


@cache
def _addition_table(dim: int, box: int) -> np.ndarray:
    """Points x points table of the index of p_i + p_j, -1 outside the box;
    built once per (dim, box), a row at a time, and read-only."""
    coords = _coords(dim, box)
    table = np.empty((len(coords),) * 2, dtype=np.intp)
    for row, p in zip(table, coords):
        row[:] = _point_index((p + coords).T, box)
    table.setflags(write=False)
    return table


def _coboundary(v: np.ndarray, dim: int, box: int) -> np.ndarray:
    """delta v(f, g) = v(f) + v(g) - v(f+g) of a lattice table v, as a points
    x points table, NaN at the pairs whose sum leaves the box.  Raises
    KeyError where v is NaN at a point a pair inside the box needs."""
    add = _addition_table(dim, box)
    delta = np.add.outer(v, v)
    step = max(1, _CHUNK_ENTRIES // len(v))
    for start in range(0, len(v), step):  # no points x points gather of v
        delta[start : start + step] -= v[add[start : start + step]]
    inside = add >= 0
    delta[~inside] = np.nan
    if np.any(np.isnan(delta) & inside):
        raise KeyError("table undefined at a point of the box")
    return delta


@dataclass(frozen=True)
class _Table:
    """Lattice table, one `lattice_points` axis per argument (`rank` of them),
    read-only; only xi holds NaN.  Raises ValueError for a table of the wrong
    shape or with an infinite value."""

    dim: int
    box: int
    values: np.ndarray
    rank = 1

    def __post_init__(self):
        shape = ((2 * self.box + 1) ** self.dim,) * self.rank
        values = np.asarray(self.values, dtype=float)
        if values.shape != shape:
            raise ValueError(f"table of shape {values.shape}; the box needs {shape}")
        if np.any(np.isinf(values)):
            raise ValueError(f"{type(self).__name__} values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def value(self, *points) -> float:
        return _lookup(self.values, self.box, type(self).__name__, *points)


# ---------------------------------------------------------------------------
# gauges


@dataclass(frozen=True)
class GaugeFunction(_Table):
    """Real constant at every point of the lattice box; vanishes at the
    origin, which takes 0 when undefined.  Raises ValueError naming the first
    other point where the table is NaN."""

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        origin = values.size // 2
        if values.ndim == 1 and values.size and np.isnan(values[origin]):
            values[origin] = 0.0
        object.__setattr__(self, "values", values)
        super().__post_init__()
        if values[origin] != 0.0:
            raise ValueError("gauge must vanish at the origin")
        missing = np.flatnonzero(np.isnan(values))
        if missing.size:
            p = lattice_points(self.dim, self.box)[missing[0]]
            raise ValueError(_undefined_at(p, self.dim, self.box))


def _undefined_at(p, dim: int, box: int) -> str:
    return (
        f"gauge undefined at {p}; the pipeline needs a value at every "
        f"point of the box [-{box}, {box}]^{dim}"
    )


def zero_gauge(dim: int, box: int = DEFAULT_BOX) -> GaugeFunction:
    return GaugeFunction(dim, box, np.zeros((2 * box + 1) ** dim))


def quadratic_gauge(dim: int, box: int = DEFAULT_BOX) -> GaugeFunction:
    squares = [float(sum(x * x for x in p)) for p in lattice_points(dim, box)]
    return GaugeFunction(dim, box, squares)


def random_gauge(dim: int, box: int = DEFAULT_BOX, seed: int = 0) -> GaugeFunction:
    """Uniform values in [-1, 1], drawn in lattice order skipping the origin."""
    side = (2 * box + 1) ** dim
    draws = np.random.default_rng(seed).uniform(-1.0, 1.0, side - 1)
    return GaugeFunction(dim, box, np.insert(draws, side // 2, 0.0))


def gauge_to_json(gauge: GaugeFunction) -> str:
    points = lattice_points(gauge.dim, gauge.box)
    entries = [{"f": list(p), "c": c} for p, c in zip(points, gauge.values.tolist())]
    return json.dumps(entries, sort_keys=True)


def gauge_from_json(text: str) -> GaugeFunction:
    """Reads a list of {"f": point, "c": value}; the box is the largest
    coordinate, at least 1.  Raises ValueError for an entry of another form,
    a point that is not a list of integers, a value that is not a finite
    number (booleans and strings are not numbers), or a point of the box
    (other than the origin) that the file leaves out."""
    entries = json.loads(text)
    if not isinstance(entries, list) or not entries:
        raise ValueError("gauge file must be a nonempty JSON list")
    try:
        for entry in entries:  # a string or an object also iterates
            if not isinstance(entry["f"], list):
                raise ValueError(f"gauge point {entry['f']!r} is not a JSON list")
        points = [[verify._number(x) for x in entry["f"]] for entry in entries]
        values = np.array([verify._number(entry["c"]) for entry in entries])
    except (TypeError, KeyError) as exc:
        raise ValueError(f'entries must be {{"f": point, "c": value}}: {exc}') from exc
    dim = len(points[0])
    if any(len(p) != dim for p in points):
        raise ValueError("inconsistent vector lengths in gauge file")
    coords = np.array(points).reshape(-1, dim)
    off = np.flatnonzero(np.any(~np.isfinite(coords) | (np.trunc(coords) != coords), axis=1))
    if off.size:
        raise ValueError(f"gauge point {entries[off[0]]['f']} is not an integer point")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        n = bad[0]
        raise ValueError(f"gauge value {values[n]} at {tuple(map(int, coords[n]))} not finite")
    box = max(1, int(np.abs(coords).max(initial=0)))
    side = 2 * box + 1
    if side**dim > len(entries) + 1:
        # too few entries to fill the box (the origin may be left out): name
        # the first missing point, with no box table.  Its lattice index is
        # at most the entry count plus one, and so is each coordinate + box
        given = set(map(tuple, coords.tolist()))
        reach = range(-box, min(box, len(entries) + 1 - box) + 1)
        points = itertools.product(reach, repeat=dim)
        missing = next(p for p in points if any(p) and p not in given)
        raise ValueError(_undefined_at(missing, dim, box))
    table = np.full((2 * box + 1) ** dim, np.nan)
    table[_point_index(coords.astype(np.intp).T, box)] = values
    return GaugeFunction(dim, box, table)


# ---------------------------------------------------------------------------
# shifted operator families


@dataclass(frozen=True)
class OperatorFamily:
    """Family f -> G_f + s(f)*1 with shifts tabulated at every point of the
    lattice box, in `lattice_points` order.  A multiple c * e_axis of a basis
    direction that is off the lattice takes the linear extension
    c * s(e_axis); any other point off the lattice raises KeyError.
    """

    rep: fock.FockRep
    box: int
    lattice_shifts: np.ndarray

    def shift(self, f) -> float:
        live = [(ax, float(x)) for ax, x in enumerate(f) if abs(x) > _INT_EPS]
        scale = 1.0
        if len(live) == 1 and _index(f, self.box) is None:  # c * e_axis off the lattice
            [(axis, scale)] = live
            f = _basis(len(f), axis)
        return scale * _lookup(self.lattice_shifts, self.box, "family shift", f)

    def rows(self, points) -> np.ndarray:
        """G_f + s(f)*1 on the row stencil at each row f of `points`."""
        points = np.asarray(points, dtype=float)
        return _family_rows(self.rep, points, [self.shift(p) for p in points.tolist()])


def _family_rows(rep: fock.FockRep, points, shifts) -> np.ndarray:
    """G_p + s*1 on the row stencil for each row p of the points x dim array
    `points` and its shift s in `shifts`, as a points x slots x dim array."""
    data = fock.generator_values(rep, points)
    data[:, rep.diagonal] += np.asarray(shifts, dtype=float)[:, None]
    return data


def family_from_gauge(rep: fock.FockRep, gauge: GaugeFunction) -> OperatorFamily:
    if gauge.dim != rep.space.dim:
        raise ValueError("gauge dimension does not match the representation")
    return OperatorFamily(rep, gauge.box, gauge.values)


def corrected_family(
    rep: fock.FockRep, gauge: GaugeFunction, gamma: "Coboundary"
) -> OperatorFamily:
    """Shifts chi = c - gamma; additive on the lattice, linear along rays."""
    return OperatorFamily(rep, gauge.box, gauge.values - gamma.values)


# ---------------------------------------------------------------------------
# scalar probing


def _probe_scalar(rep: fock.FockRep, k: np.ndarray, cutoff: int, seed: int):
    report = fock.schur_constant(rep, k, cutoff=cutoff, seed=seed)
    if not report.is_scalar or abs(report.mean.imag) > fock.SCHUR_TOL:
        raise NotScalarError(
            f"operator is not a real multiple of the identity "
            f"(mean {report.mean}, max deviation {report.max_deviation:.3e})"
        )
    return report.mean.real


# ---------------------------------------------------------------------------
# cocycles and coboundaries


@dataclass(frozen=True)
class Cocycle(_Table):
    """Symmetric pair table xi(f,g): points x points, NaN off the pairs with
    f+g in the box."""

    rank = 2


def _rayleigh_weights(rep: fock.FockRep, cutoff: int, seed: int):
    """Stencil entries the Schur probe block sees, as (slot, row) indices
    into a value array, and weights that map an operator's values on them to
    its Rayleigh quotients.

    With entry e at (row i_e, column j_e), <phi_c, K phi_c>/<phi_c, phi_c>
    = sum_e K_e W[e,c] for W[e,c] = conj(phi[i_e,c]) phi[j_e,c] / |phi_c|^2.
    The slots past a mode's boundary are dropped, and so are the entries
    whose weights all vanish, outside the probes' support: the box rows.
    """
    probes = fock.probe_block(rep, cutoff, seed)
    norms = np.einsum("ij,ij->j", probes.conj(), probes).real
    idx = fock.box_indices(rep, cutoff)
    cols = rep.cols[:, idx]
    weights = probes[idx].conj() * probes[cols] / norms
    present = cols != idx
    present[rep.diagonal] = True
    slot, k = np.nonzero(present & np.any(weights != 0, axis=2))
    # column by column, rows ascending: the bits of `_probe_rows` depend on it
    order = np.lexsort((idx[k], cols[slot, k]))
    return (slot[order], idx[k[order]]), weights[slot[order], k[order]]


def _probe_rows(rows: np.ndarray, weights: np.ndarray, tol: float, name) -> np.ndarray:
    """Scalar values of the operators whose values on the probed entries are
    `rows`, with `weights` from `_rayleigh_weights`.  Each operator's Rayleigh
    quotients must agree on a real scalar, else NotScalarError names the
    first failing row n by `name(n)`."""
    quotients = rows @ weights
    means = quotients.mean(axis=1)
    devs = np.abs(quotients - means[:, None]).max(axis=1)
    bad = np.flatnonzero(~(devs <= tol) | (np.abs(means.imag) > tol))
    if bad.size:
        n = bad[0]
        raise NotScalarError(
            f"probe at {name(n)} is not a real multiple of the identity "
            f"(mean {complex(means[n])}, max deviation {devs[n]:.3e})"
        )
    return means.real


def build_cocycle(
    rep: fock.FockRep,
    gauge: GaugeFunction,
    cutoff: int = DEFAULT_CUTOFF,
    seed: int = 0,
    rayleigh=None,
) -> Cocycle:
    """Extracts xi over every valid ordered lattice pair.

    The gauged generators of all lattice points are formed in one
    `_family_rows` pass and kept on the entries the probes see.  The probed
    operator of a pair, G'_f + G'_g - G'_{f+g}, is symmetric under swapping
    the pair, so it is combined from those rows for the pairs f <= g in
    lattice order only, row-major, a chunk at a time; each chunk is probed
    by `_probe_rows`, so NotScalarError names the first failing pair, and
    each value is mirrored; sums that overflow fail there too, without
    numpy warnings.  `rayleigh` is `_rayleigh_weights(rep, cutoff, seed)`,
    built here when None.
    """
    points = lattice_points(gauge.dim, gauge.box)
    add = _addition_table(gauge.dim, gauge.box)
    seen, weights = rayleigh or _rayleigh_weights(rep, cutoff, seed)
    family = family_from_gauge(rep, gauge)
    gens = _family_rows(rep, _coords(gauge.dim, gauge.box), family.lattice_shifts)
    gens = gens[:, seen[0], seen[1]]

    values = np.full(add.shape, np.nan)
    rows, cols = np.nonzero(np.triu(add >= 0))
    # chunks of two pairs or more: numpy takes a one-row product as a
    # matrix-vector one, which rounds differently
    chunks = max(1, len(rows) // max(2, _CHUNK_ENTRIES // gens.shape[1]))
    for f, g in zip(np.array_split(rows, chunks), np.array_split(cols, chunks)):
        with np.errstate(over="ignore", invalid="ignore"):
            pair_rows = gens[f] + gens[g] - gens[add[f, g]]
            values[f, g] = values[g, f] = _probe_rows(
                pair_rows, weights, fock.SCHUR_TOL,
                lambda n: f"f={points[f[n]]}, g={points[g[n]]}",
            )
    return Cocycle(dim=gauge.dim, box=gauge.box, values=values)


def verify_cocycle(xi: Cocycle):
    """Checks symmetry and the cocycle identity D(f,g,h) = 0, where

        D(f,g,h) = xi(f,g) + xi(f+g,h) - xi(f,g+h) - xi(g,h)

    is defined on the valid triples, those with f+g, g+h and f+g+h in the
    box.  The table must store exactly the pairs whose sum is in the box,
    else KeyError.  D is evaluated at every stored pair (f,g) but only at
    the shifts h in {0, +-e_1, ..., +-e_d}; returns (ok, max defect), the
    defect being the largest asymmetry or |D| seen.  It passes when the
    defect is at most COCYCLE_TOL / (3dB - 2), for dimension d and box
    radius B, which bounds |D| by COCYCLE_TOL on every valid triple, as
    shown below.

    The shifts suffice.  Expanding each D into xi terms, they cancel in

        D(f,g,h+k) = D(f,g,h) + D(g,h,k) - D(f+g,h,k) + D(f,g+h,k)

    (delta of the coboundary delta xi is zero; K. S. Brown, Cohomology of
    Groups, ch. IV).  Let (f,g,h) be valid with |h|_1 >= 2.  Write h = h' + k
    with k = +-e_i one unit step along a nonzero coordinate of h, in its
    direction, so that h' lies between 0 and h coordinate by coordinate.
    The box is a product of intervals, so h', g+h' (between g and g+h) and
    f+g+h' (between f+g and f+g+h) are in it, and then each of the four
    triples on the right is valid.  Their shifts are h', with |h'|_1 =
    |h|_1 - 1, or the unit k, so by induction on |h|_1, D vanishes on every
    valid triple once it vanishes at the shifts.  The same induction bounds
    |D| at h by (3|h|_1 - 2) times the largest |D| at the shifts, and h is a
    point of the box, so |h|_1 <= dB.  A pass thus implies that the loop
    over all pairs and all h, the tests' reference, passes at COCYCLE_TOL
    (up to the rounding of D's own four terms).  The converse fails only
    for a table whose largest |D| at the shifts lies between COCYCLE_TOL /
    (3dB - 2) and COCYCLE_TOL; an extracted table's are near 1e-15.
    """
    t = xi.values
    stored = ~np.isnan(t)
    if np.any(stored & ~stored.T):
        raise KeyError("cocycle table lacks the mirror of a stored pair")
    add = _addition_table(xi.dim, xi.box)
    inside = add >= 0
    if np.any(stored & ~inside):
        raise KeyError("cocycle table stores a pair whose sum leaves the box")
    if np.any(inside & ~stored):
        raise KeyError("cocycle table lacks a pair whose sum is in the box")
    units = np.eye(xi.dim)
    shifts = [_index(h, xi.box) for h in (0 * units[0], *units, *-units)]
    plus_h, xi_h = add[:, shifts], t[:, shifts]  # g+h and xi(g,h) per shift
    worst = 0.0
    step = max(1, _CHUNK_ENTRIES // (len(t) * len(shifts)))
    for start in range(0, len(t), step):  # the stored pairs of a few rows f
        f, g = np.nonzero(stored[start : start + step])
        f += start
        fg, gh = add[f, g], plus_h[g]
        valid = (gh >= 0) & (plus_h[fg] >= 0)
        defect = t[f, g][:, None] + xi_h[fg] - t[f[:, None], gh] - xi_h[g]
        worst = max(
            worst,
            float(np.max(np.abs(t[f, g] - t[g, f]), initial=0.0)),
            float(np.max(np.abs(defect), where=valid, initial=0.0)),
        )
    return worst <= COCYCLE_TOL / (3 * xi.dim * xi.box - 2), worst


@dataclass(frozen=True)
class Coboundary(_Table):
    """Potential gamma with gamma(f)+gamma(g)-gamma(f+g) = xi(f,g)."""

    sweep_disagreement: float = 0.0


def _solve_sweep(xi: Cocycle, pivot_low: bool) -> np.ndarray:
    points = lattice_points(xi.dim, xi.box)
    origin = len(points) // 2
    # index step of a unit move along each axis
    stride = [(2 * xi.box + 1) ** (xi.dim - 1 - axis) for axis in range(xi.dim)]
    gamma = np.full(len(points), np.nan)
    gamma[[origin, *(origin + s for s in stride)]] = 0.0
    t = xi.values
    for i in sorted(range(len(points)), key=lambda i: sum(map(abs, points[i]))):
        if not np.isnan(gamma[i]):
            continue
        live = [ax for ax, x in enumerate(points[i]) if x != 0]
        axis = min(live) if pivot_low else max(live)
        e = origin + stride[axis]
        if points[i][axis] > 0:
            q = i - stride[axis]
            # gamma(q+e) = gamma(q) + gamma(e) - xi(q,e), with gamma(e)=0
            gamma[i] = gamma[q] - t[q, e]
        else:
            gamma[i] = gamma[i + stride[axis]] + t[i, e]
    return gamma


def solve_coboundary(xi: Cocycle) -> Coboundary:
    """Integrates xi to a potential, normalized to vanish at the origin and
    at each positive basis direction.

    Two independent sweep orders (reducing the highest / the lowest nonzero
    axis first) must agree pointwise; disagreement means the input was not a
    cocycle at tolerance.
    """
    sweep_a = _solve_sweep(xi, pivot_low=False)
    sweep_b = _solve_sweep(xi, pivot_low=True)
    gaps = np.abs(sweep_a - sweep_b)
    if np.any(np.isnan(gaps)):
        raise KeyError("cocycle table lacks a pair the sweeps need")
    worst = float(gaps.max())
    if worst > SWEEP_TOL:
        raise PathDependenceError(
            f"sweep orders disagree by {worst:.3e}; input is not a cocycle"
        )
    return Coboundary(xi.dim, xi.box, sweep_a, sweep_disagreement=worst)


def coboundary_defect(xi: Cocycle, gamma: Coboundary) -> float:
    """Max pointwise error of the defining equation over all stored pairs;
    KeyError when a stored pair's sum leaves the box."""
    t = xi.values
    gap = _coboundary(gamma.values, xi.dim, xi.box)
    gap -= t
    if np.any(np.isnan(gap) & ~np.isnan(t)):
        raise KeyError("cocycle table stores a pair whose sum leaves the box")
    return float(np.nanmax(np.abs(gap, out=gap), initial=0.0))


def character_defect(gauge: GaugeFunction, gamma: Coboundary) -> float:
    """Additivity defect of chi = gamma - c; zero means gamma differs from
    the gauge by an exactly additive character."""
    delta = _coboundary(gamma.values - gauge.values, gauge.dim, gauge.box)
    return float(np.nanmax(np.abs(delta, out=delta), initial=0.0))


# ---------------------------------------------------------------------------
# homogeneity along rays


@dataclass(frozen=True)
class HomogeneityData:
    """Per-axis scaling-defect tables and the assembled lattice correction."""

    dim: int
    box: int
    zeta: dict  # axis -> {scalar -> value}

    def zeta_value(self, axis: int, c) -> float:
        table = self.zeta[axis]
        key = _ray_key(c)
        if key not in table:
            raise KeyError(f"no scaling sample at axis {axis}, scalar {c}")
        return table[key]

    def theta(self, points) -> np.ndarray:
        """The correction theta(f) = sum of zeta_axis(f_axis) over the
        nonzero coordinates of f, axis by axis, at each row f of the points x
        dim array `points`; each distinct coordinate is looked up once."""
        total = np.zeros(len(points))
        for axis, xs in enumerate(np.asarray(points, dtype=float).T):
            scalars, where = np.unique(xs, return_inverse=True)
            ray = [self.zeta_value(axis, c) if abs(c) > _INT_EPS else 0.0 for c in scalars]
            total += np.take(ray, where)
        return total


def extract_zeta(
    family: OperatorFamily,
    axis: int,
    grid=DEFAULT_SCALAR_GRID,
    cutoff: int = DEFAULT_CUTOFF,
    seed: int = 0,
) -> dict:
    """Samples the scaling defect of one basis ray on a scalar grid.

    zeta(c) is the scalar value of G-family(c*e) - c*G-family(e).  The
    operators of the whole grid are combined from value rows and probed by
    one `_probe_rows` product, so NotScalarError names the axis and the
    first failing scalar.  The grid must contain 0 and 1; the samples must
    vanish there and be additive over in-grid sums within ZETA_TOL,
    otherwise the family is inconsistent and this raises.
    """
    return _zeta_tables(family, (axis,), grid, cutoff, seed)[axis]


def _zeta_tables(family: OperatorFamily, axes, grid, cutoff, seed, rayleigh=None) -> dict:
    """`extract_zeta`'s table for each of `axes`, axis by axis, from one
    `_rayleigh_weights` build (`rayleigh`, built here when None) and the
    rows of every axis's rays, built in one pass."""
    grid = [float(c) for c in grid]
    if not any(c == 0.0 for c in grid) or not any(c == 1.0 for c in grid):
        raise ValueError("scalar grid must contain 0 and 1")
    seen, weights = rayleigh or _rayleigh_weights(family.rep, cutoff, seed)
    # per axis, the unit e and then c*e for each c of the grid
    scalars = np.array([1.0, *grid])
    eye = np.eye(family.rep.space.dim)
    rays = family.rows(np.concatenate([np.outer(scalars, eye[axis]) for axis in axes]))
    rays = rays[:, seen[0], seen[1]].reshape(-1, len(scalars), len(seen[0]))
    tables = {}
    for axis, ray in zip(axes, rays):
        zetas = _probe_rows(
            ray[1:] - scalars[1:, None] * ray[0], weights, ZETA_PROBE_TOL,
            lambda n: f"axis {axis}, c={grid[n]}",
        )
        table = tables[axis] = dict(zip(map(_ray_key, grid), zetas.tolist()))
        if abs(table[_ray_key(0.0)]) > ZETA_TOL or abs(table[_ray_key(1.0)]) > ZETA_TOL:
            raise AdditivityError("scaling defect must vanish at 0 and 1")
        keys = sorted(table)
        for a, b in itertools.product(keys, keys):
            target = _ray_key(a + b)
            gap = abs(table[a] + table[b] - table[target]) if target in table else 0.0
            if gap > ZETA_TOL:
                raise AdditivityError(
                    f"scaling samples not additive at {a}+{b} (defect {gap:.3e})"
                )
    return tables


def extract_theta(
    family: OperatorFamily, cutoff: int = DEFAULT_CUTOFF, seed: int = 0, rayleigh=None
) -> HomogeneityData:
    """Assembles per-axis scaling tables on DEFAULT_SCALAR_GRID, extended by
    the integers of the family's lattice box so every lattice point has a
    correction value.  `rayleigh` is as in `build_cocycle`."""
    box, dim = family.box, family.rep.space.dim
    grid = sorted(set(DEFAULT_SCALAR_GRID) | set(map(float, range(-box, box + 1))))
    zeta = _zeta_tables(family, range(dim), grid, cutoff, seed, rayleigh)
    return HomogeneityData(dim=dim, box=box, zeta=zeta)


# ---------------------------------------------------------------------------
# improvement and shift recovery


def improve_family(
    rep: fock.FockRep,
    gauge: GaugeFunction,
    gamma: Coboundary,
    homogeneity: HomogeneityData = None,
) -> OperatorFamily:
    """Builds the corrected family and certifies it additive and homogeneous.

    The shift of the improved family is c - gamma - theta, with theta from
    `HomogeneityData.theta` at every lattice point.  Additivity is checked
    scalar-wise on every in-box pair and by the norms of the defect
    operators of _MATRIX_SAMPLES evenly spaced pairs; homogeneity by defect
    norms along basis rays.  The rows of both matrix checks come from one
    `_family_rows` pass each, and a defect's norm is the Frobenius norm of
    its values on the row stencil, an upper bound on its spectral norm.
    """
    points, box = lattice_points(gauge.dim, gauge.box), gauge.box
    coords = _coords(gauge.dim, box)
    theta = np.zeros(len(points)) if homogeneity is None else homogeneity.theta(coords)
    shifts = gauge.values - gamma.values - theta
    improved = OperatorFamily(rep, box, shifts)

    defects = _coboundary(shifts, gauge.dim, box)
    worst = float(np.nanmax(np.abs(defects, out=defects), initial=0.0))
    if worst > IMPROVE_TOL:
        raise ImprovementError(f"improved family not additive (defect {worst:.3e})")
    rows, cols = np.nonzero(np.triu(~np.isnan(defects)))  # the pairs f <= g in the box
    step = max(1, len(rows) // _MATRIX_SAMPLES)
    f, g = rows[::step], cols[::step]
    at = np.concatenate([f, g, _addition_table(gauge.dim, box)[f, g]])
    gens = _family_rows(rep, coords[at], shifts[at]).reshape(3, len(f), *rep.cols.shape)
    for i, j, gen_f, gen_g, gen_fg in zip(f.tolist(), g.tolist(), *gens):
        defect = np.linalg.norm(gen_f + gen_g - gen_fg)
        if defect > IMPROVE_TOL:
            raise ImprovementError(
                f"matrix additivity defect {defect:.3e} at {points[i]}, {points[j]}"
            )
    # per axis, the unit e and then c*e for each scalar c
    scalars = (1.0, -1.0, 2.0, 0.5, float(box))
    rays = improved.rows(np.concatenate([np.outer(scalars, e) for e in np.eye(gauge.dim)]))
    for axis, ray in enumerate(rays.reshape(gauge.dim, len(scalars), *rep.cols.shape)):
        for c, gen in zip(scalars[1:], ray[1:]):
            defect = np.linalg.norm(gen - c * ray[0])
            if defect > IMPROVE_TOL:
                raise ImprovementError(
                    f"matrix homogeneity defect {defect:.3e} at axis {axis}, c={c}"
                )
    return improved


def recover_shift(
    rep: fock.FockRep,
    resolvent_a: np.ndarray,
    resolvent_b: np.ndarray,
    lam,
    cutoff: int = DEFAULT_CUTOFF,
    seed: int = 0,
) -> float:
    """Reads off the constant separating two admissible families at (lam, f).

    Both inputs are resolvent matrices of the same direction and parameter.
    The generators are recovered by inversion; their difference must probe as
    a real scalar, and re-synthesizing the second resolvent from the first
    family's generator plus that scalar must reproduce it.
    """
    lam = complex(lam)
    eye = np.eye(rep.dim, dtype=complex)
    gen_a = np.linalg.solve(resolvent_a, eye) - 1j * lam * eye
    gen_b = np.linalg.solve(resolvent_b, eye) - 1j * lam * eye
    shift = _probe_scalar(rep, gen_b - gen_a, cutoff, seed)
    resynth = np.linalg.solve((1j * lam + shift) * eye + gen_a, eye)
    gap = float(np.linalg.norm(resynth - resolvent_b, 2))
    if gap > RECONSTRUCT_TOL:
        raise ReconstructionError(
            f"recovered shift {shift} fails to reproduce the family "
            f"(residual {gap:.3e})"
        )
    return shift


# ---------------------------------------------------------------------------
# end-to-end pipeline


def run_pipeline(
    rep: fock.FockRep,
    gauge: GaugeFunction,
    cutoff: int = DEFAULT_CUTOFF,
    seed: int = 0,
    corrupt_pair: bool = False,
) -> dict:
    """Full correction workflow; returns a plot-ready report dictionary.

    Stages: extract the pair table, certify it as a symmetric cocycle, solve
    for the potential, measure the residual character, sample the scaling
    defects, build the improved family, and bound the improved resolvents'
    difference-identity defect by solves (`verify._norm_bound`).  A stage
    that fails stops the pipeline; its name and error land in the report.
    `corrupt_pair` injects a deliberate fault into the extracted table, for
    exercising the failure path end to end.

    The report (schema version 2) names each lattice point once: `points`
    lists them in `lattice_points` order, p_0, p_1, ...  Since xi is
    symmetric it is written as its upper triangle: `xi[i]` holds
    xi(p_i, p_j) for every j >= i with p_i + p_j in the box, in ascending j,
    so the columns follow from the box and are not written.  `gamma`, once
    the coboundary stage has run, holds gamma(p_i) in the order of `points`.
    """
    stages = {}
    report = {
        "schema_version": 2,
        "box": gauge.box,
        "dim": gauge.dim,
        "points": [list(p) for p in lattice_points(gauge.dim, gauge.box)],
        "stages": stages,
        "all_pass": False,
    }

    # the probe block and its weights, for build_cocycle and extract_theta
    rayleigh = _rayleigh_weights(rep, cutoff, seed)
    try:
        xi = build_cocycle(rep, gauge, cutoff=cutoff, seed=seed, rayleigh=rayleigh)
    except NotScalarError as exc:  # e.g. gauge values whose sums overflow
        stages["cocycle"] = {"ok": False, "error": str(exc)}
        return report
    if corrupt_pair:
        values = xi.values.copy()
        e = _index(_basis(gauge.dim, 0), gauge.box)
        if np.isnan(values[e, e]):
            raise ValueError("fault injection needs a box of radius >= 2")
        values[e, e] += 1.0
        xi = Cocycle(dim=xi.dim, box=xi.box, values=values)
    report["xi"] = [
        row[i:][~np.isnan(row[i:])].tolist() for i, row in enumerate(xi.values)
    ]
    ok, defect = verify_cocycle(xi)
    stages["cocycle"] = {"ok": ok, "max_defect": defect}
    if not ok:
        return report

    try:
        gamma = solve_coboundary(xi)
    except PathDependenceError as exc:
        stages["coboundary"] = {"ok": False, "error": str(exc)}
        return report
    repro = coboundary_defect(xi, gamma)
    stages["coboundary"] = {
        "ok": gamma.sweep_disagreement <= SWEEP_TOL and repro <= SWEEP_TOL,
        "sweep_disagreement": gamma.sweep_disagreement,
        "reproduction_defect": repro,
    }
    report["gamma"] = gamma.values.tolist()
    if not stages["coboundary"]["ok"]:
        return report

    char = character_defect(gauge, gamma)
    stages["character"] = {"ok": char <= SWEEP_TOL, "additivity_defect": char}
    if not stages["character"]["ok"]:
        return report

    corrected = corrected_family(rep, gauge, gamma)
    try:
        homogeneity = extract_theta(corrected, cutoff=cutoff, seed=seed, rayleigh=rayleigh)
    except (AdditivityError, NotScalarError) as exc:
        stages["homogeneity"] = {"ok": False, "error": str(exc)}
        return report
    zeta_flat = {
        f"axis_{axis}": {str(c): v for c, v in sorted(table.items())}
        for axis, table in homogeneity.zeta.items()
    }
    stages["homogeneity"] = {"ok": True, "zeta": zeta_flat}

    try:
        improved = improve_family(rep, gauge, gamma, homogeneity)
    except ImprovementError as exc:
        stages["improve"] = {"ok": False, "error": str(exc)}
        return report
    stages["improve"] = {"ok": True}

    # difference identity for the improved resolvents at a reference pair,
    # by solves: (iz + G_f + s(f))^-1 is the plain resolvent at z - i s(f)
    f = _basis(gauge.dim, 0)
    r1, r2 = (fock.ResolventSolver(rep, z - 1j * improved.shift(f), f) for z in (1.0, 2.0))
    defect = verify._norm_bound(
        lambda x: verify._pseudo_block(r1, r2, r1.apply(x), r2.apply(x)), rep.dim
    )
    stages["improved_resolvents"] = {"ok": defect <= IMPROVE_TOL, "defect": defect}

    report["all_pass"] = all(stage["ok"] for stage in stages.values())
    return report
