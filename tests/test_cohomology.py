"""Tests for the gauge-correction machinery."""

import itertools
import json
import re
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import family_resolvent
from resalg import cohomology as coh
from resalg import fock


@pytest.fixture(scope="module")
def rep():
    return fock.build_rep(1, 16)


@pytest.fixture(scope="module")
def random_setup(rep):
    gauge = coh.random_gauge(2, 3, seed=5)
    xi = coh.build_cocycle(rep, gauge)
    gamma = coh.solve_coboundary(xi)
    return gauge, xi, gamma


def dense(family, f):
    return fock.PatternMatrix(family.rep, family.rows([f])[0]).toarray()


def extract_xi(rep, gauge, f, g, cutoff=coh.DEFAULT_CUTOFF, seed=0):
    """Per-pair oracle for `build_cocycle`: the additivity defect of the
    gauged family at (f, g), probed on a dense matrix by `fock.schur_constant`."""
    family = coh.family_from_gauge(rep, gauge)
    k = dense(family, f) + dense(family, g) - dense(family, _add(f, g))
    return coh._probe_scalar(rep, k, cutoff, seed)


def plant(monkeypatch, bump):
    """Calls bump(rep, f, values) on the stencil values of every point f that
    `fock.generator_values` builds, one point or a stack of them, which every
    generator and family reads."""
    plain = fock.generator_values

    def generator_values(rep_, f):
        out = plain(rep_, f)
        points = np.asarray(f, dtype=float).reshape(-1, rep_.space.dim)
        for p, values in zip(points, out.reshape(-1, *rep_.cols.shape)):
            bump(rep_, tuple(p.tolist()), values)
        return out

    monkeypatch.setattr(fock, "generator_values", generator_values)


def closed_form_xi(gauge, f, g):
    total = tuple(a + b for a, b in zip(f, g))
    return gauge.value(f) + gauge.value(g) - gauge.value(total)


# Lattice tables are arrays in lattice order (lexicographic points of the
# box), NaN where undefined.  These helpers index them without the module.


def _add(p, q):
    return tuple(a + b for a, b in zip(p, q))


def _in_box(p, box):
    return all(abs(x) <= box for x in p)


def lattice(dim, box):
    return list(itertools.product(range(-box, box + 1), repeat=dim))


def at(box, *points):
    """Array index of the integer points, one axis per point."""
    index = []
    for p in points:
        i = 0
        for x in p:
            i = i * (2 * box + 1) + x + box
        index.append(i)
    return tuple(index)


def lattice_table(dim, box, entries):
    """A lattice table with `entries` ({point: value}) set, NaN elsewhere."""
    out = np.full((2 * box + 1) ** dim, np.nan)
    for p, v in entries.items():
        out[at(box, p)] = v
    return out


def edited(xi, changes):
    """xi with each pair of `changes` set to its value (NaN drops it)."""
    values = xi.values.copy()
    for (f, g), v in changes.items():
        values[at(xi.box, f, g)] = v
    return coh.Cocycle(dim=xi.dim, box=xi.box, values=values)


def stored_pairs(xi):
    """{(f, g): xi(f,g)} over the pairs the table defines."""
    points = lattice(xi.dim, xi.box)
    return {
        (f, g): float(xi.values[at(xi.box, f, g)])
        for f in points
        for g in points
        if not np.isnan(xi.values[at(xi.box, f, g)])
    }


# Reference loops: the lattice checks written pair by pair over lattice
# indices.  The array code in the module evaluates the same expressions in
# the same order, so its results must equal these exactly; `verify_cocycle`
# equals the cocycle loop taken over the unit shifts h only.  A pair that is
# off the box or undefined raises KeyError.


def _entry(values, box, *points):
    """The entry at the points, or, for a stack of tables along a trailing
    axis, the array of their entries."""
    if not all(_in_box(p, box) for p in points):
        raise KeyError(points)
    value = values[at(box, *points)]
    if np.isnan(value).any():
        raise KeyError(points)
    return value


def unit_shifts(dim):
    """h = 0 and +-e_i, the shifts `verify_cocycle` evaluates."""
    units = [tuple(s * (i == axis) for i in range(dim)) for axis in range(dim) for s in (1, -1)]
    return [(0,) * dim, *units]


def loop_verify_cocycle(xi, tol=coh.COCYCLE_TOL, shifts=None):
    """The symmetry and the cocycle identity at every stored pair (f, g) and
    every h of `shifts` (the whole box by default).  `xi.values` may carry a
    trailing axis of tables checked side by side, one verdict and defect
    each."""
    t = xi.values
    points = lattice(xi.dim, xi.box)
    index = {p: i for i, p in enumerate(points)}  # KeyError off the box

    def entry(f, g):
        value = t[index[f], index[g]]
        if np.isnan(value).any():
            raise KeyError((f, g))
        return value

    pairs = [(f, g) for f in points for g in points if not np.isnan(t[index[f], index[g]]).all()]
    stacked = t.ndim > 2
    worst, maximum = (np.zeros(t.shape[2:]), np.maximum) if stacked else (0.0, max)
    for f, g in pairs:
        worst = maximum(worst, abs(entry(f, g) - entry(g, f)))
    for f, g in pairs:
        fg = _add(f, g)
        for h in points if shifts is None else shifts:
            gh = _add(g, h)
            if gh not in index or _add(fg, h) not in index:
                continue
            defect = entry(f, g) + entry(fg, h) - entry(f, gh) - entry(g, h)
            worst = maximum(worst, abs(defect))
    return worst <= tol, worst


def loop_coboundary_defect(xi, gamma):
    worst = 0.0
    for (f, g), value in stored_pairs(xi).items():
        recon = (
            _entry(gamma.values, xi.box, f)
            + _entry(gamma.values, xi.box, g)
            - _entry(gamma.values, xi.box, _add(f, g))
        )
        worst = max(worst, abs(recon - value))
    return worst


def loop_character_defect(gauge, gamma):
    box = gauge.box
    domain = [
        p for p in lattice(gauge.dim, box) if not np.isnan(gauge.values[at(box, p)])
    ]

    def chi(p):
        return _entry(gamma.values, box, p) - _entry(gauge.values, box, p)

    worst = 0.0
    for f in domain:
        for g in domain:
            total = _add(f, g)
            if _in_box(total, box):
                worst = max(worst, abs(chi(f) + chi(g) - chi(total)))
    return worst


# ---------------------------------------------------------------------------
# gauges


def test_lattice_points_count():
    assert len(coh.lattice_points(2, 3)) == 49
    assert len(coh.lattice_points(1, 2)) == 5


def test_gauge_constructors():
    zero = coh.zero_gauge(2, 2)
    assert set(zero.values.tolist()) == {0.0}
    quad = coh.quadratic_gauge(2, 2)
    assert quad.value((1, 2)) == 5.0
    assert quad.value((0, 0)) == 0.0
    rand = coh.random_gauge(2, 2, seed=1)
    assert rand.value((0, 0)) == 0.0
    assert rand.value((1, 1)) != 0.0
    # same seed reproduces, different seed does not
    assert np.array_equal(coh.random_gauge(2, 2, seed=1).values, rand.values)
    assert not np.array_equal(coh.random_gauge(2, 2, seed=2).values, rand.values)


def test_gauge_validation():
    full = {p: 0.1 * (i + 1) for i, p in enumerate(lattice(2, 1)) if any(p)}
    with pytest.raises(ValueError):
        coh.GaugeFunction(2, 1, np.zeros(8))  # the box [-1,1]^2 has 9 points
    with pytest.raises(ValueError, match="vanish at the origin"):
        coh.GaugeFunction(2, 1, lattice_table(2, 1, {**full, (0, 0): 0.5}))
    # a gauge is total on its box: a missing point other than the origin is
    # an error that names the first such point
    for missing in ((1, 0), (-1, -1), (1, 1)):
        partial = {p: v for p, v in full.items() if p != missing}
        with pytest.raises(ValueError, match=re.escape(f"gauge undefined at {missing}")):
            coh.GaugeFunction(2, 1, lattice_table(2, 1, partial))
    with pytest.raises(ValueError, match=re.escape("gauge undefined at (-1, -1)")):
        coh.GaugeFunction(2, 1, lattice_table(2, 1, {(1, 0): 1.0, (-1, 0): 2.0}))
    gauge = coh.GaugeFunction(2, 1, lattice_table(2, 1, full))
    assert gauge.value((0, 0)) == 0.0  # the origin alone may be missing: it takes 0
    assert gauge.value((1, -1)) == full[(1, -1)]
    with pytest.raises(KeyError):
        gauge.value((0.5, 0.0))


def test_gauge_json_round_trip():
    gauge = coh.random_gauge(2, 2, seed=3)
    text = coh.gauge_to_json(gauge)
    back = coh.gauge_from_json(text)
    assert np.array_equal(back.values, gauge.values)
    assert back.dim == 2 and back.box == 2
    with pytest.raises(ValueError):
        coh.gauge_from_json("[]")
    with pytest.raises(ValueError):
        coh.gauge_from_json('[{"f": [1, 0], "c": 1.0}, {"f": [1], "c": 0.0}]')


@pytest.mark.parametrize(
    "entries, missing",
    [([((1, 0), 1.0), ((-1, 0), 2.0)], (-1, -1)),
     ([((-1, -1), 1.0), ((-1, 0), 2.0)], (-1, 1)),
     ([((10**6, 0), 1.0)], (-(10**6), -(10**6))),
     ([((40, 0, 0, 0), 1.0)], (-40,) * 4)],
)
def test_gauge_file_too_short_for_its_box_names_the_first_missing_point(entries, missing):
    # found from the count of entries, before any table of the box exists
    text = json.dumps([{"f": list(f), "c": c} for f, c in entries])
    with pytest.raises(ValueError, match=re.escape(f"gauge undefined at {missing};")):
        coh.gauge_from_json(text)


def test_gauge_file_far_points_and_one_short():
    # a coordinate past the integer range is one more far point, not garbage
    with pytest.raises(ValueError, match="gauge undefined at"):
        coh.gauge_from_json('[{"f": [1e300, 0], "c": 1.0}]')
    # with one point short of the full box, the table finds the same point
    entries = json.loads(coh.gauge_to_json(coh.random_gauge(2, 2, seed=1)))
    del entries[5]
    with pytest.raises(ValueError, match=re.escape("gauge undefined at (-1, -2);")):
        coh.gauge_from_json(json.dumps(entries))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_gauge_rejects_non_finite_values(bad):
    # NaN marks an undefined point of a table, so a file may not set one
    entries = json.loads(coh.gauge_to_json(coh.random_gauge(2, 2, seed=1)))
    entries[3]["c"] = bad
    with pytest.raises(ValueError, match="not finite"):
        coh.gauge_from_json(json.dumps(entries))
    if not np.isnan(bad):
        values = coh.random_gauge(2, 2, seed=1).values.copy()
        values[3] = bad
        with pytest.raises(ValueError, match="finite"):
            coh.GaugeFunction(2, 2, values)


# ---------------------------------------------------------------------------
# cocycle extraction


def test_extract_xi_zero_gauge(rep):
    assert extract_xi(rep, coh.zero_gauge(2, 3), (1, 0), (0, 1)) == 0.0


def test_extract_xi_quadratic_oracle(rep):
    # c(f) = |f|^2 gives xi(e1,e1) = 1 + 1 - 4
    gauge = coh.quadratic_gauge(2, 3)
    assert abs(extract_xi(rep, gauge, (1, 0), (1, 0)) - (-2.0)) < 1e-12


def test_extract_xi_matches_closed_form(rep):
    for seed in range(4):
        gauge = coh.random_gauge(2, 3, seed=seed)
        for f, g in [((1, 0), (0, 1)), ((1, -2), (-1, 2)), ((2, 1), (1, 2))]:
            got = extract_xi(rep, gauge, f, g)
            assert abs(got - closed_form_xi(gauge, f, g)) < 1e-10


def test_build_cocycle_closed_form_and_symmetry(rep, random_setup):
    gauge, xi, _ = random_setup
    assert xi.value((1, 0), (0, 1)) == xi.value((0, 1), (1, 0))
    worst = max(
        abs(v - closed_form_xi(gauge, f, g)) for (f, g), v in stored_pairs(xi).items()
    )
    assert worst < 1e-10
    # only pairs with the sum inside the box are tabulated
    assert np.isnan(xi.values[at(3, (3, 0), (1, 0))])
    with pytest.raises(KeyError):
        xi.value((3, 0), (1, 0))


def test_verify_cocycle_accepts_extracted(random_setup):
    _, xi, _ = random_setup
    ok, defect = coh.verify_cocycle(xi)
    assert ok and defect <= 1e-10


def test_verify_cocycle_detects_corruption(random_setup):
    _, xi, _ = random_setup
    v = xi.value((1, 1), (1, 0)) + 0.5
    bad = edited(xi, {((1, 1), (1, 0)): v, ((1, 0), (1, 1)): v})
    ok, defect = coh.verify_cocycle(bad)
    assert not ok and defect > 0.1


def test_build_cocycle_matches_per_pair_extraction():
    # one-mode and two-mode gauges; every unordered pair against extract_xi
    for modes, levels, box, cutoff, seed in ((1, 16, 2, 6, 0), (2, 6, 1, 3, 4)):
        rep = fock.build_rep(modes, levels)
        gauge = coh.random_gauge(2 * modes, box, seed=seed + 1)
        xi = coh.build_cocycle(rep, gauge, cutoff=cutoff, seed=seed)
        points = coh.lattice_points(2 * modes, box)
        expected = 0
        for i, f in enumerate(points):
            for g in points[i:]:
                if not _in_box(_add(f, g), box):
                    continue
                expected += 1 + (f != g)
                ref = extract_xi(rep, gauge, f, g, cutoff=cutoff, seed=seed)
                assert abs(xi.value(f, g) - ref) <= 1e-13
                assert xi.value(g, f) == xi.value(f, g)
        assert len(stored_pairs(xi)) == expected


@pytest.mark.parametrize("modes, levels, cutoff", [
    (1, 2, 2), (1, 16, 4), (1, 16, 16), (2, 8, 3), (2, 8, 8), (3, 4, 2),
])
def test_rayleigh_weights_on_the_box_rows_keep_the_bits(modes, levels, cutoff):
    # the weights formed on every row of the gather, the reference: off the
    # box rows they all vanish, so the box rows give the same entries, in
    # the same order, with the same bits
    rep = fock.build_rep(modes, levels)
    for seed in range(3):
        probes = fock.probe_block(rep, cutoff, seed)
        norms = np.einsum("ij,ij->j", probes.conj(), probes).real
        weights = probes.conj() * probes[rep.cols] / norms
        present = rep.cols != np.arange(rep.dim)
        present[rep.diagonal] = True
        slot, row = np.nonzero(present & np.any(weights != 0, axis=2))
        order = np.lexsort((row, rep.cols[slot, row]))
        want = slot[order], row[order]
        seen, got = coh._rayleigh_weights(rep, cutoff, seed)
        assert all(np.array_equal(a, b) for a, b in zip(seen, want))
        assert got.tobytes() == weights[want].tobytes()


def test_build_cocycle_bits_do_not_depend_on_the_chunks(rep, monkeypatch):
    # box 2 has a row of one pair, f = g = (1, 1); with chunks of two or
    # three pairs every value keeps the bits of a single chunk
    gauge = coh.random_gauge(2, 2, seed=7)
    whole = coh.build_cocycle(rep, gauge).values
    seen, _ = coh._rayleigh_weights(rep, coh.DEFAULT_CUTOFF, 0)
    monkeypatch.setattr(coh, "_CHUNK_ENTRIES", 2 * len(seen[0]) + 1)
    assert coh.build_cocycle(rep, gauge).values.tobytes() == whole.tobytes()


def test_build_cocycle_names_first_non_scalar_pair(rep, monkeypatch):
    # a generator at one point gets a non-scalar defect; the first pair in
    # extraction order (f before g in lattice order) that touches it fails.
    # At the origin two pairs of the first row fail: g = (0, 0) and (2, 2)
    broken = (0, 0)

    def bump(rep_, f, values):
        if f == broken:
            values[rep_.diagonal, 0] += 0.5

    plant(monkeypatch, bump)
    gauge = coh.random_gauge(2, 2, seed=3)
    points = coh.lattice_points(2, 2)
    first = next(
        (f, g)
        for i, f in enumerate(points)
        for g in points[i:]
        if _in_box(_add(f, g), 2) and broken in (f, g, _add(f, g))
    )
    with pytest.raises(coh.NotScalarError) as err:
        coh.build_cocycle(rep, gauge)
    assert f"f={first[0]}, g={first[1]}" in str(err.value)
    # the per-pair path agrees that this pair is not scalar
    with pytest.raises(coh.NotScalarError):
        extract_xi(rep, gauge, *first)


def unit_shift_tol(xi):
    """The bound `verify_cocycle` holds the unit shifts to: COCYCLE_TOL over
    the most (3dB - 2) that a defect can grow by on the way to any h."""
    return coh.COCYCLE_TOL / (3 * xi.dim * xi.box - 2)


def assert_cocycle_check_matches_loops(xi):
    # the same triples as the loop over the unit shifts, bit for bit; a
    # subset of the full loop's, so a defect no larger, and on these tables,
    # far from the tolerance, the same verdict
    got = coh.verify_cocycle(xi)
    assert got == loop_verify_cocycle(xi, unit_shift_tol(xi), shifts=unit_shifts(xi.dim))
    ok, defect = loop_verify_cocycle(xi)
    assert got[0] == ok and got[1] <= defect
    return got


def test_lattice_checks_equal_reference_loops(random_setup):
    gauge, xi, gamma = random_setup
    assert_cocycle_check_matches_loops(xi)
    assert coh.coboundary_defect(xi, gamma) == loop_coboundary_defect(xi, gamma)
    assert coh.character_defect(gauge, gamma) == loop_character_defect(gauge, gamma)
    corrupt = edited(xi, {
        ((1, 1), (1, 0)): xi.value((1, 1), (1, 0)) + 0.5,
        ((1, 0), (1, 1)): xi.value((1, 0), (1, 1)) + 0.25,  # asymmetric as well
        ((-2, 0), (3, -1)): xi.value((-2, 0), (3, -1)) - 1e-7,
    })
    got = assert_cocycle_check_matches_loops(corrupt)
    assert got[0] is False
    assert coh.coboundary_defect(corrupt, gamma) == loop_coboundary_defect(
        corrupt, gamma
    )
    other = coh.solve_coboundary(
        coh.build_cocycle(fock.build_rep(1, 16), coh.random_gauge(2, 3, seed=9))
    )
    assert coh.character_defect(gauge, other) == loop_character_defect(gauge, other)


def test_addition_table_is_built_once_and_read_only():
    table = coh._addition_table(2, 3)
    assert coh._addition_table(2, 3) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0
    points = lattice(2, 3)
    for i, f in enumerate(points):
        for j, g in enumerate(points):
            total = _add(f, g)
            assert table[i, j] == (at(3, total)[0] if _in_box(total, 3) else -1)


def test_coboundary_equals_reference_loop(random_setup):
    # delta v(f, g) = v(f) + v(g) - v(f+g) for a full random lattice table:
    # the same bits as the per-pair expression, NaN where f+g leaves the box
    gauge, _, gamma = random_setup
    box = 3
    values = gauge.values - gamma.values
    delta = coh._coboundary(values, 2, box)
    for f, g in itertools.product(lattice(2, box), repeat=2):
        got = delta[at(box, f, g)]
        if not _in_box(_add(f, g), box):
            assert np.isnan(got)
            continue
        assert got == values[at(box, f)] + values[at(box, g)] - values[at(box, _add(f, g))]
    # a NaN anywhere in the box is needed by some pair, and never skipped
    for p in ((0, 0), (3, -3), (1, 2)):
        holed = values.copy()
        holed[at(box, p)] = np.nan
        with pytest.raises(KeyError):
            coh._coboundary(holed, 2, box)


@pytest.mark.parametrize("eps, check_ok, loop_ok", [(3e-13, True, True), (1e-11, False, True),
                                                    (2e-11, False, False)])
def test_cocycle_check_passes_only_what_the_loop_passes(eps, check_ok, loop_ok):
    # xi(f, g) = eps * (f+g)_0 on box 3 of the plane gives D(f,g,h) = eps *
    # (f_0 - h_0): 4 eps at most at the unit shifts, 6 eps at f = (-3, 0), h =
    # (3, 0).  The unit shifts are held to COCYCLE_TOL / 16, so the check
    # passes only where every triple is within COCYCLE_TOL
    points = np.array(lattice(2, 3))
    add = coh._addition_table(2, 3)
    values = np.where(add >= 0, eps * np.add.outer(points[:, 0], points[:, 0]), np.nan)
    xi = coh.Cocycle(2, 3, values)
    ok, defect = coh.verify_cocycle(xi)
    assert (ok, defect) == (check_ok, pytest.approx(4 * eps))
    assert loop_verify_cocycle(xi) == (loop_ok, pytest.approx(6 * eps))


def test_verify_cocycle_missing_pairs_raise_like_the_loop(random_setup):
    _, xi, _ = random_setup
    no_mirror = edited(xi, {((0, 1), (1, 0)): np.nan})
    # a pair only the identity reads: (f+g, h) with f+g on the box face
    no_inner = edited(xi, {((3, 0), (-3, 0)): np.nan, ((-3, 0), (3, 0)): np.nan})
    # a stored pair whose sum leaves the box
    outside = edited(xi, {((3, 0), (1, 0)): 0.0, ((1, 0), (3, 0)): 0.0})
    for cocycle in (no_mirror, no_inner, outside):
        with pytest.raises(KeyError):
            loop_verify_cocycle(cocycle)
        with pytest.raises(KeyError):
            coh.verify_cocycle(cocycle)
    # the low-axis sweep reaches (1, 1) through xi((0, 1), (1, 0))
    with pytest.raises(KeyError):
        coh.solve_coboundary(no_mirror)


@pytest.mark.parametrize(
    "modes, levels, box, cutoff, pairs", [(1, 16, 3, 6, 689), (2, 6, 1, 3, 1201)]
)
def test_cocycle_check_rejects_what_the_loop_rejects(modes, levels, box, cutoff, pairs):
    # each stored pair in turn, moved by 1e-6 together with its mirror: the
    # unit-shift check must reject every table the full loop rejects.
    # The loop checks all corrupted tables at once, stacked on a third axis
    rep_ = fock.build_rep(modes, levels)
    xi = coh.build_cocycle(rep_, coh.random_gauge(2 * modes, box, seed=11), cutoff=cutoff)
    upper = np.argwhere(np.triu(~np.isnan(xi.values)))
    assert len(upper) == pairs
    stack = np.repeat(xi.values[:, :, None], pairs, axis=2)
    for k, (i, j) in enumerate(upper):
        stack[i, j, k] += 1e-6
        stack[j, i, k] = stack[i, j, k]
    stacked = SimpleNamespace(dim=xi.dim, box=box, values=stack)
    verdicts, defects = loop_verify_cocycle(stacked)
    for k in range(pairs):
        ok, defect = coh.verify_cocycle(coh.Cocycle(xi.dim, box, stack[:, :, k]))
        assert ok == verdicts[k] and defect <= defects[k], upper[k]
    assert not verdicts.any()  # no single pair can move alone


def test_zero_cocycle_gives_zero_potential(rep):
    xi = coh.build_cocycle(rep, coh.zero_gauge(2, 2))
    gamma = coh.solve_coboundary(xi)
    assert set(gamma.values.tolist()) == {0.0}


# ---------------------------------------------------------------------------
# coboundary solving


def test_coboundary_reproduces_cocycle(random_setup):
    _, xi, gamma = random_setup
    assert coh.coboundary_defect(xi, gamma) <= 1e-9
    assert gamma.sweep_disagreement <= 1e-9


def test_coboundary_normalization(random_setup):
    _, _, gamma = random_setup
    assert gamma.value((0, 0)) == 0.0
    assert gamma.value((1, 0)) == 0.0
    assert gamma.value((0, 1)) == 0.0


def test_negative_basis_value_not_forced(rep):
    # gamma at -e is pinned by the pair table, not by a convention
    gauge = coh.quadratic_gauge(2, 3)
    xi = coh.build_cocycle(rep, gauge)
    gamma = coh.solve_coboundary(xi)
    expected = closed_form_xi(gauge, (-1, 0), (1, 0))
    assert abs(gamma.value((-1, 0)) - expected) < 1e-10
    assert gamma.value((-1, 0)) != 0.0


def test_character_is_additive(rep):
    for seed in (0, 7):
        gauge = coh.random_gauge(2, 3, seed=seed)
        gamma = coh.solve_coboundary(coh.build_cocycle(rep, gauge))
        assert coh.character_defect(gauge, gamma) <= 1e-9


def test_path_dependence_detection(random_setup):
    _, xi, _ = random_setup
    v = xi.value((1, 1), (1, 0)) + 0.5
    bad = edited(xi, {((1, 1), (1, 0)): v, ((1, 0), (1, 1)): v})
    with pytest.raises(coh.PathDependenceError):
        coh.solve_coboundary(bad)


# ---------------------------------------------------------------------------
# shifted families


def test_family_shift_lookup(rep, random_setup):
    gauge, _, gamma = random_setup
    fam = coh.corrected_family(rep, gauge, gamma)
    chi = gauge.value((2, -1)) - gamma.value((2, -1))
    assert fam.shift((2, -1)) == chi
    # ray fallback is linear in the unit value
    unit = fam.shift((1, 0))
    assert abs(fam.shift((0.5, 0.0)) - 0.5 * unit) < 1e-12
    with pytest.raises(KeyError):
        fam.shift((0.5, 0.5))  # not on a basis ray, not on the lattice


def test_family_generator_and_resolvent(rep):
    gauge = coh.quadratic_gauge(2, 3)
    fam = coh.family_from_gauge(rep, gauge)
    f = (1, 1)
    gen = dense(fam, f)
    assert np.allclose(gen, fock.generator(rep, f).toarray() + 2.0 * np.eye(rep.dim))
    r = family_resolvent(fam, 1.0, f)
    lhs = (1j * np.eye(rep.dim) + gen) @ r
    assert np.allclose(lhs, np.eye(rep.dim), atol=1e-11)


@pytest.mark.parametrize("modes, levels", [(1, 16), (2, 6)])
def test_family_rows_have_the_bits_of_per_point_values(modes, levels):
    rep_ = fock.build_rep(modes, levels)
    fam = coh.family_from_gauge(rep_, coh.random_gauge(2 * modes, 2, seed=6))
    rays = [tuple(c * (i == axis) for i in range(2 * modes))
            for axis in range(2 * modes) for c in (-2.5, -0.5, 0.5, 3.0)]
    points = coh.lattice_points(2 * modes, 2) + rays
    rows = fam.rows(points)
    assert rows.shape == (len(points), *rep_.cols.shape)
    for p, row in zip(points, rows):
        values = fock.generator_values(rep_, p)
        values[rep_.diagonal] += fam.shift(p)
        assert row.tobytes() == values.tobytes(), p


def test_family_dimension_mismatch(rep):
    with pytest.raises(ValueError):
        coh.family_from_gauge(rep, coh.random_gauge(4, 2, seed=0))


# ---------------------------------------------------------------------------
# homogeneity


@dataclass(frozen=True)
class RayInjected(coh.OperatorFamily):
    """A family whose shifts along axis 0 are planted at the scalars of `table`."""

    table: dict = field(default_factory=dict)

    def shift(self, f):
        planted = {coh._ray_key(c): v for c, v in self.table.items()}
        if not any(f[1:]) and coh._ray_key(f[0]) in planted:
            return planted[coh._ray_key(f[0])]
        return super().shift(f)


def loop_extract_zeta(family, axis, grid, cutoff, seed=0):
    """Reference for extract_zeta's table: one dense operator and one Schur
    probe per scalar."""
    e = tuple(1 if i == axis else 0 for i in range(family.rep.space.dim))
    unit = dense(family, e)
    table = {}
    for c in grid:
        k = dense(family, tuple(c * x for x in e)) - c * unit
        report = fock.schur_constant(family.rep, k, cutoff=cutoff, seed=seed)
        bound = coh.ZETA_PROBE_TOL
        assert report.max_deviation <= bound and abs(report.mean.imag) <= bound
        table[coh._ray_key(c)] = report.mean.real
    return table


def test_zeta_zero_for_corrected_family(rep, random_setup):
    gauge, _, gamma = random_setup
    fam = coh.corrected_family(rep, gauge, gamma)
    for axis in (0, 1):
        table = coh.extract_zeta(fam, axis)
        assert max(abs(v) for v in table.values()) <= 1e-10


def test_zeta_grid_must_contain_zero_and_one(rep, random_setup):
    gauge, _, gamma = random_setup
    fam = coh.corrected_family(rep, gauge, gamma)
    with pytest.raises(ValueError):
        coh.extract_zeta(fam, 0, (0.0, 2.0))
    with pytest.raises(ValueError):
        coh.extract_zeta(fam, 0, (1.0, 2.0))


def test_zeta_injection_round_trip(rep, random_setup):
    # additive perturbation on an exotic grid is recovered exactly
    gauge, _, gamma = random_setup
    fam = coh.corrected_family(rep, gauge, gamma)
    s2 = float(np.sqrt(2.0))
    grid = (0.0, 1.0, s2, 1.0 + s2)
    injected = {s2: 0.3, 1.0 + s2: 0.3}
    table = {c: fam.shift((c, 0.0)) + injected.get(c, 0.0) for c in grid}
    fam2 = RayInjected(fam.rep, fam.box, fam.lattice_shifts, table)
    recovered = coh.extract_zeta(fam2, 0, grid)
    assert abs(recovered[coh._ray_key(s2)] - 0.3) < 1e-10
    assert abs(recovered[coh._ray_key(1.0 + s2)] - 0.3) < 1e-10
    assert abs(recovered[coh._ray_key(1.0)]) < 1e-12


def test_zeta_detects_uncorrected_family(rep, random_setup):
    # before correction the integer samples are not additive
    gauge, _, _ = random_setup
    raw = coh.family_from_gauge(rep, gauge)
    with pytest.raises(coh.AdditivityError):
        coh.extract_zeta(raw, 0, (0.0, 1.0, 2.0))


def test_zeta_detects_nonadditive_injection(rep, random_setup):
    gauge, _, gamma = random_setup
    fam = coh.corrected_family(rep, gauge, gamma)
    table = {0.5: fam.shift((0.5, 0.0)) + 0.3}
    fam2 = RayInjected(fam.rep, fam.box, fam.lattice_shifts, table)
    with pytest.raises(coh.AdditivityError):
        coh.extract_zeta(fam2, 0, (0.0, 0.5, 1.0))


@pytest.mark.parametrize("modes, levels, box, cutoff", [(1, 16, 3, 6), (2, 6, 1, 3)])
def test_batched_zeta_matches_per_scalar_loop(modes, levels, box, cutoff, monkeypatch):
    rep_ = fock.build_rep(modes, levels)
    gauge = coh.random_gauge(2 * modes, box, seed=7)
    gamma = coh.solve_coboundary(coh.build_cocycle(rep_, gauge, cutoff=cutoff))
    corrected = coh.corrected_family(rep_, gauge, gamma)
    integers = [float(c) for c in range(-box, box + 1)]
    grid = sorted(set(coh.DEFAULT_SCALAR_GRID) | set(integers))
    plain, built = fock.probe_block, []
    monkeypatch.setattr(
        fock, "probe_block", lambda *a, **kw: built.append(a) or plain(*a, **kw)
    )
    built.clear()
    theta = coh.extract_theta(corrected, cutoff=cutoff)  # on `grid`
    assert len(built) == 1  # one probe block for every axis
    for axis in range(2 * modes):
        built.clear()
        table = coh.extract_zeta(corrected, axis, grid, cutoff=cutoff)
        assert len(built) == 1  # one probe block for the whole grid
        ref = loop_extract_zeta(corrected, axis, grid, cutoff)
        assert table.keys() == ref.keys()
        assert max(abs(table[c] - ref[c]) for c in ref) <= 1e-13
        assert theta.zeta[axis] == table
    raw = coh.family_from_gauge(rep_, gauge)
    with pytest.raises(coh.AdditivityError):
        coh.extract_zeta(raw, 0, integers, cutoff=cutoff)


def test_zeta_names_axis_and_scalar_of_non_scalar_probe(rep, random_setup, monkeypatch):
    gauge, _, gamma = random_setup
    fam = coh.corrected_family(rep, gauge, gamma)

    def bump(rep_, f, values):
        if f == (0.0, 0.5):
            values[rep_.diagonal, 0] += 0.5

    plant(monkeypatch, bump)
    with pytest.raises(coh.NotScalarError, match=r"probe at axis 1, c=0\.5 is not"):
        coh.extract_zeta(fam, 1, (0.0, 0.5, 1.0, 2.0))


def test_theta_assembly(rep, random_setup):
    gauge, _, gamma = random_setup
    fam = coh.corrected_family(rep, gauge, gamma)
    data = coh.extract_theta(fam)  # the box of random_setup's gauge, 3
    # integer coordinates are always covered, and the corrected family is
    # homogeneous already, so the assembled correction vanishes
    assert data.theta([(3, -2)]) == pytest.approx([0.0], abs=1e-9)
    with pytest.raises(KeyError):
        data.zeta_value(0, 0.25)


# ---------------------------------------------------------------------------
# improvement


def test_improve_zero_gauge_is_identity(rep):
    gauge = coh.zero_gauge(2, 2)
    xi = coh.build_cocycle(rep, gauge)
    gamma = coh.solve_coboundary(xi)
    improved = coh.improve_family(rep, gauge, gamma)
    f = (1, 1)
    assert np.allclose(improved.rows([f])[0], fock.generator_values(rep, f), atol=1e-14)


def test_improve_quadratic_gauge(rep):
    gauge = coh.quadratic_gauge(2, 3)
    gamma = coh.solve_coboundary(coh.build_cocycle(rep, gauge))
    improved = coh.improve_family(rep, gauge, gamma)
    # exact additivity at matrix level
    for f, g in [((1, 0), (0, 1)), ((1, 1), (1, -1)), ((2, 0), (-1, 1))]:
        total = tuple(a + b for a, b in zip(f, g))
        defect = np.linalg.norm(
            dense(improved, f) + dense(improved, g) - dense(improved, total), 2
        )
        assert defect <= 1e-10
    # exact homogeneity along rays
    for c in (-1.0, 2.0, 3.0):
        defect = np.linalg.norm(
            dense(improved, (c, 0.0)) - c * dense(improved, (1, 0)), 2
        )
        assert defect <= 1e-10


def test_improve_shifts_take_theta_point_by_point(rep, random_setup):
    # linear scaling defects keep the improved family additive; its shifts
    # must hold c - gamma - theta(p), theta(p) summed over p's nonzero
    # coordinates axis by axis
    gauge, _, gamma = random_setup
    keys = sorted(set(coh.DEFAULT_SCALAR_GRID) | {float(x) for x in range(-3, 4)})
    zeta = {axis: {coh._ray_key(c): slope * c for c in keys}
            for axis, slope in enumerate((0.37, -1.3))}
    homogeneity = coh.HomogeneityData(dim=2, box=3, zeta=zeta)
    improved = coh.improve_family(rep, gauge, gamma, homogeneity)
    theta = []
    for p in coh.lattice_points(2, 3):
        total = 0.0
        for axis, x in enumerate(p):
            if x:
                total += zeta[axis][coh._ray_key(x)]
        theta.append(total)
    expected = gauge.values - gamma.values - np.array(theta)
    assert homogeneity.theta(coh.lattice_points(2, 3)).tobytes() == np.array(theta).tobytes()
    assert improved.lattice_shifts.tobytes() == expected.tobytes()


def test_improve_rejects_wrong_potential(rep):
    gauge = coh.quadratic_gauge(2, 2)
    bad = coh.Coboundary(dim=2, box=2, values=np.zeros(25))
    with pytest.raises(coh.ImprovementError):
        coh.improve_family(rep, gauge, bad)


@pytest.mark.parametrize(
    "bend, message",
    [(lambda x: x * x, "matrix additivity defect"),
     (lambda x: x - round(x), "matrix homogeneity defect")],
)
def test_improve_detects_matrix_defects(rep, monkeypatch, bend, message):
    # a term nonlinear in f on one off-diagonal entry leaves every shift, and
    # so every scalar check, exact; only the matrix checks can see it
    gauge = coh.zero_gauge(2, 2)
    gamma = coh.solve_coboundary(coh.build_cocycle(rep, gauge))

    def bump(rep_, f, values):
        values[rep_.diagonal - 1, 1] += 0.1 * bend(f[0])  # row 1, column 0

    plant(monkeypatch, bump)
    with pytest.raises(coh.ImprovementError, match=message):
        coh.improve_family(rep, gauge, gamma)


def test_improved_resolvents_keep_difference_identity(rep, random_setup):
    gauge, _, gamma = random_setup
    improved = coh.improve_family(rep, gauge, gamma)
    r1 = family_resolvent(improved, 1.0, (1, 0))
    r2 = family_resolvent(improved, 2.0, (1, 0))
    assert np.linalg.norm(r1 - r2 - 1j * (r1 @ r2), 2) <= 1e-10


@pytest.mark.parametrize("modes, levels", [(1, 16), (2, 6)])
def test_improved_resolvents_stage_bounds_the_dense_norm(modes, levels):
    # the stage's randomized bound lies between the dense SVD norm of the
    # difference-identity defect and the tolerance
    rep_ = fock.build_rep(modes, levels)
    gauge = coh.random_gauge(2 * modes, 1, seed=1)
    stage = coh.run_pipeline(rep_, gauge)["stages"]["improved_resolvents"]
    gamma = coh.solve_coboundary(coh.build_cocycle(rep_, gauge))
    theta = coh.extract_theta(coh.corrected_family(rep_, gauge, gamma))
    improved = coh.improve_family(rep_, gauge, gamma, theta)
    f = coh._basis(2 * modes, 0)
    r1, r2 = (family_resolvent(improved, z, f) for z in (1.0, 2.0))
    dense = np.linalg.norm(r1 - r2 - 1j * (r1 @ r2), 2)
    assert stage["ok"]
    assert dense <= stage["defect"] <= coh.IMPROVE_TOL


# ---------------------------------------------------------------------------
# shift recovery


def test_recover_shift_identical_families(rep):
    r = fock.resolvent_matrix(rep, 1.0, (1.0, 0.0))
    assert abs(coh.recover_shift(rep, r, r, 1.0)) < 1e-12


def test_recover_shift_injected(rep):
    ra = fock.resolvent_matrix(rep, 1.0, (1.0, 0.0))
    rb = fock.ResolventSolver(rep, 1.0 - 0.7j, (1.0, 0.0)).matrix()
    got = coh.recover_shift(rep, ra, rb, 1.0)
    assert abs(got - 0.7) < 1e-10


def test_recover_shift_consistent_descriptions(rep):
    # shifting the generator and continuing the spectral parameter agree
    gen = fock.generator(rep, (1.0, 0.0)).toarray()
    eye = np.eye(rep.dim)
    direct = np.linalg.solve((1j * 1.0 + 0.7) * eye + gen, eye)
    continued = fock.ResolventSolver(rep, 1.0 - 0.7j, (1.0, 0.0)).matrix()
    assert np.allclose(direct, continued, atol=1e-12)


def test_recover_shift_rejects_different_directions(rep):
    ra = fock.resolvent_matrix(rep, 1.0, (1.0, 0.0))
    rb = fock.resolvent_matrix(rep, 1.0, (0.0, 1.0))
    with pytest.raises(coh.NotScalarError):
        coh.recover_shift(rep, ra, rb, 1.0)


def test_recover_shift_rejects_imaginary_offset(rep):
    ra = fock.resolvent_matrix(rep, 1.0, (1.0, 0.0))
    rb = fock.resolvent_matrix(rep, 2.0, (1.0, 0.0))
    with pytest.raises(coh.NotScalarError):
        coh.recover_shift(rep, ra, rb, 1.0)


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_random_gauges(rep):
    for seed in (0, 3):
        report = coh.run_pipeline(rep, coh.random_gauge(2, 3, seed=seed))
        assert report["all_pass"]
        assert report["stages"]["cocycle"]["max_defect"] <= 1e-10
        assert report["stages"]["coboundary"]["sweep_disagreement"] <= 1e-9
        assert report["stages"]["improved_resolvents"]["defect"] <= 1e-10


def test_pipeline_report_is_json_ready(rep):
    report = coh.run_pipeline(rep, coh.quadratic_gauge(2, 2))
    text = json.dumps(report, sort_keys=True)
    assert json.loads(text)["schema_version"] == 2
    assert any(value == -2.0 for row in report["xi"] for value in row)


def test_pipeline_report_writes_each_pair_once():
    # schema 2: one point list, and xi row i holds xi(p_i, p_j) for j >= i
    # with p_i + p_j in the box, so each unordered pair appears once
    dim, box = 4, 1
    gauge = coh.random_gauge(dim, box, seed=2)
    report = json.loads(json.dumps(coh.run_pipeline(fock.build_rep(2, 8), gauge)))
    points = lattice(dim, box)
    assert report["all_pass"]
    assert report["points"] == [list(p) for p in points]
    pairs = [
        [(f, g) for g in points[i:] if _in_box(_add(f, g), box)]
        for i, f in enumerate(points)
    ]
    assert sum(len(row) for row in report["xi"]) == sum(map(len, pairs))
    # gamma is aligned with the points: its coboundary reproduces each row
    gamma = dict(zip(points, report["gamma"], strict=True))
    for row, row_pairs in zip(report["xi"], pairs, strict=True):
        assert row == pytest.approx([closed_form_xi(gauge, f, g) for f, g in row_pairs])
        assert row == pytest.approx(
            [gamma[f] + gamma[g] - gamma[_add(f, g)] for f, g in row_pairs]
        )
