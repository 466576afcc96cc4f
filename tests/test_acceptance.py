"""Acceptance suite: the contract-level guarantees of the package.

Every test checks one end-to-end guarantee at its stated tolerance and
runtime budget and prints a single summary line (visible with ``pytest -s``
or on failure).  Tolerances here are the published contract; do not loosen
them to make a failing build green.
"""

import json
import pathlib
import time

import numpy as np
from scipy.linalg import block_diag

from conftest import csc_generator, family_resolvent, random_expression
from resalg import cohomology as coh
from resalg import fock, symplectic, verify
from resalg.expr import parse, simplify

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "baselines/convergence_baseline.json"
)


def _report(label: str, elapsed: float, budget: float, **figures):
    detail = " ".join(f"{key}={value:.3e}" for key, value in figures.items())
    print(f"[PASS] {label}: {detail} ({elapsed:.2f}s < {budget:.0f}s)")


def _snorm(matrix) -> float:
    return float(np.linalg.norm(matrix, 2))


def test_resolvent_identity_and_adjoint_matrix_exact():
    budget = 1.0
    start = time.monotonic()
    rep = fock.build_rep(1, 64)
    f = (1.0, 0.0)
    lam, mu = 1.0, 2.0
    r_lam = fock.resolvent_matrix(rep, lam, f)
    r_mu = fock.resolvent_matrix(rep, mu, f)
    diff = _snorm(r_lam @ r_mu * (1j * (mu - lam)) - (r_lam - r_mu))
    adjoint = _snorm(r_lam.conj().T - fock.resolvent_matrix(rep, -lam, f))
    elapsed = time.monotonic() - start
    assert diff <= 1e-10
    assert adjoint <= 1e-12
    assert elapsed < budget
    _report("difference identity + adjoint", elapsed, budget,
            difference=diff, adjoint=adjoint)


def test_resolvent_norm_bound_seeded():
    budget = 5.0
    start = time.monotonic()
    rep = fock.build_rep(1, 64)
    rng = np.random.default_rng(2024)
    worst_margin = np.inf
    for _ in range(20):
        re = float(rng.uniform(0.5, 3.0)) * float(rng.choice((-1.0, 1.0)))
        z = complex(re, float(rng.uniform(-2.0, 2.0)))
        f = tuple(float(x) for x in rng.uniform(-2.0, 2.0, size=2))
        norm = _snorm(fock.resolvent_matrix(rep, z, f))
        bound = 1.0 / abs(z.real) + 1e-10
        assert norm <= bound
        worst_margin = min(worst_margin, bound - norm)
    elapsed = time.monotonic() - start
    assert elapsed < budget
    _report("norm bound over 20 seeded draws", elapsed, budget,
            worst_margin=worst_margin)


def test_scaling_covariance_matrix_exact():
    budget = 1.0
    start = time.monotonic()
    rep = fock.build_rep(1, 64)
    lam, f = 1.0, np.array([1.0, 0.0])
    reference = fock.resolvent_matrix(rep, lam, f)
    worst = 0.0
    for c in (-1.0, 0.5, 2.5):
        scaled = c * fock.resolvent_matrix(rep, c * lam, c * f)
        worst = max(worst, _snorm(scaled - reference))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert elapsed < budget
    _report("scaling covariance", elapsed, budget, worst=worst)


def test_scalar_extraction_matches_pairing_on_basis():
    budget = 10.0
    start = time.monotonic()
    worst = 0.0
    levels = 32
    for modes in (1, 2):
        rep = fock.build_rep(modes, levels)
        dim = 2 * modes
        basis = np.eye(dim)
        for i in range(dim):
            for j in range(dim):
                f, g = basis[i], basis[j]
                prod = csc_generator(rep, f) @ csc_generator(rep, g)
                k = -1j * (prod - prod.conj().T)
                report = fock.schur_constant(rep, k.__matmul__, cutoff=levels - 2)
                assert report.is_scalar
                target = symplectic.pair(rep.space, f, g)
                gap = abs(report.mean - target)
                assert gap <= 1e-10
                worst = max(worst, gap)
    elapsed = time.monotonic() - start
    assert elapsed < budget
    _report("scalar extraction vs form", elapsed, budget, worst_gap=worst)


def test_truncation_convergence_matches_pinned_baseline():
    budget = 60.0
    start = time.monotonic()
    truncations = (64, 128, 256)
    m, tol = 6, 1e-6
    f, g, lam = (1.0, 0.0), (0.0, 1.0), 1.0
    caches = [verify.SolverCache(fock.build_rep(1, n)) for n in truncations]
    checks = {
        "rel_i": verify.check_relation_i(caches, f, g, lam, lam, m, tol=tol),
        "rel_ii": verify.check_relation_ii(caches, f, g, lam, lam, m, tol=tol),
        "rel_iv": verify.check_relation_iv(caches, f, g, lam, m, tol=tol),
        "almost_inner": verify.check_almost_inner(
            caches, f, lam, "R(1,[0,1])", m, tol=tol
        ),
    }
    baseline = json.loads(BASELINE_PATH.read_text())
    assert baseline["truncations"] == list(truncations)
    finals = {}
    for name, check in checks.items():
        residuals = check.residuals
        for left, right in zip(residuals, residuals[1:]):
            assert right <= max(1.1 * left, 1e-12), (name, residuals)
        assert residuals[-1] <= tol, (name, residuals)
        pinned = baseline["residuals"][name]
        for got, expected in zip(residuals, pinned):
            assert got <= max(2.0 * expected, 1e-14), (name, got, expected)
            assert expected <= max(2.0 * got, 1e-14), (name, got, expected)
        finals[f"{name}_final"] = residuals[-1]
    elapsed = time.monotonic() - start
    assert elapsed < budget
    _report("convergence vs pinned baseline", elapsed, budget, **finals)


def test_rewriter_soundness_on_seeded_expressions():
    budget = 60.0
    start = time.monotonic()
    rep = fock.build_rep(1, 64)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        e = random_expression(rng, word_max=4)
        gap = _snorm(fock.evaluate(rep, e) - fock.evaluate(rep, simplify(e)))
        assert gap <= 1e-9, str(e)
        worst = max(worst, gap)
    elapsed = time.monotonic() - start
    assert elapsed < budget
    _report("rewriter soundness over 200 draws", elapsed, budget, worst=worst)


def test_gauge_correction_round_trip():
    # the stages read these tolerances; they are the contract
    assert (coh.COCYCLE_TOL, coh.SWEEP_TOL, coh.IMPROVE_TOL) == (1e-10, 1e-9, 1e-10)
    assert (fock.SCHUR_TOL, verify.EXACT_TOL) == (1e-8, 1e-9)
    budget = 30.0
    start = time.monotonic()
    rep = fock.build_rep(1, 64)
    f, lam, mu = (1.0, 0.0), 1.0, 2.0
    worst = {"cocycle": 0.0, "sweep": 0.0, "reconstruction": 0.0,
             "difference": 0.0, "adjoint": 0.0}
    for seed in range(10):
        gauge = coh.random_gauge(2, 3, seed=seed)
        xi = coh.build_cocycle(rep, gauge)
        ok, defect = coh.verify_cocycle(xi)
        assert ok
        gamma = coh.solve_coboundary(xi)
        recon = coh.coboundary_defect(xi, gamma)
        assert gamma.sweep_disagreement <= 1e-9
        assert recon <= 1e-9
        theta = coh.extract_theta(coh.corrected_family(rep, gauge, gamma))
        improved = coh.improve_family(rep, gauge, gamma, theta)
        r_lam = family_resolvent(improved, lam, f)
        r_mu = family_resolvent(improved, mu, f)
        diff = _snorm(r_lam @ r_mu * (1j * (mu - lam)) - (r_lam - r_mu))
        adjoint = _snorm(r_lam.conj().T - family_resolvent(improved, -lam, f))
        assert diff <= 1e-10
        assert adjoint <= 1e-12
        worst["cocycle"] = max(worst["cocycle"], defect)
        worst["sweep"] = max(worst["sweep"], gamma.sweep_disagreement)
        worst["reconstruction"] = max(worst["reconstruction"], recon)
        worst["difference"] = max(worst["difference"], diff)
        worst["adjoint"] = max(worst["adjoint"], adjoint)
    elapsed = time.monotonic() - start
    assert elapsed < budget
    _report("gauge correction round trip", elapsed, budget, **worst)


def test_scalar_shift_recovery():
    budget = 5.0
    start = time.monotonic()
    rep = fock.build_rep(1, 64)
    f, lam, shift = (1.0, 0.0), 1.0, 0.7
    plain = fock.resolvent_matrix(rep, lam, f)
    shifted = fock.resolvent_matrix(rep, lam - 1j * shift, f)
    recovered = coh.recover_shift(rep, plain, shifted, lam)
    gap = abs(recovered - shift)
    assert gap <= 1e-10
    corrected = fock.resolvent_matrix(rep, lam - 1j * (shift - recovered), f)
    agreement = _snorm(corrected - plain)
    assert agreement <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < budget
    _report("shift recovery", elapsed, budget, gap=gap, agreement=agreement)


def test_degenerate_form_certifies_commuting_pair():
    budget = 30.0
    start = time.monotonic()
    form = block_diag(symplectic.standard_form(1), np.zeros((2, 2)))
    space = symplectic.SymplecticSpace(form)
    assert symplectic.is_nondegenerate(space) is False
    rep = fock.build_rep(2, 64, max_dim=4096)
    f, g = (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)
    check = verify.check_relation_i(
        [verify.SolverCache(rep)], f, g, 1.0, 1.0, 6, tol=1e-6, space=space
    )
    elapsed = time.monotonic() - start
    assert check.params["sigma"] == 0.0
    assert check.verdict
    assert check.residuals[-1] <= 1e-6
    assert elapsed < budget
    _report("degenerate form commuting pair", elapsed, budget,
            residual=check.residuals[-1])
