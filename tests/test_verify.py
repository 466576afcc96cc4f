"""Tests for the residual-certification suite."""

import importlib
import inspect
import itertools
import json
import math
import pkgutil
import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import csc_generator

import resalg
from resalg import fock, symplectic, verify
from resalg.expr import DomainError, resolvent


@pytest.fixture(scope="module")
def ladder():
    reps = [fock.build_rep(1, n) for n in (16, 24, 32)]
    return [verify.SolverCache(r) for r in reps]


@pytest.fixture(scope="module")
def ladder_large():
    reps = [fock.build_rep(1, n) for n in (64, 128, 256)]
    return [verify.SolverCache(r) for r in reps]


# ---------------------------------------------------------------------------
# verdict logic


def test_verdict_exact_requires_every_level():
    assert verify._verdict([1e-12, 1e-13], 1e-9, exact=True)
    assert not verify._verdict([1e-12, 1e-8], 1e-9, exact=True)


def test_verdict_convergence_final_and_monotone():
    assert verify._verdict([1e-3, 1e-5, 1e-8], 1e-6, exact=False)
    # final level misses the tolerance
    assert not verify._verdict([1e-3, 1e-5, 1e-5], 1e-6, exact=False)
    # residual grows by more than the slack
    assert not verify._verdict([1e-8, 1e-3, 1e-9], 1e-6, exact=False)
    # 10% slack tolerates a mild plateau
    assert verify._verdict([1e-7, 1.05e-7, 1e-7], 1e-6, exact=False)
    # noise floor tolerates jitter at solver precision
    assert verify._verdict([1e-16, 8e-16, 3e-16], 1e-6, exact=False)
    assert not verify._verdict([float("nan")], 1e-6, exact=False)
    assert not verify._verdict([], 1e-6, exact=False)


def test_relation_check_shape_invariant():
    with pytest.raises(ValueError):
        verify.RelationCheck(
            relation="pseudo",
            params={},
            truncations=(8, 16),
            compression=4,
            residuals=(0.0,),
            tolerance=1e-9,
            verdict=True,
        )


# ---------------------------------------------------------------------------
# exact families


def test_pseudo_resolvent_exact(ladder):
    check = verify.check_pseudo_resolvent(ladder, (1.0, 0.0), 1.0, 2.0, 6)
    assert check.verdict
    assert all(r <= 1e-12 for r in check.residuals)
    assert check.truncations == (16, 24, 32)


def test_pseudo_resolvent_rejects_equal_parameters(ladder):
    with pytest.raises(ValueError):
        verify.check_pseudo_resolvent(ladder, (1.0, 0.0), 1.0, 1.0, 6)


def test_adjoint_symmetry_complex_parameter(ladder):
    check = verify.check_adjoint_symmetry(ladder, (1.0, -2.0), 1.5 + 0.5j, 6)
    assert check.verdict
    assert all(r <= 1e-12 for r in check.residuals)


def test_zero_vector_scalar(ladder):
    check = verify.check_zero_vector(ladder, -2.0, 6)
    assert check.verdict
    assert all(r <= 1e-13 for r in check.residuals)


def test_relation_iii_exact(ladder):
    for c in (1.0, -1.0, 2.5):
        check = verify.check_relation_iii(ladder, (1.0, 1.0), 1.0, c)
        assert check.verdict
        assert all(r <= 1e-10 for r in check.residuals)
    with pytest.raises(ValueError):
        verify.check_relation_iii(ladder, (1.0, 0.0), 1.0, 0.0)
    with pytest.raises(ValueError):
        verify.check_relation_iii(ladder, (1.0, 0.0), 1.0, 1.0 + 1.0j)


class _Planted:
    """A solver whose resolvent is scaled by `factor`: plants a defect of
    relative size factor - 1 in rel_iii."""

    def __init__(self, solver, factor):
        self._solver, self._factor = solver, factor

    def apply(self, block):
        return self._factor * self._solver.apply(block)

    def matrix(self):
        return self._factor * self._solver.matrix()


class _PlantedCache(verify.SolverCache):
    def __init__(self, rep, lam, factor):
        super().__init__(rep)
        self._lam, self._factor = complex(lam), factor

    def solver(self, z, f):
        solver = super().solver(z, f)
        if complex(z) == self._lam:
            return solver
        return _Planted(solver, self._factor)


def _bound_of_identity(n):
    # alpha * max_i |omega_i|: the bound on the identity, and the factor by
    # which the bound can exceed the spectral norm of any operator
    return verify._norm_bound(lambda x: x, n)


@pytest.mark.parametrize("modes, levels", [(1, 256), (2, 12), (2, 16)])
def test_relation_iii_planted_defect_matches_dense_norm(modes, levels):
    # the residual bounds the dense SVD norm from above, and exceeds it by
    # at most alpha * max_i |omega_i|
    rep = fock.build_rep(modes, levels)
    lam, c, f = 1.0, 2.5, (1.0,) * (2 * modes)
    cache = _PlantedCache(rep, lam, 1.0 + 1e-6)
    check = verify.check_relation_iii([cache], f, lam, c)
    scaled = cache.solver(c * lam, tuple(c * x for x in f)).matrix()
    dense = np.linalg.norm(c * scaled - cache.solver(lam, f).matrix(), 2)
    assert dense > 1e-7
    assert dense <= check.residuals[0] <= _bound_of_identity(rep.dim) * dense
    assert not check.verdict


def test_spectral_norm_of_a_random_matrix():
    # the randomized bound lies between the spectral norm and
    # alpha * max_i |omega_i| times it
    rng = np.random.default_rng(11)
    a = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
    got = verify._norm_bound(a.__matmul__, 200)
    expected = np.linalg.norm(a, 2)
    assert expected <= got <= _bound_of_identity(200) * expected


def test_spectral_norm_of_zero_is_exactly_zero():
    zero = lambda x: np.zeros_like(x)  # noqa: E731
    assert verify._norm_bound(zero, 50) == 0.0
    # the constants give a failure probability of at most 1e-12
    assert verify.NORM_BOUND_FACTOR ** (-2 * verify.NORM_BOUND_COLUMNS) <= 1e-12


def test_spectral_norm_sees_past_a_symmetry_sector():
    # [[A, B], [B, A]] commutes with swapping the two halves.  Its singular
    # values are those of A + B on the symmetric sector and of A - B on the
    # antisymmetric sector, where the largest one lies.  Applied half by
    # half, it maps a symmetric vector to an exactly symmetric one, so a
    # flat vector only sees A + B, and its image, scaled as the bound
    # scales, falls short of the norm.
    rng = np.random.default_rng(5)
    half = 40

    def random_with_norm(norm):
        m = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
        return norm * m / np.linalg.norm(m, 2)

    sym, anti = random_with_norm(1e-3), random_with_norm(3.0)
    a, b = (sym + anti) / 2, (sym - anti) / 2

    def by_halves(p, q):
        return lambda x: np.concatenate(
            [p @ x[:half] + q @ x[half:], q @ x[:half] + p @ x[half:]]
        )

    image = by_halves(a, b)(np.ones(2 * half))
    assert np.array_equal(image[:half], image[half:])
    assert verify.NORM_BOUND_FACTOR * np.linalg.norm(image) < 3.0
    got = verify._norm_bound(by_halves(a, b), 2 * half)
    assert 3.0 * (1 - 1e-12) <= got <= _bound_of_identity(2 * half) * 3.0


def test_norm_bound_fails_no_more_often_than_the_lemma_allows(monkeypatch):
    # at alpha = 2 and r = 2 the lemma allows a miss with probability
    # alpha**(-2r) = 1/16.  A rank-one operator x -> e_1 (e_1* x) is the
    # worst case: the bound misses its norm 1 exactly when every column has
    # |omega_1|^2 < alpha**-2, with probability (1 - exp(-alpha**-2))**r.
    # Each call draws a fresh Omega, from the next seed of one counter: the
    # block's drawing function runs without its per-dimension cache.
    alpha, r, trials = 2.0, 2, 20000
    seeds, draw = itertools.count(2024), fock.complex_gaussians
    monkeypatch.setattr(verify, "NORM_BOUND_FACTOR", alpha)
    monkeypatch.setattr(verify, "NORM_BOUND_COLUMNS", r)
    monkeypatch.setattr(verify, "_gaussian_block", verify._gaussian_block.__wrapped__)
    monkeypatch.setattr(fock, "complex_gaussians", lambda seed, shape: draw(next(seeds), shape))

    def rank_one(x):
        out = np.zeros_like(x)
        out[0] = x[0]
        return out

    misses = sum(verify._norm_bound(rank_one, 4) < 1.0 for _ in range(trials))
    rate = misses / trials
    exact = (1.0 - math.exp(-(alpha**-2))) ** r
    assert rate <= alpha ** (-2 * r)
    assert abs(rate - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / trials)


# ---------------------------------------------------------------------------
# convergence families


def test_relation_i_same_direction_trivial(ladder):
    check = verify.check_relation_i(ladder, (1.0, 0.0), (1.0, 0.0), 1.0, 2.0, 6)
    assert all(r <= 1e-10 for r in check.residuals)


def test_relation_i_convergence(ladder_large):
    check = verify.check_relation_i(
        ladder_large, (1.0, 0.0), (0.0, 1.0), 1.0, 1.0, 6
    )
    assert check.verdict
    r = check.residuals
    assert r[0] > r[1] > r[2]
    assert r[-1] <= 1e-6
    assert check.params["sigma"] == 1.0


def test_relation_ii_zero_direction_exact(ladder):
    check = verify.check_relation_ii(ladder, (1.0, 0.0), (0.0, 0.0), 1.0, 2.0, 6)
    assert all(r <= 1e-9 for r in check.residuals)


def test_relation_ii_same_direction_exact(ladder):
    check = verify.check_relation_ii(ladder, (1.0, 0.0), (1.0, 0.0), 1.0, 1.0, 6)
    assert all(r <= 1e-9 for r in check.residuals)


def test_relation_ii_convergence(ladder_large):
    check = verify.check_relation_ii(
        ladder_large, (1.0, 0.0), (0.0, 1.0), 1.0, 2.0, 6
    )
    assert check.verdict
    r = check.residuals
    assert r[0] > r[1] > r[2]
    assert r[-1] <= 1e-6


def test_relation_ii_rejects_cancelling_parameters(ladder):
    with pytest.raises(DomainError):
        verify.check_relation_ii(ladder, (1.0, 0.0), (0.0, 1.0), 1.0, -1.0, 6)


def test_relation_iv_parallel_trivial(ladder):
    check = verify.check_relation_iv(ladder, (1.0, 0.0), (2.0, 0.0), 1.0, 6)
    assert all(r <= 1e-10 for r in check.residuals)


def test_relation_iv_convergence(ladder_large):
    check = verify.check_relation_iv(
        ladder_large, (1.0, 0.0), (0.0, 1.0), 1.0, 6
    )
    assert check.verdict
    r = check.residuals
    assert r[0] > r[1] > r[2]
    assert r[-1] <= 1e-6


def test_relation_iv_vanishing_pairing(ladder):
    # parallel directions commute exactly, so the residual is pure noise
    check = verify.check_relation_iv(ladder, (2.0, 0.0), (1.0, 0.0), 1.0, 6)
    assert check.params["sigma"] == 0.0
    assert check.verdict


def test_sigma_override_from_explicit_space(ladder):
    # a degenerate form forces the pairing to zero even though the standard
    # one would not; parallel vectors keep the operators consistent with it
    degenerate = symplectic.SymplecticSpace(form=[[0.0, 0.0], [0.0, 0.0]])
    check = verify.check_relation_i(
        ladder, (1.0, 0.0), (2.0, 0.0), 1.0, 2.0, 6, space=degenerate
    )
    assert check.params["sigma"] == 0.0
    assert check.verdict


# ---------------------------------------------------------------------------
# almost-inner probes


def test_almost_inner_monomial_exact(ladder):
    for probe in ("Q1", "P1", "Q1*P1"):
        check = verify.check_almost_inner(ladder, (1.0, 0.0), 1.0, probe, 6)
        assert check.verdict
        assert check.tolerance == verify.EXACT_TOL
        assert all(r <= 1e-10 for r in check.residuals)


def test_almost_inner_identity_probe_trivial(ladder):
    check = verify.check_almost_inner(ladder, (1.0, 0.0), 1.0, "I", 6)
    assert all(r == 0.0 for r in check.residuals)


def test_almost_inner_expression_probe_converges(ladder_large):
    check = verify.check_almost_inner(
        ladder_large, (1.0, 0.0), 1.0, "R(1,[0,1])", 6
    )
    assert check.verdict
    assert check.tolerance == 1e-6
    r = check.residuals
    assert r[0] > r[1] > r[2]
    assert r[-1] <= 1e-6


def test_almost_inner_expr_object_probe(ladder):
    check = verify.check_almost_inner(
        ladder, (1.0, 0.0), 1.0, resolvent(1.0, (0.0, 1.0)), 6
    )
    assert check.params["probe"] == "R(1,[0,1])"


def test_almost_inner_bad_probe(ladder):
    with pytest.raises(TypeError):
        verify.check_almost_inner(ladder, (1.0, 0.0), 1.0, 42, 6)
    with pytest.raises(ValueError):
        verify.check_almost_inner(ladder, (1.0, 0.0), 1.0, "Q7", 6)


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults():
    cfg = verify.Config()
    assert cfg.truncations == (64, 128, 256)
    assert cfg.compression == 6
    assert cfg.vectors == ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
    assert cfg.enabled_families() == (
        "pseudo",
        "adjoint",
        "zero_vector",
        "rel_i",
        "rel_ii",
        "rel_iii",
        "rel_iv",
    )


def test_config_probe_enables_family():
    cfg = verify.Config(probes=("Q1",))
    assert cfg.enabled_families()[-1] == "almost_inner"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"truncations": ()},
        {"truncations": (128, 64)},
        {"truncations": (64, 64)},
        {"compression": 0},
        {"compression": 65},
        {"tolerance": 0.0},
        {"lambdas": (1.0, 0.5j)},
        {"lambdas": ()},
        {"scales": (1.0, 0.0)},
        {"vectors": ((1.0, 0.0, 0.0),)},
        {"families": ("rel_v",)},
        {"families": ("almost_inner",)},
        {"modes": 0},
        {"truncations": (64, 80), "modes": 2},
        {"space": {"n": 2}},
        {"space": {"form": [[0.0, 2.0], [-2.0, 0.0]]}},
        {"space": {"form": [[0.0, 0.0], [0.0, 0.0]]}},
        # each field's reader: integers are integral and not bools, lists
        # are lists, and a spectral parameter is a number or [re, im]
        {"modes": 1.7},
        {"seed": 1.5},
        {"truncations": (8.9, 12)},
        {"compression": True},
        {"probes": "Q1"},
        {"lambdas": ((1, 2, 3),)},
        {"families": ()},
        # a named family with an empty grid: the pair families need two
        # distinct vectors, pseudo two spectral parameters
        {"families": ("rel_i",), "vectors": ((1.0, 0.0),)},
        {"families": ("pseudo",), "lambdas": (1.0,)},
        # a repeated spectral parameter, also written as [re, im]
        {"families": ("pseudo",), "lambdas": (1.0, 1.0)},
        {"lambdas": (1.0, -1.0, (1.0, 0.0))},
        # infinite and nan numbers
        {"tolerance": float("inf")},
        {"lambdas": (float("nan"), 1.0)},
        {"lambdas": ((1.0, float("inf")),)},
        {"scales": (float("inf"),)},
        {"vectors": ((float("nan"), 0.0), (0.0, 1.0))},
    ],
)
def test_config_rejects(kwargs):
    with pytest.raises(verify.ConfigError):
        verify.Config(**kwargs)


def test_config_names_the_family_with_an_empty_grid():
    with pytest.raises(verify.ConfigError, match="rel_iv"):
        verify.Config(families=("pseudo", "rel_iv"), vectors=((1.0, 0.0), (1.0, 0.0)))
    # with families null, the families that do not apply are skipped
    verify.Config(vectors=((1.0, 0.0),), lambdas=(1.0,))


def _public_functions(module):
    """(name, function) for the module's public functions and the public
    methods of its public classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if not inspect.isclass(obj):
            if callable(obj):
                yield name, obj
            continue
        for attr in vars(obj):
            method = getattr(obj, attr)
            if not attr.startswith("_") and (inspect.isfunction(method) or inspect.ismethod(method)):
                yield f"{name}.{attr}", method


def test_only_the_configured_checks_take_a_tolerance():
    # every other verdict reads its module's constant, so no caller can
    # loosen it; the configured checks read Config.tolerance
    configured = {"check_relation_i", "check_relation_ii", "check_relation_iv",
                  "check_almost_inner"}
    found = []
    for info in pkgutil.iter_modules(resalg.__path__):
        module = importlib.import_module(f"resalg.{info.name}")
        for name, fn in _public_functions(module):
            params = set(inspect.signature(fn).parameters)
            if name not in configured and params & {"tol", "rtol", "random_probes"}:
                found.append(f"{module.__name__}.{name}")
    assert found == []
    # the walk sees the four configured checks and their tolerance
    assert all("tol" in inspect.signature(getattr(verify, n)).parameters for n in configured)


def test_config_json_round_trip():
    cfg = verify.Config(
        truncations=(16, 32),
        compression=4,
        probes=("Q1",),
        lambdas=(1.0, 1.0 + 2.0j),
    )
    back = verify.Config.from_json(json.dumps(cfg.to_dict(), indent=2))
    assert back == cfg


def test_config_fields_read_alike_on_every_path():
    # one reader per field, whether the value comes from Config(...), from
    # a JSON object or from a dataclasses.replace override
    assert list(verify._READERS) == [info.name for info in fields(verify.Config)]
    direct = verify.Config(
        truncations=[8.0, 12], compression=4.0, seed=3, lambdas=[[1.0, 2.0], 1]
    )
    loaded = verify.Config.from_dict(
        {"truncations": [8, 12], "compression": 4, "seed": 3.0, "lambdas": [[1, 2], 1.0]}
    )
    # as the command line passes --trunc: split and converted to int by cli
    replaced = replace(
        verify.Config(), truncations=[int(x) for x in "8,12".split(",")], compression=4, seed=3,
        lambdas=(1 + 2j, 1.0),
    )
    assert direct == loaded == replaced
    assert direct.truncations == (8, 12) and type(direct.truncations[0]) is int
    assert type(direct.compression) is int and type(loaded.seed) is int
    assert direct.lambdas == (1 + 2j, 1 + 0j)
    assert direct.to_dict()["lambdas"] == [[1.0, 2.0], 1.0]


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(verify.ConfigError):
        verify.Config.from_dict({"truncation": [64]})
    with pytest.raises(verify.ConfigError):
        verify.Config.from_dict({"schema_version": 2})
    with pytest.raises(verify.ConfigError):
        verify.Config.from_json("not json")
    with pytest.raises(verify.ConfigError):
        verify.Config.from_json("[1,2]")


def test_config_custom_space_round_trip():
    form = symplectic.standard_form(1).tolist()
    cfg = verify.Config(space={"form": form}, truncations=(8, 16), compression=4)
    assert cfg.space_object().dim == 2


# ---------------------------------------------------------------------------
# suite


@pytest.fixture(scope="module")
def small_suite():
    cfg = verify.Config(truncations=(32, 64), compression=4, tolerance=1e-3)
    return verify.run_suite(cfg)


def test_suite_all_pass(small_suite):
    assert small_suite.all_pass
    assert small_suite.families() == (
        "pseudo",
        "adjoint",
        "zero_vector",
        "rel_i",
        "rel_ii",
        "rel_iii",
        "rel_iv",
    )
    assert small_suite.sigma_cross_max <= verify.SIGMA_CROSS_TOL


def test_suite_sequence_protocol(small_suite):
    assert len(small_suite) > 0
    assert small_suite[0].relation == "pseudo"
    assert all(isinstance(c, verify.RelationCheck) for c in small_suite)


def test_suite_report_schema(small_suite):
    report = small_suite.to_report()
    assert report["schema_version"] == 1
    assert report["all_pass"] is True
    entry = report["checks"][0]
    assert set(entry) == {
        "relation",
        "params",
        "truncations",
        "residuals",
        "tolerance",
        "verdict",
        "seed",
    }
    assert entry["verdict"] in ("pass", "fail")
    assert entry["params"]["compression"] == 4


def test_suite_captures_check_errors():
    # probe referencing a missing mode fails its check but not the suite
    cfg = verify.Config(
        truncations=(8, 12),
        compression=4,
        probes=("Q3",),
        families=("zero_vector", "almost_inner"),
    )
    result = verify.run_suite(cfg)
    assert not result.all_pass
    failed = [c for c in result if not c.verdict]
    assert failed and all(c.relation == "almost_inner" for c in failed)
    assert "error" in failed[0].params
    assert all(math.isinf(r) for r in failed[0].residuals)
    passed = [c for c in result if c.relation == "zero_vector"]
    assert passed and all(c.verdict for c in passed)


def test_suite_calls_checks_and_cache_through_module_attributes(monkeypatch):
    # a tracer wraps verify.check_* and subclasses verify.SolverCache; the
    # suite must reach both through the module at call time
    check_calls = []
    solver_levels = []
    original = verify.check_zero_vector

    def counting_check(*args, **kwargs):
        check_calls.append(args)
        return original(*args, **kwargs)

    class CountingCache(verify.SolverCache):
        def solver(self, z, f):
            solver_levels.append(self.rep.levels)
            return super().solver(z, f)

    monkeypatch.setattr(verify, "check_zero_vector", counting_check)
    monkeypatch.setattr(verify, "SolverCache", CountingCache)
    cfg = verify.Config(
        truncations=(8, 12), compression=4, families=("zero_vector", "adjoint")
    )
    result = verify.run_suite(cfg)
    assert result.all_pass
    zero_checks = [c for c in result if c.relation == "zero_vector"]
    assert len(check_calls) == len(zero_checks) == len(cfg.lambdas)
    assert set(solver_levels) == set(cfg.truncations)


def test_suite_table_rows_follow_family_order():
    cfg = verify.Config(truncations=(8, 12), compression=4, probes=("Q1",))
    table = verify._suite_table(cfg)
    assert tuple(row[0] for row in table) == verify.FAMILY_ORDER
    for relation, check, _, keywords, grid in table:
        assert set(keywords) <= {"m", "tol", "space"}
        assert set(keywords) <= set(inspect.signature(check).parameters), relation
        assert grid, relation


def test_suite_passes_each_check_its_row_arguments(monkeypatch):
    # every check is called with the level caches, its grid point and
    # exactly the suite-wide arguments its row names
    cfg = verify.Config(truncations=(8, 12), compression=4, probes=("Q1",))
    calls = {}
    for relation, check, _, keywords, grid in verify._suite_table(cfg):

        def recording(caches, *, _relation=relation, _check=check, **kwargs):
            calls.setdefault(_relation, []).append((caches, kwargs))
            return _check(caches, **kwargs)

        monkeypatch.setattr(verify, check.__name__, recording)
    table = verify._suite_table(cfg)
    result = verify.run_suite(cfg)
    shared = {"m": 4, "tol": cfg.tolerance}
    assert [c.relation for c in result] == [
        relation for relation, *_, grid in table for _ in grid
    ]
    for relation, _, _, keywords, grid in table:
        assert len(calls[relation]) == len(grid)
        for (caches, kwargs), point in zip(calls[relation], grid):
            assert [c.rep.levels for c in caches] == [8, 12]
            assert set(kwargs) == set(point) | set(keywords)
            assert {k: kwargs[k] for k in point} == point
            for key in keywords:
                if key == "space":
                    assert kwargs[key].is_standard() and kwargs[key].dim == 2
                else:
                    assert kwargs[key] == shared[key]


def test_null_families_skip_families_without_grid_points():
    # one vector leaves no pair for rel_i, rel_ii and rel_iv
    cfg = verify.Config(
        truncations=(16, 24), compression=4, vectors=((1.0, 0.5),), probes=("Q1",)
    )
    assert cfg.enabled_families() == (
        "pseudo", "adjoint", "zero_vector", "rel_iii", "almost_inner"
    )
    report = verify.run_suite(cfg).to_report()
    assert report["families"] == list(cfg.enabled_families())
    assert [c["relation"] for c in report["checks"]] == (
        ["pseudo"] * 3 + ["adjoint"] * 3 + ["zero_vector"] * 3 + ["rel_iii"] * 3
        + ["almost_inner"]
    )
    assert report["all_pass"]


def test_suite_error_entries_report_the_compression_of_their_check():
    # at lambda = 1e308 the scaled resolvent at c = 2.5 overflows and its
    # solver raises; rel_iii is a full-norm check, so its passing and its
    # erroring entries both report compression 0
    cfg = verify.Config(
        lambdas=(1e308, 1.0), truncations=(8, 12), compression=4, families=("rel_iii",)
    )
    result = verify.run_suite(cfg)
    errors = [c for c in result if "error" in c.params]
    assert [c.params["c"] for c in errors] == [2.5] * 3
    assert len(errors) < len(result)
    assert {c.compression for c in result} == {0}


def test_suite_expression_probe_forms_no_dense_evaluation(monkeypatch):
    # expression probes are applied to the box columns through the level's
    # solver cache: no dense evaluation, and the probe's letter R(1,[0,1])
    # reuses the factorization of R(lam0, f) at f = (0, 1)
    def no_evaluate(rep, e):
        raise AssertionError("verify formed a dense evaluation")

    factored = []

    class CountingSolver(fock.ResolventSolver):
        def __init__(self, rep, z, f):
            factored.append((rep.levels, complex(z), tuple(f)))
            super().__init__(rep, z, f)

    monkeypatch.setattr(fock, "evaluate", no_evaluate)
    monkeypatch.setattr(fock, "ResolventSolver", CountingSolver)
    cfg = verify.Config(
        truncations=(64, 128, 256),
        probes=("R(1,[0,1])", "Q1*P1"),
        families=("almost_inner",),
    )
    result = verify.run_suite(cfg)
    assert result.all_pass
    assert len(result) == 2 * len(cfg.vectors)
    assert sorted(factored) == sorted(
        (n, 1.0 + 0j, f) for n in cfg.truncations for f in cfg.vectors
    )


@pytest.mark.parametrize("repeats, once", [
    (dict(lambdas=(1.0,)), dict(lambdas=(1.0,))),
    (dict(vectors=((1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))), dict()),
    (dict(scales=(-1.0, 0.5, -1.0, 2.5)), dict()),
    (dict(probes=("Q1", "P1", "Q1")), dict(probes=("Q1", "P1"))),
])
def test_each_suite_point_runs_once(monkeypatch, repeats, once):
    # a repeated vector, scale or probe, or the lambda pair of one lambda,
    # is checked once, in first-seen order, and the cross-validation takes
    # each vector once
    crossed = []
    cross = verify._sigma_cross_validation

    def recording(cache, space, vectors, m, seed):
        crossed.append(vectors)
        return cross(cache, space, vectors, m, seed)

    monkeypatch.setattr(verify, "_sigma_cross_validation", recording)
    base = dict(truncations=(16, 24), compression=4)
    report = verify.run_suite(verify.Config(**base, **repeats)).to_report()
    want = verify.run_suite(verify.Config(**base, **once)).to_report()
    points = Counter((c["relation"], json.dumps(c["params"], sort_keys=True))
                     for c in report["checks"])
    assert max(points.values()) == 1
    assert report["checks"] == want["checks"]
    assert report["sigma_cross_max"] == want["sigma_cross_max"]
    assert crossed[0] == crossed[1] == verify._default_vectors(1)


def test_suite_deterministic_report():
    cfg = verify.Config(truncations=(8, 12), compression=4)
    import json

    a = json.dumps(verify.run_suite(cfg).to_report(), sort_keys=True)
    b = json.dumps(verify.run_suite(cfg).to_report(), sort_keys=True)
    assert a == b


# ---------------------------------------------------------------------------
# work done once


@pytest.mark.parametrize("modes, truncations, m", [(1, (16, 24), 4), (2, (8, 12), 3)])
def test_each_solver_solves_the_box_columns_once(monkeypatch, modes, truncations, m):
    # every residual reads R(z, f) sel from its level's memo
    caches, solves = [], Counter()

    class Recording(verify.SolverCache):
        def __init__(self, rep):
            super().__init__(rep)
            caches.append(self)

    solve = fock.ResolventSolver._solve

    def counting(self, block):
        if any(block is sel for c in caches for _, sel in c._boxes.values()):
            solves[id(self)] += 1
        return solve(self, block)

    monkeypatch.setattr(verify, "SolverCache", Recording)
    monkeypatch.setattr(fock.ResolventSolver, "_solve", counting)
    cfg = verify.Config(modes=modes, truncations=truncations, compression=m,
                        tolerance=1e-2, probes=("Q1", "Q1*P1"))
    result = verify.run_suite(cfg)
    assert all("error" not in c.params for c in result)
    memoized = {id(c.solver(z, f)) for c in caches for z, f, _ in c._box_solves}
    assert solves and set(solves) == memoized
    assert set(solves.values()) == {1}
    block = caches[0].box_solve(cfg.lambdas[0], cfg.vectors[0], m)
    with pytest.raises(ValueError):
        block[0, 0] = 1.0


@pytest.mark.parametrize("modes, truncations", [(1, (16, 24)), (2, (6, 8))])
def test_each_level_solves_the_gaussian_block_once_per_direction(monkeypatch, modes,
                                                                  truncations):
    # rel_iii's scales share R(lam0, f) Omega, and each R(c lam0, c f) Omega
    # is one solve
    solves = Counter()
    solve = fock.ResolventSolver._solve

    def counting(self, block):
        if block is verify._gaussian_block(self.dim):
            solves[self.dim, self.z, self.f] += 1
        return solve(self, block)

    monkeypatch.setattr(fock.ResolventSolver, "_solve", counting)
    cfg = verify.Config(modes=modes, truncations=truncations, compression=3,
                        tolerance=1e-2, families=("rel_iii",))
    result = verify.run_suite(cfg)
    assert len(result) == len(cfg.scales) * len(cfg.vectors)
    assert all(c.verdict for c in result)
    lam0 = cfg.lambdas[0]
    for n in truncations:
        dim = n ** modes
        plain = {(dim, lam0, f) for f in cfg.vectors}
        scaled = {(dim, c * lam0, tuple(c * x for x in f)) for c in cfg.scales for f in cfg.vectors}
        assert {key for key in solves if key[0] == dim} == plain | scaled
    assert set(solves.values()) == {1}


def test_gaussian_block_and_its_solves_are_read_only():
    cache = verify.SolverCache(fock.build_rep(2, 6))
    omega = verify._gaussian_block(36)
    assert omega is verify._gaussian_block(36) and omega.shape == (36, verify.NORM_BOUND_COLUMNS)
    # drawn as before it was kept: complex Gaussians of seed 0
    drawn = fock.complex_gaussians(0, omega.shape)
    assert omega.tobytes() == drawn.tobytes()
    f = (1.0, 0.0, 0.0, 1.0)
    block = cache.gaussian_solve(1.0, f)
    assert block is cache.gaussian_solve(1.0, f)
    assert np.array_equal(block, cache.solver(1.0, f).apply(omega))
    for arr in (omega, block):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_box_memo_keeps_its_byte_budget_and_the_report(monkeypatch):
    caches = []

    class Recording(verify.SolverCache):
        def __init__(self, rep):
            super().__init__(rep)
            caches.append(self)

    monkeypatch.setattr(verify, "SolverCache", Recording)
    cfg = verify.Config(modes=2, truncations=(8, 12), compression=3, tolerance=1e-2)
    kept = json.dumps(verify.run_suite(cfg).to_report())
    top = caches[-1]
    sizes = {b.nbytes for b in top._box_solves.values()}
    assert len(sizes) == 1 and len(top._box_solves) > 4
    # a budget of four top-level blocks: the first ones are kept, the rest
    # solved anew
    budget = 4 * sizes.pop()
    monkeypatch.setattr(verify, "BOX_MEMO_BYTES", budget)
    caches.clear()
    assert json.dumps(verify.run_suite(cfg).to_report()) == kept
    assert all(c._box_bytes <= budget for c in caches)
    assert len(caches[-1]._box_solves) == 4 and caches[-1]._box_bytes == budget
    first = next(iter(caches[-1]._box_solves))
    assert caches[-1].box_solve(*first) is caches[-1]._box_solves[first]
    z, f, m = (3.0, (1.0, 0.0, 0.0, 0.0), 3)
    assert caches[-1].box_solve(z, f, m) is not caches[-1].box_solve(z, f, m)


def _pairing_reference(rep, f, g, m, seed):
    """(report, sigma, gap) of the dense K = -i(G_f G_g - G_g G_f), with the
    generators from scipy's CSC matrices and the quotients taken on the full
    probe block."""
    gf, gg = csc_generator(rep, f), csc_generator(rep, g)
    k = (-1j * (gf @ gg - gg @ gf)).toarray()
    probes = fock.probe_block(rep, m, seed)
    report = fock.schur_report(fock.rayleigh_quotients(probes, k @ probes))
    target = symplectic.pair(rep.space, f, g)
    return report, target, abs(report.mean - target)


def _assert_close_to_reference(probed, want):
    (report, target, gap, _), (ref, ref_target, ref_gap) = probed, want
    assert target == ref_target
    assert report.probes_used == ref.probes_used
    assert abs(report.mean - ref.mean) <= 1e-14
    assert abs(report.max_deviation - ref.max_deviation) <= 1e-14
    assert abs(gap - ref_gap) <= 1e-14


def test_sigma_cross_validation_matches_pairing_probe_per_pair(monkeypatch):
    rep = fock.build_rep(2, 8)
    vectors = verify._default_vectors(2)
    pairs = verify._distinct_pairs(vectors)
    shared = list(verify.pairing_probes(verify.SolverCache(rep), rep.space, pairs, 3, 5))
    for (f, g), probed in zip(pairs, shared, strict=True):
        # the suite probes every pair at once; `schur --pair` takes one pair
        alone = next(verify.pairing_probes(verify.SolverCache(rep), rep.space, [(f, g)], 3, 5))
        assert alone == probed
        _assert_close_to_reference(probed, _pairing_reference(rep, f, g, 3, 5))
    worst, error = verify._sigma_cross_validation(verify.SolverCache(rep), rep.space,
                                                  vectors, 3, 5)
    assert error is None
    assert worst == max(gap for _, _, gap, _ in shared)

    pair, planted = symplectic.pair, pairs[4]
    monkeypatch.setattr(
        symplectic, "pair",
        lambda space, f, g: pair(space, f, g) + (1e-3 if (f, g) == planted else 0.0),
    )
    worst, error = verify._sigma_cross_validation(verify.SolverCache(rep), rep.space,
                                                  vectors, 3, 5)
    report, target, gap, ok = next(
        verify.pairing_probes(verify.SolverCache(rep), rep.space, [planted], 3, 5))
    assert math.isinf(worst) and not ok
    assert error == (f"commutator scalar {report.mean} disagrees with the pairing "
                     f"{target} for f={planted[0]}, g={planted[1]} (gap {gap:.3e})")


@pytest.mark.parametrize("modes, levels", [(1, 16), (2, 8), (3, 4)])
@pytest.mark.parametrize("below_top", [True, False])
def test_sigma_cross_validation_reads_the_box_block(modes, levels, below_top):
    # K on the box, read off the generators' stencil rows on the box and the
    # next box, agrees with the dense commutator on the full probe block; G_v
    # maps the box into the next box; at m = N the boundary defect fails, at
    # the same first pair
    rep = fock.build_rep(modes, levels)
    m = min(3, levels - 1) if below_top else levels
    vectors = verify._default_vectors(modes)
    pairs = verify._distinct_pairs(vectors)
    idx = fock.box_indices(rep, m)
    off_near = np.setdiff1d(np.arange(rep.dim), fock.box_indices(rep, min(m + 1, levels)))
    for v in vectors:
        assert not fock.generator(rep, v).columns(idx)[off_near].any()
    probed = list(verify.pairing_probes(verify.SolverCache(rep), rep.space, pairs, m, 5))
    refs = [_pairing_reference(rep, f, g, m, 5) for f, g in pairs]
    for got, want in zip(probed, refs, strict=True):
        _assert_close_to_reference(got, want)
    ref_ok = [ref.is_scalar and gap <= verify.SIGMA_CROSS_TOL for ref, _, gap in refs]
    assert [ok for *_, ok in probed] == ref_ok
    worst, error = verify._sigma_cross_validation(verify.SolverCache(rep), rep.space,
                                                  vectors, m, 5)
    if below_top:
        assert all(ref_ok) and error is None
        assert worst <= verify.SIGMA_CROSS_TOL
    else:
        f, g = pairs[ref_ok.index(False)]
        assert math.isinf(worst)
        assert f"for f={f}, g={g} (gap " in error


def test_sigma_cross_validation_at_box_n_stays_small():
    # box = N at two modes, N = 48: a dense box block (K's, or a generator's
    # columns on the box) would take 2304^2 * 16 B = 85 MB; the stencil rows
    # and the random probes' gathered images peak near 9 MB
    rep = fock.build_rep(2, 48)
    cache, vectors = verify.SolverCache(rep), verify._default_vectors(2)
    tracemalloc.start()
    try:
        worst, error = verify._sigma_cross_validation(cache, rep.space, vectors, 48, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isinf(worst) and error  # the boundary defect at m = N
    assert peak < 16 * 2**20
