"""End-to-end tests for the command-line interface.

Each test drives ``resalg.cli.main`` in process and asserts on exit codes
and emitted JSON; subprocess tests cover the console script and reports
under different BLAS thread counts.
"""

import contextlib
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resalg import cli, cohomology, fock, verify
from resalg.cli import main
from resalg.expr import parse

# verify reports of configs/{quick,default,two_mode}.json and of
# tests/golden/edge_cases.config.json, cohomology reports of
# configs/gauge_quadratic.json; see README.md for their environment
GOLDEN = pathlib.Path(__file__).parent / "golden"
# the cohomology goldens in the first report schema, one dict per ordered
# pair; kept to hold the current schema to the same values
GOLDEN_V1 = GOLDEN / "v1"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# simplify


def test_simplify_prints_canonical_form(capsys):
    code, out, err = run_cli(capsys, "simplify", "R(3,[0,0])")
    assert code == 0
    assert out.strip() == "(0-0.3333333333333333i)*I"
    assert err == ""


def test_simplify_parse_error_exits_2(capsys):
    code, out, err = run_cli(capsys, "simplify", "R(1,[1,0)")
    assert code == 2
    assert "error" in err


def test_simplify_imaginary_parameter_exits_2(capsys):
    code, out, err = run_cli(capsys, "simplify", "R(1i,[1,0])")
    assert code == 2
    assert "Re(z)" in err


def test_simplify_overflowing_literal_exits_2(capsys):
    code, out, err = run_cli(capsys, "simplify", "1e400*R(1,[1,0])")
    assert code == 2
    assert out == ""
    assert "overflows" in err


def test_simplify_power_past_the_limit_exits_2(capsys):
    # refused at the exponent, before any expansion
    code, out, err = run_cli(capsys, "simplify", "R(1,[1,0])^1e12")
    assert code == 2
    assert out == ""
    assert err == "error: power expands past 1024 terms x letters (position 11)\n"


def test_simplify_rejects_config_flags(capsys):
    # simplify reads no config, so it takes none of the config flags
    code, out, err = run_cli(capsys, "simplify", "--tol", "1", "R(1,[1,0])")
    assert code == 2
    assert out == ""
    assert "--tol" in err


def test_simplify_json_mode(capsys):
    code, out, _ = run_cli(capsys, "simplify", "--json", "R(2,[1,0])*R(2,[1,0])")
    assert code == 0
    payload = json.loads(out)
    assert payload["canonical"] == "R(2,[1,0])^2"
    assert payload["schema_version"] == 1


# ---------------------------------------------------------------------------
# verify


def test_verify_quick_config_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "--config", "configs/quick.json")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    assert len(report["families"]) == 7
    assert all(c["verdict"] == "pass" for c in report["checks"])


def test_verify_flag_overrides(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--trunc", "32,64", "--compress", "4", "--tol", "1e-3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["config"]["truncations"] == [32, 64]
    assert report["config"]["compression"] == 4


def test_verify_failing_tolerance_exits_1(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--trunc", "16,24", "--compress", "4", "--tol", "1e-9"
    )
    assert code == 1
    report = json.loads(out)
    assert report["all_pass"] is False
    assert "failed families" in err


def test_verify_zero_lambda_config_exits_2(capsys, tmp_path):
    bad = {
        "schema_version": 1,
        "truncations": [16, 24],
        "lambdas": [0.0, 1.0],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "verify", "--config", str(path))
    assert code == 2
    assert "config error" in err


def test_verify_nonstandard_space_exits_2(capsys, tmp_path):
    config = {
        "schema_version": 1,
        "truncations": [8, 16],
        "compression": 4,
        "space": {"form": [[0.0, 2.0], [-2.0, 0.0]]},
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(config))
    report = tmp_path / "report.json"
    code, _, err = run_cli(
        capsys, "verify", "--config", str(path), "--out", str(report)
    )
    assert code == 2
    assert "standard symplectic form" in err
    assert not report.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [("seed", 1.5, "bad seed"), ("families", [], "at least one family"),
     ("lambdas", [float("nan"), 1.0], "bad lambdas"),
     ("vectors", [[float("nan"), 0], [0, 1]], "bad vectors"),
     ("scales", [float("inf")], "bad scales"),
     ("--tol", "inf", "bad tolerance"),
     ("probes", ["R(1,[1,0]"], "bad probes: 'R(1,[1,0]': expected ')'"),
     ("probes", ["Q1", "R(1,[1,0,0,0])"], "bad probes: 'R(1,[1,0,0,0])': letter has dimension 4"),
     ("seed", -1, "bad seed: -1 is negative"), ("--seed", "-1", "bad seed: -1 is negative"),
     ("tolerance", True, "bad tolerance: True is not a number"),
     ("tolerance", "1e-3", "bad tolerance: '1e-3' is not a number"),
     ("lambdas", [True], "bad lambdas: True is not a number"),
     ("lambdas", [[1, True]], "bad lambdas: True is not a number"),
     ("scales", [True], "bad scales: True is not a number"),
     ("vectors", [[True, False], [0, 1]], "bad vectors: True is not a number"),
     ("probes", [1], "bad probes: 1 is not a string"),
     ("space", {"n": 1.7}, "bad space: 1.7 is not an integer"),
     ("space", {"n": True}, "bad space: True is not a number"),
     ("space", {"n": "1"}, "bad space: '1' is not a number"),
     ("space", {"form": [[0, True], [-1, 0]]}, "bad space: True is not a number"),
     ("space", {"form": [[0, "1"], [-1, 0]]}, "bad space: '1' is not a number"),
     ("modes", "1", "bad modes: '1' is not a number"),
     ("truncations", ["8", "12"], "bad truncations: '8' is not a number"),
     ("compression", "4", "bad compression: '4' is not a number"),
     ("seed", "3", "bad seed: '3' is not a number"),
     ("max_dim", "4096", "bad max_dim: '4096' is not a number"),
     ("--trunc", "8,x", "bad truncations: '8,x' is not a list of integers"),
     ("probes", ["R(1,[0,1])^1e12"],
      "bad probes: 'R(1,[0,1])^1e12': power expands past 1024 terms x letters (position 11)")],
)
def test_verify_rejected_config_value_exits_2(capsys, tmp_path, key, value, message):
    # a key that starts with "--" is given as a command-line flag
    flags = [key, value] if key.startswith("--") else []
    config = {"schema_version": 1, "truncations": [8, 12], "compression": 4}
    if not flags:
        config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "verify", "--config", str(path), *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ")
    assert message in err


@pytest.mark.parametrize("flags, message", [
    (("--trunc", "8,4"), "truncation list must be strictly ascending, each >= 2"),
    (("--trunc", "x"), "bad truncations: 'x' is not a list of integers"),
    (("--compress", "0"), "compression cutoff must lie in [1, smallest truncation]"),
    (("--compress", "99"), "compression cutoff must lie in [1, smallest truncation]"),
])
def test_flags_without_a_config_file_are_validated_once(capsys, monkeypatch, flags, message):
    # the defaults and the flags make one Config, so one validation
    checks = []
    post_init = verify.Config.__post_init__

    def counting(self):
        checks.append(self)
        post_init(self)

    monkeypatch.setattr(verify.Config, "__post_init__", counting)
    code, out, err = run_cli(capsys, "verify", *flags)
    assert code == 2
    assert out == ""
    assert err == f"config error: {message}\n"
    assert len(checks) <= 1
    checks.clear()
    assert cli._load_config(cli.build_parser().parse_args(["verify", "--seed", "3"])).seed == 3
    assert len(checks) == 1


@pytest.mark.parametrize("command", [("cohomology",), ("schur", "--pair", "1,0;0,1")])
@pytest.mark.parametrize("flags, seed", [(("--seed", "-1"), None), ((), -1)])
def test_negative_seed_exits_2_before_the_run(capsys, tmp_path, command, flags, seed):
    # numpy's generators reject a negative seed; the config does so first
    config = {"truncations": [8], "compression": 4}
    if seed is not None:
        config["seed"] = seed
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, *command, "--config", str(path), *flags)
    assert code == 2
    assert out == ""
    assert err == "config error: bad seed: -1 is negative\n"


@pytest.mark.parametrize("family, key, value", [
    ("rel_i", "vectors", [[1, 0]]), ("pseudo", "lambdas", [1.0]),
])
def test_verify_named_family_without_checks_exits_2(capsys, tmp_path, family, key, value):
    # rel_i pairs two distinct vectors and pseudo two spectral parameters
    config = {"truncations": [8, 12], "compression": 4, "families": [family], key: value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "verify", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ")
    assert family in err


def test_verify_repeated_spectral_parameter_exits_2(capsys, tmp_path):
    # pseudo would pair 1.0 with itself at every vector
    config = {"families": ["pseudo"], "lambdas": [1.0, 1.0], "truncations": [8, 12],
              "compression": 4}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "verify", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err == "config error: spectral parameter 1.0 is repeated\n"


def test_verify_memory_cap_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--trunc", "64,8192")
    assert code == 2
    assert "memory cap" in err


def test_verify_missing_config_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--config", "no/such/file.json")
    assert code == 2


def test_verify_bad_trunc_flag_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--trunc", "banana")
    assert code == 2


def test_verify_reports_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--trunc", "16,24", "--compress", "3", "--tol", "1e-2",
            "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_verify_cross_validation_failure_is_reported(capsys, tmp_path):
    # with the box as large as the top truncation, the commutator probe
    # sees the truncation's boundary defect and cross-validation fails
    path = tmp_path / "report.json"
    code, _, err = run_cli(
        capsys, "verify", "--trunc", "8", "--compress", "8", "--out", str(path)
    )
    assert code == 1
    report = json.loads(path.read_text())
    assert report["all_pass"] is False
    assert not math.isfinite(report["sigma_cross_max"])
    assert "disagrees with the pairing" in report["sigma_cross_error"]
    assert "sigma cross-validation failed" in err


def _reports_by_blas_threads(tmp_path, *argv, returncode=0) -> list:
    """Runs the CLI in subprocesses with default BLAS threading and with
    OPENBLAS_NUM_THREADS=1; returns the two reports' bytes."""
    reports = []
    for threads in (None, "1"):
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads-{threads or 'default'}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "resalg.cli", *argv, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == returncode, proc.stderr
        reports.append(out.read_bytes())
    return reports


def test_verify_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    for name in ("quick", "default", "two_mode"):
        reports = _reports_by_blas_threads(
            tmp_path, "verify", "--config", f"configs/{name}.json"
        )
        golden = (GOLDEN / f"{name}.report.json").read_bytes()
        assert reports[0] == golden, name
        assert reports[1] == golden, name
    reports = _reports_by_blas_threads(
        tmp_path, "verify", "--config", str(GOLDEN / "edge_cases.config.json"),
        returncode=1,
    )
    golden = (GOLDEN / "edge_cases.report.json").read_bytes()
    assert reports[0] == golden
    assert reports[1] == golden


def test_verify_edge_case_report_matches_golden(capsys, tmp_path):
    # every family, a skipped rel_ii pair, failing checks and error entries
    path = tmp_path / "report.json"
    code, _, err = run_cli(
        capsys, "verify", "--config", str(GOLDEN / "edge_cases.config.json"),
        "--out", str(path),
    )
    assert code == 1
    assert err == "failed families: almost_inner, rel_i, rel_ii, rel_iv\n"
    assert path.read_bytes() == (GOLDEN / "edge_cases.report.json").read_bytes()


def test_verify_unknown_subcommand_exits_2(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


# ---------------------------------------------------------------------------
# cohomology


def test_cohomology_zero_gauge_passes(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--trunc", "16")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    assert set(report["stages"]) == {
        "cocycle", "coboundary", "character", "homogeneity",
        "improve", "improved_resolvents",
    }


def test_cohomology_gauge_file(capsys, tmp_path):
    gauge = cohomology.random_gauge(2, 2, seed=3)
    path = tmp_path / "gauge.json"
    path.write_text(cohomology.gauge_to_json(gauge))
    code, out, _ = run_cli(
        capsys, "cohomology", "--trunc", "16", "--gauge", str(path)
    )
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_cohomology_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    gauge = tmp_path / "gauge.json"
    gauge.write_text(cohomology.gauge_to_json(cohomology.random_gauge(2, 3, seed=4)))
    reports = _reports_by_blas_threads(
        tmp_path, "cohomology", "--gauge", str(gauge), "--trunc", "32",
        "--compress", "6", "--seed", "9",
    )
    assert json.loads(reports[0])["all_pass"] is True
    assert reports[0] == reports[1]


def test_cohomology_report_bytes_match_goldens(tmp_path):
    # the quadratic gauge's report, and its twin with a corrupted pair value
    gauge = ("--gauge", "configs/gauge_quadratic.json", "--trunc", "16")
    for name, flags, code in (
        ("gauge_quadratic", (), 0), ("gauge_quadratic_corrupt", ("--corrupt-xi",), 1)
    ):
        reports = _reports_by_blas_threads(
            tmp_path, "cohomology", *gauge, *flags, returncode=code
        )
        golden = (GOLDEN / f"{name}.cohomology.json").read_bytes()
        assert reports[0] == golden, name
        assert reports[1] == golden, name


def test_cohomology_report_holds_the_v1_golden_values(capsys, tmp_path):
    # every xi and gamma value of the schema-1 goldens, bit for bit, and
    # no xi value besides them
    for name, flags, code in (
        ("gauge_quadratic", (), 0), ("gauge_quadratic_corrupt", ("--corrupt-xi",), 1)
    ):
        path = tmp_path / f"{name}.json"
        assert run_cli(
            capsys, "cohomology", "--gauge", "configs/gauge_quadratic.json",
            "--trunc", "16", *flags, "--out", str(path),
        )[0] == code
        v1 = json.loads((GOLDEN_V1 / f"{name}.cohomology.json").read_text())
        v2 = json.loads(path.read_text())
        assert v2["schema_version"] == 2
        # the last stage's defect is now a randomized upper bound, not schema
        # 1's dense SVD norm: its flag agrees, and the bound clears the tolerance
        bound, dense = (r["stages"].pop("improved_resolvents", None) for r in (v2, v1))
        assert (bound is None) == (dense is None), name
        if bound is not None:
            assert bound.keys() == dense.keys() and bound["ok"] == dense["ok"], name
            assert bound["defect"] <= cohomology.IMPROVE_TOL, name
        for key in ("box", "dim", "stages", "all_pass"):
            assert v2[key] == v1[key], (name, key)
        index = {tuple(p): i for i, p in enumerate(v2["points"])}
        box = v2["box"]
        rows = [
            [j for j, q in enumerate(v2["points"][i:], i)
             if all(abs(a + b) <= box for a, b in zip(p, q))]
            for i, p in enumerate(v2["points"])
        ]
        xi = {
            (i, j): value
            for i, (row, cols) in enumerate(zip(v2["xi"], rows, strict=True))
            for j, value in zip(cols, row, strict=True)
        }
        seen = set()
        for entry in v1["xi"]:
            i, j = sorted((index[tuple(entry["f"])], index[tuple(entry["g"])]))
            assert xi[i, j] == entry["value"], (name, entry)
            seen.add((i, j))
        assert seen == set(xi), name
        assert ("gamma" in v2) == ("gamma" in v1), name
        for i, entry in enumerate(v1.get("gamma", ())):
            assert index[tuple(entry["f"])] == i
            assert v2["gamma"][i] == entry["value"], (name, entry)


def test_cohomology_failing_improved_resolvents_exit_1(capsys, monkeypatch):
    # scales by 1 + 1e-6 the resolvents at the shifted parameters z - i s(e_1)
    # that only the last stage factors (s(e_1) = 1 for this gauge)

    class Planted(fock.ResolventSolver):
        def apply(self, block):
            return (1.0 + 1e-6 if self.z.imag else 1.0) * super().apply(block)

    monkeypatch.setattr(fock, "ResolventSolver", Planted)
    code, out, err = run_cli(
        capsys, "cohomology", "--gauge", "configs/gauge_quadratic.json", "--trunc", "16"
    )
    assert code == 1
    assert err == "failed stages: improved_resolvents\n"
    report = json.loads(out)
    stage = report["stages"]["improved_resolvents"]
    assert stage["ok"] is False
    assert stage["defect"] > cohomology.IMPROVE_TOL
    assert report["all_pass"] is False


def test_cohomology_corrupt_xi_exits_1(capsys):
    code, out, err = run_cli(capsys, "cohomology", "--trunc", "16", "--corrupt-xi")
    assert code == 1
    report = json.loads(out)
    assert report["all_pass"] is False
    assert report["stages"]["cocycle"]["ok"] is False
    assert "cocycle" in err


@pytest.mark.parametrize("modes", [1, 2])
def test_cohomology_corrupt_xi_on_a_box_1_gauge_exits_2(capsys, tmp_path, modes):
    # the fault goes on xi(e_1, e_1), which a box of radius 1 does not hold
    path = tmp_path / "gauge.json"
    path.write_text(cohomology.gauge_to_json(cohomology.random_gauge(2 * modes, 1)))
    config = ("--config", "configs/two_mode.json", "--trunc", "8") if modes == 2 else ()
    code, out, err = run_cli(
        capsys, "cohomology", *config, "--gauge", str(path), "--corrupt-xi"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ")
    assert "box of radius >= 2" in err


def test_cohomology_gauge_dimension_mismatch_exits_2(capsys, tmp_path):
    gauge = cohomology.zero_gauge(4, 1)
    path = tmp_path / "gauge.json"
    path.write_text(cohomology.gauge_to_json(gauge))
    code, _, err = run_cli(
        capsys, "cohomology", "--trunc", "16", "--gauge", str(path)
    )
    assert code == 2
    assert "dimension" in err


def test_cohomology_gauge_off_part_of_the_box_exits_2(capsys, tmp_path):
    # closed under negation, but undefined at (-1, -1) and the other points
    # of the box the pipeline reads
    path = tmp_path / "gauge.json"
    path.write_text('[{"f": [1, 0], "c": 1.0}, {"f": [-1, 0], "c": 2.0}]')
    code, out, err = run_cli(
        capsys, "cohomology", "--trunc", "16", "--gauge", str(path)
    )
    assert code == 2
    assert out == ""
    assert "(-1, -1)" in err


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_cohomology_non_finite_gauge_value_exits_2(capsys, tmp_path, bad):
    # Python's json reads both; the run must stop at validation, not abort
    gauge = cohomology.random_gauge(2, 2, seed=1)
    entries = json.loads(cohomology.gauge_to_json(gauge))
    entries[3]["c"] = float(bad)
    path = tmp_path / "gauge.json"
    path.write_text(json.dumps(entries))
    assert bad in path.read_text()
    code, out, err = run_cli(
        capsys, "cohomology", "--trunc", "16", "--gauge", str(path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("config error: bad gauge file: ")
    assert "not finite" in err


def test_cohomology_gauge_of_non_objects_exits_2(capsys, tmp_path):
    path = tmp_path / "gauge.json"
    path.write_text("[1, 2]")
    code, out, err = run_cli(
        capsys, "cohomology", "--trunc", "16", "--gauge", str(path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("config error: bad gauge file: ")


def test_cohomology_non_integer_gauge_point_exits_2(capsys, tmp_path):
    # the full box [-1, 1]^2, with (1, 0) written as [1.5, 0]
    entries = json.loads(cohomology.gauge_to_json(cohomology.zero_gauge(2, 1)))
    entry = next(e for e in entries if e["f"] == [1, 0])
    entry["f"] = [1.5, 0]
    path = tmp_path / "gauge.json"
    path.write_text(json.dumps(entries))
    code, out, err = run_cli(
        capsys, "cohomology", "--trunc", "16", "--gauge", str(path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("config error: bad gauge file: ")
    assert "[1.5, 0]" in err


def test_cohomology_gauge_point_of_a_string_exits_2(capsys, tmp_path):
    # the full box [-1, 1]^2, with (1, 0) written as the string "10"
    entries = json.loads(cohomology.gauge_to_json(cohomology.zero_gauge(2, 1)))
    next(e for e in entries if e["f"] == [1, 0])["f"] = "10"
    path = tmp_path / "gauge.json"
    path.write_text(json.dumps(entries))
    code, out, err = run_cli(
        capsys, "cohomology", "--trunc", "16", "--gauge", str(path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("config error: bad gauge file: ")
    assert "'10'" in err


@pytest.mark.parametrize(
    "key, value, shown",
    [
        ("f", [True, False], "True"),
        ("c", True, "True"),
        ("c", "0.5", "'0.5'"),
        ("f", [10**400, 0], "is not finite"),
    ],
    ids=["bool-point", "bool-value", "string-value", "huge-integer-point"],
)
def test_cohomology_gauge_of_non_numbers_exits_2(capsys, tmp_path, key, value, shown):
    # the full box [-1, 1]^2, with one entry of (1, 0) replaced
    entries = json.loads(cohomology.gauge_to_json(cohomology.zero_gauge(2, 1)))
    next(e for e in entries if e["f"] == [1, 0])[key] = value
    path = tmp_path / "gauge.json"
    path.write_text(json.dumps(entries))
    code, out, err = run_cli(
        capsys, "cohomology", "--trunc", "16", "--gauge", str(path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("config error: bad gauge file: ")
    assert shown in err


def test_cohomology_unreadable_gauge_exits_2(capsys, tmp_path):
    path = tmp_path / "gauge.json"
    path.write_text("not json at all")
    code, _, err = run_cli(
        capsys, "cohomology", "--trunc", "16", "--gauge", str(path)
    )
    assert code == 2


# The gauge-file fuzz: a full table of a small box with up to three edits,
# or a file that is no table at all.  Every case must exit 2 at validation
# with a `config error:` line and no report, or write a report.

_ODD_VALUES = [float("nan"), float("inf"), "x", "1.5", None, True, [1.0], {"c": 1}, 1e308]
_ODD_POINTS = [[0.5, 0], "10", None, 3, {"f": 1}, [], [0, 0, 0], [True, False],
               [3, 0], [40, 0], [1e300, 0], [float("inf"), 0]]
_ODD_FILES = ["{}", "[]", "null", '"text"', "[1, 2]", "[[]]", "not json", '[{"c": 1.0}]']


def _lattice(dim, box):
    return itertools.product(range(-box, box + 1), repeat=dim)


@st.composite
def gauge_files(draw):
    """(modes, gauge file text); the gauge mostly has the 2 * modes axes the
    run reads, and a small box."""
    modes = draw(st.sampled_from([1, 2]))
    if draw(st.integers(0, 7)) == 0:
        return modes, draw(st.sampled_from(_ODD_FILES))
    dim = 2 * modes if draw(st.integers(0, 4)) else 6 - 2 * modes
    box = draw(st.integers(1, 2 if dim == 2 else 1))
    entries = [
        {"f": list(p), "c": draw(st.floats(-1, 1)) if any(p) else 0.0}
        for p in _lattice(dim, box)
    ]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        n = draw(st.integers(0, len(entries) - 1))
        edit = draw(st.sampled_from(["drop", "value", "point", "repeat", "key"]))
        if edit == "drop":
            del entries[n]
        elif edit == "value":
            entries[n]["c"] = draw(st.sampled_from(_ODD_VALUES))
        elif edit == "point":
            entries[n]["f"] = draw(st.sampled_from(_ODD_POINTS))
        elif edit == "repeat":
            entries.append(dict(entries[n]))
        else:
            entries[n] = {"g": entries[n]["f"], "c": entries[n]["c"]}
    return modes, json.dumps(entries)


# finite values whose sums overflow: xi cannot be extracted, and the report
# says so at the cocycle stage
_HUGE = json.dumps([{"f": [x, y], "c": 1e308 if (x, y) != (0, 0) else 0.0}
                    for x, y in _lattice(2, 2)])


@settings(deadline=None, max_examples=60, derandomize=True, database=None)
@given(case=gauge_files(), corrupt=st.booleans())
@example(case=(1, _HUGE), corrupt=False)
def test_cohomology_gauge_file_fuzz_reports_or_exits_2(case, corrupt):
    modes, text = case
    run = ["--config", "configs/two_mode.json", "--trunc", "4"] if modes == 2 else ["--trunc", "8"]
    with tempfile.TemporaryDirectory() as tmp:
        gauge, out = pathlib.Path(tmp, "gauge.json"), pathlib.Path(tmp, "report.json")
        gauge.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([
                "cohomology", *run, "--compress", "3", "--gauge", str(gauge),
                "--out", str(out), *["--corrupt-xi"] * corrupt,
            ])
        if code == 2:
            assert err.getvalue().startswith("config error: ")
            assert not out.exists()
            return
        report = json.loads(out.read_text())
    assert code in (0, 1)
    assert report["all_pass"] is (code == 0)
    if corrupt:
        assert report["stages"]["cocycle"]["ok"] is False


def test_cohomology_overflowing_gauge_fails_the_cocycle_stage(capsys, tmp_path):
    path = tmp_path / "gauge.json"
    path.write_text(_HUGE)
    code, out, err = run_cli(capsys, "cohomology", "--trunc", "8", "--gauge", str(path))
    assert code == 1
    report = json.loads(out)
    assert list(report["stages"]) == ["cocycle"]
    assert "not a real multiple of the identity" in report["stages"]["cocycle"]["error"]
    assert "xi" not in report
    assert err.endswith("failed stages: cocycle\n")


def test_cohomology_overflowing_gauge_prints_only_the_stage_line(tmp_path):
    # in a fresh interpreter, where numpy's RuntimeWarnings would reach stderr
    path = tmp_path / "gauge.json"
    path.write_text(_HUGE)
    proc = subprocess.run(
        [sys.executable, "-m", "resalg.cli", "cohomology", "--trunc", "8", "--gauge", str(path),
         "--out", str(tmp_path / "report.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == "failed stages: cocycle\n"


# ---------------------------------------------------------------------------
# schur


def test_schur_pair_mode_matches_pairing(capsys):
    code, out, _ = run_cli(capsys, "schur", "--pair", "1,0;0,1", "--trunc", "32")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_scalar"] is True
    assert abs(payload["mean"][0] - 1.0) < 1e-10
    assert payload["pairing"] == 1.0
    assert payload["pairing_gap"] < 1e-10


def test_schur_expression_scalar(capsys):
    code, out, _ = run_cli(capsys, "schur", "R(2,[0,0])", "--trunc", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_scalar"] is True
    assert abs(payload["mean"][1] + 0.5) < 1e-12


def test_schur_non_scalar_exits_1(capsys):
    code, out, _ = run_cli(capsys, "schur", "R(1,[1,0])", "--trunc", "16")
    assert code == 1
    assert json.loads(out)["is_scalar"] is False


def test_schur_expression_probes_without_dense_evaluation(capsys, monkeypatch):
    text = "R(1,[1,0])*R(2,[0,1]) - R(2,[0,1])*R(1,[1,0])"
    rep = fock.build_rep(1, 32)
    dense = fock.schur_constant(rep, fock.evaluate(rep, parse(text)), cutoff=6)

    def no_evaluate(rep, e):
        raise AssertionError("schur formed a dense evaluation")

    monkeypatch.setattr(fock, "evaluate", no_evaluate)
    code, out, _ = run_cli(capsys, "schur", text, "--trunc", "32")
    assert code == 1
    payload = json.loads(out)
    assert payload["probes_used"] == dense.probes_used
    assert abs(complex(*payload["mean"]) - dense.mean) <= 1e-13 * abs(dense.mean)
    assert abs(payload["max_deviation"] - dense.max_deviation) <= 1e-13


def test_schur_letter_of_wrong_dimension_exits_2(capsys):
    code, out, err = run_cli(capsys, "schur", "R(1,[1,0,0,0])", "--trunc", "8")
    assert code == 2
    assert out == ""
    assert err == "error: letter has dimension 4, space has 2\n"


def test_schur_requires_an_operand(capsys):
    code, _, _ = run_cli(capsys, "schur")
    assert code == 2


def test_schur_malformed_pair_exits_2(capsys):
    code, out, err = run_cli(capsys, "schur", "--pair", "nan,0;0,1", "--trunc", "16")
    assert code == 2
    assert out == ""
    assert err.startswith("config error: bad vector 'nan,0'")


@pytest.mark.parametrize("pair, count", [("1,0", 1), ("1,0;0,1;1,1", 3)])
def test_schur_pair_of_the_wrong_number_of_vectors_exits_2(capsys, pair, count):
    code, out, err = run_cli(capsys, "schur", "--pair", pair, "--trunc", "16")
    assert code == 2
    assert out == ""
    assert err == f'config error: --pair takes two vectors "f1,f2;g1,g2", got {count}\n'


# ---------------------------------------------------------------------------
# eval


def test_eval_binary_round_trip(capsys, tmp_path):
    path = tmp_path / "matrix.bin"
    code = main(["eval", "R(1,[1,0])", "--trunc", "16", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    loaded = fock.load_matrix(str(path))
    rep = fock.build_rep(1, 16)
    expected = fock.resolvent_matrix(rep, 1.0, (1.0, 0.0))
    assert np.linalg.norm(loaded - expected) < 1e-12


def test_eval_json_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "eval", "R(1,[0,0])", "--trunc", "4")
    assert code == 0
    payload = json.loads(out)
    matrix = fock.matrix_from_json(payload["matrix"])
    assert np.allclose(matrix, -1j * np.eye(4))


def test_eval_json_file(capsys, tmp_path):
    path = tmp_path / "matrix.json"
    code = main(
        ["eval", "R(1,[1,0])*R(2,[0,1])", "--trunc", "8", "--json", "--out", str(path)]
    )
    capsys.readouterr()
    assert code == 0
    payload = json.loads(path.read_text())
    matrix = fock.matrix_from_json(payload["matrix"])
    rep = fock.build_rep(1, 8)
    expected = fock.resolvent_matrix(rep, 1.0, (1.0, 0.0)) @ fock.resolvent_matrix(
        rep, 2.0, (0.0, 1.0)
    )
    assert np.linalg.norm(matrix - expected) < 1e-12


def test_one_mode_of_two_levels_runs(capsys):
    # N=2 at one mode passes validation, so it must run: every check gets a
    # verdict rather than an error entry, and eval prints the resolvent
    code, out, _ = run_cli(capsys, "verify", "--trunc", "2,3", "--compress", "2")
    assert code in (0, 1)
    checks = json.loads(out)["checks"]
    assert checks and not any("error" in check for check in checks)
    code, out, err = run_cli(capsys, "eval", "R(1,[1,0])", "--trunc", "2")
    assert (code, err) == (0, "")
    matrix = fock.matrix_from_json(json.loads(out)["matrix"])
    dense = fock.generator(fock.build_rep(1, 2), (1.0, 0.0)).toarray() + 1j * np.eye(2)
    assert np.linalg.norm(matrix - np.linalg.inv(dense)) < 1e-14


def test_eval_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "R(oops", "--trunc", "8")
    assert code == 2


def test_eval_letter_of_wrong_dimension_exits_2(capsys):
    code, out, err = run_cli(capsys, "eval", "--trunc", "8", "R(1,[1,0,0,0])")
    assert code == 2
    assert out == ""
    assert err == "error: letter has dimension 4, space has 2\n"


def test_eval_options_do_not_leak_between_calls(capsys):
    # the parser is built once per process; each call starts from its defaults
    code, out, _ = run_cli(capsys, "eval", "--trunc", "8", "--json", "I")
    assert code == 0
    assert json.loads(out)["truncation"] == 8
    code, out, _ = run_cli(capsys, "eval", "--json", "I")
    assert code == 0
    assert json.loads(out)["truncation"] == 64


def test_eval_below_the_default_compression(capsys):
    # eval reads no compression cutoff, so a truncation below the default
    # cutoff of 6 is fine; a malformed ladder still is not
    code, out, err = run_cli(capsys, "eval", "R(1,[0,0])", "--trunc", "4", "--json")
    assert code == 0, err
    assert json.loads(out)["truncation"] == 4
    for trunc in ("4,3", "1", "x"):
        code, out, err = run_cli(capsys, "eval", "I", "--trunc", trunc)
        assert code == 2 and out == ""
        assert err.startswith("config error: ")


@pytest.mark.parametrize("command, flag", [
    ("eval", "--tol"), ("eval", "--seed"), ("eval", "--compress"),
    ("cohomology", "--tol"), ("schur", "--tol"),
])
def test_subcommands_reject_flags_they_do_not_read(capsys, command, flag):
    operand = () if command == "cohomology" else ("I",)
    code, out, err = run_cli(capsys, command, *operand, flag, "1")
    assert code == 2
    assert out == ""
    assert flag in err


# ---------------------------------------------------------------------------
# console script


# runs cli.main in one fresh interpreter and prints, after each run, its
# exit code and whether scipy.sparse.linalg has been imported
_RUN_PATH_PROBE = """
import sys
from resalg import cli
for argv in sys.argv[1:]:
    code = cli.main(argv.split("|"))
    print(code, "scipy.sparse.linalg" in sys.modules)
"""


def test_run_paths_do_not_import_scipy_sparse_linalg(tmp_path):
    # solvers factor by LAPACK directly; SuperLU, and with it the
    # scipy.sparse.linalg import, stays off every run path
    out = str(tmp_path / "report")
    runs = [
        ["verify", "--config", "configs/quick.json", "--out", out],
        ["eval", "R(1,[1,0])*R(-2,[0.5,1])", "--trunc", "32", "--out", out],
        ["cohomology", "--trunc", "16", "--out", out],
        ["verify", "--config", "configs/two_mode.json", "--out", out],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_PATH_PROBE, *("|".join(run) for run in runs)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 False"] * len(runs)


# runs cli.main in one fresh interpreter and prints, after each run, its
# exit code and the scipy modules that have been imported
_SCIPY_MODULES_PROBE = """
import sys
from resalg import cli
for argv in sys.argv[1:]:
    code = cli.main(argv.split("|"))
    print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_run_paths_load_only_scipys_lapack_extension(tmp_path):
    # generators multiply on the pattern in numpy, and LAPACK comes from
    # scipy's extension module alone: neither scipy.sparse nor the
    # scipy.linalg package is imported
    out = str(tmp_path / "report")
    runs = [
        ["verify", "--config", "configs/quick.json", "--out", out],
        ["verify", "--config", "configs/two_mode.json", "--out", out],
        ["eval", "R(1,[1,0])*R(-2,[0.5,1])", "--trunc", "32", "--out", out],
        ["cohomology", "--trunc", "16", "--out", out],
        ["schur", "--pair", "1,0;0,1", "--out", out],
        ["schur", "R(1,[1,0])*R(1,[0,0])", "--trunc", "16", "--out", out],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_MODULES_PROBE, *("|".join(run) for run in runs)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [line[0] for line in lines] == ["0", "0", "0", "0", "0", "1"]
    for run, (_, *modules) in zip(runs, lines):
        assert set(modules) <= {"scipy.linalg._flapack"}, run


# runs cli.main in one fresh interpreter, its prints sent to stderr, and
# prints after each run its exit code and whether numpy.random is loaded
_NUMPY_RANDOM_PROBE = """
import contextlib
import sys
from resalg import cli
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(argv.split("|"))
    print(code, "numpy.random" in sys.modules)
"""


def test_run_paths_never_load_numpy_random(tmp_path):
    # the probes and rel_iii's Gaussian block are drawn from the standard
    # library's generator, so numpy.random and its 6 MB stay unloaded
    out = str(tmp_path / "report")
    runs = [
        ["verify", "--config", "configs/quick.json", "--out", out],
        ["verify", "--config", "configs/two_mode.json", "--out", out],
        ["eval", "R(1,[1,0])*R(-2,[0.5,1])", "--trunc", "32", "--out", out],
        ["cohomology", "--trunc", "16", "--out", out],
        ["schur", "--pair", "1,0;0,1", "--out", out],
        ["schur", "R(1,[1,0])*R(1,[0,0])", "--trunc", "16", "--out", out],
        ["simplify", "R(1,[1,0])^3*R(2,[0,1])"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_RANDOM_PROBE, *("|".join(run) for run in runs)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{code} False" for code in (0, 0, 0, 0, 0, 1, 0)]


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "resalg.cli", "simplify", "R(3,[0,0])"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(0-0.3333333333333333i)*I"
