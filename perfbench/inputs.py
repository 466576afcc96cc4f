"""Seeded input generator for the resalg benchmark.

Every workload is a fixed list of jobs.  The seed picks the values inside
the jobs (spectral parameters, directions, gauge tables, coefficients) but
never their number or shape, so the amount of work is the same for every
seed.  Inputs are written as the files the `resalg` command line reads
(suite configs, gauge tables) plus a `jobs.json` manifest that names them.
Only the standard library is used, and output is byte-identical for a given
workload and seed.
"""

from __future__ import annotations

import json
import pathlib
import random

WORKLOADS = ("verify_1m", "verify_2m", "cohomology_gauge", "expr_eval")

# no two real parts sum to zero, so every additivity (rel_ii) check applies
# and the number of checks per suite does not depend on the draw; |Re| >= 1,
# since at Re = 0.5 the ladders converge too slowly for the suite tolerances
LAMBDA_POOL = (1.0, 2.0, -1.5, 1.25 - 0.5j, -2.5 + 0.5j, 1.75 + 1.0j)
# the two-mode ladder is short, and the truncation error falls with |Re|:
# at N=16, rel_iv with mu = 1 leaves 0.039 against the 1e-2 tolerance, with
# mu = 2 it leaves 2e-4.  So every value and every pair sum (rel_ii) has
# |Re| >= 2 here.
LAMBDA_POOL_2M = (2.0, 2.5 - 0.5j, 3.0 + 1.0j, -5.0, -5.5 + 0.5j, -6.0 - 1.0j)
SCALE_POOL = (-1.0, 0.5, 2.5, -2.0, 1.5, 0.25)

# a pass is kept to about 2.5-3.5 s, so that a run of run_seconds holds at
# least five timed passes after its warm-up pass
VERIFY_1M_CONFIGS = 1
VERIFY_2M_LADDER = (12, 16)
# two-mode jobs (about 1.5 s) outnumber one-mode ones (about 0.5 s), so the
# median job is a long one: short jobs' times jump with second-to-second
# changes in the speed of a shared host, and job_p50_s with them
COHOMOLOGY_1M_GAUGES = 1
COHOMOLOGY_2M_GAUGES = 2
SHIFT_DIRECTIONS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0))

# expression pools: well-separated spectral parameters, the zero vector (R2)
# and non-unit vectors (R3).  Which letters repeat, and so how much rewriting
# and evaluation an expression costs, comes from one fixed template; the seed
# draws the coefficients and permutes EXPR_Z_FREE, the parameters that R3's
# rescaling by 2 or -3 never maps onto another pool value, so the rewrite
# structure and the work are the same for every seed.
EXPR_COUNT = 45  # three cycles of the 15 shapes of _expr_shapes
EXPR_Z_POOL = (1.0, 2.0, -1.0, 0.5 + 1.0j, -2.0 + 0.5j)
EXPR_Z_FREE = (-1.0, 0.5 + 1.0j, -2.0 + 0.5j)
EXPR_F_POOL = ((1.0, 0.0), (0.0, 1.0), (2.0, 0.0), (1.0, 1.0), (0.0, -3.0), (0.0, 0.0))
EXPR_TERMS_MAX = 3
EXPR_WORD_MAX = 4
EXPR_TRUNC = 64


def _fmt(x: float) -> str:
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _fmt(z.real)
    sign = "-" if z.imag < 0.0 else "+"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}i"


def _json_scalar(z: complex):
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def _off_axis_direction(rng: random.Random, dim: int) -> list:
    """A {-1,0,1} direction with at least two nonzero entries, so it is
    neither zero nor a multiple of a basis vector."""
    while True:
        v = [float(rng.choice((-1, 0, 1))) for _ in range(dim)]
        if sum(1 for x in v if x != 0.0) >= 2:
            return v


def _basis(dim: int) -> list:
    return [[1.0 if j == i else 0.0 for j in range(dim)] for i in range(dim)]


def _suite_config(rng: random.Random, modes: int, truncations, compression, tolerance, probes,
                  lambda_pool=LAMBDA_POOL) -> dict:
    dim = 2 * modes
    return {
        "schema_version": 1,
        "modes": modes,
        "truncations": list(truncations),
        "compression": compression,
        "tolerance": tolerance,
        "seed": rng.randrange(2**31),
        "lambdas": [_json_scalar(z) for z in rng.sample(lambda_pool, 3)],
        "scales": rng.sample(SCALE_POOL, 3),
        "vectors": _basis(dim) + [_off_axis_direction(rng, dim)],
        "probes": list(probes),
    }


def _gauge_table(rng: random.Random, dim: int, box: int) -> list:
    """Random gauge on [-box, box]^dim in the CLI's gauge-file format."""
    entries = []
    points = [[]]
    for _ in range(dim):
        points = [p + [x] for p in points for x in range(-box, box + 1)]
    for p in points:
        c = 0.0 if not any(p) else rng.uniform(-1.0, 1.0)
        entries.append({"c": c, "f": p})
    return entries


def _expression(rng: random.Random, template: random.Random, z_map: dict, n_terms: int, lengths) -> str:
    terms = []
    for length in lengths[:n_terms]:
        letters = []
        for _ in range(length):
            z = template.choice(EXPR_Z_POOL)
            z = z_map.get(z, z)
            f = template.choice(EXPR_F_POOL)
            letters.append(f"R({_fmt_complex(z)},[{_fmt(f[0])},{_fmt(f[1])}])")
        coeff = complex(round(rng.uniform(-2, 2), 6), round(rng.uniform(-2, 2), 6))
        body = "*".join(letters) if letters else "I"
        terms.append(f"({_fmt_complex(coeff)})*{body}")
    return " + ".join(terms)


def _expr_shapes():
    """Fixed cycle of (terms, word lengths) shapes covering the pool limits."""
    shapes = []
    for n_terms in range(1, EXPR_TERMS_MAX + 1):
        for first in range(EXPR_WORD_MAX + 1):
            lengths = [(first + k * 2) % (EXPR_WORD_MAX + 1) for k in range(EXPR_TERMS_MAX)]
            shapes.append((n_terms, lengths))
    return shapes


def jobs_for(workload: str, seed: int):
    """Returns (jobs, files): the job manifest and {filename: JSON object}."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{int(seed)}")
    jobs, files = [], {}
    if workload == "verify_1m":
        for i in range(VERIFY_1M_CONFIGS):
            name = f"verify_{i}.json"
            files[name] = _suite_config(
                rng, 1, (64, 128, 256), 6, 1e-6, ("Q1*P1", "R(1,[0,1])")
            )
            jobs.append({"kind": "verify", "config": name})
    elif workload == "verify_2m":
        files["verify_0.json"] = _suite_config(rng, 2, VERIFY_2M_LADDER, 3, 1e-2, (),
                                              LAMBDA_POOL_2M)
        jobs.append({"kind": "verify", "config": "verify_0.json"})
    elif workload == "cohomology_gauge":
        for modes, count, box, trunc, cutoff in (
            (1, COHOMOLOGY_1M_GAUGES, 3, 32, 6),
            (2, COHOMOLOGY_2M_GAUGES, 1, 8, 3),
        ):
            for i in range(count):
                config = f"cohomology_{modes}m_{i}.json"
                gauge = f"gauge_{modes}m_{i}.json"
                files[config] = {
                    "schema_version": 1,
                    "modes": modes,
                    "truncations": [trunc],
                    "compression": cutoff,
                    "seed": rng.randrange(2**31),
                }
                files[gauge] = _gauge_table(rng, 2 * modes, box)
                job = {"kind": "cohomology", "config": config, "gauge": gauge}
                if modes == 1:
                    job["shift"] = {
                        "trunc": trunc,
                        "cutoff": cutoff,
                        "lambda": _json_scalar(rng.choice(LAMBDA_POOL)),
                        "f": list(rng.choice(SHIFT_DIRECTIONS)),
                        "value": rng.uniform(-1.0, 1.0),
                        "seed": rng.randrange(2**31),
                    }
                jobs.append(job)
    else:
        shapes = _expr_shapes()
        template = random.Random("expr_eval:template")
        z_map = dict(zip(EXPR_Z_FREE, rng.sample(EXPR_Z_FREE, len(EXPR_Z_FREE))))
        for i in range(EXPR_COUNT):
            n_terms, lengths = shapes[i % len(shapes)]
            jobs.append({
                "kind": "expr",
                "expression": _expression(rng, template, z_map, n_terms, lengths),
                "trunc": EXPR_TRUNC,
            })
    return jobs, files


def write_inputs(workload: str, seed: int, out_dir) -> pathlib.Path:
    """Writes the workload's input files and `jobs.json` into out_dir."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs, files = jobs_for(workload, seed)
    for name, payload in files.items():
        (out / name).write_text(json.dumps(payload, sort_keys=True) + "\n")
    manifest = {"workload": workload, "seed": int(seed), "jobs": jobs}
    (out / "jobs.json").write_text(json.dumps(manifest, sort_keys=True) + "\n")
    return out

