#!/usr/bin/env python3
"""Times both resolvent backends of `fock.ResolventSolver` on one grid.

For each (modes, N) point the same resolvent R(z, f) is built with the
SuperLU backend and with the Kronecker-spectral one, and three costs are
timed: set-up (construction, including the probe guard),
a 1-column apply and a 9-column apply of low-lying basis states.  The
per-representation eigenbasis that every spectral solver of a
representation shares is timed on its own (`basis_s`).  Each
figure is the fastest of a few repeats.  The spectral backend at one mode
is the dense-U path the solver's cost model rejects, timed here to show
why.  The two backends' 9-column results are compared as a differential
check.

BLAS runs single-threaded unless OPENBLAS_NUM_THREADS is set beforehand;
the environment (CPUs, BLAS libraries, thread setting) is recorded with the
timings, since the numbers compare only within one environment.

Usage:
    PYTHONPATH=src python3 scripts/bench_resolvent.py [--grid 1x1024,2x64] [--out FILE]
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from resalg import fock  # noqa: E402

# the (modes, N) grid of the spectral-backend prototype in ROADMAP item 3
GRID = "1x1024,2x64,2x128,3x16,3x32"
Z = 1.0 - 0.5j
REPEATS = 5
# stop repeating a measurement once it has taken this long in total
BUDGET_S = 2.0


def _fastest(fn) -> float:
    times, spent = [], 0.0
    while len(times) < REPEATS and (not times or spent < BUDGET_S):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return min(times)


def _solver(rep, f, spectral: bool):
    # the backend choice is a function of the representation; pin it
    chosen = fock._spectral
    fock._spectral = lambda rep: spectral
    try:
        return fock.ResolventSolver(rep, Z, f)
    finally:
        fock._spectral = chosen


def _basis_time(modes: int, levels: int) -> float:
    # the per-representation eigenbasis, built on fresh representations
    reps = [fock.build_rep(modes, levels, max_dim=levels ** modes) for _ in range(REPEATS)]
    return _fastest(lambda: reps.pop().basis)


def bench_point(modes: int, levels: int) -> list:
    rep = fock.build_rep(modes, levels, max_dim=levels ** modes)
    f = np.random.default_rng(levels).standard_normal(2 * modes)
    cutoff = math.ceil(9 ** (1 / modes) - 1e-9)
    idx = fock.box_indices(rep, cutoff)[:9]
    block = np.zeros((rep.dim, len(idx)), dtype=complex)
    block[idx, np.arange(len(idx))] = 1.0
    rows, results = [], {}
    basis = _basis_time(modes, levels)
    rep.basis  # built once per representation, outside the solver set-up
    for backend, spectral in (("superlu", False), ("spectral", True)):
        setup = _fastest(lambda: _solver(rep, f, spectral))
        solver = _solver(rep, f, spectral)
        results[backend] = solver.apply(block)
        rows.append({
            "modes": modes,
            "levels": levels,
            "dim": rep.dim,
            "backend": backend,
            "basis_s": basis if spectral else None,
            "setup_s": setup,
            "apply_1col_s": _fastest(lambda: solver.apply(block[:, 0])),
            "apply_9col_s": _fastest(lambda: solver.apply(block)),
            "probe_residual": solver.backward_error,
        })
    ref = results["superlu"]
    gap = np.linalg.norm(results["spectral"] - ref) / np.linalg.norm(ref)
    for row in rows:
        row["rel_gap_9col"] = float(gap)
    return rows


def environment() -> dict:
    import scipy

    def blas(config) -> str:
        info = config["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", default=GRID, help="comma list of MODESxN")
    parser.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parents[1] / "BENCH_resolvent.json"),
    )
    args = parser.parse_args(argv)
    rows = []
    for point in args.grid.split(","):
        modes, levels = (int(x) for x in point.split("x"))
        for row in bench_point(modes, levels):
            rows.append(row)
            print(
                f"modes={modes} N={levels:<5d} dim={row['dim']:<6d} "
                f"{row['backend']:<8s} basis {(row['basis_s'] or 0) * 1e3:7.2f} ms  "
                f"setup {row['setup_s'] * 1e3:9.2f} ms  "
                f"apply 1 col {row['apply_1col_s'] * 1e3:8.2f} ms  "
                f"9 cols {row['apply_9col_s'] * 1e3:8.2f} ms  "
                f"gap {row['rel_gap_9col']:.1e}",
                flush=True,
            )
    payload = {"environment": environment(), "z": [Z.real, Z.imag], "rows": rows}
    pathlib.Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
