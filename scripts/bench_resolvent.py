#!/usr/bin/env python3
"""Times the resolvent backends of `fock.ResolventSolver` against SuperLU.

For each (modes, N) point the same resolvent R(z, f) is built three ways,
and three costs are timed for each: set-up (construction, including the
probe residual), a 1-column apply and a 9-column apply of low-lying basis
states.  The paths are

- `tridiagonal`: the package solver at one mode, LAPACK ?gttrf/?gttrs;
- `spectral`: the Kronecker-spectral backend, the package solver from two
  modes on.  At one mode it is the dense-U path that the solver's cost
  model rejects, pinned here to show why;
- `superlu`: scipy's SuperLU of the sparse iz + G_f with the same probe
  residual, built here as the reference that the package no longer uses.

The per-representation eigenbasis that every spectral solver of a
representation shares is timed on its own (`basis_s`).  Each figure is the
fastest of a few repeats.  Every path's 9-column result is compared with
SuperLU's as a differential check (`rel_gap_9col`).

BLAS runs single-threaded unless OPENBLAS_NUM_THREADS is set beforehand;
the environment (CPUs, BLAS libraries, thread setting) is recorded with the
timings, since the numbers compare only within one environment.

Usage:
    PYTHONPATH=src python3 scripts/bench_resolvent.py [--grid 1x1024,2x64] [--out FILE]

The default grid leaves out three modes at N=32 (dim 32768), whose SuperLU
set-up alone takes about 22 s and 0.9 GB; `--grid 3x32` runs it.
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

# one mode at the verify suites' N=64 and at N=1024, then two and three modes
GRID = "1x64,1x1024,2x64,2x128,3x16"
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


class SuperLUReference:
    """R(Z, f) by scipy's SuperLU of the sparse iz + G_f, with the probe
    residual that `fock.ResolventSolver` computes at construction.  scipy
    builds the CSC matrix from the (row, column, value) triplets of the
    representation's row stencil."""

    def __init__(self, rep, f):
        from scipy import sparse
        from scipy.sparse.linalg import splu

        data = fock.generator_values(rep, f)
        data[rep.diagonal] += 1j * Z
        rows = np.broadcast_to(np.arange(rep.dim), rep.cols.shape)
        triplets = (data.ravel(), (rows.ravel(), rep.cols.ravel()))
        a = sparse.coo_matrix(triplets, shape=(rep.dim, rep.dim)).tocsc()
        self._lu = splu(a)
        probes = fock._probes(rep.dim)
        self.backward_error = float(np.linalg.norm(a @ self.apply(probes) - probes))

    def apply(self, block):
        return self._lu.solve(block)


def _spectral_solver(rep, f):
    # from two modes on the package's own choice; at one mode, pinned
    chosen = fock._spectral
    fock._spectral = lambda rep: True
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
    paths = {"superlu": lambda: SuperLUReference(rep, f)}
    if modes == 1:
        paths["tridiagonal"] = lambda: fock.ResolventSolver(rep, Z, f)
    paths["spectral"] = lambda: _spectral_solver(rep, f)
    basis = _basis_time(modes, levels)
    rep.basis  # built once per representation, outside the solver set-up
    rows, ref = [], None  # SuperLU runs first and is the reference
    for backend, build in paths.items():
        setup = _fastest(build)
        solver = build()
        result = solver.apply(block)
        if ref is None:
            ref = result
        rows.append({
            "modes": modes,
            "levels": levels,
            "dim": rep.dim,
            "backend": backend,
            "basis_s": basis if backend == "spectral" else None,
            "setup_s": setup,
            "apply_1col_s": _fastest(lambda: solver.apply(block[:, 0])),
            "apply_9col_s": _fastest(lambda: solver.apply(block)),
            "probe_residual": solver.backward_error,
            "rel_gap_9col": float(np.linalg.norm(result - ref) / np.linalg.norm(ref)),
        })
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
                f"{row['backend']:<11s} basis {(row['basis_s'] or 0) * 1e3:7.2f} ms  "
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
