#!/usr/bin/env python3
"""Times cold `resalg` CLI runs: wall time and peak RSS of fresh processes.

Each command runs as `python -m resalg.cli ...` in a new interpreter, with
one source tree on PYTHONPATH, so import costs count in full.  A run's wall
time is taken around the child process, and its peak RSS is the child's
`ru_maxrss` from `os.wait4`, the figure that RUSAGE_CHILDREN reports for a
parent with that one child.  Runs of the given trees alternate, so that a
drift of the machine touches both alike, and the median of each command's
runs is reported.

The commands are `verify` on the `quick`, `default`, `two_mode`,
`two_mode_ladder`, `three_mode` and `three_mode_long` configs (`three_mode`
exits 1: its top level, N=16, is too short for `rel_i` and `rel_iv` to
converge; `three_mode_long` climbs to N=24, where every check passes), `cohomology`
with one mode at the defaults and with two modes (N=8, box 2) on the zero
gauge and on `random_gauge(4, 2, seed=1)`, whose report is about four times
larger, with two modes on `random_gauge(4, 3, seed=1)` (box 3, 2401
lattice points), with two modes at N=48 and N=64 on
`random_gauge(4, 1, seed=1)` (box 1, where the representation's dimension
dominates), and one `eval`.  Reports go to a
scratch file, not to the terminal.  BLAS runs at its default threading
unless OPENBLAS_NUM_THREADS is set beforehand; the environment (CPUs, BLAS
libraries and their thread counts) is recorded with the timings, since the
numbers compare only within one environment.

Usage, from the root of a checkout:
    python3 scripts/bench_cli.py [--tree LABEL=SRC ...] [--runs 5] [--out FILE]

With no --tree the checkout's own `src` is measured.  To compare two
commits, export the other one's files and pass both trees, e.g.
`--tree parent=/tmp/old/src --tree change=src`.
"""

import argparse
import ctypes
import importlib.util
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]

COMMANDS = {
    "verify_quick": ["verify", "--config", "configs/quick.json"],
    "verify_default": ["verify", "--config", "configs/default.json"],
    "verify_two_mode": ["verify", "--config", "configs/two_mode.json"],
    "verify_two_mode_ladder": ["verify", "--config", "configs/two_mode_ladder.json"],
    "verify_three_mode": ["verify", "--config", "configs/three_mode.json"],
    "verify_three_mode_long": ["verify", "--config", "configs/three_mode_long.json"],
    "cohomology_1m": ["cohomology"],
    "cohomology_2m_box2": ["cohomology", "--config", "configs/two_mode.json", "--trunc", "8",
                           "--gauge", "{gauge}"],
    "cohomology_2m_box2_random": ["cohomology", "--config", "configs/two_mode.json",
                                  "--trunc", "8", "--gauge", "{random_gauge}"],
    "cohomology_2m_box3_random": ["cohomology", "--config", "configs/two_mode.json",
                                  "--trunc", "8", "--gauge", "{random_gauge_box3}"],
    "cohomology_2m_box1_n48": ["cohomology", "--config", "configs/two_mode.json",
                               "--trunc", "48", "--gauge", "{random_gauge_box1}"],
    "cohomology_2m_box1_n64": ["cohomology", "--config", "configs/two_mode.json",
                               "--trunc", "64", "--gauge", "{random_gauge_box1}"],
    "eval": ["eval", "R(1,[1,0])*R(-2,[0.5,1])", "--trunc", "64"],
}


def run_once(src: str, argv: list, scratch: pathlib.Path) -> tuple:
    """(wall seconds, peak RSS in MB, exit code) of one cold CLI run."""
    # "{name}" stands for the gauge file scratch/name.json
    argv = [str(scratch / f"{a[1:-1]}.json") if a.startswith("{") else a for a in argv]
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "resalg.cli", *argv, "--out", str(scratch / "report")],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def blas_threads() -> dict:
    """OpenBLAS's thread count in each library that numpy and scipy bundle."""
    out = {}
    for package in ("numpy", "scipy"):
        libs = pathlib.Path(importlib.util.find_spec(package).origin).parents[1] / f"{package}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            dll = ctypes.CDLL(str(lib))
            for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads"):
                if hasattr(dll, name):
                    out[f"{package}.libs/{lib.name}"] = getattr(dll, name)()
                    break
    return out


def environment() -> dict:
    import numpy as np
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
        "blas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC",
                        help="a resalg source tree to measure (repeatable)")
    parser.add_argument("--runs", type=int, default=5, help="runs per command and tree")
    parser.add_argument("--out", default=str(ROOT / "BENCH_cli.json"))
    args = parser.parse_args(argv)
    trees = dict(t.split("=", 1) for t in args.tree or [f"this={ROOT / 'src'}"])
    trees = {label: str(pathlib.Path(src).resolve()) for label, src in trees.items()}
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        scratch = pathlib.Path(tmp)
        sys.path.insert(0, next(iter(trees.values())))
        from resalg import cohomology

        (scratch / "gauge.json").write_text(cohomology.gauge_to_json(cohomology.zero_gauge(4, 2)))
        (scratch / "random_gauge.json").write_text(
            cohomology.gauge_to_json(cohomology.random_gauge(4, 2, seed=1)))
        for box in (1, 3):
            (scratch / f"random_gauge_box{box}.json").write_text(
                cohomology.gauge_to_json(cohomology.random_gauge(4, box, seed=1)))
        for name, command in COMMANDS.items():
            runs = {label: [] for label in trees}
            for _ in range(args.runs):
                for label, src in trees.items():
                    runs[label].append(run_once(src, command, scratch))
            for label, measured in runs.items():
                wall, rss, codes = zip(*measured)
                row = {
                    "command": name,
                    "argv": command,
                    "tree": label,
                    "exit_codes": sorted(set(codes)),
                    "wall_s": list(wall),
                    "peak_rss_mb": list(rss),
                    "median_wall_s": statistics.median(wall),
                    "median_peak_rss_mb": statistics.median(rss),
                }
                results.append(row)
                print(f"{name:<26s} {label:<10s} wall {row['median_wall_s']:6.3f} s  "
                      f"peak RSS {row['median_peak_rss_mb']:6.1f} MB  exit {row['exit_codes']}",
                      flush=True)
    payload = {"environment": environment(), "runs": args.runs, "results": results}
    pathlib.Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
