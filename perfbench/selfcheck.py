"""Checks the benchmark itself, not resalg.

    python3 perfbench/selfcheck.py

- One seed always gives byte-identical input files, another seed gives
  different ones, and the number of jobs does not depend on the seed.
- BENCHMARK.json keeps its contract, names exactly the workloads of
  inputs.py, names exactly the end-to-end metrics run.py produces, and
  names only per-layer metrics that run.py produces.
- Self times derived from spans are right on a hand-made span tree, and the
  tracer's wrappers are removed again when tracing ends.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
import sys
from collections import Counter

import inputs
import run
import spans

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_inputs(problems: list, scratch: pathlib.Path):
    def files(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    for workload in inputs.WORKLOADS:
        job_counts = set()
        for seed in (0, 1, 987654321):
            a = files(inputs.write_inputs(workload, seed, scratch / f"{workload}-{seed}-a"))
            b = files(inputs.write_inputs(workload, seed, scratch / f"{workload}-{seed}-b"))
            if a != b:
                problems.append(f"{workload} seed {seed}: inputs differ between two writes")
            job_counts.add(len(inputs.jobs_for(workload, seed)[0]))
        if files(scratch / f"{workload}-0-a") == files(scratch / f"{workload}-1-a"):
            problems.append(f"{workload}: seeds 0 and 1 give the same inputs")
        if len(job_counts) != 1:
            problems.append(f"{workload}: job count depends on the seed: {job_counts}")


def produced_metrics():
    """Metric names run.py prints, from one synthetic worker result."""
    worker = {
        "untraced_walls": [1.0],
        "traced_walls": [1.0],
        "records": [{"pass": 0, "seconds": 1.0, "ok": True}],
        "peak_rss_mb": 1.0,
        "layers": spans.layer_metrics([], Counter()),
    }
    return set(run.end_to_end([1.0], worker)), set(run.per_layer(worker, worker))


def check_benchmark_json(problems: list, bench: dict):
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != expected:
        problems.append(f"BENCHMARK.json keys {sorted(bench)} != {sorted(expected)}")
        return
    names = [w["name"] for w in bench["workloads"]]
    if names != list(inputs.WORKLOADS):
        problems.append(f"workloads {names} != inputs.WORKLOADS {list(inputs.WORKLOADS)}")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload entry {w['name']} breaks the contract")
    seen = set()
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in bench[section]:
            if set(m) != keys:
                problems.append(f"{section} {m.get('name')}: keys {sorted(m)}")
            if not NAME_RE.match(m["name"]) or m["name"] in seen:
                problems.append(f"{section} {m['name']}: bad or repeated name")
            seen.add(m["name"])
            if not UNIT_RE.match(m["unit"]) or m["better"] not in ("higher", "lower"):
                problems.append(f"{section} {m['name']}: bad unit or direction")
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"{m['name']}: bound {m['bound']} outside (0, 0.25]")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or (setup[0]["unit"], setup[0]["better"]) != ("s", "lower"):
        problems.append("end_to_end needs setup_s in s, lower is better")
    e2e, layers = produced_metrics()
    declared_e2e = {m["name"] for m in bench["end_to_end"]}
    if declared_e2e != e2e:
        problems.append(f"end_to_end names {sorted(declared_e2e)} != run.py {sorted(e2e)}")
    missing = {m["name"] for m in bench["per_layer"]} - layers
    if missing:
        problems.append(f"per_layer names run.py does not produce: {sorted(missing)}")


def check_tracer(problems: list):
    # a(0..10) holds b(1..4) holding c(2..3), and d(5..9)
    tree = [
        ("a", 0.0, 10.0, -1, "0.0"),
        ("b", 1.0, 4.0, 0, "0.0"),
        ("c", 2.0, 3.0, 1, "0.0"),
        ("d", 5.0, 9.0, 0, "0.0"),
    ]
    got = spans.self_times(tree)
    want = {"a": (10.0, 3.0, 1), "b": (3.0, 2.0, 1), "c": (1.0, 1.0, 1), "d": (4.0, 4.0, 1)}
    if got != want:
        problems.append(f"self_times {got} != {want}")

    sys.path.insert(0, str(run.SRC))
    from resalg import cli, fock

    before = (fock.ResolventSolver, fock.generator, cli.main, cli.simplify)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    tracer.enabled = True
    rep = fock.build_rep(1, 8)
    fock.resolvent_matrix(rep, 1.0, (1.0, 0.0))
    tracer.enabled = False
    undo()
    if (fock.ResolventSolver, fock.generator, cli.main, cli.simplify) != before:
        problems.append("spans.install left wrappers in place after undo")
    names = [s[0] for s in tracer.spans]
    for name in ("fock.build_rep", "fock.factor", "fock.generator", "fock.matrix", "fock.apply"):
        if name not in names:
            problems.append(f"tracer recorded no {name} span: {names}")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    scratch = run.STATE / f"selfcheck-{os.getpid()}"
    try:
        check_inputs(problems, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    check_benchmark_json(problems, bench)
    check_tracer(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
