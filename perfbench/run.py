"""resalg benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload verify_1m --seed 1 --seconds 20 --trace 0

Run from the root of a resalg checkout.  The run writes the workload's inputs
from the seed, times five fresh interpreters importing `resalg.cli`
(set-up), then starts a worker interpreter that runs one untimed warm-up
pass over the workload's jobs and then repeats them in timed passes for the
given number of seconds, at least five passes, checking each job's output.
With --trace 1 there is no set-up timing; the worker runs half the budget
untraced and half traced, and a second worker runs one single-threaded
reference pass (OPENBLAS_NUM_THREADS=1), outside the gate.

Report lines start with '#'.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; its metric names
and units are those of BENCHMARK.json (end_to_end with --trace 0, per_layer
with --trace 1).  Spans of a traced run are kept in
.perfbench/traces/<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

import inputs

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_PROBES = 5
MIN_PASSES = 5          # timed passes of an untraced run, at least
MIN_TRACE_PASSES = 3    # timed passes of each half of a traced run
RUN_LIMIT_S = 170.0
SETUP_PROBE = "import time, resalg.cli; print(repr(time.monotonic()))"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update(extra)
    return env


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def measure_setup(deadline: float) -> list:
    """Seconds from starting a fresh interpreter until resalg.cli is imported."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=remaining(deadline), check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]) - start)
    return times


def run_worker(work: pathlib.Path, tag: str, seconds: float, min_passes: int,
               traced: bool, deadline: float, spans_path=None, **env) -> dict:
    result = work / f"{tag}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--inputs", str(work / "inputs"),
        "--scratch", str(work / f"scratch-{tag}"),
        "--out", str(result),
        "--src", str(SRC),
        "--seconds", repr(float(seconds)),
        "--min-passes", str(min_passes),
        "--traced", "1" if traced else "0",
    ]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    log = work / f"{tag}.log"
    with open(log, "w") as fh:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(**env), stdout=fh, stderr=subprocess.STDOUT,
            timeout=remaining(deadline),
        )
    if proc.returncode != 0:
        tail = log.read_text()[-2000:]
        raise RuntimeError(f"worker {tag} exited {proc.returncode}:\n{tail}")
    return json.loads(result.read_text())


def tail_percentile(times):
    """Highest whole percentile, p50 or above, with at least ten jobs beyond
    it, or None."""
    n = len(times)
    ordered = sorted(times)
    for p in range(99, 49, -1):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def job_times(worker) -> list:
    """Times of the jobs of timed passes; the warm-up pass is -1."""
    return [r["seconds"] for r in worker["records"] if r["pass"] >= 0]


def end_to_end(setup, worker) -> dict:
    times = job_times(worker)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(worker["untraced_walls"]),
        "job_p50_s": statistics.median(times),
        "peak_rss_mb": worker["peak_rss_mb"],
    }


def per_layer(worker, reference) -> dict:
    """Layer figures per traced pass, plus the tracing overhead (traced
    passes against passes with no wrappers installed) and the
    single-threaded reference."""
    out = dict(worker["layers"])
    traced = statistics.median(worker["traced_walls"])
    untraced = statistics.median(worker["untraced_walls"])
    out["trace.traced_pass_s"] = traced
    out["trace.untraced_pass_s"] = untraced
    out["trace.overhead_ratio"] = traced / untraced - 1.0
    out["ref_1thread.wall_s"] = statistics.median(reference["untraced_walls"])
    return out


def report(label: str, value):
    if isinstance(value, float):
        value = f"{value:.6g}"
    print(f"# {label}: {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="resalg benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (SRC / "resalg" / "cli.py").is_file():
        return fail(f"no resalg source tree at {SRC}; run from a resalg checkout")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    declared = bench["per_layer" if args.trace else "end_to_end"]

    work = STATE / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs.write_inputs(args.workload, args.seed, work / "inputs")
        if args.trace:
            setup = None
            traces = STATE / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            spans_path = traces / f"{args.workload}-seed{args.seed}.json"
            worker = run_worker(work, "traced", args.seconds, MIN_TRACE_PASSES, True,
                                deadline, spans_path)
            reference = run_worker(work, "ref1", 0.0, 1, False, deadline,
                                   OPENBLAS_NUM_THREADS="1")
            metrics = per_layer(worker, reference)
        else:
            setup = measure_setup(deadline)
            worker = run_worker(work, "plain", args.seconds, MIN_PASSES, False, deadline)
            metrics = end_to_end(setup, worker)
    except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = worker["records"]
    failed = [r for r in records if not r["ok"]]
    times = job_times(worker)
    for key, value in sorted(worker["env"].items()):
        report(f"env.{key}", json.dumps(value) if isinstance(value, dict) else value)
    report("workload", f"{args.workload} seed {args.seed}, {worker['jobs_per_pass']} jobs per pass")
    for phase in ("untraced", "traced"):
        if f"{phase}_walls" in worker:
            walls = worker[f"{phase}_walls"]
            report(f"{phase} passes", f"{len(walls)}: " + " ".join(f"{w:.4f}" for w in walls) + " s")
    if setup is not None:
        report("setup_s samples", " ".join(f"{t:.4f}" for t in setup))
    tail = tail_percentile(times)
    if tail is None:
        report("job_tail_s", f"undefined ({len(times)} jobs; needs at least 20)")
    else:
        report("job_tail_s", f"{tail[1]:.6g} s (p{tail[0]} of {len(times)} jobs)")
    report("fail_ratio", f"{len(failed)}/{len(records)}")
    for r in failed:
        report(f"failed job {r['pass']}.{r['job']}", r["reason"])
    if args.trace:
        ref_failed = [r for r in reference["records"] if not r["ok"]]
        report("ref_1thread failed", f"{len(ref_failed)}/{len(reference['records'])}")
        report("spans", spans_path.relative_to(ROOT))
        for name, value in sorted(metrics.items()):
            report(name, value)
        for name, row in sorted(worker["self_times"].items(), key=lambda kv: -kv[1]["self_s"]):
            report(f"self {name}", f"{row['self_s']:.6g} s of {row['total_s']:.6g} s, {row['calls']:g} calls per pass")

    printed = {}
    for entry in declared:
        value = metrics.get(entry["name"])
        if value is None:
            return fail(f"metric {entry['name']} in BENCHMARK.json is not measured")
        printed[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": printed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
