"""Benchmark worker: runs one workload's jobs in-process and reports timings.

Started by `run.py` in a fresh interpreter with the checkout's `src` on
PYTHONPATH.  It drives resalg only through `resalg.cli.main` and
`cohomology.recover_shift`, repeats the workload's job list in passes until
the time budget is spent, checks every job's output against its gate, and
writes one JSON result file.  One untimed warm-up pass comes first; its jobs
are gated but their times are not kept.  With --traced 1 the first half of
the budget runs with no wrappers installed and the second half traced, so
the tracing overhead is measured against plain passes of the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import sys
import time
import traceback

import spans

SIGMA_CROSS_MAX = 1e-8
SHIFT_TOL = 1e-10
EXPR_GAP_TOL = 1e-9


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    def blas(config) -> str:
        info = config["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    threads = {
        key: os.environ.get(key, "default")
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": threads,
    }


# ---------------------------------------------------------------------------
# jobs: run() is timed, check() is the correctness gate and is not


class Job:
    def __init__(self, spec: dict, inputs: pathlib.Path, scratch: pathlib.Path, tracer):
        self.spec = spec
        self.inputs = inputs
        self.scratch = scratch
        self.tracer = tracer

    def cli(self, argv, out: pathlib.Path) -> int:
        from resalg import cli

        rc = cli.main(argv)
        if out.exists():
            self.tracer.count("cli.report_bytes", out.stat().st_size)
        return rc


class VerifyJob(Job):
    def run(self):
        out = self.scratch / "verify.json"
        out.unlink(missing_ok=True)
        config = str(self.inputs / self.spec["config"])
        return self.cli(["verify", "--config", config, "--out", str(out)], out), out

    def check(self, artifacts):
        rc, out = artifacts
        if rc != 0:
            return f"verify exited {rc}"
        report = json.loads(out.read_text())
        failed = [c["relation"] for c in report["checks"] if c["verdict"] != "pass"]
        if failed:
            return f"failed checks: {sorted(set(failed))}"
        if not report["sigma_cross_max"] <= SIGMA_CROSS_MAX:
            return f"sigma_cross_max {report['sigma_cross_max']:.3e}"
        return None


def _complex(value) -> complex:
    return complex(*value) if isinstance(value, list) else complex(value)


class CohomologyJob(Job):
    def __init__(self, spec, inputs, scratch, tracer):
        super().__init__(spec, inputs, scratch, tracer)
        self.shift = None
        shift = spec.get("shift")
        if shift is not None:
            # the two families' resolvents are inputs, built before timing
            from resalg import fock

            rep = fock.build_rep(1, shift["trunc"])
            lam = _complex(shift["lambda"])
            plain = fock.resolvent_matrix(rep, lam, shift["f"])
            # (i(lam - i s) + G_f) = (i lam + G_f + s): the family shifted by s
            shifted = fock.resolvent_matrix(rep, lam - 1j * shift["value"], shift["f"])
            self.shift = (rep, plain, shifted, lam, shift)

    def run(self):
        from resalg import cohomology

        out = self.scratch / "cohomology.json"
        out.unlink(missing_ok=True)
        rc = self.cli(
            [
                "cohomology",
                "--config", str(self.inputs / self.spec["config"]),
                "--gauge", str(self.inputs / self.spec["gauge"]),
                "--out", str(out),
            ],
            out,
        )
        recovered = None
        if self.shift is not None:
            rep, plain, shifted, lam, shift = self.shift
            recovered = cohomology.recover_shift(
                rep, plain, shifted, lam, cutoff=shift["cutoff"], seed=shift["seed"]
            )
        return rc, out, recovered

    def check(self, artifacts):
        rc, out, recovered = artifacts
        if rc != 0:
            return f"cohomology exited {rc}"
        report = json.loads(out.read_text())
        if report.get("all_pass") is not True:
            bad = [k for k, v in report["stages"].items() if not v.get("ok")]
            return f"pipeline stages failed: {bad}"
        if self.shift is not None:
            gap = abs(recovered - self.shift[4]["value"])
            if not gap <= SHIFT_TOL:
                return f"recovered shift off by {gap:.3e}"
        return None


class ExprJob(Job):
    def run(self):
        from resalg import fock

        text = self.spec["expression"]
        trunc = str(self.spec["trunc"])
        canon_path = self.scratch / "canonical.json"
        a_path = self.scratch / "original.bin"
        b_path = self.scratch / "canonical.bin"
        for path in (canon_path, a_path, b_path):
            path.unlink(missing_ok=True)
        # "--" ends the options: a canonical form may start with a minus sign
        rcs = [self.cli(["simplify", "--json", "--out", str(canon_path), "--", text], canon_path)]
        if rcs[0] != 0:
            return rcs, None, None
        canonical = json.loads(canon_path.read_text())["canonical"]
        rcs.append(self.cli(["eval", "--trunc", trunc, "--out", str(a_path), "--", text], a_path))
        rcs.append(self.cli(["eval", "--trunc", trunc, "--out", str(b_path), "--", canonical], b_path))
        if any(rcs):
            return rcs, None, None
        return rcs, fock.load_matrix(a_path), fock.load_matrix(b_path)

    def check(self, artifacts):
        import numpy as np
        from resalg.expr import parse

        rcs, original, simplified = artifacts
        if any(rcs):
            return f"cli exit codes {rcs}"
        gap = float(np.linalg.norm(original - simplified, 2))
        if not gap <= EXPR_GAP_TOL:
            return f"eval(e) - eval(simplify(e)) has norm {gap:.3e}"
        e = parse(self.spec["expression"])
        if parse(str(e)) != e:
            return "parse(str(e)) != e"
        return None


JOB_KINDS = {"verify": VerifyJob, "cohomology": CohomologyJob, "expr": ExprJob}


# ---------------------------------------------------------------------------
# passes


def run_pass(jobs, tracer, pass_index, records) -> float:
    """One pass over all jobs; pass_index -1 is the untimed warm-up."""
    start = time.perf_counter()
    for job_index, job in enumerate(jobs):
        tracer.job = f"{pass_index}.{job_index}"
        t0 = time.perf_counter()
        try:
            artifacts = job.run()
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed job must not end the run
            artifacts, error = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        seconds = time.perf_counter() - t0
        if error is None:
            traced, tracer.enabled = tracer.enabled, False
            try:
                error = job.check(artifacts)
            except Exception as exc:  # noqa: BLE001 - a broken output fails its gate
                error = f"gate raised {type(exc).__name__}: {exc}"
            finally:
                tracer.enabled = traced
        records.append({
            "pass": pass_index,
            "job": job_index,
            "seconds": seconds,
            "ok": error is None,
            "reason": error,
        })
    tracer.job = None
    return time.perf_counter() - start


def run_phase(jobs, tracer, seconds, min_passes, first_pass, records, traced) -> list:
    """Whole passes until `seconds` have elapsed and at least `min_passes`
    have run."""
    walls = []
    tracer.enabled = traced
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        walls.append(run_pass(jobs, tracer, first_pass + len(walls), records))
    tracer.enabled = False
    return walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="resalg benchmark worker")
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True, help="the resalg source tree to measure")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-passes", type=int, required=True,
                        help="timed passes per phase, at least")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args(argv)

    import resalg

    src = pathlib.Path(args.src).resolve()
    if src not in pathlib.Path(resalg.__file__).resolve().parents:
        print(f"resalg imported from {resalg.__file__}, not from {src}", file=sys.stderr)
        return 2

    inputs = pathlib.Path(args.inputs)
    scratch = pathlib.Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    manifest = json.loads((inputs / "jobs.json").read_text())
    tracer = spans.Tracer()
    jobs = [JOB_KINDS[s["kind"]](s, inputs, scratch, tracer) for s in manifest["jobs"]]

    records = []
    result = {"jobs_per_pass": len(jobs)}
    run_pass(jobs, tracer, -1, records)
    if args.traced:
        plain = run_phase(jobs, tracer, args.seconds / 2, args.min_passes, 0, records, traced=False)
        undo = spans.install(tracer)
        try:
            traced = run_phase(jobs, tracer, args.seconds / 2, args.min_passes, len(plain),
                               records, traced=True)
        finally:
            undo()
        result["untraced_walls"] = plain
        result["traced_walls"] = traced
        # layer figures are per traced pass, so runs with more passes compare
        n = len(traced)
        result["layers"] = {
            name: value if value is None or name.endswith("_ratio") else value / n
            for name, value in spans.layer_metrics(tracer.spans, tracer.counts).items()
        }
        result["self_times"] = {
            name: {"total_s": t / n, "self_s": s / n, "calls": calls / n}
            for name, (t, s, calls) in sorted(spans.self_times(tracer.spans).items())
        }
        if args.spans:
            pathlib.Path(args.spans).write_text(json.dumps({
                "fields": spans.SPAN_FIELDS,
                "spans": tracer.spans,
                "counts": dict(tracer.counts),
            }) + "\n")
    else:
        result["untraced_walls"] = run_phase(jobs, tracer, args.seconds, args.min_passes, 0,
                                             records, traced=False)
    result["records"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    pathlib.Path(args.out).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
