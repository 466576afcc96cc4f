"""Span tracer that times resalg's layers from outside the package.

`install(tracer)` replaces the public functions and classes that resalg's
own modules look up at call time (for example `fock.ResolventSolver` as
`verify` and `cohomology` reach it, or `cli.simplify`) with wrappers that
record a span and counts, and returns a function that puts the originals
back.  Spans are kept in memory as (name, start, end, parent id, job id)
and written out once, when the benchmark ends; self times and the
per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

VERIFY_FAMILIES = {
    "check_pseudo_resolvent": "pseudo",
    "check_adjoint_symmetry": "adjoint",
    "check_zero_vector": "zero_vector",
    "check_relation_i": "rel_i",
    "check_relation_ii": "rel_ii",
    "check_relation_iii": "rel_iii",
    "check_relation_iv": "rel_iv",
    "check_almost_inner": "almost_inner",
}

COHOMOLOGY_STAGES = {
    "run_pipeline": "pipeline",
    "build_cocycle": "build_cocycle",
    "verify_cocycle": "verify_cocycle",
    "solve_coboundary": "coboundary",
    "coboundary_defect": "coboundary",
    "character_defect": "character_defect",
    "extract_theta": "extract_theta",
    "improve_family": "improve_family",
    "recover_shift": "recover_shift",
}

SPAN_FIELDS = ("name", "start", "end", "parent", "job")


class Tracer:
    """In-memory span and count recorder for one worker process."""

    def __init__(self):
        self.spans = []  # tuples in SPAN_FIELDS order; id = list index
        self.counts = Counter()
        self.job = None
        self.enabled = False
        self._stack = []

    def call(self, name, fn, args, kwargs, on_result=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (name, start, end, parent, self.job)
        if on_result is not None:
            on_result(self.counts, args, kwargs, result)
        return result

    def count(self, name, amount=1):
        if self.enabled:
            self.counts[name] += amount


def _wrap(tracer, name, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, on_result)

    return wrapper


def _count_columns(counts, args, kwargs, result):
    block = args[1] if len(args) > 1 else kwargs["block"]
    counts["fock.apply_cols"] += block.shape[1] if block.ndim == 2 else 1


def _count_terms(counts, args, kwargs, result):
    counts["expr.terms_in"] += len(args[0].terms)
    counts["expr.terms_out"] += len(result.terms)


def _count_xi_pairs(counts, args, kwargs, result):
    counts["cohomology.xi_pairs"] += len(result.values)


def install(tracer: Tracer):
    """Wraps resalg's layer entry points; returns a function that undoes it."""
    from resalg import cli, cohomology, fock, symplectic, verify
    from resalg import expr as expr_mod

    originals = []

    def patch(module, attr, replacement):
        originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def wrap(module, attr, name, on_result=None):
        patch(module, attr, _wrap(tracer, name, getattr(module, attr), on_result))

    solver_cls = fock.ResolventSolver

    class TracedResolventSolver(solver_cls):
        def __init__(self, *args, **kwargs):
            tracer.call("fock.factor", super().__init__, args, kwargs)

        def apply(self, *args, **kwargs):
            return tracer.call(
                "fock.apply", solver_cls.apply, (self,) + args, kwargs, _count_columns
            )

        def matrix(self):
            return tracer.call("fock.matrix", solver_cls.matrix, (self,), {})

    patch(fock, "ResolventSolver", TracedResolventSolver)
    wrap(fock, "generator", "fock.generator")
    wrap(fock, "build_rep", "fock.build_rep")
    wrap(fock, "evaluate", "fock.evaluate")
    wrap(fock, "schur_constant", "fock.schur")
    wrap(fock, "save_matrix", "fock.matrix_io")
    wrap(fock, "load_matrix", "fock.matrix_io")

    cache_cls = verify.SolverCache

    class TracedSolverCache(cache_cls):
        def solver(self, z, f):
            tracer.count("verify.solver_calls")
            return cache_cls.solver(self, z, f)

    patch(verify, "SolverCache", TracedSolverCache)
    wrap(verify, "run_suite", "verify.suite")
    for attr, family in VERIFY_FAMILIES.items():
        wrap(verify, attr, f"verify.{family}")
    wrap(verify, "parse", "expr.parse")
    wrap(verify, "derivation", "expr.derivation")

    for attr, stage in COHOMOLOGY_STAGES.items():
        on_result = _count_xi_pairs if attr == "build_cocycle" else None
        wrap(cohomology, attr, f"cohomology.{stage}", on_result)

    wrap(cli, "main", "cli.main")
    wrap(cli, "parse", "expr.parse")
    wrap(cli, "simplify", "expr.simplify", _count_terms)
    wrap(expr_mod, "to_string", "expr.to_string")
    wrap(symplectic, "pair", "symplectic.pair")

    def undo():
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)

    return undo


# ---------------------------------------------------------------------------
# derived metrics


def self_times(spans) -> dict:
    """Per span name: (total seconds, self seconds, calls).  A span's self
    time is its duration minus the durations of its direct children; spans
    of one thread nest, so children never overlap."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    table = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        total, own, calls = table.get(name, (0.0, 0.0, 0))
        dur = end - start
        table[name] = (total + dur, own + dur - child[idx], calls + 1)
    return table


def _under(spans, idx, ancestor: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, counts) -> dict:
    """Every per-layer metric named in the benchmark, from spans and counts."""
    table = self_times(spans)

    def total(name):
        return table.get(name, (0.0, 0.0, 0))[0]

    def own(name):
        return table.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return table.get(name, (0.0, 0.0, 0))[2]

    out = {}
    for layer in ("factor", "apply", "matrix", "generator", "build_rep",
                  "evaluate", "matrix_io", "schur"):
        out[f"fock.{layer}_s"] = total(f"fock.{layer}")
    for layer in ("factor", "matrix", "schur", "evaluate", "matrix_io"):
        out[f"fock.{layer}_calls"] = calls(f"fock.{layer}")
    out["fock.apply_cols"] = counts.get("fock.apply_cols", 0)

    out["verify.suite_s"] = total("verify.suite")
    families = sorted(set(VERIFY_FAMILIES.values()))
    for family in families:
        out[f"verify.{family}_s"] = total(f"verify.{family}")
    out["verify.check_self_s"] = sum(own(f"verify.{f}") for f in families)
    out["verify.checks"] = sum(calls(f"verify.{f}") for f in families)
    solver_calls = counts.get("verify.solver_calls", 0)
    factors_in_suite = sum(
        1 for idx, s in enumerate(spans)
        if s[0] == "fock.factor" and _under(spans, idx, "verify.suite")
    )
    out["verify.solver_calls"] = solver_calls
    out["verify.solver_cache_hit_ratio"] = (
        (solver_calls - factors_in_suite) / solver_calls if solver_calls else None
    )

    for stage in sorted(set(COHOMOLOGY_STAGES.values())):
        out[f"cohomology.{stage}_s"] = total(f"cohomology.{stage}")
    out["cohomology.xi_pairs"] = counts.get("cohomology.xi_pairs", 0)

    for layer in ("parse", "simplify", "to_string", "derivation"):
        out[f"expr.{layer}_s"] = total(f"expr.{layer}")
    out["expr.terms_in"] = counts.get("expr.terms_in", 0)
    out["expr.terms_out"] = counts.get("expr.terms_out", 0)

    out["symplectic.pair_s"] = total("symplectic.pair")
    out["symplectic.pair_calls"] = calls("symplectic.pair")

    out["cli.main_s"] = total("cli.main")
    out["cli.self_s"] = own("cli.main")
    out["cli.calls"] = calls("cli.main")
    out["cli.report_bytes"] = counts.get("cli.report_bytes", 0)
    out["trace.spans"] = len(spans)
    return out
