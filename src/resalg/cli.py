"""Command-line front end.

Subcommands:
    simplify    parse an expression and print its canonical form
    verify      run the relation-certification suite from a config
    cohomology  run the gauge-correction pipeline on a gauge table
    schur       one-off scalar extraction (commutator pair or expression)
    eval        evaluate an expression to a matrix and export it

Reports are JSON with sorted keys and no timestamps, so identical inputs
produce byte-identical output.  Exit codes: 0 all checks pass, 1 a check
failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from dataclasses import replace
from functools import cache, partial

from resalg import cohomology, fock, verify
from resalg.expr import DomainError, ParseError, check_dimension, parse, simplify


def _eprint(message: str):
    print(message, file=sys.stderr)


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2 if args.pretty else None)
    if getattr(args, "out", None):
        pathlib.Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _load_config(args) -> verify.Config:
    """The config file's config, or the defaults, with the command-line
    overrides; without a file the config is built and validated once."""
    config = None
    if getattr(args, "config", None):
        path = pathlib.Path(args.config)
        if not path.exists():
            raise verify.ConfigError(f"config file not found: {path}")
        config = verify.Config.from_json(path.read_text())
    overrides = {}
    if getattr(args, "trunc", None):
        try:  # the config's reader takes numbers, not strings
            overrides["truncations"] = [int(x) for x in args.trunc.split(",")]
        except ValueError as exc:
            raise verify.ConfigError(
                f"bad truncations: {args.trunc!r} is not a list of integers"
            ) from exc
    for option, key in (("compress", "compression"), ("tol", "tolerance"), ("seed", "seed")):
        if getattr(args, option, None) is not None:
            overrides[key] = getattr(args, option)
    if config is None:
        return verify.Config(**overrides)
    return replace(config, **overrides) if overrides else config


def _parse_vector(text: str) -> tuple:
    try:
        vector = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise verify.ConfigError(f"bad vector {text!r}") from exc
    if not all(map(math.isfinite, vector)):
        raise verify.ConfigError(f"bad vector {text!r}: not finite")
    return vector


# ---------------------------------------------------------------------------
# subcommands


def cmd_simplify(args) -> int:
    try:
        canonical = simplify(parse(args.expression))
    except (ParseError, DomainError) as exc:
        _eprint(f"error: {exc}")
        return 2
    if args.json or args.out:
        _emit(args, {
            "schema_version": 1,
            "input": args.expression,
            "canonical": str(canonical),
        })
    else:
        print(str(canonical))
    return 0


def cmd_verify(args) -> int:
    config = _load_config(args)
    result = verify.run_suite(config)
    _emit(args, result.to_report())
    failed = sorted({c.relation for c in result if not c.verdict})
    if failed:
        _eprint(f"failed families: {', '.join(failed)}")
    if result.sigma_cross_error is not None:
        _eprint(f"sigma cross-validation failed: {result.sigma_cross_error}")
    return 0 if result.all_pass else 1


def cmd_cohomology(args) -> int:
    config = _load_config(args)
    if args.gauge:
        path = pathlib.Path(args.gauge)
        if not path.exists():
            raise verify.ConfigError(f"gauge file not found: {path}")
        try:
            gauge = cohomology.gauge_from_json(path.read_text())
        except ValueError as exc:
            raise verify.ConfigError(f"bad gauge file: {exc}") from exc
    else:
        gauge = cohomology.zero_gauge(2 * config.modes, cohomology.DEFAULT_BOX)
    if gauge.dim != 2 * config.modes:
        raise verify.ConfigError(
            f"gauge dimension {gauge.dim} does not match {config.modes} mode(s)"
        )
    if args.corrupt_xi and gauge.box < 2:  # the fault goes on xi(e_1, e_1)
        raise verify.ConfigError(
            f"--corrupt-xi needs a gauge box of radius >= 2; this one has radius {gauge.box}"
        )
    rep = fock.build_rep(config.modes, config.truncations[0], config.max_dim)
    report = cohomology.run_pipeline(
        rep,
        gauge,
        cutoff=config.compression,
        seed=config.seed,
        corrupt_pair=args.corrupt_xi,
    )
    _emit(args, report)
    if not report["all_pass"]:
        failed = [name for name, st in report["stages"].items() if not st["ok"]]
        _eprint(f"failed stages: {', '.join(failed)}")
        return 1
    return 0


def cmd_schur(args) -> int:
    config = _load_config(args)
    rep = fock.build_rep(config.modes, config.truncations[0], config.max_dim)
    payload = {
        "schema_version": 1,
        "truncation": rep.levels,
        "compression": config.compression,
        "seed": config.seed,
    }
    solvers = verify.SolverCache(rep)
    # a malformed vector is a ConfigError, which main reports; ParseError,
    # DomainError and a vector or letter of the wrong dimension are ValueErrors
    pair = args.pair and [_parse_vector(text) for text in args.pair.split(";")]
    if pair and len(pair) != 2:
        raise verify.ConfigError(
            f'--pair takes two vectors "f1,f2;g1,g2", got {len(pair)}'
        )
    try:
        if pair:
            report, target, gap, ok = next(verify.pairing_probes(
                solvers, rep.space, [pair], config.compression, config.seed
            ))
            payload.update(mode="commutator", pairing=target, pairing_gap=gap)
        else:
            expr = parse(args.expression)
            check_dimension(expr, rep.space.dim)
            # applied only to the probe columns, by solves
            k = partial(fock.apply_expr, expr, solver=solvers.solver)
            report = fock.schur_constant(rep, k, cutoff=config.compression, seed=config.seed)
            ok = report.is_scalar
            payload.update(mode="expression", expression=str(expr))
    except ValueError as exc:
        _eprint(f"error: {exc}")
        return 2
    payload.update(
        {
            "mean": [report.mean.real, report.mean.imag],
            "max_deviation": report.max_deviation,
            "probes_used": report.probes_used,
            "is_scalar": report.is_scalar,
        }
    )
    _emit(args, payload)
    return 0 if ok else 1


def cmd_eval(args) -> int:
    config = _load_config(args)
    rep = fock.build_rep(config.modes, config.truncations[0], config.max_dim)
    try:  # ParseError, DomainError or a letter of the wrong dimension
        expr = parse(args.expression)
        check_dimension(expr, rep.space.dim)
        matrix = fock.evaluate(rep, expr)
    except ValueError as exc:
        _eprint(f"error: {exc}")
        return 2
    if args.out and not args.json:
        fock.save_matrix(args.out, matrix)
    else:
        _emit(args, {
            "schema_version": 1,
            "expression": str(expr),
            "truncation": rep.levels,
            "modes": rep.modes,
            "matrix": fock.matrix_to_json(matrix),
        })
    return 0


# ---------------------------------------------------------------------------
# parser


@cache  # built on the first call, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resalg",
        description="Resolvent-family algebra toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--json", action="store_true", help="force JSON output")
        p.add_argument("--pretty", action="store_true", help="indent JSON output")
        p.add_argument("--out", help="write the report to this path")

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--trunc", help="comma-separated truncation levels")
        output(p)

    def probed(p):  # the seed and the cutoff of the Schur probes
        common(p)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--compress", type=int, default=None)

    p = sub.add_parser("simplify", help="canonicalize an expression")
    p.add_argument("expression")
    output(p)
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("verify", help="run the relation suite")
    probed(p)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cohomology", help="run the correction pipeline")
    p.add_argument("--gauge", help="JSON gauge table; omitted means zero gauge")
    p.add_argument(
        "--corrupt-xi",
        action="store_true",
        help="inject a fault into the pair table (self-test of failure path)",
    )
    probed(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("schur", help="extract a scalar from an operator")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("expression", nargs="?", help="expression to probe")
    group.add_argument("--pair", help='two vectors "f1,f2;g1,g2" for a commutator')
    probed(p)
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("eval", help="evaluate an expression to a matrix")
    p.add_argument("expression")
    common(p)
    # eval reads no compression cutoff, and 1 fits every truncation
    p.set_defaults(func=cmd_eval, compress=1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except verify.ConfigError as exc:  # raised before any output is written
        _eprint(f"config error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
