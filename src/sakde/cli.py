"""Command line front end: benchmark tables, single cells, asymptotic
calculators, and the invariant check suites.

Reports are CSV with a ``#``-prefixed header that echoes the configuration
(seed, kernel, version) needed to reproduce the file byte for byte; plotting
is left to external tools.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Optional, Tuple

import numpy as np

from sakde import __version__, asymptotics, checks, mc
from sakde.densities import curvature, curvature_squared_integral
from sakde.kernels import gaussian_kernel
from sakde.sequences import bandwidth_plan, stepsize_plan

DEFAULT_SEED = 42
SEED_ENV = "SAKDE_SEED"


def _resolve_seed(arg_seed: Optional[int]) -> Tuple[int, str]:
    if arg_seed is not None:
        return arg_seed, "--seed"
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return _seed(env), f"env:{SEED_ENV}"
        except (ValueError, argparse.ArgumentTypeError):
            raise SystemExit(f"{SEED_ENV} must be an integer in [0, 2^64), got {env!r}") from None
    return DEFAULT_SEED, "default"


def _meta(command: str, seed: int, seed_source: str, replications: int, dim: int) -> dict:
    return {
        "command": command,
        "seed": seed,
        "seed_source": seed_source,
        "replications": replications,
        "kernel": gaussian_kernel(dim).name,
        "rng": mc.RNG_LAYOUT,
        "interval": f"estimate -+ {mc.Z_95} * C * sqrt(estimate*R/(n*h^d))",
        "version": f"sakde {__version__}",
    }


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(f"cannot write report to {path!r}: {exc}")


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """A master seed: an integer in [0, 2^64), the first word of every Philox key."""
    if not 0 <= int(text) < 2**64:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2^64), got {text!r}")
    return int(text)


def _parse_point(text: str, dim: int) -> Tuple[float, ...]:
    """Parse ``--x`` as ``dim`` finite numbers separated by commas (or semicolons)."""
    try:
        point = tuple(float(tok) for tok in text.replace(";", ",").split(","))
    except ValueError:
        point = ()
    if len(point) != dim or not all(map(math.isfinite, point)):
        raise SystemExit(f"--x must be {dim} finite number(s) separated by commas, got {text!r}")
    return point


# ---------------------------------------------------------------------------
# table / cell commands
# ---------------------------------------------------------------------------

def cmd_table(args) -> int:
    seed, source = _resolve_seed(args.seed)
    rows = mc.run_table(args.table, seed, args.reps, jobs=args.jobs)
    meta = _meta(f"table {args.table}", seed, source, args.reps, rows[0].cell.dim)
    out = args.out or f"table-{args.table}.csv"
    _write_text(out, mc.format_report(rows, meta))
    print(f"wrote {len(rows)} rows to {out}")
    _print_reference_diff(rows)
    return 0


def _print_reference_diff(rows) -> None:
    print(f"{'cell':<38}{'level%':>8}{'ref%':>8}{'d_pp':>7}"
          f"{'length':>10}{'ref':>9}{'d_pct':>7}")
    max_pp = 0.0
    max_len = 0.0
    for row, ref_level, ref_length, d_pp, d_len in checks.reference_deviations(rows):
        max_pp = max(max_pp, abs(d_pp))
        max_len = max(max_len, abs(100.0 * d_len))
        cfg = row.cell
        cell = f"x=({','.join(f'{v:g}' for v in cfg.x)}) a={cfg.a:g} n={cfg.n} {cfg.estimator}"
        print(f"{cell:<38}{100.0 * row.result.empirical_level:>8.2f}{ref_level:>8.2f}{d_pp:>+7.2f}"
              f"{row.result.avg_length:>10.4f}{ref_length:>9.4f}{100.0 * d_len:>+7.2f}")
    print(f"max |coverage - reference| = {max_pp:.2f} pp; "
          f"max |length/reference - 1| = {max_len:.2f} %")


def cmd_cell(args) -> int:
    seed, source = _resolve_seed(args.seed)
    model = mc.table_model(args.density)
    try:
        cfg = mc.CellConfig(model, _parse_point(args.x, model.dim), args.n, args.a,
                            args.estimator, args.reps, seed)
    except ValueError as exc:
        raise SystemExit(f"cell: {exc}") from None
    (result,) = mc.run_cell(cfg)
    meta = _meta(
        f"cell {args.density} x={args.x} a={args.a} n={args.n} {args.estimator}",
        seed, source, args.reps, model.dim)
    text = mc.format_report([mc.TableRow(0, args.density, cfg, result)], meta)
    if args.out:
        _write_text(args.out, text)
        print(f"wrote 1 row to {args.out}")
    else:
        sys.stdout.write(text)
    print(f"empirical level {100 * result.empirical_level:.2f}% "
          f"(stderr {100 * result.stderr_level:.2f} pp), "
          f"avg length {result.avg_length:.6g}")
    return 0


# ---------------------------------------------------------------------------
# asymptotics command
# ---------------------------------------------------------------------------

#: each asymptotics flag's argparse settings, declared once for every query that reads it
_FLAGS = {"density": dict(choices=mc.TABLE_MODELS),
          "x": dict(help="evaluation point, comma separated"),
          **dict.fromkeys(("a", "gamma0", "alpha", "c"), dict(type=float)),
          **dict.fromkeys(("n", "d"), dict(type=_positive_int))}

#: asymptotics query -> (the flags it requires, its optional flags with their defaults)
QUERIES = {
    "bias": (("density", "x", "a", "gamma0", "n"), {}),
    "variance": (("density", "x", "a", "gamma0", "n"), {}),
    "mse-optimal": (("density", "x"), {}),
    "mise-optimal": (("density",), {}),
    "rho": (("d",), {}),
    "ci-constant": (("gamma0", "a", "d"), {}),
    "clt": (("density", "x", "a", "gamma0"), {"c": 0.0}),
    "regime": (("a", "alpha", "d"), {"gamma0": math.inf}),
}


def cmd_asymptotics(args) -> int:
    try:
        return _answer_query(args)
    except ValueError as exc:  # a formula's domain or pole check rejected the flags
        raise SystemExit(f"asymptotics {args.query}: {exc}") from None


def _answer_query(args) -> int:
    q = args.query
    if q == "rho":
        print(f"optimal-MSE efficiency ratio rho(d={args.d}) = "
              f"{asymptotics.efficiency_ratio(args.d):.5f}")
        return 0
    if q == "ci-constant":
        c = asymptotics.ci_constant(args.gamma0, args.a, args.d)
        g_min, c_min = asymptotics.ci_constant_minimum(args.a, args.d)
        print(f"interval calibration C(gamma0={args.gamma0:g}, a={args.a:g}, d={args.d}) = {c:.5f}")
        print(f"minimum {c_min:.5f} at gamma0 = {g_min:g}")
        return 0
    if q == "regime":
        r = asymptotics.classify_regime(args.a, args.alpha, args.d, args.gamma0)
        print(r.regime)
        print(f"  h^2 bias expansion applies: {r.h2_bias_applies}")
        print(f"  bias negligible:            {r.bias_negligible}")
        print(f"  leading variance applies:   {r.variance_leading_applies}")
        print(f"  variance negligible:        {r.variance_negligible}")
        print(f"  gain limit admissible:      {r.gain_limit_admissible}")
        print(f"  both expansions valid:      {r.both_expansions_valid}")
        return 0

    model = mc.table_model(args.density)
    if q == "mise-optimal":
        integral = curvature_squared_integral(model)
        plan = asymptotics.mise_optimal_plan(integral, model.dim)
        print(f"integrated squared curvature = {integral:.6g}")
        print("stepsize: gamma_n = 1/n (gain limit 1)")
        print(f"bandwidth: h_n = {plan.bandwidth_constant:.5f} * gamma_n^(1/{model.dim + 4})")
        print(f"leading MISE = {plan.mse_constant:.6g} * n^(-4/{model.dim + 4})")
        return 0
    x = _parse_point(args.x, model.dim)
    f_x = model.pdf(np.asarray(x))
    if q == "bias":
        s_x = curvature(model, x)
        step = stepsize_plan(args.gamma0)
        bw = bandwidth_plan(1.0, args.a)
        h_n = float(bw.value(args.n))
        value = asymptotics.bias_leading(s_x, bw, step, args.n)
        print(f"curvature S(x) = {s_x:.6g}")
        print(f"leading recursive bias at n={args.n}: {value:.6g}")
        print(f"leading baseline bias at n={args.n}:  {asymptotics.rosenblatt_bias(s_x, h_n):.6g}")
        return 0
    if q == "variance":
        step = stepsize_plan(args.gamma0)
        bw = bandwidth_plan(1.0, args.a)
        h_n = float(bw.value(args.n))
        value = asymptotics.variance_leading(f_x, model.dim, bw, step, args.n)
        base = asymptotics.rosenblatt_variance(f_x, model.dim, args.n, h_n)
        print(f"density f(x) = {f_x:.6g}")
        print(f"leading recursive variance at n={args.n}: {value:.6g}")
        print(f"leading baseline variance at n={args.n}:  {base:.6g}")
        return 0
    if q == "mse-optimal":
        s_x = curvature(model, x)
        plan = asymptotics.mse_optimal_plan(f_x, s_x, model.dim)
        print("stepsize: gamma_n = 1/n (gain limit 1)")
        print(f"bandwidth: h_n = {plan.bandwidth_constant:.5f} * gamma_n^(1/{model.dim + 4})")
        print(f"leading MSE = {plan.mse_constant:.6g} * n^(-4/{model.dim + 4})")
        return 0
    if q == "clt":
        s_x = curvature(model, x)
        step = stepsize_plan(args.gamma0)
        params = asymptotics.clt_params(args.c, f_x, s_x, model.dim, args.a, step)
        if params.degenerate:
            print(f"degenerate limit: h^-2 (f_n - f) -> {params.asym_mean:.6g} in probability")
        else:
            print(f"limit law: Normal(mean={params.asym_mean:.6g}, "
                  f"variance={params.asym_var:.6g}) for c={args.c:g}")
        return 0


# ---------------------------------------------------------------------------
# check command
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    seed, source = _resolve_seed(args.seed)
    print(f"check suite={args.suite} seed={seed} ({source}) version=sakde {__version__}")
    passed = total = 0
    for check in checks.FAST if args.suite == "fast" else checks.FULL:
        for outcome in check(seed, args.jobs):
            print(f"[{'PASS' if outcome.passed else 'FAIL'}] {outcome.name}: {outcome.detail}")
            if outcome.note:
                print(f"       {outcome.note}")
            passed += outcome.passed
            total += 1
    print(f"{passed}/{total} checks passed")
    return 0 if passed == total else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache  # built once per process: callers may run main many times in one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sakde",
        description="Streaming kernel density estimation: benchmark tables, "
                    "asymptotic constants, and invariant checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="run one benchmark coverage table")
    p_table.add_argument("table", type=int, choices=(1, 2, 3, 4))
    p_table.add_argument("--seed", type=_seed)
    p_table.add_argument("--out", type=str)
    p_table.add_argument("--jobs", type=_positive_int, default=os.cpu_count() or 1)
    p_table.add_argument("--reps", type=_positive_int, default=5000)
    p_table.set_defaults(func=cmd_table)

    p_cell = sub.add_parser("cell", help="run one coverage cell")
    p_cell.add_argument("--density", required=True, choices=mc.TABLE_MODELS)
    p_cell.add_argument("--x", required=True, help="evaluation point, comma separated")
    p_cell.add_argument("--a", type=float, required=True)
    p_cell.add_argument("--n", type=_positive_int, required=True)
    p_cell.add_argument("--estimator", required=True, choices=(mc.ROSENBLATT, mc.RECURSIVE))
    p_cell.add_argument("--seed", type=_seed)
    p_cell.add_argument("--reps", type=_positive_int, default=5000)
    p_cell.add_argument("--out", type=str)
    p_cell.set_defaults(func=cmd_cell)

    p_asy = sub.add_parser("asymptotics", help="evaluate leading-order constants")
    queries = p_asy.add_subparsers(dest="query", required=True)
    for query, (required, optional) in QUERIES.items():
        p_query = queries.add_parser(query, allow_abbrev=False)  # else --d reads as --density
        for flag in (*required, *optional):
            p_query.add_argument(f"--{flag}", required=flag in required,
                                 default=optional.get(flag), **_FLAGS[flag])
    p_asy.set_defaults(func=cmd_asymptotics)

    p_check = sub.add_parser("check", help="run the invariant check suites")
    p_check.add_argument("suite", choices=("fast", "full"))
    p_check.add_argument("--seed", type=_seed)
    p_check.add_argument("--jobs", type=_positive_int, default=os.cpu_count() or 1)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
