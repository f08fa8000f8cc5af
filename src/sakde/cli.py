"""Command line front end: benchmark tables, single cells, asymptotic
calculators, and the invariant check suites.

Reports are CSV with a ``#``-prefixed header that echoes the configuration
(seed, kernel, version) needed to reproduce the file byte for byte; plotting
is left to external tools.
"""

from __future__ import annotations

import argparse
import functools
import inspect
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
        except argparse.ArgumentTypeError:
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
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _seed(text: str) -> int:
    """A master seed: an integer in [0, 2^64), the first word of every Philox key."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2^64), got {text!r}")
    return value


def _point(density: str, x: str):
    """The table model ``density``, ``--x`` parsed as its point (``dim`` finite numbers
    separated by commas or semicolons), and the model's density there."""
    model = mc.table_model(density)
    try:
        point = tuple(float(tok) for tok in x.replace(";", ",").split(","))
    except ValueError:
        point = ()
    if len(point) != model.dim or not all(map(math.isfinite, point)):
        raise SystemExit(f"--x must be {model.dim} finite number(s) separated by commas, "
                         f"got {x!r}")
    return model, point, model.pdf(np.asarray(point))


# ---------------------------------------------------------------------------
# table / cell commands
# ---------------------------------------------------------------------------

def _table(table, /, *, seed=None, out=None, jobs=os.cpu_count() or 1, reps=5000) -> None:
    seed, source = _resolve_seed(seed)
    rows = mc.run_table(table, seed, reps, jobs=jobs)
    meta = _meta(f"table {table}", seed, source, reps, rows[0].cell.dim)
    out = out or f"table-{table}.csv"
    _write_text(out, mc.format_report(rows, meta))
    print(f"wrote {len(rows)} rows to {out}")
    _print_reference_diff(rows)


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


def _cell(*, density, x, a, n, estimator, seed=None, reps=5000, out=None) -> None:
    seed, source = _resolve_seed(seed)
    model, point, _ = _point(density, x)
    cfg = mc.CellConfig(model, point, n, a, estimator, reps, seed)
    (result,) = mc.run_cell(cfg)
    meta = _meta(f"cell {density} x={x} a={a} n={n} {estimator}", seed, source, reps, model.dim)
    text = mc.format_report([mc.TableRow(0, density, cfg, result)], meta)
    if out:
        _write_text(out, text)
        print(f"wrote 1 row to {out}")
    else:
        sys.stdout.write(text)
    print(f"empirical level {100 * result.empirical_level:.2f}% "
          f"(stderr {100 * result.stderr_level:.2f} pp), "
          f"avg length {result.avg_length:.6g}")


# ---------------------------------------------------------------------------
# asymptotics queries
# ---------------------------------------------------------------------------

def _bias(*, density, x, a, gamma0, n) -> None:
    model, x, _ = _point(density, x)
    s_x = curvature(model, x)
    step = stepsize_plan(gamma0)
    bw = bandwidth_plan(1.0, a)
    value = asymptotics.bias_leading(s_x, bw, step, n)
    print(f"curvature S(x) = {s_x:.6g}")
    print(f"leading recursive bias at n={n}: {value:.6g}")
    print(f"leading baseline bias at n={n}:  "
          f"{asymptotics.rosenblatt_bias(s_x, float(bw.value(n))):.6g}")


def _variance(*, density, x, a, gamma0, n) -> None:
    model, _, f_x = _point(density, x)
    step = stepsize_plan(gamma0)
    bw = bandwidth_plan(1.0, a)
    value = asymptotics.variance_leading(f_x, model.dim, bw, step, n)
    base = asymptotics.rosenblatt_variance(f_x, model.dim, n, float(bw.value(n)))
    print(f"density f(x) = {f_x:.6g}")
    print(f"leading recursive variance at n={n}: {value:.6g}")
    print(f"leading baseline variance at n={n}:  {base:.6g}")


def _print_plan(plan, dim: int, risk: str) -> None:
    print("stepsize: gamma_n = 1/n (gain limit 1)")
    print(f"bandwidth: h_n = {plan.bandwidth_constant:.5f} * gamma_n^(1/{dim + 4})")
    print(f"leading {risk} = {plan.mse_constant:.6g} * n^(-4/{dim + 4})")


def _mse_optimal(*, density, x) -> None:
    model, x, f_x = _point(density, x)
    _print_plan(asymptotics.mse_optimal_plan(f_x, curvature(model, x), model.dim),
                model.dim, "MSE")


def _mise_optimal(*, density) -> None:
    model = mc.table_model(density)
    integral = curvature_squared_integral(model)
    print(f"integrated squared curvature = {integral:.6g}")
    _print_plan(asymptotics.mise_optimal_plan(integral, model.dim), model.dim, "MISE")


def _rho(*, d) -> None:
    print(f"optimal-MSE efficiency ratio rho(d={d}) = {asymptotics.efficiency_ratio(d):.5f}")


def _ci_constant(*, gamma0, a, d) -> None:
    c = asymptotics.ci_constant(gamma0, a, d)
    g_min, c_min = asymptotics.ci_constant_minimum(a, d)
    print(f"interval calibration C(gamma0={gamma0:g}, a={a:g}, d={d}) = {c:.5f}")
    print(f"minimum {c_min:.5f} at gamma0 = {g_min:g}")


def _clt(*, density, x, a, gamma0, c=0.0) -> None:
    model, x, f_x = _point(density, x)
    s_x = curvature(model, x)
    params = asymptotics.clt_params(c, f_x, s_x, model.dim, a, stepsize_plan(gamma0))
    if params.degenerate:
        print(f"degenerate limit: h^-2 (f_n - f) -> {params.asym_mean:.6g} in probability")
    else:
        print(f"limit law: Normal(mean={params.asym_mean:.6g}, "
              f"variance={params.asym_var:.6g}) for c={c:g}")


def _regime(*, a, alpha, d, gamma0=math.inf) -> None:
    r = asymptotics.classify_regime(a, alpha, d, gamma0)
    print(r.regime)
    print(f"  h^2 bias expansion applies: {r.h2_bias_applies}")
    print(f"  bias negligible:            {r.bias_negligible}")
    print(f"  leading variance applies:   {r.variance_leading_applies}")
    print(f"  variance negligible:        {r.variance_negligible}")
    print(f"  gain limit admissible:      {r.gain_limit_admissible}")
    print(f"  both expansions valid:      {r.both_expansions_valid}")


#: asymptotics query -> the function that answers it
QUERIES = {"bias": _bias, "variance": _variance, "mse-optimal": _mse_optimal,
           "mise-optimal": _mise_optimal, "rho": _rho, "ci-constant": _ci_constant,
           "clt": _clt, "regime": _regime}


# ---------------------------------------------------------------------------
# check command
# ---------------------------------------------------------------------------

def _check(suite, /, *, seed=None, jobs=os.cpu_count() or 1) -> int:
    seed, source = _resolve_seed(seed)
    print(f"check suite={suite} seed={seed} ({source}) version=sakde {__version__}")
    passed = total = 0
    for check in checks.FAST if suite == "fast" else checks.FULL:
        for outcome in check(seed, jobs):
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

#: each argument's argparse settings, declared once for every command that reads it
_ARGS = {"table": dict(type=int, choices=(1, 2, 3, 4)),
         "suite": dict(choices=("fast", "full")),
         "density": dict(choices=mc.TABLE_MODELS),
         "x": dict(help="evaluation point, comma separated"),
         "estimator": dict(choices=(mc.ROSENBLATT, mc.RECURSIVE)),
         **dict.fromkeys(("a", "gamma0", "alpha", "c"), dict(type=float)),
         **dict.fromkeys(("n", "d", "jobs", "reps"), dict(type=_positive_int)),
         "seed": dict(type=_seed),
         "out": {}}


def _add_command(parser: argparse.ArgumentParser, command) -> None:
    """Declare ``command``'s parameters as ``parser``'s arguments: a positional-only
    parameter is a positional argument, and a keyword-only one a flag that is
    required when the parameter has no default."""
    for name, param in inspect.signature(command).parameters.items():
        if param.kind is param.POSITIONAL_ONLY:
            parser.add_argument(name, **_ARGS[name])
        else:  # a required flag's default is never read
            parser.add_argument(f"--{name}", required=param.default is param.empty,
                                default=param.default, **_ARGS[name])
    parser.set_defaults(func=command, parser=parser)


@functools.cache  # built once per process: callers may run main many times in one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sakde",
        description="Streaming kernel density estimation: benchmark tables, "
                    "asymptotic constants, and invariant checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub.add_parser("table", help="run one benchmark coverage table"), _table)
    _add_command(sub.add_parser("cell", help="run one coverage cell"), _cell)
    p_asy = sub.add_parser("asymptotics", help="evaluate leading-order constants")
    queries = p_asy.add_subparsers(dest="query", required=True)
    for query, answer in QUERIES.items():
        # allow_abbrev=False, else --d reads as --density
        _add_command(queries.add_parser(query, allow_abbrev=False), answer)
    _add_command(sub.add_parser("check", help="run the invariant check suites"), _check)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # under the usage of the level that does not read them: the top
        # level reads no argument before the command
        leading = argv[:argv.index(args.command)]
        (build_parser() if leading else args.parser).error(
            f"unrecognized arguments: {' '.join(leading or extra)}")
    params = inspect.signature(args.func).parameters.values()
    positional = [getattr(args, p.name) for p in params if p.kind is p.POSITIONAL_ONLY]
    keywords = {p.name: getattr(args, p.name) for p in params if p.kind is p.KEYWORD_ONLY}
    try:
        status = args.func(*positional, **keywords)
    except ValueError as exc:  # a formula's or a cell's domain check rejected an argument
        raise SystemExit(f"{args.parser.prog.removeprefix('sakde ')}: {exc}") from None
    return status or 0  # only check has a failing status


if __name__ == "__main__":
    sys.exit(main())
