"""Command line front end: benchmark tables, single cells, asymptotic
calculators, and the invariant check suites.

Reports are CSV with a ``#``-prefixed header that echoes the configuration
(seed, kernel, version) needed to reproduce the file byte for byte; plotting
is left to external tools.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from sakde import __version__, asymptotics, mc, reference
from sakde.densities import (
    LinearImage,
    curvature,
    curvature_squared_integral,
    standard_gaussian,
)
from sakde.estimators import (
    RecursiveEstimator,
    recursive_at_points,
    weighted_closed_form,
)
from sakde.kernels import a1_check, gaussian_kernel, kernel_moments
from sakde.sequences import (
    SequencePlan,
    bandwidth_plan,
    gs_index_diagnostic,
    lemma_limit,
    pi_product,
    stepsize_from_weights,
    stepsize_plan,
)

DEFAULT_SEED = 42
SEED_ENV = "SAKDE_SEED"


def _resolve_seed(arg_seed: Optional[int]) -> Tuple[int, str]:
    if arg_seed is not None:
        return arg_seed, "--seed"
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env), f"env:{SEED_ENV}"
        except ValueError:
            raise SystemExit(f"{SEED_ENV} must be an integer, got {env!r}") from None
    return DEFAULT_SEED, "default"


def _meta(command: str, seed: int, seed_source: str, replications: int, dim: int) -> dict:
    return {
        "command": command,
        "seed": seed,
        "seed_source": seed_source,
        "replications": replications,
        "kernel": f"gaussian-product(d={dim})",
        "rng": "philox4x64 key=(seed, replication_index)",
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


def _parse_point(text: str) -> Tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(";", ",").split(","))


# ---------------------------------------------------------------------------
# table / cell commands
# ---------------------------------------------------------------------------

def cmd_table(args) -> int:
    table = args.table_id if args.table_id is not None else args.table
    if table is None:
        raise SystemExit("specify a table: `sakde table 1` or `sakde table --table 1`")
    if args.table_id is not None and args.table is not None and args.table_id != args.table:
        raise SystemExit("conflicting table ids given positionally and via --table")
    seed, source = _resolve_seed(args.seed)
    layout = mc.table_layout(table)
    rows = mc.run_table(table, seed, args.reps, jobs=args.jobs)
    dim = len(layout.xs[0])
    meta = _meta(f"table {table}", seed, source, args.reps, dim)
    out = args.out or f"table-{table}.csv"
    _write_text(out, mc.format_report(rows, meta))
    print(f"wrote {len(rows)} rows to {out}")
    _print_reference_diff(rows)
    return 0


def _print_reference_diff(rows) -> None:
    print(f"{'cell':<38}{'level%':>8}{'ref%':>8}{'d_pp':>7}"
          f"{'length':>10}{'ref':>9}{'d_pct':>7}")
    max_pp = 0.0
    max_len = 0.0
    for row in rows:
        ref_level, ref_length = reference.reference_cell(
            row.table, row.x, row.a, row.n, row.estimator)
        level = 100.0 * row.result.empirical_level
        d_pp = level - ref_level
        d_len = 100.0 * (row.result.avg_length / ref_length - 1.0)
        max_pp = max(max_pp, abs(d_pp))
        max_len = max(max_len, abs(d_len))
        cell = f"x=({','.join(f'{v:g}' for v in row.x)}) a={row.a:g} n={row.n} {row.estimator}"
        print(f"{cell:<38}{level:>8.2f}{ref_level:>8.2f}{d_pp:>+7.2f}"
              f"{row.result.avg_length:>10.4f}{ref_length:>9.4f}{d_len:>+7.2f}")
    print(f"max |coverage - reference| = {max_pp:.2f} pp; "
          f"max |length/reference - 1| = {max_len:.2f} %")


def cmd_cell(args) -> int:
    seed, source = _resolve_seed(args.seed)
    model = mc.table_model(args.density)
    cfg = mc.CellConfig(model, _parse_point(args.x), args.n, args.a,
                        args.estimator, args.reps, seed)
    result = mc.run_cell(cfg)
    row = mc.TableRow(0, args.density, cfg.x, cfg.a, cfg.n, cfg.estimator, result)
    meta = _meta(
        f"cell {args.density} x={args.x} a={args.a} n={args.n} {args.estimator}",
        seed, source, args.reps, model.dim)
    text = mc.format_report([row], meta)
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

def _require(args, names) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise SystemExit(f"query {args.query!r} needs flags: " +
                         " ".join(f"--{n}" for n in missing))


def cmd_asymptotics(args) -> int:
    q = args.query
    if q == "rho":
        _require(args, ["d"])
        print(f"optimal-MSE efficiency ratio rho(d={args.d}) = "
              f"{asymptotics.efficiency_ratio(args.d):.5f}")
        return 0
    if q == "ci-constant":
        _require(args, ["gamma0", "a", "d"])
        c = asymptotics.ci_constant(args.gamma0, args.a, args.d)
        g_min, c_min = asymptotics.ci_constant_minimum(args.a, args.d)
        print(f"interval calibration C(gamma0={args.gamma0:g}, a={args.a:g}, d={args.d}) = {c:.5f}")
        print(f"minimum {c_min:.5f} at gamma0 = {g_min:g}")
        return 0
    if q == "regime":
        _require(args, ["a", "alpha", "d"])
        gamma0 = args.gamma0 if args.gamma0 is not None else math.inf
        r = asymptotics.classify_regime(args.a, args.alpha, args.d, gamma0)
        print(r.regime)
        print(f"  h^2 bias expansion applies: {r.h2_bias_applies}")
        print(f"  bias negligible:            {r.bias_negligible}")
        print(f"  leading variance applies:   {r.variance_leading_applies}")
        print(f"  variance negligible:        {r.variance_negligible}")
        print(f"  gain limit admissible:      {r.gain_limit_admissible}")
        print(f"  both expansions valid:      {r.both_expansions_valid}")
        return 0

    model = mc.table_model(args.density) if args.density else None
    kernel = gaussian_kernel(model.dim) if model else None
    if q == "bias":
        _require(args, ["density", "x", "a", "gamma0", "n"])
        x = _parse_point(args.x)
        s_x = curvature(model, kernel, x)
        step = stepsize_plan(args.gamma0)
        bw = bandwidth_plan(1.0, args.a)
        h_n = float(bw.value(args.n))
        value = asymptotics.bias_leading(s_x, bw, step, args.n)
        print(f"curvature S(x) = {s_x:.6g}")
        print(f"leading recursive bias at n={args.n}: {value:.6g}")
        print(f"leading baseline bias at n={args.n}:  {asymptotics.rosenblatt_bias(s_x, h_n):.6g}")
        return 0
    if q == "variance":
        _require(args, ["density", "x", "a", "gamma0", "n"])
        x = _parse_point(args.x)
        f_x = model.pdf(np.asarray(x))
        step = stepsize_plan(args.gamma0)
        bw = bandwidth_plan(1.0, args.a)
        h_n = float(bw.value(args.n))
        value = asymptotics.variance_leading(f_x, kernel, bw, step, args.n)
        base = asymptotics.rosenblatt_variance(f_x, kernel, args.n, h_n)
        print(f"density f(x) = {f_x:.6g}")
        print(f"leading recursive variance at n={args.n}: {value:.6g}")
        print(f"leading baseline variance at n={args.n}:  {base:.6g}")
        return 0
    if q == "mse-optimal":
        _require(args, ["density", "x"])
        x = _parse_point(args.x)
        f_x = model.pdf(np.asarray(x))
        s_x = curvature(model, kernel, x)
        plan = asymptotics.mse_optimal_plan(f_x, s_x, kernel)
        print("stepsize: gamma_n = 1/n (gain limit 1)")
        print(f"bandwidth: h_n = {plan.bandwidth_constant:.5f} * gamma_n^(1/{kernel.dim + 4})")
        print(f"leading MSE = {plan.mse_constant:.6g} * n^(-4/{kernel.dim + 4})")
        return 0
    if q == "mise-optimal":
        _require(args, ["density"])
        integral = curvature_squared_integral(model, kernel)
        plan = asymptotics.mise_optimal_plan(integral.value, kernel)
        print(f"integrated squared curvature = {integral.value:.6g} "
              f"({integral.points_per_axis} points/axis)")
        print("stepsize: gamma_n = 1/n (gain limit 1)")
        print(f"bandwidth: h_n = {plan.bandwidth_constant:.5f} * gamma_n^(1/{kernel.dim + 4})")
        print(f"leading MISE = {plan.mse_constant:.6g} * n^(-4/{kernel.dim + 4})")
        return 0
    if q == "clt":
        _require(args, ["density", "x", "a", "gamma0"])
        x = _parse_point(args.x)
        f_x = model.pdf(np.asarray(x))
        s_x = curvature(model, kernel, x)
        step = stepsize_plan(args.gamma0)
        c = args.c if args.c is not None else 0.0
        params = asymptotics.clt_params(c, f_x, s_x, kernel, args.a, step)
        if params.degenerate:
            print(f"degenerate limit: h^-2 (f_n - f) -> {params.asym_mean:.6g} in probability")
        else:
            print(f"limit law: Normal(mean={params.asym_mean:.6g}, "
                  f"variance={params.asym_var:.6g}) for c={c:g}")
        return 0
    raise SystemExit(f"unknown asymptotics query: {q!r}")


# ---------------------------------------------------------------------------
# check command
# ---------------------------------------------------------------------------

@dataclass
class CheckOutcome:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str, results: List[CheckOutcome]) -> None:
    results.append(CheckOutcome(name, bool(passed), detail))
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def _fast_checks(seed: int) -> List[CheckOutcome]:
    rng = np.random.default_rng(seed)
    results: List[CheckOutcome] = []

    for d in (1, 2):
        kern = gaussian_kernel(d)
        rep = a1_check(kern)
        mom = kernel_moments(kern.fn, d)
        ok = (rep.passed and abs(mom.roughness - kern.roughness) < 1e-8
              and np.all(np.abs(mom.mu2 - kern.mu2) < 1e-8))
        _check(f"kernel-constants(d={d})", ok,
               f"unit mass {rep.unit_mass:.2e}-close, roughness drift "
               f"{abs(mom.roughness - kern.roughness):.1e}", results)

    diag = gs_index_diagnostic(SequencePlan(1.0, -0.21), 10**6)
    _check("sequence-diagnostic", abs(diag + 0.21) < 1e-3,
           f"index diagnostic {diag:.6f} vs -0.21", results)

    step_ww = stepsize_from_weights(SequencePlan(1.0, 0.0))
    ng = 10**5 * step_ww.gamma(10**5)
    _check("weight-induced-gain", abs(ng - 1.0) < 0.01,
           f"n*gamma_n = {ng:.5f} vs 1", results)

    worst = 0.0
    for scale in (1.0, 0.5):
        step = stepsize_plan(scale)
        q = lemma_limit(1.0, SequencePlan(1.0, 0.0), step, 10**5)
        worst = max(worst, abs(q - (1.0 - pi_product(step, 10**5))))
    _check("lemma-identity", worst < 1e-12,
           f"|Q_n - (1 - Pi_n)| = {worst:.2e}", results)

    q = lemma_limit(2.0, SequencePlan(1.0, 0.79), stepsize_plan(1.0), 10**6)
    _check("lemma-limit", abs(q * 1.21 - 1.0) < 0.01,
           f"streaming value {q:.6f} vs {1 / 1.21:.6f}", results)

    worst = 0.0
    for d in (1, 2):
        kern = gaussian_kernel(d)
        bw = bandwidth_plan(0.8, 0.21 / d)
        sample = rng.standard_normal((600, d))
        pts = rng.standard_normal((50, d)) * 1.5
        for w_exp in (0.0, -bw.a * d / 2.0, -bw.a * d):
            weights = SequencePlan(1.0, w_exp)
            step = stepsize_from_weights(weights)
            est = RecursiveEstimator(kern, step, bw, pts)
            est.update_many(sample)
            direct = weighted_closed_form(kern, weights, bw, sample, pts)
            worst = max(worst, float(np.max(np.abs(est.values - direct))))
    _check("recursion-equivalence", worst < 1e-12,
           f"sup |recursion - weighted form| = {worst:.2e}", results)

    kern = gaussian_kernel(1)
    bw = bandwidth_plan(1.0, 0.21)
    step = stepsize_plan(0.79)
    sample = rng.standard_normal((400, 1))
    pts = np.linspace(-2, 2, 21)[:, None]
    est = RecursiveEstimator(kern, step, bw, pts, f0=0.3)
    est.update_many(sample)
    closed = recursive_at_points(kern, step, bw, sample, pts, f0=0.3)
    worst = float(np.max(np.abs(est.values - closed)))
    _check("closed-form-expansion", worst < 1e-12,
           f"sup |recursion - (closed form + Pi_n f0)| = {worst:.2e}", results)

    worst = 0.0
    for name in ("gaussian", "mixture", "gaussian-2d", "mixture-2d"):
        model = mc.table_model(name)
        pts = rng.standard_normal((30, model.dim))
        eps = 1e-4
        for x in pts:
            for j in range(model.dim):
                e = np.zeros(model.dim)
                e[j] = eps
                fd = (model.pdf(x + e) - 2 * model.pdf(x) + model.pdf(x - e)) / eps**2
                worst = max(worst, abs(fd - model.hessian_diag(x)[j]))
    _check("density-hessians", worst < 1e-5,
           f"max |finite difference - closed form| = {worst:.1e}", results)

    model = mc.table_model("gaussian-2d")
    pts = rng.standard_normal((20, 2))
    manual = model.base.pdf(pts @ np.linalg.inv(model.matrix).T) / abs(np.linalg.det(model.matrix))
    worst = float(np.max(np.abs(model.pdf(pts) - manual)))
    _check("change-of-variables", worst < 1e-15,
           f"max pdf deviation = {worst:.1e}", results)

    kern = gaussian_kernel(1)
    integral = curvature_squared_integral(standard_gaussian(1), kern)
    target = 3.0 / (8.0 * math.sqrt(math.pi))
    _check("curvature-integral", abs(integral.value - target) < 1e-6,
           f"{integral.value:.8f} vs closed form {target:.8f}", results)

    a, d = 0.21, 1
    g_star, c_star = asymptotics.ci_constant_minimum(a, d)
    grid = np.linspace(0.45, 3.0, 400)
    vals = np.array([asymptotics.ci_constant(g, a, d) for g in grid])
    ok = (abs(c_star - math.sqrt(1 - a * d)) < 1e-12
          and np.all(vals >= c_star - 1e-12)
          and abs(asymptotics.ci_constant(g_star, a, d) - c_star) < 1e-12)
    _check("ci-constant-minimum", ok,
           f"min {c_star:.6f} at gamma0={g_star:g}", results)

    ok = True
    worst = 0.0
    for d in (1, 2):
        kern = gaussian_kernel(d)
        f_x, s_x = 0.35, -0.4
        rec = asymptotics.mse_optimal_plan(f_x, s_x, kern)
        ros = asymptotics.rosenblatt_mse_optimal(f_x, s_x, kern)
        dev = abs(ros.mse_constant / rec.mse_constant - asymptotics.efficiency_ratio(d))
        worst = max(worst, dev)
        ok = ok and dev < 1e-10
    rhos = np.array([asymptotics.efficiency_ratio(d) for d in range(1, 51)])
    amin = int(np.argmin(rhos))
    ok = ok and np.all(rhos < 1.0) and 0 < amin < 49 and rhos[-1] > rhos[amin]
    _check("efficiency-ratio", ok,
           f"composition deviation {worst:.1e}; argmin d={amin + 1}", results)

    ok = True
    f_x, s_x = 0.35, -0.4
    for d in (1, 2):
        kern = gaussian_kernel(d)
        plan = asymptotics.mse_optimal_plan(f_x, s_x, kern)
        n = 10**4

        def leading(h_const):
            bwp = bandwidth_plan(h_const, 1.0 / (d + 4))
            return (asymptotics.bias_leading(s_x, bwp, plan.step, n) ** 2
                    + asymptotics.variance_leading(f_x, kern, bwp, plan.step, n))

        base = leading(plan.bandwidth_constant)
        ok = ok and leading(plan.bandwidth_constant * 1.01) > base
        ok = ok and leading(plan.bandwidth_constant * 0.99) > base
    _check("mse-first-order-condition", ok, "+-1% perturbation increases leading MSE", results)

    for d in (1, 2):
        kern = gaussian_kernel(d)
        a = 1.0 / (d + 4)
        step = stepsize_plan(4.0 / (d + 4))
        bw = bandwidth_plan(1.0, a)
        n = 1000
        h_n = float(bw.value(n))
        rec_bias = asymptotics.bias_leading(1.0, bw, step, n)
        ros_bias = asymptotics.rosenblatt_bias(1.0, h_n)
        rec_var = asymptotics.variance_leading(1.0, kern, bw, step, n)
        ros_var = asymptotics.rosenblatt_variance(1.0, kern, n, h_n)
        ok = (abs(ros_bias / rec_bias - 0.5) < 1e-12
              and abs(ros_var / rec_var - (d + 4) / 4.0) < 1e-12)
        _check(f"balanced-plan-ratios(d={d})", ok,
               f"bias ratio {ros_bias / rec_bias:.3f}, variance ratio {ros_var / rec_var:.3f}",
               results)

    cfg = mc.CellConfig(mc.table_model("gaussian"), (0.0,), 50, 0.21,
                        mc.ROSENBLATT, replications=400, seed=seed)
    res = mc.run_cell(cfg)
    ref_level, _ = reference.reference_cell(1, (0.0,), 0.21, 50, mc.ROSENBLATT)
    dev = abs(100 * res.empirical_level - ref_level)
    _check("coverage-smoke", dev < 5.0,
           f"level {100 * res.empirical_level:.2f}% vs reference {ref_level}% "
           f"at 400 replications", results)

    return results


def _full_checks(seed: int, jobs: int) -> List[CheckOutcome]:
    results: List[CheckOutcome] = []
    model = mc.table_model("gaussian")
    kern = gaussian_kernel(1)

    for label, step in (("plain-average", stepsize_plan(1.0)),
                        ("variance-optimal", stepsize_plan(0.79))):
        n, a, reps = 10**4, 0.21, 2000
        emp = mc.empirical_moments(model, (0.0,), n, a, reps, seed=seed, step=step)
        ex_mean, ex_var = mc.exact_moments(model, (0.0,), n, a, step=step)
        mean_tol = 5.0 * math.sqrt(ex_var / reps)
        var_ok = abs(emp.variance / ex_var - 1.0) < 0.15
        mean_ok = abs(emp.mean - ex_mean) < mean_tol
        _check(f"moments-vs-exact({label})", var_ok and mean_ok,
               f"variance ratio {emp.variance / ex_var:.3f}, "
               f"mean error {abs(emp.mean - ex_mean):.2e} (tol {mean_tol:.2e})", results)
        bw = bandwidth_plan(1.0, a)
        lead = asymptotics.variance_leading(model.pdf(np.zeros(1)), kern, bw, step, n)
        print(f"       leading-order variance ratio at n={n}: {emp.variance / lead:.3f} "
              "(finite-n deficit, see docs)")

    n, a, reps = 10**5, 0.1, 200
    step = stepsize_plan(1.0)
    emp = mc.empirical_moments(model, (0.0,), n, a, reps, seed=seed, step=step)
    bw = bandwidth_plan(1.0, a)
    s0 = curvature(model, kern, (0.0,))
    pred = asymptotics.bias_leading(s0, bw, step, n)
    _check("bias-oracle", abs(emp.mean_bias / pred - 1.0) < 0.15,
           f"empirical/leading bias ratio {emp.mean_bias / pred:.3f}", results)

    scaled = LinearImage(standard_gaussian(1), [[3.0]], label="gaussian-sigma3")
    rep = mc.clt_empirical_check(scaled, (3.0,), 10**4, 0.21, replications=2000, seed=seed)
    _check("clt-gate", rep.passed,
           f"sup-CDF distance {rep.distance:.4f} vs threshold {rep.threshold:.4f}", results)

    rows = mc.run_table(1, seed, replications=1000, jobs=jobs)
    worst_ros = 0.0
    worst_rec = 0.0
    for row in rows:
        ref_level, _ = reference.reference_cell(row.table, row.x, row.a, row.n, row.estimator)
        dev = abs(100 * row.result.empirical_level - ref_level)
        if row.estimator == mc.ROSENBLATT:
            worst_ros = max(worst_ros, dev)
        else:
            worst_rec = max(worst_rec, dev)
    # gate on the baseline cells only: the reference recursive cells are not
    # reproducible from the stated update rule (see README, benchmark notes)
    _check("table1-baseline-cells", worst_ros < 3.0,
           f"max baseline coverage deviation {worst_ros:.2f} pp at 1000 replications",
           results)
    print(f"       recursive cells deviate from the published digits by up to "
          f"{worst_rec:.2f} pp (known benchmark discrepancy, reported not gated)")

    return results


def cmd_check(args) -> int:
    seed, source = _resolve_seed(args.seed)
    print(f"check suite={args.suite} seed={seed} ({source}) version=sakde {__version__}")
    results = _fast_checks(seed)
    if args.suite == "full":
        results += _full_checks(seed, args.jobs)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sakde",
        description="Streaming kernel density estimation: benchmark tables, "
                    "asymptotic constants, and invariant checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="run one benchmark coverage table")
    p_table.add_argument("table_id", nargs="?", type=int, choices=(1, 2, 3, 4))
    p_table.add_argument("--table", type=int, choices=(1, 2, 3, 4))
    p_table.add_argument("--seed", type=int)
    p_table.add_argument("--out", type=str)
    p_table.add_argument("--jobs", type=_positive_int, default=os.cpu_count() or 1)
    p_table.add_argument("--reps", type=_positive_int, default=5000)
    p_table.set_defaults(func=cmd_table)

    p_cell = sub.add_parser("cell", help="run one coverage cell")
    p_cell.add_argument("--density", required=True,
                        choices=("gaussian", "mixture", "gaussian-2d", "mixture-2d"))
    p_cell.add_argument("--x", required=True, help="evaluation point, comma separated")
    p_cell.add_argument("--a", type=float, required=True)
    p_cell.add_argument("--n", type=int, required=True)
    p_cell.add_argument("--estimator", required=True, choices=(mc.ROSENBLATT, mc.RECURSIVE))
    p_cell.add_argument("--seed", type=int)
    p_cell.add_argument("--reps", type=_positive_int, default=5000)
    p_cell.add_argument("--out", type=str)
    p_cell.set_defaults(func=cmd_cell)

    p_asy = sub.add_parser("asymptotics", help="evaluate leading-order constants")
    p_asy.add_argument("query", choices=("bias", "variance", "mse-optimal",
                                         "mise-optimal", "rho", "ci-constant",
                                         "clt", "regime"))
    p_asy.add_argument("--d", type=int)
    p_asy.add_argument("--a", type=float)
    p_asy.add_argument("--alpha", type=float)
    p_asy.add_argument("--gamma0", type=float)
    p_asy.add_argument("--c", type=float)
    p_asy.add_argument("--n", type=int)
    p_asy.add_argument("--x", type=str)
    p_asy.add_argument("--density",
                       choices=("gaussian", "mixture", "gaussian-2d", "mixture-2d"))
    p_asy.set_defaults(func=cmd_asymptotics)

    p_check = sub.add_parser("check", help="run the invariant check suites")
    p_check.add_argument("suite", choices=("fast", "full"))
    p_check.add_argument("--seed", type=int)
    p_check.add_argument("--jobs", type=_positive_int, default=os.cpu_count() or 1)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
