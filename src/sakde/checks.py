"""Invariant checks behind ``sakde check`` and the acceptance tests.

Each check is a function of ``(seed, jobs)`` returning a list of
:class:`CheckOutcome` records: the verdict and detail ``sakde check`` prints,
plus ``value``, the measured numbers as a flat dict of named Python floats and
never a verdict.  The acceptance criteria assert ``passed``, so each gate is
written once, here.  ``FAST`` and ``FULL`` fix the order of the suites.  A check
that draws random numbers seeds its own ``default_rng(seed)`` or Monte Carlo
cells; one call of ``mc.estimates`` serves every cell a check reads off one draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence

import numpy as np

from sakde import asymptotics, mc, reference
from sakde.densities import curvature, curvature_squared_integral, standard_gaussian
from sakde.estimators import RecursiveEstimator, recursive_at_points, weighted_closed_form
from sakde.kernels import gaussian_kernel, gaussian_roughness, kernel_moments
from sakde.sequences import (SequencePlan, bandwidth_plan, gs_index_diagnostic, lemma_limit,
                             pi_product, stepsize_from_weights, stepsize_plan)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str
    value: Dict[str, float]
    note: str  # reported on a line of its own after the verdict, never gated


def _outcome(name, passed, detail, note="", **value) -> List[CheckOutcome]:
    return [CheckOutcome(name, bool(passed), detail, {k: float(value[k]) for k in value}, note)]


class Deviation(NamedTuple):
    """A table row against its embedded reference cell."""

    row: mc.TableRow
    ref_level: float  # percent
    ref_length: float
    d_pp: float       # coverage - reference, percentage points
    d_len: float      # length / reference - 1


def reference_deviations(rows: Sequence[mc.TableRow]) -> List[Deviation]:
    refs = [reference.reference_cell(r.table, r.cell.x, r.cell.a, r.cell.n, r.cell.estimator)
            for r in rows]
    return [Deviation(row, level, length, 100.0 * row.result.empirical_level - level,
                      row.result.avg_length / length - 1.0)
            for row, (level, length) in zip(rows, refs)]


# fast suite: exact identities and closed forms

def kernel_constants(seed: int, jobs: int) -> List[CheckOutcome]:
    out = []
    for d in (1, 2):
        mom = kernel_moments(gaussian_kernel(d).fn, d)
        mass, first = abs(mom.mass - 1.0), float(np.max(np.abs(mom.first_moments)))
        drift = abs(mom.roughness - gaussian_roughness(d))
        # the product Gaussian's second moments are all 1
        ok = (mass < 1e-6 and first < 1e-6 and drift < 1e-8
              and np.all(np.abs(mom.mu2 - 1.0) < 1e-8))
        out += _outcome(f"kernel-constants(d={d})", ok, f"|mass - 1| {mass:.1e}, "
                        f"max |first moment| {first:.1e}, roughness drift {drift:.1e}",
                        mass_dev=mass, max_first_moment=first, roughness_drift=drift)
    return out


def sequence_diagnostic(seed: int, jobs: int) -> List[CheckOutcome]:
    diag = gs_index_diagnostic(SequencePlan(1.0, -0.21), 10**6)
    return _outcome("sequence-diagnostic", abs(diag + 0.21) < 1e-3,
                    f"index diagnostic {diag:.6f} vs -0.21", index_diagnostic=diag)


def weight_induced_gain(seed: int, jobs: int) -> List[CheckOutcome]:
    ng = 10**5 * stepsize_from_weights(SequencePlan(1.0, 0.0)).gamma_values(10**5)[-1]
    return _outcome("weight-induced-gain", abs(ng - 1.0) < 0.01, f"n*gamma_n = {ng:.5f} vs 1",
                    n_gamma_n=ng)


def lemma_identity(seed: int, jobs: int) -> List[CheckOutcome]:
    n, worst = 10**6, 0.0
    for step in (stepsize_plan(1.0), stepsize_plan(0.5)):
        q = lemma_limit(1.0, SequencePlan(1.0, 0.0), step, n)
        worst = max(worst, abs(q - (1.0 - pi_product(step, n))))
    return _outcome("lemma-identity", worst < 1e-12, f"|Q_n - (1 - Pi_n)| = {worst:.2e}",
                    identity_dev=worst)


def lemma_limit_value(seed: int, jobs: int) -> List[CheckOutcome]:
    q = lemma_limit(2.0, SequencePlan(1.0, 0.79), stepsize_plan(1.0), 10**6)
    return _outcome("lemma-limit", abs(q * 1.21 - 1.0) < 0.01,
                    f"streaming value {q:.6f} vs {1 / 1.21:.6f}", limit=q)


def recursion_equivalence(seed: int, jobs: int) -> List[CheckOutcome]:
    rng, worst = np.random.default_rng(seed), 0.0
    for d in (1, 2):
        kern, a = gaussian_kernel(d), 0.21 / d
        bw = bandwidth_plan(0.9, a)
        sample = rng.standard_normal((1000, d))
        pts = rng.standard_normal((50, d)) * 1.5
        for factor in (0.0, 0.5, 1.0):  # weights 1, h^{d/2}, h^d
            weights = SequencePlan(1.0, -factor * a * d)
            # the one-step recursion, and the block updates that expand it
            stepwise, blocks = (RecursiveEstimator(kern, stepsize_from_weights(weights), bw, pts)
                                for _ in range(2))
            for row in sample:
                stepwise.update(row)
            blocks.update_many(sample)
            direct = weighted_closed_form(kern, weights, bw, sample, pts)
            worst = max(worst, *(np.max(np.abs(est.values - direct)) for est in (stepwise, blocks)))
    return _outcome("recursion-equivalence", worst < 1e-12,
                    f"sup |recursion - weighted form| = {worst:.2e}", max_dev=worst)


def closed_form_expansion(seed: int, jobs: int) -> List[CheckOutcome]:
    kern, bw, step = gaussian_kernel(1), bandwidth_plan(1.0, 0.21), stepsize_plan(0.79)
    sample = np.random.default_rng(seed).standard_normal((400, 1))
    pts = np.linspace(-2, 2, 21)[:, None]
    est = RecursiveEstimator(kern, step, bw, pts, f0=0.3)
    for row in sample:
        est.update(row)
    closed = recursive_at_points(kern, step, bw, sample, pts, f0=0.3)
    worst = float(np.max(np.abs(est.values - closed)))
    return _outcome("closed-form-expansion", worst < 1e-12,
                    f"sup |recursion - (closed form + Pi_n f0)| = {worst:.2e}", max_dev=worst)


def density_hessians(seed: int, jobs: int) -> List[CheckOutcome]:
    rng, eps, worst = np.random.default_rng(seed), 1e-4, 0.0
    for build in mc.TABLE_MODELS.values():
        model = build()
        for x in rng.standard_normal((30, model.dim)):
            for j, e in enumerate(np.eye(model.dim) * eps):
                fd = (model.pdf(x + e) - 2 * model.pdf(x) + model.pdf(x - e)) / eps**2
                worst = max(worst, abs(fd - model.hessian_diag(x)[j]))
    return _outcome("density-hessians", worst < 1e-5,
                    f"max |finite difference - closed form| = {worst:.1e}", max_dev=worst)


def change_of_variables(seed: int, jobs: int) -> List[CheckOutcome]:
    model = mc.table_model("gaussian-2d")
    pts = np.random.default_rng(seed).standard_normal((20, 2))
    # the image's mixture algebra against the change of variables f_Y(A^-1 x) / |det A|
    moved = standard_gaussian(2).pdf(pts @ np.linalg.inv(mc.SHEAR).T) / abs(np.linalg.det(mc.SHEAR))
    worst = float(np.max(np.abs(model.pdf(pts) - moved)))
    return _outcome("change-of-variables", worst < 1e-15, f"max pdf deviation = {worst:.1e}",
                    max_pdf_dev=worst)


def curvature_integral(seed: int, jobs: int) -> List[CheckOutcome]:
    value = curvature_squared_integral(standard_gaussian(1))
    target = 3.0 / (8.0 * math.sqrt(math.pi))
    return _outcome("curvature-integral", abs(value - target) < 1e-6,
                    f"{value:.8f} vs closed form {target:.8f}", integral=value, closed_form=target)


def ci_constant_minimum(seed: int, jobs: int) -> List[CheckOutcome]:
    """Minimum ``sqrt(1 - ad)`` at ``gamma0 = 1 - ad``, strict on [0.45, 4] off it."""
    a, d = 0.21, 1
    g_star, c_star = asymptotics.ci_constant_minimum(a, d)
    grid = np.linspace(0.45, 4.0, 2001)
    vals = np.array([asymptotics.ci_constant(g, a, d) for g in grid])
    v = dict(c_star=c_star, minimum_dev=abs(c_star - math.sqrt(1 - a * d)),
             minimiser_gap=abs(asymptotics.ci_constant(g_star, a, d) - c_star),
             grid_min=np.min(vals), off_grid_min=np.min(vals[np.abs(grid - g_star) > 1e-3]))
    ok = (v["minimum_dev"] < 1e-12 and v["minimiser_gap"] < 1e-12
          and v["grid_min"] >= c_star - 1e-12 and v["off_grid_min"] > c_star + 1e-9)
    return _outcome("ci-constant-minimum", ok, f"min {c_star:.6f} at gamma0={g_star:g}", **v)


def efficiency_ratio(seed: int, jobs: int) -> List[CheckOutcome]:
    """rho(d) from the two optimal MSE constants; below 1 on d = 1..50 with an
    interior minimum."""
    worst = 0.0
    for d in (1, 2):
        ratio = (asymptotics.rosenblatt_mse_optimal(0.35, -0.4, d).mse_constant
                 / asymptotics.mse_optimal_plan(0.35, -0.4, d).mse_constant)
        worst = max(worst, abs(ratio - asymptotics.efficiency_ratio(d)))
    rhos = np.array([asymptotics.efficiency_ratio(d) for d in range(1, 51)])
    amin = int(np.argmin(rhos))
    ok = worst < 1e-10 and np.all(rhos < 1.0) and 0 < amin < 49 and rhos[-1] > rhos[amin]
    return _outcome("efficiency-ratio", ok, f"composition deviation {worst:.1e}; "
                    f"argmin d={amin + 1}", composition_dev=worst, max_rho=np.max(rhos),
                    argmin_d=amin + 1, min_rho=rhos[amin], rho_d50=rhos[-1])


def mse_first_order_condition(seed: int, jobs: int) -> List[CheckOutcome]:
    """Leading MSE at the optimal bandwidth constant and at +1% / -1% of it."""
    f_x, s_x, n, value, rises, step = 0.35, -0.4, 10**4, {}, [], stepsize_plan(1.0)
    for d in (1, 2):
        plan = asymptotics.mse_optimal_plan(f_x, s_x, d)

        def leading(h_const):
            bw = bandwidth_plan(h_const, 1.0 / (d + 4))
            return (asymptotics.bias_leading(s_x, bw, step, n) ** 2
                    + asymptotics.variance_leading(f_x, d, bw, step, n))

        base, up, dn = (leading(plan.bandwidth_constant * s) for s in (1.0, 1.01, 0.99))
        rises.append(up > base and dn > base)
        value.update({f"d{d}_optimum": base, f"d{d}_plus_1pct": up, f"d{d}_minus_1pct": dn})
    return _outcome("mse-first-order-condition", all(rises),
                    "+-1% perturbation increases leading MSE", **value)


def balanced_plan_ratios(seed: int, jobs: int) -> List[CheckOutcome]:
    out, n = [], 1000
    for d in (1, 2):
        step = stepsize_plan(4.0 / (d + 4))
        bw = bandwidth_plan(1.0, 1.0 / (d + 4))
        h_n = float(bw.value(n))
        bias = asymptotics.rosenblatt_bias(1.0, h_n) / asymptotics.bias_leading(1.0, bw, step, n)
        var = (asymptotics.rosenblatt_variance(1.0, d, n, h_n)
               / asymptotics.variance_leading(1.0, d, bw, step, n))
        out += _outcome(f"balanced-plan-ratios(d={d})",
                        abs(bias - 0.5) < 1e-12 and abs(var - (d + 4) / 4.0) < 1e-12,
                        f"bias ratio {bias:.3f}, variance ratio {var:.3f}",
                        bias_ratio=bias, variance_ratio=var)
    return out


def coverage_smoke(seed: int, jobs: int) -> List[CheckOutcome]:
    cfg = mc.CellConfig(mc.table_model("gaussian"), (0.0,), 50, 0.21, mc.ROSENBLATT, 400, seed)
    level = 100 * mc.run_cell(cfg)[0].empirical_level
    ref_level, _ = reference.reference_cell(1, (0.0,), 0.21, 50, mc.ROSENBLATT)
    return _outcome("coverage-smoke", abs(level - ref_level) < 5.0,
                    f"level {level:.2f}% vs reference {ref_level}% at 400 replications",
                    level=level, reference_level=ref_level)


# full suite adds the Monte Carlo oracles

def moments_and_clt(seed: int, jobs: int) -> List[CheckOutcome]:
    """Moments at n = 10^4 against the exact finite-n ones, for the
    plain-average and the variance-optimal gain, and the CLT gate, all read
    from one draw of 2000 standard-Gaussian samples."""
    model, out = mc.table_model("gaussian"), []
    cells = [mc.CellConfig(model, (0.0,), 10**4, 0.21, mc.RECURSIVE, 2000, seed, step=step)
             for step in (stepsize_plan(1.0), None)]
    # the CLT gate reads N(0, 9) at its curvature-free point x = 3 (a negligible
    # finite-n center shift; gamma0 = 1-ad, a = 0.21, d = 1).  With X = 3Z, its
    # estimate and f(3) are one third of this N(0, 1) cell's at x = 1 with
    # bandwidth scale 1/3, so both standardise to the same statistic
    clt = mc.CellConfig(model, (1.0,), 10**4, 0.21, mc.RECURSIVE, 2000, seed,
                        bandwidth=bandwidth_plan(1 / 3, 0.21))
    *moment_estimates, clt_estimates = mc.estimates(*cells, clt)
    for label, cell, g in zip(("plain-average", "variance-optimal"), cells, moment_estimates):
        (mean, var), (ex_mean, ex_var) = mc.empirical_moments(cell, g), mc.exact_moments(cell)
        lead = cell.leading_variance(model.pdf(np.zeros(1)))
        tol = 5.0 * math.sqrt(ex_var / cell.replications)
        out += _outcome(
            f"moments-vs-exact({label})",
            abs(var / ex_var - 1.0) < 0.15 and abs(mean - ex_mean) < tol,
            f"variance ratio {var / ex_var:.3f}, "
            f"mean error {abs(mean - ex_mean):.2e} (tol {tol:.2e})",
            mean=mean, variance=var, exact_mean=ex_mean, exact_variance=ex_var,
            note=f"leading-order variance ratio at n={cell.n}: {var / lead:.3f} "
            "(finite-n deficit, see docs)")
    rep = mc.clt_empirical_check(clt, clt_estimates)
    return out + _outcome("clt-gate", rep.passed, f"sup-CDF distance {rep.distance:.4f} vs "
                          f"threshold {rep.threshold:.4f}",
                          **{k: v for k, v in vars(rep).items() if k != "passed"})


def bias_oracle(seed: int, jobs: int) -> List[CheckOutcome]:
    model = mc.table_model("gaussian")
    cell = mc.CellConfig(model, (0.0,), 10**5, 0.1, mc.RECURSIVE, 200, seed,
                         step=stepsize_plan(1.0))
    mean, _ = mc.empirical_moments(cell, *mc.estimates(cell))
    ratio = (mean - model.pdf(np.asarray(cell.x))) / asymptotics.bias_leading(
        curvature(model, cell.x), cell.bandwidth, cell.step, cell.n)
    return _outcome("bias-oracle", abs(ratio - 1.0) < 0.15,
                    f"empirical/leading bias ratio {ratio:.3f}", bias_ratio=ratio)


def table1_baseline_cells(seed: int, jobs: int) -> List[CheckOutcome]:
    devs = reference_deviations(mc.run_table(1, seed, replications=1000, jobs=jobs))
    baseline, recursive = (max(abs(v.d_pp) for v in devs if v.row.cell.estimator == est)
                           for est in (mc.ROSENBLATT, mc.RECURSIVE))
    # gate on the baseline cells only: the reference recursive cells are not
    # reproducible from the stated update rule (see README, benchmark notes)
    return _outcome("table1-baseline-cells", baseline < 3.0,
                    f"max baseline coverage deviation {baseline:.2f} pp at 1000 replications",
                    f"recursive cells deviate from the published digits by up to "
                    f"{recursive:.2f} pp (known benchmark discrepancy, reported not gated)",
                    max_baseline_dev_pp=baseline, max_recursive_dev_pp=recursive)


FAST = (kernel_constants, sequence_diagnostic, weight_induced_gain, lemma_identity,
        lemma_limit_value, recursion_equivalence, closed_form_expansion, density_hessians,
        change_of_variables, curvature_integral, ci_constant_minimum, efficiency_ratio,
        mse_first_order_condition, balanced_plan_ratios, coverage_smoke)
FULL = FAST + (moments_and_clt, bias_oracle, table1_baseline_cells)
