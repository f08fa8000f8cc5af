"""Acceptance criteria, one test per criterion.

Each test prints one `criterion N: PASS/FAIL` line (visible with `pytest -s`
or in the failure report).  Criteria 3 and 6 compare Monte Carlo output
against leading-order constants / published benchmark digits at sample sizes
where the exact finite-n moments (computed in closed form alongside) sit
outside the stated tolerances; those tests carry the exact-oracle diagnostics
in their output.
"""

import hashlib
import math

import numpy as np
import pytest

from sakde import checks, mc
from sakde.cli import main as cli_main
from sakde.kernels import gaussian_roughness

SEED = 42
PHI0 = 1 / math.sqrt(2 * math.pi)


def record(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def measure(*suite_checks):
    """Raw measured values of the shared checks, by check name."""
    return {o.name: o.value for check in suite_checks for o in check(SEED, 1)}


@pytest.fixture(scope="module")
def moments_and_clt():
    """Criteria 3 and 5 read one draw of the standard-Gaussian sample."""
    return measure(checks.moments_and_clt)


@pytest.fixture(scope="module")
def full_tables():
    return {t: mc.run_table(t, seed=SEED, replications=5000, jobs=2) for t in (1, 2, 3, 4)}


@pytest.fixture(scope="module")
def fast_tables():
    return {t: mc.run_table(t, seed=SEED, replications=1000, jobs=2) for t in (1, 2, 3, 4)}


def test_criterion_1_recursion_equals_closed_form():
    worst = measure(checks.recursion_equivalence)["recursion-equivalence"]
    assert record(1, worst < 1e-12,
                  f"sup |recursion - weighted closed form| = {worst:.3e} (tol 1e-12)")


def test_criterion_2_streaming_limit_evaluation():
    values = measure(checks.lemma_limit_value, checks.lemma_identity)
    q, ident_worst = values["lemma-limit"], values["lemma-identity"]
    dev = abs(q * 1.21 - 1.0)
    ok = dev < 0.01 and ident_worst < 1e-12
    assert record(2, ok,
                  f"limit {q:.6f} vs 1/1.21 (rel dev {dev:.2e}, tol 1%); "
                  f"telescoping identity dev {ident_worst:.2e} (tol 1e-12)")


def test_criterion_3_variance_formula_oracle(moments_and_clt):
    n, a = 10**4, 0.21
    h = float(n) ** -a
    # hand-written leading-order constants, independent of asymptotics.py
    targets = {
        "plain-average": PHI0 * gaussian_roughness(1) / ((1 + a) * n * h),
        "variance-optimal": (1 - a) * PHI0 * gaussian_roughness(1) / (n * h),
    }
    ratios = {}
    for label, target in targets.items():
        m = moments_and_clt[f"moments-vs-exact({label})"]
        (_, emp_var), (_, exact_var) = m["empirical"], m["exact"]
        ratios[label] = emp_var / target
        print(f"  {label}: empirical/leading = {emp_var / target:.3f}, "
              f"exact-finite-n/leading = {exact_var / target:.3f}, "
              f"empirical/exact = {emp_var / exact_var:.3f}")
    ok = all(abs(r - 1.0) < 0.10 for r in ratios.values())
    assert record(3, ok,
                  "empirical variance within 10% of the leading constants: "
                  + ", ".join(f"{k} ratio {v:.3f}" for k, v in ratios.items()))


def test_criterion_4_bias_formula_oracle():
    ratio = measure(checks.bias_oracle)["bias-oracle"]
    assert record(4, abs(ratio - 1.0) < 0.15,
                  f"empirical/leading bias ratio {ratio:.3f} (tol 15%)")


def test_criterion_5_clt_sup_cdf_distance(moments_and_clt):
    report = moments_and_clt["clt-gate"]
    assert record(5, report.passed,
                  f"sup-CDF distance {report.distance:.4f} vs threshold "
                  f"{report.threshold:.4f} (sample mean {report.sample_mean:+.3f}, "
                  f"std {report.sample_std:.3f})")


def _deviations(tables):
    return [(v.row, v.d_pp, v.d_len)
            for rows in tables.values() for v in checks.reference_deviations(rows)]


def _print_worst(rows, k=6):
    print("  worst coverage deviations:")
    for row, d_pp, _ in sorted(rows, key=lambda r: -abs(r[1]))[:k]:
        cell = row.cell
        print(f"    T{row.table} x={cell.x} a={cell.a} n={cell.n} {cell.estimator}: "
              f"{100 * row.result.empirical_level:.2f}% vs ref, diff {d_pp:+.2f} pp")
    print("  worst length deviations:")
    for row, _, d_len in sorted(rows, key=lambda r: -abs(r[2]))[:k]:
        cell = row.cell
        print(f"    T{row.table} x={cell.x} a={cell.a} n={cell.n} {cell.estimator}: "
              f"{row.result.avg_length:.4f} vs ref, diff {100 * d_len:+.2f} %")


def test_criterion_6_table_reproduction_full(full_tables):
    rows = _deviations(full_tables)
    worst_pp = max(abs(d) for _, d, _ in rows)
    worst_len = max(abs(d) for _, _, d in rows)
    ros = [abs(d) for row, d, _ in rows if row.cell.estimator == mc.ROSENBLATT]
    rec = [abs(d) for row, d, _ in rows if row.cell.estimator == mc.RECURSIVE]
    print(f"  max |coverage dev|: all {worst_pp:.2f} pp "
          f"(baseline-only {max(ros):.2f} pp, recursive-only {max(rec):.2f} pp)")
    print(f"  max |length dev|: {100 * worst_len:.2f} %")
    _print_worst(rows)
    ok = worst_pp <= 1.5 and worst_len <= 0.03
    assert record("6 (full, N=5000)", ok,
                  f"per-cell coverage within 1.5 pp (worst {worst_pp:.2f}) and "
                  f"length within 3% (worst {100 * worst_len:.2f}%)")


def test_criterion_6_table_reproduction_fast(fast_tables):
    rows = _deviations(fast_tables)
    worst_pp = max(abs(d) for _, d, _ in rows)
    _print_worst(rows, k=4)
    assert record("6 (fast, N=1000)", worst_pp <= 3.0,
                  f"per-cell coverage within 3 pp (worst {worst_pp:.2f})")


# SHA-256 of each table's CSV data rows at seed 42 and 1000 replications; a
# change that claims not to move any output must leave these unchanged
TABLE_DIGESTS = {
    1: "6421730929d0fa61a9e5593be149c24090eb6f5134bbc468fd0f464e33d20b46",
    2: "70f40b7fad0b68bbbdd0c5cd73e1bbb2869c47c091158e39e72cc0a223459f1c",
    3: "65b1751e40598bba9600b60b4dc2f9afb0d5b9751a120eee8e671bc14870c133",
    4: "c4f0d3b52554bd248bc047f4ea1ee652dd64413b8c619b00a43fd73c83b171e0",
}


@pytest.mark.parametrize("table", [1, 2, 3, 4])
def test_table_csv_rows_are_byte_identical(fast_tables, table):
    text = mc.format_report(fast_tables[table], {"replications": 1000, "seed": 42})
    # the `#` header is excluded: in `sakde table` output it carries the
    # package version, which moves with every release
    rows = "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("#"))
    assert hashlib.sha256(rows.encode()).hexdigest() == TABLE_DIGESTS[table]


def test_criterion_6_qualitative_orderings(full_tables):
    length_violations = []
    coverage_violations = []
    for t, rows in full_tables.items():
        by_cell = {}
        for row in rows:
            cfg = row.cell
            by_cell.setdefault((cfg.x, cfg.a, cfg.n), {})[cfg.estimator] = row.result
        for cell, res in by_cell.items():
            ros, rec = res[mc.ROSENBLATT], res[mc.RECURSIVE]
            if not rec.avg_length < ros.avg_length:
                length_violations.append((t, cell))
            if t in (1, 2) and not rec.empirical_level >= ros.empirical_level:
                coverage_violations.append((t, cell))
    print(f"  length ordering violations: {length_violations}")
    print(f"  coverage ordering violations (tables 1-2): {coverage_violations}")
    ok = not length_violations and not coverage_violations
    assert record("6 (orderings)", ok,
                  f"recursive-shorter-length holds in {'all' if not length_violations else 'NOT all'} "
                  f"cells; recursive-covers-at-least-as-much holds in "
                  f"{'all' if not coverage_violations else 'NOT all'} table 1-2 cells")


def test_criterion_7_closed_form_constants():
    values = measure(checks.efficiency_ratio, checks.ci_constant_minimum)
    worst_comp = values["efficiency-ratio"]["composition_dev"]
    rhos = values["efficiency-ratio"]["rhos"]
    amin = int(np.argmin(rhos))
    shape_ok = bool(np.all(rhos < 1.0)) and 0 < amin < 49 and rhos[-1] > rhos[amin]

    calib = values["ci-constant-minimum"]
    min_dev = calib["minimum_dev"]
    strict = calib["off_grid_min"] > calib["c_star"] + 1e-9 and min_dev < 1e-12

    ok = worst_comp < 1e-10 and shape_ok and strict
    assert record(7, ok,
                  f"efficiency-ratio composition dev {worst_comp:.1e} (tol 1e-10); "
                  f"rho(d) < 1 with interior argmin d={amin + 1}; "
                  f"calibration minimum sqrt(1-ad) dev {min_dev:.1e}, strict on grid")


def test_criterion_8_mse_bandwidth_first_order_condition():
    ok = True
    details = []
    for d, (base, up, dn) in measure(checks.mse_first_order_condition)[
            "mse-first-order-condition"].items():
        ok = ok and up > base and dn > base
        details.append(f"d={d}: +1% gives {up / base - 1:+.2e}, -1% gives {dn / base - 1:+.2e}")
    assert record(8, ok, "; ".join(details))


def test_criterion_9_determinism_across_jobs(tmp_path):
    outputs = []
    for jobs in ("1", "2"):
        for repeat in range(2):
            path = tmp_path / f"t1-j{jobs}-{repeat}.csv"
            code = cli_main(["table", "1", "--seed", "42", "--reps", "200",
                             "--jobs", jobs, "--out", str(path)])
            assert code == 0
            outputs.append(path.read_bytes())
    ok = all(b == outputs[0] for b in outputs)
    assert record(9, ok,
                  f"{len(outputs)} table runs (jobs in {{1,2}}, repeated) produced "
                  f"{'identical' if ok else 'DIFFERING'} bytes")
