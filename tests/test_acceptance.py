"""Acceptance criteria, one test per criterion.

Each test prints one `criterion N: PASS/FAIL` line (visible with `pytest -s`
or in the failure report).  Criteria 1, 2, 4, 5, 7 and 8 assert verdicts of
`sakde check full` at seed 42, whose gates are written only in `sakde.checks`,
and print each check's detail.  Criteria 3 and 6 compare Monte Carlo output
against leading-order constants / published benchmark digits at sample sizes
where the exact finite-n moments (computed in closed form alongside) sit
outside the stated tolerances; those tests carry the exact-oracle diagnostics
in their output.
"""

import hashlib
import json
import math

import pytest

from sakde import checks, mc
from sakde.cli import main as cli_main
from sakde.kernels import gaussian_roughness

SEED = 42
PHI0 = 1 / math.sqrt(2 * math.pi)


def record(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def outcomes():
    """Every outcome of `sakde check full --seed 42 --jobs 1`, by name: one run
    of the suite serves every criterion that reads it."""
    return {o.name: o for check in checks.FULL for o in check(SEED, 1)}


def verdict(num, outcomes, *names):
    """Record criterion ``num``: it holds when every named check passed."""
    picked = [outcomes[name] for name in names]
    return record(num, all(o.passed for o in picked),
                  "; ".join(f"{o.name}: {o.detail}" for o in picked))


@pytest.fixture(scope="module")
def full_tables():
    return {t: mc.run_table(t, seed=SEED, replications=5000, jobs=2) for t in (1, 2, 3, 4)}


@pytest.fixture(scope="module")
def fast_tables():
    return {t: mc.run_table(t, seed=SEED, replications=1000, jobs=2) for t in (1, 2, 3, 4)}


def test_criterion_1_recursion_equals_closed_form(outcomes):
    assert verdict(1, outcomes, "recursion-equivalence")


def test_criterion_2_streaming_limit_evaluation(outcomes):
    assert verdict(2, outcomes, "lemma-limit", "lemma-identity")


def test_criterion_3_variance_formula_oracle(outcomes):
    n, a = 10**4, 0.21
    h = float(n) ** -a
    # hand-written leading-order constants, independent of asymptotics.py
    targets = {
        "plain-average": PHI0 * gaussian_roughness(1) / ((1 + a) * n * h),
        "variance-optimal": (1 - a) * PHI0 * gaussian_roughness(1) / (n * h),
    }
    ratios = {}
    for label, target in targets.items():
        m = outcomes[f"moments-vs-exact({label})"].value
        emp_var, exact_var = m["variance"], m["exact_variance"]
        ratios[label] = emp_var / target
        print(f"  {label}: empirical/leading = {emp_var / target:.3f}, "
              f"exact-finite-n/leading = {exact_var / target:.3f}, "
              f"empirical/exact = {emp_var / exact_var:.3f}")
    ok = all(abs(r - 1.0) < 0.10 for r in ratios.values())
    assert record(3, ok,
                  "empirical variance within 10% of the leading constants: "
                  + ", ".join(f"{k} ratio {v:.3f}" for k, v in ratios.items()))


def test_criterion_4_bias_formula_oracle(outcomes):
    assert verdict(4, outcomes, "bias-oracle")


def test_criterion_5_clt_sup_cdf_distance(outcomes):
    assert verdict(5, outcomes, "clt-gate")


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


def test_criterion_7_closed_form_constants(outcomes):
    assert verdict(7, outcomes, "efficiency-ratio", "ci-constant-minimum")


def test_criterion_8_mse_bandwidth_first_order_condition(outcomes):
    assert verdict(8, outcomes, "mse-first-order-condition")


def test_every_check_value_round_trips_through_json(outcomes):
    for o in outcomes.values():
        assert all(type(v) is float for v in o.value.values()), o.name
        assert json.loads(json.dumps(o.value)) == o.value, o.name


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
