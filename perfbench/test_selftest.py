"""Self-test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import sys

import pytest

import run
import worker

sys.path.insert(0, str(run.ROOT / "src"))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Self times of all spans partition the root span, so their sum may differ
# from the wall time measured around it only by the clock reads in between.
SELF_SUM_TOL = 0.01


@pytest.fixture(scope="module", params=["coverage", "stream", "check"])
def passes(request):
    untraced, traced = run.measure(request.param, seed=7, seconds=0.0, trace=1, size="tiny")[1:]
    return request.param, untraced, traced


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(passes, trace):
    _, untraced, traced = passes
    metrics, attempted, _ = run.summarize([], untraced, traced, SPEC, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert attempted >= 1
    assert metrics == {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                       for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())


def test_self_times_sum_to_traced_wall(passes):
    _, _, traced = passes
    for report in traced:
        assert report["self_sum_s"] == pytest.approx(report["wall_s"], rel=SELF_SUM_TOL)


def test_traced_outputs_equal_untraced(passes):
    workload, untraced, traced = passes
    if workload == "coverage":
        assert untraced[0]["csv_sha256"] == traced[0]["csv_sha256"]
        assert len(untraced[0]["csv_sha256"]) == 2
    if workload == "stream":
        assert untraced[0]["sup_gap"] == traced[0]["sup_gap"]
    assert untraced[0]["failures"] == traced[0]["failures"] == []


@pytest.mark.parametrize("line, counted", [
    ("[FAIL] clt-gate: sup-CDF distance 0.0409 vs threshold 0.0364", False),
    ("[FAIL] clt-gate: sup-CDF distance 0.0700 vs threshold 0.0364", True),
    ("[FAIL] bias-oracle: empirical/leading bias ratio 0.700", True),
    ("[PASS] bias-oracle: empirical/leading bias ratio 0.914", False),
])
def test_check_verdicts(line, counted):
    check = worker.Check(seed=7, size="tiny", workdir=None)
    check.rc, check.text = 1 if line.startswith("[FAIL]") else 0, line + "\n"
    checks = worker.Checks()
    report = {}
    check.verify(checks, report)
    assert checks.failures == ([line] if counted else [])
    assert report["program_failed"] == ([line] if line.startswith("[FAIL]") else [])
