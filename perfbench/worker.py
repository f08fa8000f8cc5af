"""One measured pass of one workload, in a fresh process.

Usage: python3 worker.py '<json config>'

The config names the workload, seed, size, whether to trace, the repository
root and ``spawned_at`` (the parent's CLOCK_MONOTONIC reading when it started
this process, so set-up includes interpreter start and imports).  The last
line of standard output is one JSON object with the pass's timings, output
checks and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

# Replications per table cell.  Table 1 runs at 1000 because the baseline
# gate below, the one `sakde check full` applies, is calibrated there; table 4
# runs at 500 so that a pass takes ~5 s and a 40 s run holds ~7 passes.
COVERAGE_REPS = {"full": {1: 1000, 4: 500}, "tiny": {1: 40, 4: 40}}
# Stream lengths: (m = 100, d = 1) and (m = 10^4, d = 2).  At m = 10^4 the
# closed forms build one chunk of n * m * d * 8 bytes (164 MB at n = 1024).
STREAM_N = {"full": (10000, 1024), "tiny": (300, 32)}
CHECK_SUITE = {"full": "full", "tiny": "fast"}
BASELINE_GATE_PP = 3.0
BASELINE_GATE_REPS = 1000
EXACT_TOL = 1e-12
# `check full`'s clt-gate is a Kolmogorov-Smirnov test at the 1 % level
# (mc.KS_1PCT), so correct code fails it on a few seeds in a hundred.  The
# benchmark runs it at many seeds, so it gates the distance at the Kolmogorov
# critical value for level 1e-6 instead; the program's verdict is recorded.
KS_LEVEL = 1e-6
KS_CRITICAL = math.sqrt(math.log(2.0 / KS_LEVEL) / 2.0)
CLT_VERDICT = re.compile(r"\[FAIL\] clt-gate: sup-CDF distance ([0-9.]+) vs threshold ([0-9.]+)$")


# The host's speed drifts by tens of percent within seconds, so untraced
# passes also time a short fixed loop every PROBE_INTERVAL_S (and a few times
# before and after the pass) to express the pass in multiples of it.
PROBE_INTERVAL_S = 0.25
BOUNDARY_PROBES = 2
PROBE_BUFFER_BYTES = 4 << 20


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_loop(buf):
    """Time a fixed mix of interpreter work, small numpy calls, sweeps over
    ``buf`` and Philox generator construction (a few ms).

    It does not touch sakde, so its duration tracks only the speed the host
    gives this process at the moment.
    """
    import numpy as np
    start = time.perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    small = np.linspace(0.0, 1.0, 8)
    for _ in range(300):
        small = np.exp(-0.5 * small * small)
    for _ in range(4):
        np.multiply(buf, 1.0, out=buf)
    for key in range(40):
        np.random.Generator(np.random.Philox(key=key)).standard_normal(200)
    return time.perf_counter() - start


class SpeedProbe:
    """Samples :func:`reference_loop` from a SIGALRM handler during a pass."""

    def __init__(self):
        import numpy as np
        self.buf = np.ones(PROBE_BUFFER_BYTES // 8)
        self.samples = [reference_loop(self.buf) for _ in range(BOUNDARY_PROBES)]
        self.during_s = 0.0

    def _sample(self, signum, frame):
        self.samples.append(reference_loop(self.buf))
        self.during_s += self.samples[-1]

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples += [reference_loop(self.buf) for _ in range(BOUNDARY_PROBES)]


def _quiet(fn, *args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = fn(*args)
    return rc, buf.getvalue()


class Checks:
    """Counts checked outputs; each failed one is an operation failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def __call__(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# coverage: `sakde table 1` and `sakde table 4`, in-process, --jobs 1
# ---------------------------------------------------------------------------

class Coverage:
    def __init__(self, seed, size, workdir):
        from sakde import mc, reference
        self.mc, self.reference = mc, reference
        self.argv = {
            t: ["table", str(t), "--reps", str(reps), "--jobs", "1",
                "--seed", str(seed), "--out", str(workdir / f"table-{t}.csv")]
            for t, reps in COVERAGE_REPS[size].items()
        }

    def run(self, main):
        parts = {}
        for t, argv in self.argv.items():
            start = time.perf_counter()
            _quiet(main, argv)
            parts[f"table{t}_s"] = time.perf_counter() - start
        return parts

    def verify(self, check, report):
        for t, argv in self.argv.items():
            data = Path(argv[-1]).read_bytes()
            report.setdefault("csv_sha256", {})[f"table-{t}"] = hashlib.sha256(data).hexdigest()
            lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
            rows = list(csv.DictReader(lines))
            layout = self.mc.table_layout(t)
            grid = len(layout.xs) * len(layout.a_values) * len(layout.ns) * 2
            check(len(rows) == grid, f"table {t}: {len(rows)} rows, grid has {grid}")
            for row in rows:
                check(self._row_ok(t, row), f"table {t} row {row}")

    def _row_ok(self, t, row):
        p, err = float(row["empirical_level"]), float(row["stderr"])
        n_reps = int(row["N"])
        ok = (0.0 <= p <= 1.0
              and math.isclose(err, math.sqrt(p * (1.0 - p) / n_reps), rel_tol=1e-5, abs_tol=1e-9)
              and float(row["avg_length"]) > 0.0)
        if t == 1 and row["estimator"] == self.mc.ROSENBLATT and n_reps >= BASELINE_GATE_REPS:
            x = tuple(float(v) for v in row["x"].split(";"))
            ref, _ = self.reference.reference_cell(t, x, float(row["a"]), int(row["n"]),
                                                   row["estimator"])
            ok = ok and abs(100.0 * p - ref) < BASELINE_GATE_PP
        return ok


# ---------------------------------------------------------------------------
# stream: RecursiveEstimator and the closed forms on a generated stream
# ---------------------------------------------------------------------------

class Stream:
    def __init__(self, seed, size, workdir):
        import numpy as np
        from sakde import estimators, kernels, sequences
        self.np, self.est = np, estimators
        n1, n2 = STREAM_N[size]
        rng = np.random.default_rng(seed)
        self.x1 = rng.standard_normal((n1, 1))
        self.x2 = rng.standard_normal((n2, 2)) @ np.array([[1.0, 0.5], [0.0, 1.0]])
        self.grid1 = np.linspace(-3.0, 3.0, 100)[:, None]
        axis = np.linspace(-3.0, 3.0, 100)
        self.grid2 = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        self.k1, self.k2 = kernels.gaussian_kernel(1), kernels.gaussian_kernel(2)
        self.bw1, self.bw2 = sequences.bandwidth_plan(1.0, 0.21), sequences.bandwidth_plan(1.0, 0.17)
        self.step1 = sequences.stepsize_plan(1.0 - 0.21)
        self.step2 = sequences.stepsize_plan(1.0 - 0.17 * 2)
        self.weights = sequences.SequencePlan(1.0, -0.21 / 2.0)
        self.step_w = sequences.stepsize_from_weights(self.weights)

    def run(self, main=None):
        est, clock = self.est, time.perf_counter
        t0 = clock()
        e1 = est.RecursiveEstimator(self.k1, self.step1, self.bw1, self.grid1)
        e1.update_many(self.x1)
        ew = est.RecursiveEstimator(self.k1, self.step_w, self.bw1, self.grid1)
        ew.update_many(self.x1)
        t1 = clock()
        e2 = est.RecursiveEstimator(self.k2, self.step2, self.bw2, self.grid2)
        e2.update_many(self.x2)
        t2 = clock()
        self.out = {
            "stream1": e1.values, "stream_w": ew.values, "stream2": e2.values,
            "closed1": est.recursive_at_points(self.k1, self.step1, self.bw1, self.x1, self.grid1),
            "closed_w": est.weighted_closed_form(self.k1, self.weights, self.bw1, self.x1,
                                                 self.grid1),
            "closed2": est.recursive_at_points(self.k2, self.step2, self.bw2, self.x2, self.grid2),
            "rosenblatt2": est.RosenblattEstimator(2, self.bw2, self.x2).eval(self.k2, self.grid2),
        }
        t3 = clock()
        return {"obs_per_s.m100": 2 * len(self.x1) / (t1 - t0),
                "obs_per_s.m10000": len(self.x2) / (t2 - t1),
                "closed_form_s": t3 - t2}

    def verify(self, check, report):
        np, out = self.np, self.out
        for a, b in (("stream1", "closed1"), ("stream_w", "closed_w"), ("stream2", "closed2")):
            gap = float(np.max(np.abs(out[a] - out[b])))
            report.setdefault("sup_gap", {})[f"{a}-{b}"] = gap
            check(gap < EXACT_TOL, f"sup |{a} - {b}| = {gap:.3e}")
        ros = out["rosenblatt2"]
        check(bool(np.all(np.isfinite(ros)) and np.all(ros >= 0.0)),
              "rosenblatt estimate not finite and nonnegative")


# ---------------------------------------------------------------------------
# check: `sakde check full --jobs 1`
# ---------------------------------------------------------------------------

class Check:
    def __init__(self, seed, size, workdir):
        self.argv = ["check", CHECK_SUITE[size], "--jobs", "1", "--seed", str(seed)]

    def run(self, main):
        self.rc, self.text = _quiet(main, self.argv)
        return {}

    def verify(self, check, report):
        verdicts = [ln for ln in self.text.splitlines() if ln.startswith(("[PASS]", "[FAIL]"))]
        report["program_failed"] = [v for v in verdicts if v.startswith("[FAIL]")]
        for line in verdicts:
            check(line.startswith("[PASS]") or self._clt_within_band(line), line)
        check(bool(verdicts) and (self.rc == 0) == all(v.startswith("[PASS]") for v in verdicts),
              f"exit code {self.rc} disagrees with the verdicts")

    @staticmethod
    def _clt_within_band(line):
        """Whether a failed clt-gate verdict's distance is within the 1e-6 band."""
        from sakde import mc
        match = CLT_VERDICT.match(line)
        if match is None:
            return False
        distance, threshold = float(match[1]), float(match[2])
        return distance < threshold * KS_CRITICAL / mc.KS_1PCT


WORKLOADS = {"coverage": Coverage, "stream": Stream, "check": Check}


def _versions():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_pass(cfg):
    root = Path(cfg["root"])
    sys.path.insert(0, str(root / "src"))
    import sakde
    if Path(sakde.__file__).resolve().parent != (root / "src" / "sakde").resolve():
        raise SystemExit(f"imported sakde from {sakde.__file__}, not from the checkout")
    tracer = None
    if cfg["traced"]:
        from spans import ROOT, Tracer
        tracer = Tracer()
        tracer.install()
    workdir = Path(cfg["workdir"])
    workload = WORKLOADS[cfg["workload"]](cfg["seed"], cfg["size"], workdir)
    setup_s = monotonic() - cfg["spawned_at"]
    if cfg.get("setup_only"):
        return {"setup_s": setup_s}

    from sakde import cli
    main, run = cli.main, workload.run
    if tracer is not None:
        main = tracer.wrap("cli", cli.main)
        run = tracer.wrap(ROOT, workload.run)
    probe = SpeedProbe()
    with probe if tracer is None else contextlib.nullcontext():
        start = time.perf_counter()
        parts = run(main)
        wall_s = time.perf_counter() - start - probe.during_s

    report = {"setup_s": setup_s, "wall_s": wall_s, "parts": parts,
              "reference_s": statistics.median(probe.samples),
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "versions": _versions()}
    check = Checks()
    workload.verify(check, report)
    report["attempted"], report["failures"] = check.attempted, check.failures
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["self_sum_s"] = sum(tracer.self_times().values())
        tracer.dump(workdir / f"spans-{cfg['workload']}.json")
    return report


if __name__ == "__main__":
    result = run_pass(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
