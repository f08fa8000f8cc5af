"""sakde benchmark: closed-loop workloads, each pass in a fresh process.

Usage (from the repository root):

    python3 perfbench/run.py --workload coverage|stream|check \
        --seed N --seconds S --trace 0|1

One caller makes sequential calls: passes run one after another, each in a
new worker process with BLAS/OpenMP threads pinned to 1, until the next pass
would overrun ``--seconds`` (at least one pass of each kind always runs).
With ``--trace 0`` the last line of standard output reports the end-to-end
metrics named in BENCHMARK.json; with ``--trace 1`` untraced and traced
passes alternate and it reports the per-layer metrics.  The line before it
records the machine, versions, CSV digests and any failed checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_work"
BUDGET_S = 170.0
# set-up-only workers per untraced run, on top of the one set-up each pass pays
SETUP_SAMPLES = 4
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# End-to-end figures of single workloads; reported per layer (see README).
FIGURES = ("table1_s", "table4_s", "obs_per_s.m100", "obs_per_s.m10000", "closed_form_s")


def spawn(workload, seed, size, traced, deadline, setup_only=False):
    """Run one pass in a fresh worker process and return its report."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cfg = {"workload": workload, "seed": seed, "size": size, "traced": traced,
           "setup_only": setup_only,
           "root": str(ROOT), "workdir": str(WORKDIR),
           "spawned_at": time.clock_gettime(time.CLOCK_MONOTONIC)}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                          env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, size="full"):
    """Run passes for about ``seconds``.

    Returns the set-up times of extra set-up-only workers, and the untraced
    and traced pass reports.
    """
    WORKDIR.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + BUDGET_S
    setups = [] if trace else [spawn(workload, seed, size, False, deadline, setup_only=True)
                               ["setup_s"] for _ in range(SETUP_SAMPLES)]
    kinds = [False, True] if trace else [False]
    runs = {False: [], True: []}
    cost = {False: 0.0, True: 0.0}
    turn = 0
    while True:
        traced = kinds[turn % len(kinds)]
        elapsed = time.monotonic() - start
        if all(runs[k] for k in kinds) and elapsed + cost[traced] > seconds:
            break
        t0 = time.monotonic()
        runs[traced].append(spawn(workload, seed, size, traced, deadline))
        cost[traced] = max(cost[traced], time.monotonic() - t0)
        turn += 1
    return setups, runs[False], runs[True]


def median_of(reports, key):
    return statistics.median(r[key] for r in reports)


def summarize(setups, untraced, traced, spec, trace):
    """Metrics for the final line, plus the attempted/failed operation counts."""
    everything = untraced + traced
    attempted = sum(r["attempted"] for r in everything)
    failures = [f for r in everything for f in r["failures"]]
    # every pass runs the same inputs, so every pass must write the same CSVs
    digests = [json.dumps(r.get("csv_sha256"), sort_keys=True) for r in everything]
    attempted += len(digests) - 1
    failures += [f"pass {i} CSV differs from pass 0" for i, d in enumerate(digests)
                 if d != digests[0]]
    if not trace:
        metrics = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in untraced]),
            "wall_ref": statistics.median(r["wall_s"] / r["reference_s"] for r in untraced),
            "peak_rss_mb": median_of(untraced, "peak_rss_kb") / 1024.0,
        }
        wanted = spec["end_to_end"]
    else:
        metrics = {name: 0.0 for name in FIGURES}
        metrics["wall_s"] = median_of(untraced, "wall_s")
        metrics["reference_s"] = median_of(untraced, "reference_s")
        for name in untraced[0]["parts"]:
            metrics[name] = statistics.median(r["parts"][name] for r in untraced)
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
        metrics["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
        metrics["error_rate"] = len(failures) / attempted
        wanted = spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    return out, attempted, failures


def machine_info(untraced):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sakde").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"cpu": cpu, "nproc": os.cpu_count(), "platform": platform.platform(),
            "threads": {var: "1" for var in THREAD_VARS},
            "git_commit": commit, "src_sha256": src.hexdigest(),
            **untraced[0]["versions"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("coverage", "stream", "check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sakde" / "__init__.py").is_file():
        print(f"no sakde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    setups, untraced, traced = measure(args.workload, args.seed, args.seconds, args.trace)
    metrics, attempted, failures = summarize(setups, untraced, traced, spec, args.trace)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "passes": {"untraced": len(untraced), "traced": len(traced)},
            "machine": machine_info(untraced),
            "csv_sha256": untraced[0].get("csv_sha256"),
            "program_failed": sorted({v for r in untraced + traced
                                      for v in r.get("program_failed", [])}),
            "failures": failures[:10]}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    (WORKDIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result, "setups": setups,
                    "passes": untraced + traced}, indent=1))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
