"""Record one point of the performance trajectory as ``BENCH_<label>.json``.

Usage (from the repository root):

    python3 tools/bench_record.py --label pr7 [--root PATH]

For the checkout at ``--root`` (default: this repository) it runs
``perfbench/run.py --trace 0`` once per workload named in BENCHMARK.json, for
the run length BENCHMARK.json sets and at a fixed seed, times one run of the
tier-1 suite and counts the lines of ``src/`` and ``tests/``.  The file is
written to the root of this repository and holds each workload's result and
info lines, the machine line, the tier-1 wall time with pytest's summary
line, and the line counts.  The tier-1 time and the line counts are recorded,
not bounded.  Runs are sequential; nothing else should load the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SEED = 1
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def run_workload(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    info, result = proc.stdout.strip().splitlines()[-2:]
    return {"info": json.loads(info), "result": json.loads(result)}


def run_tier1(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env,
                          stdout=subprocess.PIPE, text=True)
    wall_s = time.perf_counter() - start
    return {"wall_s": round(wall_s, 2), "summary": proc.stdout.strip().splitlines()[-1],
            "command": " ".join(["python", *TIER1])}


def line_counts(directory: Path) -> dict:
    files = sorted(directory.glob("*.py"))
    per_file = {p.name: len(p.read_text(encoding="utf-8").splitlines()) for p in files}
    return {"total": sum(per_file.values()), "files": per_file}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=HERE)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = {w["name"]: run_workload(root, w["name"], SEED, seconds)
                 for w in spec["workloads"]}
    record = {
        "label": args.label, "seed": SEED, "seconds": seconds,
        "machine": next(iter(workloads.values()))["info"]["machine"],
        "workloads": workloads,
        "tier1": run_tier1(root),
        "src_lines": line_counts(root / "src" / "sakde"),
        "tests_lines": line_counts(root / "tests"),
    }
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    summary = {name: w["result"]["metrics"]["wall_ref"]["value"] for name, w in workloads.items()}
    print(f"wrote {out.name}: wall_ref {summary}, tier-1 {record['tier1']['wall_s']} s, "
          f"src {record['src_lines']['total']} lines, "
          f"tests {record['tests_lines']['total']} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
