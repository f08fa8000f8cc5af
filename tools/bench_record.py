"""Record one point of the performance trajectory as ``BENCH_<label>.json``.

Usage (from the repository root):

    python3 tools/bench_record.py --label pr7 [--root PATH] [--parent PATH]

For the checkout at ``--root`` (default: this repository) it runs
``perfbench/run.py`` twice per workload named in BENCHMARK.json, for the run
length BENCHMARK.json sets and at a fixed seed: with ``--trace 0`` for the
end-to-end metrics and with ``--trace 1`` for the per-layer ones.  It then
times one run of the tier-1 suite and counts the lines of ``src/`` and
``tests/``.  The file is written to the root of this repository and holds
each workload's untraced result and info lines with the traced run's metrics
under ``traced``, the machine line, the tier-1 wall time with pytest's
summary line, and the line counts.  Its ``source`` field names the tree
measured: the ``src/sakde`` digest, the checkout's commit and whether ``src/``
or ``tests/`` differ from it.  The tier-1 time and the line counts are
recorded, not bounded.  Runs are sequential; nothing else should load the
machine.

Records compare only within one session: the host's speed drifts between
sessions by more than the reference loop absorbs, so ``wall_ref`` in files
taken at different times can differ with no change to the code.  To compare a
change with its parent, give ``--parent`` an exported copy of the parent
(``git archive``).  The two trees then run interleaved: each workload at each
trace level runs on both before the next starts, and the tree that runs first
alternates between workloads and between trace levels, so neither tree takes
the quieter half of the session.  That writes ``BENCH_<label>-parent.json``
and ``BENCH_<label>.json``, each with a ``pair`` field naming the tree that
ran first at every step.
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


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
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


def source_state(root: Path, src_sha256: str) -> dict:
    """The tree a record measured: the digest of ``src/sakde`` that perfbench
    reports, the checkout's commit (None without a ``.git``, as in an exported
    copy) and whether ``src/`` or ``tests/`` differ from that commit, so an
    uncommitted change reads as its parent commit plus ``dirty``."""
    commit = dirty = None
    if (root / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                                  text=True, check=True).stdout.strip()
        commit = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--", "src", "tests"))
    return {"src_sha256": src_sha256, "commit": commit, "dirty": dirty}


def line_counts(directory: Path) -> dict:
    files = sorted(directory.glob("*.py"))
    per_file = {p.name: len(p.read_text(encoding="utf-8").splitlines()) for p in files}
    return {"total": sum(per_file.values()), "files": per_file}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=HERE)
    parser.add_argument("--parent", type=Path, default=None)
    args = parser.parse_args(argv)
    trees = {args.label: args.root.resolve()}
    if args.parent is not None:
        trees = {f"{args.label}-parent": args.parent.resolve(), **trees}
    spec = json.loads((trees[args.label] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = {label: {} for label in trees}
    first = {}
    for step, name in enumerate(w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            # each trace level alternates too: trace 0 starts with one tree on
            # even workloads and with the other on odd ones
            order = list(trees)[::-1 if (step + trace) % 2 else 1]
            first.setdefault(name, {})[f"trace{trace}"] = order[0]
            for label in order:
                run = run_workload(trees[label], name, SEED, seconds, trace)
                if trace:
                    workloads[label][name]["traced"] = run["result"]["metrics"]
                else:
                    workloads[label][name] = run
    tier1 = {label: run_tier1(trees[label]) for label in trees}
    for label, root in trees.items():
        machine = next(iter(workloads[label].values()))["info"]["machine"]
        record = {
            "label": label, "seed": SEED, "seconds": seconds,
            "source": source_state(root, machine["src_sha256"]),
            "machine": machine,
            "pair": {"labels": list(trees), "first": first} if len(trees) > 1 else None,
            "workloads": workloads[label],
            "tier1": tier1[label],
            "src_lines": line_counts(root / "src" / "sakde"),
            "tests_lines": line_counts(root / "tests"),
        }
        out = HERE / f"BENCH_{label}.json"
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        summary = {name: w["result"]["metrics"]["wall_ref"]["value"]
                   for name, w in workloads[label].items()}
        print(f"wrote {out.name}: wall_ref {summary}, tier-1 {record['tier1']['wall_s']} s, "
              f"src {record['src_lines']['total']} lines, "
              f"tests {record['tests_lines']['total']} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
