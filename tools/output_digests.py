"""Print one SHA-256 per program output, to show that a change moves no output.

Usage (from the repository root):

    python3 tools/output_digests.py [--root PATH]

For the checkout at ``--root`` (default: this repository) it runs the CLI in
subprocesses with ``PYTHONPATH=<root>/src`` and prints ``<sha256>  <label>``
lines for:

- the CSV data rows (the ``#`` header carries the version and is left out) and
  the printed reference diff of ``sakde table N --reps 5000 --seed 42
  --jobs 2``, for N = 1..4;
- each cell of ``mc.run_table(N, 42, 5000, 1)``, for N = 1..4, run by a
  ``python -c`` snippet that prints its coverage as ``repr`` (full precision)
  and its average length at 12 significant digits (the CSV shows 6);
- the leading variance that each cell's intervals read, ``repr`` of
  ``cfg.leading_variance(cfg.model.pdf(cfg.x))`` (full precision) for every
  cell of ``mc.table_configs(N, 42, 5000)``, for N = 1..4, run by a ``python
  -c`` snippet, so an ulp move in the interval law shows even where no CSV
  byte moves;
- the stdout of ``sakde check full --seed 42 --jobs 1``;
- the ``value`` of each outcome of that suite, as ``json.dumps(value,
  sort_keys=True)`` (its floats at full precision; the printed lines show 2-3
  digits), from one run of ``checks.FULL`` by a ``python -c`` snippet, plus
  the exit status and stderr of that run;
- each estimate vector that ``check full``'s Monte Carlo cells read at seed
  42, at full precision (the printed lines show 3-4 decimals): the two moment
  cells and the CLT cell of ``checks.moments_and_clt`` and the cell of
  ``checks.bias_oracle``, recorded from their ``mc.estimates`` calls by a
  ``python -c`` snippet and printed as the shape and the SHA-256 of the
  vector's bytes;
- each estimate vector of table 4's cells at x = (0, 0) (every a, n and
  estimator: 24 cells) at seed 42 and 1000 replications, from one
  ``mc.estimates`` call run by a ``python -c`` snippet and printed as the
  shape and the SHA-256 of the vector's bytes, so the 2-d kernel sums are
  pinned at full precision (the table digests show them at 12 digits);
- the exact finite-n moments of each table model, ``repr`` of
  ``mc.exact_moments`` (full precision; ``check full`` prints 3-decimal ratios)
  over a fixed cell list, run by a ``python -c`` snippet: the table's points at
  its first ``a``, both estimators, n = 50, 200 and 10^4; ``check full``'s two
  moment cells (the origin, n = 10^4, a = 0.21, the plain-average and the
  variance-optimal gain) on the model; one weight-induced recursive cell and
  one cell with gains ``n^-0.7``;
- each query of a fixed list of in-domain ``sakde asymptotics`` calls: all
  eight queries, the four densities and the points 0, 0.5 and 1;
- each of a fixed list of ``sakde cell`` calls: the four densities and both
  estimators at the origin, ``--n 100 --reps 500 --seed 42``;
- the ``--help`` text of the top level, of ``table``, ``cell``, ``check`` and
  ``asymptotics``, and of each of the eight ``asymptotics`` queries;
- each of a fixed list of calls the CLI must reject with a usage error or a
  one-line exit (a seed outside [0, 2^64), a ``--reps`` that is no integer, a
  command or an ``asymptotics`` query given an argument it does not read, an
  argument before the command, a query missing a flag it requires, an n or a d
  beyond float range);
- the batch forms ``recursive_batch`` and ``rosenblatt_batch`` at one point,
  run by a ``python -c`` snippet per case on standard normal samples from
  ``default_rng(42)``: 1-d and 2-d blocks of table size (n = 50 and 200) and
  one 1-d sample of more than ``SCALAR_BUDGET`` scalars, printed as the shape
  and the SHA-256 of each vector's bytes;
- the raw draws of each table model: the first three replications at seed 42
  that ``mc.estimates`` draws for a cell at n = 50, 200 and 1025, recorded
  from ``sample_block`` by a ``python -c`` snippet and printed as the shape
  and the SHA-256 of each block's bytes, so a change to the sampler or to the
  layout of the replication streams shows at its source;
- the streaming estimator, run by ``python -c`` snippets at seed 42: the
  computation of the benchmark's ``stream`` workload (``update_many`` at
  m = 100 under a closed-form and a weight-induced stepsize, at m = 10^4 in
  2-d, and the three closed forms), ``recursive_at_points`` from ``f0 = 0.3``
  (at m = 100 under the workload's gains and under ``gamma_n = 0.5 / n``, and
  on the 2-d grid), ``recursive_at_points`` at the 2-d grid's
  points in a fixed permutation (so the general sum, not the grid path, is
  pinned at m = 10^4), a loop of one-step ``update`` calls, and one mixed
  sequence of call sizes.  Each snippet prints the shape and the
  SHA-256 of the bytes of each array it computes.

A digest covers the exit status and stderr as well as the output, so a query
that starts failing shows too.  To compare a change with its parent, export
the parent and diff two runs:

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/output_digests.py --root /tmp/parent > parent.txt
    python3 tools/output_digests.py > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
# written out, not read from mc.TABLE_MODELS: the tool also runs on older trees
# (an exported parent) that have no TABLE_MODELS
DENSITIES = ("gaussian", "mixture", "gaussian-2d", "mixture-2d")
POINTS = ("0", "0.5", "1")


def asymptotics_queries():
    """The fixed query list: every query inside the domain of its formulas."""
    yield from (f"rho --d {d}" for d in (1, 2, 3, 79))
    yield from (f"ci-constant --gamma0 {g} --a {a} --d {d}"
                for g, a, d in ((0.79, 0.21, 1), (1.0, 0.23, 1), (0.66, 0.17, 2)))
    yield from (f"regime --a {a} --alpha 1 --d {d}{gamma0}"
                for a, d in ((0.2, 1), (0.21, 1), (0.15, 2), (0.17, 2))
                for gamma0 in ("", " --gamma0 0.4"))
    for density in DENSITIES:
        dim = 2 if density.endswith("2d") else 1
        plan = f"--a {0.21 if dim == 1 else 0.17} --gamma0 0.79"
        yield f"mise-optimal --density {density}"
        for p in POINTS:
            at = f"--density {density} --x {','.join([p] * dim)}"
            yield f"bias {at} {plan} --n 100"
            yield f"variance {at} {plan} --n 100"
            yield f"clt {at} {plan} --c {'inf' if p == '1' else p}"
            if (density, p) != ("gaussian", "1"):  # the curvature of N(0, 1) vanishes at 1
                yield f"mse-optimal {at}"


def cell_calls():
    """The fixed ``sakde cell`` list: the one-row report of each density and estimator."""
    for density in DENSITIES:
        dim = 2 if density.endswith("2d") else 1
        for estimator in ("rosenblatt", "recursive"):
            yield (f"--density {density} --x {','.join(['0'] * dim)} "
                   f"--a {0.21 if dim == 1 else 0.17} --estimator {estimator} "
                   f"--n 100 --reps 500 --seed 42")


# Calls outside the CLI's domain: each must end in a usage error or a one-line
# exit, not a traceback.
REJECTED_CALLS = (
    "check fast --seed -1",
    "cell --density gaussian --x 0 --a 0.21 --estimator recursive --n 100 --reps 500 --seed -1",
    "asymptotics variance --density gaussian --x 0 --a 0.21 --gamma0 0.79 --n 100 --alpha 0.7",
    "asymptotics bias --density gaussian --x 0 --a 0.21 --gamma0 0.79",
    "table 1 --bogus",
    "cell --density gaussian --x 0 --a 0.21 --estimator recursive --n 100 --reps 500 --jobs 2",
    "check fast extra",
    "table 1 --reps many",
    "--bogus check fast",
    f"asymptotics variance --density gaussian --x 0 --a 0.21 --gamma0 0.79 --n 1{'0' * 400}",
    f"asymptotics rho --d 1{'0' * 400}",
)

# The commands and queries whose --help text is digested; the tool also runs on
# older trees, so the queries are written out, not read from cli.QUERIES.
HELP_CALLS = ("", "table", "cell", "check", "asymptotics", *(
    f"asymptotics {query}" for query in ("bias", "variance", "mse-optimal", "mise-optimal",
                                         "rho", "ci-constant", "clt", "regime")))


# The data and plans of the `stream` workload, at its full size and seed 42.
STREAM_SETUP = """
import hashlib
import numpy as np
from sakde.estimators import RecursiveEstimator, recursive_at_points, weighted_closed_form
from sakde.kernels import gaussian_kernel
from sakde.sequences import SequencePlan, bandwidth_plan, stepsize_from_weights, stepsize_plan
rng = np.random.default_rng(42)
x1 = rng.standard_normal((10000, 1))
x2 = rng.standard_normal((1024, 2)) @ np.array([[1.0, 0.5], [0.0, 1.0]])
grid1 = np.linspace(-3.0, 3.0, 100)[:, None]
axis = np.linspace(-3.0, 3.0, 100)
grid2 = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
k1, k2 = gaussian_kernel(1), gaussian_kernel(2)
bw1, bw2 = bandwidth_plan(1.0, 0.21), bandwidth_plan(1.0, 0.17)
step1, step2 = stepsize_plan(1.0 - 0.21), stepsize_plan(1.0 - 0.17 * 2)
weights = SequencePlan(1.0, -0.21 / 2.0)
step_w = stepsize_from_weights(weights)
def show(*arrays):
    for a in arrays:
        print(a.shape, hashlib.sha256(a.tobytes()).hexdigest())
def streamed(kern, step, bw, grid, x):
    est = RecursiveEstimator(kern, step, bw, grid)
    est.update_many(x)
    return est.values
"""

# The one-step loop runs 2053 steps; the mixed call sizes are those of the
# block-update tests.
STREAM_SNIPPETS = {
    "stream update_many m=100 closed-form gains": "show(streamed(k1, step1, bw1, grid1, x1))",
    "stream update_many m=100 weight-induced gains": "show(streamed(k1, step_w, bw1, grid1, x1))",
    "stream update_many m=10000 2-d": "show(streamed(k2, step2, bw2, grid2, x2))",
    "stream closed forms": """show(recursive_at_points(k1, step1, bw1, x1, grid1),
     weighted_closed_form(k1, weights, bw1, x1, grid1),
     recursive_at_points(k2, step2, bw2, x2, grid2))""",
    # a start f0 != 0 is carried by the run expansion's product of (1 - gamma)
    "stream closed forms from f0=0.3": """show(recursive_at_points(k1, step1, bw1, x1, grid1, f0=0.3),
     recursive_at_points(k1, stepsize_plan(0.5), bw1, x1, grid1, f0=0.3),
     recursive_at_points(k2, step2, bw2, x2, grid2, f0=0.3))""",
    # 7919 is prime to 10^4, so this is a permutation: points that are no
    # grid, on the general kernel sum at m = 10^4
    "stream closed form m=10000 2-d permuted grid":
        "show(recursive_at_points(k2, step2, bw2, x2, grid2[np.arange(10000) * 7919 % 10000]))",
    "stream one-step update loop": """for step in (step1, step_w):
    est = RecursiveEstimator(k1, step, bw1, grid1)
    for row in x1[:2053]:
        est.update(row)
    show(est.values)""",
    "stream mixed call sizes": """for step in (step1, step_w):
    est, lo = RecursiveEstimator(k1, step, bw1, grid1), 0
    for size in (1, 1023, None, 1025, None, 2):
        if size is None:
            est.update(x1[lo])
        else:
            est.update_many(x1[lo:lo + size])
        lo += size or 1
    show(est.values)""",
}


# The draws behind every Monte Carlo readout, for the model named in argv[1]:
# the blocks mc.estimates draws for three replications at seed 42.
DRAW_SNIPPET = """
import hashlib, sys
from sakde import mc
from sakde.densities import GaussianMixture
model, blocks, draw_block = mc.table_model(sys.argv[1]), [], GaussianMixture.sample_block
def recorded(self, *args):
    blocks.append(draw_block(self, *args))
    return blocks[-1]
GaussianMixture.sample_block = recorded
for n in (50, 200, 1025):
    mc.estimates(mc.CellConfig(model, (0.0,) * model.dim, n, 0.17, mc.ROSENBLATT, 3, 42))
for block in blocks:
    print(block.shape, hashlib.sha256(block.tobytes()).hexdigest())
"""


# The batch forms at one point, under the table protocol's plans, on standard
# normal samples (replications, n, d) from default_rng(42): argv[1] indexes
# BATCH_CASES.  The last case holds 3 * 10^6 scalars, more than one SCALAR_BUDGET.
BATCH_CASES = ((1000, 50, 1, 0.21), (1000, 200, 1, 0.21), (500, 50, 2, 0.17),
               (500, 200, 2, 0.17), (600, 5000, 1, 0.21))
BATCH_SNIPPET = """
import ast, hashlib, sys
import numpy as np
from sakde.estimators import recursive_batch, rosenblatt_batch
from sakde.sequences import bandwidth_plan, stepsize_plan
reps, n, d, a = ast.literal_eval(sys.argv[1])
samples = np.random.default_rng(42).standard_normal((reps, n, d))
x = np.full(d, 0.5)
step, bw = stepsize_plan(1.0 - a * d), bandwidth_plan(1.0, a)
for g in (recursive_batch(step, bw, samples, x), rosenblatt_batch(bw, samples, x)):
    print(g.shape, hashlib.sha256(g.tobytes()).hexdigest())
"""


# Runs table argv[1] at seed 42 with 5000 replications and prints each cell's
# coverage at full precision and its average length at 12 significant digits.
# The cells come from table_configs, in the order of run_table's rows, so the
# snippet reads the same names whether or not a row carries its cell.
TABLE_CELLS_SNIPPET = """
import sys
from sakde import mc
table = int(sys.argv[1])
for cfg, row in zip(mc.table_configs(table, 42, 5000), mc.run_table(table, 42, 5000, 1)):
    res = row.result
    print(cfg.x, cfg.a, cfg.n, cfg.estimator, repr(res.empirical_level), f"{res.avg_length:.12g}")
"""


# Prints the leading variance that each cell of table argv[1] builds its
# intervals from, at the cell's true density and at full precision.
LEADING_VARIANCE_SNIPPET = """
import sys
from sakde import mc
for cfg in mc.table_configs(int(sys.argv[1]), 42, 5000):
    print(cfg.x, cfg.a, cfg.n, cfg.estimator, repr(cfg.leading_variance(cfg.model.pdf(cfg.x))))
"""


# Prints each estimate vector of table 4's cells at the origin, at seed 42 and
# 1000 replications, in table order.
TABLE4_ESTIMATES_SNIPPET = """
import hashlib
from sakde import mc
cells = [cfg for cfg in mc.table_configs(4, 42, 1000) if cfg.x == (0.0, 0.0)]
for cfg, g in zip(cells, mc.estimates(*cells)):
    print(cfg.a, cfg.n, cfg.estimator, g.shape, hashlib.sha256(g.tobytes()).hexdigest())
"""


# Prints the exact moments of table argv[1]'s model over a fixed cell list.
EXACT_MOMENTS_SNIPPET = """
import sys
from sakde import mc
from sakde.sequences import SequencePlan, stepsize_from_weights, stepsize_plan
layout = mc.table_layout(int(sys.argv[1]))
model, a = mc.table_model(layout.density), layout.a_values[0]
cells = [mc.CellConfig(model, x, n, a, est) for x in layout.xs for n in (50, 200, 10**4)
         for est in (mc.ROSENBLATT, mc.RECURSIVE)]
origin = (0.0,) * model.dim
cells += [mc.CellConfig(model, origin, 10**4, 0.21, mc.RECURSIVE, step=step)
          for step in (stepsize_plan(1.0), None)]
cells += [mc.CellConfig(model, layout.xs[1], 200, a, mc.RECURSIVE, step=step)
          for step in (stepsize_from_weights(SequencePlan(1.0, -a / 2.0)),
                       stepsize_plan(1.0, alpha=0.7))]
for cell in cells:
    print(cell.x, cell.n, cell.estimator, repr(mc.exact_moments(cell)))
"""


# Runs one check of `check full` at seed 42, recording every vector its
# mc.estimates calls return, and prints the one at index argv[2].
ESTIMATES_SNIPPET = """
import hashlib, sys
from sakde import checks, mc
drawn, estimates = [], mc.estimates
def recorded(*cfgs):
    out = estimates(*cfgs)
    drawn.extend(out)
    return out
mc.estimates = recorded
getattr(checks, sys.argv[1])(42, 1)
g = drawn[int(sys.argv[2])]
print(g.shape, hashlib.sha256(g.tobytes()).hexdigest())
"""

# Prints `name<TAB>json.dumps(value, sort_keys=True)` for each outcome of
# check full at seed 42, or the error of a value that does not serialise.
CHECK_VALUES_SNIPPET = """
import json
from sakde import checks
for check in checks.FULL:
    for outcome in check(42, 1):
        try:
            text = json.dumps(outcome.value, sort_keys=True)
        except (TypeError, ValueError) as exc:
            text = repr(exc)
        print(outcome.name, text, sep="\t")
"""

# check full's Monte Carlo cells: the check that reads each, and its vector's index
ESTIMATE_VECTORS = {
    "moments-vs-exact(plain-average)": ("moments_and_clt", 0),
    "moments-vs-exact(variance-optimal)": ("moments_and_clt", 1),
    "clt-gate": ("moments_and_clt", 2),
    "bias-oracle": ("bias_oracle", 0),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_python(root: Path, args, cwd: Path) -> str:
    """Exit status, stdout and stderr of one Python run on the tree's ``src``, as one text."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return f"exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}"


def run_cli(root: Path, args, cwd: Path) -> str:
    """Exit status, stdout and stderr of one ``sakde`` call, as one text."""
    return run_python(root, ["-m", "sakde.cli", *args], cwd)


def outputs(root: Path, work: Path):
    """``(label, text)`` for each output, in a fixed order."""
    for table in (1, 2, 3, 4):
        csv = f"table-{table}.csv"
        printed = run_cli(root, ["table", str(table), "--reps", "5000", "--seed", "42",
                                 "--jobs", "2", "--out", csv], work)
        rows = (work / csv).read_text(encoding="utf-8").splitlines(keepends=True)
        yield f"table {table} csv rows", "".join(ln for ln in rows if not ln.startswith("#"))
        yield f"table {table} printed diff", printed
        yield (f"table {table} cells at full precision",
               run_python(root, ["-c", TABLE_CELLS_SNIPPET, str(table)], work))
        yield (f"table {table} leading variances at full precision",
               run_python(root, ["-c", LEADING_VARIANCE_SNIPPET, str(table)], work))
    yield "check full", run_cli(root, ["check", "full", "--seed", "42", "--jobs", "1"], work)
    status, *lines = run_python(root, ["-c", CHECK_VALUES_SNIPPET], work).splitlines()
    for line in lines:
        name, tab, text = line.partition("\t")
        if tab:
            yield f"check full value {name}", text
    yield "check full values run", "\n".join([status, *(ln for ln in lines if "\t" not in ln)])
    for cell, (check, index) in ESTIMATE_VECTORS.items():
        yield (f"check full estimates {cell}",
               run_python(root, ["-c", ESTIMATES_SNIPPET, check, str(index)], work))
    yield ("table 4 estimates at x=(0, 0)",
           run_python(root, ["-c", TABLE4_ESTIMATES_SNIPPET], work))
    for table in (1, 2, 3, 4):
        yield (f"exact moments table {table}",
               run_python(root, ["-c", EXACT_MOMENTS_SNIPPET, str(table)], work))
    for query in asymptotics_queries():
        yield f"asymptotics {query}", run_cli(root, ["asymptotics", *query.split()], work)
    for call in cell_calls():
        yield f"cell {call}", run_cli(root, ["cell", *call.split()], work)
    for call in HELP_CALLS:
        yield f"help {call}".rstrip(), run_cli(root, [*call.split(), "--help"], work)
    for call in REJECTED_CALLS:
        yield f"rejected {call}", run_cli(root, call.split(), work)
    for case in BATCH_CASES:
        yield (f"batch forms (replications, n, d, a) = {case}",
               run_python(root, ["-c", BATCH_SNIPPET, repr(case)], work))
    for density in DENSITIES:
        yield f"draws {density}", run_python(root, ["-c", DRAW_SNIPPET, density], work)
    for label, snippet in STREAM_SNIPPETS.items():
        yield label, run_python(root, ["-c", STREAM_SETUP + snippet], work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=HERE)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        for label, text in outputs(args.root.resolve(), Path(work)):
            print(f"{digest(text)}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
