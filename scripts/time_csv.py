#!/usr/bin/env python3
"""Cost of the CSV-output layer, and the CPU a heat2d run's writers use.

The benchmark's tracer cannot see this layer on a `run`: the snapshots,
references and step log are formatted in writer processes forked from the
command.  This script measures it directly, with one BLAS thread:

* `hypersolver.snapshot_csv` of a heat2d 128 x 128 state (x, y, uI_1,
  uII_1, uII_2), `parasolver.reference_csv` of its uI, and
  `hypersolver.StepLog.csv` of the run's 229-step log: the best of 7 wall
  times each, with the grid's coordinate text already cached (as for all but
  the first field file of a run), beside the same text joined row by row
  with `'%.17g' %`, which each must equal byte for byte;
* one heat2d-run (as the benchmark's: Rusanov, eps 0.05, T 0.02, a snapshot
  every 23 steps, reference on) in a fresh process: its wall time, the time
  from its start to the end of the preflight (`cli._preflight`: validation and
  report.csv) and to the writers' first fork, and the user + system CPU of the
  command (RUSAGE_SELF) and of its writers (RUSAGE_CHILDREN).

From the root of a source checkout:

    PYTHONPATH=src python scripts/time_csv.py
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before NumPy loads OpenBLAS

import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import relaxbench as rb  # noqa: E402
from relaxbench import builder, hypersolver, parasolver  # noqa: E402
from relaxbench.hypersolver import SolverOptions  # noqa: E402

REPEATS = 7
HEAT2D = ("[system]\nkind = demo\nname = heat2d\n[grid]\nn = 128\n"
          "[solver]\nflux = rusanov\nsnapshot_stride = 23\n"
          "[experiment]\nT = 0.02\nepsilon = 0.05\nreference = true\nu0_amplitude = 1.0\n")
# run in the child: the command, then its wall time, when its preflight ended and its first fork
# began, and the CPU seconds of itself and its writers
CHILD = """
import os, resource, sys, time
import relaxbench.cli as cli
marks, preflight, fork = {}, cli._preflight, os.fork
def timed_preflight(*args, **kwargs):
    try:
        return preflight(*args, **kwargs)
    finally:
        marks.setdefault("preflight", time.perf_counter())
def timed_fork():
    marks.setdefault("fork", time.perf_counter())
    return fork()
cli._preflight, os.fork = timed_preflight, timed_fork
def cpu(who):
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime
before = cpu(resource.RUSAGE_SELF), cpu(resource.RUSAGE_CHILDREN)
t0 = time.perf_counter()
rc = cli.main(sys.argv[1:])
wall = time.perf_counter() - t0
print(rc, wall, marks["preflight"] - t0, marks.get("fork", float("nan")) - t0,
      cpu(resource.RUSAGE_SELF) - before[0], cpu(resource.RUSAGE_CHILDREN) - before[1])
"""


def percent_text(header, columns) -> str:
    """The table as `'%.17g' %` joins it, one row at a time."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    return ",".join(header) + "\n" + "".join(row % values for values in zip(*(c.tolist() for c in columns)))


def best_of(fn, *args):
    """(best wall time of REPEATS calls, the last call's result)."""
    walls = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        text = fn(*args)
        walls.append(time.perf_counter() - start)
    return min(walls), text


def formatting():
    grid = rb.SpatialGrid((128, 128), (1.0, 1.0))
    bundle = builder.demo("heat2d", grid)
    init = hypersolver.well_prepared_state(bundle.system, grid, bundle.u0(grid), 0.05)
    traj = hypersolver.run(bundle.system, init, 0.02, SolverOptions(flux="rusanov"))
    state, u, log = traj.final, traj.final.uI, traj.records
    points = list(grid.flat_points())
    cases = (  # name, writer, its arguments, header, columns
        ("snapshot_csv", hypersolver.snapshot_csv, (state,),
         ["x", "y", "uI_1", "uII_1", "uII_2"],
         points + list(state.uI.reshape(state.k, -1)) + list(state.uII.reshape(state.m, -1))),
        ("reference_csv", parasolver.reference_csv, (grid, u), ["x", "y", "u_1"],
         points + list(u.reshape(len(u), -1))),
        ("StepLog.csv", hypersolver.StepLog.csv, (log,), ["t", "dt", "energy", "max_speed"],
         [np.array(getattr(log, c)) for c in ("t", "dt", "energy", "max_speed")]),
    )
    for name, writer, args, header, columns in cases:
        writer(*args)  # the grid's coordinate text, cached as in a run
        wall, text = best_of(writer, *args)
        percent_wall, expected = best_of(percent_text, header, columns)
        if text != expected:
            raise SystemExit(f"{name}: the text differs from the '%.17g' % rows")
        values = len(columns) * len(columns[0])
        print(f"{name}: {len(columns[0])} rows, {len(text)} bytes, best of {REPEATS} "
              f"{1e3 * wall:.2f} ms ({1e9 * wall / values:.0f} ns per number); "
              f"'%.17g' % rows {1e3 * percent_wall:.2f} ms; bytes equal")


def heat2d_run():
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "heat2d.ini"
        config.write_text(HEAT2D)
        env = dict(os.environ, PYTHONPATH=str(Path(rb.__file__).resolve().parents[1]))  # the tree timed above
        command = [sys.executable, "-c", CHILD, "run", str(config), "--out", str(Path(tmp) / "out")]
        proc = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    rc, wall, preflight, fork, own, writers = proc.stdout.split()[-6:]
    print(f"heat2d-run: exit {rc}, wall {float(wall):.3f} s, preflight done at {float(preflight):.3f} s, "
          f"first fork at {float(fork):.3f} s, command CPU (RUSAGE_SELF) {float(own):.3f} s, "
          f"writers' CPU (RUSAGE_CHILDREN) {float(writers):.3f} s")


if __name__ == "__main__":
    formatting()
    heat2d_run()
