#!/usr/bin/env python3
"""Wall time and accuracy of the reference solver on its own, one line per case.

Runs `parasolver.run_reference` as an eps-ladder calls it (T=0.1,
dt=T/diagnostics.LADDER_REFERENCE_STEPS, the ladder's 11 comparison times)
with one BLAS thread, and prints the best of 3 wall times and the space-time
L2 distance to the same reference at 4x the steps, so each line shows
accuracy per cost.  The cases are:

* the carleman ladder's quasilinear reference (n=256), with its Picard sweep
  count and sweeps per step;
* a k=2 reaction-diffusion reference (n=128): constant cross-diffusion
  [[1, 0.3], [0.3, 0.5]], reaction (u1 - u1^3 - u2, (u1 - u2)/2), data
  (sin 2 pi x, cos(2 pi x) / 2), stepped by Strang splitting, whose
  nsub steps in a comparison span apply nsub + 1 exact diffusion maps;
* a callable-diffusion reference on 32 x 32 cells: a(x) with a cross term,
  stepped by Crank-Nicolson through SuperLU, without a reaction (one solve
  per step) and with a logistic reaction (Picard sweeps).

From the root of a source checkout:

    PYTHONPATH=src python scripts/time_reference.py
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before NumPy loads OpenBLAS

import time  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

import relaxbench as rb  # noqa: E402
from relaxbench import builder, diagnostics, parasolver  # noqa: E402
from relaxbench.builder import ReactionDiffusion  # noqa: E402

T = 0.1
STEPS = diagnostics.LADDER_REFERENCE_STEPS
REPEATS = 3
TIMES = np.linspace(0.0, T, diagnostics.LADDER_SNAPSHOTS)
TWO_PI = 2.0 * np.pi


def reaction2(grid):
    x = grid.flat_points()[0]
    target = ReactionDiffusion(k=2, d=1, diffusion=np.array([[[[1.0, 0.3], [0.3, 0.5]]]]),
                               f=lambda u: np.stack([u[0] - u[0] ** 3 - u[1], 0.5 * (u[0] - u[1])]))
    return target, np.stack([np.sin(TWO_PI * x), 0.5 * np.cos(TWO_PI * x)])


def callable_diffusion(grid, f=None):
    def diffusion(x):
        out = np.zeros((2, 2, 1, 1, x.shape[-1]))
        out[0, 0, 0, 0] = 1.0 + 0.5 * np.sin(TWO_PI * x[0])
        out[1, 1, 0, 0] = 1.2 + 0.5 * np.sin(TWO_PI * x[0])
        out[0, 1, 0, 0] = out[1, 0, 0, 0] = 0.3 * np.cos(TWO_PI * x[1])
        return out

    x, y = grid.points()
    target = ReactionDiffusion(k=1, d=2, diffusion=diffusion, f=f)
    return target, (0.5 + 0.5 * np.sin(TWO_PI * x) * np.sin(TWO_PI * y))[None]


def best_of(target, u0, grid, reset=lambda: None):
    """Wall times of REPEATS references at T / STEPS, each after reset(), and a function giving
    the last one's distance to the reference at T / (4 STEPS).  The distance is computed on
    call, so counters read before it still hold the last timed run's counts."""
    def reference(steps):
        return parasolver.run_reference(target, u0, grid, T, dt=T / steps, snapshot_times=TIMES)[1]

    walls = []
    for _ in range(REPEATS):
        reset()
        start = time.perf_counter()
        fields = reference(STEPS)
        walls.append(time.perf_counter() - start)
    return walls, lambda: diagnostics.space_time_error(TIMES, fields, reference(4 * STEPS), grid)


def timing(walls, distance):
    return (f"best of {REPEATS} {min(walls):.3f} s (all: {', '.join(f'{w:.3f}' for w in walls)}), "
            f"distance to dt=T/{4 * STEPS} {distance:.2e}")


def main():
    n = 256
    grid = rb.SpatialGrid((n,), (1.0,))
    bundle = builder.demo("carleman", grid)
    sweeps = [0]

    def diffusion(u):  # the Picard loop evaluates the lagged coefficient once per sweep
        sweeps[0] += 1
        return bundle.target.diffusion(u)

    target = replace(bundle.target, diffusion=diffusion)
    walls, distance = best_of(target, bundle.u0(grid), grid, lambda: sweeps.__setitem__(0, 0))
    count = sweeps[0]  # the last timed reference's, before the one at 4x the steps
    print(f"carleman reference n={n} T={T} dt=T/{STEPS}: {count} sweeps ({count / STEPS:.2f} per step), "
          + timing(walls, distance()))

    for name, ns, case in (("reaction2", (128,), reaction2), ("callable", (32, 32), callable_diffusion),
                           ("callable-logistic", (32, 32), lambda g: callable_diffusion(g, lambda u: u * (1 - u)))):
        grid = rb.SpatialGrid(ns, (1.0,) * len(ns))
        walls, distance = best_of(*case(grid), grid)
        print(f"{name} reference n={'x'.join(map(str, ns))} T={T} dt=T/{STEPS}: {STEPS} steps, "
              + timing(walls, distance()))


if __name__ == "__main__":
    main()
