#!/usr/bin/env python3
"""Wall time and accuracy of the carleman ladder's quasilinear reference on its own.

Runs `parasolver.run_reference` as the carleman eps-ladder calls it (n=256,
T=0.1, dt=T/diagnostics.LADDER_REFERENCE_STEPS, the ladder's 11 comparison
times) with one BLAS thread, and prints the Picard sweep count, the sweeps
per step, the best of 3 wall times and the space-time L2 distance to the same
reference at 4x the steps, so one line shows accuracy per cost.  From the
root of a source checkout:

    PYTHONPATH=src python scripts/time_reference.py
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before NumPy loads OpenBLAS

import time  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

import relaxbench as rb  # noqa: E402
from relaxbench import builder, diagnostics, parasolver  # noqa: E402

N = 256
T = 0.1
STEPS = diagnostics.LADDER_REFERENCE_STEPS
REPEATS = 3


def main():
    grid = rb.SpatialGrid((N,), (1.0,))
    bundle = builder.demo("carleman", grid)
    sweeps = [0]

    def diffusion(u):  # the Picard loop evaluates the lagged coefficient once per sweep
        sweeps[0] += 1
        return bundle.target.diffusion(u)

    target = replace(bundle.target, diffusion=diffusion)
    times = np.linspace(0.0, T, diagnostics.LADDER_SNAPSHOTS)

    def reference(steps):
        return parasolver.run_reference(target, bundle.u0(grid), grid, T, dt=T / steps, snapshot_times=times)[1]

    walls = []
    for _ in range(REPEATS):
        sweeps[0] = 0
        start = time.perf_counter()
        fields = reference(STEPS)
        walls.append(time.perf_counter() - start)
    count = sweeps[0]
    distance = diagnostics.space_time_error(times, fields, reference(4 * STEPS), grid)
    print(f"carleman reference n={N} T={T} dt=T/{STEPS}: {count} sweeps ({count / STEPS:.2f} per step), "
          f"best of {REPEATS} {min(walls):.3f} s (all: {', '.join(f'{w:.3f}' for w in walls)}), "
          f"distance to dt=T/{4 * STEPS} {distance:.2e}")


if __name__ == "__main__":
    main()
