#!/usr/bin/env python3
"""Cost of one integrator step, and the bits it leaves, one line per case.

Runs `hypersolver.run` on a demo's well-prepared start with one BLAS thread
and prints the best of REPEATS wall times per step, net of a run to T = 0
(workspace set-up and the initial snapshot), and the sha256 of the final
state's uI and uII bytes.  Two source trees step alike exactly when their
digests agree, so running this script in each side by side shows both the
cost and the identity of a change.  The cases are:

* carleman, spectral, n=256, eps 0.025, cfl 0.1: the deepest rung of the
  carleman ladder (T=0.01, a tenth of the rung);
* heat1d, spectral, n=256, eps 0.025, cfl 0.1: the same rung of the heat1d ladder;
* heat2d, Rusanov, 128 x 128, eps 0.05: the heat2d run's steps (T=0.005);
* aniso2d, Rusanov, 128 x 128, eps 0.05: the same with a cross diffusion term,
  whose constant source matrix is not diagonal (T=0.005);
* null-limit, Rusanov, n=256, eps 0.05: transport blocks that vary in x, so
  the Rusanov weights are tabulated per cell (T=0.01).

The digests changed once, when the solver dropped the code that kept NumPy's
and BLAS's summation order (the Rusanov step became one stacked matmul, the
constant source a kept inverse, and the spectral step a half-spectrum
transform): every final state moved at round-off only.  The null-limit
digest changed once more, when per-cell transport tables took the same kept
neighbour-weights product as constant blocks in place of a difference-first
loop: its final state moved at round-off only, and no other digest moved.

From the root of a source checkout:

    PYTHONPATH=src python scripts/time_step.py
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before NumPy loads OpenBLAS

import hashlib  # noqa: E402
import time  # noqa: E402

import relaxbench as rb  # noqa: E402
from relaxbench import builder, hypersolver  # noqa: E402
from relaxbench.hypersolver import SolverOptions  # noqa: E402

REPEATS = 5
CASES = (  # name, demo, ns, flux, cfl, eps, T
    ("carleman", "carleman", (256,), "spectral", 0.1, 0.025, 0.01),
    ("heat1d", "heat1d", (256,), "spectral", 0.1, 0.025, 0.01),
    ("heat2d", "heat2d", (128, 128), "rusanov", 0.45, 0.05, 0.005),
    ("aniso2d", "aniso2d", (128, 128), "rusanov", 0.45, 0.05, 0.005),
    ("null-limit", "null-limit", (256,), "rusanov", 0.45, 0.05, 0.01),
)


def best_wall(sys, init, T, opts):
    """(best wall time of REPEATS runs to T, the last run's trajectory)."""
    walls = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        traj = hypersolver.run(sys, init, T, opts)
        walls.append(time.perf_counter() - start)
    return min(walls), traj


def main():
    for name, demo, ns, flux, cfl, eps, T in CASES:
        grid = rb.SpatialGrid(ns, (1.0,) * len(ns))
        bundle = builder.demo(demo, grid)
        init = hypersolver.well_prepared_state(bundle.system, grid, bundle.u0(grid), eps)
        opts = SolverOptions(flux=flux, cfl=cfl)
        fixed, _ = best_wall(bundle.system, init, 0.0, opts)
        wall, traj = best_wall(bundle.system, init, T, opts)
        steps = len(traj.records) - 1
        digest = hashlib.sha256(traj.final.uI.tobytes() + traj.final.uII.tobytes()).hexdigest()
        print(f"{name} {flux} n={'x'.join(map(str, ns))} eps={eps} T={T}: {steps} steps, "
              f"best of {REPEATS} {1e6 * (wall - fixed) / steps:.1f} us/step, final state sha256 {digest[:16]}")


if __name__ == "__main__":
    main()
