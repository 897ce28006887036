#!/usr/bin/env python3
"""Wall time and accuracy of the reference solver on its own, one line per case.

Runs each reference as an eps-ladder calls it (dt=T/diagnostics.LADDER_REFERENCE_STEPS,
the ladder's 11 comparison times) with one BLAS thread, and prints the best of
3 wall times and the space-time L2 distance to the same reference at 4x the
steps, so each line shows accuracy per cost.  A Crank-Nicolson case also
prints its Picard sweeps where it can count them, the wall time per sweep (one
linear solve each) and, where the stepper counts them, the Krylov iterations
per sweep.  The cases are:

* the carleman ladder's quasilinear reference (n=256, T=0.1);
* a k=2 reaction-diffusion reference (n=128, T=0.1): constant cross-diffusion
  [[1, 0.3], [0.3, 0.5]], reaction (u1 - u1^3 - u2, (u1 - u2)/2), data
  (sin 2 pi x, cos(2 pi x) / 2), stepped by Strang splitting, whose
  nsub steps in a comparison span apply nsub + 1 exact diffusion maps;
* a callable-diffusion reference on 32 x 32 cells (T=0.1): a(x) with a cross
  term, without a reaction (one solve per step) and with a logistic reaction;
* the 2-d quasilinear reference B(u) = I / (8u) on 64 x 64 cells, from
  1 + sin(2 pi x) sin(2 pi y) / 2, to T=0.01 at the same step T/50.

The script runs against any source tree with the same `parasolver` entry
points, so two trees can be timed side by side.  From the root of a source
checkout:

    PYTHONPATH=src python scripts/time_reference.py
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before NumPy loads OpenBLAS

import time  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

import relaxbench as rb  # noqa: E402
from relaxbench import builder, diagnostics, parasolver  # noqa: E402
from relaxbench.builder import QuasilinearDivergence, ReactionDiffusion  # noqa: E402
from relaxbench.core import plan_times  # noqa: E402

T = 0.1
STEPS = diagnostics.LADDER_REFERENCE_STEPS
REPEATS = 3
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


def inverse_density(grid):
    """B(u) = I / (8u), the limit of a four-velocity kinetic model, from a density in [0.5, 1.5]."""
    def diffusion(u):
        out = np.zeros((2, 2, 1, 1, u.shape[-1]))
        out[0, 0, 0, 0] = out[1, 1, 0, 0] = 1.0 / (8.0 * u[0])
        return out

    x, y = grid.points()
    target = QuasilinearDivergence(k=1, d=2, diffusion=diffusion, state_box=((0.5,), (1.5,)))
    return target, (1.0 + 0.5 * np.sin(TWO_PI * x) * np.sin(TWO_PI * y))[None]


def timed(target, u0, grid, horizon, steps):
    """(best of REPEATS walls, sweeps, Krylov iterations or None, distance to 4x the steps).

    Each reference is one stepper driven over the comparison times, so a Picard stepper's
    counters are read after it; where the stepper keeps no count, sweeps are counted as
    evaluations of the lagged diffusion."""
    times = np.linspace(0.0, horizon, diagnostics.LADDER_SNAPSHOTS)
    calls = [0]
    if not isinstance(target, ReactionDiffusion):
        def diffusion(u, lagged=target.diffusion):
            calls[0] += 1
            return lagged(u)
        target = replace(target, diffusion=diffusion)

    def reference(n):
        stepper = (parasolver._PicardQL if callable(target.diffusion) else parasolver._LinearRD)(target, grid)
        spans = plan_times(horizon, times)
        fields = [u for _, u in parasolver._advance(stepper, np.array(u0, dtype=float), spans, horizon / n)]
        return np.stack(fields), stepper

    walls = []
    for _ in range(REPEATS):
        calls[0] = 0
        start = time.perf_counter()
        fields, stepper = reference(steps)
        walls.append(time.perf_counter() - start)
    sweeps = getattr(stepper, "sweeps", calls[0])
    distance = diagnostics.space_time_error(times, fields, reference(4 * steps)[0], grid)
    return walls, sweeps, getattr(stepper, "krylov_iterations", None), distance


def line(name, grid, horizon, steps, walls, sweeps, krylov, distance):
    ns = "x".join(map(str, grid.ns))
    text = f"{name} reference n={ns} T={horizon} dt=T/{steps}: "
    if sweeps:
        text += f"{sweeps} sweeps ({sweeps / steps:.2f} per step, {1e3 * min(walls) / sweeps:.3f} ms each"
        text += f", {krylov / sweeps:.2f} Krylov iterations each), " if krylov is not None else "), "
    text += (f"best of {REPEATS} {min(walls):.3f} s (all: {', '.join(f'{w:.3f}' for w in walls)}), "
             f"distance to dt=T/{4 * steps} {distance:.2e}")
    print(text, flush=True)


def main():
    grid = rb.SpatialGrid((256,), (1.0,))
    bundle = builder.demo("carleman", grid)
    line("carleman", grid, T, STEPS, *timed(bundle.target, bundle.u0(grid), grid, T, STEPS))
    for name, ns, case in (("reaction2", (128,), reaction2), ("callable", (32, 32), callable_diffusion),
                           ("callable-logistic", (32, 32), lambda g: callable_diffusion(g, lambda u: u * (1 - u))),
                           ("inverse-density", (64, 64), inverse_density)):
        grid = rb.SpatialGrid(ns, (1.0,) * len(ns))
        horizon, steps = (0.01, STEPS // 10) if name == "inverse-density" else (T, STEPS)
        line(name, grid, horizon, steps, *timed(*case(grid), grid, horizon, steps))


if __name__ == "__main__":
    main()
