#!/usr/bin/env python3
"""Epsilon-ladder study for the hyperbolic heat relaxation.

Writes out/heat_ladder/convergence.csv and prints the observed orders next
to the orders predicted by the exact single-mode solution.
"""

from pathlib import Path

import numpy as np

import relaxbench as rb
from relaxbench import builder, diagnostics, parasolver
from relaxbench.hypersolver import SolverOptions

EPS = (0.2, 0.1, 0.05, 0.025)
T = 0.1
N = 256


def main():
    grid = rb.SpatialGrid((N,), (1.0,))
    bundle = builder.demo("heat1d", grid)
    table = diagnostics.convergence_study(
        bundle.system, bundle.target, bundle.u0(grid), grid, T, EPS,
        opts=SolverOptions(flux="spectral", cfl=0.1),
    )
    out = Path("out/heat_ladder")
    out.mkdir(parents=True, exist_ok=True)
    (out / "convergence.csv").write_text(table.to_csv())

    times = np.linspace(0.0, T, diagnostics.LADDER_SNAPSHOTS)
    preds = parasolver.oracle_ladder_errors(times, EPS)
    print(f"{'eps':>8} {'errI':>12} {'order':>8} {'predicted':>10}")
    prev_pred = None
    prev = None
    for row, eps, pred in zip(table.rows, EPS, preds):
        order = "" if row.observed_order is None else f"{row.observed_order:8.3f}"
        pred_order = ""
        if prev_pred is not None:
            pred_order = f"{np.log(prev_pred / pred) / np.log(prev / eps):10.3f}"
        print(f"{eps:8.3f} {row.errI:12.5g} {order:>8} {pred_order:>10}")
        prev_pred, prev = pred, eps
    print(f"wrote {out / 'convergence.csv'}")


if __name__ == "__main__":
    main()
