#!/usr/bin/env python3
"""Epsilon ladders of heat1d and carleman: n=256, T=0.1, eps 0.2 -> 0.025, spectral, cfl 0.1.

Writes out/heat_ladder/ and out/carleman_ladder/convergence.csv and prints eps, errI,
the weak residual and the observed order per rung, plus for heat1d the order the
exact single-mode solution predicts.  Run `PYTHONPATH=src python scripts/run_ladder.py`.
"""

from pathlib import Path

import numpy as np

import relaxbench as rb
from relaxbench import builder, diagnostics, parasolver
from relaxbench.hypersolver import SolverOptions

EPS = (0.2, 0.1, 0.05, 0.025)
T = 0.1
N = 256
OUT = {"heat1d": "out/heat_ladder", "carleman": "out/carleman_ladder"}


def predicted_orders():
    """The exact single-mode solution's order per rung of the heat1d ladder."""
    preds = parasolver.oracle_ladder_errors(np.linspace(0.0, T, diagnostics.LADDER_SNAPSHOTS), EPS)
    return [None] + [np.log(p0 / p1) / np.log(e0 / e1)
                     for p0, p1, e0, e1 in zip(preds, preds[1:], EPS, EPS[1:])]


def main():
    grid = rb.SpatialGrid((N,), (1.0,))
    for name, outdir in OUT.items():
        table = diagnostics.study_for_bundle(builder.demo(name, grid), grid, T, EPS,
                                             opts=SolverOptions(flux="spectral", cfl=0.1))
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "convergence.csv").write_text(table.to_csv())
        preds = predicted_orders() if name == "heat1d" else [None] * len(EPS)
        print(f"{name}: {'eps':>6} {'errI':>12} {'residual':>12} {'order':>8} {'predicted':>10}")
        for row, pred in zip(table.rows, preds):
            order = "" if row.observed_order is None else f"{row.observed_order:.3f}"
            pred = "" if pred is None else f"{pred:.3f}"
            print(f"{'':{len(name) + 1}} {row.eps:6.3f} {row.errI:12.5g} {row.errII_weak:12.5g} "
                  f"{order:>8} {pred:>10}")
        print(f"wrote {out / 'convergence.csv'}")


if __name__ == "__main__":
    main()
