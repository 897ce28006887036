"""Byte pins for short solver runs: the step log and the final snapshot.

The files `tests/data/run_<label>_{steps,final}.csv` were written before the
transport blocks were tabulated in one place; every run must stay byte for
byte what that code produced.  `four-block-2d` has all four transport blocks
varying in x along both axes, so it exercises every block placement.
`aniso2d` has a cross diffusion term, so its 2-d spectral transport and its
Fourier reference (`run_aniso2d_reference.csv`, the final field) mix both axes
in every mode; these two were written before the per-mode solver primitives
moved into `core`, and the reference was rewritten when a constant-diffusion
reference began to take one exact step per output span instead of T / 1000
(every value moved by at most 8.7e-15).  `carleman` (a u-dependent source jacobian with m = 1)
and `quasilinear-bu2` (a `d_II` term) pin the stiff source step on systems
whose source is not a constant linear map; they were written before the
spectral step's per-call costs were cut.  `artifact_hashes.txt` is the
output of `scripts/artifact_hashes.py` (every demo, admissible flux and grid
through `relaxbench run`, plus two short `converge` ladders), written before
the 2-d grid-flux run's fixed costs were cut; its 15 heat1d, heat2d, aniso2d,
sqrt-heat and `converge heat1d` lines were rewritten with that exact
reference, and its 8 carleman and quasilinear-bu2 run lines and
`converge carleman` when the quasilinear reference became Crank-Nicolson
(and the periodic corner correction a closed-form 2 x 2 solve); every other
line is unchanged.  `sqrt-heat`'s run files and its two hash lines were
rewritten when its spectral step became the same eig_factors propagator of the
transport symbol as every other system's, in place of a cos/sin form of B:
every value moved by at most 4.9e-15, and the dt and max_speed columns and
the well-prepared initial snapshot did not move.  The characteristic-upwind
grid flux's run files and its 10 hash lines were deleted with that flux;
every remaining file and line is unchanged.  The two `converge` lines were
rewritten when `converge` began to validate and write `report.csv`, which
they now digest after `convergence.csv`; every other line is unchanged.
Every `run_*` file and every line of `artifact_hashes.txt` was rewritten in
one declared step when the solver dropped the code that only kept NumPy's and
BLAS's summation order: constant Rusanov transport became one stacked matmul,
a constant source matrix a kept inverse, the spectral step and the Fourier
reference a half-spectrum transform, and the step log's norms `np.dot`.
`scripts/pin_drift.py` against the parent tree put every field, energy,
`errI` and `errII_weak` within 2.0e-14 of its column's largest value (an
`observed_order` within 1.4e-13); `four-block-2d`'s final snapshot, on the
per-cell path, did not move.  `four-block-2d`'s two run files and the two
`null-limit rusanov` hash lines were rewritten when per-cell transport tables
took the same kept neighbour-weights product as constant blocks, in place of
the difference-first loop: every value moved by at most 2.9e-15 of its
column's largest, and every other file and line is unchanged.  Every `run_*`
file but sqrt-heat's and every hash line but sqrt-heat's two were rewritten in
one declared step when spectral derivatives became a half-spectrum mode table
(the well-prepared start moved) and the Fourier reference's symbol began to be
summed as the validator's quadratic symbols are (aniso2d's reference moved):
`scripts/pin_drift.py` against the parent tree put every value within 5.3e-14
of its column's largest, and every `report.csv` and every other reference kept
its bytes.  `golden_texts` writes every `run_*` file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import relaxbench as rb
from relaxbench import builder
from relaxbench.hypersolver import SolverOptions, run, snapshot_csv, well_prepared_state
from relaxbench.parasolver import reference_csv, run_reference

from conftest import four_block_2d, sine_mode

GOLDEN = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parent.parent


def _run(sys, grid, u0, flux, eps, T):
    traj = run(sys, well_prepared_state(sys, grid, u0, eps), T, SolverOptions(flux=flux))
    return traj.steps_csv(), snapshot_csv(traj.final)


def _demo(name, ns, flux, eps, T):
    grid = rb.SpatialGrid(ns, (1.0,) * len(ns))
    bundle = builder.demo(name, grid)
    return _run(bundle.system, grid, bundle.u0(grid), flux, eps, T)


RUNS = {
    "four-block-2d_rusanov": lambda: _run(
        four_block_2d(), rb.SpatialGrid((12, 10), (1.0, 1.0)),
        sine_mode(rb.SpatialGrid((12, 10), (1.0, 1.0)), offset=0.5), "rusanov", 0.1, 0.02),
    "aniso2d_spectral": lambda: _demo("aniso2d", (8, 12), "spectral", 0.1, 0.02),
    "carleman_spectral": lambda: _demo("carleman", (32,), "spectral", 0.1, 0.02),
    "heat1d_spectral": lambda: _demo("heat1d", (32,), "spectral", 0.1, 0.02),
    "quasilinear-bu2_spectral": lambda: _demo("quasilinear-bu2", (32,), "spectral", 0.1, 0.02),
    "sqrt-heat_spectral": lambda: _demo("sqrt-heat", (32,), "spectral", 0.1, 0.02),
}


@pytest.mark.parametrize("label", sorted(RUNS))
def test_run_matches_golden(label):
    steps, final = RUNS[label]()
    assert steps == (GOLDEN / f"run_{label}_steps.csv").read_text()
    assert final == (GOLDEN / f"run_{label}_final.csv").read_text()


def _reference():
    grid = rb.SpatialGrid((8, 12), (1.0, 1.0))
    bundle = builder.demo("aniso2d", grid)
    _, fields = run_reference(bundle.target, bundle.u0(grid), grid, 0.02)
    return reference_csv(grid, fields[-1])


def golden_texts():
    """(file name, text) of every `run_*` pin, as the source tree this runs against writes it."""
    for label in sorted(RUNS):
        steps, final = RUNS[label]()
        yield f"run_{label}_steps.csv", steps
        yield f"run_{label}_final.csv", final
    yield "run_aniso2d_reference.csv", _reference()


def test_reference_matches_golden():
    assert _reference() == (GOLDEN / "run_aniso2d_reference.csv").read_text()


def test_artifact_hashes_match_golden():
    """Every artifact of every demo's run and of two ladders, byte for byte, by sha256."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "artifact_hashes.py")], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == (GOLDEN / "artifact_hashes.txt").read_text()
