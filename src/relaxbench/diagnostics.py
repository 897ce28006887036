"""Quantitative instruments tying runs to the limit theory.

Provides the weighted energy functional, the Gronwall-type energy
inequality check, the negative-Sobolev residual of the relaxed second
relation, and the epsilon-ladder convergence studies against the parabolic
reference solver.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import hypersolver, parasolver
from .builder import DemoBundle, ParabolicTarget
from .core import (
    Array,
    ConvergenceTable,
    FieldState,
    LadderRow,
    RelaxationSystem,
    SpatialGrid,
    apply_m21_gradient,
    plan_times,
)
from .hypersolver import SolverOptions, Trajectory, squared_norms

LADDER_SNAPSHOTS = 11   # comparison times of a ladder, 0 and T included
# a sub-stepped reference's step is T / 500: test_parasolver.py::TestSecondOrderReference shows the
# Crank-Nicolson carleman reference within 1e-7 of one at T / 2000; an exact one ignores it
LADDER_REFERENCE_STEPS = 500


def energy(state: FieldState) -> float:
    """Weighted quadrature of the state: ||uI||^2 + eps^2 ||uII||^2."""
    nI2, nII2 = squared_norms(state.uI, state.uII, state.grid.cell_volume)
    return nI2 + state.eps ** 2 * nII2


@dataclass(frozen=True)
class EnergyInequality:
    """Result of fitting the exponential envelope and the integrated bound."""

    fitted_c: float
    integral_lhs: float
    integral_rhs: float
    passed: bool


def energy_inequality_check(traj: Trajectory, lam0: float) -> EnergyInequality:
    """Smallest exponential rate bounding the energy, plus the absorbed-source bound.

    Finds the least c >= 0 with E(t) <= E(0) e^{ct} (1 + 1e-9) along the run,
    then verifies (lam0 / 4) * sum dt ||uII||^2 <= E(0) (e^{cT} + 2).  For a
    source-free system the fitted c should come out exactly zero.
    """
    recs = traj.records
    e0 = recs[0].energy
    slack = 1.0 + 1e-9
    c = 0.0
    if e0 > 0.0:
        for r in recs[1:]:
            if r.t > 0 and r.energy > e0 * slack:
                c = max(c, float(np.log(r.energy / (e0 * slack)) / r.t))
    else:
        if any(r.energy > 0 for r in recs):
            return EnergyInequality(np.inf, np.inf, 0.0, False)
    t_final = recs[-1].t
    lhs = (lam0 / 4.0) * sum(r.dt * r.uII_norm2 for r in recs if r.dt > 0)
    rhs = e0 * (float(np.exp(c * t_final)) + 2.0)
    return EnergyInequality(c, lhs, rhs, lhs <= rhs * (1.0 + 1e-12))


def limit_residual(state: FieldState, sys: RelaxationSystem) -> float:
    """Negative-Sobolev norm of the relaxed second relation's defect.

    r = M21(x, d) uI - Qnu(x, uI, 0) uII - D^II(uI, 0), measured with the
    Fourier weight 1 / (1 + |kappa|^2); derivatives are spectral, matching
    the well-prepared data helper exactly.
    """
    grid = state.grid
    uflat = state.uI.reshape(sys.k, -1)
    zeros = np.zeros((sys.m, uflat.shape[1]))
    r = apply_m21_gradient(sys, grid, state.uI).reshape(sys.m, -1)
    qnu = sys.stiff_source_jacobian(grid.flat_points(), uflat, zeros)
    r = r - np.einsum("abm,bm->am", qnu, state.uII.reshape(sys.m, -1))
    r = r - sys.lower_order_II(uflat, zeros)
    r = r.reshape((sys.m,) + grid.ns)

    kappa = grid.wavenumbers()
    weight = 1.0 / (1.0 + np.sum(kappa ** 2, axis=0))
    rhat = np.fft.fftn(r, axes=tuple(range(1, 1 + grid.d)))
    total = float(np.sum(np.abs(rhat) ** 2 * weight[None]))
    return float(np.sqrt(total * grid.cell_volume / grid.cell_count))


def space_time_error(
    times: Sequence[float], fields_a: Array, fields_b: Array, grid: SpatialGrid
) -> float:
    """Discrete L2-in-space-time distance via the trapezoid rule in time."""
    times = np.asarray(times, dtype=float)
    diffs = np.asarray(fields_a) - np.asarray(fields_b)
    sq = np.sum(diffs.reshape(diffs.shape[0], -1) ** 2, axis=1) * grid.cell_volume
    return float(np.sqrt(np.trapezoid(sq, times)))


@dataclass(frozen=True)
class LadderEntry:
    eps: float
    trajectory: Trajectory
    errI: float
    errII_weak: float


def check_ladder(T: float, eps_list: Sequence[float], threads: Optional[int] = None) -> List[float]:
    """The ladder's epsilons; ValueError unless T > 0 keeps the comparison times apart in
    plan_times, >= 3 positive epsilons decrease strictly and threads is None or >= 1."""
    eps_list = [float(e) for e in eps_list]
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if not T > 0:
        raise ValueError(f"a ladder needs a positive horizon T, got {T:g}")
    if len(plan_times(T, np.linspace(0.0, T, LADDER_SNAPSHOTS))) != LADDER_SNAPSHOTS - 1:
        raise ValueError(f"a ladder horizon T = {T:g} is too short: its {LADDER_SNAPSHOTS} comparison "
                         f"times must lie more than 1e-12 * max(T, 1) apart")
    if len(eps_list) < 3:
        raise ValueError("epsilon ladder needs at least three entries")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:] + [0.0])):  # the last must exceed 0
        raise ValueError(f"epsilon ladder must decrease strictly and stay positive, got {eps_list}")
    return eps_list


# a worker process's ladder, set by _set_worker_ladder right after the fork: the system's
# callables cannot be pickled, and a forked worker inherits them instead
_WORKER_LADDER: Optional[tuple] = None


def _set_worker_ladder(ladder: tuple) -> None:
    global _WORKER_LADDER
    _WORKER_LADDER = ladder


def _ladder_job(eps: Optional[float], ladder: Optional[tuple] = None):
    """One job of `ladder` (this worker's by default): the reference's (times, fields) for
    eps None, else the stiff run's Trajectory from well-prepared data at eps."""
    sys, target, u0, grid, T, times, opts = ladder or _WORKER_LADDER
    if eps is None:
        return parasolver.run_reference(
            target, u0, grid, T, dt=T / LADDER_REFERENCE_STEPS, snapshot_times=times,
        )
    init = hypersolver.well_prepared_state(sys, grid, u0, eps)
    return hypersolver.run(sys, init, T, opts, snapshot_times=times)


def _ladder_workers(jobs: int, threads: Optional[int] = None) -> int:
    """Worker processes for a ladder of `jobs` jobs: min(jobs, usable CPUs, threads).

    Usable CPUs are os.sched_getaffinity(0), else os.cpu_count(); threads None means
    no further bound.  1 where os.fork is missing.
    """
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(jobs, cpus, threads or jobs)


def _run_jobs(ladder: tuple, jobs: List[Optional[float]], workers: int) -> list:
    """_ladder_job over jobs, in this process for one worker, else in forked worker processes.

    Results come back in job order, so either path raises the first failing job's error;
    on an error, jobs not yet started are cancelled and the pool is joined before it
    propagates, so no worker outlives the call.  This process's objects stay frozen
    (gc.freeze) while the workers run: the workers' collections then leave them alone, and
    the pages they share with this process copy-on-write stay shared.
    """
    if workers == 1:
        return [_ladder_job(job, ladder) for job in jobs]
    import gc
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    gc.freeze()
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_set_worker_ladder, initargs=(ladder,)) as pool:
            futures = [pool.submit(_ladder_job, job) for job in jobs]
            try:
                return [f.result() for f in futures]
            finally:
                for f in futures:
                    f.cancel()
    finally:
        gc.unfreeze()


def ladder_runs(
    sys: RelaxationSystem,
    target: Optional[ParabolicTarget],
    u0: Array,
    grid: SpatialGrid,
    T: float,
    eps_list: Sequence[float],
    opts: Optional[SolverOptions] = None,
    threads: Optional[int] = None,
) -> Tuple[List[LadderEntry], Array, Array]:
    """Run the stiff solver once per epsilon and compare against the reference.

    The reference is the target's parabolic solution, or the zero function
    when there is no target (a system whose limit is the null solution).
    Returns the per-epsilon entries plus the shared snapshot times and the
    reference fields on those times.  The inputs must pass check_ladder.

    The reference and each rung are independent jobs, listed longest first: the
    smallest epsilon (a rung's step count is proportional to 1 / eps), the
    reference, then the other rungs.  They run in _ladder_workers(jobs, threads)
    worker processes forked from this one, or in this process when that is 1;
    errI, errII_weak and the limit residual are computed here either way.  Every
    job does the same arithmetic wherever it runs, so the results are
    bit-identical for any worker count.
    """
    eps_list = check_ladder(T, eps_list, threads)
    opts = replace(opts or SolverOptions(), snapshot_stride=0)
    u0 = np.asarray(u0, dtype=float)
    times = np.linspace(0.0, T, LADDER_SNAPSHOTS)

    rungs = sorted(eps_list)
    jobs = rungs[:1] + ([None] if target is not None else []) + rungs[1:]
    ladder = (sys, target, u0, grid, T, times, opts)
    results = dict(zip(jobs, _run_jobs(ladder, jobs, _ladder_workers(len(jobs), threads))))

    if target is not None:
        ref_times, ref_fields = results[None]
        if len(ref_times) != len(times):
            raise RuntimeError("reference did not land on the requested times")
    else:
        ref_fields = np.zeros((len(times),) + u0.shape)

    entries = []
    for eps in eps_list:
        traj = results[eps]
        fields = np.stack([s.uI for s in traj.snapshots[: len(times)]])
        if fields.shape[0] != len(times):
            raise RuntimeError("run did not produce the requested snapshots")
        err = space_time_error(times, fields, ref_fields, grid)
        res = limit_residual(traj.final, sys)
        entries.append(LadderEntry(eps, traj, err, res))
    return entries, times, ref_fields


def convergence_study(
    sys: RelaxationSystem,
    target: Optional[ParabolicTarget],
    u0: Array,
    grid: SpatialGrid,
    T: float,
    eps_list: Sequence[float],
    opts: Optional[SolverOptions] = None,
    threads: Optional[int] = None,
) -> ConvergenceTable:
    """Epsilon-ladder study: errors, weak residuals, and observed orders."""
    entries, _, _ = ladder_runs(sys, target, u0, grid, T, eps_list, opts=opts, threads=threads)
    rows = []
    for i, e in enumerate(entries):
        order = None
        if i > 0:
            prev = entries[i - 1]
            if e.errI > 0 and prev.errI > 0:
                order = float(np.log(prev.errI / e.errI) / np.log(prev.eps / e.eps))
        rows.append(
            LadderRow(
                eps=e.eps, errI=e.errI, errII_weak=e.errII_weak,
                sup_eps_uII=e.trajectory.sup_eps_uII, observed_order=order,
            )
        )
    return ConvergenceTable(rows=tuple(rows))


def study_for_bundle(
    bundle: DemoBundle,
    grid: SpatialGrid,
    T: float,
    eps_list: Sequence[float],
    opts: Optional[SolverOptions] = None,
    threads: Optional[int] = None,
) -> ConvergenceTable:
    """Convergence study with the bundle's own initial data and reference."""
    return convergence_study(
        bundle.system, bundle.target, bundle.u0(grid), grid, T, eps_list,
        opts=opts, threads=threads,
    )


__all__ = [
    "LADDER_SNAPSHOTS",
    "LADDER_REFERENCE_STEPS",
    "check_ladder",
    "energy",
    "EnergyInequality",
    "energy_inequality_check",
    "limit_residual",
    "space_time_error",
    "LadderEntry",
    "ladder_runs",
    "convergence_study",
    "study_for_bundle",
]
