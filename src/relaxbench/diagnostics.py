"""Quantitative instruments tying runs to the limit theory.

Provides the weighted energy functional, the Gronwall-type energy
inequality check, the negative-Sobolev residual of the relaxed second
relation, and the epsilon-ladder convergence studies against the parabolic
reference solver.
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass
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
# Crank-Nicolson carleman reference within 1e-7 of one at T / 2000, and as its space discretization is
# Fourier collocation (n = 256 lies within 3e-12 of n = 1024) that is all of its error; an exact
# reference ignores the step
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
    log = traj.records
    e0 = log.energy[0]
    slack = 1.0 + 1e-9
    c = 0.0
    if e0 > 0.0:
        for t, e in zip(log.t[1:], log.energy[1:]):
            if t > 0 and e > e0 * slack:
                c = max(c, float(np.log(e / (e0 * slack)) / t))
    else:
        if any(e > 0 for e in log.energy):
            return EnergyInequality(np.inf, np.inf, 0.0, False)
    t_final = log.t[-1]
    lhs = (lam0 / 4.0) * sum(dt * n2 for dt, n2 in zip(log.dt, log.uII_norm2) if dt > 0)
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
    snapshots: List[FieldState]  # at the ladder's comparison times
    sup_uI: float
    sup_eps_uII: float
    errI: float
    errII_weak: float


def check_ladder(T: float, eps_list: Sequence[float], threads: Optional[int] = None,
                 opts: Optional[SolverOptions] = None) -> List[float]:
    """The ladder's epsilons; ValueError unless T > 0 keeps the comparison times apart in
    plan_times, >= 3 positive epsilons decrease strictly, threads is None or >= 1 and
    opts asks for no strided snapshots."""
    eps_list = [float(e) for e in eps_list]
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if opts is not None and opts.snapshot_stride:
        raise ValueError(f"a ladder snapshots at its {LADDER_SNAPSHOTS} comparison times only; "
                         f"snapshot_stride = {opts.snapshot_stride} applies to run only")
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


def _ladder_job(ladder: tuple, eps: Optional[float]):
    """One job of `ladder`: the reference's (times, fields) for eps None, else the stiff run's
    (snapshots, sup_uI, sup_eps_uII) from well-prepared data at eps; only these go back from
    a worker, not the run's per-step records."""
    sys, target, u0, grid, T, times, opts = ladder
    if eps is None:
        return parasolver.run_reference(
            target, u0, grid, T, dt=T / LADDER_REFERENCE_STEPS, snapshot_times=times,
        )
    init = hypersolver.well_prepared_state(sys, grid, u0, eps)
    traj = hypersolver.run(sys, init, T, opts, snapshot_times=times)
    return traj.snapshots, traj.sup_uI, traj.sup_eps_uII


def _ladder_workers(jobs: Optional[int], threads: Optional[int] = None) -> int:
    """Worker processes for `jobs` jobs: min(jobs, usable CPUs, threads).

    Usable CPUs are os.sched_getaffinity(0), else os.cpu_count(); jobs None (not known in
    advance) and threads None bound nothing further.  1 where os.fork is missing.
    """
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, jobs or cpus, threads or cpus)


WINDOW = 2  # jobs in flight per ForkedJobs worker: one running, one queued to start when it ends

# what the jobs of a ForkedJobs pool share, set in each worker right after the fork: a
# system's callables cannot be pickled, and a forked worker inherits them instead
_SHARED = None


def _share(shared) -> None:
    global _SHARED
    _SHARED = shared


def _shared_job(fn, *args):
    return fn(_SHARED, *args)


class ForkedJobs:
    """Jobs fn(shared, *args) in _ladder_workers(jobs, threads) worker processes forked from
    this one, or in this process when that is 1.

    Within `with ForkedJobs(shared, jobs) as pool:`, pool.submit(fn, *args) starts one job:
    fn is a module-level function and args are pickled, while shared reaches the workers by
    the fork.  In this process a job runs inside submit.  At most WINDOW jobs per worker are
    in flight, so their args are all this process holds of them: at that limit submit waits
    for whichever job ends first, and jobs still start in submission order.  Leaving the
    block collects every result into pool.results in submission order, so either path
    raises the first failing job's error; jobs not yet started are then cancelled.  An error
    raised inside the block lets the jobs already submitted finish, then propagates.  Either
    way the pool is joined before the block is left, so no worker outlives it.  This
    process's objects stay frozen (gc.freeze) while the workers run: the workers'
    collections then leave them alone, and the pages they share with this process
    copy-on-write stay shared.
    """

    def __init__(self, shared, jobs: Optional[int], threads: Optional[int] = None):
        self.shared, self.workers = shared, _ladder_workers(jobs, threads)
        self.results: list = []
        self._pool = None
        self._futures: list = []
        self._in_flight: set = set()

    def __enter__(self) -> "ForkedJobs":
        if self.workers > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(self.workers, mp_context=multiprocessing.get_context("fork"),
                                             initializer=_share, initargs=(self.shared,))
            gc.freeze()
        return self

    def submit(self, fn, *args) -> None:
        if self._pool is None:
            self.results.append(fn(self.shared, *args))
            return
        if len(self._in_flight) >= WINDOW * self.workers:
            from concurrent.futures import FIRST_COMPLETED, wait

            self._in_flight = wait(self._in_flight, return_when=FIRST_COMPLETED).not_done
        self._futures.append(self._pool.submit(_shared_job, fn, *args))
        self._in_flight.add(self._futures[-1])

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._pool is None:
            return
        try:
            if exc_type is None:
                self.results = [f.result() for f in self._futures]
        except BaseException:
            for f in self._futures:
                f.cancel()
            raise
        finally:
            self._pool.shutdown(wait=True)
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
    reference, then the other rungs.  They run as ForkedJobs, in
    min(jobs, usable CPUs, threads) worker processes or in this process;
    errI, errII_weak and the limit residual are computed here either way.  Every
    job does the same arithmetic wherever it runs, so the results are
    bit-identical for any worker count.
    """
    eps_list = check_ladder(T, eps_list, threads, opts)
    opts = opts or SolverOptions()
    u0 = np.asarray(u0, dtype=float)
    times = np.linspace(0.0, T, LADDER_SNAPSHOTS)

    rungs = sorted(eps_list)
    jobs = rungs[:1] + ([None] if target is not None else []) + rungs[1:]
    with ForkedJobs((sys, target, u0, grid, T, times, opts), len(jobs), threads) as pool:
        for job in jobs:
            pool.submit(_ladder_job, job)
    results = dict(zip(jobs, pool.results))

    if target is not None:
        ref_times, ref_fields = results[None]
        if len(ref_times) != len(times):
            raise RuntimeError("reference did not land on the requested times")
    else:
        ref_fields = np.zeros((len(times),) + u0.shape)

    entries = []
    for eps in eps_list:
        snapshots, sup_uI, sup_eps_uII = results[eps]
        fields = np.stack([s.uI for s in snapshots[: len(times)]])
        if fields.shape[0] != len(times):
            raise RuntimeError("run did not produce the requested snapshots")
        err = space_time_error(times, fields, ref_fields, grid)
        res = limit_residual(snapshots[-1], sys)
        entries.append(LadderEntry(eps, snapshots, sup_uI, sup_eps_uII, err, res))
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
                sup_eps_uII=e.sup_eps_uII, observed_order=order,
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
    "ForkedJobs",
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
