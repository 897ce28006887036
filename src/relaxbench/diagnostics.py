"""Quantitative instruments tying runs to the limit theory.

Provides the weighted energy functional, the Gronwall-type energy
inequality check, the negative-Sobolev residual of the relaxed second
relation, and the epsilon-ladder convergence studies against the parabolic
reference solver.
"""

from __future__ import annotations

import gc
import os
import pickle
from collections import deque
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
    if any(not b < a for a, b in zip(eps_list, eps_list[1:] + [0.0])):  # the last must exceed 0; NaN fails
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


def _send(fd: int, data: bytes) -> None:
    """data, after its length in 8 bytes, down the pipe fd."""
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _receive(stream) -> Optional[bytes]:
    """The next message _send put in the pipe that stream reads, or None if the pipe closes first."""
    size = int.from_bytes(head := stream.read(8), "little")
    data = stream.read(size)
    return data if len(head) == 8 and len(data) == size else None


def _serve(shared, jobs, results: int) -> None:
    """A worker's loop: for each job (fn, args) read from jobs, send back (True, fn(shared, *args))
    or (False, its error), until the job pipe breaks."""
    while (data := _receive(jobs)) is not None:
        try:
            fn, args = pickle.loads(data)
            outcome = True, fn(shared, *args)
        except BaseException as err:  # the parent raises it as this job's error
            outcome = False, err
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception as err:
            what = "result" if outcome[0] else f"error {outcome[1]!r}"
            data = pickle.dumps((False, pickle.PicklingError(f"the job's {what} cannot be pickled: {err}")))
        _send(results, data)


class ForkedJobs:
    """Jobs fn(shared, *args) in _ladder_workers(jobs, threads) worker processes forked from
    this one, or in this process when that is 1.

    Within `with ForkedJobs(shared, jobs) as pool:`, pool.submit(fn, *args) starts one job.
    In this process a job runs inside submit.  Otherwise the workers, forked as the block
    opens, inherit shared; a job's fn and args go to an idle worker, and its outcome comes
    back, as length-prefixed pickles on the worker's two pipes.  Jobs start in submission
    order, and at most WINDOW per worker are in flight: at that limit submit waits for one
    to end.  Leaving the block collects the results into pool.results in submission order,
    so either path raises the first failing job's error; jobs still waiting once a failure
    is known there are dropped.  An error raised inside the block lets the jobs submitted
    finish, then propagates.  A worker that dies without a result fails its job with a
    ChildProcessError naming it, and a new worker takes its place.  Every worker is killed,
    idle, and reaped before the block is left.  This process's objects stay frozen
    (gc.freeze) meanwhile, so the workers' collections leave the pages they share alone.
    """

    def __init__(self, shared, jobs: Optional[int], threads: Optional[int] = None):
        self.shared, self.workers = shared, _ladder_workers(jobs, threads)
        # a worker is (pid, job pipe fd, result pipe stream); _busy maps its result pipe to it and
        # its job's index and name; _queue holds (index, name, pickle) of the jobs waiting for a
        # worker; _outcomes holds (ok, result or error) per job, None until it ends
        self.results, self._idle, self._busy, self._queue, self._outcomes = [], [], {}, deque(), []

    def __enter__(self) -> "ForkedJobs":
        if self.workers > 1:
            gc.freeze()
            try:
                for _ in range(self.workers):
                    self._fork()
            except BaseException:
                self._close()
                raise
        return self

    def _fork(self) -> None:
        """One more idle worker."""
        pipes = (job_r, job_w), (result_r, result_w) = os.pipe(), os.pipe()
        try:
            pid = os.fork()
        except OSError:
            list(map(os.close, pipes[0] + pipes[1]))
            raise
        if pid == 0:
            try:
                _serve(self.shared, os.fdopen(job_r, "rb"), result_w)
            finally:
                os._exit(1)  # _serve returns only if the job pipe breaks
        os.close(job_r)
        os.close(result_w)
        # a pipe holds at most one message at a time, so no read-ahead can hide one from select
        self._idle.append((pid, job_w, os.fdopen(result_r, "rb")))

    def submit(self, fn, *args) -> None:
        if self.workers == 1:
            self.results.append(fn(self.shared, *args))
            return
        while len(self._queue) + len(self._busy) >= WINDOW * self.workers:
            self._collect()
        self._queue.append((len(self._outcomes), fn.__qualname__, pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL)))
        self._outcomes.append(None)
        self._dispatch()

    def _dispatch(self) -> None:
        while self._queue and self._idle:
            worker, (index, name, data) = self._idle.pop(), self._queue.popleft()
            self._busy[worker[2]] = worker, index, name
            _send(worker[1], data)

    def _collect(self) -> None:
        """Wait until at least one job ends, and record how."""
        import select  # here, so that importing this module does not load it

        for stream in select.select(list(self._busy), [], [])[0]:
            worker, index, name = self._busy.pop(stream)
            if (data := _receive(stream)) is not None:
                self._idle.append(worker)
                self._outcomes[index] = pickle.loads(data)
                continue
            code = self._reap(worker)
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            self._outcomes[index] = False, ChildProcessError(f"job {index} ({name}) sent no result: its worker {how}")
            self._fork()
        self._dispatch()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.workers == 1:
            return
        try:
            while self._busy:
                if exc_type is None and any(o and not o[0] for o in self._outcomes):
                    self._queue.clear()
                self._collect()
            if exc_type is None:
                for ok, value in self._outcomes:
                    if not ok:
                        raise value
                self.results = [value for _, value in self._outcomes]
        finally:
            self._close()

    def _reap(self, worker) -> int:
        """Wait until the worker ends and close its pipes; its exit code."""
        code = os.waitstatus_to_exitcode(os.waitpid(worker[0], 0)[1])
        os.close(worker[1])
        worker[2].close()
        return code

    def _close(self) -> None:
        import signal

        workers = self._idle + [worker for worker, _, _ in self._busy.values()]
        for worker in workers:
            os.kill(worker[0], signal.SIGKILL)  # idle, unless collecting failed
        for worker in workers:
            self._reap(worker)
        self._idle, self._busy = [], {}
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
