"""Stiff time integration of the scaled relaxation system on periodic grids.

One step is a Lie splitting: an explicit transport update whose numerical
dissipation travels at the stiff characteristic speed, followed by a
pointwise implicit solve of the relaxation source, unconditionally stable in
the relaxation parameter.  Transport is done with a Rusanov flux on the grid,
or exactly in Fourier space from the transport symbol (constant coefficients,
multiplier systems included).

The Rusanov step is one product of the state with every neighbour's weights,
stacked, then shifted adds: one matrix for constant transport blocks, a
per-cell table for blocks that vary in x.  A per-cell weight is stored at the
neighbour it multiplies, so each cell's own C(x) acts on its neighbours'
values, the paper's C(x) dy.  A constant source matrix is inverted once; the
weights and the inverse are kept for the recurring step size.  The spectral
step runs on the half spectrum of the real state.  Each agrees to round-off,
not bit for bit, with the difference-first, per-cell-solve and full-spectrum
forms that the tests keep as oracles.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .core import (
    Array,
    FieldState,
    RelaxationSystem,
    SpatialGrid,
    apply_modes,
    constant_matrix,
    csv_text,
    eig_factors,
    eig_function,
    equilibrium_uII,
    field_csv,
    mode_table,
    mode_work,
    plan_times,
    principal_symbols,
    solve_points,
    transport_blocks,
    transport_symbols,
    unit_directions,
)

FLUXES = ("rusanov", "spectral")
Kept = TypeVar("Kept")  # what _Workspace._recurring builds and keeps
MAX_STEPS = 10 ** 6  # a run refuses more; the deepest ladder rung today takes 10240


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverOptions:
    """Knobs of the stiff integrator; defaults suit the desk-scale demos."""

    cfl: float = 0.45
    flux: str = "rusanov"
    snapshot_stride: int = 0

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if self.flux not in FLUXES:
            raise ValueError(f"flux must be one of {FLUXES}")
        if self.snapshot_stride < 0:
            raise ValueError("snapshot_stride must be nonnegative")


@dataclass(frozen=True)
class StepLog:
    """Per-step scalar records kept as columns: row i is the state at t[i] and the step dt[i] taken from it."""

    t: Sequence[float]
    dt: Sequence[float]
    energy: Sequence[float]
    max_speed: Sequence[float]
    uII_norm2: Sequence[float]

    def __len__(self) -> int:
        return len(self.t)

    def csv(self) -> str:
        """The step log's text: columns t, dt, energy, max_speed."""
        cols = ("t", "dt", "energy", "max_speed")
        return csv_text(cols, np.array([getattr(self, c) for c in cols]))


@dataclass
class Trajectory:
    """Snapshots plus the step log of one integration.

    times and final default to the snapshots' times and the last snapshot; a streamed run,
    which keeps no snapshot, gives them.
    """

    snapshots: List[FieldState]
    records: StepLog
    sup_uI: float
    sup_eps_uII: float
    clamp_events: int = 0  # always 0: run raises where a positive-state system leaves its states
    times: Optional[Array] = None
    final: Optional[FieldState] = None

    def __post_init__(self):
        self.times = np.array([s.t for s in self.snapshots] if self.times is None else self.times)
        if self.final is None and self.snapshots:
            self.final = self.snapshots[-1]

    def steps_csv(self) -> str:
        return self.records.csv()


def snapshot_csv(state: FieldState) -> str:
    """One snapshot in the export schema x[,y],uI_*,uII_*."""
    names = [f"uI_{i + 1}" for i in range(state.k)] + [f"uII_{i + 1}" for i in range(state.m)]
    return field_csv(state.grid, names, [*state.uI.reshape(state.k, -1), *state.uII.reshape(state.m, -1)])


def admissible_fluxes(sys: RelaxationSystem) -> Tuple[str, ...]:
    """Spectral only for a multiplier system, every flux with constant coefficients, else Rusanov."""
    if sys.multiplier is not None:
        return ("spectral",)
    return FLUXES if sys.constant_coefficients else ("rusanov",)


def max_wave_speed(sys: RelaxationSystem, grid: SpatialGrid) -> float:
    """Largest spectral radius of i * principal symbol over points and directions.

    Characteristic speeds of the scaled system are this value divided by the
    relaxation parameter; multiplier systems are integrated exactly per mode,
    so for them the value only enters step-size selection, not stability.
    Constant coefficients give every point the same symbols: one point serves.
    """
    points = grid.sample_points(1 if sys.constant_coefficients else 32)
    syms = principal_symbols(sys, points, unit_directions(grid.d))
    return float(np.max(np.abs(np.linalg.eigvals(1j * syms))))


def squared_norms(uI: Array, uII: Array, vol: float) -> Tuple[float, float]:
    """(||uI||^2, ||uII||^2); the energy is ||uI||^2 + eps^2 ||uII||^2."""
    uI, uII = uI.ravel(), uII.ravel()
    return float(np.dot(uI, uI) * vol), float(np.dot(uII, uII) * vol)


def _along(j: int, start: int, stop: int) -> tuple:
    """The cells start:stop along grid axis j of an (N, *ns) field."""
    return (slice(None),) * (j + 1) + (slice(start, stop),)


def _periodic_shifts(ns: Tuple[int, ...], j: int) -> List[Tuple[int, tuple, tuple]]:
    """(side, cells, neighbours) along axis j of an (N, *ns) field, whose neighbours wrap: cells take a
    product of their up (side 0) or down (side 1) neighbour, in two slices each."""
    n = ns[j]
    return [(0, _along(j, 0, n - 1), _along(j, 1, n)), (0, _along(j, n - 1, n), _along(j, 0, 1)),
            (1, _along(j, 1, n), _along(j, 0, n - 1)), (1, _along(j, 0, 1), _along(j, n - 1, n))]


class _Workspace:
    """One (system, grid, eps): tabulated coefficients, the recurring step's propagator, and the state.

    The state y = (uI, uII), (N, *ns) C-ordered, is advanced in place through work buffers
    allocated here, so a step does its arithmetic and allocates little else.
    """

    def __init__(self, sys: RelaxationSystem, grid: SpatialGrid,
                 eps: float, opts: SolverOptions):
        self.sys = sys
        self.grid = grid
        self.eps = eps
        self.opts = opts
        self.n, self.k, self.m = sys.n, sys.k, sys.m
        self.xflat = grid.flat_points()
        self.speed = max_wave_speed(sys, grid)
        self.eps2_eye = eps ** 2 * np.eye(self.m)[:, :, None]  # the eps^2 I of every per-cell source solve
        self.q_const = constant_matrix(sys.q_nu)  # None for a callable q_nu
        # a callable jacobian of a linear source is evaluated at v = 0
        self.zero_v = np.zeros((self.m, grid.cell_count)) if self.q_const is None else None
        self._kept = {}  # what _recurring keeps for dt_max
        self.y = np.empty((self.n,) + grid.ns)

        if opts.flux not in admissible_fluxes(sys):
            raise SolverError(f"flux {opts.flux} is not admissible for {sys.name or 'this system'}; "
                              f"it admits {', '.join(admissible_fluxes(sys))} (a multiplier needs "
                              f"spectral; spectral needs constant coefficients)")

        if opts.flux == "rusanov":
            self._build_grid_transport()
        else:
            self._build_spectral_transport()
        self.dt_max = self.max_dt()

    # -- step size -----------------------------------------------------------

    def max_dt(self) -> float:
        cfl = self.opts.cfl * (0.5 if self.grid.d == 2 else 1.0)
        s = max(self.speed, 1e-300)
        return cfl * self.eps * min(self.grid.h) / s

    # -- transport tabulation --------------------------------------------------

    def _build_grid_transport(self):
        """Tabulate C_j: M12_j, M21_j / eps^2, and M11_j, M22_j / eps, and the Rusanov radius r_j of each axis.

        C_j is similar to T_j / eps, so eps times its largest spectral radius is a
        wave speed; it raises self.speed where the sampled max_wave_speed missed it.
        Constant blocks are evaluated at one point, a table of one cell.
        """
        grid, n, k, eps = self.grid, self.n, self.k, self.eps
        div = np.full((n, n, 1), eps)
        div[:k, k:], div[k:, :k] = 1.0, eps ** 2
        constant = self.sys.constant_coefficients
        tab = transport_blocks(self.sys, self.xflat[:, :1] if constant else self.xflat) / div
        radii = np.max(np.abs(np.linalg.eigvals(np.moveaxis(tab, -1, 1))), axis=(1, 2))
        if eps * radii.max() > self.speed * (1.0 + 1e-9):
            self.speed = eps * float(radii.max())
        self.radii = [float(r) for r in radii]
        self.cmat = tab[..., 0] if constant else tab.reshape((grid.d, n, n) + grid.ns)
        self.weighted = np.empty((2 * grid.d, n) + grid.ns)  # each neighbour's weights times y
        self.shifts = [(2 * j + side, cells, nbrs) for j in range(grid.d)
                       for side, cells, nbrs in _periodic_shifts(grid.ns, j)]

    def _transport_weights(self, dt: float) -> Tuple[Array, float]:
        """The Rusanov step as weights: y's own, 1 - dt sum_j 2 r_j / 2h_j, and dt (r_j I - C_j) / 2h_j on the
        up neighbour along axis j and dt (r_j I + C_j) / 2h_j on the down one, stacked.

        Constant C_j stack as one (2 d N, N) matrix.  Per-cell C_j(x) stack as (2 d, N, N, *ns), each weight
        rolled onto the neighbour it multiplies (up by +1 along axis j, down by -1): the product at a
        neighbour then takes the cell's own C_j(x), the paper's C(x) dy, not the conservative d(C(x) y).
        """
        per_cell = self.cmat.ndim > 3
        eye = np.eye(self.n).reshape((self.n, self.n) + (1,) * (self.cmat.ndim - 3))
        own, stack = 1.0, []
        for j, (c, r, h) in enumerate(zip(self.cmat, self.radii, self.grid.h)):
            w = dt / (2.0 * h)
            own -= 2.0 * r * w
            up, dn = w * (r * eye - c), w * (r * eye + c)
            stack += [np.roll(up, 1, axis=2 + j), np.roll(dn, -1, axis=2 + j)] if per_cell else [up, dn]
        return (np.stack(stack) if per_cell else np.concatenate(stack)), own

    def _transport_grid(self, dt: float) -> None:
        """The Rusanov step on y in place: y = own y + the up and down neighbours' weights times y, shifted into
        place along each axis."""
        stack, own = self._recurring("transport", self._transport_weights, dt)
        y, weighted = self.y, self.weighted
        if stack.ndim == 2:
            np.matmul(stack, y.reshape(self.n, -1), out=weighted.reshape(len(stack), -1))
        else:
            np.einsum("wab...,b...->wa...", stack, y, out=weighted)
        y *= own
        for w, cells, nbrs in self.shifts:
            y[cells] += weighted[w][nbrs]

    # -- spectral transport ----------------------------------------------------

    def _build_spectral_transport(self):
        """Factor the propagators and allocate apply_modes' scratch.

        P = -i H is the principal symbol at the wavenumbers; S = diag(1, eps) as it moves (U^I, eps U^II).
        """
        grid, eps, n, k = self.grid, self.eps, self.n, self.k
        kappa = grid.wavenumbers().reshape(grid.d, -1)
        hmat = transport_symbols(self.sys, self.xflat[:, :1], kappa)[0].reshape(grid.ns + (n, n))
        vals, vecs, vecs_inv = (a.astype(complex) for a in eig_factors(hmat))
        scale = np.ones(n)
        scale[k:] = eps
        self._factors = vals, vecs, vecs_inv, scale[None, :] / scale[:, None]
        self.work = mode_work(grid, n, n)

    def _propagator(self, dt: float) -> Array:
        """S^-1 exp((dt / eps) P) S per mode, as a mode_table."""
        vals, vecs, vecs_inv, rescale = self._factors
        return mode_table(self.grid, eig_function(vecs, np.exp(-1j * (dt / self.eps) * vals), vecs_inv) * rescale)

    def _recurring(self, name: str, build: Callable[[float], Kept], dt: float) -> Kept:
        """build(dt): dt_max's is kept under name, as every step but a clipped one takes it; any other dt's is
        built per step."""
        if dt != self.dt_max:
            return build(dt)
        if name not in self._kept:
            self._kept[name] = build(dt)
        return self._kept[name]

    # -- source ---------------------------------------------------------------

    def _source(self, dt: float) -> None:
        """The backward-Euler source step on y in place, exact for a source linear in v: q_nu at v = 0."""
        sys, eps = self.sys, self.eps
        uflat = self.y[: self.k].reshape(self.k, -1)  # views, as y is C-ordered
        vflat = self.y[self.k:].reshape(self.m, -1)

        if sys.dtilde_I is not None or sys.reaction is not None:  # lower-order terms of uI's equation
            uflat += dt * (sys.lower_order_I(self.xflat, uflat, vflat, eps) + sys.reaction_term(uflat))
        rhs = eps ** 2 * vflat
        if sys.d_II is not None:
            rhs += dt * sys.lower_order_II(uflat, eps * vflat)

        if self.q_const is None:
            vflat[...] = solve_points(self.eps2_eye - dt * sys.stiff_source_jacobian(self.xflat, uflat, self.zero_v),
                                      rhs)
        elif self.m == 1:
            np.divide(rhs, self._recurring("source", self._source_matrix, dt), out=vflat)
        else:
            np.matmul(self._recurring("source", self._source_matrix, dt), rhs, out=vflat)

    def _source_matrix(self, dt: float) -> Array:
        """eps^2 I - dt q_nu of a constant q_nu, (1, 1), or its inverse if m > 1: one matrix for every cell.

        SolverError if its condition number exceeds 1e12, as it may where dissipativity is waived.
        """
        mat = self.eps ** 2 * np.eye(self.m) - dt * self.q_const
        if not (cond := np.linalg.cond(mat)) <= 1e12:
            raise SolverError(f"the source matrix eps^2 I - dt q_nu at eps={self.eps:g}, dt={dt:.6g} is singular "
                              f"to working precision: condition number {cond:.3g} > 1e12")
        return mat if self.m == 1 else np.linalg.inv(mat)

    # -- one full step ----------------------------------------------------------

    def advance(self, dt: float) -> None:
        """Advance y by one step in place."""
        if self.opts.flux == "spectral":
            apply_modes(self.grid, self._recurring("propagator", self._propagator, dt), self.y,
                        out=self.y, work=self.work)
        else:
            if dt > self.dt_max * (1.0 + 1e-9):
                raise SolverError(
                    f"time step {dt:.3e} violates the transport stability bound {self.dt_max:.3e}"
                )
            self._transport_grid(dt)
        self._source(dt)

    def step(self, uI: Array, uII: Array, dt: float) -> Tuple[Array, Array]:
        """(uI, uII) advanced by one step, through copies in and out of y."""
        self.y[: self.k], self.y[self.k:] = uI, uII
        self.advance(dt)
        return self.y[: self.k].copy(), self.y[self.k:].copy()

    def check_positive(self, uI: Array, t: float) -> None:
        """SolverError naming the lowest uI, and its first cell, where a positive-state system's is not positive."""
        if self.sys.positive_states and not uI.min() > 0.0:
            low = uI.reshape(self.k, -1).min(axis=0)
            cell = int(np.argmin(low))
            raise SolverError(f"uI left the positive states of {self.sys.name or 'this system'} "
                              f"at eps={self.eps:g}, t={t:.7g}: uI={low[cell]:.6g} at cell {cell} "
                              f"(x={', '.join(f'{v:.8g}' for v in self.xflat[:, cell])})")


def step(sys: RelaxationSystem, state: FieldState, dt: float,
         opts: Optional[SolverOptions] = None) -> FieldState:
    """Advance one state by a single splitting step (standalone convenience)."""
    opts = opts or SolverOptions()
    ws = _Workspace(sys, state.grid, state.eps, opts)
    uI, uII = ws.step(state.uI, state.uII, dt)
    return state.with_fields(uI, uII, t=state.t + dt)


def run(
    sys: RelaxationSystem,
    init: FieldState,
    T: float,
    opts: Optional[SolverOptions] = None,
    snapshot_times: Optional[Sequence[float]] = None,
    on_snapshot: Optional[Callable[[FieldState], None]] = None,
) -> Trajectory:
    """Integrate to time T with the stability-bound step size.

    The stiff source is taken as linear in v, q = q_nu(x, u, 0) z, and each step solves it
    exactly; callers are expected to have validated the system, whose source_structure check
    certifies that (or to be deliberately running a structure-violating fixture).  Snapshots
    are taken at the plan_times of snapshot_times, landed on exactly, or every snapshot_stride
    steps; the initial and final states are always included.  Each snapshot
    goes to on_snapshot, if given, as soon as it is taken, and the run then keeps
    only its time: the trajectory's snapshots are empty, and its final state is the
    workspace's.  A negative or non-finite T raises ValueError.  SolverError is
    raised if T needs more than MAX_STEPS steps (ceil(T / dt)), and at the first
    state that is non-finite or, for positive_states, has uI <= 0.  The state lives
    in the workspace and is advanced in place; snapshots are copies of it, and init
    is only read.
    """
    opts = opts or SolverOptions()
    pending = plan_times(T, snapshot_times)
    grid = init.grid
    ws = _Workspace(sys, grid, init.eps, opts)
    vol = grid.cell_volume
    eps = init.eps
    eps2 = eps ** 2
    uI, uII = ws.y[: sys.k], ws.y[sys.k:]  # views of the state
    uI[...], uII[...] = init.uI, init.uII

    snapshots: List[FieldState] = []
    times: List[float] = []

    def take(t: float) -> None:
        snap = FieldState(grid, uI.copy(), uII.copy(), t, eps)
        times.append(t)
        if on_snapshot is None:
            snapshots.append(snap)
        else:
            on_snapshot(snap)

    t = 0.0
    speed_scaled = ws.speed / eps
    rows: List[Tuple[float, ...]] = []  # the step log's rows, transposed into its columns at the end
    nI2, nII2 = squared_norms(uI, uII, vol)
    top_nI2, top_nII2 = nI2, nII2  # sqrt and eps * sqrt are monotone, so their maxima are these maxima's

    dt_max = ws.dt_max
    if T > MAX_STEPS * dt_max:  # dt_max is 0 if a subnormal eps underflowed it
        raise SolverError(f"T={T:g} at eps={eps:g} needs {np.ceil(T / dt_max) if dt_max else math.inf:.6g} "
                          f"steps of dt={dt_max:.6g}, more than MAX_STEPS = {MAX_STEPS}")
    ws.check_positive(uI, t)
    take(t)
    nsteps = 0
    tiny = 1e-12 * max(T, 1.0)
    while t < T - tiny:
        dt = min(dt_max, T - t)
        if pending[0] - t > tiny:
            dt = min(dt, pending[0] - t)
        rows.append((t, dt, nI2 + eps2 * nII2, speed_scaled, nII2))
        ws.advance(dt)
        nI2, nII2 = squared_norms(uI, uII, vol)
        if not math.isfinite(nI2 + nII2):  # a non-finite entry, or a finite state whose norm overflows
            bad = ~np.isfinite(ws.y.reshape(sys.n, -1)).all(axis=0)
            if bad.any():
                raise SolverError(f"state became non-finite at t={t + dt:.6g}, cell {int(np.argmax(bad))}")
        t += dt
        ws.check_positive(uI, t)
        nsteps += 1
        top_nI2, top_nII2 = max(top_nI2, nI2), max(top_nII2, nII2)
        due = bisect.bisect_right(pending, t + tiny)  # T among them at the last step
        del pending[:due]
        strided = opts.snapshot_stride > 0 and nsteps % opts.snapshot_stride == 0
        if due or strided:
            take(t)

    rows.append((t, 0.0, nI2 + eps2 * nII2, speed_scaled, nII2))
    return Trajectory(snapshots=snapshots, records=StepLog(*zip(*rows)),
                      sup_uI=math.sqrt(top_nI2), sup_eps_uII=eps * math.sqrt(top_nII2), times=times,
                      final=None if snapshots else FieldState(grid, uI, uII, t, eps))


def well_prepared_state(
    sys: RelaxationSystem, grid: SpatialGrid, uI: Array, eps: float
) -> FieldState:
    """Initial data on the local-equilibrium manifold (no initial layer)."""
    uII = equilibrium_uII(sys, grid, uI)
    return FieldState(grid, np.asarray(uI, dtype=float), uII, 0.0, eps)


__all__ = [
    "SolverError",
    "SolverOptions",
    "admissible_fluxes",
    "MAX_STEPS",
    "StepLog",
    "Trajectory",
    "snapshot_csv",
    "max_wave_speed",
    "squared_norms",
    "step",
    "run",
    "well_prepared_state",
]
