"""Stiff time integration of the scaled relaxation system on periodic grids.

One step is a Lie splitting: an explicit transport update whose numerical
dissipation travels at the stiff characteristic speed, followed by a
pointwise implicit solve of the relaxation source, unconditionally stable in
the relaxation parameter.  Transport is done with a Rusanov flux on the grid,
or exactly in Fourier space from the transport symbol (constant coefficients,
multiplier systems included).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    Array,
    FieldState,
    RelaxationSystem,
    SpatialGrid,
    apply_modes,
    csv_text,
    eig_factors,
    eig_function,
    equilibrium_uII,
    field_csv,
    plan_times,
    principal_symbols,
    solve_points,
    transport_blocks,
    transport_symbols,
    unit_directions,
)

FLUXES = ("rusanov", "spectral")
NEWTON_TOL = 1e-12
NEWTON_MAXITER = 25
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
class StepRecord:
    t: float
    dt: float
    energy: float
    max_speed: float
    uII_norm2: float


@dataclass
class Trajectory:
    """Snapshots plus per-step scalar records of one integration."""

    snapshots: List[FieldState]
    records: List[StepRecord]
    sup_uI: float
    sup_eps_uII: float
    clamp_events: int = 0  # always 0: run raises where a positive-state system leaves its states

    @property
    def final(self) -> FieldState:
        return self.snapshots[-1]

    @property
    def times(self) -> Array:
        return np.array([s.t for s in self.snapshots])

    def steps_csv(self) -> str:
        cols = ("t", "dt", "energy", "max_speed")
        return csv_text(cols, np.array([[getattr(r, c) for r in self.records] for c in cols]))


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
    """
    syms = principal_symbols(sys, grid.sample_points(32), unit_directions(grid.d))
    return float(np.max(np.abs(np.linalg.eigvals(1j * syms))))


def squared_norms(uI: Array, uII: Array, vol: float) -> Tuple[float, float]:
    """(||uI||^2, ||uII||^2); the energy is ||uI||^2 + eps^2 ||uII||^2."""
    return float(np.sum(uI ** 2) * vol), float(np.sum(uII ** 2) * vol)


def _coefficient_product(mat: Array) -> Callable[[Array], Array]:
    """x -> einsum("ab...,b...->a...", mat, x), over mat's nonzero coefficients where the bits allow.

    A row of at most two nonzero products sums to the same bits in any order, and
    einsum's zero products add nothing but a +0.0 start, which a zeroed output
    supplies.  Three nonzero products sum in an order that follows the operand's
    memory layout, so such a matrix, and a per-cell table (n, n, *ns), keep einsum.
    """
    if mat.ndim != 2 or np.count_nonzero(mat, axis=1).max() > 2:
        return functools.partial(np.einsum, "ab...,b...->a...", mat)
    terms = [(a, b, mat[a, b]) for a, b in zip(*np.nonzero(mat))]

    def product(x: Array) -> Array:
        out = np.zeros(mat.shape[:1] + x.shape[1:])
        for a, b, coef in terms:
            out[a] += coef * x[b]
        return out
    return product


class _Workspace:
    """Tabulated coefficients and cached propagators for one (system, grid, eps)."""

    def __init__(self, sys: RelaxationSystem, grid: SpatialGrid,
                 eps: float, opts: SolverOptions):
        self.sys = sys
        self.grid = grid
        self.eps = eps
        self.opts = opts
        self.n, self.k, self.m = sys.n, sys.k, sys.m
        self.xflat = grid.flat_points()
        self.speed = max_wave_speed(sys, grid)
        self.eps2_eye = eps ** 2 * np.eye(self.m)[:, :, None]  # the eps^2 I of every source solve
        self.zero_v = np.zeros((self.m, grid.cell_count))

        if opts.flux not in admissible_fluxes(sys):
            raise SolverError(f"flux {opts.flux} is not admissible for {sys.name or 'this system'}; "
                              f"it admits {', '.join(admissible_fluxes(sys))} (a multiplier needs "
                              f"spectral; spectral needs constant coefficients)")

        if opts.flux == "rusanov":
            self._build_grid_transport()
        else:
            self._build_spectral_transport()

    # -- step size -----------------------------------------------------------

    def max_dt(self) -> float:
        cfl = self.opts.cfl * (0.5 if self.grid.d == 2 else 1.0)
        s = max(self.speed, 1e-300)
        return cfl * self.eps * min(self.grid.h) / s

    # -- transport tabulation --------------------------------------------------

    def _build_grid_transport(self):
        """Tabulate C_j: M12_j, M21_j / eps^2, and M11_j, M22_j / eps.

        C_j is similar to T_j / eps, so eps times its largest spectral radius is a
        wave speed; it raises self.speed where the sampled max_wave_speed missed it.
        """
        grid, n, k, eps = self.grid, self.n, self.k, self.eps
        div = np.full((n, n, 1), eps)
        div[:k, k:], div[k:, :k] = 1.0, eps ** 2
        tab = transport_blocks(self.sys, self.xflat) / div
        # one C_j per axis if constant, so one spectral radius per axis, else one per cell
        if self.sys.constant_coefficients:
            self.cmat = tab[..., 0].copy()
            radii = np.max(np.abs(np.linalg.eigvals(self.cmat)), axis=1)
        else:
            self.cmat = tab.reshape((grid.d, n, n) + grid.ns)
            radii = np.max(np.abs(np.linalg.eigvals(np.moveaxis(tab, -1, 1))), axis=(1, 2))
        if eps * radii.max() > self.speed * (1.0 + 1e-9):
            self.speed = eps * float(radii.max())
        self.advect = [_coefficient_product(c) for c in self.cmat]
        # the Rusanov dissipation radius_j * I, not a scalar multiply: radius * x would
        # keep a -0.0 that einsum's +0.0 start does not
        self.dissipate = [_coefficient_product(float(r) * np.eye(n)) for r in radii]

    def _transport_grid(self, y: Array, dt: float) -> Array:
        grid = self.grid
        out = y.copy()
        for j in range(grid.d):
            ax = 1 + j
            h = grid.h[j]
            up = np.roll(y, -1, axis=ax)
            dn = np.roll(y, +1, axis=ax)
            adv = self.advect[j]((up - dn) / (2.0 * h))
            diss = self.dissipate[j]((up - 2.0 * y + dn) / (2.0 * h))
            out += dt * (diss - adv)
        return out

    # -- spectral transport ----------------------------------------------------

    def _build_spectral_transport(self):
        """Set self._propagator: dt -> S^-1 exp((dt / eps) P) S per mode, (*ns, N, N) complex.

        P = -i H is the principal symbol at the wavenumbers; S = diag(1, eps) as it moves (U^I, eps U^II).
        """
        grid, eps, n, k = self.grid, self.eps, self.n, self.k
        kappa = grid.wavenumbers().reshape(grid.d, -1)
        hmat = transport_symbols(self.sys, self.xflat[:, :1], kappa)[0].reshape(grid.ns + (n, n))
        vals, vecs, vecs_inv = (a.astype(complex) for a in eig_factors(hmat))
        scale = np.ones(n)
        scale[k:] = eps
        rescale = scale[None, :] / scale[:, None]

        def propagator(dt: float) -> Array:
            return eig_function(vecs, np.exp(-1j * (dt / eps) * vals), vecs_inv) * rescale
        self._propagator = functools.cache(propagator)  # one propagator per distinct dt

    # -- source ---------------------------------------------------------------

    def _source(self, uI: Array, uII: Array, dt: float) -> Tuple[Array, Array]:
        sys, eps = self.sys, self.eps
        uflat = uI.reshape(self.k, -1)
        vflat = uII.reshape(self.m, -1)

        # absent lower-order terms are not evaluated; a scalar 0.0 gives the bits of dt * zeros
        absent = sys.dtilde_I is None and sys.reaction is None
        du = 0.0 if absent else sys.lower_order_I(self.xflat, uflat, vflat, eps) + sys.reaction_term(uflat)
        unew = uflat + dt * du

        d2 = 0.0 if sys.d_II is None else sys.lower_order_II(unew, eps * vflat)
        rhs = eps ** 2 * vflat + dt * d2

        # a source linear in v is solved exactly with its jacobian at v = 0; any other by Newton
        if sys.source_linear_in_v:
            cmat = sys.stiff_source_jacobian(self.xflat, unew, self.zero_v)
            vnew = solve_points(self.eps2_eye - dt * cmat, rhs)
        else:
            vnew = self._newton_source(unew, vflat, rhs, dt)

        return unew.reshape(uI.shape), vnew.reshape(uII.shape)

    def _newton_source(self, u: Array, v0: Array, rhs: Array, dt: float) -> Array:
        sys, eps = self.sys, self.eps
        v = v0.copy()
        for _ in range(NEWTON_MAXITER):
            res = eps ** 2 * v - (dt / eps) * sys.stiff_source(self.xflat, u, eps * v) - rhs
            jac = sys.stiff_source_jacobian(self.xflat, u, eps * v)
            delta = solve_points(self.eps2_eye - dt * jac, res)
            v = v - delta
            if float(np.max(np.abs(delta))) <= NEWTON_TOL * (1.0 + float(np.max(np.abs(v)))):
                return v
        worst = int(np.argmax(np.max(np.abs(delta), axis=0)))
        raise SolverError(
            f"newton source solve failed to converge at cell {worst} "
            f"(last update {np.max(np.abs(delta)):.3e})"
        )

    # -- one full step ----------------------------------------------------------

    def step(self, uI: Array, uII: Array, dt: float) -> Tuple[Array, Array]:
        y = np.concatenate([uI, uII], axis=0)
        if self.opts.flux != "spectral":
            if dt > self.max_dt() * (1.0 + 1e-9):
                raise SolverError(
                    f"time step {dt:.3e} violates the transport stability bound {self.max_dt():.3e}"
                )
            y = self._transport_grid(y, dt)
        else:
            y = apply_modes(self.grid, self._propagator(dt), y)
        return self._source(y[: self.k], y[self.k:], dt)

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

    Callers are expected to have validated the system (or to be deliberately
    running a structure-violating fixture).  Snapshots are taken at the
    plan_times of snapshot_times, landed on exactly, or every snapshot_stride
    steps; the initial and final states are always included.  Each snapshot
    goes to on_snapshot, if given, as soon as it is taken.  A negative or
    non-finite T raises ValueError.  SolverError is raised if T needs more than
    MAX_STEPS steps (ceil(T / dt)), and at the first state that is non-finite or,
    for positive_states, has uI <= 0.
    """
    opts = opts or SolverOptions()
    pending = plan_times(T, snapshot_times)
    grid = init.grid
    ws = _Workspace(sys, grid, init.eps, opts)
    vol = grid.cell_volume
    eps = init.eps
    speed_scaled = ws.speed / eps

    snapshots: List[FieldState] = []

    def take(uI: Array, uII: Array, t: float) -> None:
        snapshots.append(FieldState(grid, uI.copy(), uII.copy(), t, eps))
        if on_snapshot is not None:
            on_snapshot(snapshots[-1])

    uI, uII = init.uI.copy(), init.uII.copy()
    t = 0.0
    records: List[StepRecord] = []
    nI2, nII2 = squared_norms(uI, uII, vol)
    sup_uI = float(np.sqrt(nI2))
    sup_eps_uII = eps * float(np.sqrt(nII2))

    dt_max = ws.max_dt()
    if T > MAX_STEPS * dt_max:  # dt_max is 0 if a subnormal eps underflowed it
        raise SolverError(f"T={T:g} at eps={eps:g} needs {np.ceil(T / dt_max) if dt_max else math.inf:.6g} "
                          f"steps of dt={dt_max:.6g}, more than MAX_STEPS = {MAX_STEPS}")
    ws.check_positive(uI, t)
    take(uI, uII, t)
    nsteps = 0
    tiny = 1e-12 * max(T, 1.0)
    while t < T - tiny:
        dt = min(dt_max, T - t)
        if pending[0] - t > tiny:
            dt = min(dt, pending[0] - t)
        records.append(StepRecord(t, dt, nI2 + eps ** 2 * nII2, speed_scaled, nII2))
        uI, uII = ws.step(uI, uII, dt)
        nI2, nII2 = squared_norms(uI, uII, vol)
        if not math.isfinite(nI2 + nII2):  # a non-finite entry, or a finite state whose norm overflows
            bad = ~np.isfinite(np.concatenate([uI.reshape(sys.k, -1), uII.reshape(sys.m, -1)])).all(axis=0)
            if bad.any():
                raise SolverError(f"state became non-finite at t={t + dt:.6g}, cell {int(np.argmax(bad))}")
        t += dt
        ws.check_positive(uI, t)
        nsteps += 1
        sup_uI = max(sup_uI, float(np.sqrt(nI2)))
        sup_eps_uII = max(sup_eps_uII, eps * float(np.sqrt(nII2)))
        due = bisect.bisect_right(pending, t + tiny)  # T among them at the last step
        del pending[:due]
        strided = opts.snapshot_stride > 0 and nsteps % opts.snapshot_stride == 0
        if due or strided:
            take(uI, uII, t)

    records.append(StepRecord(t, 0.0, nI2 + eps ** 2 * nII2, speed_scaled, nII2))
    return Trajectory(snapshots=snapshots, records=records, sup_uI=sup_uI, sup_eps_uII=sup_eps_uII)


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
    "NEWTON_TOL",
    "NEWTON_MAXITER",
    "MAX_STEPS",
    "StepRecord",
    "Trajectory",
    "snapshot_csv",
    "max_wave_speed",
    "squared_norms",
    "step",
    "run",
    "well_prepared_state",
]
