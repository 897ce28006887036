"""Reference solutions of the limit parabolic systems, advanced one output span per step.

These integrators are deliberately a different discretization family from
the stiff hyperbolic solver (exact Fourier propagation for constant
diffusion, Crank-Nicolson with central differences for callable diffusion,
both second order in time), so that agreement between the two is evidence
of the analytic limit rather than shared bias.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import hypersolver
from .builder import ParabolicTarget, QuasilinearDivergence, ReactionDiffusion, _block_matrix
from .core import (Array, SpatialGrid, apply_modes, eig_factors, eig_function, field_csv, mode_table,
                   plan_times)

PICARD_TOL = 1e-11
PICARD_MAXITER = 50


class ReferenceError(RuntimeError):
    pass


def reference_csv(grid: SpatialGrid, u: Array) -> str:
    """One reference snapshot in the export schema x[,y],u_1..u_k."""
    return field_csv(grid, [f"u_{i + 1}" for i in range(len(u))], u.reshape(len(u), -1))


# ---------------------------------------------------------------------------
# time-stepping drivers


def reference_fields(
    target: ParabolicTarget,
    u0: Array,
    grid: SpatialGrid,
    T: float,
    dt: Optional[float] = None,
    snapshot_times: Optional[Sequence[float]] = None,
) -> Iterator[Tuple[float, Array]]:
    """The parabolic target's solution, yielded as (t, u) one output time at a time up to T.

    The initial state comes first, then the solution at each plan_times time; each u
    is a new array the iteration does not touch again.  Each output span is one call
    stepper.step(u, span, nsub) with nsub = ceil(span / dt) sub-steps of
    span / nsub (dt defaults to T / 1000), each second order in dt.  Constant
    diffusion goes through _LinearRD, which maps a span without a reaction
    exactly and ignores nsub; callable diffusion through _PicardQL.  A negative
    or non-finite T, dt <= 0, or ceil(T / dt) above hypersolver.MAX_STEPS raises
    ValueError in this call, before any step.  Parabolicity of the target is the
    caller's responsibility to have verified.
    """
    spans = plan_times(T, snapshot_times)
    if dt is not None and not dt > 0:
        raise ValueError(f"reference step dt must be positive, got {dt:g}")
    if dt is None:
        dt = T / 1000.0 if T > 0 else 1.0
    if (steps := np.ceil(T / dt)) > hypersolver.MAX_STEPS:
        raise ValueError(f"reference to T={T:g} needs {steps:.6g} steps of dt={dt:.6g}, "
                         f"more than MAX_STEPS = {hypersolver.MAX_STEPS}")
    if isinstance(target, ReactionDiffusion) and not callable(target.diffusion):
        stepper = _LinearRD(target, grid)
    elif isinstance(target, (ReactionDiffusion, QuasilinearDivergence)):
        stepper = _PicardQL(target, grid)
    else:
        raise TypeError(f"unsupported target {type(target)!r}")
    return _advance(stepper, np.asarray(u0, dtype=float).copy(), spans, dt)


def _advance(stepper, u: Array, spans: List[float], dt: float) -> Iterator[Tuple[float, Array]]:
    """(0, u), then (t, u) at the end of each positive span of reference_fields."""
    t = 0.0
    yield t, u
    for t_next in spans:
        span = t_next - t
        if span <= 0:
            continue
        u = stepper.step(u, span, max(1, int(np.ceil(span / dt - 1e-12))))
        t = t_next
        yield t, u


def run_reference(
    target: ParabolicTarget,
    u0: Array,
    grid: SpatialGrid,
    T: float,
    dt: Optional[float] = None,
    snapshot_times: Optional[Sequence[float]] = None,
) -> Tuple[Array, Array]:
    """(times, fields) of reference_fields collected: fields[s] is the solution at times[s]."""
    times, fields = zip(*reference_fields(target, u0, grid, T, dt, snapshot_times))
    return np.array(times), np.stack(fields)


class _LinearRD:
    """Exact Fourier propagation of constant diffusion, exact in time for any span.

    A reaction f joins by Strang splitting at dt = span / nsub (half map, Heun step of u' = f(u),
    half map), the half maps between Heun steps merged: nsub + 1 maps a span, built per span.
    """

    def __init__(self, target: ReactionDiffusion, grid: SpatialGrid):
        self.grid, self.f, self.k = grid, target.f, target.k
        self.vals, self.vecs, self.vecs_inv = eig_factors(-target.mode_symbols(grid))

    def _diffusion(self, dt: float) -> Callable[[Array], Array]:
        prop = mode_table(self.grid, eig_function(self.vecs, np.exp(dt * self.vals), self.vecs_inv))
        return lambda u: apply_modes(self.grid, prop, u)

    def step(self, u: Array, span: float, nsub: int) -> Array:
        if self.f is None:
            return self._diffusion(span)(u)
        dt = span / nsub
        half = self._diffusion(0.5 * dt)
        full = self._diffusion(dt) if nsub > 1 else half
        v = half(u).reshape(self.k, -1)
        for i in range(nsub):
            rate = self.f(v)
            v = v + 0.5 * dt * (rate + self.f(v + dt * rate))
            v = (full if i < nsub - 1 else half)(v.reshape(u.shape)).reshape(self.k, -1)
        return v.reshape(u.shape)


class _PicardQL:
    """Crank-Nicolson steps of any callable diffusion, central differences.

    A quasilinear target u_t = div(B(u) grad u) - div f(u) + g(u) takes
    divergence placement.  A reaction-diffusion target u_t = sum A_ij(x) d_i d_j u
    + f(u) takes non-divergence placement with g = f and no flux; its blocks come
    from diffusion_at once, so its operator is assembled and factorized once per
    distinct dt.  Each Picard sweep evaluates B, f and g at the midpoint
    m = (u^n + guess) / 2 and solves
    (I - dt/2 L(m)) u = (I + dt/2 L(m)) u^n - dt div f(m) + dt g(m);
    the sweeps stop once no entry moves by more than PICARD_TOL.  A reaction-diffusion
    target without a reaction is linear: nothing in its solve depends on the guess, so
    its first solve is the step.
    """

    def __init__(self, target: ParabolicTarget, grid: SpatialGrid):
        from . import sparseops  # SciPy loads here, for the only reference that solves with it

        self.grid = grid
        self.k = target.k
        # central difference taps per axis as (shifted flat index, weight)
        self.d1 = [[(sparseops.shifted(grid, o), w) for o, w in sparseops.differences(grid, i)[0]]
                   for i in range(grid.d)]
        rd = isinstance(target, ReactionDiffusion)
        self.linear = rd and target.f is None
        op = sparseops.BlockOperator(grid, self.k, divergence=not rd)
        if rd:
            blocks = target.diffusion_at(grid.flat_points())
            frozen = functools.cache(functools.partial(op.crank_nicolson, blocks))
            self.diffusion, self.flux, self.g = (lambda u: blocks), None, target.f
            self._crank_nicolson = lambda _, dt: frozen(dt)
        else:
            self.diffusion, self.flux, self.g = target.diffusion, target.flux, target.g
            self._crank_nicolson = op.crank_nicolson

    def step(self, u: Array, span: float, nsub: int) -> Array:
        for _ in range(nsub):
            u = self._step(u, span / nsub)
        return u

    def _step(self, u: Array, dt: float) -> Array:
        grid, k = self.grid, self.k
        shape = u.shape
        uflat2 = u.reshape(k, -1)
        start = u.reshape(-1)
        guess = start
        for _ in range(PICARD_MAXITER):
            lagged = (0.5 * (start + guess)).reshape(k, -1)  # the midpoint of the step
            blocks = np.asarray(self.diffusion(lagged), dtype=float)
            bad = np.flatnonzero(~np.isfinite(blocks))
            if bad.size:
                i, j, a, b, cell = np.unravel_index(bad[0], blocks.shape)
                raise ReferenceError(
                    f"lagged diffusion coefficient B_{i + 1}{j + 1}[{a + 1},{b + 1}] is "
                    f"{float(blocks.flat[bad[0]])} at cell {cell} "
                    f"(x = {grid.flat_points()[:, cell].tolist()}, u = {lagged[:, cell].tolist()})"
                )
            forcing = 0.0
            if self.flux is not None:
                fl = np.asarray(self.flux(lagged), dtype=float)  # (d, k, M)
                div = sum(w * fl[i][:, idx] for i in range(grid.d) for idx, w in self.d1[i])
                forcing -= dt * div.reshape(-1)
            if self.g is not None:
                forcing += dt * np.asarray(self.g(lagged), dtype=float).reshape(-1)
            try:
                explicit, solve = self._crank_nicolson(blocks, dt)
                new = solve(explicit(start) + forcing)
            except (RuntimeError, np.linalg.LinAlgError) as err:
                raise ReferenceError(f"linear solve failed: {err}") from err
            if self.linear:
                return new.reshape(shape)
            inc = np.abs(new - guess)
            worst = int(np.argmax(inc))
            if inc[worst] <= PICARD_TOL:
                return new.reshape(shape)
            guess = new
        comp, cell = divmod(worst, grid.cell_count)
        msg = (f"lagged-coefficient iteration did not reach {PICARD_TOL:g} "
               f"in {PICARD_MAXITER} sweeps; the last max increment was {inc[worst]:.3g} "
               f"in component {comp + 1} at cell {cell} (x = {grid.flat_points()[:, cell].tolist()})")
        bmat = _block_matrix(np.asarray(self.diffusion(uflat2), dtype=float), grid.cell_count).transpose(2, 0, 1)
        lowest = np.linalg.eigvalsh(0.5 * (bmat + bmat.transpose(0, 2, 1)))[:, 0]
        bad = np.flatnonzero(lowest <= 0.0)
        if bad.size:  # a witness that does not depend on where the iteration wandered
            c = int(bad[0])
            msg += (f"; at the step's start B(u) is not positive definite at cell {c} "
                    f"(x = {grid.flat_points()[:, c].tolist()}, u = {uflat2[:, c].tolist()}, "
                    f"smallest eigenvalue of its symmetric part {lowest[c]:.3g})")
        raise ReferenceError(msg)


# ---------------------------------------------------------------------------
# exact single-mode oracle for constant coefficients


@dataclass(frozen=True)
class ModeOracle:
    """Exact solution data of one Fourier mode of the relaxation pair.

    The pair obeys u' = -i r v, eps^2 v' = -i r u - v with r = sqrt(s) and
    s the contracted diffusion symbol; its characteristic equation is
    eps^2 lambda^2 + lambda + s = 0.  For complex root pairs the 'slow' and
    'fast' labels refer to the same decay rate.
    """

    s: float
    eps: float
    lambda_slow: complex
    lambda_fast: complex

    def evolve(self, u0: complex, v0: complex, t: float) -> Tuple[complex, complex]:
        """Exact mode amplitudes at time t from amplitudes (u0, v0) at 0."""
        r = np.sqrt(self.s)
        lam1, lam2 = self.lambda_slow, self.lambda_fast
        du0 = -1j * r * v0
        if abs(lam1 - lam2) < 1e-13 * max(1.0, abs(lam1)):
            # defective (critically damped) corner case
            c1 = u0
            c2 = du0 - lam1 * u0
            ut = (c1 + c2 * t) * np.exp(lam1 * t)
            dut = (c2 + lam1 * (c1 + c2 * t)) * np.exp(lam1 * t)
        else:
            c1 = (du0 - lam2 * u0) / (lam1 - lam2)
            c2 = u0 - c1
            ut = c1 * np.exp(lam1 * t) + c2 * np.exp(lam2 * t)
            dut = c1 * lam1 * np.exp(lam1 * t) + c2 * lam2 * np.exp(lam2 * t)
        vt = dut / (-1j * r) if r != 0 else v0 * np.exp(-t / self.eps ** 2)
        return complex(ut), complex(vt)


def _contracted_symbol(diffusion, kvec) -> float:
    kvec = np.atleast_1d(np.asarray(kvec, dtype=float))
    a = np.asarray(diffusion, dtype=float)
    if a.ndim == 0:
        if kvec.size != 1:
            raise ValueError("scalar diffusion needs a one-dimensional wave vector")
        return float(a * kvec[0] ** 2)
    if a.ndim == 2 and a.shape == (kvec.size, kvec.size):
        return float(kvec @ a @ kvec)
    if a.ndim == 4 and a.shape[2:] == (1, 1):
        return float(np.einsum("j,l,jl->", kvec, kvec, a[:, :, 0, 0]))
    raise ValueError(f"cannot contract diffusion data of shape {a.shape}")


def exact_mode_oracle(diffusion, kvec, t: float, eps: Optional[float] = None):
    """Ground truth for one Fourier mode of a scalar constant-coefficient system.

    Without eps, returns the parabolic amplitude factor exp(-s t) where s is
    the contracted diffusion symbol.  With eps, returns a ModeOracle holding
    both roots of eps^2 lambda^2 + lambda + s = 0 and the exact evolution of
    the relaxation pair.
    """
    s = _contracted_symbol(diffusion, kvec)
    if eps is None:
        return float(np.exp(-s * t))
    disc = complex(1.0 - 4.0 * eps ** 2 * s)
    root = np.sqrt(disc)
    lam_slow = (-1.0 + root) / (2.0 * eps ** 2)
    lam_fast = (-1.0 - root) / (2.0 * eps ** 2)
    return ModeOracle(s=s, eps=eps, lambda_slow=complex(lam_slow), lambda_fast=complex(lam_fast))


def oracle_ladder_errors(times: Sequence[float], eps_list: Sequence[float]) -> List[float]:
    """errI per eps that the exact mode pair predicts for the unit heat ladder.

    The well-prepared sin(2 pi x) mode of unit amplitude and diffusion,
    evolved exactly, against the parabolic decay exp(-(2 pi)^2 t), in the
    ladder's space-time L2 metric (trapezoid rule over `times`; the mode's
    mean square on the unit period is 1/2).
    """
    times = np.asarray(times, dtype=float)
    xi = 2.0 * np.pi
    errs = []
    for eps in eps_list:
        orc = exact_mode_oracle(1.0, [xi], times[-1], eps=eps)
        vals = [abs(orc.evolve(1.0, -1j * xi, t)[0] - np.exp(-xi ** 2 * t)) ** 2 * 0.5
                for t in times]
        errs.append(float(np.sqrt(np.trapezoid(vals, times))))
    return errs


__all__ = [
    "ReferenceError",
    "reference_csv",
    "reference_fields",
    "run_reference",
    "ModeOracle",
    "exact_mode_oracle",
    "oracle_ladder_errors",
    "PICARD_TOL",
    "PICARD_MAXITER",
]
