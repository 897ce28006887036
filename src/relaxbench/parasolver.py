"""Reference solutions of the limit parabolic systems, advanced one output span per step.

These integrators are deliberately a different time discretization from the
stiff hyperbolic solver (exact Fourier propagation for constant diffusion,
Crank-Nicolson with Fourier collocation for callable diffusion, both second
order in time), so that agreement between the two is evidence of the analytic
limit rather than shared bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import hypersolver
from .builder import ParabolicTarget, QuasilinearDivergence, ReactionDiffusion, _block_matrix
from .core import (Array, SpatialGrid, apply_modes, derivative_wavenumbers, eig_factors, eig_function, field_csv,
                   from_modes, gradient_modes, mode_product, mode_table, mode_work, parseval_weights, plan_times,
                   to_modes)

PICARD_TOL = 1e-11
PICARD_MAXITER = 50
KRYLOV_TOL = 1e-13  # relative residual at which a Crank-Nicolson solve of _PicardQL stops
KRYLOV_MAXITER = 50
# weights, oldest state first, of the polynomial through a span's last 1, 2 or 3 states, at the next step
_EXTRAPOLATION = {1: (1.0,), 2: (-1.0, 2.0), 3: (1.0, -3.0, 3.0)}


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
        kappa = grid.wavenumbers().reshape(grid.d, -1)
        self.vals, self.vecs, self.vecs_inv = eig_factors(-target.second_order_symbols(np.zeros((grid.d, 1)), kappa)[0])

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
    """Crank-Nicolson steps of any callable diffusion, Fourier collocation in space.

    A quasilinear target u_t = div(B(u) grad u) - div f(u) + g(u) takes divergence placement,
    L(m) w = sum_ij d_i(B_ij(m) d_j w), with a spectral flux divergence.  A reaction-diffusion
    target u_t = sum A_ij(x) d_i d_j u + f(u) takes non-divergence placement, L w = sum_ij A_ij d_i d_j w,
    with g = f and no flux; its blocks come from diffusion_at once.  Every derivative is a product
    of first derivatives without the unpaired Nyquist mode, as spectral_gradient's.  Each Picard
    sweep evaluates B, f and g at the midpoint m = (u^n + guess) / 2 and solves
    (I - dt/2 L(m)) u = (I + dt/2 L(m)) u^n - dt div f(m) + dt g(m) by _solve, from the guess; the
    sweeps stop once no entry moves by more than PICARD_TOL.  The first guess extrapolates the span's
    states: u^n on its first step, 2 u^n - u^(n-1) on the second and 3 u^n - 3 u^(n-1) + u^(n-2)
    after.  A reaction-diffusion target without a reaction is linear: nothing in its solve depends
    on the guess, so its first solve is the step.  A state travels with its derivative rows
    (d_j u or d_i d_j u), which are linear in it.  sweeps and krylov_iterations count the work of
    every step taken.
    """

    def __init__(self, target: ParabolicTarget, grid: SpatialGrid):
        self.grid, self.k = grid, target.k
        d, k, cells = grid.d, target.k, grid.cell_count
        self.kappa = derivative_wavenumbers(grid)
        rd = isinstance(target, ReactionDiffusion)
        if rd:  # w -> d_i d_j w_b in rows (i, j, b), contracted with A_ij^ab
            derivs = -np.einsum("mi,mj,bc->mijbc", self.kappa, self.kappa, np.eye(k)).reshape(cells, d * d * k, k)
            blocks = target.diffusion_at(grid.flat_points())
            self.diffusion, self.flux, self.g, self.div = (lambda u: blocks), None, target.f, None
        else:  # w -> d_j w_b in rows (j, b), contracted with B_ij^ab, then the divergence, its transpose
            derivs = gradient_modes(grid, k)
            self.div = mode_table(grid, np.swapaxes(derivs, 1, 2))
            self.diffusion, self.flux, self.g = target.diffusion, target.flux, target.g
        rows = derivs.shape[1]
        self.derivs_stack = derivs
        self.derivs = mode_table(grid, derivs), mode_work(grid, rows, k)
        # Krylov vectors are half spectra times sqrt(weight / M), so that the dot product of their
        # real views is the grid's
        self.parseval = np.sqrt(parseval_weights(grid) / cells)
        self.basis = np.empty((KRYLOV_MAXITER + 1, 2 * k * self.parseval.size))
        _, self.product, self.term = mode_work(grid, k + rows, k)  # mode_product's scratch
        # each basis vector's preconditioned image and its derivative rows, on the grid
        self.images = np.empty((KRYLOV_MAXITER, k + rows, cells))
        self.linear = rd and target.f is None
        self.sweeps = self.krylov_iterations = 0

    def _coefficients(self, blocks: Array) -> Array:
        """L's coefficients on the derivative rows, (k or dk, derivative rows, M)."""
        if self.div is not None:
            return _block_matrix(blocks, self.grid.cell_count)
        d, _, k, _, cells = blocks.shape
        return blocks.transpose(2, 0, 1, 3, 4).reshape(k, d * d * k, cells)

    def _spectrum(self, fields: Array) -> Array:
        return to_modes(self.grid, fields.reshape((-1,) + self.grid.ns))

    def _closure(self, spectrum: Array) -> Array:
        """L w's half spectrum from that of the contracted derivative rows: their divergence, if any."""
        if self.div is None:
            return spectrum
        return mode_product(self.div, spectrum, self.product[:self.k], self.term[:self.k]).copy()

    def _applied(self, coeffs: Array, derivs: Array) -> Array:
        """L w's half spectrum from the derivative rows of w on the grid."""
        return self._closure(self._spectrum((coeffs * derivs).sum(axis=1)))

    def _preconditioner(self, blocks: Array, dt: float):
        """The mode table mapping a Krylov vector to the frozen-mean solve z's spectrum and its derivative rows'.

        The frozen-mean operator is I - dt/2 L with the blocks replaced by their cell mean; on mode
        kappa it is the k x k matrix I + dt/2 sum_ij kappa_i kappa_j mean(B_ij), solved exactly.  The
        blocks are those of a span's start, which step has found positive definite in every cell, so
        the mean is too and each matrix has eigenvalues of real part >= 1; if the mean is not finite,
        the reason instead.
        """
        mean = blocks.mean(axis=-1)
        if not np.isfinite(mean).all():
            return "the frozen-mean operator is not finite"
        mats = np.eye(self.k) + 0.5 * dt * np.einsum("mi,mj,ijab->mab", self.kappa, self.kappa, mean)
        inverse = np.linalg.inv(mats)
        return mode_table(self.grid, np.concatenate([inverse, self.derivs_stack @ inverse], axis=1)) / self.parseval

    def _solve(self, coeffs: Array, precon, rhs: Array, residual: Array, x: Array, x_derivs: Array, dt: float):
        """(x, its derivative rows, None) with ||rhs - A x|| <= KRYLOV_TOL ||rhs||, A = I - dt/2 L.

        rhs and residual = rhs - A x are half spectra.  Right-preconditioned GMRES from x: the basis
        is orthogonalized by classical Gram-Schmidt twice and the least-squares problem rotated as
        it grows.  On failure the third entry says after how many iterations, at what relative
        residual and why.
        """
        grid, k, half = self.grid, self.k, 0.5 * dt
        rhs_norm = float(np.linalg.norm(self.parseval * rhs))
        target = KRYLOV_TOL * rhs_norm
        vectors = self.basis.view(complex).reshape((len(self.basis), k) + self.parseval.shape)
        vectors[0] = self.parseval * residual
        res = float(np.linalg.norm(self.basis[0]))
        if isinstance(precon, str):
            return x, x_derivs, (0, res / rhs_norm, precon)
        if res <= target:
            return x, x_derivs, None
        self.basis[0] /= res
        columns, rotations, g = [], [], [res]
        # past k M iterations, the dimension of the space, GMRES has no direction left to take
        for it in range(1, min(KRYLOV_MAXITER, k * grid.cell_count) + 1):
            image = mode_product(precon, vectors[it - 1], self.product, self.term)
            w = vectors[it]
            w[:] = image[:k]
            from_modes(grid, image, self.images[it - 1].reshape(image.shape[:1] + grid.ns))
            w -= half * self._applied(coeffs, self.images[it - 1, k:])
            w *= self.parseval
            w = self.basis[it]
            done = self.basis[:it]
            h = done @ w
            w -= h @ done
            again = done @ w
            w -= again @ done
            col = (h + again).tolist()
            col.append(float(np.sqrt(w @ w)))
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            rho = float(np.hypot(col[-2], col[-1]))
            c, s = (col[-2] / rho, col[-1] / rho) if rho > 0.0 else (1.0, 0.0)
            rotations.append((c, s))
            g.append(-s * g[-1])
            g[-2] *= c
            col[-2] = rho
            columns.append(col)
            res = abs(g[-1])
            if not (res > target and col[-1] > 0.0):  # converged, not finite, or no new direction
                break
            w /= col[-1]
        self.krylov_iterations += it
        if not res <= target:
            return x, x_derivs, (it, res / rhs_norm, "" if np.isfinite(res) else "the residual is not finite")
        pivots = np.abs([col[i] for i, col in enumerate(columns)])
        if pivots.min() <= k * grid.cell_count * np.finfo(float).eps * pivots.max():
            # a singular operator whose last pivot is round-off would solve to numbers of size 1/eps
            return x, x_derivs, (it, res / rhs_norm, f"it is numerically singular: smallest rotated Hessenberg "
                                                  f"pivot {pivots.min():.3g}, largest {pivots.max():.3g}")
        y = np.zeros(it)
        for i in range(it - 1, -1, -1):  # back substitution in the rotated Hessenberg columns
            y[i] = (g[i] - sum(columns[j][i] * y[j] for j in range(i + 1, it))) / columns[i][i]
        update = (y @ self.images[:it].reshape(it, -1)).reshape(self.images.shape[1:])
        return x + update[:k], x_derivs + update[k:], None

    def step(self, u: Array, span: float, nsub: int) -> Array:
        dt, k = span / nsub, self.k
        start = u.reshape(k, -1)
        blocks = np.asarray(self.diffusion(start), dtype=float)
        if why := self._witness(start, blocks):
            raise ReferenceError(f"a span starts where the target is not parabolic{why}")
        # the span's first sweep freezes the mean of the blocks for every solve of the span
        precon = self._preconditioner(blocks, dt)
        table, work = self.derivs
        du = apply_modes(self.grid, table, u, work=work).reshape(len(table), -1)
        states = [(start, du)]  # the span's last three (u, derivative rows), oldest first
        for _ in range(nsub):
            weights = _EXTRAPOLATION[len(states)]
            guess = [sum(w * state[i] for w, state in zip(weights, states)) for i in (0, 1)]
            states = (states + [self._step(*states[-1], *guess, dt, precon)])[-3:]
        return states[-1][0].reshape((k,) + self.grid.ns)

    def _step(self, start: Array, start_derivs: Array, x: Array, x_derivs: Array, dt: float, precon):
        """(u, its derivative rows) a step dt on from start (k, M), the Picard sweeps begun at x."""
        grid, k = self.grid, self.k
        for _ in range(PICARD_MAXITER):
            self.sweeps += 1
            lagged = 0.5 * (start + x)  # the midpoint of the step
            blocks = np.asarray(self.diffusion(lagged), dtype=float)
            bad = np.flatnonzero(~np.isfinite(blocks))
            if bad.size:
                i, j, a, b, cell = np.unravel_index(bad[0], blocks.shape)
                raise ReferenceError(
                    f"lagged diffusion coefficient B_{i + 1}{j + 1}[{a + 1},{b + 1}] is "
                    f"{float(blocks.flat[bad[0]])} at cell {cell} "
                    f"(x = {grid.flat_points()[:, cell].tolist()}, u = {lagged[:, cell].tolist()})"
                )
            coeffs = self._coefficients(blocks)
            explicit = 0.5 * dt * (coeffs * start_derivs).sum(axis=1)
            if self.flux is not None:
                explicit -= dt * np.asarray(self.flux(lagged), dtype=float).reshape(explicit.shape)
            local = start if self.g is None else start + dt * np.asarray(self.g(lagged), dtype=float)
            # one transform for the explicit half, A x's operator term, the local terms and x
            spectra = self._spectrum(np.concatenate([explicit, 0.5 * dt * (coeffs * x_derivs).sum(axis=1), local, x]))
            n = len(explicit)
            rhs = self._closure(spectra[:n]) + spectra[2 * n:2 * n + k]
            residual = rhs - spectra[2 * n + k:] + self._closure(spectra[n:2 * n])
            new, new_derivs, failure = self._solve(coeffs, precon, rhs, residual, x, x_derivs, dt)
            if failure is not None:
                it, rel, why = failure
                raise ReferenceError(f"Krylov solve of I - dt/2 L failed after {it} iterations at relative "
                                     f"residual {rel:.3g} (KRYLOV_TOL = {KRYLOV_TOL:g})" + (f": {why}" if why else "")
                                     + self._witness(start, self.diffusion(start)))
            if self.linear:
                return new, new_derivs
            inc = np.abs(new - x).reshape(-1)
            worst = int(np.argmax(inc))
            if inc[worst] <= PICARD_TOL:
                return new, new_derivs
            x, x_derivs = new, new_derivs
        comp, cell = divmod(worst, grid.cell_count)
        raise ReferenceError(
            f"lagged-coefficient iteration did not reach {PICARD_TOL:g} "
            f"in {PICARD_MAXITER} sweeps; the last max increment was {inc[worst]:.3g} "
            f"in component {comp + 1} at cell {cell} (x = {grid.flat_points()[:, cell].tolist()})"
            + self._witness(start, self.diffusion(start)))

    def _witness(self, u: Array, blocks: Array) -> str:
        """Where B(u), given as blocks, is not positive definite at the step's start u, a witness that
        does not depend on where an iteration wandered; else empty."""
        grid = self.grid
        bmat = _block_matrix(np.asarray(blocks, dtype=float), grid.cell_count).transpose(2, 0, 1)
        lowest = np.linalg.eigvalsh(0.5 * (bmat + bmat.transpose(0, 2, 1)))[:, 0]
        bad = np.flatnonzero(lowest <= 0.0)
        if not bad.size:
            return ""
        c = int(bad[0])
        return (f"; at the step's start B(u) is not positive definite at cell {c} "
                f"(x = {grid.flat_points()[:, c].tolist()}, u = {u[:, c].tolist()}, "
                f"smallest eigenvalue of its symmetric part {lowest[c]:.3g})")


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
    "KRYLOV_TOL",
    "KRYLOV_MAXITER",
]
