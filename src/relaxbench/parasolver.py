"""Reference solutions of the limit parabolic systems, advanced one output span per step.

These integrators are deliberately a different discretization family from
the stiff hyperbolic solver (exact Fourier propagation for constant
diffusion, Crank-Nicolson with central differences for callable diffusion,
both second order in time), so that agreement between the two is evidence
of the analytic limit rather than shared bias.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgtsv
from scipy.sparse.linalg import splu

from . import hypersolver
from .builder import ParabolicTarget, QuasilinearDivergence, ReactionDiffusion, _block_matrix
from .core import Array, SpatialGrid, apply_modes, eig_factors, eig_function, field_csv, plan_times

PICARD_TOL = 1e-11
PICARD_MAXITER = 50


class ReferenceError(RuntimeError):
    pass


def reference_csv(grid: SpatialGrid, u: Array) -> str:
    """One reference snapshot in the export schema x[,y],u_1..u_k."""
    return field_csv(grid, [f"u_{i + 1}" for i in range(len(u))], u.reshape(len(u), -1))


# ---------------------------------------------------------------------------
# sparse difference operators
#
# A stencil is a list of (offset, weight) taps, (S u)[m] = sum w u[m + offset],
# with offset a length-d integer vector on the periodic grid.

Stencil = List[Tuple[Array, float]]


def _differences(grid: SpatialGrid, axis: int) -> Tuple[Stencil, Stencil]:
    """Central difference D1 and forward difference D+ along one axis."""
    e, h = np.eye(grid.d, dtype=int)[axis], grid.h[axis]
    return [(e, 1.0 / (2 * h)), (-e, -1.0 / (2 * h))], [(e, 1.0 / h), (0 * e, -1.0 / h)]


def _shifted(grid: SpatialGrid, offset: Array) -> Array:
    """Flat index of cell m + offset for every flat cell m."""
    cells = np.arange(grid.cell_count).reshape(grid.ns)
    return np.roll(cells, tuple(-offset), axis=tuple(range(grid.d))).ravel()


class _BlockOperator:
    """k-component second-order operator with coefficient blocks B_ij^ab on cells.

    Divergence placement is sum_ij d_i(B_ij d_j .): -D+_i^T diag(avg_i B_ii) D+_i
    on the diagonal, D1_i diag(B_ij) D1_j across; non-divergence placement is
    sum_ij diag(B_ij) d_i d_j.  Linear in B, so the CSC pattern is built once and
    data = P @ B.ravel(); every block enters the pattern, zero or not.  A 1-d
    scalar operator on n >= 3 cells is periodic tridiagonal: `crank_nicolson`
    reads its three diagonals straight out of data, multiplies by slices and
    solves without factorizing.
    """

    def __init__(self, grid: SpatialGrid, k: int, divergence: bool):
        d, mcells, n = grid.d, grid.cell_count, k * grid.cell_count
        ident: Stencil = [(np.zeros(d, dtype=int), 1.0)]
        d1, dplus = zip(*(_differences(grid, i) for i in range(d)))
        # the diagonal comes first, so I - dt * L always has it in its pattern
        rows, cols, slots, weights = [np.arange(n)], [np.arange(n)], [], []
        for slot, (i, j, a, b) in enumerate(np.ndindex(d, d, k, k)):
            neg_dplus_t = [(-o, -w) for o, w in dplus[i]]
            if divergence and i == j:
                face_avg = [(o, 0.5) for o, _ in dplus[i]]  # (c[m] + c[m + e_i]) / 2
                terms = (neg_dplus_t, face_avg, dplus[i])
            elif divergence:
                terms = (d1[i], ident, d1[j])
            else:
                left, right = (neg_dplus_t, dplus[i]) if i == j else (d1[i], d1[j])
                terms = (ident, ident, [(o1 + o2, w1 * w2) for o1, w1 in left for o2, w2 in right])
            # (L diag(K c) R u)[m] = sum w_l w_k w_r c[m + o_l + o_k] u[m + o_l + o_r]
            for (ol, wl), (ok, wk), (o_r, wr) in itertools.product(*terms):
                rows.append(a * mcells + np.arange(mcells))
                cols.append(b * mcells + _shifted(grid, ol + o_r))
                slots.append(slot * mcells + _shifted(grid, ol + ok))
                weights.append(np.full(mcells, wl * wk * wr))
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        pattern = sp.csc_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
        pattern.sum_duplicates()  # sorted and duplicate-free
        self.indices, self.indptr = pattern.indices, pattern.indptr
        entry_keys = np.repeat(np.arange(n), np.diff(self.indptr)) * n + self.indices
        where = np.searchsorted(entry_keys, cols * n + rows)  # position of each entry in data
        self.diag = where[:n]
        self.scatter = sp.csr_matrix((np.concatenate(weights), (where[n:], np.concatenate(slots))),
                                     shape=(self.indices.size, d * d * k * k * mcells))
        # positions of A[i, i - 1] and A[i, i + 1] (mod n); below 3 cells they coincide
        self.lower = self.upper = None
        if d == 1 and k == 1 and n >= 3:
            cells = np.arange(n)
            self.lower = np.searchsorted(entry_keys, (cells - 1) % n * n + cells)
            self.upper = np.searchsorted(entry_keys, (cells + 1) % n * n + cells)

    def _data(self, blocks: Array, dt: float) -> Array:
        data = -dt * (self.scatter @ np.asarray(blocks, dtype=float).reshape(-1))
        data[self.diag] += 1.0
        return data

    def crank_nicolson(self, blocks: Array, dt: float) -> Tuple[Callable[[Array], Array], Callable[[Array], Array]]:
        """(u -> (I + dt/2 * L) u, rhs -> (I - dt/2 * L)^-1 rhs) at coefficient blocks (d, d, k, k, M).

        Both come from one assembly of A = I - dt/2 * L: the explicit half is 2u - A u.  A
        singular A raises RuntimeError on the SuperLU path and LinAlgError on the periodic
        tridiagonal path.
        """
        data = self._data(blocks, 0.5 * dt)
        if self.lower is None:
            matrix = sp.csc_matrix((data, self.indices, self.indptr))
            return (lambda u: 2.0 * u - matrix @ u), _factorize(matrix).solve
        lower, diag, upper = data[self.lower], data[self.diag], data[self.upper]
        return (lambda u: 2.0 * u - _cyclic_product(lower, diag, upper, u),
                lambda rhs: _cyclic_tridiagonal(lower, diag, upper, rhs))


def _factorize(matrix: sp.csc_matrix):
    """SuperLU factors of a square matrix; RuntimeError if it is numerically singular.

    SuperLU itself only refuses an exactly zero pivot; a singular matrix whose
    last pivot is round-off would otherwise solve to numbers of size 1/eps.
    """
    lu = splu(matrix)
    pivots = np.abs(lu.U.diagonal())
    if pivots.min() <= matrix.shape[0] * np.finfo(float).eps * pivots.max():
        raise RuntimeError(f"matrix is numerically singular: smallest LU pivot {pivots.min():.3g}, "
                           f"largest {pivots.max():.3g}")
    return lu


def _cyclic_product(lower: Array, diag: Array, upper: Array, u: Array) -> Array:
    """lower[i] u[i-1] + diag[i] u[i] + upper[i] u[i+1], indices mod n >= 3."""
    out = diag * u
    out[1:] += lower[1:] * u[:-1]
    out[0] += lower[0] * u[-1]
    out[:-1] += upper[:-1] * u[1:]
    out[-1] += upper[-1] * u[0]
    return out


def _cyclic_tridiagonal(lower: Array, diag: Array, upper: Array, rhs: Array) -> Array:
    """Solve lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i], indices mod n >= 3.

    The tridiagonal part T goes through LAPACK dgtsv for the right-hand sides
    rhs, e_0 and e_{n-1} at once.  The corners a = A[0, n-1] = lower[0] and
    c = A[n-1, 0] = upper[n-1] are the rank-2 term U V^T with U = [e_0, e_{n-1}]
    and V = [a e_{n-1}, c e_0], folded back in by Woodbury:
    x = y - Z C^-1 V^T y with y = T^-1 rhs, Z = T^-1 U and C = I + V^T Z.
    """
    n = diag.size
    b = np.zeros((n, 3), order="F")
    b[:, 0] = rhs
    b[0, 1] = b[-1, 2] = 1.0
    _, _, _, sol, info = dgtsv(lower[1:], diag, upper[:-1], b, overwrite_b=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal part is singular (dgtsv info = {info})")
    # V^T y = (r0, r1) and C = I + V^T Z in Python floats: the 2 x 2 solve is in closed form
    a, c = float(lower[0]), float(upper[-1])
    (y0, z00, z01), (yn, zn0, zn1) = sol[0].tolist(), sol[-1].tolist()
    r0, c00, c01 = a * yn, 1.0 + a * zn0, a * zn1
    r1, c10, c11 = c * y0, c * z00, 1.0 + c * z01
    det = c00 * c11 - c01 * c10
    # det = 1 + a zn0 + c z01 + a c (zn0 z01 - zn1 z00); one within round-off of those terms is
    # noise, like an LU pivot within n * eps of the largest (_factorize)
    terms = 1.0 + abs(a * zn0) + abs(c * z01) + abs(a * c) * (abs(zn0 * z01) + abs(zn1 * z00))
    if abs(det) <= n * np.finfo(float).eps * terms:
        raise np.linalg.LinAlgError(f"periodic corner correction is singular: determinant {det:.3g} "
                                    f"is round-off against terms of size {terms:.3g}")
    x = sol[:, 0] - sol[:, 1:] @ np.array([(c11 * r0 - c01 * r1) / det, (c00 * r1 - c10 * r0) / det])
    if not np.isfinite(x).all():
        raise np.linalg.LinAlgError("periodic tridiagonal solution is not finite")
    return x


# ---------------------------------------------------------------------------
# time-stepping drivers


def run_reference(
    target: ParabolicTarget,
    u0: Array,
    grid: SpatialGrid,
    T: float,
    dt: Optional[float] = None,
    snapshot_times: Optional[Sequence[float]] = None,
) -> Tuple[Array, Array]:
    """Integrate the parabolic target to time T.

    Returns (times, fields) where fields[s] is the solution at times[s]; the
    initial state is always the first entry.  Each output span is one call
    stepper.step(u, span, nsub) with nsub = ceil(span / dt) sub-steps of
    span / nsub (dt defaults to T / 1000), each second order in dt.  Constant
    diffusion goes through _LinearRD, which maps a span without a reaction
    exactly and ignores nsub; callable diffusion through _PicardQL.  A negative
    or non-finite T, dt <= 0, or ceil(T / dt) above hypersolver.MAX_STEPS raises
    ValueError before any step.  Parabolicity of the target is the caller's
    responsibility to have verified.
    """
    spans = plan_times(T, snapshot_times)
    if dt is not None and not dt > 0:
        raise ValueError(f"reference step dt must be positive, got {dt:g}")
    u0 = np.asarray(u0, dtype=float)
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

    times = [0.0]
    fields = [u0.copy()]
    u = u0.copy()
    t = 0.0
    for t_next in spans:
        span = t_next - t
        if span <= 0:
            continue
        u = stepper.step(u, span, max(1, int(np.ceil(span / dt - 1e-12))))
        t = t_next
        times.append(t)
        fields.append(u.copy())
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
        prop = eig_function(self.vecs, np.exp(dt * self.vals), self.vecs_inv).astype(complex)
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
        self.grid = grid
        self.k = target.k
        # central difference taps per axis as (shifted flat index, weight)
        self.d1 = [[(_shifted(grid, o), w) for o, w in _differences(grid, i)[0]]
                   for i in range(grid.d)]
        rd = isinstance(target, ReactionDiffusion)
        self.linear = rd and target.f is None
        op = _BlockOperator(grid, self.k, divergence=not rd)
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
    "run_reference",
    "ModeOracle",
    "exact_mode_oracle",
    "oracle_ladder_errors",
    "PICARD_TOL",
    "PICARD_MAXITER",
]
