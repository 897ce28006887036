"""Domain types and symbol-level algebra shared by the whole package.

Grids, systems, and states are immutable value objects; every operation in
this module is a pure function of its inputs, so values can be shared freely
between concurrent workers.

Conventions used throughout:

* points are column-batched: an array of M points has shape (d, M);
* a matrix field is either a constant ndarray of shape (rows, cols) or a
  vectorized callable mapping points (d, M) -> (rows, cols, M);
* state-dependent sources are vectorized callables, e.g. the stiff source
  q(x, u, z) takes x (d, M), u (k, M), z (m, M) and returns (m, M);
* principal symbols of differential transport carry the factor -i, so that
  i * symbol has real spectrum exactly when the system is hyperbolic.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

Array = np.ndarray
MatrixField = Union[Array, Callable[[Array], Array]]


class SymbolError(ValueError):
    """Raised when symbol-level algebra cannot be carried out."""


class SingularSourceError(SymbolError):
    """Stiff source derivative is singular where invertibility is required."""

    def __init__(self, message: str, smallest_singular_value: float, sample: int = 0):
        super().__init__(message)
        self.smallest_singular_value = smallest_singular_value
        self.sample = sample  # flat (x, u) index of the singular sample in a stacked call

    def __reduce__(self):  # the default rebuilds from args = (message,) alone
        return type(self), (self.args[0], self.smallest_singular_value, self.sample)


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform tensor grid on a periodic box, dimensions 1 or 2.

    Indexing wraps around in every axis; there are no boundary cells.
    """

    ns: Tuple[int, ...]
    lengths: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "ns", tuple(int(n) for n in self.ns))
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))
        if len(self.ns) != len(self.lengths):
            raise ValueError("ns and lengths must have equal length")
        if not 1 <= len(self.ns) <= 2:
            raise ValueError("only d = 1 or d = 2 grids are supported")
        if any(n < 4 for n in self.ns):
            raise ValueError("need at least 4 cells per axis")
        if any(L <= 0 for L in self.lengths):
            raise ValueError("period lengths must be positive")

    @property
    def d(self) -> int:
        return len(self.ns)

    @property
    def h(self) -> Tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.lengths, self.ns))

    @property
    def cell_count(self) -> int:
        return int(np.prod(self.ns))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def axis_centers(self, j: int) -> Array:
        return (np.arange(self.ns[j]) + 0.5) * self.h[j]

    def points(self) -> Array:
        """Cell centers, shape (d, n_1, ..., n_d)."""
        axes = [self.axis_centers(j) for j in range(self.d)]
        return np.stack(np.meshgrid(*axes, indexing="ij"))

    def flat_points(self) -> Array:
        return self.points().reshape(self.d, -1)

    def sample_points(self, count: int) -> Array:
        """Lattice of about `count` cell centers strided per axis, shape (d, M).

        In 2-d 64 points form an 8 x 8 lattice; in 1-d this is every (n // count)-th center.
        """
        per_axis = [count]
        if self.d == 2:
            inner = max(c for c in range(1, math.isqrt(count) + 1) if count % c == 0)
            per_axis = [count // inner, inner]
        axes = [self.axis_centers(j)[:: max(1, n // c)]
                for j, (n, c) in enumerate(zip(self.ns, per_axis))]
        return np.stack(np.meshgrid(*axes, indexing="ij")).reshape(self.d, -1)

    def wavenumbers(self) -> Array:
        """Physical wavenumbers of the discrete Fourier modes, shape (d, *ns)."""
        axes = [2.0 * np.pi * np.fft.fftfreq(n, d=h) for n, h in zip(self.ns, self.h)]
        return np.stack(np.meshgrid(*axes, indexing="ij"))


def spectral_gradient(grid: SpatialGrid, fields: Array) -> Array:
    """Per-axis spectral derivative of real fields (c, *ns) -> (d, c, *ns).

    The unpaired Nyquist mode is dropped so derivatives of real fields
    stay real and the operation is skew-adjoint on the grid.
    """
    fields = np.asarray(fields, dtype=float)
    kappa = grid.wavenumbers()
    fhat = np.fft.fftn(fields, axes=tuple(range(1, 1 + grid.d)))
    out = np.empty((grid.d,) + fields.shape)
    for j in range(grid.d):
        mask = np.ones(grid.ns[j])
        if grid.ns[j] % 2 == 0:
            mask[grid.ns[j] // 2] = 0.0
        shape = [1] * grid.d
        shape[j] = grid.ns[j]
        factor = (1j * kappa[j]) * mask.reshape(shape)
        out[j] = np.fft.ifftn(fhat * factor, axes=tuple(range(1, 1 + grid.d))).real
    return out


def apply_modes(grid: SpatialGrid, table: Array, fields: Array) -> Array:
    """Per-mode action of a matrix table (*ns, r, c) on real fields (c, *ns) -> (r, *ns).

    fft/ifft run axis by axis, last first: fftn's order and bits, without its per-call set-up.
    """
    spax = tuple(range(1, 1 + grid.d))
    for ax in spax[::-1]:
        fields = np.fft.fft(fields, axis=ax)
    out = (table @ fields.transpose(spax + (0,))[..., None])[..., 0].transpose((grid.d, 0) + spax[:-1])
    for ax in spax[::-1]:
        out = np.fft.ifft(out, axis=ax)
    return out.real


def plan_times(T: float, snapshot_times: Optional[Sequence[float]]) -> List[float]:
    """Requested times in (0, T) plus T, sorted, with times within 1e-12 * max(T, 1) merged.

    A time that close to 0 or to T merges into the initial state or T (so one
    past T by that much lands on T); a cluster of times keeps its earliest.
    """
    tol = 1e-12 * max(T, 1.0)
    kept = [0.0]
    if snapshot_times is not None:
        for t in np.sort(np.asarray(snapshot_times, dtype=float).ravel()):
            if kept[-1] + tol < t < T - tol:
                kept.append(float(t))
    return kept[1:] + [float(T)]


def l2_norm(fields: Array, grid: SpatialGrid) -> float:
    """Discrete L2 norm of a stack of scalar fields (c, *ns)."""
    return float(np.sqrt(np.sum(np.asarray(fields) ** 2) * grid.cell_volume))


# ---------------------------------------------------------------------------
# matrix fields


def eval_matrix_field(f: MatrixField, x: Array) -> Array:
    """Evaluate a constant or callable field of any rank at points x (d, M); returns (..., M)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    m = x.shape[-1]
    if callable(f):
        out = np.asarray(f(x), dtype=float)
        if out.ndim == 2:
            out = out[:, :, None]
        return out
    f = np.asarray(f, dtype=float)
    return np.broadcast_to(f[..., None], f.shape + (m,))


def as_point(x) -> Array:
    """Coerce a scalar or sequence to a single-point batch of shape (d, 1)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim == 1:
        x = x[:, None]
    return x


def eig_factors(mats: Array) -> Tuple[Array, Array, Array]:
    """(vals, vecs, vecs^-1) with mats = vecs diag(vals) vecs^-1 for a stack of matrices.

    A stack symmetric to 1e-12 relative goes through eigh (vals real, vecs^-1
    the transpose); any other through eig and inv, or LinAlgError if cond(vecs)
    > 1e12, as for a defective matrix ([[0, 1], [0, 0]] gives ~1e292; inv accepts it).
    """
    sym_defect = np.max(np.abs(mats - np.swapaxes(mats, -1, -2)))
    if sym_defect <= 1e-12 * max(1.0, np.max(np.abs(mats))):
        vals, vecs = np.linalg.eigh(mats)
        return vals, vecs, np.swapaxes(vecs, -1, -2)
    vals, vecs = np.linalg.eig(mats)
    if not (cond := np.max(np.linalg.cond(vecs))) <= 1e12:
        raise np.linalg.LinAlgError(f"matrix is not diagonalizable: eigenvector condition number {cond:.3g}")
    return vals, vecs, np.linalg.inv(vecs)


def eig_function(vecs: Array, values: Array, vecs_inv: Array) -> Array:
    """vecs diag(values) vecs^-1 per matrix of a stack: a matrix function from its eigen-factors."""
    return (vecs * values[..., None, :]) @ vecs_inv


def solve_points(mats: Array, rhs: Array) -> Array:
    """Solve mats[:, :, p] x[:, p] = rhs[:, p] at every point p; mats (m, m, M), rhs (m, M)."""
    if mats.shape[0] == 1:  # a division is LAPACK's 1 x 1 solve bit for bit; rhs * (1 / mats) is not
        if not mats.all():
            raise np.linalg.LinAlgError("Singular matrix")
        return rhs / mats[0]
    # a diagonal stack is LAPACK's solve bit for bit, except that LAPACK may flip the sign of a -0.0 in rhs
    if not mats[~np.eye(len(mats), dtype=bool)].any() and not np.signbit(rhs[rhs == 0]).any():
        diag = np.einsum("ii...->i...", mats)
        if not diag.all():
            raise np.linalg.LinAlgError("Singular matrix")
        # LAPACK's point-major layout: np.sum follows memory order, and C order moves steps.csv energies
        sol = np.empty(rhs.shape[::-1])
        np.divide(rhs, diag, out=sol.T)
        return sol.T
    sol = np.linalg.solve(mats.transpose(2, 0, 1), rhs.T[..., None])
    return sol[..., 0].T


def constant_matrix(f: MatrixField) -> Optional[Array]:
    return None if callable(f) else np.asarray(f, dtype=float)


# ---------------------------------------------------------------------------
# spectral multiplier transport (matrix square-root symbols)


@dataclass(frozen=True)
class SpectralMultiplier:
    """Tabulated symmetric positive multiplier B(xi) on a grid's Fourier modes.

    Stores the eigendecomposition of the quadratic symbol S(xi) per mode,
    so B = V diag(sqrt(s)) V^T and any matrix function of B is cheap.
    """

    grid: SpatialGrid
    symbol: Callable[[Array], Array]
    eigvecs: Array   # (*ns, k, k)
    sqrt_eigs: Array  # (*ns, k)

    def b_at(self, xi) -> Array:
        """B(xi) for an arbitrary wave vector, shape (k, k)."""
        s = np.asarray(self.symbol(np.asarray(xi, dtype=float)), dtype=float)
        s = np.atleast_2d(s)
        vals, vecs, vecs_t = eig_factors(0.5 * (s + s.T))  # exactly symmetric, so eigh
        if np.any(vals < -1e-12 * max(1.0, np.max(np.abs(vals)))):
            raise SymbolError("quadratic symbol is not positive semidefinite")
        return eig_function(vecs, np.sqrt(np.clip(vals, 0.0, None)), vecs_t)

    def table(self) -> Array:
        """B on every grid mode, shape (*ns, k, k)."""
        return eig_function(self.eigvecs, self.sqrt_eigs, np.swapaxes(self.eigvecs, -1, -2))


# ---------------------------------------------------------------------------
# systems


@dataclass(frozen=True)
class RelaxationSystem:
    """Semilinear relaxation system in decoupled block form.

    The transport blocks are matrix fields per axis; m11 is zero unless the
    system deliberately violates the conserved-block structure (those systems
    relax to the null solution, not to a parabolic limit).  The stiff source
    q(x, u, z) takes the unscaled non-conserved state z and must vanish at
    z = 0; q_nu is its derivative in z.
    """

    k: int
    m: int
    d: int
    m12: Optional[Tuple[MatrixField, ...]] = None
    m21: Optional[Tuple[MatrixField, ...]] = None
    m22: Optional[Tuple[MatrixField, ...]] = None
    m11: Optional[Tuple[MatrixField, ...]] = None
    q: Optional[Callable[[Array, Array, Array], Array]] = None
    q_nu: Optional[Callable[[Array, Array, Array], Array]] = None
    dtilde_I: Optional[Callable[[Array, Array, Array, float], Array]] = None
    d_II: Optional[Callable[[Array, Array], Array]] = None
    reaction: Optional[Callable[[Array], Array]] = None
    multiplier: Optional[SpectralMultiplier] = None
    source_linear_in_v: bool = False
    name: str = ""

    @property
    def n(self) -> int:
        return self.k + self.m

    @property
    def constant_coefficients(self) -> bool:
        """True for multiplier transport and when every transport block is an array."""
        if self.multiplier is not None:
            return True
        fields_ = (self.m11, self.m12, self.m21, self.m22)
        return not any(callable(blk) for per_axis in fields_ for blk in per_axis or ())

    def __post_init__(self):
        if self.k <= 0 or self.m <= 0 or not 1 <= self.d <= 2:
            raise ValueError("need k >= 1, m >= 1, d in {1, 2}")
        if self.multiplier is None:
            for blocks, rows, cols, label in (
                (self.m12, self.k, self.m, "m12"),
                (self.m21, self.m, self.k, "m21"),
            ):
                if blocks is None or len(blocks) != self.d:
                    raise ValueError(f"{label} must provide one field per axis")
                for b in blocks:
                    c = constant_matrix(b)
                    if c is not None and c.shape != (rows, cols):
                        raise ValueError(f"{label} block has shape {c.shape}, expected {(rows, cols)}")
        elif self.k != self.m:
            raise ValueError("multiplier transport requires k == m")
        if self.q is None or self.q_nu is None:
            raise ValueError("systems must carry q and q_nu")

    def stiff_source(self, x: Array, u: Array, z: Array) -> Array:
        return np.asarray(self.q(x, u, z), dtype=float)

    def stiff_source_jacobian(self, x: Array, u: Array, z: Array) -> Array:
        """q_nu at M column-paired points, always of shape (m, m, M)."""
        jac = np.asarray(self.q_nu(x, u, z), dtype=float)
        shape = (self.m, self.m, np.shape(z)[-1])
        if jac.shape == shape:  # skip broadcast_to, which costs as much as q_nu on the step path
            return jac
        return np.broadcast_to(jac if jac.ndim == 3 else jac[:, :, None], shape)

    def lower_order_I(self, x: Array, u: Array, v: Array, eps: float) -> Array:
        if self.dtilde_I is None:
            return np.zeros_like(u)
        return np.asarray(self.dtilde_I(x, u, v, eps), dtype=float)

    def lower_order_II(self, u: Array, z: Array) -> Array:
        if self.d_II is None:
            return np.zeros(z.shape, dtype=float)
        return np.asarray(self.d_II(u, z), dtype=float)

    def reaction_term(self, u: Array) -> Array:
        if self.reaction is None:
            return np.zeros_like(u)
        return np.asarray(self.reaction(u), dtype=float)


def unit_directions(d: int) -> Array:
    """Unit wave vectors of every symbol sweep, (d, Mxi): +-1 in 1-d, 64 angles in 2-d."""
    if d == 1:
        return np.array([[1.0, -1.0]])
    theta = 2.0 * np.pi * np.arange(64) / 64
    return np.stack([np.cos(theta), np.sin(theta)])


def _direction_sweep(fn: Callable[[Array, Array], Array], x_points: Array, directions: Array) -> Array:
    """Matrix field fn(x, xi) on every (x, xi) pair, shape (Mx, Mxi, rows, cols), x outer."""
    mx = x_points.shape[1]
    dirs = np.asarray(directions, dtype=float)
    vals = [eval_matrix_field(lambda x, xi=xi: fn(x, xi), x_points) for xi in dirs.T]
    return np.stack([np.broadcast_to(np.moveaxis(v, -1, 0), (mx,) + v.shape[:2]) for v in vals], axis=1)


def transport_blocks(sys: RelaxationSystem, x_points: Array) -> Array:
    """Transport matrices [[M11_j, M12_j], [M21_j, M22_j]](x) of every axis j, (d, N, N, M).

    The one place that knows the block layout; an absent block is zero.
    """
    x = np.atleast_2d(np.asarray(x_points, dtype=float))
    out = np.zeros((sys.d, sys.n, sys.n, x.shape[1]))
    top, bottom = slice(None, sys.k), slice(sys.k, None)
    for rows, cols, blocks in ((top, bottom, sys.m12), (bottom, top, sys.m21),
                               (bottom, bottom, sys.m22), (top, top, sys.m11)):
        for j, blk in enumerate(blocks or ()):
            out[j, rows, cols] = eval_matrix_field(blk, x)
    return out


def transport_symbols(sys: RelaxationSystem, x_points: Array, directions: Array) -> Array:
    """Real transport symbols sum_j xi_j T_j(x) on every (x, xi) pair, (Mx, Mxi, N, N), x outer.

    T_j are the transport_blocks, each field evaluated once; multiplier systems
    give [[0, B(xi)], [-B(xi), 0]] with B evaluated once per direction.
    """
    directions = np.asarray(directions, dtype=float)
    if directions.shape[0] != sys.d:
        raise SymbolError(f"wave vector has dimension {directions.shape[0]}, system is {sys.d}-d")
    if sys.multiplier is not None:
        b = _direction_sweep(lambda x, xi: sys.multiplier.b_at(xi), x_points, directions)
        return np.block([[np.zeros_like(b), b], [-b, np.zeros_like(b)]])
    tab = np.moveaxis(transport_blocks(sys, x_points), -1, 1)  # (d, Mx, N, N)
    return np.sum(directions[:, None, :, None, None] * tab[:, :, None], axis=0)


def coupling_symbols(sys: RelaxationSystem, x_points: Array, directions: Array) -> Tuple[Array, Array]:
    """Real coupling blocks (sum xi_j M12_j(x), sum xi_j M21_j(x)), each (Mx, Mxi, rows, cols).

    Multiplier systems give (B(xi), -B(xi)).  Both are contiguous copies, so
    matrix products on them take the same path as on freshly built stacks.
    """
    syms, k = transport_symbols(sys, x_points, directions), sys.k
    return np.ascontiguousarray(syms[..., :k, k:]), np.ascontiguousarray(syms[..., k:, :k])


def principal_symbols(sys: RelaxationSystem, x_points: Array, directions: Array) -> Array:
    """Principal symbols on every (x, xi) pair, shape (Mx, Mxi, N, N) complex.

    x_points is (d, Mx) and directions (d, Mxi); x varies slowest.  Differential
    systems give -i sum_j xi_j T_j(x) (see transport_symbols); multiplier
    systems give the real block matrix [[0, B(xi)], [-B(xi), 0]].
    """
    syms = transport_symbols(sys, x_points, directions)
    return syms.astype(complex) if sys.multiplier is not None else -1j * syms


def principal_symbol(sys: RelaxationSystem, x, xi) -> Array:
    """Principal symbol at one point, an N x N complex matrix (see principal_symbols)."""
    return principal_symbols(sys, as_point(x), np.reshape(xi, (-1, 1)))[0, 0]


def stiff_jacobian(sys: RelaxationSystem, x, u, v) -> Array:
    """Derivative of the stiff source in its non-conserved argument, (m, m)."""
    xp = as_point(x)
    up = np.asarray(u, dtype=float).reshape(sys.k, 1)
    vp = np.asarray(v, dtype=float).reshape(sys.m, 1)
    jac = sys.stiff_source_jacobian(xp, up, vp)[:, :, 0]
    if not np.all(np.isfinite(jac)):
        raise SymbolError("stiff source jacobian has non-finite entries")
    return jac


def limit_generators(sys: RelaxationSystem, x_points: Array, u_points: Array,
                     directions: Array) -> Array:
    """Second-order generators of the relaxed equation on every (x, u, xi) sample.

    For differential transport this is (sum xi_j M12_j) Qnu^{-1} (sum xi_j M21_j)
    evaluated at z = 0; for multiplier transport it is B(xi) Qnu^{-1} B(xi).
    The relaxed dynamics per mode reads du/dt = G u + lower order.  Returns
    (Mx, Mu, Mxi, k, k), x outer and xi inner; SingularSourceError names the
    first singular (x, u) in that order.
    """
    mx, mu = x_points.shape[1], u_points.shape[1]
    us = np.tile(u_points, mx)
    qnu = sys.stiff_source_jacobian(np.repeat(x_points, mu, axis=1), us, np.zeros((sys.m, mx * mu)))
    qnu = np.moveaxis(qnu, -1, 0)
    if not np.all(np.isfinite(qnu)):
        raise SymbolError("stiff source jacobian has non-finite entries")
    svals = np.linalg.svd(qnu, compute_uv=False)
    singular = svals[:, -1] <= 1e-14 * np.maximum(1.0, svals[:, 0])
    if np.any(singular):
        i = int(np.argmax(singular))
        raise SingularSourceError(
            f"stiff jacobian is singular at u={us[:, i]}, smallest singular value {svals[i, -1]:.3e}",
            float(svals[i, -1]), sample=i,
        )
    m12, m21 = coupling_symbols(sys, x_points, directions)
    if sys.multiplier is not None:
        m21 = -m21
    qnu = qnu.reshape(mx, mu, 1, sys.m, sys.m)
    return m12[:, None] @ np.linalg.solve(qnu, m21[:, None])


def limit_generator(sys: RelaxationSystem, x, u, xi) -> Array:
    """Second-order generator at one (x, u, xi), a (k, k) matrix (see limit_generators)."""
    up = np.asarray(u, dtype=float).reshape(sys.k, 1)
    return limit_generators(sys, as_point(x), up, np.reshape(xi, (-1, 1)))[0, 0, 0]


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class FieldState:
    """Discrete (U^I, U^II) fields on a grid at one time instant."""

    grid: SpatialGrid
    uI: Array
    uII: Array
    t: float
    eps: float

    def __post_init__(self):
        uI = np.asarray(self.uI, dtype=float)
        uII = np.asarray(self.uII, dtype=float)
        object.__setattr__(self, "uI", uI)
        object.__setattr__(self, "uII", uII)
        if uI.shape[1:] != self.grid.ns or uII.shape[1:] != self.grid.ns:
            raise ValueError("field shapes do not match the grid")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not (np.all(np.isfinite(uI)) and np.all(np.isfinite(uII))):
            raise ValueError("fields must be finite")

    @property
    def k(self) -> int:
        return self.uI.shape[0]

    @property
    def m(self) -> int:
        return self.uII.shape[0]

    def with_fields(self, uI: Array, uII: Array, t: Optional[float] = None) -> "FieldState":
        return FieldState(self.grid, uI, uII, self.t if t is None else t, self.eps)


# ---------------------------------------------------------------------------
# symmetrizers


@dataclass(frozen=True)
class Symmetrizer:
    """Block-diagonal symbol R(x, xi) = diag(R11, R22), degree 0 in xi.

    Blocks are constant matrices or callables (x (d,M), xi (d,)) -> (r, r, M);
    eta is the required positivity floor.
    """

    r11: Union[Array, Callable[[Array, Array], Array]]
    r22: Union[Array, Callable[[Array, Array], Array]]
    eta: float = 1e-8

    @staticmethod
    def identity(k: int, m: int) -> "Symmetrizer":
        return Symmetrizer(np.eye(k), np.eye(m), eta=0.5)

    def blocks(self, x_points: Array, directions: Array) -> Tuple[Array, Array]:
        """(r11, r22) on every (x, xi) pair, each of shape (Mx, Mxi, r, r)."""
        fields = [blk if callable(blk) else (lambda x, xi, blk=blk: blk) for blk in (self.r11, self.r22)]
        return tuple(_direction_sweep(f, x_points, directions) for f in fields)


# ---------------------------------------------------------------------------
# grid-applied conserved-gradient operator (shared by preparation and residual)


def apply_m21_gradient(sys: RelaxationSystem, grid: SpatialGrid, uI: Array) -> Array:
    """Evaluate sum_j M21_j(x) d_j U^I on the grid with spectral derivatives.

    For multiplier systems this is the action of -B(D) on U^I, applied per
    Fourier mode from the tabulated square-root symbol.
    """
    uI = np.asarray(uI, dtype=float)
    if sys.multiplier is not None:
        if sys.multiplier.grid != grid:
            raise SymbolError(f"multiplier was tabulated on {sys.multiplier.grid}, not on {grid}")
        return -apply_modes(grid, sys.multiplier.table(), uI)
    grad = spectral_gradient(grid, uI)  # (d, k, *ns)
    m21 = transport_blocks(sys, grid.flat_points())[:, sys.k:, :sys.k]  # (d, m, k, M)
    out = np.zeros((sys.m,) + grid.ns)
    for j in range(sys.d):
        dj = grad[j].reshape(sys.k, -1)
        out += np.einsum("abm,bm->am", m21[j], dj).reshape((sys.m,) + grid.ns)
    return out


def equilibrium_uII(sys: RelaxationSystem, grid: SpatialGrid, uI: Array) -> Array:
    """Non-conserved field slaved to U^I by the relaxed second relation.

    Solves Qnu(x, u, 0) U^II = M21(x, d) U^I - D^II(u, 0) pointwise; this is
    the well-prepared initial data used to suppress the initial layer.
    """
    uI = np.asarray(uI, dtype=float)
    rhs = apply_m21_gradient(sys, grid, uI)
    xs = grid.flat_points()
    uflat = uI.reshape(sys.k, -1)
    rhsflat = rhs.reshape(sys.m, -1) - sys.lower_order_II(uflat, np.zeros((sys.m, uflat.shape[1])))
    qnu = sys.stiff_source_jacobian(xs, uflat, np.zeros_like(rhsflat))
    return solve_points(qnu, rhsflat).reshape((sys.m,) + grid.ns)


# ---------------------------------------------------------------------------
# reports and tables


def csv_text(header: Sequence[str], columns: Sequence) -> str:
    """CSV text of a table: the header line, then one line per row, one %-format per chunk.

    Numbers are written with %.17g, which reads back to the same float64.  An
    array column holds numbers, or finished text if its dtype is object; any other
    column holds text (commas become spaces, so every row keeps its fields),
    numbers, or None for an empty field.
    Rows are formatted 1024 at a time, so only one chunk's cells are Python
    objects at once.
    """
    number, chunk = "%.17g", 1024
    formats, cols = [], []
    for col in columns:
        if isinstance(col, np.ndarray):
            formats.append("%s" if col.dtype == object else number)
            cols.append(col)
        else:
            formats.append("%s")
            cols.append(np.array(["" if v is None else v.replace(",", " ") if isinstance(v, str)
                                  else number % v for v in col], dtype=object))
    row = ",".join(formats) + "\n"
    parts = [",".join(header) + "\n"]
    for start in range(0, len(cols[0]), chunk):
        cells = [c[start:start + chunk].tolist() for c in cols]
        values = tuple(itertools.chain.from_iterable(zip(*cells)))
        parts.append((row * len(cells[0])) % values)
    return "".join(parts)


@functools.lru_cache(maxsize=8)  # grids are small frozen keys; a 128^2 grid's text is ~2 MB
def _coordinate_text(grid: SpatialGrid) -> Array:
    """Each cell center's `x[,y]` text, as csv_text formats it, once per grid."""
    fmt = ",".join(["%.17g"] * grid.d)
    text = np.array([fmt % p for p in map(tuple, grid.flat_points().T.tolist())], dtype=object)
    text.flags.writeable = False  # every caller gets this one array
    return text


def field_csv(grid: SpatialGrid, names: Sequence[str], rows) -> str:
    """Fields on a grid, one row of cell values per name, in the export schema x[,y],<names>."""
    return csv_text(["x", "y"][: grid.d] + list(names), [_coordinate_text(grid), *rows])


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one structural check with its worst-case witness."""

    name: str
    passed: bool
    margin: float
    witness: dict = field(default_factory=dict)
    note: str = ""

    def witness_str(self) -> str:
        parts = []
        for key, val in self.witness.items():
            if isinstance(val, (np.ndarray, list, tuple)):
                flat = np.ravel(np.asarray(val))
                parts.append(f"{key}=" + " ".join(f"{v:.6g}" for v in flat))
            elif isinstance(val, float):
                parts.append(f"{key}={val:.6g}")
            else:
                parts.append(f"{key}={val}")
        return ";".join(parts)


@dataclass(frozen=True)
class ValidationReport:
    """Per-hypothesis pass/fail results, one entry per declared check."""

    entries: Tuple[CheckResult, ...]

    def __post_init__(self):
        names = [e.name for e in self.entries]
        if len(names) != len(set(names)):
            raise ValueError("duplicate check entries in report")
        for e in self.entries:
            if not e.passed and not e.witness:
                raise ValueError(f"failing check {e.name} lacks a witness")

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, name: str) -> CheckResult:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def failing(self) -> Tuple[str, ...]:
        return tuple(e.name for e in self.entries if not e.passed)


@dataclass(frozen=True)
class LadderRow:
    eps: float
    errI: float
    errII_weak: float
    sup_eps_uII: float
    observed_order: Optional[float] = None


@dataclass(frozen=True)
class ConvergenceTable:
    """Rows of an epsilon-ladder study, epsilon strictly decreasing."""

    rows: Tuple[LadderRow, ...]

    def __post_init__(self):
        eps = [r.eps for r in self.rows]
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon must decrease strictly down the rows")
        if any(r.errI < 0 or r.errII_weak < 0 or r.sup_eps_uII < 0 for r in self.rows):
            raise ValueError("errors must be nonnegative")

    @property
    def errI_monotone(self) -> bool:
        errs = [r.errI for r in self.rows]
        return all(b < a for a, b in zip(errs, errs[1:]))

    def to_csv(self) -> str:
        return csv_text(("epsilon", "errI", "errII_weak", "sup_eps_uII", "observed_order"),
                        [[getattr(r, f.name) for r in self.rows] for f in fields(LadderRow)])


__all__ = [
    "Array",
    "MatrixField",
    "SymbolError",
    "SingularSourceError",
    "SpatialGrid",
    "spectral_gradient",
    "l2_norm",
    "eval_matrix_field",
    "as_point",
    "constant_matrix",
    "SpectralMultiplier",
    "RelaxationSystem",
    "unit_directions",
    "transport_blocks",
    "transport_symbols",
    "coupling_symbols",
    "principal_symbols",
    "principal_symbol",
    "stiff_jacobian",
    "limit_generators",
    "limit_generator",
    "FieldState",
    "Symmetrizer",
    "apply_m21_gradient",
    "equilibrium_uII",
    "CheckResult",
    "ValidationReport",
    "LadderRow",
    "ConvergenceTable",
]
