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
* transport symbols H are real for differential transport and [[0, -iB], [iB, 0]]
  for a Fourier multiplier B(D); for every system the principal symbol is -i H, a
  mode evolves by exp((t / eps) * principal symbol), and H has real spectrum exactly
  when the system is hyperbolic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

Array = np.ndarray
MatrixField = Union[Array, Callable[[Array], Array]]


class SymbolError(ValueError):
    """Raised when symbol-level algebra cannot be carried out."""


class SingularSourceError(SymbolError):
    """Stiff source derivative is singular, or not finite, where invertibility is required."""

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
        ns = tuple(int(n) for n in self.ns)
        if ns != tuple(self.ns):
            raise ValueError(f"cell counts must be integers, got {tuple(self.ns)}")
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))
        if len(self.ns) != len(self.lengths):
            raise ValueError("ns and lengths must have equal length")
        if not 1 <= len(self.ns) <= 2:
            raise ValueError("only d = 1 or d = 2 grids are supported")
        if any(n < 4 for n in self.ns):
            raise ValueError("need at least 4 cells per axis")
        if any(not 0 < L < np.inf for L in self.lengths):
            raise ValueError(f"period lengths must be positive and finite, got {self.lengths}")

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


def mode_table(grid: SpatialGrid, stack: Array) -> Array:
    """A stack of per-mode matrices P (M or *ns, r, c) over every mode, in C order, as apply_modes takes it.

    That is contiguous (r, c, *ns[:-1], ns[-1] // 2 + 1) complex, so each entry's modes form one row: the
    modes irfft reads of (P(k) + conj P(-k)) / 2, all of P that a real field's real image depends on.
    A real operator's P(-k) is conj P(k), except where an even axis's unpaired Nyquist wavenumber
    stands for both k and -k.
    """
    r, c = stack.shape[-2:]
    spatial = tuple(range(2, 2 + grid.d))
    full = np.moveaxis(stack.reshape(grid.ns + (r, c)), (-2, -1), (0, 1))
    mirror = np.roll(np.flip(full, spatial), 1, spatial)  # P(-k) at k
    half = (Ellipsis, slice(grid.ns[-1] // 2 + 1))
    return np.ascontiguousarray(0.5 * (full[half] + np.conj(mirror[half])), dtype=complex)


def mode_work(grid: SpatialGrid, rows: int, cols: int) -> Tuple[Array, Array, Array]:
    """apply_modes' complex scratch for an (rows, cols) table: spectrum (cols, ...), product and term (rows, ...)."""
    half = grid.ns[:-1] + (grid.ns[-1] // 2 + 1,)
    return np.empty((cols,) + half, complex), np.empty((rows,) + half, complex), np.empty((rows,) + half, complex)


def to_modes(grid: SpatialGrid, fields: Array, out: Optional[Array] = None) -> Array:
    """Half spectrum of real fields (c, *ns): rfft on the last axis, fft on the others, into out if given."""
    out = np.fft.rfft(fields, axis=-1, out=out)
    for ax in range(1, grid.d):
        np.fft.fft(out, axis=ax, out=out)
    return out


def mode_product(table: Array, spectrum: Array, out: Array, term: Array) -> Array:
    """A mode_table's per-mode action on a half spectrum (c, ...), into out (r, ...), summed column by column."""
    np.multiply(table[:, 0], spectrum[0], out=out)
    for col in range(1, table.shape[1]):
        np.multiply(table[:, col], spectrum[col], out=term)
        out += term
    return out


def from_modes(grid: SpatialGrid, spectrum: Array, out: Optional[Array] = None) -> Array:
    """Real fields (r, *ns) of a half spectrum, into out if given; to_modes inverted.  In 2-d the
    spectrum is overwritten."""
    for ax in range(1, grid.d):
        np.fft.ifft(spectrum, axis=ax, out=spectrum)
    return np.fft.irfft(spectrum, n=grid.ns[-1], axis=-1, out=out)


def apply_modes(grid: SpatialGrid, table: Array, fields: Array, out: Optional[Array] = None,
                work: Optional[Tuple[Array, Array, Array]] = None) -> Array:
    """Per-mode action of a mode_table on real fields (c, *ns) -> (r, *ns), into out if given.

    to_modes, mode_product over the half spectrum, then from_modes.  work is mode_work's scratch,
    allocated per call if not given; fields may be out, read before out is written.
    """
    spectrum, product, term = work if work is not None else mode_work(grid, *table.shape[:2])
    to_modes(grid, fields, spectrum)
    return from_modes(grid, mode_product(table, spectrum, product, term), out)


def plan_times(T: float, snapshot_times: Optional[Sequence[float]]) -> List[float]:
    """Requested times in (0, T) plus T, sorted, with times within 1e-12 * max(T, 1) merged.

    A time that close to 0 or to T merges into the initial state or T (so one
    past T by that much lands on T); a cluster of times keeps its earliest.
    A negative or non-finite T, which no integration reaches, raises ValueError.
    """
    if T < 0:
        raise ValueError("cannot integrate to negative time")
    if not math.isfinite(T):
        raise ValueError(f"cannot integrate to non-finite time {T}")
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
    """Solve mats[:, :, p] x[:, p] = rhs[:, p] at every point p; mats (m, m, M), rhs (m, M).

    mats (m, m, 1) is one matrix for every point, solved as its broadcast to (m, m, M) bit for bit.
    """
    if mats.shape[0] == 1:  # a division is LAPACK's 1 x 1 solve bit for bit; rhs * (1 / mats) is not
        if not mats.all():
            raise np.linalg.LinAlgError("Singular matrix")
        return rhs / mats[0]
    sol = np.linalg.solve(mats.transpose(2, 0, 1), rhs.T[..., None])
    return sol[..., 0].T


def constant_matrix(f: MatrixField) -> Optional[Array]:
    return None if callable(f) else np.asarray(f, dtype=float)


# ---------------------------------------------------------------------------
# spectral multiplier transport (matrix square-root symbols)


@dataclass(frozen=True)
class SpectralMultiplier:
    """Symmetric positive multiplier B(xi) = S(xi)^{1/2}, known through its quadratic symbol S.

    symbol maps wave vectors (d, M) to S on each of them, (M, k, k).
    """

    symbol: Callable[[Array], Array]

    def b_at(self, xi: Array) -> Array:
        """B on wave vectors (d, M), shape (M, k, k); SymbolError where S is not positive semidefinite."""
        s = np.asarray(self.symbol(np.asarray(xi, dtype=float)), dtype=float)
        vals, vecs, vecs_t = eig_factors(0.5 * (s + np.swapaxes(s, -1, -2)))  # exactly symmetric, so eigh
        if np.any(vals < -1e-12 * max(1.0, np.max(np.abs(vals)))):
            raise SymbolError("quadratic symbol is not positive semidefinite")
        return eig_function(vecs, np.sqrt(np.clip(vals, 0.0, None)), vecs_t)


# ---------------------------------------------------------------------------
# systems


@dataclass(frozen=True)
class RelaxationSystem:
    """Semilinear relaxation system in decoupled block form.

    The transport blocks are matrix fields per axis; m11 is zero unless the
    system deliberately violates the conserved-block structure (those systems
    relax to the null solution, not to a parabolic limit).  The stiff source
    q(x, u, z) takes the unscaled non-conserved state z and must be linear in it,
    q = q_nu(x, u, 0) z, as the solver's exact source step takes it and validation's
    source_structure check certifies; q_nu is its derivative in z, a callable
    (x, u, z) -> (m, m[, M]), or a constant (m, m) array, which the solver tabulates once.
    """

    k: int
    m: int
    d: int
    m12: Optional[Tuple[MatrixField, ...]] = None
    m21: Optional[Tuple[MatrixField, ...]] = None
    m22: Optional[Tuple[MatrixField, ...]] = None
    m11: Optional[Tuple[MatrixField, ...]] = None
    q: Optional[Callable[[Array, Array, Array], Array]] = None
    q_nu: Optional[Union[Array, Callable[[Array, Array, Array], Array]]] = None
    dtilde_I: Optional[Callable[[Array, Array, Array, float], Array]] = None
    d_II: Optional[Callable[[Array, Array], Array]] = None
    reaction: Optional[Callable[[Array], Array]] = None
    multiplier: Optional[SpectralMultiplier] = None
    positive_states: bool = False  # the structure holds only while every uI component stays > 0
    name: str = ""

    @property
    def n(self) -> int:
        return self.k + self.m

    @property
    def constant_coefficients(self) -> bool:
        """True when every transport block is an array, as for multiplier transport, which has none."""
        fields_ = (self.m11, self.m12, self.m21, self.m22)
        return not any(callable(blk) for per_axis in fields_ for blk in per_axis or ())

    def __post_init__(self):
        if self.k <= 0 or self.m <= 0 or not 1 <= self.d <= 2:
            raise ValueError("need k >= 1, m >= 1, d in {1, 2}")
        if self.q is None or self.q_nu is None:
            raise ValueError("systems must carry q and q_nu")
        if self.multiplier is not None and self.k != self.m:
            raise ValueError("multiplier transport requires k == m")
        k, m, d = self.k, self.m, self.d
        fields_ = [((self.q_nu,) * d, m, m, "q_nu")]  # one q_nu serves every axis
        if self.multiplier is None:  # an absent m22 or m11 is zero
            fields_ += [(self.m12, k, m, "m12"), (self.m21, m, k, "m21")]
            fields_ += [f for f in ((self.m22, m, m, "m22"), (self.m11, k, k, "m11")) if f[0]]
        for blocks, rows, cols, label in fields_:
            if blocks is None or len(blocks) != d:
                raise ValueError(f"{label} must provide one field per axis")
            for b in blocks:
                c = constant_matrix(b)
                if c is not None and c.shape != (rows, cols):
                    raise ValueError(f"{label} block has shape {c.shape}, expected {(rows, cols)}")

    def stiff_source(self, x: Array, u: Array, z: Array) -> Array:
        return np.asarray(self.q(x, u, z), dtype=float)

    def stiff_source_jacobian(self, x: Array, u: Array, z: Array) -> Array:
        """q_nu at M column-paired points, always of shape (m, m, M); a constant q_nu as a broadcast view."""
        jac = np.asarray(self.q_nu(x, u, z) if callable(self.q_nu) else self.q_nu, dtype=float)
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
    """Transport symbols sum_j xi_j T_j(x) on every (x, xi) pair, (Mx, Mxi, N, N), x outer.

    T_j are the transport_blocks, each field evaluated once, so these are real; multiplier
    systems give the complex [[0, -i B(xi)], [i B(xi), 0]] with B evaluated once per direction.
    """
    directions = np.asarray(directions, dtype=float)
    if directions.shape[0] != sys.d:
        raise SymbolError(f"wave vector has dimension {directions.shape[0]}, system is {sys.d}-d")
    if sys.multiplier is not None:
        mx = np.atleast_2d(x_points).shape[1]
        ib = np.broadcast_to(1j * sys.multiplier.b_at(directions), (mx, directions.shape[1], sys.k, sys.k))
        return np.block([[np.zeros_like(ib), -ib], [ib, np.zeros_like(ib)]])
    tab = np.moveaxis(transport_blocks(sys, x_points), -1, 1)  # (d, Mx, N, N)
    return np.sum(directions[:, None, :, None, None] * tab[:, :, None], axis=0)


def coupling_symbols(sys: RelaxationSystem, x_points: Array, directions: Array) -> Tuple[Array, Array]:
    """Coupling blocks (sum xi_j M12_j(x), sum xi_j M21_j(x)), each (Mx, Mxi, rows, cols).

    Multiplier systems give (-i B(xi), i B(xi)).  Both are contiguous copies, so
    matrix products on them take the same path as on freshly built stacks.
    """
    syms, k = transport_symbols(sys, x_points, directions), sys.k
    return np.ascontiguousarray(syms[..., :k, k:]), np.ascontiguousarray(syms[..., k:, :k])


def principal_symbols(sys: RelaxationSystem, x_points: Array, directions: Array) -> Array:
    """Principal symbols on every (x, xi) pair, shape (Mx, Mxi, N, N) complex.

    x_points is (d, Mx) and directions (d, Mxi); x varies slowest.  This is -i
    times the transport_symbols: -i sum_j xi_j T_j(x) for differential
    transport, [[0, -B(xi)], [B(xi), 0]] for a multiplier.
    """
    return -1j * transport_symbols(sys, x_points, directions)


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

    This is m12 Qnu^{-1} m21 of the coupling_symbols at z = 0, so a multiplier
    gives B(xi) Qnu^{-1} B(xi), of complex dtype.  The relaxed dynamics per mode
    reads du/dt = G u + lower order.  Returns (Mx, Mu, Mxi, k, k), x outer and
    xi inner; SingularSourceError names the first (x, u), in that order, where the
    stiff jacobian is singular or not finite.
    """
    mx, mu = x_points.shape[1], u_points.shape[1]
    us = np.tile(u_points, mx)
    qnu = sys.stiff_source_jacobian(np.repeat(x_points, mu, axis=1), us, np.zeros((sys.m, mx * mu)))
    qnu = np.moveaxis(qnu, -1, 0)
    finite = np.isfinite(qnu).all(axis=(1, 2))
    if not finite.all():
        i = int(np.argmin(finite))
        raise SingularSourceError(f"stiff jacobian is not finite at u={us[:, i]}", np.nan, sample=i)
    svals = np.linalg.svd(qnu, compute_uv=False)
    singular = svals[:, -1] <= 1e-14 * np.maximum(1.0, svals[:, 0])
    if np.any(singular):
        i = int(np.argmax(singular))
        raise SingularSourceError(
            f"stiff jacobian is singular at u={us[:, i]}, smallest singular value {svals[i, -1]:.3e}",
            float(svals[i, -1]), sample=i,
        )
    m12, m21 = coupling_symbols(sys, x_points, directions)
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
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
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

    For multiplier systems this is the action of -B(D) = i * (i B(D)) on U^I,
    applied per Fourier mode with B evaluated at the grid's wavenumbers.
    """
    uI = np.asarray(uI, dtype=float)
    if sys.multiplier is not None:
        b = sys.multiplier.b_at(grid.wavenumbers().reshape(grid.d, -1))
        return -apply_modes(grid, mode_table(grid, b), uI)
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
    if (qnu := constant_matrix(sys.q_nu)) is not None:  # one matrix for every point, inverted once
        return (np.linalg.inv(qnu) @ rhsflat).reshape((sys.m,) + grid.ns)
    qnu = sys.stiff_source_jacobian(xs, uflat, np.zeros_like(rhsflat))
    return solve_points(qnu, rhsflat).reshape((sys.m,) + grid.ns)


# ---------------------------------------------------------------------------
# reports and tables
#
# Every number in a CSV file is the text of '%.17g' % v, which reads back to the same
# float64.  `g17_bytes` writes that text for a whole column in NumPy passes, after
# Adams, "Ryu revisited: printf floating point conversion" (OOPSLA 2019): with
# k = floor(log10|v|), y = |v| 10^(16-k) is formed as an unevaluated sum p + t by
# Dekker's exact product (Numer. Math. 18, 1971) against 10^(16-k) = hi + lo, so y
# is known to about 2^-104 relative, some 1e-14 of a unit in its 17th digit.
# Rounding y to the integer D then gives %.17g's digits, unless y's fraction lies
# within 1e-9 of 1/2.  Those values, and zero, non-finite values and |v| outside
# [1e-280, 1e280], are written by '%.17g' itself.

_G17_BYTES = 32  # one number's text (at most 24 characters) in 4 little-endian words; byte 31 is NUL
_POWERS = (-276, 298)  # the exponents s of 10^s tabulated: scaling asks for -265..298
_EXPONENTS = 282  # |k| of the decades the exponent table covers
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for 53-bit significands
_U8 = np.dtype("<u8")
_TEXT = str.maketrans(",\n\r\0", "    ")  # characters a text field may not hold
_CHUNK_NUMBERS = 4096  # the numbers formatted at once, a chunk of rows


def _split(a: Array) -> Tuple[Array, Array]:
    """a = ah + al with ah, al of at most 26 significant bits."""
    c = a * _SPLIT
    ah = c - (c - a)
    return ah, a - ah


def _product_error(p: Array, a: Tuple[Array, Array], b: Tuple[Array, Array]) -> Array:
    """x y - p, exactly, for p = fl(x y) and x, y given split (Dekker's TwoProduct)."""
    (ah, al), (bh, bl) = a, b
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


@functools.lru_cache(maxsize=None)
def _g17_tables():
    """The kernel's constant tables, built on first use (about a millisecond), not at import."""
    # 10^s = hi + lo for s = 23 j + i: the anchor 10^(23 j) rounded from exact integers,
    # times the exact double 10^i by an error-free product, to ~2^-105 relative
    anchors = []
    for j in range(_POWERS[0] // 23, _POWERS[1] // 23 + 1):
        n = 10 ** abs(23 * j)
        if j >= 0:
            hi = float(n)
            anchors.append((hi, float(n - int(hi))))
        else:
            hi = 1 / n
            num, den = hi.as_integer_ratio()
            anchors.append((hi, (den - num * n) / (den * n)))
    a_hi, a_lo = np.array(anchors).T[:, :, None]
    steps = np.array([float(10 ** i) for i in range(23)])
    hi = a_hi * steps
    lo = _product_error(hi, _split(a_hi), _split(steps)) + a_lo * steps
    hi, lo = hi.ravel(), lo.ravel()
    powers = (hi, lo, *_split(hi))
    # ASCII digits of 0..9999, four to a word, and each group's trailing zeros (4 for 0000)
    d = [np.arange(10).reshape((10,) + (1,) * (3 - i)) for i in range(4)]
    digits4 = np.empty((10, 10, 10, 10, 4), np.uint8)
    for i, v in enumerate(d):
        digits4[..., i] = 48 + v
    digits4 = digits4.view("<u4").ravel()
    z = [(v == 0).astype(np.int8) for v in d]
    tz4 = (z[3] * (1 + z[2] * (1 + z[1] * (1 + z[0])))).ravel()
    # per layout (k <= -5, each k in -4..16, k >= 17) and number of significant digits,
    # for each body byte: whether it keeps its own digit, the digit one byte before it
    # or the point; and the sign word's "0." prefix
    k, b = np.arange(-5, 18)[:, None, None], np.arange(24)
    expo, neg = (k < -4) | (k > 16), (k >= -4) & (k < 0)
    point = np.where(expo, 1, np.where(neg, 18, k + 1))  # 18: no point among the digits
    last = np.maximum(np.arange(18)[:, None], np.where(expo | neg, 0, k + 1))  # digits written
    written = b < last + (last > point)

    def words(flags, byte):
        return (flags * np.uint8(byte)).view(_U8)

    own, shifted, dot = (words(f & written, v)
                         for f, v in ((b < point, 255), (b > point, 255), (b == point, 46)))
    prefix = words(neg & (b >= 1) & (b <= 1 - k), np.frombuffer(b"\0" + b"0.000".ljust(23, b"\0"), np.uint8))
    masks = np.stack([m[..., w] for w in range(3) for m in (own, shifted, dot)]
                     + [np.broadcast_to(prefix[..., 0], own.shape[:2])]).reshape(10, -1)
    # 'e' and the exponent, at bytes 2-6 of the last word, for every decade written that way
    k = np.arange(-_EXPONENTS, _EXPONENTS + 1)
    ak = np.abs(k)
    d2, d1, d0 = 48 + ak // 100, 48 + ak // 10 % 10, 48 + ak % 10
    digits = np.where(ak >= 100, d2 | d1 << 8 | d0 << 16, d1 | d0 << 8)
    exponents = (101 | np.where(k < 0, 45, 43) << 8 | digits << 16).astype(_U8) << 16
    exponents[(k >= -4) & (k <= 16)] = 0
    return powers, digits4, tz4, masks, exponents


def _scaled(a: Array, s: Array, powers) -> Tuple[Array, Array]:
    """a 10^s as an unevaluated sum p + t, to about 2^-104 relative."""
    hi, lo, hh, hl = (tab[s - _POWERS[0]] for tab in powers)
    p = a * hi
    return p, _product_error(p, _split(a), (hh, hl)) + a * lo


def g17_bytes(values) -> Array:
    """Each float64 of `values` as NUL-padded ASCII: row i of an (n, 32) uint8 array.

    Row i with its NUL bytes removed is exactly '%.17g' % values[i], and its last
    byte is NUL.  The row is four little-endian words: the sign and, for
    -4 <= k < 0, "0." and zeros; then the 17 digits with the point after k + 1 of
    them (after one in exponent form) and trailing zeros dropped; then `e+dd[d]`
    when k < -4 or k >= 17.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    powers, digits4, tz4, masks, exponents = _g17_tables()
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    # the decade: log10 can miss by one next to a power of ten, and p + t says which way
    k = np.floor(np.log10(a)).astype(np.int64)
    p, t = _scaled(a, 16 - k, powers)
    below, above = (p - 1e16) + t < 0, (p - 1e17) + t >= 0
    fix = np.flatnonzero(below | above)
    if len(fix):
        k[fix] += above[fix].astype(np.int64) - below[fix]
        p[fix], t[fix] = _scaled(a[fix], 16 - k[fix], powers)
    # D = round(p + t): p >= 2^53 is an integer, so t's fraction decides, and 10^17 carries
    whole = np.floor(t)
    t -= whole
    fast &= np.abs(t - 0.5) >= 1e-9
    D = p.astype(np.int64) + whole.astype(np.int64) + (t > 0.5)
    del a, p, t, whole, below, above  # a chunk's scratch: only what the digits still need
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    k += carry
    # the digits: the first, then two words of eight; c0..c2 hold all 17 from byte 0 on
    first, rest = np.divmod(D, 10 ** 16)
    eights = np.divmod(rest, 10 ** 8)
    groups = [np.divmod(v, 10 ** 4) for v in eights]
    tz = [tz4[lo] + (lo == 0) * tz4[hi] for hi, lo in groups]
    ndig = 17 - tz[1] - (eights[1] == 0) * tz[0]
    w0, w1 = (digits4[hi] | digits4[lo].astype(_U8) << 32 for hi, lo in groups)
    del D, rest, eights, groups, tz
    c0 = (first.astype(_U8) + 48) | w0 << 8
    c1 = w0 >> 56 | w1 << 8
    c2 = w1 >> 56
    # the layout: each body word keeps its own digits before the point and the digits
    # one byte on after it, cut after the last digit written
    layout = (np.clip(k, -5, 17) + 5) * 18 + ndig
    out = np.empty((len(x), 4), _U8)
    out[:, 0] = masks[9][layout] | np.signbit(x).astype(_U8) * 45
    for w, (own, shifted) in enumerate(((c0, c0 << 8), (c1, c1 << 8 | c0 >> 56), (c2, c2 << 8 | c1 >> 56))):
        own_mask, shifted_mask, point = (masks[3 * w + i][layout] for i in range(3))
        out[:, w + 1] = (own & own_mask) | (shifted & shifted_mask) | point
    out[:, 3] |= exponents[k + _EXPONENTS]
    slow = np.flatnonzero(~fast)
    if len(slow):
        out[slow] = _percent_g17(x[slow])
    return out.view(np.uint8)


def _percent_g17(x: Array) -> Array:
    """g17_bytes's words for the values it leaves to '%.17g' % v, formatted once per distinct value."""
    bits, inverse = np.unique(x.view(np.int64), return_inverse=True)
    text = b"".join(("%.17g" % v).encode().ljust(_G17_BYTES, b"\0") for v in bits.view(np.float64).tolist())
    return np.frombuffer(text, _U8).reshape(-1, 4)[inverse.ravel()]


def _text_block(cells: List[bytes], least: int = 1) -> Array:
    """Each cell left-aligned in a row of whole words, NUL-padded, with a byte to spare for the separator."""
    width = -(-(max([len(c) + 1 for c in cells] + [least])) // 8) * 8
    block = np.frombuffer(bytearray(b"".join(c.ljust(width, b"\0") for c in cells)), _U8)
    return block.reshape(len(cells), width // 8)


def _cell_blocks(columns: Sequence) -> List[Array]:
    """Columns of text, None and numbers as blocks: rows of whole words, NUL-padded.

    The numbers of all the columns go through one g17_bytes call.
    """
    texts = [[b"" if v is None else v.translate(_TEXT).encode() if isinstance(v, str) else None
              for v in col] for col in columns]
    numbers = [col[i] for col, text in zip(columns, texts) for i, v in enumerate(text) if v is None]
    numbers = g17_bytes(numbers).view(_U8) if numbers else None
    blocks, done = [], 0
    for text in texts:
        rows = [i for i, v in enumerate(text) if v is None]
        block = _text_block([v or b"" for v in text], _G17_BYTES if rows else 1)
        if rows:
            block[rows, :4] = numbers[done:done + len(rows)]
            done += len(rows)
        blocks.append(block)
    return blocks


def _rows(fields: Sequence[Array], n: int) -> List[str]:
    """The text of n rows, a chunk at a time.

    A float64 field holds numbers, and each chunk's numbers go through one
    g17_bytes call; any other field is a block of finished text, copied.
    """
    words = [4 if f.dtype == np.float64 else f.shape[1] for f in fields]
    ends = np.cumsum(words)
    seps = np.full(len(fields), ord(","), np.uint8)
    seps[-1] = ord("\n")
    numeric = [f.dtype == np.float64 for f in fields]
    step = max(1, _CHUNK_NUMBERS // max(1, sum(numeric)))
    parts = []
    for start in range(0, n, step):
        rows = min(n, start + step) - start
        cells = [f[start:start + rows] for f in fields]
        numbers = [c for c, num in zip(cells, numeric) if num]
        if numbers:
            numbers = g17_bytes(np.concatenate(numbers)).view(_U8).reshape(len(numbers), rows, 4)
        numbers = iter(numbers)
        block = np.empty((rows, int(ends[-1])), _U8)
        for cell, num, end, width in zip(cells, numeric, ends, words):
            block[:, end - width:end] = next(numbers) if num else cell
        block.view(np.uint8)[:, 8 * ends - 1] = seps
        parts.append(block.tobytes().translate(None, b"\0").decode())
    return parts


def csv_text(header: Sequence[str], columns: Sequence) -> str:
    """CSV text of a table: the header line, then one line per row.

    Every number is written as '%.17g' % v (by `g17_bytes`), which reads back to
    the same float64.  An array column holds numbers; any other column holds text
    (commas, newlines, carriage returns and NULs become spaces, so every row keeps
    its fields), numbers, or None for an empty field.  There must be one header name
    per column, and every column must have the same length.  Rows are formatted a
    chunk at a time into NUL-padded blocks of whole words, each compacted once by
    `bytes.translate`, so only one chunk's block exists beside the text.
    """
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    numeric = [isinstance(col, np.ndarray) and col.dtype != object for col in columns]
    blocks = iter(_cell_blocks([col for col, num in zip(columns, numeric) if not num]))
    fields = [np.asarray(col, dtype=np.float64) if num else next(blocks)
              for col, num in zip(columns, numeric)]
    if any(f.ndim != 1 for f, num in zip(fields, numeric) if num):
        raise ValueError("an array column must be 1-d")
    lengths = [len(f) for f in fields]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {', '.join(map(str, lengths))}")
    return "".join([",".join(header) + "\n", *(_rows(fields, lengths[0]) if fields else ())])


@functools.lru_cache(maxsize=8)  # grids are small frozen keys; a 128^2 grid's block is ~0.8 MB
def _coordinate_block(grid: SpatialGrid) -> Array:
    """Each cell center's `x[,y]` text as csv_text writes it, one row of whole words per cell."""
    block = _text_block("".join(_rows(list(grid.flat_points()), grid.cell_count)).encode().split(b"\n")[:-1])
    block.flags.writeable = False  # every caller gets this one array
    return block


def field_csv(grid: SpatialGrid, names: Sequence[str], rows) -> str:
    """Fields on a grid, one row of cell values per name, in the export schema x[,y],<names>."""
    fields = [_coordinate_block(grid), *(np.asarray(r, dtype=np.float64) for r in rows)]
    return "".join([",".join(["x", "y"][: grid.d] + list(names)) + "\n", *_rows(fields, grid.cell_count)])


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

    def errI_rise(self) -> Optional[Tuple[LadderRow, LadderRow]]:
        """The first two adjacent rows whose errI does not fall, or None."""
        return next(((a, b) for a, b in zip(self.rows, self.rows[1:]) if not b.errI < a.errI), None)

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
