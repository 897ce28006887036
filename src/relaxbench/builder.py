"""Constructions of relaxation systems from parabolic targets, plus fixtures.

Three routes are provided: reaction-diffusion data with a symmetric positive
definite block matrix, quasilinear divergence-form data with an invertible
diffusion matrix on a state box, and the constant-coefficient square-root
multiplier route.  A separate entry point decouples a raw hyperbolic system
into conserved and non-conserved blocks via a user-supplied transform.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    Array,
    MatrixField,
    RelaxationSystem,
    SpatialGrid,
    SpectralMultiplier,
    Symmetrizer,
    as_point,
    eval_matrix_field,
    solve_points,
    unit_directions,
)


class BuildError(ValueError):
    """Raised when a construction's hypotheses fail on the sampled data."""


# ---------------------------------------------------------------------------
# parabolic targets


def _quadratic_symbols(blocks: Array, directions: Array) -> Array:
    """sum_j (sum_l (xi_j xi_l) blocks_jl) for blocks (d, d, k, k, M); returns (M, Mxi, k, k)."""
    dirs = np.asarray(directions, dtype=float)
    xx = dirs[:, None] * dirs[None, :]
    terms = xx[:, :, None, :, None, None] * np.moveaxis(blocks, -1, 2)[:, :, :, None]
    return terms.sum(axis=1).sum(axis=0)


@dataclass(frozen=True)
class ReactionDiffusion:
    """Target system du/dt = sum_jk A_jk(x) d_j d_k u + f(u).

    diffusion is a constant array of shape (d, d, k, k) or a vectorized
    callable x (d, M) -> (d, d, k, k, M); f maps u (k, M) -> (k, M).
    """

    k: int
    d: int
    diffusion: Union[Array, Callable[[Array], Array]]
    f: Optional[Callable[[Array], Array]] = None
    name: str = ""

    def diffusion_at(self, x: Array) -> Array:
        """Blocks at points x (d, M); returns (d, d, k, k, M)."""
        return eval_matrix_field(self.diffusion, x)

    def second_order_symbols(self, x_points: Array, directions: Array) -> Array:
        """sum_jk A_jk(x) xi_j xi_k on every (x, xi) pair, shape (Mx, Mxi, k, k)."""
        return _quadratic_symbols(self.diffusion_at(x_points), directions)

    def second_order_symbol(self, x, xi) -> Array:
        """sum_jk A_jk(x) xi_j xi_k, a (k, k) matrix at one point."""
        return self.second_order_symbols(as_point(x), np.reshape(xi, (-1, 1)))[0, 0]

    def mode_symbols(self, grid: SpatialGrid) -> Array:
        """sum_jl A_jl kappa_j kappa_l on every Fourier mode of the grid, (*ns, k, k); A constant."""
        kappa = grid.wavenumbers()
        # not _quadratic_symbols: its other summation order moves the aniso2d reference by round-off
        return np.einsum("j...,l...,jlab->...ab", kappa, kappa, np.asarray(self.diffusion, dtype=float))


def _block_matrix(blocks: Array, count: int) -> Array:
    """(d, d, k, k, M or 1) blocks as one (dk, dk, count) matrix, block (i, j) at (i*k, j*k)."""
    d, _, k = blocks.shape[:3]
    out = np.empty((d * k, d * k, count))
    out.reshape(d, k, d, k, count)[...] = blocks.transpose(0, 2, 1, 3, 4)
    return out


def isotropic_diffusion(k: int, d: int, coeff: float = 1.0) -> Array:
    """Diffusion blocks for coeff * Laplacian acting on k components."""
    a = np.zeros((d, d, k, k))
    for j in range(d):
        a[j, j] = coeff * np.eye(k)
    return a


def scalar_diffusion_matrix(mat: Sequence[Sequence[float]]) -> Array:
    """Diffusion blocks for a scalar equation from a d x d coefficient matrix."""
    m = np.asarray(mat, dtype=float)
    return m[:, :, None, None] * np.ones((1, 1, 1, 1))


@dataclass(frozen=True)
class QuasilinearDivergence:
    """Target du/dt + sum_i d_i(F_i(u) - sum_j B_ij(u) d_j u) = G(u).

    diffusion maps u (k, M) -> (d, d, k, k, M); flux maps u -> (d, k, M);
    g maps u -> (k, M).  The state box declares where the hypotheses are
    certified.
    """

    k: int
    d: int
    diffusion: Callable[[Array], Array]
    flux: Optional[Callable[[Array], Array]] = None
    g: Optional[Callable[[Array], Array]] = None
    state_box: Tuple[Tuple[float, ...], Tuple[float, ...]] = ((-1.0,), (1.0,))
    name: str = ""

    def big_b(self, u: Array) -> Array:
        """Full (kd, kd, M) diffusion matrix at states u (k, M)."""
        u = np.atleast_2d(np.asarray(u, dtype=float))
        return _block_matrix(np.asarray(self.diffusion(u), dtype=float), u.shape[-1])

    def second_order_symbols(self, u_points: Array, directions: Array) -> Array:
        """sum_ij B_ij(u) xi_i xi_j on every (u, xi) pair, shape (Mu, Mxi, k, k)."""
        return _quadratic_symbols(np.asarray(self.diffusion(u_points), dtype=float), directions)

    def second_order_symbol(self, u, xi) -> Array:
        up = np.asarray(u, dtype=float).reshape(self.k, 1)
        return self.second_order_symbols(up, np.reshape(xi, (-1, 1)))[0, 0]


ParabolicTarget = Union[ReactionDiffusion, QuasilinearDivergence]


def scalar_quasilinear(
    b: Callable[[Array], Array],
    flux: Optional[Callable[[Array], Array]] = None,
    g: Optional[Callable[[Array], Array]] = None,
    state_box: Tuple[float, float] = (-1.0, 1.0),
    name: str = "",
) -> QuasilinearDivergence:
    """One-component, one-dimensional quasilinear target from scalar callables."""

    def diffusion(u):
        return np.asarray(b(u[0]), dtype=float).reshape(1, 1, 1, 1, -1)

    flux_fn = None
    if flux is not None:
        flux_fn = lambda u: np.asarray(flux(u[0]), dtype=float).reshape(1, 1, -1)
    g_fn = None
    if g is not None:
        g_fn = lambda u: np.asarray(g(u[0]), dtype=float).reshape(1, -1)
    return QuasilinearDivergence(
        k=1, d=1, diffusion=diffusion, flux=flux_fn, g=g_fn,
        state_box=((state_box[0],), (state_box[1],)), name=name,
    )


# ---------------------------------------------------------------------------
# sampling helpers


def box_lattice(lo: Sequence[float], hi: Sequence[float], per_axis: int = 3, cap: int = 243) -> Array:
    """Deterministic lattice of states in a box, shape (dim, count)."""
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    axes = [np.linspace(a, b, per_axis) for a, b in zip(lo, hi)]
    pts = np.array(list(itertools.product(*axes))).T
    if pts.shape[1] > cap:
        idx = np.linspace(0, pts.shape[1] - 1, cap).astype(int)
        pts = pts[:, idx]
    return pts


def _default_x_samples(d: int) -> Array:
    axes = [np.linspace(0.0, 1.0, 5, endpoint=False)] * d
    return np.array(list(itertools.product(*axes))).T


# ---------------------------------------------------------------------------
# reaction-diffusion construction


def _rd_amat(target: ReactionDiffusion, x: Array) -> Array:
    """Assembled (kd, kd, M) block matrix of the diffusion data."""
    return _block_matrix(target.diffusion_at(x), x.shape[-1])


def from_reaction_diffusion(target: ReactionDiffusion) -> RelaxationSystem:
    """Relaxation system whose limit is the reaction-diffusion target.

    Requires the full (kd, kd) block matrix of diffusion data to be symmetric
    positive definite at the sampled points; that is stronger than ellipticity
    but makes the stiff source certifiably dissipative and the identity a
    symmetrizer.  Unsound data is rejected with a witness.
    """
    k, d = target.k, target.d
    xs = _default_x_samples(d)
    amat = _rd_amat(target, xs)
    sym_defect = np.max(np.abs(amat - np.swapaxes(amat, 0, 1)))
    if sym_defect > 1e-10 * max(1.0, np.max(np.abs(amat))):
        raise BuildError(f"diffusion block matrix is not symmetric (defect {sym_defect:.3e})")
    eigs = np.linalg.eigvalsh(np.moveaxis(amat, -1, 0))
    worst = int(np.argmin(eigs[:, 0]))
    if eigs[worst, 0] <= 0:
        raise BuildError(
            f"diffusion block matrix is not positive definite: "
            f"smallest eigenvalue {eigs[worst, 0]:.6g} at x={xs[:, worst]}"
        )

    def row(x, j):
        """M12_j(x) = [A_j1 ... A_jd](x), shape (k, kd, M); M21_j is its transpose."""
        blocks = target.diffusion_at(x)
        return np.concatenate([blocks[j, l] for l in range(d)], axis=1)

    if callable(target.diffusion):
        m12 = tuple((lambda x, j=j: row(x, j)) for j in range(d))
        m21 = tuple((lambda x, j=j: np.swapaxes(row(x, j), 0, 1)) for j in range(d))

        def q_nu(x, u, z):
            return -_rd_amat(target, x)
        jac = q_nu
    else:  # blocks and q_nu stay arrays, which the solver tabulates once
        x0 = np.zeros((d, 1))
        m12 = tuple(row(x0, j)[:, :, 0] for j in range(d))
        m21 = tuple(blk.T for blk in m12)
        q_nu = -_rd_amat(target, x0)[:, :, 0]

        def jac(x, u, z):
            return np.broadcast_to(q_nu[:, :, None], (k * d, k * d, z.shape[-1]))

    def q(x, u, z):
        return np.einsum("abm,bm->am", jac(x, u, z), z)

    m22 = tuple(np.zeros((k * d, k * d)) for _ in range(d))
    return RelaxationSystem(
        k=k, m=k * d, d=d, m12=m12, m21=m21, m22=m22,
        q=q, q_nu=q_nu, reaction=target.f,
        name=target.name or "reaction-diffusion",
    )


# ---------------------------------------------------------------------------
# quasilinear construction


def from_quasilinear(target: QuasilinearDivergence) -> RelaxationSystem:
    """Relaxation system whose limit is the quasilinear divergence target.

    The conserved equation transports the divergence of the stacked flux
    variable through constant selector blocks; all state dependence sits in
    the stiff source -B(u)^{-1} z and the lower-order term B(u)^{-1} F(u).
    """
    k, d = target.k, target.d
    lo, hi = target.state_box
    us = box_lattice(lo, hi, per_axis=5)
    bmat = target.big_b(us)
    conds = np.linalg.cond(np.moveaxis(bmat, -1, 0))
    worst = int(np.argmax(conds))
    if not np.all(np.isfinite(conds)) or conds[worst] > 1e12:
        raise BuildError(
            f"diffusion matrix is numerically singular inside the state box at u={us[:, worst]}"
        )

    def selector(j):
        e = np.zeros((k, k * d))
        e[:, j * k:(j + 1) * k] = np.eye(k)
        return e

    m12 = tuple(selector(j) for j in range(d))
    m21 = tuple(selector(j).T for j in range(d))
    m22 = tuple(np.zeros((k * d, k * d)) for _ in range(d))

    def q(x, u, z):
        return -solve_points(target.big_b(u), z)

    def q_nu(x, u, z):
        big = np.moveaxis(target.big_b(u), -1, 0)
        return -np.moveaxis(np.linalg.inv(big), 0, -1)

    d_II = None
    if target.flux is not None:
        def d_II(u, z):
            fl = np.asarray(target.flux(u), dtype=float)  # (d, k, M)
            return solve_points(target.big_b(u), fl.reshape(k * d, -1))

    return RelaxationSystem(
        k=k, m=k * d, d=d, m12=m12, m21=m21, m22=m22,
        q=q, q_nu=q_nu, d_II=d_II, reaction=target.g,
        name=target.name or "quasilinear",
    )


# ---------------------------------------------------------------------------
# square-root multiplier construction


def from_sqrt_symbol(target: ReactionDiffusion) -> RelaxationSystem:
    """Constant-coefficient relaxation through the square root of the symbol.

    The transport is the Fourier multiplier B(D), B(xi) = S(xi)^{1/2} with S
    the quadratic symbol of the diffusion data, with transport symbol
    [[0, -i B], [i B, 0]]; the stiff source is simply -z.  S must be positive
    definite on the unit directions, or BuildError names the worst one.
    """
    if callable(target.diffusion):
        raise BuildError("square-root construction requires constant coefficients")
    k, d = target.k, target.d
    mult = SpectralMultiplier(symbol=lambda xi: target.second_order_symbols(np.zeros((d, 1)), xi)[0])
    dirs = unit_directions(d)
    smat = mult.symbol(dirs)
    low = np.linalg.eigvalsh(0.5 * (smat + np.swapaxes(smat, -1, -2)))[:, 0]  # B is the root of this part
    worst = int(np.argmin(low))
    if low[worst] <= 0:
        raise BuildError(f"quadratic symbol is not positive definite: "
                         f"smallest eigenvalue {low[worst]:.6g} at xi={dirs[:, worst]}")

    def q(x, u, z):
        return -z

    return RelaxationSystem(
        k=k, m=k, d=d, q=q, q_nu=-np.eye(k), reaction=target.f, multiplier=mult,
        name=target.name or "sqrt-multiplier",
    )


# ---------------------------------------------------------------------------
# decoupling of raw systems


@dataclass(frozen=True)
class RawSystem:
    """Hyperbolic system in original variables, before decoupling.

    a is one (N, N) matrix field per axis; b(x, W) is the stiff source, and
    b_jac(x, W) its exact (N, N, M) Jacobian in W.  d_lower(W) is the
    order-one source, if any.
    """

    n: int
    d: int
    a: Tuple[MatrixField, ...]
    b: Callable[[Array, Array], Array]
    b_jac: Callable[[Array, Array], Array]
    d_lower: Optional[Callable[[Array], Array]] = None
    name: str = ""


@dataclass(frozen=True)
class DecouplingTransform:
    """Invertible change of variables isolating the conserved components."""

    p: Array
    k: int

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.shape[0] != p.shape[1]:
            raise ValueError("transform matrix must be square")
        if not 0 < self.k < p.shape[0]:
            raise ValueError("row split k must be strictly inside the matrix")
        # 1-norm, one LU (within a factor N of the 2-norm): an SVD here raised carleman's peak RSS 0.9 MiB
        if not (cond := np.linalg.cond(p, 1)) <= 1e12:
            raise ValueError(f"transform matrix is numerically singular: condition number {cond:.3g}")

    @property
    def p_inv(self) -> Array:
        return np.linalg.inv(self.p)

    @property
    def p_I(self) -> Array:
        return self.p[: self.k]

    @property
    def p_II(self) -> Array:
        return self.p[self.k:]


def decouple(raw: RawSystem, transform: DecouplingTransform) -> RelaxationSystem:
    """Change variables so the conserved block is isolated.

    The transform must annihilate the stiff source on its first k rows; that
    property is verified on a lattice of x in the unit cell and W in the unit
    box, and violations are rejected with the worst (x, W) witness.  The solver takes
    the decoupled source as linear in v, q = q_nu(x, u, 0) z, as carleman's -2 u z is;
    nothing here checks that, and validation's source_structure check refuses one that is not.
    """
    n, k = raw.n, transform.k
    if transform.p.shape[0] != n:
        raise BuildError("transform size does not match the system")
    if not callable(raw.b_jac):
        raise BuildError("b_jac must be the exact Jacobian of b in W, a callable (x, W) -> (N, N, M)")
    xs = _default_x_samples(raw.d)
    ws = box_lattice([-1.0] * n, [1.0] * n)
    p, pinv = transform.p, transform.p_inv

    mw = ws.shape[1]
    bx = np.asarray(raw.b(np.repeat(xs, mw, axis=1), np.tile(ws, xs.shape[1])), dtype=float)
    defect = np.max(np.abs(transform.p_I @ bx), axis=0)  # x outer, W inner
    worst = int(np.argmax(defect))
    scale = max(1.0, float(np.max(np.abs(p))))
    if defect[worst] > 1e-9 * scale:
        raise BuildError(
            f"transform does not annihilate the source: defect {defect[worst]:.3e} "
            f"at x={xs[:, worst // mw]}, W={ws[:, worst % mw]}"
        )

    def block_field(j, rows, cols):
        aj = raw.a[j]
        if not callable(aj):
            mat = p @ np.asarray(aj, dtype=float) @ pinv
            return mat[rows, cols]

        def fn(x, j=j, rows=rows, cols=cols):
            axx = eval_matrix_field(raw.a[j], x)
            mat = np.einsum("ab,bcm,cd->adm", p, axx, pinv)
            return mat[rows, cols]

        return fn

    ri, rii = slice(0, k), slice(k, n)
    m11 = tuple(block_field(j, ri, ri) for j in range(raw.d))
    m12 = tuple(block_field(j, ri, rii) for j in range(raw.d))
    m21 = tuple(block_field(j, rii, ri) for j in range(raw.d))
    m22 = tuple(block_field(j, rii, rii) for j in range(raw.d))

    constant = all(not callable(aj) for aj in raw.a)
    if constant:
        m11_max = max(float(np.max(np.abs(np.asarray(b)))) for b in m11)
        if m11_max <= 1e-13:
            m11 = None

    def to_w(u, z):
        return pinv @ np.concatenate([u, z], axis=0)

    def q(x, u, z):
        return transform.p_II @ np.asarray(raw.b(x, to_w(u, z)), dtype=float)

    # q_nu = p_II jac pinv[:, k:] per point, as one (m m, n n) matrix on jac's (n n, M) entries
    q_nu_of_jac = np.einsum("ab,cd->adbc", transform.p_II, pinv[:, k:]).reshape((n - k) ** 2, n * n)

    def q_nu(x, u, z):
        jac = np.asarray(raw.b_jac(x, to_w(u, z)), dtype=float)  # (n, n, M)
        return (q_nu_of_jac @ jac.reshape(n * n, -1)).reshape(n - k, n - k, -1)

    dtilde_I = None
    d_II = None
    if raw.d_lower is not None:
        def dtilde_I(x, u, v, eps):
            return (transform.p_I @ np.asarray(raw.d_lower(to_w(u, eps * v)), dtype=float)) / eps

        def d_II(u, z):
            return transform.p_II @ np.asarray(raw.d_lower(to_w(u, z)), dtype=float)

    return RelaxationSystem(
        k=k, m=n - k, d=raw.d, m12=m12, m21=m21, m22=m22, m11=m11,
        q=q, q_nu=q_nu, dtilde_I=dtilde_I, d_II=d_II,
        name=raw.name or "decoupled",
    )


# ---------------------------------------------------------------------------
# canonical fixtures


def carleman() -> Tuple[RawSystem, DecouplingTransform, RelaxationSystem]:
    """Two-velocity kinetic model and its decoupled form.

    Returns the raw system in the particle densities, the transform to
    density and scaled flux variables, and the decoupled system with stiff
    source -2 u z.  The relaxed equation is the nonlinear diffusion
    u_t = ((1 / (2u)) u_x)_x.
    """

    def b(x, w):
        return np.stack([w[1] ** 2 - w[0] ** 2, w[0] ** 2 - w[1] ** 2])

    signs = np.array([[-2.0, 2.0], [2.0, -2.0]])[:, :, None]

    def b_jac(x, w):
        return signs * w[None]

    raw = RawSystem(n=2, d=1, a=(np.diag([1.0, -1.0]),), b=b, b_jac=b_jac, name="carleman-raw")
    transform = DecouplingTransform(p=np.array([[1.0, 1.0], [1.0, -1.0]]), k=1)
    return raw, transform, replace(decouple(raw, transform), positive_states=True, name="carleman")


def carleman_limit_target() -> QuasilinearDivergence:
    """Quasilinear target matching the relaxed two-velocity model."""
    return scalar_quasilinear(
        b=lambda u: 1.0 / (2.0 * u),
        state_box=(0.5, 1.5),
        name="carleman-limit",
    )


def null_limit_system() -> RelaxationSystem:
    """Heat relaxation with a variable transport block on the conserved row.

    The extra block breaks the vanishing of the conserved transport symbol,
    so the system relaxes to the null solution instead of a heat equation.
    """
    base = from_reaction_diffusion(ReactionDiffusion(k=1, d=1, diffusion=isotropic_diffusion(1, 1)))

    def m11(x):
        return np.sin(2.0 * np.pi * x[0]).reshape(1, 1, -1)

    return replace(base, m11=(m11,), name="null-limit")


# ---------------------------------------------------------------------------
# demo registry


@dataclass(frozen=True)
class DemoBundle:
    """Everything a front end needs to exercise one named fixture."""

    name: str
    system: RelaxationSystem
    target: Optional[ParabolicTarget]
    u0: Callable[[SpatialGrid], Array]
    state_box: Tuple[Tuple[float, ...], Tuple[float, ...]]
    symmetrizer: Symmetrizer


def _sine(grid: SpatialGrid, amplitude: float, offset: float) -> Array:
    pts = grid.points()
    prof = np.ones(grid.ns)
    for j in range(grid.d):
        prof = prof * np.sin(2.0 * np.pi * pts[j] / grid.lengths[j])
    return (offset + amplitude * prof)[None]


def _spd_demo(name: str, diffusion: Array, build=from_reaction_diffusion):
    """A scalar reaction-diffusion demo with constant diffusion blocks (d, d, 1, 1), built by `build`."""
    target = ReactionDiffusion(k=1, d=len(diffusion), diffusion=diffusion, name=name)
    return build(target), target


def _quasilinear_bu2(name: str):
    target = scalar_quasilinear(
        b=lambda u: 1.0 + u ** 2, flux=lambda u: 0.5 * u ** 2, state_box=(-1.0, 1.0), name=name,
    )
    return from_quasilinear(target), target


# the state box of a demo whose target declares none
_DEFAULT_STATE_BOX = ((-1.5,), (1.5,))


@dataclass(frozen=True)
class _Demo:
    """One demo row; build(name) returns (system, target or None)."""

    d: int
    build: Callable[[str], Tuple[RelaxationSystem, Optional[ParabolicTarget]]]
    amplitude: float = 1.0
    offset: float = 0.0


_DEMOS = {
    "carleman": _Demo(1, lambda name: (carleman()[2], carleman_limit_target()), amplitude=0.5, offset=1.0),
    "heat1d": _Demo(1, lambda name: _spd_demo(name, isotropic_diffusion(1, 1))),
    "heat2d": _Demo(2, lambda name: _spd_demo(name, isotropic_diffusion(1, 2))),
    "aniso2d": _Demo(2, lambda name: _spd_demo(
        name, scalar_diffusion_matrix([[2.0, 0.3], [0.3, 1.0]]))),
    "quasilinear-bu2": _Demo(1, _quasilinear_bu2, amplitude=0.5),
    "sqrt-heat": _Demo(1, lambda name: _spd_demo(name, isotropic_diffusion(1, 1), from_sqrt_symbol)),
    "null-limit": _Demo(1, lambda name: (null_limit_system(), None)),
}
DEMO_DIMS = {name: row.d for name, row in _DEMOS.items()}
DEMO_NAMES = tuple(_DEMOS)


def demo(name: str, grid: SpatialGrid, amplitude: Optional[float] = None,
         offset: Optional[float] = None) -> DemoBundle:
    """Build one of the named demo fixtures on the given grid."""
    if name not in _DEMOS:
        raise BuildError(f"unknown demo {name!r}; choose from {', '.join(DEMO_NAMES)}")
    row = _DEMOS[name]
    if grid.d != row.d:
        raise BuildError(f"demo {name} is {row.d}-d, the grid is {grid.d}-d")
    sys, target = row.build(name)
    amp = row.amplitude if amplitude is None else amplitude
    off = row.offset if offset is None else offset
    return DemoBundle(
        name=name, system=sys, target=target,
        u0=lambda g: _sine(g, amp, off),
        state_box=target.state_box if isinstance(target, QuasilinearDivergence) else _DEFAULT_STATE_BOX,
        symmetrizer=Symmetrizer.identity(sys.k, sys.m),
    )


__all__ = [
    "BuildError",
    "ReactionDiffusion",
    "QuasilinearDivergence",
    "ParabolicTarget",
    "isotropic_diffusion",
    "scalar_diffusion_matrix",
    "scalar_quasilinear",
    "box_lattice",
    "from_reaction_diffusion",
    "from_quasilinear",
    "from_sqrt_symbol",
    "RawSystem",
    "DecouplingTransform",
    "decouple",
    "carleman",
    "carleman_limit_target",
    "null_limit_system",
    "DemoBundle",
    "DEMO_DIMS",
    "DEMO_NAMES",
    "demo",
]
