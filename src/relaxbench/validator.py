"""Sampled-sphere spectral verification of the structural hypotheses.

Every check sweeps a finite sample set: grid points for x, a uniform angular
sweep of unit wave vectors, and a lattice of states from a declared box.
Degree-one homogeneity of the transport symbols (and degree two of the limit
generators) makes unit-sphere sampling sufficient.  Reports are deterministic
and every failing entry carries a witness at which re-evaluating the scalar
criterion reproduces the failure.

The constant-coefficient convergence theorem's undefined hypothesis labels
are read as the lower-order-source and dissipativity conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .builder import ParabolicTarget, QuasilinearDivergence, ReactionDiffusion, box_lattice
from .core import (
    Array,
    CheckResult,
    RelaxationSystem,
    SingularSourceError,
    SpatialGrid,
    Symmetrizer,
    ValidationReport,
    coupling_symbols,
    limit_generators,
    principal_symbols,
    unit_directions,
)

EIG_RTOL = 1e-9          # relative eigenvalue tolerance separating structure from roundoff
DET_FLOOR = 1e-10        # determinant floor for the rank condition at unit wave vectors
ZERO_TOL = 1e-11         # absolute tolerance for symbol entries that must vanish

NULL_LIMIT_NOTE = (
    "conserved transport block does not vanish: the relaxation limit is the null solution"
)


@dataclass(frozen=True)
class SampleSet:
    """Finite samples standing in for 'for all (x, xi, state)'."""

    x_points: Array       # (d, Mx)
    directions: Array     # (d, Mxi), unit columns
    u_points: Array       # (k, Mu)
    v_points: Array       # (m, Mv)

    def __post_init__(self):
        norms = np.linalg.norm(self.directions, axis=0)
        if self.directions.shape[1] == 0 or self.x_points.shape[1] == 0:
            raise ValueError("sample set must be nonempty")
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("wave-vector samples must have unit norm")

    @staticmethod
    def build(
        grid: SpatialGrid,
        k: int,
        m: int,
        u_box: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
    ) -> "SampleSet":
        """Default sampling: a 64-point grid lattice, angular sweep, box lattices (v in the unit box)."""
        if u_box is None:
            u_box = ([-1.0] * k, [1.0] * k)
        us = box_lattice(u_box[0], u_box[1], per_axis=3, cap=81)
        vs = box_lattice([-1.0] * m, [1.0] * m, per_axis=3, cap=81)
        return SampleSet(x_points=grid.sample_points(64), directions=unit_directions(grid.d),
                         u_points=us, v_points=vs)


_SAMPLE_AXES = {"x": "x_points", "xi": "directions", "u": "u_points", "v": "v_points"}


def _witness(samples: SampleSet, axes: Tuple[str, ...], flat: int, **extra) -> dict:
    """Sample coordinates of entry `flat` of a stack over the named sample axes."""
    cols = [getattr(samples, _SAMPLE_AXES[a]) for a in axes]
    pos = np.unravel_index(flat, tuple(c.shape[1] for c in cols))
    return {**{a: c[:, p] for a, c, p in zip(axes, cols, pos)}, **extra}


def _first_unsolvable(mats: Array) -> int:
    """Flat index of the first matrix of a stack that the eigensolver rejects."""
    for i, mat in enumerate(mats.reshape((-1,) + mats.shape[-2:])):
        try:
            np.linalg.eigvals(mat)
        except np.linalg.LinAlgError:
            return i
    raise np.linalg.LinAlgError("eigensolver failed on the stack but on no single sample")


def check_hyperbolicity(sys: RelaxationSystem, samples: SampleSet) -> CheckResult:
    """Spectrum of i * principal symbol must be real at every sample."""
    syms = 1j * principal_symbols(sys, samples.x_points, samples.directions)
    try:
        eigs = np.linalg.eigvals(syms)
    except np.linalg.LinAlgError:
        return CheckResult(
            "hyperbolicity", False, -np.inf,
            _witness(samples, ("x", "xi"), _first_unsolvable(syms), value="eigensolver failed"),
        )
    eigs = eigs.reshape(-1, eigs.shape[-1])
    defect = np.max(np.abs(eigs.imag), axis=1) - EIG_RTOL * np.max(np.abs(eigs), axis=1)
    i = int(np.argmax(defect))
    bad = eigs[i, np.argmax(np.abs(eigs[i].imag))]
    witness = _witness(samples, ("x", "xi"), i, eigenvalue=complex(bad))
    return CheckResult("hyperbolicity", bool(defect[i] <= 0.0), -float(defect[i]), witness)


def check_conserved_block(sys: RelaxationSystem, samples: SampleSet) -> CheckResult:
    """The conserved-block transport symbol must vanish identically."""
    syms = principal_symbols(sys, samples.x_points, samples.directions)
    vals = np.max(np.abs(syms[..., : sys.k, : sys.k]), axis=(-2, -1)).ravel()
    i = int(np.argmax(vals))
    worst = float(vals[i])
    witness = _witness(samples, ("x", "xi"), i, value=worst) if worst > 0.0 else {}
    passed = worst <= ZERO_TOL
    return CheckResult(
        "conserved_block", passed, ZERO_TOL - worst, witness,
        note="" if passed else NULL_LIMIT_NOTE,
    )


def check_rank_condition(sys: RelaxationSystem, samples: SampleSet) -> CheckResult:
    """Gram determinant m21^H m21 of the coupling block must stay above the floor."""
    if sys.k > sys.m:
        return CheckResult(
            "rank_condition", False, -np.inf,
            {"value": f"k={sys.k} exceeds m={sys.m}"},
            note="coupling block is too thin whenever the conserved part dominates",
        )
    _, m21 = coupling_symbols(sys, samples.x_points, samples.directions)
    dets = np.linalg.det(np.swapaxes(m21, -1, -2).conj() @ m21).real.ravel()  # Hermitian, so real
    i = int(np.argmin(dets))
    best = float(dets[i])
    witness = _witness(samples, ("x", "xi"), i, determinant=best)
    return CheckResult("rank_condition", best > DET_FLOOR, best - DET_FLOOR, witness)


def _xuv_lattice(samples: SampleSet) -> Tuple[Array, Array, Array]:
    """Every (x, u, v) sample as paired columns: x outer, then u, v fastest."""
    xs, us, vs = samples.x_points, samples.u_points, samples.v_points
    mx, mu, mv = xs.shape[1], us.shape[1], vs.shape[1]
    return np.repeat(xs, mu * mv, axis=1), np.tile(np.repeat(us, mv, axis=1), mx), np.tile(vs, mx * mu)


def check_dissipativity(sys: RelaxationSystem, samples: SampleSet) -> CheckResult:
    """Certified negative-definiteness margin of the stiff source derivative.

    lambda0 is minus the largest eigenvalue of the symmetric part of the
    jacobian over all sampled (x, u, z); the check passes when it is positive.
    """
    jac = np.moveaxis(sys.stiff_source_jacobian(*_xuv_lattice(samples)), -1, 0)
    finite = np.isfinite(jac).all(axis=(1, 2)).reshape(-1, samples.v_points.shape[1]).all(axis=1)
    if not finite.all():
        return CheckResult(
            "dissipativity", False, -np.inf,
            _witness(samples, ("x", "u"), int(np.argmin(finite)), value="non-finite jacobian"),
        )
    top = np.linalg.eigvalsh(0.5 * (jac + np.swapaxes(jac, 1, 2)))[:, -1]
    i = int(np.argmax(top))
    witness = _witness(samples, ("x", "u", "v"), i, eigenvalue=float(top[i]))
    return CheckResult("dissipativity", bool(top[i] < 0.0), -float(top[i]), witness)


def check_symmetrizer(sys: RelaxationSystem, r: Symmetrizer, samples: SampleSet) -> CheckResult:
    """Blocks positive definite and R * symbol skew-Hermitian at every sample.

    Per sample the candidates are r11, r22 and the product, in that order.
    """
    xs, dirs = samples.x_points, samples.directions
    r11, r22 = r.blocks(xs, dirs)
    defects, mineigs = [], []
    for blk in (r11, r22):
        blk_t = np.swapaxes(blk, -1, -2)
        asym = np.max(np.abs(blk - blk_t), axis=(-2, -1))
        mineig = np.linalg.eigvalsh(0.5 * (blk + blk_t))[..., 0]
        defects.append(np.maximum(asym - ZERO_TOL, r.eta - mineig))
        mineigs.append(mineig)
    syms = principal_symbols(sys, xs, dirs)
    rm = np.concatenate([r11 @ syms[..., : sys.k, :], r22 @ syms[..., sys.k:, :]], axis=-2)
    skew = np.linalg.norm(rm + np.conj(np.swapaxes(rm, -1, -2)), axis=(-2, -1))
    scale = np.linalg.norm(rm, axis=(-2, -1))
    defects.append(skew - EIG_RTOL * np.maximum(scale, 1e-300))
    defect = np.stack(defects, axis=-1).ravel()
    i = int(np.argmax(defect))
    pair, which = divmod(i, 3)
    if which < 2:
        witness = _witness(samples, ("x", "xi"), pair, block=("r11", "r22")[which],
                           eigenvalue=float(mineigs[which].flat[pair]))
    else:
        witness = _witness(samples, ("x", "xi"), pair, value=float(skew.flat[pair]))
    return CheckResult("symmetrizer", bool(defect[i] <= 0.0), -float(defect[i]), witness)


def _generators(obj: Union[RelaxationSystem, ParabolicTarget], samples: SampleSet) -> Array:
    """Second-order generators on every (x, u, xi) sample, shape (Mx, Mu, Mxi, k, k)."""
    xs, us, dirs = samples.x_points, samples.u_points, samples.directions
    if isinstance(obj, RelaxationSystem):
        return limit_generators(obj, xs, us, dirs)
    if isinstance(obj, ReactionDiffusion):
        gen = -obj.second_order_symbols(xs, dirs)[:, None]
    elif isinstance(obj, QuasilinearDivergence):
        gen = -obj.second_order_symbols(us, dirs)[None]
    else:
        raise TypeError(f"cannot form a second-order generator from {type(obj)!r}")
    return np.broadcast_to(gen, (xs.shape[1], us.shape[1]) + gen.shape[2:])


def check_petrowski(
    obj: Union[RelaxationSystem, ParabolicTarget],
    samples: SampleSet,
    mode: str = "petrowski",
) -> CheckResult:
    """Parabolicity of the limit generator over the sampled sphere.

    petrowski mode certifies alpha0 = -max Re eig(G) > 0; strong mode
    certifies c0 = min eig of the symmetric part of -G > 0, which is the
    stricter condition.
    """
    if mode not in ("petrowski", "strong"):
        raise ValueError("mode must be 'petrowski' or 'strong'")
    name = "petrowski_limit" if mode == "petrowski" else "strong_parabolicity"
    axes = ("x", "u", "xi")
    try:
        gens = _generators(obj, samples)
    except SingularSourceError as err:
        witness = _witness(samples, ("x", "u"), err.sample, value=str(err))
        return CheckResult(name, False, -np.inf, witness)
    if mode == "petrowski":
        try:
            eigs = np.linalg.eigvals(gens)
        except np.linalg.LinAlgError:
            return CheckResult(
                name, False, -np.inf,
                _witness(samples, axes, _first_unsolvable(gens), value="eigensolver failed"),
            )
        eigs = eigs.reshape(-1, eigs.shape[-1])
        bad = eigs[np.arange(eigs.shape[0]), np.argmax(eigs.real, axis=1)]
        cand = -bad.real
    else:
        sym = 0.5 * (gens + np.swapaxes(gens, -1, -2))
        cand = np.linalg.eigvalsh(-sym)[..., 0].ravel()
        bad = -cand
    i = int(np.argmin(cand))
    margin = float(cand[i])
    witness = _witness(samples, axes, i, eigenvalue=complex(bad[i]))
    return CheckResult(name, margin > 0.0, margin, witness)


def check_source_structure(sys: RelaxationSystem, samples: SampleSet) -> CheckResult:
    """Sampled form of the smoothness and lower-order-source hypotheses.

    Verifies that the transport coefficient fields are finite on the sampled
    points, that the stiff source vanishes at zero non-conserved state, that
    the scaled conserved source vanishes there for several epsilon probes,
    that difference quotients of the order-one sources stay bounded over the
    u box, and that the stiff source is finite and linear in v, q = q_nu(x, u, 0) z to
    EIG_RTOL relative on the (x, u, v) lattice, as the solver's exact source step takes it.
    """
    xs, us = samples.x_points, samples.u_points
    mx, mu = xs.shape[1], us.shape[1]
    finite = np.isfinite(principal_symbols(sys, xs, samples.directions)).all(axis=(-2, -1)).ravel()
    if not finite.all():
        witness = _witness(samples, ("x", "xi"), int(np.argmin(finite)),
                           value="non-finite transport coefficient")
        return CheckResult("source_structure", False, -np.inf, witness)
    x = np.repeat(xs, mu, axis=1)
    u = np.tile(us, mx)
    zeros = np.zeros((sys.m, mx * mu))
    probes = [sys.stiff_source(x, u, zeros)] + [sys.lower_order_I(x, u, zeros, e) for e in (0.1, 0.01)]
    # per x the candidates are the stiff source, then eps = 0.1 and 0.01; u varies fastest
    vals = np.stack([np.max(np.abs(p), axis=0).reshape(mx, mu) for p in probes], axis=1).ravel()
    i = int(np.argmax(vals))
    worst = float(vals[i])
    witness = {}
    if worst > 0.0:
        ix, which, iu = np.unravel_index(i, (mx, 3, mu))
        witness = {"x": xs[:, ix], "u": us[:, iu], "value": worst}
        if which > 0:
            witness["eps"] = (0.1, 0.01)[which - 1]
    margin = ZERO_TOL - worst
    dz = np.repeat(1e-5 * np.eye(sys.m)[:, :, None], mu, axis=2)  # (component, m, Mu)
    with np.errstate(invalid="ignore", over="ignore"):
        quot = np.stack([sys.lower_order_II(us, z) - sys.lower_order_II(us, -z) for z in dz]) / 2e-5
    bad = ~np.isfinite(quot).all(axis=1).T  # (Mu, component), u outer
    if bad.any():
        iu, comp = np.unravel_index(int(np.argmax(bad)), bad.shape)
        witness = {"u": us[:, iu], "component": int(comp), "value": "non-finite difference quotient"}
        margin = -np.inf
    x3, u3, z3 = _xuv_lattice(samples)
    q = sys.stiff_source(x3, u3, z3)
    with np.errstate(invalid="ignore"):
        lin = np.einsum("abm,bm->am", sys.stiff_source_jacobian(x3, u3, np.zeros_like(z3)), z3)
        scale = np.maximum(np.abs(q), np.abs(lin)).max(axis=0)
        defect = np.max(np.abs(q - lin), axis=0) / np.maximum(scale, 1e-300)
    finite = np.isfinite(defect)  # False where q or q_nu z is not finite
    if not finite.all():
        witness = _witness(samples, ("x", "u", "v"), int(np.argmin(finite)), value="non-finite stiff source")
        margin = -np.inf
    elif (worst := float(defect.max())) > EIG_RTOL:
        witness = _witness(samples, ("x", "u", "v"), int(np.argmax(defect)), defect=worst)
        margin = min(margin, EIG_RTOL - worst)
    return CheckResult("source_structure", bool(margin >= 0.0), margin, witness)


def validate_all(
    sys: RelaxationSystem,
    samples: SampleSet,
    target: Optional[ParabolicTarget] = None,
    symmetrizer: Optional[Symmetrizer] = None,
) -> ValidationReport:
    """Run every applicable check and aggregate into one report.

    Where no transport block, q_nu, symmetrizer block or target diffusion is callable, every
    x gives the other checks the same numbers, so they take the first x, where ties resolve
    anyway; the source check reads q and dtilde_I, which may read x, so it takes every x."""
    r = symmetrizer or Symmetrizer.identity(sys.k, sys.m)
    one_x = samples
    read_x = (sys.q_nu, r.r11, r.r22, getattr(target, "diffusion", None))
    if sys.constant_coefficients and not any(map(callable, read_x)):
        one_x = replace(samples, x_points=samples.x_points[:, :1])
    entries = [
        check_hyperbolicity(sys, one_x),
        check_conserved_block(sys, one_x),
        check_rank_condition(sys, one_x),
        check_dissipativity(sys, one_x),
        check_symmetrizer(sys, r, one_x),
        check_petrowski(sys, one_x, mode="petrowski"),
        check_source_structure(sys, samples),
    ]
    if target is not None:
        entries.append(check_petrowski(target, one_x, mode="strong"))
    return ValidationReport(entries=tuple(entries))


__all__ = [
    "SampleSet",
    "check_hyperbolicity",
    "check_conserved_block",
    "check_rank_condition",
    "check_dissipativity",
    "check_symmetrizer",
    "check_petrowski",
    "check_source_structure",
    "validate_all",
    "NULL_LIMIT_NOTE",
]
