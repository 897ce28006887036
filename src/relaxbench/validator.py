"""Sampled-sphere spectral verification of the structural hypotheses.

Every check sweeps a finite sample set: grid points for x, a uniform angular
sweep of unit wave vectors, and a lattice of states from a declared box.
Degree-one homogeneity of the transport symbols (and degree two of the limit
generators) makes unit-sphere sampling sufficient.  Reports are deterministic
and every failing entry carries a witness at which re-evaluating the scalar
criterion reproduces the failure.

Every check computes one margin per sample, and one reduction (_verdict)
turns them into its result: the first lowest margin in C order over the
sample axes, with that sample's coordinates and values as witness.  A value
that is not finite gives its sample a NaN margin, and the first such sample
fails the check with margin -inf.  Rank, dissipativity and both Petrowski
checks pass on a positive margin, the others on a non-negative one.  A check
made of parts (symmetrizer, source_structure) reports the first part with the
lowest margin, so its margin and witness come from one sample.

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


def _verdict(name: str, samples: SampleSet, axes: Tuple[str, ...], margins: Array, strict: bool,
             **values) -> CheckResult:
    """A check's result from its margins, one per sample of the named sample axes in C order.

    The worst sample is the first lowest margin, or the first NaN margin, which
    gives the check a margin of -inf.  The witness is that sample's coordinates
    and its entry of each value array, one entry per margin; a value that is not
    an array holds for every sample.  The check passes on margin > 0 if strict,
    else on margin >= 0.
    """
    margins = np.asarray(margins, dtype=float)
    i = int(np.argmin(margins))  # the first NaN, if there is one
    margin = -np.inf if np.isnan(margins.flat[i]) else float(margins.flat[i])
    picked = {key: val.flat[i].item() if isinstance(val, np.ndarray) else val for key, val in values.items()}
    return CheckResult(name, bool(margin > 0.0 if strict else margin >= 0.0), margin,
                       _witness(samples, axes, i, **picked))


def _finite(name: str, samples: SampleSet, axes: Tuple[str, ...], ok: Array, what: str, **values) -> CheckResult:
    """A part of a check that fails, margin -inf, at the first sample where ok is False."""
    return _verdict(name, samples, axes, np.where(ok, np.inf, np.nan), False, **values, value=f"non-finite {what}")


def _vanishing(name: str, samples: SampleSet, axes: Tuple[str, ...], vals: Array, **values) -> CheckResult:
    """A check that vals, each >= 0, stay within ZERO_TOL; no witness where every one is exactly 0."""
    res = _verdict(name, samples, axes, ZERO_TOL - vals, False, value=vals, **values)
    return res if vals.any() else replace(res, witness={})


def _per_matrix(op, mats: Array) -> Array:
    """op (eigvals, eigvalsh or det) of each matrix of a stack, NaN where one is not finite or op rejects it."""
    finite = np.isfinite(mats).all(axis=(-2, -1))
    try:
        out = op(mats if finite.all() else np.where(finite[..., None, None], mats, 0.0))
    except np.linalg.LinAlgError:
        if mats.ndim == 2:
            return np.full(mats.shape[-1], np.nan)
        out = np.stack([_per_matrix(op, mat) for mat in mats])
    out[~finite] = np.nan
    return out


def check_hyperbolicity(sys: RelaxationSystem, samples: SampleSet) -> CheckResult:
    """Spectrum of i * principal symbol must be real at every sample."""
    syms = 1j * principal_symbols(sys, samples.x_points, samples.directions)
    eigs = _per_matrix(np.linalg.eigvals, syms).reshape(-1, syms.shape[-1])
    defect = np.max(np.abs(eigs.imag), axis=1) - EIG_RTOL * np.max(np.abs(eigs), axis=1)
    bad = eigs[np.arange(eigs.shape[0]), np.argmax(np.abs(eigs.imag), axis=1)]
    return _verdict("hyperbolicity", samples, ("x", "xi"), -defect, False, eigenvalue=bad)


def check_conserved_block(sys: RelaxationSystem, samples: SampleSet) -> CheckResult:
    """The conserved-block transport symbol must vanish identically."""
    syms = principal_symbols(sys, samples.x_points, samples.directions)
    vals = np.max(np.abs(syms[..., : sys.k, : sys.k]), axis=(-2, -1))
    res = _vanishing("conserved_block", samples, ("x", "xi"), vals)
    # a non-finite block, margin -inf, says nothing of the limit
    return res if res.passed or res.margin == -np.inf else replace(res, note=NULL_LIMIT_NOTE)


def check_rank_condition(sys: RelaxationSystem, samples: SampleSet) -> CheckResult:
    """Gram determinant m21^H m21 of the coupling block must stay above the floor."""
    if sys.k > sys.m:
        return CheckResult(
            "rank_condition", False, -np.inf,
            {"value": f"k={sys.k} exceeds m={sys.m}"},
            note="coupling block is too thin whenever the conserved part dominates",
        )
    _, m21 = coupling_symbols(sys, samples.x_points, samples.directions)
    dets = _per_matrix(np.linalg.det, np.swapaxes(m21, -1, -2).conj() @ m21).real  # Hermitian, so real
    return _verdict("rank_condition", samples, ("x", "xi"), dets - DET_FLOOR, True, determinant=dets)


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
    top = _per_matrix(np.linalg.eigvalsh, 0.5 * (jac + np.swapaxes(jac, 1, 2)))[:, -1]
    return _verdict("dissipativity", samples, ("x", "u", "v"), -top, True, eigenvalue=top)


def check_symmetrizer(sys: RelaxationSystem, r: Symmetrizer, samples: SampleSet) -> CheckResult:
    """Blocks positive definite and R * symbol skew-Hermitian at every sample.

    The check's parts are r11, r22 and the product, in that order, and it
    reports the first part with the lowest margin.
    """
    xs, dirs = samples.x_points, samples.directions
    r11, r22 = r.blocks(xs, dirs)
    parts = []
    for block, blk in (("r11", r11), ("r22", r22)):
        blk_t = np.swapaxes(blk, -1, -2)
        asym = np.max(np.abs(blk - blk_t), axis=(-2, -1))
        mineig = _per_matrix(np.linalg.eigvalsh, 0.5 * (blk + blk_t))[..., 0]
        defect = np.maximum(asym - ZERO_TOL, r.eta - mineig)
        parts.append(_verdict("symmetrizer", samples, ("x", "xi"), -defect, False, block=block, eigenvalue=mineig))
    syms = principal_symbols(sys, xs, dirs)
    rm = np.concatenate([r11 @ syms[..., : sys.k, :], r22 @ syms[..., sys.k:, :]], axis=-2)
    skew = np.linalg.norm(rm + np.conj(np.swapaxes(rm, -1, -2)), axis=(-2, -1))
    scale = np.linalg.norm(rm, axis=(-2, -1))
    parts.append(_verdict("symmetrizer", samples, ("x", "xi"), EIG_RTOL * np.maximum(scale, 1e-300) - skew, False,
                          value=skew))
    return min(parts, key=lambda part: part.margin)


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
    stricter condition.  A stiff jacobian that is singular or not finite fails
    the check at its first (x, u).
    """
    if mode not in ("petrowski", "strong"):
        raise ValueError("mode must be 'petrowski' or 'strong'")
    name = "petrowski_limit" if mode == "petrowski" else "strong_parabolicity"
    try:
        gens = _generators(obj, samples)
    except SingularSourceError as err:
        return CheckResult(name, False, -np.inf, _witness(samples, ("x", "u"), err.sample, value=str(err)))
    if mode == "petrowski":
        eigs = _per_matrix(np.linalg.eigvals, gens).reshape(-1, gens.shape[-1])
        bad = eigs[np.arange(eigs.shape[0]), np.argmax(eigs.real, axis=1)]
        cand = -bad.real
    else:
        sym = 0.5 * (gens + np.swapaxes(gens, -1, -2))
        cand = _per_matrix(np.linalg.eigvalsh, -sym)[..., 0].ravel()
        bad = -cand
    return _verdict(name, samples, ("x", "u", "xi"), cand, True, eigenvalue=bad.astype(complex))


def check_source_structure(sys: RelaxationSystem, samples: SampleSet) -> CheckResult:
    """Sampled form of the smoothness and lower-order-source hypotheses.

    The check's parts, in order: the transport coefficient fields are finite
    on the sampled points; the stiff source, then the scaled conserved source
    at epsilon 0.1 and 0.01, vanish at zero non-conserved state; difference
    quotients of the order-one sources are finite over the u box; the stiff
    source is finite; and it is linear in v, q = q_nu(x, u, 0) z to EIG_RTOL
    relative on the (x, u, v) lattice, as the solver's exact source step takes
    it.  Each part is reduced like any check, so a non-finite value fails its
    part with margin -inf, and the check reports the first part with the lowest
    margin: its margin and witness come from one sample.
    """
    name = "source_structure"
    xs, us = samples.x_points, samples.u_points
    mx, mu = xs.shape[1], us.shape[1]
    finite = np.isfinite(principal_symbols(sys, xs, samples.directions)).all(axis=(-2, -1))
    parts = [_finite(name, samples, ("x", "xi"), finite, "transport coefficient")]
    x, u = np.repeat(xs, mu, axis=1), np.tile(us, mx)
    zeros = np.zeros((sys.m, mx * mu))
    probes = [({}, sys.stiff_source(x, u, zeros))]
    probes += [({"eps": e}, sys.lower_order_I(x, u, zeros, e)) for e in (0.1, 0.01)]
    parts += [_vanishing(name, samples, ("x", "u"), np.max(np.abs(p), axis=0), **eps) for eps, p in probes]
    dz = np.repeat(1e-5 * np.eye(sys.m)[:, :, None], mu, axis=2)  # (component, m, Mu)
    with np.errstate(invalid="ignore", over="ignore"):
        quot = np.stack([sys.lower_order_II(us, z) - sys.lower_order_II(us, -z) for z in dz]) / 2e-5
    bad = ~np.isfinite(quot).all(axis=1).T  # (Mu, component)
    parts.append(_finite(name, samples, ("u",), ~bad.any(axis=1), "difference quotient",
                         component=np.argmax(bad, axis=1)))
    x3, u3, z3 = _xuv_lattice(samples)
    q = sys.stiff_source(x3, u3, z3)
    with np.errstate(invalid="ignore"):
        lin = np.einsum("abm,bm->am", sys.stiff_source_jacobian(x3, u3, np.zeros_like(z3)), z3)
        scale = np.maximum(np.abs(q), np.abs(lin)).max(axis=0)
        defect = np.max(np.abs(q - lin), axis=0) / np.maximum(scale, 1e-300)
    # defect is not finite where q or q_nu z is not
    parts.append(_finite(name, samples, ("x", "u", "v"), np.isfinite(defect), "stiff source"))
    parts.append(_verdict(name, samples, ("x", "u", "v"), EIG_RTOL - defect, False, defect=defect))
    return min(parts, key=lambda part: part.margin)


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
