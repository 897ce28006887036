from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import relaxbench as rb
from relaxbench import builder, cli, validator
from relaxbench.builder import ReactionDiffusion, isotropic_diffusion, scalar_diffusion_matrix
from relaxbench.core import CheckResult, unit_directions
from relaxbench.validator import (
    EIG_RTOL,
    NULL_LIMIT_NOTE,
    ZERO_TOL,
    SampleSet,
    check_conserved_block,
    check_dissipativity,
    check_hyperbolicity,
    check_petrowski,
    check_rank_condition,
    check_source_structure,
    check_symmetrizer,
    validate_all,
)

from conftest import four_block_2d

TWO_PI = 2.0 * np.pi
GOLDEN = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def grid():
    return rb.SpatialGrid((64,), (1.0,))


@pytest.fixture(scope="module")
def samples(grid):
    return SampleSet.build(grid, 1, 1, u_box=((0.5,), (1.5,)))


def _simple_system(m12=1.0, m21=1.0, m11=None, q_sign=-1.0):
    def q(x, u, z):
        return q_sign * z

    def q_nu(x, u, z):
        return np.broadcast_to(np.array([[q_sign]])[:, :, None], (1, 1, z.shape[-1]))

    kwargs = dict(
        k=1, m=1, d=1,
        m12=(np.array([[m12]]),), m21=(np.array([[m21]]),), m22=(np.zeros((1, 1)),),
        q=q, q_nu=q_nu,
    )
    if m11 is not None:
        kwargs["m11"] = (np.array([[m11]]),)
    return rb.RelaxationSystem(**kwargs)


class TestSampleSet:
    def test_directions_unit_norm(self, grid):
        s = SampleSet.build(grid, 1, 1)
        assert np.allclose(np.linalg.norm(s.directions, axis=0), 1.0, atol=1e-12)

    def test_2d_sweep_count(self):
        g = rb.SpatialGrid((16, 16), (1.0, 1.0))
        s = SampleSet.build(g, 1, 2)
        assert s.directions.shape == (2, 64)

    def test_2d_points_form_a_lattice(self):
        g = rb.SpatialGrid((128, 128), (1.0, 1.0))
        s = SampleSet.build(g, 1, 2)
        assert s.x_points.shape == (2, 64)
        assert len(set(s.x_points[0])) == 8 and len(set(s.x_points[1])) == 8

    def test_1d_points_are_strided_centers(self):
        g = rb.SpatialGrid((256,), (1.0,))
        assert np.array_equal(SampleSet.build(g, 1, 1).x_points, g.flat_points()[:, ::4])

    def test_rejects_non_unit(self, grid):
        with pytest.raises(ValueError, match="unit norm"):
            SampleSet(
                x_points=np.zeros((1, 1)), directions=np.array([[2.0]]),
                u_points=np.zeros((1, 1)), v_points=np.zeros((1, 1)),
            )


class TestHyperbolicity:
    def test_carleman_passes(self, samples):
        _, _, sys = builder.carleman()
        assert check_hyperbolicity(sys, samples).passed

    def test_rotation_like_fails(self, samples):
        sys = _simple_system(m12=1.0, m21=-1.0)
        res = check_hyperbolicity(sys, samples)
        assert not res.passed
        # i * symbol has eigenvalues +/- i |xi|
        assert abs(abs(res.witness["eigenvalue"].imag) - 1.0) < 1e-9

    def test_2d_failure_only_above_half_height_is_found(self):
        # i * symbol has eigenvalues +-(xi_1 + xi_2) sqrt(sin(2 pi y)): complex for y > 1/2
        def m21(x):
            return np.sin(2.0 * np.pi * x[1]).reshape(1, 1, -1)

        sys = rb.RelaxationSystem(
            k=1, m=1, d=2, m12=(np.eye(1), np.eye(1)), m21=(m21, m21),
            m22=(np.zeros((1, 1)), np.zeros((1, 1))),
            q=lambda x, u, z: -z, q_nu=lambda x, u, z: -np.eye(1),
        )
        g = rb.SpatialGrid((128, 128), (1.0, 1.0))
        res = check_hyperbolicity(sys, SampleSet.build(g, 1, 1))
        assert not res.passed
        assert res.witness["x"][1] > 0.5

    def test_eigensolver_failure_fails_that_sample(self, samples, monkeypatch):
        # the solver rejects every stack, and the third matrix alone: (second x, first xi) in C order
        eigvals, singles = np.linalg.eigvals, []

        def flaky(mats):
            if mats.ndim == 2:
                singles.append(mats)
            if mats.ndim > 2 or len(singles) == 3:
                raise np.linalg.LinAlgError("did not converge")
            return eigvals(mats)

        monkeypatch.setattr(np.linalg, "eigvals", flaky)
        res = check_hyperbolicity(_simple_system(), samples)
        assert not res.passed and res.margin == -np.inf
        assert res.witness["x"] == samples.x_points[:, 1] and res.witness["xi"] == samples.directions[:, 0]

    def test_symmetric_builder_output_passes(self, samples):
        sys = builder.from_reaction_diffusion(
            ReactionDiffusion(k=1, d=1, diffusion=isotropic_diffusion(1, 1))
        )
        assert check_hyperbolicity(sys, samples).passed


class TestConservedBlock:
    def test_decoupled_carleman_passes(self, samples):
        _, _, sys = builder.carleman()
        assert check_conserved_block(sys, samples).passed

    def test_m11_fixture_fails_with_null_limit_note(self, samples):
        sys = _simple_system(m11=1.0)
        res = check_conserved_block(sys, samples)
        assert not res.passed
        assert res.note == NULL_LIMIT_NOTE
        # witness reproduces the reported defect
        block = rb.principal_symbol(sys, res.witness["x"], res.witness["xi"])[:1, :1]
        assert np.max(np.abs(block)) == pytest.approx(res.witness["value"], rel=1e-12)

    def test_builder_output_passes(self, samples):
        sys = builder.from_quasilinear(builder.carleman_limit_target())
        assert check_conserved_block(sys, samples).passed


class TestRankCondition:
    def test_heat_passes(self, samples):
        sys = _simple_system()
        res = check_rank_condition(sys, samples)
        assert res.passed
        assert res.witness["determinant"] == pytest.approx(1.0, rel=1e-12)

    def test_zero_coupling_fails(self, samples):
        sys = _simple_system(m21=0.0)
        assert not check_rank_condition(sys, samples).passed

    def test_heat2d_gram_is_one(self):
        g = rb.SpatialGrid((16, 16), (1.0, 1.0))
        s = SampleSet.build(g, 1, 2)
        sys = builder.from_reaction_diffusion(
            ReactionDiffusion(k=1, d=2, diffusion=isotropic_diffusion(1, 2))
        )
        res = check_rank_condition(sys, s)
        assert res.passed
        assert res.witness["determinant"] == pytest.approx(1.0, rel=1e-9)

    def test_wide_conserved_block_autofails(self, samples):
        def q(x, u, z):
            return -z

        def q_nu(x, u, z):
            return np.broadcast_to(-np.eye(1)[:, :, None], (1, 1, z.shape[-1]))

        sys = rb.RelaxationSystem(
            k=2, m=1, d=1,
            m12=(np.ones((2, 1)),), m21=(np.ones((1, 2)),), m22=(np.zeros((1, 1)),),
            q=q, q_nu=q_nu,
        )
        assert not check_rank_condition(sys, samples).passed


class TestDissipativity:
    def test_unit_relaxation(self, samples):
        res = check_dissipativity(_simple_system(), samples)
        assert res.passed
        assert res.margin == pytest.approx(1.0, abs=1e-12)

    def test_carleman_box_lambda0(self, grid):
        _, _, sys = builder.carleman()
        s = SampleSet.build(grid, 1, 1, u_box=((0.5,), (1.5,)))
        res = check_dissipativity(sys, s)
        assert res.passed
        assert res.margin == pytest.approx(1.0, abs=1e-12)  # -2 rho at rho = 0.5

    def test_positive_jacobian_fails(self, samples):
        res = check_dissipativity(_simple_system(q_sign=+1.0), samples)
        assert not res.passed


class TestSymmetrizer:
    def test_identity_on_carleman(self, samples):
        _, _, sys = builder.carleman()
        assert check_symmetrizer(sys, rb.Symmetrizer.identity(1, 1), samples).passed

    def test_identity_on_sqrt_system(self, samples):
        target = ReactionDiffusion(k=1, d=1, diffusion=isotropic_diffusion(1, 1))
        sys = builder.from_sqrt_symbol(target)
        assert check_symmetrizer(sys, rb.Symmetrizer.identity(1, 1), samples).passed

    def test_mismatched_blocks_fail(self, samples):
        _, _, sys = builder.carleman()
        r = rb.Symmetrizer(np.eye(1), 2.0 * np.eye(1), eta=0.5)
        assert not check_symmetrizer(sys, r, samples).passed


class TestPetrowski:
    def test_isotropic_alpha0(self, samples):
        tgt = ReactionDiffusion(k=1, d=1, diffusion=isotropic_diffusion(1, 1))
        res = check_petrowski(tgt, samples, mode="petrowski")
        assert res.passed
        assert res.margin == pytest.approx(1.0, abs=1e-9)

    def test_triangular_petrowski_but_not_strong(self, samples):
        tri = ReactionDiffusion(
            k=2, d=1, diffusion=np.array([[1.0, 2.0], [0.0, 1.0]]).reshape(1, 1, 2, 2)
        )
        pet = check_petrowski(tri, samples, mode="petrowski")
        strong = check_petrowski(tri, samples, mode="strong")
        assert pet.passed and pet.margin == pytest.approx(1.0, abs=1e-9)
        assert not strong.passed
        assert strong.margin == pytest.approx(0.0, abs=1e-12)

    def test_anisotropic_alpha0(self):
        g = rb.SpatialGrid((8, 8), (1.0, 1.0))
        s = SampleSet.build(g, 1, 1)
        tgt = ReactionDiffusion(k=1, d=2, diffusion=scalar_diffusion_matrix([[2.0, 0.3], [0.3, 1.0]]))
        res = check_petrowski(tgt, s, mode="petrowski")
        exact = (3.0 - np.sqrt(1.36)) / 2.0
        assert res.passed
        # sweep oracle: the sampled minimum of the same quadratic form
        theta = 2.0 * np.pi * np.arange(64) / 64
        swept = min(
            2 * np.cos(t) ** 2 + 0.6 * np.cos(t) * np.sin(t) + np.sin(t) ** 2 for t in theta
        )
        assert res.margin == pytest.approx(swept, rel=1e-12)
        assert abs(res.margin - exact) < 5e-3

    def test_limit_mode_on_builder_matches_strong_floor(self, samples):
        tgt = ReactionDiffusion(k=1, d=1, diffusion=isotropic_diffusion(1, 1))
        sys = builder.from_reaction_diffusion(tgt)
        strong = check_petrowski(tgt, samples, mode="strong")
        limit = check_petrowski(sys, samples, mode="petrowski")
        assert limit.passed
        assert limit.margin >= strong.margin - 1e-9


class TestSourceStructure:
    def test_nonlinear_source_fails_with_witness(self, samples):
        # the integrator freezes the jacobian at z = 0, so a cubic source must be refused
        linear = _simple_system()
        cubic = replace(linear, q=lambda x, u, z: -z - z ** 3)
        passing = check_source_structure(linear, samples)
        assert passing.passed and passing.margin == ZERO_TOL
        res = check_source_structure(cubic, samples)
        assert not res.passed
        assert set(res.witness) == {"x", "u", "v", "defect"}
        # the first worst sample: z = -1, where q = 2 and q_nu(x, u, 0) z = 1
        assert res.witness["v"].tolist() == [-1.0] and res.witness["defect"] == 0.5
        assert res.margin == EIG_RTOL - 0.5
        x, u, v = (res.witness[a].reshape(-1, 1) for a in ("x", "u", "v"))
        assert abs(cubic.stiff_source(x, u, v) - cubic.stiff_source_jacobian(x, u, 0 * v)[0] @ v) == 1.0
        assert validate_all(cubic, samples).failing() == ("source_structure",)

    def test_nonlinear_raw_source_fails_with_witness(self, grid):
        # b = (s, -s), s = -(w0 - w1)^3 - (w0 - w1); under p = [[1, 1], [1, -1]], z = w0 - w1 and q = -2 z^3 - 2 z
        def b(x, w):
            s = -(w[0] - w[1]) ** 3 - (w[0] - w[1])
            return np.stack([s, -s])

        def b_jac(x, w):
            ds = -3.0 * (w[0] - w[1]) ** 2 - 1.0
            return np.stack([np.stack([ds, -ds]), np.stack([-ds, ds])])

        raw = builder.RawSystem(n=2, d=1, a=(np.array([[0.0, 1.0], [1.0, 0.0]]),), b=b, b_jac=b_jac)
        sys = builder.decouple(raw, builder.DecouplingTransform(np.array([[1.0, 1.0], [1.0, -1.0]]), k=1))
        res = check_source_structure(sys, SampleSet.build(grid, 1, 1))
        assert not res.passed and set(res.witness) == {"x", "u", "v", "defect"}
        # the first worst sample: z = -1, where q = 4 and q_nu(x, u, 0) z = 2
        assert res.witness["v"].tolist() == [-1.0] and res.witness["defect"] == pytest.approx(0.5, rel=1e-14)
        assert res.margin == EIG_RTOL - res.witness["defect"]
        x, u, v = (res.witness[a].reshape(-1, 1) for a in ("x", "u", "v"))
        assert sys.stiff_source(x, u, v)[0, 0] == pytest.approx(4.0, rel=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stiff_source_fails(self, grid, bad):
        # finite at z = 0, so only the (x, u, v) lattice sees it
        heat = builder.demo("heat1d", grid).system
        sys = replace(heat, q=lambda x, u, z: np.where(z > 0.5, bad, -z))
        res = check_source_structure(sys, SampleSet.build(grid, 1, 1))
        assert not res.passed and res.margin == -np.inf
        assert set(res.witness) == {"x", "u", "v", "value"} and res.witness["value"] == "non-finite stiff source"
        assert res.witness["v"][0] > 0.5

    def test_difference_quotients_cover_the_whole_box(self, grid):
        # d_II is infinite for u > 0.5 only; u = -1, 0 would miss it
        sys = replace(_simple_system(), d_II=lambda u, z: np.where(u > 0.5, np.inf, 0.0) + 0.0 * z)
        s = SampleSet.build(grid, 1, 1, u_box=((-1.0,), (1.0,)))
        res = check_source_structure(sys, s)
        assert not res.passed and res.margin == -np.inf
        assert res.witness["u"].tolist() == [1.0] and res.witness["component"] == 0
        assert res.witness["value"] == "non-finite difference quotient"

    def test_witness_reproduces_the_reported_margin(self, samples):
        # a conserved source of 5 at zero state and a cubic stiff source: the margin is the source's
        sys = replace(_simple_system(), q=lambda x, u, z: -z - z ** 3, dtilde_I=lambda x, u, v, eps: 5.0 + 0.0 * u)
        res = check_source_structure(sys, samples)
        assert not res.passed and res.margin == ZERO_TOL - 5.0
        assert set(res.witness) == {"x", "u", "value", "eps"} and res.witness["eps"] == 0.1
        x, u = (res.witness[a].reshape(-1, 1) for a in ("x", "u"))
        probe = sys.lower_order_I(x, u, np.zeros((1, 1)), res.witness["eps"])
        assert ZERO_TOL - np.max(np.abs(probe)) == res.margin


def _nan_beyond_half(values, x=None, u=None):
    """values, (..., M), NaN on every column where x or u exceeds 1/2."""
    bad = np.zeros(np.shape(values)[-1], dtype=bool)
    for pts in (x, u):
        if pts is not None:
            bad |= pts[0] > 0.5
    return np.where(bad, np.nan, values)


def _with_nan_field(bundle, field):
    """heat1d's system, symmetrizer and target with one field NaN where x > 1/2 or u > 1/2."""
    sys, r, target = bundle.system, bundle.symmetrizer, bundle.target

    def tiled(const):  # a constant block as a field of x (and xi, for a symmetrizer block)
        return lambda x, *xi: _nan_beyond_half(np.repeat(np.asarray(const)[..., None], x.shape[1], -1), x=x)

    if field in ("m11", "m12", "m21", "m22"):
        blocks = getattr(sys, field) or (np.zeros((1, 1)),)
        return replace(sys, **{field: (tiled(blocks[0]),)}), r, target
    if field in ("r11", "r22"):
        return sys, replace(r, **{field: tiled(getattr(r, field))}), target
    if field == "diffusion":
        return sys, r, replace(target, diffusion=tiled(target.diffusion))
    sources = {
        "q": lambda x, u, z: _nan_beyond_half(sys.q(x, u, z), x, u),
        "q_nu": lambda x, u, z: _nan_beyond_half(sys.stiff_source_jacobian(x, u, z), x, u),
        "dtilde_I": lambda x, u, v, eps: _nan_beyond_half(0.0 * u, x, u),
        "d_II": lambda u, z: _nan_beyond_half(0.0 * z, u=u),
    }
    return replace(sys, **{field: sources[field]}), r, target


class TestNonFiniteFields:
    """A NaN in any field a system or bundle carries fails a check with a witness, and never crashes validation."""

    @pytest.mark.parametrize("field, check", [
        ("m11", "conserved_block"), ("m12", "petrowski_limit"), ("m21", "rank_condition"),
        ("m22", "hyperbolicity"), ("q", "source_structure"), ("q_nu", "dissipativity"),
        ("q_nu", "petrowski_limit"), ("dtilde_I", "source_structure"), ("d_II", "source_structure"),
        ("r11", "symmetrizer"), ("r22", "symmetrizer"), ("diffusion", "strong_parabolicity"),
    ])
    def test_nan_fails_its_check_with_a_witness(self, grid, field, check):
        bundle = builder.demo("heat1d", grid)
        sys, r, target = _with_nan_field(bundle, field)
        s = SampleSet.build(grid, 1, 1, u_box=bundle.state_box)
        report = validate_all(sys, s, target=target, symmetrizer=r)
        for e in report.entries:
            assert e.passed or (e.witness and (e.margin == -np.inf or np.isfinite(e.margin))), e
            assert not np.isnan(e.margin), e
        res = report.entry(check)
        assert not res.passed and res.margin == -np.inf
        assert any(res.witness[a][0] > 0.5 for a in ("x", "u") if a in res.witness), res.witness


class TestValidateAll:
    def test_carleman_all_pass(self, grid):
        bundle = builder.demo("carleman", grid)
        s = SampleSet.build(grid, 1, 1, u_box=bundle.state_box)
        report = validate_all(bundle.system, s, target=bundle.target,
                              symmetrizer=bundle.symmetrizer)
        assert report.passed
        assert len(report.entries) >= 6

    def test_null_limit_fails_exactly_conserved_block(self, grid):
        bundle = builder.demo("null-limit", grid)
        s = SampleSet.build(grid, 1, 1, u_box=bundle.state_box)
        report = validate_all(bundle.system, s, symmetrizer=bundle.symmetrizer)
        assert report.failing() == ("conserved_block",)
        assert report.entry("conserved_block").note == NULL_LIMIT_NOTE

    def test_reports_deterministic(self, grid):
        bundle = builder.demo("carleman", grid)
        s = SampleSet.build(grid, 1, 1, u_box=bundle.state_box)
        r1 = validate_all(bundle.system, s, target=bundle.target)
        r2 = validate_all(bundle.system, s, target=bundle.target)
        for a, b in zip(r1.entries, r2.entries):
            assert a.name == b.name and a.passed == b.passed
            assert a.margin == b.margin  # bit-identical
            assert a.witness_str() == b.witness_str()

    @pytest.mark.parametrize("name, evaluated", [
        ("heat2d", 1), ("aniso2d", 1), ("null-limit", 64), ("four-block-2d", 64), ("carleman", 64),
        ("callable-diffusion", 64),
    ])
    def test_x_samples_read_only_where_a_field_reads_x(self, monkeypatch, name, evaluated):
        # the callable-diffusion case is heat1d's constant system with the same diffusion as a callable
        d = 2 if name in ("heat2d", "aniso2d", "four-block-2d") else 1
        grid = rb.SpatialGrid((16,) * d if d == 2 else (64,), (1.0,) * d)
        if name == "four-block-2d":
            sysm, target, symmetrizer, box = four_block_2d(), None, None, None
        else:
            bundle = builder.demo("heat1d" if name == "callable-diffusion" else name, grid)
            sysm, target, symmetrizer, box = bundle.system, bundle.target, bundle.symmetrizer, bundle.state_box
        if name == "callable-diffusion":
            blocks = isotropic_diffusion(1, 1)
            target = ReactionDiffusion(k=1, d=1, diffusion=lambda x: np.repeat(blocks[..., None], x.shape[1], -1))
        seen = {}
        for attr in ("check_hyperbolicity", "check_dissipativity", "check_symmetrizer", "check_petrowski",
                     "check_source_structure"):
            def spy(sys_or_target, *args, check=getattr(validator, attr), **kwargs):
                seen.setdefault(check.__name__, set()).update(
                    a.x_points.shape[1] for a in args if isinstance(a, SampleSet))
                return check(sys_or_target, *args, **kwargs)

            monkeypatch.setattr(validator, attr, spy)
        s = SampleSet.build(grid, sysm.k, sysm.m, u_box=box)
        assert s.x_points.shape[1] == 64
        validate_all(sysm, s, target=target, symmetrizer=symmetrizer)
        # the source check reads q, which may read x whatever the other fields are
        assert seen.pop("check_source_structure") == {64}
        assert seen and all(xs == {evaluated} for xs in seen.values())

    def test_callable_q_nu_is_checked_at_every_x(self, grid, samples):
        # dissipative at the first x sample only: the check must look past it
        def q_nu(x, u, z):
            return np.where(x[0] < 0.25, -1.0, 0.5).reshape(1, 1, -1)

        sysm = replace(_simple_system(), q=lambda x, u, z: q_nu(x, u, z)[0] * z, q_nu=q_nu)
        report = validate_all(sysm, samples)
        assert "dissipativity" in report.failing()
        assert report.entry("dissipativity").witness["x"][0] > samples.x_points[0, 0]

    def test_source_reading_x_is_checked_at_every_x(self, samples):
        # q_nu is a constant array, but q is wrong only at x > 1/2, away from the first x sample
        sysm = replace(_simple_system(), q=lambda x, u, z: -z + (x[0] > 0.5), q_nu=np.array([[-1.0]]))
        report = validate_all(sysm, samples)
        assert report.failing() == ("source_structure",)
        assert report.entry("source_structure").witness["x"][0] > 0.5 > samples.x_points[0, 0]

    def test_every_check_appears_once(self, grid):
        bundle = builder.demo("heat1d", grid)
        s = SampleSet.build(grid, 1, 1, u_box=bundle.state_box)
        report = validate_all(bundle.system, s, target=bundle.target)
        names = [e.name for e in report.entries]
        assert len(names) == len(set(names))


@pytest.mark.parametrize("name", builder.DEMO_NAMES)
def test_report_matches_golden(name):
    """report.csv of every demo (n=256 in 1-d, 128^2 in 2-d) is pinned byte for byte."""
    d = builder.DEMO_DIMS[name]
    grid = rb.SpatialGrid((256,) if d == 1 else (128, 128), (1.0,) * d)
    bundle = builder.demo(name, grid)
    s = SampleSet.build(grid, bundle.system.k, bundle.system.m, u_box=bundle.state_box)
    report = validate_all(bundle.system, s, target=bundle.target, symmetrizer=bundle.symmetrizer)
    assert cli.report_csv(report) == (GOLDEN / f"report_{name}.csv").read_text()


def _first_strict(values, worse):
    best = 0
    for i, v in enumerate(values):
        if worse(v, values[best]):
            best = i
    return best


class TestLoopReference:
    """Stacked checks against per-sample loops over the single-point symbols.

    The fixture's coefficients vary with x, and its worst sample is neither the
    first nor unique (ties across y, u and +-xi), so witness selection counts.
    """

    @pytest.fixture(scope="class")
    def case(self):
        base = np.array([[2.0, 0.3], [0.3, 1.0]]).reshape(2, 2, 1, 1, 1)
        target = ReactionDiffusion(k=1, d=2, diffusion=lambda x: base * (1.0 + (x[0] - 0.5) ** 2))
        g = rb.SpatialGrid((16, 16), (1.0, 1.0))
        samples = SampleSet(
            x_points=g.sample_points(16), directions=unit_directions(2),
            u_points=np.array([[-1.0, 0.0, 1.0]]), v_points=np.array([[-1.0, 1.0], [0.5, 0.5]]),
        )
        return builder.from_reaction_diffusion(target), samples

    @staticmethod
    def _assert_matches(res, values, witnesses, worse, margin_sign):
        i = _first_strict(values, worse)
        assert i > 0 and values.count(values[i]) > 1
        assert res.margin == margin_sign * values[i]
        assert res.witness_str() == CheckResult(res.name, True, 0.0, witnesses[i]).witness_str()

    def test_hyperbolicity(self, case):
        sys, s = case
        values, witnesses = [], []
        for x in s.x_points.T:
            for xi in s.directions.T:
                eigs = np.linalg.eigvals(1j * rb.principal_symbol(sys, x, xi))
                values.append(float(np.max(np.abs(eigs.imag))) - EIG_RTOL * float(np.max(np.abs(eigs))))
                bad = eigs[np.argmax(np.abs(eigs.imag))]
                witnesses.append({"x": x, "xi": xi, "eigenvalue": complex(bad)})
        self._assert_matches(check_hyperbolicity(sys, s), values, witnesses, float.__gt__, -1.0)

    def test_dissipativity(self, case):
        sys, s = case
        values, witnesses = [], []
        for x in s.x_points.T:
            for u in s.u_points.T:
                for v in s.v_points.T:
                    jac = rb.stiff_jacobian(sys, x, u, v)
                    top = float(np.linalg.eigvalsh(0.5 * (jac + jac.T))[-1])
                    values.append(top)
                    witnesses.append({"x": x, "u": u, "v": v, "eigenvalue": top})
        self._assert_matches(check_dissipativity(sys, s), values, witnesses, float.__gt__, -1.0)

    def test_petrowski(self, case):
        sys, s = case
        values, witnesses = [], []
        for x in s.x_points.T:
            for u in s.u_points.T:
                for xi in s.directions.T:
                    eigs = np.linalg.eigvals(rb.limit_generator(sys, x, u, xi))
                    values.append(-float(np.max(eigs.real)))
                    witnesses.append({"x": x, "u": u, "xi": xi,
                                      "eigenvalue": complex(eigs[np.argmax(eigs.real)])})
        self._assert_matches(check_petrowski(sys, s), values, witnesses, float.__lt__, 1.0)
