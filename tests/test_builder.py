import numpy as np
import pytest

import relaxbench as rb
from relaxbench import builder, validator
from relaxbench.builder import (
    BuildError,
    DecouplingTransform,
    QuasilinearDivergence,
    RawSystem,
    ReactionDiffusion,
    carleman,
    decouple,
    from_quasilinear,
    from_reaction_diffusion,
    from_sqrt_symbol,
    isotropic_diffusion,
    scalar_diffusion_matrix,
    scalar_quasilinear,
)

from conftest import sine_mode

TWO_PI = 2.0 * np.pi


def _constant_jacobian(mat):
    """b_jac of a source linear in W: the (N, N) matrix at every point, (N, N, M)."""
    mat = np.asarray(mat, dtype=float)
    return lambda x, w: np.broadcast_to(mat[:, :, None], mat.shape + (w.shape[-1],))


class TestDecouple:
    def test_carleman_blocks_and_source(self):
        raw, transform, sys = carleman()
        # P diag(1,-1) P^{-1} = [[0,1],[1,0]] split at k=1
        x = np.array([[0.2]])
        assert sys.m11 is None
        for blocks, val in ((sys.m12, 1.0), (sys.m21, 1.0), (sys.m22, 0.0)):
            got = rb.core.eval_matrix_field(blocks[0], x)[:, :, 0]
            assert np.allclose(got, val, atol=1e-14)
        # Q(z) = -2 zI zII in the transformed variables
        u = np.array([[0.8]])
        z = np.array([[0.3]])
        assert np.allclose(sys.stiff_source(x, u, z), -2.0 * 0.8 * 0.3, atol=1e-14)
        assert np.allclose(sys.stiff_source_jacobian(x, u, z), -1.6, atol=1e-14)

    def test_identity_transform_is_identity_on_blocks(self):
        def b(x, w):
            return np.stack([np.zeros_like(w[0]), -w[1]])

        raw = RawSystem(n=2, d=1, a=(np.array([[0.0, 1.0], [1.0, 0.0]]),),
                        b=b, b_jac=_constant_jacobian([[0.0, 0.0], [0.0, -1.0]]))
        sys = decouple(raw, DecouplingTransform(np.eye(2), k=1))
        x = np.array([[0.0]])
        assert np.allclose(rb.core.eval_matrix_field(sys.m12[0], x)[:, :, 0], 1.0)
        assert np.allclose(rb.core.eval_matrix_field(sys.m21[0], x)[:, :, 0], 1.0)

    def test_non_annihilating_transform_rejected(self):
        def b(x, w):
            return np.stack([w[0], -w[1]])  # first row does not vanish

        raw = RawSystem(n=2, d=1, a=(np.eye(2),), b=b,
                        b_jac=_constant_jacobian([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(BuildError, match="annihilate"):
            decouple(raw, DecouplingTransform(np.eye(2), k=1))

    def test_singular_transform_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            DecouplingTransform(np.array([[1.0, 1.0], [1.0, 1.0]]), k=1)

    def test_singularity_is_scale_free(self):
        # a tiny determinant with condition number 1 is fine; a large one with condition number 4e12 is not
        tiny = DecouplingTransform(1e-7 * np.eye(2), k=1)
        assert np.allclose(tiny.p_inv @ tiny.p, np.eye(2), rtol=0.0, atol=1e-15)
        with pytest.raises(ValueError, match=r"numerically singular: condition number 4e\+12"):
            DecouplingTransform(np.array([[1e6, 1e6], [1e6, 1e6 + 1e-6]]), k=1)

    def test_roundtrip_reassembly(self):
        raw, transform, sys = carleman()
        x = np.array([[0.37]])
        blocks = np.zeros((2, 2))
        blocks[:1, 1:] = rb.core.eval_matrix_field(sys.m12[0], x)[:, :, 0]
        blocks[1:, :1] = rb.core.eval_matrix_field(sys.m21[0], x)[:, :, 0]
        blocks[1:, 1:] = rb.core.eval_matrix_field(sys.m22[0], x)[:, :, 0]
        rebuilt = transform.p_inv @ blocks @ transform.p
        assert np.allclose(rebuilt, np.diag([1.0, -1.0]), atol=1e-13)

    def test_lower_order_mapping(self):
        # D(W) with conserved part (f1 - f2), so the scaled form is exactly v
        def b(x, w):
            half = 0.5 * (w[1] - w[0])
            return np.stack([half, -half])

        def d_lower(w):
            diff = w[0] - w[1]
            return np.stack([0.5 * diff, 0.5 * diff])

        raw = RawSystem(n=2, d=1, a=(np.array([[0.0, 1.0], [1.0, 0.0]]),),
                        b=b, d_lower=d_lower,
                        b_jac=_constant_jacobian([[-0.5, 0.5], [0.5, -0.5]]))
        p = DecouplingTransform(np.array([[1.0, 1.0], [1.0, -1.0]]), k=1)
        sys = decouple(raw, p)
        x = np.array([[0.0]])
        u = np.array([[0.7]])
        v = np.array([[0.4]])
        for eps in (0.1, 0.01, 1e-4):
            got = sys.lower_order_I(x, u, v, eps)
            assert np.allclose(got, v, rtol=1e-10)

    def test_callable_blocks_and_lower_order_match_hand_placed(self):
        def a(x):
            s = np.sin(TWO_PI * x[0])
            return np.array([[1.0 + 0.2 * s, s], [0.5 * s, -1.0 + 0.1 * s]])

        def b(x, w):
            half = 0.5 * (w[1] - w[0])
            return np.stack([half, -half])

        def d_lower(w):
            return np.stack([w[0] * w[1], w[0] ** 2 - w[1]])

        p = np.array([[1.0, 1.0], [1.0, -2.0]])
        raw = RawSystem(n=2, d=1, a=(a,), b=b, d_lower=d_lower,
                        b_jac=_constant_jacobian([[-0.5, 0.5], [0.5, -0.5]]))
        sys = decouple(raw, DecouplingTransform(p, k=1))
        x = np.array([[0.1, 0.35, 0.8]])
        got = np.empty((2, 2, 3))
        for blocks, rows, cols in ((sys.m11, 0, 0), (sys.m12, 0, 1), (sys.m21, 1, 0), (sys.m22, 1, 1)):
            got[rows, cols] = rb.core.eval_matrix_field(blocks[0], x)[0, 0]
        want = np.stack([p @ a(x)[:, :, i] @ np.linalg.inv(p) for i in range(3)], axis=-1)
        assert np.max(np.abs(got - want)) <= 1e-14
        u, z = np.array([[0.7, -0.2, 1.3]]), np.array([[0.4, 0.9, -0.6]])
        w = np.linalg.solve(p, np.vstack([u, z]))
        assert np.max(np.abs(sys.lower_order_II(u, z) - (p @ d_lower(w))[1:])) <= 1e-14

    def test_exact_jacobian_is_required(self):
        def b(x, w):
            return np.stack([np.zeros_like(w[0]), -w[1]])

        with pytest.raises(TypeError, match="b_jac"):
            RawSystem(n=2, d=1, a=(np.eye(2),), b=b)
        raw = RawSystem(n=2, d=1, a=(np.eye(2),), b=b, b_jac=None)
        with pytest.raises(BuildError, match="b_jac must be the exact Jacobian"):
            decouple(raw, DecouplingTransform(np.eye(2), k=1))


class TestReactionDiffusion:
    def test_heat_structure(self):
        sys = from_reaction_diffusion(ReactionDiffusion(k=1, d=1, diffusion=isotropic_diffusion(1, 1)))
        assert (sys.k, sys.m) == (1, 1)
        assert np.allclose(np.asarray(sys.m12[0]), 1.0)
        assert np.allclose(np.asarray(sys.m21[0]), 1.0)
        z = np.array([[0.7]])
        assert np.allclose(sys.stiff_source(np.zeros((1, 1)), np.zeros((1, 1)), z), -0.7)

    def test_heat2d_structure(self):
        sys = from_reaction_diffusion(ReactionDiffusion(k=1, d=2, diffusion=isotropic_diffusion(1, 2)))
        assert (sys.k, sys.m) == (1, 2)
        assert np.allclose(np.asarray(sys.m12[0]), [[1.0, 0.0]])
        assert np.allclose(np.asarray(sys.m12[1]), [[0.0, 1.0]])
        z = np.array([[0.3], [0.4]])
        assert np.allclose(
            sys.stiff_source(np.zeros((2, 1)), np.zeros((1, 1)), z), -z
        )

    def test_generator_matches_target_symbol(self):
        target = ReactionDiffusion(k=1, d=2, diffusion=scalar_diffusion_matrix([[2.0, 0.3], [0.3, 1.0]]))
        sys = from_reaction_diffusion(target)
        rng = np.random.default_rng(7)
        for _ in range(64):
            xi = rng.normal(size=2)
            xi /= np.linalg.norm(xi)
            x = rng.uniform(0, 1, 2)
            got = rb.limit_generator(sys, x, [0.0], xi)
            want = -target.second_order_symbol(x, xi)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_constant_and_callable_diffusion_agree(self):
        # k=2, d=2 with cross terms: every block A_jl is a full 2x2 matrix.  Dyadic
        # entries and integer z keep every product and sum exact, so the
        # comparison does not depend on summation order.
        rng = np.random.default_rng(11)
        full = np.array([[4.0, 1.0, 1.0, 0.5], [1.0, 3.0, 0.5, 1.0],
                         [1.0, 0.5, 3.0, 1.0], [0.5, 1.0, 1.0, 4.0]])  # diagonally dominant: SPD
        blocks = full.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)  # blocks[i, j] = full[2i.., 2j..]
        const = from_reaction_diffusion(ReactionDiffusion(k=2, d=2, diffusion=blocks))
        vary = from_reaction_diffusion(ReactionDiffusion(
            k=2, d=2, diffusion=lambda x: np.repeat(blocks[..., None], x.shape[1], axis=-1)))
        assert const.constant_coefficients and not vary.constant_coefficients
        x, u = rng.uniform(0.0, 1.0, size=(2, 5)), rng.normal(size=(2, 5))
        z = rng.integers(-3, 4, size=(4, 5)).astype(float)
        core = rb.core
        assert np.array_equal(core.transport_blocks(const, x), core.transport_blocks(vary, x))
        assert np.array_equal(const.stiff_source(x, u, z), vary.stiff_source(x, u, z))
        assert np.array_equal(const.stiff_source_jacobian(x, u, z), vary.stiff_source_jacobian(x, u, z))
        dirs = core.unit_directions(2)
        assert np.array_equal(core.limit_generators(const, x, u, dirs),
                              core.limit_generators(vary, x, u, dirs))

    def test_non_spd_rejected_with_witness(self):
        bad = ReactionDiffusion(k=2, d=1,
                                diffusion=np.array([[1.0, 2.0], [0.0, 1.0]]).reshape(1, 1, 2, 2))
        with pytest.raises(BuildError, match="not symmetric"):
            from_reaction_diffusion(bad)
        negdef = ReactionDiffusion(k=1, d=1, diffusion=isotropic_diffusion(1, 1, coeff=-1.0))
        with pytest.raises(BuildError, match="smallest eigenvalue"):
            from_reaction_diffusion(negdef)


class TestQuasilinear:
    def test_coincides_with_reaction_diffusion_when_linear(self):
        rd = from_reaction_diffusion(ReactionDiffusion(k=1, d=1, diffusion=isotropic_diffusion(1, 1)))
        ql = from_quasilinear(scalar_quasilinear(b=lambda u: np.ones_like(u)))
        x = np.array([[0.3]])
        u = np.array([[0.2]])
        z = np.array([[-0.5]])
        for xi in ([1.0], [-2.0]):
            assert np.allclose(
                rb.principal_symbol(rd, x[:, 0], xi), rb.principal_symbol(ql, x[:, 0], xi)
            )
        assert np.allclose(rd.stiff_source(x, u, z), ql.stiff_source(x, u, z))

    def test_carleman_as_quasilinear(self):
        ql = from_quasilinear(builder.carleman_limit_target())
        x = np.array([[0.0]])
        rho = np.array([[0.8]])
        z = np.array([[0.3]])
        # B = 1/(2 rho) gives Q = -2 rho z, recovering the kinetic fixture
        assert np.allclose(ql.stiff_source(x, rho, z), -2.0 * 0.8 * 0.3, rtol=1e-12)
        assert np.allclose(ql.stiff_source_jacobian(x, rho, z), -1.6, rtol=1e-12)

    def test_bu2_source_and_lower_order(self):
        ql = from_quasilinear(scalar_quasilinear(
            b=lambda u: 1.0 + u ** 2, flux=lambda u: 0.5 * u ** 2,
        ))
        u = np.array([[0.5]])
        z = np.array([[1.0]])
        assert np.allclose(ql.stiff_source_jacobian(None, u, z), -1.0 / 1.25, rtol=1e-12)
        assert np.allclose(ql.lower_order_II(u, z), 0.125 / 1.25, rtol=1e-12)

    def test_generator_matches_symbol_on_box(self):
        target = scalar_quasilinear(b=lambda u: 1.0 + u ** 2, flux=lambda u: 0.5 * u ** 2)
        sys = from_quasilinear(target)
        for u in np.linspace(-1, 1, 9):
            got = rb.limit_generator(sys, [0.0], [u], [1.0])
            assert np.allclose(got, -(1.0 + u ** 2), rtol=1e-12)

    def test_singular_diffusion_rejected(self):
        target = scalar_quasilinear(b=lambda u: u, state_box=(-1.0, 1.0))  # vanishes at 0
        with pytest.raises(BuildError, match="singular"):
            from_quasilinear(target)


def test_diffusion_block_matrix_layout():
    """Block (i, j) of (d, d, k, k, M) diffusion data sits at rows i*k.., columns j*k.."""
    rng = np.random.default_rng(3)
    root = rng.normal(size=(6, 6))
    full = root @ root.T + 6.0 * np.eye(6)  # SPD, so from_reaction_diffusion accepts it
    blocks = full.reshape(2, 3, 2, 3).transpose(0, 2, 1, 3)  # blocks[i, j] = full[3i.., 3j..]
    scaled = lambda x: blocks[..., None] * (1.0 + x[0])  # (2, 2, 3, 3, M)
    x = rng.uniform(0.0, 1.0, size=(2, 4))
    want = full[:, :, None] * (1.0 + x[0])
    ql = QuasilinearDivergence(k=3, d=2, diffusion=scaled)
    assert np.array_equal(ql.big_b(x[:1].repeat(3, axis=0)), want)
    rd = from_reaction_diffusion(ReactionDiffusion(k=3, d=2, diffusion=scaled))
    jac = rd.stiff_source_jacobian(x, np.zeros((3, 4)), np.zeros((6, 4)))
    assert np.array_equal(jac, -want)
    # a diffusion that returns one point is broadcast to every state
    const = scalar_quasilinear(b=lambda u: 2.0)
    assert np.array_equal(const.big_b(np.zeros((1, 5))), np.full((1, 1, 5), 2.0))


class TestSqrtSymbol:
    def test_absolute_value_symbol_1d(self):
        target = ReactionDiffusion(k=1, d=1, diffusion=isotropic_diffusion(1, 1))
        sys = from_sqrt_symbol(target)
        assert np.allclose(sys.multiplier.b_at([[TWO_PI, -TWO_PI, 0.0]]), [[[TWO_PI]], [[TWO_PI]], [[0.0]]])

    def test_scalar_anisotropic_symbol(self):
        target = ReactionDiffusion(k=1, d=2, diffusion=scalar_diffusion_matrix([[2.0, 0.3], [0.3, 1.0]]))
        sys = from_sqrt_symbol(target)
        xi = np.array([[1.0, 0.5], [2.0, -3.0]])
        want = np.sqrt(2 * xi[0] ** 2 + 0.6 * xi[0] * xi[1] + xi[1] ** 2)
        assert np.allclose(sys.multiplier.b_at(xi), want[:, None, None], rtol=1e-12)

    def test_refuses_a_symbol_negative_in_some_direction(self):
        # S(xi) = xi_1^2 + 4 xi_1 xi_2 + xi_2^2 is -1 at +-(1, -1) / sqrt(2); S is even, so either may be named
        target = ReactionDiffusion(k=1, d=2, diffusion=scalar_diffusion_matrix([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(BuildError, match="not positive definite: smallest eigenvalue -1 at xi=") as err:
            from_sqrt_symbol(target)
        xi = np.array(str(err.value).split("xi=[")[1].rstrip("]").split(), dtype=float)
        assert np.allclose(np.abs(xi), np.sqrt(0.5), rtol=1e-8) and xi[0] == -xi[1]

    def test_generator_is_minus_quadratic_symbol(self):
        target = ReactionDiffusion(k=1, d=1, diffusion=isotropic_diffusion(1, 1))
        sys = from_sqrt_symbol(target)
        got = rb.limit_generator(sys, [0.0], [0.0], [TWO_PI])
        assert np.allclose(got, -TWO_PI ** 2, rtol=1e-12)

    def test_requires_constant_coefficients(self):
        vary = ReactionDiffusion(
            k=1, d=1,
            diffusion=lambda x: (1.0 + 0.1 * np.sin(x[0])).reshape(1, 1, 1, 1, -1),
        )
        with pytest.raises(BuildError, match="constant"):
            from_sqrt_symbol(vary)


class TestRoundTripHypotheses:
    """Builders are hypothesis-complete by construction."""

    @pytest.mark.parametrize("name", ["heat1d", "carleman", "quasilinear-bu2", "sqrt-heat"])
    def test_all_checks_pass_1d(self, name, grid64):
        bundle = builder.demo(name, grid64)
        samples = validator.SampleSet.build(
            grid64, bundle.system.k, bundle.system.m, u_box=bundle.state_box
        )
        report = validator.validate_all(
            bundle.system, samples, target=bundle.target, symmetrizer=bundle.symmetrizer
        )
        assert report.passed, report.failing()

    @pytest.mark.parametrize("name", ["heat2d", "aniso2d"])
    def test_all_checks_pass_2d(self, name, grid2d):
        bundle = builder.demo(name, grid2d)
        samples = validator.SampleSet.build(
            grid2d, bundle.system.k, bundle.system.m, u_box=bundle.state_box
        )
        report = validator.validate_all(
            bundle.system, samples, target=bundle.target, symmetrizer=bundle.symmetrizer
        )
        assert report.passed, report.failing()


def test_unknown_demo_rejected(grid64):
    with pytest.raises(BuildError, match="unknown demo"):
        builder.demo("nope", grid64)


@pytest.mark.parametrize("name, ns", [("heat1d", (8, 8)), ("carleman", (8, 8)), ("heat2d", (8,))])
def test_demo_on_grid_of_other_dimension_rejected(name, ns):
    grid = rb.SpatialGrid(ns, (1.0,) * len(ns))
    want = f"demo {name} is {builder.DEMO_DIMS[name]}-d, the grid is {len(ns)}-d"
    with pytest.raises(BuildError, match=want):
        builder.demo(name, grid)


@pytest.mark.parametrize("name", builder.DEMO_NAMES)
def test_demo_coefficients_derived_constant(name):
    # every transport block is an array (or the transport a multiplier) except null-limit's m11
    d = builder.DEMO_DIMS[name]
    grid = rb.SpatialGrid((16,) * d, (1.0,) * d)
    assert builder.demo(name, grid).system.constant_coefficients == (name != "null-limit")


# Written from the seven hand-built demo branches the table replaced:
# name: (d, default (amplitude, offset), state_box, positive_states, target class, (k, m))
DEMO_TABLE = {
    "carleman": (1, (0.5, 1.0), ((0.5,), (1.5,)), True, QuasilinearDivergence, (1, 1)),
    "heat1d": (1, (1.0, 0.0), ((-1.5,), (1.5,)), False, ReactionDiffusion, (1, 1)),
    "heat2d": (2, (1.0, 0.0), ((-1.5,), (1.5,)), False, ReactionDiffusion, (1, 2)),
    "aniso2d": (2, (1.0, 0.0), ((-1.5,), (1.5,)), False, ReactionDiffusion, (1, 2)),
    "quasilinear-bu2": (1, (0.5, 0.0), ((-1.0,), (1.0,)), False, QuasilinearDivergence, (1, 1)),
    "sqrt-heat": (1, (1.0, 0.0), ((-1.5,), (1.5,)), False, ReactionDiffusion, (1, 1)),
    "null-limit": (1, (1.0, 0.0), ((-1.5,), (1.5,)), False, type(None), (1, 1)),
}


def test_demo_names_and_dims_pinned():
    assert builder.DEMO_NAMES == tuple(DEMO_TABLE)
    assert builder.DEMO_DIMS == {name: row[0] for name, row in DEMO_TABLE.items()}


@pytest.mark.parametrize("name", sorted(DEMO_TABLE))
def test_demo_bundle_pinned(name):
    d, (amp, off), box, positive, target_cls, (k, m) = DEMO_TABLE[name]
    grid = rb.SpatialGrid((16,) * d, (1.0,) * d)
    bundle = builder.demo(name, grid)
    assert bundle.name == name and bundle.system.d == d
    assert np.array_equal(bundle.u0(grid), sine_mode(grid, amplitude=amp, offset=off))
    assert bundle.state_box == box and bundle.system.positive_states is positive
    assert type(bundle.target) is target_cls
    assert (bundle.system.k, bundle.system.m) == (k, m)
    sym = bundle.symmetrizer
    assert np.array_equal(sym.r11, np.eye(k)) and np.array_equal(sym.r22, np.eye(m))
    assert sym.eta == 0.5
