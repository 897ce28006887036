from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import relaxbench as rb
from relaxbench import builder
from relaxbench.core import (
    FieldState,
    SingularSourceError,
    SpatialGrid,
    apply_modes,
    eig_factors,
    eig_function,
    equilibrium_uII,
    mode_table,
    parseval_weights,
    principal_symbols,
    solve_points,
    spectral_gradient,
    to_modes,
    transport_blocks,
    unit_directions,
)
from relaxbench.hypersolver import SolverOptions, _Workspace

from conftest import four_block_2d

TWO_PI = 2.0 * np.pi


def fft_gradient(grid, fields):
    """The full-spectrum spectral derivative (c, *ns) -> (d, c, *ns): fftn, i kappa_j with an even axis's
    unpaired Nyquist mode dropped, ifftn and the real part.  An oracle for spectral_gradient."""
    fields = np.asarray(fields, dtype=float)
    kappa = grid.wavenumbers()
    spax = tuple(range(1, 1 + grid.d))
    fhat = np.fft.fftn(fields, axes=spax)
    out = np.empty((grid.d,) + fields.shape)
    for j in range(grid.d):
        mask = np.ones(grid.ns[j])
        if grid.ns[j] % 2 == 0:
            mask[grid.ns[j] // 2] = 0.0
        shape = [1] * grid.d
        shape[j] = grid.ns[j]
        out[j] = np.fft.ifftn(fhat * (1j * kappa[j]) * mask.reshape(shape), axes=spax).real
    return out


@pytest.fixture(scope="module")
def carleman_sys():
    _, _, sys = builder.carleman()
    return sys


@pytest.fixture(scope="module")
def heat_sys():
    return builder.from_reaction_diffusion(
        builder.ReactionDiffusion(k=1, d=1, diffusion=builder.isotropic_diffusion(1, 1))
    )


class TestGrid:
    def test_spacing(self):
        g = SpatialGrid((8,), (2.0,))
        assert g.h == (0.25,)
        assert g.cell_volume == 0.25

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            SpatialGrid((3,), (1.0,))
        with pytest.raises(ValueError):
            SpatialGrid((8,), (-1.0,))

    @pytest.mark.parametrize("length", [np.nan, np.inf])
    def test_rejects_non_finite_lengths(self, length):
        with pytest.raises(ValueError, match=rf"period lengths must be positive and finite, got \({length},\)"):
            SpatialGrid((8,), (length,))

    def test_rejects_non_integral_cell_counts(self):
        with pytest.raises(ValueError, match=r"cell counts must be integers, got \(64.9,\)"):
            SpatialGrid((64.9,), (1.0,))
        with pytest.raises(ValueError, match="cell counts must be integers"):
            SpatialGrid((64, np.float64(32.5)), (1.0, 1.0))
        for ns in ((64.0,), (np.int64(64),), (np.float64(64.0),)):
            grid = SpatialGrid(ns, (1.0,))
            assert grid.ns == (64,) and type(grid.ns[0]) is int

    def test_spectral_gradient_of_sine(self, grid64):
        x = grid64.axis_centers(0)
        f = np.sin(TWO_PI * x)[None]
        df = spectral_gradient(grid64, f)
        assert np.allclose(df[0, 0], TWO_PI * np.cos(TWO_PI * x), atol=1e-10)

    @pytest.mark.parametrize("ns", [(16,), (15,), (256,), (8, 6), (7, 9), (8, 7), (9, 8), (128, 128)])
    def test_spectral_gradient_matches_full_fft(self, ns):
        grid = SpatialGrid(ns, (1.0, 2.0)[:len(ns)])
        fields = np.random.default_rng(sum(ns)).normal(size=(2,) + ns)
        want = fft_gradient(grid, fields)
        got = spectral_gradient(grid, fields)
        assert got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("ns", [(16,), (15,), (8, 6), (7, 9), (8, 7)])
    def test_parseval_weights(self, ns):
        grid = SpatialGrid(ns, (1.0,) * len(ns))
        fields = np.random.default_rng(len(ns)).normal(size=(3,) + ns)
        weighted = np.sum(parseval_weights(grid) * np.abs(to_modes(grid, fields)) ** 2)
        assert weighted == pytest.approx(grid.cell_count * np.sum(fields ** 2), rel=1e-13)


class TestPrincipalSymbol:
    def test_carleman_unit_xi(self, carleman_sys):
        # off-diagonals -i, coefficient matrix [[0,1],[1,0]]
        sym = rb.principal_symbol(carleman_sys, [0.3], [1.0])
        assert np.allclose(sym, -1j * np.array([[0, 1], [1, 0]]))
        eigs = np.linalg.eigvals(1j * sym)
        assert np.allclose(sorted(eigs.real), [-1.0, 1.0], atol=1e-12)
        assert np.max(np.abs(eigs.imag)) < 1e-12

    def test_zero_wave_vector_gives_zero(self, carleman_sys, heat_sys):
        for sys in (carleman_sys, heat_sys):
            assert np.allclose(rb.principal_symbol(sys, [0.1], [0.0]), 0.0)

    def test_sqrt_symbol_system(self):
        # -i times the transport symbol [[0, -i B], [i B, 0]], B(2 pi) = 2 pi
        target = builder.ReactionDiffusion(k=1, d=1, diffusion=builder.isotropic_diffusion(1, 1))
        sys = builder.from_sqrt_symbol(target)
        sym = rb.principal_symbol(sys, [0.0], [TWO_PI])
        assert np.allclose(sym, [[0.0, -TWO_PI], [TWO_PI, 0.0]], atol=1e-12)

    @given(a=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
    def test_linear_in_xi(self, a):
        _, _, sys = builder.carleman()
        base = rb.principal_symbol(sys, [0.2], [1.3])
        scaled = rb.principal_symbol(sys, [0.2], [1.3 * a])
        assert np.allclose(scaled, a * base, atol=1e-12)

    def test_builder_output_conserved_block_zero(self, heat_sys, grid64):
        for xi in ([1.0], [-1.0], [2.5]):
            sym = rb.principal_symbol(heat_sys, [0.4], xi)
            assert np.max(np.abs(sym[:1, :1])) == 0.0


class TestTransportTable:
    """transport_blocks is the one block placement; the grid flux scales it per block."""

    @pytest.fixture(scope="class")
    def case(self):
        grid = SpatialGrid((6, 5), (1.0, 2.0))
        return four_block_2d(), grid, grid.flat_points()

    def test_blocks_match_hand_placement(self, case):
        sys, _, x = case
        hand = np.zeros((2, 3, 3, x.shape[1]))
        for j in range(2):
            hand[j, :1, :1] = sys.m11[j](x)
            hand[j, :1, 1:] = sys.m12[j](x)
            hand[j, 1:, :1] = sys.m21[j](x)
            hand[j, 1:, 1:] = sys.m22[j](x)
        assert np.array_equal(transport_blocks(sys, x), hand)

    def test_grid_transport_matches_hand_scaling(self, case):
        sys, grid, x = case
        eps = 0.1
        ws = _Workspace(sys, grid, eps, SolverOptions(flux="rusanov"))
        for j in range(2):
            hand = np.zeros((3, 3, x.shape[1]))
            hand[:1, :1] = sys.m11[j](x) / eps
            hand[:1, 1:] = sys.m12[j](x)
            hand[1:, :1] = sys.m21[j](x) / eps ** 2
            hand[1:, 1:] = sys.m22[j](x) / eps
            assert np.array_equal(ws.cmat[j], hand.reshape((3, 3) + grid.ns))

    def test_each_field_called_once_per_sweep(self, case):
        sys, grid, _ = case
        calls = []

        def m12(x):
            calls.append(1)
            return sys.m12[0](x)

        counted = replace(sys, m12=(m12, sys.m12[1]))
        syms = principal_symbols(counted, grid.sample_points(16), unit_directions(2))
        assert len(calls) == 1
        assert np.array_equal(syms, principal_symbols(sys, grid.sample_points(16), unit_directions(2)))


class TestLimitGenerator:
    def test_heat_generator(self, heat_sys):
        g = rb.limit_generator(heat_sys, [0.0], [0.0], [TWO_PI])
        assert np.allclose(g, -TWO_PI ** 2, rtol=1e-14)

    def test_carleman_generator(self, carleman_sys):
        # Qnu = -2 rho, M12 = M21 = 1 gives -xi^2 / (2 rho)
        for rho in (0.5, 0.75, 1.5):
            g = rb.limit_generator(carleman_sys, [0.1], [rho], [TWO_PI])
            assert np.allclose(g, -TWO_PI ** 2 / (2 * rho), rtol=1e-12)

    def test_zero_xi(self, carleman_sys):
        assert np.allclose(rb.limit_generator(carleman_sys, [0.1], [1.0], [0.0]), 0.0)

    def test_singular_source_reported(self):
        _, _, sys = builder.carleman()
        with pytest.raises(SingularSourceError) as err:
            rb.limit_generator(sys, [0.1], [0.0], [1.0])  # Qnu = 0 at rho = 0
        assert err.value.smallest_singular_value == pytest.approx(0.0, abs=1e-12)


class TestRelaxationSystem:
    @pytest.mark.parametrize("name, field, value, message", [
        ("heat1d", "q_nu", -np.eye(2), r"q_nu block has shape \(2, 2\), expected \(1, 1\)"),
        ("heat1d", "m22", (np.zeros((2, 2)),), r"m22 block has shape \(2, 2\), expected \(1, 1\)"),
        ("heat1d", "m11", (np.zeros((1, 2)),), r"m11 block has shape \(1, 2\), expected \(1, 1\)"),
        ("heat1d", "m22", (np.zeros((1, 1)),) * 2, "m22 must provide one field per axis"),
        ("sqrt-heat", "q_nu", -np.eye(2), r"q_nu block has shape \(2, 2\), expected \(1, 1\)"),
    ], ids=["q_nu", "m22", "m11", "m22-per-axis", "multiplier-q_nu"])
    def test_wrongly_shaped_constant_fields_are_refused(self, grid64, name, field, value, message):
        sys = builder.demo(name, grid64).system
        with pytest.raises(ValueError, match=message):
            replace(sys, **{field: value})

    def test_stiff_source_defaults_to_q_nu_at_zero_times_z(self, grid64):
        # quasilinear-bu2 states none: its source is -B(u)^-1 z from q_nu, and follows a replaced q_nu
        sys = builder.demo("quasilinear-bu2", grid64).system
        assert sys.q is None
        x, u, z = np.zeros((1, 3)), np.array([[-0.5, 0.0, 0.9]]), np.array([[1.0, -2.0, 0.5]])
        assert np.allclose(sys.stiff_source(x, u, z), -z / (1.0 + u ** 2), rtol=1e-15, atol=0.0)
        doubled = replace(sys, q_nu=lambda x, u, z: -2.0 * np.ones((1, 1, z.shape[-1])))
        assert np.array_equal(doubled.stiff_source(x, u, z), -2.0 * z)
        with pytest.raises(ValueError, match="systems must carry q_nu"):
            replace(sys, q_nu=None)


class TestStiffJacobian:
    def test_linear_source_constant(self):
        sys = builder.from_reaction_diffusion(
            builder.ReactionDiffusion(k=1, d=1, diffusion=builder.isotropic_diffusion(1, 1))
        )
        for u, v in ((0.0, 0.0), (2.0, -3.0)):
            assert np.allclose(rb.stiff_jacobian(sys, [0.1], [u], [v]), [[-1.0]])

    def test_carleman_value(self, carleman_sys):
        assert np.allclose(rb.stiff_jacobian(carleman_sys, [0.0], [0.75], [0.3]), [[-1.5]])

    @given(
        rho=st.floats(min_value=0.4, max_value=1.6),
        z=st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_matches_central_difference(self, rho, z):
        _, _, sys = builder.carleman()
        step = 1e-5
        qp = sys.stiff_source(np.array([[0.1]]), np.array([[rho]]), np.array([[z + step]]))
        qm = sys.stiff_source(np.array([[0.1]]), np.array([[rho]]), np.array([[z - step]]))
        fd = (qp - qm) / (2 * step)
        jac = rb.stiff_jacobian(sys, [0.1], [rho], [z])
        assert np.allclose(jac, fd, rtol=1e-6, atol=1e-9)


class TestFieldState:
    def test_shape_validation(self, grid64):
        with pytest.raises(ValueError):
            FieldState(grid64, np.zeros((1, 65)), np.zeros((1, 64)), 0.0, 0.1)

    def test_rejects_non_finite(self, grid64):
        bad = np.zeros((1, 64))
        bad[0, 3] = np.nan
        with pytest.raises(ValueError):
            FieldState(grid64, bad, np.zeros((1, 64)), 0.0, 0.1)

    def test_rejects_nonpositive_eps(self, grid64):
        with pytest.raises(ValueError):
            FieldState(grid64, np.zeros((1, 64)), np.zeros((1, 64)), 0.0, 0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_rejects_non_finite_eps(self, grid64, eps):
        with pytest.raises(ValueError, match=f"eps must be positive and finite, got {eps}"):
            FieldState(grid64, np.zeros((1, 64)), np.zeros((1, 64)), 0.0, eps)


class TestEquilibrium:
    def test_heat_preparation_is_minus_gradient(self, heat_sys, grid128):
        x = grid128.axis_centers(0)
        u = np.sin(TWO_PI * x)[None]
        v = equilibrium_uII(heat_sys, grid128, u)
        assert np.allclose(v[0], -TWO_PI * np.cos(TWO_PI * x), atol=1e-10)

    def test_carleman_preparation(self, carleman_sys, grid128):
        x = grid128.axis_centers(0)
        rho = (1.0 + 0.5 * np.sin(TWO_PI * x))[None]
        m = equilibrium_uII(carleman_sys, grid128, rho)
        expected = -np.pi * np.cos(TWO_PI * x) / (2.0 * (1.0 + 0.5 * np.sin(TWO_PI * x)))
        assert np.allclose(m[0], expected, atol=1e-9)


class TestModePrimitives:
    """apply_modes and solve_points against their plain NumPy formulation; eig_factors' bound."""

    @staticmethod
    def _check_apply_modes(ns, rows, cols):
        # the fftn / @ / ifftn formulation on the full spectrum, real part: apply_modes must match it to round-off
        grid = SpatialGrid(ns, (1.0,) * len(ns))
        rng = np.random.default_rng(len(ns) + 10 * rows + cols)
        table = rng.normal(size=ns + (rows, cols)) + 1j * rng.normal(size=ns + (rows, cols))
        fields = rng.normal(size=(cols,) + ns)
        spax = tuple(range(1, 1 + grid.d))
        fhat = np.moveaxis(np.fft.fftn(fields, axes=spax), 0, -1)[..., None]
        want = np.fft.ifftn(np.moveaxis((table @ fhat)[..., 0], -1, 0), axes=spax).real
        got = apply_modes(grid, mode_table(grid, table), fields)
        assert got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("ns", [(16,), (8, 6), (15,), (8, 7), (7, 9)])  # even and odd last axes
    def test_apply_modes_matches_moveaxis(self, ns):
        for rows, cols in ((2, 2), (1, 1), (3, 3), (3, 2)):
            self._check_apply_modes(ns, rows, cols)

    def test_apply_modes_matches_moveaxis_on_larger_2d_grids(self):
        self._check_apply_modes((128, 128), 1, 1)
        self._check_apply_modes((32, 40), 3, 3)

    def test_apply_modes_matches_moveaxis_at_the_ladder_shape(self):
        self._check_apply_modes((256,), 2, 2)

    @pytest.mark.parametrize("ns", [(16,), (15,), (8, 6), (8, 7)])
    def test_mode_table_keeps_the_half_spectrum(self, ns):
        grid = SpatialGrid(ns, (1.0,) * len(ns))
        stack = np.random.default_rng(4).normal(size=(grid.cell_count, 3, 2))
        table = mode_table(grid, stack)
        assert table.shape == (3, 2) + ns[:-1] + (ns[-1] // 2 + 1,)
        assert table.dtype == complex and table.flags.c_contiguous

    def test_apply_modes_writes_into_out_from_its_own_fields(self):
        grid = SpatialGrid((16,), (1.0,))
        rng = np.random.default_rng(7)
        table = mode_table(grid, rng.normal(size=(16, 2, 2)) + 1j * rng.normal(size=(16, 2, 2)))
        fields = rng.normal(size=(2, 16))
        want = apply_modes(grid, table, fields)
        assert apply_modes(grid, table, fields, out=fields) is fields
        assert fields.tobytes() == want.tobytes()

    def test_solve_points_matches_moveaxis(self):
        rng = np.random.default_rng(5)
        mats = rng.normal(size=(2, 2, 40)) + 3.0 * np.eye(2)[:, :, None]
        rhs = rng.normal(size=(2, 40))
        sol = np.linalg.solve(np.moveaxis(mats, -1, 0), np.moveaxis(rhs, -1, 0)[..., None])
        assert np.array_equal(solve_points(mats, rhs), np.moveaxis(sol[..., 0], 0, -1))

    def test_solve_points_one_by_one_is_lapack_bit_for_bit(self):
        # m = 1 is a division; it must give LAPACK's 1 x 1 solve exactly, over +-8 decades
        rng = np.random.default_rng(6)
        count = 20000
        mats = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-8, 8, count)
        rhs = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-8, 8, count)
        want = np.linalg.solve(mats.reshape(count, 1, 1), rhs.reshape(count, 1, 1))
        got = solve_points(mats.reshape(1, 1, count), rhs.reshape(1, count))
        assert got.shape == (1, count)
        assert np.array_equal(got[0], want[:, 0, 0])

    def test_solve_points_one_by_one_refuses_a_zero_pivot(self):
        mats = np.array([[[2.0, 0.0, 1.0]]])
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            solve_points(mats, np.ones((1, 3)))

    @staticmethod
    def _lapack(mats, rhs):
        return np.linalg.solve(mats.transpose(2, 0, 1), rhs.T[..., None])[..., 0].T

    @staticmethod
    def _diagonal_stack(rng, m, count):
        signed = lambda shape: rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)
        mats = np.zeros((m, m, count))
        mats[range(m), range(m)] = signed((m, count))
        return mats, signed((m, count))

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("broadcast", [False, True], ids=["full", "stride0"])
    def test_solve_points_diagonal_is_lapack_bit_for_bit(self, m, broadcast):
        # a diagonal stack goes to LAPACK like any other: its bits and point-major layout, over +-8 decades
        mats, rhs = self._diagonal_stack(np.random.default_rng(7 + m), m, 20000)
        rhs[:, ::5] = 0.0  # +0.0 right-hand sides keep their bits too
        if broadcast:
            mats = np.broadcast_to(mats[:, :, :1], mats.shape)
        want, got = self._lapack(mats, rhs), solve_points(mats, rhs)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert got.strides == want.strides  # point-major, as LAPACK returns it

    def test_solve_points_diagonal_refuses_a_zero_pivot(self):
        mats = np.zeros((2, 2, 3))
        mats[0, 0], mats[1, 1] = 1.0, [2.0, 0.0, 1.0]
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            solve_points(mats, np.ones((2, 3)))

    @pytest.mark.parametrize("case", ["off_diagonal", "negative_zero"])
    def test_solve_points_nearly_diagonal_matches_lapack(self, case):
        # one nonzero off-diagonal entry, or a -0.0 in rhs (whose sign LAPACK may flip): LAPACK's solve
        mats, rhs = self._diagonal_stack(np.random.default_rng(9), 2, 200)
        if case == "off_diagonal":
            mats[0, 1, 17] = 0.5 * mats[0, 0, 17]
        else:
            rhs[:, ::3] = -0.0
        want, got = self._lapack(mats, rhs), solve_points(mats, rhs)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_eig_factors_refuses_a_defective_matrix(self):
        jordan = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(np.linalg.LinAlgError, match="not diagonalizable"):
            eig_factors(jordan)

    def test_eig_factors_keeps_a_non_normal_diagonalizable_matrix(self):
        # C = [[0, 1], [1/eps^2, 0]] at eps = 1e-3: eigenvector condition number ~1e3
        mats = np.array([[0.0, 1.0], [1e6, 0.0]])
        vals, vecs, vecs_inv = eig_factors(mats)
        assert np.allclose(eig_function(vecs, vals, vecs_inv).real, mats)
