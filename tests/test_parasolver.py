import functools
import re
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import relaxbench as rb
from relaxbench import builder, diagnostics, parasolver
from relaxbench.builder import QuasilinearDivergence, ReactionDiffusion, isotropic_diffusion
from relaxbench.core import l2_norm
from relaxbench.parasolver import ReferenceError, exact_mode_oracle, run_reference

from conftest import sine_mode

TWO_PI = 2.0 * np.pi
LADDER_T = 0.1  # the acceptance ladders' horizon


class TestModeOracle:
    def test_parabolic_factor_at_zero_time(self):
        assert exact_mode_oracle(1.0, [TWO_PI], 0.0) == pytest.approx(1.0)

    def test_parabolic_factor_heat(self):
        fac = exact_mode_oracle(1.0, [TWO_PI], 0.1)
        assert fac == pytest.approx(np.exp(-4 * np.pi ** 2 * 0.1), rel=1e-14)

    def test_roots_quadratic_formula(self):
        orc = exact_mode_oracle(1.0, [TWO_PI], 0.1, eps=0.05)
        disc = np.sqrt(1.0 - 4 * 0.05 ** 2 * TWO_PI ** 2)
        assert orc.lambda_slow == pytest.approx((-1 + disc) / (2 * 0.05 ** 2), rel=1e-14)
        assert orc.lambda_fast == pytest.approx((-1 - disc) / (2 * 0.05 ** 2), rel=1e-14)
        # quoted figures from the quadratic formula
        assert orc.lambda_slow.real == pytest.approx(-44.4086, abs=5e-3)
        assert orc.lambda_fast.real == pytest.approx(-355.59, abs=5e-2)

    def test_slow_root_continuity_to_parabolic_rate(self):
        lam = exact_mode_oracle(1.0, [TWO_PI], 0.0, eps=1e-5).lambda_slow
        assert lam.real == pytest.approx(-TWO_PI ** 2, rel=1e-6)
        assert lam.imag == 0.0

    def test_evolution_satisfies_ode(self):
        orc = exact_mode_oracle(1.0, [TWO_PI], 0.0, eps=0.05)
        u0, v0 = 1.0, -1j * TWO_PI
        h = 1e-6
        up, vp = orc.evolve(u0, v0, 0.01 + h)
        um, vm = orc.evolve(u0, v0, 0.01 - h)
        u, v = orc.evolve(u0, v0, 0.01)
        assert (up - um) / (2 * h) == pytest.approx(-1j * TWO_PI * v, rel=1e-7)
        assert (vp - vm) / (2 * h) == pytest.approx(
            (-1j * TWO_PI * u - v) / 0.05 ** 2, rel=1e-6
        )

    def test_matrix_diffusion_contraction(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        xi = np.array([0.6, 0.8])
        fac = exact_mode_oracle(a, xi, 1.0)
        assert fac == pytest.approx(np.exp(-float(xi @ a @ xi)), rel=1e-12)

    def test_ladder_errors_pinned(self):
        # the acceptance heat ladder: T = 0.1, 11 comparison times, eps 0.2 -> 0.025
        times = np.linspace(0.0, 0.1, 11)
        got = parasolver.oracle_ladder_errors(times, (0.2, 0.1, 0.05, 0.025))
        assert got == [0.10035114129003889, 0.023900085893376912,
                       0.0056517722390511411, 0.0013868901857918684]


class TestSpectralReference:
    def test_heat_amplitude(self, grid256):
        tgt = ReactionDiffusion(k=1, d=1, diffusion=isotropic_diffusion(1, 1))
        _, fields = run_reference(tgt, sine_mode(grid256), grid256, 0.1, dt=1e-4)
        amp = np.abs(np.fft.fft(fields[-1][0]))[1] * 2 / 256
        assert amp == pytest.approx(np.exp(-4 * np.pi ** 2 * 0.1), rel=1e-12)

    def test_matches_oracle_mode_by_mode(self, grid256):
        tgt = ReactionDiffusion(k=1, d=1, diffusion=isotropic_diffusion(1, 1))
        x = grid256.axis_centers(0)
        u0 = (np.sin(TWO_PI * x) + 0.3 * np.cos(2 * TWO_PI * x))[None]
        _, fields = run_reference(tgt, u0, grid256, 0.1, dt=1e-4)
        fh0 = np.fft.fft(u0[0])
        fhT = np.fft.fft(fields[-1][0])
        for mode in (1, 2):
            fac = exact_mode_oracle(1.0, [TWO_PI * mode], 0.1)
            assert abs(fhT[mode]) / abs(fh0[mode]) == pytest.approx(fac, rel=1e-8)

    def test_constant_state_with_zero_reaction(self, grid64):
        tgt = ReactionDiffusion(k=1, d=1, diffusion=isotropic_diffusion(1, 1))
        u0 = np.full((1, 64), 0.8)
        _, fields = run_reference(tgt, u0, grid64, 0.3, dt=1e-3)
        assert np.allclose(fields[-1], 0.8, atol=1e-13)

    def test_explicit_reaction_logistic(self, grid64):
        # pure reaction (zero mode): compare against the logistic flow
        tgt = ReactionDiffusion(
            k=1, d=1, diffusion=isotropic_diffusion(1, 1), f=lambda u: u * (1 - u)
        )
        u0 = np.full((1, 64), 0.25)
        _, fields = run_reference(tgt, u0, grid64, 0.5, dt=1e-5)
        exact = 0.25 * np.exp(0.5) / (1 + 0.25 * (np.exp(0.5) - 1))
        assert fields[-1][0, 0] == pytest.approx(exact, rel=1e-4)


EXACT_DEMOS = [("heat2d", (128, 128)), ("aniso2d", (8, 12)), ("heat1d", (256,)), ("sqrt-heat", (32,))]


def _count_steps(monkeypatch, cls):
    """The dt of every later cls.step call, in order."""
    calls, step = [], cls.step

    def counted(self, u, dt):
        calls.append(dt)
        return step(self, u, dt)
    monkeypatch.setattr(cls, "step", counted)
    return calls


class TestExactReference:
    """A reaction-free target with constant diffusion takes one exact step per output span."""

    @pytest.mark.parametrize("name, ns", EXACT_DEMOS)
    def test_matches_sub_stepped_propagation(self, name, ns):
        grid = rb.SpatialGrid(ns, (1.0,) * len(ns))
        bundle = builder.demo(name, grid)
        u0, T = bundle.u0(grid), 0.02
        times, fields = run_reference(bundle.target, u0, grid, T, snapshot_times=np.linspace(0, T, 11))
        stepper, u = parasolver._LinearRD(bundle.target, grid), u0
        for s in range(1, 11):  # each span in 100 steps: T / 1000 as run_reference sub-stepped it
            for _ in range(100):
                u = stepper.step(u, (times[s] - times[s - 1]) / 100)
            assert np.max(np.abs(fields[s] - u)) <= 1e-12 * np.max(np.abs(u0))

    @pytest.mark.parametrize("name, ns", EXACT_DEMOS)
    def test_every_mode_decays_by_its_symbol(self, name, ns):
        grid = rb.SpatialGrid(ns, (1.0,) * len(ns))
        target = builder.demo(name, grid).target
        rng = np.random.default_rng(7)
        low = np.zeros(ns, dtype=complex)
        low[tuple(slice(0, 4) for _ in ns)] = rng.standard_normal((4,) * len(ns)) + 1j
        u0 = np.fft.ifftn(low).real[None] * grid.cell_count
        T = 0.005
        _, fields = run_reference(target, u0, grid, T)
        fh0, fhT = np.fft.fftn(u0[0]), np.fft.fftn(fields[-1][0])
        kappa = grid.wavenumbers()
        for idx in np.ndindex((4,) * len(ns)):
            want = exact_mode_oracle(target.diffusion, kappa[(slice(None),) + idx], T)
            assert fhT[idx] / fh0[idx] == pytest.approx(want, rel=1e-12)

    def test_one_step_per_span_whatever_dt(self, grid64, monkeypatch):
        calls = _count_steps(monkeypatch, parasolver._LinearRD)
        target = builder.demo("heat1d", grid64).target
        run_reference(target, sine_mode(grid64), grid64, 0.01, dt=1e-5, snapshot_times=[0.0025, 0.005])
        assert calls == pytest.approx([0.0025, 0.0025, 0.005], rel=1e-12)

    @pytest.mark.parametrize("kind", ["reaction", "callable diffusion"])
    def test_other_targets_still_sub_step(self, grid64, monkeypatch, kind):
        if kind == "reaction":
            target = ReactionDiffusion(k=1, d=1, diffusion=isotropic_diffusion(1, 1), f=lambda u: u * (1 - u))
        else:
            target = ReactionDiffusion(k=1, d=1, diffusion=lambda x: np.ones((1, 1, 1, 1, x.shape[-1])))
        calls = _count_steps(monkeypatch, parasolver._LinearRD)
        run_reference(target, sine_mode(grid64), grid64, 0.01, dt=1e-3, snapshot_times=[0.0025, 0.005])
        assert len(calls) == 3 + 3 + 5  # ceil(span / dt) per span

    def test_distinct_spans_keep_no_table(self):
        # spans from subtracting accumulated floats differ by an ulp; none may leave a memo behind
        grid = rb.SpatialGrid((64, 64), (1.0, 1.0))
        target = builder.demo("heat2d", grid).target
        stepper, u = parasolver._LinearRD(target, grid), sine_mode(grid)
        spans = [1e-4]
        while len(spans) < 200:
            spans.append(np.nextafter(spans[-1], 1.0))
        stepper.step(u, spans[0])
        tracemalloc.start()
        try:
            for span in spans:
                stepper.step(u, span)
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        table = grid.cell_count * np.dtype(complex).itemsize  # 64 KiB, one per span if memoised
        assert grown < 2 * table


class TestImplicitReference:
    def test_variable_coefficient_matches_constant_on_overlap(self, grid128):
        # a variable-coefficient run with constant data must match the
        # constant-coefficient spectral path
        const = ReactionDiffusion(k=1, d=1, diffusion=isotropic_diffusion(1, 1))

        def coeff(x):
            return np.ones(x.shape[-1]).reshape(1, 1, 1, 1, -1)

        vary = ReactionDiffusion(k=1, d=1, diffusion=coeff)
        u0 = sine_mode(grid128)
        _, f1 = run_reference(const, u0, grid128, 0.02, dt=1e-5)
        _, f2 = run_reference(vary, u0, grid128, 0.02, dt=1e-5)
        assert l2_norm(f1[-1] - f2[-1], grid128) < 5e-4

    def test_self_convergence_second_order(self):
        def coeff(x):
            return (1.0 + 0.5 * np.sin(TWO_PI * x[0])).reshape(1, 1, 1, 1, -1)

        vary = ReactionDiffusion(k=1, d=1, diffusion=coeff)
        errs = []
        for n in (32, 64, 128):
            gc = rb.SpatialGrid((n,), (1.0,))
            gf = rb.SpatialGrid((2 * n,), (1.0,))
            _, fc = run_reference(vary, sine_mode(gc), gc, 0.02, dt=1e-4)
            _, ff = run_reference(vary, sine_mode(gf), gf, 0.02, dt=1e-4)
            restrict = 0.5 * (ff[-1][0][0::2] + ff[-1][0][1::2])
            errs.append(l2_norm((fc[-1][0] - restrict)[None], gc))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9


class TestQuasilinearReference:
    def test_mass_conserved(self, grid128):
        ql = builder.carleman_limit_target()
        rho0 = sine_mode(grid128, amplitude=0.5, offset=1.0)
        _, fields = run_reference(ql, rho0, grid128, 0.1, dt=2.5e-4)
        m0 = np.sum(rho0) * grid128.cell_volume
        mT = np.sum(fields[-1]) * grid128.cell_volume
        assert abs(mT - m0) <= 1e-12 * abs(m0)

    def test_self_convergence_second_order(self):
        ql = builder.carleman_limit_target()
        errs = []
        for n in (32, 64, 128):
            gc = rb.SpatialGrid((n,), (1.0,))
            gf = rb.SpatialGrid((2 * n,), (1.0,))
            _, fc = run_reference(ql, sine_mode(gc, 0.5, 1.0), gc, 0.02, dt=1e-4)
            _, ff = run_reference(ql, sine_mode(gf, 0.5, 1.0), gf, 0.02, dt=1e-4)
            restrict = 0.5 * (ff[-1][0][0::2] + ff[-1][0][1::2])
            errs.append(l2_norm((fc[-1][0] - restrict)[None], gc))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_carleman_limit_matches_log_diffusion(self, grid128):
        # d/dt rho = ((1/(2 rho)) rho_x)_x is one half the second derivative
        # of log(rho); check the instantaneous rate at t = 0
        ql = builder.carleman_limit_target()
        rho0 = sine_mode(grid128, amplitude=0.3, offset=1.0)
        dt = 1e-6
        _, fields = run_reference(ql, rho0, grid128, dt, dt=dt)
        rate = (fields[-1] - rho0) / dt
        from relaxbench.core import spectral_gradient

        logr = np.log(rho0)
        want = 0.5 * spectral_gradient(grid128, spectral_gradient(grid128, logr)[0])[0]
        assert l2_norm(rate - want, grid128) < 5e-3

    def test_snapshot_times_landed(self, grid64):
        ql = builder.carleman_limit_target()
        times, fields = run_reference(
            ql, sine_mode(grid64, 0.3, 1.0), grid64, 0.01,
            dt=1e-4, snapshot_times=[0.004, 0.008],
        )
        assert np.allclose(times, [0.0, 0.004, 0.008, 0.01])
        assert fields.shape[0] == 4


@functools.cache
def _ladder_reference(name, n, steps):
    """A demo's reference at the carleman ladder's 11 comparison times, with step T / steps."""
    grid = rb.SpatialGrid((n,), (1.0,))
    bundle = builder.demo(name, grid)
    times = np.linspace(0.0, LADDER_T, diagnostics.LADDER_SNAPSHOTS)
    _, fields = run_reference(bundle.target, bundle.u0(grid), grid, LADDER_T, dt=LADDER_T / steps,
                              snapshot_times=times)
    return times, fields, grid


def _step_distance(name, n, coarse, fine):
    times, coarse_fields, grid = _ladder_reference(name, n, coarse)
    return diagnostics.space_time_error(times, coarse_fields, _ladder_reference(name, n, fine)[1], grid)


class TestSecondOrderReference:
    """The quasilinear reference is second order in time, so the ladder's step is converged."""

    def test_ladder_step_agrees_with_a_quarter_of_it(self):
        steps = diagnostics.LADDER_REFERENCE_STEPS
        assert _step_distance("carleman", 256, steps, 4 * steps) <= 1e-7

    @pytest.mark.parametrize("name, n", [("carleman", 256), ("quasilinear-bu2", 128)])
    def test_observed_time_order(self, name, n):
        order = np.log2(_step_distance(name, n, 250, 500) / _step_distance(name, n, 500, 1000))
        assert order >= 1.9


def _dense_differences(grid, axis):
    """Dense periodic central (D1) and forward (D+) differences along one axis."""
    m = grid.cell_count
    multi = np.array(np.unravel_index(np.arange(m), grid.ns))

    def neighbour(step):
        moved = multi.copy()
        moved[axis] = (moved[axis] + step) % grid.ns[axis]
        return np.ravel_multi_index(tuple(moved), grid.ns)

    h, rows = grid.h[axis], np.arange(m)
    d1, dplus = np.zeros((m, m)), np.zeros((m, m))
    np.add.at(d1, (rows, neighbour(1)), 1.0 / (2 * h))
    np.add.at(d1, (rows, neighbour(-1)), -1.0 / (2 * h))
    np.add.at(dplus, (rows, neighbour(1)), 1.0 / h)
    np.add.at(dplus, (rows, rows), -1.0 / h)
    return d1, dplus, neighbour(1)


def _dense_operator(grid, blocks, divergence=True):
    """sum_ij d_i(B_ij d_j .) (or sum_ij B_ij d_i d_j) as one dense matrix."""
    d, k, m = grid.d, blocks.shape[2], grid.cell_count
    diffs = [_dense_differences(grid, i) for i in range(d)]
    out = np.zeros((k * m, k * m))
    for i, j, a, b in np.ndindex(d, d, k, k):
        c = blocks[i, j, a, b]
        d1, dplus, nxt = diffs[i]
        if divergence and i == j:
            term = -dplus.T @ np.diag(0.5 * (c + c[nxt])) @ dplus
        elif divergence:
            term = d1 @ np.diag(c) @ diffs[j][0]
        else:
            term = np.diag(c) @ (-dplus.T @ dplus if i == j else d1 @ diffs[j][0])
        out[a * m:(a + 1) * m, b * m:(b + 1) * m] += term
    return out


def _dense_picard_step(target, grid, u, dt):
    """One Crank-Nicolson step with coefficients lagged at the midpoint, by dense solves."""
    k, m = target.k, grid.cell_count
    start = u.reshape(-1)
    guess = start
    for _ in range(parasolver.PICARD_MAXITER):
        mid = 0.5 * (start + guess).reshape(k, -1)
        half = 0.5 * dt * _dense_operator(grid, target.diffusion(mid))
        rhs = start + half @ start
        if target.flux is not None:
            fl = target.flux(mid)
            for i in range(grid.d):
                rhs -= dt * (_dense_differences(grid, i)[0] @ fl[i].T).T.reshape(-1)
        if target.g is not None:
            rhs += dt * target.g(mid).reshape(-1)
        new = np.linalg.solve(np.eye(k * m) - half, rhs)
        if np.max(np.abs(new - guess)) <= parasolver.PICARD_TOL:
            return new.reshape(u.shape)
        guess = new
    raise AssertionError("dense Picard loop did not converge")


def _coupled_diffusion(zero_block=None):
    """k=2, d=2 blocks with cross (i != j) and component (a != b) coupling."""
    weights = np.random.default_rng(7).normal(size=(2, 2, 2, 2, 3))

    def diffusion(u):
        feats = np.stack([np.ones(u.shape[-1]), u[0], u[1] ** 2])
        out = np.einsum("ijabq,qm->ijabm", weights, feats)
        if zero_block is not None:
            out[zero_block] = 0.0
        return out

    return diffusion


def _constant_diffusion(blocks):
    """Diffusion (d, d, k, k, M) equal to the blocks (d, d, k, k) on every cell."""
    blocks = np.asarray(blocks, dtype=float)
    return lambda u: np.broadcast_to(blocks[..., None], blocks.shape + (u.shape[-1],))


def _variable_diffusion(d):
    """Scalar SPD diffusion x (d, M) -> (d, d, 1, 1, M), with a cross term in 2-d."""
    def diffusion(x):
        out = np.zeros((d, d, 1, 1, x.shape[-1]))
        for j in range(d):
            out[j, j, 0, 0] = 1.0 + 0.5 * np.sin(TWO_PI * x[0]) + 0.2 * j
        if d == 2:
            out[0, 1, 0, 0] = out[1, 0, 0, 0] = 0.3 * np.cos(TWO_PI * x[1])
        return out

    return diffusion


class TestBlockAssembly:
    @pytest.mark.parametrize("divergence", [True, False])
    @pytest.mark.parametrize("zero_block", [None, (0, 1, 1, 0), (1, 1, 0, 0)])
    def test_matches_dense_assembly(self, divergence, zero_block):
        grid = rb.SpatialGrid((6, 10), (1.0, 2.5))
        u = np.random.default_rng(3).uniform(0.5, 1.5, size=(2, grid.cell_count))
        blocks = _coupled_diffusion(zero_block)(u)
        op = parasolver._BlockOperator(grid, 2, divergence=divergence)
        got = np.eye(2 * grid.cell_count) - op.backward_euler(blocks, 1.0).toarray()
        want = _dense_operator(grid, blocks, divergence)
        assert np.max(np.abs(want)) > 0
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestLinearStep:
    @pytest.mark.parametrize("ns", [(32,), (8, 6)])  # periodic tridiagonal and SuperLU paths
    def test_variable_coefficient_step_matches_dense_backward_euler(self, ns):
        grid = rb.SpatialGrid(ns, (1.0,) * len(ns))
        diffusion = _variable_diffusion(grid.d)
        target = ReactionDiffusion(k=1, d=grid.d, diffusion=diffusion, f=lambda u: u * (1 - u))
        u, dt = sine_mode(grid, 0.5, 0.3), 1e-2
        got = parasolver._LinearRD(target, grid).step(u, dt)
        dense = _dense_operator(grid, diffusion(grid.flat_points()), divergence=False)
        rhs = (u + dt * u * (1 - u)).reshape(-1)
        want = np.linalg.solve(np.eye(grid.cell_count) - dt * dense, rhs).reshape(u.shape)
        assert np.max(np.abs(got - u)) > 1e-3  # the step moves the state
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_singular_callable_diffusion_raises_reference_error(self):
        # a(x) = (-1/2, 0, 1, 1) on 4 cells with dt / h^2 = 1 zeroes column 0 of I - dt L
        grid = rb.SpatialGrid((4,), (1.0,))
        table = np.array([-0.5, 0.0, 1.0, 1.0])

        def diffusion(x):
            return table[(4 * x[0]).astype(int)].reshape(1, 1, 1, 1, -1)

        target = ReactionDiffusion(k=1, d=1, diffusion=diffusion)
        with pytest.raises(ReferenceError, match="linear solve failed: tridiagonal part is singular") as info:
            parasolver._LinearRD(target, grid).step(np.ones((1, 4)), 1 / 16)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


class TestPicardStep:
    @pytest.mark.parametrize("name", ["carleman", "quasilinear-bu2"])
    def test_one_step_matches_dense_picard(self, grid64, name):
        bundle = builder.demo(name, grid64)
        u = bundle.u0(grid64)
        dt = 1e-3
        got = parasolver._PicardQL(bundle.target, grid64).step(u, dt)
        want = _dense_picard_step(bundle.target, grid64, u, dt)
        assert np.max(np.abs(got - u)) > 1e-3  # the step moves the state
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_singular_system_raises_reference_error(self):
        # backward diffusion b = -1 with dt / h^2 = 1 makes I - (dt/2) L exactly singular
        grid = rb.SpatialGrid((4,), (1.0,))
        target = builder.scalar_quasilinear(b=lambda u: -np.ones_like(u))
        with pytest.raises(ReferenceError, match="linear solve failed") as info:
            run_reference(target, np.ones((1, 4)), grid, 1 / 16, dt=1 / 16)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_scalar_source_step_matches_dense_picard(self, grid64):
        target = builder.scalar_quasilinear(b=lambda u: 1.0 + u ** 2, g=lambda u: 5.0 * u * (1.0 - u))
        u, dt = sine_mode(grid64, 0.5, 0.3), 1e-3
        got = parasolver._PicardQL(target, grid64).step(u, dt)
        no_source = builder.scalar_quasilinear(b=lambda u: 1.0 + u ** 2)
        without_g = parasolver._PicardQL(no_source, grid64).step(u, dt)
        assert np.max(np.abs(got - without_g)) > 1e-4  # the source moves the step
        assert np.max(np.abs(got - _dense_picard_step(target, grid64, u, dt))) <= 1e-12

    # b(u) = u on 4 cells with dt / h^2 = 2: at u = (1, -1, 1, -3) the first sweep's face
    # coefficients are 0 at 1/2 and -1 at -1/2, so column 0 of the tridiagonal part of
    # I - (dt/2) L is exactly zero
    @pytest.mark.parametrize("b, u0, message", [
        (lambda u: u, [1.0, -1.0, 1.0, -3.0], r"tridiagonal part is singular \(dgtsv info = 1\)"),
        (lambda u: 1e308 * u, [1.0, 1.0, 1.0, 1.0], "periodic tridiagonal solution is not finite"),
    ], ids=["zero-pivot", "overflow"])
    def test_cyclic_solve_failure_raises_reference_error(self, b, u0, message):
        grid = rb.SpatialGrid((4,), (1.0,))
        stepper = parasolver._PicardQL(builder.scalar_quasilinear(b=b), grid)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ReferenceError, match="linear solve failed: " + message) as info:
                stepper.step(np.array([u0]), 1 / 8)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_singular_2d_system_raises_reference_error(self):
        # the same construction on a 4 x 4 grid goes through SuperLU, whose last
        # pivot is round-off rather than zero
        grid = rb.SpatialGrid((4, 4), (1.0, 1.0))
        target = QuasilinearDivergence(k=1, d=2, diffusion=_constant_diffusion(-np.eye(2)[:, :, None, None]),
                                       state_box=((-1.0,), (1.0,)))
        with pytest.raises(ReferenceError, match="linear solve failed") as info:
            run_reference(target, sine_mode(grid, offset=1.0), grid, 1 / 16, dt=1 / 16)
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_non_finite_coefficient_names_cell(self, grid64):
        u0 = np.ones((1, 64))
        u0[0, 17] = 0.0
        with np.errstate(divide="ignore"):
            with pytest.raises(ReferenceError) as info:
                run_reference(builder.carleman_limit_target(), u0, grid64, 1e-3, dt=1e-3)
        msg = str(info.value)
        assert "B_11[1,1] is inf at cell 17" in msg
        assert "u = [0.0]" in msg

    def test_non_convergence_reports_last_increment(self, grid64):
        # negative density makes the lagged coefficient 1/(2u) anti-diffusive
        u0 = sine_mode(grid64, amplitude=0.5, offset=0.2)
        with pytest.raises(ReferenceError, match="last max increment") as info:
            run_reference(builder.carleman_limit_target(), u0, grid64, 1e-3, dt=1e-4)
        match = re.search(r"was ([0-9.e+-]+) in component 1 at cell (\d+)", str(info.value))
        assert match is not None
        assert float(match.group(1)) > parasolver.PICARD_TOL
        # where the last max increment lands is round-off luck; the witness named after it is
        # the start state's first cell with u < 0, where B(u) = 1 / (2u) is negative
        start = re.search(r"at the step's start B\(u\) is not positive definite at cell (\d+) "
                          r".*smallest eigenvalue", str(info.value))
        assert start is not None
        assert int(start.group(1)) == np.flatnonzero(u0[0] < 0.0)[0]


def _periodic_tridiagonal(rng, n):
    lower, upper = rng.uniform(-1.0, 1.0, size=(2, n))
    diag = rng.uniform(2.0, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    lower[0], upper[-1] = rng.uniform(0.5, 1.0, size=2) * [1.0, -1.0]  # corners A[0, n-1], A[n-1, 0]
    dense = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    dense[0, -1], dense[-1, 0] = lower[0], upper[-1]
    return lower, diag, upper, dense


class TestCyclicSolve:
    @pytest.mark.parametrize("n", [4, 5, 64])
    def test_matches_dense_solve(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            lower, diag, upper, dense = _periodic_tridiagonal(rng, n)
            rhs = rng.normal(size=n)
            got = parasolver._cyclic_tridiagonal(lower, diag, upper, rhs)
            want = np.linalg.solve(dense, rhs)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_singular_corner_correction_raises(self):
        # the periodic Laplacian stencil (-1, 2, -1) on 4 cells annihilates constants, while its
        # tridiagonal part is regular: the 2 x 2 capacitance determinant is exactly zero
        lower = upper = -np.ones(4)
        with pytest.raises(np.linalg.LinAlgError, match="periodic corner correction is singular"):
            parasolver._cyclic_tridiagonal(lower, np.full(4, 2.0), upper, np.ones(4))

    @pytest.mark.parametrize("n", [3, 5])
    def test_nearly_singular_corner_correction_raises(self, n):
        # the same stencil on 3 or 5 cells: the determinant is round-off (1.1e-16), not zero
        lower = upper = -np.ones(n)
        with pytest.raises(np.linalg.LinAlgError, match="periodic corner correction is singular"):
            parasolver._cyclic_tridiagonal(lower, np.full(n, 2.0), upper, np.ones(n))

    def test_nearly_singular_crank_nicolson_step_raises_reference_error(self):
        # b = -1 makes I - (dt/2) L = I + dt/(2 h^2) (-1, 2, -1), singular on the first Fourier
        # mode at this dt; solving it anyway returned max |u| = 1.2e16
        grid = rb.SpatialGrid((8,), (1.0,))
        h = grid.h[0]
        stepper = parasolver._PicardQL(builder.scalar_quasilinear(b=lambda u: -np.ones_like(u)), grid)
        u0 = 1.0 + 0.3 * np.sin(2.0 * np.pi * grid.points())
        with pytest.raises(ReferenceError, match="periodic corner correction is singular") as info:
            stepper.step(u0, 2.0 * h ** 2 / (4.0 * np.sin(np.pi / 8) ** 2))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    @staticmethod
    def _splu_calls(monkeypatch, target, u0, grid):
        calls = []

        def counted(matrix):
            calls.append(matrix.shape)
            return splu(matrix)

        monkeypatch.setattr(parasolver, "splu", counted)
        run_reference(target, u0, grid, 2e-3, dt=1e-3)
        return len(calls)

    def test_one_dimensional_scalar_reference_factorizes_nothing(self, monkeypatch, grid64):
        ql = builder.carleman_limit_target()
        assert self._splu_calls(monkeypatch, ql, sine_mode(grid64, 0.5, 1.0), grid64) == 0
        rd = ReactionDiffusion(k=1, d=1, diffusion=_variable_diffusion(1), f=lambda u: -u)
        assert self._splu_calls(monkeypatch, rd, sine_mode(grid64), grid64) == 0

    def test_other_references_still_factorize(self, monkeypatch):
        grid = rb.SpatialGrid((8, 6), (1.0, 1.0))
        two_d = QuasilinearDivergence(
            k=1, d=2, diffusion=_constant_diffusion(np.array([[1.0, 0.2], [0.2, 0.8]])[:, :, None, None]),
            state_box=((-1.0,), (1.0,)))
        assert self._splu_calls(monkeypatch, two_d, sine_mode(grid, offset=1.0), grid) >= 2
        rd = ReactionDiffusion(k=1, d=2, diffusion=_variable_diffusion(2))
        assert self._splu_calls(monkeypatch, rd, sine_mode(grid), grid) >= 1
        grid = rb.SpatialGrid((16,), (1.0,))
        two_k = QuasilinearDivergence(
            k=2, d=1, diffusion=_constant_diffusion(np.array([[[[1.0, 0.3], [0.0, 0.5]]]])),
            state_box=((-1.0, -1.0), (1.0, 1.0)))
        assert self._splu_calls(monkeypatch, two_k, np.vstack([sine_mode(grid)] * 2), grid) >= 2


def test_reference_csv_schema(grid64):
    u = np.zeros((2, 64))
    text = parasolver.reference_csv(grid64, u)
    lines = text.strip().split("\n")
    assert lines[0] == "x,u_1,u_2"
    assert len(lines) == 65
