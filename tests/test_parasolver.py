import functools
import re
import tracemalloc

import numpy as np
import pytest

import relaxbench as rb
from relaxbench import builder, diagnostics, hypersolver, parasolver
from relaxbench.builder import QuasilinearDivergence, ReactionDiffusion, isotropic_diffusion
from relaxbench.core import apply_modes, from_modes, l2_norm
from relaxbench.parasolver import ReferenceError, exact_mode_oracle, run_reference

from conftest import sine_mode
from test_core import fft_gradient

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
        # pure reaction (zero mode): compare against the logistic flow, whose relative error
        # falls 100x per 10x smaller step (2.0e-6 at dt = 1e-2, 2.0e-8 at 1e-3): second order
        tgt = ReactionDiffusion(
            k=1, d=1, diffusion=isotropic_diffusion(1, 1), f=lambda u: u * (1 - u)
        )
        u0 = np.full((1, 64), 0.25)
        exact = 0.25 * np.exp(0.5) / (1 + 0.25 * (np.exp(0.5) - 1))
        coarse, fine = (abs(run_reference(tgt, u0, grid64, 0.5, dt=dt)[1][-1][0, 0] - exact)
                        for dt in (1e-2, 1e-3))
        assert fine <= 1e-7 * exact
        assert coarse >= 90.0 * fine


EXACT_DEMOS = [("heat2d", (128, 128)), ("aniso2d", (8, 12)), ("heat1d", (256,)), ("sqrt-heat", (32,))]


def _count_steps(monkeypatch, cls):
    """The (span, nsub) of every later cls.step call, in order."""
    calls, step = [], cls.step

    def counted(self, u, span, nsub):
        calls.append((span, nsub))
        return step(self, u, span, nsub)
    monkeypatch.setattr(cls, "step", counted)
    return calls


def _count_maps(monkeypatch):
    """A list that grows by one for every later exact map the Fourier reference applies."""
    calls, apply = [], parasolver.apply_modes

    def counted(grid, prop, u):
        calls.append(prop.shape)
        return apply(grid, prop, u)
    monkeypatch.setattr(parasolver, "apply_modes", counted)
    return calls


class TestExactReference:
    """A reaction-free target with constant diffusion takes one exact map per output span."""

    @pytest.mark.parametrize("name, ns", EXACT_DEMOS)
    def test_matches_sub_stepped_propagation(self, name, ns):
        grid = rb.SpatialGrid(ns, (1.0,) * len(ns))
        bundle = builder.demo(name, grid)
        u0, T = bundle.u0(grid), 0.02
        times, fields = run_reference(bundle.target, u0, grid, T, snapshot_times=np.linspace(0, T, 11))
        stepper, u = parasolver._LinearRD(bundle.target, grid), u0
        for s in range(1, 11):  # each span in 100 one-step spans: T / 1000 as run_reference sub-stepped it
            for _ in range(100):
                u = stepper.step(u, (times[s] - times[s - 1]) / 100, 1)
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
        calls, maps = _count_steps(monkeypatch, parasolver._LinearRD), _count_maps(monkeypatch)
        target = builder.demo("heat1d", grid64).target
        run_reference(target, sine_mode(grid64), grid64, 0.01, dt=1e-5, snapshot_times=[0.0025, 0.005])
        assert [span for span, _ in calls] == pytest.approx([0.0025, 0.0025, 0.005], rel=1e-12)
        assert len(maps) == 3  # the exact map ignores the span's sub-step count

    @pytest.mark.parametrize("kind", ["reaction", "callable diffusion"])
    def test_other_targets_still_sub_step(self, grid64, monkeypatch, kind):
        if kind == "reaction":
            target = ReactionDiffusion(k=1, d=1, diffusion=isotropic_diffusion(1, 1), f=lambda u: u * (1 - u))
            stepper = parasolver._LinearRD
        else:
            target = ReactionDiffusion(k=1, d=1, diffusion=lambda x: np.ones((1, 1, 1, 1, x.shape[-1])))
            stepper = parasolver._PicardQL
        calls = _count_steps(monkeypatch, stepper)
        run_reference(target, sine_mode(grid64), grid64, 0.01, dt=1e-3, snapshot_times=[0.0025, 0.005])
        assert sum(nsub for _, nsub in calls) == 3 + 3 + 5  # ceil(span / dt) per span

    def test_distinct_spans_keep_no_table(self):
        # spans from subtracting accumulated floats differ by an ulp; none may leave a memo behind
        grid = rb.SpatialGrid((64, 64), (1.0, 1.0))
        target = builder.demo("heat2d", grid).target
        stepper, u = parasolver._LinearRD(target, grid), sine_mode(grid)
        spans = [1e-4]
        while len(spans) < 200:
            spans.append(np.nextafter(spans[-1], 1.0))
        stepper.step(u, spans[0], 1)
        tracemalloc.start()
        try:
            for span in spans:
                stepper.step(u, span, 1)
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        table = grid.cell_count * np.dtype(complex).itemsize  # 64 KiB, one per span if memoised
        assert grown < 2 * table


class TestReactionSpan:
    """A span of nsub Strang steps merges the half maps between its Heun steps into full ones."""

    def test_span_applies_nsub_plus_one_maps(self, grid64, monkeypatch):
        target = ReactionDiffusion(k=1, d=1, diffusion=isotropic_diffusion(1, 1), f=lambda u: u * (1 - u))
        maps = _count_maps(monkeypatch)
        run_reference(target, sine_mode(grid64), grid64, 0.01, dt=1e-3, snapshot_times=[0.0025, 0.005])
        assert len(maps) == (3 + 1) + (3 + 1) + (5 + 1)  # nsub = ceil(span / dt) per span

    @pytest.mark.parametrize("case", ["logistic", "reaction2"])
    def test_one_span_equals_chained_one_step_spans(self, grid128, case):
        if case == "logistic":
            target = ReactionDiffusion(k=1, d=1, diffusion=isotropic_diffusion(1, 1), f=lambda u: u * (1 - u))
            u0 = sine_mode(grid128, amplitude=0.3, offset=0.5)
        else:
            target, u0 = _reaction2(grid128)
        stepper, span, nsub = parasolver._LinearRD(target, grid128), 0.01, 10
        chained = u0
        for _ in range(nsub):
            chained = stepper.step(chained, span / nsub, 1)
        got = stepper.step(u0, span, nsub)
        assert np.linalg.norm(got - u0) > 1e-2 * np.linalg.norm(u0)  # the span moves the state
        assert np.linalg.norm(got - chained) <= 1e-13 * np.linalg.norm(chained)


class TestReferenceInputs:
    @pytest.mark.parametrize("name", ["heat1d", "carleman"])
    def test_negative_horizon_raises(self, name):
        grid = rb.SpatialGrid((16,), (1.0,))
        bundle = builder.demo(name, grid)
        with pytest.raises(ValueError, match="cannot integrate to negative time"):
            run_reference(bundle.target, bundle.u0(grid), grid, -0.1)

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    def test_non_finite_horizon_raises(self, T):
        grid = rb.SpatialGrid((16,), (1.0,))
        bundle = builder.demo("heat1d", grid)
        with pytest.raises(ValueError, match="cannot integrate to non-finite time"):
            run_reference(bundle.target, bundle.u0(grid), grid, T)

    @pytest.mark.parametrize("name", ["heat1d", "carleman"])
    @pytest.mark.parametrize("dt", [-1e-3, 0.0])
    def test_non_positive_step_raises(self, name, dt):
        grid = rb.SpatialGrid((16,), (1.0,))
        bundle = builder.demo(name, grid)
        with pytest.raises(ValueError, match="reference step dt must be positive"):
            run_reference(bundle.target, bundle.u0(grid), grid, 0.1, dt=dt)

    @pytest.mark.parametrize("name", ["heat1d", "carleman"])
    def test_step_bound_is_ceil_of_horizon_over_step(self, name, monkeypatch):
        # T / dt = (1/64) / (1/512) = 8 steps, refused before the first once MAX_STEPS is 7
        grid = rb.SpatialGrid((16,), (1.0,))
        bundle = builder.demo(name, grid)
        calls = [_count_steps(monkeypatch, cls) for cls in (parasolver._LinearRD, parasolver._PicardQL)]
        monkeypatch.setattr(hypersolver, "MAX_STEPS", 7)
        with pytest.raises(ValueError, match=r"^reference to T=0.015625 needs 8 steps of dt=0.00195312, "
                                             r"more than MAX_STEPS = 7$"):
            run_reference(bundle.target, bundle.u0(grid), grid, 1 / 64, dt=1 / 512)
        assert calls == [[], []]
        monkeypatch.setattr(hypersolver, "MAX_STEPS", 8)
        run_reference(bundle.target, bundle.u0(grid), grid, 1 / 64, dt=1 / 512)
        assert sum(nsub for stepped in calls for _, nsub in stepped) == 8


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

    def test_self_convergence_spectral(self):
        # Fourier collocation: each grid agrees with one of twice its cells at their common centres
        # to round-off (2e-12 at 32 cells), not to O(h^2)
        def coeff(x):
            return (1.0 + 0.5 * np.sin(TWO_PI * x[0])).reshape(1, 1, 1, 1, -1)

        vary = ReactionDiffusion(k=1, d=1, diffusion=coeff)
        for n in (32, 64, 128):
            gc = rb.SpatialGrid((n,), (1.0,))
            gf = rb.SpatialGrid((2 * n,), (1.0,))
            _, fc = run_reference(vary, sine_mode(gc), gc, 0.02, dt=1e-4)
            _, ff = run_reference(vary, sine_mode(gf), gf, 0.02, dt=1e-4)
            assert np.max(np.abs(fc[-1] - _fourier_restrict(ff[-1], n))) <= 1e-10


class TestQuasilinearReference:
    def test_mass_conserved(self, grid128):
        ql = builder.carleman_limit_target()
        rho0 = sine_mode(grid128, amplitude=0.5, offset=1.0)
        _, fields = run_reference(ql, rho0, grid128, 0.1, dt=2.5e-4)
        m0 = np.sum(rho0) * grid128.cell_volume
        mT = np.sum(fields[-1]) * grid128.cell_volume
        assert abs(mT - m0) <= 1e-12 * abs(m0)

    def test_spectral_space_accuracy(self):
        # Fourier collocation: at the ladder's step the n=256 references agree with n=1024 ones to
        # ~3e-12, the Picard tolerance's level, where the 3-point reference was ~1.4e-6 off
        steps = diagnostics.LADDER_REFERENCE_STEPS
        for name in ("carleman", "quasilinear-bu2"):
            coarse, fine = _ladder_reference(name, 256, steps)[1], _ladder_reference(name, 1024, steps)[1]
            assert np.max(np.abs(coarse - _fourier_restrict(fine, 256))) <= 1e-9

    def test_preconditioner_keeps_krylov_iterations_few(self):
        # the exact frozen-mean solve leaves ~2 GMRES iterations per Picard sweep on the carleman
        # ladder's reference; a weaker preconditioner shows here first
        grid = rb.SpatialGrid((256,), (1.0,))
        bundle = builder.demo("carleman", grid)
        stepper, u = parasolver._PicardQL(bundle.target, grid), bundle.u0(grid)
        span = LADDER_T / (diagnostics.LADDER_SNAPSHOTS - 1)
        for _ in range(diagnostics.LADDER_SNAPSHOTS - 1):
            u = stepper.step(u, span, diagnostics.LADDER_REFERENCE_STEPS // (diagnostics.LADDER_SNAPSHOTS - 1))
        assert stepper.sweeps >= diagnostics.LADDER_REFERENCE_STEPS
        assert stepper.krylov_iterations <= 4 * stepper.sweeps

    def test_span_equals_chained_one_step_spans(self, grid64):
        # after a span's first step the Picard sweeps start from an extrapolation of its states, not
        # u^n: a guess that may change how many sweeps a step takes, not the fixed point they reach
        ql, u0 = builder.carleman_limit_target(), sine_mode(grid64, 0.5, 1.0)
        stepper, span, nsub = parasolver._PicardQL(ql, grid64), 0.01, 10
        chained = u0
        for _ in range(nsub):
            chained = stepper.step(chained, span / nsub, 1)
        got = stepper.step(u0, span, nsub)
        assert np.max(np.abs(got - u0)) > 1e-2  # the span moves the state
        assert np.max(np.abs(got - chained)) <= 10 * parasolver.PICARD_TOL

    def test_carleman_limit_matches_log_diffusion(self, grid128):
        # d/dt rho = ((1/(2 rho)) rho_x)_x is one half the second derivative
        # of log(rho); check the instantaneous rate at t = 0
        ql = builder.carleman_limit_target()
        rho0 = sine_mode(grid128, amplitude=0.3, offset=1.0)
        dt = 1e-6
        _, fields = run_reference(ql, rho0, grid128, dt, dt=dt)
        rate = (fields[-1] - rho0) / dt
        # the full-FFT derivative, which shares no table with the reference
        logr = np.log(rho0)
        want = 0.5 * fft_gradient(grid128, fft_gradient(grid128, logr)[0])[0]
        assert l2_norm(rate - want, grid128) < 5e-3

    def test_snapshot_times_landed(self, grid64):
        ql = builder.carleman_limit_target()
        times, fields = run_reference(
            ql, sine_mode(grid64, 0.3, 1.0), grid64, 0.01,
            dt=1e-4, snapshot_times=[0.004, 0.008],
        )
        assert np.allclose(times, [0.0, 0.004, 0.008, 0.01])
        assert fields.shape[0] == 4


def _fourier_restrict(fine, n):
    """Periodic fields on N cell centres of the unit period, (..., N), interpolated trigonometrically
    to the centres of n cells; modes from n / 2 up are dropped."""
    big = fine.shape[-1]
    modes = np.arange(n // 2)
    shift = np.exp(2j * np.pi * modes * (0.5 / n - 0.5 / big))  # coarse centres lie 1/2n - 1/2N further
    return np.fft.irfft(np.fft.rfft(fine, axis=-1)[..., :n // 2] * shift * (n / big), n=n, axis=-1)


def _reaction2(grid):
    """The k=2 system with cross-diffusion [[1, 0.3], [0.3, 0.5]] and a cubic reaction."""
    x = grid.flat_points()[0]
    target = ReactionDiffusion(k=2, d=1, diffusion=np.array([[[[1.0, 0.3], [0.3, 0.5]]]]),
                               f=lambda u: np.stack([u[0] - u[0] ** 3 - u[1], 0.5 * (u[0] - u[1])]))
    return target, np.stack([np.sin(TWO_PI * x), 0.5 * np.cos(TWO_PI * x)])


def _callable(grid, f=None, offset=0.0):
    """Callable diffusion _variable_diffusion with reaction f, from a sine of amplitude 1/2."""
    target = ReactionDiffusion(k=1, d=grid.d, diffusion=_variable_diffusion(grid.d), f=f)
    return target, sine_mode(grid, amplitude=0.5, offset=offset)


# (target, u0) of the references that are not a demo's, by name
REFERENCE_CASES = {
    "reaction2": _reaction2,
    "callable": _callable,
    "callable-logistic": functools.partial(_callable, f=lambda u: u * (1 - u), offset=0.5),
}


@functools.cache
def _ladder_reference(name, n, steps):
    """A reference at the carleman ladder's 11 comparison times, with step T / steps, on n
    cells (a tuple for a 2-d grid): a demo's, or one of REFERENCE_CASES."""
    ns = n if isinstance(n, tuple) else (n,)
    grid = rb.SpatialGrid(ns, (1.0,) * len(ns))
    if name in REFERENCE_CASES:
        target, u0 = REFERENCE_CASES[name](grid)
    else:
        bundle = builder.demo(name, grid)
        target, u0 = bundle.target, bundle.u0(grid)
    times = np.linspace(0.0, LADDER_T, diagnostics.LADDER_SNAPSHOTS)
    _, fields = run_reference(target, u0, grid, LADDER_T, dt=LADDER_T / steps, snapshot_times=times)
    return times, fields, grid


def _step_distance(name, n, coarse, fine):
    times, coarse_fields, grid = _ladder_reference(name, n, coarse)
    return diagnostics.space_time_error(times, coarse_fields, _ladder_reference(name, n, fine)[1], grid)


class TestSecondOrderReference:
    """Every reference that is not exact in time is second order in it, so the ladder's step is
    converged: Crank-Nicolson for callable diffusion, Strang splitting for a reaction."""

    def test_ladder_step_agrees_with_a_quarter_of_it(self):
        steps = diagnostics.LADDER_REFERENCE_STEPS
        assert _step_distance("carleman", 256, steps, 4 * steps) <= 1e-7

    def test_reaction_ladder_step_agrees_with_an_eighth_of_it(self):
        steps = diagnostics.LADDER_REFERENCE_STEPS
        assert _step_distance("reaction2", 128, steps, 8 * steps) <= 1e-7

    # reaction2 takes _LinearRD's Strang splitting; every other case, 1-d and 2-d alike, takes _PicardQL's
    # Crank-Nicolson with Fourier collocation
    @pytest.mark.parametrize("name, n", [
        ("carleman", 256), ("quasilinear-bu2", 128), ("reaction2", 128), ("callable", 256), ("callable", (32, 32)),
        ("callable-logistic", 256), ("callable-logistic", (32, 32)),
    ], ids=["carleman-256", "quasilinear-bu2-128", "reaction2-128", "callable-256", "callable-32x32",
            "callable-logistic-256", "callable-logistic-32x32"])
    def test_observed_time_order(self, name, n):
        order = np.log2(_step_distance(name, n, 250, 500) / _step_distance(name, n, 500, 1000))
        assert order >= 1.9


def _dense_derivatives(grid):
    """Per axis, the spectral first derivative without the unpaired Nyquist mode as a dense matrix on
    the flat cells (C order), from explicit DFT matrices rather than an FFT."""
    out = []
    for axis, (n, length) in enumerate(zip(grid.ns, grid.lengths)):
        freq = np.fft.fftfreq(n, 1.0 / n)  # integer frequencies 0, 1, ..., -1
        if n % 2 == 0:
            freq[n // 2] = 0.0
        dft = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        one_axis = (dft.conj().T @ np.diag(2j * np.pi * freq / length) @ dft / n).real
        eyes = [np.eye(m) for m in grid.ns]
        eyes[axis] = one_axis
        out.append(eyes[0] if grid.d == 1 else np.kron(eyes[0], eyes[1]))
    return out


def _dense_operator(grid, blocks, divergence=True):
    """sum_ij d_i(B_ij d_j .) (or sum_ij B_ij d_i d_j) as one dense matrix, from _dense_derivatives."""
    d, k, m = grid.d, blocks.shape[2], grid.cell_count
    dx = _dense_derivatives(grid)
    out = np.zeros((k * m, k * m))
    for i, j, a, b in np.ndindex(d, d, k, k):
        c = np.diag(blocks[i, j, a, b])
        out[a * m:(a + 1) * m, b * m:(b + 1) * m] += dx[i] @ c @ dx[j] if divergence else c @ dx[i] @ dx[j]
    return out


def _dense_picard_step(target, grid, u, dt):
    """One Crank-Nicolson step with coefficients lagged at the midpoint, by dense solves.

    A reaction-diffusion target takes the non-divergence operator at its blocks on the
    cells, and its reaction in the place of g.
    """
    k, m = target.k, grid.cell_count
    rd = isinstance(target, ReactionDiffusion)
    flux, g = (None, target.f) if rd else (target.flux, target.g)
    start = u.reshape(-1)
    guess = start
    for _ in range(parasolver.PICARD_MAXITER):
        mid = 0.5 * (start + guess).reshape(k, -1)
        blocks = target.diffusion_at(grid.flat_points()) if rd else target.diffusion(mid)
        half = 0.5 * dt * _dense_operator(grid, blocks, divergence=not rd)
        rhs = start + half @ start
        if flux is not None:
            fl = flux(mid)
            for i, dx in enumerate(_dense_derivatives(grid)):
                rhs -= dt * (dx @ fl[i].T).T.reshape(-1)
        if g is not None:
            rhs += dt * g(mid).reshape(-1)
        new = np.linalg.solve(np.eye(k * m) - half, rhs)
        if np.max(np.abs(new - guess)) <= parasolver.PICARD_TOL:
            return new.reshape(u.shape)
        guess = new
    raise AssertionError("dense Picard loop did not converge")


def _collocation_operator(target, grid, blocks):
    """The reference's L at the blocks, applied to every unit vector: a dense matrix."""
    stepper = parasolver._PicardQL(target, grid)
    coeffs, (table, _) = stepper._coefficients(blocks), stepper.derivs
    n = target.k * grid.cell_count
    columns = []
    for unit in np.eye(n):
        derivs = apply_modes(grid, table, unit.reshape((target.k,) + grid.ns)).reshape(len(table), -1)
        columns.append(from_modes(grid, stepper._applied(coeffs, derivs)).reshape(-1))
    return np.array(columns).T


def _coupled_diffusion(zero_block=None, d=2):
    """k=2 blocks with component (a != b) coupling, and in 2-d cross (i != j) coupling; in 1-d the
    zero block keeps only its components."""
    weights = np.random.default_rng(7).normal(size=(d, d, 2, 2, 3))

    def diffusion(u):
        feats = np.stack([np.ones(u.shape[-1]), u[0], u[1] ** 2])
        out = np.einsum("ijabq,qm->ijabm", weights, feats)
        if zero_block is not None:
            out[zero_block if d == 2 else (0, 0) + zero_block[2:]] = 0.0
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
    """The collocation operator, applied column by column, against the dense DFT oracle's assembly."""

    @pytest.mark.parametrize("divergence", [True, False])
    @pytest.mark.parametrize("zero_block", [None, (0, 1, 1, 0), (1, 1, 0, 0)])
    def test_matches_dense_assembly(self, divergence, zero_block):
        # k = 2 with component coupling, on a 1-d grid and on a 2-d one with a cross term
        for grid in (rb.SpatialGrid((9,), (2.5,)), rb.SpatialGrid((6, 5), (1.0, 2.5))):
            u = np.random.default_rng(3).uniform(0.5, 1.5, size=(2, grid.cell_count))
            blocks = _coupled_diffusion(zero_block, grid.d)(u)
            if divergence:
                target = QuasilinearDivergence(k=2, d=grid.d, diffusion=_coupled_diffusion(zero_block, grid.d))
            else:
                target = ReactionDiffusion(k=2, d=grid.d, diffusion=lambda x: blocks)
            got = _collocation_operator(target, grid, blocks)
            want = _dense_operator(grid, blocks, divergence)
            assert np.max(np.abs(want)) > 0
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestLinearStep:
    @pytest.mark.parametrize("ns", [(32,), (8, 6)])
    def test_variable_coefficient_step_matches_dense_crank_nicolson(self, ns):
        grid = rb.SpatialGrid(ns, (1.0,) * len(ns))
        target = ReactionDiffusion(k=1, d=grid.d, diffusion=_variable_diffusion(grid.d), f=lambda u: u * (1 - u))
        u, dt = sine_mode(grid, 0.5, 0.3), 1e-2
        got = parasolver._PicardQL(target, grid).step(u, dt, 1)
        want = _dense_picard_step(target, grid, u, dt)  # the reaction at the midpoint
        assert np.max(np.abs(got - u)) > 1e-3  # the step moves the state
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("ns", [(32,), (8, 6)])
    def test_reaction_free_step_is_one_solve(self, ns):
        grid = rb.SpatialGrid(ns, (1.0,) * len(ns))
        target = ReactionDiffusion(k=1, d=grid.d, diffusion=_variable_diffusion(grid.d))
        u, dt = sine_mode(grid, 0.5, 0.3), 1e-2
        stepper = parasolver._PicardQL(target, grid)
        got = stepper.step(u, dt, 1)
        assert stepper.sweeps == 1
        solve = stepper.krylov_iterations
        stepper.linear = False  # sweep until the increment vanishes, as a nonlinear target does
        assert stepper.step(u, dt, 1).tobytes() == got.tobytes()
        assert stepper.sweeps == 3  # the second sweep only confirmed a zero increment,
        assert stepper.krylov_iterations == 2 * solve  # without a Krylov iteration

    def test_stiff_reaction_non_convergence_reports_last_increment(self, grid64):
        # the midpoint reaction -40 u at dt = 0.1 makes each Picard sweep double the error of the
        # mean; the positive definite blocks leave no start-state witness to add
        target = ReactionDiffusion(k=1, d=1, diffusion=_variable_diffusion(1), f=lambda u: -40.0 * u)
        with pytest.raises(ReferenceError, match=r"the last max increment was [0-9.e+]+ in component 1 "
                                                 r"at cell \d+ \(x = \[") as info:
            run_reference(target, sine_mode(grid64, offset=1.0), grid64, 0.1, dt=0.1)
        assert "not positive definite" not in str(info.value)

    def test_singular_callable_diffusion_raises_reference_error(self):
        # a(x) = (-3/2, 0, 1, 3/2) on 4 cells would make I - (dt/2) L singular at dt = 2 / pi^2, while
        # the mean of a is positive; the span is refused at its start, before any solve
        grid = rb.SpatialGrid((4,), (1.0,))
        table = np.array([-1.5, 0.0, 1.0, 1.5])

        def diffusion(x):
            return table[(4 * x[0]).astype(int)].reshape(1, 1, 1, 1, -1)

        target = ReactionDiffusion(k=1, d=1, diffusion=diffusion)
        with pytest.raises(ReferenceError, match=REFUSED + "at cell 0 "):
            parasolver._PicardQL(target, grid).step(np.array([[1.0, 2.0, 0.5, 1.0]]), 2.0 / np.pi ** 2, 1)


REFUSED = r"a span starts where the target is not parabolic; at the step's start B\(u\) is not positive definite "
KRYLOV_FAILED = r"Krylov solve of I - dt/2 L failed after \d+ iterations at relative residual [0-9.e+-]+ " \
                r"\(KRYLOV_TOL = 1e-13\): "
# b(u) = 1 - u is positive on the start 0.5 + 0.4 sin 2 pi x, but the growth 50 u lifts the sweeps'
# midpoint past u = 1 within the step, where the lagged coefficient turns anti-diffusive
WANDERING = builder.scalar_quasilinear(b=lambda u: 1.0 - u, g=lambda u: 50.0 * u)


class TestPicardStep:
    @pytest.mark.parametrize("name", ["carleman", "quasilinear-bu2"])
    def test_one_step_matches_dense_picard(self, grid64, name):
        bundle = builder.demo(name, grid64)
        u = bundle.u0(grid64)
        dt = 1e-3
        got = parasolver._PicardQL(bundle.target, grid64).step(u, dt, 1)
        want = _dense_picard_step(bundle.target, grid64, u, dt)
        assert np.max(np.abs(got - u)) > 1e-3  # the step moves the state
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_singular_system_raises_reference_error(self):
        # backward diffusion b = -1 with dt / h^2 = 1 makes I - (dt/2) L indefinite on the first Fourier
        # mode; the constant start solves it, but the span is refused all the same
        grid = rb.SpatialGrid((4,), (1.0,))
        target = builder.scalar_quasilinear(b=lambda u: -np.ones_like(u))
        with pytest.raises(ReferenceError, match=REFUSED + "at cell 0 "):
            run_reference(target, np.ones((1, 4)), grid, 1 / 16, dt=1 / 16)

    def test_scalar_source_step_matches_dense_picard(self, grid64):
        target = builder.scalar_quasilinear(b=lambda u: 1.0 + u ** 2, g=lambda u: 5.0 * u * (1.0 - u))
        u, dt = sine_mode(grid64, 0.5, 0.3), 1e-3
        got = parasolver._PicardQL(target, grid64).step(u, dt, 1)
        no_source = builder.scalar_quasilinear(b=lambda u: 1.0 + u ** 2)
        without_g = parasolver._PicardQL(no_source, grid64).step(u, dt, 1)
        assert np.max(np.abs(got - without_g)) > 1e-4  # the source moves the step
        assert np.max(np.abs(got - _dense_picard_step(target, grid64, u, dt))) <= 1e-12

    # one Krylov loop for every placement, k and d: here non-symmetric blocks, and a 2-d cross term
    @pytest.mark.parametrize("ns, blocks", [
        ((16,), np.array([[[[1.0, 0.3], [0.0, 0.5]]]])),
        ((8, 6), np.array([[1.0, 0.2], [0.2, 0.8]])[:, :, None, None]),
    ], ids=["non-symmetric-k2", "cross-2d"])
    def test_coupled_blocks_step_matches_dense_picard(self, ns, blocks):
        grid = rb.SpatialGrid(ns, (1.0,) * len(ns))
        k = blocks.shape[2]
        diffusion = _constant_diffusion(blocks)
        target = QuasilinearDivergence(k=k, d=grid.d, diffusion=lambda u: diffusion(u) * (1.0 + 0.5 * u[0] ** 2),
                                       state_box=((-1.0,) * k, (1.0,) * k))
        u, dt = np.vstack([sine_mode(grid, 0.5, 0.3)] * k).reshape((k,) + ns), 1e-2
        got = parasolver._PicardQL(target, grid).step(u, dt, 1)
        assert np.max(np.abs(got - u)) > 1e-3  # the step moves the state
        assert np.max(np.abs(got - _dense_picard_step(target, grid, u, dt))) <= 1e-12

    # b(u) = u on 4 cells at u = (1, -1, 1, -3) is refused at the start, before its mean coefficient
    # -1/2 makes the frozen-mean operator indefinite at dt = 1/8; 1e308 u overflows its mean
    @pytest.mark.parametrize("b, u0, message", [
        (lambda u: u, [1.0, -1.0, 1.0, -3.0], REFUSED + "at cell 1 "),
        (lambda u: 1e308 * u, [1.0, 1.0, 1.0, 1.0], KRYLOV_FAILED + "the frozen-mean operator is not finite$"),
    ], ids=["zero-pivot", "overflow"])
    def test_cyclic_solve_failure_raises_reference_error(self, b, u0, message):
        grid = rb.SpatialGrid((4,), (1.0,))
        stepper = parasolver._PicardQL(builder.scalar_quasilinear(b=b), grid)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ReferenceError, match=message):
                stepper.step(np.array([u0]), 1 / 8, 1)

    def test_singular_2d_system_raises_reference_error(self):
        # the same construction on a 4 x 4 grid: b = -I would make I - (dt/2) L indefinite
        grid = rb.SpatialGrid((4, 4), (1.0, 1.0))
        target = QuasilinearDivergence(k=1, d=2, diffusion=_constant_diffusion(-np.eye(2)[:, :, None, None]),
                                       state_box=((-1.0,), (1.0,)))
        with pytest.raises(ReferenceError, match=REFUSED + "at cell 0 "):
            run_reference(target, sine_mode(grid, offset=1.0), grid, 1 / 16, dt=1 / 16)

    def test_non_finite_coefficient_names_cell(self, grid64):
        u0 = np.ones((1, 64))
        u0[0, 17] = 0.0
        with np.errstate(divide="ignore"):
            with pytest.raises(ReferenceError) as info:
                run_reference(builder.carleman_limit_target(), u0, grid64, 1e-3, dt=1e-3)
        msg = str(info.value)
        assert "B_11[1,1] is inf at cell 17" in msg
        assert "u = [0.0]" in msg

    def test_negative_mean_coefficient_is_refused_before_a_sweep(self, grid64):
        # at this start the cell mean of 1/(2u) is -0.75, which would make the frozen-mean operator
        # indefinite; the start is refused before that, at its first cell with u < 0
        u0 = sine_mode(grid64, amplitude=0.5, offset=0.2)
        with pytest.raises(ReferenceError, match=REFUSED) as info:
            run_reference(builder.carleman_limit_target(), u0, grid64, 1e-3, dt=1e-4)
        start = re.search(r"B\(u\) is not positive definite at cell (\d+) ", str(info.value))
        assert int(start.group(1)) == np.flatnonzero(u0[0] < 0.0)[0]

    def test_start_below_zero_with_converging_sweeps_is_refused(self, grid64):
        # 0.49 + 0.5 sin 2 pi x dips below zero at 4 cells, where 1/(2u) < 0, yet its frozen mean is
        # positive and the sweeps converge: only the refusal keeps it from backward diffusion
        u0 = sine_mode(grid64, amplitude=0.5, offset=0.49)
        stepper = parasolver._PicardQL(builder.carleman_limit_target(), grid64)
        with pytest.raises(ReferenceError, match=REFUSED + r"at cell (\d+) .*smallest eigenvalue") as info:
            stepper.step(u0, 1e-3, 10)
        assert re.search(r"at cell (\d+) ", str(info.value)).group(1) == str(np.flatnonzero(u0[0] < 0.0)[0])
        assert stepper.sweeps == 0

    def test_non_convergence_reports_last_increment(self):
        # a start the span accepts, whose sweeps wander where B(u) < 0 and diverge
        grid = rb.SpatialGrid((16,), (1.0,))
        with pytest.raises(ReferenceError, match="last max increment") as info:
            parasolver._PicardQL(WANDERING, grid).step(sine_mode(grid, amplitude=0.4, offset=0.5), 1e-2, 1)
        match = re.search(r"was ([0-9.e+-]+) in component 1 at cell (\d+)", str(info.value))
        assert match is not None
        assert float(match.group(1)) > parasolver.PICARD_TOL
        assert "B(u) is not positive definite" not in str(info.value)  # not at the step's start

    def test_singular_sweep_operator_raises_reference_error(self):
        # the same start at dt = 0.1 on 4 cells: a sweep's lagged operator is singular
        grid = rb.SpatialGrid((4,), (1.0,))
        with pytest.raises(ReferenceError, match=KRYLOV_FAILED + "it is numerically singular: ") as info:
            parasolver._PicardQL(WANDERING, grid).step(sine_mode(grid, amplitude=0.4, offset=0.5), 0.1, 1)
        assert "B(u) is not positive definite" not in str(info.value)


class TestCyclicSolve:
    """The periodic solve of I - dt/2 L: the Krylov loop against a dense solve."""

    @pytest.mark.parametrize("n", [4, 5, 64])
    def test_matches_dense_solve(self, n):
        # one linear step of a random positive a(x) u_xx from random data: a single solve
        grid = rb.SpatialGrid((n,), (1.0,))
        rng = np.random.default_rng(n)
        for _ in range(5):
            blocks = rng.uniform(0.2, 2.0, size=(1, 1, 1, 1, n))
            target = ReactionDiffusion(k=1, d=1, diffusion=lambda x: blocks)
            u, dt = rng.normal(size=(1, n)), 1e-2
            half = 0.5 * dt * _dense_operator(grid, blocks, divergence=False)
            want = np.linalg.solve(np.eye(n) - half, u[0] + half @ u[0])
            got = parasolver._PicardQL(target, grid).step(u, dt, 1)[0]
            # a relative residual of KRYLOV_TOL bounds the relative error by cond times as much
            bound = 2.0 * np.linalg.cond(np.eye(n) - half) * parasolver.KRYLOV_TOL
            assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)

    def test_nearly_singular_crank_nicolson_step_raises_reference_error(self):
        # b = -1 would make I - (dt/2) L = I + (dt/2) d_xx singular on the first Fourier mode at
        # dt = 2 / (2 pi)^2 and indefinite on the higher ones: the span is refused at its start,
        # before a solve could return numbers of size 1/eps
        grid = rb.SpatialGrid((8,), (1.0,))
        stepper = parasolver._PicardQL(builder.scalar_quasilinear(b=lambda u: -np.ones_like(u)), grid)
        u0 = 1.0 + 0.3 * np.sin(2.0 * np.pi * grid.points())
        with pytest.raises(ReferenceError, match=REFUSED + "at cell 0 "):
            stepper.step(u0, 2.0 / (2.0 * np.pi) ** 2, 1)


def test_reference_csv_schema(grid64):
    u = np.zeros((2, 64))
    text = parasolver.reference_csv(grid64, u)
    lines = text.strip().split("\n")
    assert lines[0] == "x,u_1,u_2"
    assert len(lines) == 65
