import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

import relaxbench as rb
from relaxbench import builder, hypersolver, parasolver
from relaxbench.core import eig_function, l2_norm, principal_symbols, unit_directions
from relaxbench.hypersolver import SolverError, SolverOptions, max_wave_speed, run, snapshot_csv, step

from conftest import four_block_2d, sine_mode

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def heat_bundle(grid256):
    return builder.demo("heat1d", grid256)


class TestWaveSpeed:
    def test_heat_is_one(self, grid64):
        sys = builder.demo("heat1d", grid64).system
        assert max_wave_speed(sys, grid64) == pytest.approx(1.0, rel=1e-12)

    def test_carleman_is_one(self, grid64):
        _, _, sys = builder.carleman()
        assert max_wave_speed(sys, grid64) == pytest.approx(1.0, rel=1e-12)

    def test_sqrt_system_unit_direction_speed(self, grid64):
        sys = builder.demo("sqrt-heat", grid64).system
        assert max_wave_speed(sys, grid64) == pytest.approx(1.0, rel=1e-12)


    @pytest.mark.parametrize("name", ["heat1d", "heat2d", "aniso2d", "sqrt-heat", "carleman"])
    def test_constant_coefficients_take_one_point(self, name):
        # every point has the same symbols, so one gives the 32-point lattice's speed to the bit
        grid = rb.SpatialGrid((16, 16), (1.0, 2.0)) if name.endswith("2d") else rb.SpatialGrid((64,), (1.0,))
        sys = builder.demo(name, grid).system
        syms = principal_symbols(sys, grid.sample_points(32), unit_directions(grid.d))
        assert sys.constant_coefficients
        assert max_wave_speed(sys, grid) == float(np.max(np.abs(np.linalg.eigvals(1j * syms))))

    def test_2d_speed_sees_upper_half(self):
        # i * symbol has eigenvalues +-(xi_1 + xi_2) sqrt(c(y)), c = 4 for y > 1/2 and 1 below
        def m21(x):
            return np.where(x[1] > 0.5, 4.0, 1.0).reshape(1, 1, -1)

        sys = rb.RelaxationSystem(
            k=1, m=1, d=2, m12=(np.eye(1), np.eye(1)), m21=(m21, m21),
            q=lambda x, u, z: -z, q_nu=lambda x, u, z: -np.eye(1),
        )
        grid = rb.SpatialGrid((32, 32), (1.0, 1.0))
        assert max_wave_speed(sys, grid) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)


    def test_step_size_sees_a_peak_between_samples(self):
        # m21 = 4 on cell 4 only; the 32 sampled points are every 8th cell and miss it,
        # but the tabulated transport has radius sqrt(4) / eps there
        grid = rb.SpatialGrid((256,), (1.0,))

        def m21(x):
            return np.where(np.abs(x[0] - 4.5 * grid.h[0]) < 0.25 * grid.h[0], 4.0, 1.0).reshape(1, 1, -1)

        sys = rb.RelaxationSystem(
            k=1, m=1, d=1, m12=(np.eye(1),), m21=(m21,),
            q=lambda x, u, z: -z, q_nu=lambda x, u, z: -np.eye(1),
        )
        assert max_wave_speed(sys, grid) == pytest.approx(1.0, rel=1e-12)
        eps = 0.1
        state = rb.FieldState(grid, np.zeros((1, 256)), np.zeros((1, 256)), 0.0, eps)
        traj = run(sys, state, 1e-3, SolverOptions(flux="rusanov"))
        bound = 0.45 * eps * grid.h[0] / 2.0
        assert max(traj.records.dt) == pytest.approx(bound, rel=1e-12)
        assert all(s == pytest.approx(2.0 / eps, rel=1e-12) for s in traj.records.max_speed)


class TestStep:
    def test_zero_state_stays_zero(self, grid64):
        sys = builder.demo("heat1d", grid64).system
        state = rb.FieldState(grid64, np.zeros((1, 64)), np.zeros((1, 64)), 0.0, 0.1)
        out = step(sys, state, 1e-5)
        assert np.all(out.uI == 0.0) and np.all(out.uII == 0.0)

    def test_constant_state_unchanged(self, grid64):
        sys = builder.demo("heat1d", grid64).system
        state = rb.FieldState(grid64, np.full((1, 64), 0.7), np.zeros((1, 64)), 0.0, 0.1)
        out = step(sys, state, 1e-5)
        assert np.allclose(out.uI, 0.7, atol=1e-15)
        assert np.allclose(out.uII, 0.0, atol=1e-15)

    def test_cfl_violation_rejected(self, grid64):
        sys = builder.demo("heat1d", grid64).system
        state = rb.FieldState(grid64, np.zeros((1, 64)), np.zeros((1, 64)), 0.0, 0.05)
        with pytest.raises(SolverError, match="stability bound"):
            step(sys, state, 1.0, SolverOptions(flux="rusanov"))

    def test_multiplier_requires_spectral(self, grid64):
        bundle = builder.demo("sqrt-heat", grid64)
        state = hypersolver.well_prepared_state(bundle.system, grid64, bundle.u0(grid64), 0.1)
        with pytest.raises(SolverError, match="spectral"):
            step(bundle.system, state, 1e-5, SolverOptions(flux="rusanov"))

    def test_spectral_needs_constant_coefficients(self, grid64):
        bundle = builder.demo("null-limit", grid64)
        state = hypersolver.well_prepared_state(bundle.system, grid64, bundle.u0(grid64), 0.1)
        with pytest.raises(SolverError, match="constant"):
            step(bundle.system, state, 1e-6, SolverOptions(flux="spectral"))

    @pytest.mark.parametrize("flux", ["spectral"])
    def test_variable_block_is_not_constant(self, grid64, flux):
        # heat1d with an x-dependent m12: the spectral flux would use cell 0's coefficients everywhere
        def m12(x):
            return (1.0 + 0.5 * np.sin(TWO_PI * x[0])).reshape(1, 1, -1)

        sys = replace(builder.demo("heat1d", grid64).system, m12=(m12,))
        assert not sys.constant_coefficients
        state = rb.FieldState(grid64, sine_mode(grid64), np.zeros((1, 64)), 0.0, 0.1)
        with pytest.raises(SolverError, match="constant"):
            step(sys, state, 1e-6, SolverOptions(flux=flux))

    def test_multiplier_prepares_on_any_grid(self):
        # B(D) sin(pi x) = pi sin(pi x) on a period of 2, and Qnu = -1 gives uII = -(-B(D) uI)
        grid = rb.SpatialGrid((64,), (2.0,))
        sys = builder.demo("sqrt-heat", rb.SpatialGrid((16,), (1.0,))).system
        uI = np.sin(np.pi * grid.points()[:1])
        state = hypersolver.well_prepared_state(sys, grid, uI, 0.1)
        assert np.allclose(state.uII, np.pi * uI, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", builder.DEMO_NAMES)
    def test_admissible_fluxes_are_what_the_integrator_accepts(self, name):
        d = builder.DEMO_DIMS[name]
        grid = rb.SpatialGrid((16,) * d, (1.0,) * d)
        sys = builder.demo(name, grid).system
        want = {"sqrt-heat": ("spectral",), "null-limit": ("rusanov",)}.get(name, hypersolver.FLUXES)
        assert hypersolver.admissible_fluxes(sys) == want
        for flux in hypersolver.FLUXES:
            try:
                hypersolver._Workspace(sys, grid, 0.1, SolverOptions(flux=flux))
            except SolverError as err:
                assert flux not in want and "not admissible" in str(err)
                assert ", ".join(want) in str(err)
            else:
                assert flux in want

    def test_spectral_refuses_defective_transport(self, grid64):
        # m21 = 0 makes every nonzero mode's transport symbol a Jordan block: no propagator S^-1 exp(P) S
        sys = rb.RelaxationSystem(
            k=1, m=1, d=1, m12=(np.eye(1),), m21=(np.zeros((1, 1)),),
            q=lambda x, u, z: -z, q_nu=lambda x, u, z: -np.ones((1, 1, z.shape[-1])),
        )
        state = rb.FieldState(grid64, sine_mode(grid64), np.zeros((1, 64)), 0.0, 0.1)
        with pytest.raises(np.linalg.LinAlgError, match="not diagonalizable"):
            step(sys, state, 1e-6, SolverOptions(flux="spectral"))


ARTIFACT_GRIDS = {1: ((16,), (24,)), 2: ((12, 12), (16, 20))}  # those of scripts/artifact_hashes.py


def _mirrored(full, d):
    """A full per-mode stack (*ns, r, c) at -k, for each mode k."""
    axes = tuple(range(d))
    return np.roll(np.flip(full, axes), 1, axes)


def _hermitian_defect(full, ns):
    """max |P(-k) - conj P(k)| of a full per-mode stack (*ns, r, c) off the modes on an even axis's Nyquist
    index, which stands for both k and -k: where irfft's half spectrum, which assumes it 0, would drop a part."""
    unpaired = np.any([(i == n // 2) & (n % 2 == 0) for i, n in zip(np.indices(ns), ns)], axis=0)
    return np.max(np.abs(_mirrored(full, len(ns)) - full.conj())[~unpaired])


class TestSpectralConvention:
    """The spectral step of every system is generated by its principal symbol P over eps."""

    @pytest.mark.parametrize("name, ns", [("heat1d", (16,)), ("heat2d", (8, 8)), ("aniso2d", (8, 6)),
                                          ("sqrt-heat", (16,)), ("aniso2d", (7, 9))])
    def test_propagator_is_expm_of_principal_symbol(self, name, ns):
        grid = rb.SpatialGrid(ns, (1.0,) * len(ns))
        sys = builder.demo(name, grid).system
        eps, dt = 0.1, 0.013
        prop = hypersolver._Workspace(sys, grid, eps, SolverOptions(flux="spectral"))._propagator(dt)
        kappa = grid.wavenumbers().reshape(grid.d, -1)
        scale = np.diag([1.0] * sys.k + [eps] * sys.m)  # the step moves (uI, eps uII)
        full = np.array([np.linalg.inv(scale) @ expm((dt / eps) * rb.principal_symbol(sys, [0.0] * grid.d, xi))
                         @ scale for xi in kappa.T]).reshape(ns + (sys.n, sys.n))
        # a mode table keeps, modes last, the half spectrum of (P(k) + conj P(-k)) / 2
        half = 0.5 * (full + _mirrored(full, grid.d).conj())[..., : ns[-1] // 2 + 1, :, :]
        want = np.moveaxis(half, (-2, -1), (0, 1))
        assert prop.shape == want.shape
        assert np.max(np.abs(prop - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), name

    @pytest.mark.parametrize("name", [n for n in builder.DEMO_NAMES if n != "null-limit"])
    def test_full_table_is_hermitian(self, name):
        # irfft reads half of the modes: the others must be the conjugates it assumes, P(-k) = conj P(k)
        d = builder.DEMO_DIMS[name]
        for ns in ARTIFACT_GRIDS[d] + (((15,), (9, 7))[d - 1],):
            grid = rb.SpatialGrid(ns, (1.0,) * d)
            ws = hypersolver._Workspace(builder.demo(name, grid).system, grid, 0.1, SolverOptions(flux="spectral"))
            vals, vecs, vecs_inv, rescale = ws._factors
            full = (eig_function(vecs, np.exp(-1j * (0.013 / 0.1) * vals), vecs_inv) * rescale).reshape(
                ns + (ws.n, ws.n))
            assert _hermitian_defect(full, ns) <= 1e-12 * max(1.0, np.max(np.abs(full))), (name, ns)

    @pytest.mark.parametrize("name, ns", [("heat1d", (16,)), ("heat1d", (15,)), ("heat2d", (8, 8)),
                                          ("aniso2d", (8, 6)), ("aniso2d", (7, 9))])
    def test_reference_table_is_hermitian(self, name, ns):
        grid = rb.SpatialGrid(ns, (1.0,) * len(ns))
        ref = parasolver._LinearRD(builder.demo(name, grid).target, grid)
        full = eig_function(ref.vecs, np.exp(0.013 * ref.vals), ref.vecs_inv).reshape(ns + (ref.k, ref.k))
        assert _hermitian_defect(full, ns) <= 1e-12 * max(1.0, np.max(np.abs(full))), (name, ns)


def _operands(ns, n, seed):
    """Fields (n, *ns) laid out as the grid fluxes meet them, with +-0.0 entries mixed in."""
    rng = np.random.default_rng(seed)
    c_ordered = rng.standard_normal((n,) + ns)
    c_ordered[rng.random(c_ordered.shape) < 0.2] = 0.0
    c_ordered[rng.random(c_ordered.shape) < 0.2] = -0.0
    # uII comes out of the source solve point-major, so the concatenated state is not C-ordered
    point_major = rng.standard_normal(ns[::-1] + (n - 1,)).T
    return {
        "C-ordered": c_ordered,
        "concatenated": np.concatenate([c_ordered[:1], point_major], axis=0),
        "Fortran-ordered": np.asfortranarray(c_ordered),
        "strided": np.repeat(c_ordered, 2, axis=1)[:, ::2],
        "signed zeros": np.where(rng.random(c_ordered.shape) < 0.5, 0.0, -0.0),
    }


def _roll_einsum_transport(ws, y, dt):
    """The Rusanov step as np.roll and einsum formed it, on y as laid out: the oracle of _transport_grid."""
    out = y.copy()
    for j in range(ws.grid.d):
        up, dn, h2 = np.roll(y, -1, axis=1 + j), np.roll(y, +1, axis=1 + j), 2.0 * ws.grid.h[j]
        adv = np.einsum("ab...,b...->a...", ws.cmat[j], (up - dn) / h2)
        diss = ws.radii[j] * ((up - 2.0 * y + dn) / h2)
        out += dt * (diss - adv)
    return out


class TestGridTransport:
    @pytest.mark.parametrize("name", [*builder.DEMO_NAMES, "four-block-2d"])
    def test_matches_roll_and_einsum(self, name):
        # constant blocks and per-cell tables alike take one product with the kept neighbour weights
        d = 2 if name == "four-block-2d" else builder.DEMO_DIMS[name]
        for ns in ARTIFACT_GRIDS[d]:
            grid = rb.SpatialGrid(ns, (1.0,) * d)
            sys = four_block_2d() if name == "four-block-2d" else builder.demo(name, grid).system
            for flux in set(hypersolver.admissible_fluxes(sys)) - {"spectral"}:
                ws = hypersolver._Workspace(sys, grid, 0.1, SolverOptions(flux=flux))
                for dt in (ws.dt_max, 0.3 * ws.dt_max):  # the kept weights and a clipped step's
                    for label, x in _operands(ns, sys.n, seed=5).items():
                        want = _roll_einsum_transport(ws, x, dt)
                        ws.y[...] = x
                        ws._transport_grid(dt)
                        assert np.max(np.abs(ws.y - want)) <= 1e-13 * max(np.max(np.abs(want)), 1e-300), \
                            (name, ns, label, dt)

    @pytest.mark.parametrize("name", ["aniso2d", "four-block-2d"])
    def test_kept_neighbour_weights_sum_to_identity(self, name):
        grid = rb.SpatialGrid((16, 20), (1.0, 1.0))
        sys = four_block_2d() if name == "four-block-2d" else builder.demo(name, grid).system
        ws = hypersolver._Workspace(sys, grid, 0.05, SolverOptions())
        ws.y[...] = 1.0
        ws._transport_grid(ws.dt_max)
        stack, own = ws._kept["transport"]
        n = ws.n
        if sys.constant_coefficients:
            assert stack.shape == (2 * 2 * n, n)
            weights = stack.reshape(4, n, n)[..., None, None]
        else:
            assert stack.shape == (4, n, n) + grid.ns
            weights = stack
        # at every cell, its own weight plus the weights its up and down neighbours carry for it sum to I
        cell = own * np.eye(n)[..., None, None]
        for j in range(2):
            cell = cell + np.roll(weights[2 * j], -1, axis=2 + j) + np.roll(weights[2 * j + 1], 1, axis=2 + j)
        assert np.max(np.abs(cell - np.eye(n)[..., None, None])) <= 1e-13
        # so a constant state does not move
        assert np.allclose(ws.y, 1.0, rtol=0.0, atol=1e-13)


def _workspace_arrays(ws):
    """Every array the workspace holds, directly or in a list or tuple."""
    for value in vars(ws).values():
        for item in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(item, np.ndarray):
                yield item


class TestInPlaceState:
    @pytest.fixture
    def workspaces(self, monkeypatch):
        made = []

        class Recorded(hypersolver._Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)
        monkeypatch.setattr(hypersolver, "_Workspace", Recorded)
        return made

    @pytest.mark.parametrize("name, ns, flux", [("carleman", (32,), "spectral"), ("heat2d", (12, 12), "rusanov"),
                                                ("aniso2d", (12, 12), "spectral")])
    def test_init_is_read_and_snapshots_are_copies(self, workspaces, name, ns, flux):
        grid = rb.SpatialGrid(ns, (1.0,) * len(ns))
        bundle = builder.demo(name, grid)
        init = hypersolver.well_prepared_state(bundle.system, grid, bundle.u0(grid), 0.1)
        uI0, uII0 = init.uI.copy(), init.uII.copy()
        handed = []
        opts = SolverOptions(flux=flux, snapshot_stride=3)
        run(bundle.system, init, 0.01, opts, snapshot_times=[0.004], on_snapshot=handed.append)
        traj = run(bundle.system, init, 0.01, opts, snapshot_times=[0.004])
        assert init.uI.tobytes() == uI0.tobytes() and init.uII.tobytes() == uII0.tobytes()
        # the handed snapshots against the streamed run's workspace, the kept ones against the other's
        for snaps, ws in ((handed, workspaces[0]), (traj.snapshots, workspaces[1])):
            arrays = [f for s in snaps for f in (s.uI, s.uII)]
            buffers = list(_workspace_arrays(ws))
            assert len(snaps) > 3 and buffers
            for i, f in enumerate(arrays):
                assert not any(np.shares_memory(f, g) for g in arrays[i + 1:] + buffers)
        assert len(handed) == len(traj.snapshots)
        for got, snap in zip(handed, traj.snapshots):
            assert got.t == snap.t and np.array_equal(got.uI, snap.uI) and np.array_equal(got.uII, snap.uII)

    def test_only_the_recurring_propagator_is_kept(self, monkeypatch):
        # 60 irregular snapshot times clip 60 steps; each clipped step's table must go with its step
        grid = rb.SpatialGrid((16, 16), (1.0, 1.0))
        bundle = builder.demo("aniso2d", grid)
        init = hypersolver.well_prepared_state(bundle.system, grid, bundle.u0(grid), 0.1)
        built, alive_at_build = [], []
        propagator = hypersolver._Workspace._propagator

        def recorded(ws, dt):
            alive_at_build.append(sum(ref() is not None for ref in built))
            table = propagator(ws, dt)
            built.append(weakref.ref(table))
            return table
        monkeypatch.setattr(hypersolver._Workspace, "_propagator", recorded)
        times = np.sort(np.random.default_rng(8).uniform(0.0, 0.02, 60))
        run(bundle.system, init, 0.02, SolverOptions(flux="spectral"), snapshot_times=times)
        assert len(built) > 60 and max(alive_at_build) <= 1


def _state_bytes(state):
    return state.t, state.uI.tobytes(), state.uII.tobytes()


class TestStreamedRun:
    @pytest.mark.parametrize("name, ns, flux", [("carleman", (32,), "spectral"), ("heat2d", (12, 12), "rusanov")])
    def test_holds_no_handed_snapshot_and_matches_a_kept_run(self, name, ns, flux):
        grid = rb.SpatialGrid(ns, (1.0,) * len(ns))
        bundle = builder.demo(name, grid)
        init = hypersolver.well_prepared_state(bundle.system, grid, bundle.u0(grid), 0.1)
        opts = SolverOptions(flux=flux, snapshot_stride=3)
        handed, refs, alive_at_handoff = [], [], []

        def hand_off(snap):
            alive_at_handoff.append(sum(ref() is not None for ref in refs))
            refs.append(weakref.ref(snap))
            handed.append(_state_bytes(snap))
        streamed = run(bundle.system, init, 0.01, opts, snapshot_times=[0.004], on_snapshot=hand_off)
        kept = run(bundle.system, init, 0.01, opts, snapshot_times=[0.004])
        assert len(handed) > 3 and max(alive_at_handoff) == 0 and all(ref() is None for ref in refs)
        assert streamed.snapshots == [] and handed == [_state_bytes(s) for s in kept.snapshots]
        assert streamed.times.tobytes() == kept.times.tobytes()
        assert _state_bytes(streamed.final) == _state_bytes(kept.final)
        assert streamed.steps_csv() == kept.steps_csv()
        assert (streamed.sup_uI, streamed.sup_eps_uII) == (kept.sup_uI, kept.sup_eps_uII)


def _per_cell(fields):
    """Constant (rows, cols) matrices as callables of x: the per-cell path of the same values."""
    return tuple(lambda x, c=np.asarray(c): np.broadcast_to(c[:, :, None], c.shape + (x.shape[1],))
                 for c in fields)


class TestConstantCoefficients:
    @pytest.mark.parametrize("name, ns", [("heat2d", (12, 12)), ("aniso2d", (12, 16)), ("heat1d", (32,))])
    def test_one_point_transport_table_is_every_cells(self, name, ns):
        grid = rb.SpatialGrid(ns, (1.0,) * len(ns))
        sys = builder.demo(name, grid).system
        cells = replace(sys, m12=_per_cell(sys.m12), m21=_per_cell(sys.m21), m22=_per_cell(sys.m22))
        assert sys.constant_coefficients and not cells.constant_coefficients
        one, each = (hypersolver._Workspace(s, grid, 0.1, SolverOptions()) for s in (sys, cells))
        assert one.cmat.shape == (grid.d, sys.n, sys.n) and each.cmat.shape == (grid.d, sys.n, sys.n) + ns
        spread = np.broadcast_to(one.cmat.reshape(one.cmat.shape + (1,) * grid.d), each.cmat.shape)
        assert np.ascontiguousarray(spread).tobytes() == each.cmat.tobytes()
        assert one.speed == each.speed and one.dt_max == each.dt_max

    @pytest.mark.parametrize("name, ns, flux", [("heat2d", (12, 12), "rusanov"), ("aniso2d", (12, 16), "rusanov"),
                                                ("aniso2d", (8, 12), "spectral"), ("heat1d", (32,), "spectral"),
                                                ("sqrt-heat", (32,), "spectral")])
    def test_kept_source_matrix_is_the_per_step_per_cell_solve(self, monkeypatch, name, ns, flux):
        grid = rb.SpatialGrid(ns, (1.0,) * len(ns))
        bundle = builder.demo(name, grid)
        sys = bundle.system
        q = np.asarray(sys.q_nu)
        per_step = replace(sys, q_nu=lambda x, u, z: np.broadcast_to(q[:, :, None], q.shape + (z.shape[-1],)))
        built = []
        matrix = hypersolver._Workspace._source_matrix
        monkeypatch.setattr(hypersolver._Workspace, "_source_matrix",
                            lambda ws, dt: built.append(dt) or matrix(ws, dt))
        # irregular snapshot times clip steps, whose matrix is built per step
        times = np.sort(np.random.default_rng(3).uniform(0.0, 0.01, 5))
        init = hypersolver.well_prepared_state(sys, grid, bundle.u0(grid), 0.1)
        kept, each = (run(s, init, 0.01, SolverOptions(flux=flux), snapshot_times=times) for s in (sys, per_step))
        assert q.shape == (sys.m, sys.m) and (np.count_nonzero(q) > sys.m) == (name == "aniso2d")
        # the kept inverse's product against LAPACK's per-cell solve: equal to round-off
        assert kept.times.tobytes() == each.times.tobytes()
        for a, b in zip(kept.snapshots, each.snapshots):
            for f, g in ((a.uI, b.uI), (a.uII, b.uII)):
                assert np.max(np.abs(f - g)) <= 1e-13 * np.max(np.abs(g))
        assert kept.records.dt == each.records.dt
        assert np.allclose(kept.records.energy, each.records.energy, rtol=1e-13, atol=0.0)
        # dt_max's matrix is built once, a clipped step's once per step, and the per-cell run builds none
        dt_max = max(kept.records.dt)
        clipped = [dt for dt in kept.records.dt[:-1] if dt != dt_max]
        assert len(clipped) >= 5 and sorted(built) == sorted([dt_max] + clipped)

    def test_singular_source_matrix_is_refused(self):
        # q_nu = (eps^2 / dt_max) diag(1, 2) makes eps^2 I - dt_max q_nu singular: no inverse of it is taken
        grid = rb.SpatialGrid((12, 12), (1.0, 1.0))
        bundle = builder.demo("heat2d", grid)
        eps = 0.1
        dt_max = hypersolver._Workspace(bundle.system, grid, eps, SolverOptions()).dt_max
        sys = replace(bundle.system, q_nu=(eps ** 2 / dt_max) * np.diag([1.0, 2.0]))
        init = rb.FieldState(grid, bundle.u0(grid), np.zeros((2,) + grid.ns), 0.0, eps)
        with pytest.raises(SolverError, match=rf"eps=0.1, dt={dt_max:.6g} is singular to working precision: "
                                              r"condition number (inf|[0-9.e+]+) > 1e12"):
            run(sys, init, 0.01)


class TestSingleModeDecay:
    def test_discrete_rate_approaches_slow_root(self, grid256):
        # per-step amplification of the mode, measured after the initial
        # transient, converges to the quadratic-formula root as dt shrinks
        sys = builder.demo("heat1d", grid256).system
        eps = 0.05
        oracle = parasolver.exact_mode_oracle(1.0, [TWO_PI], 0.0, eps=eps)
        lam = oracle.lambda_slow.real
        assert lam == pytest.approx(-44.408763, abs=1e-5)
        init = hypersolver.well_prepared_state(sys, grid256, sine_mode(grid256), eps)
        opts = SolverOptions(flux="spectral")
        gaps = []
        settle = 0.02  # fast transient is dead by then at every dt
        for dt in (8e-5, 4e-5, 2e-5):
            ws = hypersolver._Workspace(sys, grid256, eps, opts)
            uI, uII = init.uI, init.uII
            for _ in range(int(round(settle / dt))):
                uI, uII = ws.step(uI, uII, dt)
            before = np.abs(np.fft.fft(uI[0]))[1]
            uI, uII = ws.step(uI, uII, dt)
            after = np.abs(np.fft.fft(uI[0]))[1]
            gaps.append(abs(np.log(after / before) / dt - lam))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.005 * abs(lam)

    def test_final_amplitude_matches_ode(self, heat_bundle, grid256):
        eps = 0.05
        init = hypersolver.well_prepared_state(
            heat_bundle.system, grid256, heat_bundle.u0(grid256), eps
        )
        oracle = parasolver.exact_mode_oracle(1.0, [TWO_PI], 0.1, eps=eps)
        u_exact, _ = oracle.evolve(1.0, -1j * TWO_PI, 0.1)
        for flux in ("spectral", "rusanov"):
            traj = run(heat_bundle.system, init, 0.1, SolverOptions(flux=flux))
            amp = np.abs(np.fft.fft(traj.final.uI[0]))[1] * 2 / 256
            assert amp == pytest.approx(abs(u_exact), abs=2.5e-3), flux


class TestConservation:
    def test_rusanov_conserves_mean(self, grid256):
        bundle = builder.demo("heat1d", grid256, amplitude=0.5, offset=1.0)
        init = hypersolver.well_prepared_state(bundle.system, grid256, bundle.u0(grid256), 0.05)
        traj = run(bundle.system, init, 0.05, SolverOptions(flux="rusanov"))
        m0 = np.sum(init.uI) * grid256.cell_volume
        mT = np.sum(traj.final.uI) * grid256.cell_volume
        assert abs(mT - m0) <= 1e-12 * abs(m0)

    def test_quasilinear_transport_conserves(self, grid128):
        bundle = builder.demo("quasilinear-bu2", grid128, offset=0.1)
        init = hypersolver.well_prepared_state(bundle.system, grid128, bundle.u0(grid128), 0.1)
        traj = run(bundle.system, init, 0.02, SolverOptions(flux="rusanov"))
        m0 = np.sum(init.uI) * grid128.cell_volume
        mT = np.sum(traj.final.uI) * grid128.cell_volume
        assert abs(mT - m0) <= 1e-12 * max(abs(m0), 1.0)


class TestEnergyDissipation:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_source_free_energy_never_grows(self, dim):
        if dim == 1:
            grid = rb.SpatialGrid((128,), (1.0,))
            bundle = builder.demo("heat1d", grid)
        else:
            grid = rb.SpatialGrid((32, 32), (1.0, 1.0))
            bundle = builder.demo("heat2d", grid)
        init = hypersolver.well_prepared_state(bundle.system, grid, bundle.u0(grid), 0.1)
        traj = run(bundle.system, init, 0.02, SolverOptions(flux="rusanov"))
        energies = traj.records.energy
        for before, after in zip(energies, energies[1:]):
            assert after <= before * (1.0 + 1e-10)


class TestUniformBounds:
    def test_sup_norms_bounded_across_ladder(self, heat_bundle, grid256):
        u0 = heat_bundle.u0(grid256)
        sups_uI, sups_uII = [], []
        for eps in (0.2, 0.1, 0.05):
            init = hypersolver.well_prepared_state(heat_bundle.system, grid256, u0, eps)
            traj = run(heat_bundle.system, init, 0.05, SolverOptions(flux="spectral"))
            sups_uI.append(traj.sup_uI)
            sups_uII.append(traj.sup_eps_uII / eps)
        assert max(sups_uI) <= 1.5 * l2_norm(u0, grid256)
        assert max(sups_uII) / min(sups_uII) < 1.2


class TestSourceSolvers:
    def test_raw_decouple_runs_like_the_builders_carleman(self, grid128):
        # the builder adds only positive_states and a name, which no step of this run reads
        raw, transform, sys = builder.carleman()
        u0 = builder.demo("carleman", grid128).u0(grid128)
        init = hypersolver.well_prepared_state(sys, grid128, u0, 0.1)
        t1 = run(sys, init, 0.01, SolverOptions(flux="spectral"))
        t2 = run(builder.decouple(raw, transform), init, 0.01, SolverOptions(flux="spectral"))
        for a, b in ((t1.final.uI, t2.final.uI), (t1.final.uII, t2.final.uII),
                     (t1.records.t, t2.records.t), (t1.records.energy, t2.records.energy)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestRunBookkeeping:
    def test_non_finite_state_names_time_and_cell(self, grid64):
        # one Rusanov step spreads the spike to 2.2 in cell 10 and 0.9 in cells 9 and 11;
        # the explicit reaction 1e308 u^2 overflows only where |u| > 1.34
        sys = replace(builder.demo("heat1d", grid64).system, reaction=lambda u: 1e308 * u ** 2)
        uI = np.zeros((1, 64))
        uI[0, 10] = 4.0
        init = rb.FieldState(grid64, uI, np.zeros((1, 64)), 0.0, 0.1)
        dt = hypersolver._Workspace(sys, grid64, 0.1, SolverOptions()).max_dt()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError, match=f"state became non-finite at t={dt:.6g}, cell 10$"):
                run(sys, init, 0.01)

    def test_finite_state_with_overflowing_norm_runs(self, grid64):
        # ||uI||^2 of a 1e200 amplitude overflows to inf, yet every entry stays finite
        sys = builder.demo("heat1d", grid64).system
        init = hypersolver.well_prepared_state(sys, grid64, sine_mode(grid64, amplitude=1e200), 0.1)
        dt = hypersolver._Workspace(sys, grid64, 0.1, SolverOptions()).max_dt()
        with np.errstate(over="ignore"):
            traj = run(sys, init, dt)
        assert list(traj.records.t) == [0.0, dt]
        assert traj.records.energy[-1] == np.inf
        assert np.all(np.isfinite(traj.final.uI)) and np.all(np.isfinite(traj.final.uII))

    def test_zero_horizon_gives_initial_snapshot(self, grid64):
        sys = builder.demo("heat1d", grid64).system
        init = rb.FieldState(grid64, np.zeros((1, 64)), np.zeros((1, 64)), 0.0, 0.1)
        traj = run(sys, init, 0.0)
        assert len(traj.snapshots) == 1
        assert traj.final.t == 0.0

    @pytest.mark.parametrize("T", [-0.1, np.nan, np.inf])
    def test_bad_horizon_raises(self, grid64, T):
        sys = builder.demo("heat1d", grid64).system
        init = rb.FieldState(grid64, np.zeros((1, 64)), np.zeros((1, 64)), 0.0, 0.1)
        with pytest.raises(ValueError, match="cannot integrate to (negative|non-finite) time"):
            run(sys, init, T)

    def test_snapshot_times_landed_exactly(self, grid64, heat_bundle):
        sys = builder.demo("heat1d", grid64).system
        init = hypersolver.well_prepared_state(sys, grid64, sine_mode(grid64), 0.1)
        times = np.linspace(0.0, 0.01, 6)
        traj = run(sys, init, 0.01, SolverOptions(flux="spectral"), snapshot_times=times)
        assert np.allclose(traj.times, times, atol=1e-12)

    def test_repeated_snapshot_times_match_reference(self, grid64):
        bundle = builder.demo("heat1d", grid64)
        init = hypersolver.well_prepared_state(bundle.system, grid64, bundle.u0(grid64), 0.1)
        wanted = [0.005, 0.005, 0.01]
        traj = run(bundle.system, init, 0.02, SolverOptions(flux="spectral"), snapshot_times=wanted)
        ref_times, _ = parasolver.run_reference(bundle.target, bundle.u0(grid64), grid64, 0.02,
                                                snapshot_times=wanted)
        assert np.allclose(ref_times, [0.0, 0.005, 0.01, 0.02], rtol=0, atol=1e-15)
        assert np.allclose(traj.times, ref_times, rtol=0, atol=1e-12)

    def test_near_duplicate_snapshot_times_match_reference(self, grid64):
        # times within 1e-12 * max(T, 1) of each other, of 0 or of T merge
        bundle = builder.demo("heat1d", grid64)
        init = hypersolver.well_prepared_state(bundle.system, grid64, bundle.u0(grid64), 0.1)
        wanted = [1e-15, 0.005, 0.005 + 1e-15, 0.01, 0.02 - 1e-15]
        traj = run(bundle.system, init, 0.02, SolverOptions(flux="spectral"), snapshot_times=wanted)
        ref_times, _ = parasolver.run_reference(bundle.target, bundle.u0(grid64), grid64, 0.02,
                                                snapshot_times=wanted)
        assert list(ref_times) == [0.0, 0.005, 0.01, 0.02]
        assert list(traj.times) == list(ref_times)

    def test_negative_snapshot_stride_refused(self):
        with pytest.raises(ValueError, match="snapshot_stride"):
            SolverOptions(snapshot_stride=-3)

    def test_records_monotone_time(self, grid64):
        sys = builder.demo("heat1d", grid64).system
        init = hypersolver.well_prepared_state(sys, grid64, sine_mode(grid64), 0.1)
        traj = run(sys, init, 0.01, SolverOptions(flux="spectral"))
        ts = traj.records.t
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert traj.final.t == pytest.approx(0.01, abs=1e-12)

    @pytest.mark.parametrize("flux, low", [("spectral", "-0.0243845"), ("rusanov", "-0.0324122")],
                             ids=["spectral", "rusanov"])
    def test_positive_states_raise_at_the_first_dip(self, grid64, flux, low):
        # carleman at amplitude 0.99 starts at min 0.01; its first step takes uI below 0 in
        # cells 44, 45, 50 and 51, lowest in 50 (tied with its mirror 45 to round-off)
        bundle = builder.demo("carleman", grid64, amplitude=0.99)
        assert bundle.system.positive_states
        init = hypersolver.well_prepared_state(bundle.system, grid64, bundle.u0(grid64), 0.05)
        dt = hypersolver._Workspace(bundle.system, grid64, 0.05, SolverOptions()).max_dt()
        assert dt == pytest.approx(3.515625e-4, rel=1e-12)
        with pytest.raises(SolverError, match=rf"^uI left the positive states of carleman at eps=0.05, "
                                              rf"t=0.0003515625: uI={low} at cell 50 \(x=0.7890625\)$"):
            run(bundle.system, init, 0.05, SolverOptions(flux=flux))

    def test_positive_states_refuse_a_nonpositive_start(self, grid64):
        _, _, sys = builder.carleman()
        # 0.5 + sin(2 pi x) is lowest in cells 47 and 48, either side of x = 3/4; the first is named
        init = rb.FieldState(grid64, sine_mode(grid64, offset=0.5), np.zeros((1, 64)), 0.0, 0.1)
        with pytest.raises(SolverError, match=r"at eps=0.1, t=0: uI=-0.498795 at cell 47 \(x=0.7421875\)$"):
            run(sys, init, 0.01)

    def test_undeclared_states_are_not_checked(self, grid64):
        sys = builder.demo("heat1d", grid64).system
        init = hypersolver.well_prepared_state(sys, grid64, sine_mode(grid64), 0.1)
        assert not sys.positive_states
        assert run(sys, init, 0.01).final.uI.min() < 0.0

    def test_step_bound_refuses_an_unfinishable_run(self, grid64):
        sys = builder.demo("heat1d", grid64).system
        init = rb.FieldState(grid64, np.zeros((1, 64)), np.zeros((1, 64)), 0.0, 1e-9)
        with pytest.raises(SolverError, match=r"^T=0.05 at eps=1e-09 needs 7.11111e\+09 steps of "
                                              r"dt=7.03125e-12, more than MAX_STEPS = 1000000$"):
            run(sys, init, 0.05, SolverOptions(flux="spectral"))

    def test_step_bound_is_ceil_of_horizon_over_step(self, grid64, monkeypatch):
        # dt = 0.45 * 0.1 / 64 = 7.03125e-4, so T = 0.01 takes ceil(14.22) = 15 steps
        sys = builder.demo("heat1d", grid64).system
        init = hypersolver.well_prepared_state(sys, grid64, sine_mode(grid64), 0.1)
        monkeypatch.setattr(hypersolver, "MAX_STEPS", 15)
        assert len(run(sys, init, 0.01).records) - 1 == 15
        monkeypatch.setattr(hypersolver, "MAX_STEPS", 14)
        with pytest.raises(SolverError, match="needs 15 steps"):
            run(sys, init, 0.01)


class TestSnapshotExport:
    def test_schema_1d(self, grid64):
        state = rb.FieldState(grid64, np.zeros((1, 64)), np.ones((1, 64)), 0.0, 0.1)
        text = snapshot_csv(state)
        lines = text.strip().split("\n")
        assert lines[0] == "x,uI_1,uII_1"
        assert len(lines) == 65
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(grid64.h[0] / 2)

    def test_schema_2d(self):
        g = rb.SpatialGrid((4, 8), (1.0, 2.0))
        state = rb.FieldState(g, np.zeros((1, 4, 8)), np.zeros((2, 4, 8)), 0.0, 0.1)
        lines = snapshot_csv(state).strip().split("\n")
        assert lines[0] == "x,y,uI_1,uII_1,uII_2"
        assert len(lines) == 33

    def test_step_log_schema(self, grid64):
        sys = builder.demo("heat1d", grid64).system
        init = hypersolver.well_prepared_state(sys, grid64, sine_mode(grid64), 0.1)
        traj = run(sys, init, 0.002, SolverOptions(flux="spectral"))
        lines = traj.steps_csv().strip().split("\n")
        assert lines[0] == "t,dt,energy,max_speed"
        assert len(lines) == len(traj.records) + 1
