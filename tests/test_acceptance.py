"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Each test pins the tolerances stated up front; shared ladder runs are
computed once per session.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import numpy as np
import pytest

import relaxbench as rb
from relaxbench import builder, cli, diagnostics, hypersolver, parasolver, validator
from relaxbench.core import l2_norm
from relaxbench.hypersolver import SolverOptions

TWO_PI = 2.0 * np.pi
EPS_LADDER = (0.2, 0.1, 0.05, 0.025)
T_FINAL = 0.1
N_CELLS = 256

# constant-coefficient acceptance runs use exact Fourier transport and a
# reduced step so the splitting error stays well under the measured signal
LADDER_OPTS = SolverOptions(flux="spectral", cfl=0.1)


def report(criterion, label, passed=True):
    print(f"criterion {criterion} ({label}): {'PASS' if passed else 'FAIL'}")
    assert passed


@pytest.fixture(scope="session")
def grid():
    return rb.SpatialGrid((N_CELLS,), (1.0,))


@pytest.fixture(scope="session")
def heat_ladder(grid):
    bundle = builder.demo("heat1d", grid)
    entries, times, ref = diagnostics.ladder_runs(
        bundle.system, bundle.target, bundle.u0(grid), grid, T_FINAL,
        EPS_LADDER, opts=LADDER_OPTS,
    )
    return bundle, entries, times, ref


@pytest.fixture(scope="session")
def carleman_ladder(grid):
    bundle = builder.demo("carleman", grid)
    entries, times, ref = diagnostics.ladder_runs(
        bundle.system, bundle.target, bundle.u0(grid), grid, T_FINAL,
        EPS_LADDER, opts=LADDER_OPTS,
    )
    return bundle, entries, times, ref


def test_criterion_01_builder_fidelity():
    """Limit generators equal target symbols to 1e-12 relative at 64 samples."""
    g1 = rb.SpatialGrid((64,), (1.0,))
    g2 = rb.SpatialGrid((16, 16), (1.0, 1.0))
    rng = np.random.default_rng(20240811)
    for name, g in (("heat1d", g1), ("heat2d", g2), ("aniso2d", g2), ("quasilinear-bu2", g1)):
        bundle = builder.demo(name, g)
        lo, hi = bundle.state_box
        worst = 0.0
        for _ in range(64):
            x = rng.uniform(0.0, 1.0, g.d)
            u = rng.uniform(lo[0], hi[0], bundle.system.k)
            xi = rng.normal(size=g.d)
            xi /= np.linalg.norm(xi)
            got = rb.limit_generator(bundle.system, x, u, xi)
            if isinstance(bundle.target, builder.ReactionDiffusion):
                want = -bundle.target.second_order_symbol(x, xi)
            else:
                want = -bundle.target.second_order_symbol(u, xi)
            scale = max(np.max(np.abs(want)), 1e-300)
            worst = max(worst, float(np.max(np.abs(got - want)) / scale))
        assert worst <= 1e-12, (name, worst)
    report(1, "builder fidelity")


def test_criterion_02_validator_fixtures(grid):
    """Named fixtures pass/fail exactly as the structure theory dictates."""
    for name in ("carleman", "heat1d"):
        bundle = builder.demo(name, grid)
        samples = validator.SampleSet.build(
            grid, bundle.system.k, bundle.system.m, u_box=bundle.state_box
        )
        rep = validator.validate_all(
            bundle.system, samples, target=bundle.target, symmetrizer=bundle.symmetrizer
        )
        assert rep.passed, (name, rep.failing())

    null = builder.demo("null-limit", grid)
    samples = validator.SampleSet.build(grid, 1, 1, u_box=null.state_box)
    rep = validator.validate_all(null.system, samples, symmetrizer=null.symmetrizer)
    assert rep.failing() == ("conserved_block",)

    tri = builder.ReactionDiffusion(
        k=2, d=1, diffusion=np.array([[1.0, 2.0], [0.0, 1.0]]).reshape(1, 1, 2, 2)
    )
    pet = validator.check_petrowski(tri, samples, mode="petrowski")
    strong = validator.check_petrowski(tri, samples, mode="strong")
    assert pet.passed and abs(pet.margin - 1.0) <= 1e-9
    assert not strong.passed
    report(2, "validator fixtures")


def test_criterion_03_mode_oracle_equivalence(grid):
    """Final amplitude matches the exact mode pair within 2e-3; order >= 0.9."""
    bundle = builder.demo("heat1d", grid)
    eps = 0.05
    init = hypersolver.well_prepared_state(bundle.system, grid, bundle.u0(grid), eps)
    oracle = parasolver.exact_mode_oracle(1.0, [TWO_PI], T_FINAL, eps=eps)
    assert oracle.lambda_slow.real == pytest.approx(-44.4086, abs=1e-2)
    u_exact, _ = oracle.evolve(1.0, -1j * TWO_PI, T_FINAL)

    gaps = []
    for cfl in (0.45, 0.225):
        traj = hypersolver.run(bundle.system, init, T_FINAL,
                               SolverOptions(flux="spectral", cfl=cfl))
        amp = np.abs(np.fft.fft(traj.final.uI[0]))[1] * 2 / N_CELLS
        gaps.append(abs(amp - abs(u_exact)))
    assert gaps[0] <= 2e-3, gaps
    order = np.log2(gaps[0] / gaps[1])
    assert order >= 0.9, (gaps, order)
    report(3, "mode-oracle equivalence")


def _ls_slope(eps_list, errs):
    return float(np.polyfit(np.log(eps_list), np.log(errs), 1)[0])


def test_criterion_04_eps_ladder_convergence(heat_ladder, carleman_ladder, grid):
    """errI strictly decreasing; heat order matches the mode-ODE prediction."""
    _, heat_entries, times, _ = heat_ladder
    heat_errs = [e.errI for e in heat_entries]
    assert all(b < a for a, b in zip(heat_errs, heat_errs[1:])), heat_errs

    _, carleman_entries, _, _ = carleman_ladder
    carl_errs = [e.errI for e in carleman_entries]
    assert all(b < a for a, b in zip(carl_errs, carl_errs[1:])), carl_errs

    # oracle-predicted errors: push the exact mode pair through the same
    # space-time metric against the exact parabolic decay
    pred = parasolver.oracle_ladder_errors(times, EPS_LADDER)
    observed = _ls_slope(EPS_LADDER, heat_errs)
    predicted = _ls_slope(EPS_LADDER, pred)
    assert abs(observed - predicted) <= 0.25, (observed, predicted)
    report(4, "eps-ladder convergence")


def test_criterion_05_uniform_bounds(heat_ladder, carleman_ladder, grid):
    """sup_t norms bounded uniformly; eps-weighted sup scales like eps."""
    for bundle, entries, _, _ in (heat_ladder, carleman_ladder):
        u0 = bundle.u0(grid)
        sup_uI = [e.trajectory.sup_uI for e in entries]
        assert max(sup_uI) <= 1.5 * l2_norm(u0, grid), bundle.name
        fitted_c = [e.trajectory.sup_eps_uII / e.eps for e in entries]
        assert max(fitted_c) / min(fitted_c) <= 1.2, (bundle.name, fitted_c)
        assert max(e.trajectory.sup_eps_uII for e in entries) <= 2.0 * max(fitted_c) * EPS_LADDER[0]
    report(5, "uniform bounds")


def test_criterion_06_energy_law(grid):
    """Per-step energy decay, integrated source bound, Gronwall fit."""
    bundle = builder.demo("heat1d", grid)
    samples = validator.SampleSet.build(grid, 1, 1, u_box=bundle.state_box)
    lam0 = validator.check_dissipativity(bundle.system, samples).margin
    assert lam0 == pytest.approx(1.0, abs=1e-12)

    init = hypersolver.well_prepared_state(bundle.system, grid, bundle.u0(grid), 0.05)
    traj = hypersolver.run(bundle.system, init, 0.05, SolverOptions(flux="rusanov"))
    energies = [r.energy for r in traj.records]
    assert all(b <= a * (1.0 + 1e-10) for a, b in zip(energies, energies[1:]))
    chk = diagnostics.energy_inequality_check(traj, lam0)
    assert chk.fitted_c == 0.0
    assert chk.integral_lhs <= init_energy_bound(init)
    assert chk.passed

    logistic = builder.ReactionDiffusion(
        k=1, d=1, diffusion=builder.isotropic_diffusion(1, 1), f=lambda u: u * (1.0 - u)
    )
    sys_l = builder.from_reaction_diffusion(logistic)
    x = grid.axis_centers(0)
    u0 = (0.5 + 0.4 * np.sin(TWO_PI * x))[None]
    init_l = hypersolver.well_prepared_state(sys_l, grid, u0, 0.05)
    traj_l = hypersolver.run(sys_l, init_l, 0.05, SolverOptions(flux="rusanov"))
    chk_l = diagnostics.energy_inequality_check(traj_l, lam0)
    assert chk_l.passed and chk_l.fitted_c <= 2.0
    report(6, "energy law")


def init_energy_bound(init):
    # source-free Gronwall constant c = 0 gives E(0) (e^0 + 2) = 3 E(0)
    return 3.0 * diagnostics.energy(init)


def test_criterion_07_limit_relation_residual(heat_ladder, carleman_ladder):
    """Weak residual of the relaxed second relation decreases down the ladder."""
    for _, entries, _, _ in (heat_ladder, carleman_ladder):
        res = [e.errII_weak for e in entries]
        assert all(b < a for a, b in zip(res, res[1:])), res
    report(7, "limit relation residual")


def test_criterion_08_null_relaxation(grid):
    """Structure-violating fixture relaxes toward the null solution."""
    bundle = builder.demo("null-limit", grid)
    u0 = bundle.u0(grid)
    init_norm = l2_norm(u0, grid)
    norms = []
    for eps in EPS_LADDER:
        init = hypersolver.well_prepared_state(bundle.system, grid, u0, eps)
        traj = hypersolver.run(bundle.system, init, T_FINAL, SolverOptions(flux="rusanov"))
        norms.append(l2_norm(traj.final.uI, grid))
    assert all(b < a for a, b in zip(norms, norms[1:])), norms
    assert norms[-1] < 0.10 * init_norm, (norms[-1], init_norm)
    report(8, "null relaxation")


def test_criterion_09_conservation(grid):
    """Divergence-form transport and the quasilinear reference conserve mass."""
    bundle = builder.demo("heat1d", grid, amplitude=0.5, offset=1.0)
    init = hypersolver.well_prepared_state(bundle.system, grid, bundle.u0(grid), 0.05)
    traj = hypersolver.run(bundle.system, init, 0.05, SolverOptions(flux="rusanov"))
    m0 = np.sum(init.uI) * grid.cell_volume
    mT = np.sum(traj.final.uI) * grid.cell_volume
    assert abs(mT - m0) <= 1e-12 * abs(m0), (m0, mT)

    ql = builder.carleman_limit_target()
    x = grid.axis_centers(0)
    rho0 = (1.0 + 0.5 * np.sin(TWO_PI * x))[None]
    _, fields = parasolver.run_reference(ql, rho0, grid, T_FINAL, dt=2.5e-4)
    q0 = np.sum(rho0) * grid.cell_volume
    qT = np.sum(fields[-1]) * grid.cell_volume
    assert abs(qT - q0) <= 1e-12 * abs(q0), (q0, qT)
    report(9, "conservation")


def test_criterion_10_determinism(tmp_path):
    """Identical configs give bit-identical CSVs, in worker processes or not."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[system]\nkind = demo\nname = heat1d\n"
        "[grid]\nn = 128\n"
        "[solver]\nflux = spectral\n"
        "[experiment]\nT = 0.05\nepsilon = 0.05\nepsilons = 0.2, 0.1, 0.05\n"
    )
    blobs = []
    for label, flags in (("c1", ["--threads", "1"]), ("c4", ["--threads", "4"]),
                         ("c1b", ["--threads", "1"]), ("default", [])):
        out = tmp_path / label
        assert cli.main(["converge", str(cfg), "--out", str(out), *flags]) == 0
        blobs.append((out / "convergence.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]

    runs = []
    for label in ("r1", "r2"):
        out = tmp_path / label
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        runs.append(
            (out / "snapshot_001.csv").read_bytes() + (out / "steps.csv").read_bytes()
        )
    assert runs[0] == runs[1]
    report(10, "determinism")
