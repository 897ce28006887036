import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import relaxbench as rb
from relaxbench import builder, diagnostics, hypersolver, parasolver
from relaxbench.core import ConvergenceTable, LadderRow
from relaxbench.diagnostics import (
    check_ladder,
    convergence_study,
    energy,
    energy_inequality_check,
    limit_residual,
    space_time_error,
)
from relaxbench.hypersolver import SolverOptions

from conftest import sine_mode

TWO_PI = 2.0 * np.pi


class TestEnergy:
    def test_zero_state(self, grid64):
        s = rb.FieldState(grid64, np.zeros((1, 64)), np.zeros((1, 64)), 0.0, 0.1)
        assert energy(s) == 0.0

    def test_unit_sine(self, grid256):
        s = rb.FieldState(grid256, sine_mode(grid256), np.zeros((1, 256)), 0.0, 0.1)
        assert energy(s) == pytest.approx(0.5, abs=1e-12)

    def test_constant_uII_with_weight(self, grid64):
        s = rb.FieldState(grid64, np.zeros((1, 64)), np.ones((1, 64)), 0.0, 0.1)
        assert energy(s) == pytest.approx(0.01, abs=1e-14)

    @given(shift=st.integers(min_value=0, max_value=63))
    def test_translation_invariance(self, shift):
        grid = rb.SpatialGrid((64,), (1.0,))
        u = sine_mode(grid, amplitude=0.7, offset=0.2)
        v = np.cos(TWO_PI * grid.axis_centers(0))[None]
        a = rb.FieldState(grid, u, v, 0.0, 0.1)
        b = rb.FieldState(grid, np.roll(u, shift, axis=1), np.roll(v, shift, axis=1), 0.0, 0.1)
        assert abs(energy(a) - energy(b)) <= 1e-12 * max(energy(a), 1.0)


class TestEnergyInequality:
    def test_source_free_requires_no_growth(self, grid128):
        bundle = builder.demo("heat1d", grid128)
        init = hypersolver.well_prepared_state(bundle.system, grid128, bundle.u0(grid128), 0.05)
        traj = hypersolver.run(bundle.system, init, 0.05, SolverOptions(flux="rusanov"))
        chk = energy_inequality_check(traj, lam0=1.0)
        assert chk.fitted_c == 0.0
        assert chk.passed
        assert chk.integral_lhs <= chk.integral_rhs

    def test_zero_trajectory_passes(self, grid64):
        sys = builder.demo("heat1d", grid64).system
        init = rb.FieldState(grid64, np.zeros((1, 64)), np.zeros((1, 64)), 0.0, 0.1)
        traj = hypersolver.run(sys, init, 0.01, SolverOptions(flux="spectral"))
        chk = energy_inequality_check(traj, lam0=1.0)
        assert chk.passed and chk.fitted_c == 0.0

    def test_logistic_source_within_lipschitz_rate(self, grid128):
        target = builder.ReactionDiffusion(
            k=1, d=1, diffusion=builder.isotropic_diffusion(1, 1),
            f=lambda u: u * (1.0 - u),
        )
        sys = builder.from_reaction_diffusion(target)
        u0 = sine_mode(grid128, amplitude=0.4, offset=0.5)  # stays in [0, 1]
        init = hypersolver.well_prepared_state(sys, grid128, u0, 0.05)
        traj = hypersolver.run(sys, init, 0.05, SolverOptions(flux="rusanov"))
        chk = energy_inequality_check(traj, lam0=1.0)
        assert chk.passed
        assert chk.fitted_c <= 2.0

    def test_growth_is_fitted(self, grid64):
        # synthetic trajectory growing like e^t must fit c close to 1
        from relaxbench.hypersolver import StepRecord, Trajectory

        recs = [StepRecord(t, 0.01, float(np.exp(t)), 1.0, 0.0) for t in np.linspace(0, 1, 101)]
        traj = Trajectory(snapshots=[], records=recs, sup_uI=0.0, sup_eps_uII=0.0)
        chk = energy_inequality_check(traj, lam0=1.0)
        assert chk.fitted_c == pytest.approx(1.0, abs=1e-6)


class TestLimitResidual:
    def test_zero_state(self, grid64):
        sys = builder.demo("heat1d", grid64).system
        s = rb.FieldState(grid64, np.zeros((1, 64)), np.zeros((1, 64)), 0.0, 0.1)
        assert limit_residual(s, sys) == 0.0

    def test_well_prepared_state_is_on_manifold(self, grid128):
        for name in ("heat1d", "carleman", "quasilinear-bu2", "sqrt-heat"):
            bundle = builder.demo(name, grid128)
            init = hypersolver.well_prepared_state(
                bundle.system, grid128, bundle.u0(grid128), 0.05
            )
            assert limit_residual(init, bundle.system) <= 1e-10, name

    def test_unprepared_state_has_residual(self, grid128):
        bundle = builder.demo("heat1d", grid128)
        state = rb.FieldState(grid128, bundle.u0(grid128), np.zeros((1, 128)), 0.0, 0.05)
        assert limit_residual(state, bundle.system) > 1e-2

    def test_residual_decreases_down_ladder(self, grid128):
        bundle = builder.demo("heat1d", grid128)
        vals = []
        for eps in (0.2, 0.1, 0.05):
            init = hypersolver.well_prepared_state(bundle.system, grid128, bundle.u0(grid128), eps)
            traj = hypersolver.run(bundle.system, init, 0.1, SolverOptions(flux="spectral"))
            vals.append(limit_residual(traj.final, bundle.system))
        assert vals[0] > vals[1] > vals[2]


class TestSpaceTimeError:
    def test_identical_fields_give_zero(self, grid64):
        times = np.linspace(0, 1, 5)
        fields = np.random.default_rng(0).normal(size=(5, 1, 64))
        assert space_time_error(times, fields, fields, grid64) == 0.0

    def test_constant_difference(self, grid64):
        times = np.linspace(0, 1, 5)
        a = np.zeros((5, 1, 64))
        b = np.ones((5, 1, 64))
        assert space_time_error(times, a, b, grid64) == pytest.approx(1.0, rel=1e-12)


class TestConvergenceStudy:
    def test_ladder_preconditions(self, grid64):
        bundle = builder.demo("heat1d", grid64)
        with pytest.raises(ValueError, match="three"):
            convergence_study(bundle.system, bundle.target, bundle.u0(grid64),
                              grid64, 0.01, [0.2])
        with pytest.raises(ValueError, match="strictly"):
            convergence_study(bundle.system, bundle.target, bundle.u0(grid64),
                              grid64, 0.01, [0.1, 0.2, 0.05])

    @pytest.mark.parametrize("T, eps_list, message", [
        (0.0, [0.2, 0.1, 0.05], "positive horizon"),
        (0.01, [0.2, 0.1, 0.0], "stay positive"),
        (0.01, [0.2, 0.1, -0.1], "stay positive"),
        (1e-13, [0.2, 0.1, 0.05], "too short"),
    ])
    def test_ladder_rules_checked_before_the_reference(self, grid64, monkeypatch, T, eps_list, message):
        def no_reference(*args, **kwargs):
            raise AssertionError("the reference ran")

        monkeypatch.setattr(parasolver, "run_reference", no_reference)
        bundle = builder.demo("heat1d", grid64)
        with pytest.raises(ValueError, match=message):
            convergence_study(bundle.system, bundle.target, bundle.u0(grid64), grid64, T, eps_list)

    def test_mini_heat_ladder_monotone(self, grid128):
        bundle = builder.demo("heat1d", grid128)
        table = convergence_study(
            bundle.system, bundle.target, bundle.u0(grid128), grid128, 0.05,
            [0.2, 0.1, 0.05], opts=SolverOptions(flux="spectral"),
        )
        assert table.errI_monotone
        assert table.rows[0].observed_order is None
        assert all(r.observed_order is not None for r in table.rows[1:])

    def test_zero_reference_for_null_limit(self, grid128):
        bundle = builder.demo("null-limit", grid128)
        table = convergence_study(
            bundle.system, None, bundle.u0(grid128), grid128, 0.05,
            [0.2, 0.1, 0.05], opts=SolverOptions(flux="rusanov"),
        )
        assert table.errI_monotone

    def test_threaded_study_identical(self, grid128):
        bundle = builder.demo("heat1d", grid128)
        args = (bundle.system, bundle.target, bundle.u0(grid128), grid128, 0.02,
                [0.2, 0.1, 0.05])
        kw = dict(opts=SolverOptions(flux="spectral"))
        t1 = convergence_study(*args, **kw, threads=1)
        t4 = convergence_study(*args, **kw, threads=4)
        default = convergence_study(*args, **kw)
        assert t1.to_csv() == t4.to_csv() == default.to_csv()

    def test_never_more_workers_than_jobs(self, grid64, process_pools):
        # 64 usable CPUs: a 3-rung ladder has 4 jobs with a reference and 3 without one
        heat, null = builder.demo("heat1d", grid64), builder.demo("null-limit", grid64)
        opts = SolverOptions(flux="rusanov")
        for bundle, threads in ((heat, None), (null, None), (heat, 2), (heat, 1)):
            convergence_study(bundle.system, bundle.target, bundle.u0(grid64), grid64, 0.01,
                              [0.2, 0.1, 0.05], opts=opts, threads=threads)
        assert process_pools == [4, 3, 2]

    def test_worker_count(self, monkeypatch):
        workers = diagnostics._ladder_workers
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert [workers(5, t) for t in (None, 1, 2, 8)] == [2, 1, 2, 2]
        assert workers(1) == 1
        for bad in (0, -5):
            with pytest.raises(ValueError, match="threads must be at least 1"):
                check_ladder(0.1, [0.2, 0.1, 0.05], bad)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert workers(5) == 3
        monkeypatch.delattr(os, "fork")
        assert workers(5) == 1


class TestConvergenceTable:
    def test_csv_schema(self):
        table = ConvergenceTable(rows=(
            LadderRow(0.2, 1.0, 0.5, 0.4, None),
            LadderRow(0.1, 0.25, 0.2, 0.2, 2.0),
        ))
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "epsilon,errI,errII_weak,sup_eps_uII,observed_order"
        assert lines[1].endswith(",")  # first row has empty order
        assert lines[2].split(",")[-1] == "2"

    def test_rejects_non_decreasing_eps(self):
        with pytest.raises(ValueError):
            ConvergenceTable(rows=(LadderRow(0.1, 1.0, 0.0, 0.0), LadderRow(0.2, 0.5, 0.0, 0.0)))

    def test_rejects_negative_errors(self):
        with pytest.raises(ValueError):
            ConvergenceTable(rows=(LadderRow(0.2, -1.0, 0.0, 0.0),))
