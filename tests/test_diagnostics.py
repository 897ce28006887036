import contextlib
import os
import pickle
import signal
import time

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

from conftest import assert_no_child_process, sine_mode

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
        from relaxbench.hypersolver import StepLog, Trajectory

        t = np.linspace(0, 1, 101)
        log = StepLog(t, np.full(101, 0.01), np.exp(t), np.ones(101), np.zeros(101))
        traj = Trajectory(snapshots=[], records=log, sup_uI=0.0, sup_eps_uII=0.0)
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
        (0.01, [0.2, np.nan, 0.05], "stay positive, got .*nan"),
        (0.01, [0.2, 0.1, np.nan], "stay positive, got .*nan"),
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
        assert table.errI_rise() is None
        assert table.rows[0].observed_order is None
        assert all(r.observed_order is not None for r in table.rows[1:])

    def test_zero_reference_for_null_limit(self, grid128):
        bundle = builder.demo("null-limit", grid128)
        table = convergence_study(
            bundle.system, None, bundle.u0(grid128), grid128, 0.05,
            [0.2, 0.1, 0.05], opts=SolverOptions(flux="rusanov"),
        )
        assert table.errI_rise() is None

    def test_threaded_study_identical(self, grid128):
        bundle = builder.demo("heat1d", grid128)
        args = (bundle.system, bundle.target, bundle.u0(grid128), grid128, 0.02,
                [0.2, 0.1, 0.05])
        kw = dict(opts=SolverOptions(flux="spectral"))
        t1 = convergence_study(*args, **kw, threads=1)
        t4 = convergence_study(*args, **kw, threads=4)
        default = convergence_study(*args, **kw)
        assert t1.to_csv() == t4.to_csv() == default.to_csv()

    def test_rung_entries_carry_snapshots_and_sup_norms(self, grid64, process_pools):
        # a rung sends back its snapshots and sup norms only, the same from a worker as in process
        bundle = builder.demo("heat1d", grid64)
        u0, eps_list, opts = bundle.u0(grid64), [0.2, 0.1, 0.05], SolverOptions(flux="rusanov")
        args = (bundle.system, bundle.target, u0, grid64, 0.01, eps_list)
        forked, times, _ = diagnostics.ladder_runs(*args, opts=opts)
        local, _, _ = diagnostics.ladder_runs(*args, opts=opts, threads=1)
        assert process_pools == [4]
        for eps, a, b in zip(eps_list, forked, local):
            init = hypersolver.well_prepared_state(bundle.system, grid64, u0, eps)
            traj = hypersolver.run(bundle.system, init, 0.01, opts, snapshot_times=times)
            for entry in (a, b):
                assert (entry.sup_uI, entry.sup_eps_uII) == (traj.sup_uI, traj.sup_eps_uII)
                assert [s.t for s in entry.snapshots] == list(times)
                for got, want in zip(entry.snapshots, traj.snapshots):
                    assert np.array_equal(got.uI, want.uI) and np.array_equal(got.uII, want.uII)

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


def _timed_job(done, i, seconds, fail=False):
    """Sleep, then leave a file named i in the directory done, then return i or raise."""
    time.sleep(seconds)
    (done / str(i)).touch()
    if fail:
        raise ValueError(f"job {i} failed")
    return i


def _killing_job(done, i, kill):
    """Kill this process by SIGKILL, or leave a file named i in the directory done."""
    if kill:
        os.kill(os.getpid(), signal.SIGKILL)
    (done / str(i)).touch()


def _large_job(done, i):
    """8 MiB of the number i."""
    return np.full(1 << 20, float(i))


def _unpicklable_job(done, raises):
    """A function defined in here, returned or carried by a ValueError: neither can be pickled."""
    def local():
        pass

    if raises:
        raise ValueError(local)
    return local


class TestForkedJobs:
    def _submit_all(self, tmp_path, jobs):
        """Submit jobs (seconds, fail) to 2 forked workers; the most jobs pending after any submit."""
        pending = []
        with diagnostics.ForkedJobs(tmp_path, jobs=None) as pool:
            assert pool.workers == 2
            for i, (seconds, fail) in enumerate(jobs):
                pool.submit(_timed_job, i, seconds, fail)
                # a job whose file exists has ended, so this counts no more than the jobs in flight
                pending.append(i + 1 - len(list(tmp_path.iterdir())))
        assert_no_child_process()
        return pool, pending

    def test_window_bounds_the_pending_jobs_and_keeps_their_order(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pool, pending = self._submit_all(tmp_path, [(0.02, False)] * 16)
        assert pool.results == list(range(16))
        assert max(pending) <= diagnostics.WINDOW * 2 == 4

    def test_first_failing_job_in_submission_order_raises(self, tmp_path, monkeypatch):
        # job 9 fails long before job 3 does; job 3's error is the one raised
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        jobs = [(0.01, False)] * 12
        jobs[3], jobs[9] = (0.3, True), (0.0, True)
        with pytest.raises(ValueError, match="job 3 failed"):
            self._submit_all(tmp_path, jobs)
        assert_no_child_process()

    @pytest.fixture
    def two_workers(self, monkeypatch):
        """2 usable CPUs, and a TimeoutError here if a test's pool hangs for 60 s."""
        def hung(signum, frame):
            raise TimeoutError("the pool hung")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def test_killed_worker_fails_its_job_by_name(self, tmp_path, two_workers):
        # jobs 1 and 2 kill both first workers; the jobs submitted meanwhile still run, in order, on
        # the workers forked in their place, and those not started when the block is left are dropped
        with pytest.raises(ChildProcessError, match=r"^job 1 \(_killing_job\) sent no result: "
                                                    r"its worker was killed by signal 9$"):
            with diagnostics.ForkedJobs(tmp_path, jobs=None) as pool:
                for i in range(8):
                    pool.submit(_killing_job, i, i in (1, 2))
        assert_no_child_process()
        done = sorted(int(f.name) for f in tmp_path.iterdir())
        assert done == [0] + list(range(3, 2 + len(done))) and len(done) >= 3

    def test_jobs_not_started_after_a_failure_are_dropped(self, tmp_path, two_workers):
        # job 0 fails at once; jobs 2 and 3 take its worker in turn while job 1 holds the other, and
        # jobs 4 and 5 still wait when the block is left
        with pytest.raises(ValueError, match="job 0 failed"):
            with diagnostics.ForkedJobs(tmp_path, jobs=None) as pool:
                pool.submit(_timed_job, 0, 0.0, True)
                pool.submit(_timed_job, 1, 0.5)
                for i in range(2, 6):
                    pool.submit(_timed_job, i, 0.0)
        assert_no_child_process()
        assert sorted(int(f.name) for f in tmp_path.iterdir()) == [0, 1, 2, 3]

    def test_result_larger_than_a_pipe_buffer_round_trips(self, tmp_path, two_workers):
        with diagnostics.ForkedJobs(tmp_path, jobs=None) as pool:
            for i in range(3):
                pool.submit(_large_job, i)
        assert_no_child_process()
        for i, got in enumerate(pool.results):
            assert got.nbytes == 8 << 20 and np.array_equal(got, _large_job(tmp_path, i))

    @pytest.mark.parametrize("raises", [False, True], ids=["result", "error"])
    def test_unpicklable_outcome_is_its_jobs_error(self, tmp_path, two_workers, raises):
        what = r"error ValueError\(<function" if raises else "result"
        with pytest.raises(pickle.PicklingError, match=f"^the job's {what}.* cannot be pickled: "):
            with diagnostics.ForkedJobs(tmp_path, jobs=None) as pool:
                pool.submit(_timed_job, 0, 0.0)
                pool.submit(_unpicklable_job, raises)
        assert_no_child_process()

    def test_no_file_descriptor_stays_open(self, tmp_path, two_workers):
        before = len(os.listdir("/proc/self/fd"))
        for jobs, error in (([(_timed_job, 0, 0.0)] * 6, None),
                            ([(_timed_job, 0, 0.0, True)] * 3, ValueError),
                            ([(_killing_job, 0, True)] * 3, ChildProcessError),
                            ([(_unpicklable_job, False)], pickle.PicklingError),
                            ([], KeyError)):
            with pytest.raises(error) if error else contextlib.nullcontext():
                with diagnostics.ForkedJobs(tmp_path, jobs=None) as pool:
                    for fn, *args in jobs:
                        pool.submit(fn, *args)
                    if error is KeyError:
                        pool.submit(_timed_job, 0, 0.0)
                        raise KeyError("inside the block")
            assert_no_child_process()
        assert len(os.listdir("/proc/self/fd")) == before


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
