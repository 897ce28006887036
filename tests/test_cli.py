import gc
import multiprocessing
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from relaxbench import cli
from relaxbench.builder import BuildError
from relaxbench.core import SingularSourceError, SymbolError
from relaxbench.hypersolver import SolverError
from relaxbench.parasolver import ReferenceError


def write_cfg(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


HEAT_CFG = """
[system]
kind = demo
name = heat1d

[grid]
n = 128

[solver]
flux = spectral

[experiment]
T = 0.05
epsilon = 0.05
epsilons = 0.2, 0.1, 0.05
"""

CARLEMAN_CFG = """
[system]
kind = demo
name = carleman

[grid]
n = 64

[experiment]
T = 0.01
epsilon = 0.1
"""


class TestConfigParsing:
    def test_missing_system_kind_named(self, tmp_path):
        cfg = write_cfg(tmp_path, "[system]\nname = heat1d\n[grid]\nn = 64\n[experiment]\nT = 0.1\n")
        with pytest.raises(cli.ConfigError, match="system.kind"):
            cli.parse_config(cfg)

    def test_unknown_key_is_hard_error(self, tmp_path):
        cfg = write_cfg(tmp_path, HEAT_CFG + "\n[solver]\nwarp = 9\n")
        with pytest.raises(cli.ConfigError, match="unknown key|duplicate"):
            cli.parse_config(cfg)

    def test_unknown_section_is_hard_error(self, tmp_path):
        cfg = write_cfg(tmp_path, HEAT_CFG + "\n[plotting]\nstyle = fancy\n")
        with pytest.raises(cli.ConfigError, match="unknown section"):
            cli.parse_config(cfg)

    def test_bad_value_reports_line(self, tmp_path):
        cfg = write_cfg(tmp_path, "[system]\nkind = demo\nname = heat1d\n[grid]\nn = wat\n[experiment]\nT = 0.1\n")
        with pytest.raises(cli.ConfigError, match="line 5"):
            cli.parse_config(cfg)

    @pytest.mark.parametrize("section, line", [
        ("solver", "source_solve = newton"), ("solver", "newton_tol = 1e-10"),
        ("solver", "newton_maxiter = 5"), ("experiment", "snapshots = 3"),
    ])
    def test_retired_keys_are_config_errors(self, tmp_path, capsys, section, line):
        # the source solve, Newton limits and ladder times follow from the system
        cfg = write_cfg(tmp_path, CARLEMAN_CFG + f"\n[{section}]\n{line}\n")
        assert cli.main(["validate", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"unknown key {section}.{line.split()[0]}" in capsys.readouterr().err

    def test_readme_config_block_builds(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        cfg = cli.parse_config(write_cfg(tmp_path, block))
        cli.build_experiment(cfg)
        for section, keys in cli.SCHEMA.items():  # and every key is documented
            for key in keys:
                assert re.search(rf"^{key} =", block, re.M), f"{section}.{key}"

    def test_comments_and_defaults(self, tmp_path):
        cfg = write_cfg(tmp_path, HEAT_CFG + "# trailing comment\n")
        values = cli.parse_config(cfg)
        assert values["solver"]["cfl"] == 0.45
        assert values["experiment"]["well_prepared"] is True


class TestValidateCommand:
    def test_carleman_demo_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, CARLEMAN_CFG)
        out = tmp_path / "out"
        assert cli.main(["validate", cfg, "--out", str(out)]) == 0
        lines = (out / "report.csv").read_text().strip().split("\n")
        assert lines[0] == "check,pass,margin,witness"
        assert len(lines) >= 7  # six or more checks all passing
        assert all(",true," in ln for ln in lines[1:])

    def test_null_limit_fails_conserved_block(self, tmp_path):
        cfg = write_cfg(tmp_path, CARLEMAN_CFG.replace("carleman", "null-limit"))
        out = tmp_path / "out"
        assert cli.main(["validate", cfg, "--out", str(out)]) == 1
        lines = (out / "report.csv").read_text().strip().split("\n")
        failing = [ln for ln in lines[1:] if ",false," in ln]
        assert len(failing) == 1
        assert failing[0].startswith("conserved_block,")
        assert "null solution" in failing[0]

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "[system]\nname = heat1d\n")
        assert cli.main(["validate", cfg, "--out", str(tmp_path / "o")]) == 2


class TestRunCommand:
    def test_heat_run_writes_snapshots_and_log(self, tmp_path):
        cfg = write_cfg(tmp_path, HEAT_CFG)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        assert (out / "snapshot_000.csv").exists()
        assert (out / "snapshot_001.csv").exists()
        steps = (out / "steps.csv").read_text().strip().split("\n")
        assert steps[0] == "t,dt,energy,max_speed"

    def test_final_amplitude_near_slow_mode_value(self, tmp_path):
        cfg = write_cfg(tmp_path, HEAT_CFG.replace("T = 0.05", "T = 0.1").replace("n = 128", "n = 256"))
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        snaps = sorted(out.glob("snapshot_*.csv"))
        data = np.loadtxt(snaps[-1], delimiter=",", skiprows=1)
        amp = np.abs(np.fft.fft(data[:, 1]))[1] * 2 / 256
        assert abs(amp - 0.01176) < 2e-3

    def test_zero_horizon_initial_snapshot_only(self, tmp_path):
        cfg = write_cfg(tmp_path, HEAT_CFG.replace("T = 0.05", "T = 0.0"))
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("snapshot_*.csv")) == ["snapshot_000.csv"]

    def test_carleman_nonpositive_density_rejected(self, tmp_path):
        body = CARLEMAN_CFG + "u0_offset = 0.2\n"  # 0.2 + 0.5 sin dips below zero
        cfg = write_cfg(tmp_path, body)
        assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_negative_horizon_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, HEAT_CFG.replace("T = 0.05", "T = -0.1"))
        out = tmp_path / "o"
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        assert "experiment.T" in capsys.readouterr().err
        assert not out.exists()

    def test_inadmissible_flux_is_config_error(self, tmp_path, capsys):
        # sqrt-heat transports by a Fourier multiplier, and [solver] flux defaults to rusanov
        cfg = write_cfg(tmp_path, CARLEMAN_CFG.replace("carleman", "sqrt-heat"))
        out = tmp_path / "o"
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        assert "solver.flux = rusanov is not admissible for demo sqrt-heat; choose from spectral" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_system_needs_flag(self, tmp_path):
        body = CARLEMAN_CFG.replace("carleman", "null-limit")
        cfg = write_cfg(tmp_path, body)
        assert cli.main(["run", cfg, "--out", str(tmp_path / "o1")]) == 1
        assert cli.main(["run", cfg, "--out", str(tmp_path / "o2"), "--allow-invalid"]) == 0

    def test_missing_epsilon_reported(self, tmp_path):
        cfg = write_cfg(tmp_path, CARLEMAN_CFG.replace("epsilon = 0.1", ""))
        assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_reference_snapshots_written(self, tmp_path):
        cfg = write_cfg(tmp_path, HEAT_CFG + "reference = true\n")
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        ref = sorted(out.glob("reference_*.csv"))
        assert ref and ref[0].read_text().startswith("x,u_1")


# a ladder job's error crosses from its worker process to the parent by pickle
@pytest.mark.parametrize("err", [
    BuildError("b"), cli.ConfigError("c"), SymbolError("s"), SingularSourceError("m", 1e-3, 2),
    SolverError("v"), ReferenceError("r"),
], ids=lambda e: type(e).__name__)
def test_errors_survive_pickling(err):
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err)
    assert str(back) == str(err) and back.args == err.args
    assert vars(back) == vars(err)


class TestConvergeCommand:
    def test_heat_mini_ladder(self, tmp_path):
        cfg = write_cfg(tmp_path, HEAT_CFG)
        out = tmp_path / "out"
        assert cli.main(["converge", cfg, "--out", str(out)]) == 0
        lines = (out / "convergence.csv").read_text().strip().split("\n")
        assert lines[0] == "epsilon,errI,errII_weak,sup_eps_uII,observed_order"
        assert lines[1].endswith(",")
        errs = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert errs[0] > errs[1] > errs[2]

    def test_nonpositive_density_rejected_before_reference(self, tmp_path, capsys):
        # 1 + 1.5 sin dips below zero; the Picard reference must not run on it
        cfg = write_cfg(tmp_path, CARLEMAN_CFG + "epsilons = 0.2, 0.1, 0.05\nu0_amplitude = 1.5\n")
        assert cli.main(["converge", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "initial conserved field must stay positive for demo carleman" in err
        assert "minimum is -0.498193" in err

    def test_ill_prepared_start_is_config_error(self, tmp_path, monkeypatch, capsys):
        # every rung starts well-prepared, so the key cannot be honoured
        def no_reference(*args, **kwargs):
            raise AssertionError("the reference ran")

        monkeypatch.setattr(cli.diagnostics.parasolver, "run_reference", no_reference)
        cfg = write_cfg(tmp_path, HEAT_CFG + "well_prepared = false\n")
        assert cli.main(["converge", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "experiment.well_prepared = false" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit, message", [
        (("T = 0.05", "T = 0.0"), "positive horizon T, got 0"),
        (("T = 0.05", "T = 1e-13"), "horizon T = 1e-13 is too short: its 11 comparison times"),
        (("epsilons = 0.2, 0.1, 0.05", "epsilons = 0.2, 0.1, 0.0"), "stay positive, got [0.2, 0.1, 0.0]"),
    ], ids=["zero-horizon", "tiny-horizon", "zero-epsilon"])
    def test_ladder_inputs_checked_before_any_work(self, tmp_path, monkeypatch, capsys, edit, message):
        def no_reference(*args, **kwargs):
            raise AssertionError("the reference ran")

        monkeypatch.setattr(cli.diagnostics.parasolver, "run_reference", no_reference)
        cfg = write_cfg(tmp_path, HEAT_CFG.replace(*edit))
        assert cli.main(["converge", cfg, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_linear_algebra_failure_is_a_run_error(self, tmp_path, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli.diagnostics.parasolver, "run_reference", singular)
        cfg = write_cfg(tmp_path, HEAT_CFG)
        assert cli.main(["converge", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error: Singular matrix" in err and "config error" not in err

    def test_non_decreasing_ladder_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, HEAT_CFG.replace("epsilons = 0.2, 0.1, 0.05",
                                                   "epsilons = 0.1, 0.2, 0.05"))
        assert cli.main(["converge", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_bitwise_determinism_across_threads(self, tmp_path, process_pools):
        # the default runs one worker process per job (4 here), --threads 4 too, 1 none;
        # the heat1d ladder passes its checks, and every run of a ladder exits alike
        carleman = CARLEMAN_CFG + "epsilons = 0.2, 0.1, 0.05\n"
        for name, body in (("heat1d", HEAT_CFG), ("carleman", carleman)):
            cfg = write_cfg(tmp_path, body, name=f"{name}.cfg")
            outs, codes = [], []
            for label, flags in (("1", ["--threads", "1"]), ("default", []), ("4", ["--threads", "4"])):
                out = tmp_path / f"{name}-{label}"
                codes.append(cli.main(["converge", cfg, "--out", str(out), *flags]))
                outs.append((out / "convergence.csv").read_bytes())
                assert multiprocessing.active_children() == [] and gc.get_freeze_count() == 0
            assert codes == [codes[0]] * 3 and (name != "heat1d" or codes[0] == 0), (name, codes)
            assert outs[0] == outs[1] == outs[2], name
        assert process_pools == [4, 4, 4, 4]

    def test_worker_error_matches_in_process_error(self, tmp_path, monkeypatch, capsys, process_pools):
        run = cli.diagnostics.hypersolver.run

        def failing(sys, init, *args, **kwargs):
            if init.eps == 0.1:
                raise SolverError(f"stiff step failed at eps = {init.eps}")
            return run(sys, init, *args, **kwargs)

        monkeypatch.setattr(cli.diagnostics.hypersolver, "run", failing)
        cfg = write_cfg(tmp_path, HEAT_CFG)
        errs = []
        for flags in (["--threads", "1"], []):
            assert cli.main(["converge", cfg, "--out", str(tmp_path / "o"), *flags]) == 1
            errs.append(capsys.readouterr().err)
            assert multiprocessing.active_children() == [] and gc.get_freeze_count() == 0
        assert errs[0] == errs[1] == "error: stiff step failed at eps = 0.1\n"
        assert process_pools == [4]
        assert not (tmp_path / "o").exists()

    def test_threads_environment_variable_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RELAXBENCH_THREADS", "abc")
        cfg = write_cfg(tmp_path, HEAT_CFG)
        out = tmp_path / "out"
        assert cli.main(["converge", cfg, "--out", str(out)]) == 0
        assert (out / "convergence.csv").exists()

    # explicit ids, so each case keeps the name the suite reports for it
    @pytest.mark.parametrize("flag", ["0", "-5"], ids=["0-None", "-5-None"])
    def test_bad_thread_counts_are_config_errors(self, tmp_path, capsys, flag):
        cfg = write_cfg(tmp_path, HEAT_CFG)
        args = ["converge", cfg, "--out", str(tmp_path / "o"), "--threads", flag]
        assert cli.main(args) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_threads_only_on_converge(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, HEAT_CFG)
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", cfg, "--out", str(tmp_path / "o"), "--threads", "2"])
        assert exc.value.code == 2
        monkeypatch.setenv("RELAXBENCH_THREADS", "abc")
        assert cli.main(["validate", cfg, "--out", str(tmp_path / "o")]) == 0
