import ast
import hashlib
import importlib
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relaxbench
from relaxbench import builder, cli, hypersolver
from relaxbench.builder import BuildError
from relaxbench.core import SingularSourceError, SymbolError
from relaxbench.hypersolver import SolverError
from relaxbench.parasolver import ReferenceError

from conftest import assert_no_child_process


def _dotted(node):
    """'a.b.c' of a Name or Attribute chain, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else ""


FULL_SPECTRUM = {"fftn", "ifftn", "fft2", "ifft2"}


def _fourier_uses(node, scope=""):
    """(scope, what) of every np.fft call, numpy.fft import and full-spectrum transform name under node; scope is
    the dotted name of the enclosing classes and functions."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}" if scope else node.name
    if isinstance(node, ast.Call) and _dotted(node.func).startswith(("np.fft.", "numpy.fft.")):
        yield scope, _dotted(node.func)
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        modules = [a.name for a in node.names] + ([node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        yield from ((scope, f"import {m}") for m in modules if m.startswith("numpy.fft"))
    for name in (getattr(node, "attr", None), getattr(node, "id", None)):
        if name in FULL_SPECTRUM:
            yield scope, name
    for child in ast.iter_child_nodes(node):
        yield from _fourier_uses(child, scope)


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


# 4 snapshots (steps 0, 23, 46 and the last, 57) and 4 references
HEAT2D_CFG = """
[system]
kind = demo
name = heat2d

[grid]
n = 32

[solver]
snapshot_stride = 23

[experiment]
T = 0.02
epsilon = 0.05
reference = true
"""

ROOT = Path(__file__).resolve().parents[1]


def readme_config_block():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(r"```ini\n(.*?)```", readme, re.S).group(1)


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
        ("solver", "positivity_floor = 1e-8"),
    ])
    def test_retired_keys_are_config_errors(self, tmp_path, capsys, section, line):
        # retired keys: the source solve is one exact solve of a source linear in v, with no
        # iteration to limit, and ladder times and positive states follow from the system
        cfg = write_cfg(tmp_path, CARLEMAN_CFG + f"\n[{section}]\n{line}\n")
        assert cli.main(["validate", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"unknown key {section}.{line.split()[0]}" in capsys.readouterr().err

    def test_readme_config_block_builds(self, tmp_path):
        cfg = cli.parse_config(write_cfg(tmp_path, readme_config_block()))
        cli.build_experiment(cfg)

    def test_readme_config_block_lists_exactly_the_schema(self):
        # section by section and in order, so a retired key cannot linger in the docs
        parts = re.split(r"^\[(\w+)\]$", readme_config_block(), flags=re.M)[1:]
        documented = [(sec, re.findall(r"^(\w+) =", body, re.M)) for sec, body in zip(parts[::2], parts[1::2])]
        assert documented == [(sec, list(keys)) for sec, keys in cli.SCHEMA.items()]

    def test_readme_config_block_lists_exactly_the_choices(self):
        # continuation lines included and in order, so a retired demo or flux cannot linger in the docs
        for key, choices in (("name", builder.DEMO_NAMES), ("flux", hypersolver.FLUXES)):
            comment = re.search(rf"^{key} = [^#]*#(.*(?:\n\s+#.*)*)", readme_config_block(), re.M).group(1)
            assert [c.strip() for c in comment.replace("#", "").split("|")] == list(choices), key

    def test_comments_and_defaults(self, tmp_path):
        cfg = write_cfg(tmp_path, HEAT_CFG + "# trailing comment\n")
        values = cli.parse_config(cfg)
        assert values["solver"]["cfl"] == 0.45
        assert values["experiment"]["well_prepared"] is True

    def test_solver_defaults_are_solver_options(self, tmp_path):
        cfg = write_cfg(tmp_path, "[system]\nkind = demo\nname = heat1d\n[grid]\nn = 64\n[experiment]\nT = 0.1\n")
        assert cli.build_experiment(cli.parse_config(cfg)).opts == hypersolver.SolverOptions()


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

    def test_carleman_leaving_positive_states_is_run_error(self, tmp_path, capsys):
        # starts at min 0.01, outside the state box; the first step (dt = 3.515625e-4) takes cell 50 to -0.0244
        # (and its mirror cell 45 to within 6e-15 of that)
        cfg = write_cfg(tmp_path, CARLEMAN_CFG.replace("epsilon = 0.1", "epsilon = 0.05").replace(
            "T = 0.01", "T = 0.05") + "u0_amplitude = 0.99\n[solver]\nflux = spectral\n")
        out = tmp_path / "o"
        assert cli.main(["run", cfg, "--out", str(out), "--allow-invalid"]) == 1
        assert "error: uI left the positive states of carleman at eps=0.05, t=0.0003515625: " \
            "uI=-0.0243845 at cell 50 (x=0.7890625)\n" in capsys.readouterr().err
        assert not (out / "steps.csv").exists()

    @pytest.mark.parametrize("data, witness", [
        ("u0_amplitude = 0.6", "uI_1 = 1.59928 at cell 15 (x=0.2421875)"),  # [0.4, 1.6], both ends out
        ("u0_offset = 0.9\nu0_amplitude = 0.45", "uI_1 = 0.450542 at cell 47 (x=0.7421875)"),  # [0.45, 1.35]
    ], ids=["both-ends", "below"])
    def test_start_outside_the_state_box_needs_flag(self, tmp_path, capsys, data, witness):
        # validation certifies carleman on [0.5, 1.5] only; the farthest value outside is named
        cfg = write_cfg(tmp_path, CARLEMAN_CFG + data + "\n")
        out = tmp_path / "o1"
        assert cli.main(["run", cfg, "--out", str(out)]) == 1
        assert f"initial {witness} lies outside [0.5, 1.5], the state box " \
            "that report.csv certifies; rerun with --allow-invalid to force\n" in capsys.readouterr().err
        assert (out / "report.csv").exists() and not (out / "steps.csv").exists()
        assert cli.main(["run", cfg, "--out", str(tmp_path / "o2"), "--allow-invalid"]) == 0

    def test_unfinishable_run_is_refused_before_stepping(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, HEAT_CFG.replace("n = 128", "n = 64").replace("epsilon = 0.05", "epsilon = 1e-9"))
        assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "needs 7.11111e+09 steps of dt=7.03125e-12, more than MAX_STEPS" in capsys.readouterr().err

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

    @pytest.mark.parametrize("line", ["T = nan", "T = inf", "T = 1e400", "u0_amplitude = nan",
                                      "epsilons = 0.2, nan"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, line):
        key = line.split(" = ")[0]
        body = "\n".join(ln for ln in HEAT_CFG.splitlines() if not ln.startswith(f"{key} = "))
        cfg = write_cfg(tmp_path, f"{body}\n{line}\n")
        out = tmp_path / "o"
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        assert f"bad value for experiment.{key}: not a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_inadmissible_flux_is_config_error(self, tmp_path, capsys):
        # sqrt-heat transports by a Fourier multiplier, and [solver] flux defaults to rusanov
        cfg = write_cfg(tmp_path, CARLEMAN_CFG.replace("carleman", "sqrt-heat"))
        out = tmp_path / "o"
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        assert "solver.flux = rusanov is not admissible for demo sqrt-heat; choose from spectral" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_retired_flux_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, HEAT_CFG.replace("flux = spectral", "flux = upwind-characteristic"))
        out = tmp_path / "o"
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        assert "config error: flux must be one of ('rusanov', 'spectral')" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_system_needs_flag(self, tmp_path):
        body = CARLEMAN_CFG.replace("carleman", "null-limit")
        cfg = write_cfg(tmp_path, body)
        assert cli.main(["run", cfg, "--out", str(tmp_path / "o1")]) == 1
        assert cli.main(["run", cfg, "--out", str(tmp_path / "o2"), "--allow-invalid"]) == 0

    def test_missing_epsilon_reported(self, tmp_path):
        cfg = write_cfg(tmp_path, CARLEMAN_CFG.replace("epsilon = 0.1", ""))
        assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_reference_without_a_limit_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CARLEMAN_CFG.replace("carleman", "null-limit") + "reference = true\n")
        out = tmp_path / "o"
        assert cli.main(["run", cfg, "--out", str(out), "--allow-invalid"]) == 2
        assert "config error: experiment.reference = true needs a parabolic limit, " \
            "and demo null-limit has none\n" == capsys.readouterr().err
        assert not out.exists()

    def test_reference_snapshots_written(self, tmp_path):
        cfg = write_cfg(tmp_path, HEAT_CFG + "reference = true\n")
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        ref = sorted(out.glob("reference_*.csv"))
        assert ref and ref[0].read_text().startswith("x,u_1")


@pytest.fixture(params=[1, 2], ids=["in-process", "forked"])
def writers(request, monkeypatch):
    """Report 1 or 2 usable CPUs, so `run` writes in process or in two forked writers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    return request.param


class TestRunWriters:
    def _run(self, tmp_path, body, out, *flags):
        code = cli.main(["run", write_cfg(tmp_path, body), "--out", str(out), *flags])
        assert_no_child_process()
        return code

    def test_writers_are_byte_identical_to_in_process(self, tmp_path, monkeypatch):
        outs = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            outs.append(tmp_path / f"cpus{cpus}")
            assert self._run(tmp_path, HEAT2D_CFG, outs[-1]) == 0
        files = [{p.name: p.read_bytes() for p in out.iterdir()} for out in outs]
        assert sorted(files[0]) == sorted(["report.csv", "steps.csv"] + [
            f"{kind}_{i:03d}.csv" for kind in ("reference", "snapshot") for i in range(4)])
        assert files[0] == files[1]

    def test_unwritable_snapshot_exits_1_naming_it(self, tmp_path, capsys, writers):
        out = tmp_path / "o"
        (out / "snapshot_003.csv").mkdir(parents=True)
        assert self._run(tmp_path, HEAT2D_CFG, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{out / 'snapshot_003.csv'}" in err

    def test_failed_run_leaves_the_snapshots_it_reached(self, tmp_path, capsys, writers):
        # the config of TestRunCommand's positivity failure, at its first step, with a reference asked for
        body = CARLEMAN_CFG.replace("epsilon = 0.1", "epsilon = 0.05").replace("T = 0.01", "T = 0.05") \
            + "u0_amplitude = 0.99\nreference = true\n[solver]\nflux = spectral\n"
        out = tmp_path / "o"
        assert self._run(tmp_path, body, out, "--allow-invalid") == 1
        assert "error: uI left the positive states of carleman" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["report.csv", "snapshot_000.csv"]


class TestImportCost:
    """No command loads SciPy: the package's run-time dependency is NumPy alone."""

    @staticmethod
    def _scipy_after(code):
        code += "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return ast.literal_eval(proc.stdout.splitlines()[-1])

    def test_importing_the_cli_loads_no_scipy(self):
        assert self._scipy_after("import relaxbench, relaxbench.cli") == []

    def test_run_with_a_fourier_reference_loads_no_scipy(self, tmp_path):
        cfg, out = write_cfg(tmp_path, HEAT2D_CFG.replace("n = 32", "n = 16")), tmp_path / "o"
        assert self._scipy_after(f"from relaxbench import cli\nassert cli.main(['run', {cfg!r}, "
                                 f"'--out', {str(out)!r}]) == 0") == []
        assert (out / "reference_001.csv").exists()

    def test_picard_reference_loads_no_scipy(self):
        assert self._scipy_after("from relaxbench import builder, core, parasolver\n"
                                 "grid = core.SpatialGrid((16,), (1.0,))\n"
                                 "bundle = builder.demo('carleman', grid)\n"
                                 "parasolver.run_reference(bundle.target, bundle.u0(grid), grid, 0.01)") == []

    def test_no_module_imports_scipy(self):
        # nor a process pool: ForkedJobs forks its workers itself
        for path in sorted((ROOT / "src" / "relaxbench").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
                banned = ("scipy", "concurrent", "multiprocessing")
                assert not [n for n in names if n.split(".")[0] in banned], f"{path.name} imports {names}"

    def test_fourier_transforms_are_the_half_spectrum_primitives(self):
        # one spectral convention: to_modes and from_modes transform, SpatialGrid.wavenumbers reads the
        # frequencies, and nothing takes a full-spectrum transform
        allowed = {("core.py", "to_modes"), ("core.py", "from_modes"), ("core.py", "SpatialGrid.wavenumbers")}
        uses = [(path.name, scope, what) for path in sorted((ROOT / "src" / "relaxbench").glob("*.py"))
                for scope, what in _fourier_uses(ast.parse(path.read_text()))]
        assert {("core.py", "to_modes"), ("core.py", "from_modes")} <= {use[:2] for use in uses}
        assert [use for use in uses if use[:2] not in allowed or use[2].split(".")[-1] in FULL_SPECTRUM] == []


def test_every_all_names_existing_attributes_once():
    exported = 0
    for info in pkgutil.iter_modules(relaxbench.__path__):
        module = importlib.import_module(f"relaxbench.{info.name}")
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), f"{info.name}.__all__ repeats a name"
        assert [n for n in names if not hasattr(module, n)] == [], f"{info.name}.__all__ names what it lacks"
        exported += bool(names)
    assert exported >= 6  # builder, core, diagnostics, hypersolver, parasolver and validator export


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

    def test_nonpositive_density_rejected_before_reference(self, tmp_path, monkeypatch, capsys):
        # 1 + 1.5 sin dips below zero; the Picard reference must not run on it, flag or not
        def no_reference(*args, **kwargs):
            raise AssertionError("the reference ran")

        monkeypatch.setattr(cli.parasolver, "run_reference", no_reference)
        cfg = write_cfg(tmp_path, CARLEMAN_CFG + "epsilons = 0.2, 0.1, 0.05\nu0_amplitude = 1.5\n")
        for flags in ([], ["--allow-invalid"]):
            assert cli.main(["converge", cfg, "--out", str(tmp_path / "o"), *flags]) == 1
            err = capsys.readouterr().err
            assert "initial conserved field must stay positive for demo carleman" in err
            assert "minimum is -0.498193" in err

    def test_rung_leaving_positive_states_names_its_eps(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CARLEMAN_CFG.replace("T = 0.01", "T = 0.05") +
                        "epsilons = 0.2, 0.1, 0.05\nu0_amplitude = 0.99\n[solver]\nflux = spectral\n")
        out = tmp_path / "o"
        # u0 in [0.01, 1.99] lies outside the certified box [0.5, 1.5], so the rung needs the flag
        assert cli.main(["converge", cfg, "--out", str(out), "--threads", "1", "--allow-invalid"]) == 1
        assert "uI left the positive states of carleman at eps=0.05, t=0.0003515625" in capsys.readouterr().err
        assert not (out / "convergence.csv").exists()

    def test_ill_prepared_start_is_config_error(self, tmp_path, monkeypatch, capsys):
        # every rung starts well-prepared, so the key cannot be honoured
        def no_reference(*args, **kwargs):
            raise AssertionError("the reference ran")

        monkeypatch.setattr(cli.diagnostics.parasolver, "run_reference", no_reference)
        cfg = write_cfg(tmp_path, HEAT_CFG + "well_prepared = false\n")
        assert cli.main(["converge", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "experiment.well_prepared = false" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_strided_snapshots_are_config_error(self, tmp_path, monkeypatch, capsys):
        # a ladder snapshots at its comparison times only, so the key cannot be honoured
        def no_reference(*args, **kwargs):
            raise AssertionError("the reference ran")

        monkeypatch.setattr(cli.diagnostics.parasolver, "run_reference", no_reference)
        cfg = write_cfg(tmp_path, HEAT_CFG.replace("n = 128", "n = 32")
                        .replace("flux = spectral", "flux = spectral\nsnapshot_stride = 3"))
        assert cli.main(["converge", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "snapshot_stride = 3 applies to run only" in capsys.readouterr().err
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
                assert_no_child_process()
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
            assert_no_child_process()
        assert errs[0] == errs[1] == "error: stiff step failed at eps = 0.1\n"
        assert process_pools == [4]
        assert not (tmp_path / "o" / "convergence.csv").exists()

    def test_rising_errI_names_its_rung(self, tmp_path, capsys):
        # so short a horizon leaves the heat1d ladder pre-asymptotic; the table is still written
        cfg = write_cfg(tmp_path, HEAT_CFG.replace("n = 128", "n = 32").replace("T = 0.05", "T = 0.01"))
        out = tmp_path / "o"
        assert cli.main(["converge", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: errI does not fall from eps=0.2 to eps=0.1: 0.00226386 then 0.00244118\n"
        assert len((out / "convergence.csv").read_text().splitlines()) == 4

    def test_null_limit_ladder_needs_flag(self, tmp_path, capsys):
        # validation fails conserved_block by design; the ladder then drains to the zero function
        cfg = write_cfg(tmp_path, CARLEMAN_CFG.replace("carleman", "null-limit") + "epsilons = 0.2, 0.1, 0.05\n")
        out = tmp_path / "o1"
        assert cli.main(["converge", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: validation failed (conserved_block); rerun with --allow-invalid to force\n"
        assert (out / "report.csv").exists() and not (out / "convergence.csv").exists()
        assert cli.main(["converge", cfg, "--out", str(tmp_path / "o2"), "--allow-invalid"]) == 0

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


class TestPreflight:
    """`run` and `converge` certify their start alike, and `validate` writes the same report."""

    # u0 in [0.4, 1.6] against the certified box [0.5, 1.5]
    OUTSIDE_CFG = CARLEMAN_CFG.replace("T = 0.01", "T = 0.02") + (
        "epsilons = 0.2, 0.1, 0.05\nu0_amplitude = 0.6\nreference = true\n[solver]\nflux = spectral\n")
    # sha256 of the convergence.csv that `converge` wrote for this config before it checked the box, re-pinned
    # when the Picard reference became Fourier collocation (errI moved by at most 2.5e-3 relative, the
    # 3-point reference's space error at n = 64), and when spectral derivatives became a half-spectrum mode table
    # (every value moved by at most 2.1e-14 relative)
    OUTSIDE_CONVERGENCE_SHA256 = "803e2e05df1ba1c8a170dba6c92142bb6259f0f1ae7903f649cf49f639c8b0d6"

    def test_one_report_for_every_command(self, tmp_path):
        cfg = write_cfg(tmp_path, CARLEMAN_CFG + "epsilons = 0.2, 0.1, 0.05\n[solver]\nflux = spectral\n")
        reports = []
        for command in ("validate", "run", "converge"):
            out = tmp_path / command
            assert cli.main([command, cfg, "--out", str(out)]) == 0
            reports.append((out / "report.csv").read_bytes())
        assert reports[0] == reports[1] == reports[2]

    def test_start_outside_the_box_is_refused_before_any_work(self, tmp_path, monkeypatch, capsys):
        def no_reference(*args, **kwargs):
            raise AssertionError("the reference ran")

        monkeypatch.setattr(cli.parasolver, "run_reference", no_reference)
        cfg = write_cfg(tmp_path, self.OUTSIDE_CFG)
        errs = []
        for command in ("run", "converge"):
            out = tmp_path / command
            assert cli.main([command, cfg, "--out", str(out)]) == 1
            errs.append(capsys.readouterr().err)
            assert sorted(p.name for p in out.iterdir()) == ["report.csv"]
        assert errs[0] == errs[1] == (
            "error: initial uI_1 = 1.59928 at cell 15 (x=0.2421875) lies outside [0.5, 1.5], "
            "the state box that report.csv certifies; rerun with --allow-invalid to force\n")

    def test_start_outside_the_box_runs_with_flag(self, tmp_path):
        cfg = write_cfg(tmp_path, self.OUTSIDE_CFG)
        assert cli.main(["run", cfg, "--out", str(tmp_path / "run"), "--allow-invalid"]) == 0
        out = tmp_path / "converge"
        assert cli.main(["converge", cfg, "--out", str(out), "--allow-invalid"]) == 0
        digest = hashlib.sha256((out / "convergence.csv").read_bytes()).hexdigest()
        assert digest == self.OUTSIDE_CONVERGENCE_SHA256
