"""Batch front end: parse experiment configs, orchestrate, emit CSV artifacts.

The config format is a strict sectioned key/value text file; unknown sections
or keys are hard errors so that misspelled settings cannot silently fall back
to defaults.  All numeric output uses 17 significant digits and C-style
formatting, so identical configs yield bit-identical artifacts.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys as _sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import builder, diagnostics, hypersolver, parasolver, validator
from .builder import BuildError, DemoBundle
from .core import FieldState, SpatialGrid, SymbolError, ValidationReport, csv_text
from .hypersolver import SolverError, SolverOptions
from .parasolver import ReferenceError


class ConfigError(ValueError):
    pass


class Refused(Exception):
    """A command declines inputs or results it cannot vouch for (exit 1)."""


# ---------------------------------------------------------------------------
# config parsing


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    """A finite float: nan, inf and overflowing literals such as 1e400 are refused."""
    if not math.isfinite(val := float(raw)):
        raise ValueError(f"not a finite number: {raw.strip()!r}")
    return val


def _parse_float_list(raw: str) -> Tuple[float, ...]:
    return tuple(_parse_float(tok) for tok in raw.split(","))


def _parse_int_list(raw: str) -> Tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split(","))


_PARSERS = {
    "str": lambda raw: raw.strip(),
    "int": int,
    "float": _parse_float,
    "bool": _parse_bool,
    "floats": _parse_float_list,
    "ints": _parse_int_list,
}

REQUIRED = object()

SCHEMA: Dict[str, Dict[str, Tuple[str, object]]] = {
    "system": {
        "kind": ("str", REQUIRED),
        "name": ("str", REQUIRED),
    },
    "grid": {
        "n": ("ints", REQUIRED),
        "length": ("floats", (1.0,)),
    },
    "solver": {
        key: (kind, getattr(SolverOptions(), key))
        for key, kind in (("cfl", "float"), ("flux", "str"), ("snapshot_stride", "int"))
    },
    "experiment": {
        "T": ("float", REQUIRED),
        "epsilon": ("float", None),
        "epsilons": ("floats", None),
        "u0_amplitude": ("float", None),
        "u0_offset": ("float", None),
        "well_prepared": ("bool", True),
        "reference": ("bool", False),
    },
}


def parse_config(path: str) -> Dict[str, Dict[str, object]]:
    """Read and validate a config file against the schema."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err

    values: Dict[str, Dict[str, object]] = {sec: {} for sec in SCHEMA}
    section: Optional[str] = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {rawline!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside of any section")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {section}.{key}")
        if key in values[section]:
            raise ConfigError(f"line {lineno}: duplicate key {section}.{key}")
        kind, _ = SCHEMA[section][key]
        if raw == "":
            raise ConfigError(f"line {lineno}: empty value for {section}.{key}")
        try:
            values[section][key] = _PARSERS[kind](raw)
        except ValueError as err:
            raise ConfigError(f"line {lineno}: bad value for {section}.{key}: {err}") from err

    for sec, keys in SCHEMA.items():
        for key, (_, default) in keys.items():
            if key not in values[sec]:
                if default is REQUIRED:
                    raise ConfigError(f"missing field {sec}.{key}")
                values[sec][key] = default
    return values


# ---------------------------------------------------------------------------
# experiment assembly


@dataclass
class Experiment:
    grid: SpatialGrid
    bundle: DemoBundle
    opts: SolverOptions


def build_experiment(cfg: Dict[str, Dict[str, object]]) -> Experiment:
    system = cfg["system"]
    if system["kind"] != "demo":
        raise ConfigError(f"system.kind must be 'demo', got {system['kind']!r}")
    name = system["name"]
    if name not in builder.DEMO_NAMES:
        raise ConfigError(
            f"system.name must be one of {', '.join(builder.DEMO_NAMES)}; got {name!r}"
        )
    d = builder.DEMO_DIMS[name]

    ns = cfg["grid"]["n"]
    lengths = cfg["grid"]["length"]
    if len(ns) == 1:
        ns = ns * d
    if len(lengths) == 1:
        lengths = lengths * d
    if len(ns) != d or len(lengths) != d:
        raise ConfigError(f"grid.n/grid.length must have 1 or {d} entries for demo {name}")
    if cfg["experiment"]["T"] < 0:
        raise ConfigError("experiment.T must be nonnegative")
    try:
        grid = SpatialGrid(ns=tuple(ns), lengths=tuple(lengths))
        bundle = builder.demo(
            name, grid,
            amplitude=cfg["experiment"]["u0_amplitude"],
            offset=cfg["experiment"]["u0_offset"],
        )
        opts = SolverOptions(**cfg["solver"])
        if opts.flux not in hypersolver.admissible_fluxes(bundle.system):
            raise ValueError(f"solver.flux = {opts.flux} is not admissible for demo {name}; choose from "
                             f"{', '.join(hypersolver.admissible_fluxes(bundle.system))}")
    except (ValueError, BuildError) as err:
        raise ConfigError(str(err)) from err
    return Experiment(grid=grid, bundle=bundle, opts=opts)


def _validate(exp: Experiment, out: str) -> ValidationReport:
    """Validate the demo on its state box and write report.csv."""
    sysm = exp.bundle.system
    samples = validator.SampleSet.build(
        exp.grid, sysm.k, sysm.m, u_box=exp.bundle.state_box,
    )
    report = validator.validate_all(
        sysm, samples, target=exp.bundle.target, symmetrizer=exp.bundle.symmetrizer,
    )
    _write(Path(out) / "report.csv", report_csv(report))
    return report


def _preflight(exp: Experiment, out: str, allow_invalid: bool) -> np.ndarray:
    """Validate and write report.csv, refuse an unsound start, and return the initial uI.

    A failed check and a start outside the state box that report.csv certifies
    are waived by --allow-invalid; a non-positive start of a positive-state
    system is not, since no step can be taken from it.
    """
    report = _validate(exp, out)
    if not report.passed and not allow_invalid:
        raise Refused(f"validation failed ({', '.join(report.failing())}); "
                      "rerun with --allow-invalid to force")
    bundle, u0 = exp.bundle, exp.bundle.u0(exp.grid)
    if bundle.system.positive_states and float(np.min(u0)) <= 0.0:
        raise Refused(f"initial conserved field must stay positive for demo {bundle.name}; "
                      f"minimum is {float(np.min(u0)):.6g}")
    lo, hi = (np.asarray(bound, dtype=float)[:, None] for bound in bundle.state_box)
    u = u0.reshape(len(lo), -1)
    excess = np.maximum(lo - u, u - hi)
    if excess.max() > 0.0 and not allow_invalid:
        comp, cell = np.unravel_index(int(np.argmax(excess)), excess.shape)
        x = ", ".join(f"{v:.8g}" for v in exp.grid.flat_points()[:, cell])
        raise Refused(f"initial uI_{comp + 1} = {u[comp, cell]:.6g} at cell {cell} (x={x}) lies "
                      f"outside [{lo[comp, 0]:g}, {hi[comp, 0]:g}], the state box that report.csv "
                      "certifies; rerun with --allow-invalid to force")
    return u0


def report_csv(report: ValidationReport) -> str:
    entries = report.entries
    witness = [";".join(filter(None, (e.witness_str(), e.note and f"note={e.note}")))
               for e in entries]
    return csv_text(("check", "pass", "margin", "witness"), [
        [e.name for e in entries], [str(e.passed).lower() for e in entries],
        [e.margin for e in entries], witness])


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_csv(outdir: Path, name: str, fmt, *args) -> None:
    """Write fmt(*args) to outdir / name: one job of run's writers."""
    _write(outdir / name, fmt(*args))


# ---------------------------------------------------------------------------
# commands


def cmd_validate(config: str, out: str) -> int:
    report = _validate(build_experiment(parse_config(config)), out)
    for e in report.entries:
        print(f"{e.name}: {'pass' if e.passed else 'FAIL'} (margin {e.margin:.3g})")
    return 0 if report.passed else 1


def cmd_run(config: str, out: str, allow_invalid: bool = False) -> int:
    cfg = parse_config(config)
    exp = build_experiment(cfg)
    expcfg = cfg["experiment"]
    eps = expcfg["epsilon"]
    if eps is None:
        raise ConfigError("missing field experiment.epsilon")
    if eps <= 0:
        raise ConfigError("experiment.epsilon must be positive")
    grid, bundle = exp.grid, exp.bundle
    if expcfg["reference"] and bundle.target is None:
        raise ConfigError(f"experiment.reference = true needs a parabolic limit, "
                          f"and demo {bundle.name} has none")
    u0 = _preflight(exp, out, allow_invalid)

    if expcfg["well_prepared"]:
        init = hypersolver.well_prepared_state(bundle.system, grid, u0, eps)
    else:
        print("warning: zero-initialized non-conserved field, initial layer expected")
        init = FieldState(grid, u0, np.zeros((bundle.system.m,) + grid.ns), 0.0, eps)

    # each file goes to a writer as soon as its data exists: a snapshot while the run goes on,
    # the step log once it has ended, and each reference field as the reference reaches it;
    # how many snapshots a run takes is not known before it steps, so there is one writer per
    # usable CPU, and no snapshot or field is kept once it is handed over
    with diagnostics.ForkedJobs(Path(out), jobs=None) as writers:
        names = (f"snapshot_{i:03d}.csv" for i in itertools.count())

        def write_snapshot(snap: FieldState) -> None:
            writers.submit(_write_csv, next(names), hypersolver.snapshot_csv, snap)

        traj = hypersolver.run(bundle.system, init, expcfg["T"], exp.opts, on_snapshot=write_snapshot)
        writers.submit(_write_csv, "steps.csv", hypersolver.StepLog.csv, traj.records)
        if expcfg["reference"]:
            fields = parasolver.reference_fields(bundle.target, u0, grid, expcfg["T"], snapshot_times=traj.times)
            for i, (_, u) in enumerate(fields):
                writers.submit(_write_csv, f"reference_{i:03d}.csv", parasolver.reference_csv, grid, u)

    print(
        f"integrated {bundle.name} to T={expcfg['T']:g} at eps={eps:g}: "
        f"{len(traj.records) - 1} steps, {len(traj.times)} snapshots"
    )
    return 0


def cmd_converge(config: str, out: str, threads: Optional[int] = None, allow_invalid: bool = False) -> int:
    cfg = parse_config(config)
    exp = build_experiment(cfg)
    expcfg = cfg["experiment"]
    eps_list = expcfg["epsilons"]
    if eps_list is None:
        raise ConfigError("missing field experiment.epsilons")
    if not expcfg["well_prepared"]:
        raise ConfigError("converge starts every rung well-prepared; "
                          "experiment.well_prepared = false applies to run only")
    try:
        diagnostics.check_ladder(expcfg["T"], eps_list, threads, exp.opts)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    _preflight(exp, out, allow_invalid)
    table = diagnostics.study_for_bundle(
        exp.bundle, exp.grid, expcfg["T"], eps_list, opts=exp.opts, threads=threads,
    )
    _write(Path(out) / "convergence.csv", table.to_csv())
    for row in table.rows:
        order = "" if row.observed_order is None else f", order {row.observed_order:.3f}"
        print(f"eps={row.eps:g}: errI={row.errI:.6g}{order}")
    if rise := table.errI_rise():
        a, b = rise
        raise Refused(f"errI does not fall from eps={a.eps:g} to eps={b.eps:g}: "
                      f"{a.errI:.6g} then {b.errI:.6g}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="relaxbench",
        description="validate, run, and study stiff relaxation approximations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "run", "converge"):
        p = sub.add_parser(name)
        p.add_argument("config", help="experiment config file")
        p.add_argument("--out", default="./out", help="output directory (default ./out)")
        if name in ("run", "converge"):
            p.add_argument("--allow-invalid", action="store_true",
                           help="go on past failed checks and a start outside the certified state box")
        if name == "converge":
            p.add_argument("--threads", type=int, default=None,
                           help="at most this many worker processes run the ladder's reference "
                                "and rungs (default: one per job, up to the usable CPUs; 1 runs "
                                "them in this process); the results are bit-identical for any N")
    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            return cmd_validate(args.config, args.out)
        if args.command == "run":
            return cmd_run(args.config, args.out, allow_invalid=args.allow_invalid)
        return cmd_converge(args.config, args.out, threads=args.threads, allow_invalid=args.allow_invalid)
    except ConfigError as err:
        print(f"config error: {err}", file=_sys.stderr)
        return 2
    except (Refused, BuildError, SolverError, ReferenceError, SymbolError, np.linalg.LinAlgError,
            OSError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
