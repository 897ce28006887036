"""Batch front end: parse experiment configs, orchestrate, emit CSV artifacts.

The config format is a strict sectioned key/value text file; unknown sections
or keys are hard errors so that misspelled settings cannot silently fall back
to defaults.  All numeric output uses 17 significant digits and C-style
formatting, so identical configs yield bit-identical artifacts.
"""

from __future__ import annotations

import argparse
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


# ---------------------------------------------------------------------------
# config parsing


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float_list(raw: str) -> Tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(","))


def _parse_int_list(raw: str) -> Tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split(","))


_PARSERS = {
    "str": lambda raw: raw.strip(),
    "int": int,
    "float": float,
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
        "cfl": ("float", 0.45),
        "flux": ("str", "rusanov"),
        "snapshot_stride": ("int", 0),
        "positivity_floor": ("float", None),
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


def _validate(exp: Experiment) -> ValidationReport:
    sysm = exp.bundle.system
    samples = validator.SampleSet.build(
        exp.grid, sysm.k, sysm.m, u_box=exp.bundle.state_box,
    )
    return validator.validate_all(
        sysm, samples, target=exp.bundle.target, symmetrizer=exp.bundle.symmetrizer,
    )


def _initial_field(exp: Experiment) -> np.ndarray:
    """The demo's initial conserved field; BuildError if a positive-state demo's is not positive."""
    bundle = exp.bundle
    u0 = bundle.u0(exp.grid)
    if bundle.positive_states and float(np.min(u0)) <= 0.0:
        raise BuildError(f"initial conserved field must stay positive for demo {bundle.name}; "
                         f"minimum is {float(np.min(u0)):.6g}")
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


# ---------------------------------------------------------------------------
# commands


def cmd_validate(config: str, out: str) -> int:
    exp = build_experiment(parse_config(config))
    report = _validate(exp)
    _write(Path(out) / "report.csv", report_csv(report))
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

    report = _validate(exp)
    _write(Path(out) / "report.csv", report_csv(report))
    if not report.passed and not allow_invalid:
        print(
            "validation failed ({}); rerun with --allow-invalid to force".format(
                ", ".join(report.failing())
            ),
            file=_sys.stderr,
        )
        return 1

    grid, bundle = exp.grid, exp.bundle
    u0 = _initial_field(exp)

    if expcfg["well_prepared"]:
        init = hypersolver.well_prepared_state(bundle.system, grid, u0, eps)
    else:
        print("warning: zero-initialized non-conserved field, initial layer expected")
        init = FieldState(grid, u0, np.zeros((bundle.system.m,) + grid.ns), 0.0, eps)

    traj = hypersolver.run(bundle.system, init, expcfg["T"], exp.opts)
    outdir = Path(out)
    for i, snap in enumerate(traj.snapshots):
        _write(outdir / f"snapshot_{i:03d}.csv", hypersolver.snapshot_csv(snap))
    _write(outdir / "steps.csv", traj.steps_csv())

    if expcfg["reference"] and bundle.target is not None:
        times, fields = parasolver.run_reference(
            bundle.target, u0, grid, expcfg["T"],
            snapshot_times=[s.t for s in traj.snapshots],
        )
        for i, u in enumerate(fields):
            _write(outdir / f"reference_{i:03d}.csv", parasolver.reference_csv(grid, u))

    print(
        f"integrated {bundle.name} to T={expcfg['T']:g} at eps={eps:g}: "
        f"{len(traj.records) - 1} steps, {len(traj.snapshots)} snapshots"
    )
    if traj.clamp_events:
        print(f"positivity floor engaged {traj.clamp_events} times")
    return 0


def cmd_converge(config: str, out: str, threads: Optional[int] = None) -> int:
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
        diagnostics.check_ladder(expcfg["T"], eps_list, threads)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    _initial_field(exp)
    table = diagnostics.study_for_bundle(
        exp.bundle, exp.grid, expcfg["T"], eps_list, opts=exp.opts, threads=threads,
    )
    _write(Path(out) / "convergence.csv", table.to_csv())
    for row in table.rows:
        order = "" if row.observed_order is None else f", order {row.observed_order:.3f}"
        print(f"eps={row.eps:g}: errI={row.errI:.6g}{order}")
    return 0 if table.errI_monotone else 1


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
        if name == "run":
            p.add_argument("--allow-invalid", action="store_true",
                           help="run even if validation fails")
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
        return cmd_converge(args.config, args.out, threads=args.threads)
    except ConfigError as err:
        print(f"config error: {err}", file=_sys.stderr)
        return 2
    except (BuildError, SolverError, ReferenceError, SymbolError, np.linalg.LinAlgError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
