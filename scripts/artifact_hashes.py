#!/usr/bin/env python3
"""One sha256 per demo, admissible flux and grid over the artifacts of `relaxbench run`.

Runs `relaxbench run --allow-invalid` (eps 0.1, T 0.01, reference on for every
demo with a parabolic limit) for every demo, every flux its system admits and
two small grids, and hashes the run's `steps.csv`, its final snapshot, every
`reference_*.csv` and `report.csv`.  Then runs `relaxbench converge` (n = 32,
spectral, T 0.01, eps 0.2/0.1/0.05) on carleman and heat1d and hashes
`convergence.csv` and `report.csv`, so the ladder path is covered too;
heat1d's errI does not decrease on so short a ladder, so its line ends in
"(exit code 1)".  Two source trees produce the same artifacts
exactly when they print the same lines.  From the root of a source checkout:

    PYTHONPATH=src python scripts/artifact_hashes.py
"""

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before NumPy loads OpenBLAS

import relaxbench as rb  # noqa: E402
from relaxbench import builder, cli, hypersolver  # noqa: E402

GRIDS = {1: ((16,), (24,)), 2: ((12, 12), (16, 20))}
CONVERGE_DEMOS = ("carleman", "heat1d")


def _cli(command, name, flux, ns, tmp, experiment, *flags):
    """Run one CLI command on a demo config; (exit code, output directory)."""
    cfg = tmp / "exp.cfg"
    cfg.write_text(
        f"[system]\nkind = demo\nname = {name}\n[grid]\nn = {','.join(map(str, ns))}\n"
        f"[solver]\nflux = {flux}\n[experiment]\nT = 0.01\n{experiment}"
    )
    out = tmp / f"{command}_{name}_{flux}_{'x'.join(map(str, ns))}"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, str(cfg), "--out", str(out), *flags])
    return code, out


def outputs(tmp):
    """(label, exit code, output directory, the files its line digests) of every command, run in turn.

    A command that writes no digested file, a failed run or a converge without
    convergence.csv, digests none."""
    for name in builder.DEMO_NAMES:
        d = builder.DEMO_DIMS[name]
        for ns in GRIDS[d]:
            bundle = builder.demo(name, rb.SpatialGrid(ns, (1.0,) * d))
            for flux in hypersolver.admissible_fluxes(bundle.system):
                code, out = _cli("run", name, flux, ns, tmp,
                                 f"epsilon = 0.1\nreference = {str(bundle.target is not None).lower()}\n",
                                 "--allow-invalid")
                files = []
                if code == 0:
                    files = ["steps.csv", sorted(out.glob("snapshot_*.csv"))[-1].name, "report.csv"]
                    files += sorted(p.name for p in out.glob("reference_*.csv"))
                yield f"{name} {flux} n={'x'.join(map(str, ns))}", code, out, files
    for name in CONVERGE_DEMOS:
        # exit code 1 (errI not decreasing) also writes convergence.csv and report.csv
        code, out = _cli("converge", name, "spectral", (32,), tmp, "epsilons = 0.2, 0.1, 0.05\n")
        files = ["convergence.csv", "report.csv"] if (out / "convergence.csv").exists() else []
        yield f"converge {name} spectral n=32", code, out, files


def _digest(out, files):
    digest = hashlib.sha256()
    for fname in files:
        digest.update(fname.encode() + b"\0" + (out / fname).read_bytes())
    return digest.hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for label, code, out, files in outputs(Path(tmp)):
            if not files:
                line = f"exit code {code}"
            else:
                line = _digest(out, files) + (f" (exit code {code})" if code else "")
            print(f"{label:<44} {line}")


if __name__ == "__main__":
    main()
