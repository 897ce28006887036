"""The three benchmark workloads: seeded configs and checks of their artifacts.

Each workload is one `relaxbench` command on one generated config.  The seed
only picks `u0_amplitude`, from a narrow range inside the demo's
`state_box`, so the work done is the same for every seed while the inputs
(and so the fingerprints) differ.  The checks are never looser than the
matching acceptance tests in `tests/test_acceptance.py`.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from tracing import CHECK_NAMES

EPS_LADDER = (0.2, 0.1, 0.05, 0.025)
LADDER_SNAPSHOTS = 11          # the `converge` default for experiment.snapshots
SLOPE_TOL = 0.25               # acceptance criterion 4
ENERGY_SLACK = 1e-10           # acceptance criterion 6
CONVERGENCE_HEADER = "epsilon,errI,errII_weak,sup_eps_uII,observed_order"
REPORT_HEADER = "check,pass,margin,witness"
STEPS_HEADER = "t,dt,energy,max_speed"
HEAT2D_STRIDE = 23
HEAT2D_EPS = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                       # `converge` or `run`
    demo: str
    amplitude: Tuple[float, float]     # seeded u0_amplitude range
    n: int
    smoke_n: int
    T: float

    def config(self, seed: int, smoke: bool = False) -> str:
        amp = random.Random(seed).uniform(*self.amplitude)
        n, T = (self.smoke_n if smoke else self.n), self.T
        lines = ["[system]", "kind = demo", f"name = {self.demo}", "[grid]", f"n = {n}"]
        if self.command == "converge":
            lines += ["[solver]", "flux = spectral", "cfl = 0.1", "[experiment]", f"T = {T!r}",
                      "epsilons = " + ", ".join(repr(e) for e in EPS_LADDER)]
        else:
            lines += ["[solver]", "flux = rusanov", f"snapshot_stride = {HEAT2D_STRIDE}",
                      "[experiment]", f"T = {T!r}", f"epsilon = {HEAT2D_EPS!r}",
                      "reference = true"]
        lines.append(f"u0_amplitude = {amp!r}")
        return "\n".join(lines) + "\n"


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("heat1d-ladder", "converge", "heat1d", (0.99, 1.01), 256, 256, 0.1),
        Workload("carleman-ladder", "converge", "carleman", (0.475, 0.485), 256, 256, 0.1),
        Workload("heat2d-run", "run", "heat2d", (0.99, 1.01), 128, 32, 0.02),
    )
}


@dataclass
class Outcome:
    """What one command left behind: failed checks, fingerprint, accuracy."""

    errors: List[str] = field(default_factory=list)
    fingerprint: str = ""
    digests: Dict[str, str] = field(default_factory=dict)
    accuracy: Dict[str, object] = field(default_factory=dict)
    bytes_written: int = 0

    @property
    def errI_last(self) -> Optional[float]:
        return self.accuracy.get("errI_last")


def fingerprint(out: Path) -> Tuple[str, Dict[str, str], int]:
    """sha256 of every artifact, and one digest over all of them."""
    digests, total = {}, 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        total += len(data)
        digests[path.name] = hashlib.sha256(data).hexdigest()
    overall = hashlib.sha256(
        "".join(f"{k}:{v}\n" for k, v in digests.items()).encode()
    ).hexdigest()
    return overall, digests, total


def check(workload: Workload, out: Path, rc: int, smoke: bool) -> Outcome:
    """Check, fingerprint and measure the artifacts one command left in `out`."""
    res = Outcome()
    if rc != 0:
        res.errors.append(f"exit code {rc}")
    if out.is_dir():
        res.fingerprint, res.digests, res.bytes_written = fingerprint(out)
    try:
        if workload.command == "converge":
            _check_ladder(workload, out, res)
        else:
            _check_run(out, workload.smoke_n if smoke else workload.n, workload.T, res)
    except (OSError, ValueError, IndexError) as err:
        res.errors.append(f"unreadable artifact: {err}")
    return res


# ---------------------------------------------------------------------------
# epsilon ladders


def _read_lines(path: Path) -> List[str]:
    return path.read_text().splitlines()


def _ls_slope(eps, errs) -> float:
    return float(np.polyfit(np.log(eps), np.log(errs), 1)[0])


def oracle_errors(T: float, eps_list=EPS_LADDER, count: int = LADDER_SNAPSHOTS) -> List[float]:
    """errI of the exact relaxation pair of the sin(2 pi x) mode, unit amplitude.

    The pair u' = -i r v, eps^2 v' = -i r u - v (r = 2 pi) started
    well-prepared, measured against exp(-r^2 t) in the ladder's space-time L2
    metric; the same closed form as `parasolver.exact_mode_oracle`, kept here
    so the benchmark does not depend on the code it checks.
    """
    s = (2.0 * math.pi) ** 2
    times = np.linspace(0.0, T, count)
    out = []
    for eps in eps_list:
        root = np.sqrt(complex(1.0 - 4.0 * eps ** 2 * s))
        lam1, lam2 = (-1.0 + root) / (2 * eps ** 2), (-1.0 - root) / (2 * eps ** 2)
        c1 = (-s - lam2) / (lam1 - lam2)
        u = c1 * np.exp(lam1 * times) + (1.0 - c1) * np.exp(lam2 * times)
        sq = 0.5 * np.abs(u - np.exp(-s * times)) ** 2
        out.append(float(np.sqrt(np.trapezoid(sq, times))))
    return out


def _check_ladder(workload: Workload, out: Path, res: Outcome) -> None:
    lines = _read_lines(out / "convergence.csv")
    if lines[0] != CONVERGENCE_HEADER:
        res.errors.append(f"convergence.csv header {lines[0]!r}")
        return
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(EPS_LADDER):
        res.errors.append(f"{len(rows)} ladder rungs, expected {len(EPS_LADDER)}")
        return
    eps = [float(r[0]) for r in rows]
    errI = [float(r[1]) for r in rows]
    errII = [float(r[2]) for r in rows]
    orders = [float(r[4]) for r in rows[1:]]
    if eps != list(EPS_LADDER):
        res.errors.append(f"ladder epsilons {eps}")
    if rows[0][4] != "":
        res.errors.append("observed_order set on the first rung")
    values = errI + errII + [float(r[3]) for r in rows] + orders
    if not all(math.isfinite(v) for v in values):
        res.errors.append("non-finite ladder entry")
        return
    for label, errs in (("errI", errI), ("errII_weak", errII)):
        if not all(b < a for a, b in zip(errs, errs[1:])):
            res.errors.append(f"{label} not strictly decreasing: {errs}")
    res.accuracy.update(
        errI_last=errI[-1],
        rungs=[{"epsilon": e, "errI": f"{a:.17g}", "errII_weak": f"{b:.17g}",
                "observed_order": "" if i == 0 else f"{orders[i - 1]:.17g}"}
               for i, (e, a, b) in enumerate(zip(eps, errI, errII))],
    )
    if workload.demo == "heat1d":
        pred = oracle_errors(workload.T)
        observed, predicted = _ls_slope(eps, errI), _ls_slope(eps, pred)
        if abs(observed - predicted) > SLOPE_TOL:
            res.errors.append(f"ladder slope {observed:.4f} vs oracle {predicted:.4f}")
        oracle_order = math.log(pred[-2] / pred[-1]) / math.log(eps[-2] / eps[-1])
        res.accuracy.update(
            slope=observed, oracle_slope=predicted,
            order_last=orders[-1], oracle_order_last=oracle_order,
            order_gap=abs(orders[-1] - oracle_order),
        )


# ---------------------------------------------------------------------------
# the 2-d run


def _load_csv(path: Path, header: str, rows: Optional[int] = None) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
    if first != header:
        raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != header.count(",") + 1 or rows not in (None, data.shape[0]):
        raise ValueError(f"{path.name}: shape {data.shape}, expected {rows} rows")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path.name}: non-finite value")
    return data


def _check_run(out: Path, n: int, T: float, res: Outcome) -> None:
    report = _read_lines(out / "report.csv")
    names = [line.split(",", 2)[0] for line in report[1:]]
    if report[0] != REPORT_HEADER or tuple(names) != CHECK_NAMES:
        res.errors.append(f"report.csv lists {names}")
    failing = [line.split(",", 1)[0] for line in report[1:] if line.split(",")[1] != "true"]
    if failing:
        res.errors.append(f"validation checks failed: {failing}")

    steps = _load_csv(out / "steps.csv", STEPS_HEADER)
    energy = steps[:, 2]
    if np.any(energy[1:] > energy[:-1] * (1.0 + ENERGY_SLACK)):
        res.errors.append("energy rose between steps")
    if abs(steps[-1, 0] - T) > 1e-12 * max(T, 1.0) or steps[-1, 1] != 0.0:
        res.errors.append(f"run ended at t={steps[-1, 0]!r}, expected {T!r}")

    nsteps = steps.shape[0] - 1
    taken = list(range(0, nsteps + 1, HEAT2D_STRIDE))
    if taken[-1] != nsteps:
        taken.append(nsteps)
    snaps = sorted(out.glob("snapshot_*.csv"))
    refs = sorted(out.glob("reference_*.csv"))
    if len(snaps) != len(taken) or len(refs) != len(taken):
        res.errors.append(f"{len(snaps)} snapshots and {len(refs)} references, "
                          f"expected {len(taken)} each")
        return
    cells = n * n
    sq = []
    for snap_path, ref_path in zip(snaps, refs):
        snap = _load_csv(snap_path, "x,y,uI_1,uII_1,uII_2", cells)
        ref = _load_csv(ref_path, "x,y,u_1", cells)
        if not np.array_equal(snap[:, :2], ref[:, :2]):
            res.errors.append(f"{snap_path.name} and {ref_path.name} disagree on points")
        sq.append(float(np.sum((snap[:, 2] - ref[:, 2]) ** 2)) / cells)
    times = steps[taken, 0]
    res.accuracy.update(
        errI_last=float(np.sqrt(np.trapezoid(sq, times))),
        final_ref_gap=math.sqrt(sq[-1]),
        steps=nsteps,
    )
