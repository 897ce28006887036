"""relaxbench benchmark: run one workload through `relaxbench.cli.main` and report.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from `src/`.
Each command runs in a fresh worker process (closed loop, one at a time, no
`--threads`), writes its artifacts to a temporary directory under
`.bench_tmp/`, and is checked, fingerprinted and deleted before the next one
starts.  With `--trace 0` commands repeat for up to S seconds (at least
twice, so fingerprints can be compared) and the end-to-end metrics of BENCHMARK.json
are reported as medians.  With `--trace 1` one untraced and one traced
command run (plus `--threads 2` on the ladders) and the per-layer metrics
are reported.  `--smoke` shrinks the grids.  The last line of output is the
JSON result; the lines before it are the record: environment, fingerprints
and accuracy figures.  `--workload all` runs every workload in turn, prints a
table of all metrics and a combined result keyed `<workload>/<metric>`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from tracing import LAYERS
from workloads import WORKLOADS, Outcome, Workload, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"

BLAS_THREADS = 1       # single-threaded BLAS: steadier on a shared machine, <= nproc
SETUP_PROBES = 4       # import-only workers per run, on top of one per command
MIN_OPS = 2            # so every run compares two fingerprints, budget permitting
OP_TIMEOUT_S = 120
RUN_BUDGET_S = 150     # no command starts that could end after this


@dataclass
class Op:
    outcome: Outcome
    wall_s: Optional[float] = None
    setup_s: Optional[float] = None
    peak_rss_mib: Optional[float] = None
    worker: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.outcome.errors


def worker_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("RELAXBENCH_THREADS", "PYTHONPATH")}
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    return env


def run_worker(tmp: Path, cli_args: List[str], trace: bool = False):
    """One fresh worker process; returns (its result dict or {}, exit code, stderr)."""
    result = tmp / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), str(result)]
    if trace:
        cmd.append("--trace")
    if cli_args:
        cmd += ["--", *cli_args]
    try:
        proc = subprocess.run(cmd, cwd=tmp, env=worker_env(), capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {}, -1, f"timed out after {OP_TIMEOUT_S} s"
    data = json.loads(result.read_text()) if proc.returncode == 0 and result.exists() else {}
    return data, proc.returncode, proc.stderr


def setup_probe(tmp: Path) -> float:
    data, code, err = run_worker(tmp, [])
    if code != 0:
        raise SystemExit(f"importing relaxbench.cli failed:\n{err}")
    return data["setup_s"]


def run_op(workload: Workload, config: Path, tmp: Path, smoke: bool,
           trace: bool = False, threads: Optional[int] = None) -> Op:
    out = tmp / "out"
    shutil.rmtree(out, ignore_errors=True)
    args = [workload.command, str(config), "--out", str(out)]
    if threads is not None:
        args += ["--threads", str(threads)]
    data, code, err = run_worker(tmp, args, trace=trace)
    outcome = check(workload, out, data.get("rc", 1), smoke)
    if code != 0:
        outcome.errors.append(f"worker exited {code}: {err.strip()[-500:]}")
    shutil.rmtree(out, ignore_errors=True)
    return Op(outcome, data.get("wall_s"), data.get("setup_s"), data.get("peak_rss_mib"), data)


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> Dict[str, object]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# runs


def mark_nondeterminism(ops: List[Op]) -> None:
    """Identical inputs must give bit-identical artifacts; a mismatch fails the op."""
    first = ops[0].outcome.fingerprint
    for op in ops[1:]:
        if op.outcome.fingerprint != first:
            op.outcome.errors.append(
                f"fingerprint {op.outcome.fingerprint[:16]} differs from first run {first[:16]}")


def timed_run(workload: Workload, config: Path, tmp: Path, seconds: float, smoke: bool):
    """Repeat the command within `seconds` (at least MIN_OPS times); end-to-end metrics.

    A command starts only if the slowest one so far would still end in time,
    so a run lasts about `seconds` whatever the length of one command.
    """
    setup_probe(tmp)  # compiles the bytecode; not counted
    setups = [setup_probe(tmp) for _ in range(SETUP_PROBES)]
    ops: List[Op] = []
    longest = 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops.append(run_op(workload, config, tmp, smoke))
        longest = max(longest, time.perf_counter() - t0)
        report_op(len(ops), ops[-1])
        expected_end = time.perf_counter() - start + longest
        if expected_end > RUN_BUDGET_S or (len(ops) >= MIN_OPS and expected_end > seconds):
            break
    mark_nondeterminism(ops)
    timed = [op for op in ops if op.wall_s is not None]
    if not timed:
        raise SystemExit("no command completed; nothing to report")
    errs = [op.outcome.errI_last for op in ops if op.outcome.errI_last is not None]
    return ops, {
        "wall_s": statistics.median(op.wall_s for op in timed),
        "setup_s": statistics.median(setups + [op.setup_s for op in timed]),
        "peak_rss_mib": statistics.median(op.peak_rss_mib for op in timed),
        "ok_ratio": sum(op.ok for op in ops) / len(ops),
        "errI_last": errs[0] if errs else 0.0,
    }


def traced_run(workload: Workload, config: Path, tmp: Path, smoke: bool):
    """One untraced and one traced command (and --threads 2 on a ladder); layer metrics."""
    base = run_op(workload, config, tmp, smoke)
    report_op(1, base)
    traced = run_op(workload, config, tmp, smoke, trace=True)
    report_op(2, traced)
    ops = [base, traced]
    speedup = 0.0
    if workload.command == "converge" and len(os.sched_getaffinity(0)) >= 2:
        threaded = run_op(workload, config, tmp, smoke, threads=2)
        report_op(3, threaded)
        ops.append(threaded)
        if base.wall_s and threaded.wall_s:
            speedup = base.wall_s / threaded.wall_s
    mark_nondeterminism(ops)
    if "layers" not in traced.worker or base.wall_s is None:
        raise SystemExit("the traced or the untraced command did not complete")

    layers = dict(traced.worker["layers"])
    layers.update({
        "cli.bytes_written": traced.outcome.bytes_written,
        "cli.artifacts": len(traced.outcome.digests),
        "diagnostics.threads2_speedup": speedup,
        "trace.overhead_s": traced.wall_s - base.wall_s,
    })
    root = layers["trace.root_s"]
    self_sum = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    if layers["trace.roots"] != 1 or abs(self_sum - root) > 1e-6 * root:
        traced.outcome.errors.append(f"layer self times sum to {self_sum!r}, root span is {root!r}")
    shares = sorted(((layers[f"{layer}.self_s"], layer) for layer in LAYERS), reverse=True)
    print("self time by layer: " + ", ".join(
        f"{layer} {t:.3f} s ({100 * t / root:.1f}%)" for t, layer in shares))
    print(f"dominant layer: {shares[0][1]}")
    print("spans " + json.dumps(traced.worker["spans"], sort_keys=True))
    return ops, layers


def report_op(i: int, op: Op) -> None:
    status = "ok" if op.ok else "FAILED: " + "; ".join(op.outcome.errors)
    wall = "-" if op.wall_s is None else f"{op.wall_s:.4f} s"
    print(f"command {i}: wall {wall}, fingerprint {op.outcome.fingerprint[:16]}, {status}",
          flush=True)


def bench_one(workload: Workload, args, metric_specs) -> Dict[str, object]:
    """Run one workload; print the record and return the result object."""
    TMP_ROOT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmpname:
            tmp = Path(tmpname)
            config = tmp / "config.ini"
            config.write_text(workload.config(args.seed, smoke=args.smoke))
            if args.trace:
                ops, values = traced_run(workload, config, tmp, args.smoke)
            else:
                ops, values = timed_run(workload, config, tmp, args.seconds, args.smoke)
    finally:
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    first = ops[0].outcome
    record = {
        "workload": workload.name,
        "environment": environment(args.seed),
        "config": workload.config(args.seed, smoke=args.smoke),
        "fingerprint": first.fingerprint,
        "artifacts": first.digests,
        "accuracy": first.accuracy,
        "wall_s": [op.wall_s for op in ops],
    }
    print("record " + json.dumps(record, sort_keys=True))
    failed = sum(not op.ok for op in ops)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced-size workloads")
    args = parser.parse_args(argv)

    if not (SRC / "relaxbench" / "cli.py").is_file():
        print(f"no relaxbench sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    if args.workload != "all":
        print(json.dumps(bench_one(WORKLOADS[args.workload], args, metric_specs)))
        return 0
    results = {}
    for name, workload in WORKLOADS.items():
        print(f"== {name}", flush=True)
        results[name] = bench_one(workload, args, metric_specs)
    for name, res in results.items():
        for metric, v in res["metrics"].items():
            print(f"{name:16s} {metric:34s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{m}": v for name, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
