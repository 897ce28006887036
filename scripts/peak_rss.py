#!/usr/bin/env python3
"""Peak memory of one `relaxbench` command, and the bytes it writes, one line per case.

Each case runs `relaxbench.cli.main` in a fresh Python process with one BLAS
thread, and prints that process's peak resident set (`ru_maxrss` of
RUSAGE_SELF: the command only, not the writers it forks), the command's wall
time, and one sha256 over the names and bytes of every file it wrote.  Two
source trees write alike exactly when their digests agree, so running this
script in each side by side shows both the memory and the identity of a
change.  The cases are:

* heat2d-run: heat2d, Rusanov, 128 x 128, eps 0.05, T 0.02, reference on,
  a snapshot every 23 steps (11 snapshots, as the benchmark's heat2d run);
* heat2d-stride1: the same run with a snapshot after every step (229 snapshots);
* carleman-ladder: `converge` on carleman, spectral, n=256, cfl 0.1, T 0.1,
  eps 0.2/0.1/0.05/0.025 (its rungs and reference run in forked workers).

From the root of a source checkout:

    PYTHONPATH=src python scripts/peak_rss.py
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAT2D = ("[system]\nkind = demo\nname = heat2d\n[grid]\nn = 128\n"
          "[solver]\nflux = rusanov\nsnapshot_stride = {stride}\n"
          "[experiment]\nT = 0.02\nepsilon = 0.05\nreference = true\nu0_amplitude = 1.0\n")
CARLEMAN = ("[system]\nkind = demo\nname = carleman\n[grid]\nn = 256\n"
            "[solver]\nflux = spectral\ncfl = 0.1\n"
            "[experiment]\nT = 0.1\nepsilons = 0.2, 0.1, 0.05, 0.025\nu0_amplitude = 0.48\n")
CASES = (  # name, command, config
    ("heat2d-run", "run", HEAT2D.format(stride=23)),
    ("heat2d-stride1", "run", HEAT2D.format(stride=1)),
    ("carleman-ladder", "converge", CARLEMAN),
)
# run in the child: the command, then its own peak RSS (KiB on Linux) and wall time
CHILD = """
import resource, sys, time
import relaxbench.cli as cli
t0 = time.perf_counter()
rc = cli.main(sys.argv[1:])
wall = time.perf_counter() - t0
print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, wall)
"""


def tree_digest(out: Path) -> str:
    """sha256 over every file's name and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main():
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    for name, command, config in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "exp.cfg", Path(tmp) / "out"
            cfg.write_text(config)
            proc = subprocess.run([sys.executable, "-c", CHILD, command, str(cfg), "--out", str(out)],
                                  env=env, capture_output=True, text=True, check=True)
            rc, rss_kib, wall = proc.stdout.split()[-3:]
            files = len(list(out.iterdir()))
            print(f"{name}: exit {rc}, peak RSS {int(rss_kib) / 1024:.2f} MiB, wall {float(wall):.2f} s, "
                  f"{files} files, sha256 {tree_digest(out)[:16]}")


if __name__ == "__main__":
    main()
