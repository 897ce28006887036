#!/usr/bin/env python3
"""How far two source trees' pinned artifacts lie apart, per CSV column, relative to the old tree's.

    python scripts/pin_drift.py OLD_SRC NEW_SRC

Each SRC is a source tree's `src` directory.  For each, a subprocess writes
every CSV that a pin digests or holds: the `run_*` files that
`tests/test_runs.py` generates, and every CSV of every command that
`scripts/artifact_hashes.py` runs.  The generators and commands are this
checkout's, so only the source tree differs.  For each CSV the script prints
the largest |new - old| of each numeric column divided by that column's largest
|old| (the absolute difference where the old column is all zero), and names any
text column that differs.  It exits 1 if a file is missing on either side, a
shape or a text cell differs, or any column moves by more than 1e-12; else 0.

Since both trees run this checkout's generators, a generator change would show
as drift of the source.  So before the table the script compares this
checkout's `tests/test_runs.py`, `tests/conftest.py` and
`scripts/artifact_hashes.py` byte for byte with the same paths beside OLD_SRC
(`OLD_SRC/../tests`, `OLD_SRC/../scripts`), and prints one line for each that
differs or is missing there; the exit code does not depend on them.  Run
against an exported parent commit whose `tests/conftest.py` was edited, it
names that file alone.
"""

import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOUND = 1e-12
GENERATORS = ("tests/test_runs.py", "tests/conftest.py", "scripts/artifact_hashes.py")


def write_csvs(dest):
    """Write every pinned CSV of the source tree on sys.path under dest, one directory per command."""
    import artifact_hashes
    import test_runs

    dest = Path(dest)
    (dest / "tests").mkdir(parents=True)
    for name, text in test_runs.golden_texts():
        (dest / "tests" / name).write_text(text)
    with tempfile.TemporaryDirectory() as tmp:
        for label, _, out, _ in artifact_hashes.outputs(Path(tmp)):
            for path in sorted(out.glob("*.csv")):
                target = dest / label.replace(" ", "_") / path.name
                target.parent.mkdir(exist_ok=True)
                target.write_bytes(path.read_bytes())


def _tree_csvs(src, dest):
    path = os.pathsep.join([str(Path(src).resolve()), str(ROOT / "scripts"), str(ROOT / "tests")])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", "import sys, pin_drift; pin_drift.write_csvs(sys.argv[1])", str(dest)],
                   env=env, check=True)
    return {p.relative_to(dest): p for p in dest.rglob("*.csv")}


def _columns(path):
    header, *rows = list(csv.reader(path.open(newline="")))
    return header, list(zip(*rows)) if rows else [() for _ in header]


def _numbers(cells):
    """The column as floats, an empty cell as nan; None if a cell is text."""
    try:
        return [float(c) if c else float("nan") for c in cells]
    except ValueError:
        return None


def drift(old, new):
    """(column name, drift or None for a differing text column) for every column that moved, and their worst."""
    (head_old, cols_old), (head_new, cols_new) = _columns(old), _columns(new)
    if head_old != head_new or [len(c) for c in cols_old] != [len(c) for c in cols_new]:
        return [("shape", None)], float("inf")
    moved, worst = [], 0.0
    for name, a, b in zip(head_old, cols_old, cols_new):
        x, y = _numbers(a), _numbers(b)
        if x is None or y is None or [u != u for u in x] != [v != v for v in y]:
            if a != b:
                moved.append((name, None))
                worst = float("inf")
            continue
        scale = max((abs(v) for v in x if v == v), default=0.0)
        gap = max((abs(u - v) for u, v in zip(x, y) if u == u), default=0.0)
        rel = gap / scale if scale > 0 else gap
        moved.append((name, rel))
        worst = max(worst, rel)
    return moved, worst


def generator_changes(old_src):
    """One line for each generator of this checkout that differs from, or is missing in, OLD_SRC's checkout."""
    old_root = Path(old_src).resolve().parent
    for rel in GENERATORS:
        theirs = old_root / rel
        if not theirs.is_file():
            yield f"{rel}: missing beside OLD_SRC; this checkout's copy ran on both trees"
        elif theirs.read_bytes() != (ROOT / rel).read_bytes():
            yield f"{rel}: differs from {theirs}; this checkout's copy ran on both trees"


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for line in generator_changes(argv[0]):
        print(line)
    with tempfile.TemporaryDirectory() as tmp:
        old, new = (_tree_csvs(src, Path(tmp) / side) for src, side in zip(argv, ("old", "new")))
        worst = 0.0
        for rel in sorted(old.keys() | new.keys()):
            if rel not in old or rel not in new:
                print(f"{rel}: only in {'new' if rel in new else 'old'}")
                worst = float("inf")
                continue
            moved, file_worst = drift(old[rel], new[rel])
            worst = max(worst, file_worst)
            cells = ", ".join(f"{name} {'text differs' if d is None else f'{d:.3g}'}" for name, d in moved)
            print(f"{rel}: max {file_worst:.3g}; {cells}")
        print(f"largest drift {worst:.3g} over {len(old.keys() | new.keys())} files (bound {BOUND:g})")
    return 0 if worst <= BOUND else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
