"""Byte pins for the CSV artifacts, on small inputs full of awkward floats.

The files in `tests/data/` were written by the row-by-row writers that the
shared table writer replaced; every artifact must stay byte for byte what
they produced.  The inputs hold -0.0, subnormals, the largest double, values
where %.17g switches to exponent form, and (where the type admits them) inf
and nan.
"""

import decimal
import io
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relaxbench as rb
from relaxbench import cli, core, parasolver
from relaxbench.core import CheckResult, ConvergenceTable, LadderRow, ValidationReport, csv_text
from relaxbench.hypersolver import StepLog, Trajectory, snapshot_csv

GOLDEN = Path(__file__).parent / "data"

# finite values that stress %.17g: signed zero, subnormals, extremes, and both
# sides of the switch between fixed and exponent notation
AWKWARD = [
    -0.0, 0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, -1.0 / 3.0,
    1e-4, 1e-5, 9.999999999999999e-5, 1e16, 1e17, 9.9999999999999984e16,
    123456789.125, -2.5, 1.0, 7e22, 6.02214076e23,
]
NONFINITE = [np.inf, -np.inf, np.nan]


def _fields(shape, count, shift):
    """`count` components of awkward values laid out on a grid of `shape`."""
    size = count * int(np.prod(shape))
    return np.roll(np.resize(AWKWARD, size), shift).reshape((count,) + shape)


def snapshot_1d():
    grid = rb.SpatialGrid((8,), (3.0,))
    return rb.FieldState(grid, _fields((8,), 1, 0), _fields((8,), 2, 7), 0.0, 0.1)


def snapshot_2d():
    grid = rb.SpatialGrid((4, 5), (1.0, 7e-6))
    return rb.FieldState(grid, _fields((4, 5), 1, 3), _fields((4, 5), 2, 11), 0.25, 0.05)


def reference_2d():
    grid = rb.SpatialGrid((4, 4), (2.0, 1e20))
    u = _fields((4, 4), 2, 5)
    u[0, 1, 2], u[1, 3, 0], u[1, 0, 1] = NONFINITE
    return grid, u


def trajectory():
    values = AWKWARD + NONFINITE
    log = StepLog(values, values[5:] + values[:5], values[11:] + values[:11], values[17:] + values[:17],
                  [0.0] * len(values))
    return Trajectory([snapshot_1d()], log, 1.0, 0.0)


def table():
    return ConvergenceTable(rows=(
        LadderRow(1.7976931348623157e308, 0.1, -0.0, 5e-324, None),
        LadderRow(0.2, np.inf, 1e-5, 1e16, np.nan),
        LadderRow(0.1, 1e17, np.nan, 0.0, -0.0),
        LadderRow(1e-5, 2.2250738585072009e-308, 1.0, np.inf, 1.9999999999999998),
        LadderRow(5e-324, 0.0, 6.02214076e23, 1.0 / 3.0, np.inf),
    ))


def golden_texts():
    """Every pinned artifact, by file name in `tests/data/`."""
    return {
        "snapshot_1d.csv": snapshot_csv(snapshot_1d()),
        "snapshot_2d.csv": snapshot_csv(snapshot_2d()),
        "reference_2d.csv": parasolver.reference_csv(*reference_2d()),
        "steps.csv": trajectory().steps_csv(),
        "convergence.csv": table().to_csv(),
    }


@pytest.mark.parametrize("name", sorted(golden_texts()))
def test_matches_golden(name):
    assert golden_texts()[name] == (GOLDEN / name).read_text()


def test_golden_inputs_cover_the_awkward_values():
    text = "".join(golden_texts().values())
    for token in ("-0,", "4.9406564584124654e-324", "1.7976931348623157e+308", "inf", "nan",
                  "1e+17", "99999999999999984", "10000000000000000", "0.0001,",
                  "1.0000000000000001e-05"):
        assert token in text
    assert table().to_csv().split("\n")[1].endswith(",")


def test_empty_tables_are_header_only():
    empty = Trajectory([snapshot_1d()], StepLog([], [], [], [], []), 1.0, 0.0)
    assert empty.steps_csv() == "t,dt,energy,max_speed\n"
    header = "epsilon,errI,errII_weak,sup_eps_uII,observed_order\n"
    assert ConvergenceTable(rows=()).to_csv() == header


def test_report_text_fields():
    """Commas in a witness or note become spaces; an empty witness is an empty field."""
    report = ValidationReport((
        CheckResult("rank_condition", False, -0.0, {"x": np.array([0.5, 1e-5]), "u": 0.1},
                    note="rank 0, not 1"),
        CheckResult("dissipativity", True, 1e-5, note="a,b"),
        CheckResult("symmetrizer", True, np.inf),
    ))
    assert cli.report_csv(report) == (
        "check,pass,margin,witness\n"
        "rank_condition,false,-0,x=0.5 1e-05;u=0.1;note=rank 0  not 1\n"
        "dissipativity,true,1.0000000000000001e-05,note=a b\n"
        "symmetrizer,true,inf,\n"
    )


@pytest.mark.parametrize("make", [snapshot_1d, snapshot_2d])
def test_snapshot_round_trips_bitwise(make):
    state = make()
    data = np.loadtxt(io.StringIO(snapshot_csv(state)), delimiter=",", skiprows=1, ndmin=2)
    k, m = state.k, state.m
    expected = np.vstack([state.grid.flat_points(), state.uI.reshape(k, -1),
                          state.uII.reshape(m, -1)]).T
    assert data.shape == expected.shape
    assert data.tobytes() == expected.tobytes()


def test_long_table_matches_row_by_row():
    """Tables longer than one formatting chunk: full chunks, then a partial one."""
    rows = 2 * 1024 + 37
    values = np.resize(AWKWARD + NONFINITE, (3, rows))
    notes = [f"r{i},x" if i % 3 else None for i in range(rows)]
    expected = "a,b,c,note\n" + "".join(
        "%.17g,%.17g,%.17g,%s\n" % (*values[:, i].tolist(), "" if n is None else n.replace(",", " "))
        for i, n in enumerate(notes))
    assert csv_text(("a", "b", "c", "note"), [*values, notes]) == expected


def test_formatting_memory_is_bounded():
    """Only one chunk of cells is held as Python objects: the peak is about twice the text."""
    header, columns = ("a", "b", "c", "d", "e"), np.random.default_rng(0).standard_normal((5, 16384))
    csv_text(header, columns[:, :10])
    tracemalloc.start()
    try:
        text = csv_text(header, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)


@pytest.mark.parametrize("ns, lengths", [((256,), (3.0,)), ((12, 12), (2.0, 7e-6)), ((16, 20), (1e20, 0.3))])
def test_field_csv_matches_csv_text(ns, lengths):
    """The cached coordinate text gives plain csv_text's bytes, for snapshots and references."""
    grid = rb.SpatialGrid(ns, lengths)
    u = _fields(ns, 2, 3)
    names = ["x", "y"][: grid.d] + ["u_1", "u_2"]
    expected = csv_text(names, np.vstack([grid.flat_points(), u.reshape(2, -1)]))
    assert parasolver.reference_csv(grid, u) == expected
    state = rb.FieldState(grid, u[:1], u, 0.0, 0.1)
    names = names[: grid.d] + ["uI_1", "uII_1", "uII_2"]
    expected = csv_text(names, np.vstack([grid.flat_points(), u[:1].reshape(1, -1), u.reshape(2, -1)]))
    assert snapshot_csv(state) == expected


def test_field_csv_keys_its_coordinates_by_the_whole_grid():
    """Grids that differ only in their lengths do not share coordinate text."""
    u = np.zeros((1, 12, 12))
    texts = [parasolver.reference_csv(rb.SpatialGrid((12, 12), lengths), u)
             for lengths in ((1.0, 1.0), (1.0, 2.0), (1.0, 1.0))]
    assert texts[0] != texts[1] and texts[0] == texts[2]
    assert texts[1].split("\n")[1] == "0.041666666666666664,0.083333333333333329,0"


def test_ragged_columns_are_refused():
    """Columns of different lengths, or a header of another count, raise rather than drop rows."""
    with pytest.raises(ValueError, match="columns differ in length: 1, 2"):
        csv_text(("a", "b"), [[1.0], [3.0, 4.0]])
    with pytest.raises(ValueError, match="columns differ in length: 2, 3"):
        csv_text(("a", "b"), [np.zeros(2), np.zeros(3)])
    with pytest.raises(ValueError, match="3 header names for 2 columns"):
        csv_text(("a", "b", "c"), [[1.0], [2.0]])
    with pytest.raises(ValueError, match="2 header names for 3 columns"):
        csv_text(("a", "b"), np.zeros((3, 4)))
    with pytest.raises(ValueError, match="1-d"):
        csv_text(("a",), [np.zeros((2, 2))])


def test_text_fields_keep_their_row():
    """Newlines, carriage returns and NULs in a text field become spaces, as commas do."""
    text = csv_text(("a", "note"), [[1.0, 2.0, 3.0], ["x\ny", "p,q\r\nr", "n\0m"]])
    assert text == "a,note\n1,x y\n2,p q  r\n3,n m\n"
    assert len(text.splitlines()) == 4


# ---------------------------------------------------------------------------
# the vectorized %.17g: exactly the text of '%.17g' % v, for every float64


def _percent_column(values) -> str:
    return "v\n" + "".join("%.17g\n" % v for v in np.asarray(values, dtype=np.float64).tolist())


def _ties():
    """Doubles whose exact decimal expansion has 18 significant digits, the last a 5.

    m / 2^e with m odd has e decimals, the last a 5, and m 5^e as its significant
    digits; the %.17g of each lies exactly halfway between two 17-digit decimals.
    """
    out = []
    for e in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** e), min(10 ** 18 // 5 ** e, 2 ** 53)
        for m in (lo, (lo + hi) // 2, hi - 1):
            m -= 1 - m % 2  # odd
            if m >= lo:
                out += [math.ldexp(m, -e), -math.ldexp(m, -e)]
    return out


def _fallback_values(monkeypatch):
    """Record every value g17_bytes leaves to '%.17g' % v."""
    seen = []
    percent = core._percent_g17

    def recorded(x):
        seen.extend(x.tolist())
        return percent(x)

    monkeypatch.setattr(core, "_percent_g17", recorded)
    return seen


@settings(max_examples=200)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_g17_matches_percent_on_any_bits(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert csv_text(("v",), [values]) == _percent_column(values)


def test_g17_matches_percent_on_the_hard_cases():
    """Powers of ten +-3 ulps, big integers, zeros, subnormals, non-finite values, exact ties."""
    tens = np.array([float(f"1e{j}") for j in range(-323, 309)])
    cases = [tens]
    for direction in (np.inf, -np.inf):
        near = tens
        for _ in range(3):
            near = np.nextafter(near, direction)
            cases.append(near)
    rng = np.random.default_rng(5)
    for b in range(53, 64):
        cases.append(np.array([2.0 ** b + j * 2.0 ** (b - 52) for j in range(-3, 4)]))
    cases.append(rng.integers(2 ** 53, 2 ** 63, 4000, dtype=np.int64).astype(np.float64))
    subnormals = rng.integers(1, 2 ** 52, 200, dtype=np.uint64).view(np.float64)
    cases.append(np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                  2.2250738585072014e-308, np.inf, -np.inf, np.nan, -np.nan],
                                 subnormals, -subnormals]))
    cases.append(np.array(_ties()))
    values = np.concatenate(cases)
    assert csv_text(("v",), [values]) == _percent_column(values)


def _is_tie(x: float) -> bool:
    digits = decimal.Decimal(x).as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def test_g17_ties_take_the_fallback(monkeypatch):
    """Exact ties go to '%.17g' itself (its round-half-even); other finite values in range do not."""
    ties = _ties()
    assert len(ties) > 40 and all(map(_is_tie, ties))
    seen = _fallback_values(monkeypatch)
    assert csv_text(("v",), [np.array(ties)]) == _percent_column(ties)
    assert sorted(seen) == sorted(ties)
    seen.clear()
    # ties are common where few fraction bits are left (x.25 and x.75 near 1e15)
    ordinary = np.random.default_rng(6).standard_normal(4000) * 10.0 ** np.arange(-20, 20).repeat(100)
    assert csv_text(("v",), [ordinary]) == _percent_column(ordinary)
    assert 0 < len(seen) < 200 and all(map(_is_tie, seen))


def test_g17_bytes_rows_are_nul_padded_percent_text():
    values = np.array(AWKWARD + NONFINITE + [-1.2345678901234567e-300])
    rows = core.g17_bytes(values)
    assert rows.shape == (len(values), 32) and rows.dtype == np.uint8
    assert (rows[:, -1] == 0).all()
    assert [r.tobytes().replace(b"\0", b"").decode() for r in rows] == ["%.17g" % v for v in values.tolist()]


def test_field_csv_memory_is_bounded():
    """A 128^2 three-component snapshot peaks below 2.5x its text.

    The grid's coordinate block is cached first, as it is for every field file
    of a run after the first; it is built once per grid and kept.
    """
    grid = rb.SpatialGrid((128, 128), (1.0, 1.0))
    rng = np.random.default_rng(0)
    uI, uII = rng.standard_normal((1, 128, 128)), rng.standard_normal((2, 128, 128))
    state = rb.FieldState(grid, uI, uII, 0.0, 0.05)
    snapshot_csv(state)
    tracemalloc.start()
    try:
        text = snapshot_csv(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)
