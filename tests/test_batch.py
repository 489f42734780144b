"""The numpy batch rows of `evolve` write the bytes of the scalar rows; grids are built a chunk at a time."""

import io
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import pure
from test_golden import CASES, GOLDEN

import stsdecay
from stsdecay import ReservoirConfig, StandardForm, StsParams, _batch, _cmd_evolve, _parser, cli, correlations
from stsdecay import standard_form_from_sts

# The column schema of the `evolve` table, as README documents it.
_EVOLVE_SCHEMA = ["t", "b1", "b2", "c", "ef", "d1", "d2", "mutual_information", "separable"]


class _Spy:
    """The ``_batch`` module, counting the chunks its ``stack`` answers and those it leaves to the scalar kernel."""

    def __init__(self):
        self.batched = self.left = 0

    def stack(self, kernel, *columns):
        calls = []

        def spied(*args, **ops):
            calls.append(ops)
            return kernel(*args, **ops)

        try:
            return _batch.stack(spied, *columns)
        finally:
            # The scalar kernel is called without ops.
            if {} in calls:
                self.left += 1
            else:
                self.batched += 1


def _use_batch(monkeypatch, module):
    """Make ``evolve``'s import of ``_batch`` give ``module``, or fail as it does without numpy where None."""
    if module is None:
        monkeypatch.delattr(stsdecay, "_batch")
        monkeypatch.setitem(sys.modules, "stsdecay._batch", None)
    else:
        monkeypatch.setattr(stsdecay, "_batch", module)


def _table(sf0, res, chunks, units, fmt, batch):
    """The output written, and the refusal that ended it, or None."""
    out = io.StringIO()
    try:
        _cmd_evolve._emit_evolve(out.write, sf0, res, chunks, units, fmt, batch)
    except (ValueError, cli._CliError) as exc:
        return out.getvalue(), repr(exc)
    return out.getvalue(), None


def _parsed(argv):
    """The state, reservoir, a function making its time grid's chunks, units and format of an `evolve` argv."""
    args = _parser._build_parser().parse_args(list(argv))
    make = _cmd_evolve._log_grid if args.log_spacing else cli._grid

    def grid():
        return make(args.t_start, args.t_end, args.points)

    return cli._state_from_args(args), cli._reservoir_from_args(args), grid, args.units, args.format


def _both_tables(argv):
    """``_table`` of ``argv`` from the scalar rows, and from the batch rows with its spy."""
    sf0, res, grid, units, fmt = _parsed(argv)
    spy = _Spy()
    tables = [_table(sf0, res, grid(), units, fmt, batch) for batch in (None, spy)]
    return tables, spy


def _scalar_rows(sf0, res, times, units):
    """The scalar rows of ``times`` before the first refused one, read back from their CSV lines, and the refusal or None.

    Each time is a chunk of its own, so every row before the refusal is written.
    """
    out = io.StringIO()
    try:
        _cmd_evolve._emit_evolve(out.write, sf0, res, ([t] for t in times), units, "csv")
    except (ValueError, cli._CliError) as exc:
        refusal = exc
    else:
        refusal = None
    cells = [line.split(",") for line in out.getvalue().splitlines()[1:]]
    return [(*map(float, row[:8]), row[8]) for row in cells], refusal


def _routing(argv):
    """``(batched, left)``: the chunks of ``argv`` that the batch must answer and leave.

    Counted from the scalar rows: a chunk is left when it holds a product
    (c = 0), pure or refused row, and a refused row ends the table.
    """
    sf0, res, grid, units, _ = _parsed(argv)
    batched = left = 0
    for times in grid():
        rows, refusal = _scalar_rows(sf0, res, times, units)
        if refusal is not None:
            return batched, left + 1
        if any(row[3] == 0.0 or pure(StandardForm(*row[1:4])) for row in rows):
            left += 1
        else:
            batched += 1
    return batched, left


@pytest.mark.parametrize("name", sorted(name for name, argv in CASES.items() if argv[0] == "evolve"))
def test_golden_evolve_tables_from_both_row_paths(name):
    (scalar, batch), spy = _both_tables(CASES[name])
    suffix = ".json" if "json" in CASES[name] else ".csv"
    assert scalar == batch == ((GOLDEN / (name + suffix)).read_text(encoding="utf-8"), None)
    assert (spy.batched, spy.left) == _routing(CASES[name])


def test_a_row_refused_mid_table_ends_both_paths_alike(capsys, monkeypatch):
    # b1(t) grows past 1e154 near t = 1.3e-6, where (b1 + b2)^2 overflows
    # and the row is refused as such; the chunks before it are already written.
    argv = [
        "evolve", "--b1", "2", "--b2", "2", "--c", "1", "--single-bath", "--nr", "1e160",
        "--t-end", "2e-6", "--points", str(_cmd_evolve._BATCH_POINTS), "--format", "json",
    ]
    spy = _Spy()
    _use_batch(monkeypatch, spy)
    batch = cli.main(argv), *capsys.readouterr()
    _use_batch(monkeypatch, None)
    scalar = cli.main(argv), *capsys.readouterr()
    assert batch == scalar
    code, out, err = batch
    assert code == 2 and err == (
        "error: (b1+b2)^2 - 4c^2 overflows a double for b1=1.340933194371452e+154, b2=2.0, c=0.999999329533178\n"
    )
    assert spy.batched >= 1 and spy.left == 1
    assert out.count('"t":') == spy.batched * cli._CHUNK_ROWS


@pytest.mark.parametrize("points", [3, _cmd_evolve._BATCH_POINTS])
def test_kappa_plus_below_one_half_ends_both_paths_alike(capsys, monkeypatch, points):
    argv = [
        "evolve", "--b1", "0.5", "--b2", "0.5", "--c", "1e-7", "--identical", "--nr", "0.5",
        "--t-end", "1", "--points", str(points),
    ]
    spy = _Spy()
    _use_batch(monkeypatch, spy)
    batch = cli.main(argv), *capsys.readouterr()
    _use_batch(monkeypatch, None)
    scalar = cli.main(argv), *capsys.readouterr()
    assert batch == scalar
    code, out, err = batch
    assert code == 2 and err == "error: kappa_plus = 0.49999999999998995 < 1/2: not a physical two-mode state\n"
    assert out == ""  # row t = 0 is the refused one
    assert (spy.batched, spy.left) == ((0, 1) if points == _cmd_evolve._BATCH_POINTS else (0, 0))


def test_row_lines_spell_cells_like_the_cell_writer():
    # The rows of evolve through the one writer: eight floats, then the spelled verdict.
    big = 1.7976931348623157e308  # finite cells whose sum overflows
    rows = [(0.0, big, big, 5e-324, 0.1, 1e-300, 2.5, 1e22, False), (0.5, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0, -0.0, True)]
    want = [",".join(cli._cell(value, str) for value in row) for row in rows]
    out = io.StringIO()
    cli._emit_rows(out.write, _EVOLVE_SCHEMA, "csv", 8, [[(*row[:8], cli._cell(row[8], str)) for row in rows]])
    assert out.getvalue() == "\n".join([",".join(_EVOLVE_SCHEMA), *want]) + "\n"
    for bad in (math.inf, -math.inf, math.nan):
        row = (0.0, 1.0, 1.0, bad, 0.1, 0.2, bad, 0.4, "true")
        with pytest.raises(cli._CliError, match=f"non-finite number {bad!r}$"):
            cli._emit_rows(out.write, _EVOLVE_SCHEMA, "csv", 8, [[row]])


def test_entropic_function_on_arrays_is_the_scalar_one_bit_for_bit():
    rng = random.Random(20261019)
    offsets = [0.0, -0.0, -1e-300, 5e-324, 1e-300, 1e-9, 0.5, 1.0, 1e15, 1e300, math.inf, math.nan]
    # Where 1/a overflows, up to 2^-1024, and the first offset past it.
    offsets += [1e-320, 5e-309, 2.0**-1024, math.nextafter(2.0**-1024, 1.0)]
    offsets += [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-320, 308) for _ in range(5000)]
    with np.errstate(all="ignore"):
        got = _batch._Arrays.h(np.array(offsets)).tolist()
    assert [repr(x) for x in got] == [repr(correlations._h_offset(a)) for a in offsets]
    assert math.isnan(got[11])


def test_entropic_function_of_subnormal_offsets_is_within_an_ulp_of_mpmath():
    # 1/a overflows for these offsets; h(1/2 + a) = (1 + a)*log1p(a) - a*log(a).
    mpmath = pytest.importorskip("mpmath")
    offsets = [5e-324, 1e-320, 5e-309]
    with np.errstate(all="ignore"):
        arrays = _batch._Arrays.h(np.array(offsets)).tolist()
    with mpmath.workprec(200):
        for a, array in zip(offsets, arrays):
            x = mpmath.mpf(a)
            exact = (1 + x) * mpmath.log1p(x) - x * mpmath.log(x)
            for got in (correlations._h_offset(a), array):
                assert abs(got - exact) <= math.ulp(float(exact)), (a, got)


def test_chunks_with_product_or_pure_rows_are_left_to_the_scalar_rows():
    # c underflows to 0 by t = 800 in a long grid; the vacuum is a product
    # state throughout; the squeezed vacuum is pure at t = 0.
    times = [0.0, 1.0, 800.0, 1500.0]
    res = ReservoirConfig.identical(1.0, 0.2)
    for sf in (
        standard_form_from_sts(StsParams(0.3, 0.2, 1.0)),
        StandardForm(0.5, 0.5, 0.0),
        standard_form_from_sts(StsParams(0.0, 0.0, 1.0)),
    ):
        for units in ("nats", "bits"):
            assert _scalar_rows(sf, res, times, units)[0][-1][3] == 0.0
            for fmt in ("csv", "json"):
                spy = _Spy()
                assert _table(sf, res, [times], units, fmt, spy) == _table(sf, res, [times], units, fmt, None)
                assert (spy.batched, spy.left) == (0, 1)
    assert pure(standard_form_from_sts(StsParams(0.0, 0.0, 1.0)))


@pytest.mark.parametrize("grid", [cli._grid, _cmd_evolve._log_grid], ids=["linear", "log"])
def test_first_chunk_of_a_million_point_grid_is_small(grid):
    tracemalloc.start()
    try:
        first = next(grid(0.001, 10.0, 10**6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(first) == cli._CHUNK_ROWS and first[0] == 0.001
    assert peak < 100_000  # 1024 floats and their list: about 33 kB


@pytest.mark.parametrize("num", [2, 3, 1023, 1024, 1025, 3000])
def test_grid_chunks_are_the_numpy_grids(num):
    for grid, numpy_grid in ((cli._grid, np.linspace), (_cmd_evolve._log_grid, np.geomspace)):
        chunks = list(grid(0.001, 7.5, num))
        assert [len(chunk) for chunk in chunks[:-1]] == [cli._CHUNK_ROWS] * (len(chunks) - 1)
        assert 1 <= len(chunks[-1]) <= cli._CHUNK_ROWS
        got = [x for chunk in chunks for x in chunk]
        assert [repr(x) for x in got] == [repr(x) for x in numpy_grid(0.001, 7.5, num).tolist()]
        assert got[-1] == 7.5


def _mixed_state_table():
    """A mixed state in a hot bath, and the times of one chunk that the batch answers."""
    sf0 = standard_form_from_sts(StsParams(1.0, 0.5, 1.0))
    return sf0, ReservoirConfig.single_bath(1.0, 0.2), next(cli._grid(0.0, 3.0, cli._CHUNK_ROWS))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_batch_chunk_becomes_python_rows_a_slice_at_a_time(fmt):
    # The chunk's columns are computed and checked whole on arrays; its
    # rows become Python tuples one slice at a time.  Holding all 1,024
    # rows as Python objects at once peaks near 414 kB; a slice at a
    # time, near 280 kB.
    sf0, res, times = _mixed_state_table()
    spy = _Spy()
    batch = _table(sf0, res, [times], "nats", fmt, spy)
    assert batch == _table(sf0, res, [times], "nats", fmt, None)
    assert (spy.batched, spy.left) == (1, 0)

    def discard(text):
        pass

    _cmd_evolve._emit_evolve(discard, sf0, res, [times], "nats", fmt, _batch)
    tracemalloc.start()
    try:
        _cmd_evolve._emit_evolve(discard, sf0, res, [times], "nats", fmt, _batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 350_000


class _NonFiniteAt:
    """The ``_batch`` module, whose ``stack`` puts ``value`` in row ``row`` of column ``column`` of chunk ``chunk`` (from 0), for each of ``cells``."""

    def __init__(self, chunk, *cells):
        self.chunk, self.cells, self.stacks = chunk, cells, 0

    def stack(self, kernel, *columns):
        results = _batch.stack(kernel, *columns)
        if self.stacks == self.chunk:
            for row, column, value in self.cells:
                results[_EVOLVE_SCHEMA.index(column)][row] = value
        self.stacks += 1
        return results


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "chunk, cells, refused",
    [
        # inf in row 700 of the second of three chunks.
        (1, [(700, "ef", math.inf)], math.inf),
        # inf in the first chunk: nothing is written.
        (0, [(5, "d1", math.inf)], math.inf),
        # NaN in a row before inf, though in a later column: the NaN is named.
        (1, [(300, "d2", math.nan), (301, "b1", math.inf)], math.nan),
    ],
    ids=["inf_in_second_chunk", "inf_in_first_chunk", "nan_before_inf"],
)
def test_a_batch_chunk_with_a_non_finite_float_is_refused_whole(fmt, chunk, cells, refused):
    # The output is exactly the rows of the chunks before the refused one,
    # and the refusal is the scalar path's: the first non-finite cell in
    # row order, as the writer checks a row's cells.
    sf0, res, _ = _mixed_state_table()
    chunks = list(cli._grid(0.0, 3.0, 3 * cli._CHUNK_ROWS))
    out, refusal = _table(sf0, res, chunks, "nats", fmt, _NonFiniteAt(chunk, *cells))
    before, _ = _table(sf0, res, chunks[:chunk], "nats", fmt, None)
    assert out == before[: -len("\n" if fmt == "csv" else "\n]\n")]
    assert refusal == repr(cli._CliError(f"refusing to print the non-finite number {refused!r}"))
