"""The numpy batch rows of `evolve` write the bytes of the scalar rows; grids are built a chunk at a time."""

import io
import math
import random
import tracemalloc

import numpy as np
import pytest
from test_golden import CASES, GOLDEN

from stsdecay import ReservoirConfig, StandardForm, StsParams, _batch, cli, correlations, is_pure, standard_form_from_sts
from stsdecay import _evolve_table as table


class _Spy:
    """The ``_batch`` module, counting the chunks it answers and those it leaves to the scalar rows."""

    def __init__(self):
        self.batched = self.left = 0

    def evolve_rows(self, *args):
        rows = _batch.evolve_rows(*args)
        if rows is None:
            self.left += 1
        else:
            self.batched += 1
        return rows


def _table(sf0, res, chunks, units, fmt, batch):
    """The output written, and the refusal that ended it, or None."""
    out = io.StringIO()
    try:
        table.emit(out.write, sf0, res, chunks, units, fmt, batch)
    except (ValueError, cli._CliError) as exc:
        return out.getvalue(), repr(exc)
    return out.getvalue(), None


def _parsed(argv):
    """The state, reservoir, time-grid arguments, units and format of an `evolve` argv."""
    args = cli._build_parser().parse_args(list(argv))
    grid = (args.t_start, args.t_end, args.points, args.log_spacing)
    return cli._state_from_args(args), cli._reservoir_from_args(args), grid, args.units, args.format


def _both_tables(argv):
    """``_table`` of ``argv`` from the scalar rows, and from the batch rows with its spy."""
    sf0, res, grid, units, fmt = _parsed(argv)
    spy = _Spy()
    tables = [_table(sf0, res, table.grid_chunks(*grid), units, fmt, batch) for batch in (None, spy)]
    return tables, spy


def _routing(argv):
    """``(batched, left)``: the chunks of ``argv`` that the batch must answer and leave.

    Counted from the scalar rows: a chunk is left when it holds a product
    (c = 0), pure or refused row, and a refused row ends the table.
    """
    sf0, res, grid, units, _ = _parsed(argv)
    batched = left = 0
    for times in table.grid_chunks(*grid):
        try:
            rows = list(table.scalar_rows(sf0, res, times, units))
            cli._emit_rows(lambda text: None, cli._EVOLVE_COLUMNS, "csv", 8, [rows])
        except (ValueError, cli._CliError):
            return batched, left + 1
        if any(row[3] == 0.0 or is_pure(StandardForm(*row[1:4])) for row in rows):
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


_LAYOUTS = {
    "identical": ("--identical", "--gamma", "{g}", "--nr", "{nr}"),
    "single1": ("--single-bath", "--gamma", "{g}", "--nr", "{nr}"),
    "single2": ("--gamma2", "{g}", "--nr2", "{nr}"),
    "equal_rates": ("--gamma1", "{g}", "--nr1", "{nr}", "--gamma2", "{g}", "--nr2", "{nr2}"),
    "unequal_rates": ("--gamma1", "{g}", "--nr1", "{nr}", "--gamma2", "{g2}", "--nr2", "{nr2}"),
}


def _seeded_argvs(seed=20260418):
    """`evolve` argvs over every state kind, bath layout, unit, format and grid spacing."""
    rng = random.Random(seed)

    def num(lo, hi):
        return repr(rng.uniform(lo, hi))

    states = {
        "product": lambda: ("--b1", num(0.5, 4.0), "--b2", num(0.5, 4.0), "--c", "0"),
        "pure": lambda: ("--n1", "0", "--n2", "0", "--r", num(0.1, 10.0)),
        "mixed": lambda: ("--n1", num(0.0, 5.0), "--n2", num(0.0, 5.0), "--r", num(0.5, 10.0)),
        "form": lambda: ("--b1", "3.2", "--b2", "1.4", "--c", num(0.1, 1.7)),
    }
    argvs = []
    for i in range(30):
        kind = list(states)[i % 4]
        layout = list(_LAYOUTS)[i % 5]
        # Every third bath is at zero temperature; the others are hot, so
        # entangled inputs cross into separability inside the grid.
        nr = 0.0 if i % 3 == 0 else rng.uniform(0.1, 1.5)
        values = {"g": rng.uniform(0.3, 2.0), "g2": rng.uniform(2.5, 4.0), "nr": nr, "nr2": nr + rng.uniform(0.1, 1.0)}
        bath = [token.format(**{k: repr(v) for k, v in values.items()}) for token in _LAYOUTS[layout]]
        points = rng.choice([2, 3, 700, 1023, 1025, 2100])
        t_end = rng.uniform(1.0, 12.0)
        grid = ["--t-start", repr(t_end * 1e-4), "--log-spacing"] if (i // 2) % 2 else []
        argv = ["evolve", *states[kind](), *bath, "--t-end", repr(t_end), *grid, "--points", str(points)]
        argv += ["--units", "bits"] if (i // 3) % 2 else []
        argv += ["--format", "json"] if i % 7 in (0, 3, 5) else []
        argvs.append(argv)
    # A strongly squeezed mixed state whose entries lose the invariants
    # (ROADMAP item 2): refused, on both paths, within the grid.
    argvs.append(
        ["evolve", "--n1", "4", "--n2", "1.5", "--r", "9.7", "--gamma2", "0.9", "--nr2", "0.35", "--t-end", "11", "--points", "1023"]
    )
    return argvs


@pytest.mark.parametrize("argv", _seeded_argvs(), ids=lambda argv: " ".join(argv[1:]))
def test_seeded_evolve_tables_from_both_row_paths(argv):
    (scalar, batch), spy = _both_tables(argv)
    assert scalar == batch
    assert (spy.batched, spy.left) == _routing(argv)


def test_seeded_set_covers_the_branches():
    # Product rows (c = 0), pure rows, entangled rows at zero temperature,
    # and crossings into separability all occur in the seeded set.  Some
    # strongly squeezed mixed states are refused (ROADMAP item 2).
    seen = set()
    for argv in _seeded_argvs():
        args = cli._build_parser().parse_args(argv)
        sf0, res = cli._state_from_args(args), cli._reservoir_from_args(args)
        rows = []
        try:
            for times in table.grid_chunks(args.t_start, args.t_end, args.points, args.log_spacing):
                rows += table.scalar_rows(sf0, res, times, args.units)
        except ValueError:
            seen.add("refused")
        verdicts = {row[8] for row in rows}
        seen.add("crossing" if verdicts == {"false", "true"} else "entangled" if verdicts == {"false"} else "separable")
        seen.add("zero temperature" if res.n_r1 == res.n_r2 == 0.0 and "false" in verdicts else "hot")
        seen |= {"product" for row in rows if row[3] == 0.0}
        seen |= {"pure" for row in rows if is_pure(StandardForm(*row[1:4]))}
    assert seen == {"crossing", "entangled", "separable", "zero temperature", "hot", "product", "pure", "refused"}


def test_a_row_refused_mid_table_ends_both_paths_alike(capsys, monkeypatch):
    # b1(t) grows past 1e154 near t = 1.3e-6, where (b1 + b2)^2 overflows
    # and the row is refused as such; the chunks before it are already written.
    argv = [
        "evolve", "--b1", "2", "--b2", "2", "--c", "1", "--single-bath", "--nr", "1e160",
        "--t-end", "2e-6", "--points", str(table.BATCH_POINTS), "--format", "json",
    ]
    spy = _Spy()
    monkeypatch.setattr(table, "batch_kernel", lambda: spy)
    batch = cli.main(argv), *capsys.readouterr()
    monkeypatch.setattr(table, "batch_kernel", lambda: None)
    scalar = cli.main(argv), *capsys.readouterr()
    assert batch == scalar
    code, out, err = batch
    assert code == 2 and err == (
        "error: (b1+b2)^2 - 4c^2 overflows a double for b1=1.340933194371452e+154, b2=2.0, c=0.999999329533178\n"
    )
    assert spy.batched >= 1 and spy.left == 1
    assert out.count('"t":') == spy.batched * cli._CHUNK_ROWS


@pytest.mark.parametrize("points", [3, table.BATCH_POINTS])
def test_kappa_plus_below_one_half_ends_both_paths_alike(capsys, monkeypatch, points):
    argv = [
        "evolve", "--b1", "0.5", "--b2", "0.5", "--c", "1e-7", "--identical", "--nr", "0.5",
        "--t-end", "1", "--points", str(points),
    ]
    spy = _Spy()
    monkeypatch.setattr(table, "batch_kernel", lambda: spy)
    batch = cli.main(argv), *capsys.readouterr()
    monkeypatch.setattr(table, "batch_kernel", lambda: None)
    scalar = cli.main(argv), *capsys.readouterr()
    assert batch == scalar
    code, out, err = batch
    assert code == 2 and err == "error: kappa_plus = 0.49999999999998995 < 1/2: not a physical two-mode state\n"
    assert out == ""  # row t = 0 is the refused one
    assert (spy.batched, spy.left) == ((0, 1) if points == table.BATCH_POINTS else (0, 0))


def test_row_lines_spell_cells_like_the_cell_writer():
    # The rows of evolve through the one writer: eight floats, then the spelled verdict.
    big = 1.7976931348623157e308  # finite cells whose sum overflows
    rows = [(0.0, big, big, 5e-324, 0.1, 1e-300, 2.5, 1e22, False), (0.5, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0, -0.0, True)]
    want = [",".join(cli._cell(value, str) for value in row) for row in rows]
    out = io.StringIO()
    cli._emit_rows(out.write, cli._EVOLVE_COLUMNS, "csv", 8, [[(*row[:8], cli._cell(row[8], str)) for row in rows]])
    assert out.getvalue() == "\n".join([",".join(cli._EVOLVE_COLUMNS), *want]) + "\n"
    for bad in (math.inf, -math.inf, math.nan):
        row = (0.0, 1.0, 1.0, bad, 0.1, 0.2, bad, 0.4, "true")
        with pytest.raises(cli._CliError, match=f"non-finite number {bad!r}$"):
            cli._emit_rows(out.write, cli._EVOLVE_COLUMNS, "csv", 8, [[row]])


def test_entropic_function_on_arrays_is_the_scalar_one_bit_for_bit():
    rng = random.Random(20261019)
    offsets = [0.0, -0.0, -1e-300, 5e-324, 1e-300, 1e-9, 0.5, 1.0, 1e15, 1e300, math.inf, math.nan]
    offsets += [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-320, 308) for _ in range(5000)]
    with np.errstate(all="ignore"):
        got = _batch._Arrays.h(np.array(offsets)).tolist()
    assert [repr(x) for x in got] == [repr(correlations._h_offset(a)) for a in offsets]
    assert math.isnan(got[11])


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
            assert _batch.evolve_rows(sf, res, times, units) is None
            assert list(table.scalar_rows(sf, res, times, units))[-1][3] == 0.0
            for fmt in ("csv", "json"):
                assert _table(sf, res, [times], units, fmt, _batch) == _table(sf, res, [times], units, fmt, None)
    assert is_pure(standard_form_from_sts(StsParams(0.0, 0.0, 1.0)))


def test_first_chunk_of_a_million_point_grid_is_small():
    chunks = table.grid_chunks(0.0, 10.0, 10**6, False)
    tracemalloc.start()
    try:
        first = next(chunks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(first) == cli._CHUNK_ROWS and first[0] == 0.0
    assert peak < 100_000  # 1024 floats and their list: about 33 kB


@pytest.mark.parametrize("num", [2, 3, 1023, 1024, 1025, 3000])
def test_grid_chunks_are_the_numpy_grids(num):
    for log, numpy_grid in ((False, np.linspace), (True, np.geomspace)):
        chunks = list(table.grid_chunks(0.001, 7.5, num, log))
        assert [len(chunk) for chunk in chunks[:-1]] == [cli._CHUNK_ROWS] * (len(chunks) - 1)
        assert 1 <= len(chunks[-1]) <= cli._CHUNK_ROWS
        got = [x for chunk in chunks for x in chunk]
        assert [repr(x) for x in got] == [repr(x) for x in numpy_grid(0.001, 7.5, num).tolist()]
        assert got[-1] == 7.5
