"""A `sweep` row refused mid-sweep ends the output after the chunks before it, each row of which recomputes through the public API.

``test_contract.py`` rebuilds every row of a sweep that exits 0.
"""

from stsdecay import ReservoirConfig, StsParams, cli, correlation_report, standard_form_from_sts
from stsdecay.errors import NonPhysicalStateError
from test_contract import _cells, _spelled


def test_row_refused_mid_sweep_ends_after_the_chunks_before_it(capsys, monkeypatch):
    # The correlation kernel refuses this state from r = 9.55 on, where its
    # rounded entries lose (b1+b2)^2 - 4c^2; the rows before it are written
    # a whole chunk at a time.
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 16)
    argv = ["sweep", "--n1", "4", "--n2", "1.5", "--param", "r", "--min", "5", "--max", "10", "--steps", "101"]
    values = cli._linspace(5.0, 10.0, 101)
    for k, r in enumerate(values):
        try:
            correlation_report(standard_form_from_sts(StsParams(4.0, 1.5, r)))
        except NonPhysicalStateError as exc:
            first, message = k, str(exc)
            break
    assert first == 91
    for outputs in ([], ["--outputs", "ts,ef", "--identical", "--nr", "0.3"]):
        code, out = cli.main([*argv, *outputs]), capsys.readouterr()
        assert code == 2 and out.err == f"error: {message}\n"
        columns, *rows = (line.split(",") for line in out.out.splitlines())
        assert len(rows) == first // 16 * 16
        res = ReservoirConfig.identical(1.0, 0.3) if outputs else None
        for row in rows:
            value = float(row[0])
            assert row[0] == repr(value)
            cells = _cells(standard_form_from_sts(StsParams(4.0, 1.5, value)), res, columns[1:], "nats")
            assert row[1:] == [_spelled(cell) for cell in cells]
