"""A sweep's records check its two ends, and only they; its rows only compute.

What StsParams, StandardForm and ReservoirConfig accept along one parameter
is an interval, so a sweep whose two ends pass the records has rows that
pass them too, and ``sweep`` runs no construction check per row.  Here the
premise is tested where the checks refuse: ends drawn at zero, the
subnormals, near the largest double, where the uncertainty margin of the
entries overflows (r near 177.5) and where sinh(r)*cosh(r) does (r near
355.6).  Either the sweep fails before any output with the error the
records raise at the first failing end, or each row recomputes bit for
bit through the records and ``esd_time``, up to a row that its own kernel
refuses, which ends the output after the chunks before it.
"""

import collections
import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from stsdecay import ReservoirConfig, StandardForm, StsParams, cli, core, dynamics, standard_form_from_sts  # noqa: E402
from test_contract import _cells, _spelled  # noqa: E402

_ENDS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 1e300, 1e308]),
    st.floats(177.0, 178.5),
    st.floats(355.5, 355.7),
)
# The flags of the sweep that are not swept.
_FIXED = {"n1": 0.5, "n2": 0.25, "r": 1.0, "gamma": 1.0, "nr": 0.5}
_CHUNK_ROWS = 8


def _records(p, layout):
    """The state and the reservoir of the parameters ``p``, built in the order the command builds them."""
    res = layout(p["gamma"], p["nr"])
    return standard_form_from_sts(StsParams(p["n1"], p["n2"], p["r"])), res


def _outcome(param, values, layout):
    """The ts rows the sweep over ``values`` must write, and its error or None."""
    at = lambda value: _records(dict(_FIXED, **{param: value}), layout)  # noqa: E731
    for end in (values[0], values[-1]):
        try:
            at(end)
        except ValueError as exc:
            return [], str(exc)
    rows = []
    for value in values:
        # Both ends pass the records, so every value between them does.
        sf, res = at(value)
        try:
            rows.append([repr(value), *map(_spelled, _cells(sf, res, ["ts"], "nats"))])
        except ValueError as exc:
            return rows[: len(rows) // _CHUNK_ROWS * _CHUNK_ROWS], str(exc)
    return rows, None


@pytest.mark.parametrize("param", list(_FIXED))
@settings(max_examples=60)
@given(lo=_ENDS, hi=_ENDS, steps=st.integers(2, 40), identical=st.booleans())
# A gamma sweep down to 0: its last row has no active bath, and its kernel
# refuses it after two chunks.
@example(lo=177.0, hi=0.0, steps=20, identical=True)
def test_a_sweep_is_its_records_at_both_ends_and_its_kernels_between(param, lo, hi, steps, identical):
    flag, layout = ("--identical", ReservoirConfig.identical) if identical else ("--single-bath", ReservoirConfig.single_bath)
    argv = ["sweep", *(t for k, v in _FIXED.items() if k != param for t in ("--" + k, repr(v))), flag]
    argv += ["--param", param, "--min", repr(lo), "--max", repr(hi), "--steps", str(steps), "--outputs", "ts"]
    rows, error = _outcome(param, cli._linspace(lo, hi, steps), layout)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.setattr(cli, "_CHUNK_ROWS", _CHUNK_ROWS)
        code = cli.main(argv)
    assert (code, err.getvalue()) == ((0, "") if error is None else (2, f"error: {error}\n")), argv
    if rows:
        assert [line.split(",") for line in out.getvalue().splitlines()] == [[param, "ts"], *rows]
    else:
        assert out.getvalue() == ""


def test_a_sweep_builds_and_checks_records_only_at_its_two_ends(capsys, monkeypatch):
    counts = collections.Counter()

    def spy(owner, name, key):
        f = getattr(owner, name)

        def counted(*args):
            counts[key] += 1
            return f(*args)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((core, "finite"), (core, "_bona_fide"), (dynamics, "finite")):
        spy(owner, name, f"{owner.__name__.rpartition('.')[2]}.{name}")
    for record in (StsParams, StandardForm, ReservoirConfig):
        spy(record, "__init__", record.__name__)
    state = ["--n1", "0.5", "--n2", "0.25", "--r", "1", "--identical", "--gamma", "1", "--nr", "0.5"]
    for swept, records in (("n1", (2, 2, 1)), ("nr", (1, 1, 2))):
        counts.clear()
        argv = ["sweep", *state, "--param", swept, "--min", "0", "--max", "2", "--steps", "1500", "--outputs", "ts"]
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1501
        # The state's checks (finiteness of StsParams, bona fide of
        # StandardForm) and the reservoir's run once per record built.
        sts, sf, res = records
        assert counts == {
            "StsParams": sts, "core.finite": sts,
            "StandardForm": sf, "core._bona_fide": sf,
            "ReservoirConfig": res, "dynamics.finite": res,
        }, swept
