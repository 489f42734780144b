"""The command line: help and usage errors against frozen bytes, and the direct reader of argv.

``usage_golden.json`` holds, for each argv of ``test_lazy_imports._PARSER_CASES``
(help at the top level and per subcommand, unknown flags and commands, a
missing value or required flag) and of ``_USAGE_CASES`` (values that fail
their conversion or choices, ambiguous abbreviations, stray tokens), the
exit code, stdout and stderr of ``cli.main`` under ``COLUMNS=80``.  The
help bytes are the same on Python 3.10 to 3.12.  Regenerate the file (only
when a help or error text is meant to change) with

    PYTHONPATH=src python tests/test_argv.py --regenerate
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from stsdecay import _parser, cli
from test_golden import CASES
from test_lazy_imports import _PARSER_CASES

_USAGE_GOLDEN = Path(__file__).with_name("usage_golden.json")

_STATE = ["--n1", "1", "--n2", "0.5", "--r", "1"]
_USAGE_CASES = [
    ["report", "--n1", "one"],
    ["report", *_STATE, "--format", "xml"],
    ["report", *_STATE, "--units="],
    ["report", "--n", "1"],
    ["report", *_STATE, "stray"],
    ["report", *_STATE, "--", "--t", "1"],
    ["report", *_STATE, "--identical", "true", "--nr", "0.5"],
    ["report", "-h"],
    ["evolve", *_STATE, "--single-bath", "--nr", "0.2", "--t-end", "3", "--points", "1.5"],
    ["sweep", *_STATE, "--param", "phi", "--min", "0", "--max", "1", "--steps", "2"],
    ["sweep", *_STATE, "--param", "r", "--min", "0", "--max", "1", "--steps", "-1e3"],
    ["verify", "--seed", "-.5"],
]
_CASES = [*_PARSER_CASES, *_USAGE_CASES]


def _printed(argv):
    """``[exit code, stdout, stderr]`` of ``cli.main(argv)``, which exits through argparse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


def _key(argv):
    return " ".join(argv)


@pytest.mark.parametrize("argv", _CASES, ids=lambda argv: _key(argv) or "no-argv")
def test_help_and_usage_errors_match_golden(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(_USAGE_GOLDEN.read_text(encoding="utf-8"))
    assert _printed(argv) == golden[_key(argv)]


def test_every_usage_golden_has_a_case():
    golden = json.loads(_USAGE_GOLDEN.read_text(encoding="utf-8"))
    assert list(golden) == [_key(argv) for argv in _CASES]


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_reader_answers_every_golden_command_line_as_argparse_does(name):
    argv = list(CASES[name])
    args = cli._read_argv(argv)
    assert args is not None
    assert repr(vars(args)) == repr(vars(_parser._build_parser().parse_args(argv)))


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--n1", "-1", "--n2", "-.5", "--r", "-0", "--phi", "-12.25"],
        ["report", "--n1", "1", "--n1", "2", "--n2", " 3", "--r", "1_0", "--out", "", "--outputs", "ef"],
        ["sweep", "--steps", "-3", "--param", "nr", "--max", "nan", "--min", "inf", "--identical", "--identical"],
        ["verify", "--seed", "-7", "--format", "json", "--config", "x=y"],
    ],
)
def test_the_reader_takes_negative_numbers_repeats_and_any_value_of_a_string(argv):
    args = cli._read_argv(argv)
    assert args is not None
    assert repr(vars(args)) == repr(vars(_parser._build_parser().parse_args(argv)))


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["reports"],
        ["report", "--n1=1"],
        ["report", "--ident"],
        ["report", "--n1", "1", "-h"],
        ["report", "--n1", "1", "--"],
        ["report", "--n1"],
        ["report", "--n1", "-1e-3"],
        ["report", "--n1", "-inf"],
        ["report", "--out", "-"],
        ["report", "--n1", "one"],
        ["report", "--format", "xml"],
        ["report", "--identical", "1"],
        ["report", "--t-end", "1"],
        ["evolve", "--n1", "1"],
        ["sweep", "--param", "r", "--min", "0", "--max", "1"],
        ["verify", "--seed", "1.5"],
    ],
    ids=lambda argv: _key(argv) or "no-argv",
)
def test_the_reader_leaves_the_rest_to_argparse(argv):
    assert cli._read_argv(argv) is None


def _regenerate() -> None:
    os.environ["COLUMNS"] = "80"
    golden = {_key(argv): _printed(argv) for argv in _CASES}
    _USAGE_GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--regenerate"]:
    _regenerate()
