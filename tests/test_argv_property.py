"""Differential property test: the direct reader of argv against argparse.

The command lines are drawn from the option table of each subcommand, in
the plain form and in the forms that only argparse reads: abbreviated
flags, ``--flag=value``, stray tokens, ``--`` and ``-h``, with negative,
non-finite, empty and invalid values, repeated flags and required flags
left out.  Wherever the reader answers, its namespace must be argparse's,
compared by ``repr`` so that NaN values compare too.
"""

from __future__ import annotations

import functools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stsdecay import cli  # noqa: E402
from stsdecay._parser import _build_parser  # noqa: E402

_VALUES = ["-1", "-.5", "-1e-3", "-inf", "nan", "", "0.5", "2", "1e3", "-0", "x", "1_0", " 3", "-", "-1\n"]
# Values that convert, for the drawn option to take most of the time.
_VALID = {float: ["-1", "-.5", "0.5", "2", "1e3", "-0", "nan", "inf", "1_0", " 3", "-1\n"], int: ["-1", "2", "-0", "1_0", " 3"]}
# How a drawn option is spelled, one time in five: in a form that argparse
# alone reads, or replaced by a token that is no option; else exactly.
_FORMS = ["abbreviated", "equals", "stray", "--", "-h"]


@functools.lru_cache(maxsize=None)
def _parser():
    return _build_parser()


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    options = cli._SUBCOMMANDS[command][1]
    values = st.sampled_from(_VALUES + [choice for row in options for choice in row[3] or ()])
    argv = [command]
    if draw(st.booleans()):
        # The required flags with values that pass, so that more lines are valid.
        for flag, kind, _, choices, required, *_ in options:
            if required:
                argv += [flag, choices[0] if choices else str(kind(1))]
    for _ in range(draw(st.integers(0, 8))):
        flag, kind, _, choices, *_ = draw(st.sampled_from(options))
        form = "exact" if draw(st.integers(0, 4)) else draw(st.sampled_from(_FORMS))
        valid = choices or _VALID.get(kind, _VALUES)
        value = draw(st.sampled_from(valid) if draw(st.integers(0, 3)) else values)
        if form == "abbreviated" and len(flag) > 3:
            flag = flag[: draw(st.integers(3, len(flag) - 1))]
        if form == "equals":
            argv.append(f"{flag}={value}")
        elif form in ("--", "-h"):
            argv.append(form)
        elif form == "stray":
            argv.append(value)
        else:
            argv.append(flag)
            # A store-True flag is sometimes followed by a stray value.
            if kind is not bool or draw(st.integers(0, 3)) == 0:
                argv.append(value)
    return argv


@settings(max_examples=600)
@given(_argvs())
def test_the_reader_answers_as_argparse_or_not_at_all(argv):
    args = cli._read_argv(argv)
    if args is not None:
        assert repr(vars(args)) == repr(vars(_parser().parse_args(argv)))
