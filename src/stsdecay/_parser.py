"""The argparse parser of every subcommand, built from ``cli``'s option table.

``cli.main`` imports this module, and argparse with it, only for help, for
a usage error, and for the forms that argparse alone reads (an abbreviated
flag, ``--flag=value``): ``cli._read_argv`` reads every other command line.
"""

from __future__ import annotations

import argparse

from .cli import _SUBCOMMANDS

# The description of each option group, by the group column of the option
# table; a group is created where its first row is.
_GROUPS = {
    "state": "either the physical parameters --n1/--n2/--r or the standard form --b1/--b2/--c",
    "reservoir": None,
    "output": None,
    "grid": None,
}


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built from the option table."""
    parser = argparse.ArgumentParser(
        prog="stsdecay",
        description=(
            "Quantum correlations of two-mode squeezed thermal states and "
            "their decay in local thermal reservoirs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        groups: dict[str | None, argparse._ActionsContainer] = {None: p}
        for flag, kind, default, choices, required, help_text, group in options:
            if group not in groups:
                groups[group] = p.add_argument_group(group, _GROUPS[group])
            kwargs: dict[str, object] = {"help": help_text}
            if kind is bool:
                kwargs["action"] = "store_true"
            else:
                kwargs.update(default=default, choices=choices, required=required)
                if kind is not str:
                    kwargs["type"] = kind
            groups[group].add_argument(flag, **kwargs)
    return parser
