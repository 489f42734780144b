"""The ``verify`` subcommand: the closed forms against their independent oracles."""

from __future__ import annotations

from .cli import _cell, _destination, _emit_rows, _json_string, _require_numpy

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .cli import Args


def command(args: Args) -> int:
    # The destination is opened first, so an unwritable --out fails before
    # the battery's work rather than after it.
    with _destination(args.out) as write:
        _require_numpy("verify")
        from .verification import OracleReport, run_verification

        reports = run_verification(seed=args.seed)
        if args.format == "json":
            rows = [tuple(_cell(value, _json_string) for value in r._fields()) for r in reports]
            _emit_rows(write, OracleReport.__match_args__, "json", 0, [rows])
        else:
            lines = [
                f"{'PASS' if r.passed else 'FAIL'}  {r.quantity}: "
                f"closed={r.closed_form!r}  oracle={r.oracle!r}  "
                f"|err|={r.abs_err:.3e}  tol={r.tol:g}"
                for r in reports
            ]
            ok = sum(r.passed for r in reports)
            lines.append(f"{ok}/{len(reports)} checks passed")
            write("\n".join(lines) + "\n")
    return 0 if all(r.passed for r in reports) else 1
