"""Argument parsing and exit-code mapping for the ``solsurf`` tool.

    solsurf residual --family horosphere --a 1 --mode translator --grid 101x101
    solsurf profile  --ode minimal --c -1e-3 --y0 1
    solsurf mesh     --family grim-reaper --lambda 0.8 --span -10:10 --grid 41x41
    solsurf verify   [--only lie]

Exit codes: 0 success or ``--help``, 1 verification failure, 2 usage or
parameter error (one ``error:`` line), 3 I/O error.  A table flag takes a
signed value as ``--c -1e-3`` or ``--c=-1e-3``; a flag has one spelling.

The parser is built on the first `main` call and reused by every later one;
it holds no run state, since each ``parse_args`` fills a fresh namespace.
"""
from __future__ import annotations

import argparse
import functools
import sys
from typing import List, Optional, Sequence

from . import commands
from .errors import DomainError, ParameterError
from .soliton_residuals import SolitonMode

_TABLE_FLAGS = {*commands.table_flags(commands.FAMILIES), *commands.table_flags(commands.ODES)}


def _glue_signed(argv: Sequence[str]) -> List[str]:
    """``--c -1e-3`` -> ``--c=-1e-3`` for a flag of the two tables, whose value
    argparse reads as an option if it leads with one minus and is not a plain
    decimal (``-1e-3``, ``-inf``, ``-5.``).  No other flag is glued."""
    out: List[str] = []
    for a in argv:
        if out and out[-1] in _TABLE_FLAGS and a.startswith("-") and not a.startswith("--"):
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


class _Parser(argparse.ArgumentParser):
    """Every parser of the tool, subcommands' included: it takes no abbreviated
    flag, and raises :class:`ParameterError` where argparse prints the usage."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise ParameterError(f"{self.prog}: {message}")


def _add_table_flags(p: argparse.ArgumentParser, choice: str, table: dict) -> None:
    """``choice`` picks an entry of ``table``; then one option per flag of the
    table, whose help gives the role it plays in each entry that lists it."""
    p.add_argument(choice, required=True, type=commands.canonical, choices=table)
    for flag, interval in commands.table_flags(table).items():
        roles: dict = {}
        for name, (_, flags) in table.items():
            if flag in flags:
                roles.setdefault(flags[flag][1], []).append(name)
        p.add_argument(flag, type=None if interval else float,
                       help="; ".join(f"{r} ({', '.join(n)})" for r, n in roles.items()))


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    _add_table_flags(p, "--family", commands.FAMILIES)
    p.add_argument("--grid", default="51x51", help="sampling grid NSxNT (default %(default)s)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on the first call; every later call returns the same parser."""
    parser = _Parser(
        prog="solsurf",
        description="Translation surfaces in the upper half-space: soliton "
                    "residuals, profile curves, meshes, and self-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_res = sub.add_parser("residual", help="sample a soliton residual over a grid")
    _add_family_flags(p_res)
    p_res.add_argument("--mode", required=True, type=commands.canonical,
                       choices=[m.value for m in SolitonMode])
    p_res.add_argument("--out", default=None, help="output prefix (two files)")
    p_res.set_defaults(func=commands.cmd_residual)

    p_pro = sub.add_parser("profile", help="integrate a profile curve to CSV")
    _add_table_flags(p_pro, "--ode", commands.ODES)
    p_pro.add_argument("--out", default=None, help="output prefix (two files)")
    p_pro.set_defaults(func=commands.cmd_profile)

    p_mesh = sub.add_parser("mesh", help="triangulate a family to Wavefront OBJ")
    _add_family_flags(p_mesh)
    p_mesh.add_argument("--out", default=None, help="output prefix (.obj)")
    p_mesh.set_defaults(func=commands.cmd_mesh)

    p_ver = sub.add_parser("verify", help="run the acceptance checks")
    p_ver.add_argument("--only", default=None,
                       help="run only checks whose name contains this substring")
    p_ver.set_defaults(func=commands.cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(_glue_signed(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except SystemExit:  # only --help exits, after argparse printed the usage
        return 0
    except (ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
