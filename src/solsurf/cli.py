"""Argument parsing and exit-code mapping for the ``solsurf`` tool.

    solsurf residual --family horosphere --a 1 --mode translator --grid 101x101
    solsurf profile  --ode minimal --c 0 --y0 1
    solsurf mesh     --family grim-reaper --lambda 0.8 --grid 41x41
    solsurf verify   [--only lie]

Exit codes: 0 success, 1 verification failure, 2 usage or parameter error,
3 I/O error.

The parser is built once per process, on the first `main` call, and reused
by every later call; it holds no run state, since each ``parse_args`` fills
a fresh namespace.
"""
from __future__ import annotations

import argparse
import functools
import sys
from typing import List, Optional, Sequence

from . import commands
from .errors import DomainError, ParameterError
from .soliton_residuals import SolitonMode

_PAIR_FLAGS = {flag for table in (commands.FAMILIES, commands.ODES)
               for flag, interval in commands.table_flags(table).items() if interval}


def _merge_pair_flags(argv: Sequence[str]) -> List[str]:
    """Allow ``--span -10:10``: argparse would read the value as an option,
    so glue ``flag value`` pairs into ``flag=value`` when the value leads
    with a minus sign and contains a colon."""
    out: List[str] = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if (
            a in _PAIR_FLAGS
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and ":" in argv[i + 1]
        ):
            out.append(f"{a}={argv[i + 1]}")
            i += 2
        else:
            out.append(a)
            i += 1
    return out


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
    parser = argparse.ArgumentParser(
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
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_pair_flags(argv))
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
