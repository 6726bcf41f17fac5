"""Implementations of the CLI subcommands.

Each ``cmd_*`` takes the parsed argument namespace and returns the process
exit status: 0 success, 1 verification failure (verify only); parameter and
I/O errors are raised as exceptions and mapped to 2 and 3 by the entry
point.
"""
from __future__ import annotations

from typing import Tuple

from .errors import ParameterError
from .export import (
    fmt,
    write_obj_mesh,
    write_profile_csv,
    write_profile_events,
    write_residual_csv,
    write_residual_summary,
)
from .profile_odes import (
    ConformalProfileParams,
    GrimReaperParams,
    MinimalProfileParams,
    REAPER_SPAN_DEFAULT,
    integrate_conformal_profile,
    integrate_grim_reaper,
    integrate_minimal_profile,
)
from .soliton_residuals import SolitonMode, residual_report
from .surface_factory import (
    GridSpec,
    make_conformal_cylinder,
    make_grim_reaper,
    make_horosphere,
    make_minimal_cylinder,
    make_vertical_plane,
)

# The CLI families and profile ODEs: name -> (builder, {flag: (keyword, role)}).
# The builder gets the keyword of each flag given and nothing else, so every
# default lives in the builder's signature.  A given flag that the entry does
# not list is refused.  Builders look their function up when called, so a
# wrapper bound over the module name sees each call.  Keywords named ``span``
# or ``*_range`` take an interval LO:HI.
_SLOPE = {"--c": ("c", "drift slope")}
_DRIFT = {**_SLOPE, "--d": ("d", "drift intercept")}
_S_RANGE = {"--s-range": ("s_range", "s interval LO:HI")}
_T_RANGE = {"--t-range": ("t_range", "t interval LO:HI")}

FAMILIES = {
    "horosphere": (lambda **kw: make_horosphere(**kw),
                   {"--a": ("a", "height"), **_S_RANGE, **_T_RANGE}),
    "vertical-plane": (lambda **kw: make_vertical_plane(**kw),
                       {**_DRIFT, **_S_RANGE, **_T_RANGE}),
    "minimal-cylinder": (lambda **kw: make_minimal_cylinder(**kw),
                         {**_DRIFT, "--y0": ("y0", "initial profile height"), **_S_RANGE}),
    "grim-reaper": (lambda **kw: make_grim_reaper(**kw), {
        "--b": ("b_slope", "drift slope"),
        "--lambda": ("lam", "initial profile slope"),
        "--span": ("span", "profile span LO:HI"), **_S_RANGE}),
    "conformal-cylinder": (lambda **kw: make_conformal_cylinder(**kw), {
        "--a": ("a_slope", "drift slope"), "--y0": ("y0", "initial profile height"),
        **_S_RANGE}),
}

ODES = {
    "minimal": (lambda **kw: integrate_minimal_profile(MinimalProfileParams(**kw)),
                {**_SLOPE, "--y0": ("y0", "initial height")}),
    "grim-reaper": (lambda span=REAPER_SPAN_DEFAULT, **kw: integrate_grim_reaper(
        GrimReaperParams(**kw), span), {
        "--lambda": ("lam", "initial slope"), "--k": ("k", "drift constant"),
        "--span": ("span", "integration span LO:HI")}),
    "conformal": (lambda **kw: integrate_conformal_profile(ConformalProfileParams(**kw)),
                  {"--a": ("a", "drift slope"), "--y0": ("y0", "initial height")}),
}


def canonical(name: str) -> str:
    return name.strip().lower().replace("_", "-")


def table_flags(table: dict) -> dict:
    """Every flag of a table, in order of first appearance -> whether it takes LO:HI."""
    return {
        flag: kw == "span" or kw.endswith("_range")
        for _, flags in table.values()
        for flag, (kw, _) in flags.items()
    }


def parse_grid(txt: str) -> GridSpec:
    """``'NSxNT'`` → ``GridSpec(ns, nt)``."""
    parts = txt.lower().split("x")
    try:
        ns, nt = (int(p) for p in parts)
    except (TypeError, ValueError):
        raise ParameterError(f"grid must look like 51x51, got {txt!r}") from None
    return GridSpec(ns, nt)


def parse_pair(txt: str, flag: str) -> Tuple[float, float]:
    """``'LO:HI'`` → (lo, hi)."""
    parts = txt.split(":")
    if len(parts) != 2:
        raise ParameterError(f"{flag} must look like LO:HI, got {txt!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ParameterError(f"{flag} must be numeric LO:HI, got {txt!r}") from None
    return lo, hi


def build(table: dict, name: str, args):
    """Call the builder of ``table[name]`` with the keyword of every flag in
    ``args`` that was given; a given flag the entry does not take raises
    :class:`ParameterError` naming the flag as typed."""
    builder, flags = table[name]
    kwargs = {}
    for flag, interval in table_flags(table).items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        if flag not in flags:
            raise ParameterError(f"{name} does not take {flag}; it takes {', '.join(flags)}")
        kwargs[flags[flag][0]] = parse_pair(value, flag) if interval else value
    return builder(**kwargs)


def cmd_residual(args) -> int:
    fam = build(FAMILIES, args.family, args)
    mode = SolitonMode(args.mode)
    rep = residual_report(fam, mode, parse_grid(args.grid))
    out = args.out if args.out is not None else f"residual_{fam.name}_{mode.value}"
    n = write_residual_csv(out + ".csv", rep)
    write_residual_summary(out + ".summary.txt", rep)
    print(f"wrote {out}.csv ({n} rows)")
    print(f"wrote {out}.summary.txt")
    print(f"MAX_ABS={fmt(rep.max_abs)}")
    return 0


def cmd_profile(args) -> int:
    sol = build(ODES, args.ode, args)
    out = args.out if args.out is not None else f"profile_{args.ode.replace('-', '_')}"
    n = write_profile_csv(out + ".csv", sol)
    write_profile_events(out + ".events.txt", sol)
    print(f"wrote {out}.csv ({n} rows)")
    print(f"wrote {out}.events.txt")
    return 0


def cmd_mesh(args) -> int:
    fam = build(FAMILIES, args.family, args)
    out = args.out if args.out is not None else f"mesh_{fam.name}"
    nv, nf = write_obj_mesh(out + ".obj", fam, parse_grid(args.grid))
    print(f"wrote {out}.obj ({nv} vertices, {nf} triangles)")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_checks

    summary = run_checks(only=args.only)
    print(summary.format_table())
    return 0 if summary.all_passed else 1
