"""The CLI contract as a property: any ``residual``, ``mesh`` or ``profile``
argv drawn from extreme or malformed flag values, each given as
``flag=value`` or as two tokens, exits 0 or 2, refuses with one
``error:`` line and no file under its ``--out`` prefix, finishes within a
time budget and writes no more bytes than its grid allows."""
import contextlib
import io
import os
import tempfile
import time

from hypothesis import given, settings, strategies as st

from solsurf import SolitonMode, commands
from solsurf.cli import main
from solsurf.profile_odes import MAX_BRANCH_STEPS

# Zero, signed zero, subnormal, tiny, ordinary, huge, non-finite and malformed values.
VALUES = ("0", "-0.0", "5e-324", "1e-300", "1e-8", "0.7", "2", "-3", "1e8", "1e155",
          "1e300", "-1e300", "1e308", "-1e308", "inf", "nan", "abc")
# Ordinary, empty, reversed, subnormal, huge, non-finite and malformed intervals.
INTERVALS = ("-1:1", "0.5:4.5", "1:1", "2:1", "0:5e-324", "0:1e-300", "-1e-300:1e-300",
             "-1e6:1e6", "-1e300:1e300", "-inf:0", "nan:1", "1", "a:b")
# Per run.  The slowest draws, a reaper span out to 1e300, take 0.55-0.65 s
# on a shared 2-core x86 host (~37k steps a branch); the rest take < 0.05 s.
BUDGET_S = 5.0
# The widest number fmt writes, -d.dddddddddddde+ddd, and the most a
# key=value sidecar (summary or events, a dozen short lines) takes.
CELL, SIDECAR = 20, 1024


@st.composite
def cli_runs(draw):
    """``(cmd, argv, (ns, nt))``: a subcommand, its family or ODE, each flag
    of that entry given or not, as ``flag=value`` or as two tokens, a grid
    of at most 21x21, and a mode."""
    cmd = draw(st.sampled_from(("residual", "mesh", "profile")))
    choice, table = ("--ode", commands.ODES) if cmd == "profile" else ("--family", commands.FAMILIES)
    name = draw(st.sampled_from(sorted(table)))
    argv = [cmd, choice, name]
    for flag, interval in commands.table_flags({name: table[name]}).items():
        if draw(st.booleans()):
            value = draw(st.sampled_from(INTERVALS if interval else VALUES))
            argv += draw(st.sampled_from(([f"{flag}={value}"], [flag, value])))
    grid = draw(st.integers(2, 21)), draw(st.integers(2, 21))
    if cmd != "profile":
        argv += ["--grid", "%dx%d" % grid]
    if cmd == "residual":
        argv += ["--mode", draw(st.sampled_from([m.value for m in SolitonMode]))]
    return cmd, argv, grid


def byte_bound(cmd: str, ns: int, nt: int) -> int:
    """The most bytes a run may write: the residual CSV's ``s,t,residual``
    lines and its summary; the mesh's vertex and face lines; the profile
    CSV's ``t,g,gp,defect`` rows, at most ``MAX_BRANCH_STEPS`` steps on each
    branch from ``t = 0``, and its events."""
    if cmd == "residual":
        return len("s,t,residual\n") + ns * nt * (3 * CELL + 3) + SIDECAR
    if cmd == "mesh":
        index = len(str(ns * nt))
        return ns * nt * (2 + 3 * CELL + 3) + 2 * (ns - 1) * (nt - 1) * (2 + 3 * index + 3)
    return len("t,g,gp,first_integral_defect\n") + (2 * MAX_BRANCH_STEPS + 3) * (4 * CELL + 4) \
        + SIDECAR


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(run=cli_runs())
def test_cli_contract(run):
    """Exit 0 or 2; exit 2 prints exactly one stderr line, ``error: ...``,
    and leaves no file under the ``--out`` prefix; each run takes under
    ``BUDGET_S`` and writes at most :func:`byte_bound`.
    Runs go through ``main`` in process, one at a time (300 draws, ~1-2 s of
    tier-1 on a shared 2-core host)."""
    cmd, argv, (ns, nt) = run
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            rc = main([*argv, "--out", os.path.join(tmp, "o")])
            elapsed = time.perf_counter() - start
        sizes = {entry.name: entry.stat().st_size for entry in os.scandir(tmp)}
    assert rc in (0, 2), (argv, rc)
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert not sizes, (argv, sorted(sizes))
    assert elapsed < BUDGET_S, (argv, elapsed)
    assert sum(sizes.values()) <= byte_bound(cmd, ns, nt), (argv, sizes)
