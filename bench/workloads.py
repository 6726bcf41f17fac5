"""Seeded command lists for the four benchmark workloads.

A workload is a list of command specs.  Each spec holds the argv handed to
``solsurf.cli.main`` and what the output checkers need to judge the files
the command writes (family, parameters, grid, residual limit).  Parameters
come only from the seed, so the same seed gives the same argv.
"""
from __future__ import annotations

import math
import random
from typing import Dict, List

WORKLOADS = ("sweep", "mesh", "profile", "verify")

GRID = (201, 201)

# Passes per run at the benchmark's run_seconds.  The count is fixed rather
# than timed, so every run of a workload has the same number of latency
# samples and the tail percentile means the same thing on every commit; other
# --seconds values scale it.  On a 2-core x86 box these passes hold about 48,
# 18, 11 and 20 s of work.  Three sweep passes spread far less from run to
# run than one.  Profile stays at 3 passes: its tail (p63 of 27 commands)
# then sits among the minimal and conformal commands, clear of the reaper
# commands, whose latency follows the seeded lambda.
PASSES = {"sweep": 3, "mesh": 2, "profile": 3, "verify": 3}
REFERENCE_SECONDS = 30.0

# The 19 checks of the ``solsurf verify`` battery; each is one operation.
VERIFY_CHECKS = (
    "lie.group_laws",
    "horosphere.soliton",
    "plane.residuals",
    "minimal_cylinder.residual",
    "minimal_cylinder.first_integral",
    "minimal_cylinder.symmetry",
    "minimal_cylinder.halfwidth",
    "grim_reaper.constant",
    "grim_reaper.shape",
    "grim_reaper.residual",
    "conformal.residual",
    "conformal.first_integral",
    "conformal.not_minimal",
    "reduced.first_kind",
    "reduced.second_kind",
    "fd.convergence",
    "falsify.profiles",
    "determinism.mesh",
    "determinism.profile",
)

# Residual limits, as in the verify battery: closed-form families solve
# their equation to rounding, ODE-backed ones to the integrator tolerance.
CLOSED_FORM_LIMIT = 1e-10
ODE_LIMIT = 1e-6

REAPER_SPAN_SWEEP = (-50.0, 50.0)
REAPER_SPAN_PROFILE = (-40.0, 40.0)


def _num(x: float) -> str:
    return f"{x:.6f}"


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return float(_num(rng.uniform(lo, hi)))


def _triple(rng: random.Random, lo: float, hi: float) -> List[float]:
    """Three values spread around a circle with a random phase:
    ``mid + half*cos(2*pi*(u + i/3))``.  Each value covers [lo, hi], and the
    three always sum to ``3*mid``, so work that grows linearly with the
    parameter (RK45 nodes of the reaper grow with lambda) does not vary
    with the seed."""
    u = rng.random()
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return [float(_num(mid + half * math.cos(2.0 * math.pi * (u + i / 3.0)))) for i in range(3)]


def _flags(params: Dict[str, float]) -> List[str]:
    out: List[str] = []
    for flag, value in params.items():
        out += [f"--{flag}", _num(value)]
    return out


def _span(span) -> str:
    return f"{span[0]:g}:{span[1]:g}"


def residual_cmd(family: str, mode: str, params: Dict[str, float], limit: float,
                 grid=GRID, span=None) -> dict:
    argv = ["residual", "--family", family, *_flags(params), "--mode", mode,
            "--grid", f"{grid[0]}x{grid[1]}"]
    if span is not None:
        argv += ["--span", _span(span)]
    return {"kind": "residual", "label": family, "argv": argv, "family": family,
            "params": params, "span": span, "grid": list(grid), "limit": limit}


def mesh_cmd(family: str, params: Dict[str, float], grid=GRID, span=None) -> dict:
    argv = ["mesh", "--family", family, *_flags(params), "--grid", f"{grid[0]}x{grid[1]}"]
    if span is not None:
        argv += ["--span", _span(span)]
    return {"kind": "mesh", "label": family, "argv": argv, "family": family,
            "params": params, "span": span, "grid": list(grid)}


def profile_cmd(ode: str, params: Dict[str, float], span=None) -> dict:
    argv = ["profile", "--ode", ode, *_flags(params)]
    if span is not None:
        argv += ["--span", _span(span)]
    return {"kind": "profile", "label": ode, "argv": argv, "ode": ode,
            "params": params, "span": span}


def verify_cmd(checks=VERIFY_CHECKS) -> dict:
    """``verify`` on the given checks: one check by name with ``--only``, or
    the whole battery."""
    if len(checks) == 1:
        return {"kind": "verify", "label": checks[0], "argv": ["verify", "--only", checks[0]],
                "checks": list(checks)}
    return {"kind": "verify", "label": "verify", "argv": ["verify"], "checks": list(checks)}


def _sweep(rng: random.Random) -> List[dict]:
    return [
        residual_cmd("horosphere", "translator", {"a": _draw(rng, 0.5, 2.0)},
                     CLOSED_FORM_LIMIT),
        residual_cmd("vertical-plane", "minimal",
                     {"c": _draw(rng, 0.0, 3.0), "d": _draw(rng, -1.0, 1.0)},
                     CLOSED_FORM_LIMIT),
        residual_cmd("minimal-cylinder", "minimal",
                     {"c": _draw(rng, 0.0, 3.0), "y0": _draw(rng, 0.5, 2.0)}, ODE_LIMIT),
        residual_cmd("grim-reaper", "translator", {"lambda": _draw(rng, 0.0, 1.0)},
                     ODE_LIMIT, span=REAPER_SPAN_SWEEP),
        residual_cmd("conformal-cylinder", "conformal",
                     {"a": _draw(rng, 0.0, 2.0), "y0": _draw(rng, 0.5, 2.0)}, ODE_LIMIT),
    ]


def _mesh(rng: random.Random) -> List[dict]:
    return [
        mesh_cmd("horosphere", {"a": _draw(rng, 0.5, 2.0)}),
        mesh_cmd("minimal-cylinder", {"c": _draw(rng, 0.0, 3.0), "y0": _draw(rng, 0.5, 2.0)}),
        mesh_cmd("grim-reaper", {"lambda": _draw(rng, 0.0, 1.0)}, span=REAPER_SPAN_SWEEP),
    ]


def _profile(rng: random.Random) -> List[dict]:
    cmds = []
    for c, y0 in zip(_triple(rng, 0.0, 3.0), _triple(rng, 0.25, 2.0)):
        cmds.append(profile_cmd("minimal", {"c": c, "y0": y0}))
    for a, y0 in zip(_triple(rng, 0.0, 2.0), _triple(rng, 0.3, 2.0)):
        cmds.append(profile_cmd("conformal", {"a": a, "y0": y0}))
    for lam in _triple(rng, 2.0, 10.0):
        cmds.append(profile_cmd("grim-reaper", {"lambda": lam}, span=REAPER_SPAN_PROFILE))
    return cmds


def operations(cmd: dict) -> int:
    """Operations one command stands for: each verify check is one."""
    return len(cmd["checks"]) if cmd["kind"] == "verify" else 1


def passes(workload: str, seconds: float) -> int:
    return max(1, round(PASSES[workload] * seconds / REFERENCE_SECONDS))


def build(workload: str, seed: int) -> List[dict]:
    """The command specs of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"solsurf-bench/{workload}/{seed}")
    if workload == "sweep":
        cmds = _sweep(rng)
    elif workload == "mesh":
        cmds = _mesh(rng)
    elif workload == "profile":
        cmds = _profile(rng)
    elif workload == "verify":
        cmds = [verify_cmd((name,)) for name in VERIFY_CHECKS]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    for cmd in cmds:
        cmd["sample_seed"] = rng.randrange(2 ** 32)
    return cmds
