"""Semantic checks of the files each benchmark command writes.

Every checker takes a command spec (see ``workloads.py``), the output prefix
the command wrote to and, for verify, the command's stdout.  It returns
``(problems, nodes)``: a list of reasons the output is wrong (empty when it
is right) and the number of nodes the output holds (residual CSV rows, OBJ
vertices, profile CSV rows, or the verify checks that passed).  Tolerances
are those of the verify battery.
"""
from __future__ import annotations

import hashlib
import math
import os
import random
from typing import Dict, List, Tuple

import solsurf

import workloads

HALFWIDTH_TOL = 1e-6       # verify: minimal_cylinder.halfwidth
FIRST_INTEGRAL_TOL = 1e-8  # verify: *.first_integral
MONOTONE_SLACK = 1e-13     # qualitative_verdict: relative node-difference wobble
POSITION_RTOL = 1e-12      # exports carry 13 significant digits
POSITION_SAMPLES = 64

Result = Tuple[List[str], int]


def _read_lines(path: str) -> List[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _last_digit(x: float) -> float:
    """One unit in the 13th significant digit of ``x``.  Exports round to 13
    digits, so two nodes within the solver's slack can print one such unit
    apart in either direction."""
    return 10.0 ** (math.floor(math.log10(abs(x))) - 12) if x else 0.0


def _key_values(path: str) -> Dict[str, str]:
    return dict(line.split("=", 1) for line in _read_lines(path))


def fingerprints(prefix: str) -> Dict[str, str]:
    """sha256 of every file the command wrote, keyed by suffix (``.csv``)."""
    folder, stem = os.path.split(prefix)
    out = {}
    for name in sorted(os.listdir(folder)):
        if name.startswith(stem + "."):
            with open(os.path.join(folder, name), "rb") as fh:
                out[name[len(stem):]] = hashlib.sha256(fh.read()).hexdigest()
    return out


def family_of(cmd: dict):
    """Rebuild the command's surface family through the public constructors,
    with the CLI's defaults for every parameter the command leaves out."""
    p = cmd["params"]
    name = cmd["family"]
    if name == "horosphere":
        return solsurf.make_horosphere(p["a"])
    if name == "vertical-plane":
        return solsurf.make_vertical_plane(p["c"], p["d"])
    if name == "minimal-cylinder":
        return solsurf.make_minimal_cylinder(p["c"], p["y0"])
    if name == "grim-reaper":
        return solsurf.make_grim_reaper(p["lambda"], span=tuple(cmd["span"]))
    if name == "conformal-cylinder":
        return solsurf.make_conformal_cylinder(p["a"], p["y0"])
    raise ValueError(f"no checker for family {name!r}")


def check_residual(cmd: dict, prefix: str) -> Result:
    """Row count is ns*nt, no node failed, and the largest residual, which
    the summary and the CSV must agree on, is within the mode's limit."""
    ns, nt = cmd["grid"]
    problems = []
    lines = _read_lines(prefix + ".csv")
    if lines[:1] != ["s,t,residual"]:
        problems.append(f"bad CSV header {lines[:1]!r}")
    rows = lines[1:]
    if len(rows) != ns * nt:
        problems.append(f"{len(rows)} CSV rows, expected {ns * nt}")
    values = [float(row.rsplit(",", 1)[1]) for row in rows]
    csv_max = max((abs(v) for v in values), default=math.inf)
    summary = _key_values(prefix + ".summary.txt")
    if summary.get("failures") != "0":
        problems.append(f"summary reports failures={summary.get('failures')}")
    if summary.get("nodes") != str(ns * nt):
        problems.append(f"summary reports nodes={summary.get('nodes')}, expected {ns * nt}")
    max_abs = float(summary.get("MAX_ABS", "inf"))
    if max_abs != csv_max:
        problems.append(f"summary MAX_ABS={max_abs!r} but the CSV maximum is {csv_max!r}")
    if not max_abs <= cmd["limit"]:
        problems.append(f"MAX_ABS={max_abs!r} exceeds the limit {cmd['limit']!r}")
    return problems, len(rows)


def check_mesh(cmd: dict, prefix: str) -> Result:
    """ns*nt vertices and 2*(ns-1)*(nt-1) faces with in-range indices, every
    vertex above the boundary plane, and a seeded sample of vertices equal
    to ``SurfaceFamily.position`` at their grid nodes."""
    ns, nt = cmd["grid"]
    problems = []
    verts, n_faces, bad_index = [], 0, 0
    for line in _read_lines(prefix + ".obj"):
        tag, *fields = line.split()
        if tag == "v":
            verts.append(tuple(float(x) for x in fields))
        elif tag == "f":
            n_faces += 1
            bad_index += any(not 1 <= int(k) <= ns * nt for k in fields)
        else:
            problems.append(f"unexpected OBJ line {line[:40]!r}")
            break
    if len(verts) != ns * nt:
        problems.append(f"{len(verts)} vertices, expected {ns * nt}")
    expected_faces = 2 * (ns - 1) * (nt - 1)
    if n_faces != expected_faces:
        problems.append(f"{n_faces} faces, expected {expected_faces}")
    if bad_index:
        problems.append(f"{bad_index} faces index a missing vertex")
    low = sum(1 for v in verts if not v[2] > 0.0)
    if low:
        problems.append(f"{low} vertices have z <= 0")
    if len(verts) == ns * nt:
        fam = family_of(cmd)
        s_axis, t_axis = solsurf.grid_axes(fam, solsurf.GridSpec(ns, nt))
        rng = random.Random(cmd["sample_seed"])
        for k in rng.sample(range(ns * nt), min(POSITION_SAMPLES, ns * nt)):
            want = fam.position(float(s_axis[k // nt]), float(t_axis[k % nt]))
            got = verts[k]
            if any(abs(g - w) > POSITION_RTOL * max(1.0, abs(w)) for g, w in zip(got, want)):
                problems.append(f"vertex {k + 1} is {got}, the family puts it at {tuple(want)}")
                break
    return problems, len(verts)


def check_profile(cmd: dict, prefix: str) -> Result:
    """Collapsing profiles: both blow-up abscissae within 1e-6 of the
    quadrature half-width and the conservation defect within 1e-8.  Reaper:
    g positive and nondecreasing, and the run not truncated."""
    p = cmd["params"]
    problems = []
    rows = [[float(x) for x in line.split(",")] for line in _read_lines(prefix + ".csv")[1:]]
    events = _key_values(prefix + ".events.txt")
    if events.get("nodes") != str(len(rows)):
        problems.append(f"events report nodes={events.get('nodes')}, CSV has {len(rows)} rows")
    if events.get("truncated") != "false":
        problems.append(f"truncated={events.get('truncated')}")
    if cmd["ode"] == "grim-reaper":
        g = [row[1] for row in rows]
        if not all(v > 0.0 for v in g):
            problems.append("g is not positive at every node")
        drops = sum(1 for a, b in zip(g, g[1:])
                    if b - a < -(MONOTONE_SLACK * max(1.0, abs(a)) + _last_digit(a)))
        if drops:
            problems.append(f"g decreases at {drops} nodes")
        return problems, len(rows)
    if cmd["ode"] == "minimal":
        r = solsurf.minimal_halfwidth_quadrature(p["c"], p["y0"])
    else:
        r = solsurf.conformal_halfwidth_quadrature(p["a"], p["y0"])
    for key, want in (("left_blowup_t", -r), ("right_blowup_t", r)):
        got = events.get(key, "none")
        if got == "none" or not abs(float(got) - want) <= HALFWIDTH_TOL:
            problems.append(f"{key}={got}, quadrature gives {want!r}")
    defect = float(events.get("conserved_max_defect", "inf"))
    if not defect <= FIRST_INTEGRAL_TOL:
        problems.append(f"conserved_max_defect={defect!r} exceeds {FIRST_INTEGRAL_TOL}")
    return problems, len(rows)


def check_verify(cmd: dict, stdout: str) -> Result:
    """Every check of the battery appears in the table, once, as PASS.
    Returns the number of checks that passed as the node count."""
    lines = stdout.strip().splitlines()
    status = {}
    for row in (line.split() for line in lines[1:-1]):
        status[row[0]] = row[2] if row[0] not in status else "DUPLICATE"
    problems = [f"{name} reported {status.get(name, 'nothing')}"
                for name in cmd["checks"] if status.get(name) != "PASS"]
    extra = sorted(set(status) - set(cmd["checks"]))
    if extra:
        problems.append(f"unexpected checks {extra}")
    if lines[-1:] != ["ALL CHECKS PASSED"]:
        problems.append(f"table ends with {lines[-1:]!r}")
    return problems, sum(status.get(name) == "PASS" for name in cmd["checks"])


def failed_operations(cmd: dict, problems: List[str], nodes: int) -> int:
    """How many of the operations the command stands for failed."""
    if not problems:
        return 0
    if cmd["kind"] == "verify":
        return max(1, workloads.operations(cmd) - nodes)
    return 1


def check(cmd: dict, prefix: str, stdout: str) -> Result:
    if cmd["kind"] == "residual":
        return check_residual(cmd, prefix)
    if cmd["kind"] == "mesh":
        return check_mesh(cmd, prefix)
    if cmd["kind"] == "profile":
        return check_profile(cmd, prefix)
    return check_verify(cmd, stdout)
