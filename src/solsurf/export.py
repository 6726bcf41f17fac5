"""Deterministic text export: residual CSV + summary, profile CSV + events,
and OBJ meshes.

Every number is written in the :func:`fmt` format (scientific, 13 significant
digits, locale independent), and no file contains timestamps or environment
detail, so identical inputs produce byte-identical files.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .soliton_residuals import ResidualReport

if TYPE_CHECKING:  # pragma: no cover
    from .profile_odes import ProfileSolution
    from .surface_factory import GridSpec, SurfaceFamily

__all__ = [
    "fmt",
    "write_residual_csv",
    "write_residual_summary",
    "write_profile_csv",
    "write_profile_events",
    "write_obj_mesh",
]


_NUM = "%.12e"


def fmt(x: float) -> str:
    """Fixed numeric format for all exports: one leading digit and twelve
    decimals, ``3.141592653590e+00`` style."""
    return _NUM % float(x)


def _rows(template: str, table: np.ndarray) -> str:
    """Every row of a 2-D table formatted by one ``%`` template (numbers as
    ``_NUM``, the format of :func:`fmt`), in one call.  Serves the profile
    CSV and the OBJ writer; the residual CSV formats its grid axes once."""
    return (template * len(table)) % tuple(table.ravel().tolist())


def _distinct(values: np.ndarray, piece: str):
    """``piece % x`` for each distinct float ``x`` of ``values``, and per
    value the index of its string.  Floats are told apart by their bits, so
    equal bits share a string and ``0.0`` and ``-0.0`` keep their own."""
    bits, index = np.unique(values.astype(np.float64).view(np.int64), return_inverse=True)
    return [piece % x for x in bits.view(np.float64).tolist()], index


def _open_w(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def write_residual_csv(path, report: ResidualReport) -> int:
    """One row per sampled node: ``s,t,residual``, in the order of
    ``report.samples`` (the (s, t) product grid minus its failed nodes,
    sorted by (s, t)).  Returns the row count.

    Each distinct ``s`` is formatted once as ``"<s>,"`` and each distinct
    ``t`` once as the template ``"<t>,%.12e\\n"``.  A run of rows that share
    an ``s`` is one ``%`` over its residuals alone, split into its
    ``"<t>,<residual>\\n"`` lines; the next run reuses those lines, prefixed
    by its own ``s``, when its ``(t, residual)`` columns have the same bits.
    Where the ``s`` step leaves every residual's bits alone, as the
    horizontal translation of most families and modes does, every row
    repeats and the CSV costs one number conversion per ``t`` node, not per
    node.  Only the previous row is kept.  The bytes are those of formatting
    every number of every row with :func:`fmt`.
    """
    samples = report.samples
    s_text, s_of = _distinct(samples[:, 0], f"{_NUM},")
    t_text, t_of = _distinct(samples[:, 1], f"{_NUM},%{_NUM}\n")
    edges = np.flatnonzero(np.diff(s_of, prepend=-1, append=-1)).tolist()
    last = lines = None
    with _open_w(path) as fh:
        fh.write("s,t,residual\n")
        for lo, hi in zip(edges, edges[1:]):
            row = samples[lo:hi, 1:].tobytes()
            if row != last:
                text = "".join([t_text[k] for k in t_of[lo:hi].tolist()])
                last, lines = row, (text % tuple(samples[lo:hi, 2].tolist())).splitlines(True)
            pre = s_text[s_of[lo]]
            fh.write(pre + pre.join(lines))
    return len(samples)


def write_residual_summary(path, report: ResidualReport) -> None:
    """Key=value summary of a residual sweep: the family, its parameters
    (``param.<name>``, sorted) and ranges, then the sweep.  The last line is
    always ``MAX_ABS=<value>`` so shell pipelines can grab it.  A parameter
    that does not format raises before the file is opened."""
    fam, grid = report.family, report.grid
    lines = [f"family={fam.name}"]
    lines += [f"param.{key}={fmt(fam.params[key])}" for key in sorted(fam.params)]
    lines += [f"{name}={fmt(lo)}:{fmt(hi)}"
              for name, (lo, hi) in (("s_range", fam.s_range), ("t_range", fam.t_range))]
    lines += [
        f"mode={report.mode.value}",
        f"grid={grid.ns}x{grid.nt}",
        f"margin={fmt(grid.margin)}",
        f"nodes={len(report.samples)}",
        f"failures={len(report.failures)}",
        f"mean_abs={fmt(report.mean_abs)}",
        f"MAX_ABS={fmt(report.max_abs)}",
    ]
    text = "".join(line + "\n" for line in lines)  # formatted before the file is opened
    with _open_w(path) as fh:
        fh.write(text)


def write_profile_csv(path, sol: "ProfileSolution") -> int:
    """One row per integration node: ``t,g,gp,first_integral_defect``.
    The defect column is the normalized conservation monitor (zeros for the
    family without a conserved quantity).  Returns the row count."""
    with _open_w(path) as fh:
        fh.write("t,g,gp,first_integral_defect\n")
        table = np.column_stack([sol.t, sol.g, sol.gp, sol.node_defect])
        fh.write(_rows(f"{_NUM},{_NUM},{_NUM},{_NUM}\n", table))
    return len(sol.t)


def write_profile_events(path, sol: "ProfileSolution") -> None:
    """Key=value sidecar with the blow-up abscissae and truncation flag."""

    def opt(v) -> str:
        return "none" if v is None else fmt(v)

    ev = sol.events
    with _open_w(path) as fh:
        fh.write(f"family={sol.family}\n")
        fh.write(f"left_blowup_t={opt(ev.left_blowup_t)}\n")
        fh.write(f"right_blowup_t={opt(ev.right_blowup_t)}\n")
        fh.write(f"truncated={'true' if ev.truncated else 'false'}\n")
        fh.write(f"nodes={len(sol.t)}\n")
        fh.write(f"conserved_max_defect={fmt(sol.conserved_max_defect)}\n")


def write_obj_mesh(path, fam: "SurfaceFamily", grid: "GridSpec") -> tuple:
    """Triangulated grid mesh in Wavefront OBJ.

    Vertices are row-major over (s, t) — the node (i, j) is OBJ index
    ``i*nt + j + 1`` — and each grid cell is split into the two triangles
    ``(i,j) (i+1,j) (i+1,j+1)`` and ``(i,j) (i+1,j+1) (i,j+1)``.
    Raises :class:`DomainError`, before the file is opened, if any node
    fails.  Returns (vertex_count, face_count).
    """
    from .surface_factory import sample_grid

    (_, _, j), failures = sample_grid(fam, grid)
    if failures:
        n = len(failures)
        raise DomainError(f"{n} mesh node(s) failed, first (s, t, reason): {failures[0]}")
    ns, nt = grid.ns, grid.nt
    idx = np.arange(1, ns * nt + 1).reshape(ns, nt)
    a, b, c, d = idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:], idx[:-1, 1:]
    faces = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    with _open_w(path) as fh:
        fh.write(_rows(f"v {_NUM} {_NUM} {_NUM}\n", j.X.reshape(-1, 3)))
        fh.write(_rows("f %d %d %d\n", faces))
    return ns * nt, len(faces)
