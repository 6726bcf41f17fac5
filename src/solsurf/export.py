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
    """Fixed numeric format for all exports: 0.123456789012e+00 style."""
    return _NUM % float(x)


def _rows(template: str, table: np.ndarray) -> str:
    """Every row of a 2-D table formatted by one ``%`` template (numbers as
    ``_NUM``, the format of :func:`fmt`), in one call."""
    return (template * len(table)) % tuple(table.ravel().tolist())


def _open_w(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def write_residual_csv(path, report: ResidualReport) -> int:
    """One row per sampled node: ``s,t,residual``.  Returns the row count."""
    with _open_w(path) as fh:
        fh.write("s,t,residual\n")
        fh.write(_rows(f"{_NUM},{_NUM},{_NUM}\n", report.samples))
    return len(report.samples)


def write_residual_summary(path, report: ResidualReport) -> None:
    """Key=value summary of a residual sweep: the family, its parameters
    (``param.<name>``, sorted) and ranges, then the sweep.  The last line is
    always ``MAX_ABS=<value>`` so shell pipelines can grab it.  A parameter
    that does not format raises before the file is opened."""
    lines = [f"family={report.family}"]
    lines += [f"param.{key}={fmt(report.params[key])}" for key in sorted(report.params)]
    lines += [f"{name}={fmt(lo)}:{fmt(hi)}"
              for name, (lo, hi) in (("s_range", report.s_range), ("t_range", report.t_range))]
    lines += [
        f"mode={report.mode.value}",
        f"grid={report.ns}x{report.nt}",
        f"margin={fmt(report.margin)}",
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
