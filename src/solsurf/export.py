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
    CSV and the OBJ writer; the residual CSV formats one template per ``t``
    column."""
    return (template * len(table)) % tuple(table.ravel().tolist())


def _open_w(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def write_residual_csv(path, report: ResidualReport) -> int:
    """One row per sampled node: ``s,t,residual``, in the order of
    ``report.samples`` (the (s, t) product grid minus its failed nodes,
    sorted by (s, t)).  Returns the row count.

    A run of rows that share the bits of ``s`` is one ``%`` over its
    residuals alone: the template ``"<t>,%.12e\n"`` per row, joined, is
    rebuilt only when the run's ``t`` column differs in bits from the
    previous run's, and ``"<s>,"`` is formatted once per run.  The next run
    reuses the lines, prefixed by its own ``s``, when its ``(t, residual)``
    columns have the same bits.  Where the ``s`` step leaves every
    residual's bits alone, as the horizontal translation of most families
    and modes does, every run repeats and the CSV costs one number
    conversion per ``t`` node and one per ``s`` node.  Only the previous run
    is kept, and nothing is sorted.  The bytes are those of formatting every
    number of every row with :func:`fmt`.
    """
    samples = report.samples
    s_bits = samples[:, 0].view(np.int64)
    bounds = np.ones(len(samples) + 1, dtype=bool)  # where a run of equal s bits starts or ends
    bounds[1:-1] = s_bits[1:] != s_bits[:-1]
    edges = np.flatnonzero(bounds).tolist()
    piece = f"{_NUM},%{_NUM}\n"
    last_t = template = last = lines = None
    with _open_w(path) as fh:
        fh.write("s,t,residual\n")
        for lo, hi in zip(edges, edges[1:]):
            row = samples[lo:hi, 1:].tobytes()
            if row != last:
                t_bits = samples[lo:hi, 1].tobytes()
                if t_bits != last_t:
                    last_t = t_bits
                    template = "".join([piece % t for t in samples[lo:hi, 1].tolist()])
                last, lines = row, (template % tuple(samples[lo:hi, 2].tolist())).splitlines(True)
            pre = fmt(samples[lo, 0]) + ","
            fh.write(pre + pre.join(lines))
    return len(samples)


def write_residual_summary(path, report: ResidualReport) -> None:
    """Key=value summary of a residual sweep: the family, its parameters
    (``param.<name>``, sorted) and the ranges its grid samples, then the
    sweep.  The last line is always ``MAX_ABS=<value>`` so shell pipelines
    can grab it.  A parameter that does not format raises before the file
    is opened."""
    fam, grid = report.family, report.grid
    lines = [f"family={fam.name}"]
    lines += [f"param.{key}={fmt(fam.params[key])}" for key in sorted(fam.params)]
    lines += [f"{name}={fmt(lo)}:{fmt(hi)}"
              for name, (lo, hi) in (("s_range", fam.s_range), ("t_range", fam.t_range))]
    lines += [
        f"mode={report.mode.value}",
        f"grid={grid.ns}x{grid.nt}",
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

    with _open_w(path) as fh:
        fh.write(f"family={sol.family}\n")
        fh.write(f"left_blowup_t={opt(sol.left_blowup_t)}\n")
        fh.write(f"right_blowup_t={opt(sol.right_blowup_t)}\n")
        fh.write(f"truncated={'true' if sol.truncated else 'false'}\n")
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
