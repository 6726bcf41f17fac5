"""Deterministic text export: residual CSV + summary, profile CSV + events,
and OBJ meshes.

Every number is written in the :func:`fmt` format (scientific, 13 significant
digits, locale independent), and no file contains timestamps or environment
detail, so identical inputs produce byte-identical files.
"""
from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .soliton_residuals import ResidualReport
from .surface_jets import _positions

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


# Row template of the profile CSV, and the factors that mirror a row: t and
# g' negated, g and the defect kept.
_PROFILE_ROW = f"{_NUM},{_NUM},{_NUM},{_NUM}\n"
_MIRROR = np.array([-1.0, 1.0, -1.0, 1.0])


def _negated(cells):
    """The ``%.12e`` text of each value negated, from the text of the
    value: the leading ``-`` toggled, exact for every non-NaN float,
    ``-0.0`` and infinities included."""
    return [c[1:] if c[0] == "-" else "-" + c for c in cells]


def _profile_rows(table: np.ndarray) -> str:
    """The rows of a ``(t, g, g', defect)`` table as profile CSV text.

    A table of ``n = 2h + 1`` rows whose rows ``h - i`` and ``h + i`` match
    bit for bit with ``t`` and ``g'`` negated, and that holds no NaN, is
    formatted from its centre and right half alone: each of those values
    once, with its separator, and the left half's ``t`` and ``g'`` text by
    :func:`_negated`.  Any other table, the reaper's among them, is one
    :func:`_rows` call.  Both give the bytes of formatting every value."""
    n = len(table)
    h = n // 2
    if (n % 2 == 0 or np.isnan(table).any()
            or (table[h + 1:] * _MIRROR).tobytes() != table[:h][::-1].tobytes()):
        return _rows(_PROFILE_ROW, table)
    # cells[4*r + j]: column j of row h + r, with the separator after it
    cells = ((f"{_NUM},\0{_NUM},\0{_NUM},\0{_NUM}\n\0" * (h + 1))
             % tuple(table[h:].ravel().tolist())).split("\0")
    left = [""] * (4 * h)
    for j in range(4):  # rows 2h .. h + 1, outermost first, as rows 0 .. h - 1
        column = cells[4 * h + j:3:-4]
        left[j::4] = column if j % 2 else _negated(column)
    return "".join(left) + "".join(cells)


def write_profile_csv(path, sol: "ProfileSolution") -> int:
    """One row per integration node: ``t,g,gp,first_integral_defect``.
    The defect column is the normalized conservation monitor (zeros for the
    family without a conserved quantity).  An even profile's left half is
    the mirror of its right half, so its text is derived from the right
    half's (:func:`_profile_rows`): a minimal or conformal CSV formats
    about half its values.  Returns the row count."""
    text = _profile_rows(np.column_stack([sol.t, sol.g, sol.gp, sol.node_defect]))
    with _open_w(path) as fh:
        fh.write("t,g,gp,first_integral_defect\n")
        fh.write(text)
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
    The surface points alone, no jet and no curvature, are formed in a
    residual sweep's blocks of ``s`` rows (:func:`_block_rows`), and the
    vertex text of each block is written before the next is formed; the
    faces follow, in the same blocks of cell rows.  Raises
    :class:`DomainError`, before the file is opened, if any node fails; a
    block that raises once the file is open removes it.  Returns
    (vertex_count, face_count).
    """
    from .surface_factory import _block_rows, sample_grid

    (_, _, alpha, beta), failures = sample_grid(fam, grid)
    if failures:
        n = len(failures)
        raise DomainError(f"{n} mesh node(s) failed, first (s, t, reason): {failures[0]}")
    ns, nt = grid.ns, grid.nt
    blocks = _block_rows(ns, nt)
    a = np.arange(1, nt)  # the OBJ index (0, j) of each cell's first corner
    # the two triangles of each cell in the first row of cells; a cell in
    # row i adds i*nt to every index
    cells = np.stack([a, a + nt, a + nt + 1, a, a + nt + 1, a + 1], axis=-1)
    try:
        with _open_w(path) as fh:
            for rows in blocks:
                with np.errstate(over="ignore"):  # an overflowed point is written as inf
                    X = _positions(alpha[0, rows], beta[0])
                fh.write(_rows(f"v {_NUM} {_NUM} {_NUM}\n", X.reshape(-1, 3)))
            for rows in blocks:
                i = np.arange(rows.start, min(rows.stop, ns - 1))[:, None, None]
                fh.write(_rows("f %d %d %d\n", (cells + nt * i).reshape(-1, 3)))
    except DomainError:
        os.remove(path)
        raise
    return ns * nt, 2 * (ns - 1) * (nt - 1)
