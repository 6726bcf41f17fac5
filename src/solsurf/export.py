"""Deterministic text export: residual CSV + summary, profile CSV + events,
and OBJ meshes.  This module only formats: a mesh's points and refusals come
from :mod:`~solsurf.surface_factory`, a report's statistics from the report.

Every number is written in the :func:`fmt` format (scientific, 13 significant
digits, locale independent), and no file contains timestamps or environment
detail, so identical inputs produce byte-identical files.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .surface_factory import _block_rows, _mesh_points

if TYPE_CHECKING:  # pragma: no cover
    from .profile_odes import ProfileSolution
    from .soliton_residuals import ResidualReport
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


# Cells per chunk of :func:`_num_rows`.
_CHUNK_CELLS = 1 << 13
# 10**k for k = 12 - e, e = -32 .. 56 (index 56 - e), as two exact factors
# of at most 10**22, each applied as a product or a quotient:
# |x| * _M1 / _D1 * _M2 / _D2, two roundings at most.
_K = 12 - np.arange(56, -33, -1)
_K1 = np.clip(_K, -22, 22)
_M1, _D1, _M2, _D2 = (10.0 ** np.maximum(sign * k, 0) for k in (_K1, _K - _K1) for sign in (1, -1))
# Text words in native byte order: "0000" .. "9999"; "e-32" .. "e+57"
# padded to 8 bytes; "0." .. "9." then "-0." .. "-9.", right-aligned in 4.
_DIGITS = np.frombuffer(b"0123456789", np.uint8)
_QUAD = np.stack(np.broadcast_arrays(_DIGITS[:, None, None, None], _DIGITS[:, None, None],
                                     _DIGITS[:, None], _DIGITS), axis=-1).view(np.uint32).ravel()
_EXP = np.frombuffer(b"".join(b"e%+03d\0\0\0\0" % e for e in range(-32, 58)), np.uint64)
_HEAD = np.frombuffer(b"".join((sign + b"%d." % d).rjust(4, b"\0")
                               for sign in (b"", b"-") for d in range(10)), np.uint32)


def _num_rows(template: str, table: np.ndarray):
    """Every row of a float table as ``template`` writes it under ``%``,
    each cell as :func:`fmt` writes it, byte for byte, in chunks of at most
    ``_CHUNK_CELLS`` cells: yields one ``str`` per chunk of whole rows.
    ``template`` is one row: ``_NUM`` per column, a lead of at most 8 bytes
    before the first and a separator of at most 4 after each, with no ``%``
    of their own.

    A chunk is laid out in a ``uint32`` buffer, 6 words per cell: sign,
    first digit and point; three words of four digits; exponent and
    separator.  Each ``|x|`` in [1e-31, 1e56] is scaled to 13 digits by two
    exact powers of ten (``_M1`` .. ``_D2``), so it is off by at most two
    roundings, below 2.3e-3 of the last digit, and rounded to the nearest
    integer; the words come from lookup tables, and the zero bytes that pad
    them are dropped.  Zero is written as ``0.000000000000e+00``.  A cell
    whose scaled fraction lies within 2**-7 of 1/2, where the two
    roundings could decide the digit, or whose scaled value left [1e12,
    1e13], and every NaN, infinity, subnormal or other value outside that
    range, is formatted by ``%`` and spliced in."""
    lead, *seps = (piece.encode() for piece in template.split(_NUM))
    k = len(seps)
    w = 2 if lead else 0  # words of the lead
    tail = np.concatenate([_EXP | np.frombuffer(sep.rjust(8, b"\0"), np.uint64) for sep in seps])
    tail_at = np.arange(k) * len(_EXP) + 88  # tail_at - i is e's entry in each column's tails
    step = max(1, _CHUNK_CELLS // k)
    for lo in range(0, len(table), step):
        x = table[lo:lo + step]
        buf = np.empty((len(x), w + 6 * k), np.uint32)
        buf[:, :w] = np.frombuffer(lead.ljust(8, b"\0"), np.uint32)[:w]
        cells = buf[:, w:].reshape(len(x), k, 6)
        a = np.abs(x)
        zero = a == 0.0
        s = np.fmax(a, 1e-31)  # NaN -> 1e-31
        np.fmin(s, 1e56, out=s)
        s[zero] = 1.0
        special = s != a
        special ^= zero
        i = np.floor(np.log10(s)).astype(np.intp)  # the decade e of each |x|
        np.subtract(56, i, out=i)  # as the row 56 - e of _M1 .. _D2
        s *= _M1.take(i)
        s /= _D1.take(i)
        s *= _M2.take(i)
        s /= _D2.take(i)
        r = np.rint(s)
        special |= np.abs(s - r) > 0.5 - 2.0 ** -7
        special |= (s < 1e12) | (s > 1e13)  # log10 missed the decade
        top = r == 1e13  # rounds up to the next decade
        r[top] = 1e12
        i -= top
        r[zero] = 0.0
        hi = np.floor(r / 1e8)  # the first 5 digits, then the last 8
        r -= hi * 1e8
        low = r.astype(np.int32)
        hi = hi.astype(np.int32)
        q = hi // 10000
        hi -= q * 10000
        q += 10 * np.signbit(x).view(np.uint8)
        cells[..., 0] = _HEAD.take(q)
        cells[..., 1] = _QUAD.take(hi)
        q = low // 10000
        low -= q * 10000
        cells[..., 2] = _QUAD.take(q)
        cells[..., 3] = _QUAD.take(low)
        cells.view(np.uint64)[..., 2] = tail.take(tail_at - i)
        if special.any():  # 20 bytes of text, NUL-padded; the separator stays
            row, col = np.nonzero(special)
            text = ("%-20.12e" * len(row)) % tuple(x[row, col].tolist())
            text = text.replace(" ", "\0").encode()
            cells[row, col, :5] = np.frombuffer(text, np.uint32).reshape(-1, 5)
        yield buf.tobytes().translate(None, b"\0").decode("ascii")


def _open_w(path):
    # 64 KiB, not 8: five 11.7 KB CSV rows per OS write, below glibc's mmap threshold
    return open(path, "w", buffering=1 << 16, encoding="utf-8", newline="\n")


def write_residual_csv(path, report: ResidualReport) -> int:
    """One line ``s,t,residual`` per finite node of ``report.r``, row-major
    over the grid.  Returns the line count.

    Each ``s`` row formats ``"<s>,"`` once and writes it before each of its
    ``"<t>,<residual>\n"`` lines: one :func:`_num_rows` call over ``t`` and
    the residuals at the row's finite nodes, which the next row reuses when
    its residuals have the same bits (``t`` is the same on every row).
    Where the ``s`` step leaves the residuals' bits alone, as the horizontal
    translation of most families and modes does, the CSV costs one kernel
    call and one number conversion per ``s`` node; its text reaches the OS
    in :func:`_open_w`'s 64 KiB writes.  A row whose every node failed
    writes nothing.  The bytes are those of :func:`fmt` on every number."""
    last, lines, n = None, [], 0
    with _open_w(path) as fh:
        fh.write("s,t,residual\n")
        for s, row in zip(report.s.tolist(), report.r):
            bits = row.tobytes()
            if bits != last:
                last, m = bits, np.isfinite(row)
                table = np.column_stack([report.t[m], row[m]])
                lines = "".join(_num_rows(f"{_NUM},{_NUM}\n", table)).splitlines(True)
            if lines:
                pre = fmt(s) + ","
                fh.writelines((pre, pre.join(lines)))
                n += len(lines)
    return n


def write_residual_summary(path, report: ResidualReport) -> None:
    """Key=value summary of a residual sweep: the family, its parameters
    (``param.<name>``, sorted) and the ranges its grid samples, then the
    sweep.  The last line is always ``MAX_ABS=<value>`` so shell pipelines
    can grab it.  A parameter that does not format raises before the file
    is opened."""
    fam, (nodes, mean_abs, max_abs) = report.family, report._stats
    lines = [f"family={fam.name}"]
    lines += [f"param.{key}={fmt(fam.params[key])}" for key in sorted(fam.params)]
    lines += [f"{name}={fmt(lo)}:{fmt(hi)}"
              for name, (lo, hi) in (("s_range", fam.s_range), ("t_range", fam.t_range))]
    lines += [
        f"mode={report.mode.value}",
        f"grid={report.ns}x{report.nt}",
        f"nodes={nodes}",
        f"failures={report.r.size - nodes}",
        f"mean_abs={fmt(mean_abs)}",
        f"MAX_ABS={fmt(max_abs)}",
    ]
    text = "".join(line + "\n" for line in lines)  # formatted before the file is opened
    with _open_w(path) as fh:
        fh.write(text)


def write_profile_csv(path, sol: "ProfileSolution") -> int:
    """One row per integration node: ``t,g,gp,first_integral_defect``.
    The defect column is the normalized conservation monitor (zeros for the
    family without a conserved quantity).  The rows are written by
    :func:`_num_rows`, a chunk at a time.  Returns the row count."""
    table = np.column_stack([sol.t, sol.g, sol.gp, sol.node_defect])
    with _open_w(path) as fh:
        fh.write("t,g,gp,first_integral_defect\n")
        fh.writelines(_num_rows(f"{_NUM},{_NUM},{_NUM},{_NUM}\n", table))
    return len(sol.t)


def write_profile_events(path, sol: "ProfileSolution") -> None:
    """Key=value sidecar with the blow-up abscissae and truncation flag,
    formatted before the file is opened and written at once."""

    def opt(v) -> str:
        return "none" if v is None else fmt(v)

    text = (f"family={sol.family}\n"
            f"left_blowup_t={opt(sol.left_blowup_t)}\n"
            f"right_blowup_t={opt(sol.right_blowup_t)}\n"
            f"truncated={'true' if sol.truncated else 'false'}\n"
            f"nodes={len(sol.t)}\n"
            f"conserved_max_defect={fmt(sol.conserved_max_defect)}\n")
    with _open_w(path) as fh:
        fh.write(text)


def write_obj_mesh(path, fam: "SurfaceFamily", grid: "GridSpec") -> tuple:
    """Triangulated grid mesh in Wavefront OBJ.

    Vertices are row-major over (s, t) — the node (i, j) is OBJ index
    ``i*nt + j + 1`` — and each grid cell is split into the two triangles
    ``(i,j) (i+1,j) (i+1,j+1)`` and ``(i,j) (i+1,j+1) (i,j+1)``.  The
    points come a block of ``s`` rows at a time from
    :func:`~solsurf.surface_factory._mesh_points`, which refuses the grid
    before the file is opened; each block's vertex text is written by
    :func:`_num_rows` before the next block is formed, then the faces, in
    the same blocks of cell rows, each index's text formed once per block
    and joined by ``%``.  Returns (vertex_count, face_count).
    """
    blocks = _mesh_points(fam, grid)
    ns, nt = grid.ns, grid.nt
    a = np.arange(nt - 1)  # the node (0, j) of each cell's first corner
    # the two triangles of each cell in a block's first row of cells, as
    # offsets from its first node; a cell in the block's row i adds i*nt
    cells = np.stack([a, a + nt, a + nt + 1, a, a + nt + 1, a + 1], axis=-1)
    with _open_w(path) as fh:
        for X in blocks:
            fh.writelines(_num_rows(f"v {_NUM} {_NUM} {_NUM}\n", X.reshape(-1, 3)))
        for rows in _block_rows(ns, nt):
            lo, hi = rows.start, min(rows.stop, ns - 1)
            # the text of each OBJ index on the block's cell rows, once
            index = np.array([str(k) for k in range(lo * nt + 1, (hi + 1) * nt + 1)], object)
            faces = index[cells + nt * np.arange(hi - lo)[:, None, None]].ravel()
            fh.write("f %s %s %s\n" * (len(faces) // 3) % tuple(faces.tolist()))
    return ns * nt, 2 * (ns - 1) * (nt - 1)
