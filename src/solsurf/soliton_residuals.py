"""Soliton residuals, on single jets or whole grid jets, and grid reports.

The three defining equations, written as residuals that vanish on exact
solutions (X is the embedding, N the unit normal ``Xs x Xt / |Xs x Xt|``,
H the Euclidean mean curvature):

    minimal:     X3*H + N3
    translator:  X3*(X3*H) - (X1*N1 + X2*N2)
    conformal:   X3*(X3*H) + (X3 + 1)*N3

The minimal residual ``X3*H + N3`` is also the mean curvature of the
surface measured in the rescaled (hyperbolic) ambient metric, so
``residual("minimal", j)`` is the hyperbolic mean curvature.

For the two product constructions the residuals reduce, after clearing the
positive factor ``2*W^3``, to polynomial expressions in the factor-curve
jets; those reduced forms are implemented independently of the jet pipeline
and serve as its cross-check.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import surface_factory
from .errors import DomainError
from .lie_halfspace import _quiet
from .surface_factory import GridSpec, SurfaceFamily, _failures, _row_blocks
from .surface_jets import _curvature

__all__ = [
    "SolitonMode",
    "residual",
    "reduced_residual_first_kind",
    "reduced_residual_second_kind",
    "ResidualReport",
    "residual_report",
]


class SolitonMode(enum.Enum):
    MINIMAL = "minimal"
    TRANSLATOR = "translator"
    CONFORMAL = "conformal"


def residual(mode: SolitonMode, j: np.ndarray):
    """Evaluate one soliton residual at every point of a surface jet, a
    ``(6, ..., 3)`` slot array: a float for a single point's ``(6, 3)`` jet,
    an array of the grid shape for a grid jet."""
    return _residual_of(SolitonMode(mode), j[0], *_curvature(j[1:]))


@_quiet
def _residual_of(mode: SolitonMode, X: np.ndarray, H, N):
    """The residual of ``mode`` from points ``X``, ``(..., 3)``, and the mean
    curvature ``H`` and normal components ``N`` that broadcast against them,
    with no numpy warning (``_quiet``), one expression per mode.  ``X3*H =
    H_hyp - N3`` stays in range where ``X3*X3`` overflows (above ~1.3e154)
    or underflows (below ~1.5e-154), so the height term is ``X3*(X3*H)``."""
    N1, N2, N3 = N
    X1, X2, X3 = X[..., 0], X[..., 1], X[..., 2]
    if mode is SolitonMode.MINIMAL:
        return X3 * H + N3
    if mode is SolitonMode.TRANSLATOR:
        return X3 * (X3 * H) - (X1 * N1 + X2 * N2)
    return X3 * (X3 * H) + (X3 + 1.0) * N3


def reduced_residual_first_kind(mode: SolitonMode, fj, gj, s: float, t: float) -> float:
    """Residual of X = (s, t + f(s), g(t)) with the 2*W^3 factor cleared;
    ``fj`` and ``gj`` are the ``(value, d1, d2)`` jets of ``f`` at ``s`` and
    of ``g`` at ``t``.

    Equals ``2*W^3`` times the general residual at the same jet, with
    ``W^2 = g'^2*(f'^2 + 1) + 1``.
    """
    mode = SolitonMode(mode)
    f, fp, fpp = fj
    g, gp, gpp = gj
    w2 = gp * gp * (fp * fp + 1.0) + 1.0
    bend = -fpp * gp * (1.0 + gp * gp)  # curvature of the drift curve, weighted
    stretch = gpp * (1.0 + fp * fp)
    if mode is SolitonMode.MINIMAL:
        return g * bend + g * stretch + 2.0 * w2
    if mode is SolitonMode.TRANSLATOR:
        drift = (s * fp - f) - t
        return g * g * bend + g * g * stretch - 2.0 * gp * w2 * drift
    return g * g * bend + g * g * stretch + 2.0 * (g + 1.0) * w2


def reduced_residual_second_kind(mode: SolitonMode, fj, s: float, t: float) -> float:
    """Residual of X = (s, f(s), t) with the 2*W^3 factor cleared,
    ``W^2 = f'^2 + 1``; ``fj`` is the ``(value, d1, d2)`` jet of ``f`` at
    ``s``."""
    mode = SolitonMode(mode)
    f, fp, fpp = fj
    if mode is SolitonMode.MINIMAL:
        return -t * fpp
    if mode is SolitonMode.TRANSLATOR:
        return -t * t * fpp - 2.0 * (fp * fp + 1.0) * (s * fp - f)
    return -t * t * fpp


@dataclass
class ResidualReport:
    """Residuals swept over a grid: ``r`` is the read-only ``(len(s),
    len(t))`` grid on the axes ``s`` and ``t``, not finite at every failed
    node, ``reasons`` :func:`sample_grid`'s per axis node, and ``family``
    the swept family, which :func:`~solsurf.export.write_residual_summary` reads.
    ``max_abs`` and the summary read ``_stats``, formed on first read."""

    mode: SolitonMode
    family: SurfaceFamily
    s: np.ndarray
    t: np.ndarray
    r: np.ndarray
    reasons: Tuple[List[Optional[str]], List[Optional[str]]]

    @property
    def ns(self) -> int:
        return self.r.shape[0]

    @property
    def nt(self) -> int:
        return self.r.shape[1]

    @property
    def failures(self) -> List[Tuple[float, float, str]]:
        """The failed nodes, row-major, as ``(s, t, reason)`` (:func:`_failures`)."""
        return _failures(self.s, self.t, self.reasons, self.r)

    @property
    def samples(self) -> np.ndarray:
        """The finite nodes' ``(s, t, value)`` rows, row-major, formed on each read."""
        i, k = np.nonzero(np.isfinite(self.r))
        return np.column_stack([self.s[i], self.t[k], self.r[i, k]])

    @functools.cached_property
    def _stats(self) -> Tuple[int, float, float]:
        """The finite nodes' count, mean ``|r|`` and max ``|r|``.  Past a max
        of 1 the mean is taken of ``|r|/2^e``, ``2^e`` just above the max, so
        its sum cannot overflow, and scaled back."""
        a = self.r[np.isfinite(self.r)]
        np.abs(a, out=a)
        top = float(np.max(a))
        e = math.frexp(top)[1] if top >= 1.0 else 0
        return a.size, math.ldexp(float(np.mean(np.ldexp(a, -e, out=a))), e), top

    @property
    def max_abs(self) -> float:
        return self._stats[2]


def residual_report(fam: SurfaceFamily, mode: SolitonMode, grid: GridSpec) -> ResidualReport:
    """Sweep one residual over a family grid, on the family's ``s_range``
    and ``t_range``: :func:`_row_blocks` forms it one block of ``s`` rows at
    a time into the rows of ``r``.  A failed node is a residual that is not
    finite, with no numpy warning: its axis node failed, its point is off
    the half-space, or its forms overflow or its jet is collapsed, so its
    normal is NaN; the report's ``failures`` reads them off ``r``.  Raises
    :class:`DomainError` if no node gives a finite residual: the one raise
    of a sweep for an unevaluable grid.
    """
    mode = SolitonMode(mode)
    # looked up at call time, so that a tracer which rebinds it sees this sweep
    (s, t, alpha, beta), reasons = surface_factory.sample_grid(fam, grid)
    r = np.empty((len(s), len(t)))
    for rows, values in _row_blocks(alpha, beta, lambda X, H, N: _residual_of(mode, X, H, N)):
        r[rows] = values
    r.setflags(write=False)
    if not np.isfinite(r).any():  # every node failed, so the first row holds the first
        raise DomainError(
            f"no grid node of {fam.name!r} has a finite residual "
            f"({r.size} failures), first (s, t, reason): {_failures(s, t, reasons, r[:1])[0]}"
        )
    return ResidualReport(mode, fam, s, t, r, reasons)
