"""Soliton residuals, on single jets or whole grid jets, and grid reports.

The three defining equations, written as residuals that vanish on exact
solutions (X is the embedding, N the unit normal ``Xs x Xt / |Xs x Xt|``,
H the Euclidean mean curvature):

    minimal:     X3*H + N3
    translator:  X3^2*H - (X1*N1 + X2*N2)
    conformal:   X3^2*H + (X3 + 1)*N3

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
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import SamplingError
from .surface_jets import (
    ScalarJet2,
    SurfaceJet2,
    mean_curvature,
    unit_normal,
)

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


def residual(mode: SolitonMode, j: SurfaceJet2):
    """Evaluate one soliton residual at every point of a jet: a float for a
    single point, an array of the grid shape for a grid jet."""
    mode = SolitonMode(mode)
    N = unit_normal(j)
    H = mean_curvature(j)
    X1, X2, X3 = j.X[..., 0], j.X[..., 1], j.X[..., 2]
    if mode is SolitonMode.MINIMAL:
        return X3 * H + N[..., 2]
    if mode is SolitonMode.TRANSLATOR:
        return (X3 * X3) * H - (X1 * N[..., 0] + X2 * N[..., 1])
    return (X3 * X3) * H + (X3 + 1.0) * N[..., 2]


def reduced_residual_first_kind(
    mode: SolitonMode, fj: ScalarJet2, gj: ScalarJet2, s: float, t: float
) -> float:
    """Residual of X = (s, t + f(s), g(t)) with the 2*W^3 factor cleared.

    Equals ``2*W^3`` times the general residual at the same jet, with
    ``W^2 = g'^2*(f'^2 + 1) + 1``.
    """
    mode = SolitonMode(mode)
    fp, fpp = fj.d1, fj.d2
    g, gp, gpp = gj.value, gj.d1, gj.d2
    w2 = gp * gp * (fp * fp + 1.0) + 1.0
    bend = -fpp * gp * (1.0 + gp * gp)  # curvature of the drift curve, weighted
    stretch = gpp * (1.0 + fp * fp)
    if mode is SolitonMode.MINIMAL:
        return g * bend + g * stretch + 2.0 * w2
    if mode is SolitonMode.TRANSLATOR:
        drift = (s * fp - fj.value) - t
        return g * g * bend + g * g * stretch - 2.0 * gp * w2 * drift
    return g * g * bend + g * g * stretch + 2.0 * (g + 1.0) * w2


def reduced_residual_second_kind(
    mode: SolitonMode, fj: ScalarJet2, b: float, s: float, t: float
) -> float:
    """Residual of X = (s, f(s) + b, t) with the 2*W^3 factor cleared,
    ``W^2 = f'^2 + 1``."""
    mode = SolitonMode(mode)
    fp, fpp = fj.d1, fj.d2
    if mode is SolitonMode.MINIMAL:
        return -t * fpp
    if mode is SolitonMode.TRANSLATOR:
        return -t * t * fpp - 2.0 * (fp * fp + 1.0) * (s * fp - fj.value - b)
    return -t * t * fpp


@dataclass
class ResidualReport:
    """Residuals sampled over a grid.  ``samples`` has columns (s, t, value)
    and holds the (s, t) product grid minus its failed nodes, sorted by
    (s, t); every value is finite.  Evaluation failures are kept
    separately.  ``params`` and the ranges are those of the family, which
    they identify.  :func:`~solsurf.export.write_residual_csv` writes the
    rows in this order, formatting each axis node once."""

    mode: SolitonMode
    family: str
    params: dict
    s_range: Tuple[float, float]
    t_range: Tuple[float, float]
    ns: int
    nt: int
    margin: float
    samples: np.ndarray
    failures: List[Tuple[float, float, str]]

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.samples[:, 2])))

    @property
    def mean_abs(self) -> float:
        return float(np.mean(np.abs(self.samples[:, 2])))


def residual_report(fam, mode: SolitonMode, grid) -> ResidualReport:
    """Sweep one residual over a family grid (margins per the family's
    blow-up flag) and collect the values.

    A node whose residual is not finite (its fundamental forms overflow)
    fails with that reason, beside the nodes :func:`sample_grid` fails;
    ``failures`` stays row-major.  Raises :class:`SamplingError` if no node
    gives a finite residual.
    """
    # Looked up at call time, so that a tracer which rebinds
    # ``surface_factory.sample_grid`` sees the sweeps made here.
    from .surface_factory import sample_grid

    mode = SolitonMode(mode)
    (s, t, j), failures = sample_grid(fam, grid)
    S, T = np.meshgrid(s, t, indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):  # such nodes fail below
        r = residual(mode, j)
    finite = np.isfinite(r)
    if not finite.all():
        failures = sorted(
            failures + [(si, ti, f"residual is not finite: {v!r}")
                        for si, ti, v in zip(S[~finite].tolist(), T[~finite].tolist(),
                                             r[~finite].tolist())],
            key=lambda f: (f[0], f[1]),
        )
        if not finite.any():
            raise SamplingError(
                f"no grid node of {fam.name!r} has a finite residual "
                f"({len(failures)} failures), first (s, t, reason): {failures[0]}"
            )
    arr = np.stack([S, T, r], axis=-1)[finite]
    arr.setflags(write=False)
    return ResidualReport(
        mode=mode,
        family=fam.name,
        params=fam.params,
        s_range=fam.s_range,
        t_range=fam.t_range,
        ns=grid.ns,
        nt=grid.nt,
        margin=grid.margin,
        samples=arr,
        failures=failures,
    )
