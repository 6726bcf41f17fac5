"""Group structure and conformal metric on the open upper half-space.

The ambient set is ``{(x, y, z) in R^3 : z > 0}`` with the Riemannian inner
product ``<u, v> / z^2`` (Euclidean inner product rescaled by the height of
the base point).  The product

    (x1, y1, z1) * (x2, y2, z2) = (z1*x2 + x1, z1*y2 + y1, z1*z2)

turns the half-space into a Lie group with identity ``(0, 0, 1)`` whose left
translations are isometries.  The same group is isomorphic to a semidirect
product of the horizontal plane with a real line acting by the exponential
dilation ``(x, y, w) -> (x, y, e^w)``, and rotation about the vertical axis
through the identity is simultaneously a group automorphism and an isometry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "HalfSpacePoint",
    "SemidirectPoint",
    "IDENTITY",
    "lie_product",
    "lie_inverse",
    "semidirect_product",
    "semidirect_to_halfspace",
    "rotation_matrix",
    "rotation_about_vertical",
]

_INF = math.inf


@dataclass(frozen=True, slots=True)
class HalfSpacePoint:
    """A point of the half-space model: finite ``x`` and ``y``, and
    ``0 < z < inf``.  Immutable; equality is exact."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        # Plain comparisons, each false for NaN: cheaper than math.isfinite
        # calls, and verify builds ~23k points.
        if not (-_INF < self.x < _INF and -_INF < self.y < _INF):
            raise ParameterError(f"coordinates must be finite, got x={self.x!r}, y={self.y!r}")
        if not 0.0 < self.z < _INF:
            raise ParameterError(f"height must be positive and finite, got z={self.z!r}")


@dataclass(frozen=True, slots=True)
class SemidirectPoint:
    """A point of the semidirect-product presentation ``(x, y, w)``."""

    x: float
    y: float
    w: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.w)):
            raise ParameterError("semidirect coordinates must be finite")


IDENTITY = HalfSpacePoint(0.0, 0.0, 1.0)


def lie_product(p: HalfSpacePoint, q: HalfSpacePoint) -> HalfSpacePoint:
    """Group product ``p * q``; the height slot multiplies, so closure holds."""
    return HalfSpacePoint(p.z * q.x + p.x, p.z * q.y + p.y, p.z * q.z)


def lie_inverse(p: HalfSpacePoint) -> HalfSpacePoint:
    """Group inverse ``(-x/z, -y/z, 1/z)``."""
    return HalfSpacePoint(-p.x / p.z, -p.y / p.z, 1.0 / p.z)


def semidirect_product(p: SemidirectPoint, q: SemidirectPoint) -> SemidirectPoint:
    """Product of the semidirect presentation:
    ``(x1 + e^{w1} x2, y1 + e^{w1} y2, w1 + w2)``."""
    s = math.exp(p.w)
    return SemidirectPoint(p.x + s * q.x, p.y + s * q.y, p.w + q.w)


def semidirect_to_halfspace(p: SemidirectPoint) -> HalfSpacePoint:
    """The group isomorphism ``(x, y, w) -> (x, y, e^w)``.

    Raises
    ------
    OverflowError
        If ``e^w`` overflows the float range.
    """
    return HalfSpacePoint(p.x, p.y, math.exp(p.w))


def rotation_matrix(theta: float) -> np.ndarray:
    """3x3 matrix of the rotation by ``theta`` about the vertical axis."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_about_vertical(theta: float, p: HalfSpacePoint) -> HalfSpacePoint:
    """Rotate ``p`` about the vertical axis through the identity.

    This map is both a group automorphism and an isometry of the rescaled
    metric: it is linear on the horizontal slots and fixes the height.
    """
    c, s = math.cos(theta), math.sin(theta)
    return HalfSpacePoint(c * p.x - s * p.y, s * p.x + c * p.y, p.z)
