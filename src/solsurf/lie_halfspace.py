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

Points broadcast like the other layers: a point whose coordinates are
arrays holds one point per element, and every operation acts elementwise,
so a batch of samples takes one call per operation.
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
    "rotation_about_vertical",
]

_INF = math.inf


def _coordinates(point, names) -> None:
    """Store the named fields of a frozen point: as they are when every one
    is a scalar, otherwise as read-only float copies broadcast to one shape,
    so a caller's array can change without moving the point."""
    values = [getattr(point, name) for name in names]
    if not any(np.ndim(v) for v in values):
        return
    shape = np.broadcast_shapes(*map(np.shape, values))
    for name, v in zip(names, values):
        a = np.array(np.broadcast_to(v, shape), dtype=float)
        a.setflags(write=False)
        object.__setattr__(point, name, a)


def _require(ok, message: str, **values) -> None:
    """Raise :class:`ParameterError` unless ``ok`` holds everywhere; the
    message names the values where it first fails (and, on arrays, where)."""
    ok = np.asarray(ok)
    if ok.all():
        return
    at = tuple(map(int, np.unravel_index(np.argmin(ok), ok.shape)))
    got = ", ".join(f"{k}={float(np.asarray(v)[at])!r}" for k, v in values.items())
    raise ParameterError(f"{message}, got {got}" + (f" at index {at}" if at else ""))


@dataclass(frozen=True, slots=True)
class HalfSpacePoint:
    """A point of the half-space model: finite ``x`` and ``y``, and
    ``0 < z < inf``; or, when any coordinate is an array, one such point
    per element (the coordinates are then read-only float arrays of one
    shape).  Immutable; equality is exact for scalar points, while ``==``
    on array points raises numpy's ``ValueError`` (compare the coordinate
    arrays instead)."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        _coordinates(self, ("x", "y", "z"))
        x, y, z = self.x, self.y, self.z
        # abs(v) < inf is false for NaN too.
        _require((np.abs(x) < _INF) & (np.abs(y) < _INF), "coordinates must be finite", x=x, y=y)
        _require((z > 0.0) & (z < _INF), "height must be positive and finite", z=z)


@dataclass(frozen=True, slots=True)
class SemidirectPoint:
    """A point of the semidirect-product presentation ``(x, y, w)``, finite
    in every slot; coordinates broadcast as in :class:`HalfSpacePoint`."""

    x: float
    y: float
    w: float

    def __post_init__(self) -> None:
        _coordinates(self, ("x", "y", "w"))
        x, y, w = self.x, self.y, self.w
        _require((np.abs(x) < _INF) & (np.abs(y) < _INF) & (np.abs(w) < _INF),
                 "semidirect coordinates must be finite", x=x, y=y, w=w)


IDENTITY = HalfSpacePoint(0.0, 0.0, 1.0)


def _exp(w):
    """``e^w`` of a float or an array, by numpy's one routine for both;
    raises :class:`OverflowError`, as ``math.exp`` does, where it overflows
    (``w`` is finite, so only an overflow gives inf)."""
    with np.errstate(over="ignore"):
        e = np.exp(w)
    if not np.all(e < _INF):
        raise OverflowError(f"e^w overflows the float range, w up to {float(np.max(w))!r}")
    return e


# Every operation is numpy arithmetic on the coordinates, so points whose
# coordinates are arrays give the points of the elementwise operation, bit
# for bit those of the scalar calls.


def lie_product(p: HalfSpacePoint, q: HalfSpacePoint) -> HalfSpacePoint:
    """Group product ``p * q``; the height slot multiplies, so closure holds."""
    return HalfSpacePoint(p.z * q.x + p.x, p.z * q.y + p.y, p.z * q.z)


def lie_inverse(p: HalfSpacePoint) -> HalfSpacePoint:
    """Group inverse ``(-x/z, -y/z, 1/z)``."""
    return HalfSpacePoint(-p.x / p.z, -p.y / p.z, 1.0 / p.z)


def semidirect_product(p: SemidirectPoint, q: SemidirectPoint) -> SemidirectPoint:
    """Product of the semidirect presentation:
    ``(x1 + e^{w1} x2, y1 + e^{w1} y2, w1 + w2)``.

    Raises
    ------
    OverflowError
        If ``e^{w1}`` overflows the float range.
    """
    s = _exp(p.w)
    return SemidirectPoint(p.x + s * q.x, p.y + s * q.y, p.w + q.w)


def semidirect_to_halfspace(p: SemidirectPoint) -> HalfSpacePoint:
    """The group isomorphism ``(x, y, w) -> (x, y, e^w)``.

    Raises
    ------
    OverflowError
        If ``e^w`` overflows the float range.
    """
    return HalfSpacePoint(p.x, p.y, _exp(p.w))


def rotation_about_vertical(theta: float, p: HalfSpacePoint) -> HalfSpacePoint:
    """Rotate ``p`` about the vertical axis through the identity.

    This map is both a group automorphism and an isometry of the rescaled
    metric: it is linear on the horizontal slots and fixes the height.
    """
    c, s = np.cos(theta), np.sin(theta)
    return HalfSpacePoint(c * p.x - s * p.y, s * p.x + c * p.y, p.z)
