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

A point is a ``(..., 3)`` array of coordinate slots, as a jet slot is:
``(3,)`` for one point, ``(n, 3)`` for ``n`` of them.  Every operation
checks the points it receives and returns, acts elementwise with numpy's
broadcasting, and returns a fresh read-only array; a result that
overflows, an ``e^w`` of the chart too, fails that check and is refused
with :class:`ParameterError`.  :func:`_mul` states
the product once; :func:`lie_product` is it between point checks, and
:mod:`solsurf.surface_jets` forms every jet's points and its ``Xs`` and
``Xss`` slots with it.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

__all__ = [
    "IDENTITY",
    "lie_product",
    "lie_inverse",
    "semidirect_product",
    "semidirect_to_halfspace",
    "rotation_about_vertical",
]

_INF = math.inf

# The horizontal projection P(v) = (v1, v2, 0), as a factor.
_HORIZONTAL = np.array([1.0, 1.0, 0.0])


def _mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The product ``p * q = p3*q + P(p)``, unchecked, as a fresh array of
    the inputs' result type; it is linear in ``p``.

    ``P(p)`` is added to ``p3*q`` in place one component at a time (on a
    grid each add runs along ``t``), with the bits of the broadcast sum: the
    height adds ``p3*0.0``, which turns an infinite ``p3`` into NaN.
    """
    pq = p[..., 2:] * q
    h = p * _HORIZONTAL
    for k in range(3):
        pq[..., k] += h[..., k]
    return pq


def _require(ok, message: str, **values) -> None:
    """Raise :class:`ParameterError` unless ``ok`` holds everywhere; the
    message names the values where it first fails (and, on arrays, where)."""
    ok = np.asarray(ok)
    if ok.all():
        return
    at = tuple(map(int, np.unravel_index(np.argmin(ok), ok.shape)))
    got = ", ".join(f"{k}={float(np.asarray(v)[at])!r}" for k, v in values.items())
    raise ParameterError(f"{message}, got {got}" + (f" at index {at}" if at else ""))


def _slots(p) -> np.ndarray:
    """``p`` as a float array of ``(..., 3)`` coordinate slots."""
    a = np.asarray(p, dtype=float)
    if a.shape[-1:] != (3,):
        raise ParameterError(f"a point must be a (..., 3) array, got shape {a.shape}")
    return a


def _point(p) -> np.ndarray:
    """``p`` checked as half-space points: finite ``x`` and ``y``, and
    ``0 < z < inf``, at every element."""
    a = _slots(p)
    x, y, z = a[..., 0], a[..., 1], a[..., 2]
    # abs(v) < inf is false for NaN too.
    _require((np.abs(x) < _INF) & (np.abs(y) < _INF), "coordinates must be finite", x=x, y=y)
    _require((z > 0.0) & (z < _INF), "height must be positive and finite", z=z)
    return a


def _semidirect(p) -> np.ndarray:
    """``p`` checked as points ``(x, y, w)`` of the semidirect presentation,
    finite in every slot."""
    a = _slots(p)
    _require((np.abs(a) < _INF).all(axis=-1), "semidirect coordinates must be finite",
             x=a[..., 0], y=a[..., 1], w=a[..., 2])
    return a


def _stack(*comps) -> np.ndarray:
    """``(..., 3)`` slots from three components that broadcast together."""
    return np.stack(np.broadcast_arrays(*comps), axis=-1)


def _result(check, a: np.ndarray) -> np.ndarray:
    """A fresh array of points, checked by ``check`` and made read-only."""
    a = check(a)
    a.setflags(write=False)
    return a


IDENTITY = _result(_point, np.array([0.0, 0.0, 1.0]))


# The one non-finite policy, of these operations and of the jet kernels: no
# numpy warning.  Only a decorator, on no function that calls a _quiet one.
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@_quiet
def lie_product(p, q) -> np.ndarray:
    """Group product ``p * q``; the height slot multiplies, so closure holds."""
    return _result(_point, _mul(_point(p), _point(q)))


@_quiet
def lie_inverse(p) -> np.ndarray:
    """Group inverse ``(-x/z, -y/z, 1/z)``."""
    p = _point(p)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return _result(_point, _stack(-x / z, -y / z, 1.0 / z))


@_quiet
def semidirect_product(p, q) -> np.ndarray:
    """Product of the semidirect presentation:
    ``(x1 + e^{w1} x2, y1 + e^{w1} y2, w1 + w2)``."""
    p, q = _semidirect(p), _semidirect(q)
    s = np.exp(p[..., 2])
    return _result(_semidirect, _stack(p[..., 0] + s * q[..., 0], p[..., 1] + s * q[..., 1],
                                       p[..., 2] + q[..., 2]))


@_quiet
def semidirect_to_halfspace(p) -> np.ndarray:
    """The group isomorphism ``(x, y, w) -> (x, y, e^w)``."""
    p = _semidirect(p)
    return _result(_point, _stack(p[..., 0], p[..., 1], np.exp(p[..., 2])))


@_quiet
def rotation_about_vertical(theta, p) -> np.ndarray:
    """Rotate ``p`` about the vertical axis through the identity.

    This map is both a group automorphism and an isometry of the rescaled
    metric: it is linear on the horizontal slots and fixes the height.
    """
    p = _point(p)
    x, y = p[..., 0], p[..., 1]
    c, s = np.cos(theta), np.sin(theta)
    return _result(_point, _stack(c * x - s * y, s * x + c * y, p[..., 2]))
