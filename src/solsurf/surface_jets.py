"""Second-order jets of translation surfaces and their curvature data.

A translation surface is swept as the group product ``X(s, t) = alpha(s) * beta(t)``
of two curves in the upper half-space, by the law of :mod:`solsurf.lie_halfspace`,
whose points are jet slots.  Everything downstream (fundamental
forms, mean curvature, soliton residuals) consumes the second-order jet of
``X`` at a point: the position together with ``Xs, Xt, Xss, Xst, Xtt``.

Jet slots are ``(..., 3)`` arrays.  A single point has ``(3,)`` slots.  A
curve jet is one ``(3, ..., 3)`` array of its value, d1 and d2 slots, order
first, so ``a, a1, a2 = alpha`` are whole slots.  Curve jets broadcast like
numpy arrays: ``(3, n, 3)`` curve jets give ``n`` surface points, and a
``(3, ns, 1, 3)`` alpha with a ``(3, nt, 3)`` beta gives the jet on the
whole ``(ns, nt)`` grid.  A scalar jet, the value, d1 and d2 of one
component such as a profile, is any ``(value, d1, d2)`` triple whose
entries broadcast: a tuple at a point, a ``(3, n)`` array on a grid axis;
three of them, stacked, are a curve jet.  Every function that reads a jet
works component-wise, so a grid and a single point go through the same
expressions.

:func:`product_surface_jet` is the one builder.  Both canonical shapes are
products of a horospherical ``alpha(s) = (s, f(s), 1)`` and a vertical
``beta(t)``:

* first kind:  ``X(s, t) = (s, t + f(s), g(t))``, ``beta(t) = (0, t, g(t))``
  with ``g > 0``;
* second kind: ``X(s, t) = (s, f(s), t)``, ``beta(t) = (0, 0, t)`` with
  ``t > 0``.

Mean curvature uses the letter convention ``l = <Xss, N>``, ``m = <Xtt, N>``,
``n = <Xst, N>``, so

    H = (l*G - 2*n*F + E*m) / (2*(E*G - F^2)).

The mean curvature of the rescaled (hyperbolic) metric is ``X3*H + N3``,
which is ``residual("minimal", j)`` in :mod:`solsurf.soliton_residuals`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateJetError, DomainError, ParameterError
from .lie_halfspace import _mul, _stack

__all__ = [
    "SurfaceJet2",
    "first_kind_jet",
    "second_kind_jet",
    "product_surface_jet",
    "unit_normal",
    "mean_curvature",
    "finite_difference_jet",
]

# |Xs x Xt| at or below this is treated as a collapsed (non-immersed) jet.
_DEGENERACY_THRESHOLD = 1e-300

_SLOTS = ("X", "Xs", "Xt", "Xss", "Xst", "Xtt")


def _require_positive(v, message: str) -> None:
    """Raise :class:`DomainError` unless every element of ``v`` is > 0 (NaN
    fails); ``message`` is formatted with the smallest element."""
    if not (np.asarray(v) > 0.0).all():
        raise DomainError(message.format(float(np.min(v))))


def _xyz(v: np.ndarray):
    """The three components of ``(..., 3)`` slots (``[()]`` turns the 0-d
    components of a single point into numpy scalars, which compute faster)."""
    return v[..., 0][()], v[..., 1][()], v[..., 2][()]


def _dot(a, b):
    """``a0*b0 + a1*b1 + a2*b2`` over component triples."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    """Cross product of component triples, as a component triple."""
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


def _normal(j: "SurfaceJet2"):
    """Components of the unit normal ``Xs x Xt / |Xs x Xt|``."""
    c = _cross(_xyz(j.Xs), _xyz(j.Xt))
    w = np.sqrt(_dot(c, c))
    return tuple(ck / w for ck in c)


def _curve(x, y, z) -> np.ndarray:
    """The curve jet ``(x, y, z)`` from the scalar jets of its components,
    each a ``(value, d1, d2)`` triple whose entries broadcast: a fresh
    ``(3, ..., 3)`` float array whose value, d1 and d2 slots are ``c[0]``,
    ``c[1]`` and ``c[2]``.  A scalar jet of any other length is refused."""
    for jet in (x, y, z):
        if len(jet) != 3:
            raise ParameterError(f"a scalar jet is (value, d1, d2), got {len(jet)} entries")
    return np.array(np.broadcast_arrays(*map(_stack, x, y, z)), dtype=float)


def _horospherical(x, y) -> np.ndarray:
    """Curve constrained to the unit-height slice: ``(x(s), y(s), 1)``."""
    return _curve(x, y, (1.0, 0.0, 0.0))


def _vertical(y, z) -> np.ndarray:
    """Curve constrained to the vertical slice x = 0: ``(0, y(t), z(t))``;
    its height ``z``, a surface's profile, must be positive."""
    _require_positive(z[0], "profile value must be positive, got {!r}")
    return _curve((0.0, 0.0, 0.0), y, z)


@dataclass(frozen=True)
class SurfaceJet2:
    """Second-order jet of a parametrized surface at one point (``(3,)``
    slots) or at every point of a grid (``(..., 3)`` slots of one shape).

    Construction rejects points at or below the boundary (``X[..., 2] <= 0``)
    and collapsed jets (``|Xs x Xt| <= _DEGENERACY_THRESHOLD``) anywhere in
    the jet.  Arrays are read-only once stored.
    """

    X: np.ndarray
    Xs: np.ndarray
    Xt: np.ndarray
    Xss: np.ndarray
    Xst: np.ndarray
    Xtt: np.ndarray

    def __post_init__(self) -> None:
        # each slot is stored as a read-only float copy, so a caller's array
        # can change without changing the jet
        for name in _SLOTS:
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        self._check()

    @classmethod
    def _adopt(cls, slots: dict) -> "SurfaceJet2":
        """The jet of ``slots``, fresh float arrays that no caller holds,
        stored without a copy once marked read-only: the path by which
        :func:`product_surface_jet` hands over the slots it computed."""
        j = object.__new__(cls)
        for name in _SLOTS:
            a = slots[name]
            a.setflags(write=False)
            object.__setattr__(j, name, a)
        j._check()
        return j

    def _check(self) -> None:
        shape = self.X.shape
        for name in _SLOTS:
            a = getattr(self, name)
            if a.shape[-1:] != (3,) or a.shape != shape:
                raise ParameterError(f"{name} must be (..., 3) like every slot, got {a.shape}")
        _require_positive(self.X[..., 2], "surface point has non-positive height {!r}")
        c = _cross(_xyz(self.Xs), _xyz(self.Xt))
        if not (np.sqrt(_dot(c, c)) > _DEGENERACY_THRESHOLD).all():
            raise DegenerateJetError("jet is not an immersion: |Xs x Xt| ~ 0")


def first_kind_jet(fj, gj, s, t) -> SurfaceJet2:
    """Jet of ``X(s, t) = (s, t + f(s), g(t))``; requires ``g(t) > 0``.

    The product of ``alpha = (s, f(s), 1)`` and ``beta = (0, t, g(t))``;
    ``fj`` and ``gj`` are the ``(value, d1, d2)`` jets of ``f`` at ``s`` and
    of ``g`` at ``t``.  Arguments broadcast like numpy arrays: scalars give
    ``(3,)`` slots, ``n``-vectors ``(n, 3)``, and an ``(ns, 1)`` s side with
    an ``(nt,)`` t side the ``(ns, nt, 3)`` grid.
    """
    return product_surface_jet(
        _horospherical((s, 1.0, 0.0), fj),
        _vertical((t, 1.0, 0.0), gj),
    )


def second_kind_jet(fj, s, t) -> SurfaceJet2:
    """Jet of ``X(s, t) = (s, f(s), t)`` on the half ``t > 0``: the product
    of ``alpha = (s, f(s), 1)`` and ``beta = (0, 0, t)``.  Arguments
    broadcast as in :func:`first_kind_jet`."""
    return product_surface_jet(
        _horospherical((s, 1.0, 0.0), fj),
        _vertical((0.0, 0.0, 0.0), (t, 1.0, 0.0)),
    )


def product_surface_jet(aj: np.ndarray, bj: np.ndarray) -> SurfaceJet2:
    """Jet of the swept surface ``X(s, t) = alpha(s) * beta(t)``.

    ``aj`` and ``bj`` are curve jets: ``(3, ..., 3)`` arrays whose value,
    d1 and d2 slots ``alpha, alpha', alpha''`` (and ``beta, beta',
    beta''``) come first.  With ``P`` the horizontal projection
    ``(v1, v2, 0)`` and ``a3`` the height slot of ``alpha``:

        X   = a3*beta   + P(alpha)      Xs  = a3'*beta  + P(alpha')
        Xt  = a3*beta'                  Xss = a3''*beta + P(alpha'')
        Xst = a3'*beta'                 Xtt = a3*beta''

    The group law ``p * q = p3*q + P(p)`` is linear in ``p``, so ``X``,
    ``Xs`` and ``Xss`` are that law, :func:`solsurf.lie_halfspace._mul`,
    with ``alpha``, ``alpha'`` and ``alpha''`` as ``p`` and ``beta`` as
    ``q``.  The curve slots broadcast against each other, so ``(3, n, 3)``
    curve jets give ``n`` points and ``(3, ns, 1, 3)`` times ``(3, nt, 3)``
    the grid.  Both curve heights must be positive.  The slots are fresh
    arrays that only the jet holds, so it stores them without a copy.
    """
    a, a1, a2 = aj
    b, b1, b2 = bj
    a3, a3_1 = a[..., 2:], a1[..., 2:]
    _require_positive(a3, "alpha height must be positive, got {!r}")
    _require_positive(b[..., 2], "beta height must be positive, got {!r}")
    slots = dict(
        X=_mul(a, b),
        Xs=_mul(a1, b),
        Xt=a3 * b1,
        Xss=_mul(a2, b),
        Xst=a3_1 * b1,
        Xtt=a3 * b2,
    )
    return SurfaceJet2._adopt(slots)


def unit_normal(j: SurfaceJet2) -> np.ndarray:
    """Unit normal ``Xs x Xt / |Xs x Xt|``, with the jet's ``(..., 3)`` shape."""
    return _stack(*_normal(j))


def mean_curvature(j: SurfaceJet2):
    """Euclidean mean curvature ``(l*G - 2*n*F + E*m) / (2*(E*G - F^2))``,
    with ``l, m, n`` the second fundamental form on ``Xss, Xtt, Xst``."""
    return _curvature(j)[0]


def _curvature(j: SurfaceJet2):
    """Mean curvature and the components of the unit normal it was formed
    with: one cross product serves :func:`mean_curvature` and the soliton
    residuals, which read both.

    The quotient is formed one operation at a time in the arrays of ``E``,
    ``F``, ``G``, ``l``, ``m`` and ``n``, with the bits of the expression,
    so the normal outlives it at no cost to the peak memory."""
    N = _normal(j)
    xs, xt = _xyz(j.Xs), _xyz(j.Xt)
    E, F, G = _dot(xs, xs), _dot(xs, xt), _dot(xt, xt)
    l, m, n = _dot(_xyz(j.Xss), N), _dot(_xyz(j.Xtt), N), _dot(_xyz(j.Xst), N)
    l *= G  # numerator l*G - (2*n)*F + E*m, left to right
    n *= 2.0
    n *= F
    l -= n
    m *= E
    l += m
    E *= G  # denominator 2*(E*G - F*F)
    F *= F
    E -= F
    E *= 2.0
    l /= E
    return l, N


def _stencil_points(ss, tt) -> str:
    """The probed point, or the extent of a batch of them, for a message."""
    if np.ndim(ss) == 0:
        return f"stencil point (s={float(ss)!r}, t={float(tt)!r})"
    return (f"a stencil point in s [{float(np.min(ss))!r}, {float(np.max(ss))!r}], "
            f"t [{float(np.min(tt))!r}, {float(np.max(tt))!r}]")


def finite_difference_jet(
    evaluator: Callable[[float, float], np.ndarray],
    s,
    t,
    h,
) -> SurfaceJet2:
    """Second-order central-difference jet of a position-only surface map.

    ``s``, ``t`` and the step ``h`` broadcast like numpy arrays, and the jet
    has their broadcast shape times 3: scalars give one point's jet, and an
    ``(n, 1)`` ``s`` and ``t`` with ``(m,)`` steps give ``n`` points at ``m``
    steps each.  ``evaluator(s, t)`` returns the position: a 3-vector when
    every argument is a scalar, otherwise ``(k, 3)`` positions for two 1-D
    arrays of ``k`` points (the broadcast points, flattened), as
    ``SurfaceFamily.position`` does, so a batch costs nine evaluator calls.
    The stencil uses the four axis neighbours at distance ``h`` plus the
    four corners (for ``Xst``); all probed points must stay in the domain,
    otherwise a ``DomainError`` is raised.  Truncation error is O(h^2) per
    slot, and each point's jet has the bits of its own scalar call.
    """
    if not np.all(np.greater(h, 0.0)):
        raise ParameterError(f"step must be positive, got {float(np.min(h))!r}")
    shape = np.broadcast_shapes(np.shape(s), np.shape(t), np.shape(h))
    if shape:
        s, t, h = (np.broadcast_to(v, shape).ravel() for v in (s, t, h))

    def ev(ss, tt) -> np.ndarray:
        try:
            p = np.asarray(evaluator(ss, tt), dtype=float)
        except (DomainError, ArithmeticError, ValueError) as exc:
            raise DomainError(f"{_stencil_points(ss, tt)} left the surface domain") from exc
        if p.shape != np.shape(ss) + (3,):
            raise ParameterError(
                f"evaluator must return {np.shape(ss) + (3,)} positions, got shape {p.shape}"
            )
        up = p[..., 2] > 0.0
        if not up.all():
            k = int(np.argmin(up))
            raise DomainError(
                f"{_stencil_points(np.ravel(ss)[k], np.ravel(tt)[k])} has non-positive "
                f"height {float(np.ravel(p[..., 2])[k])!r}"
            )
        return p

    X = ev(s, t)
    Xe, Xw = ev(s + h, t), ev(s - h, t)
    Xn, Xo = ev(s, t + h), ev(s, t - h)
    Xen, Xeo = ev(s + h, t + h), ev(s + h, t - h)
    Xwn, Xwo = ev(s - h, t + h), ev(s - h, t - h)
    h = np.reshape(h, np.shape(h) + (1,))  # a column against (k, 3) positions
    slots = dict(
        X=X,
        Xs=(Xe - Xw) / (2.0 * h),
        Xt=(Xn - Xo) / (2.0 * h),
        Xss=(Xe - 2.0 * X + Xw) / (h * h),
        Xst=(Xen - Xeo - Xwn + Xwo) / (4.0 * h * h),
        Xtt=(Xn - 2.0 * X + Xo) / (h * h),
    )
    return SurfaceJet2(**{name: a.reshape(shape + (3,)) for name, a in slots.items()})

