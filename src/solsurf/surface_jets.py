"""Second-order jets of translation surfaces and their curvature data.

A translation surface is swept as the group product ``X(s, t) = alpha(s) * beta(t)``
of two curves in the upper half-space, by the law of :mod:`solsurf.lie_halfspace`,
whose points are jet slots.  Everything downstream (fundamental
forms, mean curvature, soliton residuals) consumes the second-order jet of
``X`` at a point: the position together with ``Xs, Xt, Xss, Xst, Xtt``.

Jet slots are ``(..., 3)`` arrays, and a jet is one array of its slots,
order first: a curve jet ``a, a1, a2 = alpha`` (value, d1, d2) is
``(3, ..., 3)``, and a surface jet ``X, Xs, Xt, Xss, Xst, Xtt = j`` is a
read-only ``(6, ..., 3)``, ``(6, 3)`` at one point.  Curve jets broadcast
like numpy arrays: ``(3, n, 3)`` curve jets give ``n`` surface points, and
a ``(3, ns, 1, 3)`` alpha with a ``(3, nt, 3)`` beta gives the
``(6, ns, nt, 3)`` jet of the whole grid.  A scalar jet, the value, d1 and
d2 of one component such as a profile, is any ``(value, d1, d2)`` triple
whose entries broadcast: a tuple at a point, a ``(3, n)`` array on a grid
axis; three of them, stacked, are a curve jet.  Every function that reads
a jet works component-wise, so a grid and a single point go through the
same expressions.

:func:`product_surface_jet` is the one builder: slot ``X`` is
:func:`_positions` and the five derivative slots ``Xs, Xt, Xss, Xst, Xtt`` are
:func:`_derivatives`, the only slots the normal and the mean curvature read,
so a sweep forms its points and its curvature apart and never builds a surface
jet.  :func:`_positions` is the one statement of the half-space for every
point the program forms, a sweep's, a mesh's and a single jet's: a point whose
alpha height or own height is not > 0 is NaN, never an exception.  Neither the
kernels nor the builder cast to float, so ``mpmath`` numbers and intervals run
the same statements (the tests' references), and none warns: they run under
``lie_halfspace._quiet``, the one non-finite policy.  The factor curves are
built here alone, each from an abscissa and a scalar jet, and both canonical
shapes are products of a horospherical ``alpha(s) = (s, f(s), 1)``
(:func:`_horospherical`) and a vertical ``beta(t)``:

* first kind:  ``X(s, t) = (s, t + f(s), g(t))``, ``beta(t) = (0, t, g(t))``
  with ``g > 0`` (:func:`_graph`);
* second kind: ``X(s, t) = (s, f(s), t)``, ``beta(t) = (0, 0, t)`` with
  ``t > 0`` (:func:`_rising`).

``surface_factory`` feeds a family's jet functions to the same constructors.

Mean curvature uses the letter convention ``l = <Xss, N>``, ``m = <Xtt, N>``,
``n = <Xst, N>``, so

    H = (l*G - 2*n*F + E*m) / (2*|Xs x Xt|^2),

one expression in :func:`_curvature`, where ``|Xs x Xt|^2 = E*G - F^2``
(Lagrange's identity) is a sum of squares that does not cancel at steep
shear.  The mean curvature of the rescaled (hyperbolic) metric is
``X3*H + N3``, which is ``residual("minimal", j)`` in
:mod:`solsurf.soliton_residuals`.  The immersion test lives in the normal,
which forms ``Xs x Xt`` and its square once: where ``|Xs x Xt| <= 1e-300``
(collapsed) or its square overflows, the normal, ``H`` and every residual
are NaN, so a sweep fails that node like any other non-finite one.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError
from .lie_halfspace import _mul, _quiet, _stack

__all__ = [
    "first_kind_jet",
    "second_kind_jet",
    "product_surface_jet",
    "unit_normal",
    "mean_curvature",
    "finite_difference_jet",
]

# |Xs x Xt| at or below this is a collapsed (non-immersed) jet, whose normal is NaN.
_DEGENERACY_THRESHOLD = 1e-300


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


def _normal(d: np.ndarray):
    """Components of the unit normal ``Xs x Xt / |Xs x Xt|`` and ``|Xs x Xt|^2``
    from a jet's derivative slots ``d = j[1:]``; NaN components unless
    ``_DEGENERACY_THRESHOLD < |Xs x Xt| < inf`` (``/ inf`` would read 0).
    The square sums ``|ck|*|ck|`` (``ck*ck``'s bits), so an interval that
    straddles 0 squares to no negative value, and the ufunc comparisons read
    an undecided interval comparison as false: a box that may be collapsed
    reads ``[-inf, +inf]`` in its normal and every residual, undecided."""
    c = _cross(_xyz(d[0]), _xyz(d[1]))
    m = tuple(map(abs, c))
    cc = _dot(m, m)
    w = np.power(cc, 0.5)
    w = np.where(np.greater(w, _DEGENERACY_THRESHOLD) & np.less(w, np.inf), w, np.nan)[()]
    return tuple(ck / w for ck in c), cc


def _require_triples(jets) -> None:
    """Refuse any scalar jet in ``jets`` that is not a ``(value, d1, d2)`` triple."""
    for jet in jets:
        if len(jet) != 3:
            raise ParameterError(f"a scalar jet is (value, d1, d2), got {len(jet)} entries")


def _curve(x, y, z) -> np.ndarray:
    """The curve jet ``(x, y, z)`` from the scalar jets of its components,
    each a ``(value, d1, d2)`` triple whose entries broadcast: a fresh
    ``(3, ..., 3)`` array of their result type, float64 at least, whose
    slots are ``c[0]``, ``c[1]`` and ``c[2]``.  Other lengths are refused."""
    _require_triples((x, y, z))
    c = np.broadcast_arrays(*map(_stack, x, y, z))
    return np.array(c, dtype=np.result_type(*c, np.float64))


def _vertical(y, z) -> np.ndarray:
    """Curve constrained to the vertical slice x = 0: ``(0, y(t), z(t))``;
    its height ``z``, a surface's profile, must be positive."""
    if not (np.asarray(z[0]) > 0.0).all():  # NaN fails
        m = np.min(z[0])  # an mpmath number, an interval too, is shown as itself
        raise DomainError(f"profile value must be positive, "
                          f"got {float(m) if isinstance(m, np.number) else m!r}")
    return _curve((0.0, 0.0, 0.0), y, z)


def _horospherical(s, fj) -> np.ndarray:
    """``alpha(s) = (s, f(s), 1)`` from the scalar jet ``fj`` of ``f`` at ``s``."""
    return _curve((s, 1.0, 0.0), fj, (1.0, 0.0, 0.0))


def _graph(t, gj) -> np.ndarray:
    """``beta(t) = (0, t, g(t))`` from the jet ``gj`` of the height ``g > 0`` at ``t``."""
    return _vertical((t, 1.0, 0.0), gj)


def _rising(t) -> np.ndarray:
    """``beta(t) = (0, 0, t)``, the vertical line of the second kind, on ``t > 0``."""
    return _vertical((0.0, 0.0, 0.0), (t, 1.0, 0.0))


@_quiet
def _positions(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Slot ``X = alpha * beta`` of :func:`product_surface_jet` from the value
    slots of its curve jets, a fresh array: the one statement of which
    points lie in the half-space.  A point lies there when alpha's height
    and its own are > 0, which makes beta's > 0 too.  Any other point
    is NaN in all three components: a height that underflows to 0 is one,
    and so is an infinite alpha height, whose product height is NaN.
    Nothing is raised, so a sweep fails such a node, a mesh refuses it and
    a single jet's residuals there are NaN."""
    X = _mul(a, b)
    X[~((a[..., 2] > 0.0) & (X[..., 2] > 0.0))] = np.nan
    return X


def first_kind_jet(fj, gj, s, t) -> np.ndarray:
    """Jet of ``X(s, t) = (s, t + f(s), g(t))``; requires ``g(t) > 0``.

    ``fj`` and ``gj`` are the ``(value, d1, d2)`` jets of ``f`` at ``s`` and
    of ``g`` at ``t``.  Arguments broadcast like numpy arrays: scalars give
    a ``(6, 3)`` jet, ``n``-vectors ``(6, n, 3)``, and an ``(ns, 1)`` s side
    with an ``(nt,)`` t side the ``(6, ns, nt, 3)`` grid.
    """
    return product_surface_jet(_horospherical(s, fj), _graph(t, gj))


def second_kind_jet(fj, s, t) -> np.ndarray:
    """Jet of ``X(s, t) = (s, f(s), t)`` on the half ``t > 0``; arguments
    broadcast as in :func:`first_kind_jet`."""
    return product_surface_jet(_horospherical(s, fj), _rising(t))


def product_surface_jet(aj: np.ndarray, bj: np.ndarray) -> np.ndarray:
    """Jet of the swept surface ``X(s, t) = alpha(s) * beta(t)``.

    ``aj`` and ``bj`` are curve jets: ``(3, ..., 3)`` arrays whose value, d1
    and d2 slots ``alpha, alpha', alpha''`` (and ``beta, beta', beta''``)
    come first.  Slot ``X`` is :func:`_positions` and the five derivative
    slots are :func:`_derivatives`, joined into one fresh ``(6, ..., 3)``
    array, the jet, of the curve jets' result type and float64 at least
    (``mpmath`` numbers stay objects).  The curve slots broadcast against
    each other, so ``(3, n, 3)`` curve jets give ``n`` points and
    ``(3, ns, 1, 3)`` times ``(3, nt, 3)`` the grid.  A point off the
    half-space is NaN in slot ``X`` alone: the derivative slots are formed
    as anywhere else, so its mean curvature, which reads no point, stays
    the Euclidean one, and every residual there, which reads ``X``, is NaN.
    """
    aj, bj = np.asarray(aj), np.asarray(bj)
    aj, bj = (v.astype(np.result_type(aj, bj, np.float64), copy=False) for v in (aj, bj))
    j = np.stack((_positions(aj[0], bj[0]), *_derivatives(aj, bj)))
    j.setflags(write=False)
    return j


@_quiet
def _derivatives(aj: np.ndarray, bj: np.ndarray):
    """The five derivative slots ``Xs, Xt, Xss, Xst, Xtt`` of
    :func:`product_surface_jet`, a tuple of fresh ``(..., 3)`` arrays of
    the curve jets' result type, the only slots the normal and the
    curvature read.  With ``P`` the horizontal projection ``(v1, v2, 0)``
    and ``a3`` the height slot of ``alpha``:

        Xs  = a3'*beta  + P(alpha')     Xt  = a3*beta'
        Xss = a3''*beta + P(alpha'')    Xst = a3'*beta'
        Xtt = a3*beta''

    The group law ``p * q = p3*q + P(p)`` is linear in ``p``, so ``Xs`` and
    ``Xss``, like ``X``, are that law, :func:`solsurf.lie_halfspace._mul`,
    with ``alpha'`` and ``alpha''`` as ``p`` and ``beta`` as ``q``.  No
    height is read here: the half-space is :func:`_positions`'s.
    """
    a, a1, a2 = aj
    b, b1, b2 = bj
    a3, a3_1 = a[..., 2:], a1[..., 2:]
    return _mul(a1, b), a3 * b1, _mul(a2, b), a3_1 * b1, a3 * b2


@_quiet
def unit_normal(j: np.ndarray) -> np.ndarray:
    """Unit normal ``Xs x Xt / |Xs x Xt|``, with the jet's ``(..., 3)`` shape;
    NaN at a collapsed point and where ``|Xs x Xt|^2`` overflows."""
    return _stack(*_normal(j[1:])[0])


def mean_curvature(j: np.ndarray):
    """Euclidean mean curvature ``(l*G - 2*n*F + E*m) / (2*|Xs x Xt|^2)``,
    with ``l, m, n`` the second fundamental form on ``Xss, Xtt, Xst``; NaN
    where the normal is."""
    return _curvature(j[1:])[0]


@_quiet
def _curvature(d: np.ndarray):
    """Mean curvature and the components of the unit normal it was formed
    with, from the five derivative slots ``Xs, Xt, Xss, Xst, Xtt = d`` of a
    jet, ``j[1:]``: no point is read.  One cross product serves
    :func:`mean_curvature` and the soliton residuals, which read both.
    The denominator ``2*|Xs x Xt|^2`` is the normal's: ``E*G - F^2`` is
    never formed."""
    N, cc = _normal(d)
    xs, xt, xss, xst, xtt = map(_xyz, d)
    E, F, G = _dot(xs, xs), _dot(xs, xt), _dot(xt, xt)
    l, m, n = _dot(xss, N), _dot(xtt, N), _dot(xst, N)
    return (l * G - 2.0 * n * F + E * m) / (2.0 * cc), N


def finite_difference_jet(
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray],
    s,
    t,
    h,
) -> np.ndarray:
    """Second-order central-difference jet of a position-only surface map.

    ``s``, ``t`` and the step ``h`` broadcast like numpy arrays to a
    ``shape``, and the jet is ``(6, *shape, 3)``: scalars give one point's
    ``(6, 3)`` jet, and an ``(n, 1)`` ``s`` and ``t`` with ``(m,)`` steps
    give ``n`` points at ``m`` steps each.  ``evaluator(s, t)`` takes two
    1-D arrays of ``k`` points and returns their ``(k, 3)`` positions, as
    ``SurfaceFamily.position`` does.  Every jet, a single point's too, costs
    one evaluator call, on the ``9*k`` points of every stencil offset (the
    broadcast points, flattened, offset by offset).
    The stencil uses the four axis neighbours at distance ``h`` plus the
    four corners (for ``Xst``); all probed points must stay in the domain,
    otherwise a ``DomainError`` is raised.  Truncation error is O(h^2) per
    slot, and each point's jet has the bits of its own call.
    """
    if not np.all(np.greater(h, 0.0)):
        raise ParameterError(f"step must be positive, got {float(np.min(h))!r}")
    shape = np.broadcast_shapes(np.shape(s), np.shape(t), np.shape(h))
    s, t, h = (np.broadcast_to(v, shape).ravel() for v in (s, t, h))
    ss, tt = (np.concatenate(v) for v in zip(
        (s, t), (s + h, t), (s - h, t), (s, t + h), (s, t - h),
        (s + h, t + h), (s + h, t - h), (s - h, t + h), (s - h, t - h)))
    try:
        p = np.asarray(evaluator(ss, tt), dtype=float)
    except ParameterError:  # a malformed surface, not a point off its domain
        raise
    except (DomainError, ArithmeticError, ValueError) as exc:
        raise DomainError(
            f"a stencil point in s [{float(np.min(ss))!r}, {float(np.max(ss))!r}], "
            f"t [{float(np.min(tt))!r}, {float(np.max(tt))!r}] left the surface domain"
        ) from exc
    if p.shape != ss.shape + (3,):
        raise ParameterError(f"evaluator must return {ss.shape + (3,)} positions, got shape {p.shape}")
    up = p[:, 2] > 0.0
    if not up.all():
        k = int(np.argmin(up))
        raise DomainError(f"stencil point (s={float(ss[k])!r}, t={float(tt[k])!r}) is off "
                          f"the half-space: height {float(p[k, 2])!r}")
    X, Xe, Xw, Xn, Xo, Xen, Xeo, Xwn, Xwo = np.split(p, 9)
    h = h[:, None]  # a column against (k, 3) positions
    j = np.stack([
        X,
        (Xe - Xw) / (2.0 * h),
        (Xn - Xo) / (2.0 * h),
        (Xe - 2.0 * X + Xw) / (h * h),
        (Xen - Xeo - Xwn + Xwo) / (4.0 * h * h),
        (Xn - 2.0 * X + Xo) / (h * h),
    ])
    j = j.reshape((6,) + shape + (3,))
    j.setflags(write=False)
    return j
