"""Profile-curve integration for the soliton surface families.

Three initial value problems drive the curved families:

* minimal profile:     ``g''*g*(1+c^2) = -2*(g'^2*(1+c^2) + 1)``,
  ``g(0) = y0 > 0``, ``g'(0) = 0``; first integral
  ``g'^2 = m/g^4 - 1/(c^2+1)`` with ``m = y0^4/(c^2+1)``.
* grim reaper:         ``g'' = -g'*(k + g'^2) * 2*v / g^2``,
  ``g(0) = 1``, ``g'(0) = lambda >= 0``; global in ``v``, no conserved
  quantity is available for this family (its defect monitor reports zero).
* conformal profile:   ``g'' + 2*(g+1)/g^2 * g'^2 + 2*(g+1)/(g^2*(1+a^2)) = 0``,
  ``g(0) = y0 > 0``, ``g'(0) = 0``; first integral
  ``g'^2 = C*e^{4/g}/g^4 - 1/(1+a^2)`` with ``C = y0^4*e^{-4/y0}/(1+a^2)``.

The minimal and conformal profiles are even in ``t``, concave, and collapse
(``g -> 0`` with ``|g'| -> inf``) at finite abscissae ``+-r``.  Each is an
exact curve in ``phi``, ``g = y0*sin(phi)`` at ``|t| = integral_phi^{pi/2}
dt_dphi``, whose integrand is smooth from the collapse up to ``g = y0``:
two fixed 40-node Gauss--Legendre panels (:class:`_Panels`) give ``r``,
``|t|`` and the tail ``r - |t|``.  The minimal and conformal cylinders read
the profile that way (:func:`_closed_form`), with ``g'`` and ``g''`` from
``dt_dphi`` and its derivative; they step nothing.

What steps is ``profile --ode`` (all three ODEs), the grim-reaper family
and verify's rows on stepped nodes, which judge the stepper: the
Dormand--Prince 5(4) pair, stepped the way scipy's RK45 steps it but on
Python floats, where scipy's per-step array overhead on a 2-component state
costs several times the arithmetic (:func:`_dopri54`).  Only the right
branch of a collapsing profile is stepped; the left one is its mirror
(:func:`_collapse_solution`).  A branch ends at its last node before a
stop: the step that would take ``g`` down to ``EPS_G = 1e-6`` or ``|g'|`` up
to ``M_STOP = 1e6`` is discarded (the reaper has the height stop alone);
both are fixed numerical policy, not parameters of a profile.  The blow-up
abscissa is the last node's ``t`` plus its tail (:func:`_blowup_tail`), so
it does not depend on where the branch ended.  The grim reaper is not even,
so both of its branches are stepped, on the state ``(g, w)`` with
``g' = lambda*e^w``, where it is not stiff (:func:`integrate_grim_reaper`).

Between nodes a solution is read through one piecewise cubic Hermite
interpolant of ``g`` and ``g'`` (:class:`_Hermite`), built from the nodal
values and the exact nodal slopes and summed in each interval's unit
variable, so it stays finite on node gaps however short.  Every
first-kind profile is read as its jet ``(g, g', g'')`` in one call, the
stepped one's :meth:`ProfileSolution.jet` as the closed form's.  The
interpolant and the quadrature are small numpy and float routines, so
importing this module costs numpy alone.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "MinimalProfileParams",
    "GrimReaperParams",
    "ConformalProfileParams",
    "ProfileSolution",
    "minimal_halfwidth_quadrature",
    "conformal_halfwidth_quadrature",
    "integrate_minimal_profile",
    "integrate_grim_reaper",
    "integrate_conformal_profile",
]

EPS_G = 1e-6             # end a branch before a step takes g down to this
M_STOP = 1e6             # ... or a collapsing one's |g'| up to this
REAPER_SPAN_DEFAULT = (-5.0, 5.0)
# Steps attempted per branch before it ends truncated, like a step that fell
# below its floor.  The largest branch of an untruncated profile in the
# tests, the benchmark and verify takes under 1k (minimal c = 100, 786);
# the reaper's at lam = 0.5 on -1e6:1e6, ~200.  A collapsing branch too
# steep to resolve meets its step floor first: minimal c = 1e4 after 834
# steps (835 nodes on the branch, 1,669 after mirroring).
MAX_BRANCH_STEPS = 1 << 16
# (rtol, atol) of the stepper: the collapsing profiles', and the reaper's,
# which are tighter (see integrate_grim_reaper).
_COLLAPSE_TOL = (1e-10, 1e-12)
_REAPER_TOL = (1e-12, 1e-13)


class _CollapseParams:
    """A collapsing profile's drift slope, the field named by ``_slope``, and
    initial height ``y0``.  Construction refuses them unless the slope is
    finite, ``y0`` finite and positive, and the first-integral constant (the
    property named by ``_constant``) a finite normal float > 0: a ``y0`` far
    from 1 makes it overflow or underflow, and with a subnormal one ``g^4``
    underflows to 0 near the collapse, where the monitor divides by it."""

    def __post_init__(self) -> None:
        if not math.isfinite(self.slope):
            raise ParameterError(f"slope must be finite, got {self.slope!r}")
        if not 0.0 < self.y0 < math.inf:
            raise ParameterError(f"initial height must be positive and finite, got {self.y0!r}")
        try:
            value = getattr(self, self._constant)
        except OverflowError:
            value = math.inf
        if not sys.float_info.min <= value < math.inf:
            raise ParameterError(
                f"first-integral constant {self._constant} = {value!r} is not a finite, "
                f"normal, positive float for y0 = {self.y0!r}"
            )

    @property
    def slope(self) -> float:
        """The drift slope, ``c`` or ``a``."""
        return getattr(self, self._slope)

    @property
    def kinv(self) -> float:
        """``1/(slope^2+1)``."""
        return 1.0 / (self.slope * self.slope + 1.0)

    def gpp(self, t, g, gp):
        """Second derivative from the ODE; valid for scalars or arrays."""
        return self.system()(t, g, gp)[1]


@dataclass(frozen=True)
class MinimalProfileParams(_CollapseParams):
    """Parameters of the minimal profile: the drift slope ``c`` and the
    initial height ``y0``.  The first-integral constant ``m`` is derived from
    them."""

    family = "minimal"
    _slope, _constant = "c", "m"
    c: float = 0.0
    y0: float = 1.0

    @property
    def m(self) -> float:
        """``y0^4/(c^2+1)``, the first-integral constant of the initial conditions."""
        return self.y0 ** 4 / (self.c * self.c + 1.0)

    def system(self):
        """The ODE as a first-order system: ``rhs(t, g, g') = (g', g'')``,
        for scalars or arrays, with ``kinv`` bound once, since the stepper
        calls it six times a step."""
        kinv = self.kinv

        def rhs(t, g, gp):
            return gp, -2.0 * (gp * gp + kinv) / g

        return rhs

    def first_integral_rhs(self, g):
        """``m/g^4 - 1/(c^2+1)``, the value ``g'^2`` must equal."""
        g = np.asarray(g, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            out = self.m / g ** 4 - self.kinv
        return out if out.shape else float(out)

    def dt_dphi(self, phi):
        """``|dt/dphi|`` along a collapsing branch, ``g = y0*sin(phi)``: the
        first integral reads ``g'^2 = k*cos^2(phi)*(1 + sin^2(phi))/sin^4(phi)``
        with ``k = 1/(c^2+1)``, so ``|dt/dphi| = y0*cos(phi)/|g'|`` is
        ``y0*sin^2(phi)/sqrt(k*(1 + sin^2(phi)))``, smooth on [0, pi/2]."""
        s2 = np.sin(phi) ** 2
        return self.y0 * s2 / np.sqrt(self.kinv * (1.0 + s2))

    def dt_dphi_prime(self, phi):
        """``d(dt_dphi)/dphi``: ``y0*sin(phi)*cos(phi)*(2 + sin^2(phi))``
        over ``sqrt(k*(1 + sin^2(phi)))*(1 + sin^2(phi))``."""
        sin = np.sin(phi)
        s2 = sin * sin
        return self.y0 * sin * np.cos(phi) * (2.0 + s2) / (np.sqrt(self.kinv * (1.0 + s2))
                                                           * (1.0 + s2))


@dataclass(frozen=True)
class GrimReaperParams:
    """Parameters of the translator profile: the initial slope ``lam`` and
    the drift constant ``k``.  ``lam^2`` must be finite: the right-hand side
    squares the slope, and with an infinite square no step succeeds."""

    family = "grim_reaper"
    lam: float = 0.5
    k: float = 1.0

    def __post_init__(self) -> None:
        if not (self.lam >= 0.0 and math.isfinite(self.lam * self.lam)):
            raise ParameterError(
                f"initial slope lam must be nonnegative with a finite square, got {self.lam!r}"
            )
        if not 0.0 < self.k < math.inf:
            raise ParameterError(f"k must be positive and finite, got {self.k!r}")

    def gpp(self, v, g, gp):
        return -gp * (self.k + gp * gp) * 2.0 * v / (g * g)


@dataclass(frozen=True)
class ConformalProfileParams(_CollapseParams):
    """Parameters of the conformal profile: the drift slope ``a`` and the
    initial height ``y0``.  The first-integral constant ``C`` is derived from
    them."""

    family = "conformal"
    _slope, _constant = "a", "C"
    a: float = 0.0
    y0: float = 1.0

    @property
    def C(self) -> float:
        """``y0^4*e^{-4/y0}/(1+a^2)``, the first-integral constant of the
        initial conditions."""
        return self.y0 ** 4 * math.exp(-4.0 / self.y0) / (self.a * self.a + 1.0)

    def system(self):
        """The ODE as a first-order system: ``rhs(t, g, g') = (g', g'')``,
        for scalars or arrays, with ``kinv`` bound once."""
        kinv = self.kinv

        def rhs(t, g, gp):
            return gp, -2.0 * (g + 1.0) / (g * g) * (gp * gp + kinv)

        return rhs

    def first_integral_rhs(self, g):
        """``C*e^{4/g}/g^4 - 1/(1+a^2)``; overflows saturate to +inf."""
        g = np.asarray(g, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):
            out = self.C * np.exp(4.0 / g) / g ** 4 - self.kinv
        return out if out.shape else float(out)

    def dt_dphi(self, phi):
        """``|dt/dphi|`` along a collapsing branch, ``g = y0*sin(phi)``.

        The first integral is written so that it does not cancel as
        ``phi -> pi/2``: ``g'^2 = k*expm1(E)`` with ``k = 1/(1+a^2)`` and

            E = 4/g - 4/y0 - 4*log(sin(phi))
              = 4*cos^2(phi)/((1 + sin(phi))*y0*sin(phi)) - 2*log1p(-cos^2(phi)),

        so ``|dt/dphi| = y0*cos(phi)/|g'|`` is evaluated as
        ``y0/sqrt(k*(expm1(E)/cos^2(phi)))``, which tends to
        ``y0/sqrt(k*(4/y0 + 2))`` as ``phi -> pi/2``.  Toward ``phi = 0``,
        ``expm1(E)`` overflows to inf and the value to 0.
        """
        sin, cos2 = np.sin(phi), np.cos(phi) ** 2
        with np.errstate(over="ignore", divide="ignore"):
            return self.y0 / np.sqrt(self.kinv * (np.expm1(self._exponent(sin, cos2)) / cos2))

    def _exponent(self, sin, cos2):
        """``E`` of :meth:`dt_dphi`; +inf at ``phi = 0``."""
        return 4.0 * cos2 / ((1.0 + sin) * self.y0 * sin) - 2.0 * np.log1p(-cos2)

    def dt_dphi_prime(self, phi):
        """``d(dt_dphi)/dphi``.  With ``E`` as in :meth:`dt_dphi`,
        ``dE/dphi = -4*cos(phi)*(1 + y0*sin(phi))/(y0*sin^2(phi))``, so with
        ``D = dt_dphi``

            D' = D*(2*cos(phi)*(1 + y0*sin(phi))/(y0*sin^2(phi)*(1 - e^-E))
                    - sin(phi)/cos(phi)).

        The two terms cancel as ``phi -> pi/2``, where ``D'`` vanishes: its
        absolute error grows like ``D*eps/cos(phi)``, which ``cos(phi)*D'``,
        the product a profile's ``g''`` reads, keeps at ``D*eps``."""
        sin, cos = np.sin(phi), np.cos(phi)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            e = self._exponent(sin, cos * cos)
            return self.dt_dphi(phi) * (
                -2.0 * cos * (1.0 + self.y0 * sin) / (self.y0 * sin * sin * np.expm1(-e))
                - sin / cos)


ProfileParams = Union[MinimalProfileParams, GrimReaperParams, ConformalProfileParams]


def first_integral_defect(p: _CollapseParams, g, gp):
    """Raw conservation defect ``g'^2 - p.first_integral_rhs(g)`` of a
    collapsing profile, at one state or at arrays of states: minimal
    ``m/g^4 - 1/(c^2+1)``, conformal ``C*e^{4/g}/g^4 - 1/(1+a^2)``."""
    return gp * gp - p.first_integral_rhs(g)


class _Hermite:
    """Piecewise cubic Hermite interpolant of several series at once on the
    strictly increasing knots ``x``: ``y`` and the slopes ``dydx`` hold one
    series per row, ``(k, len(x))``, and a call returns ``(k,) + q.shape``.

    A query ``q`` falls in the interval ``x[i] <= q < x[i+1]`` (the last one
    also holds ``x[-1]``), of length ``h``, and each cubic is summed in the
    unit variable ``u = (q - x[i])/h``: with ``d = dydx`` and
    ``dy = y[i+1] - y[i]``,

        y = y[i] + u*(h*d[i] + u*((3*dy - 2*h*d[i] - h*d[i+1])
                                   + u*(h*d[i] + h*d[i+1] - 2*dy))).

    No coefficient divides by ``h``, so each is bounded by the data however
    short the interval, and a query at any knot but the last (``u = 0``)
    reads its value exactly."""

    def __init__(self, x, y, dydx) -> None:
        self.x, self.h = x, np.diff(x)
        dy = np.diff(y)
        hd0, hd1 = self.h * dydx[..., :-1], self.h * dydx[..., 1:]
        self.c = (y[..., :-1], hd0, 3.0 * dy - 2.0 * hd0 - hd1, hd0 + hd1 - 2.0 * dy)

    def __call__(self, q):
        i = np.clip(np.searchsorted(self.x, q, side="right") - 1, 0, len(self.x) - 2)
        u = (q - self.x[i]) / self.h[i]
        c0, c1, c2, c3 = (c[..., i] for c in self.c)
        return c0 + u * (c1 + u * (c2 + u * c3))


@dataclass(frozen=True, eq=False)
class ProfileSolution:
    """An integrated profile: its nodes, strictly increasing in ``t`` with
    ``g > 0`` everywhere and held as read-only copies of the arrays given,
    and whether any branch was truncated before its natural end.  It is
    frozen, so what it derives from them on first read never goes stale.

    Between nodes, :meth:`jet` reads ``g`` and ``g'`` from one cubic
    Hermite interpolant of the two series, with the exact nodal slopes
    ``g'`` and ``g''``, and recomputes ``g''`` from the ODE right-hand side
    at the interpolated state: one domain check and one interval search per
    query array.  ``eval_g``, ``eval_gp`` and ``eval_gpp`` are its three
    parts.  Queries outside the node range raise ``DomainError``.
    """

    params: ProfileParams
    t: np.ndarray
    g: np.ndarray
    gp: np.ndarray
    truncated: bool

    def __post_init__(self) -> None:
        for name in ("t", "g", "gp"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if len(self.t) < 2:
            raise ParameterError("a profile solution needs at least two nodes")
        if not np.all(np.diff(self.t) > 0.0):
            raise ParameterError("profile nodes must be strictly increasing in t")
        if not np.all(self.g > 0.0):
            raise ParameterError("profile nodes must have positive g")

    @functools.cached_property
    def node_defect(self) -> np.ndarray:
        """The read-only conservation monitor at each node: the raw
        :func:`first_integral_defect` over ``max(1, g'^2)``, since near
        blow-up ``g'^2 ~ 1e12`` exceeds what float64 resolves absolutely
        (one ULP of 1e12 is ~2.4e-4); zeros for the reaper, which has no
        conserved quantity."""
        p, gp = self.params, self.gp
        if isinstance(p, _CollapseParams):
            out = first_integral_defect(p, self.g, gp) / np.maximum(1.0, gp * gp)
        else:
            out = np.zeros_like(gp)
        out.setflags(write=False)
        return out

    @functools.cached_property
    def right_blowup_t(self) -> Optional[float]:
        """``t_last + tail(g_last)`` (:func:`_blowup_tail`) of a collapsing
        profile whose branch reached a stop; None when it was truncated, and
        for the reaper, which does not collapse.  Collapsing profiles are
        even, so the left abscissa is its mirror."""
        if self.truncated or not isinstance(self.params, _CollapseParams):
            return None
        return self.t[-1] + _blowup_tail(self.params, self.g[-1])

    @property
    def left_blowup_t(self) -> Optional[float]:
        return None if self.right_blowup_t is None else -self.right_blowup_t

    @property
    def family(self) -> str:
        return self.params.family

    @property
    def conserved_max_defect(self) -> float:
        """``max|node_defect|``: 0 for the reaper, which has no monitor."""
        return float(np.max(np.abs(self.node_defect)))

    def gpp_nodes(self) -> np.ndarray:
        return self.params.gpp(self.t, self.g, self.gp)

    @functools.cached_property
    def _hermite(self) -> _Hermite:
        """The interpolant of the series ``(g, g')``, with slopes ``(g', g'')``,
        built on first use."""
        return _Hermite(self.t, np.stack((self.g, self.gp)), np.stack((self.gp, self.gpp_nodes())))

    def jet(self, t):
        """``(g, g', g'')`` at the abscissae ``t``, from one interpolant call:
        floats for a scalar ``t``, else arrays of its shape.  Raises
        :class:`DomainError` if any abscissa lies outside the nodes (NaN
        does)."""
        q = np.asarray(t, dtype=float)
        if not ((q >= self.t[0]) & (q <= self.t[-1])).all():
            raise DomainError(
                f"query outside the integrated range "
                f"[{float(self.t[0])!r}, {float(self.t[-1])!r}]"
            )
        g, gp = self._hermite(q)
        gpp = self.params.gpp(q, g, gp)
        if not q.shape:
            return float(g), float(gp), float(gpp)
        return g, gp, gpp

    def eval_g(self, t):
        return self.jet(t)[0]

    def eval_gp(self, t):
        return self.jet(t)[1]

    def eval_gpp(self, t):
        return self.jet(t)[2]


_SQRT2 = math.sqrt(2.0)
_EPS = sys.float_info.epsilon


def _rms(a: float, b: float) -> float:
    return math.sqrt(a * a + b * b) / _SQRT2


def _first_step(rhs, ya, yb, fa, fb, t_bound, rtol, atol):
    """scipy's ``select_initial_step`` for a 4th-order error estimator."""
    span, d = abs(t_bound), math.copysign(1.0, t_bound)
    sa, sb = atol + abs(ya) * rtol, atol + abs(yb) * rtol
    d0, d1 = _rms(ya / sa, yb / sb), _rms(fa / sa, fb / sb)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    try:
        ga, gb = rhs(h0 * d, ya + h0 * d * fa, yb + h0 * d * fb)
        d2 = _rms((ga - fa) / sa, (gb - fb) / sb) / h0
    except (ZeroDivisionError, OverflowError):
        d2 = math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


# The 40-point Gauss--Legendre rule on [-1, 1], numpy's ``leggauss(40)`` bit
# for bit: the rule is symmetric, so its 20 positive nodes and their weights,
# in increasing order of node, give the rest.  Held as literals, since
# computing them loads ``numpy.polynomial``.
_GL_X20 = np.array([float.fromhex(h) for h in (
    "0x1.3d9fa7259c6f8p-5", "0x1.db7af8723039bp-4", "0x1.8aa507790bb18p-3",
    "0x1.12967c83d4110p-2", "0x1.5e33b2ee16696p-2", "0x1.a7b5bc5a29ed2p-2",
    "0x1.eeab6c46ecaa8p-2", "0x1.1953c149057cap-1", "0x1.39a0a9d652b8fp-1",
    "0x1.580ab4e17e33ap-1", "0x1.74630eefa6276p-1", "0x1.8e7e140e56770p-1",
    "0x1.a63393069f110p-1", "0x1.bb5f0b43ea03fp-1", "0x1.cddfe5136244ep-1",
    "0x1.dd99a3f1b1943p-1", "0x1.ea7412c59f876p-1", "0x1.f45b6a89bde77p-1",
    "0x1.fb40783501aafp-1", "0x1.ff190359ae7c7p-1")])
_GL_W20 = np.array([float.fromhex(h) for h in (
    "0x1.3d76e07d0145bp-4", "0x1.3b8e1ab8156c6p-4", "0x1.37bf7fb3ffa4cp-4",
    "0x1.3210ebf5b81f0p-4", "0x1.2a8b1efb50a2dp-4", "0x1.2139adc432370p-4",
    "0x1.162af0fc7e7e7p-4", "0x1.096feee7215bdp-4", "0x1.f6388251875f2p-5",
    "0x1.d68bed38b193ep-5", "0x1.b40ae2c10a3e3p-5", "0x1.8eea82a7d68eap-5",
    "0x1.6763f67ce7b64p-5", "0x1.3db419e3c969ep-5", "0x1.121b1d8e9a257p-5",
    "0x1.c9b84cd4f2e1fp-6", "0x1.6c79dab0af34cp-6", "0x1.0d0ae92dd2e30p-6",
    "0x1.5801fe5cda2e1p-7", "0x1.284e71463cf0fp-8")])
_GL_X = np.concatenate((-_GL_X20[::-1], _GL_X20))
_GL_W = np.concatenate((_GL_W20[::-1], _GL_W20))


def _gauss(f, b):
    """``integral_0^b f`` by the 40-node Gauss--Legendre rule; ``f`` maps an
    array of abscissae to an array of values.  ``b`` is one upper limit or
    an array of them: ``f`` is evaluated once, on the ``(..., 40)``
    abscissae of every limit, and every row is reduced by one
    ``(values * _GL_W).sum(axis=-1)``, which sums each row alike whatever
    the batch, so each integral has the bits of its scalar call (a matrix
    product would not).  A float for a scalar ``b``, else an array of
    ``b``'s shape."""
    half = 0.5 * np.asarray(b, dtype=float)
    out = half * (f(half[..., None] * (_GL_X + 1.0)) * _GL_W).sum(axis=-1)
    return out if out.shape else float(out)


def _dopri54(rhs, ya, yb, t_bound, speed_stop, rtol, atol):
    """Integrate ``(a, b)' = rhs(t, a, b)`` from ``(0, ya, yb)`` toward
    ``t_bound`` (may be infinite) by scipy's RK45 algorithm, on Python floats.

    The Dormand--Prince 5(4) tableau, first step and step control are
    scipy's: the embedded 4th-order error in the RMS norm scaled by
    ``atol + max(|y|, |y_new|)*rtol``, step factors ``0.9*err^(-1/5)``
    clipped to [0.2, 10], no growth right after a rejection, and steps of
    at least 10 ulp of ``t`` with no cap, as scipy's default.  A stage
    that raises ``ZeroDivisionError`` or ``OverflowError`` counts as an
    infinite error, so its step is rejected and shrinks, as a non-finite
    stage's is.  An accepted step is discarded, and the branch ends at its
    last node, if its new state reaches a stop: the height stop
    ``a - EPS_G <= 0`` always, and with ``speed_stop`` (where ``b`` is the
    slope ``g'``) also ``M_STOP*M_STOP - b*b <= 0``.  These are scipy's
    nodes for a terminal event, without the event point it appends.  The
    stops are read from the module when the branch starts.

    A stepped node costs about 2.5 us of interpreter time (2-core x86), so
    the loop does only what the stages need: the error norm is written
    out, the clips are comparisons (each keeps ``min``/``max``'s choice,
    NaN included), the stops are tested inline, and the math functions
    and the appends are bound once.  The stage expressions are scipy's,
    operand for operand.

    Returns ``t``, ``a`` and ``g'`` at each node, as lists from ``t = 0``
    outward, where ``g'`` is the right-hand side's first component (``b``
    itself on the collapsing profiles, the reaper's ``lam*e^w``), and a
    status: 0 when ``t_bound`` was reached (at once if it is 0), 1 when the
    next step reached a stop, -1 when the step fell below its floor or
    ``MAX_BRANCH_STEPS`` steps were attempted.
    """
    t = 0.0
    fa, fb = rhs(t, ya, yb)
    ts, gs, gps = [t], [ya], [fa]
    if t_bound == 0.0:
        return ts, gs, gps, 0
    d = math.copysign(1.0, t_bound)
    toward = d * math.inf
    sqrt, nextafter, sqrt2, budget = math.sqrt, math.nextafter, _SQRT2, MAX_BRANCH_STEPS
    eps_g, m_stop2 = EPS_G, M_STOP * M_STOP
    t_append, g_append, gp_append = ts.append, gs.append, gps.append
    h_abs = _first_step(rhs, ya, yb, fa, fb, t_bound, rtol, atol)
    tries = 0
    while True:
        min_step = 10.0 * abs(nextafter(t, toward) - t)
        if min_step > h_abs:  # h_abs = max(h_abs, min_step)
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step or tries == budget:
                return ts, gs, gps, -1
            tries += 1
            t_new = t + h_abs * d
            if d * (t_new - t_bound) > 0.0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            try:
                k2a, k2b = rhs(t + 0.2 * h, ya + 0.2 * fa * h, yb + 0.2 * fb * h)
                k3a, k3b = rhs(t + 0.3 * h,
                               ya + (3 / 40 * fa + 9 / 40 * k2a) * h,
                               yb + (3 / 40 * fb + 9 / 40 * k2b) * h)
                k4a, k4b = rhs(t + 0.8 * h,
                               ya + (44 / 45 * fa - 56 / 15 * k2a + 32 / 9 * k3a) * h,
                               yb + (44 / 45 * fb - 56 / 15 * k2b + 32 / 9 * k3b) * h)
                k5a, k5b = rhs(t + 8 / 9 * h,
                               ya + (19372 / 6561 * fa - 25360 / 2187 * k2a
                                     + 64448 / 6561 * k3a - 212 / 729 * k4a) * h,
                               yb + (19372 / 6561 * fb - 25360 / 2187 * k2b
                                     + 64448 / 6561 * k3b - 212 / 729 * k4b) * h)
                k6a, k6b = rhs(t + h,
                               ya + (9017 / 3168 * fa - 355 / 33 * k2a + 46732 / 5247 * k3a
                                     + 49 / 176 * k4a - 5103 / 18656 * k5a) * h,
                               yb + (9017 / 3168 * fb - 355 / 33 * k2b + 46732 / 5247 * k3b
                                     + 49 / 176 * k4b - 5103 / 18656 * k5b) * h)
                na = ya + h * (35 / 384 * fa + 500 / 1113 * k3a + 125 / 192 * k4a
                               - 2187 / 6784 * k5a + 11 / 84 * k6a)
                nb = yb + h * (35 / 384 * fb + 500 / 1113 * k3b + 125 / 192 * k4b
                               - 2187 / 6784 * k5b + 11 / 84 * k6b)
                k7a, k7b = rhs(t + h, na, nb)
                m0, m1 = abs(ya), abs(na)
                ea = ((-71 / 57600 * fa + 71 / 16695 * k3a - 71 / 1920 * k4a
                       + 17253 / 339200 * k5a - 22 / 525 * k6a + 1 / 40 * k7a)
                      * h / (atol + (m1 if m1 > m0 else m0) * rtol))
                m0, m1 = abs(yb), abs(nb)
                eb = ((-71 / 57600 * fb + 71 / 16695 * k3b - 71 / 1920 * k4b
                       + 17253 / 339200 * k5b - 22 / 525 * k6b + 1 / 40 * k7b)
                      * h / (atol + (m1 if m1 > m0 else m0) * rtol))
                err = sqrt(ea * ea + eb * eb) / sqrt2
            except (ZeroDivisionError, OverflowError):
                err = math.inf
            if err < 1.0:
                if err == 0.0:
                    factor = 10.0
                else:
                    factor = 0.9 * err ** -0.2
                    if not factor < 10.0:
                        factor = 10.0
                if rejected and not factor < 1.0:
                    factor = 1.0
                h_abs *= factor
                break
            factor = 0.9 * err ** -0.2
            h_abs *= factor if factor > 0.2 else 0.2
            rejected = True
        if na - eps_g <= 0.0 or (speed_stop and m_stop2 - nb * nb <= 0.0):
            return ts, gs, gps, 1  # the step reached a stop: end at its left node
        t, ya, yb, fa, fb = t_new, na, nb, k7a, k7b
        t_append(t)
        g_append(ya)
        gp_append(fa)
        if d * (t - t_bound) >= 0.0:
            return ts, gs, gps, 0


_HALF_PI, _PHI_MID = 0.5 * math.pi, 0.25 * math.pi


class _Panels:
    """A collapsing profile's half-width ``r``, abscissa
    ``|t| = integral_phi^{pi/2} D`` and tail ``r - |t|``, ``D = dt_dphi``,
    ``g = y0*sin(phi)``.  Each is one 40-node rule (:func:`_gauss`) on the
    panel that holds ``phi``: :meth:`top`, from ``phi`` up to ``pi/2``, at or
    above ``phi_mid = pi/4``, else :meth:`collapse`, from 0 up to ``phi``.
    ``r``, their sum at ``phi_mid``, is computed on first read, so a tail
    below ``phi_mid`` is one rule alone.  No rule spans both the collapse,
    where the conformal ``D`` is flat to all orders, and ``t = 0``: one rule
    over ``[0, pi/2]`` puts the conformal ``r`` 4.5e-14 off at ``y0 = 2`` and
    3.4e-12 at ``y0 = 10`` (3.6e-14 here), and ``g`` near the collapse 3.5e-12."""

    def __init__(self, params: _CollapseParams) -> None:
        self.d = params.dt_dphi

    def top(self, phi):
        return _gauss(lambda u: self.d(_HALF_PI - u), _HALF_PI - phi)

    def collapse(self, phi):
        return _gauss(self.d, phi)

    @functools.cached_property
    def r(self) -> float:
        return self.collapse(_PHI_MID) + self.top(_PHI_MID)

    def abscissa(self, phi, upper):
        """``|t|`` at the 1-D array ``phi``, on the top panel where ``upper``."""
        out = np.empty_like(phi)
        out[upper] = self.top(phi[upper])
        out[~upper] = self.r - self.collapse(phi[~upper])
        return out

    def tail(self, phi):
        """``r - |t|`` at the array ``phi``, a float if it is 0-d."""
        upper = phi >= _PHI_MID
        out = np.empty_like(phi)
        out[~upper] = self.collapse(phi[~upper])
        if upper.any():
            out[upper] = self.r - self.top(phi[upper])
        return out if out.shape else float(out)


def _blowup_tail(params, g_stop):
    """Remaining abscissa from the stopped state at height ``g_stop`` to the
    collapse, ``integral_0^{g_stop} dg/|g'|``: the tail of :class:`_Panels`
    at ``phi = asin(g_stop/y0)`` by ``math.asin`` (``np.arcsin`` can differ
    in the last bit), so it is accurate however close to ``y0`` the stop
    lies; a stop above ``y0`` is clamped to it.  ``g_stop`` is one height
    (a float comes back) or an array, with the bits of the scalar calls."""
    g_stop = np.asarray(g_stop, dtype=float)
    ends = [math.asin(min(1.0, g / params.y0)) for g in g_stop.ravel().tolist()]
    return _Panels(params).tail(np.reshape(ends, g_stop.shape))


# The closed-form evaluator's seed table: the abscissa at this many equally
# spaced phi on [0, pi/2], which brackets every root; from a linear seed in
# its bracket, Newton ends in at most 4 steps on a family's t range.
_SEED_NODES = 65
# Newton steps per query before its bracket is taken as the root; bisection
# alone narrows a bracket to an ulp in about 55.
_NEWTON_STEPS = 100
# A query is done after a step below this fraction of phi (the next would
# move it by ~1e-22), or once its abscissa is within 4 ulp of the query,
# where near the collapse |t| hardly moves with phi.
_NEWTON_TOL = 1e-11
# Queries solved at once: each holds a (_CHUNK, 40) array of quadrature
# abscissae and a few temporaries of it, so an axis costs memory by chunks,
# not by its length (a 201-node axis peaks at ~250 kB).
_CHUNK = 128


def _closed_form(params: _CollapseParams):
    """A collapsing profile in closed form: its half-width ``r`` and its jet
    function, which maps abscissae ``t`` with ``|t| < r`` to ``(g, g', g'')``
    (floats for a scalar ``t``, arrays of its shape for an array).

    Along either branch ``g = y0*sin(phi)`` at the abscissa ``|t|`` of
    :class:`_Panels`.  Each distinct ``|t|`` of the queries is solved once:
    its ``phi`` by Newton's method on one panel, the top one if ``|t|`` is
    at most the abscissa at ``phi_mid``, from a linear seed in its bracket
    of a ``_SEED_NODES`` table, bisecting whenever a step would leave the
    bracket, until ``_NEWTON_TOL``; a query's iterates depend on it alone,
    so each has its scalar call's bits and cost.  Then, with ``D = dt_dphi``,

        g' = -sign(t)*y0*cos(phi)/D,
        g'' = -y0*(sin(phi)*D + cos(phi)*D')/D/D/D,

    ``D' = dt_dphi_prime``: both come from the first integral, never from
    the ODE's right-hand side, so a residual of this jet checks the ODE
    against its first integral.  A query with ``|t| >= r``, or NaN, raises
    :class:`DomainError`."""
    panels = _Panels(params)
    dt_dphi, r = params.dt_dphi, panels.r
    # |t| at the table's phi, increasing: phi runs down from pi/2 to 0
    phis = np.linspace(0.0, _HALF_PI, _SEED_NODES)[::-1]
    ts = panels.abscissa(phis, phis >= _PHI_MID)
    t_mid = ts[_SEED_NODES // 2]  # at phi_mid

    def root(at):
        """``phi`` at which ``|t|`` reaches each of ``at``, a 1-D array."""
        upper = at <= t_mid
        j = np.searchsorted(ts, at, side="right")  # ts[0] = 0 <= at < r = ts[-1]
        lo, hi = phis[j], phis[j - 1]
        phi = hi + (at - ts[j - 1]) / (ts[j] - ts[j - 1]) * (lo - hi)
        out, live = np.empty_like(at), np.arange(at.size)  # live: the unconverged queries
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_NEWTON_STEPS):
                excess = panels.abscissa(phi, upper) - at  # d|t|/dphi = -D
                lo, hi = np.where(excess > 0.0, phi, lo), np.where(excess < 0.0, phi, hi)
                new = phi + excess / dt_dphi(phi)
                new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
                out[live] = new
                keep = ~((np.abs(new - phi) <= _NEWTON_TOL * new)
                         | (np.abs(excess) <= 4.0 * _EPS * at))
                live, phi, at, upper, lo, hi = (x[keep] for x in (live, new, at, upper, lo, hi))
                if not live.size:
                    break
        return out

    def jet(t):
        t = np.asarray(t, dtype=float)
        at = np.abs(t).ravel()
        if not (at < r).all():
            raise DomainError(f"query outside the profile's open interval (-{r!r}, {r!r})")
        at, back = np.unique(at, return_inverse=True)
        phi = np.concatenate([root(at[k:k + _CHUNK]) for k in range(0, max(at.size, 1), _CHUNK)])
        phi = phi[back]
        sin, cos = np.sin(phi), np.cos(phi)
        d, dp = dt_dphi(phi), params.dt_dphi_prime(phi)
        g = params.y0 * sin
        gp = np.sign(-t.ravel()) * params.y0 * cos / d
        gpp = -params.y0 * (sin * d + cos * dp) / d / d / d
        if not t.shape:
            return float(g[0]), float(gp[0]), float(gpp[0])
        return g.reshape(t.shape), gp.reshape(t.shape), gpp.reshape(t.shape)

    return r, jet


def _collapse_solution(params: _CollapseParams) -> ProfileSolution:
    """Shared driver for the two collapsing (minimal/conformal) profiles.

    One branch is stepped toward ``+inf`` until a stop, its step floor or
    its budget ends it; the left half is its mirror, ``t`` and ``g'``
    negated and ``g`` kept.  The ODEs see ``g'`` only through ``g'^2`` and
    :func:`_dopri54` and :func:`_first_step` commute with negating ``t`` and
    ``g'`` under round-to-nearest, so stepping toward ``-inf`` gives these
    nodes bit for bit.  The centre node is the stepped branch's, ``t = 0.0``
    and ``g' = 0.0`` (no ``-0.0``), and the status, so the truncation, is
    shared.  A branch whose first step already reaches a stop has only its
    ``t = 0`` node and is refused.

    The error controller alone sizes the steps, and its accuracy does not
    depend on the slope when judged in the profile's own scale.  The
    minimal ODE is scale-invariant, ``g(t) = y0*G(t/(y0*sqrt(1+c^2)))``, so
    its own slope is ``G' = sqrt(1+c^2)*g'``: against DOP853 at rtol 1e-13
    and y0 = 1, the interpolant's error in ``g`` at the node midpoints where
    ``sqrt(1+slope^2)*|g'| <= 1e3`` is 9.1e-9, 9.2e-9, 9.4e-9 and 1.1e-8 at
    minimal c = 0, 3, 30 and 100 (1,203 to 1,573 nodes), and 8.7e-9 to
    1.0e-8 at the same conformal ``a``.  A slope too steep to resolve ends
    at the step floor beside the collapse: c = 1e4 after 1,669 nodes, c = 1e8
    after 1,499, and ``profile`` reports it truncated (the families read the
    profile in closed form, :func:`_closed_form`)."""
    if not params.y0 > EPS_G:
        raise ParameterError(
            f"initial height y0 = {params.y0!r} must lie above the height stop EPS_G = {EPS_G!r}"
        )
    rt, rg, rgp, status = _dopri54(params.system(), params.y0, 0.0, math.inf, True,
                                   *_COLLAPSE_TOL)
    if status == 1 and len(rt) == 1:
        raise ParameterError(
            f"at initial height y0 = {params.y0!r} the first step from t = 0 already "
            f"reaches a stop (g <= EPS_G = {EPS_G!r} or |g'| >= M_STOP = {M_STOP!r}), "
            "leaving no node past t = 0"
        )
    return ProfileSolution(params, t=[-x for x in rt[:0:-1]] + rt, g=rg[:0:-1] + rg,
                           gp=[-x for x in rgp[:0:-1]] + rgp, truncated=status != 1)


def integrate_minimal_profile(p: MinimalProfileParams) -> ProfileSolution:
    """Integrate the minimal profile two-sided from t=0 until collapse.

    The solution is even in t, concave, maximal at t=0, and collapses at
    ``+-r`` with ``r`` matching :func:`minimal_halfwidth_quadrature`.
    """
    return _collapse_solution(p)


def integrate_conformal_profile(p: ConformalProfileParams) -> ProfileSolution:
    """Integrate the conformal profile two-sided from t=0 until collapse."""
    return _collapse_solution(p)


def integrate_grim_reaper(p: GrimReaperParams,
                          span: tuple = REAPER_SPAN_DEFAULT) -> ProfileSolution:
    """Integrate the translator profile over ``span``, which must be finite,
    increasing and contain 0; each is refused in that order, by name.

    The Dormand--Prince stepper runs on ``(g, w)`` with ``g' = lam*e^w``,
    ``w(0) = 0``:

        g' = lam*e^w,    w' = g''/g' = -(k + lam^2*e^{2w}) * 2*v / g^2.

    In ``(g, g')`` the damping ``d(g'')/d(g') = -(k + 3*g'^2)*2*v/g^2`` is
    large wherever ``|v|/g^2`` is, so RK45's step there is held by stability,
    not accuracy (lam = 50 on span -100:100 needs ~650k steps).  In ``(g, w)``
    the Jacobian is ``[[0, g'], [4*v*(k + g'^2)/g^3, -4*v*g'^2/g^2]]``: its
    trace and determinant both carry a factor ``g'``, which decays in the
    tails where ``|v|`` is large, so the step follows the solution.  The
    slopes are the right-hand side's first component, as the stepper returns
    it: ``g' = lam*e^w`` (``math.exp``; where it overflows, the stage fails
    and its step is rejected), so ``g'(0) = lam`` exactly and ``g' >= 0`` at
    every node (it may underflow to 0 far out).  No step cap is set, so the
    error controller alone sizes every step and the node count follows the
    solution, not the span: lam = 0.5 takes 396 nodes on -50:50, 399 on
    -1000:1000 and 405 on -1e6:1e6, and lam = 0 takes 15 on -50:50.  The
    tolerances (``rtol = 1e-12``, ``atol = 1e-13``) are tighter than the
    collapsing profiles': with fewer nodes, the Hermite interpolant's error in ``g`` at lam = 10
    on -40:40 is 4.6e-7 at ``rtol = 1e-10`` (325 nodes) and 1.3e-8 at these
    (746 nodes), against a DOP853 reference at rtol 1e-13.

    ``lam = 0`` yields the constant solution ``g == 1`` node-for-node (``g'``
    is ``0*e^w`` at every stage, so the stepper preserves ``g`` exactly);
    ``lam > 0`` yields an increasing profile, convex left of 0 and concave
    right of 0, bounded between positive constants.  This family has no
    conserved-quantity monitor; node defects are reported as zero.
    """
    lo, hi = float(span[0]), float(span[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError(f"span must be finite, got {span!r}")
    if not lo < hi:
        raise ParameterError(f"span must be increasing, got {span!r}")
    if not lo <= 0.0 <= hi:
        raise ParameterError(f"span must contain 0, got {span!r}")
    lam, k, exp = p.lam, p.k, math.exp

    def rhs(v, g, w):
        gp = lam * exp(w)
        return gp, -(k + gp * gp) * 2.0 * v / (g * g)

    rt, rg, rgp, right = _dopri54(rhs, 1.0, 0.0, hi, False, *_REAPER_TOL)
    lt, lg, lgp, left = _dopri54(rhs, 1.0, 0.0, lo, False, *_REAPER_TOL)
    t = lt[::-1] + rt[1:]
    if len(t) < 2:
        raise ParameterError(
            f"no step from t = 0 was accepted at lambda = {p.lam!r}: every trial step "
            "was rejected"
        )
    return ProfileSolution(p, t=t, g=lg[::-1] + rg[1:], gp=lgp[::-1] + rgp[1:],
                           truncated=right != 0 or left != 0)


def minimal_halfwidth_quadrature(c: float, y0: float) -> float:
    """Collapse half-width of the minimal profile, in closed form.

    ``r = integral_0^{y0} dg / sqrt(m/g^4 - 1/(c^2+1))`` with
    ``m = y0^4/(c^2+1)``.  The substitution ``g = y0*u^(1/4)`` turns it into
    a Beta integral and scales out the parameters exactly:

        r = y0*sqrt(c^2+1) * B(3/4, 1/2)/4.

    ``(c, y0)`` that :class:`MinimalProfileParams` refuses are refused.
    """
    MinimalProfileParams(c=c, y0=y0)
    beta = math.gamma(0.75) * math.gamma(0.5) / math.gamma(1.25)
    return y0 * math.sqrt(c * c + 1.0) * beta / 4.0


def conformal_halfwidth_quadrature(a: float, y0: float) -> float:
    """Collapse half-width of the conformal profile,
    ``r = integral_0^{y0} dg / sqrt(C*e^{4/g}/g^4 - 1/(1+a^2))``: the ``r``
    of :class:`_Panels`, by quadrature in ``phi`` with ``g = y0*sin(phi)``,
    which removes the endpoint singularity at ``g = y0``."""
    return _Panels(ConformalProfileParams(a=a, y0=y0)).r
