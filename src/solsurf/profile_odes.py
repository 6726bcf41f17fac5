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
(``g -> 0`` with ``|g'| -> inf``) at finite abscissae ``+-r``.  Integration
runs outward from ``t = 0`` with an adaptive embedded Runge--Kutta 5(4)
scheme; a terminal event stops each branch once ``g`` drops below ``eps_g``
or ``|g'|`` exceeds ``m_stop``, and the remaining sliver of abscissa is
recovered by switching the independent variable to ``g`` and integrating
``dt = -dg / sqrt(first integral)``, so the reported blow-up abscissa has
quadrature accuracy.

The grim reaper runs through the same two-branch RK45 integration, on the state
``(g, w)`` with ``g' = lambda*e^w``.  In ``(g, g')`` its damping
``-(k + 3*g'^2)*2*v/g^2`` grows with ``|v|/g^2`` even where the solution is
flat, so the step is held by stability rather than accuracy; in ``(g, w)``
the Jacobian's trace and determinant carry a factor ``g'``, which vanishes
in the flat tails, so the equation is not stiff there (see
:func:`integrate_grim_reaper`).

Conservation monitor: the first-integral defect ``g'^2 - (rhs)`` is exact in
the O(1) region but near blow-up ``g'^2 ~ 1e12`` exceeds what float64 can
resolve absolutely (one ULP of 1e12 is ~2.4e-4), so the per-node monitor
stored on solutions is the raw defect divided by ``max(1, g'^2)``.  The raw
pointwise defect, :func:`first_integral_defect`, is also exposed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicHermiteSpline

from .errors import DomainError, ParameterError

__all__ = [
    "EPS_G_DEFAULT",
    "M_STOP_DEFAULT",
    "RTOL_DEFAULT",
    "ATOL_DEFAULT",
    "SLOPE_CAP",
    "REAPER_SPAN_DEFAULT",
    "MinimalProfileParams",
    "GrimReaperParams",
    "ConformalProfileParams",
    "ProfileEvents",
    "ProfileSolution",
    "QualitativeVerdict",
    "first_integral_defect",
    "minimal_halfwidth_quadrature",
    "conformal_halfwidth_quadrature",
    "integrate_minimal_profile",
    "integrate_grim_reaper",
    "integrate_conformal_profile",
    "qualitative_verdict",
]

EPS_G_DEFAULT = 1e-6     # stop a branch once g drops below this
M_STOP_DEFAULT = 1e6     # ... or |g'| exceeds this
RTOL_DEFAULT = 1e-10
ATOL_DEFAULT = 1e-12
SLOPE_CAP = 1e3          # symmetry comparisons restricted to |g'| <= this
REAPER_SPAN_DEFAULT = (-5.0, 5.0)


@dataclass(frozen=True)
class MinimalProfileParams:
    """Parameters of the minimal profile; ``m`` is derived from the initial
    conditions when omitted.  ``d`` (intercept of the linear drift f(s)=c*s+d)
    is carried for bookkeeping and does not enter the ODE."""

    c: float = 0.0
    y0: float = 1.0
    m: Optional[float] = None
    d: float = 0.0

    def __post_init__(self) -> None:
        if not self.y0 > 0.0:
            raise ParameterError(f"initial height must be positive, got {self.y0!r}")
        if not math.isfinite(self.c):
            raise ParameterError(f"slope must be finite, got {self.c!r}")
        m_ic = self.y0 ** 4 / (self.c * self.c + 1.0)
        if self.m is None:
            object.__setattr__(self, "m", m_ic)
        elif not abs(self.m - m_ic) <= 1e-12 * m_ic:
            raise ParameterError(
                f"first-integral constant {self.m!r} is inconsistent with the "
                f"initial conditions (expected {m_ic!r})"
            )

    @property
    def kinv(self) -> float:
        return 1.0 / (self.c * self.c + 1.0)

    def gpp(self, t, g, gp):
        """Second derivative from the ODE; valid for scalars or arrays."""
        return -2.0 * (gp * gp + self.kinv) / g

    def first_integral_rhs(self, g):
        """``m/g^4 - 1/(c^2+1)``, the value ``g'^2`` must equal."""
        g = np.asarray(g, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            out = self.m / g ** 4 - self.kinv
        return out if out.shape else float(out)


@dataclass(frozen=True)
class GrimReaperParams:
    """Parameters of the translator profile.  ``t_shift`` records the
    substitution ``v = t_shift + t`` used when the profile is attached to a
    surface; the ODE itself is posed in ``v``."""

    lam: float = 0.5
    k: float = 1.0
    t_shift: float = 0.0

    def __post_init__(self) -> None:
        if not self.lam >= 0.0:
            raise ParameterError(f"initial slope must be nonnegative, got {self.lam!r}")
        if not self.k > 0.0:
            raise ParameterError(f"k must be positive, got {self.k!r}")
        if not math.isfinite(self.t_shift):
            raise ParameterError(f"shift must be finite, got {self.t_shift!r}")

    def gpp(self, v, g, gp):
        return -gp * (self.k + gp * gp) * 2.0 * v / (g * g)


@dataclass(frozen=True)
class ConformalProfileParams:
    """Parameters of the conformal profile; ``C`` is derived from the initial
    conditions when omitted."""

    a: float = 0.0
    y0: float = 1.0
    C: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.y0 > 0.0:
            raise ParameterError(f"initial height must be positive, got {self.y0!r}")
        if not math.isfinite(self.a):
            raise ParameterError(f"slope must be finite, got {self.a!r}")
        c_ic = self.y0 ** 4 * math.exp(-4.0 / self.y0) / (self.a * self.a + 1.0)
        if self.C is None:
            object.__setattr__(self, "C", c_ic)
        elif not abs(self.C - c_ic) <= 1e-12 * c_ic:
            raise ParameterError(
                f"first-integral constant {self.C!r} is inconsistent with the "
                f"initial conditions (expected {c_ic!r})"
            )

    @property
    def kinv(self) -> float:
        return 1.0 / (self.a * self.a + 1.0)

    def gpp(self, t, g, gp):
        return -2.0 * (g + 1.0) / (g * g) * (gp * gp + self.kinv)

    def first_integral_rhs(self, g):
        """``C*e^{4/g}/g^4 - 1/(1+a^2)``; overflows saturate to +inf."""
        g = np.asarray(g, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):
            out = self.C * np.exp(4.0 / g) / g ** 4 - self.kinv
        return out if out.shape else float(out)


ProfileParams = Union[MinimalProfileParams, GrimReaperParams, ConformalProfileParams]


def first_integral_defect(p: Union[MinimalProfileParams, ConformalProfileParams], g, gp):
    """Raw conservation defect ``g'^2 - p.first_integral_rhs(g)`` of a
    collapsing profile, at one state or at arrays of states: minimal
    ``m/g^4 - 1/(c^2+1)``, conformal ``C*e^{4/g}/g^4 - 1/(1+a^2)``."""
    return gp * gp - p.first_integral_rhs(g)


@dataclass(frozen=True, slots=True)
class ProfileEvents:
    """Blow-up abscissae detected for each branch (None where no blow-up was
    found) and whether any branch was truncated before its natural end."""

    left_blowup_t: Optional[float]
    right_blowup_t: Optional[float]
    truncated: bool


@dataclass(eq=False)
class ProfileSolution:
    """An integrated profile: node arrays, events, and the conservation
    monitor.  Nodes are strictly increasing in ``t`` with ``g > 0``
    everywhere, and the arrays are read-only.

    Between nodes, ``g`` and ``g'`` come from cubic Hermite interpolation
    (the stored derivatives are the exact nodal slopes) and ``g''`` is
    recomputed from the ODE right-hand side at the interpolated state.
    Queries outside the node range raise ``DomainError``.
    """

    params: ProfileParams
    t: np.ndarray
    g: np.ndarray
    gp: np.ndarray
    events: ProfileEvents
    node_defect: np.ndarray
    conserved_max_defect: float
    _g_spline: object = field(default=None, repr=False)
    _gp_spline: object = field(default=None, repr=False)

    def __post_init__(self) -> None:
        for name in ("t", "g", "gp", "node_defect"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            setattr(self, name, a)
        if len(self.t) < 2:
            raise ParameterError("a profile solution needs at least two nodes")
        if not np.all(np.diff(self.t) > 0.0):
            raise ParameterError("profile nodes must be strictly increasing in t")
        if not np.all(self.g > 0.0):
            raise ParameterError("profile nodes must have positive g")

    @property
    def family(self) -> str:
        if isinstance(self.params, MinimalProfileParams):
            return "minimal"
        if isinstance(self.params, GrimReaperParams):
            return "grim_reaper"
        return "conformal"

    def gpp_nodes(self) -> np.ndarray:
        return self.params.gpp(self.t, self.g, self.gp)

    def _ensure_splines(self) -> None:
        if self._g_spline is None:
            self._g_spline = CubicHermiteSpline(self.t, self.g, self.gp)
            self._gp_spline = CubicHermiteSpline(self.t, self.gp, self.gpp_nodes())

    def _check_range(self, t) -> np.ndarray:
        q = np.asarray(t, dtype=float)
        if np.any(q < self.t[0]) or np.any(q > self.t[-1]):
            raise DomainError(
                f"query outside the integrated range [{self.t[0]!r}, {self.t[-1]!r}]"
            )
        return q

    def eval_g(self, t):
        q = self._check_range(t)
        self._ensure_splines()
        out = self._g_spline(q)
        return out if out.shape else float(out)

    def eval_gp(self, t):
        q = self._check_range(t)
        self._ensure_splines()
        out = self._gp_spline(q)
        return out if out.shape else float(out)

    def eval_gpp(self, t):
        q = self._check_range(t)
        self._ensure_splines()
        out = self.params.gpp(q, self._g_spline(q), self._gp_spline(q))
        return out if out.shape else float(out)


def _height_event(eps_g: float):
    def height(t, y):
        return y[0] - eps_g

    height.terminal = True
    height.direction = -1
    return height


def _speed_event(m_stop: float):
    def speed(t, y):
        return m_stop * m_stop - y[1] * y[1]

    speed.terminal = True
    speed.direction = -1
    return speed


def _integrate_branches(rhs, ic, t_lo, t_hi, events, rtol, atol, max_step):
    """Integrate ``y' = rhs(t, y)`` from t=0 toward t_hi and toward t_lo;
    return the merged node abscissae and states (one row per state
    component) plus the per-branch solver results (right, left)."""
    kw = dict(method="RK45", rtol=rtol, atol=atol, max_step=max_step, events=events)
    right = solve_ivp(rhs, (0.0, t_hi), ic, **kw) if t_hi > 0.0 else None
    left = solve_ivp(rhs, (0.0, t_lo), ic, **kw) if t_lo < 0.0 else None

    parts_t = [left.t[::-1] if left is not None else np.array([0.0])]
    parts_y = [left.y[:, ::-1] if left is not None else np.array(ic, dtype=float)[:, None]]
    if right is not None:
        parts_t.append(right.t[1:])
        parts_y.append(right.y[:, 1:])
    return np.concatenate(parts_t), np.concatenate(parts_y, axis=1), right, left


def _blowup_tail(params, g_stop: float) -> float:
    """Remaining abscissa from the stopped state to the collapse, computed by
    quadrature of ``dt = dg / sqrt(first-integral rhs)`` on (0, g_stop]."""

    def integrand(x: float) -> float:
        with np.errstate(over="ignore", divide="ignore"):
            v = params.first_integral_rhs(x)
            return 0.0 if not np.isfinite(v) else 1.0 / math.sqrt(v)

    val, _ = quad(integrand, 0.0, g_stop, epsabs=1e-15, epsrel=1e-10, limit=200)
    return val


def _collapse_solution(params, eps_g, m_stop, rtol, atol, horizon, max_step):
    """Shared driver for the two collapsing (minimal/conformal) profiles."""
    def rhs(t, y):
        return (y[1], params.gpp(t, y[0], y[1]))

    events = [_height_event(eps_g), _speed_event(m_stop)]
    t, (g, gp), right, left = _integrate_branches(
        rhs, [params.y0, 0.0], -horizon, horizon, events, rtol, atol, max_step
    )
    truncated = False
    right_blowup = left_blowup = None
    if right is not None and right.status == 1:
        right_blowup = right.t[-1] + _blowup_tail(params, right.y[0][-1])
    else:
        truncated = True
    if left is not None and left.status == 1:
        left_blowup = left.t[-1] - _blowup_tail(params, left.y[0][-1])
    else:
        truncated = True
    defect = first_integral_defect(params, g, gp) / np.maximum(1.0, gp * gp)
    return ProfileSolution(
        params=params,
        t=t,
        g=g,
        gp=gp,
        events=ProfileEvents(left_blowup, right_blowup, truncated),
        node_defect=defect,
        conserved_max_defect=float(np.max(np.abs(defect))),
    )


def integrate_minimal_profile(
    p: MinimalProfileParams,
    *,
    eps_g: float = EPS_G_DEFAULT,
    m_stop: float = M_STOP_DEFAULT,
    rtol: float = RTOL_DEFAULT,
    atol: float = ATOL_DEFAULT,
) -> ProfileSolution:
    """Integrate the minimal profile two-sided from t=0 until collapse.

    The solution is even in t, concave, maximal at t=0, and collapses at
    ``+-r`` with ``r`` matching :func:`minimal_halfwidth_quadrature`.
    """
    horizon = 2.0 * p.y0 * math.sqrt(p.c * p.c + 1.0) + 1.0
    return _collapse_solution(p, eps_g, m_stop, rtol, atol, horizon, p.y0 / 20.0)


def integrate_conformal_profile(
    p: ConformalProfileParams,
    *,
    eps_g: float = EPS_G_DEFAULT,
    m_stop: float = M_STOP_DEFAULT,
    rtol: float = RTOL_DEFAULT,
    atol: float = ATOL_DEFAULT,
) -> ProfileSolution:
    """Integrate the conformal profile two-sided from t=0 until collapse."""
    horizon = 2.0 * p.y0 * math.sqrt(p.a * p.a + 1.0) + 1.0
    return _collapse_solution(p, eps_g, m_stop, rtol, atol, horizon, p.y0 / 20.0)


def integrate_grim_reaper(
    p: GrimReaperParams,
    span: tuple = REAPER_SPAN_DEFAULT,
    *,
    eps_g: float = EPS_G_DEFAULT,
    rtol: float = 1e-12,
    atol: float = 1e-13,
) -> ProfileSolution:
    """Integrate the translator profile over ``span`` (which must contain 0).

    The stepper runs on ``(g, w)`` with ``g' = lam*e^w``, ``w(0) = 0``:

        g' = lam*e^w,    w' = g''/g' = -(k + lam^2*e^{2w}) * 2*v / g^2.

    In ``(g, g')`` the damping ``d(g'')/d(g') = -(k + 3*g'^2)*2*v/g^2`` is
    large wherever ``|v|/g^2`` is, so RK45's step there is held by stability,
    not accuracy (lam = 50 on span -100:100 needs ~650k steps).  In ``(g, w)``
    the Jacobian is ``[[0, g'], [4*v*(k + g'^2)/g^3, -4*v*g'^2/g^2]]``: its
    trace and determinant both carry a factor ``g'``, which decays in the
    tails where ``|v|`` is large, so the step follows the solution.  The
    stored slopes are ``g' = lam*e^w`` from the routine the right-hand side
    uses: ``g'(0) = lam`` exactly and ``g' >= 0`` at every node (it may
    underflow to 0 far out).  The tolerances are tighter than the collapsing
    profiles': with fewer nodes, the Hermite interpolant's error in ``g`` at
    lam = 10 on -40:40 is 1.8e-7 at ``rtol = 1e-10`` and 1.3e-8 at these
    defaults, against a DOP853 reference at rtol 1e-13.

    ``lam = 0`` yields the constant solution ``g == 1`` node-for-node (``g'``
    is ``0*e^w`` at every stage, so the stepper preserves ``g`` exactly);
    ``lam > 0`` yields an increasing profile, convex left of 0 and concave
    right of 0, bounded between positive constants.  This family has no
    conserved-quantity monitor; node defects are reported as zero.
    """
    lo, hi = float(span[0]), float(span[1])
    if not (lo < hi and lo <= 0.0 <= hi):
        raise ParameterError(f"span must contain 0, got {span!r}")
    max_step = min(0.25, (hi - lo) / 40.0)

    def slope(w):
        return p.lam * np.exp(w)

    def rhs(v, y):
        gp = slope(y[1])
        return (gp, -(p.k + gp * gp) * 2.0 * v / (y[0] * y[0]))

    t, (g, w), right, left = _integrate_branches(
        rhs, [1.0, 0.0], lo, hi, [_height_event(eps_g)], rtol, atol, max_step
    )
    truncated = (right is not None and right.status != 0) or (
        left is not None and left.status != 0
    )
    return ProfileSolution(
        params=p,
        t=t,
        g=g,
        gp=slope(w),
        events=ProfileEvents(None, None, truncated),
        node_defect=np.zeros_like(t),
        conserved_max_defect=0.0,
    )


_PHI_NODE = None  # cached value of the smooth base integral, see below


def minimal_halfwidth_quadrature(c: float, y0: float) -> float:
    """Collapse half-width of the minimal profile by direct quadrature.

    ``r = integral_0^{y0} dg / sqrt(m/g^4 - 1/(c^2+1))`` with
    ``m = y0^4/(c^2+1)``.  The substitution ``g = y0*sin(phi)`` removes the
    integrable endpoint singularity at ``g = y0`` and scales out the
    parameters exactly:

        r = y0*sqrt(c^2+1) * integral_0^{pi/2} sin^2(phi)/sqrt(1+sin^2(phi)) dphi.
    """
    if not y0 > 0.0:
        raise ParameterError(f"initial height must be positive, got {y0!r}")
    global _PHI_NODE
    if _PHI_NODE is None:
        _PHI_NODE, _ = quad(
            lambda p: math.sin(p) ** 2 / math.sqrt(1.0 + math.sin(p) ** 2),
            0.0,
            math.pi / 2.0,
            epsabs=1e-14,
            epsrel=1e-12,
        )
    return y0 * math.sqrt(c * c + 1.0) * _PHI_NODE


def conformal_halfwidth_quadrature(a: float, y0: float) -> float:
    """Collapse half-width of the conformal profile by direct quadrature,
    with the same ``g = y0*sin(phi)`` endpoint substitution."""
    p = ConformalProfileParams(a=a, y0=y0)

    def integrand(phi: float) -> float:
        gg = y0 * math.sin(phi)
        if gg <= 0.0:
            return 0.0
        with np.errstate(over="ignore", divide="ignore"):
            v = p.first_integral_rhs(gg)
        if not np.isfinite(v):
            return 0.0
        if v <= 0.0:  # rounding at the phi = pi/2 endpoint
            return 0.0
        return y0 * math.cos(phi) / math.sqrt(v)

    val, _ = quad(integrand, 0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-11, limit=200)
    return val


@dataclass(frozen=True, slots=True)
class QualitativeVerdict:
    """Shape facts measured on an integrated profile (all fields are computed
    for every family; which ones are meaningful depends on the family)."""

    constant: bool
    constancy_defect: float
    monotone_nondecreasing: bool
    increasing_overall: bool
    concave: bool
    convex_then_concave: bool
    symmetric: bool
    symmetry_defect: float
    max_at_zero: bool
    bounded: bool
    g_min: float
    g_max: float
    blowup_left: bool
    blowup_right: bool
    truncated: bool


def qualitative_verdict(sol: ProfileSolution) -> QualitativeVerdict:
    """Measure shape properties of a profile solution.

    Monotonicity tolerates node-difference wobble at the rounding floor
    (1e-13 relative).  The symmetry defect compares the two branches at
    mirrored abscissae through the interpolants, restricted to states with
    ``|g'| <= SLOPE_CAP`` where the comparison is well-conditioned.
    """
    if len(sol.t) < 3:
        raise ParameterError("verdict needs at least three nodes")
    t, g, gp = sol.t, sol.g, sol.gp
    i0 = int(np.argmin(np.abs(t)))
    g0 = g[i0]

    constancy = float(max(np.max(np.abs(g - g0)), np.max(np.abs(gp))))
    constant = constancy <= 1e-12 * max(1.0, abs(g0))

    slack = 1e-13 * np.maximum(1.0, np.abs(g[:-1]))
    monotone = bool(np.all(np.diff(g) >= -slack) and np.all(gp >= -1e-13))
    increasing = monotone and g[-1] > g[0]

    gpp = sol.gpp_nodes()
    concave = bool(np.all(gpp < 0.0))
    neg, pos = t < 0.0, t > 0.0
    convex_then_concave = bool(
        np.any(neg)
        and np.any(pos)
        and np.all(gpp[neg] >= 0.0)
        and np.all(gpp[pos] <= 0.0)
        and np.any(gpp[neg] > 0.0)
        and np.any(gpp[pos] < 0.0)
        and np.all(gpp[t == 0.0] == 0.0)
    )

    tmax = min(-t[0], t[-1])
    defect = math.nan
    if tmax > 0.0:
        probes = t[(t > 0.0) & (t <= tmax) & (np.abs(gp) <= SLOPE_CAP)]
        if len(probes):
            g_right = sol.eval_g(probes)
            g_left = sol.eval_g(-probes)
            ok = np.abs(sol.eval_gp(-probes)) <= SLOPE_CAP
            if np.any(ok):
                defect = float(np.max(np.abs(g_left[ok] - g_right[ok])))
    symmetric = bool(defect <= 1e-8) if math.isfinite(defect) else False

    max_at_zero = bool(g0 >= np.max(g) - 1e-12 * max(1.0, g0))
    g_min, g_max = float(np.min(g)), float(np.max(g))
    bounded = bool(math.isfinite(g_max) and g_min > 0.0)

    return QualitativeVerdict(
        constant=constant,
        constancy_defect=constancy,
        monotone_nondecreasing=monotone,
        increasing_overall=increasing,
        concave=concave,
        convex_then_concave=convex_then_concave,
        symmetric=symmetric,
        symmetry_defect=defect,
        max_at_zero=max_at_zero,
        bounded=bounded,
        g_min=g_min,
        g_max=g_max,
        blowup_left=sol.events.left_blowup_t is not None,
        blowup_right=sol.events.right_blowup_t is not None,
        truncated=sol.events.truncated,
    )
