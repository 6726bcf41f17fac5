"""Constructors for the concrete surface families and grid sampling.

Every family is packaged as a :class:`SurfaceFamily`: a rectangle of
parameters ``(s, t)``, its two factor curves ``alpha(s)`` and ``beta(t)``,
and bookkeeping (parameter dict and the profile solution where one is
involved).  Grids evaluate each factor curve in one call on its whole axis
(node by node only after that call raises a domain error) and build one jet
for the whole grid.

Families whose ``t`` extent ends at a collapse abscissa are flagged
``blowup_limited``; grids on those shrink the ``t`` interval by a relative
margin (default 1e-3 of the extent per side) so that sampled nodes stay away
from the near-vertical ends where jets degrade.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import DomainError, DegenerateJetError, ParameterError, SamplingError
from .profile_odes import (
    ConformalProfileParams,
    GrimReaperParams,
    MinimalProfileParams,
    ProfileSolution,
    REAPER_SPAN_DEFAULT,
    integrate_conformal_profile,
    integrate_grim_reaper,
    integrate_minimal_profile,
)
from .surface_jets import (
    CurveJet2,
    ScalarJet2,
    SurfaceJet2,
    product_surface_jet,
)

__all__ = [
    "GridSpec",
    "SurfaceFamily",
    "make_horosphere",
    "make_vertical_plane",
    "make_minimal_cylinder",
    "make_grim_reaper",
    "make_conformal_cylinder",
    "make_generic_first_kind",
    "make_generic_second_kind",
    "perturb_profile",
    "grid_axes",
    "sample_grid",
]


# A 1001x1001 residual sweep takes ~1.6 s and ~350 MB peak on a 2-core x86
# host; the cap (1024x1024) keeps every grid near that, instead of letting a
# typo allocate until the process is killed.
MAX_GRID_NODES = 1 << 20


@dataclass(frozen=True, slots=True)
class GridSpec:
    """A sampling grid: ``ns`` nodes across ``s``, ``nt`` across ``t``.

    ``margin`` is the fraction of the ``t`` extent clipped from each end
    before sampling, applied only to blow-up-limited families.  At most
    ``MAX_GRID_NODES`` nodes are allowed.
    """

    ns: int
    nt: int
    margin: float = 1e-3

    def __post_init__(self) -> None:
        if self.ns < 2 or self.nt < 2:
            raise ParameterError(f"grid needs at least 2x2 nodes, got {self.ns}x{self.nt}")
        if self.ns * self.nt > MAX_GRID_NODES:
            raise ParameterError(
                f"grid {self.ns}x{self.nt} has {self.ns * self.nt} nodes, "
                f"more than the cap of {MAX_GRID_NODES}"
            )
        if not 0.0 <= self.margin < 0.5:
            raise ParameterError(f"margin must be in [0, 0.5), got {self.margin!r}")


@dataclass(eq=False)
class SurfaceFamily:
    """A translation surface ``X(s, t) = alpha(s) * beta(t)``, the group
    product of its two factor curves.

    ``alpha(s)`` and ``beta(t)`` return the :class:`CurveJet2` of each factor
    at one abscissa, or at every node of a grid axis (a 1-D array).  Every
    family has a horospherical ``alpha(s) = (s, f(s), 1)``.  A first-kind
    family has ``beta(t) = (0, t, g(t))`` with a profile ``g``, so ``X = (s,
    t + f(s), g(t))``; a second-kind one has ``beta(t) = (0, 0, t)`` and the
    offset ``b`` in ``f``, so ``X = (s, f(s) + b, t)``.  ``jet(s, t)``
    returns the full :class:`SurfaceJet2` at a point; ``position`` is the
    bare embedding, convenient for finite-difference cross-checks.
    """

    name: str
    params: dict
    s_range: Tuple[float, float]
    t_range: Tuple[float, float]
    alpha: Callable[[float], CurveJet2] = field(repr=False)
    beta: Callable[[float], CurveJet2] = field(repr=False)
    profile: Optional[ProfileSolution] = None

    def jet(self, s: float, t: float) -> SurfaceJet2:
        return product_surface_jet(self.alpha(s), self.beta(t))

    def position(self, s: float, t: float) -> np.ndarray:
        return self.jet(s, t).X

    @property
    def blowup_limited(self) -> bool:
        """Whether the ``t`` extent ends where the profile collapses."""
        ev = self.profile.events if self.profile is not None else None
        return ev is not None and (ev.left_blowup_t, ev.right_blowup_t) != (None, None)


def _check_range(name: str, rng: Tuple[float, float]) -> Tuple[float, float]:
    """``rng`` as floats ``lo < hi`` whose width ``hi - lo`` is finite too:
    grid nodes are spaced by it, and an overflowed width makes them NaN."""
    lo, hi = float(rng[0]), float(rng[1])
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ParameterError(
            f"{name} must be a finite increasing pair with a finite width, got {rng!r}"
        )
    return lo, hi


def _horospherical(f: Callable[[float], ScalarJet2]) -> Callable[[float], CurveJet2]:
    """``alpha(s) = (s, f(s), 1)`` from the jet function of ``f``."""
    return lambda s: CurveJet2.horospherical(ScalarJet2(s, 1.0, 0.0), f(s))


def _graph(g: Callable[[float], ScalarJet2]) -> Callable[[float], CurveJet2]:
    """``beta(t) = (0, t, g(t))`` from the jet function of the height ``g``."""
    return lambda t: CurveJet2.vertical(ScalarJet2(t, 1.0, 0.0), g(t))


def _rising(t) -> CurveJet2:
    """``beta(t) = (0, 0, t)``, the vertical line of a second-kind family."""
    return CurveJet2.vertical(ScalarJet2(0.0, 0.0, 0.0), ScalarJet2(t, 1.0, 0.0))


def _second_kind_family(
    name: str,
    params: dict,
    f_jet_fn: Callable[[float], ScalarJet2],
    b: float,
    s_range: Tuple[float, float],
    t_range: Tuple[float, float],
) -> SurfaceFamily:
    """A second-kind family: ``alpha`` from ``f + b``, ``beta`` rising.  Its
    t range must stay above the boundary plane, which keeps every sampled
    ``t`` positive."""
    t_lo, t_hi = _check_range("t_range", t_range)
    if not t_lo > 0.0:
        raise ParameterError(f"t_range must stay above the boundary plane, got {t_range!r}")

    def offset(s):
        j = f_jet_fn(s)
        return ScalarJet2(j.value + b, j.d1, j.d2)

    return SurfaceFamily(name, params, _check_range("s_range", s_range), (t_lo, t_hi),
                         _horospherical(offset), _rising)


def _linear_jet(slope: float, intercept: float) -> Callable[[float], ScalarJet2]:
    def fn(s: float) -> ScalarJet2:
        return ScalarJet2(slope * s + intercept, slope, 0.0)

    return fn


def _constant_jet(value: float) -> Callable[[float], ScalarJet2]:
    def fn(t: float) -> ScalarJet2:
        return ScalarJet2(value, 0.0, 0.0)

    return fn


def make_horosphere(
    a: float = 1.0,
    s_range: Tuple[float, float] = (-2.0, 2.0),
    t_range: Tuple[float, float] = (-2.0, 2.0),
) -> SurfaceFamily:
    """The flat slice at height ``a > 0``: X(s, t) = (s, t, a)."""
    if not a > 0.0:
        raise ParameterError(f"height must be positive, got {a!r}")
    return SurfaceFamily(
        "horosphere",
        {"a": a},
        _check_range("s_range", s_range),
        _check_range("t_range", t_range),
        _horospherical(_linear_jet(0.0, 0.0)),
        _graph(_constant_jet(a)),
    )


def make_vertical_plane(
    c: float = 1.0,
    d: float = 0.0,
    b: float = 0.0,
    s_range: Tuple[float, float] = (-2.0, 2.0),
    t_range: Tuple[float, float] = (0.5, 4.5),
) -> SurfaceFamily:
    """The vertical plane y = c*x + d + b: X(s, t) = (s, c*s + d + b, t).

    ``d`` is the intercept of the generating line and ``b`` the transverse
    offset of the construction.  Only their sum moves the plane, and the
    reduced residual equations read them only as ``f + b``, so only ``d + b``
    matters; both are kept because verify's ``plane.residuals`` row builds
    each plane once as given and once with ``b = -d``.
    """
    return _second_kind_family(
        "vertical_plane", {"c": c, "d": d, "b": b}, _linear_jet(c, d), b, s_range, t_range
    )


def _profile_g_jet(sol: ProfileSolution) -> Callable[[float], ScalarJet2]:
    def fn(t):
        return ScalarJet2(sol.eval_g(t), sol.eval_gp(t), sol.eval_gpp(t))

    return fn


def make_minimal_cylinder(
    c: float = MinimalProfileParams.c,
    y0: float = MinimalProfileParams.y0,
    d: float = 0.0,
    s_range: Tuple[float, float] = (-2.0, 2.0),
) -> SurfaceFamily:
    """Minimal surface generated by the collapsing even profile: first-kind
    construction with f(s) = c*s + d and g the integrated minimal profile."""
    sol = integrate_minimal_profile(MinimalProfileParams(c=c, y0=y0))
    return SurfaceFamily(
        "minimal_cylinder",
        {"c": c, "y0": y0, "d": d},
        _check_range("s_range", s_range),
        (float(sol.t[0]), float(sol.t[-1])),
        _horospherical(_linear_jet(c, d)),
        _graph(_profile_g_jet(sol)),
        sol,
    )


def make_grim_reaper(
    lam: float = GrimReaperParams.lam,
    b_slope: float = 0.0,
    span: Tuple[float, float] = REAPER_SPAN_DEFAULT,
    s_range: Tuple[float, float] = (-2.0, 2.0),
) -> SurfaceFamily:
    """Translating surface: f(s) = b_slope*s and g(t) the reaper profile,
    with k = 1/(b_slope^2 + 1).

    A shift ``a`` of the profile, ``X(s, t; a) = (s, t + b*s + a, g(a + t))``,
    is this surface with ``t`` relabelled, ``X(s, t; a) = X(s, t + a; 0)``,
    so the family takes none."""
    k = 1.0 / (b_slope * b_slope + 1.0)
    sol = integrate_grim_reaper(GrimReaperParams(lam=lam, k=k), span=span)
    return SurfaceFamily(
        "grim_reaper",
        {"lam": lam, "b_slope": b_slope, "k": k},
        _check_range("s_range", s_range),
        (float(sol.t[0]), float(sol.t[-1])),
        _horospherical(_linear_jet(b_slope, 0.0)),
        _graph(_profile_g_jet(sol)),
        sol,
    )


def make_conformal_cylinder(
    a_slope: float = ConformalProfileParams.a,
    y0: float = ConformalProfileParams.y0,
    s_range: Tuple[float, float] = (-2.0, 2.0),
) -> SurfaceFamily:
    """Conformal-soliton surface generated by the collapsing conformal
    profile: first-kind construction with f(s) = a_slope*s."""
    params = ConformalProfileParams(a=a_slope, y0=y0)
    sol = integrate_conformal_profile(params)
    return SurfaceFamily(
        "conformal_cylinder",
        {"a_slope": a_slope, "y0": y0},
        _check_range("s_range", s_range),
        (float(sol.t[0]), float(sol.t[-1])),
        _horospherical(_linear_jet(a_slope, 0.0)),
        _graph(_profile_g_jet(sol)),
        sol,
    )


def _coerced(fn: Callable[[float], object]) -> Callable[[float], ScalarJet2]:
    """Jet function from a user function of one float returning a ScalarJet2
    or a (value, d1, d2) triple.  On an axis it calls ``fn`` once per node and
    stacks the jets; an error at any node propagates (:func:`_axis_jet` then
    retries node by node)."""

    def one(x: float) -> ScalarJet2:
        v = fn(x)
        if isinstance(v, ScalarJet2):
            return v
        return ScalarJet2(float(v[0]), float(v[1]), float(v[2]))

    def jet_fn(x):
        if np.ndim(x) == 0:
            return one(x)
        rows = np.array([(j.value, j.d1, j.d2) for j in map(one, x.tolist())], dtype=float)
        return ScalarJet2(*rows.T)

    return jet_fn


def make_generic_first_kind(
    f_fn: Callable[[float], object],
    g_fn: Callable[[float], object],
    s_range: Tuple[float, float],
    t_range: Tuple[float, float],
    params: Optional[dict] = None,
) -> SurfaceFamily:
    """First-kind surface from user scalar jets: X = (s, t + f(s), g(t)).

    ``f_fn``/``g_fn`` return a ScalarJet2 or a (value, d1, d2) triple.
    """
    return SurfaceFamily(
        "generic_first_kind",
        dict(params or {}),
        _check_range("s_range", s_range),
        _check_range("t_range", t_range),
        _horospherical(_coerced(f_fn)),
        _graph(_coerced(g_fn)),
    )


def make_generic_second_kind(
    f_fn: Callable[[float], object],
    b: float,
    s_range: Tuple[float, float],
    t_range: Tuple[float, float],
    params: Optional[dict] = None,
) -> SurfaceFamily:
    """Second-kind surface from a user scalar jet: X = (s, f(s) + b, t)."""
    return _second_kind_family(
        "generic_second_kind", dict(params or {}, b=b), _coerced(f_fn), b, s_range, t_range
    )


def perturb_profile(fam: SurfaceFamily, amplitude: float) -> SurfaceFamily:
    """Additively perturb the height of a first-kind family's ``beta`` by
    ``amplitude * cos(t)``, with honestly perturbed derivatives.

    The result should *fail* residual checks: it is the falsification probe
    that guards the evaluation pipeline against vacuous passes.  A
    second-kind family is refused: its ``beta`` is ``(0, 0, t)``, and
    ``(0, 0, t + amplitude * cos(t))`` is the same vertical line
    reparametrised, so the probe could not fail.
    """
    if fam.beta is _rising:
        raise ParameterError(f"family {fam.name!r} does not expose a profile to perturb")
    if not math.isfinite(amplitude):
        raise ParameterError(f"amplitude must be finite, got {amplitude!r}")
    beta = fam.beta

    def bumped(t) -> CurveJet2:
        c = beta(t)
        y, z = (ScalarJet2(c.value[..., k], c.d1[..., k], c.d2[..., k]) for k in (1, 2))
        cos, sin = amplitude * np.cos(t), amplitude * np.sin(t)
        return CurveJet2.vertical(y, ScalarJet2(z.value + cos, z.d1 - sin, z.d2 - cos))

    return replace(fam, params=dict(fam.params, perturb_amplitude=amplitude), beta=bumped)


def grid_axes(fam: SurfaceFamily, grid: GridSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Node coordinates for a grid on the family's rectangle.  Blow-up
    limited families get their ``t`` interval clipped by ``grid.margin``
    (a fraction of the extent, per side)."""
    s_lo, s_hi = fam.s_range
    t_lo, t_hi = fam.t_range
    if fam.blowup_limited and grid.margin > 0.0:
        pad = grid.margin * (t_hi - t_lo)
        t_lo += pad
        t_hi -= pad
    return np.linspace(s_lo, s_hi, grid.ns), np.linspace(t_lo, t_hi, grid.nt)


def _axis_jet(fn, nodes: np.ndarray, label: str):
    """Curve jets of ``fn`` on one grid axis, as rows of nine numbers (the
    ``value``, ``d1`` and ``d2`` slots), and per node the reason it failed
    or None.

    ``fn`` is called once on the whole axis.  If it raises a domain or
    degenerate-jet error, it is rerun node by node, so only the nodes that
    raise fail, each with its own message.  A node fails, for the first of
    these reasons, when ``fn`` raises at it (a factor curve's height that is
    not positive raises) or when its jet is not finite.
    """

    def row(x):
        c = fn(x)
        return np.concatenate(np.broadcast_arrays(c.value, c.d1, c.d2), axis=-1)

    rows = np.full((len(nodes), 9), np.nan)
    reasons: List[Optional[str]] = [None] * len(nodes)
    try:
        rows[:] = row(nodes)
    except (DomainError, DegenerateJetError):
        for k, x in enumerate(nodes.tolist()):
            try:
                rows[k] = row(x)
            except (DomainError, DegenerateJetError) as exc:
                reasons[k] = str(exc)
    for k in np.flatnonzero(~np.isfinite(rows).all(axis=1)).tolist():
        if reasons[k] is None:
            jet = tuple(rows[k].tolist())
            reasons[k] = f"axis jet at {label}={float(nodes[k])!r} is not finite: {jet}"
    return rows, reasons


def _curve(rows: np.ndarray) -> CurveJet2:
    """The curve jet whose ``value``, ``d1`` and ``d2`` slots are ``rows``."""
    return CurveJet2(rows[..., 0:3], rows[..., 3:6], rows[..., 6:9])


def sample_grid(
    fam: SurfaceFamily, grid: GridSpec
) -> Tuple[Tuple[np.ndarray, np.ndarray, SurfaceJet2], List[Tuple[float, float, str]]]:
    """Evaluate the family on the grid: ``((s, t, jet), failures)``.

    Each factor curve is evaluated in one call on its axis, and node by node
    only after that call raises (:func:`_axis_jet`), so a domain error fails
    just the axis nodes that raise it.  A grid node fails here when its ``s``
    or ``t`` axis node fails; failures are collected row-major (s varies
    slowest) as ``(s, t, reason)`` instead of aborting the sweep.  ``s`` and
    ``t`` are the axis nodes that are left, and ``jet`` is the jet on their
    product grid, with ``(len(s), len(t), 3)`` slots.  The jet of a node that
    is left can still give a residual that is not finite (its fundamental
    forms overflow); :func:`~solsurf.soliton_residuals.residual_report`
    fails those nodes.  If *every* node fails, :class:`SamplingError` is
    raised.
    """
    s_axis, t_axis = grid_axes(fam, grid)
    a_rows, s_reasons = _axis_jet(fam.alpha, s_axis, "s")
    b_rows, t_reasons = _axis_jet(fam.beta, t_axis, "t")
    s_bad = np.array([r is not None for r in s_reasons])
    t_bad = np.array([r is not None for r in t_reasons])
    failures = [
        (float(s_axis[i]), float(t_axis[j]), s_reasons[i] if s_bad[i] else t_reasons[j])
        for i, j in zip(*np.nonzero(s_bad[:, None] | t_bad[None, :]))
    ]
    if s_bad.all() or t_bad.all():
        raise SamplingError(
            f"no grid node of {fam.name!r} could be evaluated ({len(failures)} failures), "
            f"first (s, t, reason): {failures[0]}"
        )
    alpha = _curve(a_rows[~s_bad, None, :])  # (ns, 1, 3) slots: broadcasts against beta
    # |Xs x Xt| may overflow to inf, which passes the immersion check; a node
    # whose residual is then not finite fails in residual_report
    with np.errstate(over="ignore"):
        jet = product_surface_jet(alpha, _curve(b_rows[~t_bad]))
    return (s_axis[~s_bad], t_axis[~t_bad], jet), failures
