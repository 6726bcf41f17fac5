"""Profile integration against independent oracles.

The half-width of the collapsing minimal profile has a closed form through
the Euler beta function (the oracle below recomputes it rather than trusting
a hardcoded constant), the conformal profile carries a conserved quantity
that is monitored along the trajectory, and the translator profile has
hand-provable shape facts.
"""
import dataclasses
import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicHermiteSpline
from scipy.special import beta as euler_beta

from solsurf import (
    ConformalProfileParams,
    DomainError,
    GrimReaperParams,
    MinimalProfileParams,
    ParameterError,
    ProfileSolution,
    conformal_halfwidth_quadrature,
    integrate_conformal_profile,
    integrate_grim_reaper,
    integrate_minimal_profile,
    minimal_halfwidth_quadrature,
)
from solsurf import profile_odes
from solsurf.cli import main
from solsurf.profile_odes import (
    _GL_W,
    _GL_X,
    _Hermite,
    _blowup_tail,
    _closed_form,
    _dopri54,
    _gauss,
    first_integral_defect,
)
from solsurf.verify import _CONFORMAL_HALFWIDTH, _SLOPE_CAP, _symmetry_defect


# --- oracles --------------------------------------------------------------


def test_halfwidth_against_beta_function_oracle():
    """For c=0, y0=1 the half-width is r = int_0^1 g^2/sqrt(1-g^4) dg;
    substituting u = g^4 turns it into B(3/4, 1/2)/4 — an independent
    closed form not shared with the implementation's phi-substitution."""
    expected = euler_beta(0.75, 0.5) / 4.0
    assert abs(minimal_halfwidth_quadrature(0.0, 1.0) - expected) <= 1e-12


def test_halfwidth_scaling_law():
    # r(c, y0) = y0 sqrt(c^2+1) r(0, 1) exactly
    r0 = minimal_halfwidth_quadrature(0.0, 1.0)
    for c, y0 in ((1.0, 2.0), (0.5, 0.7), (3.0, 1.3)):
        want = y0 * math.sqrt(c * c + 1.0) * r0
        assert abs(minimal_halfwidth_quadrature(c, y0) - want) <= 1e-13 * want


@pytest.mark.parametrize("slope, y0", [(math.nan, 1.0), (math.inf, 1.0), (1e200, 1.0),
                                       (0.0, math.inf)])
def test_halfwidth_references_refuse_what_the_parameters_refuse(slope, y0):
    """Both half-width references refuse the parameters their profiles
    refuse, rather than hand back a NaN or an infinite half-width."""
    for reference in (minimal_halfwidth_quadrature, conformal_halfwidth_quadrature):
        with pytest.raises(ParameterError):
            reference(slope, y0)


def test_minimal_halfwidth_keeps_its_bits():
    """The parameter check adds no arithmetic to the Beta formula."""
    assert minimal_halfwidth_quadrature(0.0, 1.0).hex() == "0x1.32b95184360cbp-1"
    assert minimal_halfwidth_quadrature(1.3, 0.7).hex() == "0x1.60252d24a6bcdp-1"


def test_conformal_halfwidth_frozen_anchor():
    # verify's reference for a=0, y0=1, frozen from a 40-digit evaluation
    # of the same integral (recomputed below)
    r = _CONFORMAL_HALFWIDTH
    assert abs(conformal_halfwidth_quadrature(0.0, 1.0) - r) <= 1e-14 * r


def test_conformal_halfwidth_reference_is_the_40_digit_value():
    """verify's frozen conformal half-width is the float of the first
    integral in ``g``, ``int_0^1 dg / sqrt(C*e^{4/g}/g^4 - 1)`` with
    ``C = e^-4``, by mpmath at 40 digits; the integrand's cancellation at
    ``g = 1`` leaves an imaginary residue of ~1e-21, so the real part is
    taken."""
    import mpmath

    with mpmath.workdps(40):
        c = mpmath.exp(-4)
        r = mpmath.quad(lambda g: 1 / mpmath.sqrt(c * mpmath.exp(4 / g) / g ** 4 - 1), [0, 1])
        assert abs(mpmath.im(r)) < mpmath.mpf(10) ** -18
        assert float(mpmath.re(r)) == _CONFORMAL_HALFWIDTH


def _quad_conformal_halfwidth(a, y0):
    """The conformal half-width as scipy's adaptive ``quad`` computed it from
    the first integral in its plain form, ``g = y0*sin(phi)``."""
    p = ConformalProfileParams(a=a, y0=y0)

    def integrand(phi):
        v = p.first_integral_rhs(y0 * math.sin(phi))
        if not 0.0 < v < math.inf:  # inf toward phi = 0, rounding at pi/2
            return 0.0
        return y0 * math.cos(phi) / math.sqrt(v)

    return quad(integrand, 0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-11, limit=200)[0]


def test_conformal_halfwidth_matches_quad():
    """Gauss--Legendre on the non-cancelling integrand against adaptive
    quadrature of the plain one (largest gap measured: 1.1e-13 relative)."""
    for a in (0.0, 0.5, 1.0, 2.0):
        for y0 in (0.3, 0.5, 1.0, 2.0, 3.0):
            want = _quad_conformal_halfwidth(a, y0)
            assert abs(conformal_halfwidth_quadrature(a, y0) - want) <= 1e-12 * want


@pytest.mark.parametrize("a, y0", [(0.0, 1.0), (0.0, 2.0), (0.0, 3.0), (0.0, 10.0), (2.0, 0.3),
                                   (0.0, 0.006), (0.0, 0.01), (0.0, 0.03)])
def test_conformal_halfwidth_matches_40_digits(a, y0):
    """The conformal half-width within 1e-13 relative of
    ``integral_0^{pi/2} dt_dphi`` by mpmath at 40 digits on the ``expm1``
    form (:func:`_mp_dt_dphi`), in four panels (largest measured: 3.6e-14,
    at y0 = 10).  One 40-node rule over ``[0, pi/2]`` is 1.5e-13 off at
    y0 = 3 and 3.4e-12 at y0 = 10, where ``dt_dphi`` is flat to all orders
    at the collapse.  Near the smallest ``y0`` accepted (~0.0058, below
    which ``C`` underflows) ``dt_dphi`` peaks at ``pi/2`` with a width of
    about ``sqrt(y0)``, which the breaks at ``pi/2 - sqrt(y0)*{64, ...,
    1/16}`` resolve: the half-width is 1.28e-12 off at y0 = 0.006, within
    5e-12, and 4.61e-15 and 3.56e-15 at 0.01 and 0.03 (measured).  The
    closed form's half-width, the tail from ``y0`` and the public function
    are one value, bit for bit."""
    import mpmath

    p = ConformalProfileParams(a, y0)
    r = conformal_halfwidth_quadrature(a, y0)
    with mpmath.workdps(40):
        top, width = mpmath.pi / 2, mpmath.sqrt(mpmath.mpf(y0))
        peak = [top - width * w for w in (64, 16, 4, 1, mpmath.mpf(1) / 4, mpmath.mpf(1) / 16)]
        breaks = sorted(set(mpmath.linspace(0, top, 5)) | {x for x in peak if x > 0})
        want = mpmath.quad(_mp_dt_dphi(p), breaks)
        assert abs(r - want) <= (5e-12 if y0 < 0.01 else 1e-13) * want
    assert _closed_form(p)[0] == _blowup_tail(p, p.y0) == r


def _quad_tail(p, g_stop):
    """The blow-up tail as scipy's adaptive ``quad`` computed it, in ``g``."""

    def integrand(x):
        v = p.first_integral_rhs(x)
        return 0.0 if not np.isfinite(v) else 1.0 / math.sqrt(v)

    return quad(integrand, 0.0, g_stop, epsabs=1e-15, epsrel=1e-10, limit=200)[0]


@pytest.mark.parametrize("p", [MinimalProfileParams(0.0, 1.0), MinimalProfileParams(1.0, 2.0),
                               ConformalProfileParams(0.0, 1.0), ConformalProfileParams(2.0, 0.3)],
                         ids=repr)
def test_blowup_tail_matches_quad(p):
    # largest gaps measured: 2.0e-15 (minimal), 8.5e-14 (conformal) relative
    for g_stop in (1e-6, 1e-3, 0.05):
        want = _quad_tail(p, g_stop)
        assert abs(_blowup_tail(p, g_stop) - want) <= 1e-13 * want


@pytest.mark.parametrize("integrate, p", [(integrate_minimal_profile, MinimalProfileParams(0.0, 1.0)),
                                          (integrate_conformal_profile, ConformalProfileParams(2.0, 0.3))],
                         ids=["minimal", "conformal"])
def test_blowup_tail_of_an_array_is_the_scalar_calls_bit_for_bit(integrate, p):
    """Tails of every node height of a branch, plus heights at and above
    ``y0`` (clamped to it), come out of one array call with the bits of
    one scalar call each; a scalar height still gives a plain float, with
    the bits of the rule written out: ``phi = math.asin(g/y0)`` for the
    limit (``np.arcsin`` differs in the last bit at some of these heights),
    then below ``phi = pi/4`` one 40-term weighted sum over ``[0, phi]``,
    and above it the half-width less one over ``[phi, pi/2]``."""
    heights = np.concatenate((integrate(p).g, [p.y0, 1.5 * p.y0]))
    tails = _blowup_tail(p, heights)
    scalars = [_blowup_tail(p, g) for g in heights.tolist()]
    assert all(type(x) is float for x in scalars)
    r = _closed_form(p)[0]
    for g, tail in zip(heights.tolist(), scalars):
        phi = math.asin(min(1.0, g / p.y0))
        if phi < 0.25 * math.pi:
            half = 0.5 * phi
            assert tail == half * float((p.dt_dphi(half * (_GL_X + 1.0)) * _GL_W).sum()), g
        else:
            half = 0.5 * (0.5 * math.pi - phi)
            top = half * float((p.dt_dphi(0.5 * math.pi - half * (_GL_X + 1.0)) * _GL_W).sum())
            assert tail == r - top, g
    assert tails.shape == heights.shape and tails.tobytes() == np.array(scalars).tobytes()
    assert tails[-1] == tails[-2] == _blowup_tail(p, p.y0)


@pytest.mark.parametrize("p", [MinimalProfileParams(3.0, 0.5), ConformalProfileParams(3.0, 2.0)],
                         ids=["minimal", "conformal"])
def test_gauss_of_an_array_is_the_scalar_calls_bit_for_bit(p):
    """Each of 1,000 upper limits in one batch, and in a (20, 50) batch,
    integrates to the bits of its lone call, which is the weighted sum
    ``(values * _GL_W).sum()`` of its row (``values @ _GL_W`` sums a batch
    in another order, and ``_GL_W @ row`` differs from it in the last bit)."""
    limits = np.linspace(0.0, 0.5 * math.pi, 1000)
    batch = _gauss(p.dt_dphi, limits)
    lone = [_gauss(p.dt_dphi, b) for b in limits.tolist()]
    assert all(type(x) is float for x in lone)
    assert batch.tobytes() == np.array(lone).tobytes()
    assert _gauss(p.dt_dphi, limits.reshape(20, 50)).tobytes() == batch.tobytes()
    half = 0.5 * limits[::97, None]
    rows = p.dt_dphi(half * (_GL_X + 1.0))
    assert (half[:, 0] * (rows * _GL_W).sum(axis=1)).tobytes() == batch[::97].tobytes()


def test_gauss_legendre_rule_is_numpys():
    """The 40-point rule the module holds as literals is numpy's
    ``leggauss(40)``, every node and weight bit for bit."""
    x, w = np.polynomial.legendre.leggauss(40)
    assert _GL_X.tobytes() == x.tobytes()
    assert _GL_W.tobytes() == w.tobytes()


def test_minimal_tail_from_the_top_is_the_closed_form():
    """A minimal tail that starts at ``g = y0`` spans the whole half-width,
    which has a closed form the quadrature never sees."""
    for c, y0 in ((0.0, 1.0), (1.0, 2.0), (3.0, 0.25)):
        want = minimal_halfwidth_quadrature(c, y0)
        assert abs(_blowup_tail(MinimalProfileParams(c, y0), y0) - want) <= 1e-14 * want


@pytest.mark.parametrize("eps_g", [0.5, 0.9, 0.99, 0.999999])
def test_height_stop_near_y0_keeps_the_halfwidth(eps_g, monkeypatch):
    """A height stop just below ``y0`` leaves a tail whose integrand in ``g``
    is singular at its upper end; the blow-up must still land on the
    half-width (measured within 2e-11). At ``EPS_G = 0.999999`` the first
    step already reaches the stop, so the branch is refused; the tail from
    its only node, ``g = y0`` at ``t = 0``, is still the half-width."""
    monkeypatch.setattr(profile_odes, "EPS_G", eps_g)
    stops = r"y0 = 1.0 .* EPS_G = 0.999999 or \|g'\| >= M_STOP = 1000000.0"
    for integrate, p, r in ((integrate_minimal_profile, MinimalProfileParams(0.0, 1.0),
                             minimal_halfwidth_quadrature(0.0, 1.0)),
                            (integrate_conformal_profile, ConformalProfileParams(0.0, 1.0),
                             conformal_halfwidth_quadrature(0.0, 1.0))):
        if eps_g == 0.999999:
            with pytest.raises(ParameterError, match=stops):
                integrate(p)
            assert abs(_blowup_tail(p, p.y0) - r) <= 1e-10
            continue
        sol = integrate(p)
        assert abs(sol.right_blowup_t - r) <= 1e-10
        assert abs(sol.left_blowup_t + r) <= 1e-10


# --- the collapsing profiles in closed form ---------------------------------


def _mp_dt_dphi(p):
    """``|dt/dphi| = y0*cos(phi)/|g'|`` by mpmath, ``g = y0*sin(phi)``, from
    each first integral written so that it does not cancel near ``pi/2``:
    minimal ``g'^2 = k*(y0^4/g^4 - 1) = k*cos^2*(1 + sin^2)/sin^4``, and
    conformal ``g'^2 = k*(e^E - 1)`` with ``E = 4/g - 4/y0 - 4*log(sin)``,
    whose ``4/g - 4/y0`` is ``4*cos^2/((1 + sin)*y0*sin)``."""
    import mpmath

    y0, k = mpmath.mpf(p.y0), 1 / (mpmath.mpf(p.slope) ** 2 + 1)
    if isinstance(p, MinimalProfileParams):
        return lambda phi: y0 * mpmath.sin(phi) ** 2 / mpmath.sqrt(k * (1 + mpmath.sin(phi) ** 2))

    def d(phi):
        sin, cos2 = mpmath.sin(phi), mpmath.cos(phi) ** 2
        e = 4 * cos2 / ((1 + sin) * y0 * sin) - 4 * mpmath.log(sin)
        return y0 / mpmath.sqrt(k * mpmath.expm1(e) / cos2)

    return d


@pytest.mark.parametrize("p", [cls(slope, y0) for cls in (MinimalProfileParams,
                                                          ConformalProfileParams)
                               for slope in (0.0, 3.0, 100.0) for y0 in (0.5, 2.0)], ids=repr)
def test_closed_form_matches_a_30_digit_reference(p):
    """``g`` and ``g'`` of the closed form within 1e-12 relative of a
    30-digit reference at ``t/r`` in {-0.998, -0.5, 0.05, 0.9, 0.998}, the
    ends of a family's t range included (largest measured: 5.1e-14 in
    ``g``, 2.1e-13 in ``g'``).  The reference abscissa of ``phi`` is
    ``integral_phi^{pi/2} D`` by mpmath's quadrature, and its ``phi`` one
    Newton step at 30 digits from the closed form's own, which lands within
    ~1e-25 of the root when it starts 1e-13 off."""
    import mpmath

    r, jet = _closed_form(p)
    worst = 0.0
    with mpmath.workdps(30):
        d = _mp_dt_dphi(p)
        for frac in (-0.998, -0.5, 0.05, 0.9, 0.998):
            t = frac * r
            g, gp, _ = jet(t)
            phi = mpmath.asin(mpmath.mpf(g) / p.y0)
            phi += (mpmath.quad(d, [phi, mpmath.pi / 2]) - abs(t)) / d(phi)
            want_g = p.y0 * mpmath.sin(phi)
            want_gp = -mpmath.sign(t) * p.y0 * mpmath.cos(phi) / d(phi)
            worst = max(worst, float(abs(g - want_g) / want_g), float(abs(gp - want_gp) / abs(want_gp)))
    assert worst <= 1e-12


@pytest.mark.parametrize(
    "p",
    [MinimalProfileParams(0.7, 1.0), MinimalProfileParams(100.0, 2.0),
     ConformalProfileParams(0.5, 1.3), ConformalProfileParams(100.0, 2.0)]
    + [MinimalProfileParams(c, 1.0) for c in (1e103, 1e140, 1e150)]
    + [ConformalProfileParams(a, 1.0) for a in (1e103, 1e130, 1e140, 1e150)],
    ids=repr)
def test_closed_form_gpp_is_the_odes(p):
    """``g''`` from ``D' = dt_dphi_prime`` is the ODE's ``g''`` at the same
    state, within 1e-14 relative, on both branches at the abscissae of 200
    ``phi`` on [0.05, 1.5] (largest measured: 6.6e-16), also at slopes up to
    1e150, where ``D`` passes 5.6e102, past which ``D^3`` overflows, and
    the conformal ``k*expm1(E)`` goes subnormal near the apex.  Near ``phi = 0.05``
    the conformal abscissae lie within ~1e-14 of ``r``, which pins their
    ``phi`` only to ~1e-2, or round to ``r`` itself, outside the domain, and
    are left out: every case still reaches ``phi < 0.1``."""
    r, jet = _closed_form(p)
    phi = np.linspace(0.05, 1.5, 200)
    t = r - _gauss(p.dt_dphi, phi)
    t = t[t < r]
    t = np.concatenate((-t, t))
    g, gp, gpp = jet(t)
    visited = np.arcsin(g / p.y0)
    assert visited.min() < 0.1 and visited.max() > 1.49
    assert np.max(np.abs(gpp - p.gpp(t, g, gp)) / np.abs(gpp)) <= 1e-14


def test_closed_form_queries():
    """An array query of any shape, here 300 abscissae over three chunks of
    queries, gives arrays of its shape, each element with the bits of its
    scalar call, which gives floats; the profile is even, ``t = 0`` reads
    ``(y0, 0.0)`` exactly, and ``|t| >= r``, infinite or NaN raises
    :class:`DomainError`, also from one element of an array."""
    p = ConformalProfileParams(0.3, 0.9)
    r, jet = _closed_form(p)
    t = np.linspace(-0.999 * r, 0.999 * r, 300)
    flat = jet(t)
    grid = jet(t.reshape(20, 15))
    assert all(a.shape == (20, 15) and a.tobytes() == b.tobytes() for a, b in zip(grid, flat))
    for k, x in enumerate(t.tolist()):
        one = jet(x)
        assert all(type(v) is float for v in one)
        assert one == tuple(float(a[k]) for a in flat), x
    g, gp, gpp = jet(np.concatenate((-t, t)))
    assert np.array_equal(g[:300], g[300:]) and np.array_equal(gp[:300], -gp[300:])
    assert np.array_equal(gpp[:300], gpp[300:])
    g0, gp0, _ = jet(0.0)
    assert (g0, math.copysign(1.0, gp0), gp0) == (p.y0, 1.0, 0.0)
    for bad in (r, -r, math.nextafter(r, 0.0) * 2.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="open interval"):
            jet(bad)
        with pytest.raises(DomainError, match="open interval"):
            jet(np.array([0.0, bad]))
    assert jet(math.nextafter(r, 0.0))[0] > 0.0


@pytest.mark.parametrize("cls", [MinimalProfileParams, ConformalProfileParams],
                         ids=["minimal", "conformal"])
def test_closed_form_solves_each_distinct_abscissa_once(cls, monkeypatch):
    """An axis whose ``|t|`` repeat, ``-q`` reversed then ``q``, costs the
    Newton solves of ``q`` alone: ``dt_dphi`` reads as many cells for it as
    for ``q`` plus one final read per added query (two for the conformal
    ``dt_dphi_prime``, which reads ``dt_dphi`` too).  Every value has the
    bits of its scalar call."""
    cells = []
    dt_dphi = cls.dt_dphi

    def counted(self, phi):
        cells.append(np.size(phi))
        return dt_dphi(self, phi)

    monkeypatch.setattr(cls, "dt_dphi", counted)
    r, jet = _closed_form(cls(0.3, 0.9))
    q = np.linspace(0.01 * r, 0.99 * r, 50)
    axis = np.concatenate((-q[::-1], q))
    cells.clear()
    jet(q)
    half = sum(cells)
    cells.clear()
    flat = jet(axis)
    finals = 1 if cls is MinimalProfileParams else 2
    assert sum(cells) == half + finals * q.size
    for k, x in enumerate(axis.tolist()):
        assert jet(x) == tuple(float(a[k]) for a in flat), x


@pytest.mark.parametrize("cls", [MinimalProfileParams, ConformalProfileParams],
                         ids=["minimal", "conformal"])
def test_closed_form_solves_each_query_until_it_converges(cls, monkeypatch):
    """A query's Newton steps stop when it converges, not when the slowest
    query of its chunk does: 50 distinct abscissae in one call read exactly
    the ``dt_dphi`` cells of their 50 scalar calls (iterating every query
    of a chunk until all converge read 6,200 against 5,790 minimal, 6,250
    against 5,840 conformal)."""
    cells = []
    dt_dphi = cls.dt_dphi

    def counted(self, phi):
        cells.append(np.size(phi))
        return dt_dphi(self, phi)

    monkeypatch.setattr(cls, "dt_dphi", counted)
    r, jet = _closed_form(cls(0.3, 0.9))
    q = np.linspace(0.01 * r, 0.99 * r, 50)
    jet(q)
    cells.clear()
    jet(q)
    batch = sum(cells)
    cells.clear()
    for x in q.tolist():
        jet(x)
    assert batch == sum(cells), (batch, sum(cells))


# --- minimal profile -------------------------------------------------------


def test_minimal_blowup_matches_quadrature(minimal_sol):
    r = minimal_halfwidth_quadrature(0.0, 1.0)
    assert minimal_sol.truncated is False
    assert abs(minimal_sol.right_blowup_t - r) <= 1e-6
    assert abs(minimal_sol.left_blowup_t + r) <= 1e-6


def test_minimal_blowup_matches_quadrature_offset_params(minimal_sol_c1):
    r = minimal_halfwidth_quadrature(1.0, 2.0)
    assert abs(minimal_sol_c1.right_blowup_t - r) <= 1e-6
    assert abs(minimal_sol_c1.left_blowup_t + r) <= 1e-6


def test_minimal_first_integral_monitor(minimal_sol, minimal_sol_c1):
    assert minimal_sol.conserved_max_defect <= 1e-8
    assert minimal_sol_c1.conserved_max_defect <= 1e-8
    assert np.max(np.abs(minimal_sol.node_defect)) == minimal_sol.conserved_max_defect


def test_minimal_initial_node_is_exact(minimal_sol):
    i0 = int(np.argmin(np.abs(minimal_sol.t)))
    assert minimal_sol.t[i0] == 0.0
    assert minimal_sol.g[i0] == 1.0
    assert minimal_sol.gp[i0] == 0.0


# Shape facts of a profile, as verify's shape rows state them.


def _concave(sol) -> bool:
    return bool(np.all(sol.gpp_nodes() < 0.0))


def _max_at_zero(sol) -> bool:
    g0 = sol.g[np.argmin(np.abs(sol.t))]
    return bool(g0 >= np.max(sol.g) - 1e-12 * max(1.0, g0))


def _constancy_defect(sol) -> float:
    return float(max(np.max(np.abs(sol.g - 1.0)), np.max(np.abs(sol.gp))))


def _monotone(sol) -> bool:
    """Nondecreasing, up to node-difference wobble of 1e-13 relative."""
    slack = 1e-13 * np.maximum(1.0, np.abs(sol.g[:-1]))
    return bool(np.all(np.diff(sol.g) >= -slack) and np.all(sol.gp >= -1e-13))


def _convex_then_concave(sol) -> bool:
    t, gpp = sol.t, sol.gpp_nodes()
    neg, pos = t < 0.0, t > 0.0
    return bool(np.any(neg) and np.any(pos)
                and np.all(gpp[neg] >= 0.0) and np.all(gpp[pos] <= 0.0)
                and np.any(gpp[neg] > 0.0) and np.any(gpp[pos] < 0.0)
                and np.all(gpp[t == 0.0] == 0.0))


def test_minimal_verdict(minimal_sol):
    assert _symmetry_defect(minimal_sol) <= 1e-8
    assert _concave(minimal_sol) and _max_at_zero(minimal_sol)
    assert 0.0 < np.min(minimal_sol.g) and np.max(minimal_sol.g) < math.inf
    assert minimal_sol.left_blowup_t is not None and minimal_sol.right_blowup_t is not None
    assert not minimal_sol.truncated
    assert _constancy_defect(minimal_sol) > 1e-12 and not _monotone(minimal_sol)


def test_interpolation_is_exact_at_nodes(minimal_sol):
    sol = minimal_sol
    sub = slice(1, len(sol.t) - 1, 37)
    assert np.all(sol.eval_g(sol.t[sub]) == sol.g[sub])
    assert np.all(sol.eval_gp(sol.t[sub]) == sol.gp[sub])


def test_interpolation_between_nodes_conserves(minimal_sol):
    sol = minimal_sol
    p = sol.params
    mids = 0.5 * (sol.t[:-1] + sol.t[1:])
    keep = np.abs(sol.eval_gp(mids)) <= 1e3
    g, gp = sol.eval_g(mids[keep]), sol.eval_gp(mids[keep])
    raw = gp * gp - p.first_integral_rhs(g)
    assert np.max(np.abs(raw) / np.maximum(1.0, gp * gp)) <= 1e-6


HERMITE_PROFILES = {
    "minimal": lambda: integrate_minimal_profile(MinimalProfileParams(0.0, 1.0)),
    "conformal": lambda: integrate_conformal_profile(ConformalProfileParams(0.0, 1.0)),
    "reaper-lam10": lambda: integrate_grim_reaper(GrimReaperParams(lam=10.0), (-40.0, 40.0)),
}


def _series(sol):
    """The interpolated series of a solution, ``g`` and ``g'``, each with its
    nodal slopes and its public reader."""
    return ((sol.g, sol.gp, sol.eval_g), (sol.gp, sol.gpp_nodes(), sol.eval_gp))


@pytest.mark.parametrize("name", list(HERMITE_PROFILES))
def test_hermite_matches_cubic_hermite_spline(name):
    """g and g' are scipy's CubicHermiteSpline values to within 4 eps of the
    interval's data scale ``|y_i| + |y_i+1| + h*(|d_i| + |d_i+1|)``, at
    100,001 points across the range; values at every node but the last
    (read at ``u = 1``) are exact, and scalar queries give the bits of array
    ones."""
    sol = HERMITE_PROFILES[name]()
    q = np.linspace(sol.t[0], sol.t[-1], 100001)
    i = np.clip(np.searchsorted(sol.t, q, side="right") - 1, 0, len(sol.t) - 2)
    h = np.diff(sol.t)[i]
    for y, dydx, public in _series(sol):
        want = CubicHermiteSpline(sol.t, y, dydx)(q)
        scale = np.abs(y[i]) + np.abs(y[i + 1]) + h * (np.abs(dydx[i]) + np.abs(dydx[i + 1]))
        got = public(q)
        assert np.all(np.abs(got - want) <= 4.0 * np.finfo(float).eps * scale)
        assert np.array_equal(public(sol.t[:-1]), y[:-1])
        assert [public(float(x)) for x in q[::9973]] == got[::9973].tolist()


def _exact_cubic(t, y, d, q):
    """The Hermite cubic through the float data, at ``q``, in exact rational
    arithmetic."""
    i = min(max(int(np.searchsorted(t, q, side="right")) - 1, 0), len(t) - 2)
    x0, x1, y0, y1, d0, d1 = map(Fraction, (t[i], t[i + 1], y[i], y[i + 1], d[i], d[i + 1]))
    h, dy = x1 - x0, y1 - y0
    u = (Fraction(q) - x0) / h
    return y0 + u * (h * d0 + u * (3 * dy - 2 * h * d0 - h * d1 + u * (h * d0 + h * d1 - 2 * dy)))


@pytest.mark.parametrize("integrate", [
    lambda: integrate_minimal_profile(MinimalProfileParams(c=0.7)),
    lambda: integrate_grim_reaper(GrimReaperParams(lam=0.5), (-50.0, 50.0)),
    lambda: integrate_conformal_profile(ConformalProfileParams(a=0.3)),
], ids=["minimal", "reaper", "conformal"])
def test_hermite_is_no_less_accurate_than_scipy(integrate):
    """Against the same cubics in exact arithmetic at 1,000 random points,
    the interpolant's largest error in g and in g' is no larger than
    scipy's CubicHermiteSpline's."""
    sol = integrate()
    q = np.random.default_rng(7).uniform(sol.t[0], sol.t[-1], 1000)
    for y, dydx, public in _series(sol):
        exact = [_exact_cubic(sol.t, y, dydx, x) for x in q.tolist()]

        def worst(values):
            return max(abs(Fraction(v) - e) for v, e in zip(values.tolist(), exact))

        assert worst(public(q)) <= worst(CubicHermiteSpline(sol.t, y, dydx)(q))


@pytest.mark.parametrize("which", ["minimal", "reaper"])
def test_jet_is_the_three_readers_bit_for_bit(which, minimal_sol, reaper_sol):
    """``jet(q)`` is ``(g, g', g'')`` as three separate reads would give it:
    ``g`` and ``g'`` each from its own interpolant call and ``g''`` from the
    ODE at the state of a third, for an array ``q`` (nodes and points
    between them) and, as floats, for each scalar in it."""
    sol = {"minimal": minimal_sol, "reaper": reaper_sol}[which]
    q = np.concatenate((sol.t[::7], np.linspace(sol.t[0], sol.t[-1], 101)))
    want = (sol._hermite(q)[0], sol._hermite(q)[1], sol.params.gpp(q, *sol._hermite(q)))
    got = sol.jet(q)
    assert all(a.shape == q.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))
    assert [a.tobytes() for a in got] == [sol.eval_g(q).tobytes(), sol.eval_gp(q).tobytes(),
                                          sol.eval_gpp(q).tobytes()]
    for k, x in enumerate(q.tolist()):
        one = sol.jet(x)
        assert all(type(v) is float for v in one)
        assert one == tuple(float(a[k]) for a in want), x


def test_eval_makes_one_interval_search_per_query(minimal_sol, monkeypatch):
    """Each reader makes one interpolant call per query array: jet and
    eval_gpp read g and g' from the same one."""
    calls = []
    call = _Hermite.__call__

    def counted(self, q):
        calls.append(np.shape(q))
        return call(self, q)

    monkeypatch.setattr(_Hermite, "__call__", counted)
    q = np.linspace(-0.5, 0.5, 11)
    for name in ("jet", "eval_g", "eval_gp", "eval_gpp"):
        calls.clear()
        getattr(minimal_sol, name)(q)
        assert calls == [(11,)], name


def test_eval_outside_range_raises(minimal_sol):
    with pytest.raises(DomainError):
        minimal_sol.eval_g(minimal_sol.t[-1] + 0.1)
    with pytest.raises(DomainError):
        minimal_sol.eval_gp(minimal_sol.t[0] - 0.1)
    with pytest.raises(DomainError):
        minimal_sol.jet(minimal_sol.t[-1] + 0.1)


@pytest.mark.parametrize("name", ["jet", "eval_g", "eval_gp", "eval_gpp"])
@pytest.mark.parametrize("query", [math.nan, [0.1, math.nan]], ids=["scalar", "array"])
def test_eval_refuses_nan(minimal_sol, name, query):
    """NaN lies outside every node range, so a query holding one raises
    instead of returning NaN."""
    with pytest.raises(DomainError, match="outside the integrated range"):
        getattr(minimal_sol, name)(np.array(query) if isinstance(query, list) else query)


def test_raw_defect_responds_to_perturbation():
    # the monitor must not be identically zero by construction
    p = MinimalProfileParams(c=0.0, y0=1.0)
    assert abs(first_integral_defect(p, 1.0, 0.0)) <= 1e-15
    assert abs(first_integral_defect(p, 1.001, 0.0)) > 1e-4
    pc = ConformalProfileParams(a=0.0, y0=1.0)
    assert abs(first_integral_defect(pc, 1.0, 0.0)) <= 1e-15
    assert abs(first_integral_defect(pc, 1.0, 0.1)) > 1e-3


def test_stop_threshold_override(monkeypatch):
    monkeypatch.setattr(profile_odes, "M_STOP", 1e3)
    sol = integrate_minimal_profile(MinimalProfileParams(c=0.0, y0=1.0))
    r = minimal_halfwidth_quadrature(0.0, 1.0)
    assert abs(sol.right_blowup_t - r) <= 1e-6
    assert np.max(np.abs(sol.gp)) <= 1.01e3


# --- conformal profile -----------------------------------------------------


def test_conformal_constant_reconstructed_exactly():
    p = ConformalProfileParams(a=0.0, y0=1.0)
    assert p.C == math.exp(-4.0)


def test_conformal_blowup_and_monitor(conformal_sol):
    r = conformal_halfwidth_quadrature(0.0, 1.0)
    assert abs(conformal_sol.right_blowup_t - r) <= 1e-6
    assert abs(conformal_sol.left_blowup_t + r) <= 1e-6
    assert conformal_sol.conserved_max_defect <= 1e-8


def test_conformal_verdict(conformal_sol):
    assert _symmetry_defect(conformal_sol) <= 1e-8
    assert _concave(conformal_sol) and _max_at_zero(conformal_sol)
    assert conformal_sol.left_blowup_t is not None and conformal_sol.right_blowup_t is not None


def test_conformal_collapses_faster_than_minimal(minimal_sol, conformal_sol):
    # the conformal drift strengthens the pull toward the boundary
    assert conformal_sol.right_blowup_t < minimal_sol.right_blowup_t


# --- translator profile ----------------------------------------------------


def test_reaper_constant_solution(reaper_const_sol):
    assert _constancy_defect(reaper_const_sol) <= 1e-12
    assert np.all(reaper_const_sol.g == 1.0)
    assert np.all(reaper_const_sol.gp == 0.0)
    assert not reaper_const_sol.truncated


def _two_node_solution(params, truncated=False):
    return ProfileSolution(params, np.array([0.0, 1.0]), np.array([1.0, 0.5]), np.zeros(2),
                           truncated)


def test_events_state_the_blowup_once():
    """Each blow-up abscissa is derived from its own end node, truncated or
    not; neither has a setter, and no field of the frozen solution can be
    assigned."""
    sol = _two_node_solution(MinimalProfileParams())
    assert sol.right_blowup_t == 1.0 + _blowup_tail(sol.params, 0.5)
    assert sol.left_blowup_t == 0.0 - _blowup_tail(sol.params, 1.0)
    assert _two_node_solution(sol.params, truncated=True).left_blowup_t == sol.left_blowup_t
    assert _two_node_solution(GrimReaperParams()).left_blowup_t is None
    assert ProfileSolution.left_blowup_t.fset is None
    for name in ("params", "t", "truncated", "node_defect", "right_blowup_t"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sol, name, None)


def test_each_blowup_is_read_from_its_own_end(monkeypatch):
    """A collapsing profile whose two ends differ, as one stepped on both
    branches would, reads each blow-up abscissa from its own end node: the
    left one ``t_0 - tail(g_0)``, the right one ``t_last + tail(g_last)``,
    from one tail call on both end heights, read once."""
    tail, heights = _blowup_tail, []
    monkeypatch.setattr(profile_odes, "_blowup_tail",
                        lambda p, g: heights.append(g.tolist()) or tail(p, g))
    p = MinimalProfileParams()
    sol = ProfileSolution(p, [-0.5, 0.0, 0.25], [0.25, 1.0, 0.75], [3.0, 0.0, -1.0], False)
    want = (-0.5 - tail(p, 0.25), 0.25 + tail(p, 0.75))
    for _ in range(2):
        assert (sol.left_blowup_t, sol.right_blowup_t) == want
    assert heights == [[0.25, 0.75]]


def test_solution_copies_the_arrays_it_is_given():
    """The stored arrays are read-only copies: the caller's stay writable,
    and writing to them leaves the solution as it was.  The derived monitor
    is read-only too."""
    t, g, gp = np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.zeros(2)
    sol = ProfileSolution(GrimReaperParams(), t, g, gp, False)
    for mine, stored in ((t, sol.t), (g, sol.g), (gp, sol.gp)):
        assert mine.flags.writeable and not stored.flags.writeable and stored is not mine
        mine += 5.0
    assert sol.t.tolist() == [0.0, 1.0] and sol.g.tolist() == [1.0, 2.0]
    assert sol.gp.tolist() == sol.node_defect.tolist() == [0.0, 0.0]
    assert not sol.node_defect.flags.writeable


@pytest.mark.parametrize("t, g, message", [
    ([0.0], [1.0], "a profile solution needs at least two nodes"),
    ([0.0, 0.0], [1.0, 1.0], "profile nodes must be strictly increasing in t"),
    ([0.0, 1.0], [1.0, 0.0], "profile nodes must have positive g"),
])
def test_solution_refuses_malformed_nodes(t, g, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        ProfileSolution(GrimReaperParams(), t, g, np.zeros(len(t)), False)


@pytest.mark.parametrize("name", ["node_defect", "right_blowup_t"])
def test_derived_values_are_not_constructor_arguments(name):
    with pytest.raises(TypeError):
        ProfileSolution(GrimReaperParams(), [0.0, 1.0], [1.0, 1.0], [0.0, 0.0], False,
                        **{name: None})


def test_reaper_shape(reaper_sol):
    assert _monotone(reaper_sol) and reaper_sol.g[-1] > reaper_sol.g[0]
    assert _convex_then_concave(reaper_sol)
    assert not _concave(reaper_sol) and _constancy_defect(reaper_sol) > 1e-12
    assert not _symmetry_defect(reaper_sol) <= 1e-8
    assert 0.0 < np.min(reaper_sol.g) and np.max(reaper_sol.g) < math.inf
    assert (reaper_sol.right_blowup_t, reaper_sol.truncated) == (None, False)


def test_reaper_inflection_exactly_at_zero(reaper_sol):
    i0 = int(np.argmin(np.abs(reaper_sol.t)))
    assert reaper_sol.t[i0] == 0.0
    assert reaper_sol.gpp_nodes()[i0] == 0.0
    assert reaper_sol.eval_gpp(0.0) == 0.0


def test_reaper_bounds(reaper_sol):
    g_lo = reaper_sol.eval_g(-50.0)
    g_hi = reaper_sol.eval_g(50.0)
    assert 0.0 < 0.9 * g_lo <= np.min(reaper_sol.g)
    assert np.max(reaper_sol.g) <= 1.1 * g_hi < math.inf


def test_reaper_endpoint_regression(reaper_sol):
    # frozen from an earlier run of the same configuration; guards against
    # silent integrator drift
    assert abs(reaper_sol.eval_g(-50.0) - 0.6707784184440485) <= 1e-9
    assert abs(reaper_sol.eval_g(50.0) - 1.5644024479105498) <= 1e-9


def test_reaper_has_no_conserved_monitor(reaper_sol):
    assert reaper_sol.conserved_max_defect == 0.0
    assert np.all(reaper_sol.node_defect == 0.0)


def _reaper_oracle(p, end, method, **kw):
    """Reference translator profile from 0 to ``end``, integrated in the
    original ``(g, g')`` variables, where the equation is stiff."""

    def rhs(v, y):
        return (y[1], p.gpp(v, y[0], y[1]))

    return solve_ivp(rhs, (0.0, end), [1.0, p.lam], method=method, **kw)


# (lam, k, span) -> bounds on |g - oracle| and |g' - oracle| at the nodes and
# on a dense grid through the interpolants.  Each bound sits below the error
# of the (g, g') RK45 integration at rtol 1e-10, atol 1e-12, measured against
# the same oracle: nodes g 6.1e-12, 2.2e-11, 1.8e-9, 9.6e-11; g' 8.8e-12,
# 2.4e-11, 3.5e-10, 5.0e-11; dense g 1.3e-8, 1.1e-8, 2.4e-8, 1.1e-8;
# g' 5.1e-8, 1.1e-7, 5.1e-7, 1.7e-7.
REAPER_ORACLE_BOUNDS = {
    (0.5, 1.0, (-50.0, 50.0)): (5e-12, 5e-12, 1e-8, 5e-8),
    (1.0, 1.0, (-50.0, 50.0)): (2e-11, 2e-11, 1e-8, 1e-7),
    (10.0, 1.0, (-40.0, 40.0)): (1e-9, 3e-10, 2e-8, 5e-7),
    (1.5, 0.7, (-4.0, 6.0)): (5e-11, 5e-11, 1e-8, 1e-7),
}


@pytest.mark.parametrize("case", list(REAPER_ORACLE_BOUNDS),
                         ids=lambda c: f"lam{c[0]:g}-k{c[1]:g}")
def test_reaper_matches_oracle(case):
    lam, k, span = case
    p = GrimReaperParams(lam=lam, k=k)
    sol = integrate_grim_reaper(p, span=span)
    node_g, node_gp, dense_g, dense_gp = REAPER_ORACLE_BOUNDS[case]
    for end, nodes in ((span[0], sol.t <= 0.0), (span[1], sol.t >= 0.0)):
        ref = _reaper_oracle(p, end, "DOP853", rtol=1e-13, atol=1e-15, dense_output=True).sol
        g_ref, gp_ref = ref(sol.t[nodes])
        assert np.max(np.abs(sol.g[nodes] - g_ref)) <= node_g
        assert np.max(np.abs(sol.gp[nodes] - gp_ref)) <= node_gp
        q = np.linspace(0.0, end, 4001)
        g_ref, gp_ref = ref(q)
        assert np.max(np.abs(sol.eval_g(q) - g_ref)) <= dense_g
        assert np.max(np.abs(sol.eval_gp(q) - gp_ref)) <= dense_gp


@pytest.mark.parametrize("lam", [0.01, 0.5, 2.0, 6.0, 10.0])
def test_reaper_shape_across_lambda(lam):
    sol = integrate_grim_reaper(GrimReaperParams(lam=lam, k=1.0), span=(-40.0, 40.0))
    assert _monotone(sol) and _convex_then_concave(sol) and not sol.truncated
    assert list(sol.gp[sol.t == 0.0]) == [lam] and np.all((sol.gp >= 0.0) & (sol.gp <= lam))


def test_reaper_steep_long_span_finishes():
    """lam = 50 on span -100:100 is stiff in (g, g'): RK45 there takes
    ~650k steps.  The left tail sinks to g ~ 0.068, which a stiff solver
    with the analytic Jacobian resolves in a few hundred steps."""
    p = GrimReaperParams(lam=50.0, k=1.0)
    sol = integrate_grim_reaper(p, span=(-100.0, 100.0))
    assert len(sol.t) < 4000 and not sol.truncated

    def jac(v, y):
        g, gp = y
        return [[0.0, 1.0],
                [4.0 * v * gp * (p.k + gp * gp) / g ** 3, -2.0 * v * (p.k + 3.0 * gp * gp) / (g * g)]]

    ref = _reaper_oracle(p, -100.0, "LSODA", jac=jac, rtol=1e-12, atol=1e-14)
    assert ref.status == 0
    assert abs(np.min(sol.g) - ref.y[0][-1]) <= 1e-10


def test_reaper_one_sided_span():
    sol = integrate_grim_reaper(GrimReaperParams(lam=0.5, k=1.0), span=(0.0, 3.0))
    assert sol.t[0] == 0.0 and sol.t[-1] == 3.0


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.just(0.0), st.floats(1e-3, 1e6)), st.floats(0.1, 10.0),
       st.floats(1e-310, 1e3),
       st.sampled_from(["right", "left", "both", "lopsided-left", "lopsided-right"]))
@example(0.5, 1.0, 1e-310, "both")
@example(1e6, 1.0, 1e-300, "right")
@example(0.5, 1.0, 1e-150, "left")
@example(1e-3, 10.0, 1e-310, "lopsided-left")
def test_reaper_short_spans_have_finite_profiles(lam, k, r, shape):
    """However short the span, g, g' and g'' are finite across it: no
    coefficient of the interpolant divides by a node gap, which on a branch
    of length r can be one ulp of r."""
    p = GrimReaperParams(lam=lam, k=k)
    span = {"right": (0.0, r), "left": (-r, 0.0), "both": (-r, r),
            "lopsided-left": (-r, 1e-3 * r), "lopsided-right": (-1e-3 * r, r)}[shape]
    sol = integrate_grim_reaper(p, span)
    q = np.linspace(sol.t[0], sol.t[-1], 9)
    for name in ("eval_g", "eval_gp", "eval_gpp"):
        assert np.isfinite(getattr(sol, name)(q)).all(), name


@pytest.mark.parametrize("span", [(0.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf),
                                  (math.nan, 1.0), (-1.0, math.nan)])
def test_reaper_refuses_an_infinite_span(span):
    with pytest.raises(ParameterError, match="span must be finite"):
        integrate_grim_reaper(GrimReaperParams(), span)


@pytest.mark.parametrize("span, reason", [((0.0, 0.0), "span must be increasing"),
                                          ((2.0, 1.0), "span must be increasing"),
                                          ((1.0, 2.0), "span must contain 0")])
def test_reaper_span_refusal_names_its_reason(span, reason):
    """A finite span is refused first for not increasing, then for missing
    0, each by its own message: an empty or reversed span does not read as
    one that misses 0."""
    with pytest.raises(ParameterError, match=f"^{reason}, got {re.escape(repr(span))}$"):
        integrate_grim_reaper(GrimReaperParams(), span)


# --- the stepper against scipy's RK45 --------------------------------------


def _collapse_case(p, end=None):
    """Right-hand side, initial state, branch ends, whether the speed stop
    applies, and tolerances of integrate_minimal_profile /
    integrate_conformal_profile, whose branch steps toward ``+inf``."""
    end = math.inf if end is None else end
    return p.system(), (p.y0, 0.0), (end, -end), True, (1e-10, 1e-12)


def _reaper_case(p, span=(-40.0, 40.0)):
    """The same for integrate_grim_reaper on ``(g, w)``, ``g' = lam*e^w``:
    the height stop alone."""
    return p.system(), (1.0, 0.0), (span[1], span[0]), False, (1e-12, 1e-13)


def _height_event(t, y):
    return y[0] - profile_odes.EPS_G


def _speed_event(t, y):
    return profile_odes.M_STOP * profile_odes.M_STOP - y[1] * y[1]


for _event in (_height_event, _speed_event):
    _event.terminal, _event.direction = True, -1


def _rk45(rhs, ic, end, speed_stop, rtol, atol):
    """scipy's RK45 on the same problem, with the stepper's stops as
    terminal events: ``t_events[0]`` is the height stop's, ``[1]`` the
    speed stop's.  The events read ``EPS_G`` and ``M_STOP`` when called, as
    the stepper reads them when a branch starts."""
    events = [_height_event, _speed_event] if speed_stop else [_height_event]
    return solve_ivp(lambda t, y: rhs(t, y[0], y[1]), (0.0, end), ic, method="RK45",
                     rtol=rtol, atol=atol, events=events)


# case -> (stepper inputs, what ends the branches, the public integration
# whose eval_g is compared at the oracle's nodes).  Parameters span the
# benchmark's profile ranges (c in [0, 3], a in [0, 2], y0 in [0.25, 2],
# reaper lambda in [2, 10] on -40:40) and lambda 0 and 0.5.  A case named in
# CASE_STOPS runs with those module stops set.
_MIN, _CONF = MinimalProfileParams, ConformalProfileParams
_HEIGHT_ONLY = {"EPS_G": 1e-3, "M_STOP": math.inf}
CASE_STOPS = {"minimal-height": _HEIGHT_ONLY, "conformal-floor": _HEIGHT_ONLY}
STEPPER_CASES = {
    "minimal-speed": (_collapse_case(_MIN(0.0, 1.0)), "speed",
                      lambda: integrate_minimal_profile(_MIN(0.0, 1.0))),
    "minimal-corner": (_collapse_case(_MIN(3.0, 0.25)), "speed",
                       lambda: integrate_minimal_profile(_MIN(3.0, 0.25))),
    "minimal-height": (_collapse_case(_MIN(1.0, 2.0)), "height",
                       lambda: integrate_minimal_profile(_MIN(1.0, 2.0))),
    "minimal-horizon": (_collapse_case(_MIN(1.5, 1.2), end=1.0), "horizon", None),
    "conformal-speed": (_collapse_case(_CONF(2.0, 0.3)), "speed",
                        lambda: integrate_conformal_profile(_CONF(2.0, 0.3))),
    "conformal-horizon": (_collapse_case(_CONF(0.0, 1.0), end=0.25), "horizon", None),
    # |g'| blows up before g reaches 1e-3: the step floor ends both branches
    "conformal-floor": (_collapse_case(_CONF(0.0, 1.0)), "floor",
                        lambda: integrate_conformal_profile(_CONF(0.0, 1.0))),
    "reaper-lam0": (_reaper_case(GrimReaperParams(lam=0.0)), "horizon",
                    lambda: integrate_grim_reaper(GrimReaperParams(lam=0.0), (-40.0, 40.0))),
    "reaper-lam0.5": (_reaper_case(GrimReaperParams(lam=0.5)), "horizon",
                      lambda: integrate_grim_reaper(GrimReaperParams(lam=0.5), (-40.0, 40.0))),
    "reaper-lam10": (_reaper_case(GrimReaperParams(lam=10.0)), "horizon",
                     lambda: integrate_grim_reaper(GrimReaperParams(lam=10.0), (-40.0, 40.0))),
}


def _set_stops(monkeypatch, stops):
    for name, value in stops.items():
        monkeypatch.setattr(profile_odes, name, value)


@pytest.mark.parametrize("case", list(STEPPER_CASES))
def test_stepper_matches_rk45(case, monkeypatch):
    """The in-house Dormand--Prince loop takes scipy's RK45 steps: the same
    nodes per branch, up to rounding, and the same status.  A branch that a
    stop ends holds scipy's nodes without the event point scipy appends, and
    its last node lies before that event (at most 1.1e-10 before it,
    measured).  numpy's BLAS sums the stages and the error norm with fused
    multiply-adds, which Python floats cannot, so step sizes differ in the
    last bits and the nodes drift (up to 2.7e-6 measured, on the reaper's
    lambda = 0.5 right branch); scipy's own nodes there move by 5.3e-6 when
    g(0) moves by one ulp.

    The reaper's slope ``g' = lam*e^w`` decays outward, and past the node
    where ``|g'|*|end - t| < eps*g`` the rest of the branch cannot move
    ``g`` by a rounding unit.  In that flat tail ``w`` is a quadratic in
    ``v``, which the 5th-order pair steps exactly, so each step's error
    estimate is rounding noise and so is its size: scipy's own tail nodes
    move by up to 0.6 when g(0) moves by one ulp (0.42 apart from ours,
    measured, on the lambda = 0.5 right branch).  Tail nodes, every node of
    lambda = 0 included, are compared by count and status alone."""
    _set_stops(monkeypatch, CASE_STOPS.get(case, {}))
    (rhs, ic, ends, speed_stop, tol), ends_by, public = STEPPER_CASES[case]
    refs = [_rk45(rhs, ic, end, speed_stop, *tol) for end in ends]
    stopped = ends_by in ("speed", "height")
    nodes = [(ref.t[:-1], ref.y[:, :-1]) if stopped else (ref.t, ref.y) for ref in refs]
    for end, ref, (ref_t, ref_y) in zip(ends, refs, nodes):
        t, _, _, status = _dopri54(rhs, *ic, end, speed_stop, *tol)
        assert (len(t), status) == (len(ref_t), ref.status)
        drift = np.abs(np.array(t) - ref_t)
        if case.startswith("reaper"):
            slope = np.array([rhs(0.0, g, w)[0] for g, w in ref_y.T])
            drift = drift[slope * np.abs(end - ref_t) >= np.finfo(float).eps * ref_y[0]]
        assert np.max(drift, initial=0.0) <= 1e-5
        if ends_by == "horizon":
            assert status == 0 and t[-1] == end
        elif ends_by == "floor":
            assert status == -1 and abs(t[-1] - ref_t[-1]) <= 1e-12
        else:
            hit = ref.t_events[0 if ends_by == "height" else 1]
            assert status == 1 and len(hit) == 1 and ref.t[-1] == hit[0]
            assert 0.0 < (hit[0] - t[-1]) * math.copysign(1.0, end) <= 1e-9
    if public is not None:
        sol = public()
        for ref_t, ref_y in nodes:
            # The oracle's last node may sit an ulp past the solution's.
            # Where |g'| ~ 1e6 an ulp of t is worth ~1e-9 in g, so g is
            # compared where |g'| <= _SLOPE_CAP, as the symmetry check does.
            q = np.clip(ref_t, sol.t[0], sol.t[-1])
            keep = np.abs(sol.eval_gp(q)) <= _SLOPE_CAP
            assert np.max(np.abs(sol.eval_g(q[keep]) - ref_y[0][keep])) <= 1e-9


def _assert_mirrors_the_stepper(sol, rhs, ic, ends, speed_stop, tol):
    """Each half of the collapsing profile ``sol`` holds, bit for bit, the
    nodes :func:`_dopri54` steps from ``t = 0`` toward its end: the right
    half as stored, the left half read from the centre outward.  The centre
    node is shared, so a ``-0.0`` there fails too.  Each blow-up abscissa is
    its own stepped branch's, and the node defect is even."""
    halves = [_dopri54(rhs, *ic, end, speed_stop, *tol) for end in ends]
    n = len(halves[0][0])
    assert len(sol.t) == 2 * n - 1 and len(halves[1][0]) == n
    for (t, g, gp, status), half, blowup, side in zip(
            halves, (slice(n - 1, None), slice(n - 1, None, -1)),
            (sol.right_blowup_t, sol.left_blowup_t), (1.0, -1.0)):
        for stepped, stored in ((t, sol.t), (g, sol.g), (gp, sol.gp)):
            assert np.array(stepped).tobytes() == stored[half].tobytes()
        assert sol.truncated == (status != 1)
        want = (t[-1] + side * _blowup_tail(sol.params, g[-1])).hex()
        assert (None if blowup is None else blowup.hex()) == want
    assert sol.node_defect[n - 1::-1].tobytes() == sol.node_defect[n - 1:].tobytes()


@pytest.mark.parametrize("case", [c for c, (_, _, public) in STEPPER_CASES.items()
                                  if public is not None and not c.startswith("reaper")])
def test_left_half_is_the_stepped_left_branch(case, monkeypatch):
    """The collapsing profiles step only their right branch and mirror it;
    the mirror must be what stepping toward ``-inf`` gives, including
    a branch that ends truncated at its step floor."""
    _set_stops(monkeypatch, CASE_STOPS.get(case, {}))
    stepper, _, public = STEPPER_CASES[case]
    _assert_mirrors_the_stepper(public(), *stepper)


_STOPS = [{}, {"M_STOP": 1e3}, _HEIGHT_ONLY]
# The benchmark's ranges of the collapsing profiles' parameters.
_COLLAPSING = st.one_of(st.builds(_MIN, st.floats(0.0, 3.0), st.floats(0.25, 2.0)),
                        st.builds(_CONF, st.floats(0.0, 2.0), st.floats(0.25, 2.0)))
# Slopes up to 100, where a step cap of y0/20 used to bind.
_STEEP = st.one_of(st.builds(_MIN, st.floats(3.0, 100.0), st.floats(0.25, 2.0)),
                   st.builds(_CONF, st.floats(2.0, 100.0), st.floats(0.25, 2.0)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_COLLAPSING, _STEEP), st.sampled_from(_STOPS))
def test_mirror_matches_the_stepper_across_parameters(p, stop):
    """The same over the benchmark's parameter ranges and slopes up to 100,
    with each stop set the stepper cases use: ends by speed, by height, and
    at the floor."""
    integrate = integrate_minimal_profile if isinstance(p, _MIN) else integrate_conformal_profile
    with pytest.MonkeyPatch.context() as mp:
        _set_stops(mp, stop)
        _assert_mirrors_the_stepper(integrate(p), *_collapse_case(p))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_COLLAPSING, _STEEP), st.sampled_from(_STOPS))
@example(_CONF(0.0, 1.0), {})
def test_every_node_lies_before_the_stops(p, stop):
    """A branch ends at its last node before a stop, so every node of a
    collapsing profile, at the benchmark's slopes and up to 100, has
    ``g > EPS_G`` and ``|g'| < M_STOP``.  The
    example is the conformal default, whose last node would read
    ``|g'| = 1000000.0023743`` if the branch ended on the stop itself."""
    integrate = integrate_minimal_profile if isinstance(p, _MIN) else integrate_conformal_profile
    with pytest.MonkeyPatch.context() as mp:
        _set_stops(mp, stop)
        sol = integrate(p)
        assert np.all(sol.g > profile_odes.EPS_G)
        assert np.all(np.abs(sol.gp) < profile_odes.M_STOP)


def _eager(sol):
    """The monitor and the right blow-up abscissa as the integrators computed
    and stored them before the solution derived them."""
    p, t, g, gp = sol.params, sol.t, sol.g, sol.gp
    if isinstance(p, GrimReaperParams):
        return np.zeros_like(t), None
    defect = first_integral_defect(p, g, gp) / np.maximum(1.0, gp * gp)
    return defect, t[-1] + _blowup_tail(p, g[-1])


_REAPER_CASES = st.tuples(st.builds(GrimReaperParams, st.floats(0.0, 10.0)),
                          st.tuples(st.floats(-40.0, 0.0), st.floats(1e-3, 40.0)))


@settings(max_examples=30, deadline=None)
@given(st.one_of(_COLLAPSING, _REAPER_CASES))
def test_derived_values_equal_the_eager_ones(p):
    """The derived monitor and blow-up abscissa have the bits of the
    expressions the integrators evaluated when they stored them, over the
    benchmark's collapsing parameters and reapers of lambda up to 10; a
    truncated copy has the same blow-up abscissa, and the monitor is
    read-only."""
    if isinstance(p, tuple):
        sol = integrate_grim_reaper(*p)
    elif isinstance(p, _MIN):
        sol = integrate_minimal_profile(p)
    else:
        sol = integrate_conformal_profile(p)
    defect, blowup = _eager(sol)
    assert sol.node_defect.tobytes() == defect.tobytes()
    assert (None if sol.right_blowup_t is None else sol.right_blowup_t.hex()) == (
        None if blowup is None else blowup.hex())
    assert not sol.node_defect.flags.writeable
    assert dataclasses.replace(sol, truncated=True).right_blowup_t == sol.right_blowup_t


def test_collapsing_profiles_step_one_branch(monkeypatch):
    """A collapsing profile is stepped once, toward ``+inf``; the grim
    reaper, which is not even, twice."""
    ends = []

    def counting(rhs, ya, yb, t_bound, *rest):
        ends.append(t_bound)
        return _dopri54(rhs, ya, yb, t_bound, *rest)

    monkeypatch.setattr(profile_odes, "_dopri54", counting)
    for integrate, p in ((integrate_minimal_profile, _MIN(1.0, 2.0)),
                         (integrate_conformal_profile, _CONF(2.0, 0.3))):
        ends.clear()
        integrate(p)
        assert ends == [math.inf]
    ends.clear()
    integrate_grim_reaper(GrimReaperParams(lam=0.5), (-40.0, 30.0))
    assert sorted(ends) == [-40.0, 30.0]


@pytest.mark.parametrize("slope", [0.0, 3.0, 30.0, 100.0])
@pytest.mark.parametrize("integrate,p_type", [(integrate_minimal_profile, _MIN),
                                              (integrate_conformal_profile, _CONF)],
                         ids=["minimal", "conformal"])
def test_collapsing_profiles_are_accurate_in_their_own_scale(integrate, p_type, slope):
    """The error controller alone sizes a collapsing branch's steps, and
    judged in the profile's own scale it is as accurate at a steep slope as
    at slope 0.  The minimal ODE is scale-invariant,
    ``g(t) = y0*G(t/(y0*sqrt(1+c^2)))``, so the profile's own slope is
    ``G' = sqrt(1+c^2)*g'``: the interpolant's error in ``g`` at the node
    midpoints where ``sqrt(1+slope^2)*|g'| <= _SLOPE_CAP``, against DOP853,
    is 9.1e-9 / 9.2e-9 / 9.4e-9 / 1.1e-8 minimal and 8.7e-9 / 8.7e-9 /
    8.8e-9 / 1.0e-8 conformal at slopes 0 / 3 / 30 / 100, and 9.4e-8 to
    1.5e-7 with the collapsing rtol loosened to 1e-9 (measured)."""
    p = p_type(slope, 1.0)
    sol = integrate(p)
    right = sol.t[sol.t >= 0.0]
    q = 0.5 * (right[:-1] + right[1:])
    q = q[math.sqrt(1.0 + slope * slope) * np.abs(sol.eval_gp(q)) <= _SLOPE_CAP]
    ref = solve_ivp(lambda t, y: (y[1], p.gpp(t, y[0], y[1])), (0.0, q[-1]), [p.y0, 0.0],
                    method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True).sol
    assert np.max(np.abs(sol.eval_g(q) - ref(q)[0])) <= 2e-8


@pytest.mark.parametrize("c", [1e4, 1e8])
def test_unresolvable_slopes_end_at_the_step_floor(c):
    """A minimal branch too steep to resolve ends at its step floor beside
    the collapse, within 2e-11 relative of the half-width (measured), in a
    few thousand nodes: 1,669 at c = 1e4 and 1,499 at c = 1e8, where a step
    cap of ``y0/20`` spent the whole budget (131,073 nodes).  A sweep
    refuses the profile: see ``REFUSALS`` in ``tests/test_cli.py``.  The
    profile is truncated, yet its blow-up abscissae, read from its end
    nodes, lie within 2.1e-11 relative of ``+-r`` (measured)."""
    sol = integrate_minimal_profile(MinimalProfileParams(c, 1.0))
    r = minimal_halfwidth_quadrature(c, 1.0)
    assert sol.truncated and len(sol.t) < 2000
    assert abs(sol.t[-1] - r) <= 1e-9 * r
    assert abs(sol.right_blowup_t - r) <= 1e-9 * r
    assert sol.left_blowup_t == -sol.right_blowup_t


# (c, y0) whose branch reaches a stop within a few ulp of its last node: a
# stop rule that appended the located crossing would append that node a
# second time.  These are all such cases among 2,000 log-spaced y0 in
# [1e-3, 1e3] for c in {0, 1, 3}: scipy RK45's located stop lies -2 to 3 ulp
# of t from the last node, and in the next closest case 16 ulp.  They stay
# as accuracy cases of the blow-up abscissa.
STOP_AT_LAST_NODE = [
    (0.0, 0.001256173203213155), (0.0, 0.0012648849508141065), (0.0, 0.0012736571156776364),
    (1.0, 0.0011968480581780018), (1.0, 0.0012051483770933115), (1.0, 0.0012135062599522024),
    (1.0, 0.004638025868558262), (1.0, 0.004670191266315677), (1.0, 0.014811031058413129),
    (3.0, 0.0016222024483162779), (3.0, 0.008881252900748354), (3.0, 0.05246382249742517),
]


@pytest.mark.parametrize("c,y0", STOP_AT_LAST_NODE)
def test_stop_at_last_node_ends_the_branch(c, y0):
    """The case's premise holds, so a list gone stale fails: scipy RK45's
    located stop lies within 4 ulp of the last node, on either side, since
    its nodes differ from the stepper's in the last bits.  The blow-up
    abscissa is within 2.3e-11 relative of the closed form (measured)."""
    p = MinimalProfileParams(c, y0)
    sol = integrate_minimal_profile(p)
    rhs, ic, (end, _), speed_stop, tol = _collapse_case(p)
    (hit,) = np.concatenate(_rk45(rhs, ic, end, speed_stop, *tol).t_events)
    assert abs(hit - sol.t[-1]) <= 4 * math.ulp(sol.t[-1])
    r = minimal_halfwidth_quadrature(c, y0)
    assert not sol.truncated
    assert abs(sol.right_blowup_t - r) <= 1e-9 * r
    assert abs(sol.left_blowup_t + r) <= 1e-9 * r


def test_stage_arithmetic_failures_reject_steps():
    """Python floats raise where numpy scalars gave inf or nan.  A stage that
    divides by zero or overflows must count as a rejected step, so the
    branch shrinks its step toward the bad region and ends truncated
    (status -1) instead of raising.  The right-hand sides are smooth (the
    solution is a straight line, so the slope list, the first component,
    is all 1.0) up to t = ``edge`` and fail at every t > edge.  With
    edge = 0 the first-step probe fails too."""

    def divides(edge):
        return lambda t, a, b: (1.0, 1.0 / (0.0 if t > edge else 1.0))

    def overflows(edge):
        return lambda t, a, b: (1.0, math.exp(1e3) if t > edge else 1.0)

    for make, edge in ((divides, 1.0), (overflows, 1.0), (divides, 0.0), (overflows, 0.0)):
        t, a, slope, status = _dopri54(make(edge), 0.0, 0.0, 5.0, False, 1e-10, 1e-12)
        assert status == -1
        assert edge - 1e-12 <= t[-1] <= edge
        assert np.max(np.abs(np.array(a) - t)) <= 1e-12
        assert slope == [1.0] * len(t)


def _stepped(monkeypatch, integrate, *args):
    """The ``_dopri54`` returns of one public integration, in call order."""
    runs = []

    def recording(*a):
        runs.append(_dopri54(*a))
        return runs[-1]

    with monkeypatch.context() as mp:
        mp.setattr(profile_odes, "_dopri54", recording)
        integrate(*args)
    return runs


def _fails_past(make):
    """A straight-line right-hand side that raises ``make()`` at every t > 1."""

    def rhs(t, a, b):
        return 1.0, (make() if t > 1.0 else 1.0)

    return rhs


def _zero():
    return 1.0 / 0.0


def _overflow():
    return math.exp(1e3)


def _horizon_paths(mp):
    return [_dopri54(rhs, *ic, end, speed_stop, *tol)
            for rhs, ic, ends, speed_stop, tol in (_collapse_case(_MIN(1.5, 1.2), end=1.0),
                                              _collapse_case(_CONF(0.0, 1.0), end=0.25))
            for end in ends]


def _speed_paths(mp):
    return (_stepped(mp, integrate_minimal_profile, _MIN(0.0, 1.0))
            + _stepped(mp, integrate_conformal_profile, _CONF(2.0, 0.3)))


def _height_paths(mp):
    _set_stops(mp, _HEIGHT_ONLY)
    return _stepped(mp, integrate_minimal_profile, _MIN(1.0, 2.0))


def _last_node_paths(mp):
    """The STOP_AT_LAST_NODE branches, whose stop lies within a few ulp of
    their last node."""
    return [run for c, y0 in STOP_AT_LAST_NODE
            for run in _stepped(mp, integrate_minimal_profile, _MIN(c, y0))]


def _floor_paths(mp):
    _set_stops(mp, _HEIGHT_ONLY)
    return _stepped(mp, integrate_conformal_profile, _CONF(0.0, 1.0))


def _budget_paths(mp):
    mp.setattr(profile_odes, "MAX_BRANCH_STEPS", 40)
    return (_stepped(mp, integrate_minimal_profile, _MIN(1.0, 2.0))
            + _stepped(mp, integrate_grim_reaper, GrimReaperParams(lam=0.5), (-40.0, 40.0)))


def _stage_raise_paths(mp):
    return [_dopri54(_fails_past(make), 0.0, 0.0, 5.0, False, 1e-10, 1e-12)
            for make in (_zero, _overflow)]


def _reaper_paths(mp):
    """Both directions, lambda = 0 and a one-sided span."""
    cases = ((0.5, (-40.0, 40.0)), (10.0, (-40.0, 40.0)), (0.0, (-10.0, 10.0)), (1.5, (0.0, 3.0)))
    return [run for lam, span in cases
            for run in _stepped(mp, integrate_grim_reaper, GrimReaperParams(lam=lam), span)]


# path -> (how its branches are stepped, the statuses they return, sha256 of
# the float.hex of every node's t, g and g', and each status, in order)
STEPPER_PATHS = {
    "horizon": (_horizon_paths, {0},
        "7abde2b70392db253731caef4f27af671d8e6a5d9052943df86a7f231519decd"),
    "speed-stop": (_speed_paths, {1},
        "b3fdd3c5a2d022745b8cec079adbe5d4980f621155b16fa59cb6c396abe561d9"),
    "height-stop": (_height_paths, {1},
        "3915d49fd92c6a61abd3293f1e1e855d8adb71d4a732ea06316f319f5dba558f"),
    "root-at-last-node": (_last_node_paths, {1},
        "92978baa40a7f9f61feef3cfdc910e7d896238d4186b08ebf8d2abbfddce2fb6"),
    "step-floor": (_floor_paths, {-1},
        "c6f66a33128b97d392578e493f853832b706e2935fc933e953cffc3bb825d4a6"),
    "step-budget": (_budget_paths, {-1},
        "987cea3b305b81b1c2fdcbb59d7e599b5fdbca0e418a68fbfdc6194e81140c0a"),
    "stage-raises": (_stage_raise_paths, {-1},
        "f58c8a51bd104f5df2e1cf18b3294958fc08be7285dda317dfba24be1c348755"),
    "reaper": (_reaper_paths, {0},
        "6732c8205b39dd5f1daaf86c18e1856523394d8d9423e229a7794478f797463d"),
}


@pytest.mark.parametrize("path", list(STEPPER_PATHS))
def test_stepper_bits_are_pinned(path, monkeypatch):
    """Every node ``_dopri54`` returns, and its status, on each way a
    branch can end, hashed bit for bit: a change to the stepper or to a
    right-hand side that moves one bit of one node fails here."""
    paths, statuses, digest = STEPPER_PATHS[path]
    runs = paths(monkeypatch)
    h = hashlib.sha256()
    for ts, gs, gps, status in runs:
        h.update(" ".join(float.hex(x) for x in (*ts, *gs, *gps)).encode())
        h.update(f";{status};".encode())
    assert {run[3] for run in runs} == statuses
    assert h.hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["--ode", "minimal", "--c", "1e8"],
    ["--ode", "grim-reaper", "--span", "-1e6:1e6"],
], ids=["minimal-c1e8", "reaper-span1e6"])
def test_branch_step_budget(tmp_path, argv, monkeypatch):
    """Each input asks for more steps per branch than its budget of 100:
    the minimal profile at c = 1e8 for ~750 (it meets its step floor after
    749 nodes per branch), the reaper on -1e6:1e6 for ~200 (405 nodes in
    all).  Each branch stops after 100 attempts and the profile is
    reported truncated."""
    monkeypatch.setattr(profile_odes, "MAX_BRANCH_STEPS", 100)
    out = tmp_path / "p"
    assert main(["profile", *argv, "--out", str(out)]) == 0
    events = dict(line.split("=", 1) for line in (out.parent / "p.events.txt").read_text().split())
    assert events["truncated"] == "true"
    assert int(events["nodes"]) <= 2 * 100 + 1


def test_reaper_node_count_follows_the_solution():
    """The reaper's steps are sized by the error controller alone, so its
    node count follows the solution, not the span: a span 20 times longer
    takes less than twice the nodes, and the constant solution (lambda = 0)
    takes a few nodes whatever the span.  A step cap of span/40 would give
    747 and 8,347 nodes, and 409 at lambda = 0."""
    def nodes(lam, span):
        sol = integrate_grim_reaper(GrimReaperParams(lam=lam), span)
        assert not sol.truncated
        return len(sol.t)

    assert nodes(0.5, (-1000.0, 1000.0)) < 2 * nodes(0.5, (-50.0, 50.0))
    assert nodes(0.0, (-50.0, 50.0)) < 41


# --- parameter validation ---------------------------------------------------


def test_parameter_validation(monkeypatch):
    with pytest.raises(ParameterError):
        MinimalProfileParams(c=0.0, y0=0.0)
    with pytest.raises(ParameterError):
        MinimalProfileParams(c=math.inf, y0=1.0)
    with pytest.raises(ParameterError):
        GrimReaperParams(lam=-0.1, k=1.0)
    with pytest.raises(ParameterError):
        GrimReaperParams(lam=0.0, k=0.0)
    with pytest.raises(ParameterError):
        ConformalProfileParams(a=0.0, y0=-1.0)
    with pytest.raises(ParameterError):
        integrate_grim_reaper(GrimReaperParams(lam=0.0, k=1.0), span=(1.0, 5.0))
    # a collapsing profile must keep a node past t = 0: refused where the first step
    # reaches a stop, from the height stop itself ...
    with pytest.raises(ParameterError, match=r"y0 = 1e-06 .* EPS_G = 1e-06"):
        integrate_minimal_profile(MinimalProfileParams(c=0.0, y0=1e-6))
    # ... or from the float above it
    stops = r"y0 = {!r} .* EPS_G = {!r} or \|g'\| >= M_STOP = 1000000.0"
    with pytest.raises(ParameterError, match=stops.format(1.0000000000000002e-6, 1e-6)):
        integrate_minimal_profile(MinimalProfileParams(c=0.0, y0=1.0000000000000002e-6))
    monkeypatch.setattr(profile_odes, "EPS_G", 0.5)
    with pytest.raises(ParameterError, match=r"y0 = 0.5 .* EPS_G = 0.5"):
        integrate_conformal_profile(ConformalProfileParams(a=0.0, y0=0.5))
