"""sympy as the derivation oracle of the reduced residual forms.

The surface ``X = alpha(s) * beta(t)`` is built by the group law of the
upper half-space, ``p * q = p3*q + (p1, p2, 0)``, with the factor curves'
profiles as undefined functions ``f(s)`` and ``g(t)``.  Its residuals,
cleared of the positive factor ``2*W^3``, are derived from the
definitions, and the hand-written reduced forms must equal them
identically: a reduced form that drops or rescales one term leaves a
nonzero polynomial in the jets.  The other order, ``beta * alpha``, is
another surface, derived here too, and the float pipeline, given the
factors in that order, forms its residuals with the opposite normal.

It also derives the limit verify's ``grim_reaper.linear`` row reads: the
``lambda^2`` term of the grim reaper's small-slope expansion tends to
``1/(2k)``; and the collapsing profiles' ``|dt/dphi|`` from their first
integrals, whose derivative the closed form's ``g''`` reads.

Products of two one-parameter subgroups, ``exp(u*omega) * exp(v*eta)``, are
surfaces whose rows are not translates of each other (alpha's height
varies along ``u``).  Their cleared residuals are derived in closed form,
and the float pipeline's residuals on such a product are checked against
those exact, nonzero values.  So is the translator residual along every
left-translation field ``xi_lam(X) = lam3*X + (lam1, lam2, 0)``.  An orbit
``alpha = exp(u*omega)`` times a graph ``beta = (0, t, g)`` has one minimal
ODE in ``g`` that does not read ``u``.  An ``xz``-graph ``(s, 0, f)`` times
that graph has a minimal residual whose three ``g`` coefficients never
vanish together.
"""
import mpmath
import numpy as np
import pytest
import sympy as sp

from solsurf import (
    ConformalProfileParams,
    MinimalProfileParams,
    SolitonMode,
    reduced_residual_first_kind,
    reduced_residual_second_kind,
    residual,
)
from solsurf.surface_jets import _graph, _horospherical, product_surface_jet, unit_normal

s, t = sp.symbols("s t", real=True)
f, g = sp.Function("f")(s), sp.Function("g")(t)


def _group_product(p, q):
    """``p * q = p3*q + (p1, p2, 0)`` on 3-vectors."""
    return p[2] * q + sp.Matrix([p[0], p[1], 0])


def cleared_residual(alpha, beta, mode):
    """``2*W^3`` times the ``mode`` residual of ``X = alpha * beta``, from
    ``C = Xs x Xt``, ``W^2 = C.C`` and ``2*W^3*H = l'G - 2n'F + Em'`` with
    ``l' = Xss.C``, ``n' = Xst.C`` and ``m' = Xtt.C``; ``N = C/W``."""
    X = _group_product(alpha, beta)
    Xs, Xt = X.diff(s), X.diff(t)
    C = Xs.cross(Xt)
    E, F, G, w2 = Xs.dot(Xs), Xs.dot(Xt), Xt.dot(Xt), C.dot(C)
    bend = X.diff(s, 2).dot(C) * G - 2 * X.diff(s, t).dot(C) * F + E * X.diff(t, 2).dot(C)
    X1, X2, X3 = X
    if mode is SolitonMode.MINIMAL:
        return X3 * bend + 2 * w2 * C[2]
    if mode is SolitonMode.TRANSLATOR:
        return X3 ** 2 * bend - 2 * w2 * (X1 * C[0] + X2 * C[1])
    return X3 ** 2 * bend + 2 * w2 * (X3 + 1) * C[2]


def _jet(h, x):
    return h, h.diff(x), h.diff(x, 2)


@pytest.mark.parametrize("mode", list(SolitonMode), ids=lambda m: m.value)
def test_first_kind_reduced_form_is_the_derived_one(mode):
    """``alpha = (s, f(s), 1)`` and ``beta = (0, t, g(t))``."""
    derived = cleared_residual(sp.Matrix([s, f, 1]), sp.Matrix([0, t, g]), mode)
    hand = reduced_residual_first_kind(mode, _jet(f, s), _jet(g, t), s, t)
    assert sp.expand(hand - derived) == 0


@pytest.mark.parametrize("mode", list(SolitonMode), ids=lambda m: m.value)
def test_second_kind_reduced_form_is_the_derived_one(mode):
    """``alpha = (s, f(s), 1)`` and ``beta = (0, 0, t)``."""
    derived = cleared_residual(sp.Matrix([s, f, 1]), sp.Matrix([0, 0, t]), mode)
    hand = reduced_residual_second_kind(mode, _jet(f, s), s, t)
    assert sp.expand(hand - derived) == 0


_FJET = sp.symbols("f0:3")  # f(s), f'(s) and f''(s) as plain symbols


def _in_fjet(expr):
    """``expr`` expanded, with ``f``, ``f'`` and ``f''`` replaced by ``_FJET``."""
    return sp.expand(expr.subs(f.diff(s, 2), _FJET[2]).subs(f.diff(s), _FJET[1]).subs(f, _FJET[0]))


@pytest.mark.parametrize("mode, forward", [(SolitonMode.MINIMAL, 3), (SolitonMode.TRANSLATOR, 7),
                                           (SolitonMode.CONFORMAL, 3)],
                         ids=["minimal", "translator", "conformal"])
def test_other_order_is_another_surface(mode, forward):
    """The group is not abelian, so the first-kind curves give a second
    surface, ``beta * alpha = (g*s, t + g*f(s), g)``.  Its cleared residual
    has 17 monomials in ``(s, f, f', f'')`` in every mode, against 3, 7 and
    3 for ``alpha * beta``; for an affine ``f = c*s + d`` it does not depend
    on ``s``, in any mode."""
    alpha, beta = sp.Matrix([s, f, 1]), sp.Matrix([0, t, g])
    terms = [len(sp.Poly(_in_fjet(cleared_residual(*pair, mode)), s, *_FJET).terms())
             for pair in ((beta, alpha), (alpha, beta))]
    assert terms == [17, forward]
    c, d = sp.symbols("c d", real=True)
    assert sp.expand(cleared_residual(beta, sp.Matrix([s, c * s + d, 1]), mode).diff(s)) == 0


def test_other_order_of_a_linear_f_is_the_first_kind_reparametrised():
    """For ``f = c*s``, ``beta * alpha = (s', t + c*s', g)`` with ``s' = g*s``:
    the first kind again, so each cleared residual is ``g^3`` times
    ``alpha * beta``'s, and the minimal one is ``g^3*[(1 + c^2)(g*g'' +
    2*g'^2) + 2]``, the minimal cylinder's ODE."""
    c = sp.symbols("c", real=True)
    alpha, beta = sp.Matrix([s, c * s, 1]), sp.Matrix([0, t, g])
    for mode in SolitonMode:
        swapped = cleared_residual(beta, alpha, mode)
        assert sp.expand(swapped - g ** 3 * cleared_residual(alpha, beta, mode)) == 0, mode
    ode = (1 + c ** 2) * (g * g.diff(t, 2) + 2 * g.diff(t) ** 2) + 2
    assert sp.expand(cleared_residual(beta, alpha, SolitonMode.MINIMAL) - g ** 3 * ode) == 0


def test_xz_times_yz_minimal_residual_has_no_profile_pair():
    """``alpha = (s, 0, f(s))`` times ``beta = (0, t, g(t))``, an
    ``xz``-curve times a ``yz``-curve: the cleared minimal residual is
    ``f^3*[f'^2*P + f*f''*Q + R]`` with ``P = 2(t*g' - g)^2 + g*g''*(g^2 +
    t^2)``, ``Q = g*(g - t*g')*(1 + g'^2)`` and ``R = g*g'' + 2*g'^2 + 2``,
    which read ``t`` and ``g`` alone.  The translator and conformal
    residuals are not of that form: their monomials in ``(s, f, f', f'')``
    are not among ``f^3*f'^2``, ``f^4*f''`` and ``f^3``.  ``P``, ``Q`` and
    ``R`` never vanish together: ``Q = 0`` is ``g = t*g'`` (``g > 0``), with
    ``R = 0`` it gives ``P = -2t^2*(1 + g'^2)^2 < 0`` at ``t != 0``, and at
    ``t = 0``, ``Q = g^2*(1 + g'^2) > 0``.  So a minimal product of this
    kind needs ``f'^2``, ``f*f''`` and 1 linearly dependent on its ``s``
    range."""
    alpha, beta = sp.Matrix([s, 0, f]), sp.Matrix([0, t, g])
    gp, gpp = g.diff(t), g.diff(t, 2)
    P = 2 * (t * gp - g) ** 2 + g * gpp * (g ** 2 + t ** 2)
    Q = g * (g - t * gp) * (1 + gp ** 2)
    R = g * gpp + 2 * gp ** 2 + 2
    fp, fpp = f.diff(s), f.diff(s, 2)
    minimal = cleared_residual(alpha, beta, SolitonMode.MINIMAL)
    assert sp.expand(minimal - f ** 3 * (fp ** 2 * P + f * fpp * Q + R)) == 0
    separated = {(0, 3, 2, 0), (0, 4, 0, 1), (0, 3, 0, 0)}  # f^3*f'^2, f^4*f'', f^3
    for mode in (SolitonMode.TRANSLATOR, SolitonMode.CONFORMAL):
        monomials = sp.Poly(_in_fjet(cleared_residual(alpha, beta, mode)), s, *_FJET).monoms()
        assert not set(monomials) <= separated, mode
    g0, g1 = sp.symbols("g0 g1", real=True)  # g and g' at one t

    def at(expr, height):
        """``expr`` at ``g = height``, ``g' = g1`` and the ``g''`` of ``R = 0``."""
        return expr.subs(gpp, -2 * (1 + g1 ** 2) / height).subs(gp, g1).subs(g, height)

    assert sp.simplify(at(R, g0)) == 0
    assert sp.simplify(at(Q, t * g1)) == 0
    assert sp.simplify(at(P, t * g1) + 2 * t ** 2 * (1 + g1 ** 2) ** 2) == 0
    assert sp.expand(at(Q, g0).subs(t, 0) - g0 ** 2 * (1 + g1 ** 2)) == 0


def test_float_residuals_of_the_other_order_flip_with_its_normal():
    """``product_surface_jet(beta_jet, alpha_jet)`` is ``beta * alpha`` with
    its parameters in the factors' order, ``(t, s)``, and the normal is
    ``X_t x X_s / |X_t x X_s|``: the first parameter is always the left
    factor's.  So that normal is ``-C/W`` for the derived ``C = X_s x X_t``,
    and every residual, linear in the normal, is ``-R/(2*W^3)`` of the
    derived ``R``.  At ``f = 0.3 sin s + 0.7 s``, ``g = 1 + cos(t)/5`` on 7x5
    nodes of ``[-1, 1]^2`` (``max|r|`` 0.91, 0.31 and 1.99) the float
    pipeline, built with the curve constructors the families use, matches it
    (largest gap measured: 4.4e-16, conformal); with the other sign it
    would be off by ``2*|r|``."""
    f_at = sp.Rational(3, 10) * sp.sin(s) + sp.Rational(7, 10) * s
    alpha, beta = sp.Matrix([s, f_at, 1]), sp.Matrix([0, t, 1 + sp.cos(t) / 5])
    X = _group_product(beta, alpha)
    C = X.diff(s).cross(X.diff(t))
    u, v = np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 7)[:, None]
    fj = (0.3 * np.sin(u) + 0.7 * u, 0.3 * np.cos(u) + 0.7, -0.3 * np.sin(u))
    gj = (1.0 + np.cos(v) / 5.0, -np.sin(v) / 5.0, -np.cos(v) / 5.0)
    j = product_surface_jet(_graph(v, gj), _horospherical(u, fj))
    for mode in SolitonMode:
        exact = sp.lambdify((s, t), cleared_residual(beta, alpha, mode)
                            / (2 * C.dot(C) ** sp.Rational(3, 2)), "mpmath")
        with mpmath.workdps(30):
            want = np.array([[-float(exact(mpmath.mpf(a), mpmath.mpf(b))) for a in u.tolist()]
                             for b in v.ravel().tolist()])
        assert np.max(np.abs(residual(mode, j) - want)) <= 2e-15, mode


def test_reaper_small_slope_limit_is_one_over_2k():
    """With ``g = 1 + lam*u + lam^2*v + O(lam^3)`` in the reaper's
    ``g'' = -g'*(k + g'^2)*2t/g^2``, ``g(0) = 1``, ``g'(0) = lam``, the
    ``lam`` term vanishes for ``u = sqrt(pi/k)/2*erf(sqrt(k)*t)`` and the
    ``lam^2`` term is ``v'' + 2kt*v' - 4kt*u*u'`` (the equation is
    multiplied by ``g^2``, which is 1 at order 0).  With ``v(0) = v'(0) = 0``
    that gives ``v' = e^{-kt^2}*integral_0^t 4ks*u(s) ds``, odd and >= 0 for
    t >= 0, so ``v`` is even and ``sup|v| = v(inf)``; integrated to 30
    digits, ``v(inf) = 1/(2k)`` for both of the row's ``k``."""
    lam, k, r = sp.symbols("lambda k r", positive=True)
    u = sp.sqrt(sp.pi / k) / 2 * sp.erf(sp.sqrt(k) * t)
    v = sp.Function("v")(t)
    h = 1 + lam * u + lam ** 2 * v
    hp = h.diff(t)
    cleared = sp.expand(h.diff(t, 2) * h ** 2 + hp * (k + hp ** 2) * 2 * t)
    assert sp.simplify(cleared.coeff(lam, 1)) == 0
    second = v.diff(t, 2) + 2 * k * t * v.diff(t) - 4 * k * t * u * u.diff(t)
    assert sp.simplify(cleared.coeff(lam, 2) - second) == 0
    vp = sp.exp(-k * t ** 2) * sp.integrate(4 * k * r * u.subs(t, r), (r, 0, t))
    assert sp.simplify(second.subs(v.diff(t, 2), vp.diff(t)).subs(v.diff(t), vp)) == 0
    assert vp.subs(t, 0) == 0
    with mpmath.workdps(30):
        for kk in (mpmath.mpf(1), mpmath.mpf(3) / 10):
            limit = mpmath.quad(sp.lambdify(t, vp.subs(k, kk), "mpmath"), [0, 1, 5, mpmath.inf])
            assert abs(limit - 1 / (2 * kk)) <= mpmath.mpf(10) ** -25


@pytest.mark.parametrize("cls", [MinimalProfileParams, ConformalProfileParams],
                         ids=["minimal", "conformal"])
def test_dt_dphi_prime_is_the_derivative_of_dt_dphi(cls):
    """``D = |dt/dphi| = y0*cos(phi)/sqrt(F(y0*sin(phi)))`` from the first
    integral ``g'^2 = F(g)`` (minimal ``m/g^4 - k``, conformal
    ``C*e^{4/g}/g^4 - k``), differentiated by sympy and evaluated by mpmath
    at 30 digits: at 30 ``phi`` on [0.05, 1.5] and three ``(slope, y0)``,
    ``dt_dphi`` is ``D`` and ``dt_dphi_prime`` is ``dD/dphi`` within 1e-13
    relative (largest measured: 3.6e-16 minimal, 4.5e-14 conformal, where
    ``e^E`` of an ``E`` near 80 at ``phi = 0.05`` scales the rounding of
    ``E``)."""
    phi, y0, slope = sp.symbols("phi y0 slope", positive=True)
    k = 1 / (slope ** 2 + 1)
    g = y0 * sp.sin(phi)
    if cls is MinimalProfileParams:
        rhs = y0 ** 4 * k / g ** 4 - k
    else:
        rhs = y0 ** 4 * sp.exp(-4 / y0) * k * sp.exp(4 / g) / g ** 4 - k
    d = y0 * sp.cos(phi) / sp.sqrt(rhs)
    d_num, dp_num = (sp.lambdify((phi, y0, slope), e, "mpmath") for e in (d, d.diff(phi)))
    worst = 0.0
    with mpmath.workdps(30):
        for a, h in ((0.0, 1.0), (3.0, 0.5), (100.0, 2.0)):
            p = cls(a, h)
            for x in np.linspace(0.05, 1.5, 30).tolist():
                at = (mpmath.mpf(x), mpmath.mpf(h), mpmath.mpf(a))
                for got, want in ((p.dt_dphi(x), d_num(*at)), (p.dt_dphi_prime(x), dp_num(*at))):
                    worst = max(worst, float(abs(got - want) / abs(want)))
    assert worst <= 1e-13


def _subgroup(x, w1, w2, w3):
    """``exp(x*omega)`` of the half-space group: ``(w1*phi, w2*phi, e^{w3*x})``
    with ``phi = (e^{w3*x} - 1)/w3``, or ``(w1*x, w2*x, 1)`` when ``w3 = 0``.
    It is a one-parameter subgroup: ``phi(u) + e^{w3*u}*phi(v) = phi(u + v)``."""
    if w3 == 0:
        return sp.Matrix([w1 * x, w2 * x, 1])
    phi = (sp.exp(w3 * x) - 1) / w3
    return sp.Matrix([w1 * phi, w2 * phi, sp.exp(w3 * x)])


_OMEGA = sp.symbols("omega1:4", real=True)
_ETA = sp.symbols("eta1:4", real=True)
_LAMBDA = sp.symbols("lambda1:4", real=True)
# omega3 and eta3 each symbolic or 0
_VERTICAL = pytest.mark.parametrize(
    "vertical", [(False, False), (False, True), (True, False), (True, True)],
    ids=["flat-flat", "flat-eta3", "omega3-flat", "omega3-eta3"])


def _subgroup_pair(vertical):
    """``exp(s*omega)``, ``exp(t*eta)``, ``delta = omega1*eta2 - omega2*eta1``,
    ``omega x eta``, ``Z = e^{omega3*s + eta3*t}`` and the weight
    ``2*|omega x eta|^2*e^{3*eta3*t}*e^{6*omega3*s}``, with ``omega3`` and
    ``eta3`` each symbolic or 0 as ``vertical`` says."""
    w1, w2, w3 = _OMEGA
    e1, e2, e3 = _ETA
    w3, e3 = (w3 if vertical[0] else 0), (e3 if vertical[1] else 0)
    cross = sp.Matrix([w1, w2, w3]).cross(sp.Matrix([e1, e2, e3]))
    weight = 2 * cross.dot(cross) * sp.exp(3 * e3 * t) * sp.exp(6 * w3 * s)
    return (_subgroup(s, w1, w2, w3), _subgroup(t, e1, e2, e3), w1 * e2 - w2 * e1, cross,
            sp.exp(w3 * s + e3 * t), weight)


def cleared_field_residual(alpha, beta, lam):
    """``2*W^3`` times ``X3*r_M - <xi(X), N>``, the translator residual along
    the left-translation field ``xi(X) = lam3*X + (lam1, lam2, 0)``; at
    ``lam = (0, 0, 1)``, ``xi = X`` and it is the translator residual."""
    X = _group_product(alpha, beta)
    C = X.diff(s).cross(X.diff(t))
    xi = lam[2] * X + sp.Matrix([lam[0], lam[1], 0])
    return X[2] * cleared_residual(alpha, beta, SolitonMode.MINIMAL) - 2 * C.dot(C) * xi.dot(C)


@_VERTICAL
def test_subgroup_product_residuals_are_the_derived_table(vertical):
    """With ``delta = omega1*eta2 - omega2*eta1`` and ``Z = e^{omega3*u + eta3*v}``,
    the cleared residual of ``exp(u*omega) * exp(v*eta)`` is
    ``2*delta*|omega x eta|^2*e^{3*eta3*v}*e^{6*omega3*u}`` times 1 (minimal),
    ``Z - 1`` (translator) or ``Z + 1`` (conformal), whether ``omega3`` and
    ``eta3`` are each 0 or not."""
    alpha, beta, delta, _, z, weight = _subgroup_pair(vertical)
    for mode, factor in ((SolitonMode.MINIMAL, 1), (SolitonMode.TRANSLATOR, z - 1),
                         (SolitonMode.CONFORMAL, z + 1)):
        derived = cleared_residual(alpha, beta, mode)
        assert sp.simplify(sp.expand(derived - weight * delta * factor)) == 0, mode


@_VERTICAL
def test_left_translation_translator_residual_is_the_derived_one(vertical):
    """Along ``xi_lam(X) = lam3*X + (lam1, lam2, 0)``, which generates the
    left translations, the cleared residual of ``exp(u*omega) * exp(v*eta)``
    is ``2*|omega x eta|^2*e^{3*eta3*v}*e^{6*omega3*u}*(delta*Z - <lam,
    omega x eta>)``, whether ``omega3`` and ``eta3`` are each 0 or not; at
    ``lam = (0, 0, 1)`` it is the table's translator row."""
    alpha, beta, delta, cross, z, weight = _subgroup_pair(vertical)
    lam = sp.Matrix(_LAMBDA)
    derived = cleared_field_residual(alpha, beta, lam)
    assert sp.simplify(sp.expand(derived - weight * (delta * z - cross.dot(lam)))) == 0


def test_orbit_minimal_residual_is_one_ode_in_g():
    """With ``alpha = exp(u*omega)`` and ``beta = (0, t, g(t))``, at symbolic
    ``omega``, the cleared minimal residual is ``omega1*e^{6*omega3*u}`` times
    ``g*g''*(omega1^2 + (omega2 + omega3*t)^2 + omega3^2*g^2) +
    2*((omega3*(g - t*g') - omega2*g')^2 + omega1^2*(1 + g'^2))``, one ODE in
    ``g`` that does not read ``u``: ``alpha'/alpha3 = omega`` along the
    orbit.  The translator and conformal residuals divided by it still read
    ``u``: at one exact point their ``u``-derivatives are 0.97, not 0."""
    w1, w2, w3 = _OMEGA
    alpha, beta = _subgroup(s, w1, w2, w3), sp.Matrix([0, t, g])
    gp, gpp = g.diff(t), g.diff(t, 2)
    ode = (g * gpp * (w1 ** 2 + (w2 + w3 * t) ** 2 + w3 ** 2 * g ** 2)
           + 2 * ((w3 * (g - t * gp) - w2 * gp) ** 2 + w1 ** 2 * (1 + gp ** 2)))
    minimal = cleared_residual(alpha, beta, SolitonMode.MINIMAL)
    assert sp.simplify(sp.expand(minimal - w1 * sp.exp(6 * w3 * s) * ode)) == 0
    at = {w1: 1, w2: sp.Rational(1, 2), w3: sp.Rational(7, 10), s: sp.Rational(1, 5),
          t: sp.Rational(1, 3)}
    jet = {gpp: -sp.Rational(3, 2), gp: -sp.Rational(1, 4), g: sp.Rational(6, 5)}
    for mode in (SolitonMode.TRANSLATOR, SolitonMode.CONFORMAL):
        slope = (cleared_residual(alpha, beta, mode) / minimal).diff(s)
        assert abs(sp.N(slope.subs(jet).subs(at))) > 0.5, mode


def _exact_grid(cleared, u, v, params):
    """``R/(2*W^3)`` of a cleared residual ``R`` of ``exp(s*omega) *
    exp(t*eta)`` in ``(s, t)`` and the symbols ``_OMEGA + _ETA + _LAMBDA``,
    evaluated by mpmath at 30 digits on the float nodes ``u x v`` and the
    float ``params``."""
    X = _group_product(_subgroup(s, *_OMEGA), _subgroup(t, *_ETA))
    C = X.diff(s).cross(X.diff(t))
    exact = sp.lambdify((s, t) + _OMEGA + _ETA + _LAMBDA,
                        cleared / (2 * C.dot(C) ** sp.Rational(3, 2)), "mpmath")
    with mpmath.workdps(30):
        args = [mpmath.mpf(x) for x in params]
        return np.array([[float(exact(mpmath.mpf(a), mpmath.mpf(b), *args))
                          for b in v.tolist()] for a in u.tolist()])


# Largest |float - exact| measured over the three modes and both (omega, eta)
# below: 8.9e-16 (conformal, where max|r| is 2.78); the bound is ~4.5x that.
_SUBGROUP_TOL = 4e-15
_OMEGA_AT = (0.7, -0.4, 0.3)
_NODES = np.linspace(-1.0, 1.0, 7), np.linspace(-1.0, 1.0, 9)


@pytest.mark.parametrize("eta", [(0.2, 0.9, -0.5), (0.35, -0.2, -0.5)],
                         ids=["transverse", "delta-zero"])
def test_float_residuals_match_the_exact_ones_on_a_subgroup_product(eta, subgroup_jet):
    """The float pipeline, ``residual(mode, product_surface_jet(...))`` on the
    7x9 nodes of ``[-1, 1]^2``, against ``R/(2*W^3)`` of the derived
    residual ``R``, evaluated by mpmath at 30 digits on the same binary
    values.  At ``omega = (0.7, -0.4, 0.3)`` and the first ``eta`` the
    residuals are far from 0 (``max|r|`` 0.86, 1.06 and 2.78), and alpha's
    height differs on every row; at the second ``eta``, ``delta = 0`` and
    the exact residuals are 0.  A minimal residual that scales ``N3`` by
    1.001 fails at the first ``eta`` by 8.6e-4 (at the second, ``N3`` is 0
    and ``H`` too, so no scaling of either shows)."""
    u, v = _NODES
    j = product_surface_jet(subgroup_jet(u[:, None], _OMEGA_AT), subgroup_jet(v, eta))
    alpha, beta = _subgroup(s, *_OMEGA), _subgroup(t, *_ETA)
    for mode in SolitonMode:
        want = _exact_grid(cleared_residual(alpha, beta, mode), u, v, _OMEGA_AT + eta + (0,) * 3)
        assert np.max(np.abs(residual(mode, j) - want)) <= _SUBGROUP_TOL, mode


def test_float_field_residual_matches_the_exact_one_on_a_subgroup_product(subgroup_jet):
    """``X3*residual(MINIMAL, j) - <xi_lam(X), unit_normal(j)>`` at ``lam =
    (0.8, -1.1, 0.6)``, on the transverse product's 7x9 nodes, against
    ``R/(2*W^3)`` of the derived field residual ``R`` at 30 digits.  Its
    ``max|r|`` is 2.02, and the largest ``|float - exact|`` measured is
    4.4e-16, bounded at ~4.5x that."""
    lam, eta = (0.8, -1.1, 0.6), (0.2, 0.9, -0.5)
    u, v = _NODES
    j = product_surface_jet(subgroup_jet(u[:, None], _OMEGA_AT), subgroup_jet(v, eta))
    X = j[0]
    xi = lam[2] * X + np.array([lam[0], lam[1], 0.0])
    got = X[..., 2] * residual(SolitonMode.MINIMAL, j) - np.sum(xi * unit_normal(j), axis=-1)
    want = _exact_grid(cleared_field_residual(_subgroup(s, *_OMEGA), _subgroup(t, *_ETA),
                                              sp.Matrix(_LAMBDA)), u, v, _OMEGA_AT + eta + lam)
    assert np.max(np.abs(got - want)) <= 2e-15
