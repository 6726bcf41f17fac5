"""The sweep's own kernel at 50 digits: a reference that shares the code and
not the rounding.

The four kernels a sweep runs, ``_positions``, ``_derivatives``,
``_curvature`` and ``_residual_of``, fill no float buffer: their slots take
the curve jets' result type, and so does ``product_surface_jet``, the jet
builder.  So a product's float curve jets, converted exactly to object
arrays of ``mpmath.mpf``, run through the same builder and ``residual`` at
``mp.dps = 50``, and the float run is checked against its own 50-digit run
on the same binary inputs.  On the same jet sets the translator and
conformal residuals are checked against the minimal one and their fields.
"""
import mpmath
import numpy as np
import pytest

from solsurf import (
    GridSpec,
    SolitonMode,
    make_conformal_cylinder,
    make_grim_reaper,
    make_horosphere,
    make_minimal_cylinder,
    make_vertical_plane,
    sample_grid,
)
from solsurf.soliton_residuals import residual
from solsurf.surface_jets import (
    _derivatives,
    _graph,
    _horospherical,
    _positions,
    product_surface_jet,
    unit_normal,
)

_to_mp = np.vectorize(mpmath.mpf, otypes=[object])
_to_iv = np.vectorize(mpmath.iv.mpf, otypes=[object])


def mp50_residual(mode, aj, bj):
    """The ``mode`` residual of ``alpha * beta`` at 50 digits on the exact
    values of the float curve jets ``aj`` and ``bj``, through the public
    builder: an object array of ``mpmath.mpf``, never a float one."""
    with mpmath.workdps(50):
        r = residual(mode, product_surface_jet(_to_mp(aj), _to_mp(bj)))
    assert np.asarray(r).dtype == object
    return r


def _worst(fl, mp) -> float:
    """The worst ``|fl - mp| / max(1, |mp|)``, formed at 50 digits."""
    with mpmath.workdps(50):
        return float(np.max(np.abs(fl - mp) / np.maximum(1, np.abs(mp))))


def _random_curve(rng, n):
    """``n`` random curve jets, entries in [-1, 1], heights in [0.5, 2]."""
    c = rng.uniform(-1.0, 1.0, (3, n, 3))
    c[0, :, 2] = rng.uniform(0.5, 2.0, n)
    return c


def _random(subgroup_jet):
    rng = np.random.default_rng(20)
    return _random_curve(rng, 200), _random_curve(rng, 200)


def _near_degenerate(subgroup_jet):
    """Random jets whose ``Xt`` is ``Xs`` turned by ~1e-4, so that
    ``|Xs x Xt|^2`` is down to 7e-11 of ``E*G``."""
    rng = np.random.default_rng(21)
    aj, bj = _random_curve(rng, 200), _random_curve(rng, 200)
    bj[1] = product_surface_jet(aj, bj)[1] / aj[0, :, 2:] + 1e-4 * rng.uniform(-1.0, 1.0, (200, 3))
    return aj, bj


def _steep(subgroup_jet):
    """``f = c*s + 0.3 sin s`` with ``c = 1e6`` and ``g = 1 + 1e-7 sin t`` on
    21x21 nodes of [-1, 1]^2: ``E*G ~ 1e12`` while ``|Xs x Xt|^2 ~ 1``."""
    c, s, t = 1e6, np.linspace(-1.0, 1.0, 21)[:, None], np.linspace(-1.0, 1.0, 21)
    return (_horospherical(s, (c * s + 0.3 * np.sin(s), c + 0.3 * np.cos(s), -0.3 * np.sin(s))),
            _graph(t, (1.0 + 1e-7 * np.sin(t), 1e-7 * np.cos(t), -1e-7 * np.sin(t))))


def _subgroup(subgroup_jet):
    """``exp(u*omega) * exp(v*eta)`` on 21x21 nodes of [-1, 1]^2, whose
    ``max|r|`` is 0.86, 1.06 and 2.78 (minimal, translator, conformal)."""
    u = np.linspace(-1.0, 1.0, 21)
    return subgroup_jet(u[:, None], (0.7, -0.4, 0.3)), subgroup_jet(u, (0.2, 0.9, -0.5))


def _sampled(make, *params):
    """The curve jets ``sample_grid`` forms on the 9x9 grid of ``make(*params)``,
    a CLI family, whose profile jets carry their own float error."""
    def jets(subgroup_jet):
        (_, _, aj, bj), _ = sample_grid(make(*params), GridSpec(9, 9))
        return aj, bj
    jets.__name__ = make.__name__.replace("make", "")
    return jets


# jets -> worst |fl - mp50| / max(1, |mp50|) measured over the three modes;
# each mode must stay within _MARGIN times it.
_MEASURED = {
    _subgroup: 3.0e-16,
    _random: 1.4e-15,
    _near_degenerate: 2.9e-10,
    _steep: 6.2e-16,
    _sampled(make_horosphere, 1.3): 9.7e-17,
    _sampled(make_vertical_plane, 0.7, 0.2): 1.7e-16,
    _sampled(make_minimal_cylinder, 0.7, 1.2): 5.7e-16,
    _sampled(make_grim_reaper, 0.5): 1.7e-16,
    _sampled(make_conformal_cylinder, 0.4, 0.9): 3.8e-16,
}
_MARGIN = 4.0


@pytest.mark.parametrize("jets", list(_MEASURED), ids=lambda f: f.__name__.lstrip("_"))
@pytest.mark.parametrize("mode", list(SolitonMode))
def test_float_kernel_is_its_50_digit_run_to_rounding(jets, mode, subgroup_jet):
    """The float kernel's worst error against its own 50-digit run on the
    same binary jets.  At steep shear a normal whose square is formed as
    ``E*G - F^2`` cancels ~12 digits and fails this by ~1e-4."""
    aj, bj = jets(subgroup_jet)
    worst = _worst(residual(mode, product_surface_jet(aj, bj)), mp50_residual(mode, aj, bj))
    assert worst <= _MARGIN * _MEASURED[jets], worst


@pytest.mark.parametrize("jets", list(_MEASURED), ids=lambda f: f.__name__.lstrip("_"))
def test_residuals_are_the_hyperbolic_mean_curvature_against_a_field(jets, subgroup_jet):
    """``H_hyp = r_M`` against the field of each soliton: the translator
    residual is ``X3*r_M - <X, N>`` (``xi = X``) and the conformal one
    ``X3*r_M + N3`` (``xi = -e3``), each defect scaled by ``max(1,
    |X3*r_M|, |<X, N>|)``; the worst measured is 4.8e-16 (minimal cylinder,
    conformal), bounded at ``_MARGIN`` times it."""
    j = product_surface_jet(*jets(subgroup_jet))
    X, N = j[0], unit_normal(j)
    r = {mode: residual(mode, j) for mode in SolitonMode}
    height, field = X[..., 2] * r[SolitonMode.MINIMAL], sum(X[..., i] * N[..., i] for i in range(3))
    scale = np.maximum(1.0, np.maximum(np.abs(height), np.abs(field)))
    for mode, want in ((SolitonMode.TRANSLATOR, height - field),
                       (SolitonMode.CONFORMAL, height + N[..., 2])):
        worst = float(np.max(np.abs(r[mode] - want) / scale))
        assert worst <= _MARGIN * 4.8e-16, (mode, worst)


def test_float_curve_jets_give_float64_slots(subgroup_jet):
    """Float jets keep float64 in every kernel, and the jet builder's slots
    are the kernels' own, bit for bit."""
    aj, bj = _subgroup(subgroup_jet)
    X, d = _positions(aj[0], bj[0]), _derivatives(aj, bj)
    assert [v.dtype for v in (X, *d)] == [np.float64] * 6
    assert product_surface_jet(aj, bj).tobytes() == np.stack((X, *d)).tobytes()


@pytest.mark.parametrize("mode", list(SolitonMode))
def test_public_builder_keeps_mpmath_number_types(mode, subgroup_jet, iv80):
    """``product_surface_jet`` and ``residual`` run on ``mpf`` and on
    ``mpmath.iv`` curve jets, on a grid and at one point, in the jets' own
    type: an 80-bit enclosure, on the exact values of float jets, holds
    their 50-digit residual at every node.  With ``np.sqrt``, which calls an
    object's ``.sqrt()``, intervals are refused, and a single point's
    normal needs its 0-d select unwrapped."""
    aj, bj = _subgroup(subgroup_jet)
    for a, b in ((aj, bj), (aj[:, 4, 0], bj[:, 7])):
        mp = np.asarray(mp50_residual(mode, a, b))
        enclosure = np.asarray(residual(mode, product_surface_jet(_to_iv(a), _to_iv(b))))
        assert mp.shape == enclosure.shape == np.shape(a[0, ..., 0] + b[0, ..., 0])
        assert all(isinstance(x, mpmath.mpf) for x in mp.flat)
        assert all(isinstance(box, mpmath.ctx_iv.ivmpf) and x in box
                   for x, box in zip(mp.flat, enclosure.flat))


@pytest.mark.parametrize("a, mode", [(1e155, SolitonMode.TRANSLATOR),
                                     (1e300, SolitonMode.CONFORMAL)])
def test_overflowing_height_term_is_the_50_digit_one(a, mode):
    """On a horosphere at height ``a``, where ``X3^2`` overflows, the float
    kernel's residual is its 50-digit run rounded: 0 (a translator) and
    ``±(a + 1)``."""
    (_, _, aj, bj), _ = sample_grid(make_horosphere(a), GridSpec(5, 5))
    fl, mp = residual(mode, product_surface_jet(aj, bj)), mp50_residual(mode, aj, bj)
    assert np.isfinite(fl).all()
    assert fl.tobytes() == mp.astype(float).tobytes()


def _low_node(z):
    """Curve jets of one node at height ``z``, ``alpha = ((0,0,1), (1,0,0),
    0)`` and ``beta = ((0,0,z), (0,1,1), (0,0,1/z))``: ``X3*H = 1/sqrt(32)``
    at every ``z``, so the translator residual ``X3*(X3*H)`` is
    ``z/sqrt(32)``."""
    return (np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            np.array([[0.0, 0.0, z], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0 / z]]))


@pytest.mark.parametrize("z", [1e-160, 1e-170, 1e-200])
def test_underflowing_height_term_is_the_50_digit_one(z):
    """Below a height of ~1.5e-154, where ``X3^2`` turns subnormal or rounds
    to 0, the float translator residual is its 50-digit run to a few ulp:
    ``X3*H`` stays in range."""
    jets = _low_node(z)
    fl, mp = residual("translator", product_surface_jet(*jets)), mp50_residual("translator", *jets)
    with mpmath.workdps(50):
        assert abs(fl - mp) <= 4 * np.finfo(float).eps * abs(mp), (fl, mp)


@pytest.fixture(scope="module")
def overflowing_plane():
    (_, _, aj, bj), _ = sample_grid(make_vertical_plane(1e160), GridSpec(5, 5))
    return aj, bj


# fixture of curve jets whose forms overflow -> their 50-digit residuals,
# in SolitonMode order
_OVERFLOWING = {"overflowing_plane": (0, 0, 0), "fast_horosphere": (1, 0, 2)}


@pytest.mark.parametrize("mode", list(SolitonMode))
def test_overflowing_forms_read_zero_at_50_digits(mode, overflowing_plane):
    """The vertical plane at ``c = 1e160`` solves every mode: its 50-digit
    kernel reads exactly 0 at every node."""
    assert (mp50_residual(mode, *overflowing_plane) == 0).all()


@pytest.mark.parametrize("mode, value", zip(SolitonMode, _OVERFLOWING["fast_horosphere"]))
def test_fast_horosphere_reads_its_curvature_at_50_digits(mode, value, fast_horosphere):
    """A horosphere's hyperbolic mean curvature is 1 at any speed: the
    50-digit kernel reads 1, 0 and 2 (minimal, translator, conformal)."""
    assert mp50_residual(mode, *fast_horosphere) == value


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5, the forms half: E = 1 + c^2 and |Xs x Xt|^2 "
                          "overflow, so the float normal is NaN")
@pytest.mark.parametrize("jets", list(_OVERFLOWING))
@pytest.mark.parametrize("mode", list(SolitonMode))
def test_float_kernel_reads_the_overflowing_forms(jets, mode, request):
    value = dict(zip(SolitonMode, _OVERFLOWING[jets]))[mode]
    assert (residual(mode, product_surface_jet(*request.getfixturevalue(jets))) == value).all()
