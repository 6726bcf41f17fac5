"""Certificates: interval enclosures of a product's residual over whole
boxes of ``(s, t)``, through the public builder.

``product_surface_jet`` and ``residual`` keep their curve jets' number
type.  So curve jets of ``mpmath.iv`` intervals, each enclosing a factor
curve's jet over an interval of its parameter, give for every box an
interval that holds the residual at every point of the box.  One that
excludes 0 proves that the product solves the soliton equation nowhere in
the box; a grid of nodes cannot say that between its nodes.  The boxes are
the cells of a uniform grid, with no bisection.
"""
import numpy as np
import pytest
from mpmath import iv

from solsurf import SolitonMode, first_kind_jet, product_surface_jet, residual, unit_normal

_box = np.vectorize(lambda lo, hi: iv.mpf([lo, hi]), otypes=[object])
_sin, _cos = (np.vectorize(f, otypes=[object]) for f in (iv.sin, iv.cos))


def _honest(s, t):
    """The first-kind jets of ``alpha = (s, 0.3 sin s, 1)`` and ``beta = (0,
    t, 1 + 0.2 cos t)``, whose residual changes no sign on [-2, 2]^2 in any
    mode (0.3 and 0.2 are read as their float values)."""
    return ((0.3 * _sin(s), 0.3 * _cos(s), -0.3 * _sin(s)),
            (1.0 + 0.2 * _cos(t), -0.2 * _sin(t), -0.2 * _cos(t)))


def _horosphere(s, t):
    """The jets of the horosphere ``(s, t, 1)``: ``f = 0`` and ``g = 1``."""
    return (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)


def _signs(mode, jets, n=8):
    """The numbers of the ``n x n`` boxes of [-2, 2]^2 on which the
    ``mode`` residual of ``jets`` is proved > 0 and proved < 0."""
    e = np.linspace(-2.0, 2.0, n + 1)
    s, t = _box(e[:-1], e[1:])[:, None], _box(e[:-1], e[1:])
    r = residual(mode, first_kind_jet(*jets(s, t), s, t))
    assert r.shape == (n, n)
    return sum(box.a > 0 for box in r.flat), sum(box.b < 0 for box in r.flat)


@pytest.mark.parametrize("mode, signs", [(SolitonMode.MINIMAL, (64, 0)),
                                         (SolitonMode.TRANSLATOR, (0, 64)),
                                         (SolitonMode.CONFORMAL, (64, 0))])
def test_honest_shape_solves_nowhere_on_the_patch(mode, signs, iv80):
    """All 64 boxes exclude 0, so the honest shape is nowhere minimal,
    translator or conformal on [-2, 2]^2 (0.02-0.03 s a mode on a 2-core
    x86 host)."""
    assert _signs(mode, _honest) == signs


def test_horosphere_translator_certifies_no_box(iv80):
    """The horosphere at height 1 is a translator: its enclosure holds 0 in
    every box, so the same certificate proves nothing there."""
    assert _signs(SolitonMode.TRANSLATOR, _horosphere) == (0, 0)


def test_one_box_is_a_0d_enclosure(iv80):
    """One box, as 0-d interval jets, gives one interval per mode, with the
    signs of the grid's boxes."""
    s, t = iv.mpf([-0.5, 0.0]), iv.mpf([0.5, 1.0])
    j = first_kind_jet(*_honest(s, t), s, t)
    assert j.shape == (6, 3)
    r = [residual(mode, j) for mode in SolitonMode]
    assert all(isinstance(x, type(s)) for x in r)
    assert r[0].a > 0 and r[1].b < 0 and r[2].a > 0


@pytest.mark.parametrize("shape", [(), (1,)])
def test_a_box_that_may_be_collapsed_is_undecided(shape, iv80):
    """On ``alpha = (0, 0, 1)`` moving along ``x`` and ``beta = (0, 0, 1)``
    moving along ``y`` at a speed in [-1, 1], ``Xs x Xt`` straddles 0: the
    box may hold a collapsed point.  Its normal and every residual are
    then ``[-inf, +inf]``, undecided, as one 0-d box and as an array of one."""
    one, zero, box = iv.mpf(1), iv.mpf(0), iv.mpf([-1, 1])
    a = np.array([[zero, zero, one], [one, zero, zero], [zero, zero, zero]], dtype=object)
    b = np.array([[zero, zero, one], [zero, box, zero], [zero, zero, zero]], dtype=object)
    j = product_surface_jet(a.reshape((3,) + shape + (3,)), b.reshape((3,) + shape + (3,)))
    whole = iv.mpf([-np.inf, np.inf])
    assert unit_normal(j).shape == shape + (3,)
    assert all(n == whole for n in unit_normal(j).flat)
    for mode in SolitonMode:
        r = residual(mode, j)
        assert np.shape(r) == shape
        assert all(isinstance(x, type(box)) and 0 in x and x == whole for x in np.ravel(r))
