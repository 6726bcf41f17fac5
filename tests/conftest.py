import math

import numpy as np
import pytest

from solsurf import (
    ConformalProfileParams,
    GridSpec,
    GrimReaperParams,
    MinimalProfileParams,
    integrate_conformal_profile,
    integrate_grim_reaper,
    integrate_minimal_profile,
    sample_grid,
)
from solsurf.surface_factory import _failures, _row_blocks
from solsurf.surface_jets import product_surface_jet


@pytest.fixture(scope="session")
def minimal_sol():
    return integrate_minimal_profile(MinimalProfileParams(c=0.0, y0=1.0))


@pytest.fixture(scope="session")
def minimal_sol_c1():
    return integrate_minimal_profile(MinimalProfileParams(c=1.0, y0=2.0))


@pytest.fixture(scope="session")
def conformal_sol():
    return integrate_conformal_profile(ConformalProfileParams(a=0.0, y0=1.0))


@pytest.fixture(scope="session")
def reaper_sol():
    return integrate_grim_reaper(GrimReaperParams(lam=0.5, k=1.0), span=(-50.0, 50.0))


@pytest.fixture(scope="session")
def reaper_const_sol():
    return integrate_grim_reaper(GrimReaperParams(lam=0.0, k=1.0), span=(-10.0, 10.0))


@pytest.fixture(scope="session")
def rotated():
    """``rotated(theta, j)``: the jet of the surface turned by ``theta``
    about the vertical axis.  The rotation is linear, so it acts on every
    slot of the ``(6, ..., 3)`` jet alike."""

    def rotate(theta, j):
        c, s = math.cos(theta), math.sin(theta)
        At = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]).T
        return j @ At

    return rotate


@pytest.fixture(scope="session")
def subgroup_jet():
    """``subgroup_jet(x, w)``: the float curve jet of the one-parameter
    subgroup ``exp(x*w)``, ``w[2] != 0``, at the array ``x``:
    ``alpha' = e^{w3*x}*w`` and ``alpha'' = w3*e^{w3*x}*w``."""

    def jet(x, w):
        w = np.asarray(w)
        e = np.exp(w[2] * x)[..., None]
        value = np.expm1(w[2] * x)[..., None] / w[2] * w
        value[..., 2] = e[..., 0]
        return np.stack((value, e * w, w[2] * e * w))

    return jet


@pytest.fixture(scope="session")
def fast_horosphere():
    """Float curve jets of one node of the horosphere ``X = (1e100*s,
    1e100*t, 1)``: ``alpha = (1e100*s, 0, 1)`` and ``beta = (0, 1e100*t, 1)``
    at ``s = t = 0``, where ``|Xs x Xt|^2 = 1e400`` overflows."""
    return (np.array([[0.0, 0.0, 1.0], [1e100, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            np.array([[0.0, 0.0, 1.0], [0.0, 1e100, 0.0], [0.0, 0.0, 0.0]]))


@pytest.fixture(scope="session")
def grid_jet():
    """``grid_jet(fam, grid)``: ``((s, t, jet), failures)``, where ``s``
    and ``t`` are the axis nodes :func:`sample_grid` evaluated, ``failures``
    the grid nodes it failed (:func:`_failures`), and ``jet`` the ``(6,
    len(s), len(t), 3)`` surface jet of the nodes it kept, whose points are
    those the row blocks of a sweep form, bit for bit; the row blocks' points
    of every failed node are NaN."""

    def sampled(fam, grid: GridSpec):
        (s, t, alpha, beta), reasons = sample_grid(fam, grid)
        i, k = (np.array([x is None for x in axis]) for axis in reasons)
        j = product_surface_jet(alpha[:, i], beta[:, k])
        X = np.concatenate([X for _, X in _row_blocks(alpha, beta, lambda X, H, N: X)])
        assert X[i][:, k].tobytes() == j[0].tobytes()
        assert np.isnan(X[~i]).all() and np.isnan(X[:, ~k]).all()
        return (s[i], t[k], j), _failures(s, t, reasons)

    return sampled


@pytest.fixture
def iv80():
    """``mpmath.iv`` at 80 bits, its precision restored afterwards."""
    from mpmath import iv

    prec, iv.prec = iv.prec, 80
    yield iv
    iv.prec = prec
