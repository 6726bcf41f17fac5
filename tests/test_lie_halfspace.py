"""Group structure of the upper half-space."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from solsurf import (
    IDENTITY,
    HalfSpacePoint,
    ParameterError,
    SemidirectPoint,
    lie_inverse,
    lie_product,
    rotation_about_vertical,
    semidirect_product,
    semidirect_to_halfspace,
)
from solsurf.lie_halfspace import rotation_matrix

# coordinate strategies: heights bounded away from 0 and infinity so products
# of three points stay in a well-conditioned range
coords = st.floats(-3.0, 3.0)
heights = st.floats(-1.6, 1.6).map(math.exp)


def points(draw_x, draw_y, draw_z):
    return st.builds(HalfSpacePoint, draw_x, draw_y, draw_z)


pts = points(coords, coords, heights)


def xyz(p):
    """The coordinates of a point, as a list."""
    return [p.x, p.y, p.z]


def close(a, b, tol=1e-12):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.all(np.abs(a - b) <= tol * np.maximum(np.maximum(np.abs(a), np.abs(b)), 0.01))


def test_product_hand_example():
    # (1,2,2)*(3,4,1/2) = (2*3+1, 2*4+2, 2*1/2) = (7, 10, 1)
    p = lie_product(HalfSpacePoint(1.0, 2.0, 2.0), HalfSpacePoint(3.0, 4.0, 0.5))
    assert xyz(p) == [7.0, 10.0, 1.0]


def test_inverse_hand_example():
    # (1,2,2)^{-1} = (-1/2, -2/2, 1/2)
    q = lie_inverse(HalfSpacePoint(1.0, 2.0, 2.0))
    assert xyz(q) == [-0.5, -1.0, 0.5]


def test_identity_element():
    p = HalfSpacePoint(0.7, -1.3, 2.4)
    assert xyz(lie_product(p, IDENTITY)) == [0.7, -1.3, 2.4]
    assert xyz(lie_product(IDENTITY, p)) == [0.7, -1.3, 2.4]


def test_semidirect_isomorphism_hand_example():
    # (1,0,ln 2) . (0,1,ln 3) = (1, 2, ln 6), and the same product through
    # the exponential chart: (1,0,2)*(0,1,3) = (1, 2, 6)
    u = SemidirectPoint(1.0, 0.0, math.log(2.0))
    v = SemidirectPoint(0.0, 1.0, math.log(3.0))
    w = semidirect_product(u, v)
    assert math.isclose(w.x, 1.0) and math.isclose(w.y, 2.0)
    assert math.isclose(w.w, math.log(6.0))
    assert close(xyz(semidirect_to_halfspace(w)), [1.0, 2.0, 6.0])


@given(pts, pts, pts)
def test_associativity(p, q, r):
    lhs = xyz(lie_product(lie_product(p, q), r))
    rhs = xyz(lie_product(p, lie_product(q, r)))
    assert close(lhs, rhs)


@given(pts)
def test_inverse_both_sides(p):
    e = xyz(IDENTITY)
    assert close(xyz(lie_product(p, lie_inverse(p))), e)
    assert close(xyz(lie_product(lie_inverse(p), p)), e)


@given(pts, pts)
def test_isomorphism_is_homomorphism(p, q):
    u = SemidirectPoint(p.x, p.y, math.log(p.z))
    v = SemidirectPoint(q.x, q.y, math.log(q.z))
    lhs = xyz(semidirect_to_halfspace(semidirect_product(u, v)))
    rhs = xyz(lie_product(p, q))
    assert close(lhs, rhs)


@given(pts, pts, st.floats(-math.pi, math.pi))
def test_rotation_is_automorphism(p, q, theta):
    lhs = xyz(rotation_about_vertical(theta, lie_product(p, q)))
    rhs = xyz(lie_product(rotation_about_vertical(theta, p), rotation_about_vertical(theta, q)))
    assert close(lhs, rhs)


def test_rotation_preserves_height_and_inner_product():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = HalfSpacePoint(*rng.uniform(-2, 2, 2), float(rng.uniform(0.3, 4.0)))
        u, v = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        th = float(rng.uniform(-3, 3))
        A = rotation_matrix(th)
        q = rotation_about_vertical(th, p)
        # the metric is <u, v>/z^2: with the height fixed, A must keep u.v
        assert q.z == p.z
        assert abs((A @ u) @ (A @ v) - u @ v) <= 1e-13


def test_rotation_matrix_fixes_vertical():
    A = rotation_matrix(1.234)
    assert np.allclose(A @ np.array([0.0, 0.0, 1.0]), [0.0, 0.0, 1.0])
    assert np.allclose(A @ A.T, np.eye(3), atol=1e-15)


@pytest.mark.parametrize("z", [0.0, -1.0, float("nan"), float("inf")])
def test_rejects_bad_heights(z):
    with pytest.raises(ParameterError):
        HalfSpacePoint(0.0, 0.0, z)


@pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
                                  (0.0, -math.inf)])
def test_rejects_nonfinite_horizontal_coordinates(x, y):
    with pytest.raises(ParameterError):
        HalfSpacePoint(x, y, 1.0)


def test_product_that_overflows_is_refused():
    """``1e200 * 1e200`` overflows the height: the product raises rather
    than hand on a point at infinite height."""
    high = HalfSpacePoint(0.0, 0.0, 1e200)
    with pytest.raises(ParameterError, match="height"):
        lie_product(high, high)
    with pytest.raises(ParameterError, match="coordinates"):
        lie_product(high, HalfSpacePoint(1e200, 0.0, 1.0))


def test_rejects_nonfinite_semidirect():
    with pytest.raises(ParameterError):
        SemidirectPoint(0.0, float("inf"), 0.0)


def test_exponential_chart_overflow_is_loud():
    with pytest.raises(OverflowError):
        semidirect_to_halfspace(SemidirectPoint(0.0, 0.0, 1e4))
