"""Group structure of the upper half-space."""
import math
import warnings

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
from solsurf import verify

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
        A = np.array([[math.cos(th), -math.sin(th), 0.0],
                      [math.sin(th), math.cos(th), 0.0],
                      [0.0, 0.0, 1.0]])
        q = rotation_about_vertical(th, p)
        # the metric is <u, v>/z^2: with the height fixed, A must keep u.v
        assert q.z == p.z
        assert abs((A @ u) @ (A @ v) - u @ v) <= 1e-13


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


# --- array points ----------------------------------------------------------


def _verify_samples():
    """The 1000 seeded samples of verify's group-law row: three points and
    an angle per sample, as array points and an angle array."""
    rng = np.random.default_rng(verify._SEED)
    p, q, r = (verify._random_points(rng, 1000) for _ in range(3))
    return p, q, r, rng.uniform(-math.pi, math.pi, size=1000)


def _at(pt, i):
    """Sample ``i`` of an array point, as a scalar point."""
    return type(pt)(*(float(getattr(pt, k)[i]) for k in pt.__slots__))


def _same_bits(batch, i, one):
    return all(np.float64(getattr(batch, k)[i]).tobytes() == np.float64(getattr(one, k)).tobytes()
               for k in batch.__slots__)


def test_array_operations_are_the_scalar_calls_bit_for_bit():
    p, q, _, th = _verify_samples()
    u = SemidirectPoint(p.x, p.y, np.log(p.z))
    v = SemidirectPoint(q.x, q.y, np.log(q.z))
    batches = [
        (lie_product(p, q), lambda i: lie_product(_at(p, i), _at(q, i))),
        (lie_inverse(p), lambda i: lie_inverse(_at(p, i))),
        (semidirect_product(u, v), lambda i: semidirect_product(_at(u, i), _at(v, i))),
        (semidirect_to_halfspace(u), lambda i: semidirect_to_halfspace(_at(u, i))),
        (rotation_about_vertical(th, p),
         lambda i: rotation_about_vertical(float(th[i]), _at(p, i))),
    ]
    for batch, scalar in batches:
        assert batch.x.shape == (1000,)
        assert all(_same_bits(batch, i, scalar(i)) for i in range(1000))


def test_array_point_mixes_with_scalar_points():
    p, *_ = _verify_samples()
    for out in (lie_product(p, IDENTITY), lie_product(IDENTITY, p)):
        assert all(getattr(out, k).tobytes() == getattr(p, k).tobytes() for k in "xyz")
    ys = HalfSpacePoint(np.array([1.0, 2.0]), 0.0, 3.0)
    assert ys.y.tolist() == [0.0, 0.0] and ys.z.tolist() == [3.0, 3.0]


@pytest.mark.parametrize("slot, value", [("x", math.nan), ("y", math.inf), ("z", math.nan),
                                         ("z", 0.0), ("z", -2.0), ("z", math.inf)])
def test_array_point_with_one_bad_entry_is_refused(slot, value):
    coords = {k: np.ones(1000) for k in "xyz"}
    coords[slot][617] = value
    with pytest.raises(ParameterError, match=r"at index \(617,\)"):
        HalfSpacePoint(**coords)


def test_array_semidirect_point_with_one_bad_entry_is_refused():
    w = np.zeros(5)
    w[3] = math.nan
    with pytest.raises(ParameterError):
        SemidirectPoint(np.zeros(5), np.zeros(5), w)


def test_array_exponential_chart_overflow_is_loud_without_warnings():
    """One overflowing ``w`` raises, as ``math.exp`` would, and numpy's
    overflow warning is not printed on the way."""
    w = np.zeros(4)
    w[2] = 1e4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (SemidirectPoint(0.0, 0.0, 1e4), SemidirectPoint(np.zeros(4), np.zeros(4), w)):
            with pytest.raises(OverflowError):
                semidirect_to_halfspace(p)
            with pytest.raises(OverflowError):
                semidirect_product(p, p)


def test_array_point_keeps_its_own_copy():
    xs, ys, zs = np.zeros(3), np.ones(3), np.full(3, 2.0)
    p = HalfSpacePoint(xs, ys, zs)
    xs[0], ys[1], zs[2] = math.nan, math.inf, -1.0
    assert p.x.tolist() == [0.0] * 3 and p.y.tolist() == [1.0] * 3 and p.z.tolist() == [2.0] * 3
    with pytest.raises(ValueError):
        p.z[0] = -1.0
