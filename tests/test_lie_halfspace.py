"""Group structure of the upper half-space."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from solsurf import (
    IDENTITY,
    ParameterError,
    lie_inverse,
    lie_product,
    rotation_about_vertical,
    semidirect_product,
    semidirect_to_halfspace,
)
from solsurf import lie_halfspace, surface_jets, verify

# coordinate strategies: heights bounded away from 0 and infinity so products
# of three points stay in a well-conditioned range
coords = st.floats(-3.0, 3.0)
heights = st.floats(-1.6, 1.6).map(math.exp)


def points(draw_x, draw_y, draw_z):
    return st.builds(lambda x, y, z: np.array([x, y, z]), draw_x, draw_y, draw_z)


pts = points(coords, coords, heights)


def close(a, b, tol=1e-12):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.all(np.abs(a - b) <= tol * np.maximum(np.maximum(np.abs(a), np.abs(b)), 0.01))


def test_product_hand_example():
    # (1,2,2)*(3,4,1/2) = (2*3+1, 2*4+2, 2*1/2) = (7, 10, 1)
    p = lie_product(np.array([1.0, 2.0, 2.0]), np.array([3.0, 4.0, 0.5]))
    assert p.tolist() == [7.0, 10.0, 1.0]


def test_inverse_hand_example():
    # (1,2,2)^{-1} = (-1/2, -2/2, 1/2)
    q = lie_inverse(np.array([1.0, 2.0, 2.0]))
    assert q.tolist() == [-0.5, -1.0, 0.5]


def test_identity_element():
    p = np.array([0.7, -1.3, 2.4])
    assert lie_product(p, IDENTITY).tolist() == [0.7, -1.3, 2.4]
    assert lie_product(IDENTITY, p).tolist() == [0.7, -1.3, 2.4]


def test_semidirect_isomorphism_hand_example():
    # (1,0,ln 2) . (0,1,ln 3) = (1, 2, ln 6), and the same product through
    # the exponential chart: (1,0,2)*(0,1,3) = (1, 2, 6)
    u = np.array([1.0, 0.0, math.log(2.0)])
    v = np.array([0.0, 1.0, math.log(3.0)])
    w = semidirect_product(u, v)
    assert math.isclose(w[0], 1.0) and math.isclose(w[1], 2.0)
    assert math.isclose(w[2], math.log(6.0))
    assert close(semidirect_to_halfspace(w), [1.0, 2.0, 6.0])


@given(pts, pts, pts)
def test_associativity(p, q, r):
    lhs = lie_product(lie_product(p, q), r)
    rhs = lie_product(p, lie_product(q, r))
    assert close(lhs, rhs)


@given(pts)
def test_inverse_both_sides(p):
    assert close(lie_product(p, lie_inverse(p)), IDENTITY)
    assert close(lie_product(lie_inverse(p), p), IDENTITY)


@given(pts, pts)
def test_isomorphism_is_homomorphism(p, q):
    u = np.array([p[0], p[1], math.log(p[2])])
    v = np.array([q[0], q[1], math.log(q[2])])
    lhs = semidirect_to_halfspace(semidirect_product(u, v))
    rhs = lie_product(p, q)
    assert close(lhs, rhs)


@given(pts, pts, st.floats(-math.pi, math.pi))
def test_rotation_is_automorphism(p, q, theta):
    lhs = rotation_about_vertical(theta, lie_product(p, q))
    rhs = lie_product(rotation_about_vertical(theta, p), rotation_about_vertical(theta, q))
    assert close(lhs, rhs)


def test_rotation_preserves_height_and_inner_product():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = np.array([*rng.uniform(-2, 2, 2), float(rng.uniform(0.3, 4.0))])
        u, v = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        th = float(rng.uniform(-3, 3))
        A = np.array([[math.cos(th), -math.sin(th), 0.0],
                      [math.sin(th), math.cos(th), 0.0],
                      [0.0, 0.0, 1.0]])
        q = rotation_about_vertical(th, p)
        # the metric is <u, v>/z^2: with the height fixed, A must keep u.v
        assert q[2] == p[2]
        assert abs((A @ u) @ (A @ v) - u @ v) <= 1e-13


def _halfspace_calls(p):
    """Every operation that takes a half-space point, given ``p`` in each
    place it can stand."""
    return (lambda: lie_product(p, IDENTITY), lambda: lie_product(IDENTITY, p),
            lambda: lie_inverse(p), lambda: rotation_about_vertical(0.3, p))


def _semidirect_calls(u):
    """Every operation that takes a semidirect point, given ``u`` in each
    place it can stand."""
    zero = np.zeros(3)
    return (lambda: semidirect_product(u, zero), lambda: semidirect_product(zero, u),
            lambda: semidirect_to_halfspace(u))


@pytest.mark.parametrize("z", [0.0, -1.0, float("nan"), float("inf")])
def test_rejects_bad_heights(z):
    for call in _halfspace_calls(np.array([0.0, 0.0, z])):
        with pytest.raises(ParameterError, match="height"):
            call()


@pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
                                  (0.0, -math.inf)])
def test_rejects_nonfinite_horizontal_coordinates(x, y):
    for call in _halfspace_calls(np.array([x, y, 1.0])):
        with pytest.raises(ParameterError, match="coordinates"):
            call()


def test_rejects_a_point_without_three_slots():
    """A ``(..., 2)`` array is not a point: every operation refuses it,
    rather than broadcasting it against the three slots."""
    bad = np.ones((4, 2))
    for call in (*_halfspace_calls(bad), *_semidirect_calls(bad)):
        with pytest.raises(ParameterError, match=r"\(\.\.\., 3\) array, got shape \(4, 2\)"):
            call()


def test_product_that_overflows_is_refused():
    """``1e200 * 1e200`` overflows the height: the product raises rather
    than hand on a point at infinite height."""
    high = np.array([0.0, 0.0, 1e200])
    with pytest.raises(ParameterError, match="height"):
        lie_product(high, high)
    with pytest.raises(ParameterError, match="coordinates"):
        lie_product(high, np.array([1e200, 0.0, 1.0]))


def test_rejects_nonfinite_semidirect():
    for call in _semidirect_calls(np.array([0.0, float("inf"), 0.0])):
        with pytest.raises(ParameterError):
            call()


def test_exponential_chart_overflow_is_loud():
    """``e^w`` overflows to an infinite height, which the result check
    refuses, as it refuses an overflowing ``lie_product``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="height must be positive and finite, got z=inf$"):
            semidirect_to_halfspace(np.array([0.0, 0.0, 1e4]))


def test_jets_and_products_share_one_law():
    """The jet builder calls the group module's own product, so the law
    cannot be written a second time."""
    assert surface_jets._mul is lie_halfspace._mul


# --- array points ----------------------------------------------------------


def _verify_samples():
    """The 1000 seeded samples of verify's group-law row, drawn by verify
    itself: three ``(1000, 3)`` point arrays and an angle array."""
    return verify._group_samples()


def _semidirect_chart(p):
    return np.column_stack((p[:, :2], np.log(p[:, 2])))


def test_array_operations_are_the_scalar_calls_bit_for_bit():
    p, q, _, th = _verify_samples()
    u, v = _semidirect_chart(p), _semidirect_chart(q)
    batches = [
        (lie_product(p, q), lambda i: lie_product(p[i], q[i])),
        (lie_inverse(p), lambda i: lie_inverse(p[i])),
        (semidirect_product(u, v), lambda i: semidirect_product(u[i], v[i])),
        (semidirect_to_halfspace(u), lambda i: semidirect_to_halfspace(u[i])),
        (rotation_about_vertical(th, p), lambda i: rotation_about_vertical(float(th[i]), p[i])),
    ]
    for batch, scalar in batches:
        assert batch.shape == (1000, 3)
        assert all(batch[i].tobytes() == scalar(i).tobytes() for i in range(1000))


def test_array_point_mixes_with_scalar_points():
    p, *_ = _verify_samples()
    for out in (lie_product(p, IDENTITY), lie_product(IDENTITY, p)):
        assert out.tobytes() == p.tobytes()
    left = lie_product(p[0], p)
    assert left.shape == (1000, 3)
    assert all(left[i].tobytes() == lie_product(p[0], p[i]).tobytes() for i in range(1000))


@pytest.mark.parametrize("slot, value", [("x", math.nan), ("y", math.inf), ("z", math.nan),
                                         ("z", 0.0), ("z", -2.0), ("z", math.inf)])
def test_array_point_with_one_bad_entry_is_refused(slot, value):
    coords = np.ones((1000, 3))
    coords[617, "xyz".index(slot)] = value
    for call in _halfspace_calls(coords):
        with pytest.raises(ParameterError, match=r"at index \(617,\)"):
            call()


def test_array_semidirect_point_with_one_bad_entry_is_refused():
    u = np.zeros((5, 3))
    u[3, 2] = math.nan
    for call in _semidirect_calls(u):
        with pytest.raises(ParameterError, match=r"at index \(3,\)"):
            call()


def test_array_exponential_chart_overflow_is_loud_without_warnings():
    """One overflowing ``w`` is refused by the check on the result, which
    names the slot and, in an array, its index, and numpy's overflow
    warning is not printed on the way: the infinite height of the chart,
    and the ``inf*0`` of the product's horizontal slots."""
    u = np.zeros((4, 3))
    u[2, 2] = 1e4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, at in ((np.array([0.0, 0.0, 1e4]), ""), (u, r" at index \(2,\)")):
            with pytest.raises(ParameterError,
                               match=f"height must be positive and finite, got z=inf{at}$"):
                semidirect_to_halfspace(p)
            with pytest.raises(ParameterError, match="semidirect coordinates must be finite, "
                                                     f"got x=nan, y=nan, w=20000.0{at}$"):
                semidirect_product(p, p)


def test_results_are_fresh_read_only_arrays():
    """Every operation hands back a new array that shares no memory with
    its arguments, and that cannot be written through."""
    p, q, _, th = _verify_samples()
    u, v = _semidirect_chart(p), _semidirect_chart(q)
    calls = [
        (lie_product(p, IDENTITY), (p,)),
        (lie_product(IDENTITY, q), (q,)),
        (lie_inverse(p), (p,)),
        (semidirect_product(u, v), (u, v)),
        (semidirect_to_halfspace(u), (u,)),
        (rotation_about_vertical(th, p), (p,)),
        (rotation_about_vertical(0.0, p), (p,)),
    ]
    for out, args in calls:
        assert not any(np.shares_memory(out, a) for a in (*args, IDENTITY))
        with pytest.raises(ValueError):
            out[0, 0] = -1.0
    with pytest.raises(ValueError):
        IDENTITY[2] = 2.0
