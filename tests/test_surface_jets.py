"""Jets, fundamental forms, mean curvature, and the finite-difference oracle."""
import math
from functools import partial

import numpy as np
import pytest

from solsurf import (
    DomainError,
    GridSpec,
    ParameterError,
    SolitonMode,
    finite_difference_jet,
    first_kind_jet,
    lie_product,
    make_generic_first_kind,
    mean_curvature,
    product_surface_jet,
    residual,
    sample_grid,
    second_kind_jet,
    unit_normal,
)
from solsurf.surface_jets import _horospherical, _vertical
from solsurf.verify import _fd_surfaces

FJ = (0.25, -0.5, 1.5)   # f, f', f''  at some s
GJ = (1.25, 0.75, -2.0)  # g, g', g''  at some t


def test_first_kind_slots():
    j = first_kind_jet(FJ, GJ, 0.3, -0.4)
    assert j.shape == (6, 3)
    assert j[0].tolist() == [0.3, -0.4 + 0.25, 1.25]
    assert j[1].tolist() == [1.0, -0.5, 0.0]
    assert j[2].tolist() == [0.0, 1.0, 0.75]
    assert j[3].tolist() == [0.0, 1.5, 0.0]
    assert j[4].tolist() == [0.0, 0.0, 0.0]
    assert j[5].tolist() == [0.0, 0.0, -2.0]


def test_second_kind_slots():
    j = second_kind_jet(FJ, 0.3, 0.9)
    assert j.shape == (6, 3)
    assert j[0].tolist() == [0.3, 0.25, 0.9]
    assert j[1].tolist() == [1.0, -0.5, 0.0]
    assert j[2].tolist() == [0.0, 0.0, 1.0]
    assert j[3].tolist() == [0.0, 1.5, 0.0]
    assert j[4].tolist() == [0.0, 0.0, 0.0]
    assert j[5].tolist() == [0.0, 0.0, 0.0]


def _alpha(s):
    """alpha(s) = (sin s, s^2, e^{0.3 s}): every slot varies, the height too.
    A curve jet: rows value, d1, d2."""
    e = math.exp(0.3 * s)
    return np.array([[math.sin(s), s * s, e],
                     [math.cos(s), 2.0 * s, 0.3 * e],
                     [-math.sin(s), 2.0, 0.09 * e]])


def _beta(t):
    """beta(t) = (t, cos t, 2 + sin t)."""
    return np.array([[t, math.cos(t), 2.0 + math.sin(t)],
                     [1.0, -math.sin(t), math.cos(t)],
                     [0.0, -math.cos(t), -math.sin(t)]])


def _swept(s, t):
    """``alpha(s) * beta(t)`` at 1-D arrays of points: the value slots of
    :func:`_alpha` and :func:`_beta`, as arrays."""
    e = np.exp(0.3 * s)
    return lie_product(np.stack([np.sin(s), s * s, e], axis=-1),
                       np.stack([t, np.cos(t), 2.0 + np.sin(t)], axis=-1))


def test_product_jet_is_the_group_law():
    """Every derivative slot agrees with central differences of
    ``(s, t) -> alpha(s) * beta(t)`` at O(h^2).  ``X`` is that product by
    construction: both are ``lie_halfspace._mul``."""
    s, t = 0.7, -1.1
    j = product_surface_jet(_alpha(s), _beta(t))
    errs = []
    for h in (2e-2, 1e-2):
        fd = finite_difference_jet(_swept, s, t, h)
        errs.append([float(np.max(np.abs(fd[k] - j[k]))) for k in range(1, 6)])
    for coarse, fine in zip(*errs):
        assert coarse <= 2e-3 and 3.0 <= coarse / fine <= 5.0, errs


def test_product_grid_is_the_pointwise_jets():
    """A (3, ns, 1, 3) alpha times a (3, 1, nt, 3) beta is the grid of point
    jets."""
    ss, ts = [-1.3, 0.2, 0.7], [-0.4, 0.5, 1.1, 2.9]

    def stacked(curves, axis):
        return np.expand_dims(np.stack(curves, axis=1), axis + 1)

    grid = product_surface_jet(stacked([_alpha(s) for s in ss], 1),
                               stacked([_beta(t) for t in ts], 0))
    for i, s in enumerate(ss):
        for k, t in enumerate(ts):
            point = product_surface_jet(_alpha(s), _beta(t))
            assert grid[:, i, k].tolist() == point.tolist()


def _descending(s):
    """alpha(s) = (sin s, s^2, e^{-0.3 s}) as arrays of any shape: the height
    falls, so a3' < 0 and the height component of Xs adds -0.0."""
    s = np.asarray(s, dtype=float)[..., None]
    e = np.exp(-0.3 * s)
    return np.stack([np.concatenate([np.sin(s), s * s, e], axis=-1),
                     np.concatenate([np.cos(s), 2.0 * s, -0.3 * e], axis=-1),
                     np.concatenate([-np.sin(s), np.full_like(s, 2.0), 0.09 * e], axis=-1)])


def _rising_wave(t):
    """beta(t) = (t, cos t, 2 + sin t) as arrays of any shape."""
    t = np.asarray(t, dtype=float)[..., None]
    return np.stack([np.concatenate([t, np.cos(t), 2.0 + np.sin(t)], axis=-1),
                     np.concatenate([np.ones_like(t), -np.sin(t), np.cos(t)], axis=-1),
                     np.concatenate([np.zeros_like(t), -np.cos(t), -np.sin(t)], axis=-1)])


def _assert_slots_are_the_broadcast_sums(aj, bj):
    """Every slot of the product jet has the bits of the broadcast formula,
    ``a3*beta + alpha*(1, 1, 0)`` for X, Xs and Xss."""
    j = product_surface_jet(aj, bj)
    horizontal = np.array([1.0, 1.0, 0.0])
    (a, a1, a2), (b, b1, b2) = aj, bj
    a3, a3_1, a3_2 = a[..., 2:], a1[..., 2:], a2[..., 2:]
    expect = [
        a3 * b + a * horizontal,
        a3_1 * b + a1 * horizontal,
        a3 * b1,
        a3_2 * b + a2 * horizontal,
        a3_1 * b1,
        a3 * b2,
    ]
    assert len(j) == len(expect)
    for k, (got, want) in enumerate(zip(j, expect)):
        assert got.shape == want.shape, k
        assert got.tobytes() == want.tobytes(), k
    return j


def test_product_slots_are_the_broadcast_sums_on_a_grid():
    s, t = np.linspace(-1.0, 2.0, 201), np.linspace(-1.5, 1.5, 201)
    aj = _descending(s[:, None])
    assert aj.shape == (3, 201, 1, 3) and (aj[1, ..., 2] < 0.0).all()
    j = _assert_slots_are_the_broadcast_sums(aj, _rising_wave(t))
    assert j.shape == (6, 201, 201, 3)


def test_product_slots_are_the_broadcast_sums_on_a_batch():
    """An (n, 3) batch, with one node whose a3'' is infinite: the sum adds
    ``a3''*0.0``, NaN there, to the height of Xss.  Adding -0.0 leaves every
    finite height alone, so this node is the one that shows a height
    component the in-place add skipped."""
    aj = _descending(np.linspace(-1.0, 2.0, 7))
    aj[2, 3, 2] = np.inf
    with np.errstate(invalid="ignore"):  # inf*0.0 is NaN, as intended
        j = _assert_slots_are_the_broadcast_sums(aj, _rising_wave(np.linspace(-1.5, 1.5, 7)))
    assert np.isnan(j[3][3, 2]) and np.isfinite(np.delete(j[3], 3, axis=0)).all()


def test_product_slots_are_the_broadcast_sums_at_a_point():
    j = _assert_slots_are_the_broadcast_sums(_descending(0.4), _rising_wave(-0.6))
    assert j.shape == (6, 3)


def test_product_of_integer_curve_jets_is_the_float_jet():
    """Integer and float32 slots are read as float64: the jet has the bits
    of the same curve jets given as float64, a point off the half-space
    included."""
    aj = np.array([[[0, 2, 1], [1, 0, 0]], [[1, 0, 3], [0, 1, -1]], [[0, 1, 0], [2, 0, 0]]])
    bj = np.array([[[0, 0, 1], [3, 1, 2]], [[0, 1, 0], [1, 0, 1]], [[1, 0, 0], [0, 0, -1]]])
    want = product_surface_jet(aj.astype(float), bj.astype(float))
    assert np.isnan(want[0, 1]).all()
    for dtype in (int, np.float32):
        j = product_surface_jet(aj.astype(dtype), bj.astype(dtype))
        assert j.dtype == np.float64 and j.tobytes() == want.tobytes()


def test_single_point_has_the_bits_of_its_batch():
    """A single point's unit normal, mean curvature and three residuals have
    the bits of the same point in a batch, on 5,000 random product jets.  A
    single point's components are numpy scalars, whose ``** 0.5`` is libm
    ``pow`` and not the batch's ``sqrt``: that form moved 1-3 points in
    every 2,000."""
    rng = np.random.default_rng(1)
    aj, bj = rng.uniform(-1.0, 1.0, (2, 3, 5000, 3))
    aj[0, :, 2], bj[0, :, 2] = rng.uniform(0.5, 2.0, (2, 5000))
    reads = [unit_normal, mean_curvature] + [partial(residual, m) for m in SolitonMode]
    batch = [read(product_surface_jet(aj, bj)) for read in reads]
    moved = []
    for i in range(5000):
        j = product_surface_jet(aj[:, i], bj[:, i])
        if any(np.asarray(read(j)).tobytes() != v[i].tobytes() for read, v in zip(reads, batch)):
            moved.append(i)
    assert not moved, moved


def test_unit_normal_first_kind_closed_form():
    # Xs x Xt = (f'g', -g', 1), so N = (f'g', -g', 1)/W with
    # W^2 = g'^2 (f'^2 + 1) + 1
    j = first_kind_jet(FJ, GJ, 0.0, 0.0)
    fp, gp = FJ[1], GJ[1]
    W = math.sqrt(gp * gp * (fp * fp + 1.0) + 1.0)
    assert np.allclose(unit_normal(j), [fp * gp / W, -gp / W, 1.0 / W], atol=1e-15)


def test_unit_normal_is_unit_and_orthogonal():
    j = first_kind_jet(FJ, GJ, 0.2, 0.4)
    N = unit_normal(j)
    assert abs(N @ N - 1.0) <= 1e-14
    assert abs(N @ j[1]) <= 1e-14
    assert abs(N @ j[2]) <= 1e-14


def test_mean_curvature_extruded_graph():
    # X = (s, f(s), t) extrudes the plane curve y = f(x); its mean
    # curvature is half the signed curvature: H = -f'' / (2 (1+f'^2)^{3/2}).
    s = 0.3
    fj = (math.cos(s), -math.sin(s), -math.cos(s))
    H = mean_curvature(second_kind_jet(fj, s, 1.7))
    expected = math.cos(s) / (2.0 * (1.0 + math.sin(s) ** 2) ** 1.5)
    assert abs(H - expected) <= 1e-14


def test_mean_curvature_profile_cylinder():
    # X = (s, t, g(t)) with g = cosh: H = g''/(2 W^3) with W = cosh t,
    # so H = 1/(2 cosh^2 t).
    t = 0.4
    gj = (math.cosh(t), math.sinh(t), math.cosh(t))
    H = mean_curvature(first_kind_jet((0.0, 0.0, 0.0), gj, 0.0, t))
    assert abs(H - 1.0 / (2.0 * math.cosh(t) ** 2)) <= 1e-14


def _mean_curvature_50_digits(j):
    """``H`` of one float jet, each slot read exactly and every operation
    carried out in 50-digit mpmath, by the textbook ``E*G - F^2``."""
    import mpmath

    with mpmath.workdps(50):
        _, xs, xt, xss, xst, xtt = ([mpmath.mpf(float(v)) for v in slot] for slot in j)
        dot = lambda a, b: a[0] * b[0] + a[1] * b[1] + a[2] * b[2]  # noqa: E731
        c = [xs[1] * xt[2] - xs[2] * xt[1], xs[2] * xt[0] - xs[0] * xt[2],
             xs[0] * xt[1] - xs[1] * xt[0]]
        N = [ck / mpmath.sqrt(dot(c, c)) for ck in c]
        E, F, G = dot(xs, xs), dot(xs, xt), dot(xt, xt)
        l, m, n = dot(xss, N), dot(xtt, N), dot(xst, N)
        return (l * G - 2 * n * F + E * m) / (2 * (E * G - F * F))


@pytest.mark.parametrize("c", [0.7, 1e3, 1e5, 1e6, 1e8])
def test_mean_curvature_matches_50_digits_at_steep_shear(c):
    """On the jets of a curved shear, ``f = c*s + 0.3 sin s`` and
    ``g = 1 + 0.2 cos t`` on 7x7 nodes of [-2, 2]^2, ``H`` is within 2e-15
    relative of the same jets' ``H`` in 50 digits at every slope.  Here
    ``E = 1 + f'^2`` and ``F = f'``, so a denominator formed as
    ``E*G - F^2`` would lose ~``c^2*eps`` of ``H``, and all of it at 1e8."""
    s = np.linspace(-2.0, 2.0, 7)[:, None]
    t = np.linspace(-2.0, 2.0, 7)
    j = first_kind_jet((c * s + 0.3 * np.sin(s), c + 0.3 * np.cos(s), -0.3 * np.sin(s)),
                       (1.0 + 0.2 * np.cos(t), -0.2 * np.sin(t), -0.2 * np.cos(t)), s, t)
    H = mean_curvature(j)
    worst = 0.0
    for i, k in np.ndindex(H.shape):
        exact = _mean_curvature_50_digits(j[:, i, k])
        worst = max(worst, abs(float((H[i, k] - exact) / exact)))
    assert worst <= 2e-15, worst


def test_rotation_preserves_mean_curvature(rotated):
    j = first_kind_jet(FJ, GJ, 0.5, 0.3)
    for theta in (0.3, 2.0, -1.2):
        assert abs(mean_curvature(rotated(theta, j)) - mean_curvature(j)) <= 1e-12


def test_collapsed_jet_reads_nan():
    """A collapsed jet, ``|Xs x Xt| ~ 0``, is built like any other, and its
    normal, mean curvature and residuals are NaN, without a warning; the
    finite-difference jet of a constant map too."""
    # a constant beta curve collapses Xt
    alpha = _horospherical(0.0, FJ)
    beta = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    fd = finite_difference_jet(lambda s, t: np.tile([0.0, 0.0, 1.0], (len(s), 1)), 0.0, 0.0, 0.1)
    for j in (product_surface_jet(alpha, beta), fd):
        assert not j.flags.writeable
        assert j[2].tolist() == [0.0, 0.0, 0.0]
        assert np.isnan(unit_normal(j)).all()
        assert math.isnan(mean_curvature(j))
        for mode in ("minimal", "translator", "conformal"):
            assert math.isnan(residual(mode, j))
    assert product_surface_jet(alpha, beta)[0].tolist() == [0.0, 1.25, 1.0]


def test_domain_guards():
    with pytest.raises(DomainError):
        first_kind_jet(FJ, (-1.0, 0.0, 0.0), 0.0, 0.0)  # g < 0
    with pytest.raises(DomainError):
        second_kind_jet(FJ, 0.0, -0.1)  # t < 0
    with pytest.raises(DomainError):
        _vertical((0.0, 0.0, 0.0), (0.0, 1.0, 0.0))


def test_interval_height_that_may_not_be_positive_is_refused():
    """A height that is not > 0 at every point is refused with
    ``DomainError`` naming it: an ``mpmath`` interval that may be <= 0, as
    one number or in an array, and an ``mpf``, each shown as itself; a
    float keeps its message."""
    from mpmath import iv, mpf

    z = iv.mpf([-0.1, 0.5])
    for height, shown in ((z, repr(z)), (np.array([iv.mpf(1), z]), repr(z)),
                          (mpf(-1), "mpf('-1.0')"), (-1.0, "-1.0"), (np.array([2.0, -1.0]), "-1.0")):
        with pytest.raises(DomainError) as refused:
            _vertical((0.0, 1.0, 0.0), (height, 0.0, 0.0))
        assert str(refused.value) == f"profile value must be positive, got {shown}"


def test_wrong_length_scalar_jets_are_refused():
    """A scalar jet is exactly (value, d1, d2): a short one or a long one is
    refused, not truncated, from a caller and from a generic family's
    function alike, at a point and on a grid axis, also where only some
    nodes of the axis give a wrong length."""
    for bad in ((0.25, -0.5), (0.25, -0.5, 1.5, 99.0)):
        with pytest.raises(ParameterError, match=f"got {len(bad)} entries"):
            first_kind_jet(bad, GJ, 0.0, 0.0)
        with pytest.raises(ParameterError, match=f"got {len(bad)} entries"):
            second_kind_jet(bad, 0.0, 1.0)
    fam = make_generic_first_kind(lambda s: (s, 1.0, 0.0, 99.0), lambda t: (2.0, 0.0, 0.0),
                                  (-1.0, 1.0), (-1.0, 1.0))
    with pytest.raises(ParameterError, match="got 4 entries"):
        fam.jet(0.5, 0.5)
    with pytest.raises(ParameterError, match="got 4 entries"):
        sample_grid(fam, GridSpec(3, 3))
    mixed = make_generic_first_kind(
        lambda s: (s, 1.0, 0.0) if s < 0 else (s, 1.0, 0.0, 9.0), lambda t: (2.0, 0.0, 0.0),
        (-1.0, 1.0), (-1.0, 1.0))
    with pytest.raises(ParameterError, match="got 4 entries"):
        sample_grid(mixed, GridSpec(3, 3))


def test_jet_arrays_are_read_only():
    fd = finite_difference_jet(_wavy_position, 0.4, 0.7, 1e-2)
    for j in (first_kind_jet(FJ, GJ, 0.0, 0.0), fd):
        assert not j.flags.writeable
        for k in range(6):
            with pytest.raises(ValueError):
                j[k][0] = 99.0


def _jets_from(aj, bj, positions):
    """Both builders' jets at (0.7, -1.1): the product jet of ``aj``, ``bj``
    and the finite-difference jet of an evaluator that returns the array in
    ``positions`` from its one call, so the test holds every array a builder saw."""
    calls = iter(positions)
    fd = finite_difference_jet(lambda s, t: next(calls), 0.7, -1.1, 1e-2)
    return product_surface_jet(aj, bj), fd


def _stencil_positions():
    """The nine positions finite_difference_jet asks for at (0.7, -1.1)
    with h = 1e-2, in its one call, as a list of one writeable ``(9, 3)``
    array the caller owns."""
    asked = []
    finite_difference_jet(lambda s, t: asked.append((s, t)) or _swept(s, t),
                          0.7, -1.1, 1e-2)
    assert [(np.shape(s), np.shape(t)) for s, t in asked] == [((9,), (9,))]
    return [_swept(s, t).copy() for s, t in asked]


def test_jet_copies_writeable_caller_arrays():
    """A built jet is a fresh read-only array: neither builder keeps a view
    of the caller's writeable curve jets or of the writeable positions its
    evaluator returned, so writing to those leaves the jet alone."""
    aj, bj, positions = _alpha(0.7), _beta(-1.1), _stencil_positions()
    assert all(a.flags.writeable for a in (aj, bj, *positions))
    j, fd = _jets_from(aj, bj, positions)
    for jet, inputs in ((j, (aj, bj)), (fd, positions)):
        assert not jet.flags.writeable
        assert not any(np.shares_memory(jet, a) for a in inputs)
    before = j.tolist(), fd.tolist()
    for a in (aj, bj, *positions):
        a[...] = -1.0
    assert (j.tolist(), fd.tolist()) == before


def test_jet_copies_read_only_caller_arrays():
    """A caller's read-only arrays are copied too: their owner can make them
    writeable again, and a write must not move the jet below the boundary."""
    aj, bj, positions = _alpha(0.7), _beta(-1.1), _stencil_positions()
    for a in (aj, bj, *positions):
        a.setflags(write=False)
    j, fd = _jets_from(aj, bj, positions)
    for jet, inputs in ((j, (aj, bj)), (fd, positions)):
        assert not any(np.shares_memory(jet, a) for a in inputs)
    before = j.tolist(), fd.tolist()
    for a in (aj, bj, *positions):
        a.setflags(write=True)
        a[..., 2] = -1.0
    assert (j.tolist(), fd.tolist()) == before
    assert j[0][2] > 0.0 and fd[0][2] > 0.0


def _left_translate(p, c):
    """``L_p`` on an order-first slot array, a curve jet or a surface jet:
    ``p3`` times every slot, with ``P(p) = (p1, p2, 0)`` added to slot 0."""
    out = p[..., 2:] * c
    out[0] += p * np.array([1.0, 1.0, 0.0])
    return out


def test_left_translation_commutes_with_the_jet_builder():
    """Left translation is a group action, so translating ``alpha`` moves the
    swept surface ``alpha * beta`` and all its derivatives by the same
    ``L_p``.  1000 random curve jets and points; the worst relative defect
    reads 7.7e-16 at this seed and at most 1.8e-15 at seeds 0-19, so 1e-13
    leaves a margin of ~55."""
    rng = np.random.default_rng(7)
    n = 1000

    def curve():
        c = rng.standard_normal((3, n, 3))
        c[0, :, 2] = np.exp(rng.uniform(-1.0, 1.0, n))
        return c

    aj, bj, p = curve(), curve(), curve()[0]
    lhs = product_surface_jet(_left_translate(p, aj), bj)
    rhs = _left_translate(p, product_surface_jet(aj, bj))
    assert lhs.shape == rhs.shape == (6, n, 3)
    assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))) <= 1e-13


# --- finite differences --------------------------------------------------


def _wavy_position(s, t):
    return np.stack([s, t + np.sin(s), 2.0 + 0.5 * np.cos(t)], axis=-1)


def _wavy_jet(s, t):
    return first_kind_jet(
        (math.sin(s), math.cos(s), -math.sin(s)),
        (2.0 + 0.5 * math.cos(t), -0.5 * math.sin(t), -0.5 * math.cos(t)),
        s,
        t,
    )


def test_finite_difference_converges_quadratically():
    s, t = 0.4, 0.7
    H_exact = mean_curvature(_wavy_jet(s, t))
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        H_fd = mean_curvature(finite_difference_jet(_wavy_position, s, t, h))
        errs.append(abs(H_fd - H_exact))
    orders = [math.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
    assert all(1.7 <= o <= 2.3 for o in orders), orders


def test_finite_difference_slots_agree():
    s, t = -0.9, 1.3
    jd = finite_difference_jet(_wavy_position, s, t, 1e-4)
    je = _wavy_jet(s, t)
    for k in range(6):
        assert np.allclose(jd[k], je[k], atol=5e-7)


def test_finite_difference_stencil_leaves_domain():
    def pos(s, t):
        if np.any(t <= 0.0):
            raise DomainError("below the boundary")
        return np.stack([s, s + t, t], axis=-1)

    with pytest.raises(DomainError):
        finite_difference_jet(pos, 0.0, 0.005, 1e-2)


def test_finite_difference_names_a_malformed_curve():
    """A surface whose curve jet is malformed is refused for that, not as a
    stencil point off its domain: the evaluator's ``ParameterError`` passes
    through unchanged."""
    fam = make_generic_first_kind(lambda s: (s, 1.0), lambda t: (1.0, 0.0, 0.0), (-1, 1), (-1, 1))
    with pytest.raises(ParameterError, match=r"a scalar jet is \(value, d1, d2\), got 2 entries"):
        finite_difference_jet(fam.position, 0.0, 0.0, 1e-3)


def test_finite_difference_rejects_bad_step():
    with pytest.raises(ParameterError):
        finite_difference_jet(_wavy_position, 0.0, 0.0, 0.0)


def _fd_cases():
    hs = np.array([1e-2, 5e-3, 2.5e-3])
    surfaces, s, t = _fd_surfaces()
    for fam in surfaces:
        yield fam, s, t, hs


def test_batched_finite_difference_is_the_scalar_calls():
    """Points down and steps across, each jet of the batch has the bits of
    its own scalar call, slot by slot."""
    for fam, s, t, hs in _fd_cases():
        batch = finite_difference_jet(fam.position, s[:, None], t[:, None], hs)
        assert batch.shape == (6, len(s), len(hs), 3)
        for i in range(len(s)):
            for k in range(len(hs)):
                one = finite_difference_jet(fam.position, float(s[i]), float(t[i]),
                                            float(hs[k]))
                assert batch[:, i, k].tobytes() == one.tobytes()


def test_batched_finite_difference_one_evaluator_call():
    """A batch of ``k`` points calls the evaluator once, with 1-D arrays of
    the ``9*k`` stencil points."""
    fam, s, t, hs = next(_fd_cases())
    shapes = []

    def position(ss, tt):
        shapes.append((np.shape(ss), np.shape(tt)))
        return fam.position(ss, tt)

    finite_difference_jet(position, s[:, None], t[:, None], hs)
    k = len(s) * len(hs)
    assert shapes == [((9 * k,), (9 * k,))]


def test_batched_finite_difference_one_point_leaves_domain():
    """One stencil point of a batch below the boundary refuses the batch."""
    def pos(s, t):
        if np.any(np.asarray(t) <= 0.0):
            raise DomainError("below the boundary")
        return np.stack(np.broadcast_arrays(s, s + t, t), axis=-1)

    ts = np.array([0.5, 0.005, 0.7])
    finite_difference_jet(pos, 0.0, ts[[0, 2]], 1e-2)
    with pytest.raises(DomainError, match="a stencil point in s"):
        finite_difference_jet(pos, 0.0, ts, 1e-2)


def test_batched_finite_difference_names_a_point_below_the_boundary():
    """An evaluator that returns one point at non-positive height is refused,
    and the message names that point."""
    def pos(s, t):
        return np.stack(np.broadcast_arrays(s, t, t), axis=-1)

    with pytest.raises(DomainError, match=r"stencil point \(s=0.0, t=-0.005\)"):
        finite_difference_jet(pos, 0.0, np.array([0.5, 0.005]), 1e-2)


def test_batched_finite_difference_rejects_one_bad_step():
    for h in (0.0, -1e-3, math.nan):
        with pytest.raises(ParameterError):
            finite_difference_jet(_wavy_position, 0.0, 0.0, np.array([1e-2, h, 1e-3]))
