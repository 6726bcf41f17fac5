"""Jets, fundamental forms, mean curvature, and the finite-difference oracle."""
import math

import numpy as np
import pytest

from solsurf import (
    DegenerateJetError,
    DomainError,
    GridSpec,
    ParameterError,
    SurfaceJet2,
    finite_difference_jet,
    first_kind_jet,
    lie_product,
    make_generic_first_kind,
    mean_curvature,
    product_surface_jet,
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
    assert j.X.tolist() == [0.3, -0.4 + 0.25, 1.25]
    assert j.Xs.tolist() == [1.0, -0.5, 0.0]
    assert j.Xt.tolist() == [0.0, 1.0, 0.75]
    assert j.Xss.tolist() == [0.0, 1.5, 0.0]
    assert j.Xst.tolist() == [0.0, 0.0, 0.0]
    assert j.Xtt.tolist() == [0.0, 0.0, -2.0]


def test_second_kind_slots():
    j = second_kind_jet(FJ, 0.3, 0.9)
    assert j.X.tolist() == [0.3, 0.25, 0.9]
    assert j.Xs.tolist() == [1.0, -0.5, 0.0]
    assert j.Xt.tolist() == [0.0, 0.0, 1.0]
    assert j.Xss.tolist() == [0.0, 1.5, 0.0]
    assert j.Xst.tolist() == [0.0, 0.0, 0.0]
    assert j.Xtt.tolist() == [0.0, 0.0, 0.0]


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
    return lie_product(_alpha(s)[0], _beta(t)[0])


def test_product_jet_is_the_group_law():
    """Every derivative slot agrees with central differences of
    ``(s, t) -> alpha(s) * beta(t)`` at O(h^2).  ``X`` is that product by
    construction: both are ``lie_halfspace._mul``."""
    s, t = 0.7, -1.1
    j = product_surface_jet(_alpha(s), _beta(t))
    errs = []
    for h in (2e-2, 1e-2):
        fd = finite_difference_jet(_swept, s, t, h)
        errs.append([float(np.max(np.abs(getattr(fd, n) - getattr(j, n))))
                     for n in ("Xs", "Xt", "Xss", "Xst", "Xtt")])
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
            for name in ("X", "Xs", "Xt", "Xss", "Xst", "Xtt"):
                assert getattr(grid, name)[i, k].tolist() == getattr(point, name).tolist()


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
    expect = dict(
        X=a3 * b + a * horizontal,
        Xs=a3_1 * b + a1 * horizontal,
        Xt=a3 * b1,
        Xss=a3_2 * b + a2 * horizontal,
        Xst=a3_1 * b1,
        Xtt=a3 * b2,
    )
    for name, want in expect.items():
        got = getattr(j, name)
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    return j


def test_product_slots_are_the_broadcast_sums_on_a_grid():
    s, t = np.linspace(-1.0, 2.0, 201), np.linspace(-1.5, 1.5, 201)
    aj = _descending(s[:, None])
    assert aj.shape == (3, 201, 1, 3) and (aj[1, ..., 2] < 0.0).all()
    j = _assert_slots_are_the_broadcast_sums(aj, _rising_wave(t))
    assert j.X.shape == (201, 201, 3)


def test_product_slots_are_the_broadcast_sums_on_a_batch():
    """An (n, 3) batch, with one node whose a3'' is infinite: the sum adds
    ``a3''*0.0``, NaN there, to the height of Xss.  Adding -0.0 leaves every
    finite height alone, so this node is the one that shows a height
    component the in-place add skipped."""
    aj = _descending(np.linspace(-1.0, 2.0, 7))
    aj[2, 3, 2] = np.inf
    with np.errstate(invalid="ignore"):  # inf*0.0 is NaN, as intended
        j = _assert_slots_are_the_broadcast_sums(aj, _rising_wave(np.linspace(-1.5, 1.5, 7)))
    assert np.isnan(j.Xss[3, 2]) and np.isfinite(np.delete(j.Xss, 3, axis=0)).all()


def test_product_slots_are_the_broadcast_sums_at_a_point():
    j = _assert_slots_are_the_broadcast_sums(_descending(0.4), _rising_wave(-0.6))
    assert j.X.shape == (3,)


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
    assert abs(N @ j.Xs) <= 1e-14
    assert abs(N @ j.Xt) <= 1e-14


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


def test_rotation_preserves_mean_curvature(rotated):
    j = first_kind_jet(FJ, GJ, 0.5, 0.3)
    for theta in (0.3, 2.0, -1.2):
        assert abs(mean_curvature(rotated(theta, j)) - mean_curvature(j)) <= 1e-12


def test_degenerate_jet_rejected():
    # a constant beta curve collapses Xt
    alpha = _horospherical((0.0, 1.0, 0.0), FJ)
    beta = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(DegenerateJetError):
        product_surface_jet(alpha, beta)


def test_domain_guards():
    with pytest.raises(DomainError):
        first_kind_jet(FJ, (-1.0, 0.0, 0.0), 0.0, 0.0)  # g < 0
    with pytest.raises(DomainError):
        second_kind_jet(FJ, 0.0, -0.1)  # t < 0
    with pytest.raises(DomainError):
        _vertical((0.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    with pytest.raises(ParameterError):
        SurfaceJet2(
            X=np.array([0.0, 0.0, 1.0, 2.0]),  # wrong shape
            Xs=np.zeros(3), Xt=np.zeros(3),
            Xss=np.zeros(3), Xst=np.zeros(3), Xtt=np.zeros(3),
        )


def test_wrong_length_scalar_jets_are_refused():
    """A scalar jet is exactly (value, d1, d2): a short one or a long one is
    refused, not truncated, from a caller and from a generic family's
    function alike, at a point and on a grid axis."""
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


def test_jet_arrays_are_read_only():
    j = first_kind_jet(FJ, GJ, 0.0, 0.0)
    with pytest.raises(ValueError):
        j.X[0] = 99.0


_SLOTS = ("X", "Xs", "Xt", "Xss", "Xst", "Xtt")


def test_jet_copies_writeable_caller_arrays():
    """Slots a caller passes in are copied (product_surface_jet hands its
    own fresh slots over uncopied), so changing the caller's arrays leaves
    the jet alone."""
    arrays = {name: getattr(first_kind_jet(FJ, GJ, 0.3, -0.4), name).copy() for name in _SLOTS}
    assert all(a.flags.writeable and a.flags.owndata for a in arrays.values())
    j = SurfaceJet2(**arrays)
    before = {name: getattr(j, name).tolist() for name in _SLOTS}
    for a in arrays.values():
        a[...] = 99.0
    assert {name: getattr(j, name).tolist() for name in _SLOTS} == before
    for jet in (j, first_kind_jet(FJ, GJ, 0.3, -0.4)):
        for name in _SLOTS:
            assert not getattr(jet, name).flags.writeable
            with pytest.raises(ValueError):
                getattr(jet, name)[0] = 99.0


def test_jet_copies_read_only_caller_arrays():
    """A caller's read-only array is copied too: its owner can make it
    writeable again, and a write must not move the jet below the boundary."""
    slots = {name: getattr(first_kind_jet(FJ, GJ, 0.3, -0.4), name).copy() for name in _SLOTS}
    for a in slots.values():
        a.setflags(write=False)
    j = SurfaceJet2(**slots)
    before = j.X.tolist()
    slots["X"].setflags(write=True)
    slots["X"][2] = -1.0
    assert j.X.tolist() == before and j.X[2] > 0.0
    assert not any(np.shares_memory(getattr(j, name), slots[name]) for name in _SLOTS)


# --- finite differences --------------------------------------------------


def _wavy_position(s, t):
    return np.array([s, t + math.sin(s), 2.0 + 0.5 * math.cos(t)])


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
    for name in ("X", "Xs", "Xt", "Xss", "Xst", "Xtt"):
        assert np.allclose(getattr(jd, name), getattr(je, name), atol=5e-7)


def test_finite_difference_stencil_leaves_domain():
    def pos(s, t):
        if t <= 0.0:
            raise DomainError("below the boundary")
        return np.array([s, s + t, t])

    with pytest.raises(DomainError):
        finite_difference_jet(pos, 0.0, 0.005, 1e-2)


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
        assert batch.X.shape == (len(s), len(hs), 3)
        for i in range(len(s)):
            for k in range(len(hs)):
                one = finite_difference_jet(fam.position, float(s[i]), float(t[i]),
                                            float(hs[k]))
                for name in _SLOTS:
                    assert getattr(batch, name)[i, k].tobytes() == getattr(one, name).tobytes()


def test_batched_finite_difference_nine_evaluator_calls():
    """A batch calls the evaluator once per stencil offset, with 1-D arrays."""
    fam, s, t, hs = next(_fd_cases())
    shapes = []

    def position(ss, tt):
        shapes.append((np.shape(ss), np.shape(tt)))
        return fam.position(ss, tt)

    finite_difference_jet(position, s[:, None], t[:, None], hs)
    assert shapes == [((9,), (9,))] * 9


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
