"""Family constructors, grids, and the residual cross-family matrix."""
import math
from dataclasses import replace

import numpy as np
import pytest

from solsurf import (
    ConformalProfileParams,
    DomainError,
    GridSpec,
    GrimReaperParams,
    MinimalProfileParams,
    ParameterError,
    ProfileSolution,
    SolitonMode,
    SurfaceFamily,
    grid_axes,
    integrate_grim_reaper,
    make_conformal_cylinder,
    make_generic_first_kind,
    make_generic_second_kind,
    make_grim_reaper,
    make_horosphere,
    make_minimal_cylinder,
    make_vertical_plane,
    minimal_halfwidth_quadrature,
    perturb_profile,
    residual_report,
    residual,
    sample_grid,
)
from solsurf import surface_factory
from solsurf.profile_odes import _closed_form
from solsurf.surface_factory import MARGIN, _failures
from solsurf.verify import _CONFORMAL_HALFWIDTH

GRID = GridSpec(21, 21)


@pytest.fixture(scope="module")
def minimal_cyl():
    return make_minimal_cylinder(0.0, 1.0)


@pytest.fixture(scope="module")
def reaper():
    return make_grim_reaper(0.5, span=(-5.0, 5.0))


@pytest.fixture(scope="module")
def conformal_cyl():
    return make_conformal_cylinder(0.0, 1.0)


def test_own_mode_residuals_vanish(minimal_cyl, reaper, conformal_cyl):
    cases = [
        (make_horosphere(1.0), SolitonMode.TRANSLATOR),
        (make_vertical_plane(1.0, 0.0), SolitonMode.TRANSLATOR),
        (make_vertical_plane(1.0, -1.0), SolitonMode.MINIMAL),
        (minimal_cyl, SolitonMode.MINIMAL),
        (reaper, SolitonMode.TRANSLATOR),
        (conformal_cyl, SolitonMode.CONFORMAL),
    ]
    for fam, mode in cases:
        rep = residual_report(fam, mode, GRID)
        assert rep.max_abs <= 1e-6, (fam.name, mode, rep.max_abs)
        assert not rep.failures


def test_off_mode_residuals_do_not_vanish(minimal_cyl, reaper, conformal_cyl):
    """Each curved family solves exactly one of the three equations."""
    cases = [
        (minimal_cyl, SolitonMode.TRANSLATOR, 1e-2),
        (minimal_cyl, SolitonMode.CONFORMAL, 1e-2),
        (reaper, SolitonMode.MINIMAL, 1e-2),
        (conformal_cyl, SolitonMode.MINIMAL, 1e-3),
        (conformal_cyl, SolitonMode.TRANSLATOR, 1e-2),
    ]
    for fam, mode, floor in cases:
        rep = residual_report(fam, mode, GRID)
        assert rep.max_abs > floor, (fam.name, mode, rep.max_abs)


def test_rotation_preserves_all_residuals(minimal_cyl, rotated):
    for fam in (make_horosphere(0.8), minimal_cyl):
        j = fam.jet(0.4, 0.1)
        for theta in (0.7, 2.4):
            jr = rotated(theta, j)
            for mode in SolitonMode:
                assert abs(residual(mode, jr) - residual(mode, j)) <= 1e-10


def test_family_tags_and_params(minimal_cyl):
    assert make_horosphere(2.0).name == "horosphere"
    assert minimal_cyl.name == "minimal_cylinder"
    assert minimal_cyl.params == {"c": 0.0, "y0": 1.0, "d": 0.0}


def test_cylinder_t_range_covers_blowup_interval(minimal_cyl, conformal_cyl):
    """A collapsing family's t range is its collapse interval ``[-r, r]``
    less MARGIN of its span per side, ``r`` the closed form's half-width,
    within 2 ulp of the Beta-function value (minimal) and of the 40-digit
    value (conformal, verify's reference)."""
    for fam, p, want in ((minimal_cyl, MinimalProfileParams(0.0, 1.0),
                          minimal_halfwidth_quadrature(0.0, 1.0)),
                         (conformal_cyl, ConformalProfileParams(0.0, 1.0), _CONFORMAL_HALFWIDTH)):
        r = _closed_form(p)[0]
        hi = r * (1.0 - 2.0 * MARGIN)
        assert fam.t_range == (-hi, hi)
        assert abs(r - want) <= 2.0 * math.ulp(want)


def test_grid_margin_applies_only_to_blowup_limited(minimal_cyl, reaper):
    """Only a collapsing profile's span loses MARGIN of it per side; the
    reaper's t range is its node span; every family's grid samples its
    ranges, ends included."""
    hi = _closed_form(MinimalProfileParams(0.0, 1.0))[0] * (1.0 - 2.0 * MARGIN)
    assert minimal_cyl.t_range == (-hi, hi)
    t = integrate_grim_reaper(GrimReaperParams(lam=0.5), span=(-5.0, 5.0)).t
    assert reaper.t_range == (float(t[0]), float(t[-1]))
    for fam in (minimal_cyl, reaper, make_horosphere(1.0)):
        s_axis, t_axis = grid_axes(fam, GridSpec(5, 5))
        assert (s_axis[0], s_axis[-1]) == fam.s_range and (t_axis[0], t_axis[-1]) == fam.t_range
    assert make_horosphere(1.0).t_range == (-2.0, 2.0)


def test_replaced_t_range_is_sampled_as_given(minimal_cyl):
    """A collapsing family's margin is taken once, when it is built: a t
    range given through ``replace`` is sampled as it stands."""
    fam = replace(minimal_cyl, t_range=(-0.5, 0.25))
    (_, t, _, _), reasons = sample_grid(fam, GridSpec(3, 5))
    assert reasons == ([None] * 3, [None] * 5)
    assert t.tolist() == [-0.5, -0.3125, -0.125, 0.0625, 0.25]


def test_sample_grid_row_major_order(grid_jet):
    fam = make_horosphere(1.0, s_range=(0.0, 1.0), t_range=(0.0, 3.0))
    (s, t, j), failures = grid_jet(fam, GridSpec(2, 4))
    assert not failures
    assert s.tolist() == [0.0, 1.0] and t.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert j.shape == (6, 2, 4, 3)
    # row-major: the flattened nodes have s varying slowest
    assert j[0, ..., 0].ravel().tolist() == [0.0] * 4 + [1.0] * 4
    assert j[0, ..., 1].ravel().tolist() == [0.0, 1.0, 2.0, 3.0] * 2


def test_sampling_is_deterministic(minimal_cyl, grid_jet):
    (s1, t1, j1), _ = grid_jet(minimal_cyl, GRID)
    (s2, t2, j2), _ = grid_jet(minimal_cyl, GRID)
    assert np.array_equal(s1, s2) and np.array_equal(t1, t2)
    assert np.array_equal(j1[0], j2[0])


def test_reaper_drift_slope_sets_k():
    fam = make_grim_reaper(0.5, b_slope=1.0, span=(-2.0, 2.0))
    assert fam.params["k"] == 0.5
    assert fam.t_range == (-2.0, 2.0)
    rep = residual_report(fam, SolitonMode.TRANSLATOR, GridSpec(11, 11))
    assert rep.max_abs <= 1e-6


def test_perturbation_breaks_each_family(minimal_cyl, reaper, conformal_cyl):
    for fam, mode in (
        (minimal_cyl, SolitonMode.MINIMAL),
        (reaper, SolitonMode.TRANSLATOR),
        (conformal_cyl, SolitonMode.CONFORMAL),
    ):
        rep = residual_report(perturb_profile(fam, 1e-2), mode, GRID)
        assert rep.max_abs > 1e-4, (fam.name, rep.max_abs)


def test_perturbation_needs_profile_backing():
    with pytest.raises(ParameterError):
        perturb_profile(make_vertical_plane(1.0, 0.0), 1e-2)


def test_constructor_validation():
    with pytest.raises(ParameterError):
        make_horosphere(0.0)
    with pytest.raises(ParameterError):
        make_horosphere(1.0, s_range=(2.0, -2.0))
    with pytest.raises(ParameterError):
        make_vertical_plane(1.0, 0.0, t_range=(-1.0, 1.0))
    with pytest.raises(ParameterError):
        GridSpec(1, 5)
    # a node count must be an integer: numpy's pass, floats (NaN too) do not
    for ns, nt in ((2.5, 3), (3.0, 3), (math.nan, 3), (3, math.inf), (3, "4")):
        with pytest.raises(ParameterError, match=f"must be integers, got {ns!r}x{nt!r}"):
            GridSpec(ns, nt)
    assert GridSpec(np.int64(3), np.int32(4)).nt == 4


def test_family_refuses_a_reversed_range_however_built():
    """SurfaceFamily checks its ranges itself, so a family built directly or
    by ``dataclasses.replace`` is held to what the makers are."""
    fam = make_horosphere(1.0)
    with pytest.raises(ParameterError, match="s_range must be a finite increasing pair"):
        SurfaceFamily("direct", {}, (1.0, 0.0), (0.0, 1.0), fam.alpha, fam.beta)
    with pytest.raises(ParameterError, match="t_range must be a finite increasing pair"):
        SurfaceFamily("direct", {}, (0.0, 1.0), (0.0, math.inf), fam.alpha, fam.beta)
    with pytest.raises(ParameterError, match="s_range must be a finite increasing pair"):
        replace(fam, s_range=(1.0, 0.0))
    assert replace(fam, t_range=(0, 3)).t_range == (0.0, 3.0)


def test_grid_node_cap():
    GridSpec(1001, 1001)
    with pytest.raises(ParameterError, match="200000000 nodes.*1048576"):
        GridSpec(2, 10**8)
    # the cap counts in Python ints, where a product of int32 counts would wrap to 0
    with pytest.raises(ParameterError, match="4294967296 nodes.*1048576"):
        GridSpec(np.int32(65536), np.int32(65536))


def test_position_matches_jet(minimal_cyl):
    j = minimal_cyl.jet(0.3, 0.2)
    assert np.array_equal(minimal_cyl.position(0.3, 0.2), j[0])


def test_profile_axis_is_one_call(monkeypatch):
    """sample_grid reads g, g' and g'' of a profile in one jet call on the
    whole t axis: a stepped profile's ``ProfileSolution.jet``, with no
    ``eval_*`` read beside it, and a collapsing profile's closed-form jet.
    Each family is built after the counters are in place, since it binds
    its profile's jet when it is made."""
    calls = []
    for name in ("jet", "eval_g", "eval_gp", "eval_gpp"):
        method = getattr(ProfileSolution, name)

        def counted(sol, t, method=method, name=name):
            calls.append((name, np.size(t)))
            return method(sol, t)

        monkeypatch.setattr(ProfileSolution, name, counted)
    reaper = make_grim_reaper(0.5, span=(-5.0, 5.0))
    for fam in (reaper, perturb_profile(reaper, 1e-2)):
        calls.clear()
        sample_grid(fam, GRID)
        assert calls == [("jet", 21)]
    closed_form = surface_factory._closed_form

    def counted_closed_form(params):
        r, jet = closed_form(params)
        return r, lambda t: calls.append(("jet", np.size(t))) or jet(t)

    monkeypatch.setattr(surface_factory, "_closed_form", counted_closed_form)
    for fam in (make_minimal_cylinder(0.0, 1.0), make_conformal_cylinder(0.0, 1.0)):
        calls.clear()
        sample_grid(fam, GRID)
        assert calls == [("jet", 21)]


def test_user_jet_errors_fail_their_own_nodes(grid_jet):
    """A user profile that raises a domain error at some nodes fails just
    those nodes, each with its own message, also when it is perturbed."""

    def g(t):
        if t < 0.0:
            raise DomainError(f"no profile at {t!r}")
        return (2.0 + t, 1.0, 0.0)

    fam = make_generic_first_kind(lambda s: (0.0, 0.0, 0.0), g, (-1.0, 1.0), (-1.0, 1.0))
    for probe in (fam, perturb_profile(fam, 1e-2)):
        (s, t, j), failures = grid_jet(probe, GridSpec(3, 5))
        assert failures == [(si, ti, f"no profile at {ti!r}")
                            for si in (-1.0, 0.0, 1.0) for ti in (-1.0, -0.5)]
        assert t.tolist() == [0.0, 0.5, 1.0]
        want = probe.jet(0.0, 0.5)[0]
        assert np.array_equal(j[0, 1, 1], want)


def test_failed_s_and_t_nodes_are_listed_row_major():
    """With an ``s`` node and a ``t`` node failing, the failures are every
    node of the failed row plus the failed column of every other row, in
    row-major order, and at the node where both fail the ``s`` reason wins,
    in the listing of the axes and in a report's.  The axes stay whole, and
    each failed axis node is NaN in every slot of its curve jet."""

    def f(s):
        if s == 0.0:
            raise DomainError("no drift at 0.0")
        return (s, 1.0, 0.0)

    def g(t):
        if t == 0.5:
            raise DomainError("no profile at 0.5")
        return (2.0 + t, 1.0, 0.0)

    fam = make_generic_first_kind(f, g, (-1.0, 1.0), (-1.0, 1.0))
    (s, t, alpha, beta), reasons = sample_grid(fam, GridSpec(3, 5))
    assert reasons == ([None, "no drift at 0.0", None], [None] * 3 + ["no profile at 0.5", None])
    want = [(si, ti, "no drift at 0.0" if si == 0.0 else "no profile at 0.5")
            for si in (-1.0, 0.0, 1.0) for ti in (-1.0, -0.5, 0.0, 0.5, 1.0)
            if si == 0.0 or ti == 0.5]
    failures = _failures(s, t, reasons)
    assert failures == want and len(failures) == 7
    assert residual_report(fam, SolitonMode.MINIMAL, GridSpec(3, 5)).failures == want
    assert s.tolist() == [-1.0, 0.0, 1.0] and t.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert np.isnan(alpha[:, 1]).all() and np.isnan(beta[:, 3]).all()
    assert np.isfinite(alpha[:, ::2]).all() and np.isfinite(np.delete(beta, 3, axis=1)).all()


def test_an_axis_that_fails_everywhere_comes_back_empty():
    """When every ``t`` node fails, or every ``s`` node, ``sample_grid``
    raises nothing: the failed axis comes back whole and all NaN, with a
    reason per node, and every grid node is listed row-major with its own
    reason."""
    reason = "profile value must be positive, got -1.0"
    fam = make_generic_first_kind(lambda s: (0.0, 0.0, 0.0), lambda t: (-1.0, 0.0, 0.0),
                                  (-1.0, 1.0), (-1.0, 1.0))
    (s, t, alpha, beta), reasons = sample_grid(fam, GridSpec(3, 3))
    assert s.tolist() == [-1.0, 0.0, 1.0] and t.tolist() == [-1.0, 0.0, 1.0]
    assert alpha.shape == (3, 3, 1, 3) and beta.shape == (3, 3, 3)
    assert np.isfinite(alpha).all() and np.isnan(beta).all()
    assert reasons == ([None] * 3, [reason] * 3)
    assert _failures(s, t, reasons) == [
        (si, ti, reason) for si in (-1.0, 0.0, 1.0) for ti in (-1.0, 0.0, 1.0)]

    fam = make_generic_first_kind(lambda s: (math.nan, 0.0, 0.0), lambda t: (2.0, 0.0, 0.0),
                                  (-1.0, 1.0), (-1.0, 1.0))
    (s, t, alpha, beta), reasons = sample_grid(fam, GridSpec(2, 3))
    assert s.tolist() == [-1.0, 1.0] and t.tolist() == [-1.0, 0.0, 1.0]
    assert alpha.shape == (3, 2, 1, 3) and beta.shape == (3, 3, 3)
    assert np.isnan(alpha).all() and np.isfinite(beta).all()
    failures = _failures(s, t, reasons)
    assert [(si, ti) for si, ti, _ in failures] == [
        (si, ti) for si in (-1.0, 1.0) for ti in (-1.0, 0.0, 1.0)]
    assert all(r.startswith(f"axis jet at s={si!r} is not finite") for si, _, r in failures)


def test_sampled_curve_jets_are_contiguous_slot_arrays(monkeypatch):
    """With a failed t node, both whole axes come out of ``sample_grid`` as
    C-contiguous ``(3, ..., 3)`` curve jets, and each row block reaches
    ``_positions`` and ``_derivatives`` with C-contiguous slots: strided slots
    would slow every slot formula.  When every row is a translate of row 0 (a
    linear f), the sweep forms the derivative slots on row 0 alone before its
    first block, which then forms its points through ``_positions`` on every
    row; else (a curved f) a block forms its points, then its derivative
    slots on every row."""
    seen = []

    def recorded(build):
        def call(aj, bj):
            seen.append((build.__name__, aj, bj))
            return build(aj, bj)
        return call

    for name in ("_positions", "_derivatives"):
        monkeypatch.setattr(surface_factory, name, recorded(getattr(surface_factory, name)))
    for f, calls in (
            (lambda s: (0.1 * s, 0.1, 0.0),
             [("_derivatives", (3, 1, 1, 3)), ("_positions", (3, 1, 3))]),
            (lambda s: (s * s, 2.0 * s, 2.0),
             [("_positions", (3, 1, 3)), ("_derivatives", (3, 3, 1, 3))])):
        seen.clear()
        fam = make_generic_first_kind(f, lambda t: (t - 0.1, 1.0, 0.0), (-1.0, 1.0), (0.0, 1.0))
        (s, t, alpha, beta), reasons = sample_grid(fam, GridSpec(3, 5))
        assert [ti for _, ti, _ in _failures(s, t, reasons)] == [0.0] * 3
        assert t.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert seen == []  # sampling builds no surface jet
        assert alpha.shape == (3, 3, 1, 3) and beta.shape == (3, 5, 3)
        assert alpha.dtype == beta.dtype == np.float64
        assert alpha.flags.c_contiguous and beta.flags.c_contiguous
        list(surface_factory._row_blocks(alpha, beta, lambda X, H, N: X))
        assert [(name, aj.shape) for name, aj, _ in seen] == calls
        for name, aj, bj in seen:
            slots = (*aj, *bj) if name == "_derivatives" else (aj, bj)
            assert all(slot.flags.c_contiguous for slot in slots), name


def test_mesh_points_are_formed_by_the_module_positions(monkeypatch):
    """The mesh looks ``_positions`` up on its module when it runs, for its
    lowest points and for each block, so a patched ``_positions`` reaches
    both."""
    seen = []
    real = surface_factory._positions
    monkeypatch.setattr(surface_factory, "_positions",
                        lambda a, b: seen.append(a.shape) or real(a, b))
    fam = make_generic_first_kind(lambda s: (0.1 * s, 0.1, 0.0), lambda t: (t + 1.0, 1.0, 0.0),
                                  (-1.0, 1.0), (0.0, 1.0))
    (X,) = surface_factory._mesh_points(fam, GridSpec(3, 5))
    assert seen == [(3, 3), (3, 1, 3)] and X.shape == (3, 5, 3)


def test_profile_range_errors_fail_their_own_nodes(minimal_cyl, reaper, grid_jet):
    """A t range that runs past the profile (0.5 past the minimal one, 5
    past the reaper's) fails just the t nodes outside it, each with the
    profile's range message in plain floats: the collapse interval's, open
    at ``+-r``, or a stepped profile's node span.  The nodes kept carry the
    jets of ``fam.jet`` bit for bit."""
    r = _closed_form(MinimalProfileParams(0.0, 1.0))[0]
    lo, hi = reaper.t_range
    for fam, end, reason in (
            (replace(minimal_cyl, t_range=(minimal_cyl.t_range[0], r + 0.5)), r,
             f"query outside the profile's open interval (-{r!r}, {r!r})"),
            (replace(reaper, t_range=(lo, hi + 5.0)), hi,
             f"query outside the integrated range [{lo!r}, {hi!r}]")):
        grid = GridSpec(3, 6)
        s_axis, t_axis = grid_axes(fam, grid)
        (s, t, j), failures = grid_jet(fam, grid)
        assert failures == [(si, ti, reason) for si in s_axis.tolist() for ti in t_axis[4:].tolist()]
        assert t_axis[3] < end < t_axis[4]
        assert s.tolist() == s_axis.tolist() and t.tolist() == t_axis[:4].tolist()
        for a, si in enumerate(s.tolist()):
            for b, ti in enumerate(t.tolist()):
                want = fam.jet(si, ti)
                for k in range(6):
                    assert np.array_equal(j[k][a, b], want[k]), (si, ti, k)


def _generic_first_kind():
    return make_generic_first_kind(
        lambda s: (math.sin(s), math.cos(s), -math.sin(s)),
        lambda t: (2.0 + 0.5 * math.cos(t), -0.5 * math.sin(t), -0.5 * math.cos(t)),
        (-2.0, 1.5),
        (-1.0, 2.5),
    )


# Every constructor, with parameters that make both factor curves vary where
# they can, and the falsification probe on three first-kind families.
FAMILIES = {
    "horosphere": lambda: make_horosphere(1.3, t_range=(-1.0, 3.0)),
    "vertical_plane": lambda: make_vertical_plane(0.7, -0.1),
    "minimal_cylinder": lambda: make_minimal_cylinder(0.5, 1.2, d=0.3),
    "grim_reaper": lambda: make_grim_reaper(0.5, b_slope=0.4, span=(-3.0, 3.0)),
    "conformal_cylinder": lambda: make_conformal_cylinder(0.3, 0.9),
    "generic_first_kind": _generic_first_kind,
    "generic_second_kind": lambda: make_generic_second_kind(
        lambda s: (math.cos(2.0 * s) + 0.3, -2.0 * math.sin(2.0 * s), -4.0 * math.cos(2.0 * s)),
        (-2.0, 2.0), (0.5, 4.0)),
    "perturbed_minimal_cylinder": lambda: perturb_profile(make_minimal_cylinder(0.0, 1.0), 1e-2),
    "perturbed_grim_reaper": lambda: perturb_profile(make_grim_reaper(0.5, span=(-5.0, 5.0)), 1e-2),
    "perturbed_generic_first_kind": lambda: perturb_profile(_generic_first_kind(), 1e-2),
}


@pytest.mark.parametrize("build", FAMILIES.values(), ids=FAMILIES.keys())
def test_grid_nodes_are_point_jets(build, grid_jet):
    """Point and grid are one expression: every node of a sweep's row
    blocks carries the six slots of ``fam.jet`` at its (s, t), bit for bit."""
    fam = build()
    (s, t, j), failures = grid_jet(fam, GridSpec(7, 6))
    assert not failures and j.shape == (6, 7, 6, 3)
    for a, si in enumerate(s.tolist()):
        for b, ti in enumerate(t.tolist()):
            want = fam.jet(si, ti)
            for k in range(6):
                assert j[k][a, b].tobytes() == want[k].tobytes(), (si, ti, k)
