"""The three residual equations, their reduced forms, and grid reports."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from solsurf import (
    GridSpec,
    SamplingError,
    ScalarJet2,
    SolitonMode,
    first_kind_jet,
    make_generic_first_kind,
    make_generic_second_kind,
    make_horosphere,
    make_vertical_plane,
    reduced_residual_first_kind,
    reduced_residual_second_kind,
    residual,
    residual_report,
    second_kind_jet,
)

MINIMAL, TRANSLATOR, CONFORMAL = SolitonMode


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_horosphere_residual_values(a):
    """Flat slices kill the translator equation exactly; the other two
    residuals take the closed values 1 and a+1."""
    j = make_horosphere(a).jet(0.37, -1.21)
    assert residual(TRANSLATOR, j) == 0.0
    assert residual(MINIMAL, j) == 1.0
    assert residual(CONFORMAL, j) == a + 1.0


@pytest.mark.parametrize("c,d", [(0.0, 0.0), (1.0, -1.0), (3.0, 2.0)])
def test_vertical_plane_residual_values(c, d):
    # minimal and conformal vanish for every plane; the translator residual
    # is (d+b)/sqrt(c^2+1) and vanishes exactly when b = -d
    j = make_vertical_plane(c, d).jet(0.4, 1.2)
    assert abs(residual(MINIMAL, j)) <= 1e-15
    assert abs(residual(CONFORMAL, j)) <= 1e-15
    expected = d / math.sqrt(c * c + 1.0)
    assert abs(residual(TRANSLATOR, j) - expected) <= 1e-14
    j0 = make_vertical_plane(c, d, b=-d).jet(0.4, 1.2)
    assert abs(residual(TRANSLATOR, j0)) <= 1e-15


def test_mode_dispatch_accepts_strings():
    j = make_horosphere(1.0).jet(0.0, 0.0)
    assert residual("minimal", j) == residual(MINIMAL, j)
    assert residual("translator", j) == residual(TRANSLATOR, j)
    with pytest.raises(ValueError):
        residual("harmonic", j)


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _assert_batch_is_pointwise(batch, rows):
    """A jet of n samples, evaluated as one batch (as verify's reduced.*
    checks do), gives each sample's scalar residuals bit for bit."""
    for mode in SolitonMode:
        assert residual(mode, batch).tolist() == [residual(mode, j) for j in rows]


def test_reduced_first_kind_matches_general_seeded():
    rng = np.random.default_rng(42)
    samples, rows = [], []
    for _ in range(300):
        fj = ScalarJet2(*rng.uniform(-2, 2, 3))
        gj = ScalarJet2(float(rng.uniform(0.2, 3.0)), *rng.uniform(-2, 2, 2))
        s, t = rng.uniform(-2, 2, 2)
        j = first_kind_jet(fj, gj, float(s), float(t))
        samples.append((fj.value, fj.d1, fj.d2, gj.value, gj.d1, gj.d2, s, t))
        rows.append(j)
        w2 = gj.d1 ** 2 * (fj.d1 ** 2 + 1.0) + 1.0
        clear = 2.0 * w2 ** 1.5
        for mode in SolitonMode:
            a = reduced_residual_first_kind(mode, fj, gj, float(s), float(t))
            b = residual(mode, j) * clear
            assert _rel(a, b) <= 1e-10
    *f, gv, gp, gpp, s, t = np.array(samples).T
    _assert_batch_is_pointwise(first_kind_jet(ScalarJet2(*f), ScalarJet2(gv, gp, gpp), s, t), rows)


def test_reduced_second_kind_matches_general_seeded():
    rng = np.random.default_rng(43)
    samples, rows = [], []
    for _ in range(300):
        fj = ScalarJet2(*rng.uniform(-2, 2, 3))
        b = float(rng.uniform(-2, 2))
        s = float(rng.uniform(-2, 2))
        t = float(rng.uniform(0.1, 3.0))
        j = second_kind_jet(fj, b, s, t)
        samples.append((fj.value, fj.d1, fj.d2, b, s, t))
        rows.append(j)
        clear = 2.0 * (fj.d1 ** 2 + 1.0) ** 1.5
        for mode in SolitonMode:
            assert _rel(
                reduced_residual_second_kind(mode, fj, b, s, t),
                residual(mode, j) * clear,
            ) <= 1e-10
    *f, b, s, t = np.array(samples).T
    _assert_batch_is_pointwise(second_kind_jet(ScalarJet2(*f), b, s, t), rows)


jet_floats = st.floats(-2.0, 2.0)


@given(
    st.builds(ScalarJet2, jet_floats, jet_floats, jet_floats),
    st.builds(ScalarJet2, st.floats(0.2, 3.0), jet_floats, jet_floats),
    jet_floats,
    jet_floats,
    st.sampled_from(list(SolitonMode)),
)
def test_reduced_first_kind_property(fj, gj, s, t, mode):
    j = first_kind_jet(fj, gj, s, t)
    w2 = gj.d1 * gj.d1 * (fj.d1 * fj.d1 + 1.0) + 1.0
    a = reduced_residual_first_kind(mode, fj, gj, s, t)
    b = residual(mode, j) * 2.0 * w2 ** 1.5
    assert _rel(a, b) <= 1e-10


def test_second_kind_translator_closed_form():
    # reduced translator for a line f = c s + d: -2 (c^2+1)(-d - b)
    c, d, b = 1.5, -0.7, 0.4
    fj = ScalarJet2(c * 0.9 + d, c, 0.0)
    r = reduced_residual_second_kind(SolitonMode.TRANSLATOR, fj, b, 0.9, 2.0)
    assert abs(r - 2.0 * (c * c + 1.0) * (d + b)) <= 1e-14


def test_residual_report_grid_structure():
    fam = make_horosphere(1.0, s_range=(0.0, 1.0), t_range=(0.0, 2.0))
    rep = residual_report(fam, SolitonMode.TRANSLATOR, GridSpec(3, 4, margin=0.0))
    assert rep.samples.shape == (12, 3)
    assert rep.ns == 3 and rep.nt == 4
    # sorted by (s, t): first four rows share s = 0
    assert np.all(rep.samples[:4, 0] == 0.0)
    assert np.all(np.diff(rep.samples[:4, 1]) > 0)
    assert rep.max_abs == np.max(np.abs(rep.samples[:, 2]))
    assert rep.mean_abs == pytest.approx(np.mean(np.abs(rep.samples[:, 2])))
    assert rep.failures == []


def test_residual_report_collects_partial_failures():
    # g(t) = t is only a valid profile height for t > 0; nodes at t <= 0 fail
    fam = make_generic_first_kind(
        lambda s: (0.0, 0.0, 0.0),
        lambda t: (t, 1.0, 0.0),
        (-1.0, 1.0),
        (-1.0, 1.0),
    )
    rep = residual_report(fam, SolitonMode.MINIMAL, GridSpec(3, 5, margin=0.0))
    assert len(rep.failures) == 3 * 3  # t in {-1, -0.5, 0} for each of 3 s nodes
    assert rep.samples.shape == (6, 3)
    assert rep.failures == [
        (s, t, f"profile value must be positive, got {t!r}")
        for s in (-1.0, 0.0, 1.0)
        for t in (-1.0, -0.5, 0.0)
    ]


def test_residual_report_fails_non_finite_axis_jets():
    """A non-finite axis jet fails its whole row or column of nodes, with one
    reason, where it used to give DegenerateJetError at some nodes and
    infinite rows at others.  The s reason wins where both axes fail."""
    fam = make_generic_first_kind(
        lambda s: (math.inf if s == 0.0 else s, 1.0, 0.0),
        lambda t: (2.0 + t, math.nan if t == 0.5 else 1.0, 0.0),
        (-1.0, 1.0),
        (-1.0, 1.0),
    )
    rep = residual_report(fam, SolitonMode.TRANSLATOR, GridSpec(3, 5, margin=0.0))
    # the nine numbers are alpha's or beta's value, d1 and d2 slots
    s_reason = "axis jet at s=0.0 is not finite: (0.0, inf, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)"
    t_reason = "axis jet at t=0.5 is not finite: (0.0, 0.5, 2.5, 0.0, 1.0, nan, 0.0, 0.0, 0.0)"
    assert rep.failures == (
        [(-1.0, 0.5, t_reason)]
        + [(0.0, t, s_reason) for t in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        + [(1.0, 0.5, t_reason)]
    )
    assert rep.samples.shape == (8, 3)
    assert np.all(np.isfinite(rep.samples))


@pytest.mark.parametrize("mode", list(SolitonMode))
def test_residual_report_fails_non_finite_residuals(mode):
    """A node whose jet is finite but whose fundamental forms overflow
    (f' = 1e160, so E = 1 + f'^2 is inf) fails with the residual it gave,
    in row-major order; the finite rows are kept."""
    fam = make_generic_first_kind(
        lambda s: (0.0, 1e160 if s > 0.0 else 0.5, 0.0),
        lambda t: (2.0 + 0.5 * math.cos(t), -0.5 * math.sin(t), -0.5 * math.cos(t)),
        (-1.0, 1.0),
        (-1.0, 1.0),
    )
    rep = residual_report(fam, mode, GridSpec(3, 3, margin=0.0))
    assert rep.failures == [(1.0, t, "residual is not finite: nan") for t in (-1.0, 0.0, 1.0)]
    assert rep.samples[:, 0].tolist() == [-1.0] * 3 + [0.0] * 3
    assert np.all(np.isfinite(rep.samples))
    assert math.isfinite(rep.max_abs)


# f and g both vary, over unequal ranges, so a transposed grid shows
def _f1(s):
    return ScalarJet2(math.sin(s), math.cos(s), -math.sin(s))


def _g1(t):
    return ScalarJet2(2.0 + 0.5 * math.cos(t), -0.5 * math.sin(t), -0.5 * math.cos(t))


def _f2(s):
    return ScalarJet2(math.cos(2.0 * s), -2.0 * math.sin(2.0 * s), -4.0 * math.cos(2.0 * s))


@pytest.mark.parametrize("mode", list(SolitonMode))
def test_grid_report_matches_reduced_forms(mode):
    """Every grid residual equals the independent reduced form over 2*W^3,
    at the node's own (s, t), on non-square grids of both kinds."""
    grid = GridSpec(13, 7, margin=0.0)
    b = 0.3

    def first_kind(s, t):
        fj, gj = _f1(s), _g1(t)
        w2 = gj.d1 ** 2 * (fj.d1 ** 2 + 1.0) + 1.0
        return reduced_residual_first_kind(mode, fj, gj, s, t) / (2.0 * w2 ** 1.5)

    def second_kind(s, t):
        fj = _f2(s)
        return reduced_residual_second_kind(mode, fj, b, s, t) / (2.0 * (fj.d1 ** 2 + 1.0) ** 1.5)

    for fam, expect in (
        (make_generic_first_kind(_f1, _g1, (-2.0, 1.5), (-1.0, 2.5)), first_kind),
        (make_generic_second_kind(_f2, b, (-2.0, 2.0), (0.5, 4.0)), second_kind),
    ):
        rep = residual_report(fam, mode, grid)
        assert rep.samples.shape == (13 * 7, 3) and not rep.failures
        for s, t, v in rep.samples.tolist():
            assert _rel(v, expect(s, t)) <= 1e-10, (fam.name, s, t)
        for k in (0, 8, 50, 13 * 7 - 1):
            s, t, v = rep.samples[k]
            assert v == residual(mode, fam.jet(float(s), float(t)))


def test_residual_report_raises_when_everything_fails():
    fam = make_generic_first_kind(
        lambda s: (0.0, 0.0, 0.0),
        lambda t: (-1.0, 0.0, 0.0),
        (-1.0, 1.0),
        (-1.0, 1.0),
    )
    with pytest.raises(SamplingError, match="profile value must be positive"):
        residual_report(fam, SolitonMode.MINIMAL, GridSpec(3, 3))
