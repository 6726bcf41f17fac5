"""The three residual equations, their reduced forms, and grid reports."""
import bisect
import dataclasses
import math
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from solsurf import (
    GridSpec,
    ResidualReport,
    SolitonMode,
    SurfaceFamily,
    first_kind_jet,
    make_generic_first_kind,
    make_generic_second_kind,
    make_horosphere,
    make_minimal_cylinder,
    make_vertical_plane,
    mean_curvature,
    reduced_residual_first_kind,
    reduced_residual_second_kind,
    residual,
    residual_report,
    export,
    second_kind_jet,
    soliton_residuals,
    surface_factory,
    surface_jets,
    unit_normal,
    verify,
)
from solsurf.errors import DomainError
from solsurf.surface_factory import _failures, make_conformal_cylinder, sample_grid
from solsurf.surface_jets import _curve, _horospherical, _positions, _vertical, product_surface_jet
from solsurf.commands import FAMILIES
from solsurf.export import write_obj_mesh, write_residual_csv, write_residual_summary

MINIMAL, TRANSLATOR, CONFORMAL = SolitonMode


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 1e155, 1e300])
def test_horosphere_residual_values(a):
    """Flat slices kill the translator equation exactly; the other two
    residuals take the closed values 1 and a+1, also where ``a^2``
    overflows, with no numpy warning."""
    j = make_horosphere(a).jet(0.37, -1.21)
    assert residual(TRANSLATOR, j) == 0.0
    assert residual(MINIMAL, j) == 1.0
    assert residual(CONFORMAL, j) == a + 1.0


def test_single_jets_fail_quietly(fast_horosphere):
    """A single jet whose forms overflow fails as a sweep's node does:
    every residual, the mean curvature and the normal are NaN, and numpy
    does not warn.  On the vertical plane at ``c = 1e160`` ``E = 1 + c^2``
    overflows; on the horosphere at speed 1e100, whose jet is finite,
    ``|Xs x Xt|^2`` does, and a normal ``Xs x Xt / inf = 0`` would give it
    residuals 0, 0, 0, passing it as minimal (at 50 digits: 1, 0, 2)."""
    for j in (make_vertical_plane(1e160).jet(0.4, 1.2), product_surface_jet(*fast_horosphere)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [residual(mode, j) for mode in SolitonMode]
            values += [mean_curvature(j), *unit_normal(j)]
        assert np.isnan(values).all(), values


@pytest.mark.parametrize("c,d", [(0.0, 0.0), (1.0, -1.0), (3.0, 2.0)])
def test_vertical_plane_residual_values(c, d):
    # minimal and conformal vanish for every plane; the translator residual
    # is d/sqrt(c^2+1) and vanishes exactly on the plane through the origin
    j = make_vertical_plane(c, d).jet(0.4, 1.2)
    assert abs(residual(MINIMAL, j)) <= 1e-15
    assert abs(residual(CONFORMAL, j)) <= 1e-15
    expected = d / math.sqrt(c * c + 1.0)
    assert abs(residual(TRANSLATOR, j) - expected) <= 1e-14
    j0 = make_vertical_plane(c, 0.0).jet(0.4, 1.2)
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
        fj = tuple(rng.uniform(-2, 2, 3))
        gj = (float(rng.uniform(0.2, 3.0)), *rng.uniform(-2, 2, 2))
        s, t = rng.uniform(-2, 2, 2)
        j = first_kind_jet(fj, gj, float(s), float(t))
        samples.append((*fj, *gj, s, t))
        rows.append(j)
        w2 = gj[1] ** 2 * (fj[1] ** 2 + 1.0) + 1.0
        clear = 2.0 * w2 ** 1.5
        for mode in SolitonMode:
            a = reduced_residual_first_kind(mode, fj, gj, float(s), float(t))
            b = residual(mode, j) * clear
            assert _rel(a, b) <= 1e-10
    *f, gv, gp, gpp, s, t = np.array(samples).T
    _assert_batch_is_pointwise(first_kind_jet(tuple(f), (gv, gp, gpp), s, t), rows)


def test_reduced_second_kind_matches_general_seeded():
    rng = np.random.default_rng(43)
    samples, rows = [], []
    for _ in range(300):
        f0, f1, f2 = rng.uniform(-2, 2, 3)
        fj = (f0 + float(rng.uniform(-2, 2)), f1, f2)
        s = float(rng.uniform(-2, 2))
        t = float(rng.uniform(0.1, 3.0))
        j = second_kind_jet(fj, s, t)
        samples.append((*fj, s, t))
        rows.append(j)
        clear = 2.0 * (fj[1] ** 2 + 1.0) ** 1.5
        for mode in SolitonMode:
            assert _rel(
                reduced_residual_second_kind(mode, fj, s, t),
                residual(mode, j) * clear,
            ) <= 1e-10
    *f, s, t = np.array(samples).T
    _assert_batch_is_pointwise(second_kind_jet(tuple(f), s, t), rows)


jet_floats = st.floats(-2.0, 2.0)


@given(
    st.tuples(jet_floats, jet_floats, jet_floats),
    st.tuples(st.floats(0.2, 3.0), jet_floats, jet_floats),
    jet_floats,
    jet_floats,
    st.sampled_from(list(SolitonMode)),
)
def test_reduced_first_kind_property(fj, gj, s, t, mode):
    j = first_kind_jet(fj, gj, s, t)
    w2 = gj[1] * gj[1] * (fj[1] * fj[1] + 1.0) + 1.0
    a = reduced_residual_first_kind(mode, fj, gj, s, t)
    b = residual(mode, j) * 2.0 * w2 ** 1.5
    assert _rel(a, b) <= 1e-10


def test_second_kind_translator_closed_form():
    # reduced translator for a line f = c s + d: -2 (c^2+1)(-d)
    c, d = 1.5, -0.3
    fj = (c * 0.9 + d, c, 0.0)
    r = reduced_residual_second_kind(SolitonMode.TRANSLATOR, fj, 0.9, 2.0)
    assert abs(r - 2.0 * (c * c + 1.0) * d) <= 1e-14


def test_residual_report_grid_structure():
    fam = make_horosphere(1.0, s_range=(0.0, 1.0), t_range=(0.0, 2.0))
    grid = GridSpec(3, 4)
    rep = residual_report(fam, SolitonMode.TRANSLATOR, grid)
    assert rep.family is fam and rep.reasons == ([None] * 3, [None] * 4)
    assert rep.s.tolist() == [0.0, 0.5, 1.0] and rep.t.tolist() == [0.0, 2 / 3, 4 / 3, 2.0]
    assert rep.r.shape == (3, 4) and not rep.r.flags.writeable
    assert rep.samples.shape == (12, 3)
    assert rep.samples[:, 2].tolist() == rep.r.ravel().tolist()
    assert rep.ns == 3 and rep.nt == 4
    # sorted by (s, t): first four rows share s = 0
    assert np.all(rep.samples[:4, 0] == 0.0)
    assert np.all(np.diff(rep.samples[:4, 1]) > 0)
    assert rep.max_abs == np.max(np.abs(rep.samples[:, 2]))
    assert rep.failures == []


def _assert_csv_is_per_row_format(rep, path):
    """The residual CSV is, byte for byte, every sample row put through one
    ``%.12e`` per number, and the writer returns the row count."""
    assert write_residual_csv(path, rep) == len(rep.samples)
    expect = "s,t,residual\n" + "".join(
        "%.12e,%.12e,%.12e\n" % tuple(row) for row in rep.samples.tolist()
    )
    assert Path(path).read_bytes() == expect.encode()


def test_residual_report_collects_partial_failures(tmp_path):
    # g(t) = t is only a valid profile height for t > 0; nodes at t <= 0 fail
    fam = make_generic_first_kind(
        lambda s: (0.0, 0.0, 0.0),
        lambda t: (t, 1.0, 0.0),
        (-1.0, 1.0),
        (-1.0, 1.0),
    )
    rep = residual_report(fam, SolitonMode.MINIMAL, GridSpec(3, 5))
    assert len(rep.failures) == 3 * 3  # t in {-1, -0.5, 0} for each of 3 s nodes
    assert rep.samples.shape == (6, 3)
    assert rep.failures == [
        (s, t, f"profile value must be positive, got {t!r}")
        for s in (-1.0, 0.0, 1.0)
        for t in (-1.0, -0.5, 0.0)
    ]
    _assert_csv_is_per_row_format(rep, tmp_path / "residual.csv")  # whole t columns gone


def test_residual_report_fails_non_finite_axis_jets(tmp_path):
    """A non-finite axis jet fails its whole row or column of nodes, with one
    reason, where it used to give DegenerateJetError at some nodes and
    infinite rows at others.  The s reason wins where both axes fail."""
    fam = make_generic_first_kind(
        lambda s: (math.inf if s == 0.0 else s, 1.0, 0.0),
        lambda t: (2.0 + t, math.nan if t == 0.5 else 1.0, 0.0),
        (-1.0, 1.0),
        (-1.0, 1.0),
    )
    rep = residual_report(fam, SolitonMode.TRANSLATOR, GridSpec(3, 5))
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
    # the s = 0 row is gone and the other rows lack their t = 0.5 node
    _assert_csv_is_per_row_format(rep, tmp_path / "residual.csv")


def test_a_failed_axis_node_fails_every_residual():
    """A failed axis node is NaN in every slot, so it fails in every mode:
    a NaN f leaves only X2 NaN, which the minimal residual ``X3*H + N3``
    never reads, and the node would otherwise come out finite."""
    fam = make_generic_first_kind(lambda s: (math.nan if s > 0.0 else 0.0, 0.0, 0.0),
                                  lambda t: (2.0 + t, 1.0, 0.0), (-1.0, 1.0), (-1.0, 1.0))
    rep = residual_report(fam, MINIMAL, GridSpec(3, 3))
    reason = "axis jet at s=1.0 is not finite: (1.0, nan, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)"
    assert rep.failures == [(1.0, t, reason) for t in (-1.0, 0.0, 1.0)]


@pytest.mark.parametrize("mode", list(SolitonMode))
def test_residual_report_fails_non_finite_residuals(mode, tmp_path):
    """A node whose jet is finite but whose fundamental forms overflow
    (f' = 1e160, so E = 1 + f'^2 is inf) fails with the residual it gave,
    in row-major order; the finite rows are kept.  At t = 0, g' = 0, so
    ``|Xs x Xt|^2 = 1`` and ``H = E*m/2`` is -inf, beyond the float range;
    at t = +-1 the cross product overflows too and the residual is NaN."""
    fam = make_generic_first_kind(
        lambda s: (0.0, 1e160 if s > 0.0 else 0.5, 0.0),
        lambda t: (2.0 + 0.5 * math.cos(t), -0.5 * math.sin(t), -0.5 * math.cos(t)),
        (-1.0, 1.0),
        (-1.0, 1.0),
    )
    rep = residual_report(fam, mode, GridSpec(3, 3))
    assert rep.failures == [(1.0, t, f"residual is not finite: {r}")
                            for t, r in ((-1.0, "nan"), (0.0, "-inf"), (1.0, "nan"))]
    assert rep.samples[:, 0].tolist() == [-1.0] * 3 + [0.0] * 3
    assert np.all(np.isfinite(rep.samples))
    assert math.isfinite(rep.max_abs)
    _assert_csv_is_per_row_format(rep, tmp_path / "residual.csv")  # the s = 1 row is gone


def _cusp():
    """A product family that is not immersed on its ``t = 0`` column:
    ``beta(t) = (0, t^3, 1)`` has ``beta'(0) = 0``, so ``Xt = 0`` there."""
    alpha = surface_factory._along(_horospherical, surface_factory._linear_jet(0.5, 0.0))

    def beta(t):
        return _vertical((t ** 3, 3.0 * t * t, 6.0 * t), (1.0, 0.0, 0.0))

    return SurfaceFamily("cusp", {}, (-1.0, 1.0), (-1.0, 1.0), alpha, beta)


@pytest.mark.parametrize("mode", list(SolitonMode))
def test_collapsed_nodes_fail_their_own_nodes(mode, tmp_path):
    """A collapsed node, ``|Xs x Xt| = 0``, fails with the residual it gave
    instead of aborting the sweep, and the mesh, which needs no normal,
    writes every vertex."""
    fam = _cusp()
    rep = residual_report(fam, mode, GridSpec(3, 5))
    assert rep.failures == [(s, 0.0, "residual is not finite: nan") for s in (-1.0, 0.0, 1.0)]
    assert rep.samples.shape == (12, 3)
    assert 0.0 not in rep.samples[:, 1].tolist()
    assert np.all(np.isfinite(rep.samples))
    _assert_csv_is_per_row_format(rep, tmp_path / "residual.csv")  # the t = 0 column is gone
    path = tmp_path / "cusp.obj"
    assert write_obj_mesh(path, fam, GridSpec(3, 5)) == (15, 16)
    vertices = [line.split()[1:] for line in path.read_text().splitlines() if line[0] == "v"]
    assert len(vertices) == 15 and np.all(np.isfinite(np.array(vertices, dtype=float)))


def test_residual_report_forms_the_cross_product_once(monkeypatch):
    """``Xs x Xt`` is formed once per report, in the normal: the builder
    does not form it again to test the immersion."""
    calls = []
    cross = surface_jets._cross

    def counted(a, b):
        calls.append(1)
        return cross(a, b)

    monkeypatch.setattr(surface_jets, "_cross", counted)
    residual_report(make_minimal_cylinder(1.2, 1.1), MINIMAL, GridSpec(5, 7))
    assert len(calls) == 1


# Nodes kept on a grid of at most 5x5, row-major; nodes past ns*nt are unused.
_KEEP = st.lists(st.booleans(), min_size=25, max_size=25)
_NONE = [False] * 25


@given(st.integers(2, 5), st.integers(2, 5), _KEEP)
@example(3, 4, _NONE[:5] + [True] + _NONE[6:])  # a single surviving node
@example(3, 4, _NONE[:4] + [True] * 4 + _NONE[8:])  # a single surviving row
@example(3, 4, [True] * 4 + [False, False, True, False] + [True] * 4 + _NONE[12:])  # a one-node row
def test_masked_report_rows_are_sorted_and_written_per_row(ns, nt, keep):
    """Whatever nodes fail, the samples are the product grid minus the failed
    nodes, sorted by (s, t), and the CSV holds exactly those rows."""
    keep = np.array(keep[: ns * nt]).reshape(ns, nt)
    fam = make_generic_first_kind(_f1, _g1, (-1.5, 2.0), (-0.75, 1.25))
    computed = soliton_residuals._residual_of

    def masked(mode, X, H, N):
        return np.where(keep, computed(mode, X, H, N), np.nan)

    with mock.patch.object(soliton_residuals, "_residual_of", masked):
        if not keep.any():
            with pytest.raises(DomainError, match="has a finite residual"):
                residual_report(fam, TRANSLATOR, GridSpec(ns, nt))
            return
        rep = residual_report(fam, TRANSLATOR, GridSpec(ns, nt))
    s_axis, t_axis = np.linspace(-1.5, 2.0, ns), np.linspace(-0.75, 1.25, nt)
    got = [(s, t) for s, t, _ in rep.samples.tolist()]
    assert got == [(s, t) for i, s in enumerate(s_axis) for j, t in enumerate(t_axis)
                   if keep[i, j]]
    assert got == sorted(got)
    assert len(rep.failures) == keep.size - len(got)
    with tempfile.TemporaryDirectory() as tmp:
        _assert_csv_is_per_row_format(rep, Path(tmp) / "residual.csv")


def test_residual_csv_keeps_signed_zeros(tmp_path):
    """The writer formats each s node on its own and the t nodes by their
    bits, so 0.0 and -0.0 on either axis keep their signs, on rows that
    reuse the lines of the row before them too."""
    fam = make_generic_first_kind(_f1, _g1, (-1.0, 1.0), (-1.0, 1.0))
    rep = residual_report(fam, TRANSLATOR, GridSpec(3, 3))
    rep = dataclasses.replace(rep, s=np.array([0.0, -0.0, 0.0]), t=np.array([-0.0, 0.0, 1.0]),
                              r=np.repeat(rep.r[:1], 3, axis=0))  # every row repeats
    for axis in (rep.s, rep.t):
        assert {math.copysign(1.0, x) for x in axis.tolist() if x == 0.0} == {-1.0, 1.0}
    _assert_csv_is_per_row_format(rep, tmp_path / "residual.csv")


def _repeated_rows(rep):
    """How many s rows of a grid have the residual bits of the row before
    them."""
    return sum(rep.r[i].tobytes() == rep.r[i - 1].tobytes() for i in range(1, len(rep.s)))


# The family/mode pairs of the benchmark's residual sweep, with parameters
# inside its ranges.  Their s step is a horizontal translation, so every s
# row repeats the one before it.
_SWEEP_SHAPES = [
    ("horosphere", "translator", {"a": 1.25}),
    ("vertical-plane", "minimal", {"c": 1.5, "d": -0.25}),
    ("minimal-cylinder", "minimal", {"c": 1.5, "y0": 1.25}),
    ("grim-reaper", "translator", {"lam": 0.5, "span": (-50.0, 50.0)}),
    ("conformal-cylinder", "conformal", {"a_slope": 1.0, "y0": 1.25}),
]
# A pair whose rows differ from each other only by rounding.
_ROUNDED_ROWS = ("minimal-cylinder", "translator", {"c": 1.5, "y0": 1.25})
_GRID_CASES = _SWEEP_SHAPES + [_ROUNDED_ROWS]


def _kernel_calls(monkeypatch):
    """The row count of every table ``export._num_rows`` is called with from
    now on, in call order."""
    calls = []
    num_rows = export._num_rows

    def counted(template, table):
        calls.append(len(table))
        return num_rows(template, table)

    monkeypatch.setattr(export, "_num_rows", counted)
    return calls


@pytest.mark.parametrize("name,mode,kw", _GRID_CASES,
                         ids=[f"{name}-{mode}" for name, mode, _ in _GRID_CASES])
def test_residual_csv_bytes_at_the_sweep_grid(name, mode, kw, tmp_path, monkeypatch):
    """At 201x201 the CSV is the per-row format, whether the writer reuses
    the previous row's lines (every sweep shape) or formats each row, and
    the kernel formats only the rows that are not reused."""
    rep = residual_report(FAMILIES[name][0](**kw), SolitonMode(mode), GridSpec(201, 201))
    assert rep.samples.shape == (201 * 201, 3)
    calls = _kernel_calls(monkeypatch)
    _assert_csv_is_per_row_format(rep, tmp_path / "residual.csv")
    if (name, mode, kw) in _SWEEP_SHAPES:
        assert _repeated_rows(rep) == 200
        assert calls == [201]
    else:
        assert _repeated_rows(rep) < 200
        assert calls == [201] * (201 - _repeated_rows(rep))


def test_residual_csv_bytes_when_every_row_is_distinct(tmp_path, monkeypatch):
    """A curved f makes every s row its own: nothing is reused."""
    fam = make_generic_first_kind(_f1, _g1, (-1.0, 1.0), (-1.0, 1.0))
    rep = residual_report(fam, MINIMAL, GridSpec(201, 201))
    assert _repeated_rows(rep) == 0
    calls = _kernel_calls(monkeypatch)
    _assert_csv_is_per_row_format(rep, tmp_path / "residual.csv")
    assert calls == [201] * 201


def test_residual_csv_bytes_when_a_row_spans_kernel_chunks(tmp_path, monkeypatch):
    """A row of more than ``_CHUNK_CELLS // 2`` nodes comes back from the
    kernel in several chunks, and the writer keeps every one of them."""
    fam = make_generic_first_kind(_f1, _g1, (-1.0, 1.0), (-1.0, 1.0))
    rep = residual_report(fam, MINIMAL, GridSpec(3, 5000))
    assert rep.samples.shape == (3 * 5000, 3) and 5000 > export._CHUNK_CELLS // 2
    calls = _kernel_calls(monkeypatch)
    _assert_csv_is_per_row_format(rep, tmp_path / "residual.csv")
    assert calls == [5000] * 3


# One s row of residuals at t = 0, 0.5 and 1, and rows that differ from it,
# or from each other, in one way only.
_ROW = [0.0, 0.25, 0.25]
_NEG_ZERO = [-0.0, 0.25, 0.25]  # equal to _ROW under ==
_NO_MID = [0.0, math.nan, 0.25]  # t = 0.5 failed
_NO_END = [0.0, 0.25, math.nan]  # t = 1.0 failed: the finite residuals of _NO_MID
_NONE_LEFT = [math.nan] * 3  # every node failed: the row writes nothing
_LAST = [0.0, 0.25, 0.375]
# Residuals the kernel hands to ``%`` and splices in: a subnormal, a value
# past its range and a tie at the 13th digit; then the tie one ulp lower,
# which rounds down (1.000000000000e+00, not 1.000000000001e+00).
_SPLICED = [5e-324, 1e300, 1.0000000000005]
_ULP_OFF = [5e-324, 1e300, math.nextafter(1.0000000000005, 0.0)]


@pytest.mark.parametrize("rows", [
    [_ROW, _ROW, _NEG_ZERO, _NEG_ZERO, _ROW],
    [_ROW, _ROW, _NO_MID, _NO_END, _NO_END, _NONE_LEFT, _NONE_LEFT, _ROW],
    [_ROW, _ROW, _LAST, _LAST, _ROW],
    [_ROW, _SPLICED, _SPLICED, _ULP_OFF, _ULP_OFF, _ROW],
], ids=["signed-zero", "missing-t", "last-residual", "spliced-ulp"])
def test_residual_csv_reuses_a_row_only_with_equal_bits(rows, tmp_path):
    """A row is written from the previous row's lines only when its
    residuals have the same bits, so each file is the per-row format."""
    fam = make_horosphere(1.0, s_range=(0.0, len(rows) - 1.0), t_range=(0.0, 1.0))
    s, t = np.arange(len(rows), dtype=float), np.array([0.0, 0.5, 1.0])
    rep = ResidualReport(TRANSLATOR, fam, s, t, np.array(rows), ([None] * len(s), [None] * 3))
    _assert_csv_is_per_row_format(rep, tmp_path / "residual.csv")


# f and g both vary, over unequal ranges, so a transposed grid shows
def _f1(s):
    return math.sin(s), math.cos(s), -math.sin(s)


def _g1(t):
    return 2.0 + 0.5 * math.cos(t), -0.5 * math.sin(t), -0.5 * math.cos(t)


def _f2(s):
    return math.cos(2.0 * s) + 0.3, -2.0 * math.sin(2.0 * s), -4.0 * math.cos(2.0 * s)


@pytest.mark.parametrize("mode", list(SolitonMode))
def test_grid_report_matches_reduced_forms(mode):
    """Every grid residual equals the independent reduced form over 2*W^3,
    at the node's own (s, t), on non-square grids of both kinds."""
    grid = GridSpec(13, 7)

    def first_kind(s, t):
        fj, gj = _f1(s), _g1(t)
        w2 = gj[1] ** 2 * (fj[1] ** 2 + 1.0) + 1.0
        return reduced_residual_first_kind(mode, fj, gj, s, t) / (2.0 * w2 ** 1.5)

    def second_kind(s, t):
        fj = _f2(s)
        return reduced_residual_second_kind(mode, fj, s, t) / (2.0 * (fj[1] ** 2 + 1.0) ** 1.5)

    for fam, expect in (
        (make_generic_first_kind(_f1, _g1, (-2.0, 1.5), (-1.0, 2.5)), first_kind),
        (make_generic_second_kind(_f2, (-2.0, 2.0), (0.5, 4.0)), second_kind),
    ):
        rep = residual_report(fam, mode, grid)
        assert rep.samples.shape == (13 * 7, 3) and not rep.failures
        for s, t, v in rep.samples.tolist():
            assert _rel(v, expect(s, t)) <= 1e-10, (fam.name, s, t)
        for k in (0, 8, 50, 13 * 7 - 1):
            s, t, v = rep.samples[k]
            assert v == residual(mode, fam.jet(float(s), float(t)))


def _from_public_parts(mode, j):
    """The residual written out from the public ``unit_normal`` and
    ``mean_curvature``."""
    N, H = unit_normal(j), mean_curvature(j)
    X1, X2, X3 = j[0, ..., 0], j[0, ..., 1], j[0, ..., 2]
    if mode is MINIMAL:
        return X3 * H + N[..., 2]
    if mode is TRANSLATOR:
        return X3 * (X3 * H) - (X1 * N[..., 0] + X2 * N[..., 1])
    return X3 * (X3 * H) + (X3 + 1.0) * N[..., 2]


@pytest.mark.parametrize("mode", list(SolitonMode))
def test_residual_has_the_bits_of_its_public_parts(mode, grid_jet):
    """One normal serves both terms of the residual, with the bits of the
    public normal and mean curvature, on a curved-f grid and at a point."""
    fam = make_generic_first_kind(_f1, _g1, (-2.0, 1.5), (-1.0, 2.5))
    (_, _, jg), failures = grid_jet(fam, GridSpec(41, 37))
    assert failures == []
    for j in (jg, fam.jet(0.3, 1.7)):
        got, want = residual(mode, j), _from_public_parts(mode, j)
        assert np.shape(got) == np.shape(want) == j.shape[1:-1]
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert len(set(np.asarray(residual(mode, jg))[:, 0].tolist())) > 1  # rows differ


# A sweep holds one block of BLOCK_NODES // nt s rows at a time; both grids
# have blocks of 40 rows, so a bound of the form k*(grid arrays) + c*(block
# arrays) must hold while the grid grows fivefold in s, and a whole-grid jet
# (18 grid-sized arrays) breaks it at both.
_MEMORY_GRIDS = (GridSpec(201, 201), GridSpec(1001, 201))


def _traced_peak(fn) -> int:
    """Peak bytes traced while ``fn()`` runs, after one untraced call for
    lazy set-up."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _array_bytes(grid):
    """Bytes of one grid-sized and of one block-sized float array."""
    rows = min(grid.ns, max(1, surface_factory.BLOCK_NODES // grid.nt))
    return grid.ns * grid.nt * 8, rows * grid.nt * 8


def test_residual_report_peak_memory(tmp_path):
    """A report holds its residual grid (one grid-sized float array), the
    grid's non-finite mask (two bool grids, a quarter of one) and one
    block at a time: the block's points and derivative
    slots (3 and 15 block-sized arrays) and the residual's temporaries; the
    CSV writer then holds one row's text.  Report and CSV peaked at 1.06
    grid arrays plus 32 block arrays (curved f at 1001x201, numpy 2.4); the
    bound adds 0.44 grid arrays of margin.  It holds for the minimal
    cylinder, whose linear f gives derivative slots of one row per sweep,
    for a curved f, whose every row heads a run, so its slots are a whole
    block's, and for that f with f' = 1e160 for s > 0, whose failed nodes
    the report holds as NaNs of its grid, not as a list."""
    curved = make_generic_first_kind(_f1, _g1, (-2.0, 1.5), (-1.0, 2.5))
    failing = make_generic_first_kind(
        lambda s: (math.sin(s), 1e160 if s > 0.0 else math.cos(s), -math.sin(s)), _g1,
        (-2.0, 1.5), (-1.0, 2.5))
    for fam in (make_minimal_cylinder(1.2, 1.1), curved, failing):
        for grid in _MEMORY_GRIDS:
            whole, block = _array_bytes(grid)
            peak = _traced_peak(lambda: write_residual_csv(
                tmp_path / "r.csv", residual_report(fam, MINIMAL, grid)))
            assert peak <= 1.5 * whole + 32 * block, (fam.name, grid, peak / whole, peak / block)


def test_sample_grid_peak_memory():
    """Sampling evaluates the two factor curves on their axes and builds no
    surface jet: at both grids it holds less than one grid-sized array."""
    fam = make_minimal_cylinder(1.2, 1.1)
    for grid in _MEMORY_GRIDS:
        whole, _ = _array_bytes(grid)
        peak = _traced_peak(lambda: sample_grid(fam, grid))
        assert peak <= whole, (grid, peak / whole)


def test_write_obj_mesh_peak_memory(tmp_path):
    """The mesh writer keeps nothing of the grid: it holds one block's
    points and the text of its vertices, or of a block of cell rows' faces,
    at most 56 block-sized arrays at both grids."""
    fam = make_minimal_cylinder(1.2, 1.1)
    for grid in _MEMORY_GRIDS:
        whole, block = _array_bytes(grid)
        peak = _traced_peak(lambda: write_obj_mesh(tmp_path / "m.obj", fam, grid))
        assert peak <= 56 * block, (grid, peak / whole, peak / block)


def test_verify_residual_defect_peak_memory():
    """verify's grid rows keep only each block's residual maxima, so one
    block's points and curvature are alive at a time: on a 1001x201
    horosphere with two modes they peak at most at 33 block-sized arrays (a
    block's points are 3 and its derivative slots at most 15; a loop that
    keeps the block it was handed holds two while the next is formed)."""
    grid = GridSpec(1001, 201)
    terms = ((TRANSLATOR, 0.0), (MINIMAL, 1.0))
    _, block = _array_bytes(grid)
    peak = _traced_peak(lambda: verify._residual_defect([(make_horosphere(1.0), terms)], grid, ""))
    assert peak <= 33 * block, peak / block


def _axis_failing(s_bad, t_bad):
    """A flat first kind on [-1, 1]^2 whose f raises at the s nodes in
    ``s_bad`` and whose g(t) = t - t_bad fails every t node up to ``t_bad``."""
    def f(s):
        if s in s_bad:
            raise DomainError(f"no f at {s!r}")
        return 0.0, 0.0, 0.0

    return make_generic_first_kind(f, lambda t: (t - t_bad, 1.0, 0.0), (-1.0, 1.0), (-1.0, 1.0))


@pytest.mark.parametrize("s_bad, t_bad", [
    ((), -0.5), ((0.5,), -2.0), ((-1.0,), -2.0), ((0.0, 0.5), -0.5), ((-1.0,), 0.0),
    ((), 1.0)])
def test_refusals_count_failed_nodes_without_listing_them(s_bad, t_bad, tmp_path):
    """The mesh's and verify's refusals of a failed axis node name the count
    and the first of the nodes the whole :func:`_failures` list holds, with
    failed ``s`` rows, ``t`` columns, both, and every node failed."""
    fam, grid = _axis_failing(s_bad, t_bad), GridSpec(5, 9)
    (s, t, _, _), reasons = sample_grid(fam, grid)
    listed = _failures(s, t, reasons)
    assert listed
    with pytest.raises(DomainError) as exc:
        write_obj_mesh(tmp_path / "m.obj", fam, grid)
    assert str(exc.value) == \
        f"{len(listed)} mesh node(s) failed, first (s, t, reason): {listed[0]}"
    defect, detail = verify._residual_defect([(fam, ((MINIMAL, 0.0),))], grid, "x")
    assert math.isnan(defect)
    assert detail == (f"{fam.name} {fam.params}: {len(listed)} failures, "
                      f"first (s, t, reason): {listed[0]}")


def test_refusal_peak_memory(tmp_path):
    """A 1001x1001 mesh whose g(t) = t fails 501 of its t nodes is refused
    for its 501,501 failed nodes without a tuple per node: the refusal
    traces a peak under 1 MB (0.35 MB on numpy 2.4), where listing every
    node traced 37.5 MB."""
    fam = _axis_failing((), 0.0)

    def refuse():
        with pytest.raises(DomainError) as exc:
            write_obj_mesh(tmp_path / "m.obj", fam, GridSpec(1001, 1001))
        return str(exc.value)

    assert refuse().startswith("501501 mesh node(s) failed, first (s, t, reason): (-1.0, -1.0, ")
    peak = _traced_peak(refuse)
    assert peak <= 1 << 20, peak


# The seam family: f is curved, so no two s rows of residuals repeat, on a
# grid whose blocks are 40 s rows.  In the failing variant f raises at one s
# node, g at one t node, and f' = 1e160 overflows the fundamental forms on
# one s row of the third block, whose residuals are then NaN.
_SEAM_GRID = GridSpec(123, 201)
_SEAM_S, _SEAM_T = (-2.0, 1.5), (-1.0, 2.5)


def _seam_family(failing: bool):
    s_axis = np.linspace(*_SEAM_S, _SEAM_GRID.ns)
    s_bad, s_huge = float(s_axis[45]), float(s_axis[97])
    t_bad = float(np.linspace(*_SEAM_T, _SEAM_GRID.nt)[7])

    def f(s):
        if failing and s == s_bad:
            raise DomainError(f"no f at {s!r}")
        return math.sin(s), 1e160 if failing and s == s_huge else math.cos(s), -math.sin(s)

    def g(t):
        if failing and t == t_bad:
            raise DomainError(f"no g at {t!r}")
        return _g1(t)

    return make_generic_first_kind(f, g, _SEAM_S, _SEAM_T)


def _whole_grid_report(fam, mode, grid):
    """The report of one whole-grid jet of the nodes ``sample_grid`` kept,
    NaN at the others: the reference the blocked sweep must match."""
    (s, t, alpha, beta), reasons = sample_grid(fam, grid)
    i, k = (np.array([x is None for x in axis]) for axis in reasons)
    r = np.full((len(s), len(t)), np.nan)
    r[np.ix_(i, k)] = residual(mode, product_surface_jet(alpha[:, i], beta[:, k]))
    return ResidualReport(mode, fam, s, t, r, reasons)


def _listed(rep):
    """A report's failed nodes listed node by node: the reference of its
    ``failures``.  A node's reason is its s node's, else its t node's, else
    its residual's."""
    s_reasons, t_reasons = rep.reasons
    return [(si, ti, next(x for x in (sr, tr, f"residual is not finite: {v!r}") if x is not None))
            for si, sr, row in zip(rep.s.tolist(), s_reasons, rep.r.tolist())
            for ti, tr, v in zip(rep.t.tolist(), t_reasons, row) if not math.isfinite(v)]


def _grid_bytes(rep):
    """The bits of a report's axes and residual grid."""
    return rep.s.tobytes(), rep.t.tobytes(), rep.r.tobytes()


@pytest.mark.parametrize("mode", list(SolitonMode))
def test_block_seams_keep_the_bits(mode, tmp_path):
    """A sweep in blocks of 40, 40, 40 and 3 s rows gives the residual grid,
    failures, CSV and summary of one whole-grid jet, with a failed s node,
    a failed t node and a row of NaN residuals in the third block."""
    fam = _seam_family(failing=True)
    (s, _, alpha, beta), reasons = sample_grid(fam, _SEAM_GRID)
    blocks = surface_factory._block_rows(alpha.shape[1], beta.shape[1])
    assert [(rows.start, rows.stop) for rows in blocks] == [(0, 40), (40, 80), (80, 120),
                                                            (120, 123)]
    assert {x.split(" at ")[0] for axis in reasons for x in axis if x} == {"no f", "no g"}
    rep, ref = residual_report(fam, mode, _SEAM_GRID), _whole_grid_report(fam, mode, _SEAM_GRID)
    assert rep.failures == _listed(ref)
    huge = [si for si, _, reason in rep.failures if reason.startswith("residual is not finite")]
    assert len(huge) == 200 and set(huge) == {float(s[97])}  # row 97: the third block
    assert _grid_bytes(rep) == _grid_bytes(ref)
    assert len(set(rep.samples[:, 2].tolist())) > len(rep.samples) // 2  # rows differ
    _assert_csv_is_per_row_format(rep, tmp_path / "blocked.csv")  # so the reference's rows too
    write_residual_summary(tmp_path / "blocked.txt", rep)
    write_residual_summary(tmp_path / "whole.txt", ref)
    assert (tmp_path / "blocked.txt").read_bytes() == (tmp_path / "whole.txt").read_bytes()


# The runs family: f is piecewise linear, so its s rows come in runs of
# horizontal translates that share (a3, alpha', alpha''), on the seam grid; a
# sweep shares curvature only when every row is a translate, so this family
# forms it on every row.  By s row: slope 0.5 on 0-24, -0.0 on 25-59 (across
# the first block boundary), 0.0 on 60-69 (apart from the last by the sign bit
# alone), 2.0 on 70-79 and -1.25 on 80-122, from a block boundary; f raises at
# row 50, a NaN row.
_RUN_STARTS, _RUN_SLOPES = (0, 25, 60, 70, 80), (0.5, -0.0, 0.0, 2.0, -1.25)


def _runs_family(starts=_RUN_STARTS, slopes=_RUN_SLOPES, bad=50):
    s_axis = np.linspace(*_SEAM_S, _SEAM_GRID.ns)
    starts = [float(s_axis[i]) for i in starts]
    s_bad = None if bad is None else float(s_axis[bad])

    def f(s):
        if s == s_bad:
            raise DomainError(f"no f at {s!r}")
        slope = slopes[bisect.bisect_right(starts, s) - 1]
        return slope * s, slope, 0.0

    return make_generic_first_kind(f, _g1, _SEAM_S, _SEAM_T)


def _counted_curvature(monkeypatch):
    """The number of rows of each curvature a sweep forms, in order."""
    formed = []
    curvature = surface_factory._curvature

    def counted(d):
        formed.append(d[0].shape[0])
        return curvature(d)

    monkeypatch.setattr(surface_factory, "_curvature", counted)
    return formed


@pytest.mark.parametrize("mode", list(SolitonMode))
def test_runs_of_translated_rows_keep_the_bits(mode, tmp_path, monkeypatch):
    """Runs of translated rows that are not the whole grid give the residual
    grid, failures, CSV and summary of one whole-grid jet: runs end inside a
    block and on its boundary, cross one, differ at ``-0.0``/``0.0``, and
    meet a failed s node.  Not every row is a translate of row 0, so each
    block forms its own curvature, on all its rows: blocks of 40, 40, 40
    and 3."""
    formed = _counted_curvature(monkeypatch)
    fam = _runs_family()
    rep, ref = residual_report(fam, mode, _SEAM_GRID), _whole_grid_report(fam, mode, _SEAM_GRID)
    assert len(rep.failures) == _SEAM_GRID.nt and rep.failures == _listed(ref)
    assert _grid_bytes(rep) == _grid_bytes(ref)
    for name, report in (("runs", rep), ("whole", ref)):
        write_residual_csv(tmp_path / f"{name}.csv", report)
        write_residual_summary(tmp_path / f"{name}.txt", report)
    for ext in ("csv", "txt"):
        assert (tmp_path / f"runs.{ext}").read_bytes() == (tmp_path / f"whole.{ext}").read_bytes()
    assert formed == [40, 40, 40, 3]


def test_curvature_is_formed_once_per_run(monkeypatch):
    """A 201x201 sweep of the minimal cylinder, whose f is linear, forms
    curvature on one row for the whole sweep, though it spans 6 blocks of
    40 rows; a curved-f family forms it on every row.  verify's grid rows
    form it once for all their modes, and every CLI family, whose f is
    linear, once at its defaults at 201x201 and 1001x201.  A linear f with
    one failed s node, or with a ``-0.0`` slope where row 0 has ``0.0``, does
    not make every row a translate of row 0 by bits: each block forms its
    own, with the bits of one whole-grid jet."""
    formed = _counted_curvature(monkeypatch)
    grid = GridSpec(201, 201)
    residual_report(make_minimal_cylinder(1.2, 1.1), MINIMAL, grid)
    assert formed == [1]
    formed.clear()
    residual_report(make_generic_first_kind(_f1, _g1, (-2.0, 1.5), (-1.0, 2.5)), MINIMAL, grid)
    assert formed == [40] * 5 + [1]
    formed.clear()
    terms = ((TRANSLATOR, 0.0), (MINIMAL, 1.0))
    assert verify._residual_defect([(make_horosphere(1.0), terms)], GridSpec(101, 101), "x") \
        == (0.0, "x")
    assert formed == [1]  # one curvature for blocks of 81 and 20 rows
    for name, (build, _) in FAMILIES.items():  # every CLI family, at its defaults
        fam = build()
        for grid in (GridSpec(201, 201), GridSpec(1001, 201)):
            formed.clear()
            residual_report(fam, MINIMAL, grid)
            assert formed == [1], (name, grid)
    for fam, failed in ((_runs_family((0,), (0.5,), bad=61), _SEAM_GRID.nt),
                        (_runs_family((0, 70), (0.0, -0.0), bad=None), 0)):
        formed.clear()
        rep = residual_report(fam, MINIMAL, _SEAM_GRID)
        assert formed == [40, 40, 40, 3]
        ref = _whole_grid_report(fam, MINIMAL, _SEAM_GRID)
        assert len(rep.failures) == failed and rep.failures == _listed(ref)
        assert _grid_bytes(rep) == _grid_bytes(ref)


def test_mesh_block_seams_keep_the_bits(tmp_path):
    """The OBJ written in blocks of 40, 40, 40 and 3 s rows is, byte for
    byte, every vertex of one whole-grid jet and every cell's two faces,
    each formatted on its own."""
    fam, grid = _seam_family(failing=False), _SEAM_GRID
    ns, nt = grid.ns, grid.nt
    assert write_obj_mesh(tmp_path / "m.obj", fam, grid) == (ns * nt, 2 * (ns - 1) * (nt - 1))
    (_, _, alpha, beta), reasons = sample_grid(fam, grid)
    assert reasons == ([None] * ns, [None] * nt)
    X = product_surface_jet(alpha, beta)[0]
    expect = [f"v {x:.12e} {y:.12e} {z:.12e}\n" for x, y, z in X.reshape(-1, 3).tolist()]
    for i in range(ns - 1):
        for k in range(nt - 1):
            a, b, c, d = i * nt + k + 1, (i + 1) * nt + k + 1, (i + 1) * nt + k + 2, i * nt + k + 2
            expect += [f"f {a} {b} {c}\n", f"f {a} {c} {d}\n"]
    assert (tmp_path / "m.obj").read_bytes() == "".join(expect).encode()


def test_sweeps_build_no_surface_jet(monkeypatch):
    """A residual sweep and verify's grid rows form points and curvature
    apart, never a surface jet: with ``product_surface_jet`` made to raise,
    the blocked report of every mode has the residual grid and failures of one
    whole-grid jet, and the horosphere row still measures 0."""
    fam = _seam_family(failing=True)
    refs = {mode: _whole_grid_report(fam, mode, _SEAM_GRID) for mode in SolitonMode}

    def refused(*args):
        raise AssertionError("a sweep built a surface jet")

    monkeypatch.setattr(surface_factory, "product_surface_jet", refused)
    for mode, ref in refs.items():
        rep = residual_report(fam, mode, _SEAM_GRID)
        assert rep.failures == _listed(ref), mode
        assert _grid_bytes(rep) == _grid_bytes(ref), mode
    terms = ((TRANSLATOR, 0.0), (MINIMAL, 1.0))
    assert verify._residual_defect([(make_horosphere(1.0), terms)], GridSpec(101, 101), "x") \
        == (0.0, "x")


def test_mesh_forms_no_jet_and_no_curvature(tmp_path, monkeypatch):
    """The mesh forms its points alone, never through the sweep that forms
    curvature: with the surface jet, the derivative slots and the curvature
    made to raise, it writes the same bytes, in blocks of 40, 40, 40 and 3
    s rows."""
    fam = _seam_family(failing=False)
    write_obj_mesh(tmp_path / "clean.obj", fam, _SEAM_GRID)

    def refused(*args):
        raise AssertionError("the mesh formed a surface jet, derivatives or a curvature")

    for name in ("product_surface_jet", "_derivatives", "_curvature"):
        monkeypatch.setattr(surface_factory, name, refused)
    write_obj_mesh(tmp_path / "m.obj", fam, _SEAM_GRID)
    assert (tmp_path / "m.obj").read_bytes() == (tmp_path / "clean.obj").read_bytes()


def _underflow_family(edge):
    """Alpha and beta heights of 1e-200, whose products underflow to the
    boundary, on the rows ``s > edge`` of [-1, 1]; heights 1 and 1e-200
    elsewhere."""
    def alpha(s):
        return _curve((s, 1.0, 0.0), (0.0, 0.0, 0.0), (np.where(s > edge, 1e-200, 1.0), 0.0, 0.0))

    def beta(t):
        return _vertical((t, 1.0, 0.0), (np.full_like(t, 1e-200), 0.0, 0.0))

    return SurfaceFamily("underflow", {}, (-1.0, 1.0), (0.0, 1.0), alpha, beta)


def test_mesh_block_error_removes_the_file(tmp_path):
    """A row whose points underflow to the boundary (alpha and beta heights
    of 1e-200 multiply to 0 on the last of three rows of nt = 8192) is
    refused before the file is opened, naming its first such node, so no
    file is left."""
    fam = _underflow_family(0.5)
    off = r"mesh point \(s, t\) = \(1.0, 0.0\) is off the half-space"
    with pytest.raises(DomainError, match=off):
        write_obj_mesh(tmp_path / "m.obj", fam, GridSpec(3, surface_factory.BLOCK_NODES))
    assert not (tmp_path / "m.obj").exists()


@pytest.mark.parametrize("mode", list(SolitonMode))
def test_points_off_the_half_space_fail_their_own_nodes(mode, tmp_path):
    """Points off the half-space on the rows s > 0.5 fail just those rows'
    nodes as NaN residuals, and the sweep goes on over the other rows, with
    no numpy warning: the curves of the mesh test above, whose heights of
    1e-200 multiply to 0 there (the mesh still refuses them), and an alpha
    of height -1 there, whose points are below the boundary plane though
    their normal and curvature are finite."""
    def family(a3, b3):
        def alpha(s):
            return _curve((s, 1.0, 0.0), (0.0, 0.0, 0.0), (np.where(s > 0.5, a3, 1.0), 0.0, 0.0))

        def beta(t):
            return _vertical((t, 1.0, 0.0), (np.full_like(t, b3), 0.0, 0.0))

        return SurfaceFamily("off", {}, (-1.0, 1.0), (0.0, 1.0), alpha, beta)

    grid, t = GridSpec(9, 5), [0.0, 0.25, 0.5, 0.75, 1.0]
    for fam in (family(1e-200, 1e-200), family(-1.0, 1.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = residual_report(fam, mode, grid)
        assert rep.failures == [(s, ti, "residual is not finite: nan")
                                for s in (0.75, 1.0) for ti in t]
        assert np.isfinite(rep.r[:7]).all()
    off = r"mesh point \(s, t\) = \(0.75, 0.0\) is off the half-space"
    with pytest.raises(DomainError, match=off):
        write_obj_mesh(tmp_path / "m.obj", family(1e-200, 1e-200), grid)
    assert not (tmp_path / "m.obj").exists()


def _below_family():
    """``alpha = (s, 0, -1)`` and ``beta = (0, t, -2 + 0.1t)``, raw curves
    that no profile check sees: both heights are negative, so every point
    ``(.., .., 2 - 0.1t)`` lies above the boundary plane though no node is
    a product in the half-space group."""
    def alpha(s):
        return _curve((s, 1.0, 0.0), (0.0, 0.0, 0.0), (-1.0, 0.0, 0.0))

    def beta(t):
        return _curve((0.0, 0.0, 0.0), (t, 1.0, 0.0), (-2.0 + 0.1 * t, 0.1, 0.0))

    return SurfaceFamily("below", {}, (-1.0, 1.0), (0.0, 1.0), alpha, beta)


@pytest.mark.parametrize("mode", list(SolitonMode))
def test_negative_factor_heights_fail_every_sweep_node(mode):
    """A node whose alpha and beta heights are both negative is off the
    half-space though its point's height is positive: the sweep fails all 25
    nodes as NaN residuals, so the report refuses the grid."""
    off = r"\(25 failures\), first \(s, t, reason\): \(-1.0, 0.0, 'residual is not finite: nan'\)"
    with pytest.raises(DomainError, match=off):
        residual_report(_below_family(), mode, GridSpec(5, 5))


def test_negative_factor_heights_are_refused_by_the_mesh(tmp_path):
    """The mesh refuses the same nodes as the sweep, names the first, and
    leaves no file."""
    off = r"mesh point \(s, t\) = \(-1.0, 0.0\) is off the half-space"
    with pytest.raises(DomainError, match=off):
        write_obj_mesh(tmp_path / "m.obj", _below_family(), GridSpec(5, 5))
    assert not (tmp_path / "m.obj").exists()


@pytest.mark.parametrize("fam, grid, at", [
    (_underflow_family(0.5), GridSpec(3, surface_factory.BLOCK_NODES), "(1.0, 0.0)"),
    (_below_family(), GridSpec(5, 5), "(-1.0, 0.0)"),
    (_underflow_family(0.99), GridSpec(1001, 1001), "(0.992, 0.0)"),
], ids=["underflow-3xBLOCK", "below-5x5", "underflow-1001x1001"])
def test_a_refused_mesh_opens_no_file(tmp_path, monkeypatch, fam, grid, at):
    """Every refusal comes before the file is opened: the first node off
    the half-space, found from each row's lowest point, is named without a
    call to ``_open_w`` (the 1001x1001 family is off on its last 5 rows,
    after some 60 MB of vertex text)."""
    def opened(*args):
        raise AssertionError("the mesh opened its file")

    monkeypatch.setattr(export, "_open_w", opened)
    off = r"mesh point \(s, t\) = %s is off the half-space" % re.escape(at)
    with pytest.raises(DomainError, match=off):
        write_obj_mesh(tmp_path / "m.obj", fam, grid)


class _Opened(Exception):
    pass


def _slots(n):
    """``n`` finite point slots: ordinary horizontal components, and heights
    that are negative, zero, subnormal, or spread from 1e-320 to 1e308."""
    spread = st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e)
    height = st.one_of(*[spread] * 6, st.sampled_from([0.0, -0.0, 5e-324, 2e-310]),
                       spread.map(lambda h: -h))
    slot = st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), height)
    return st.lists(slot, min_size=n, max_size=n).map(np.array)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.integers(2, 6).flatmap(_slots), st.integers(2, 6).flatmap(_slots))
def test_a_row_is_off_the_half_space_where_its_lowest_point_is(a, b):
    """A point's height is the rounded product ``a3*b3``, which never falls
    as ``b3`` grows when ``a3 > 0``: the rows whose lowest point is off the
    half-space are the rows holding any point off it, products that
    underflow to 0 or overflow to inf included.  The mesh of the product
    refuses the grid's first such node, or else opens its file (200
    derandomised draws, ~1.3 s of tier-1 on a shared 2-core host)."""
    off = np.isnan(_positions(a[:, None], b)[..., 2])
    low = _positions(a, b[np.argmin(b[:, 2])])
    assert np.isnan(low[:, 2]).tolist() == off.any(axis=1).tolist()

    def curve(slots):
        return lambda x: _curve(*((slots[np.asarray(x).astype(int), c], 0.0, 0.0) for c in range(3)))

    fam = SurfaceFamily("slots", {}, (0.0, len(a) - 1.0), (0.0, len(b) - 1.0), curve(a), curve(b))
    with mock.patch.object(export, "_open_w", side_effect=_Opened):
        if off.any():
            i, k = np.argwhere(off)[0].tolist()
            at = re.escape(f"({float(i)!r}, {float(k)!r})")
            with pytest.raises(DomainError, match=rf"mesh point \(s, t\) = {at} is off"):
                write_obj_mesh("unopened.obj", fam, GridSpec(len(a), len(b)))
        else:
            with pytest.raises(_Opened):
                write_obj_mesh("unopened.obj", fam, GridSpec(len(a), len(b)))


def test_negative_factor_heights_give_a_nan_point_in_a_single_jet():
    """A single jet there has a NaN point and finite derivative slots: its
    mean curvature, which reads no point, is the Euclidean one, and every
    residual, which reads the point, is NaN; the bare position is NaN too."""
    fam = _below_family()
    j = fam.jet(0.0, 0.0)
    assert np.isnan(j[0]).all() and np.isnan(fam.position(0.0, 0.0)).all()
    assert np.isfinite(j[1:]).all() and math.isfinite(mean_curvature(j))
    assert all(math.isnan(residual(mode, j)) for mode in SolitonMode)


@pytest.mark.parametrize("mode, weight, bracket, tol", [
    (MINIMAL, lambda z: z ** -2.0, lambda z: -2.0 / z, 1e-4),
    (CONFORMAL, lambda z: np.exp(2.0 / z) / z ** 2, lambda z: -2.0 / z ** 2, 2e-5),
], ids=["minimal", "conformal"])
def test_minimal_and_conformal_residuals_are_weighted_area_gradients(mode, weight, bracket, tol):
    """The minimal and conformal residuals are, up to a factor, the
    gradients of the weighted areas ``F_w = int w(X3) |Xs x Xt| ds dt``,
    ``w = e^psi / z^2``: moving the surface by ``eps * V``, ``V`` vanishing
    on the boundary, gives ``dF/deps = int <V, N> w [(psi' - 2/z) N3 - 2H]
    |Xs x Xt|``, whose bracket is ``-(2/z) (zH + N3)`` for ``psi = 0`` (the
    hyperbolic area) and ``-(2/z^2) (z^2 H + (z + 1) N3)`` for ``psi = 2/z``.
    With ``V = u e_z``, ``<V, N> |Xs x Xt| = u (Xs x Xt)_3``, so ``F_w`` and
    its symmetric difference in ``eps`` need the family's positions alone,
    by central differences, and share no code with ``_curvature`` or
    ``_residual_of``.  On ``X = (s, t + 0.3 sin s, 1 + 0.2 cos t)`` at 201^2
    the gap ``dF/pred - 1`` reads 1.11e-5 (minimal) and 1.77e-6
    (conformal), falling 4-fold per halving of the step; the mutants
    ``1.001 N3`` (minimal) and ``(X3 + 1.001) N3`` (conformal) read 1.11e-3
    and 4.87e-4, beyond ten times each tolerance."""
    fam = make_generic_first_kind(lambda s: (0.3 * math.sin(s), 0.3 * math.cos(s), -0.3 * math.sin(s)),
                                  lambda t: (1.0 + 0.2 * math.cos(t), -0.2 * math.sin(t), -0.2 * math.cos(t)),
                                  (-2.0, 2.0), (-2.0, 2.0))
    n = 201
    axis = np.linspace(-2.0, 2.0, n)
    h = axis[1] - axis[0]
    S, T = np.meshgrid(axis, axis, indexing="ij")
    X = fam.position(S.ravel(), T.ravel()).reshape(n, n, 3)
    rho2 = (S * S + T * T) / 1.5 ** 2  # a smooth bump of radius 1.5, 0 at the boundary
    u, inside = np.zeros_like(S), rho2 < 1.0
    u[inside] = np.exp(-1.0 / (1.0 - rho2[inside]))

    def cross(Y):
        return np.cross(np.gradient(Y, h, axis=0), np.gradient(Y, h, axis=1))

    def area(eps):
        Y = X.copy()
        Y[..., 2] += eps * u
        return np.sum(weight(Y[..., 2]) * np.linalg.norm(cross(Y), axis=-1)) * h * h

    eps = 1e-6
    dF = (area(eps) - area(-eps)) / (2.0 * eps)
    z, r = X[..., 2], residual_report(fam, mode, GridSpec(n, n)).r
    pred = np.sum(u * cross(X)[..., 2] * weight(z) * bracket(z) * r) * h * h
    assert abs(dF / pred - 1.0) <= tol, dF / pred - 1.0


def test_residual_report_raises_when_everything_fails():
    fam = make_generic_first_kind(
        lambda s: (0.0, 0.0, 0.0),
        lambda t: (-1.0, 0.0, 0.0),
        (-1.0, 1.0),
        (-1.0, 1.0),
    )
    with pytest.raises(DomainError, match="profile value must be positive"):
        residual_report(fam, SolitonMode.MINIMAL, GridSpec(3, 3))


@pytest.mark.parametrize("a", [1e140, 1e150])
def test_conformal_cylinder_at_huge_drift_slope(a):
    """Past a drift slope of about 1e130 the product ``k*expm1(E)`` would
    go subnormal near the apex (1.5e-312 at 1e140), then 0 (at 1e150, where
    the Gauss sum would multiply 0 by inf); ``dt_dphi`` divides
    ``expm1(E)`` by ``cos^2(phi)`` before it multiplies by ``k``, at every
    slope, so the exact cylinder sweeps every node to a rounding-level
    residual, with no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = residual_report(make_conformal_cylinder(a, 1.0), CONFORMAL, GridSpec(51, 51))
    assert not rep.failures and rep.max_abs <= 1e-14, (len(rep.failures), rep.max_abs)
