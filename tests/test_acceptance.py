"""Acceptance gate: every numbered claim, one pass/fail line each.

Runs the full built-in verification battery once and partitions the
results by criterion number, so a failure pinpoints which guarantee
broke.  Each check's sense and tolerance are pinned beside its name, so a
loosened tolerance fails here too.
"""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from solsurf import profile_odes, soliton_residuals, verify
from solsurf.cli import main
from solsurf.errors import DomainError
from solsurf.verify import run_checks


@pytest.fixture(scope="module")
def summary():
    return run_checks()


def _assert_criterion(summary, number, expect):
    """``expect`` maps each check name of the criterion to its (sense, tolerance)."""
    picked = [r for r in summary.results if r.criterion == number]
    assert {r.name: (r.sense, r.tolerance) for r in picked} == expect
    for r in picked:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"criterion {number}: {status} — {r.name} "
            f"defect={r.defect:.3e} (tol {r.tolerance:.1e}, {r.sense})"
        )
    failed = [r.name for r in picked if not r.passed]
    assert not failed, f"criterion {number} failed: {failed}"


def test_c01_group_laws(summary):
    _assert_criterion(summary, 1, {"lie.group_laws": ("<=", 1e-12)})


def test_c02_horosphere_soliton(summary):
    _assert_criterion(summary, 2, {"horosphere.soliton": ("<=", 1e-10)})


def test_c03_plane_residuals(summary):
    _assert_criterion(summary, 3, {"plane.residuals": ("<=", 1e-10)})


def test_c04_minimal_cylinder(summary):
    _assert_criterion(
        summary,
        4,
        {
            "minimal_cylinder.residual": ("<=", 1e-6),
            "minimal_cylinder.first_integral": ("<=", 1e-8),
            "minimal_cylinder.symmetry": ("<=", 1e-8),
            "minimal_cylinder.halfwidth": ("<=", 1e-6),
            "minimal_cylinder.abscissa": ("<=", 1e-9),
            "steep_shear.residual": ("<=", 1e-12),
        },
    )


def test_c05_grim_reaper(summary):
    _assert_criterion(
        summary,
        5,
        {
            "grim_reaper.constant": ("<=", 1e-12),
            "grim_reaper.shape": ("<=", 0.5),
            "grim_reaper.residual": ("<=", 1e-6),
            "grim_reaper.linear": ("<=", 1e-3),
        },
    )


def test_c06_conformal_cylinder(summary):
    _assert_criterion(
        summary,
        6,
        {
            "conformal.residual": ("<=", 1e-6),
            "conformal.first_integral": ("<=", 1e-8),
            "conformal.halfwidth": ("<=", 1e-6),
            "conformal.abscissa": ("<=", 1e-9),
            "conformal.not_minimal": (">", 1e-3),
        },
    )


def test_c07_reduced_forms(summary):
    _assert_criterion(
        summary, 7, {"reduced.first_kind": ("<=", 1e-10), "reduced.second_kind": ("<=", 1e-10)}
    )


def test_c08_fd_convergence(summary):
    _assert_criterion(summary, 8, {"fd.convergence": ("<=", 0.3)})


def test_c09_falsification(summary):
    _assert_criterion(summary, 9, {"falsify.profiles": (">", 1e-4)})


def test_c10_determinism(summary):
    _assert_criterion(
        summary, 10, {"determinism.mesh": ("<=", 0.5), "determinism.profile": ("<=", 0.5)}
    )


def test_run_checks_judges_each_defect(monkeypatch):
    """The registry row's sense and tolerance alone decide pass or fail: a
    defect at the tolerance passes "<=" and fails ">", and NaN fails both."""
    above = math.nextafter(1.0, 2.0)
    stubs = {
        "le.at_tol": ("<=", 1.0, True),
        "le.above": ("<=", above, False),
        "le.nan": ("<=", math.nan, False),
        "le.inf": ("<=", math.inf, False),
        "gt.at_tol": (">", 1.0, False),
        "gt.above": (">", above, True),
        "gt.nan": (">", math.nan, False),
    }
    registry = [(name, 1, sense, 1.0, lambda d=defect: (d, "stub"))
                for name, (sense, defect, _) in stubs.items()]
    monkeypatch.setattr(verify, "_REGISTRY", registry)
    results = run_checks().results
    assert {r.name: r.passed for r in results} == {k: v[2] for k, v in stubs.items()}
    for r in results:
        assert (r.sense, r.tolerance, r.detail) == (stubs[r.name][0], 1.0, "stub")
        assert r.defect == stubs[r.name][1] or math.isnan(r.defect)
    assert [r.name for r in run_checks("nan").results] == ["le.nan", "gt.nan"]


def test_nan_residual_at_one_node_fails_its_rows(monkeypatch):
    """A residual that is NaN at a single node fails every row that reads a
    residual, whichever way the row is judged, and no other row."""
    clean = soliton_residuals._residual_of

    def one_nan(mode, X, H, N):
        out = np.array(clean(mode, X, H, N), dtype=float)
        out.flat[out.size // 2] = math.nan
        return out

    monkeypatch.setattr(soliton_residuals, "_residual_of", one_nan)
    results = run_checks().results
    failed = {r.name for r in results if not r.passed}
    assert failed == {
        "horosphere.soliton", "plane.residuals", "minimal_cylinder.residual",
        "steep_shear.residual", "grim_reaper.residual", "conformal.residual",
        "conformal.not_minimal", "reduced.first_kind", "reduced.second_kind",
        "falsify.profiles",
    }
    assert all(math.isnan(r.defect) for r in results if r.name in failed)


GRID_ROWS = ("horosphere.soliton", "plane.residuals", "minimal_cylinder.residual",
             "steep_shear.residual", "grim_reaper.residual", "conformal.residual",
             "conformal.not_minimal", "falsify.profiles")


def _grid_results():
    return [r for name in GRID_ROWS for r in run_checks(name).results]


def test_failed_node_fails_every_grid_row(monkeypatch):
    """A failed grid node reads as NaN on every grid-residual row, so it fails
    a ">" row as surely as a "<=" one, and the detail names the failure."""
    clean = verify.sample_grid

    def one_failure(fam, grid):
        sampled, (s_reasons, t_reasons) = clean(fam, grid)
        return sampled, (["stub"] + s_reasons[1:], t_reasons)

    monkeypatch.setattr(verify, "sample_grid", one_failure)
    results = _grid_results()
    assert [r.name for r in results] == list(GRID_ROWS)
    for r in results:
        assert not r.passed and math.isnan(r.defect) and "stub" in r.detail, r


def test_a_grid_whose_every_node_fails_fails_its_row_alone(monkeypatch, capsys):
    """A horosphere whose every ``t`` node fails leaves ``sample_grid`` an
    empty ``t`` axis: its row reads NaN and names the first failure, and
    ``solsurf verify`` still prints the table and exits 1, not 2."""
    def unevaluable(a):
        return verify.make_generic_first_kind(lambda s: (0.0, 0.0, 0.0),
                                              lambda t: (-1.0, 0.0, 0.0), (-2.0, 2.0), (-2.0, 2.0))

    monkeypatch.setattr(verify, "make_horosphere", unevaluable)
    (r,) = run_checks("horosphere.soliton").results
    assert not r.passed and math.isnan(r.defect)
    assert "10201 failures, first (s, t, reason): (-2.0, -2.0, " \
           "'profile value must be positive, got -1.0')" in r.detail
    assert main(["verify", "--only", "horosphere.soliton"]) == 1
    out = capsys.readouterr().out
    assert "horosphere.soliton" in out and "1 CHECK(S) FAILED" in out


def test_infinite_residual_fails_every_grid_row(monkeypatch):
    """A residual that overflows to inf at one node fails every grid row as
    NaN, with a detail that says a residual is not finite: inf would pass
    the ">" rows."""
    clean = soliton_residuals._residual_of

    def one_inf(mode, X, H, N):
        out = np.array(clean(mode, X, H, N), dtype=float)
        out.flat[out.size // 2] = math.inf
        return out

    monkeypatch.setattr(soliton_residuals, "_residual_of", one_inf)
    for r in _grid_results():
        assert not r.passed and math.isnan(r.defect) and "a residual is not finite" in r.detail, r


def test_overflowed_forms_fail_a_grid_row_without_a_warning():
    """A vertical plane of slope 1e160 overflows its fundamental forms, so
    every residual is NaN: its grid row reads NaN under the sweep's
    non-finite policy, with no numpy warning and a detail that says so, not
    the row's own, as ``residual_report`` fails the same nodes."""
    fam, grid = verify.make_vertical_plane(1e160, 0.0), verify.GridSpec(3, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        defect, detail = verify._residual_defect(
            [(fam, ((soliton_residuals.SolitonMode.MINIMAL, 0.0),))], grid, "x")
        with pytest.raises(DomainError, match="9 failures.*not finite: nan"):
            soliton_residuals.residual_report(fam, "minimal", grid)
    assert math.isnan(defect) and detail == f"{fam.name} {fam.params}: a residual is not finite"


ROW_PREFIX = {"minimal": "minimal_cylinder", "conformal": "conformal"}


def _swap_collapsing_profile(monkeypatch, kind, swap):
    """Make verify's ``kind`` profile integrate to ``swap(profile)``."""
    name = f"integrate_{kind}_profile"
    clean = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda p: swap(clean(p)))


def _only_row(kind, fact):
    (r,) = run_checks(f"{ROW_PREFIX[kind]}.{fact}").results
    return r


@pytest.mark.parametrize("kind", ["minimal", "conformal"])
def test_first_integral_fails_one_node_off_by_1e_7(monkeypatch, kind):
    """At the centre node ``g = y0`` and ``g' = 0``, where the first
    integral reads ``g'^2 = 0``: a slope of ``sqrt(1e-7)`` there makes the
    solution's monitor read 1e-7 at that node alone."""
    def moved(sol):
        gp = sol.gp.copy()
        gp[len(gp) // 2] = 1e-7 ** 0.5
        return dataclasses.replace(sol, gp=gp)

    _swap_collapsing_profile(monkeypatch, kind, moved)
    r = _only_row(kind, "first_integral")
    assert not r.passed and abs(r.defect - 1e-7) <= 1e-15


@pytest.mark.parametrize("kind", ["minimal", "conformal"])
def test_halfwidth_fails_a_branch_that_did_not_collapse(monkeypatch, kind):
    _swap_collapsing_profile(monkeypatch, kind,
                             lambda sol: dataclasses.replace(sol, truncated=True))
    r = _only_row(kind, "halfwidth")
    assert not r.passed and math.isnan(r.defect) and "did not reach collapse" in r.detail


@pytest.mark.parametrize("kind", ["minimal", "conformal"])
def test_halfwidth_fails_a_collapse_1e_5_late(monkeypatch, kind):
    """The solution derives its blow-up abscissa through the module's
    ``_blowup_tail``, here 1e-5 too long.  Neither reference half-width is
    a tail (the minimal one is in closed form, the conformal one a frozen
    40-digit value), so the tail's error does not cancel in the row."""
    tail = profile_odes._blowup_tail
    monkeypatch.setattr(profile_odes, "_blowup_tail", lambda p, g: tail(p, g) + 1e-5)
    r = _only_row(kind, "halfwidth")
    assert not r.passed and 1e-6 < r.defect < 1.1e-5


@pytest.mark.parametrize("kind", ["minimal", "conformal"])
def test_abscissa_fails_one_node_moved_by_1e_8(monkeypatch, kind):
    def moved(sol):
        t = sol.t.copy()
        t[len(t) // 2 + 1] += 1e-8  # just right of t = 0, where nodes are far apart
        return dataclasses.replace(sol, t=t)

    _swap_collapsing_profile(monkeypatch, kind, moved)
    r = _only_row(kind, "abscissa")
    assert not r.passed and 0.9e-8 < r.defect < 1.1e-8


def test_conformal_first_integral_pins_the_constant(monkeypatch):
    """The conservation defect reads ``|C*e^4 - 1|`` at the initial node, so
    a constant off by a relative 1e-6 fails the row without a separate gate."""
    clean = verify.ConformalProfileParams.C
    monkeypatch.setattr(verify.ConformalProfileParams, "C",
                        property(lambda p: clean.fget(p) * (1.0 + 1e-6)))
    r = _only_row("conformal", "first_integral")
    assert not r.passed and 1e-6 < r.defect < 1e-5


def test_group_laws_defect_is_pinned():
    """Same seed, same seven laws, same bits: judging the law pairs in any
    grouping must reproduce the largest componentwise defect exactly."""
    assert verify._check_group_laws()[0] == 1.7763568394002505e-13


def test_group_laws_fail_a_product_off_by_1e_9(monkeypatch):
    """A product whose ``x`` slot is off by a relative 1e-9 fails the row."""
    clean = verify.lie_product

    def skewed(p, q):
        out = clean(p, q).copy()
        out[..., 0] *= 1.0 + 1e-9
        return out

    monkeypatch.setattr(verify, "lie_product", skewed)
    (r,) = run_checks("lie.").results
    assert r.name == "lie.group_laws" and not r.passed
    assert 1e-12 < r.defect < 1e-6


def test_group_laws_carry_a_nan_product_to_the_judge(monkeypatch):
    """A product that returns a NaN ``x`` at one sample (the 500th of the
    right identity law, which the batch computes in one call) makes the
    row's defect NaN, and the row fails."""
    clean = verify.lie_product
    seen = []

    def one_nan(p, q):
        out = clean(p, q)
        if q is verify.IDENTITY:
            seen.append(p)
            out = out.copy()
            out[499, 0] = math.nan
        return out

    monkeypatch.setattr(verify, "lie_product", one_nan)
    (r,) = run_checks("lie.").results
    assert len(seen) == 1 and seen[0].shape == (1000, 3)
    assert math.isnan(r.defect) and not r.passed


def test_reduced_first_kind_fails_a_dropped_w2_term(monkeypatch):
    """A reduced minimal form that drops its ``2*W^2`` term is off by at
    least 2 at every sample, against the floor of 1, so the row fails on
    the battery's own samples."""
    clean = verify.reduced_residual_first_kind

    def dropped(mode, fj, gj, s, t):
        out = clean(mode, fj, gj, s, t)
        if mode is soliton_residuals.SolitonMode.MINIMAL:
            out = out - 2.0 * (gj[1] * gj[1] * (fj[1] * fj[1] + 1.0) + 1.0)
        return out

    monkeypatch.setattr(verify, "reduced_residual_first_kind", dropped)
    (r,) = run_checks("reduced.first_kind").results
    assert not r.passed and r.defect > 0.1


def test_symmetry_fails_a_left_half_with_the_wrong_slope_sign(monkeypatch):
    """A minimal profile whose left half keeps the right half's sign of
    ``g'`` has the even ``g`` at every node and the same ``g''`` (the ODE
    sees ``g'^2``), so the row must read it between the nodes: there the
    interpolants disagree, by ~1e-4 in ``g`` and by ~2 in ``g'``."""
    clean = verify.integrate_minimal_profile

    def wrong_sign(p):
        sol = clean(p)
        return dataclasses.replace(sol, gp=np.where(sol.t < 0.0, -sol.gp, sol.gp))

    monkeypatch.setattr(verify, "integrate_minimal_profile", wrong_sign)
    (r,) = run_checks("minimal_cylinder.symmetry").results
    assert not r.passed and 1.0 < r.defect < 3.0


def _swap_reaper_profile(monkeypatch, swap):
    """Make every reaper profile verify integrates come out as
    ``swap(profile)``."""
    clean = verify.integrate_grim_reaper
    monkeypatch.setattr(verify, "integrate_grim_reaper",
                        lambda *args, **kwargs: swap(clean(*args, **kwargs)))


def test_reaper_constant_fails_one_node_off_by_1e_11(monkeypatch):
    def moved(sol):
        g = sol.g.copy()
        g[len(g) // 3] += 1e-11
        return dataclasses.replace(sol, g=g)

    _swap_reaper_profile(monkeypatch, moved)
    (r,) = run_checks("grim_reaper.constant").results
    assert not r.passed and 1e-12 < r.defect < 1.1e-11


def test_reaper_shape_fails_one_node_below_its_predecessor(monkeypatch):
    def dipped(sol):
        g = sol.g.copy()
        i = len(g) // 3
        g[i] = g[i - 1] - 1e-9
        return dataclasses.replace(sol, g=g)

    _swap_reaper_profile(monkeypatch, dipped)
    (r,) = run_checks("grim_reaper.shape").results
    assert not r.passed and r.detail == "failed: monotone"


def test_reaper_shape_fails_the_mirrored_profile(monkeypatch):
    """The mirror ``g(-t)`` decreases, and the ODE's ``g''`` at its nodes is
    concave left of 0."""
    def mirrored(sol):
        return dataclasses.replace(sol, t=-sol.t[::-1], g=sol.g[::-1], gp=-sol.gp[::-1])

    _swap_reaper_profile(monkeypatch, mirrored)
    (r,) = run_checks("grim_reaper.shape").results
    failed = r.detail.removeprefix("failed: ").split(",")
    assert not r.passed and {"monotone", "sign_flip_at_0"} <= set(failed)


def test_reaper_shape_fails_a_slope_above_lambda(monkeypatch):
    """``g'`` scaled by 1.01 keeps every other shape fact, but exceeds
    ``lambda`` near 0, which the log-slope form rules out."""
    _swap_reaper_profile(monkeypatch, lambda sol: dataclasses.replace(sol, gp=sol.gp * 1.01))
    (r,) = run_checks("grim_reaper.shape").results
    assert not r.passed and r.detail == "failed: slope_within_0_lam"


def _mutant_reaper(p, span):
    """``integrate_grim_reaper`` with its right-hand side's ``2*v`` read as
    ``2.002*v``."""
    lam, k = p.lam, p.k

    def rhs(v, g, w):
        gp = lam * math.exp(w)
        return gp, -(k + gp * gp) * 2.002 * v / (g * g)

    tol = profile_odes._REAPER_TOL
    rt, rg, rgp, right = profile_odes._dopri54(rhs, 1.0, 0.0, span[1], False, *tol)
    lt, lg, lgp, left = profile_odes._dopri54(rhs, 1.0, 0.0, span[0], False, *tol)
    return profile_odes.ProfileSolution(p, t=lt[::-1] + rt[1:], g=lg[::-1] + rg[1:],
                                        gp=lgp[::-1] + rgp[1:], truncated=right != 0 or left != 0)


def test_reaper_linear_fails_a_mutant_stepper(monkeypatch):
    """A ``2.002*v`` right-hand side moves every reaper node but keeps the
    shape facts; the small-slope row reads ~0.88 for it, against ~1.2e-4
    for the stepper (measured)."""
    monkeypatch.setattr(verify, "integrate_grim_reaper", _mutant_reaper)
    (r,) = run_checks("grim_reaper.linear").results
    assert not r.passed and 0.5 < r.defect < 1.0


def test_reaper_linear_fails_a_constant_profile(monkeypatch):
    """The constant solution ``g == 1`` has no ``lambda*u`` term, so the
    row reads ``2k*max|u|/lambda``, ``sqrt(pi*k)/lambda`` ~ 1.8e3 at k = 1."""
    _swap_reaper_profile(monkeypatch, lambda sol: dataclasses.replace(
        sol, g=np.ones_like(sol.g), gp=np.zeros_like(sol.gp)))
    (r,) = run_checks("grim_reaper.linear").results
    assert not r.passed and r.defect > 100.0


def test_fd_convergence_fails_vanished_errors(monkeypatch):
    """A mean curvature that reads 0 for every jet makes every error 0, from
    which no order can be measured: the row fails with NaN, not a pass."""
    monkeypatch.setattr(verify, "mean_curvature", lambda jet: np.zeros(np.shape(jet)[1:-1]))
    (r,) = run_checks("fd.convergence").results
    assert not r.passed and math.isnan(r.defect) and "not all positive" in r.detail


def test_fd_convergence_fails_a_first_order_stencil(monkeypatch):
    """An ``Xss`` off by ``h`` makes the stencil first order, so the orders
    read ~1 and the row fails (defect ~1)."""
    clean = verify.finite_difference_jet

    def first_order(evaluator, s, t, h):
        jet = clean(evaluator, s, t, h).copy()
        jet[3] += np.asarray(h)[..., None]  # Xss
        return jet

    monkeypatch.setattr(verify, "finite_difference_jet", first_order)
    (r,) = run_checks("fd.convergence").results
    assert not r.passed and 0.9 < r.defect < 1.1
