"""Named acceptance checks, runnable as a batch (``solsurf verify``).

Each check measures a defect, compares it against a fixed tolerance, and
reports pass/fail; `run_checks` executes a (filtered) batch and returns a
summary table.  The checks are grouped by the acceptance criterion they
implement (the ``criterion`` number, 1..10) and are deliberately
self-contained: every one rebuilds what it measures from scratch so a pass
can't lean on shared state.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ParameterError
from .lie_halfspace import (
    HalfSpacePoint,
    IDENTITY,
    SemidirectPoint,
    lie_inverse,
    lie_product,
    rotation_about_vertical,
    semidirect_product,
    semidirect_to_halfspace,
)
from .profile_odes import (
    ConformalProfileParams,
    MinimalProfileParams,
    integrate_conformal_profile,
    integrate_minimal_profile,
    minimal_halfwidth_quadrature,
    qualitative_verdict,
)
from .soliton_residuals import (
    SolitonMode,
    reduced_residual_first_kind,
    reduced_residual_second_kind,
    residual,
    residual_report,
)
from .surface_factory import (
    GridSpec,
    make_conformal_cylinder,
    make_generic_first_kind,
    make_generic_second_kind,
    make_grim_reaper,
    make_horosphere,
    make_minimal_cylinder,
    make_vertical_plane,
    perturb_profile,
    sample_grid,
)
from .surface_jets import (
    ScalarJet2,
    finite_difference_jet,
    first_kind_jet,
    hyperbolic_mean_curvature,
    mean_curvature,
    second_kind_jet,
    unit_normal,
)

__all__ = ["CheckResult", "VerifySummary", "run_checks", "rel_defect"]

_SEED = 20260816


def rel_defect(a, b, floor: float = 0.01) -> float:
    """Componentwise relative disagreement with an absolute floor, so that
    near-zero components are judged absolutely."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    criterion: int
    passed: bool
    defect: float
    tolerance: float
    sense: str  # "<=" (defect must stay below) or ">" (must exceed)
    seconds: float
    detail: str = ""


@dataclass
class VerifySummary:
    results: List[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def format_table(self) -> str:
        lines = [
            f"{'check':32} {'crit':>4} {'status':6} {'defect':>13} "
            f"{'tol':>9} {'sense':5} {'sec':>6}"
        ]
        for r in self.results:
            lines.append(
                f"{r.name:32} {r.criterion:>4} {'PASS' if r.passed else 'FAIL':6} "
                f"{r.defect:>13.4e} {r.tolerance:>9.1e} {r.sense:5} {r.seconds:>6.2f}"
            )
        n_fail = sum(not r.passed for r in self.results)
        lines.append(
            "ALL CHECKS PASSED" if n_fail == 0 else f"{n_fail} CHECK(S) FAILED"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# criterion 1: group laws


def _random_points(rng: np.random.Generator, n: int) -> List[HalfSpacePoint]:
    xs = rng.uniform(-3.0, 3.0, size=(n, 2))
    zs = np.exp(rng.uniform(math.log(0.2), math.log(5.0), size=n))
    return [HalfSpacePoint(float(x), float(y), float(z)) for (x, y), z in zip(xs, zs)]


def _check_group_laws() -> Tuple[bool, float, float, str]:
    rng = np.random.default_rng(_SEED)
    n = 1000
    ps = _random_points(rng, n)
    qs = _random_points(rng, n)
    rs = _random_points(rng, n)
    thetas = rng.uniform(-math.pi, math.pi, size=n)
    worst = 0.0
    for p, q, r, th in zip(ps, qs, rs, thetas):
        lhs = lie_product(lie_product(p, q), r).as_array()
        rhs = lie_product(p, lie_product(q, r)).as_array()
        worst = max(worst, rel_defect(lhs, rhs))
        worst = max(worst, rel_defect(lie_product(p, IDENTITY).as_array(), p.as_array()))
        worst = max(worst, rel_defect(lie_product(IDENTITY, p).as_array(), p.as_array()))
        worst = max(
            worst,
            rel_defect(lie_product(p, lie_inverse(p)).as_array(), IDENTITY.as_array()),
        )
        worst = max(
            worst,
            rel_defect(lie_product(lie_inverse(p), p).as_array(), IDENTITY.as_array()),
        )
        u = SemidirectPoint(p.x, p.y, math.log(p.z))
        v = SemidirectPoint(q.x, q.y, math.log(q.z))
        hom_lhs = semidirect_to_halfspace(semidirect_product(u, v)).as_array()
        hom_rhs = lie_product(
            semidirect_to_halfspace(u), semidirect_to_halfspace(v)
        ).as_array()
        worst = max(worst, rel_defect(hom_lhs, hom_rhs))
        rot_lhs = rotation_about_vertical(th, lie_product(p, q)).as_array()
        rot_rhs = lie_product(
            rotation_about_vertical(th, p), rotation_about_vertical(th, q)
        ).as_array()
        worst = max(worst, rel_defect(rot_lhs, rot_rhs))
    return worst <= 1e-12, worst, 1e-12, f"{n} samples, 7 laws each"


# ---------------------------------------------------------------------------
# criteria 2-3: exactly solvable families


def _max_abs(values) -> float:
    return float(np.max(np.abs(values)))


def _check_horosphere() -> Tuple[bool, float, float, str]:
    grid = GridSpec(101, 101)
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        (_, _, j), failures = sample_grid(make_horosphere(a), grid)
        if failures:
            return False, math.inf, 1e-10, f"{len(failures)} evaluation failures at a={a}"
        h_tilde = hyperbolic_mean_curvature(mean_curvature(j), unit_normal(j)[..., 2], j.X[..., 2])
        worst = max(
            worst, _max_abs(residual(SolitonMode.TRANSLATOR, j)), _max_abs(h_tilde - 1.0)
        )
    return worst <= 1e-10, worst, 1e-10, "translator residual and |H~ - 1|, a in {0.5, 1, 2}"


def _check_planes() -> Tuple[bool, float, float, str]:
    grid = GridSpec(101, 101)
    worst = 0.0
    for c, d in ((0.0, 0.0), (1.0, -1.0), (3.0, 2.0)):
        (_, _, j), failures = sample_grid(make_vertical_plane(c, d), grid)
        (_, _, j_tr), failures_tr = sample_grid(make_vertical_plane(c, d, b=-d), grid)
        if failures or failures_tr:
            return False, math.inf, 1e-10, f"evaluation failures at (c,d)=({c},{d})"
        worst = max(
            worst,
            _max_abs(residual(SolitonMode.MINIMAL, j)),
            _max_abs(residual(SolitonMode.CONFORMAL, j)),
            _max_abs(residual(SolitonMode.TRANSLATOR, j_tr)),
        )
    return worst <= 1e-10, worst, 1e-10, "three planes, translator offset b = -d"


# ---------------------------------------------------------------------------
# criterion 4: minimal cylinder


def _check_minimal_residual() -> Tuple[bool, float, float, str]:
    fam = make_minimal_cylinder(0.0, 1.0)
    rep = residual_report(fam, SolitonMode.MINIMAL, GridSpec(51, 51, margin=1e-3))
    ok = rep.max_abs <= 1e-6 and not rep.failures
    return ok, rep.max_abs, 1e-6, f"51x51, margin 1e-3, {len(rep.failures)} failures"


def _check_minimal_first_integral() -> Tuple[bool, float, float, str]:
    sol = integrate_minimal_profile(MinimalProfileParams(c=0.0, y0=1.0))
    d = sol.conserved_max_defect
    return d <= 1e-8, d, 1e-8, f"{len(sol.t)} nodes, normalized by max(1, g'^2)"


def _check_minimal_symmetry() -> Tuple[bool, float, float, str]:
    sol = integrate_minimal_profile(MinimalProfileParams(c=0.0, y0=1.0))
    v = qualitative_verdict(sol)
    d = v.symmetry_defect
    ok = v.symmetric and v.max_at_zero and v.concave
    return ok and d <= 1e-8, d, 1e-8, "even profile, concave, maximal at t=0"


def _check_minimal_halfwidth() -> Tuple[bool, float, float, str]:
    sol = integrate_minimal_profile(MinimalProfileParams(c=0.0, y0=1.0))
    r_quad = minimal_halfwidth_quadrature(0.0, 1.0)
    right = sol.events.right_blowup_t
    left = sol.events.left_blowup_t
    if right is None or left is None:
        return False, math.inf, 1e-6, "a branch did not reach collapse"
    d = max(abs(right - r_quad), abs(left + r_quad))
    return d <= 1e-6, d, 1e-6, f"quadrature half-width r = {r_quad:.10f}"


# ---------------------------------------------------------------------------
# criterion 5: grim reaper


def _check_reaper_constant() -> Tuple[bool, float, float, str]:
    fam = make_grim_reaper(0.0, span=(-50.0, 50.0))
    v = qualitative_verdict(fam.profile)
    ok = v.constant and not v.truncated
    return ok, v.constancy_defect, 1e-12, "lambda = 0 rides the constant solution"


def _check_reaper_shape() -> Tuple[bool, float, float, str]:
    fam = make_grim_reaper(0.5, span=(-50.0, 50.0))
    sol = fam.profile
    v = qualitative_verdict(sol)
    g_lo = sol.eval_g(-50.0)
    g_hi = sol.eval_g(50.0)
    conditions = {
        "monotone": v.monotone_nondecreasing,
        "increasing": v.increasing_overall,
        "sign_flip_at_0": v.convex_then_concave,
        "bounded_below": v.g_min >= 0.9 * g_lo > 0.0,
        "bounded_above": v.g_max <= 1.1 * g_hi and math.isfinite(g_hi),
        "not_truncated": not v.truncated,
    }
    bad = [k for k, okk in conditions.items() if not okk]
    return not bad, float(len(bad)), 0.5, "failed: " + ",".join(bad) if bad else "all shape facts hold"


def _check_reaper_residual() -> Tuple[bool, float, float, str]:
    fam = make_grim_reaper(0.5, span=(-50.0, 50.0))
    rep = residual_report(fam, SolitonMode.TRANSLATOR, GridSpec(51, 51))
    ok = rep.max_abs <= 1e-6 and not rep.failures
    return ok, rep.max_abs, 1e-6, f"lambda=0.5, k=1, 51x51, {len(rep.failures)} failures"


# ---------------------------------------------------------------------------
# criterion 6: conformal cylinder


def _check_conformal_residual() -> Tuple[bool, float, float, str]:
    fam = make_conformal_cylinder(0.0, 1.0)
    rep = residual_report(fam, SolitonMode.CONFORMAL, GridSpec(51, 51, margin=1e-3))
    ok = rep.max_abs <= 1e-6 and not rep.failures
    return ok, rep.max_abs, 1e-6, f"51x51, margin 1e-3, {len(rep.failures)} failures"


def _check_conformal_first_integral() -> Tuple[bool, float, float, str]:
    p = ConformalProfileParams(a=0.0, y0=1.0)
    if p.C != math.exp(-4.0):
        return False, math.inf, 1e-8, "reconstructed constant is not e^-4"
    sol = integrate_conformal_profile(p)
    d = sol.conserved_max_defect
    return d <= 1e-8, d, 1e-8, "C = e^-4 reconstructed from the initial state"


def _check_conformal_not_minimal() -> Tuple[bool, float, float, str]:
    fam = make_conformal_cylinder(0.0, 1.0)
    rep = residual_report(fam, SolitonMode.MINIMAL, GridSpec(51, 51, margin=1e-3))
    return rep.max_abs > 1e-3, rep.max_abs, 1e-3, "minimal residual must NOT vanish here"


# ---------------------------------------------------------------------------
# criterion 7: reduced equations agree with the jet pipeline


def _uniform_columns(seed: int, bounds) -> List[np.ndarray]:
    """1000 rows of draws, column ``k`` uniform on ``bounds[k]``: the values
    ``Generator.uniform`` gives for the same draws, made in row order."""
    lo, hi = np.array(bounds, dtype=float).T
    return list((lo + (hi - lo) * np.random.default_rng(seed).random((1000, len(lo)))).T)


def _reduced_defect(reduced: Callable, j, clear) -> float:
    """Worst relative disagreement, over every sample and mode, between a
    reduced residual and ``2W^3`` times the general residual of the jet."""
    return max(rel_defect(reduced(mode), residual(mode, j) * clear, floor=1.0)
               for mode in SolitonMode)


def _check_reduced_first_kind() -> Tuple[bool, float, float, str]:
    u, p = (-2.0, 2.0), (0.2, 3.0)
    *f, gv, gp, gpp, s, t = _uniform_columns(_SEED + 1, [u, u, u, p, u, u, u, u])
    fj, gj = ScalarJet2(*f), ScalarJet2(gv, gp, gpp)
    clear = 2.0 * (gp * gp * (fj.d1 * fj.d1 + 1.0) + 1.0) ** 1.5
    worst = _reduced_defect(lambda mode: reduced_residual_first_kind(mode, fj, gj, s, t),
                            first_kind_jet(fj, gj, s, t), clear)
    return worst <= 1e-10, worst, 1e-10, "1000 random jets x 3 modes"


def _check_reduced_second_kind() -> Tuple[bool, float, float, str]:
    u = (-2.0, 2.0)
    *f, b, s, t = _uniform_columns(_SEED + 2, [u, u, u, u, u, (0.1, 3.0)])
    fj = ScalarJet2(*f)
    clear = 2.0 * (fj.d1 * fj.d1 + 1.0) ** 1.5
    worst = _reduced_defect(lambda mode: reduced_residual_second_kind(mode, fj, b, s, t),
                            second_kind_jet(fj, b, s, t), clear)
    return worst <= 1e-10, worst, 1e-10, "1000 random jets x 3 modes"


# ---------------------------------------------------------------------------
# criterion 8: finite-difference oracle convergence


def _fd_surfaces():
    s1 = make_generic_first_kind(
        lambda s: (math.sin(s), math.cos(s), -math.sin(s)),
        lambda t: (2.0 + 0.5 * math.cos(t), -0.5 * math.sin(t), -0.5 * math.cos(t)),
        (-2.0, 2.0),
        (-2.0, 2.0),
    )
    s2 = make_generic_second_kind(
        lambda s: (math.cos(2.0 * s), -2.0 * math.sin(2.0 * s), -4.0 * math.cos(2.0 * s)),
        0.3,
        (-2.0, 2.0),
        (0.5, 4.0),
    )
    s3 = make_generic_first_kind(
        lambda s: (s ** 3 / 3.0 - s, s * s - 1.0, 2.0 * s),
        lambda t: (1.5 + 0.25 * math.sin(2.0 * t), 0.5 * math.cos(2.0 * t), -math.sin(2.0 * t)),
        (-2.0, 2.0),
        (-2.0, 2.0),
    )
    pts = [(0.4, 0.7), (-0.9, 1.3), (1.1, 2.1)]
    return [(s1, pts), (s2, pts), (s3, pts)]


def _check_fd_convergence() -> Tuple[bool, float, float, str]:
    hs = (1e-2, 5e-3, 2.5e-3)
    orders = []
    for fam, pts in _fd_surfaces():
        errs = []
        for h in hs:
            worst = 0.0
            for s, t in pts:
                exact = mean_curvature(fam.jet(s, t))
                fd = mean_curvature(finite_difference_jet(fam.position, s, t, h))
                worst = max(worst, abs(fd - exact))
            errs.append(worst)
        for e0, e1 in zip(errs, errs[1:]):
            if e1 <= 0.0:
                continue  # exact agreement; cannot ratio, but nothing to complain about
            orders.append(math.log2(e0 / e1))
    if not orders:
        return True, 0.0, 0.3, "errors vanished identically"
    defect = max(abs(o - 2.0) for o in orders)
    detail = "orders: " + ", ".join(f"{o:.3f}" for o in orders)
    return all(1.7 <= o <= 2.3 for o in orders), defect, 0.3, detail


# ---------------------------------------------------------------------------
# criterion 9: falsification probes


def _check_falsification() -> Tuple[bool, float, float, str]:
    probes = [
        (make_minimal_cylinder(0.0, 1.0), SolitonMode.MINIMAL),
        (make_grim_reaper(0.5, span=(-5.0, 5.0)), SolitonMode.TRANSLATOR),
        (make_conformal_cylinder(0.0, 1.0), SolitonMode.CONFORMAL),
    ]
    grid = GridSpec(51, 51, margin=1e-3)
    floor = math.inf
    parts = []
    for fam, mode in probes:
        rep = residual_report(perturb_profile(fam, 1e-2), mode, grid)
        floor = min(floor, rep.max_abs)
        parts.append(f"{fam.name}:{rep.max_abs:.2e}")
    return floor > 1e-4, floor, 1e-4, "; ".join(parts)


# ---------------------------------------------------------------------------
# criterion 10: byte-identical exports


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _quiet_cli(argv: List[str]) -> int:
    """Run a CLI command with its stdout swallowed (its files are the point)."""
    from .cli import main as cli_main

    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def _check_determinism_mesh() -> Tuple[bool, float, float, str]:
    with tempfile.TemporaryDirectory() as td:
        outs = []
        for tag in ("r1", "r2"):
            prefix = os.path.join(td, tag)
            rc = _quiet_cli(
                [
                    "mesh",
                    "--family",
                    "minimal-cylinder",
                    "--c",
                    "0",
                    "--y0",
                    "1",
                    "--grid",
                    "31x31",
                    "--out",
                    prefix,
                ]
            )
            if rc != 0:
                return False, math.inf, 0.5, f"mesh run exited {rc}"
            outs.append(_read_bytes(prefix + ".obj"))
        same = outs[0] == outs[1]
        return same, 0.0 if same else 1.0, 0.5, f"{len(outs[0])} bytes compared"


def _check_determinism_profile() -> Tuple[bool, float, float, str]:
    with tempfile.TemporaryDirectory() as td:
        outs = []
        for tag in ("r1", "r2"):
            prefix = os.path.join(td, tag)
            rc = _quiet_cli(
                ["profile", "--ode", "minimal", "--c", "0", "--y0", "1", "--out", prefix]
            )
            if rc != 0:
                return False, math.inf, 0.5, f"profile run exited {rc}"
            outs.append(_read_bytes(prefix + ".csv") + _read_bytes(prefix + ".events.txt"))
        same = outs[0] == outs[1]
        return same, 0.0 if same else 1.0, 0.5, f"{len(outs[0])} bytes compared"


# ---------------------------------------------------------------------------

_REGISTRY: List[Tuple[str, int, str, Callable[[], Tuple[bool, float, float, str]]]] = [
    ("lie.group_laws", 1, "<=", _check_group_laws),
    ("horosphere.soliton", 2, "<=", _check_horosphere),
    ("plane.residuals", 3, "<=", _check_planes),
    ("minimal_cylinder.residual", 4, "<=", _check_minimal_residual),
    ("minimal_cylinder.first_integral", 4, "<=", _check_minimal_first_integral),
    ("minimal_cylinder.symmetry", 4, "<=", _check_minimal_symmetry),
    ("minimal_cylinder.halfwidth", 4, "<=", _check_minimal_halfwidth),
    ("grim_reaper.constant", 5, "<=", _check_reaper_constant),
    ("grim_reaper.shape", 5, "<=", _check_reaper_shape),
    ("grim_reaper.residual", 5, "<=", _check_reaper_residual),
    ("conformal.residual", 6, "<=", _check_conformal_residual),
    ("conformal.first_integral", 6, "<=", _check_conformal_first_integral),
    ("conformal.not_minimal", 6, ">", _check_conformal_not_minimal),
    ("reduced.first_kind", 7, "<=", _check_reduced_first_kind),
    ("reduced.second_kind", 7, "<=", _check_reduced_second_kind),
    ("fd.convergence", 8, "<=", _check_fd_convergence),
    ("falsify.profiles", 9, ">", _check_falsification),
    ("determinism.mesh", 10, "<=", _check_determinism_mesh),
    ("determinism.profile", 10, "<=", _check_determinism_profile),
]


def run_checks(only: Optional[str] = None) -> VerifySummary:
    """Run the acceptance checks (all, or those whose name contains ``only``)."""
    selected = [
        entry for entry in _REGISTRY if only is None or only in entry[0]
    ]
    if not selected:
        raise ParameterError(f"no check name contains {only!r}")
    results = []
    for name, criterion, sense, fn in selected:
        t0 = time.perf_counter()
        passed, defect, tol, detail = fn()
        dt = time.perf_counter() - t0
        results.append(
            CheckResult(
                name=name,
                criterion=criterion,
                passed=passed,
                defect=float(defect),
                tolerance=float(tol),
                sense=sense,
                seconds=dt,
                detail=detail,
            )
        )
    return VerifySummary(results=results)
