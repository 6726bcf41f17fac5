"""Named acceptance checks, runnable as a batch (``solsurf verify``).

Each check returns a defect and a detail; `run_checks` alone judges it,
against the tolerance and sense (``<=`` or ``>``) of its ``_REGISTRY`` row,
so a NaN defect fails either way; checks combine their values with
``np.max``/``np.min``, which carry a NaN through.  A check whose side
condition fails (a failed grid node, a run that did not finish) names the
reason in its detail and returns NaN, which fails its row whatever its
sense.  The checks are grouped by the acceptance criterion they implement
(the ``criterion`` number, 1..10) and are deliberately self-contained:
every one rebuilds what it measures from scratch so a pass can't lean on
shared state.  The determinism rows call ``cli.main``, whose argparse
parser is built once per process and shared; it holds no run state, so it
is not state the checks measure.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import random
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import soliton_residuals
from .errors import ParameterError
from .lie_halfspace import (
    IDENTITY,
    lie_inverse,
    lie_product,
    rotation_about_vertical,
    semidirect_product,
    semidirect_to_halfspace,
)
from .profile_odes import (
    ConformalProfileParams,
    GrimReaperParams,
    MinimalProfileParams,
    _blowup_tail,
    integrate_conformal_profile,
    integrate_grim_reaper,
    integrate_minimal_profile,
    minimal_halfwidth_quadrature,
)
from .soliton_residuals import (
    SolitonMode,
    reduced_residual_first_kind,
    reduced_residual_second_kind,
    residual,
)
from .surface_factory import (
    GridSpec,
    _refused,
    _row_blocks,
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
    finite_difference_jet,
    first_kind_jet,
    mean_curvature,
    second_kind_jet,
)

__all__ = ["CheckResult", "VerifySummary", "run_checks"]

_SEED = 20260816

# What a check returns: the defect its row judges, and what was measured.
Measurement = Tuple[float, str]


def _rel_defect(a, b, floor: float = 0.01) -> float:
    """Componentwise relative disagreement with an absolute floor, so that
    near-zero components are judged absolutely.  ``a`` and ``b`` are arrays
    (or buffers, or sequences) of any one matching shape; the result is
    the largest component's disagreement, NaN if any component is NaN."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


def _uniform_columns(seed: int, bounds) -> List[np.ndarray]:
    """1000 rows of draws, column ``k`` uniform on ``bounds[k]``, made in
    row order from the standard library's ``random.Random(seed)``.  Each
    draw is the top 53 bits of a little-endian 64-bit word of one
    ``randbytes`` call, times ``2**-53``, as numpy's ``Generator.random``
    makes its doubles, then scaled as ``Generator.uniform`` scales them.
    All the draws come from one vectorised step, and numpy's generator
    module, which loads ``hashlib`` and OpenSSL, is never imported."""
    lo, hi = np.array(bounds, dtype=float).T
    words = np.frombuffer(random.Random(seed).randbytes(8000 * len(lo)), "<u8")
    draws = ((words >> 11) * 2.0 ** -53).reshape(1000, len(lo))
    return list((lo + (hi - lo) * draws).T)


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


def _group_samples() -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The group-law row's 1000 samples: three ``(1000, 3)`` point arrays,
    ``x`` and ``y`` uniform on [-3, 3) and ``z`` log-uniform on [0.2, 5),
    and an angle array uniform on [-pi, pi); one row of draws per sample."""
    xy, log_z = (-3.0, 3.0), (math.log(0.2), math.log(5.0))
    *coords, th = _uniform_columns(_SEED, [xy, xy, log_z] * 3 + [(-math.pi, math.pi)])
    p, q, r = (np.column_stack((x, y, np.exp(w)))
               for x, y, w in zip(coords[0::3], coords[1::3], coords[2::3]))
    return p, q, r, th


def _check_group_laws() -> Measurement:
    p, q, r, th = _group_samples()
    n = len(th)
    u, v = (np.column_stack((a[:, :2], np.log(a[:, 2]))) for a in (p, q))
    laws = (  # (lhs, rhs) of each law, on all n samples at once
        (lie_product(lie_product(p, q), r), lie_product(p, lie_product(q, r))),
        (lie_product(p, IDENTITY), p),
        (lie_product(IDENTITY, p), p),
        (lie_product(p, lie_inverse(p)), IDENTITY),
        (lie_product(lie_inverse(p), p), IDENTITY),
        (semidirect_to_halfspace(semidirect_product(u, v)),
         lie_product(semidirect_to_halfspace(u), semidirect_to_halfspace(v))),
        (rotation_about_vertical(th, lie_product(p, q)),
         lie_product(rotation_about_vertical(th, p), rotation_about_vertical(th, q))),
    )
    # _rel_defect is componentwise, so judging the whole stack once gives the
    # largest defect of any pair, bit for bit, NaN included; IDENTITY is
    # broadcast to the samples.
    lhs, rhs = (np.stack(np.broadcast_arrays(*side)) for side in zip(*laws))
    return _rel_defect(lhs, rhs), f"{n} samples, {len(laws)} laws each"


# ---------------------------------------------------------------------------
# criteria 2-3: exactly solvable families


def _residual_defect(cases, grid: GridSpec, detail: str) -> Measurement:
    """Worst ``|residual(mode, j) - offset|`` over ``(family, ((mode, offset),
    ...))`` cases, ``j`` the family's jet on ``grid``, taken over the row
    blocks a sweep forms, one curvature serving every mode (the max of the
    blocks' maxima is the grid's, bit for bit, NaN included).  A failed axis
    node voids the sweep: the defect is NaN and the detail names the first
    failure.  A residual that is not finite, a failed node's NaN or an
    overflow's inf (which would pass a ``>`` row), voids it too, and the
    detail says so rather than the row's own."""
    defects = []
    for fam, terms in cases:
        (s, t, alpha, beta), reasons = sample_grid(fam, grid)
        if refused := _refused(s, t, reasons):
            return math.nan, (f"{fam.name} {fam.params}: {refused[0]} failures, "
                              f"first (s, t, reason): {refused[1]}")
        for _, maxima in _row_blocks(alpha, beta, lambda X, H, N: [
                np.max(np.abs(soliton_residuals._residual_of(mode, X, H, N) - offset))
                for mode, offset in terms]):
            defects += maxima
        if not np.isfinite(defects).all():
            return math.nan, f"{fam.name} {fam.params}: a residual is not finite"
    return float(np.max(defects)), detail


def _profile_residual(fam, mode: SolitonMode,
                      detail: str = "51x51, margin 1e-3, 0 failures") -> Measurement:
    """The residual of ``mode`` on a profile family's 51x51 grid."""
    return _residual_defect([(fam, ((mode, 0.0),))], GridSpec(51, 51), detail)


def _check_horosphere() -> Measurement:
    # The minimal residual X3*H + N3 is the hyperbolic mean curvature, 1 here.
    terms = ((SolitonMode.TRANSLATOR, 0.0), (SolitonMode.MINIMAL, 1.0))
    cases = [(make_horosphere(a), terms) for a in (0.5, 1.0, 2.0)]
    return _residual_defect(cases, GridSpec(101, 101),
                            "translator residual and |H~ - 1|, a in {0.5, 1, 2}")


def _check_planes() -> Measurement:
    cases = []
    for c, d in ((0.0, 0.0), (1.0, -1.0), (3.0, 2.0)):
        cases += [(make_vertical_plane(c, d), ((SolitonMode.MINIMAL, 0.0),
                                               (SolitonMode.CONFORMAL, 0.0))),
                  (make_vertical_plane(c, 0.0), ((SolitonMode.TRANSLATOR, 0.0),))]
    return _residual_defect(cases, GridSpec(101, 101),
                            "three planes; translator on the plane through the origin")


# ---------------------------------------------------------------------------
# criteria 4 and 6: the collapsing minimal and conformal cylinders


# The conformal half-width at a = 0, y0 = 1: the float of its 40-digit mpmath
# value 0.32014030485888792746..., so the tail code cannot move its reference.
_CONFORMAL_HALFWIDTH = 0.32014030485888795


def _collapsing(kind: str):
    """The ``"minimal"`` or ``"conformal"`` profile at slope 0 and ``y0 = 1``,
    and its half-width by a reference that shares no code with the tail:
    the Beta-function closed form, or a frozen 40-digit value."""
    if kind == "minimal":
        return (integrate_minimal_profile(MinimalProfileParams(c=0.0, y0=1.0)),
                minimal_halfwidth_quadrature(0.0, 1.0))
    return (integrate_conformal_profile(ConformalProfileParams(a=0.0, y0=1.0)),
            _CONFORMAL_HALFWIDTH)


def _first_integral(kind: str) -> Measurement:
    """The worst conservation defect over the nodes.  At the initial node
    ``g = 1`` and ``g' = 0``, so the conformal defect reads ``|C*e^4 - 1|``:
    it pins ``C = e^-4`` as well."""
    sol, _ = _collapsing(kind)
    return sol.conserved_max_defect, f"{len(sol.t)} nodes, normalized by max(1, g'^2)"


_SLOPE_CAP = 1e3  # symmetry probes restricted to |g'| <= this


def _check_steep_shear() -> Measurement:
    # At drift slope c, E = 1 + c^2 and F = c: forming E*G - F^2 by
    # subtraction would lose ~c^2*eps of H, which |Xs x Xt|^2 does not.
    cases = [(make_minimal_cylinder(1e6, 1.0), ((SolitonMode.MINIMAL, 0.0),)),
             (make_conformal_cylinder(1e6, 1.0), ((SolitonMode.CONFORMAL, 0.0),))]
    return _residual_defect(cases, GridSpec(51, 51),
                            "minimal c=1e6 and conformal a=1e6, y0=1, 51x51")


def _symmetry_defect(sol) -> float:
    """How far an even profile is from its mirror between nodes.

    The two branches are compared through the interpolants at ``+-q``, for
    ``q`` the midpoints of the node intervals of ``[0, min(-t[0], t[-1])]``,
    where neither branch's nodes sit: the worst of ``|g(-q) - g(q)|`` and
    ``|g'(-q) + g'(q)|/max(1, |g'(q)|)``, so an even profile whose left half
    has the wrong sign of ``g'`` reads ~2.  Probes are restricted to states
    with ``|g'| <= _SLOPE_CAP`` on both sides, where the comparison is
    well-conditioned; with none left the defect is NaN."""
    t = sol.t
    right = t[(t >= 0.0) & (t <= min(-t[0], t[-1]))]
    q = 0.5 * (right[:-1] + right[1:])
    (g_right, gp_right, _), (g_left, gp_left, _) = sol.jet(q), sol.jet(-q)
    ok = (np.abs(gp_right) <= _SLOPE_CAP) & (np.abs(gp_left) <= _SLOPE_CAP)
    if not np.any(ok):
        return math.nan
    g_right, gp_right, g_left, gp_left = g_right[ok], gp_right[ok], g_left[ok], gp_left[ok]
    return float(max(
        np.max(np.abs(g_left - g_right)),
        np.max(np.abs(gp_left + gp_right) / np.maximum(1.0, np.abs(gp_right))),
    ))


def _check_minimal_symmetry() -> Measurement:
    sol, _ = _collapsing("minimal")
    g = sol.g
    g0 = g[np.argmin(np.abs(sol.t))]
    concave = bool(np.all(sol.gpp_nodes() < 0.0))
    max_at_zero = bool(g0 >= np.max(g) - 1e-12 * max(1.0, g0))
    if not (concave and max_at_zero):
        return math.nan, f"concave={concave}, max_at_zero={max_at_zero}"
    return _symmetry_defect(sol), "g and -g' mirrored between nodes, concave, maximal at t=0"


def _halfwidth(kind: str) -> Measurement:
    """Distance of the right blow-up abscissa from the reference half-width
    ``r``; the left branch's is its mirror, at the same distance from ``-r``."""
    sol, r = _collapsing(kind)
    if sol.right_blowup_t is None:
        return math.nan, "a branch did not reach collapse"
    source = "closed-form" if kind == "minimal" else "40-digit mpmath"
    return float(abs(sol.right_blowup_t - r)), f"{source} half-width r = {r:.10f}"


def _abscissa(kind: str) -> Measurement:
    """Worst ``|t - sign(t)*(r - tail(g))|`` over every node of both branches:
    the first integral puts the node of height ``g`` at ``+-(r - tail(g))``,
    ``tail(g)`` the abscissa from ``g`` to the collapse by quadrature.  The
    reference never touches the stepper, so it sees an error of either
    branch."""
    sol, r = _collapsing(kind)
    defect = np.max(np.abs(sol.t - np.sign(sol.t) * (r - _blowup_tail(sol.params, sol.g))))
    return float(defect), f"{len(sol.t)} nodes against the first integral, r = {r:.10f}"


# ---------------------------------------------------------------------------
# criterion 5: grim reaper


def _check_reaper_constant() -> Measurement:
    sol = integrate_grim_reaper(GrimReaperParams(lam=0.0), (-50.0, 50.0))
    if sol.truncated:
        return math.nan, "the integration was truncated"
    defect = max(np.max(np.abs(sol.g - 1.0)), np.max(np.abs(sol.gp)))
    return float(defect), "lambda = 0 rides the constant solution"


def _check_reaper_shape() -> Measurement:
    """Increasing, convex left of 0 and concave right of it, with the slope
    bound of the log-slope form: ``g' = lam*e^w`` and ``w' = -(k + g'^2)*2*v/g^2``
    has the sign of ``-v``, so ``w <= w(0) = 0`` and ``0 <= g' <= lam`` at
    every node.  Node differences may wobble by 1e-13 relative."""
    sol = integrate_grim_reaper(GrimReaperParams(lam=0.5), (-50.0, 50.0))
    t, g, gp = sol.t, sol.g, sol.gp
    gpp = sol.gpp_nodes()
    neg, pos = t < 0.0, t > 0.0
    slack = 1e-13 * np.maximum(1.0, np.abs(g[:-1]))
    conditions = {
        "monotone": np.all(np.diff(g) >= -slack) and np.all(gp >= -1e-13),
        "increasing": g[-1] > g[0],
        "sign_flip_at_0": (np.any(neg) and np.any(pos)
                           and np.all(gpp[neg] >= 0.0) and np.all(gpp[pos] <= 0.0)
                           and np.any(gpp[neg] > 0.0) and np.any(gpp[pos] < 0.0)
                           and np.all(gpp[t == 0.0] == 0.0)),
        "slope_within_0_lam": np.all((gp >= 0.0) & (gp <= sol.params.lam)),
        "not_truncated": not sol.truncated,
    }
    bad = [k for k, okk in conditions.items() if not okk]
    return float(len(bad)), "failed: " + ",".join(bad) if bad else "all shape facts hold"


def _check_reaper_linear() -> Measurement:
    """The reaper's small-slope expansion, which the stepper's right-hand
    side must reproduce.  Expanding ``g = 1 + lam*u + lam^2*v + O(lam^3)``
    in ``g'' = -g'*(k + g'^2)*2t/g^2`` (the abscissa written ``t``, not
    ``v``) gives ``u'' + 2kt*u' = 0`` with
    ``u(0) = 0, u'(0) = 1``, so ``u = sqrt(pi/k)/2*erf(sqrt(k)*t)``, and
    ``v'' + 2kt*v' = 4kt*u*u'`` with ``v(0) = v'(0) = 0``, whose ``v`` is
    even, increasing in ``|t|`` and tends to ``1/(2k)``.  So
    ``2k*max|g - 1 - lam*u|/lam^2`` over the nodes reads 1 up to ``O(lam)``;
    the defect is its distance from 1, the worse of k = 1 and k = 0.3 at
    lam = 1e-3 on -20:20, where ``v`` has reached its limit."""
    lam, defects = 1e-3, []
    for k in (1.0, 0.3):
        sol = integrate_grim_reaper(GrimReaperParams(lam=lam, k=k), (-20.0, 20.0))
        if sol.truncated:
            return math.nan, f"k = {k}: the integration was truncated"
        u = np.array([math.sqrt(math.pi / k) / 2.0 * math.erf(math.sqrt(k) * t)
                      for t in sol.t.tolist()])
        defects.append(abs(2.0 * k * np.max(np.abs(sol.g - 1.0 - lam * u)) / lam ** 2 - 1.0))
    return float(np.max(defects)), "lambda = 1e-3, k in {1, 0.3}: lambda^2 term against 1/(2k)"


# ---------------------------------------------------------------------------
# criterion 7: reduced equations agree with the jet pipeline


def _reduced_defect(reduced: Callable, j, clear) -> float:
    """Worst relative disagreement, over every sample and mode, between a
    reduced residual and ``2W^3`` times the general residual of the jet."""
    return float(np.max([_rel_defect(reduced(mode), residual(mode, j) * clear, floor=1.0)
                         for mode in SolitonMode]))


def _check_reduced_first_kind() -> Measurement:
    u, p = (-2.0, 2.0), (0.2, 3.0)
    f, fp, fpp, g, gp, gpp, s, t = _uniform_columns(_SEED + 1, [u, u, u, p, u, u, u, u])
    fj, gj = (f, fp, fpp), (g, gp, gpp)
    clear = 2.0 * (gp * gp * (fp * fp + 1.0) + 1.0) ** 1.5
    worst = _reduced_defect(lambda mode: reduced_residual_first_kind(mode, fj, gj, s, t),
                            first_kind_jet(fj, gj, s, t), clear)
    return worst, "1000 random jets x 3 modes"


def _check_reduced_second_kind() -> Measurement:
    u = (-2.0, 2.0)
    f0, f1, f2, b, s, t = _uniform_columns(_SEED + 2, [u, u, u, u, u, (0.1, 3.0)])
    fj = (f0 + b, f1, f2)
    clear = 2.0 * (f1 * f1 + 1.0) ** 1.5
    worst = _reduced_defect(lambda mode: reduced_residual_second_kind(mode, fj, s, t),
                            second_kind_jet(fj, s, t), clear)
    return worst, "1000 random jets x 3 modes"


# ---------------------------------------------------------------------------
# criterion 8: finite-difference oracle convergence


def _fd_surfaces():
    """Three unrelated analytic surfaces, and the points ``(s, t)`` at which
    each is probed."""
    s1 = make_generic_first_kind(
        lambda s: (math.sin(s), math.cos(s), -math.sin(s)),
        lambda t: (2.0 + 0.5 * math.cos(t), -0.5 * math.sin(t), -0.5 * math.cos(t)),
        (-2.0, 2.0),
        (-2.0, 2.0),
    )
    s2 = make_generic_second_kind(
        lambda s: (math.cos(2.0 * s) + 0.3, -2.0 * math.sin(2.0 * s), -4.0 * math.cos(2.0 * s)),
        (-2.0, 2.0),
        (0.5, 4.0),
    )
    s3 = make_generic_first_kind(
        lambda s: (s ** 3 / 3.0 - s, s * s - 1.0, 2.0 * s),
        lambda t: (1.5 + 0.25 * math.sin(2.0 * t), 0.5 * math.cos(2.0 * t), -math.sin(2.0 * t)),
        (-2.0, 2.0),
        (-2.0, 2.0),
    )
    s, t = np.array([(0.4, 0.7), (-0.9, 1.3), (1.1, 2.1)]).T
    return (s1, s2, s3), s, t


def _check_fd_convergence() -> Measurement:
    """Distance of the observed convergence orders from 2.  An order needs
    a positive error at every step: an error that vanishes (or is NaN)
    measures nothing, and fails the row."""
    hs = np.array([1e-2, 5e-3, 2.5e-3])
    orders = []
    surfaces, s, t = _fd_surfaces()
    for i, fam in enumerate(surfaces, 1):
        # One batch per surface: points down, steps across.
        fd = finite_difference_jet(fam.position, s[:, None], t[:, None], hs)
        exact = mean_curvature(fam.jet(s, t))[:, None]
        errs = np.max(np.abs(mean_curvature(fd) - exact), axis=0).tolist()
        if not all(e > 0.0 for e in errs):
            return math.nan, f"surface {i} ({fam.name}): errors {errs} are not all positive"
        orders += [math.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
    return float(np.max(np.abs(np.array(orders) - 2.0))), "orders: " + ", ".join(f"{o:.3f}" for o in orders)


# ---------------------------------------------------------------------------
# criterion 9: falsification probes


def _check_falsification() -> Measurement:
    """The smallest residual of three perturbed exact solutions."""
    probes = [
        (make_minimal_cylinder(0.0, 1.0), SolitonMode.MINIMAL),
        (make_grim_reaper(0.5, span=(-5.0, 5.0)), SolitonMode.TRANSLATOR),
        (make_conformal_cylinder(0.0, 1.0), SolitonMode.CONFORMAL),
    ]
    measured = [_profile_residual(perturb_profile(fam, 1e-2), mode, fam.name)
                for fam, mode in probes]
    return (float(np.min([floor for floor, _ in measured])),
            "; ".join(f"{detail}:{floor:.2e}" for floor, detail in measured))


# ---------------------------------------------------------------------------
# criterion 10: byte-identical exports


def _same_bytes(argv: List[str], suffixes: Tuple[str, ...]) -> Measurement:
    """Run a CLI command twice, stdout swallowed, into fresh prefixes: 0 if
    the files it wrote (the prefix plus each suffix) are the same bytes, 1
    if not, NaN if a run did not exit 0."""
    from .cli import main as cli_main

    with tempfile.TemporaryDirectory() as td:
        outs = []
        for tag in ("r1", "r2"):
            prefix = os.path.join(td, tag)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli_main(argv + ["--out", prefix])
            if rc != 0:
                return math.nan, f"{argv[0]} run exited {rc}"
            outs.append(b"".join(Path(prefix + suffix).read_bytes() for suffix in suffixes))
    return float(outs[0] != outs[1]), f"{len(outs[0])} bytes compared"


def _check_determinism_mesh() -> Measurement:
    return _same_bytes(["mesh", "--family", "minimal-cylinder", "--c", "0", "--y0", "1",
                        "--grid", "31x31"], (".obj",))


def _check_determinism_profile() -> Measurement:
    return _same_bytes(["profile", "--ode", "minimal", "--c", "0", "--y0", "1"],
                       (".csv", ".events.txt"))


# ---------------------------------------------------------------------------

# (name, criterion, sense, tolerance, measure): the one statement of each
# check's tolerance, and the only one `run_checks` judges by.  A measurement
# looks the module's functions up when it runs (in a body or a lambda, never
# bound into a `partial`), so that it sees a name rebound on this module.
_REGISTRY: List[Tuple[str, int, str, float, Callable[[], Measurement]]] = [
    ("lie.group_laws", 1, "<=", 1e-12, _check_group_laws),
    ("horosphere.soliton", 2, "<=", 1e-10, _check_horosphere),
    ("plane.residuals", 3, "<=", 1e-10, _check_planes),
    ("minimal_cylinder.residual", 4, "<=", 1e-6,
     lambda: _profile_residual(make_minimal_cylinder(0.0, 1.0), SolitonMode.MINIMAL)),
    ("minimal_cylinder.first_integral", 4, "<=", 1e-8, partial(_first_integral, "minimal")),
    ("minimal_cylinder.symmetry", 4, "<=", 1e-8, _check_minimal_symmetry),
    ("minimal_cylinder.halfwidth", 4, "<=", 1e-6, partial(_halfwidth, "minimal")),
    ("minimal_cylinder.abscissa", 4, "<=", 1e-9, partial(_abscissa, "minimal")),
    ("steep_shear.residual", 4, "<=", 1e-12, _check_steep_shear),
    ("grim_reaper.constant", 5, "<=", 1e-12, _check_reaper_constant),
    ("grim_reaper.shape", 5, "<=", 0.5, _check_reaper_shape),
    ("grim_reaper.residual", 5, "<=", 1e-6,
     lambda: _profile_residual(make_grim_reaper(0.5, span=(-50.0, 50.0)), SolitonMode.TRANSLATOR,
                               "lambda=0.5, k=1, 51x51, 0 failures")),
    ("grim_reaper.linear", 5, "<=", 1e-3, _check_reaper_linear),
    ("conformal.residual", 6, "<=", 1e-6,
     lambda: _profile_residual(make_conformal_cylinder(0.0, 1.0), SolitonMode.CONFORMAL)),
    ("conformal.first_integral", 6, "<=", 1e-8, partial(_first_integral, "conformal")),
    ("conformal.halfwidth", 6, "<=", 1e-6, partial(_halfwidth, "conformal")),
    ("conformal.abscissa", 6, "<=", 1e-9, partial(_abscissa, "conformal")),
    ("conformal.not_minimal", 6, ">", 1e-3,
     lambda: _profile_residual(make_conformal_cylinder(0.0, 1.0), SolitonMode.MINIMAL,
                               "minimal residual must NOT vanish here")),
    ("reduced.first_kind", 7, "<=", 1e-10, _check_reduced_first_kind),
    ("reduced.second_kind", 7, "<=", 1e-10, _check_reduced_second_kind),
    ("fd.convergence", 8, "<=", 0.3, _check_fd_convergence),
    ("falsify.profiles", 9, ">", 1e-4, _check_falsification),
    ("determinism.mesh", 10, "<=", 0.5, _check_determinism_mesh),
    ("determinism.profile", 10, "<=", 0.5, _check_determinism_profile),
]


def run_checks(only: Optional[str] = None) -> VerifySummary:
    """Run the acceptance checks (all, or those whose name contains ``only``)
    and judge each defect against its row's tolerance and sense."""
    selected = [entry for entry in _REGISTRY if only is None or only in entry[0]]
    if not selected:
        raise ParameterError(f"no check name contains {only!r}")
    results = []
    for name, criterion, sense, tol, measure in selected:
        t0 = time.perf_counter()
        defect, detail = measure()
        dt = time.perf_counter() - t0
        defect = float(defect)
        results.append(CheckResult(
            name=name, criterion=criterion,
            passed=defect <= tol if sense == "<=" else defect > tol,
            defect=defect, tolerance=tol, sense=sense, seconds=dt, detail=detail,
        ))
    return VerifySummary(results=results)
