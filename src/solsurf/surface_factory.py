"""Constructors for the concrete surface families and grid sampling.

Every family is packaged as a :class:`SurfaceFamily`: a rectangle of
parameters ``(s, t)``, its two factor curves ``alpha(s)`` and ``beta(t)``,
the constructors of :mod:`solsurf.surface_jets` fed by jet functions
(:func:`_along`), and its parameter dict.  A second-kind family is ``X = (s,
f(s), t)``: a shift of it in ``y`` is a constant in ``f``, not a parameter
of its own.  Grids evaluate each factor curve in one call on its whole axis,
as one ``(3, n, 3)`` curve jet (node by node only after that call raises a
domain error).  A residual sweep forms the surface in blocks of about
``BLOCK_NODES`` nodes: its points, and its curvature once, before the first
block, when every row of ``alpha`` is a horizontal translate of the first (a
linear ``f``), else once per block, never a surface jet.  A mesh's points,
formed alone, and its two refusals are stated here too (:func:`_mesh_points`),
so the OBJ writer only formats.  A failed node is a NaN of the grid.  The jet
kernels own the error state (``_quiet``); only :func:`_axis_jet`, on
callers' curves, sets one.

The minimal and conformal cylinders read their collapsing profile in
closed form (:func:`~solsurf.profile_odes._closed_form`) and take its
collapse interval ``[-r, r]`` less ``MARGIN``, a fixed 1e-3 of its span per
side, as their ``t_range``, so that sampled nodes stay away from the
near-vertical ends where jets degrade.  The grim reaper reads its stepped
profile on the profile's node span, and refuses a profile whose
integration was truncated.  Every family's ``t_range`` is the extent its
grids sample.  A jet function returns the ``(value, d1, d2)`` scalar jet of
its function: a triple at one abscissa, a ``(3, n)`` array on an axis.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from .errors import DomainError, ParameterError
from .profile_odes import (
    MAX_BRANCH_STEPS,
    ConformalProfileParams,
    GrimReaperParams,
    MinimalProfileParams,
    REAPER_SPAN_DEFAULT,
    _closed_form,
    _CollapseParams,
    integrate_grim_reaper,
)
from .surface_jets import (
    _curvature,
    _derivatives,
    _graph,
    _horospherical,
    _positions,
    _require_triples,
    _rising,
    _vertical,
    product_surface_jet,
)

__all__ = [
    "GridSpec",
    "SurfaceFamily",
    "make_horosphere",
    "make_vertical_plane",
    "make_minimal_cylinder",
    "make_grim_reaper",
    "make_conformal_cylinder",
    "make_generic_first_kind",
    "make_generic_second_kind",
    "perturb_profile",
    "grid_axes",
    "sample_grid",
]


# At 1001x1001 on a 2-core x86 host (Intel Xeon, numpy 2.4), timed in process
# in 5 fresh processes: residual_report in minimal mode, write_residual_csv and
# write_residual_summary take 0.07-0.14 s for the minimal cylinder (c = 0.7)
# and 0.48-0.70 s for the curved-f first kind (s, 0.3 sin s, 1)*(0, t, 1 +
# 0.2 cos t) on [-2, 2]^2, at a peak RSS of 47 MB; write_obj_mesh of the
# cylinder takes 0.78-1.15 s at 34 MB.  The cap (1024x1024) keeps every grid
# near that, instead of letting a typo allocate until the process is killed.
MAX_GRID_NODES = 1 << 20
# Nodes a sweep forms at once: whole s rows, at least one, 40 at nt = 201
# (curvature too, unless every row is a translate of the first: then it is
# formed on row 0 before the first block).  Slots and temporaries stay in the
# CPU caches: at 1001x1001, blocks of 8 rows took 55-59 ms against 119-140 ms
# for one whole-grid jet (2-core x86).
BLOCK_NODES = 8192
# Fraction of a collapsing profile's span [-r, r] clipped from each end.
MARGIN = 1e-3


@dataclass(frozen=True, slots=True)
class GridSpec:
    """A sampling grid: ``ns`` nodes across ``s``, ``nt`` across ``t``, each
    an integer of at least 2.  At most ``MAX_GRID_NODES`` nodes are allowed."""

    ns: int
    nt: int

    def __post_init__(self) -> None:
        try:  # numpy integers pass, as Python ints; floats, NaN included, do not
            ns, nt = operator.index(self.ns), operator.index(self.nt)
        except TypeError:
            raise ParameterError(f"grid counts must be integers, got {self.ns!r}x{self.nt!r}") from None
        if ns < 2 or nt < 2:
            raise ParameterError(f"grid needs at least 2x2 nodes, got {ns}x{nt}")
        if ns * nt > MAX_GRID_NODES:
            raise ParameterError(f"grid {ns}x{nt} has {ns * nt} nodes, "
                                 f"more than the cap of {MAX_GRID_NODES}")


def _check_range(name: str, rng: Tuple[float, float]) -> Tuple[float, float]:
    """``rng`` as floats ``lo < hi`` whose width ``hi - lo`` is finite too:
    grid nodes are spaced by it, and an overflowed width makes them NaN."""
    lo, hi = float(rng[0]), float(rng[1])
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ParameterError(
            f"{name} must be a finite increasing pair with a finite width, got {rng!r}"
        )
    return lo, hi


@dataclass(eq=False)
class SurfaceFamily:
    """A translation surface ``X(s, t) = alpha(s) * beta(t)``, the group
    product of its two factor curves.

    ``alpha(s)`` and ``beta(t)`` return the curve jet of each factor, a
    ``(3, ..., 3)`` array of its value, d1 and d2 slots: ``(3, 3)`` at one
    abscissa, ``(3, n, 3)`` on the ``n`` nodes of a grid axis (a 1-D
    array).  Every family's ``alpha`` is ``surface_jets._horospherical`` and
    its ``beta`` is ``_graph`` of a profile (first kind) or ``_rising``
    (second kind), the shapes :mod:`solsurf.surface_jets` states.  ``jet(s, t)``
    returns the read-only ``(6, ..., 3)`` surface jet ``X, Xs, Xt, Xss, Xst,
    Xtt``; ``position`` forms its slot ``X`` alone, the bare embedding,
    NaN off the half-space as in the jet, convenient for finite-difference
    cross-checks.  A profile lives only in ``beta``, so the family
    :func:`perturb_profile` returns holds no profile but its own.

    Construction, :func:`dataclasses.replace` included, stores both ranges
    as float pairs and refuses one that is not a finite increasing pair
    with a finite width.
    """

    name: str
    params: dict
    s_range: Tuple[float, float]
    t_range: Tuple[float, float]
    alpha: Callable[[float], np.ndarray] = field(repr=False)
    beta: Callable[[float], np.ndarray] = field(repr=False)

    def __post_init__(self) -> None:
        self.s_range = _check_range("s_range", self.s_range)
        self.t_range = _check_range("t_range", self.t_range)

    def jet(self, s: float, t: float) -> np.ndarray:
        return product_surface_jet(self.alpha(s), self.beta(t))

    def position(self, s: float, t: float) -> np.ndarray:
        return _positions(self.alpha(s)[0], self.beta(t)[0])


def _along(curve: Callable[..., np.ndarray], jet_fn: Callable[[float], tuple]):
    """The factor curve ``x -> curve(x, jet_fn(x))``, at one abscissa or on a grid axis."""
    return lambda x: curve(x, jet_fn(x))


def _second_kind_family(
    name: str,
    params: dict,
    f_jet_fn: Callable[[float], tuple],
    s_range: Tuple[float, float],
    t_range: Tuple[float, float],
) -> SurfaceFamily:
    """A second-kind family: ``alpha`` from ``f``, ``beta`` rising.  Its t
    range must stay above the boundary plane, which keeps every sampled
    ``t`` positive."""
    fam = SurfaceFamily(name, params, s_range, t_range, _along(_horospherical, f_jet_fn), _rising)
    if not fam.t_range[0] > 0.0:
        raise ParameterError(f"t_range must stay above the boundary plane, got {t_range!r}")
    return fam


def _linear_jet(slope: float, intercept: float) -> Callable[[float], tuple]:
    def fn(s: float) -> tuple:
        return slope * s + intercept, slope, 0.0

    return fn


def make_horosphere(
    a: float = 1.0,
    s_range: Tuple[float, float] = (-2.0, 2.0),
    t_range: Tuple[float, float] = (-2.0, 2.0),
) -> SurfaceFamily:
    """The flat slice at height ``a > 0``: X(s, t) = (s, t, a)."""
    if not a > 0.0:
        raise ParameterError(f"height must be positive, got {a!r}")
    return SurfaceFamily("horosphere", {"a": a}, s_range, t_range,
                         _along(_horospherical, _linear_jet(0.0, 0.0)),
                         _along(_graph, _linear_jet(0.0, a)))


def make_vertical_plane(
    c: float = 1.0,
    d: float = 0.0,
    s_range: Tuple[float, float] = (-2.0, 2.0),
    t_range: Tuple[float, float] = (0.5, 4.5),
) -> SurfaceFamily:
    """The vertical plane y = c*x + d: X(s, t) = (s, c*s + d, t)."""
    return _second_kind_family(
        "vertical_plane", {"c": c, "d": d}, _linear_jet(c, d), s_range, t_range
    )


def _collapsing_family(
    name: str,
    params: dict,
    s_range: Tuple[float, float],
    f: Callable[[float], tuple],
    profile: _CollapseParams,
) -> SurfaceFamily:
    """A first-kind family whose height ``g`` is a collapsing profile, read
    in closed form (:func:`~solsurf.profile_odes._closed_form`), on
    ``t_range = +-r*(1 - 2*MARGIN)``: its span ``[-r, r]`` less ``MARGIN``
    of it per side."""
    r, g = _closed_form(profile)
    hi = r * (1.0 - 2.0 * MARGIN)
    return SurfaceFamily(name, params, s_range, (-hi, hi),
                         _along(_horospherical, f), _along(_graph, g))


def make_minimal_cylinder(
    c: float = MinimalProfileParams.c,
    y0: float = MinimalProfileParams.y0,
    d: float = 0.0,
    s_range: Tuple[float, float] = (-2.0, 2.0),
) -> SurfaceFamily:
    """Minimal surface generated by the collapsing even profile: first-kind
    construction with f(s) = c*s + d and g the minimal profile."""
    return _collapsing_family("minimal_cylinder", {"c": c, "y0": y0, "d": d}, s_range,
                              _linear_jet(c, d), MinimalProfileParams(c=c, y0=y0))


def make_grim_reaper(
    lam: float = GrimReaperParams.lam,
    b_slope: float = 0.0,
    span: Tuple[float, float] = REAPER_SPAN_DEFAULT,
    s_range: Tuple[float, float] = (-2.0, 2.0),
) -> SurfaceFamily:
    """Translating surface: f(s) = b_slope*s and g(t) the reaper profile,
    with k = 1/(b_slope^2 + 1); a ``b_slope`` whose square overflows leaves
    no positive ``k`` and is refused.

    A shift ``a`` of the profile, ``X(s, t; a) = (s, t + b*s + a, g(a + t))``,
    is this surface with ``t`` relabelled, ``X(s, t; a) = X(s, t + a; 0)``,
    so the family takes none.

    The family's ``t_range`` is the profile's node span, read by its jet
    (:meth:`~solsurf.profile_odes.ProfileSolution.jet`).  A truncated
    profile, whose integration ended before its natural end, is refused:
    its node span is not the family's."""
    k = 1.0 / (b_slope * b_slope + 1.0)
    if not k > 0.0:
        raise ParameterError(f"b_slope must have a finite square, got {b_slope!r}")
    sol = integrate_grim_reaper(GrimReaperParams(lam=lam, k=k), span=span)
    lo, hi = float(sol.t[0]), float(sol.t[-1])
    if sol.truncated:
        raise ParameterError(
            f"the grim_reaper profile is truncated: its nodes reach only t in [{lo!r}, {hi!r}], "
            "short of its natural end (a branch met a stop, its step floor or its "
            f"MAX_BRANCH_STEPS = {MAX_BRANCH_STEPS} step budget)"
        )
    return SurfaceFamily("grim_reaper", {"lam": lam, "b_slope": b_slope, "k": k}, s_range,
                         (lo, hi), _along(_horospherical, _linear_jet(b_slope, 0.0)),
                         _along(_graph, sol.jet))


def make_conformal_cylinder(
    a_slope: float = ConformalProfileParams.a,
    y0: float = ConformalProfileParams.y0,
    s_range: Tuple[float, float] = (-2.0, 2.0),
) -> SurfaceFamily:
    """Conformal-soliton surface generated by the collapsing conformal
    profile: first-kind construction with f(s) = a_slope*s."""
    return _collapsing_family("conformal_cylinder", {"a_slope": a_slope, "y0": y0}, s_range,
                              _linear_jet(a_slope, 0.0), ConformalProfileParams(a=a_slope, y0=y0))


def _coerced(fn: Callable[[float], object]) -> Callable[[float], tuple]:
    """Jet function from a user function of one float returning a
    ``(value, d1, d2)`` triple.  On an axis it calls ``fn`` once per node and
    stacks the jets into a ``(3, n)`` array; an error at any node propagates
    (:func:`_axis_jet` then retries node by node).  A jet of another length
    is refused at any node."""

    def jet_fn(x):
        if np.ndim(x) == 0:
            return fn(x)
        jets = list(map(fn, x.tolist()))
        _require_triples(jets)
        return np.array(jets, dtype=float).T

    return jet_fn


def make_generic_first_kind(
    f_fn: Callable[[float], object],
    g_fn: Callable[[float], object],
    s_range: Tuple[float, float],
    t_range: Tuple[float, float],
) -> SurfaceFamily:
    """First-kind surface from user scalar jets: X = (s, t + f(s), g(t)).

    ``f_fn``/``g_fn`` return a ``(value, d1, d2)`` triple.
    """
    return SurfaceFamily("generic_first_kind", {}, s_range, t_range,
                         _along(_horospherical, _coerced(f_fn)), _along(_graph, _coerced(g_fn)))


def make_generic_second_kind(
    f_fn: Callable[[float], object],
    s_range: Tuple[float, float],
    t_range: Tuple[float, float],
) -> SurfaceFamily:
    """Second-kind surface from a user scalar jet: X = (s, f(s), t)."""
    return _second_kind_family("generic_second_kind", {}, _coerced(f_fn), s_range, t_range)


def perturb_profile(fam: SurfaceFamily, amplitude: float) -> SurfaceFamily:
    """Additively perturb the height of a first-kind family's ``beta`` by
    ``amplitude * cos(t)``, with honestly perturbed derivatives.

    The result should *fail* residual checks: it is the falsification probe
    that guards the evaluation pipeline against vacuous passes.  A
    second-kind family is refused: its ``beta`` is ``(0, 0, t)``, and
    ``(0, 0, t + amplitude * cos(t))`` is the same vertical line
    reparametrised, so the probe could not fail.
    """
    if fam.beta is _rising:
        raise ParameterError(f"family {fam.name!r} does not expose a profile to perturb")
    if not math.isfinite(amplitude):
        raise ParameterError(f"amplitude must be finite, got {amplitude!r}")
    beta = fam.beta

    def bumped(t) -> np.ndarray:
        c = beta(t)
        z = c[..., 2]
        cos, sin = amplitude * np.cos(t), amplitude * np.sin(t)
        return _vertical(c[..., 1], (z[0] + cos, z[1] - sin, z[2] - cos))

    return replace(fam, params=dict(fam.params, perturb_amplitude=amplitude), beta=bumped)


def grid_axes(fam: SurfaceFamily, grid: GridSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Node coordinates for a grid on the family's rectangle, ends included."""
    return np.linspace(*fam.s_range, grid.ns), np.linspace(*fam.t_range, grid.nt)


def _axis_jet(fn, nodes: np.ndarray, label: str):
    """Curve jets of ``fn`` on one grid axis, as one ``(3, n, 3)`` array,
    and per node the reason it failed or None.

    ``fn`` is called once on the whole axis.  If it raises a domain error,
    it is rerun node by node, so only the nodes that raise fail, each with
    its own message.  A node fails, for the first of these reasons, when
    ``fn`` raises at it (a factor curve's height that is not positive
    raises) or when its jet is not finite.  A failed node is NaN in every
    slot: a NaN in a slot some residual does not read would not fail it.
    """
    rows = np.full((3, len(nodes), 3), np.nan)
    reasons: List[Optional[str]] = [None] * len(nodes)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite jet fails below
        try:
            rows[:] = fn(nodes)
        except DomainError:
            for k, x in enumerate(nodes.tolist()):
                try:
                    rows[:, k] = fn(x)
                except DomainError as exc:
                    reasons[k] = str(exc)
    bad = ~np.isfinite(rows).all(axis=(0, 2))
    for k in np.flatnonzero(bad).tolist():
        if reasons[k] is None:
            jet = tuple(rows[:, k].ravel().tolist())
            reasons[k] = f"axis jet at {label}={float(nodes[k])!r} is not finite: {jet}"
    rows[:, bad] = np.nan
    return rows, reasons


def sample_grid(
    fam: SurfaceFamily, grid: GridSpec
) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
           Tuple[List[Optional[str]], List[Optional[str]]]]:
    """Evaluate the family's two factor curves on the grid's axes:
    ``((s, t, alpha, beta), (s_reasons, t_reasons))``.

    ``s`` and ``t`` are the grid's whole axes, ``alpha`` the ``(3, ns, 1,
    3)`` and ``beta`` the ``(3, nt, 3)`` curve jets on them, and the
    reasons hold, per axis node, why it failed or None.  Each curve is
    evaluated in one call on its axis, and node by node only after that
    call raises (:func:`_axis_jet`), so a domain error fails just the axis
    nodes that raise it.  A failed axis node is NaN in every slot, so every
    grid node of its row or column is a NaN of whatever grid a sweep forms;
    nothing is raised.  No surface jet is built here: a sweep forms what it
    needs of the ``(6, ns, nt, 3)`` grid jet a block of rows at a time
    (:func:`_row_blocks`).
    """
    s, t = grid_axes(fam, grid)
    alpha, s_reasons = _axis_jet(fam.alpha, s, "s")
    beta, t_reasons = _axis_jet(fam.beta, t, "t")
    return (s, t, alpha[:, :, None], beta), (s_reasons, t_reasons)


def _failures(s, t, reasons, r: Optional[np.ndarray] = None) -> List[Tuple[float, float, str]]:
    """The nodes where ``r``, a sweep's grid, is not finite (without ``r``,
    the nodes of a failed axis node), row-major, as ``(s, t, reason)`` in
    Python floats.  The reason is, of :func:`sample_grid`'s ``reasons``, the
    ``s`` node's, else the ``t`` node's, else ``residual is not finite: {value!r}``."""
    s_reasons, t_reasons = reasons
    if r is None:  # every such node has an axis node's reason, so r is not read
        bad = np.logical_or.outer([x is not None for x in s_reasons],
                                  [x is not None for x in t_reasons])
    else:
        bad = ~np.isfinite(r)
    s, t = s.tolist(), t.tolist()
    return [(s[a], t[b], s_reasons[a] if s_reasons[a] is not None
             else t_reasons[b] if t_reasons[b] is not None
             else f"residual is not finite: {float(r[a, b])!r}")
            for a in np.flatnonzero(bad.any(axis=1)).tolist()
            for b in np.flatnonzero(bad[a]).tolist()]


def _refused(s, t, reasons) -> Optional[Tuple[int, Tuple[float, float, str]]]:
    """How many nodes the failed axis nodes fail, and the first as :func:`_failures`
    lists it from one row (0 if a ``t`` node failed, else the first failed ``s`` row)."""
    s_bad, t_bad = ([x is not None for x in side] for side in reasons)
    if n := len(s) * len(t) - s_bad.count(False) * t_bad.count(False):
        a = 0 if any(t_bad) else s_bad.index(True)
        return n, _failures(s[a:a + 1], t, (reasons[0][a:a + 1], reasons[1]))[0]


def _block_rows(ns: int, nt: int) -> List[slice]:
    """Slices of ``ns`` rows of ``nt`` nodes, in order: blocks of about ``BLOCK_NODES``."""
    step = max(1, BLOCK_NODES // nt)
    return [slice(lo, min(lo + step, ns)) for lo in range(0, ns, step)]


def _mesh_points(fam: SurfaceFamily, grid: GridSpec) -> Iterator[np.ndarray]:
    """A mesh's points, each block of :func:`_block_rows` formed when asked
    for: :func:`_positions` of its rows, ``(rows, nt, 3)``, no jet and no
    curvature, inf where a height overflows (in the half-space), unwarned.
    Raises :class:`DomainError` before any block is formed if an axis node fails
    (:func:`_refused`) or a point is off the half-space, a NaN of
    :func:`_positions`, naming the first such point ``(s, t)``.  A row is
    off where its lowest point is: with every axis node finite, a point's
    height is the rounded product ``a3*b3``, which never falls as ``b3``
    grows when ``a3 > 0``."""
    (s, t, alpha, beta), reasons = sample_grid(fam, grid)
    if refused := _refused(s, t, reasons):
        raise DomainError("%d mesh node(s) failed, first (s, t, reason): %s" % refused)
    low = _positions(alpha[0, :, 0], beta[0, np.argmin(beta[0, :, 2])])
    if (off := np.isnan(low[:, 2])).any():
        i = int(np.argmax(off))
        k = int(np.argmax(np.isnan(_positions(alpha[0, i], beta[0])[:, 2])))
        raise DomainError(f"mesh point (s, t) = ({float(s[i])!r}, {float(t[k])!r}) "
                          "is off the half-space")
    return (_positions(alpha[0, rows], beta[0]) for rows in _block_rows(grid.ns, grid.nt))


def _row_blocks(alpha: np.ndarray, beta: np.ndarray, f: Callable[..., object]):
    """``f(X, H, N)`` of the surface of :func:`sample_grid`'s axis jets, one
    block of :func:`_block_rows` at a time: yields ``(rows, f(X, H, N))``.
    ``X`` is :func:`_positions` of the block's rows, NaN off the half-space,
    and ``H`` and ``N`` (mean curvature, normal components) are
    :func:`_curvature` of the five :func:`_derivatives` slots: no point is
    formed twice and no surface jet is built.  ``H`` and ``N`` read a row of
    ``alpha`` only through ``a3``, ``alpha'`` and ``alpha''``, so when every
    row's 7 numbers have row 0's bits (each row a horizontal translate of it:
    a linear ``f``), ``shared`` forms them on row 0 before the first block,
    for every block.  Else (a curved or piecewise-linear ``f``, a failed
    ``s`` node's NaN, a ``-0.0`` where row 0 has ``0.0``) ``shared`` is
    empty and each block forms them on its rows.  Every value has a
    whole-grid jet's bits, one block's arrays are held at a time, and the
    kernels own the non-finite policy (``_quiet``): nothing warns, and a node
    whose value is not finite fails, a point off the half-space included."""
    key = np.concatenate([alpha[0, :, 0, 2:], alpha[1, :, 0], alpha[2, :, 0]], axis=1).view(np.int64)
    shared = _curvature(_derivatives(alpha[:, :1], beta)) if (key == key[0]).all() else ()
    for rows in _block_rows(alpha.shape[1], beta.shape[1]):
        X = _positions(alpha[0, rows], beta[0])  # NaN off the half-space: the node fails
        H, N = shared or _curvature(_derivatives(alpha[:, rows], beta))
        out = f(X, H, N)
        del X, H, N
        yield rows, out
