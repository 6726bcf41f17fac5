"""Layer tracing for the traced benchmark pass.

Wrappers are installed from outside the package, at every module attribute
through which a caller looks a layer function up: ``from ... import`` copies
the binding, so patching only the defining module would miss most calls.

* Coarse calls (profile integration, family construction, grid sampling,
  residual reports, file writers, the verify battery, and each CLI command)
  are spans with a parent and the id of the command that caused them.
* Per-node calls (jets, profile evaluations, curvature, positions, group
  operations) are aggregated into a count and a total time per layer, so
  memory stays bounded on large grids.

A span's self time is its duration minus the time of its child spans and of
the outermost per-node calls made inside it.
"""
from __future__ import annotations

import os
import time
from typing import Callable, Dict, List

import solsurf.commands as commands
import solsurf.export as export
import solsurf.lie_halfspace as lie_halfspace
import solsurf.profile_odes as profile_odes
import solsurf.soliton_residuals as soliton_residuals
import solsurf.surface_factory as surface_factory
import solsurf.surface_jets as surface_jets
import solsurf.verify as verify

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "cmd", "parent", "start", "end", "child_s")

    def __init__(self, name: str, cmd: int, parent: int, start: float) -> None:
        self.name = name
        self.cmd = cmd
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.depth = 0
        self.cmd = -1
        # layer -> [calls, seconds, points]
        self.nodes: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else -1
        span = Span(name, self.cmd, parent, _clock())
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        self.stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.seconds

    def span(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def per_node(self, name: str, fn: Callable, points: Callable = None) -> Callable:
        slot = self.nodes.setdefault(name, [0, 0.0, 0])

        def wrapper(*args, **kwargs):
            self.depth += 1
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                self.depth -= 1
                slot[0] += 1
                slot[1] += dt
                slot[2] += 1 if points is None else points(args)
                if self.depth == 0 and self.stack:
                    self.spans[self.stack[-1]].child_s += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def span_records(self) -> List[dict]:
        return [{"name": sp.name, "cmd": sp.cmd, "parent": sp.parent,
                 "start": sp.start, "s": sp.seconds, "self_s": sp.self_s}
                for sp in self.spans]

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer totals of this trace, named as in BENCHMARK.json."""
        span_s: Dict[str, float] = {}
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for sp in self.spans:
            span_s[sp.name] = span_s.get(sp.name, 0.0) + sp.seconds
            self_s[sp.name] = self_s.get(sp.name, 0.0) + sp.self_s
            calls[sp.name] = calls.get(sp.name, 0) + 1

        def node(name: str):
            return self.nodes.get(name, [0, 0.0, 0])

        ev_calls, ev_s, ev_points = node("profile_odes.eval")
        write_self_s = self_s.get("export.write", 0.0)
        report_nodes = self.counts.get("report_nodes", 0.0)
        return {
            "profile_odes.integrate.s": span_s.get("profile_odes.integrate", 0.0),
            "profile_odes.integrate.calls": calls.get("profile_odes.integrate", 0),
            "profile_odes.integrate.nodes": self.counts.get("integrate_nodes", 0.0),
            "profile_odes.eval.s": ev_s,
            "profile_odes.eval.calls": ev_calls,
            "profile_odes.eval.points": ev_points,
            "profile_odes.eval.points_per_call": ev_points / ev_calls if ev_calls else 0.0,
            "surface_jets.jet.s": node("surface_jets.jet")[1],
            "surface_jets.jet.calls": node("surface_jets.jet")[0],
            "surface_jets.curvature.s": node("surface_jets.curvature")[1],
            "surface_jets.curvature.calls": node("surface_jets.curvature")[0],
            "surface_factory.build.s": span_s.get("surface_factory.build", 0.0),
            "surface_factory.build.self_s": self_s.get("surface_factory.build", 0.0),
            "surface_factory.sample_grid.s": span_s.get("surface_factory.sample_grid", 0.0),
            "surface_factory.sample_grid.self_s": self_s.get("surface_factory.sample_grid", 0.0),
            "surface_factory.position.calls": node("surface_factory.position")[0],
            "soliton_residuals.report.s": span_s.get("soliton_residuals.report", 0.0),
            "soliton_residuals.report.self_s": self_s.get("soliton_residuals.report", 0.0),
            "soliton_residuals.report.failed_nodes": self.counts.get("report_failed", 0.0),
            "soliton_residuals.report.node_yield": (
                self.counts.get("report_rows", 0.0) / report_nodes if report_nodes else 0.0
            ),
            "export.write.s": span_s.get("export.write", 0.0),
            "export.write.self_s": write_self_s,
            "export.bytes": self.counts.get("write_bytes", 0.0),
            "export.rows": self.counts.get("write_rows", 0.0),
            "export.bytes_per_s": (
                self.counts.get("write_bytes", 0.0) / write_self_s if write_self_s else 0.0
            ),
            "lie_halfspace.s": node("lie_halfspace")[1],
            "lie_halfspace.calls": node("lie_halfspace")[0],
            "commands.cmd.self_s": self_s.get("commands.cmd", 0.0),
            **{k: v for k, v in self.counts.items() if k.startswith("verify.check.")},
        }


def _after_integrate(tr: Tracer, args, sol) -> None:
    tr.add("integrate_nodes", len(sol.t))


def _after_report(tr: Tracer, args, rep) -> None:
    tr.add("report_rows", len(rep.samples))
    tr.add("report_nodes", rep.ns * rep.nt)
    tr.add("report_failed", len(rep.failures))


def _after_write(tr: Tracer, args, result) -> None:
    tr.add("write_bytes", os.path.getsize(args[0]))
    if isinstance(result, tuple):  # write_obj_mesh: (vertices, faces)
        tr.add("write_rows", sum(result))
    elif result is not None:
        tr.add("write_rows", result)


def _after_checks(tr: Tracer, args, summary) -> None:
    for r in summary.results:
        tr.add(f"verify.check.{r.name}.s", r.seconds)


def _eval_points(args) -> int:
    q = args[1]
    return 1 if isinstance(q, float) else int(getattr(q, "size", 1))


# layer -> (defining module, function names, modules that bind them)
_SPANS = {
    "profile_odes.integrate": (
        profile_odes,
        ("integrate_minimal_profile", "integrate_conformal_profile", "integrate_grim_reaper"),
        (commands, surface_factory, verify),
        _after_integrate,
    ),
    "surface_factory.build": (
        surface_factory,
        ("make_horosphere", "make_vertical_plane", "make_minimal_cylinder",
         "make_grim_reaper", "make_conformal_cylinder", "make_generic_first_kind",
         "make_generic_second_kind", "perturb_profile"),
        (commands, verify),
        None,
    ),
    "surface_factory.sample_grid": (surface_factory, ("sample_grid",), (verify,), None),
    "soliton_residuals.report": (
        soliton_residuals, ("residual_report",), (commands, verify), _after_report,
    ),
    "export.write": (
        export,
        ("write_residual_csv", "write_residual_summary", "write_profile_csv",
         "write_profile_events", "write_obj_mesh"),
        (commands,),
        _after_write,
    ),
    # cmd_verify looks run_checks up on the module at call time; the battery
    # times each check itself.
    "verify.run_checks": (verify, ("run_checks",), (), _after_checks),
}

_PER_NODE = {
    "surface_jets.jet": (
        surface_jets, ("first_kind_jet", "second_kind_jet"), (surface_factory, verify),
    ),
    "surface_jets.curvature": (
        surface_jets, ("unit_normal", "mean_curvature"), (soliton_residuals, verify),
    ),
    "lie_halfspace": (
        lie_halfspace,
        ("lie_product", "lie_inverse", "semidirect_product", "semidirect_to_halfspace",
         "rotation_about_vertical"),
        (verify,),
    ),
}


def _rebind(home, name: str, wrapper: Callable, users) -> None:
    original = getattr(home, name)
    for mod in (home, *users):
        if getattr(mod, name, None) is original:
            setattr(mod, name, wrapper)


def install(tr: Tracer) -> None:
    """Wrap every traced layer function at each of its binding sites."""
    for layer, (home, names, users, after) in _SPANS.items():
        for name in names:
            _rebind(home, name, tr.span(layer, getattr(home, name), after), users)
    for layer, (home, names, users) in _PER_NODE.items():
        for name in names:
            _rebind(home, name, tr.per_node(layer, getattr(home, name)), users)
    solution = profile_odes.ProfileSolution
    for name in ("eval_g", "eval_gp", "eval_gpp"):
        setattr(solution, name,
                tr.per_node("profile_odes.eval", getattr(solution, name), _eval_points))
    family = surface_factory.SurfaceFamily
    family.position = tr.per_node("surface_factory.position", family.position)
