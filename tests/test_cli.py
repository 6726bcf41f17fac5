"""End-to-end CLI behavior: formats, exit codes, determinism."""
import dataclasses
import functools
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from solsurf import (
    ConformalProfileParams,
    DomainError,
    GridSpec,
    MinimalProfileParams,
    SolitonMode,
    make_generic_first_kind,
    minimal_halfwidth_quadrature,
    residual_report,
)
from solsurf import commands
from solsurf.cli import main
from solsurf.export import _open_w, fmt, write_obj_mesh, write_residual_summary
from solsurf.profile_odes import _closed_form
from solsurf.soliton_residuals import ResidualReport
from solsurf.surface_factory import MARGIN

ROOT = Path(__file__).resolve().parent.parent
SCI = re.compile(r"^-?\d\.\d{12}e[+-]\d{2,3}$")


def run(tmp_path, *argv):
    return main([a.format(out=tmp_path) if "{out}" in a else a for a in argv])


def test_fmt_has_13_significant_digits():
    assert fmt(math.pi) == "3.141592653590e+00"
    assert SCI.match(fmt(-1234.5))
    assert SCI.match(fmt(0.0))


def test_residual_csv_and_summary(tmp_path):
    out = str(tmp_path / "r")
    rc = main(["residual", "--family", "horosphere", "--a", "1", "--mode",
               "translator", "--grid", "21x21", "--out", out])
    assert rc == 0
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[0] == "s,t,residual"
    assert len(lines) == 1 + 21 * 21
    for cell in lines[1].split(","):
        assert SCI.match(cell), cell
    summary = (tmp_path / "r.summary.txt").read_text().splitlines()
    assert summary[-1].startswith("MAX_ABS=")
    assert float(summary[-1].split("=")[1]) <= 1e-10
    assert "family=horosphere" in summary
    assert "param.a=1.000000000000e+00" in summary
    assert "s_range=-2.000000000000e+00:2.000000000000e+00" in summary
    assert "grid=21x21" in summary


@pytest.mark.parametrize("family,mode,flags", [
    ("horosphere", "translator", ["--a", "0.7"]),
    ("vertical-plane", "minimal", ["--d", "-0.3"]),
    ("vertical-plane", "conformal", ["--d", "-0.3"]),
])
def test_summary_identifies_the_surface(tmp_path, family, mode, flags):
    """These sweeps have equal residual CSVs with and without the flags, but
    the summary names the parameters and ranges, so it tells them apart."""
    summaries = []
    for tag, extra in (("given", flags), ("default", [])):
        out = str(tmp_path / tag)
        assert main(["residual", "--family", family, *extra, "--mode", mode,
                     "--grid", "5x5", "--out", out]) == 0
        summaries.append((tmp_path / f"{tag}.summary.txt").read_text())
    assert summaries[0] != summaries[1]


def test_profile_minimal_run(tmp_path):
    out = str(tmp_path / "p")
    rc = main(["profile", "--ode", "minimal", "--c", "0", "--y0", "1", "--out", out])
    assert rc == 0
    lines = (tmp_path / "p.csv").read_text().splitlines()
    assert lines[0] == "t,g,gp,first_integral_defect"
    t, g, gp, defect = (float(x) for x in lines[-1].split(","))
    # the branch ends at its last node before |g'| reaches M_STOP = 1e6
    assert 1e-3 < g and 1e5 <= abs(gp) < 1e6
    assert abs(defect) <= 1e-8
    events = dict(
        line.split("=", 1) for line in (tmp_path / "p.events.txt").read_text().splitlines()
    )
    assert events["truncated"] == "false"
    assert abs(float(events["right_blowup_t"]) - 0.5990701173677961) <= 1e-6
    assert abs(float(events["left_blowup_t"]) + 0.5990701173677961) <= 1e-6


def test_profile_reaper_constant(tmp_path):
    out = str(tmp_path / "g")
    rc = main(["profile", "--ode", "grim-reaper", "--lambda", "0", "--k", "1",
               "--span", "-10:10", "--out", out])
    assert rc == 0
    rows = (tmp_path / "g.csv").read_text().splitlines()[1:]
    for row in rows:
        _, g, gp, _ = row.split(",")
        assert float(g) == 1.0 and float(gp) == 0.0
    events = (tmp_path / "g.events.txt").read_text()
    assert "left_blowup_t=none" in events and "right_blowup_t=none" in events


def test_mesh_counts_small(tmp_path):
    out = str(tmp_path / "m")
    rc = main(["mesh", "--family", "horosphere", "--a", "2", "--grid", "2x2",
               "--out", out])
    assert rc == 0
    lines = (tmp_path / "m.obj").read_text().splitlines()
    vs = [l for l in lines if l.startswith("v ")]
    fs = [l for l in lines if l.startswith("f ")]
    assert len(vs) == 4 and len(fs) == 2
    # row-major diagonal convention: (0,0)-(1,0)-(1,1) then (0,0)-(1,1)-(0,1)
    assert fs[0] == "f 1 3 4" and fs[1] == "f 1 4 2"


def test_mesh_counts_cylinder(tmp_path):
    out = str(tmp_path / "mc")
    rc = main(["mesh", "--family", "minimal-cylinder", "--c", "0", "--y0", "1",
               "--grid", "51x51", "--out", out])
    assert rc == 0
    lines = (tmp_path / "mc.obj").read_text().splitlines()
    vs = [l for l in lines if l.startswith("v ")]
    fs = [l for l in lines if l.startswith("f ")]
    assert len(vs) == 51 * 51 == 2601
    assert len(fs) == 2 * 50 * 50 == 5000
    assert all(float(v.split()[3]) > 0.0 for v in vs)


def test_mesh_refuses_failed_nodes(tmp_path):
    # g(t) = t fails at t <= 0: 9 of the 15 nodes; no partial file is left
    fam = make_generic_first_kind(
        lambda s: (0.0, 0.0, 0.0), lambda t: (t, 1.0, 0.0), (-1.0, 1.0), (-1.0, 1.0)
    )
    with pytest.raises(DomainError, match="9 mesh node"):
        write_obj_mesh(tmp_path / "m.obj", fam, GridSpec(3, 5))
    assert not (tmp_path / "m.obj").exists()


def test_mesh_refuses_a_grid_whose_every_node_fails(tmp_path):
    """Every ``t`` node fails, so ``sample_grid`` returns an empty ``t``
    axis; the writer still refuses all 9 nodes before opening the file."""
    fam = make_generic_first_kind(
        lambda s: (0.0, 0.0, 0.0), lambda t: (-1.0, 0.0, 0.0), (-1.0, 1.0), (-1.0, 1.0)
    )
    with pytest.raises(DomainError, match="9 mesh node"):
        write_obj_mesh(tmp_path / "m.obj", fam, GridSpec(3, 3))
    assert not (tmp_path / "m.obj").exists()


def test_summary_formats_before_it_opens(tmp_path):
    """A parameter that does not format raises and leaves no summary file."""
    fam = dataclasses.replace(make_generic_first_kind(
        lambda s: (0.0, 0.0, 0.0), lambda t: (2.0 + t, 1.0, 0.0), (-1.0, 1.0), (-1.0, 1.0),
    ), params={"note": "flat"})
    rep = residual_report(fam, SolitonMode.MINIMAL, GridSpec(3, 3))
    with pytest.raises(ValueError, match="flat"):
        write_residual_summary(tmp_path / "r.summary.txt", rep)
    assert not (tmp_path / "r.summary.txt").exists()


def test_a_residual_run_scans_its_grid_once(tmp_path, monkeypatch, capsys):
    """One ``residual`` run scans its report's grid for finite values once:
    the summary and the printed ``MAX_ABS=`` line read the count, mean and
    max the report keeps, three numbers and no grid-sized array, and the
    printed line is the summary's last, byte for byte."""
    scans, scan = [], ResidualReport._stats.func

    def counted(rep):
        scans.append(rep)
        return scan(rep)

    stats = functools.cached_property(counted)
    stats.__set_name__(ResidualReport, "_stats")
    monkeypatch.setattr(ResidualReport, "_stats", stats)
    assert run(tmp_path, "residual", "--family", "minimal-cylinder", "--mode", "minimal",
               "--grid", "31x21", "--out", "{out}/r") == 0
    (rep,) = scans
    assert rep.r.shape == (31, 21)
    assert [type(x) for x in rep.__dict__["_stats"]] == [int, float, float]
    summary = (tmp_path / "r.summary.txt").read_bytes().splitlines()
    assert capsys.readouterr().out.encode().splitlines()[-1] == summary[-1]


def test_text_outputs_reach_the_os_in_64_kib_writes(tmp_path):
    """Every text output buffers 64 KiB: five lines of 11,700 characters, a
    201-node residual CSV row's size, stay in the process until close, which
    writes all 58,500."""
    path, line = tmp_path / "out.txt", "x" * 11_699 + "\n"
    with _open_w(path) as fh:
        for _ in range(5):
            fh.write(line)
            assert path.stat().st_size == 0
    assert path.read_text() == line * 5


def test_underscore_family_alias(tmp_path):
    out = str(tmp_path / "alias")
    rc = main(["mesh", "--family", "minimal_cylinder", "--c", "0", "--y0", "1",
               "--grid", "3x3", "--out", out])
    assert rc == 0


def test_mesh_determinism(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    argv = ["mesh", "--family", "grim-reaper", "--lambda", "0.5", "--grid", "9x9"]
    assert main(argv + ["--out", a]) == 0
    assert main(argv + ["--out", b]) == 0
    assert (tmp_path / "a.obj").read_bytes() == (tmp_path / "b.obj").read_bytes()


def test_profile_determinism(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    argv = ["profile", "--ode", "conformal", "--a", "0", "--y0", "1"]
    assert main(argv + ["--out", a]) == 0
    assert main(argv + ["--out", b]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.events.txt").read_bytes() == (tmp_path / "b.events.txt").read_bytes()


# argv (joined) -> what its refusal must say: the parameter and its value,
# or for a flag the family does not take, the flags it does.
REFUSALS = {
    "residual --family grim-reaper --a 0.2 --mode translator":
        "grim-reaper does not take --a; it takes --b, --lambda, --span, --s-range",
    "residual --family vertical-plane --b 0.2 --mode minimal":
        "vertical-plane does not take --b; it takes --c, --d, --s-range, --t-range",
    "residual --family horosphere --mode minimal --grid 3x3 --s-range=-1e308:1e308":
        "s_range must be a finite increasing pair with a finite width, got (-1e+308, 1e+308)",
    "residual --family horosphere --mode minimal --grid 3x3 --t-range=-1e308:1e308":
        "t_range must be a finite increasing pair with a finite width, got (-1e+308, 1e+308)",
    "profile --ode grim-reaper --lambda inf": "initial slope lam must be nonnegative "
                                              "with a finite square, got inf",
    "profile --ode grim-reaper --k inf": "k must be positive and finite, got inf",
    "profile --ode grim-reaper --lambda 1e200": "initial slope lam must be nonnegative "
                                                "with a finite square, got 1e+200",
    "residual --family vertical-plane --c 1e160 --mode minimal --grid 3x3":
        "no grid node of 'vertical_plane' has a finite residual (9 failures), first (s, t, "
        "reason): (-2.0, 0.5, 'residual is not finite: nan')",
    "residual --family vertical-plane --c 1e160 --mode conformal":
        "no grid node of 'vertical_plane' has a finite residual",
    # the family derives k = 1/(b^2 + 1) and takes no --k, so it names --b's keyword
    "residual --family grim-reaper --b inf --mode translator":
        "b_slope must have a finite square, got inf",
    "residual --family grim-reaper --b 1e200 --mode translator":
        "b_slope must have a finite square, got 1e+200",
    "residual --family grim-reaper --b nan --mode translator":
        "b_slope must have a finite square, got nan",
    # the margin and the stops are fixed, so argparse refuses their flags
    "residual --family horosphere --mode minimal --grid 3x3 --margin 0.3":
        "unrecognized arguments: --margin 0.3",
    "mesh --family vertical-plane --grid 3x3 --margin 0": "unrecognized arguments: --margin 0",
    "residual --family grim-reaper --mode translator --grid 3x3 --margin 1e-3":
        "unrecognized arguments: --margin 1e-3",
    "profile --ode minimal --m-stop -1": "unrecognized arguments: --m-stop -1",
    "profile --ode conformal --m-stop nan": "unrecognized arguments: --m-stop nan",
    "profile --ode minimal --eps-g -1": "unrecognized arguments: --eps-g -1",
    "profile --ode grim-reaper --eps-g nan": "unrecognized arguments: --eps-g nan",
    "profile --ode minimal --y0 1e-6":
        "at initial height y0 = 1e-06 the first step from t = 0 already "
        "reaches a stop (g <= EPS_G = 1e-06 or |g'| >= M_STOP = 1000000.0)",
    "profile --ode minimal --y0 1.0000000000000002e-6":
        "at initial height y0 = 1.0000000000000002e-06 the first step from t = 0 already "
        "reaches a stop (g <= EPS_G = 1e-06 or |g'| >= M_STOP = 1000000.0)",
    "profile --ode minimal --y0 2e-6 --c 1e150": "first-integral constant m = 1.5e-323 is "
                                                 "not a finite, normal, positive float",
    "profile --ode grim-reaper --span=0:inf": "span must be finite, got (0.0, inf)",
    "mesh --family grim-reaper --span=-inf:0": "span must be finite, got (-inf, 0.0)",
    "profile --ode grim-reaper --span 0:0": "span must be increasing, got (0.0, 0.0)",
    # an interval flag is two numbers joined by one colon
    "profile --ode grim-reaper --span 1": "--span must look like LO:HI, got '1'",
    "profile --ode grim-reaper --span a:b": "--span must be numeric LO:HI, got 'a:b'",
    # a collapsing family takes every y0 whose first-integral constant is normal
    "residual --family minimal-cylinder --y0 1e-80 --mode minimal --grid 3x3":
        "first-integral constant m = 1e-320 is not a finite, normal, positive float",
    # a truncated profile would clip the family's t_range without a word
    "residual --family grim-reaper --lambda 1e30 --mode translator --grid 5x5":
        "the grim_reaper profile is truncated: its nodes reach only t in "
        "[-3.2894581336928356e-25, 5.0]",
    "residual --family grim-reaper --lambda 1e100 --mode translator --grid 5x5":
        "the grim_reaper profile is truncated: its nodes reach only t in "
        "[-3.289458083752093e-95, 5.0]",
    "residual --family minimal-cylinder --c 1e160 --mode minimal --grid 3x3":
        "first-integral constant m = 0.0 is not a finite, normal, positive float",
    "residual --family conformal-cylinder --a 1e160 --mode conformal":
        "first-integral constant C = 0.0 is not a finite, normal, positive float",
    "residual --family grim-reaper --b 1e160 --lambda 1e-30 --mode translator --grid 3x3":
        "b_slope must have a finite square, got 1e+160",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["residual", "--family", "horosphere", "--a", "-1", "--mode", "translator"],
        ["residual", "--family", "nosuch", "--mode", "minimal"],
        ["residual", "--family", "horosphere", "--a", "1", "--mode", "nosuch"],
        ["residual", "--family", "horosphere", "--a", "1", "--mode", "minimal",
         "--grid", "oops"],
        ["mesh", "--family", "minimal-cylinder", "--k", "2"],
        ["mesh", "--family", "minimal-cylinder", "--t-range", "0:1"],
        ["profile", "--ode", "grim-reaper", "--span", "1:5"],
        ["profile", "--ode", "nosuch"],
        ["verify", "--only", "zzz-no-match"],
        # a flag the family or ODE does not take
        ["residual", "--family", "horosphere", "--lambda", "7", "--mode", "minimal"],
        ["residual", "--family", "vertical-plane", "--span", "-1:1", "--mode", "minimal"],
        ["residual", "--family", "vertical-plane", "--b", "0.2", "--mode", "minimal"],
        ["mesh", "--family", "minimal-cylinder", "--b", "3"],
        ["profile", "--ode", "grim-reaper", "--m-stop", "5"],  # no CLI takes it now
        ["profile", "--ode", "conformal", "--c", "9"],
        ["profile", "--ode", "minimal", "--span", "-3:3"],
        # above the grid-node cap; refused before anything is allocated
        ["residual", "--family", "horosphere", "--mode", "minimal", "--grid", "2x100000000"],
        # --d moves only the surface's f, never the profile ODE
        ["profile", "--ode", "minimal", "--d", "0.4"],
        # y0 whose first-integral constant overflows, underflows or is not finite
        ["profile", "--ode", "minimal", "--y0", "1e300"],
        ["residual", "--family", "conformal-cylinder", "--y0", "1e300", "--mode", "minimal"],
        ["profile", "--ode", "conformal", "--y0", "1e-300"],
        ["profile", "--ode", "minimal", "--y0", "inf"],
        ["profile", "--ode", "minimal", "--y0", "1e-300"],
        # the stops are fixed: --m-stop and --eps-g are unrecognized, whatever their value
        ["profile", "--ode", "minimal", "--m-stop", "-1"],
        ["profile", "--ode", "conformal", "--m-stop", "nan"],
        ["profile", "--ode", "minimal", "--eps-g", "-1"],
        ["profile", "--ode", "grim-reaper", "--eps-g", "nan"],
        # y0 at or below the height stop EPS_G = 1e-6 (1e-80 already has a subnormal m)
        ["profile", "--ode", "minimal", "--y0", "1e-80"],
        # at EPS_G and the float above it the first step reaches a stop, leaving no node
        # past t = 0
        ["profile", "--ode", "minimal", "--y0", "1e-6"],
        ["profile", "--ode", "minimal", "--y0", "1.0000000000000002e-6"],
        # y0 above the height stop, but m = 1.5e-323 is subnormal
        ["profile", "--ode", "minimal", "--y0", "2e-6", "--c", "1e150"],
        # the grim-reaper surface takes no profile shift
        ["residual", "--family", "grim-reaper", "--a", "0.2", "--mode", "translator"],
        # finite ends whose width overflows
        ["residual", "--family", "horosphere", "--mode", "minimal", "--grid", "3x3",
         "--s-range=-1e308:1e308"],
        ["residual", "--family", "horosphere", "--mode", "minimal", "--grid", "3x3",
         "--t-range=-1e308:1e308"],
        # reaper parameters the right-hand side cannot evaluate
        ["profile", "--ode", "grim-reaper", "--lambda", "inf"],
        ["profile", "--ode", "grim-reaper", "--k", "inf"],
        ["profile", "--ode", "grim-reaper", "--lambda", "1e200"],
        # fundamental forms that overflow at every node: no residual is finite
        ["residual", "--family", "vertical-plane", "--c", "1e160", "--mode", "minimal",
         "--grid", "3x3"],
        ["residual", "--family", "vertical-plane", "--c", "1e160", "--mode", "conformal"],
        # a drift slope past the steep-shear sweep underflows the first-integral constant
        ["residual", "--family", "minimal-cylinder", "--c", "1e160", "--mode", "minimal",
         "--grid", "3x3"],
        ["residual", "--family", "conformal-cylinder", "--a", "1e160", "--mode", "conformal"],
        # a reaper slope whose square overflows leaves no positive k
        ["residual", "--family", "grim-reaper", "--b", "inf", "--mode", "translator"],
        ["residual", "--family", "grim-reaper", "--b", "1e200", "--mode", "translator"],
        ["residual", "--family", "grim-reaper", "--b", "nan", "--mode", "translator"],
        # the margin is fixed: --margin is unrecognized on every family
        ["residual", "--family", "horosphere", "--mode", "minimal", "--grid", "3x3",
         "--margin", "0.3"],
        ["mesh", "--family", "vertical-plane", "--grid", "3x3", "--margin", "0"],
        ["residual", "--family", "grim-reaper", "--mode", "translator", "--grid", "3x3",
         "--margin", "1e-3"],
        # an axis jet that is not finite fails its nodes, with no numpy warning
        ["residual", "--family", "vertical-plane", "--c", "inf", "--mode", "minimal"],
        ["mesh", "--family", "vertical-plane", "--c", "inf"],
        # a reaper span with an infinite end would step until its budget ran out
        ["profile", "--ode", "grim-reaper", "--span=0:inf"],
        ["mesh", "--family", "grim-reaper", "--span=-inf:0"],
        # the steep reaper slope past the steep-shear sweep: its square overflows
        ["residual", "--family", "grim-reaper", "--b", "1e160", "--lambda", "1e-30", "--mode",
         "translator", "--grid", "3x3"],
        # a collapsing family's y0 whose first-integral constant m = 1e-320 is subnormal
        ["residual", "--family", "minimal-cylinder", "--y0", "1e-80", "--mode", "minimal",
         "--grid", "3x3"],
        # truncated reaper profiles: the height stop (lambda)
        ["residual", "--family", "grim-reaper", "--lambda", "1e30", "--mode", "translator",
         "--grid", "5x5"],
        ["residual", "--family", "grim-reaper", "--lambda", "1e100", "--mode", "translator",
         "--grid", "5x5"],
        # an empty reaper span is refused as not increasing, not as missing 0
        ["profile", "--ode", "grim-reaper", "--span", "0:0"],
        # an interval flag that is not two numbers joined by one colon
        ["profile", "--ode", "grim-reaper", "--span", "1"],
        ["profile", "--ode", "grim-reaper", "--span", "a:b"],
    ],
)
def test_parameter_errors_exit_2(tmp_path, argv, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    message = REFUSALS.get(" ".join(argv))
    assert message is None or message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["residual", "--family", "minimal-cylinder", "--c", "1e100", "--mode", "minimal",
         "--grid", "3x3"],
        ["residual", "--family", "conformal-cylinder", "--a", "1e100", "--mode", "conformal"],
        ["residual", "--family", "grim-reaper", "--b", "1e100", "--lambda", "1e-30", "--mode",
         "translator", "--grid", "3x3"],
        ["residual", "--family", "minimal-cylinder", "--c", "1e110", "--mode", "minimal",
         "--grid", "3x3"],
        ["residual", "--family", "conformal-cylinder", "--a", "1e110", "--mode", "conformal",
         "--grid", "3x3"],
    ],
)
def test_exact_solutions_at_steep_shear_sweep(tmp_path, argv, monkeypatch):
    """Exact solutions whose drift slope is 1e100 or 1e110 sweep every node
    to a rounding-level residual, with no numpy warning: the mean curvature
    divides by ``|Xs x Xt|^2``, a sum of squares, where ``E*G - F^2`` would
    cancel (to 0 for the reaper), and the collapsing profile's ``g''``
    divides by ``D`` three times, where ``D^3`` would overflow at
    ``D ~ 1e110``."""
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--out", "r"]) == 0
    summary = dict(line.split("=", 1) for line in (tmp_path / "r.summary.txt").read_text().split())
    assert summary["failures"] == "0" and float(summary["MAX_ABS"]) <= 1e-15


@pytest.mark.parametrize(
    "argv",
    [
        ["residual", "--family", "vertical-plane", "--d", "1e308", "--mode", "translator",
         "--grid", "3x3"],
        ["residual", "--family", "minimal-cylinder", "--d", "1e308", "--mode", "translator",
         "--grid", "5x5"],
        ["residual", "--family", "horosphere", "--a", "1e308", "--mode", "conformal",
         "--grid", "5x5"],
    ],
)
def test_summary_mean_of_residuals_near_the_float_max(tmp_path, argv, monkeypatch):
    """Residuals near 1e308 whose sum would overflow give a finite summary
    mean, no larger than the max, with no numpy warning: the mean is taken
    of ``|r|`` scaled down by an exact power of two and scaled back."""
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--out", "r"]) == 0
    summary = dict(line.split("=", 1) for line in (tmp_path / "r.summary.txt").read_text().split())
    mean, top = float(summary["mean_abs"]), float(summary["MAX_ABS"])
    assert summary["failures"] == "0" and 1e307 < mean <= top < math.inf, summary


@pytest.mark.parametrize("span", ["0:1e-300", "-1e-300:1e-300", "0:5e-324"])
def test_reaper_on_a_tiny_span_sweeps_every_node(tmp_path, span, monkeypatch):
    """A reaper span however short, down to node gaps of one ulp and a span
    of one subnormal, gives a finite profile interpolant, so every node of
    the sweep is kept."""
    monkeypatch.chdir(tmp_path)
    assert main(["residual", "--family", "grim-reaper", "--span", span,
                 "--mode", "translator"]) == 0
    summary = dict(line.split("=", 1) for line in
                   (tmp_path / "residual_grim_reaper_translator.summary.txt").read_text().split())
    ns, nt = map(int, summary["grid"].split("x"))
    assert summary["failures"] == "0" and int(summary["nodes"]) == ns * nt
    assert math.isfinite(float(summary["MAX_ABS"]))


@pytest.mark.parametrize("family", ["minimal-cylinder", "conformal-cylinder"])
def test_margin_clips_a_collapsing_family(tmp_path, family):
    """Where the profile collapses, the summary's t_range is the collapse
    interval ``[-r, r]`` less MARGIN of its span per side, ``r`` the closed
    form's half-width, and it is the extent the CSV samples: its first and
    last t."""
    out = str(tmp_path / "r")
    assert main(["residual", "--family", family, "--mode", "minimal", "--grid", "3x3",
                 "--out", out]) == 0
    summary = (tmp_path / "r.summary.txt").read_text().splitlines()
    assert not [line for line in summary if line.startswith("margin=")]
    p = MinimalProfileParams() if family == "minimal-cylinder" else ConformalProfileParams()
    hi = _closed_form(p)[0] * (1.0 - 2.0 * MARGIN)
    assert f"t_range={fmt(-hi)}:{fmt(hi)}" in summary
    rows = (tmp_path / "r.csv").read_text().splitlines()
    assert (rows[1].split(",")[1], rows[-1].split(",")[1]) == (fmt(-hi), fmt(hi))


@pytest.mark.parametrize("flags, c, y0", [(["--c", "1e4"], 1e4, 1.0),
                                          (["--y0", "1e-6"], 0.0, 1e-6)], ids=["c1e4", "y0-1e-6"])
def test_collapsing_family_sweeps_where_the_stepper_stops(tmp_path, flags, c, y0):
    """The minimal cylinder reads its profile in closed form, so neither a
    slope too steep for the stepper (it ends at its step floor at c = 1e4)
    nor a y0 at the stepper's height stop EPS_G = 1e-6 (``profile`` refuses
    it) keeps it from sweeping: the residual is within verify's 1e-6 and the
    t range is ``+-r*(1 - 2*MARGIN)``, ``r`` the closed form's half-width,
    within 2 ulp of the Beta-function value."""
    out = str(tmp_path / "r")
    assert main(["residual", "--family", "minimal-cylinder", *flags, "--mode", "minimal",
                 "--grid", "3x3", "--out", out]) == 0
    summary = dict(line.split("=", 1) for line in (tmp_path / "r.summary.txt").read_text().split())
    assert summary["failures"] == "0" and float(summary["MAX_ABS"]) <= 1e-6
    r, want = _closed_form(MinimalProfileParams(c, y0))[0], minimal_halfwidth_quadrature(c, y0)
    assert abs(r - want) <= 2.0 * math.ulp(want)
    hi = r * (1.0 - 2.0 * MARGIN)
    assert summary["t_range"] == f"{fmt(-hi)}:{fmt(hi)}"


@pytest.mark.parametrize(
    "argv",
    [
        ["residual", "--family", "vertical-plane", "--c", "1e160", "--mode", "minimal",
         "--grid", "3x3"],
        # X3^2 overflows too, so the height term takes its other grouping
        ["residual", "--family", "vertical-plane", "--c", "1e160", "--t-range", "1e200:1e201",
         "--mode", "conformal"],
    ],
)
def test_overflowing_sweep_fails_without_runtime_warnings(tmp_path, argv, monkeypatch, capsys):
    """Each node whose fundamental forms overflow fails with its own reason,
    so numpy's overflow warnings add nothing and are not printed."""
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "has a finite residual" in err and "no grid node of" in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("a, mode, max_abs", [("1e155", "translator", "0.000000000000e+00"),
                                              ("1e300", "conformal", "1.000000000000e+300")])
def test_horosphere_sweeps_where_its_height_squared_overflows(tmp_path, a, mode, max_abs):
    """A horosphere at height ``a`` is a translator, and its conformal
    residual is ``±(a + 1)``: where ``X3^2`` overflows, the height term is
    ``X3*(X3*H)``, so every node is finite, with no numpy warning."""
    assert main(["residual", "--family", "horosphere", "--a", a, "--mode", mode,
                 "--out", str(tmp_path / "r")]) == 0
    summary = dict(line.split("=", 1) for line in (tmp_path / "r.summary.txt").read_text().split())
    assert (summary["failures"], summary["MAX_ABS"]) == ("0", max_abs)


# For every flag of commands.ODES and commands.FAMILIES, a value that takes
# effect: the profile files, or the mesh on a 3x3 grid, differ in their
# numbers from those written with no flags.
FLAG_VALUES = {
    ("profile", "minimal"): {"--c": "0.8", "--y0": "1.3"},
    ("profile", "grim-reaper"): {"--lambda": "1.5", "--k": "0.7", "--span": "-4:6"},
    ("profile", "conformal"): {"--a": "0.6", "--y0": "0.9"},
    ("mesh", "horosphere"): {"--a": "0.7", "--s-range": "-1:1", "--t-range": "-1:1"},
    ("mesh", "vertical-plane"): {"--c": "0.5", "--d": "-0.5", "--s-range": "-1:1",
                                 "--t-range": "1:2"},
    ("mesh", "minimal-cylinder"): {"--c": "0.5", "--d": "0.3", "--y0": "1.3",
                                   "--s-range": "-1:1"},
    ("mesh", "grim-reaper"): {"--b": "0.5", "--lambda": "1.5", "--span": "-4:6",
                              "--s-range": "-1:1"},
    ("mesh", "conformal-cylinder"): {"--a": "0.3", "--y0": "0.9", "--s-range": "-1:1"},
}


def _taken_flags():
    for cmd, table in (("profile", commands.ODES), ("mesh", commands.FAMILIES)):
        for name, (_, flags) in table.items():
            for flag in flags:
                yield cmd, name, flag


def _moved(a: str, b: str) -> bool:
    """Whether token ``b`` differs from ``a``: as numbers, by more than 1e-9
    relative (absolute below 1); otherwise in any character."""
    if a == b:
        return False
    try:
        return not math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)
    except ValueError:
        return True


@pytest.mark.parametrize("cmd,name,flag", list(_taken_flags()))
def test_every_flag_changes_the_output(tmp_path, cmd, name, flag):
    """A flag a command accepts must change what it writes: the number of
    rows, or some value by more than rounding.  Bytes alone are not enough:
    a flag that only relabels the same numbers moves a last bit somewhere."""
    choice, extra = ("--ode", []) if cmd == "profile" else ("--family", ["--grid", "3x3"])

    def written(tag, *flags):
        out = str(tmp_path / tag)
        assert main([cmd, choice, name, *flags, *extra, "--out", out]) == 0
        return [re.split(r"[\s,=]+", line) for p in sorted(tmp_path.glob(f"{tag}.*"))
                for line in p.read_text().splitlines()]

    given, default = written("given", flag, FLAG_VALUES[cmd, name][flag]), written("default")
    assert len(given) != len(default) or any(
        len(g) != len(d) or any(map(_moved, g, d)) for g, d in zip(given, default))


@pytest.mark.parametrize("cmd", [["profile", "--ode", "grim-reaper"],
                                 ["residual", "--family", "grim-reaper", "--mode", "translator"]])
def test_reaper_with_no_accepted_step_names_the_cause(tmp_path, cmd, monkeypatch, capsys):
    """At lambda = 1e154 the slope squares to a finite 1e308 but no step from
    t = 0 is accepted; the refusal says so, not that the solution is short."""
    monkeypatch.chdir(tmp_path)
    assert main(cmd + ["--lambda", "1e154"]) == 2
    err = capsys.readouterr().err
    assert "no step from t = 0 was accepted at lambda = 1e+154" in err
    assert "at least two nodes" not in err


def test_refusal_names_flag_as_typed(capsys):
    argv = ["residual", "--family", "horosphere", "--lambda", "7", "--mode", "minimal"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--lambda" in err and "--lam " not in err


def test_missing_required_flag_exits_2():
    assert main(["residual", "--family", "horosphere"]) == 2  # no --mode
    assert main([]) == 2  # no subcommand


@pytest.mark.parametrize("cmd,flag,value", [
    (["profile", "--ode", "minimal"], "--c", "-1e-3"),
    (["profile", "--ode", "conformal"], "--a", "-5."),
    (["mesh", "--family", "conformal-cylinder", "--grid", "3x3"], "--a", "-5."),
    (["profile", "--ode", "grim-reaper"], "--span", "-1e1:1e1"),
    (["residual", "--family", "vertical-plane", "--mode", "minimal", "--grid", "3x3"],
     "--c", "-1e-3"),
])
def test_signed_value_in_either_form_writes_the_same_bytes(tmp_path, cmd, flag, value):
    """A value that leads with a minus and that argparse alone reads as an
    option (``-1e-3``, ``-5.``) writes the same bytes as a second token as
    after ``=``."""
    assert main([*cmd, flag, value, "--out", str(tmp_path / "two")]) == 0
    assert main([*cmd, f"{flag}={value}", "--out", str(tmp_path / "eq")]) == 0
    suffixes = [p.name[3:] for p in tmp_path.glob("two.*")]
    assert suffixes and sorted(suffixes) == sorted(p.name[2:] for p in tmp_path.glob("eq.*"))
    for suffix in suffixes:
        assert (tmp_path / f"two{suffix}").read_bytes() == (tmp_path / f"eq{suffix}").read_bytes()


def test_signed_value_in_either_form_is_refused_alike(capsys):
    cmd = ["residual", "--family", "grim-reaper", "--mode", "translator"]
    assert main(cmd + ["--b", "-inf"]) == 2
    two = capsys.readouterr().err
    assert main(cmd + ["--b=-inf"]) == 2
    assert two == capsys.readouterr().err == "error: b_slope must have a finite square, got -inf\n"


@pytest.mark.parametrize("argv", [
    ["residual", "--family", "grim-reaper", "--mode", "translator", "--lam", "0.5"],
    ["profile", "--ode", "minimal", "--y", "2"],
    ["mesh", "--family", "horosphere", "--grid", "3x3", "--fam", "horosphere"],
])
def test_a_flag_has_only_its_full_spelling(tmp_path, argv, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["residual", "--family", "horosphere"],  # no --mode
    [],  # no subcommand
    ["residual", "--family", "nosuch", "--mode", "minimal"],
    ["profile", "--ode", "minimal", "--c", "abc"],
    ["profile", "--ode", "minimal", "--c", "--y0", "1"],
    ["profile", "--ode", "minimal", "--m-stop", "-1"],
])
def test_a_usage_error_is_one_error_line(argv, capsys):
    """argparse's refusals print as every other exit 2 does: one stderr line
    and no usage block."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv,message", [
    (["residual", "--family", "grim-reaper", "--lambda", "1e30", "--mode", "translator",
      "--grid", "oops"], "error: grid must look like 51x51, got 'oops'\n"),
    (["mesh", "--family", "grim-reaper", "--lambda", "1e30", "--grid", "2x100000000"],
     "error: grid 2x100000000 has 200000000 nodes, more than the cap of 1048576\n"),
    (["residual", "--family", "grim-reaper", "--lambda", "1e30", "--mode", "translator",
      "--grid", "2x8193"], "error: grid 2x8193 has an axis of more than 8192 nodes\n"),
])
def test_the_grid_is_refused_before_the_family_is_built(tmp_path, argv, message, monkeypatch,
                                                         capsys):
    """With a truncated reaper and a bad grid, the grid is refused: it is
    parsed before the profile is integrated."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == message


def test_io_error_exits_3(tmp_path):
    rc = main(["mesh", "--family", "horosphere", "--a", "1", "--grid", "2x2",
               "--out", str(tmp_path / "no" / "such" / "dir" / "x")])
    assert rc == 3


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "residual" in capsys.readouterr().out


def _first_call(cwd, argv):
    """Exit code, stdout and stderr of ``main(argv)`` as the first call of a
    fresh process."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from solsurf.cli import main; "
            "sys.exit(main(sys.argv[2:]))")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), *argv],
                          cwd=cwd, env={**os.environ, "COLUMNS": "80"},
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_one_process_calls_main_many_times(tmp_path, monkeypatch, capsys):
    """Nothing of one call leaks into the next: a flag given once is back at
    its default, and a usage error, ``--help`` and a valid run each answer
    as the first call of a fresh process does."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    argv = ["residual", "--family", "horosphere", "--grid", "3x3", "--mode", "minimal"]
    assert main(argv[:3] + ["--a", "0.7"] + argv[3:] + ["--out", "a07"]) == 0
    assert main(argv + ["--out", "a1"]) == 0
    assert "param.a=7.000000000000e-01" in Path("a07.summary.txt").read_text().splitlines()
    assert "param.a=1.000000000000e+00" in Path("a1.summary.txt").read_text().splitlines()
    capsys.readouterr()
    (tmp_path / "fresh").mkdir()
    for case, code in ((["residual", "--family", "horosphere", "--grid", "3x3"], 2),  # no --mode
                       (["--help"], 0),
                       (argv + ["--out", "r"], 0)):
        rc = main(case)
        out, err = capsys.readouterr()
        assert rc == code
        assert (rc, out, err) == _first_call(tmp_path / "fresh", case)
    for suffix in (".csv", ".summary.txt"):
        assert Path("r" + suffix).read_bytes() == (tmp_path / "fresh" / ("r" + suffix)).read_bytes()


def test_verify_only_filter(capsys):
    rc = main(["verify", "--only", "lie"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lie.group_laws" in out
    assert "ALL CHECKS PASSED" in out
    assert "horosphere" not in out


SWEEP_VALUES = ("inf", "-inf", "nan", "0", "-1", "1e300", "-1e300")


def _swept_argv(cmd):
    """Every flag of the command's table with every value of SWEEP_VALUES; an
    interval flag takes the value as one end, the other end at 0.  A
    ``--span`` end at +-1e300 steps the reaper ~37k nodes out, until ``w``
    overflows to -inf and no further step succeeds (~0.4 s a run), so it is
    left out; an end at +-inf is refused."""
    choice, table, extra = {
        "residual": ("--family", commands.FAMILIES, ["--grid", "5x5"]),
        "mesh": ("--family", commands.FAMILIES, ["--grid", "5x5"]),
        "profile": ("--ode", commands.ODES, []),
    }[cmd]
    intervals = commands.table_flags(table)
    long_spans = {"1e300", "-1e300"}
    modes = [m.value for m in SolitonMode]
    k = 0
    for name, (_, flags) in table.items():
        for flag in flags:
            for v in SWEEP_VALUES:
                if flag == "--span" and v in long_spans:
                    continue
                value = (f"{v}:0" if v.startswith("-") else f"0:{v}") if intervals[flag] else v
                mode = ["--mode", modes[k % len(modes)]] if cmd == "residual" else []
                k += 1
                yield [cmd, choice, name, f"{flag}={value}", *mode, *extra, "--out", "o"]


@pytest.mark.parametrize("cmd", ["residual", "mesh", "profile"])
def test_input_sweep_exits_0_or_2_without_warnings(tmp_path, cmd, monkeypatch, capsys):
    """Each flag at a non-finite, zero, negative or huge value either runs
    or is refused with exit 2, and numpy prints no RuntimeWarning."""
    monkeypatch.chdir(tmp_path)
    bad = []
    for argv in _swept_argv(cmd):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        warned = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        if rc not in (0, 2) or warned:
            bad.append((" ".join(argv), rc, warned))
    capsys.readouterr()
    assert not bad
