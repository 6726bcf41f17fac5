"""End-to-end CLI behavior: formats, exit codes, determinism."""
import math
import re
import warnings

import pytest

from solsurf import (
    DomainError,
    GridSpec,
    SolitonMode,
    make_generic_first_kind,
    residual_report,
)
from solsurf import commands
from solsurf.cli import main
from solsurf.export import fmt, write_obj_mesh, write_residual_summary

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
    ("vertical-plane", "minimal", ["--d", "-0.5", "--b", "0.2"]),
    ("vertical-plane", "conformal", ["--d", "-0.5", "--b", "0.2"]),
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
    assert g <= 1.001e-3 and abs(gp) >= 1e3
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
        write_obj_mesh(tmp_path / "m.obj", fam, GridSpec(3, 5, margin=0.0))
    assert not (tmp_path / "m.obj").exists()


def test_summary_formats_before_it_opens(tmp_path):
    """A parameter that does not format raises and leaves no summary file."""
    fam = make_generic_first_kind(
        lambda s: (0.0, 0.0, 0.0), lambda t: (2.0 + t, 1.0, 0.0), (-1.0, 1.0), (-1.0, 1.0),
        params={"note": "flat"},
    )
    rep = residual_report(fam, SolitonMode.MINIMAL, GridSpec(3, 3))
    with pytest.raises(ValueError, match="flat"):
        write_residual_summary(tmp_path / "r.summary.txt", rep)
    assert not (tmp_path / "r.summary.txt").exists()


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
    "residual --family horosphere --a 1e300 --mode conformal":
        "no grid node of 'horosphere' has a finite residual",
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
        ["mesh", "--family", "minimal-cylinder", "--b", "3"],
        ["profile", "--ode", "grim-reaper", "--m-stop", "5"],
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
        # stops that cannot stop a branch: m_stop <= 0 or NaN, eps_g < 0 or NaN
        ["profile", "--ode", "minimal", "--m-stop", "-1"],
        ["profile", "--ode", "conformal", "--m-stop", "nan"],
        ["profile", "--ode", "minimal", "--eps-g", "-1"],
        ["profile", "--ode", "grim-reaper", "--eps-g", "nan"],
        # y0 at or below the height stop eps_g = 1e-6
        ["profile", "--ode", "minimal", "--y0", "1e-80"],
        ["profile", "--ode", "minimal", "--y0", "1e-6"],
        # no height stop, and m = 1e-320 is subnormal
        ["profile", "--ode", "minimal", "--y0", "1e-80", "--eps-g", "0"],
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
        ["residual", "--family", "horosphere", "--a", "1e300", "--mode", "conformal"],
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
        ["residual", "--family", "vertical-plane", "--c", "1e160", "--mode", "minimal",
         "--grid", "3x3"],
        ["residual", "--family", "horosphere", "--a", "1e300", "--mode", "conformal"],
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


# For every flag of commands.ODES and commands.FAMILIES, a value that takes
# effect: the profile files, or the mesh on a 3x3 grid, differ in their
# numbers from those written with no flags.  The value must clear whatever
# else would decide the output: a conformal --eps-g of 1e-3 writes the
# default bytes, because the speed stop ends each branch first, but 0.5 does
# not.
FLAG_VALUES = {
    ("profile", "minimal"): {"--c": "0.8", "--y0": "1.3", "--eps-g": "0.5", "--m-stop": "1e3"},
    ("profile", "grim-reaper"): {"--lambda": "1.5", "--k": "0.7", "--span": "-4:6",
                                 "--eps-g": "0.9"},
    ("profile", "conformal"): {"--a": "0.6", "--y0": "0.9", "--eps-g": "0.5", "--m-stop": "1e3"},
    ("mesh", "horosphere"): {"--a": "0.7", "--s-range": "-1:1", "--t-range": "-1:1"},
    ("mesh", "vertical-plane"): {"--b": "0.2", "--c": "0.5", "--d": "-0.5", "--s-range": "-1:1",
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
            for flag, (keyword, _) in flags.items():
                if keyword is not None:
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


def test_refusal_names_flag_as_typed(capsys):
    argv = ["residual", "--family", "horosphere", "--lambda", "7", "--mode", "minimal"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--lambda" in err and "--lam " not in err


def test_missing_required_flag_exits_2():
    assert main(["residual", "--family", "horosphere"]) == 2  # no --mode
    assert main([]) == 2  # no subcommand


def test_io_error_exits_3(tmp_path):
    rc = main(["mesh", "--family", "horosphere", "--a", "1", "--grid", "2x2",
               "--out", str(tmp_path / "no" / "such" / "dir" / "x")])
    assert rc == 3


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "residual" in capsys.readouterr().out


def test_verify_only_filter(capsys):
    rc = main(["verify", "--only", "lie"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lie.group_laws" in out
    assert "ALL CHECKS PASSED" in out
    assert "horosphere" not in out
