"""Self-tests of the benchmark's own guards (``run.py --self-test``).

Each checker is shown to pass a good output and to fail a known-bad one for
the reason it names, and the pass budget is shown to end a child that
overruns it.  Exit status 0 means every guard tripped as it should.
"""
from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import solsurf  # noqa: E402
from solsurf.export import (  # noqa: E402
    write_obj_mesh,
    write_profile_csv,
    write_profile_events,
    write_residual_csv,
    write_residual_summary,
)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

GRID = (21, 21)


def _expect(name: str, problems, good: bool, reason: str = "") -> bool:
    if good:
        ok = not problems
    else:
        ok = any(reason in p for p in problems)
    verdict = "ok  " if ok else "FAIL"
    want = "passes" if good else f"flags {reason!r}"
    print(f"{verdict} {name}: {want}; problems={problems}")
    return ok


def sweep_checker(td: Path) -> bool:
    """The verify falsifier ``perturb_profile(fam, 1e-2)`` breaks the
    minimal equation by far more than the 1e-6 limit."""
    cmd = workloads.residual_cmd("minimal-cylinder", "minimal", {"c": 0.0, "y0": 1.0},
                                 workloads.ODE_LIMIT, grid=GRID)
    fam = solsurf.make_minimal_cylinder(0.0, 1.0)
    grid = solsurf.GridSpec(*GRID)
    ok = True
    for tag, f in (("good", fam), ("perturbed", solsurf.perturb_profile(fam, 1e-2))):
        rep = solsurf.residual_report(f, "minimal", grid)
        prefix = str(td / f"sweep-{tag}")
        write_residual_csv(prefix + ".csv", rep)
        write_residual_summary(prefix + ".summary.txt", rep)
        problems, _ = checks.check_residual(cmd, prefix)
        ok &= _expect(f"sweep checker, {tag} output", problems, tag == "good", "exceeds the limit")
    return ok


def mesh_checker(td: Path) -> bool:
    cmd = workloads.mesh_cmd("minimal-cylinder", {"c": 1.0, "y0": 1.0}, grid=GRID)
    cmd["sample_seed"] = 7
    prefix = str(td / "mesh")
    write_obj_mesh(prefix + ".obj", solsurf.make_minimal_cylinder(1.0, 1.0),
                   solsurf.GridSpec(*GRID))
    ok = _expect("mesh checker, good output", checks.check_mesh(cmd, prefix)[0], True)
    path = Path(prefix + ".obj")
    lines = path.read_text().splitlines(keepends=True)
    first_face = next(i for i, line in enumerate(lines) if line.startswith("f "))
    path.write_text("".join(lines[:first_face] + lines[first_face + 1:]))
    return ok & _expect("mesh checker, one face dropped", checks.check_mesh(cmd, prefix)[0],
                        False, "faces, expected")


def profile_checker(td: Path) -> bool:
    cmd = workloads.profile_cmd("minimal", {"c": 0.5, "y0": 1.0})
    sol = solsurf.integrate_minimal_profile(solsurf.MinimalProfileParams(c=0.5, y0=1.0))
    prefix = str(td / "profile")
    write_profile_csv(prefix + ".csv", sol)
    write_profile_events(prefix + ".events.txt", sol)
    ok = _expect("profile checker, good output", checks.check_profile(cmd, prefix)[0], True)
    events = Path(prefix + ".events.txt")
    kv = dict(line.split("=", 1) for line in events.read_text().splitlines())
    kv["right_blowup_t"] = repr(float(kv["right_blowup_t"]) + 1e-5)
    events.write_text("".join(f"{k}={v}\n" for k, v in kv.items()))
    return ok & _expect("profile checker, blow-up abscissa shifted by 1e-5",
                        checks.check_profile(cmd, prefix)[0], False, "right_blowup_t=")


def reaper_checker(td: Path) -> bool:
    """The monotonicity check allows the export's last printed digit, and no
    more: a node 1e-9 below its predecessor must still be flagged."""
    cmd = workloads.profile_cmd("grim-reaper", {"lambda": 2.0}, span=(-10.0, 10.0))
    sol = solsurf.integrate_grim_reaper(solsurf.GrimReaperParams(lam=2.0, k=1.0),
                                        span=(-10.0, 10.0))
    prefix = str(td / "reaper")
    write_profile_csv(prefix + ".csv", sol)
    write_profile_events(prefix + ".events.txt", sol)
    ok = _expect("reaper checker, good output", checks.check_profile(cmd, prefix)[0], True)
    csv = Path(prefix + ".csv")
    lines = csv.read_text().splitlines(keepends=True)
    mid = len(lines) // 2
    previous_g = float(lines[mid - 1].split(",")[1])
    t, _g, rest = lines[mid].split(",", 2)
    lines[mid] = f"{t},{previous_g - 1e-9!r},{rest}"
    csv.write_text("".join(lines))
    return ok & _expect("reaper checker, one node 1e-9 below its predecessor",
                        checks.check_profile(cmd, prefix)[0], False, "g decreases")


def verify_checker() -> bool:
    cmd = workloads.verify_cmd()
    head = "check crit status defect tol sense sec\n"
    rows = [f"{name} 1 PASS 0.0e+00 1.0e-10 <= 0.10\n" for name in cmd["checks"]]
    good = head + "".join(rows) + "ALL CHECKS PASSED\n"
    rows[15] = rows[15].replace("PASS", "FAIL")
    bad = head + "".join(rows) + "1 CHECK(S) FAILED\n"
    bad_problems, passed = checks.check_verify(cmd, bad)
    ok = (_expect("verify checker, passing table", checks.check_verify(cmd, good)[0], True)
          & _expect("verify checker, one check failing", bad_problems, False,
                    f"{cmd['checks'][15]} reported FAIL"))
    counted = checks.failed_operations(cmd, bad_problems, passed)
    print(f"{'ok  ' if counted == 1 else 'FAIL'} verify checker counts {counted} failed "
          f"operation(s) for one failing check")
    return ok & (counted == 1)


def pass_budget() -> bool:
    """A 2 s budget cannot hold a 201x201 sweep pass: the child must be
    ended near the budget and all of its commands counted as failed."""
    cmds = workloads.build("sweep", 0)
    t0 = time.monotonic()
    res = run.run_pass(cmds, False, 2.0, "selftest-budget")
    took = time.monotonic() - t0
    ok = res.overran and res.returncode is not None and res.failed == len(cmds) and took < 10.0
    verdict = "ok  " if ok else "FAIL"
    print(f"{verdict} pass budget 2 s: overran={res.overran} returncode={res.returncode} "
          f"failed={res.failed}/{len(cmds)} ended after {took:.2f} s")
    return ok


def main() -> int:
    (run.OUT / "tmp").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT / "tmp") as tmp:
        td = Path(tmp)
        results = [sweep_checker(td), mesh_checker(td), profile_checker(td),
                   reaper_checker(td), verify_checker()]
    results.append(pass_budget())
    print("ALL GUARDS TRIPPED" if all(results) else "SOME GUARD DID NOT TRIP")
    return 0 if all(results) else 1
