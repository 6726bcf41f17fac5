"""The benchmark binds package functions by name: the layer tracer wraps
them, and the output checker rebuilds each command's surface through the
public constructors.  A refactor that renames or removes one, or changes a
signature the benchmark calls, must fail here, not in a benchmark run."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_in_bench(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with ``bench/`` and ``src/`` first
    on the path, as the benchmark's children run; ``args`` follow them in
    ``sys.argv``."""
    prelude = "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
    return subprocess.run(
        [sys.executable, "-c", prelude + code, str(ROOT / "bench"), str(ROOT / "src"), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_every_verify_operation_selects_its_own_row():
    """The verify workload runs ``verify --only <name>`` for each of its
    checks, and the checker counts a failed operation unless that selects
    exactly the named row.  A renamed or removed row, or a new row whose
    name contains an existing one, fails here."""
    proc = _run_in_bench(
        "import workloads\n"
        "from solsurf.errors import ParameterError\n"
        "from solsurf.verify import run_checks\n"
        "names = [name for cmd in workloads.build('verify', 0) for name in cmd['checks']]\n"
        "wrong = []\n"
        "for name in names:\n"
        "    try:\n"
        "        got = [r.name for r in run_checks(name).results]\n"
        "    except ParameterError as exc:\n"
        "        got = str(exc)\n"
        "    if got != [name]:\n"
        "        wrong.append((name, got))\n"
        "print(len(names) == len(workloads.VERIFY_CHECKS) > 0, wrong)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True []", proc.stdout


def test_tracer_installs():
    proc = _run_in_bench("import tracer; tracer.install(tracer.Tracer())")
    assert proc.returncode == 0, proc.stderr


def test_checker_rebuilds_every_surface():
    """``checks.family_of`` rebuilds the surface of every residual and mesh
    command of the sweep and mesh workloads."""
    proc = _run_in_bench(
        "import checks, workloads; "
        "cmds = workloads.build('sweep', 0) + workloads.build('mesh', 0); "
        "print(sorted({checks.family_of(c).name for c in cmds "
        "if c['kind'] in ('residual', 'mesh')}))"
    )
    assert proc.returncode == 0, proc.stderr
    assert "grim_reaper" in proc.stdout, proc.stdout


def test_tracer_sees_every_sweep(tmp_path):
    """The tracer rebinds ``sample_grid`` in ``surface_factory`` and
    ``verify`` only.  ``residual_report`` and ``write_obj_mesh`` look it up
    in ``surface_factory`` at call time, so the sweeps of one ``residual``
    and one ``mesh`` run are two ``sample_grid`` spans; a module-level import
    in either would hide its sweep from the trace.  verify's grid rows look
    it up on ``verify`` when they run: ``plane.residuals`` sweeps six planes,
    ``conformal.not_minimal`` one cylinder and ``falsify.profiles`` three
    perturbed profiles, ten spans in all."""
    proc = _run_in_bench(
        "import tracer; from solsurf.cli import main; "
        "tr = tracer.Tracer(); tracer.install(tr); out = sys.argv[3]; "
        "codes = [main(['residual', '--family', 'horosphere', '--mode', 'minimal', "
        "'--grid', '5x4', '--out', out + '/r']), "
        "main(['mesh', '--family', 'horosphere', '--grid', '5x4', '--out', out + '/m'])]; "
        "names = [r['name'] for r in tr.span_records()]; "
        "grids = names.count('surface_factory.sample_grid'); "
        "codes += [main(['verify', '--only', name]) for name in "
        "('plane.residuals', 'conformal.not_minimal', 'falsify.profiles')]; "
        "verify_grids = [r['name'] for r in tr.span_records()].count("
        "'surface_factory.sample_grid') - grids; "
        "print(codes, grids, names.count('soliton_residuals.report'), verify_grids)",
        str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] 2 1 10", proc.stdout


def test_tracer_sees_the_profile_layers(tmp_path):
    """One traced ``profile`` run records its integration and its two
    writes as spans, and counts as many integration nodes as its CSV has
    rows, so a refactor that moves the integrators or the writer out of the
    tracer's view fails here."""
    proc = _run_in_bench(
        "import tracer; from solsurf.cli import main; "
        "tr = tracer.Tracer(); tracer.install(tr); out = sys.argv[3] + '/p'; "
        "code = main(['profile', '--ode', 'minimal', '--c', '0.5', '--out', out]); "
        "names = [r['name'] for r in tr.span_records()]; "
        "rows = len(open(out + '.csv').read().splitlines()) - 1; "
        "print(code, names.count('profile_odes.integrate'), names.count('export.write'), "
        "tr.counts['integrate_nodes'] == rows == tr.counts['write_rows'], rows > 100)",
        str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 1 2 True True", proc.stdout


def test_profile_checker_sees_a_tail_1e_5_too_long(tmp_path):
    """The benchmark's profile check judges a conformal profile's blow-up
    abscissae against ``conformal_halfwidth_quadrature``, which reads the
    half-width of ``profile_odes._Panels`` and never calls
    ``profile_odes._blowup_tail``.  With that tail 1e-5 too long, as the
    solution's ``left/right_blowup_t`` then are, both abscissae are
    reported; had the reference been the same tail, the error would cancel."""
    proc = _run_in_bench(
        "import checks, workloads; from solsurf import profile_odes; "
        "from solsurf.cli import main; tail = profile_odes._blowup_tail; "
        "profile_odes._blowup_tail = lambda p, g: tail(p, g) + 1e-5; "
        "cmd = workloads.profile_cmd('conformal', {'a': 0.5, 'y0': 1.3}); "
        "out = sys.argv[3] + '/p'; code = main(cmd['argv'] + ['--out', out]); "
        "print(code, sorted(p.split('=')[0] for p in checks.check_profile(cmd, out)[0]))",
        str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 ['left_blowup_t', 'right_blowup_t']", proc.stdout
