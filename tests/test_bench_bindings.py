"""The benchmark's layer tracer binds package functions by name; a refactor
that renames or removes one must fail here, not in a traced benchmark run."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
        "import tracer; tracer.install(tracer.Tracer())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
