"""One benchmark pass in a fresh interpreter.

    python3 bench/child.py SPEC.json     run the spec's commands, then check them
    python3 bench/child.py --setup-only  stop once the package is imported

The pass is a closed loop with one client: commands run back to back through
``solsurf.cli.main``.  After the import and after each command the child
times the calibration kernel (``bench/calibrate.py``) outside the timed
commands, so the parent can express the run's times at a reference host
speed.  Progress goes to stdout as one JSON object per line,
so a parent that ends this process on a budget overrun still knows which
commands finished.  Outputs are checked and fingerprinted only after the
timed pass and after peak memory is read.
"""
import sys
import time

# Set-up ends when the entry point is importable; nothing of the benchmark's
# own is imported before this line, so the stamp times the package alone.
import solsurf.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import calibrate  # noqa: E402

STDOUT_TAIL = 2000
SETUP_CAL_REPS = 10


def emit(**event) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def ready_event() -> dict:
    import numpy
    import scipy

    return {
        "ev": "ready",
        "t": READY,
        "solsurf": os.path.realpath(solsurf.cli.__file__),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def calibrate_for(reps: int) -> float:
    reps, seconds = calibrate.sample(reps)
    emit(ev="cal", reps=reps, s=seconds)
    return seconds


def run_pass(spec: dict) -> None:
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    cmds = spec["commands"]
    outputs = []
    cal_s = 0.0
    if not spec["trace"]:
        calibrate_for(SETUP_CAL_REPS)
    pass_start = time.perf_counter()
    for i, cmd in enumerate(cmds):
        argv = list(cmd["argv"])
        prefix = None
        if cmd["kind"] != "verify":
            prefix = os.path.join(spec["workdir"], f"c{i}")
            argv += ["--out", prefix]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.cmd = i
            span = tracer.open("commands.cmd")
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = solsurf.cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not a failed pass
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                rc = -1
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(span)
        outputs.append((prefix, out.getvalue()))
        emit(ev="cmd", i=i, rc=rc, s=t1 - t0,
             stdout=out.getvalue()[-STDOUT_TAIL:], stderr=err.getvalue()[-STDOUT_TAIL:])
        if not spec["trace"]:
            cal_s += calibrate_for(calibrate.reps_after(t1 - t0))
    wall = time.perf_counter() - pass_start - cal_s
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit(ev="pass", wall_s=wall, maxrss_kb=maxrss_kb)
    if tracer is not None:
        emit(ev="trace", layers=tracer.layer_metrics(), spans=tracer.span_records())

    import checks

    for i, (cmd, (prefix, stdout)) in enumerate(zip(cmds, outputs)):
        try:
            problems, nodes = checks.check(cmd, prefix, stdout)
            files = checks.fingerprints(prefix) if prefix else {}
        except Exception as exc:  # an unreadable output is a failed check
            problems, nodes, files = [f"checker raised {type(exc).__name__}: {exc}"], 0, {}
        emit(ev="check", i=i, problems=problems, nodes=nodes, files=files,
             failed=checks.failed_operations(cmd, problems, nodes))


def main(argv) -> int:
    emit(**ready_event())
    if argv[:1] == ["--setup-only"]:
        calibrate_for(SETUP_CAL_REPS)
        return 0
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    run_pass(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
