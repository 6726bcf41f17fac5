"""solsurf benchmark: one command that runs a workload, checks every output
and prints every metric by name with its unit.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --self-test

Run it from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` times untraced passes and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, every pass, every command's latency, checks and output
fingerprints) goes to ``bench/out/results/``.  See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

import calibrate
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

PINNED_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
RUN_DEADLINE_S = 165.0   # a run must exit within 180 s
PASS_BUDGET_S = 120.0    # one pass (spawn to last check) may take at most this
SETUP_SAMPLES = 7        # set-up is timed this many times per run, median reported
IMPORTTIME_SAMPLES = 3
TAIL_BEYOND = 10         # the tail percentile keeps at least this many samples above it


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(OUT / "tmp")
    env.update(PINNED_THREADS)
    return env


class PassResult:
    """What one child reported, plus what the parent saw from outside."""

    def __init__(self, cmds: List[dict], trace: bool) -> None:
        self.cmds = cmds
        self.trace = trace
        self.ready: Optional[dict] = None
        self.setup_s: Optional[float] = None
        self.runs: dict = {}
        self.checks: dict = {}
        self.wall_s: Optional[float] = None
        self.maxrss_kb: Optional[int] = None
        self.layers: Optional[dict] = None
        self.spans: List[dict] = []
        self.cal: List[tuple] = []
        self.overran = False
        self.returncode: Optional[int] = None
        self.stderr = ""

    def factor(self, i: int) -> float:
        """Reference seconds per raw second around command ``i``, from the
        calibration slots before and after it; slot 0 follows the import."""
        return calibrate.factor(self.cal[i:i + 2] or self.cal)

    def calibrated(self) -> dict:
        """Set-up, command latencies by command index and pass wall time, in
        reference seconds."""
        raw = sum(r["s"] for r in self.runs.values())
        latencies = {i: r["s"] * self.factor(i) for i, r in self.runs.items()}
        wall = None
        if self.wall_s is not None and raw > 0:
            wall = self.wall_s * sum(latencies.values()) / raw
        return {"setup_s": self.setup_s * self.factor(0), "latencies": latencies, "wall_s": wall}

    def uncalibrated(self) -> dict:
        return {"setup_s": self.setup_s,
                "latencies": {i: r["s"] for i, r in self.runs.items()},
                "wall_s": self.wall_s}

    def finished(self, i: int) -> bool:
        run = self.runs.get(i)
        return bool(run and run["rc"] == 0 and i in self.checks)

    @property
    def attempted(self) -> int:
        return sum(workloads.operations(cmd) for cmd in self.cmds)

    @property
    def failed(self) -> int:
        return sum(self.checks[i]["failed"] if self.finished(i) else workloads.operations(cmd)
                   for i, cmd in enumerate(self.cmds))

    @property
    def nodes(self) -> int:
        return sum(self.checks[i]["nodes"] for i in range(len(self.cmds)) if self.finished(i))

    def record(self) -> dict:
        return {
            "trace": self.trace,
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
            "maxrss_kb": self.maxrss_kb,
            "overran": self.overran,
            "returncode": self.returncode,
            "calibration_samples": self.cal,
            "failed": self.failed,
            "commands": [
                {
                    "label": cmd["label"],
                    "seconds": self.runs.get(i, {}).get("s"),
                    "rc": self.runs.get(i, {}).get("rc"),
                    "nodes": self.checks.get(i, {}).get("nodes"),
                    "problems": self.checks.get(i, {}).get("problems", ["did not finish"]),
                    "files": self.checks.get(i, {}).get("files", {}),
                    "stderr": self.runs.get(i, {}).get("stderr", ""),
                }
                for i, cmd in enumerate(self.cmds)
            ],
            "child_stderr": self.stderr[-2000:],
            "spans": self.spans,
        }


def spawn(args: List[str], budget_s: float):
    """Run ``bench/child.py`` with ``args``; end it if it overruns ``budget_s``.
    Returns (spawn time, stdout, stderr, return code, overran)."""
    t_spawn = now()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), *args],
        cwd=str(ROOT), env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    overran = False
    try:
        out, err = proc.communicate(timeout=max(budget_s, 0.0))
    except subprocess.TimeoutExpired:
        overran = True
        proc.kill()
        out, err = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return t_spawn, out, err, proc.returncode, overran


def parse_events(res: PassResult, t_spawn: float, out: str) -> None:
    for line in out.splitlines():
        try:
            ev = json.loads(line)
        except ValueError:
            continue
        kind = ev.get("ev")
        if kind == "ready":
            res.ready = ev
            res.setup_s = ev["t"] - t_spawn
        elif kind == "cmd":
            res.runs[ev["i"]] = ev
        elif kind == "pass":
            res.wall_s, res.maxrss_kb = ev["wall_s"], ev["maxrss_kb"]
        elif kind == "trace":
            res.layers, res.spans = ev["layers"], ev["spans"]
        elif kind == "check":
            res.checks[ev["i"]] = ev
        elif kind == "cal":
            res.cal.append((ev["reps"], ev["s"]))


def run_pass(cmds: List[dict], trace: bool, budget_s: float, tag: str) -> PassResult:
    """One pass of ``cmds`` in a fresh child.  An overrun ends the child, and
    every command it had not finished and checked counts as failed."""
    workdir = OUT / "work" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    spec = workdir / "spec.json"
    spec.write_text(json.dumps({"commands": cmds, "trace": trace, "workdir": str(workdir)}))
    res = PassResult(cmds, trace)
    try:
        t_spawn, out, err, rc, overran = spawn([str(spec)], budget_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    parse_events(res, t_spawn, out)
    res.returncode, res.overran, res.stderr = rc, overran, err
    return res


def setup_only(budget_s: float) -> Optional[PassResult]:
    t_spawn, out, _err, rc, overran = spawn(["--setup-only"], budget_s)
    res = PassResult([], False)
    parse_events(res, t_spawn, out)
    return None if overran or rc != 0 or res.setup_s is None or not res.cal else res


def import_split(budget_s: float) -> dict:
    """Self import time of numpy, scipy and solsurf modules, from
    ``python -X importtime``, summed over each package's modules."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import solsurf.cli"],
        cwd=str(ROOT), env=child_env(), capture_output=True, text=True, timeout=budget_s,
    )
    totals = {"numpy": 0.0, "scipy": 0.0, "solsurf": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _cumulative, module = line[len("import time:"):].split("|")
        top = module.strip().split(".")[0]
        if top in totals and self_us.strip().isdigit():
            totals[top] += int(self_us) * 1e-6
    return {"setup.numpy_s": totals["numpy"], "setup.scipy_s": totals["scipy"],
            "setup.solsurf_self_s": totals["solsurf"]}


def tail(values: List[float]):
    """The highest percentile with at least TAIL_BEYOND samples above it, as
    (value, percentile, samples).  With too few samples for any such
    percentile, the maximum is reported as the 100th percentile."""
    xs = sorted(values)
    n = len(xs)
    k = n - TAIL_BEYOND - 1
    if k < 0:
        return xs[-1], 100.0, n
    return xs[k], 100.0 * (k + 1) / n, n


def git_commit() -> Optional[str]:
    """HEAD of the checkout, or None when the checkout is not a git work tree
    of its own (git would otherwise report an enclosing repository)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int, ready: dict) -> dict:
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": ready.get("python"),
        "numpy": ready.get("numpy"),
        "scipy": ready.get("scipy"),
        "threads": PINNED_THREADS,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Make the workload's fixed number of passes for ``seconds``; with
    ``trace``, one untraced and one traced pass."""
    cmds = workloads.build(workload, seed)
    plan = [False, True] if trace else [False] * workloads.passes(workload, seconds)
    start = now()
    passes: List[PassResult] = []

    def budget() -> float:
        return min(PASS_BUDGET_S, RUN_DEADLINE_S - (now() - start))

    for traced in plan:
        tag = f"{workload}-{seed}-{os.getpid()}-{len(passes)}"
        passes.append(run_pass(cmds, traced, budget(), tag))
        if passes[-1].overran or budget() <= 0:
            break
    setups = [p for p in passes if p.setup_s is not None and p.cal]
    while not trace and len(setups) < SETUP_SAMPLES and budget() > 10.0:
        s = setup_only(budget())
        if s is None:
            break
        setups.append(s)
    layers = None
    if trace and budget() > 10.0:
        try:
            splits = [import_split(budget()) for _ in range(IMPORTTIME_SAMPLES)]
        except subprocess.TimeoutExpired:
            splits = []
        if splits:
            layers = {key: statistics.median(s[key] for s in splits) for key in splits[0]}
    return {"cmds": cmds, "passes": passes, "setups": setups, "layers": layers,
            "elapsed_s": now() - start}


def end_to_end(passes: List[PassResult], setups: List[PassResult], calibrated: bool) -> dict:
    """The end-to-end metrics, in reference seconds when ``calibrated``, else
    in raw seconds.  Calibrated, a pass that ended before its first
    calibration slot is left out; its commands already count as failed."""
    if calibrated:
        passes = [p for p in passes if p.cal]
    view = [p.calibrated() if calibrated else p.uncalibrated() for p in passes]
    latencies = [x for v in view for x in v["latencies"].values()]
    by_command: dict = {}
    for v in view:
        for i, x in v["latencies"].items():
            by_command.setdefault(i, []).append(x)
    walls = [v["wall_s"] for v in view if v["wall_s"] is not None]
    setup = [(s.calibrated() if calibrated else s.uncalibrated())["setup_s"] for s in setups]
    nodes = sum(p.nodes for p in passes)
    if not (latencies and walls and setup and nodes):
        return {}
    tail_s, pct, n = tail(latencies)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cmd_p50_s": statistics.median(statistics.median(x) for x in by_command.values()),
        "cmd_tail_s": tail_s,
        "us_per_node": 1e6 * sum(walls) / nodes,
        "peak_rss_mb": statistics.median(p.maxrss_kb for p in passes if p.maxrss_kb) / 1024.0,
        "_tail": {"percentile": pct, "samples": n},
    }


def per_layer(passes: List[PassResult], import_layers: Optional[dict], names) -> dict:
    """Medians over traced passes; layers a workload does not reach read 0."""
    plain = [p.wall_s for p in passes if not p.trace and p.wall_s is not None]
    traced = [p for p in passes if p.trace and p.layers is not None]
    if not (plain and traced and import_layers):
        return {}
    out = {}
    for key in names:
        if key in import_layers:
            out[key] = import_layers[key]
        elif key != "trace.overhead_frac":
            out[key] = statistics.median(p.layers.get(key, 0.0) for p in traced)
    traced_wall = statistics.median(p.wall_s for p in traced)
    out["trace.overhead_frac"] = traced_wall / statistics.median(plain) - 1.0
    return out


def declared_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    m = measure(workload, seed, seconds, trace)
    passes: List[PassResult] = m["passes"]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    ready = next((p.ready for p in passes if p.ready), None)
    if ready is None or not ready["solsurf"].startswith(str(ROOT / "src") + os.sep):
        print(f"error: no pass imported solsurf from {ROOT / 'src'}", file=sys.stderr)
        for p in passes:
            print(p.stderr[-2000:], file=sys.stderr)
        return 1
    units = declared_units("per_layer" if trace else "end_to_end")
    raw = {}
    if trace:
        values = per_layer(passes, m["layers"], units)
    else:
        raw = end_to_end(passes, m["setups"], calibrated=False)
        raw.pop("_tail", None)
        raw.pop("peak_rss_mb", None)
        values = end_to_end(passes, m["setups"], calibrated=True)
    tail_info = values.pop("_tail", None)
    complete = bool(values) and set(values) == set(units)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    fingerprints = {}
    for p in passes:
        for i, cmd in enumerate(p.cmds):
            files = p.checks.get(i, {}).get("files")
            if files:
                fingerprints.setdefault(f"{i}:{cmd['label']}", []).append(files)
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed, ready),
        "argv": [c["argv"] for c in m["cmds"]],
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "setup_samples_s": [s.setup_s for s in m["setups"]],
        "calibration": {
            "reference_rep_s": calibrate.REFERENCE_REP_S,
            "setup_only_samples": [s.cal for s in m["setups"] if not s.cmds],
        },
        "raw_seconds": raw,
        "cmd_tail": tail_info,
        "elapsed_s": m["elapsed_s"],
        "metrics": metrics,
        "fingerprints": {
            k: {"files": v[0], "same_every_pass": all(x == v[0] for x in v)}
            for k, v in fingerprints.items()
        },
        "passes": [p.record() for p in passes],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"workload={workload} seed={seed} passes={len(passes)} "
          f"traced_passes={sum(p.trace for p in passes)} elapsed_s={m['elapsed_s']:.1f}")
    for name, metric in metrics.items():
        note = ""
        if name == "cmd_tail_s" and tail_info:
            note = f"  (p{tail_info['percentile']:.0f} of {tail_info['samples']} commands)"
        print(f"{name:48} {metric['value']:.6g} {metric['unit']}{note}")
    for name, value in raw.items():
        print(f"{'raw ' + name:48} {value:.6g} {units[name]}")
    print(f"{'fail_frac':48} {failed / attempted:.6g} 1  ({failed}/{attempted} operations)")
    for p in passes:
        for c in p.record()["commands"]:
            if c["problems"] or c["rc"] != 0:
                print(f"FAILED {c['label']}: rc={c['rc']} {'; '.join(c['problems'])}")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=workloads.REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that each output checker and the pass budget trip")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "solsurf" / "cli.py").is_file():
        print(f"error: no solsurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
