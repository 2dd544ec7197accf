"""The socalloc benchmark: one command per workload run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see README.md and workloads.py): ``sweep-certified`` and
``sweep-online`` call ``run_experiment`` in one process; ``cli-pipeline``
runs generate, baseline and, per variant, solve-online --trace and
evaluate as separate ``socalloc`` processes.  Each repeats the same work
into fresh directories as often as fits in S seconds, then checks the
outputs against computations made apart from the program (checks.py).
The last line of standard output is the JSON result: end-to-end metrics
with ``--trace 0``, per-layer metrics from spans with ``--trace 1``.
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

from spans import layer_metrics, sweep_metrics
from workloads import CLI, SWEEPS, another_round, cli_steps, sweep_requests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = (*SWEEPS, "cli-pipeline")
#: Set-up is timed this many times per run; the median is reported.
SETUP_SAMPLES = 7


def child_env() -> dict:
    """The program's defaults: this tree's sources, SOC_ALLOC_THREADS unset."""
    env = dict(os.environ)
    env.pop("SOC_ALLOC_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd, cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run a process to its end; returns (exit code, wall s, peak RSS MB)."""
    with log.open("ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(x) for x in cmd], cwd=cwd, env=child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def setup_seconds(workload: str, seed: int, out: Path) -> float:
    """Median launch-to-exit time of a process that only sets up."""
    if workload == "cli-pipeline":
        cmd = [sys.executable, "-m", "socalloc.cli", "generate", "--help"]
    else:
        cmd = [sys.executable, HERE / "sweep.py", workload, seed, "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        code, wall, _ = spawn(cmd, ROOT, out / "setup.log")
        if code != 0:
            raise RuntimeError(f"set-up process exited {code}; see {out / 'setup.log'}")
        samples.append(wall)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def run_sweep(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    result_file = out / "result.json"
    cmd = [sys.executable, HERE / "sweep.py", workload, seed, "--seconds", seconds,
           "--out", out, "--result", result_file] + (["--trace"] if trace else [])
    code, _, rss = spawn(cmd, ROOT, out / "sweep.log")
    if code != 0:
        raise RuntimeError(f"sweep process exited {code}; see {out / 'sweep.log'}")
    doc = json.loads(result_file.read_text())
    windows = doc["windows"]
    requests = sweep_requests(SWEEPS[workload])
    run = {"dirs": [out / f"round{i}" for i in range(len(windows))],
           "rates": [requests / (t1 - t0) for t0, t1 in windows], "peak_rss_mb": rss}
    if trace:
        run["layers"] = {**layer_metrics(doc["spans"], len(windows)),
                         **sweep_metrics(doc["spans"], windows)}
    return run


# ---------------------------------------------------------------------------
# CLI pipeline
# ---------------------------------------------------------------------------

def run_cli(seed: int, seconds: float, trace: bool, out: Path) -> dict:
    steps = cli_steps(CLI, seed)
    rounds, windows = [], []
    start = time.perf_counter()
    while another_round(windows, start, time.perf_counter(), seconds):
        d = out / f"round{len(rounds)}"
        d.mkdir()
        records = []
        t0 = time.perf_counter()
        for i, (name, args) in enumerate(steps):
            if trace:
                cmd = [sys.executable, HERE / "traced_cli.py", d / f"spans{i}.json",
                       repr(time.perf_counter())] + args
            else:
                cmd = [sys.executable, "-m", "socalloc.cli"] + args
            code, wall, rss = spawn(cmd, d, d / "cli.log")
            records.append((name, code, wall, rss))
        windows.append((t0, time.perf_counter()))
        rounds.append((d, records))
    run = {"dirs": [d for d, _ in rounds],
           "steps": [r for _, records in rounds for r in records],
           "rates": [CLI["n"] / (t1 - t0) for t0, t1 in windows],
           "peak_rss_mb": statistics.median(max(r[3] for r in records)
                                            for _, records in rounds)}
    if trace:
        run["layers"] = cli_layers(rounds)
    return run


def cli_layers(rounds) -> dict:
    records, startups = [], []
    for d, _ in rounds:
        for f in sorted(d.glob("spans*.json")):
            doc = json.loads(f.read_text())
            records += doc["spans"]
            startups.append(doc["startup"])
    walls: dict = {}
    for _, steps in rounds:
        for name, _, wall, _ in steps:
            walls.setdefault(name, []).append(wall)
    layers = layer_metrics(records, len(rounds))
    layers["model.instance_bytes"] = (rounds[0][0] / "instance.json").stat().st_size
    layers["cli.startup_s"] = statistics.median(startups)
    for name in ("generate", "baseline", "solve-online", "evaluate"):
        layers[f"cli.{name.replace('-', '_')}_s"] = statistics.fmean(walls[name])
    return layers


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "socalloc" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'socalloc'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    trace = bool(args.trace)
    if args.workload == "cli-pipeline":
        run = run_cli(args.seed, args.seconds, trace, out)
    else:
        run = run_sweep(args.workload, args.seed, args.seconds, trace, out)
    requests_per_s = statistics.median(run["rates"])
    if trace:
        unknown = set(run["layers"]) - {m["name"] for m in wanted}
        if unknown:
            raise RuntimeError(f"layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        # A layer that does no work on this workload reads 0.
        values = {m["name"]: 0.0 for m in wanted} | run["layers"]
    else:
        values = {"requests_per_s": requests_per_s, "peak_rss_mb": run["peak_rss_mb"],
                  "setup_s": setup_seconds(args.workload, args.seed, out)}

    import verify  # scipy is loaded only now that every timed process has ended
    if args.workload == "cli-pipeline":
        failed_steps = sum(1 for _, code, _, _ in run["steps"] if code != 0)
        problems = (verify.check_cli(CLI, args.seed, run["dirs"]) if not failed_steps
                    else ["a CLI step exited nonzero; outputs not checked"])
        attempted = len(run["steps"])
        failed = failed_steps + len(problems)
    else:
        cells, failed_cells, problems = verify.check_sweep(SWEEPS[args.workload], args.seed,
                                                          run["dirs"])
        attempted = cells * len(run["dirs"])
        failed = failed_cells * len(run["dirs"]) + len(problems)

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    rates = [round(r, 1) for r in run["rates"]]
    print(f"{args.workload} seed={args.seed} {'traced' if trace else 'untraced'}: "
          f"requests_per_s={requests_per_s:.6g}, the median of {rates}; "
          f"checks {'FAILED' if problems else 'passed'}")
    if problems:
        print(f"outputs kept in {out}", file=sys.stderr)
    else:
        shutil.rmtree(out)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
