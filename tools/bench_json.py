"""Write BENCH_<label>.json from the benchmark's six result lines.

    python3 tools/bench_json.py LABEL

Runs ``perfbench/run.py`` on every workload of ``BENCHMARK.json``, with
``--trace 0`` and then ``--trace 1``, at seed 7 for 30 s each, one run
after another, and writes the last line each run prints (its JSON
result), the git revision of the tree and the number of usable
processors to ``BENCH_<label>.json`` at the repository root.  The
revision must name the code that was measured, so a tree whose tracked
files have uncommitted changes, before or after the runs, exits 1
without writing a file.  So does a run that exits nonzero (its stderr
is printed), reports ``correct: false`` or counts failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# fixed, so that every BENCH_*.json file is comparable with the others
SEED = 7
SECONDS = 30


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("label")
    args = parser.parse_args(argv)

    def git(*cmd) -> str:
        return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()

    def dirty() -> bool:
        changes = git("status", "--porcelain", "--untracked-files=no")
        if changes:
            print(f"tracked files have uncommitted changes:\n{changes}\n"
                  "commit them first; no file written", file=sys.stderr)
        return bool(changes)

    if dirty():
        return 1
    revision = git("rev-parse", "HEAD")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    runs = []
    for workload in workloads:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(SEED), "--seconds", str(SECONDS),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"{workload} --trace {trace} exited with {done.returncode}; "
                      "no file written", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] > 0:
                print(f"{workload} --trace {trace}: correct={result['correct']}, "
                      f"failed={result['failed']}; no file written", file=sys.stderr)
                return 1
            runs.append({"workload": workload, "trace": trace, "result": result})
    if dirty():  # changed while the runs measured it
        return 1
    doc = {"label": args.label, "revision": revision, "clean": True,
           "nproc": len(os.sched_getaffinity(0)), "seed": SEED,
           "seconds": SECONDS, "runs": runs}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
