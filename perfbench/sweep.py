"""The single process a sweep workload runs in.

    python3 perfbench/sweep.py WORKLOAD SEED --setup-only
    python3 perfbench/sweep.py WORKLOAD SEED --seconds S --out DIR --result FILE [--trace]

With ``--setup-only`` it imports the program, builds the plan and
exits: the launch-to-exit time of that is one set-up sample.  Otherwise
it calls ``run_experiment`` on the same plan, each time into a fresh
directory under DIR, as often as fits in S seconds (at least three
times), and writes each call's start and end, and with ``--trace`` the
spans, to FILE.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from socalloc import run_experiment  # noqa: E402

from spans import Spans  # noqa: E402
from workloads import SWEEPS, another_round, sweep_plan  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(SWEEPS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out")
    parser.add_argument("--result")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    spec = SWEEPS[args.workload]
    if args.setup_only:
        sweep_plan(spec, args.seed, "unused")
        return 0

    spans = Spans().install("socalloc.experiment") if args.trace else None
    windows = []
    start = time.perf_counter()
    while another_round(windows, start, time.perf_counter(), args.seconds):
        plan = sweep_plan(spec, args.seed, Path(args.out) / f"round{len(windows)}")
        t0 = time.perf_counter()
        run_experiment(plan)
        windows.append((t0, time.perf_counter()))
    Path(args.result).write_text(json.dumps(
        {"windows": windows, "spans": spans.records if spans else []}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
