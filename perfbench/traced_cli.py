"""The socalloc CLI with spans around its layer calls, for the traced run.

    python3 perfbench/traced_cli.py SPANS_FILE LAUNCH_TIME <socalloc arguments>

LAUNCH_TIME is the parent's ``perf_counter`` just before it started this
process (the same monotonic clock across processes on Linux), so the
time from launch to ``main`` is the process's start-up.  The spans and
that start-up are written to SPANS_FILE when the command returns.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from socalloc import cli  # noqa: E402

from spans import Spans  # noqa: E402


def main() -> int:
    spans_file, launch = sys.argv[1], float(sys.argv[2])
    ready = time.perf_counter()
    spans = Spans().install("socalloc.cli")
    code = cli.main(sys.argv[3:])
    Path(spans_file).write_text(json.dumps({"startup": ready - launch,
                                            "spans": spans.records}))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
