"""Spans around the calls into each socalloc layer, for the traced run.

The recorder wraps public functions where their caller looks them up
(``socalloc.experiment.generate``, ``socalloc.cli.load_instance``, ...),
so the program's own files stay untouched and an untraced run executes
none of this.  A span is (name, start, end, info) with ``perf_counter``
times; ``info`` carries the work count the layer metric needs.  Spans
stay in memory and are written out when the process ends.
"""

from __future__ import annotations

import importlib
import statistics
import time


def _requests(args, result):
    return args[0].n


def _evaluations(args, result):
    return result.iterations


def _steps(args, result):
    return args[0].config.variant, len(result.decisions)


#: Layers called from inside other layers: (module, attribute, span name).
_INNER = (
    ("socalloc.baseline", "dual_value_and_subgradient", "baseline.eval"),
    ("socalloc.transform", "safety_coefficient", "gaussian.safety_coefficient"),
    ("socalloc.metrics", "mean_excess", "gaussian.mean_excess"),
)
#: Layers called from the entry module (experiment or cli), wrapped where that
#: module has them: (attribute, span name, work count taken from the call).
_OUTER = (
    ("run_trial", "experiment.run_trial", None),
    ("generate", "generate.generate", _requests),
    ("linearize", "transform.linearize", None),
    ("minimize_dual", "baseline.minimize_dual", _evaluations),
    ("build_report", "metrics.build_report", None),
    ("load_instance", "model.load_instance", None),
    ("save_instance", "model.save_instance", None),
    ("save_trace", "model.save_trace", None),
)


class Spans:
    """In-memory span list; list.append is atomic, so pool threads share it."""

    def __init__(self):
        self.records: list = []

    def wrap(self, owner, attr: str, name: str, info=None):
        fn = getattr(owner, attr)
        records = self.records

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            records.append((name, t0, time.perf_counter(),
                            info(args, result) if info else None))
            return result

        setattr(owner, attr, traced)

    def install(self, entry: str) -> "Spans":
        """Wrap the layers, as called from ``entry`` (``socalloc.experiment``
        or ``socalloc.cli``)."""
        for module, attr, name in _INNER:
            self.wrap(importlib.import_module(module), attr, name)
        entry_module = importlib.import_module(entry)
        for attr, name, info in _OUTER:
            if hasattr(entry_module, attr):
                self.wrap(entry_module, attr, name, info)
        self.wrap(importlib.import_module("socalloc.online").OnlineSolver, "run",
                  "online.run", _steps)
        return self


def _mean(values, scale=1.0) -> float:
    return statistics.fmean(values) * scale if values else 0.0


def layer_metrics(records, rounds: int) -> dict:
    """The per-layer metrics that spans give, from every span of a run.

    Times are means per call (or per unit of work); counts are per
    certificate or per round, so they do not depend on how many rounds
    the run made.  A layer that did no work reads 0.
    """
    by: dict = {}
    for name, t0, t1, info in records:
        by.setdefault(name, []).append((t1 - t0, info))

    def durations(name):
        return [d for d, _ in by.get(name, [])]

    out = {}
    certs = by.get("baseline.minimize_dual", [])
    out["baseline.evals_per_certificate"] = _mean([i for _, i in certs])
    out["baseline.ms_per_eval"] = _mean(durations("baseline.eval"), 1e3)
    out["baseline.s_per_certificate"] = _mean(durations("baseline.minimize_dual"))
    runs = by.get("online.run", [])
    for variant in ("vanilla", "marginal", "marginal-dynamic"):
        mine = [(d, steps) for d, (v, steps) in runs if v == variant]
        steps = sum(s for _, s in mine)
        out[f"online.{variant.replace('-', '_')}_us_per_step"] = (
            sum(d for d, _ in mine) / steps * 1e6 if steps else 0.0)
    out["online.steps"] = sum(steps for _, (_, steps) in runs) / rounds
    gens = by.get("generate.generate", [])
    requests = sum(n for _, n in gens)
    out["generate.us_per_request"] = (sum(d for d, _ in gens) / requests * 1e6
                                      if requests else 0.0)
    out["model.load_instance_s"] = _mean(durations("model.load_instance"))
    out["model.save_instance_s"] = _mean(durations("model.save_instance"))
    out["model.save_trace_ms"] = _mean(durations("model.save_trace"), 1e3)
    out["transform.linearize_ms"] = _mean(durations("transform.linearize"), 1e3)
    out["metrics.build_report_ms"] = _mean(durations("metrics.build_report"), 1e3)
    out["gaussian.safety_coefficient_us"] = _mean(durations("gaussian.safety_coefficient"),
                                                  1e6)
    out["gaussian.mean_excess_us"] = _mean(durations("gaussian.mean_excess"), 1e6)
    return out


def sweep_metrics(records, round_windows) -> dict:
    """Cell time, overlap and report writing of each run_experiment call."""
    cells = [(t0, t1) for name, t0, t1, _ in records if name == "experiment.run_trial"]
    overlaps, writes = [], []
    for start, end in round_windows:
        mine = [(t0, t1) for t0, t1 in cells if start <= t0 and t1 <= end]
        overlaps.append(sum(t1 - t0 for t0, t1 in mine) / (end - start))
        writes.append(end - max(t1 for _, t1 in mine))
    return {"experiment.cell_s": _mean([t1 - t0 for t0, t1 in cells]),
            "experiment.overlap": _mean(overlaps),
            "experiment.report_write_ms": _mean(writes, 1e3)}
