"""The inputs of each workload, derived from the workload seed alone.

Shapes follow the paper's experiments: m = 4 resources, k = 5 schemes,
the confidence levels and caps of the acceptance suite.  The seed is the
sweeps' master seed and the CLI pipeline's generation and tie-break seed.
"""

from __future__ import annotations

M, K = 4, 5
ETA = (0.65, 0.75, 0.85, 0.95)
CAP = (0.2, 0.3, 0.4, 0.5)
VARIANTS = ("vanilla", "marginal", "marginal-dynamic")
#: A run repeats its workload at least this often, so that it reports a
#: median of several repeats.
MIN_ROUNDS = 3


def another_round(windows, start: float, now: float, seconds: float) -> bool:
    """Whether a run starts one more round: until MIN_ROUNDS, then while a
    round of the mean length so far still ends within ``seconds``."""
    if len(windows) < MIN_ROUNDS:
        return True
    mean = sum(t1 - t0 for t0, t1 in windows) / len(windows)
    return now - start + mean <= seconds

#: run_experiment plans.  The certified sweep's n = 500 cell is where the
#: benchmark solves the linear relaxation with HiGHS (0.05 s there, 17 s at
#: n = 10000).  The online sweep has many trials per n, as the criterion-7
#: sweeps do; its n are small, so that a 30 s run holds about nine rounds:
#: two pool threads taking turns on the GIL make single rounds noisy.
SWEEPS = {
    "sweep-certified": {"experiment": "chi_square", "n_grid": (500, 2500, 10000),
                        "trials": 2, "eta": ETA, "gamma_tilde": None, "baseline": True},
    "sweep-online": {"experiment": "uniform", "n_grid": (500, 1000),
                     "trials": 10, "eta": None, "gamma_tilde": CAP, "baseline": False},
}

#: The CLI pipeline's one instance: the size of the sweeps' largest cell,
#: with both risk targets so both branches of psi and of the report run.
CLI = {"experiment": "uniform", "n": 10000, "eta": ETA, "gamma_tilde": CAP}


def sweep_plan(w: dict, seed: int, out_dir):
    """The ExperimentPlan of sweep spec ``w``, writing into ``out_dir``."""
    from socalloc import ExperimentPlan, GeneratorConfig
    generator = GeneratorConfig(w["experiment"], n=max(w["n_grid"]), m=M, k=K,
                                eta=w["eta"], gamma_tilde=w["gamma_tilde"], seed=seed)
    return ExperimentPlan(generator=generator, n_grid=w["n_grid"], trials=w["trials"],
                          output_dir=str(out_dir), master_seed=seed,
                          compute_baseline=w["baseline"])


def sweep_requests(w: dict) -> int:
    """Requests one sweep serves: the sum of n x trials over the plan."""
    return sum(w["n_grid"]) * w["trials"]


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


def cli_steps(spec: dict, seed: int) -> list[tuple[str, list[str]]]:
    """(step name, socalloc arguments) of one pipeline, in order."""
    steps = [("generate", ["generate", "--experiment", spec["experiment"].replace("_", "-"),
                           "--n", str(spec["n"]), "--m", str(M), "--k", str(K),
                           "--eta", _csv(spec["eta"]), "--gamma-tilde", _csv(spec["gamma_tilde"]),
                           "--seed", str(seed), "--out", "instance.json"]),
             ("baseline", ["baseline", "--instance", "instance.json",
                           "--out", "certificate.json"])]
    for v in VARIANTS:
        steps.append(("solve-online", ["solve-online", "--instance", "instance.json",
                                       "--variant", v, "--seed", str(seed),
                                       "--out", f"trace_{v}.json", "--trace"]))
        steps.append(("evaluate", ["evaluate", "--instance", "instance.json",
                                   "--trace", f"trace_{v}.json",
                                   "--baseline", "certificate.json", "--variant", v,
                                   "--seed", str(seed), "--out", f"metrics_{v}.csv"]))
    return steps


#: Files one pipeline writes; reruns must reproduce them byte for byte.
CLI_OUTPUTS = (["instance.json", "certificate.json"]
               + [f"trace_{v}.json" for v in VARIANTS]
               + [f"trace_{v}.steps.csv" for v in VARIANTS]
               + [f"metrics_{v}.csv" for v in VARIANTS])
