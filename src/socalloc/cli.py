"""Command-line interface.

Subcommands compose through files:

    socalloc generate     -> instance.json   (+ instance.json.npz, see below)
    socalloc solve-online -> trace.json      (needs instance.json)
    socalloc baseline     -> certificate.json
    socalloc evaluate     -> metrics.csv     (instance + trace [+ certificate])
    socalloc experiment   -> out/metrics.csv, aggregate.json, scaling.json

``generate`` draws the requests into the file 256 at a time, building no
instance, and also writes ``<out>.npz``, a binary copy of the instance's
arrays with the SHA-256 of the JSON it wrote.  Readers take the arrays
from it while that digest matches and decode the JSON otherwise; the
JSON is the record, and deleting the copy is always safe.  Every file is
written under a temporary name and renamed, so a failed write leaves the
earlier files as they were.  ``evaluate`` refuses a certificate whose
value is not the dual value of its prices on the instance it scores.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .baseline import DualCertificate, dual_value, minimize_dual
from .errors import ConvergenceError, DomainError, SocAllocError
from .experiment import ExperimentPlan, run_experiment
from .generate import GeneratorConfig, RequestDraws, stream_requests
from .metrics import build_report, csv_header, csv_row
from .model import (CHUNK, Instance, RiskSpec, _read_record, _write_replacing,
                    load_instance, load_trace, save_instance, save_trace)
from .online import VARIANTS, OnlineSolver, VariantConfig
from .transform import linearize, safety_coefficients, to_soc

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; we reserve 2 for data errors.
    def error(self, message):
        raise UsageError(message)


def _csv_floats(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as err:
        raise UsageError(f"expected a comma-separated list of numbers: {text!r}") from err


def _csv_ints(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as err:
        raise UsageError(f"expected a comma-separated list of integers: {text!r}") from err


def _experiment_tag(flag: str) -> str:
    return {"chi-square": "chi_square"}.get(flag, flag)


def _build_parser() -> _Parser:
    parser = _Parser(prog="socalloc")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic instance")
    g.add_argument("--experiment", choices=("uniform", "chi-square"), required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--eta", type=_csv_floats, default=None,
                   help="comma-separated confidence levels, one per resource")
    g.add_argument("--gamma-tilde", type=_csv_floats, default=None,
                   help="comma-separated normalized caps, one per resource")
    g.add_argument("--d", type=_csv_floats, default=None,
                   help="per-step budgets (default: all ones)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="instance.json")
    g.add_argument("--stream", action="store_true",
                   help="print requests as JSON lines instead of writing a file")

    s = sub.add_parser("solve-online", help="run one online pass over an instance")
    s.add_argument("--instance", required=True)
    s.add_argument("--variant", choices=VARIANTS, default="vanilla")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default="trace.json")
    s.add_argument("--trace", action="store_true",
                   help="also write per-step rows (t, scheme, value, prices) "
                        "to <out>.steps.csv")

    b = sub.add_parser("baseline", help="compute the offline dual certificate")
    b.add_argument("--instance", required=True)
    b.add_argument("--tol", type=float, default=1e-6)
    b.add_argument("--out", default="certificate.json")

    e = sub.add_parser("evaluate", help="score a trace against its instance")
    e.add_argument("--instance", required=True)
    e.add_argument("--trace", required=True, help="trace JSON from solve-online")
    e.add_argument("--baseline", default=None, help="certificate JSON (optional)")
    e.add_argument("--eta", type=_csv_floats, default=None,
                   help="confidence levels to use in place of the instance's own")
    e.add_argument("--gamma-tilde", type=_csv_floats, default=None,
                   help="normalized caps to use in place of the instance's own")
    e.add_argument("--experiment", default="custom", help="label for the CSV row")
    e.add_argument("--variant", default="unknown", help="label for the CSV row")
    e.add_argument("--trial", type=int, default=0, help="label for the CSV row")
    e.add_argument("--seed", type=int, default=0, help="label for the CSV row")
    e.add_argument("--out", default="metrics.csv")

    x = sub.add_parser("experiment", help="full sweep: generate, solve, score")
    x.add_argument("--experiment", choices=("uniform", "chi-square"), required=True)
    x.add_argument("--n-grid", type=_csv_ints, required=True)
    x.add_argument("--trials", type=int, default=20)
    x.add_argument("--m", type=int, required=True)
    x.add_argument("--k", type=int, required=True)
    x.add_argument("--eta", type=_csv_floats, default=None)
    x.add_argument("--gamma-tilde", type=_csv_floats, default=None)
    x.add_argument("--d", type=_csv_floats, default=None)
    x.add_argument("--variants", default="vanilla,marginal,marginal-dynamic",
                   help="comma-separated subset of " + ",".join(VARIANTS))
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("--tol", type=float, default=1e-6)
    x.add_argument("--no-baseline", action="store_true",
                   help="skip dual certificates (gap/ratio become NaN)")
    x.add_argument("--out", default="results")
    return parser


def _cmd_generate(args) -> int:
    config = GeneratorConfig(
        experiment=_experiment_tag(args.experiment), n=args.n, m=args.m, k=args.k,
        d=args.d, eta=args.eta, gamma_tilde=args.gamma_tilde, seed=args.seed)
    if args.eta is not None or args.gamma_tilde is not None:
        safety_coefficients(config.risk())  # rejects a negative psi before writing
    if args.stream:
        for t, (c, a_bar, k_diag) in enumerate(stream_requests(config)):
            print(json.dumps({"t": t, "c": c.tolist(), "a_bar": a_bar.tolist(),
                              "k_diag": k_diag.tolist()}))
        return EXIT_OK
    save_instance(RequestDraws(config), args.out)
    print(f"wrote {args.out} (n={config.n}, m={config.m}, k={config.k})")
    return EXIT_OK


def _write_steps(fh, trace, values, prices) -> None:
    """The per-step rows (t, scheme, best margin, prices), CHUNK at a time."""
    fh.write(b"t,scheme,value,prices\n")
    for s in (slice(start, start + CHUNK) for start in range(0, len(values), CHUNK)):
        rows = zip(range(len(values))[s], trace.decisions[s],
                   values[s].tolist(), prices[s].tolist())
        fh.write("".join(f"{t},{'' if scheme is None else scheme},{value!r},"
                         f"{';'.join(map(repr, row))}\n"
                         for t, scheme, value, row in rows).encode())


def _cmd_solve_online(args) -> int:
    instance = to_soc(load_instance(args.instance))
    solver = OnlineSolver(instance, VariantConfig(args.variant, args.seed),
                          record_steps=args.trace)
    trace = solver.run()
    if args.trace:  # both files are written before either is renamed
        steps_path = Path(args.out).with_suffix(".steps.csv")
        _write_replacing(steps_path, lambda fh: _write_steps(fh, trace, *solver.steps),
                         then=lambda: save_trace(trace, args.out))
        print(f"wrote {steps_path}")
    else:
        save_trace(trace, args.out)
    accepted = sum(1 for d in trace.decisions if d is not None)
    print(f"wrote {args.out} (objective={trace.objective:.6f}, "
          f"accepted {accepted}/{instance.n})")
    return EXIT_OK


def _cmd_baseline(args) -> int:
    cert = minimize_dual(linearize(to_soc(load_instance(args.instance))), tol=args.tol)
    _write_replacing(Path(args.out), lambda fh: fh.write(json.dumps(cert.to_dict()).encode()))
    print(f"wrote {args.out} (value={cert.value:.6f}, gap={cert.gap:.3g}, "
          f"iterations={cert.iterations})")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    instance = load_instance(args.instance)
    risk = instance.risk
    if args.eta is not None or args.gamma_tilde is not None:
        risk = RiskSpec(eta=args.eta if args.eta is not None else risk.eta,
                        gamma_tilde=(args.gamma_tilde if args.gamma_tilde is not None
                                     else risk.gamma_tilde))
        instance = Instance(instance.c, instance.a_bar, instance.k_diag,
                            instance.d, risk)
    if instance.risk.eta is None and instance.risk.gamma_tilde is None:
        raise UsageError(
            "nothing to evaluate: the instance carries no risk targets; "
            "pass --eta and/or --gamma-tilde")
    instance = to_soc(instance)
    trace = load_trace(args.trace)
    n, m, k = instance.n, instance.m, instance.k
    if (len(trace.decisions) != n or trace.mean_consumption.shape != (m,)
            or trace.variance_accum.shape != (m,) or not all(
                d is None or (type(d) is int and 0 <= d < k) for d in trace.decisions)):
        raise DomainError(f"trace does not fit the instance: it needs {n} decisions, each "
                          f"null or an int in range({k}), and {m} totals of each kind")
    # the totals must be the sums of the chosen coefficients, to 1e-9 relative
    t, l = np.array([(s, d) for s, d in enumerate(trace.decisions) if d is not None],
                    dtype=np.intp).reshape(-1, 2).T
    terms = np.column_stack([instance.c[t, l], instance.a_bar[t, :, l],
                             instance.k_diag[t, :, l]])
    totals = np.concatenate([[trace.objective], trace.mean_consumption, trace.variance_accum])
    if np.any(np.abs(terms.sum(axis=0) - totals)
              > 1e-9 * np.maximum(1.0, np.abs(terms).sum(axis=0))):
        raise DomainError("the trace's objective or totals are not the sums of its decisions")
    baseline = None
    if args.baseline is not None:
        baseline = _read_record(args.baseline, DualCertificate.from_dict)
        if baseline.p_star.shape != (m,):
            raise DomainError(f"certificate does not fit the instance: it needs {m} prices")
        value = dual_value(instance, instance.risk.psi, baseline.p_star)
        if abs(value - baseline.value) > 1e-9 * max(1.0, abs(baseline.value)):
            raise DomainError(f"{args.baseline}: the certificate's value is not the dual "
                              f"value {value!r} of its prices on this instance")
    report = build_report(instance, trace, baseline)
    _write_replacing(Path(args.out), lambda fh: fh.write((csv_header(m) + csv_row(
        args.experiment, args.variant, n, args.trial, args.seed, report, m)).encode()))
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    variants = tuple(VariantConfig(v) for v in args.variants.split(","))
    config = GeneratorConfig(
        experiment=_experiment_tag(args.experiment), n=max(args.n_grid),
        m=args.m, k=args.k, d=args.d, eta=args.eta,
        gamma_tilde=args.gamma_tilde, seed=args.seed)
    plan = ExperimentPlan(generator=config, n_grid=args.n_grid, trials=args.trials,
                          variants=variants, output_dir=args.out,
                          master_seed=args.seed, tol=args.tol,
                          compute_baseline=not args.no_baseline)
    run_experiment(plan)
    print(f"wrote {args.out}/metrics.csv, aggregate.json, scaling.json")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "solve-online": _cmd_solve_online,
    "baseline": _cmd_baseline,
    "evaluate": _cmd_evaluate,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SocAllocError, OSError, KeyError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
