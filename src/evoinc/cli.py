"""Command-line surface: verify, counterexample, solve, lemma.

All file output is deterministic for fixed arguments and seed: numbers are
written with 17 significant digits, CSV rows end with a bare newline, and
no timestamps or machine identifiers appear anywhere.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import suites
from .config import (ConfigError, build_experiment, dump_json, format_number,
                     load_config)
from .geometry import ProjectionDidNotConverge
from .monotone import MonotoneError, ProxDidNotConverge
from .rhs import RhsError
from .selection import SelectionError
from .semigroup import counterexample_profile
from .solver import GlobalSolution, SolverError, solve_global

USAGE_ERROR = 2
# Largest --modes and --points of `counterexample`. The profile holds
# arrays of `modes` and of `points` floats and takes modes * points sines;
# from `semigroup.FORK_MIN_SINES` sines on, the points split over the CPUs
# and each forked child holds its own `modes`-float buffer. Far larger
# values only fail to allocate or run for hours.
MAX_MODES = 1_000_000
MAX_POINTS = 10_000
# Raised inside a solve the config validation let through: the run stops,
# and its report names the exception instead of ending in a traceback.
SOLVE_FAILURES = (MonotoneError, RhsError, ProxDidNotConverge,
                  ProjectionDidNotConverge, SelectionError, SolverError)
LEMMAS = {
    "projection-difference": suites.projection_difference_battery,
    "slater": suites.slater_battery,
    "intersection-continuity": suites.intersection_continuity_battery,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evoinc",
        description="Coupled evolution-inclusion numerics and lemma checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run a property suite and print one line per check")
    p_verify.add_argument("suite",
                          choices=sorted(suites.SUITES) + ["all"],
                          help="which battery to run")
    p_verify.add_argument("--seed", type=_int_in(0), default=7)
    p_verify.add_argument("--trials", type=_int_in(1), default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_ce = sub.add_parser(
        "counterexample",
        help="rough-data deviation profile: CSV plus JSON summary")
    p_ce.add_argument("--modes", type=_int_in(1, MAX_MODES), default=2000)
    p_ce.add_argument("--t-min", type=float, default=1e-4)
    p_ce.add_argument("--t-max", type=float, default=1e-2)
    p_ce.add_argument("--points", type=_int_in(1, MAX_POINTS), default=25)
    p_ce.add_argument("--out", type=Path, default=Path("."))
    p_ce.set_defaults(func=cmd_counterexample)

    p_solve = sub.add_parser(
        "solve", help="run a configured coupled solve and emit reports")
    p_solve.add_argument("--config", type=Path, required=True)
    p_solve.add_argument("--out", type=Path, required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_lemma = sub.add_parser(
        "lemma", help="run one geometry lemma probe directly")
    p_lemma.add_argument("name", choices=list(LEMMAS))
    p_lemma.add_argument("--trials", type=_int_in(1), default=None)
    p_lemma.add_argument("--seed", type=_int_in(0), default=7)
    p_lemma.set_defaults(func=cmd_lemma)
    return parser


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer in [low, high] (no upper end when high is
    None); anything else exits 2 with the flag named."""
    wanted = f">= {low}" if high is None else f"in [{low}, {high}]"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(
                f"expected an integer {wanted}, got {text!r}")
        return value
    return parse


def _check_out(command: str, out: Path) -> bool:
    """Whether `out` can hold the command's files: it is a directory or
    does not exist yet, and its nearest existing ancestor is a directory.
    Otherwise print a usage error naming --out."""
    for path in (out, *out.parents):
        if path.exists():
            if path.is_dir():
                return True
            print(f"{command}: --out {out}: {path} is not a directory",
                  file=sys.stderr)
            return False
    return True


def cmd_verify(args) -> int:
    results = suites.run_suite(args.suite, seed=args.seed, trials=args.trials)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


def cmd_counterexample(args) -> int:
    if not _check_out("counterexample", args.out):
        return USAGE_ERROR
    if not (0.0 < args.t_min <= args.t_max <= 1.0):
        print("counterexample: need 0 < t-min <= t-max <= 1", file=sys.stderr)
        return USAGE_ERROR
    if args.t_min == args.t_max:
        t_list = np.array([args.t_min])
    else:
        t_list = np.logspace(np.log10(args.t_min), np.log10(args.t_max),
                             args.points)
    profile = counterexample_profile(args.modes, t_list)
    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / "counterexample.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,norm,ratio\n")
        for t, norm, ratio in zip(profile.times, profile.norms, profile.ratios):
            fh.write(f"{format_number(t)},{format_number(norm)},"
                     f"{format_number(ratio)}\n")
    summary = {
        "format_version": "evoinc-report-1",
        "slope": profile.slope,
        "modes": profile.modes,
        "tail_bound": profile.tail_bound,
    }
    dump_json(summary, args.out / "counterexample_summary.json")
    print(f"wrote {csv_path}")
    return 0


def cmd_solve(args) -> int:
    # Validate fully before creating any output file: a rejected config
    # must not leave partial artifacts behind.
    if not _check_out("solve", args.out):
        return USAGE_ERROR
    experiment = build_experiment(load_config(args.config))
    failure = None
    try:
        run = solve_global(experiment.generator, experiment.potential,
                           experiment.u0, experiment.v0, experiment.rhs_f,
                           experiment.rhs_g, experiment.horizon,
                           experiment.settings)
    except SOLVE_FAILURES as exc:
        failure = f"{type(exc).__name__}: {exc}"
        run = GlobalSolution((), False, False, None, None)
    args.out.mkdir(parents=True, exist_ok=True)
    dump_json(experiment.raw, args.out / "config_echo.json")
    table = run.node_table()
    with open(args.out / "trajectory.csv", "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("t,u_norm,v_norm,residual_f,residual_g\n")
        for row in table:
            fh.write(",".join(format_number(x) for x in row) + "\n")
    report = {
        "format_version": "evoinc-report-1",
        "seed": experiment.seed,
        "converged": run.converged,
        "blowup": run.blowup,
        "failure_index": run.failure_index,
        "windows": [
            {
                "t_start": w.u.t0,
                "t_window": w.window.t_window,
                "beta": w.window.beta,
                "m": w.window.m,
                "r": w.window.r,
                "iterations": w.report.iterations,
                "residual_f": w.report.residual_f,
                "residual_g": w.report.residual_g,
                "converged": w.report.converged,
                "stop_reason": w.report.stop_reason,
                "apriori": {
                    "lhs": w.report.apriori.lhs,
                    "rhs": w.report.apriori.rhs,
                    "passed": w.report.apriori.passed,
                },
                "membership_ok": w.report.membership.passed,
            }
            for w in run.windows
        ],
        "gronwall": None if run.gronwall is None else {
            "K": run.gronwall.k_const,
            "rho": run.gronwall.rho,
            "passed": run.gronwall.bound.passed,
            "worst_margin": run.gronwall.bound.margin,
        },
    }
    if failure is not None:
        report["failure"] = failure
    dump_json(report, args.out / "report.json")
    if not run.converged:
        reason = "did not converge" if failure is None else f"failed: {failure}"
        print(f"solve {reason}; partial outputs written", file=sys.stderr)
        return 1
    print(f"wrote {args.out / 'report.json'}")
    return 0


def cmd_lemma(args) -> int:
    result = LEMMAS[args.name](args.seed, args.trials)
    print(result.line())
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
