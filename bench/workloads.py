"""Workload definitions, seeded inputs and output checks.

Every operation is one `evoinc` command line, run in-process through
`evoinc.cli.main`. A workload is a fixed list of three commands; one
client sends them in order and waits for each (a closed loop). Each
workload fills the same three per-command slots (`cmd1_s`, `cmd2_s`,
`cmd3_s`), so one end-to-end metric list serves all of them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Initial data of these presets gets a seeded relative perturbation of at
# most this size. heat_debye is solved on its bundled data: its first
# window starts with selection residuals of 1-2e-8 against tol = 1e-8, so
# any perturbation (0.1 % was tried) flips its relaxed iterations between
# [1, 1], [2, 1] and [3, 1] and its cost between 0.7 s and 1.8 s.
PERTURBED_PRESETS = ("schrodinger_debye", "feedback_growth")
PERTURBATION = 0.01

# The lemmas keep the CLI's default seed. `slater` and
# `intersection-continuity` do because their cost depends on the seed far
# more than run-to-run noise allows: one `intersection-continuity` family
# takes 0.3 s to 9.7 s over seeds 1-12, and `slater --trials 100` makes
# 4.0k-5.6k projector calls over seeds 0-15 and 14.8k at seed 40.
# `projection-difference` does because on some seeds the program fails:
# at seed 1732327213, for one, the batched hull projection raises
# ProjectionDidNotConverge. The exact fallback
# `_wolfe_min_norm` stops at gap 9.5e-12 against a certificate of
# 8.3e-12 on a polytope with a thrice-repeated vertex.
# `test_workloads.py` keeps that seed as an expected failure, so the
# defect stays on record until the hull projector is fixed.
FIXED_LEMMA_SEED = 7
KNOWN_FAILING_PD_SEED = 1732327213

# Stored-reference tolerances. A converged solve stops once the selection
# residuals are <= tol = 1e-8; two correct runs may stop at different
# iterates of that tube, and the window maps are at most unit-Lipschitz in
# the forcing, so node norms may legitimately move by a few 1e-8 per
# window. 1e-6 relative leaves two orders of magnitude on top.
NORM_RTOL = 1e-6
# Verdict margins are printed with 4 significant digits: allow one flip of
# the last digit. Margins below 1e-9 are round-off-sized quantities (for
# example 1e-12 minus a propagator round-off error) that move with the
# floating-point evaluation order; their PASS verdict is checked instead.
MARGIN_RTOL = 2e-3
MARGIN_ATOL = 1e-9


@dataclass(frozen=True)
class Command:
    label: str               # names the command in cmd_s.<label>
    argv: tuple
    out_dir: Path | None = None   # where the command writes files
    tol: float | None = None      # solver tolerance, for solve commands


WORKLOADS = ("solve-presets", "lemma-geometry", "verify-flows")


def build_commands(workload: str, seed: int, root: Path,
                   work: Path) -> list:
    """Writes the workload's input files under `work`; returns its commands."""
    if workload == "solve-presets":
        return _solve_presets(seed, root, work)
    if workload == "lemma-geometry":
        s = str(FIXED_LEMMA_SEED)
        return [
            Command("projection-difference",
                    ("lemma", "projection-difference", "--trials", "1000",
                     "--seed", s)),
            Command("slater", ("lemma", "slater", "--trials", "100",
                               "--seed", s)),
            Command("intersection-continuity",
                    ("lemma", "intersection-continuity", "--trials", "1",
                     "--seed", s)),
        ]
    if workload == "verify-flows":
        rng = np.random.default_rng([seed, 100])
        t_min = 1e-4 * (1.0 + float(rng.uniform()))
        t_max = 1e-2 * (1.0 + float(rng.uniform()))
        out = work / "counterexample"
        return [
            Command("monotone", ("verify", "monotone", "--seed", str(seed))),
            Command("semigroup", ("verify", "semigroup", "--seed", str(seed))),
            Command("counterexample",
                    ("counterexample", "--modes", "100000", "--points", "100",
                     "--t-min", repr(t_min), "--t-max", repr(t_max),
                     "--out", str(out)), out_dir=out),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _solve_presets(seed: int, root: Path, work: Path) -> list:
    presets = root / "src" / "evoinc" / "presets"
    commands = []
    for index, name in enumerate(("heat_debye", "schrodinger_debye",
                                  "feedback_growth")):
        raw = json.loads((presets / f"{name}.json").read_text())
        raw["seed"] = seed
        if name in PERTURBED_PRESETS:
            rng = np.random.default_rng([seed, index])
            for part in ("u", "v"):
                spec = raw["initial"][part]
                for key in ("amplitude", "rate"):
                    if key in spec:
                        spec[key] *= 1.0 + PERTURBATION * float(
                            rng.uniform(-1.0, 1.0))
        config = work / "configs" / f"{name}.json"
        config.parent.mkdir(parents=True, exist_ok=True)
        config.write_text(json.dumps(raw, indent=2) + "\n")
        out = work / name
        commands.append(Command(name, ("solve", "--config", str(config),
                                       "--out", str(out)),
                                out_dir=out, tol=raw["solver"].get("tol",
                                                                    1e-8)))
    return commands


# ---------------------------------------------------------------------------
# outputs and checks


def collect_outputs(cmd: Command, stdout: str) -> dict:
    """Everything the command produced, as bytes, for byte comparison."""
    outputs = {"stdout": stdout.encode()}
    if cmd.out_dir is not None and cmd.out_dir.is_dir():
        for path in sorted(cmd.out_dir.iterdir()):
            outputs[path.name] = path.read_bytes()
    return outputs


def check_outputs(cmd: Command, rc, outputs: dict) -> list:
    """Problems with one command's result; an empty list means it passed."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    lines = outputs["stdout"].decode().splitlines()
    if any(line.startswith("FAIL") for line in lines):
        problems.append("FAIL line printed")
    if cmd.argv[0] in ("verify", "lemma"):
        if not lines or not all(line.startswith("PASS ") for line in lines):
            problems.append("expected only PASS lines")
    elif cmd.argv[0] == "solve":
        problems += _check_report(json.loads(outputs["report.json"]), cmd.tol)
    elif cmd.argv[0] == "counterexample":
        summary = json.loads(outputs["counterexample_summary.json"])
        slope = summary["slope"]
        # the rough-data deviation scales like sqrt(t)
        if slope is None or not 0.4 <= slope <= 0.6:
            problems.append(f"deviation slope {slope} outside [0.4, 0.6]")
    return problems


def _check_report(report: dict, tol: float) -> list:
    problems = []
    if not report["converged"] or report["blowup"]:
        problems.append("solve did not converge")
    for i, w in enumerate(report["windows"]):
        if not (w["residual_f"] <= tol and w["residual_g"] <= tol):
            problems.append(f"window {i}: residual above tol {tol}")
        if not w["apriori"]["passed"]:
            problems.append(f"window {i}: a-priori bound failed")
        if not w["membership_ok"]:
            problems.append(f"window {i}: membership bound failed")
    gronwall = report["gronwall"]
    if gronwall is None or not gronwall["passed"]:
        problems.append("exponential envelope not passed")
    return problems


def signature(cmd: Command, outputs: dict) -> dict:
    """The numbers compared against the stored reference."""
    if cmd.argv[0] == "solve":
        rows = list(csv.DictReader(outputs["trajectory.csv"].decode()
                                   .splitlines()))
        return {"u_norm": [float(r["u_norm"]) for r in rows],
                "v_norm": [float(r["v_norm"]) for r in rows]}
    if cmd.argv[0] == "counterexample":
        rows = list(csv.DictReader(outputs["counterexample.csv"].decode()
                                   .splitlines()))
        return {"norm": [float(r["norm"]) for r in rows]}
    checks, margins = [], []
    for line in outputs["stdout"].decode().splitlines():
        status, name, trials, margin = line.split()
        checks.append(f"{status} {name} {trials}")
        margins.append(float(margin.split("=", 1)[1]))
    return {"checks": checks, "margins": margins}


def compare_signature(got: dict, ref: dict) -> list:
    problems = []
    if set(got) != set(ref):
        return [f"reference keys {sorted(ref)} != {sorted(got)}"]
    for key, expected in ref.items():
        values = got[key]
        if len(values) != len(expected):
            problems.append(f"{key}: {len(values)} values, reference has "
                            f"{len(expected)}")
        elif key == "checks":
            if values != expected:
                problems.append(f"checks {values} != reference {expected}")
        else:
            rtol, atol = ((MARGIN_RTOL, MARGIN_ATOL) if key == "margins"
                          else (NORM_RTOL, NORM_RTOL))
            worst = max((abs(a - b) - rtol * abs(b) - atol
                         for a, b in zip(values, expected)
                         if not (math.isnan(a) and math.isnan(b))),
                        default=0.0)
            if worst > 0.0:
                problems.append(f"{key}: off the reference by {worst:.3e} "
                                "beyond tolerance")
    return problems
