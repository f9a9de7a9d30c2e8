"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every criterion runs at its stated tolerance and wall-clock budget. Run with
`pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import time

import numpy as np

from evoinc import semigroup as sg
from evoinc import suites
from evoinc.cli import main as cli_main


def _verdict(name: str, ok: bool, elapsed: float, budget: float, detail: str):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"{status} {name} ({elapsed:.1f}s / budget {budget:.0f}s): {detail}")
    assert ok, detail
    assert elapsed <= budget, f"{name} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_rough_data_profile():
    start = time.time()
    t_list = np.logspace(-4, -2, 25)
    profile = sg.counterexample_profile(2000, t_list)
    ratio_factor = (sg.deviation_norm(2000, 1e-6) / 1e-6) \
        / (sg.deviation_norm(2000, 1e-2) / 1e-2)
    elapsed = time.time() - start
    ok = 0.4 <= profile.slope <= 0.6 and 80.0 <= ratio_factor <= 120.0
    _verdict("criterion-1 rough-data order", ok, elapsed, 5.0,
             f"slope={profile.slope:.4f} ratio_factor={ratio_factor:.1f}")


def test_criterion_2_projection_difference():
    start = time.time()
    result = suites.projection_difference_battery(seed=7, trials=1000)
    elapsed = time.time() - start
    _verdict("criterion-2 projection-difference bound", result.passed,
             elapsed, 30.0,
             f"trials=1000 worst_margin={result.worst_margin:.3e}")


def test_criterion_3_interior_witness_bound():
    start = time.time()
    result = suites.slater_battery(seed=7, trials=500)
    elapsed = time.time() - start
    _verdict("criterion-3 interior-witness bound", result.passed, elapsed,
             60.0, f"trials=500 worst_margin={result.worst_margin:.3e}")


def test_criterion_4_intersection_continuity():
    start = time.time()
    result = suites.intersection_continuity_battery(seed=7, trials=10)
    elapsed = time.time() - start
    _verdict("criterion-4 intersection continuity", result.passed, elapsed,
             60.0, f"families=10 worst_margin={result.worst_margin:.3e}")


def test_criterion_5_close_selections():
    start = time.time()
    results = suites.selection_battery(seed=7, trials=100)
    elapsed = time.time() - start
    tube = next(r for r in results if r.name == "close-selection-l2-bound")
    _verdict("criterion-5 eps-close selections", tube.passed, elapsed, 60.0,
             f"instances=100 worst_margin={tube.worst_margin:.3e}")


def test_criterion_6_semigroup_algebra():
    start = time.time()
    results = suites.semigroup_battery(seed=7)
    elapsed = time.time() - start
    wanted = {"semigroup-law", "isometry-contraction",
              "duhamel-integrator-oracle", "yosida-ladder"}
    checked = [r for r in results if r.name in wanted]
    ok = len(checked) == len(wanted) and all(r.passed for r in checked)
    _verdict("criterion-6 semigroup algebra", ok, elapsed, 60.0,
             "; ".join(f"{r.name}={r.worst_margin:.2e}" for r in checked))


def test_criterion_7_monotone_flow():
    start = time.time()
    results = suites.monotone_battery(seed=7)
    elapsed = time.time() - start
    wanted = {"gradient-consistency", "p2-spectral-oracle", "dissipation",
              "discrete-apriori-bound", "monotonicity"}
    checked = [r for r in results if r.name in wanted]
    ok = len(checked) == len(wanted) and all(r.passed for r in checked)
    _verdict("criterion-7 monotone flow", ok, elapsed, 120.0,
             "; ".join(f"{r.name}={r.worst_margin:.2e}" for r in checked))


def test_criterion_8_coupled_solver():
    start = time.time()
    results = suites.solver_battery(seed=7)
    elapsed = time.time() - start
    wanted = {"singleton-one-iteration", "linear-block-oracle",
              "preset-heat_debye", "preset-schrodinger_debye",
              "gronwall-negative-control"}
    checked = [r for r in results if r.name in wanted]
    ok = len(checked) == len(wanted) and all(r.passed for r in checked)
    _verdict("criterion-8 coupled solver", ok, elapsed, 300.0,
             "; ".join(f"{r.name}={'ok' if r.passed else 'FAIL'}"
                       for r in checked))


def test_criterion_9_elementary_bound():
    start = time.time()
    result = suites.elementary_bound_battery(seed=7, trials=100)
    elapsed = time.time() - start
    _verdict("criterion-9 elementary bound", result.passed, elapsed, 10.0,
             f"trials=100 worst_margin={result.worst_margin:.3e}")


# `verify all --seed 7`, line for line: a change that moves a line
# re-records it here
VERIFY_ALL_SEED_7 = """\
PASS projection-nonexpansive trials=200 worst_margin=1.000e-08
PASS variational-certificate trials=200 worst_margin=1.349e-09
PASS hausdorff-metric-properties trials=100 worst_margin=1.000e-09
PASS projection-difference-bound trials=1000 worst_margin=4.409e+00
PASS slater-intersection-bound trials=500 worst_margin=1.000e-08
PASS intersection-continuity trials=10 worst_margin=4.761e-03
PASS close-selection-l2-bound trials=100 worst_margin=3.660e-02
PASS selection-convexity-closure trials=25 worst_margin=1.000e-08
PASS path-norm-analytic trials=1 worst_margin=9.986e-07
PASS semigroup-law trials=300 worst_margin=9.213e-13
PASS isometry-contraction trials=300 worst_margin=9.982e-13
PASS duhamel-linearity trials=3 worst_margin=1.000e-10
PASS duhamel-integrator-oracle trials=3 worst_margin=9.959e-07
PASS yosida-ladder trials=3 worst_margin=3.228e-04
PASS rough-data-profile trials=25 worst_margin=9.786e-02
PASS gradient-consistency trials=200 worst_margin=1.000e-05
PASS prox-nonexpansive trials=50 worst_margin=6.706e-01
PASS dissipation trials=8 worst_margin=3.245e-08
PASS discrete-apriori-bound trials=8 worst_margin=1.000e-08
PASS monotonicity trials=1000 worst_margin=1.248e+04
PASS p2-spectral-oracle trials=1 worst_margin=1.000e-06
PASS complete-continuity trials=5 worst_margin=1.000e-03
PASS singleton-one-iteration trials=1 worst_margin=1.000e+00
PASS linear-block-oracle trials=1 worst_margin=1.000e-05
PASS window-params trials=21 worst_margin=1.000e-12
PASS preset-heat_debye trials=2 worst_margin=2.029e-10
PASS preset-schrodinger_debye trials=2 worst_margin=6.703e-10
PASS gronwall-negative-control trials=1 worst_margin=3.779e-01
PASS elementary-bound trials=100 worst_margin=6.556e-09
"""


def test_criterion_10_determinism(tmp_path, capsys):
    start = time.time()
    lines_a = [r.line() for r in suites.run_suite("all", seed=7)]
    lines_b = [r.line() for r in suites.run_suite("all", seed=7)]
    suites_same = lines_a == lines_b == VERIFY_ALL_SEED_7.splitlines()

    from evoinc.config import preset_path
    for name in ("a", "b"):
        code = cli_main(["solve", "--config", str(preset_path("heat_debye")),
                         "--out", str(tmp_path / name)])
        assert code == 0
    capsys.readouterr()
    files_same = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("report.json", "trajectory.csv", "config_echo.json"))
    elapsed = time.time() - start
    with capsys.disabled():
        _verdict("criterion-10 determinism", suites_same and files_same,
                 elapsed, 600.0,
                 f"verify-all lines identical and golden={suites_same} "
                 f"solve bytes identical={files_same}")
