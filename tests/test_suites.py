"""Grading of the property batteries by their Bounds, and the checks of
the monotone and solver suites in forked children."""

import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from conftest import assert_no_child_left, set_cpus

from evoinc import monotone as mono
from evoinc import semigroup as sg
from evoinc import solver as sv
from evoinc import suites
from evoinc.cli import main


def test_a_nan_margin_fails_its_check_wherever_it_comes():
    for margins in ([1.0, math.nan], [math.nan, 1.0], [2.0, math.nan, 1.0]):
        assert math.isnan(sv.Bound(0.0, np.array(margins), 0.0).margin)
        assert not sv.Bound(np.array(margins), 3.0, 0.0).passed
        result = suites.CheckResult.grade(
            "probe", len(margins), [sv.Bound(0.0, m, 0.0) for m in margins])
        assert math.isnan(result.worst_margin) and not result.passed
        assert result.line().startswith("FAIL probe trials=")


def test_margins_grade_by_their_minimum():
    bound = sv.Bound(np.array([1.0, 2.0]), 2.0, np.array([0.5, 0.0]))
    assert bound.margin == 0.0 and bound.passed
    assert not sv.Bound(1.0, 1.0, -1e-12).passed
    assert sv.Bound(np.empty(0), 0.0, 0.0).margin == math.inf
    result = suites.CheckResult.grade(
        "probe", 3, [sv.Bound(0.0, m, 0.0) for m in (0.5, 0.0, 2.0)])
    assert result == suites.CheckResult("probe", 3, 0.0) and result.passed
    assert not suites.CheckResult.grade(
        "probe", 2, [sv.Bound(0.0, 1.0, 0.0), sv.Bound(1e-9, 0.0, 0.0)]).passed
    # gates: a failing one prints -1.0 whatever the bounds; gates alone
    # print 1.0 when they hold
    assert suites.CheckResult.grade("probe", 1, gates=[True]).worst_margin \
        == 1.0
    for gate in (False, sv.Bound(1.0, 0.0, 0.0)):
        failed = suites.CheckResult.grade(
            "probe", 1, [sv.Bound(0.0, 5.0, 0.0)], [True, gate])
        assert failed.line() == "FAIL probe trials=1 worst_margin=-1.000e+00"


# ---------------------------------------------------------------------------
# a forced gate failure prints FAIL with a negative margin


def _fail_truncation(monkeypatch):
    monkeypatch.setattr(sg, "coefficient_tail_bound", lambda modes: 0.0)
    return suites.semigroup_battery(7, 1)


def _fail_yosida_stability(monkeypatch):
    monkeypatch.setattr(sv, "yosida_stability_check",
                        lambda *args: (sv.Bound(1.0, 0.0, 0.0),))
    return suites.semigroup_battery(7, 1)


def _fail_decrease(monkeypatch):
    # the first two oscillating flows swap, so the sups stop decreasing
    # while the graded last sup stays below 1e-3
    real = mono.solve_monotone_ivp

    def swapped(*args):
        base, first, second, *rest = real(*args)
        return [base, second, first, *rest]
    monkeypatch.setattr(mono, "solve_monotone_ivp", swapped)
    return [suites.complete_continuity_battery(7)]


def _fail_convergence(monkeypatch):
    real = sv.solve_window

    def unconverged(*args, **kwargs):
        sol = real(*args, **kwargs)
        return dataclasses.replace(
            sol, report=dataclasses.replace(sol.report, converged=False))
    monkeypatch.setattr(sv, "solve_window", unconverged)
    return [suites.linear_block_oracle_battery(7)]


def _assert_verdicts_are_margin_signs(results):
    for result in results:
        status, _, _, margin = result.line().split()
        assert (status == "PASS") == (float(margin.split("=")[1]) >= 0.0), \
            result.line()


@pytest.mark.parametrize("check, fail", [
    ("rough-data-profile", _fail_truncation),
    ("yosida-ladder", _fail_yosida_stability),
    ("complete-continuity", _fail_decrease),
    ("linear-block-oracle", _fail_convergence)])
def test_a_failing_gate_prints_fail_with_a_negative_margin(monkeypatch, check,
                                                           fail):
    results = fail(monkeypatch)
    _assert_verdicts_are_margin_signs(results)
    failed = next(r for r in results if r.name == check)
    assert failed.line().startswith(f"FAIL {check} trials=")
    assert failed.line().endswith(" worst_margin=-1.000e+00")


def test_gronwall_negative_control_fails_its_gate_on_a_run_that_stops(
        monkeypatch):
    real = suites._preset_run

    def unconverged(name):
        run, exp = real(name)
        return dataclasses.replace(run, converged=False), exp
    monkeypatch.setattr(suites, "_preset_run", unconverged)
    assert suites.gronwall_negative_control().line() == \
        "FAIL gronwall-negative-control trials=1 worst_margin=-1.000e+00"


# ---------------------------------------------------------------------------
# the flow checks of `verify monotone` in forked children


# `verify monotone` as printed before its flow checks moved to children
MONOTONE_LINES = {
    1: """\
PASS gradient-consistency trials=200 worst_margin=1.000e-05
PASS prox-nonexpansive trials=50 worst_margin=6.886e-01
PASS dissipation trials=8 worst_margin=1.022e-07
PASS discrete-apriori-bound trials=8 worst_margin=1.000e-08
PASS monotonicity trials=1000 worst_margin=1.042e+04
PASS p2-spectral-oracle trials=1 worst_margin=1.000e-06
PASS complete-continuity trials=5 worst_margin=1.000e-03
""",
    7: """\
PASS gradient-consistency trials=200 worst_margin=1.000e-05
PASS prox-nonexpansive trials=50 worst_margin=6.706e-01
PASS dissipation trials=8 worst_margin=3.245e-08
PASS discrete-apriori-bound trials=8 worst_margin=1.000e-08
PASS monotonicity trials=1000 worst_margin=1.248e+04
PASS p2-spectral-oracle trials=1 worst_margin=1.000e-06
PASS complete-continuity trials=5 worst_margin=1.000e-03
""",
}


def _starved_continuity(seed):
    """complete-continuity with no Newton iteration: its first step that
    needs one raises ProxDidNotConverge."""
    iters = mono.PROX_NEWTON_ITERS
    mono.PROX_NEWTON_ITERS = 0
    try:
        return _COMPLETE_CONTINUITY(seed)
    finally:
        mono.PROX_NEWTON_ITERS = iters


_COMPLETE_CONTINUITY = suites.complete_continuity_battery


@pytest.mark.parametrize("seed", [1, 7])
def test_verify_monotone_forked_and_inline_agree(monkeypatch, capsys, seed):
    runs = {}
    run_suite = suites.run_suite

    def recorded(*args, **kwargs):
        results = run_suite(*args, **kwargs)
        runs[cpus] = results
        return results

    monkeypatch.setattr(suites, "run_suite", recorded)
    for cpus in (2, 1):
        set_cpus(monkeypatch, cpus)
        assert main(["verify", "monotone", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == MONOTONE_LINES[seed]
        assert_no_child_left()
    # every bit of every margin, not only the printed digits
    assert runs[2] == runs[1]


def test_a_flow_check_raising_in_its_child_raises_in_the_parent(monkeypatch,
                                                                capsys):
    monkeypatch.setattr(suites, "complete_continuity_battery",
                        _starved_continuity)
    raised = {}
    for cpus in (2, 1):
        set_cpus(monkeypatch, cpus)
        with pytest.raises(mono.ProxDidNotConverge) as exc:
            main(["verify", "monotone", "--seed", "1"])
        raised[cpus] = exc.value
        assert_no_child_left()
    assert capsys.readouterr().out == ""
    forked, inline = raised[2], raised[1]
    assert type(forked) is type(inline)
    assert forked.residual == inline.residual and math.isfinite(
        forked.residual)
    assert str(forked) == str(inline)


# `verify solver --seed 7` as printed before its elementary-bound battery
# moved to a child
SOLVER_LINES = """\
PASS singleton-one-iteration trials=1 worst_margin=1.000e+00
PASS linear-block-oracle trials=1 worst_margin=1.000e-05
PASS window-params trials=21 worst_margin=1.000e-12
PASS preset-heat_debye trials=2 worst_margin=2.029e-10
PASS preset-schrodinger_debye trials=2 worst_margin=6.703e-10
PASS gronwall-negative-control trials=1 worst_margin=3.779e-01
PASS elementary-bound trials=100 worst_margin=6.556e-09
"""


def test_verify_solver_forked_and_inline_agree(monkeypatch, capsys):
    pids = []
    real = suites.elementary_bound_battery

    def recorded(*args):
        pids.append(os.getpid())
        return real(*args)

    monkeypatch.setattr(suites, "elementary_bound_battery", recorded)
    results = {}
    for cpus in (2, 1):
        set_cpus(monkeypatch, cpus)
        results[cpus] = suites.run_suite("solver", 7)
        assert "\n".join(r.line() for r in results[cpus]) + "\n" \
            == SOLVER_LINES
        assert_no_child_left()
    # the forked run's battery ran in a child, whose record stayed there
    assert pids == [os.getpid()]
    assert results[2] == results[1]


def test_verify_monotone_writes_buffered_output_once():
    # stdout to a pipe is block-buffered, so the marker sits in the buffer
    # while the children are forked: a child that flushed it, or ran the
    # interpreter's exit, would write it twice
    script = """\
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from evoinc import monotone as mono, suites
from evoinc.cli import main
sys.stdout.write("marker before\\n")
assert main(["verify", "monotone", "--seed", "7"]) == 0
sys.stdout.write("marker between\\n")
original = suites.complete_continuity_battery
def starved(seed):
    mono.PROX_NEWTON_ITERS = 0
    return original(seed)
suites.complete_continuity_battery = starved
try:
    main(["verify", "monotone", "--seed", "7"])
except mono.ProxDidNotConverge as exc:
    sys.stdout.write(f"raised {exc.residual!r}\\n")
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.stdout.write("no child left\\n")
"""
    src = pathlib.Path(suites.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "marker before"
    assert "\n".join(lines[1:8]) + "\n" == MONOTONE_LINES[7]
    assert lines[8] == "marker between"
    assert lines[9].startswith("raised ") and len(lines) == 11
    assert lines[10] == "no child left"
