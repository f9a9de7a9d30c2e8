"""Command-line surface: formats, exit codes, determinism."""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import evoinc
from evoinc import config
from evoinc.cli import main
from evoinc.config import (MAX_EXPONENT, MAX_WINDOWS, ConfigError,
                           build_experiment, preset_path)
from evoinc.solver import THETA_FLOOR


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# verify


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


def test_verify_selection_suite_passes(capsys):
    assert main(["verify", "selection", "--trials", "10"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out and all(line.startswith("PASS") for line in out)
    assert all("trials=" in line and "worst_margin=" in line for line in out)


def test_python_m_evoinc_runs_the_command_line():
    src = str(pathlib.Path(evoinc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "evoinc", "verify", "semigroup", "--trials",
         "1"], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    out = done.stdout.strip().splitlines()
    assert out and all(line.startswith("PASS") for line in out)


def test_verify_is_deterministic(capsys):
    main(["verify", "selection", "--trials", "5", "--seed", "3"])
    first = capsys.readouterr().out
    main(["verify", "selection", "--trials", "5", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("command", [
    "lemma slater --trials -5",
    "lemma slater --trials 0",
    "lemma intersection-continuity --trials two",
    "verify convex --trials -3",
    "lemma slater --seed -1",
    "verify selection --seed -1",
    "counterexample --modes 10000000000000",
    "counterexample --points 10000000000000",
    "counterexample --modes 0",
    "counterexample --points 0",
])
def test_invalid_trials_and_seed_are_usage_errors(capsys, command):
    argv = command.split()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}:" in err and "Traceback" not in err


@pytest.mark.parametrize("suite", ["convex", "selection", "monotone"])
def test_verify_one_trial_runs_every_check(capsys, suite):
    assert main(["verify", suite, "--trials", "1", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out and "trials=0 " not in out


def test_verify_convex_trials_set_the_continuity_family_count(capsys):
    assert main(["verify", "convex", "--trials", "1", "--seed", "7"]) == 0
    assert "PASS intersection-continuity trials=1 " in capsys.readouterr().out


# ---------------------------------------------------------------------------
# counterexample


def test_counterexample_outputs_and_determinism(tmp_path, capsys):
    args = ["counterexample", "--modes", "200", "--points", "9"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    csv_a = _read(tmp_path / "a" / "counterexample.csv")
    csv_b = _read(tmp_path / "b" / "counterexample.csv")
    assert csv_a == csv_b
    assert csv_a.startswith(b"t,norm,ratio\n")
    assert b"\r" not in csv_a
    summary = json.loads(_read(tmp_path / "a" / "counterexample_summary.json"))
    assert set(summary) == {"format_version", "slope", "modes", "tail_bound"}
    assert 0.4 <= summary["slope"] <= 0.6


def test_counterexample_degenerate_range_reports_null_slope(tmp_path, capsys):
    code = main(["counterexample", "--modes", "50", "--t-min", "1e-3",
                 "--t-max", "1e-3", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    summary = json.loads(_read(tmp_path / "counterexample_summary.json"))
    assert summary["slope"] is None
    rows = _read(tmp_path / "counterexample.csv").decode().strip().splitlines()
    assert len(rows) == 2  # header plus the single sample


def test_counterexample_invalid_range_is_usage_error(tmp_path, capsys):
    code = main(["counterexample", "--t-min", "0.0", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 2
    code = main(["counterexample", "--t-min", "0.5", "--t-max", "0.1",
                 "--out", str(tmp_path / "x")])
    capsys.readouterr()
    assert code == 2
    assert not (tmp_path / "x").exists()


def test_counterexample_out_that_is_a_file_is_usage_error(tmp_path, capsys):
    existing = tmp_path / "taken"
    existing.write_text("keep me\n")
    code = main(["counterexample", "--points", "2", "--out", str(existing)])
    err = capsys.readouterr().err
    assert code == 2
    assert "--out" in err and "not a directory" in err
    assert existing.read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


# ---------------------------------------------------------------------------
# solve


def test_solve_preset_heat(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve", "--config", str(preset_path("heat_debye")),
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(_read(out / "report.json"))
    assert report["converged"] is True
    assert report["gronwall"]["passed"] is True
    assert "failure" not in report
    for window in report["windows"]:
        assert window["residual_f"] <= 1e-8
        assert window["apriori"]["passed"] is True
        assert window["membership_ok"] is True
    header = _read(out / "trajectory.csv").decode().splitlines()[0]
    assert header == "t,u_norm,v_norm,residual_f,residual_g"
    echo = json.loads(_read(out / "config_echo.json"))
    assert echo == json.loads(_read(preset_path("heat_debye")))


def test_solve_out_below_a_file_is_usage_error(tmp_path, capsys):
    existing = tmp_path / "taken"
    existing.write_text("keep me\n")
    code = main(["solve", "--config", str(preset_path("heat_debye")),
                 "--out", str(existing / "sub")])
    err = capsys.readouterr().err
    assert code == 2
    assert "--out" in err and "not a directory" in err
    assert existing.read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


# each exponent profile kind with its smallest exponent set to `low`
P_PROFILE_WITH_MIN = {
    "constant": lambda low: {"kind": "constant", "value": low},
    "ramp": lambda low: {"kind": "ramp", "low": low, "high": 3.0},
    "bump": lambda low: {"kind": "bump", "base": low, "amplitude": 1.0}}


def test_solve_rejects_p_below_two(tmp_path, capsys):
    below = math.nextafter(2.0, 0.0)
    for kind, profile in P_PROFILE_WITH_MIN.items():
        cfg = json.loads(_read(preset_path("heat_debye")))
        cfg["spatial"]["p_profile"] = profile(below)
        bad = tmp_path / f"{kind}.json"
        bad.write_text(json.dumps(cfg))
        out = tmp_path / "should_not_exist"
        code = main(["solve", "--config", str(bad), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config.spatial.p_profile: exponents must be >= 2" in err
        assert not out.exists()  # schema rejection leaves no partial files


def test_solve_with_p_two_exits_zero(tmp_path):
    cfg = json.loads(_read(preset_path("heat_debye")))
    cfg["spatial"]["p_profile"] = P_PROFILE_WITH_MIN["constant"](2.0)
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads(_read(out / "report.json"))["converged"] is True


def test_solve_rejects_oracle_p2_key(tmp_path, capsys):
    cfg = json.loads(_read(preset_path("heat_debye")))
    cfg["spatial"]["oracle_p2"] = True
    cfg["spatial"]["p_profile"] = P_PROFILE_WITH_MIN["constant"](2.0)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "should_not_exist"
    code = main(["solve", "--config", str(bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config.spatial.oracle_p2: unknown key" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_solve_rejects_unknown_key_naming_it(tmp_path, capsys):
    cfg = json.loads(_read(preset_path("heat_debye")))
    cfg["extra_setting"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code = main(["solve", "--config", str(bad), "--out",
                 str(tmp_path / "nope")])
    err = capsys.readouterr().err
    assert code == 2
    assert "extra_setting" in err
    assert not (tmp_path / "nope").exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "utf-16-bom",
                                  "nested-100000-deep"])
def test_solve_rejects_unreadable_config(tmp_path, capsys, kind):
    config = tmp_path / "config.json"
    if kind == "directory":
        config.mkdir()
    elif kind == "utf-16-bom":
        config.write_bytes(b"\xff\xfe{}")
    elif kind == "nested-100000-deep":
        config.write_text("[" * 100_000 + "]" * 100_000)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert str(config) in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name, mutate", [
    ("config.time.horizon",
     lambda cfg: cfg["time"].update(horizon=float("nan"))),
    ("config.solver.tol",
     lambda cfg: cfg["solver"].update(tol=float("inf"))),
    ("config.rhs_f.coefficients[0].c",
     lambda cfg: cfg["rhs_f"]["coefficients"][0].update(c=float("nan"))),
    # finite, but its growth envelope sqrt(2) c overflows
    ("config.rhs_f",
     lambda cfg: cfg["rhs_f"]["coefficients"][0].update(c=1.7e308)),
    # an integer too large for a float
    pytest.param("config.time.horizon",
                 lambda cfg: cfg["time"].update(horizon=10 ** 400),
                 id="config.time.horizon-huge-integer"),
    pytest.param("config.initial.v.mode",
                 lambda cfg: cfg["initial"].update(
                     v={"kind": "mode", "mode": 10 ** 400}),
                 id="config.initial.v.mode-huge-integer"),
])
def test_solve_rejects_non_finite_numbers(tmp_path, capsys, name, mutate):
    cfg = json.loads(_read(preset_path("heat_debye")))
    mutate(cfg)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))  # writes the NaN / Infinity literals
    out = tmp_path / "out"
    code = main(["solve", "--config", str(bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert name in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("c", [1e200, 1e300])
def test_solve_with_huge_finite_envelope_fails_by_name(tmp_path, capsys, c):
    # the envelope is finite, so validation accepts the config; the window
    # it admits, (m / r)^2, underflows to 0, which the solve names
    cfg = json.loads(_read(preset_path("heat_debye")))
    cfg["rhs_f"]["coefficients"][0]["c"] = c
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["solve", "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    reason = "SolverError: window length (m / r)^2 underflows to 0"
    assert f"failed: {reason}" in err
    assert "Traceback" not in err
    report = json.loads(_read(out / "report.json"))
    assert report["converged"] is False
    assert report["failure"].startswith(reason)


def _values_at(cfg, where, values):
    """Sets a `values` list at one of the three places a config takes one:
    the initial u, the initial v, or the direction of rhs_g's first inner
    product; returns that list's config path."""
    if where == "direction":
        spec = cfg["rhs_g"]["coefficients"][0]["expr"]["child"]["child"]
        spec["direction"] = {"kind": "values", "values": values}
        return ("config.rhs_g.coefficients[0].expr.child.child.direction"
                ".values")
    cfg["initial"][where] = {"kind": "values", "values": values}
    return f"config.initial.{where}.values"


@pytest.mark.parametrize("where, size", [
    ("u", 8), ("v", 15), ("direction", 8)])
@pytest.mark.parametrize("entry, message", [
    ("a", "expected a number"),
    ("1.5", "expected a number"),
    (True, "expected a number"),
    (float("nan"), "must be finite"),
])
def test_solve_rejects_bad_value_list_entries(tmp_path, capsys, where, size,
                                              entry, message):
    cfg = json.loads(_read(preset_path("heat_debye")))
    values = [0.1] * size
    values[2] = entry
    path = _values_at(cfg, where, values)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["solve", "--config", str(bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{path}[2]: {message}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("where, size", [
    ("u", 8), ("v", 15), ("direction", 8)])
def test_config_value_lists_are_read_exactly(where, size):
    cfg = json.loads(_read(preset_path("heat_debye")))
    values = [0.25 * i - 1.0 for i in range(size)]
    values[1] = 3  # an integer entry is a number too
    _values_at(cfg, where, values)
    exp = build_experiment(cfg)
    if where == "direction":
        got = exp.rhs_g.coefficients[0].expr.child.child.direction
    else:
        got = exp.u0 if where == "u" else exp.v0
    assert got.tolist() == [float(x) for x in values]


def test_solve_rejects_zero_tolerance(tmp_path, capsys):
    cfg = json.loads(_read(preset_path("heat_debye")))
    cfg["solver"]["tol"] = 0.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["solve", "--config", str(bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config.solver.tol" in err
    assert not out.exists()


@pytest.mark.parametrize("theta", [1e-9, 2.0 ** -10])
def test_solve_rejects_theta_below_twice_the_floor(tmp_path, capsys, theta):
    # the first residual growth would halve theta under THETA_FLOOR and
    # stop the window after two iterations
    cfg = json.loads(_read(preset_path("heat_debye")))
    cfg["solver"]["theta"] = theta
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code = main(["solve", "--config", str(bad), "--out",
                 str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config.solver.theta: must be >= {2 * THETA_FLOOR}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_config_accepts_theta_at_twice_the_floor():
    cfg = json.loads(_read(preset_path("heat_debye")))
    cfg["solver"]["theta"] = 2.0 ** -9
    assert build_experiment(cfg).settings.theta == 2 * THETA_FLOOR


@pytest.mark.parametrize("start", [0.5, 1.0])
def test_solve_rejects_linear_decay_reaching_zero(tmp_path, capsys, start):
    # D(t) = start - t must stay positive up to the horizon 1.0
    cfg = json.loads(_read(preset_path("heat_debye")))
    cfg["spatial"]["d_profile"]["start"] = start
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["solve", "--config", str(bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config.spatial.d_profile.start" in err
    assert not out.exists()


def test_solve_blowup_before_first_window(tmp_path, capsys):
    cfg = json.loads(_read(preset_path("heat_debye")))
    cfg["initial"]["u"]["amplitude"] = 1e300
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["solve", "--config", str(bad), "--out", str(out)])
    capsys.readouterr()
    assert code == 1
    assert _read(out / "trajectory.csv") \
        == b"t,u_norm,v_norm,residual_f,residual_g\n"
    report = json.loads(_read(out / "report.json"))
    assert report["blowup"] is True
    assert report["converged"] is False
    assert report["windows"] == []


def _set_steep_exponent(cfg):
    cfg["spatial"]["p_profile"] = {"kind": "constant", "value": 200}


def _set_overflowing_exponent(cfg):
    # the energy's powers overflow at the largest exponent validation
    # admits: a named failure, and no numpy warning (tier-1 turns
    # RuntimeWarning into an error)
    cfg["spatial"]["p_profile"] = {"kind": "constant",
                                   "value": MAX_EXPONENT}


def _set_zero_pivot_exponent(cfg):
    # a Newton system of the first step cancels a pivot to exactly 0: the
    # step ends at once, and the report names the NaN residual
    cfg["spatial"]["p_profile"]["high"] = 512


@pytest.mark.parametrize("mutate, failure", [
    (_set_steep_exponent, "ProxDidNotConverge: "),
    (_set_overflowing_exponent, "ProxDidNotConverge: "),
    (_set_zero_pivot_exponent,
     "ProxDidNotConverge: inner solver left gradient residual nan"),
], ids=["steep-exponent", "overflowing-exponent", "zero-pivot"])
def test_solve_time_failure_writes_report(tmp_path, capsys, mutate, failure):
    cfg = json.loads(_read(preset_path("heat_debye")))
    mutate(cfg)
    bad = tmp_path / "failing.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["solve", "--config", str(bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    report = json.loads(_read(out / "report.json"))
    assert report["converged"] is False
    assert report["failure"].startswith(failure)
    assert report["windows"] == []
    assert _read(out / "trajectory.csv") \
        == b"t,u_norm,v_norm,residual_f,residual_g\n"


@pytest.mark.parametrize("key, profile", [
    ("value", {"kind": "constant", "value": 1e300}),
    ("high", {"kind": "ramp", "low": 2.4, "high": MAX_EXPONENT + 1}),
    ("low", {"kind": "ramp", "low": 1e9, "high": 3.0}),
    ("base", {"kind": "bump", "base": 2000.0, "amplitude": -1000.0}),
    ("amplitude", {"kind": "bump", "base": 2.6, "amplitude": MAX_EXPONENT}),
])
def test_solve_rejects_exponents_above_the_ceiling(tmp_path, capsys, key,
                                                   profile):
    cfg = json.loads(_read(preset_path("heat_debye")))
    cfg["spatial"]["p_profile"] = profile
    bad = tmp_path / "steep.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["solve", "--config", str(bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert f"config.spatial.p_profile.{key}" in err and str(MAX_EXPONENT) in err
    assert not out.exists()


def test_solve_rejects_a_horizon_of_too_many_windows(tmp_path, capsys):
    # a growth constant of 1e9 makes the first window 3.4e-19 long, so the
    # horizon 2 would take 5.8e18 windows
    cfg = json.loads(_read(preset_path("feedback_growth")))
    cfg["rhs_f"]["coefficients"][1]["c"] = 1e9
    bad = tmp_path / "endless.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["solve", "--config", str(bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert "config.time.horizon" in err and "3.431e-19" in err
    assert str(MAX_WINDOWS) in err
    assert not out.exists()


def test_preset_window_counts_lie_within_the_budget():
    # the bundled presets need 2, 2 and 7.3 windows; the same config with
    # a window cap of horizon / (MAX_WINDOWS + 1) is refused
    for name in ("heat_debye", "schrodinger_debye", "feedback_growth"):
        cfg = json.loads(_read(preset_path(name)))
        build_experiment(cfg)
        cfg["time"]["max_window"] = cfg["time"]["horizon"] / (MAX_WINDOWS + 1)
        with pytest.raises(ConfigError, match="config.time.horizon"):
            build_experiment(cfg)


def test_solve_reports_why_each_window_stopped(tmp_path, capsys):
    for name, budget in (("heat_debye", 200), ("heat_debye", 1)):
        cfg = json.loads(_read(preset_path(name)))
        cfg["solver"]["max_iter"] = budget
        config = tmp_path / f"{budget}.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / f"out{budget}"
        main(["solve", "--config", str(config), "--out", str(out)])
        report = json.loads(_read(out / "report.json"))
        reasons = [w["stop_reason"] for w in report["windows"]]
        assert reasons == (["tolerance"] * 2 if budget > 1 else ["budget"])
    capsys.readouterr()


def test_solve_nonconvergence_exits_one_with_partial_output(tmp_path, capsys):
    cfg = json.loads(_read(preset_path("heat_debye")))
    cfg["solver"]["max_iter"] = 1
    bad = tmp_path / "starved.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "partial"
    code = main(["solve", "--config", str(bad), "--out", str(out)])
    capsys.readouterr()
    assert code == 1
    report = json.loads(_read(out / "report.json"))
    assert report["converged"] is False
    assert report["failure_index"] == 0
    assert "failure" not in report


def test_solve_outputs_are_byte_deterministic(tmp_path, capsys):
    for name in ("a", "b"):
        main(["solve", "--config", str(preset_path("schrodinger_debye")),
              "--out", str(tmp_path / name)])
    capsys.readouterr()
    for fname in ("report.json", "trajectory.csv", "config_echo.json"):
        assert _read(tmp_path / "a" / fname) == _read(tmp_path / "b" / fname)


# SHA-256 of each bundled preset's solve outputs. A change that moves any
# byte of them fails here; if the move is intended, re-record with
#   evoinc solve --config src/evoinc/presets/<name>.json --out <dir>
#   sha256sum <dir>/report.json <dir>/trajectory.csv
# and say in the change's notes why the bytes moved.
PRESET_OUTPUT_SHA256 = {
    "heat_debye": (
        "85b32ea5acfdb2986b739ae16f535a10dd7eb394fa802bfefb6c7ee575dcb700",
        "05291d29158587768c81757badacca10e1e25176c02608e668b9d3e52a40f684"),
    "schrodinger_debye": (
        "e141edaab6dfa2b14d436c1a7433ddaf68904c41dbbb94661320615b6e563835",
        "a94451304df4965e0f234411e92139f62475ab7f4c743df765916d8afd32a771"),
    "feedback_growth": (
        "300c7561ec8646180651d750fd2491fac342cf8436f7a182b7065aca7b9820e1",
        "49958c1cf25c1f2c4456251a6cdbce656b77643e210b35f5deb25a91fa0fde99"),
}


@pytest.mark.parametrize("name", sorted(PRESET_OUTPUT_SHA256))
def test_preset_solve_outputs_match_their_digests(tmp_path, capsys, name):
    out = tmp_path / name
    assert main(["solve", "--config", str(preset_path(name)),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    digests = tuple(hashlib.sha256(_read(out / fname)).hexdigest()
                    for fname in ("report.json", "trajectory.csv"))
    assert digests == PRESET_OUTPUT_SHA256[name]


# ---------------------------------------------------------------------------
# lemma


def test_lemma_commands_pass(capsys):
    assert main(["lemma", "projection-difference", "--trials", "50"]) == 0
    assert main(["lemma", "slater", "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert "projection-difference-bound" in out
    assert "slater-intersection-bound" in out


# ---------------------------------------------------------------------------
# config schema details


def test_config_rejects_nested_unknown_key():
    raw = json.loads(_read(preset_path("heat_debye")))
    raw["generator"]["extra"] = 1
    with pytest.raises(ConfigError) as err:
        build_experiment(raw)
    assert "generator.extra" in str(err.value)


def test_config_accepts_p_two_profiles():
    for profile in P_PROFILE_WITH_MIN.values():
        raw = json.loads(_read(preset_path("heat_debye")))
        raw["spatial"]["p_profile"] = profile(2.0)
        pot = build_experiment(raw).potential
        assert pot.exponents.min() == 2.0


def test_config_validates_rhs_direction_dimensions():
    raw = json.loads(_read(preset_path("heat_debye")))
    raw["rhs_g"]["coefficients"][0]["expr"]["child"]["child"]["direction"] = {
        "kind": "values", "values": [1.0, 2.0]}
    with pytest.raises(ConfigError):
        build_experiment(raw)


def _inner(arg):
    return {"op": "inner", "arg": arg,
            "direction": {"kind": "unit", "index": 0}}


@pytest.mark.parametrize("path, coefficient, message", [
    ("config.rhs_g.coefficients[0].expr",
     {"form": "general", "expr": {"op": "clamp", "lo": 1.0, "hi": -1.0,
                                  "child": _inner("u")}},
     "clamp needs lo <= hi"),
    ("config.rhs_g.coefficients[0].expr",
     {"form": "general", "expr": _inner("u")},
     "structurally finite sup bound"),
    ("config.rhs_g.coefficients[0].nu",
     {"form": "growth", "c": 0.1,
      "nu": {"op": "tanh", "child": _inner("u")}},
     "must not depend on u"),
    ("config.rhs_g.coefficients[0].nu",
     {"form": "growth", "c": 0.1, "nu": _inner("v")},
     "needs a finite bound"),
], ids=["clamp-lo-above-hi", "general-bare-inner", "growth-nu-reads-u",
        "growth-nu-unbounded"])
def test_solve_rejects_bad_coefficients_naming_them(tmp_path, capsys, path,
                                                    coefficient, message):
    cfg = json.loads(_read(preset_path("heat_debye")))
    cfg["rhs_g"]["coefficients"][0] = coefficient
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["solve", "--config", str(bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{path}: " in err and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("side, key, value", [
    ("rhs_f", "expr", {"op": "const", "value": 1e150}),
    ("rhs_g", "c", 1e150),
], ids=["growth", "general"])
def test_solve_rejects_a_key_of_another_coefficient_form(tmp_path, capsys,
                                                         side, key, value):
    # `expr` belongs to general coefficients and `c` to growth ones; on the
    # other form each used to be read as nothing
    cfg = json.loads(_read(preset_path("feedback_growth")))
    cfg[side]["coefficients"][0][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code = main(["solve", "--config", str(bad), "--out",
                 str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config.{side}.coefficients[0].{key}: unknown key" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize("expr, foreign", [
    ({"op": "const", "value": 0.5}, "child"),
    (_inner("u"), "value"),
    ({"op": "norm", "arg": "v"}, "direction"),
    ({"op": "affine", "scale": 2.0, "child": _inner("u")}, "lo"),
    ({"op": "sin", "child": _inner("u")}, "scale"),
    ({"op": "tanh", "child": _inner("u")}, "arg"),
    ({"op": "clamp", "lo": -1.0, "hi": 1.0, "child": _inner("u")}, "shift"),
], ids=lambda case: case["op"] if isinstance(case, dict) else case)
def test_config_expression_keys_are_per_primitive(expr, foreign):
    # the preset builds with each expression, and refuses it with a key
    # that only another primitive takes
    cfg = json.loads(_read(preset_path("heat_debye")))
    clamp = {"op": "clamp", "lo": -1.0, "hi": 1.0, "child": expr}
    cfg["rhs_g"]["coefficients"][0] = {"form": "general", "expr": clamp}
    build_experiment(cfg)
    expr[foreign] = 1.0
    with pytest.raises(ConfigError, match=rf"\.expr\.child\.{foreign}: "
                       "unknown key"):
        build_experiment(cfg)


# Every tagged section of a config: where it sits in heat_debye, its tag,
# its key table in `config`, and one example of each variant, in the
# table's order, that holds every key the variant takes.
TAGGED_SECTIONS = {
    "p_profile": (("spatial", "p_profile"), "kind", config._P_PROFILE_KEYS, [
        {"kind": "constant", "value": 3.0},
        {"kind": "ramp", "low": 2.4, "high": 3.2},
        {"kind": "bump", "base": 2.6, "amplitude": 0.8}]),
    "d_profile": (("spatial", "d_profile"), "kind", config._D_PROFILE_KEYS, [
        {"kind": "constant", "value": 1.0},
        {"kind": "linear_decay", "start": 2.0},
        {"kind": "separable", "base": 1.5, "decay": 0.4}]),
    "initial.u": (("initial", "u"), "kind", config._INITIAL_U_KEYS, [
        {"kind": "zero"},
        {"kind": "mode", "mode": 2, "amplitude": 0.5, "slot": 0},
        {"kind": "decay", "amplitude": 0.6, "rate": 2.0},
        {"kind": "rough", "amplitude": 0.5},
        {"kind": "values", "values": [0.1] * 8}]),
    "initial.v": (("initial", "v"), "kind", config._INITIAL_V_KEYS, [
        {"kind": "zero"},
        {"kind": "bump", "amplitude": 0.5},
        {"kind": "mode", "mode": 2, "amplitude": 0.5},
        {"kind": "values", "values": [0.1] * 15}]),
    "direction": (("rhs_f", "coefficients", 0, "nu", "child", "child",
                   "direction"), "kind", config._DIRECTION_KEYS, [
        {"kind": "unit", "index": 0},
        {"kind": "sine", "mode": 1},
        {"kind": "values", "values": [0.1] * 15}]),
    "op": (("rhs_g", "coefficients", 0, "expr", "child", "child"), "op",
           config._EXPR_KEYS, [
        {"op": "const", "value": 0.5},
        _inner("u"),
        {"op": "norm", "arg": "v"},
        {"op": "affine", "scale": 2.0, "shift": 0.1, "child": _inner("u")},
        {"op": "sin", "child": _inner("u")},
        {"op": "tanh", "child": _inner("u")},
        {"op": "clamp", "lo": -1.0, "hi": 1.0, "child": _inner("u")}]),
    "form": (("rhs_f", "coefficients", 0), "form", config._COEFFICIENT_KEYS, [
        {"form": "growth", "c": 0.1, "nu": {"op": "const", "value": 0.5}},
        {"form": "general", "expr": {"op": "const", "value": 0.5}}]),
}


def _with_section(name, spec):
    """heat_debye with the tagged section `name` replaced by `spec`, and
    that section's config path."""
    cfg = json.loads(_read(preset_path("heat_debye")))
    place = TAGGED_SECTIONS[name][0]
    node = cfg
    for key in place[:-1]:
        node = node[key]
    node[place[-1]] = json.loads(json.dumps(spec))
    return cfg, "config" + "".join(
        f"[{key}]" if isinstance(key, int) else f".{key}" for key in place)


def _section_cases(foreign: bool):
    """(section, variant example, key, value) for each key the example
    takes, or with `foreign` for each key that only other variants take,
    valued as in the first of those."""
    for name, (_, tag, _, examples) in TAGGED_SECTIONS.items():
        for spec in examples:
            keys = {}
            for other in examples if foreign else [spec]:
                for key, value in other.items():
                    if key != tag and (key in spec) != foreign:
                        keys.setdefault(key, value)
            for key, value in keys.items():
                yield pytest.param(name, spec, key, value,
                                   id=f"{name}-{spec[tag]}-{key}")


@pytest.mark.parametrize("name", sorted(TAGGED_SECTIONS))
def test_config_tagged_section_tables_match_their_variants(name):
    # each variant builds with every key it takes, the key table lists
    # exactly those keys, and a missing or unknown tag lists the variants
    _, tag, table, examples = TAGGED_SECTIONS[name]
    assert [spec[tag] for spec in examples] == list(table)
    assert {spec[tag]: set(spec) - {tag} for spec in examples} \
        == {variant: set(keys) for variant, keys in table.items()}
    for spec in examples:
        build_experiment(_with_section(name, spec)[0])
    variants = [spec[tag] for spec in examples]
    message = f"must be {', '.join(variants[:-1])} or {variants[-1]}"
    for bad in ({tag: "x"}, {tag: 1}, {}):
        cfg, path = _with_section(name, bad)
        with pytest.raises(ConfigError) as err:
            build_experiment(cfg)
        assert str(err.value) == f"{path}.{tag}: {message}"


@pytest.mark.parametrize("name, spec, key, value", _section_cases(True))
def test_config_tagged_sections_refuse_a_key_of_another_variant(name, spec,
                                                                key, value):
    cfg, path = _with_section(name, {**spec, key: value})
    with pytest.raises(ConfigError) as err:
        build_experiment(cfg)
    assert str(err.value) == f"{path}.{key}: unknown key"


@pytest.mark.parametrize("name, spec, key, value", _section_cases(False))
def test_config_tagged_sections_read_every_key_they_take(name, spec, key,
                                                         value):
    cfg, path = _with_section(name, {**spec, key: "x"})
    with pytest.raises(ConfigError) as err:
        build_experiment(cfg)
    assert str(err.value).startswith(f"{path}.{key}: ")


@pytest.mark.parametrize("name, spec, key, value", [
    ("p_profile", {"kind": "ramp", "low": 2.4, "high": 3.2}, "value", 3.0),
    ("op", {"op": "const", "value": 0.5}, "scale", 1e150),
], ids=["profile", "op"])
def test_solve_rejects_a_key_of_another_profile_variant(tmp_path, capsys,
                                                        name, spec, key,
                                                        value):
    # a key that only another variant takes (a constant profile's `value`,
    # affine's `scale`) used to be read as nothing
    cfg, path = _with_section(name, {**spec, key: value})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code = main(["solve", "--config", str(bad), "--out",
                 str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{path}.{key}: unknown key" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def _leaves(obj, path=()):
    """(path, value) of every scalar in a decoded config."""
    items = obj.items() if isinstance(obj, dict) \
        else enumerate(obj) if isinstance(obj, list) else None
    if items is None:
        yield path, obj
        return
    for key, value in items:
        yield from _leaves(value, path + (key,))


def test_config_coefficient_edits_fail_only_by_name():
    # every single-leaf edit of the first coefficient of each right-hand
    # side of each preset either builds or raises ConfigError
    vocabulary = ["const", "inner", "norm", "affine", "sin", "tanh", "clamp",
                  "growth", "general", "u", "v", -1.0, 0.0, 1e300]
    edits = 0
    for name in ("heat_debye", "schrodinger_debye", "feedback_growth"):
        raw = json.loads(_read(preset_path(name)))
        for side in ("rhs_f", "rhs_g"):
            for path, _ in _leaves(raw[side]["coefficients"][0]):
                for value in vocabulary:
                    cfg = json.loads(json.dumps(raw))
                    node = cfg[side]["coefficients"][0]
                    for key in path[:-1]:
                        node = node[key]
                    node[path[-1]] = value
                    edits += 1
                    try:
                        build_experiment(cfg)
                    except ConfigError:
                        pass
    assert edits > 500
