"""Command-line surface: formats, exit codes, determinism."""

import json

import pytest

from evoinc.cli import main
from evoinc.config import ConfigError, parse_config, preset_path


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


def test_verify_is_deterministic(capsys):
    main(["verify", "selection", "--trials", "5", "--seed", "3"])
    first = capsys.readouterr().out
    main(["verify", "selection", "--trials", "5", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


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


def test_solve_rejects_p_two_without_oracle_flag(tmp_path, capsys):
    cfg = json.loads(_read(preset_path("heat_debye")))
    cfg["spatial"]["p_profile"] = {"kind": "constant", "value": 2.0}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "should_not_exist"
    code = main(["solve", "--config", str(bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "p_profile" in err
    assert not out.exists()  # schema rejection leaves no partial files


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


@pytest.mark.parametrize("name, mutate", [
    ("config.time.horizon",
     lambda cfg: cfg["time"].update(horizon=float("nan"))),
    ("config.solver.tol",
     lambda cfg: cfg["solver"].update(tol=float("inf"))),
    ("config.rhs_f.coefficients[0].c",
     lambda cfg: cfg["rhs_f"]["coefficients"][0].update(c=float("nan"))),
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


def _set_huge_growth_constant(cfg):
    cfg["rhs_f"]["coefficients"][0]["c"] = 1e300


def _set_steep_exponent(cfg):
    cfg["spatial"]["p_profile"] = {"kind": "constant", "value": 200}


@pytest.mark.parametrize("mutate, failure", [
    (_set_huge_growth_constant,
     "SolverError: window length must lie in (0, t_cap]"),
    (_set_steep_exponent, "ProxDidNotConverge: "),
], ids=["huge-growth-constant", "steep-exponent"])
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
        parse_config(raw)
    assert "generator.extra" in str(err.value)


def test_config_accepts_oracle_p2_flag(tmp_path):
    raw = json.loads(_read(preset_path("heat_debye")))
    raw["spatial"]["oracle_p2"] = True
    raw["spatial"]["p_profile"] = {"kind": "constant", "value": 2.0}
    cfg = parse_config(raw)
    assert cfg.oracle_p2 and cfg.p_profile == ("constant", 2.0)


def test_config_validates_rhs_direction_dimensions():
    raw = json.loads(_read(preset_path("heat_debye")))
    raw["rhs_g"]["coefficients"][0]["expr"]["child"]["child"]["direction"] = {
        "kind": "values", "values": [1.0, 2.0]}
    with pytest.raises(ConfigError):
        from evoinc.config import build_experiment
        build_experiment(parse_config(raw))
