"""Experiment configuration: strict JSON schema and object builders.

Configs are plain JSON with a fixed key set; unknown keys anywhere are
rejected with the offending path so experiment files stay self-describing.
Numbers in echoed configs and reports are serialized with 17 significant
digits for exact round-trips.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .monotone import VariableExponentPotential, make_potential
from .rhs import (Affine, BasisFamilyMap, Clamp, Const, GeneralCoefficient,
                  GrowthCoefficient, Inner, Norm, RhsError, Sin, Tanh)
from .semigroup import SpectralGenerator, deviation_coefficients
from .solver import BLOWUP_NORM, GlobalSettings, SolverError, compute_window

# Largest exponent an exponent profile may reach. From p = 1026 on, a
# difference quotient of 2 overflows |g|^(p - 2). Raising the top of each
# preset's profile: heat_debye solves up to p = 128 and stops by name
# (exit 1) from 160, schrodinger_debye solves up to 1,100 and stops by
# name with a NaN residual from 1,200; feedback_growth, whose v stays 0,
# solves at any exponent.
MAX_EXPONENT = 1024
# Most windows a solve may need, estimated as the horizon over the first
# window's length. The bundled presets need 2, 2 and 7.3; every window
# keeps its paths, about 30 kB each for the presets, and takes 10-50 ms.
MAX_WINDOWS = 1000


class ConfigError(ValueError):
    pass


def _require_keys(obj: dict, path: str, required, optional=()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}: missing")


def _number(obj, path: str, lo: float | None = None, hi: float | None = None,
            integer: bool = False):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ConfigError(f"{path}: must be finite")
    try:
        val = float(obj)
    except OverflowError:
        # integers too: a mode or a count enters float arithmetic
        raise ConfigError(f"{path}: must be finite (too large for a float)") \
            from None
    if integer:
        if int(obj) != obj:
            raise ConfigError(f"{path}: expected an integer")
        val = int(obj)
    if lo is not None and val < lo:
        raise ConfigError(f"{path}: must be >= {lo}")
    if hi is not None and val > hi:
        raise ConfigError(f"{path}: must be <= {hi}")
    return val


def _numbers(vals, path: str, size: int) -> np.ndarray:
    """The list `vals` of `size` finite numbers, each checked by `_number`."""
    if not isinstance(vals, list) or len(vals) != size:
        raise ConfigError(f"{path}: expected {size} numbers")
    return np.asarray([_number(x, f"{path}[{i}]") for i, x in enumerate(vals)])


@dataclass(frozen=True)
class Experiment:
    seed: int
    horizon: float
    generator: SpectralGenerator
    potential: VariableExponentPotential
    rhs_f: object
    rhs_g: object
    u0: np.ndarray
    v0: np.ndarray
    settings: GlobalSettings
    raw: dict            # the decoded config, echoed with the outputs


def build_experiment(raw: dict) -> Experiment:
    """Validate the decoded config `raw` and build its experiment.

    The scalar sections are checked first, then the objects are built,
    each checking its own section on the way.
    """
    _require_keys(raw, "config",
                  ("seed", "generator", "spatial", "time", "rhs_f", "rhs_g",
                   "initial", "solver"))
    seed = _number(raw["seed"], "config.seed", lo=0, integer=True)

    gen = raw["generator"]
    _require_keys(gen, "config.generator", ("kind", "modes"))
    kind = gen["kind"]
    if kind not in ("heat", "schroedinger", "wave"):
        raise ConfigError("config.generator.kind: must be heat, schroedinger "
                          "or wave")
    modes = _number(gen["modes"], "config.generator.modes", lo=1, hi=4096,
                    integer=True)

    spatial = raw["spatial"]
    _require_keys(spatial, "config.spatial", ("nodes", "p_profile", "d_profile"))
    nodes = _number(spatial["nodes"], "config.spatial.nodes", lo=1, hi=4096,
                    integer=True)
    p_profile = _parse_p_profile(spatial["p_profile"])
    d_profile = _parse_d_profile(spatial["d_profile"])

    time_cfg = raw["time"]
    _require_keys(time_cfg, "config.time", ("horizon", "steps_per_window"),
                  ("max_window",))
    horizon = _number(time_cfg["horizon"], "config.time.horizon", lo=1e-9)
    steps = _number(time_cfg["steps_per_window"],
                    "config.time.steps_per_window", lo=2, hi=1_000_000,
                    integer=True)
    if d_profile[0] == "linear_decay" and d_profile[1] <= horizon:
        # D(t) = start - t must stay positive on [0, horizon]
        raise ConfigError("config.spatial.d_profile.start: must be > "
                          "config.time.horizon")
    max_window = time_cfg.get("max_window")
    if max_window is not None:
        max_window = _number(max_window, "config.time.max_window", lo=1e-9)
    else:
        max_window = math.inf

    solver = raw["solver"]
    _require_keys(solver, "config.solver", (), ("theta", "tol", "max_iter"))
    theta = _number(solver.get("theta", 0.5), "config.solver.theta",
                    lo=1e-9, hi=1.0)
    tol = _number(solver.get("tol", 1e-8), "config.solver.tol", lo=0.0)
    if tol <= 0.0:
        raise ConfigError("config.solver.tol: must be > 0")
    max_iter = _number(solver.get("max_iter", 500), "config.solver.max_iter",
                       lo=1, integer=True)

    initial = raw["initial"]
    _require_keys(initial, "config.initial", ("u", "v"))

    generator = SpectralGenerator(kind, modes)
    pot = make_potential(nodes, p_profile, d_profile)
    spaces = _SpaceInfo(generator, pot)
    rhs_f = _build_rhs(raw["rhs_f"], "config.rhs_f", "u", spaces)
    rhs_g = _build_rhs(raw["rhs_g"], "config.rhs_g", "v", spaces)
    u0 = _build_initial_u(initial["u"], generator)
    v0 = _build_initial_v(initial["v"], pot)
    settings = GlobalSettings(theta=theta, tol=tol, max_iter=max_iter,
                              nodes_per_window=steps + 1,
                              max_window=max_window)
    _check_window_count(horizon, min(max_window, horizon), [
        rhs_f.growth_envelope(), rhs_g.growth_envelope()],
        u0, math.sqrt(pot.mesh) * v0)
    return Experiment(seed, horizon, generator, pot, rhs_f, rhs_g, u0, v0,
                      settings, raw)


def _check_window_count(horizon: float, cap: float, envelopes,
                        u0: np.ndarray, weighted_v0: np.ndarray):
    """Refuse a horizon that the first window, as the solve computes it,
    would cover only in more than MAX_WINDOWS windows. Data past the
    blow-up norm, and a window that underflows, are left to the solve,
    which reports each by name."""
    with np.errstate(over="ignore", invalid="ignore"):
        beta = max(float(np.linalg.norm(u0)),
                   float(np.linalg.norm(weighted_v0)))
    if not beta <= BLOWUP_NORM:
        return
    try:
        first = compute_window(beta, envelopes, cap).t_window
    except SolverError:
        return
    if horizon / first > MAX_WINDOWS:
        raise ConfigError(
            f"config.time.horizon: {horizon:.3e} needs about "
            f"{horizon / first:.3e} windows of the first window's length "
            f"{first:.3e}, more than {MAX_WINDOWS}")


def _parse_p_profile(obj: dict) -> tuple:
    _require_keys(obj, "config.spatial.p_profile", ("kind",),
                  ("value", "low", "high", "base", "amplitude"))
    kind = obj["kind"]

    def exponent(key: str) -> float:
        return _number(obj.get(key), f"config.spatial.p_profile.{key}",
                       hi=MAX_EXPONENT)

    if kind == "constant":
        value = exponent("value")
        _check_exponent_floor(value)
        return ("constant", value)
    if kind == "ramp":
        lo, hi = exponent("low"), exponent("high")
        _check_exponent_floor(min(lo, hi))
        return ("ramp", lo, hi)
    if kind == "bump":
        base = exponent("base")
        amp = _number(obj.get("amplitude"), "config.spatial.p_profile.amplitude")
        if base + amp > MAX_EXPONENT:
            raise ConfigError("config.spatial.p_profile.amplitude: base + "
                              f"amplitude must be <= {MAX_EXPONENT}")
        _check_exponent_floor(min(base, base + amp))
        return ("bump", base, amp)
    raise ConfigError("config.spatial.p_profile.kind: must be constant, ramp "
                      "or bump")


def _check_exponent_floor(p_min: float):
    if not p_min >= 2.0:
        raise ConfigError("config.spatial.p_profile: exponents must be >= 2")


def _parse_d_profile(obj: dict) -> tuple:
    _require_keys(obj, "config.spatial.d_profile", ("kind",),
                  ("value", "start", "base", "decay"))
    kind = obj["kind"]
    if kind == "constant":
        return ("constant", _number(obj.get("value"),
                                    "config.spatial.d_profile.value", lo=1e-12))
    if kind == "linear_decay":
        return ("linear_decay", _number(obj.get("start"),
                                        "config.spatial.d_profile.start",
                                        lo=1e-12))
    if kind == "separable":
        return ("separable",
                _number(obj.get("base"), "config.spatial.d_profile.base",
                        lo=1e-12),
                _number(obj.get("decay"), "config.spatial.d_profile.decay",
                        lo=0.0))
    raise ConfigError("config.spatial.d_profile.kind: must be constant, "
                      "linear_decay or separable")


class _SpaceInfo:
    def __init__(self, gen: SpectralGenerator, pot: VariableExponentPotential):
        self.gen = gen
        self.pot = pot
        self.dim_u = gen.state_dim
        self.dim_v = pot.interior_nodes
        self.weight_u = 1.0
        self.weight_v = pot.mesh
        self.x_interior = pot.nodes()[1:-1]

    def dim(self, arg: str) -> int:
        return self.dim_u if arg == "u" else self.dim_v

    def weight(self, arg: str) -> float:
        return self.weight_u if arg == "u" else self.weight_v

    def direction(self, spec: dict, arg: str, path: str) -> np.ndarray:
        _require_keys(spec, path, ("kind",), ("index", "mode", "values"))
        kind = spec["kind"]
        dim = self.dim(arg)
        if kind == "unit":
            idx = _number(spec.get("index"), f"{path}.index", lo=0,
                          hi=dim - 1, integer=True)
            e = np.zeros(dim)
            e[idx] = 1.0
            return e
        if kind == "sine":
            mode = _number(spec.get("mode"), f"{path}.mode", lo=1,
                           integer=True)
            if arg != "v":
                raise ConfigError(f"{path}: sine directions live on the grid")
            return math.sqrt(2.0) * np.sin(math.pi * mode * self.x_interior)
        if kind == "values":
            return _numbers(spec.get("values"), f"{path}.values", dim)
        raise ConfigError(f"{path}.kind: must be unit, sine or values")

    def sine_basis(self, count: int) -> np.ndarray:
        kk = np.arange(1, count + 1)
        return math.sqrt(2.0) * np.sin(
            math.pi * np.outer(kk, self.x_interior))


# the keys of each expression primitive besides "op"
_EXPR_KEYS = {"const": ("value",), "inner": ("arg", "direction"),
              "norm": ("arg",), "affine": ("child", "scale", "shift"),
              "sin": ("child",), "tanh": ("child",),
              "clamp": ("child", "lo", "hi")}


def _build_expr(obj: dict, path: str, spaces: _SpaceInfo):
    _require_keys(obj, path, ("op",), set().union(*_EXPR_KEYS.values()))
    op = obj["op"]
    if not isinstance(op, str) or op not in _EXPR_KEYS:
        raise ConfigError(f"{path}.op: unknown primitive {op!r}")
    _require_keys(obj, path, ("op",), _EXPR_KEYS[op])
    if op == "const":
        return Const(_number(obj.get("value"), f"{path}.value"))
    if op in ("inner", "norm"):
        arg = obj.get("arg")
        if arg not in ("u", "v"):
            raise ConfigError(f"{path}.arg: must be 'u' or 'v'")
        if op == "norm":
            return Norm(arg, spaces.weight(arg))
        direction = spaces.direction(obj.get("direction", {}), arg,
                                     f"{path}.direction")
        return Inner(arg, direction, spaces.weight(arg))
    child = obj.get("child")
    if child is None:
        raise ConfigError(f"{path}.child: missing")
    inner = _build_expr(child, f"{path}.child", spaces)
    if op == "affine":
        return Affine(_number(obj.get("scale", 1.0), f"{path}.scale"),
                      _number(obj.get("shift", 0.0), f"{path}.shift"), inner)
    if op == "sin":
        return Sin(inner)
    if op == "tanh":
        return Tanh(inner)
    return _rhs_part(Clamp, path, _number(obj.get("lo"), f"{path}.lo"),
                     _number(obj.get("hi"), f"{path}.hi"), inner)


def _rhs_part(make, path: str, *args, **kwargs):
    """make(*args, **kwargs) for a constructor of `rhs`, with the RhsError
    it raises on a config's values re-raised as a ConfigError naming
    `path`."""
    try:
        return make(*args, **kwargs)
    except RhsError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# the keys of each coefficient form besides "form"
_COEFFICIENT_KEYS = {"growth": ("c", "nu"), "general": ("expr",)}


def _build_rhs(obj: dict, path: str, target: str, spaces: _SpaceInfo):
    _require_keys(obj, path, ("basis", "coefficients"), ("include_origin",))
    basis_kind = obj["basis"]
    coeffs_spec = obj["coefficients"]
    if not isinstance(coeffs_spec, list) or not coeffs_spec:
        raise ConfigError(f"{path}.coefficients: expected a nonempty list")
    count = len(coeffs_spec)
    dim = spaces.dim(target)
    if count > dim:
        raise ConfigError(f"{path}.coefficients: at most {dim} directions")
    if basis_kind == "canonical":
        basis = np.eye(dim)[:count] / math.sqrt(spaces.weight(target))
    elif basis_kind == "sine":
        if target != "v":
            raise ConfigError(f"{path}.basis: sine basis lives on the grid")
        basis = spaces.sine_basis(count)
    else:
        raise ConfigError(f"{path}.basis: must be canonical or sine")
    include_origin = obj.get("include_origin", False)
    if not isinstance(include_origin, bool):
        raise ConfigError(f"{path}.include_origin: expected a boolean")
    coeffs = []
    for i, spec in enumerate(coeffs_spec):
        cpath = f"{path}.coefficients[{i}]"
        _require_keys(spec, cpath, ("form",),
                      set().union(*_COEFFICIENT_KEYS.values()))
        form = spec["form"]
        if not isinstance(form, str) or form not in _COEFFICIENT_KEYS:
            raise ConfigError(f"{cpath}.form: must be growth or general")
        _require_keys(spec, cpath, ("form",), _COEFFICIENT_KEYS[form])
        if form == "growth":
            c = _number(spec.get("c", 0.0), f"{cpath}.c")
            nu = spec.get("nu")
            nu_expr = _build_expr(nu, f"{cpath}.nu", spaces) if nu else None
            coeffs.append(_rhs_part(GrowthCoefficient, f"{cpath}.nu", c,
                                    nu_expr))
        else:
            expr_spec = spec.get("expr")
            if expr_spec is None:
                raise ConfigError(f"{cpath}.expr: missing")
            expr_path = f"{cpath}.expr"
            coeffs.append(_rhs_part(
                GeneralCoefficient, expr_path,
                _build_expr(expr_spec, expr_path, spaces)))
    family = _rhs_part(BasisFamilyMap, path, basis, tuple(coeffs),
                       include_origin=include_origin,
                       target_weight=spaces.weight(target),
                       u_weight=spaces.weight_u, v_weight=spaces.weight_v)
    env = family.growth_envelope()
    if not np.isfinite([env.a, env.b, env.c]).all():
        raise ConfigError(f"{path}: growth envelope is not finite "
                          "(a coefficient bound is too large)")
    return family


def _build_initial_u(obj: dict, gen: SpectralGenerator) -> np.ndarray:
    _require_keys(obj, "config.initial.u", ("kind",),
                  ("mode", "amplitude", "rate", "values", "slot"))
    kind = obj["kind"]
    if kind == "zero":
        return gen.zero_state()
    amp = _number(obj.get("amplitude", 1.0), "config.initial.u.amplitude")
    if kind == "mode":
        mode = _number(obj.get("mode", 1), "config.initial.u.mode", lo=1,
                       hi=gen.modes, integer=True)
        slot = _number(obj.get("slot", 0), "config.initial.u.slot", lo=0,
                       hi=gen.block - 1, integer=True)
        return gen.mode_state(mode, amp, slot)
    if kind == "decay":
        rate = _number(obj.get("rate", 2.0), "config.initial.u.rate", lo=0.0)
        n = np.arange(1, gen.modes + 1, dtype=float)
        coeff = amp * n ** (-rate)
        state = np.zeros(gen.state_dim)
        state[::gen.block] = coeff
        return state
    if kind == "rough":
        coeff = amp * deviation_coefficients(gen.modes)
        state = np.zeros(gen.state_dim)
        state[::gen.block] = coeff
        return state
    if kind == "values":
        return _numbers(obj.get("values"), "config.initial.u.values",
                        gen.state_dim)
    raise ConfigError("config.initial.u.kind: must be zero, mode, decay, "
                      "rough or values")


def _build_initial_v(obj: dict, pot: VariableExponentPotential) -> np.ndarray:
    _require_keys(obj, "config.initial.v", ("kind",),
                  ("mode", "amplitude", "values"))
    kind = obj["kind"]
    x = pot.nodes()[1:-1]
    if kind == "zero":
        return np.zeros(pot.interior_nodes)
    amp = _number(obj.get("amplitude", 1.0), "config.initial.v.amplitude")
    if kind == "bump":
        return amp * np.sin(math.pi * x)
    if kind == "mode":
        mode = _number(obj.get("mode", 1), "config.initial.v.mode", lo=1,
                       integer=True)
        return amp * np.sin(math.pi * mode * x)
    if kind == "values":
        return _numbers(obj.get("values"), "config.initial.v.values",
                        pot.interior_nodes)
    raise ConfigError("config.initial.v.kind: must be zero, bump, mode or "
                      "values")


# ---------------------------------------------------------------------------
# io helpers


def load_config(path: str | Path) -> dict:
    """The decoded JSON of the config file at `path`. A file that cannot be
    opened, decoded as UTF-8 or parsed raises `ConfigError` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply") from exc


def format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.17g}")
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dump_json(obj, path: str | Path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonify(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def preset_path(name: str) -> Path:
    return Path(__file__).parent / "presets" / f"{name}.json"
