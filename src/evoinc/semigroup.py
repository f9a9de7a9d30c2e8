"""Spectral propagators on (0, pi): decay, rotation, and wave blocks.

Three generator kinds, all diagonal over the Dirichlet sine basis. Each
mode is one scalar z on the `_modal` view of the state, and obeys
z' = s z for one eigenvalue s of -E, the mode's `symbol`:

* ``heat``: one real coefficient per mode, s = -n^2;
* ``schroedinger``: realified complex modes, the pair (a, b) viewed as
  z = a + i b, s = -i n^2;
* ``wave``: velocity/strain pairs viewed the same way, s = i n (zero mode
  removed, so every block is a genuine rotation).

Every operator is one expression in s, with no branch on the kind: E z =
-s z, the propagator T(t) z = exp(t s) z, the exact Duhamel step for
piecewise-constant forcing (exponential Euler), the Yosida smoothing
lam (lam + E)^{-1} z = lam / (lam - s) z, and the RK4 oracle's substep.
The exact step makes the inhomogeneous solve exact for the node-sampled
selections the coupled iteration produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paths import TimePath, trapezoid_l2

_KINDS = ("heat", "schroedinger", "wave")


class SemigroupError(ValueError):
    pass


@dataclass(frozen=True)
class SpectralGenerator:
    kind: str
    modes: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SemigroupError(f"unknown generator kind {self.kind!r}")
        if self.modes < 1:
            raise SemigroupError("need at least one mode")

    @property
    def block(self) -> int:
        return 1 if self.kind == "heat" else 2

    @property
    def state_dim(self) -> int:
        return self.block * self.modes

    def mode_numbers(self) -> np.ndarray:
        return np.arange(1, self.modes + 1, dtype=float)

    def symbol(self) -> np.ndarray:
        """Eigenvalue s of -E per mode on the `_modal` view: z' = s z."""
        n = self.mode_numbers()
        if self.kind == "heat":
            return -n ** 2
        if self.kind == "schroedinger":
            return 1j * (-n ** 2)
        return 1j * n

    def zero_state(self) -> np.ndarray:
        return np.zeros(self.state_dim)

    def mode_state(self, mode: int, amplitude: float = 1.0,
                   phase_index: int = 0) -> np.ndarray:
        """Unit vector along one mode (and one block slot for pairs)."""
        s = self.zero_state()
        s[self.block * (mode - 1) + phase_index] = amplitude
        return s

    def apply_generator(self, states: np.ndarray) -> np.ndarray:
        """E x for the generator -E of the propagator, row-wise on a batch."""
        return _real(-self.symbol() * _modal(self, states))


def _modal(gen: SpectralGenerator, values: np.ndarray) -> np.ndarray:
    """Per-mode scalars along the last axis: heat coefficients as they are,
    2-block pairs (a, b) viewed without a copy as complex z = a + i b."""
    values = np.ascontiguousarray(values, dtype=float)
    return values if gen.kind == "heat" else values.view(np.complex128)


def _real(values: np.ndarray) -> np.ndarray:
    """Inverse of `_modal`: complex z = a + i b viewed back as pairs (a, b);
    real values pass through unchanged."""
    return values.view(float)


def _propagate_batch(gen: SpectralGenerator, states: np.ndarray,
                     times: np.ndarray) -> np.ndarray:
    """Propagate each row of states by the matching entry of times."""
    states = np.atleast_2d(states)
    times = np.broadcast_to(np.asarray(times, dtype=float), (states.shape[0],))
    if np.any(times < 0.0):
        raise SemigroupError("propagation time must be nonnegative")
    return _real(np.exp(times[:, None] * gen.symbol()) * _modal(gen, states))


def propagate(gen: SpectralGenerator, state: np.ndarray, t: float) -> np.ndarray:
    """T(t) applied to the state; isometric for the rotation kinds."""
    state = np.asarray(state, dtype=float)
    if state.size != gen.state_dim:
        raise SemigroupError("state dimension mismatch")
    return _propagate_batch(gen, state[None, :], np.array([t]))[0]


def orbit(gen: SpectralGenerator, state: np.ndarray,
          times: np.ndarray) -> np.ndarray:
    """T(t_k) state for every entry of times, stacked row-wise."""
    state = np.asarray(state, dtype=float)
    times = np.asarray(times, dtype=float)
    reps = np.tile(state, (times.size, 1))
    return _propagate_batch(gen, reps, times)


def duhamel_solve(gen: SpectralGenerator, u0: np.ndarray,
                  forcing: TimePath) -> TimePath:
    """Mild solution path for piecewise-constant forcing, exact per step.

    The forcing value on [t_k, t_{k+1}) is the node value at t_k. Each mode
    advances by one multiply-add, z_{k+1} = exp(tau s) z_k + gain f_k, with
    the exact forcing integral gain = (exp(tau s) - 1) / s, taken as its
    series limit tau where |tau s| < 1e-8.
    """
    s = gen.symbol()
    ts = forcing.dt * s
    gain = np.where(np.abs(ts) < 1e-8, forcing.dt, np.expm1(ts) / s)
    return _advance(gen, u0, forcing, np.exp(ts), gain)


def _advance(gen: SpectralGenerator, u0: np.ndarray, forcing: TimePath,
             factor: np.ndarray, gain: np.ndarray) -> TimePath:
    """Path of z_{k+1} = factor z_k + gain f_k from z_0 = u0, per mode."""
    u0 = np.asarray(u0, dtype=float)
    if u0.size != gen.state_dim or forcing.dim != gen.state_dim:
        raise SemigroupError("state dimension mismatch")
    drive = gain * _modal(gen, forcing.values[:-1])
    out = np.empty((forcing.num_nodes, gen.modes), dtype=drive.dtype)
    out[0] = _modal(gen, u0)
    for i in range(forcing.num_nodes - 1):
        out[i + 1] = factor * out[i] + drive[i]
    return TimePath(forcing.t0, forcing.t1, _real(out), forcing.weight)


def yosida_factors(gen: SpectralGenerator, lam: float) -> np.ndarray:
    """Per-mode factors lam / (lam - s) of the resolvent lam (lam + E)^{-1}."""
    if lam <= 0.0:
        raise SemigroupError("the smoothing parameter must be positive")
    return lam / (lam - gen.symbol())


def yosida_smooth(gen: SpectralGenerator, lam: float,
                  path: TimePath) -> TimePath:
    """Node-wise resolvent smoothing lam (lam + E)^{-1} of the path."""
    if path.dim != gen.state_dim:
        raise SemigroupError("state dimension mismatch")
    return path.with_values(
        _real(yosida_factors(gen, lam) * _modal(gen, path.values)))


# ---------------------------------------------------------------------------
# rough-data demonstration


def deviation_coefficients(modes: int) -> np.ndarray:
    """a_n = (1 + n^2)^(-3/4): square-summable, outside the generator domain."""
    n = np.arange(1, modes + 1, dtype=float)
    return (1.0 + n ** 2) ** (-0.75)


def deviation_norm(modes: int, t: float) -> float:
    """|| S(t) f - f || for the rough state f = sum a_n phi_n under the
    frequency-n^2 rotation flow, by direct series summation."""
    n = np.arange(1, modes + 1, dtype=float)
    a_sq = (1.0 + n ** 2) ** (-1.5)
    osc = 4.0 * np.sin(0.5 * t * n ** 2) ** 2
    return float(np.sqrt(np.sum(osc * a_sq)))


def coefficient_tail_bound(modes: int) -> float:
    """Integral bound on sum_{n > N} a_n^2."""
    return 1.0 - modes / math.sqrt(1.0 + modes ** 2)


@dataclass(frozen=True)
class DeviationProfile:
    times: np.ndarray
    norms: np.ndarray
    ratios: np.ndarray
    slope: float | None
    modes: int
    tail_bound: float


def counterexample_profile(modes: int, t_list) -> DeviationProfile:
    """Deviation norms, norm/t ratios, and the fitted log-log slope.

    The ratio diverging as t -> 0 exhibits the failure of Lipschitz
    continuity for rough data; the fitted slope close to 1/2 matches the
    square-root scaling of the deviation.
    """
    t = np.asarray(t_list, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise SemigroupError("need a nonempty list of times")
    if np.any(t <= 0.0) or np.any(t > 1.0):
        raise SemigroupError("profile times must lie in (0, 1]")
    norms = np.array([deviation_norm(modes, float(ti)) for ti in t])
    ratios = norms / t
    slope = None
    if np.unique(t).size >= 2:
        slope = float(np.polyfit(np.log(t), np.log(norms), 1)[0])
    return DeviationProfile(t, norms, ratios, slope, modes,
                            coefficient_tail_bound(modes))


# ---------------------------------------------------------------------------
# path regularity probes


@dataclass(frozen=True)
class RegularityReport:
    levels: tuple
    lipschitz: tuple          # per-level sup ||u(t)-u(s)|| / |t-s|
    hoelder: tuple            # per-level sup ||u(t)-u(s)|| / sqrt(|t-s|)
    lipschitz_reference: float | None
    hoelder_reference: float | None


def regularity_probe(gen: SpectralGenerator, data_in_domain: bool,
                     u0: np.ndarray | None = None,
                     forcing: TimePath | None = None,
                     t_max: float = 1.0,
                     levels: tuple = (4, 6, 8, 10)) -> RegularityReport:
    """Empirical difference-quotient moduli over dyadic meshes.

    Orbit mode (u0 given): reference constant ||E u0|| bounds the Lipschitz
    modulus when the data has finite graph norm. Forcing mode: the
    convolution path is Hoelder-1/2 with reference M + M sqrt(t_max), M the
    graph-norm L2 size of the forcing.
    """
    if (u0 is None) == (forcing is None):
        raise SemigroupError("give exactly one of u0 or forcing")
    lip, hoe = [], []
    for level in levels:
        k = 2 ** level + 1
        times = np.linspace(0.0, t_max, k)
        if u0 is not None:
            values = orbit(gen, u0, times)
        else:
            f = _resample(forcing, times)
            values = duhamel_solve(gen, np.zeros(gen.state_dim), f).values
        tau = times[1] - times[0]
        jumps = np.linalg.norm(np.diff(values, axis=0), axis=1)
        lip.append(float(jumps.max() / tau))
        hoe.append(float(jumps.max() / math.sqrt(tau)))
    lip_ref = None
    hoe_ref = None
    if data_in_domain:
        if u0 is not None:
            lip_ref = float(np.linalg.norm(gen.apply_generator(u0)))
        else:
            m = _graph_l2(gen, forcing)
            hoe_ref = m + m * math.sqrt(t_max)
    return RegularityReport(tuple(levels), tuple(lip), tuple(hoe),
                            lip_ref, hoe_ref)


def _resample(path: TimePath, times: np.ndarray) -> TimePath:
    idx = np.clip(np.searchsorted(path.times(), times, side="right") - 1,
                  0, path.num_nodes - 1)
    return TimePath(float(times[0]), float(times[-1]), path.values[idx],
                    path.weight)


def _graph_l2(gen: SpectralGenerator, path: TimePath) -> float:
    """L2 in time of the node graph norms sqrt(||f||^2 + ||E f||^2)."""
    norms = np.hypot(np.linalg.norm(path.values, axis=1),
                     np.linalg.norm(gen.apply_generator(path.values), axis=1))
    return trapezoid_l2(norms, path.dt)


def rk4_oracle(gen: SpectralGenerator, u0: np.ndarray, forcing: TimePath,
               refine: int) -> TimePath:
    """Classical fourth-order integrator at `refine`-times finer steps.

    Independent route for cross-checking the exact-step solver: advances
    du/dt = -E u + f with f held at the coarse-step value. Each mode obeys
    z' = lam z + f on the `_modal` view, with lam the generator's symbol.
    One RK4 substep is therefore the per-mode map z -> R z + Q f, read off
    the four stage formulas at (z, f) = (1, 0) and (0, 1); `refine`
    substeps compose to one coarse-step pair (A, B). No exponential, sine
    or cosine enters.
    """
    if refine < 1:
        raise SemigroupError("refine must be at least 1")
    tau = forcing.dt / refine
    lam = gen.symbol()

    def rhs(s, f):
        return lam * s + f

    def substep(s, f):
        k1 = rhs(s, f)
        k2 = rhs(s + 0.5 * tau * k1, f)
        k3 = rhs(s + 0.5 * tau * k2, f)
        k4 = rhs(s + tau * k3, f)
        return s + (tau / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    one, zero = np.ones_like(lam), np.zeros_like(lam)
    r, q = substep(one, zero), substep(zero, one)
    a, b = one, zero
    for _ in range(refine):
        a, b = r * a, r * b + q
    return _advance(gen, u0, forcing, a, b)
