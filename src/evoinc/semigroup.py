"""Spectral propagators on (0, pi): decay, rotation, and wave blocks.

Three generator kinds, all diagonal over the Dirichlet sine basis:

* ``heat``: one coefficient per mode, propagator factor exp(-t n^2);
* ``schroedinger``: realified complex modes, one 2-block per mode rotating
  by angle -t n^2 (multiplication by exp(-i t n^2) on real pairs);
* ``wave``: velocity/strain 2-blocks rotating by angle t n (zero mode
  removed, so every block is a genuine rotation).

The inhomogeneous solver advances with exact per-step integrals for
piecewise-constant forcing (exponential Euler), which makes it exact for
the node-sampled selections the coupled iteration produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paths import TimePath

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

    def rotation_rates(self) -> np.ndarray:
        """Angle rate per mode for the 2-block kinds."""
        n = self.mode_numbers()
        if self.kind == "schroedinger":
            return -n ** 2
        if self.kind == "wave":
            return n
        raise SemigroupError("heat blocks are scalar")

    def zero_state(self) -> np.ndarray:
        return np.zeros(self.state_dim)

    def mode_state(self, mode: int, amplitude: float = 1.0,
                   phase_index: int = 0) -> np.ndarray:
        """Unit vector along one mode (and one block slot for pairs)."""
        s = self.zero_state()
        s[self.block * (mode - 1) + phase_index] = amplitude
        return s

    def as_pairs(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(states)
        return states.reshape(states.shape[0], self.modes, self.block)

    def apply_generator(self, state: np.ndarray) -> np.ndarray:
        """E s for the generator -E of the propagator."""
        state = np.asarray(state, dtype=float)
        if self.kind == "heat":
            return self.mode_numbers() ** 2 * state
        pairs = state.reshape(self.modes, 2)
        w = self.rotation_rates()
        out = np.empty_like(pairs)
        out[:, 0] = w * pairs[:, 1]
        out[:, 1] = -w * pairs[:, 0]
        return out.reshape(-1)

    def graph_norm(self, state: np.ndarray) -> float:
        """sqrt(||s||^2 + ||E s||^2)."""
        es = self.apply_generator(state)
        return math.hypot(float(np.linalg.norm(state)),
                          float(np.linalg.norm(es)))


def _propagate_batch(gen: SpectralGenerator, states: np.ndarray,
                     times: np.ndarray) -> np.ndarray:
    """Propagate each row of states by the matching entry of times."""
    states = np.atleast_2d(states)
    times = np.broadcast_to(np.asarray(times, dtype=float), (states.shape[0],))
    if np.any(times < 0.0):
        raise SemigroupError("propagation time must be nonnegative")
    if gen.kind == "heat":
        mu = gen.mode_numbers() ** 2
        return states * np.exp(-times[:, None] * mu[None, :])
    w = gen.rotation_rates()
    phi = times[:, None] * w[None, :]
    c, s = np.cos(phi), np.sin(phi)
    pairs = gen.as_pairs(states)
    out = np.empty_like(pairs)
    out[:, :, 0] = c * pairs[:, :, 0] - s * pairs[:, :, 1]
    out[:, :, 1] = s * pairs[:, :, 0] + c * pairs[:, :, 1]
    return out.reshape(states.shape[0], -1)


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


def _step_operators(gen: SpectralGenerator, tau: float):
    """Decay/rotation factors and the exact forcing integral for one step."""
    if gen.kind == "heat":
        mu = gen.mode_numbers() ** 2
        decay = np.exp(-tau * mu)
        # (1 - exp(-tau mu)) / mu, switching to the series limit tau when
        # tau * mu underflows the expression.
        small = tau * mu < 1e-8
        forced = np.where(small, tau, -np.expm1(-tau * mu) / mu)
        return decay, forced
    w = gen.rotation_rates()
    phi = tau * w
    c, s = np.cos(phi), np.sin(phi)
    small = np.abs(phi) < 1e-12
    int_c = np.where(small, tau, s / np.where(small, 1.0, w))
    int_s = np.where(small, 0.0, (1.0 - c) / np.where(small, 1.0, w))
    return (c, s), (int_c, int_s)


def _modal(gen: SpectralGenerator, values: np.ndarray) -> np.ndarray:
    """Per-mode scalars: heat coefficients as they are, 2-block pairs
    (a, b) viewed without a copy as complex z = a + i b."""
    values = np.ascontiguousarray(values, dtype=float)
    return values if gen.kind == "heat" else values.view(np.complex128)


def duhamel_solve(gen: SpectralGenerator, u0: np.ndarray,
                  forcing: TimePath) -> TimePath:
    """Mild solution path for piecewise-constant forcing, exact per step.

    The forcing value on [t_k, t_{k+1}) is the node value at t_k. Each mode
    advances by one multiply-add, z_{k+1} = factor z_k + gain f_k, with the
    exact step factors of `_step_operators`: factor exp(-tau n^2) and gain
    (1 - exp(-tau n^2)) / n^2 for a heat mode; factor c + i s and gain
    int_c + i int_s on the complex view z = a + i b of a 2-block.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.size != gen.state_dim or forcing.dim != gen.state_dim:
        raise SemigroupError("state dimension mismatch")
    k = forcing.num_nodes
    if gen.kind == "heat":
        factor, gain = _step_operators(gen, forcing.dt)
    else:
        (c, s), (int_c, int_s) = _step_operators(gen, forcing.dt)
        factor, gain = c + 1j * s, int_c + 1j * int_s
    drive = gain * _modal(gen, forcing.values[:-1])
    out = np.empty((k, gen.modes), dtype=drive.dtype)
    out[0] = _modal(gen, u0)
    for i in range(k - 1):
        out[i + 1] = factor * out[i] + drive[i]
    return TimePath(forcing.t0, forcing.t1, out.view(float).reshape(k, -1),
                    forcing.weight)


def yosida_factors(gen: SpectralGenerator, lam: float):
    if lam <= 0.0:
        raise SemigroupError("the smoothing parameter must be positive")
    if gen.kind == "heat":
        mu = gen.mode_numbers() ** 2
        return lam / (lam + mu)
    w = gen.rotation_rates()
    denom = lam ** 2 + w ** 2
    return lam ** 2 / denom, -lam * w / denom  # real/imag parts of the 2x2 block


def yosida_smooth(gen: SpectralGenerator, lam: float,
                  path: TimePath) -> TimePath:
    """Node-wise resolvent smoothing lam (lam + E)^{-1} of the path."""
    if path.dim != gen.state_dim:
        raise SemigroupError("state dimension mismatch")
    if gen.kind == "heat":
        factors = yosida_factors(gen, lam)
        return path.with_values(path.values * factors[None, :])
    re, im = yosida_factors(gen, lam)
    pairs = gen.as_pairs(path.values)
    out = np.empty_like(pairs)
    out[:, :, 0] = re * pairs[:, :, 0] - im * pairs[:, :, 1]
    out[:, :, 1] = im * pairs[:, :, 0] + re * pairs[:, :, 1]
    return path.with_values(out.reshape(path.num_nodes, -1))


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
    from .paths import trapezoid_l2
    norms = np.array([gen.graph_norm(val) for val in path.values])
    return trapezoid_l2(norms, path.dt)


def rk4_oracle(gen: SpectralGenerator, u0: np.ndarray, forcing: TimePath,
               refine: int) -> TimePath:
    """Classical fourth-order integrator at `refine`-times finer steps.

    Independent route for cross-checking the exact-step solver: advances
    du/dt = -E u + f with f held at the coarse-step value. Each mode obeys
    z' = lam z + f, with lam = -n^2 for a heat mode and lam = i w on the
    complex view z = a + i b of a 2-block (w the rotation rate). One RK4
    substep is therefore the per-mode map z -> R z + Q f, read off the four
    stage formulas at (z, f) = (1, 0) and (0, 1); `refine` substeps compose
    to one coarse-step pair (A, B). No exponential, sine or cosine enters.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.size != gen.state_dim or forcing.dim != gen.state_dim:
        raise SemigroupError("state dimension mismatch")
    if refine < 1:
        raise SemigroupError("refine must be at least 1")
    tau = forcing.dt / refine
    if gen.kind == "heat":
        lam = -gen.mode_numbers() ** 2
    else:
        lam = 1j * gen.rotation_rates()

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
    drive = b * _modal(gen, forcing.values[:-1])
    k_coarse = forcing.num_nodes
    out = np.empty((k_coarse, gen.modes), dtype=drive.dtype)
    out[0] = _modal(gen, u0)
    for i in range(k_coarse - 1):
        out[i + 1] = a * out[i] + drive[i]
    return TimePath(forcing.t0, forcing.t1,
                    out.view(float).reshape(k_coarse, -1), forcing.weight)
