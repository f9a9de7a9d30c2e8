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

from .forks import concurrently, usable_cpus
from .paths import TimePath

_KINDS = ("heat", "schroedinger", "wave")
# Least number of sines, modes times times, for which `_deviation_norms`
# splits its times over the CPUs. On a 2-vCPU Xeon host a fork round trip
# costs about 3 ms, and 2^20 sines 13 ms (arguments up to 1e8) to 60 ms
# (up to 1e10).
FORK_MIN_SINES = 2 ** 20


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


def propagate(gen: SpectralGenerator, state: np.ndarray, t: float) -> np.ndarray:
    """T(t) applied to the state; isometric for the rotation kinds."""
    state = np.asarray(state, dtype=float)
    if state.size != gen.state_dim:
        raise SemigroupError("state dimension mismatch")
    if t < 0.0:
        raise SemigroupError("propagation time must be nonnegative")
    return _real(np.exp(float(t) * gen.symbol()) * _modal(gen, state))


def duhamel_solve(gen: SpectralGenerator, u0: np.ndarray,
                  forcing: TimePath) -> TimePath:
    """Mild solution path for piecewise-constant forcing, exact per step.

    The forcing value on [t_k, t_{k+1}) is the node value at t_k. Each mode
    obeys z_{k+1} = exp(tau s) z_k + gain f_k, with the exact forcing
    integral gain = expm1(tau s) / s (s is never zero, and expm1 keeps the
    gain accurate to rounding however small tau s is). The recurrence runs
    as the log-depth scan of `_advance`, whose summation order differs from
    a node-by-node loop, so results match that loop to rounding only.
    """
    s = gen.symbol()
    ts = forcing.dt * s
    gain = np.expm1(ts) / s
    return _advance(gen, u0, forcing, np.exp(ts), gain)


def _advance(gen: SpectralGenerator, u0: np.ndarray, forcing: TimePath,
             factor: np.ndarray, gain: np.ndarray) -> TimePath:
    """Path of z_{k+1} = factor z_k + gain f_k from z_0 = u0, per mode.

    A log-depth prefix scan (Hillis and Steele, 1986) over the nodes: with
    out = (u0, gain f_0, gain f_1, ...), the pass at shift 1, 2, 4, ...
    adds factor^shift times the node `shift` places back, after which node
    k holds sum_j factor^(k - j) out_j. The powers come from repeated
    squaring and the sum is taken in a different order than the
    node-by-node recurrence, so the path agrees with it to rounding, not
    bit for bit; each squaring doubles a power's relative error, so that
    rounding grows about linearly with the number of nodes. One scratch
    buffer serves every pass.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.size != gen.state_dim or forcing.dim != gen.state_dim:
        raise SemigroupError("state dimension mismatch")
    values = _modal(gen, forcing.values[:-1])
    nodes = forcing.num_nodes
    out = np.empty((nodes, gen.modes),
                   dtype=np.result_type(factor, gain, values))
    out[0] = _modal(gen, u0)
    np.multiply(gain, values, out=out[1:])
    power = np.array(factor, dtype=out.dtype)
    scratch = np.empty_like(out)
    shift = 1
    while shift < nodes:
        step = scratch[:nodes - shift]
        np.multiply(power, out[:-shift], out=step)
        out[shift:] += step
        shift *= 2
        if shift < nodes:
            # squared only for a pass that uses it: a power beyond
            # factor^(nodes - 1) may overflow where the path does not
            power *= power
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
    return _deviation_norms(modes, [t])[0]


def _deviation_norms(modes: int, times) -> list:
    """`deviation_norm` at each of `times`, from mode arrays n^2 and
    a_n^2 = (1 + n^2)^(-3/2) built once.

    Each norm is sqrt(sum 4 sin^2(t n^2 / 2) a_n^2), its terms formed in
    one reused buffer. From FORK_MIN_SINES sines (modes times times) on,
    the times split into one contiguous chunk per CPU of
    `forks.usable_cpus`, and `forks.concurrently` runs the chunks. Every
    norm has the same bits whatever the split.
    """
    n_sq = np.arange(1, modes + 1, dtype=float) ** 2
    a_sq = (1.0 + n_sq) ** (-1.5)

    def norms(chunk) -> list:
        terms = np.empty(modes)
        out = []
        for t in chunk:
            np.multiply(0.5 * t, n_sq, out=terms)
            np.sin(terms, out=terms)
            np.square(terms, out=terms)
            terms *= 4.0
            terms *= a_sq
            out.append(float(np.sqrt(np.sum(terms))))
        return out

    if modes * len(times) < FORK_MIN_SINES:
        return norms(times)
    size = -(-len(times) // usable_cpus())
    parts = concurrently(*(lambda chunk=times[i:i + size]: norms(chunk)
                           for i in range(0, len(times), size)))
    return [norm for part in parts for norm in part]


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
    norms = np.array(_deviation_norms(modes, t.tolist()))
    ratios = norms / t
    slope = None
    if np.unique(t).size >= 2:
        slope = float(np.polyfit(np.log(t), np.log(norms), 1)[0])
    return DeviationProfile(t, norms, ratios, slope, modes,
                            coefficient_tail_bound(modes))


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
