"""Variable-exponent gradient flow on a 1D Dirichlet grid.

The convex node energy

    sum_i h * D(t, x_i)/p(x_i) * |(v_{i+1} - v_i)/h|^{p(x_i)}
  + sum_j h * |v_j|^{p(x_j)} / p(x_j)

discretizes a coefficient-weighted p(x)-Laplacian plus a zeroth-order term;
forward differences include both boundary nodes, so the discrete divergence
below is the exact adjoint of the difference stencil. The flow is advanced
by proximal implicit Euler: each step minimizes
energy(t_next, w) + ||w - v - tau g||^2 / (2 tau) by damped Newton on the
tridiagonal Hessian. Exponents stay above 2 (strict) outside the
documented linear cross-check mode, which keeps the energy twice
continuously differentiable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paths import TimePath

PROX_RESIDUAL_TOL = 1e-10
PROX_NEWTON_ITERS = 60


class MonotoneError(ValueError):
    pass


class ProxDidNotConverge(RuntimeError):
    def __init__(self, residual: float):
        super().__init__(f"inner solver left gradient residual {residual:.3e}")
        self.residual = residual


@dataclass(frozen=True)
class VariableExponentPotential:
    """Grid, exponent field, and time-dependent coefficient field.

    `exponents` and the coefficient profile live on the closed grid of
    J + 2 nodes including the Dirichlet endpoints; states are the J
    interior values.
    """

    exponents: np.ndarray          # (J + 2,)
    coefficient: object            # callable t -> (J + 2,) array
    oracle_p2: bool = False

    def __post_init__(self):
        p = np.asarray(self.exponents, dtype=float)
        object.__setattr__(self, "exponents", p)
        if p.ndim != 1 or p.size < 3:
            raise MonotoneError("need at least one interior node")
        p_min = float(p.min())
        if self.oracle_p2:
            if p_min < 2.0:
                raise MonotoneError("exponents must satisfy p >= 2")
        elif p_min <= 2.0:
            raise MonotoneError(
                "exponents must satisfy p > 2 (set oracle_p2 for the "
                "linear cross-check mode)")

    @property
    def interior_nodes(self) -> int:
        return self.exponents.size - 2

    @property
    def mesh(self) -> float:
        return 1.0 / (self.interior_nodes + 1)

    @property
    def p_minus(self) -> float:
        return float(self.exponents.min())

    @property
    def p_plus(self) -> float:
        return float(self.exponents.max())

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.interior_nodes + 2)

    def coefficient_at(self, t: float) -> np.ndarray:
        d = np.asarray(self.coefficient(t), dtype=float)
        if d.shape != self.exponents.shape:
            raise MonotoneError("coefficient field has wrong shape")
        return d

    def check_coefficient_on_grid(self, times: np.ndarray,
                                  beta_floor: float = 0.0) -> float:
        """Validate positivity and time-monotonicity on the given grid.

        Returns the observed lower bound of the coefficient.
        """
        prev = None
        low = math.inf
        for t in np.asarray(times, dtype=float):
            d = self.coefficient_at(float(t))
            low = min(low, float(d.min()))
            if low <= beta_floor:
                raise MonotoneError(
                    f"coefficient must stay positive, found {low:.3e}")
            if prev is not None and np.any(d > prev + 1e-12):
                raise MonotoneError(
                    "coefficient must be nonincreasing in time")
            prev = d
        return low


def exponent_profile(j: int, spec) -> np.ndarray:
    """Named exponent fields on the closed grid: constant, ramp, or bump."""
    x = np.linspace(0.0, 1.0, j + 2)
    kind = spec[0]
    if kind == "constant":
        return np.full(j + 2, float(spec[1]))
    if kind == "ramp":
        lo, hi = float(spec[1]), float(spec[2])
        return lo + (hi - lo) * x
    if kind == "bump":
        base, amp = float(spec[1]), float(spec[2])
        return base + amp * np.sin(np.pi * x) ** 2
    raise MonotoneError(f"unknown exponent profile {kind!r}")


def coefficient_profile(j: int, spec):
    """Named coefficient fields: constant, linear time decay, separable."""
    x = np.linspace(0.0, 1.0, j + 2)
    kind = spec[0]
    if kind == "constant":
        value = float(spec[1])
        return lambda t: np.full(j + 2, value)
    if kind == "linear_decay":
        # D(t, x) = c0 - t, nonincreasing; positivity is checked on use.
        c0 = float(spec[1])
        return lambda t: np.full(j + 2, c0 - t)
    if kind == "separable":
        base, decay = float(spec[1]), float(spec[2])
        profile = base * (1.0 + 0.5 * np.sin(np.pi * x) ** 2)
        return lambda t: profile * math.exp(-decay * t)
    raise MonotoneError(f"unknown coefficient profile {kind!r}")


def make_potential(j: int, p_spec=("constant", 3.0),
                   d_spec=("constant", 1.0),
                   oracle_p2: bool = False) -> VariableExponentPotential:
    return VariableExponentPotential(exponent_profile(j, p_spec),
                                     coefficient_profile(j, d_spec),
                                     oracle_p2=oracle_p2)


# ---------------------------------------------------------------------------
# energy, gradient, Hessian


class _EnergyKernel:
    """The energy's terms at one state and one coefficient field.

    Forward differences over the closed grid (boundary values zero) and
    the powers |g|^(p-2) and |v|^(p-2) are formed once; the energy value,
    the mesh-weighted gradient and the tridiagonal Hessian all derive from
    them, each only when asked for.
    """

    __slots__ = ("pot", "d", "v", "g", "g_pow", "v_pow")

    def __init__(self, pot: VariableExponentPotential, d: np.ndarray,
                 v: np.ndarray):
        p = pot.exponents
        full = np.zeros(p.size)
        full[1:-1] = v
        self.pot = pot
        self.d = d
        self.v = v
        self.g = np.diff(full) / pot.mesh
        self.g_pow = np.abs(self.g) ** (p[:-1] - 2.0)
        self.v_pow = np.abs(v) ** (p[1:-1] - 2.0)

    def value(self) -> float:
        p = self.pot.exponents
        grad_term = np.sum(self.d[:-1] / p[:-1] * self.g_pow * self.g ** 2)
        value_term = np.sum(self.v_pow * self.v ** 2 / p[1:-1])
        return float(self.pot.mesh * (grad_term + value_term))

    def gradient(self) -> np.ndarray:
        """-div of the flux plus the zeroth-order term."""
        flux = self.d[:-1] * self.g_pow * self.g
        return (flux[:-1] - flux[1:]) / self.pot.mesh + self.v_pow * self.v

    def hessian(self):
        """(diag, off) of the Hessian in the mesh-weighted metric."""
        p = self.pot.exponents
        h2 = self.pot.mesh ** 2
        kappa = self.d[:-1] * (p[:-1] - 1.0) * self.g_pow
        diag = (kappa[:-1] + kappa[1:]) / h2 + (p[1:-1] - 1.0) * self.v_pow
        return diag, -kappa[1:-1] / h2


def energy(pot: VariableExponentPotential, t: float, v: np.ndarray) -> float:
    v = np.asarray(v, dtype=float)
    if v.size != pot.interior_nodes:
        raise MonotoneError("state has wrong number of interior nodes")
    return _EnergyKernel(pot, pot.coefficient_at(t), v).value()


def subgradient(pot: VariableExponentPotential, t: float,
                v: np.ndarray) -> np.ndarray:
    """Exact mesh-weighted gradient of the energy: -div of the flux plus
    the zeroth-order term. Coincides with the tridiagonal -Delta_h + I in
    the p = 2 cross-check mode."""
    v = np.asarray(v, dtype=float)
    return _EnergyKernel(pot, pot.coefficient_at(t), v).gradient()


def _thomas_solve(diag: np.ndarray, off: np.ndarray,
                  rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetric tridiagonal system (diag, off) x = rhs.

    The recurrence runs on Python floats: indexing numpy arrays element by
    element costs more than the arithmetic itself at these sizes.
    """
    diag, off, rhs = diag.tolist(), off.tolist(), rhs.tolist()
    n = len(diag)
    c = [0.0] * n
    d = [0.0] * n
    c_prev = 0.0
    d_prev = 0.0
    for i in range(n):
        lower = off[i - 1] if i > 0 else 0.0
        denom = diag[i] - lower * c_prev
        if i < n - 1:
            c_prev = off[i] / denom
            c[i] = c_prev
        d_prev = (rhs[i] - lower * d_prev) / denom
        d[i] = d_prev
    x = [0.0] * n
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return np.array(x)


def monotonicity_probe(pot: VariableExponentPotential, t: float,
                       v: np.ndarray, w: np.ndarray) -> float:
    """<A(t)v - A(t)w, v - w> in the mesh-weighted inner product."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    diff = subgradient(pot, t, v) - subgradient(pot, t, w)
    return float(pot.mesh * np.dot(diff, v - w))


# ---------------------------------------------------------------------------
# proximal step and flow


def prox_step(pot: VariableExponentPotential, t_next: float,
              v_prev: np.ndarray, g: np.ndarray, tau: float) -> np.ndarray:
    """Minimizer of energy(t_next, w) + ||w - v_prev - tau g||^2 / (2 tau).

    Damped Newton on the tridiagonal Hessian from w = v_prev + tau g, with
    Armijo backtracking on the prox objective; returns with mesh-weighted
    gradient residual below PROX_RESIDUAL_TOL * (1 + ||v_prev||) and raises
    ProxDidNotConverge after PROX_NEWTON_ITERS steps otherwise.
    """
    if tau <= 0.0:
        raise MonotoneError("step size must be positive")
    v_prev = np.asarray(v_prev, dtype=float)
    g = np.asarray(g, dtype=float)
    h = pot.mesh
    root_h = math.sqrt(h)
    d = pot.coefficient_at(t_next)
    z = v_prev + tau * g
    target = PROX_RESIDUAL_TOL * (1.0 + root_h * float(np.linalg.norm(v_prev)))
    w = z
    kernel = _EnergyKernel(pot, d, w)
    r = kernel.gradient()  # the proximal term vanishes at z
    res = root_h * float(np.linalg.norm(r))
    if res <= target:
        return w
    f_cur = kernel.value()
    for _ in range(PROX_NEWTON_ITERS):
        diag, off = kernel.hessian()
        delta = _thomas_solve(diag + 1.0 / tau, off, -r)
        slope = h * float(np.dot(r, delta))  # mesh-weighted, negative
        alpha = 1.0
        for _ in range(50):
            w_new = w + alpha * delta
            kernel = _EnergyKernel(pot, d, w_new)
            f_new = kernel.value() \
                + h * float(np.sum((w_new - z) ** 2)) / (2.0 * tau)
            # Armijo decrease, up to the rounding of the objective
            if f_new <= f_cur + 1e-4 * alpha * slope \
                    + 1e-12 * (1.0 + abs(f_cur)):
                break
            alpha *= 0.5
        w, f_cur = w_new, f_new
        r = kernel.gradient() + (w - z) / tau
        res = root_h * float(np.linalg.norm(r))
        if res <= target:
            return w
    raise ProxDidNotConverge(res)


def solve_monotone_ivp(pot: VariableExponentPotential, v0: np.ndarray,
                       forcing: TimePath) -> TimePath:
    """Proximal implicit Euler flow driven by node-sampled forcing.

    The forcing value on [t_k, t_{k+1}) is the node value at t_k; the
    potential is evaluated at the step's right endpoint. Coefficient
    positivity and time-monotonicity are validated on the grid first.
    """
    v0 = np.asarray(v0, dtype=float)
    if v0.size != pot.interior_nodes or forcing.dim != pot.interior_nodes:
        raise MonotoneError("state dimension mismatch")
    times = forcing.times()
    pot.check_coefficient_on_grid(times)
    tau = forcing.dt
    out = np.empty((forcing.num_nodes, pot.interior_nodes))
    out[0] = v0
    v = v0.copy()
    for k in range(forcing.num_nodes - 1):
        v = prox_step(pot, float(times[k + 1]), v, forcing.values[k], tau)
        out[k + 1] = v
    return TimePath(forcing.t0, forcing.t1, out, pot.mesh)


def prox_nonexpansive_gap(pot: VariableExponentPotential, t: float,
                          tau: float, x: np.ndarray, y: np.ndarray) -> float:
    """||prox(x) - prox(y)|| - ||x - y|| in the mesh norm (<= 0 expected)."""
    zero = np.zeros_like(x)
    px = prox_step(pot, t, np.asarray(x, dtype=float), zero, tau)
    py = prox_step(pot, t, np.asarray(y, dtype=float), zero, tau)
    h = pot.mesh
    return math.sqrt(h) * (float(np.linalg.norm(px - py))
                           - float(np.linalg.norm(np.asarray(x) - np.asarray(y))))
