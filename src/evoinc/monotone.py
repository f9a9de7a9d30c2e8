"""Variable-exponent gradient flow on a 1D Dirichlet grid.

The convex node energy

    sum_i h * D(t, x_i)/p(x_i) * |(v_{i+1} - v_i)/h|^{p(x_i)}
  + sum_j h * |v_j|^{p(x_j)} / p(x_j)

discretizes a coefficient-weighted p(x)-Laplacian plus a zeroth-order term;
forward differences include both boundary nodes, so the discrete divergence
below is the exact adjoint of the difference stencil. The flow is advanced
by proximal implicit Euler: each step minimizes
energy(t_next, w) + ||w - v - tau g||^2 / (2 tau) by damped Newton on the
tridiagonal Hessian. Exponents are at least 2, which keeps the energy
twice continuously differentiable; p = 2 is the linear case.

A flow evaluates the coefficient field once per time node into a
(K, J + 2) table, validates positivity and time-monotonicity on that table
and hands each step its row. The potential derives its mesh constants and
the exponent arrays p - 2, 1/p and p - 1 once, at construction, so an
energy evaluation is a handful of array operations and dot products.

Every layer takes a stack of B independent states sharing one potential:
a state is (J,) and a stack is (B, J), and one state runs through the
same code as a stack. The energy kernel, `energy`, `subgradient`,
`prox_step`, `solve_monotone_ivp` and the tridiagonal solve work row by
row along the last axis, with every reduction a per-row dot product, so
each row of a stack gets exactly the bits of its one-state call. The
coefficient may be one closed-grid row (J + 2,) for all states or one row
per state (B, J + 2); `energy` and `subgradient` take one time or one time
per row, so the node energies of whole flows are one call. In `prox_step`
each row has its own residual target and Armijo step length, the line
search evaluates the whole live stack at those step lengths, and rows
retire from the Newton iteration as they certify.

A flow also stacks time steps. A step whose start point v + tau g already
meets the residual certificate takes no Newton iteration. When a flow's
first step is such a step, as for a flow at rest, the flow certifies the
start points of all its remaining steps with one kernel call and accepts
the leading steps that certify. Every other step, from the first one
that fails on, goes through the proximal solve, so every node value
keeps its bits. A flow may instead be given a guess of its node values,
such as an earlier flow on the same grid: each step then starts Newton
from the guess of its node, under the same certificate, and does not
speculate.

A sweep (`_sweep`) stacks all the time steps of one flow at once. Over a
guess of the node values it solves every step from the guessed
predecessor, starting Newton at the guessed successor, in one stacked
prox call: one Jacobi-in-time iteration of waveform relaxation, whose
fixed point is the flow. A sweep's steps are certified only against
their guessed predecessors, so its node values approximate the flow and
do not replace it where a certificate is claimed. A zero pivot in a
Newton system, like a NaN one, makes that row's Newton step NaN without
touching the other rows. A row whose Newton step is not finite could
never certify, so the prox step ends at once in ProxDidNotConverge with
residual NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paths import TimePath

PROX_RESIDUAL_TOL = 1e-10
PROX_NEWTON_ITERS = 60
# Most start rows (steps times stacked states) one `_certified_run`
# certifies. A run holds about 11 arrays of its rows: a 20,001-step J = 63
# flow at rest certified in one run peaked at 106.7 MiB of traced memory
# for a 9.6 MiB result, and at 24.3 MiB in pieces of this size.
CHAIN_ROWS = 1024


class MonotoneError(ValueError):
    pass


class ProxDidNotConverge(RuntimeError):
    """Raised when a proximal step ends uncertified. The constructor
    argument stays in `args`, so the exception pickles with its residual."""

    def __init__(self, residual: float):
        super().__init__(residual)
        self.residual = residual

    def __str__(self) -> str:
        return f"inner solver left gradient residual {self.residual:.3e}"


@dataclass(frozen=True)
class VariableExponentPotential:
    """Grid, exponent field, and time-dependent coefficient field.

    `exponents` and the coefficient profile live on the closed grid of
    J + 2 nodes including the Dirichlet endpoints; states are the J
    interior values. Construction also sets derived attributes, which are
    not fields: `mesh` h, `inv_mesh` 1/h, `inv_mesh_sq` 1/h^2 and
    `root_mesh` sqrt(h), and the exponent arrays p - 2, 1/p and p - 1 on
    the J + 1 difference edges p[:-1] (`edge_p_minus_2`, `edge_inv_p`,
    `edge_p_minus_1`) and on the J interior nodes p[1:-1] (`node_*`).
    Every exponent must satisfy p >= 2; a NaN exponent is refused.
    """

    exponents: np.ndarray          # (J + 2,)
    coefficient: object            # callable t -> (J + 2,) array

    def __post_init__(self):
        p = np.asarray(self.exponents, dtype=float)
        object.__setattr__(self, "exponents", p)
        if p.ndim != 1 or p.size < 3:
            raise MonotoneError("need at least one interior node")
        if not p.min() >= 2.0:  # NaN included
            raise MonotoneError("exponents must satisfy p >= 2")
        h = 1.0 / (p.size - 1)
        edge, node = p[:-1], p[1:-1]
        derived = {
            "mesh": h, "inv_mesh": 1.0 / h,
            "inv_mesh_sq": 1.0 / (h * h), "root_mesh": math.sqrt(h),
            "edge_p_minus_2": edge - 2.0, "edge_inv_p": 1.0 / edge,
            "edge_p_minus_1": edge - 1.0, "node_p_minus_2": node - 2.0,
            "node_inv_p": 1.0 / node, "node_p_minus_1": node - 1.0,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def interior_nodes(self) -> int:
        return self.exponents.size - 2

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.interior_nodes + 2)

    def coefficient_at(self, t: float) -> np.ndarray:
        d = np.asarray(self.coefficient(t), dtype=float)
        if d.shape != self.exponents.shape:
            raise MonotoneError("coefficient field has wrong shape")
        return d

    def coefficient_table(self, times: np.ndarray) -> np.ndarray:
        """The coefficient field at every time, one (J + 2,) row each.

        Raises MonotoneError unless the table is positive and nonincreasing
        in time (up to 1e-12) from each row to the next.
        """
        times = np.asarray(times, dtype=float)
        table = np.empty((times.size, self.exponents.size))
        for k, t in enumerate(times.tolist()):
            table[k] = self.coefficient_at(t)
        low = table.min()
        if not low > 0.0:  # NaN included
            raise MonotoneError(
                f"coefficient must stay positive, found {low:.3e}")
        if np.any(table[1:] > table[:-1] + 1e-12):
            raise MonotoneError("coefficient must be nonincreasing in time")
        return table


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
                   d_spec=("constant", 1.0)) -> VariableExponentPotential:
    return VariableExponentPotential(exponent_profile(j, p_spec),
                                     coefficient_profile(j, d_spec))


# ---------------------------------------------------------------------------
# energy, gradient, Hessian


def _row_dots(a: np.ndarray, b: np.ndarray) -> list:
    """Dot products of matching rows of a and b, (n,) or (B, n), as a list
    of floats.

    A batched matmul over (1, n) @ (n, 1) blocks takes each row's dot with
    the same BLAS kernel as the 1-D `a.dot(b)` (and `a @ b`), bit for bit;
    `einsum` and `(a * b).sum(1)` sum in another order.
    """
    if a.ndim == 1:
        return [float(a.dot(b))]
    return (a[:, None, :] @ b[:, :, None]).ravel().tolist()


class _EnergyKernel:
    """The energy's terms at one state (J,) or a (B, J) stack of states.

    `d` is the coefficient on the J + 1 difference edges, d[..., :-1] of
    the closed-grid field: one (J + 1,) row shared by every state or one
    row per state. Forward differences over the closed grid (boundary
    values zero), the powers |g|^(p-2) and |v|^(p-2) and the fluxes
    d |g|^(p-2) g and |v|^(p-2) v are formed once; the energy values, the
    mesh-weighted gradients and the tridiagonal Hessians all derive from
    them, each only when asked for, with every reduction taken as a row
    dot product. All arithmetic is along the last axis, so each row of a
    stack gets the same bits as a one-state kernel.
    """

    __slots__ = ("pot", "d", "v", "g", "g_pow", "v_pow", "flux", "v_flux")
    _ROWS = ("v", "g", "g_pow", "v_pow", "flux", "v_flux")

    def __init__(self, pot: VariableExponentPotential, d: np.ndarray,
                 v: np.ndarray):
        full = np.zeros(v.shape[:-1] + pot.exponents.shape)
        full[..., 1:-1] = v
        g = full[..., 1:] - full[..., :-1]
        g *= pot.inv_mesh
        self.pot = pot
        self.d = d
        self.v = v
        self.g = g
        self.g_pow = np.abs(g) ** pot.edge_p_minus_2
        self.v_pow = np.abs(v) ** pot.node_p_minus_2
        self.flux = d * self.g_pow * g
        self.v_flux = self.v_pow * v

    def take(self, rows: np.ndarray) -> "_EnergyKernel":
        """The kernel of the rows `rows` of a stack."""
        part = object.__new__(_EnergyKernel)
        part.pot = self.pot
        part.d = self.d[rows] if self.d.ndim == 2 else self.d
        for name in _EnergyKernel._ROWS:
            setattr(part, name, getattr(self, name)[rows])
        return part

    def values(self) -> list:
        """The energy of each row, as a list of floats."""
        pot = self.pot
        grad_terms = _row_dots(self.flux, pot.edge_inv_p * self.g)
        value_terms = _row_dots(self.v_flux, pot.node_inv_p * self.v)
        h = pot.mesh
        return [h * (a + b) for a, b in zip(grad_terms, value_terms)]

    def gradient(self) -> np.ndarray:
        """-div of the flux plus the zeroth-order term."""
        flux = self.flux
        return (flux[..., :-1] - flux[..., 1:]) * self.pot.inv_mesh \
            + self.v_flux

    def hessian(self):
        """(diag, off) of the Hessian in the mesh-weighted metric."""
        pot = self.pot
        kappa = (self.d * pot.edge_p_minus_1 * self.g_pow) * pot.inv_mesh_sq
        diag = kappa[..., :-1] + kappa[..., 1:] \
            + pot.node_p_minus_1 * self.v_pow
        return diag, -kappa[..., 1:-1]


def _states(pot: VariableExponentPotential, v) -> np.ndarray:
    """One state (J,) or a stack (B, J), as a float array."""
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != pot.interior_nodes:
        raise MonotoneError("state has wrong number of interior nodes")
    return v


def _edge_coefficient(pot: VariableExponentPotential, t,
                      v: np.ndarray) -> np.ndarray:
    """Edge coefficient at one time t, or at one time per row of v."""
    if np.ndim(t) == 0:
        return pot.coefficient_at(t)[:-1]
    times = np.asarray(t, dtype=float)
    if v.ndim != 2 or times.shape != (len(v),):
        raise MonotoneError("need one time per state")
    return np.array([pot.coefficient_at(s) for s in times.tolist()])[:, :-1]


def energy(pot: VariableExponentPotential, t, v: np.ndarray):
    """Energy of one state (J,) as a float, or of a stack (B, J) as a (B,)
    array. `t` is one time for every state or a (B,) array of times, one
    per row, so the node energies of a flow are one call."""
    v = _states(pot, v)
    values = _EnergyKernel(pot, _edge_coefficient(pot, t, v), v).values()
    return values[0] if v.ndim == 1 else np.array(values)


def subgradient(pot: VariableExponentPotential, t,
                v: np.ndarray) -> np.ndarray:
    """Exact mesh-weighted gradient of the energy: -div of the flux plus
    the zeroth-order term. Coincides with the tridiagonal -Delta_h + I for
    p = 2 and D = 1. States and times stack as in `energy`;
    the result has the shape of `v`."""
    v = _states(pot, v)
    return _EnergyKernel(pot, _edge_coefficient(pot, t, v), v).gradient()


def _thomas_solve(diag: np.ndarray, off: np.ndarray,
                  rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetric tridiagonal systems (diag, off) x = rhs.

    One system (n,) with off (n - 1,), or a stack of B independent
    systems (B, n) with off (B, n - 1): the block-diagonal system of
    B * n unknowns whose off-diagonal is zero at each block boundary. One
    sweep runs over the blocks in turn and restarts the recurrence at
    each, so a block gets the same bits as when solved alone and a
    non-finite block leaves the others untouched. A block with a zero
    pivot has no solution by this recurrence and comes out NaN, like a
    block with a NaN pivot. The recurrence runs on Python floats: indexing
    numpy arrays element by element costs more than the arithmetic itself
    at these sizes.
    """
    if rhs.ndim == 1:
        return np.array(_thomas_block(diag.tolist(), off.tolist(),
                                      rhs.tolist()))
    blocks = zip(diag.tolist(), off.tolist(), rhs.tolist())
    return np.array([_thomas_block(*block) for block in blocks],
                    dtype=float).reshape(rhs.shape)


def _thomas_block(diag: list, upper: list, rhs: list) -> list:
    """One tridiagonal block of `_thomas_solve`, on Python floats."""
    n = len(rhs)
    upper.append(0.0)  # no coupling past the block's last unknown
    c = [0.0] * n
    x = [0.0] * n
    lower = c_prev = d_prev = 0.0
    try:
        for i in range(n):
            denom = diag[i] - lower * c_prev
            d_prev = (rhs[i] - lower * d_prev) / denom
            x[i] = d_prev
            lower = upper[i]
            c_prev = lower / denom
            c[i] = c_prev
    except ZeroDivisionError:  # a zero pivot: no solution, as for a NaN one
        return [math.nan] * n
    for i in range(n - 2, -1, -1):
        x[i] -= c[i] * x[i + 1]
    return x


def _state_pair(pot: VariableExponentPotential, v, w):
    """Two states, or two stacks of one shape, as (B, J) stacks, and
    whether one pair of states was given."""
    v = _states(pot, v)
    w = _states(pot, w)
    if v.shape != w.shape:
        raise MonotoneError("state stacks differ in shape")
    j = pot.interior_nodes
    return v.reshape(-1, j), w.reshape(-1, j), v.ndim == 1


def monotonicity_probe(pot: VariableExponentPotential, t: float,
                       v: np.ndarray, w: np.ndarray):
    """<A(t)v - A(t)w, v - w> in the mesh-weighted inner product.

    One pair (J,) gives a float; two (B, J) stacks give one probe per row
    as a (B,) array, from one `subgradient` call on both stacks.
    """
    v, w, single = _state_pair(pot, v, w)
    grads = subgradient(pot, t, np.concatenate([v, w]))
    diff = grads[:len(v)] - grads[len(v):]
    probes = [pot.mesh * s for s in _row_dots(diff, v - w)]
    return probes[0] if single else np.array(probes)


# ---------------------------------------------------------------------------
# proximal step and flow


def prox_step(pot: VariableExponentPotential, d: np.ndarray,
              v_prev: np.ndarray, g: np.ndarray, tau: float) -> np.ndarray:
    """Minimizer of energy(w) + ||w - v_prev - tau g||^2 / (2 tau).

    `v_prev` and `g` are one state (J,) or a stack (B, J) of independent
    problems sharing the potential and `tau`; the result has their shape.
    The energy takes the closed-grid coefficient field `d` of the step's
    time, `pot.coefficient_at(t_next)` or a row of `coefficient_table`,
    either one (J + 2,) row for every state or one row per state
    (B, J + 2). Damped Newton on each row's tridiagonal Hessian from
    w = v_prev + tau g, with Armijo backtracking on each row's prox
    objective with its own step length; a row retires from the iteration
    once its mesh-weighted gradient residual is at or below
    PROX_RESIDUAL_TOL * (1 + ||v_prev_i||). Raises ProxDidNotConverge,
    with the worst residual among the rows still iterating, when some row
    has not retired after PROX_NEWTON_ITERS steps, and with residual NaN
    as soon as some row's Newton step is not finite. Each row gets the
    same bits as in a one-state call.
    """
    if tau <= 0.0:
        raise MonotoneError("step size must be positive")
    v_prev = _states(pot, v_prev)
    g = _states(pot, g)
    if g.shape != v_prev.shape:
        raise MonotoneError("state and forcing stacks differ in shape")
    d = np.asarray(d, dtype=float)
    if d.shape != pot.exponents.shape \
            and d.shape != v_prev.shape[:-1] + pot.exponents.shape:
        raise MonotoneError("coefficient field has wrong shape")
    return _prox(pot, d[..., :-1], v_prev, v_prev + tau * g, tau)[0]


def _residual_targets(pot: VariableExponentPotential,
                      v_prev: np.ndarray) -> list:
    """The certificate's bound PROX_RESIDUAL_TOL * (1 + ||v_prev_i||) of
    each row, as a list of floats."""
    root_h = pot.root_mesh
    return [PROX_RESIDUAL_TOL * (1.0 + root_h * math.sqrt(s))
            for s in _row_dots(v_prev, v_prev)]


def _certified(pot: VariableExponentPotential, r: np.ndarray,
               targets: list) -> list:
    """Whether each row's mesh-weighted residual is at or below its
    target."""
    root_h = pot.root_mesh
    return [root_h * math.sqrt(s) <= target
            for s, target in zip(_row_dots(r, r), targets)]


def _prox_objective(kernel: _EnergyKernel, z: np.ndarray,
                    inv_tau: float):
    """The prox objective energy(w) + ||w - z||^2 / (2 tau) of each row of
    the kernel's states w, as a list of floats, and w - z."""
    shift = kernel.v - z
    h = kernel.pot.mesh
    return [e + h * s * 0.5 * inv_tau
            for e, s in zip(kernel.values(), _row_dots(shift, shift))], shift


def _prox(pot: VariableExponentPotential, d: np.ndarray, v_prev: np.ndarray,
          z: np.ndarray, tau: float, w0: np.ndarray | None = None):
    """`prox_step` on checked input: the edge coefficient `d` (d[..., :-1]
    of the closed-grid field) and the proximal centre z = v_prev + tau g.
    Newton starts from `w0` when given, of the shape of z, and from z
    otherwise; the certificate, the Armijo safeguard and the iteration
    budget are the same for both starts. Returns the minimizer and the
    number of Newton iterations taken, 0 when the start certifies.

    The line search evaluates the whole live stack at per-row step
    lengths, 1 at first, and halves the step of each row still failing
    its Armijo test; the 50th evaluation (step 2^-49) is accepted as it
    is. Rows that passed are re-evaluated with the same bits."""
    h = pot.mesh
    root_h = pot.root_mesh
    inv_tau = 1.0 / tau
    targets = _residual_targets(pot, v_prev)
    w = z if w0 is None else w0
    kernel = _EnergyKernel(pot, d, w)
    r = kernel.gradient()
    if w0 is not None:  # the proximal term, which vanishes at z
        r += (w0 - z) * inv_tau
    f_cur = None
    rows = None  # stack rows still iterating, once some have retired
    for it in range(PROX_NEWTON_ITERS + 1):
        certified = _certified(pot, r, targets)
        if all(certified):
            if rows is None:
                return w, it
            out[rows] = w
            return out, it
        if any(certified):  # retire the rows that certified
            if rows is None:
                rows = np.arange(len(certified))
                out = np.empty_like(w)
            out[rows[certified]] = w[certified]
            live = [i for i, done in enumerate(certified) if not done]
            keep = np.array(live)
            rows, w, z, r = rows[keep], w[keep], z[keep], r[keep]
            kernel = kernel.take(keep)
            if d.ndim == 2:
                d = d[keep]
            targets = [targets[i] for i in live]
            if f_cur is not None:
                f_cur = [f_cur[i] for i in live]
        if it == PROX_NEWTON_ITERS:
            break
        if f_cur is None:  # the proximal term vanishes at z
            f_cur = kernel.values() if w0 is None \
                else _prox_objective(kernel, z, inv_tau)[0]
        diag, off = kernel.hessian()
        delta = _thomas_solve(diag + inv_tau, off, -r)
        slopes = [h * rd for rd in _row_dots(r, delta)]  # mesh-weighted
        if not math.isfinite(sum(slopes)):
            # a Newton step that is not finite: its row could never certify
            raise ProxDidNotConverge(math.nan)
        alphas = [1.0] * len(slopes)
        step, todo = delta, range(len(slopes))
        for _ in range(50):
            kernel = _EnergyKernel(pot, d, w + step)
            f_new, shift = _prox_objective(kernel, z, inv_tau)
            # Armijo decrease, up to the rounding of the objective
            todo = [i for i in todo if not f_new[i] <= f_cur[i]
                    + 1e-4 * alphas[i] * slopes[i]
                    + 1e-12 * (1.0 + abs(f_cur[i]))]
            if not todo:
                break
            for i in todo:
                alphas[i] *= 0.5
            step = np.reshape(alphas, w.shape[:-1] + (1,)) * delta
        w, f_cur = kernel.v, f_new
        r = kernel.gradient() + shift * inv_tau
    raise ProxDidNotConverge(
        float(np.max([root_h * math.sqrt(s) for s in _row_dots(r, r)])))


def _certified_run(pot: VariableExponentPotential, edges: np.ndarray,
                   v: np.ndarray, tau_g: np.ndarray) -> np.ndarray:
    """The leading steps of a run from `v` that certify at their start
    points, as their states: (n,) + v.shape for the first n steps.

    Step i of the m-step run takes the forcing increment tau_g[i] and the
    edge coefficient row edges[i]. The start points are the chain
    chain[i + 1] = chain[i] + tau_g[i] from chain[0] = v, the sequential
    additions of the step-by-step loop. One kernel over all m * B start
    points gives every gradient and `_residual_targets` of the rows
    chain[:m] every target, with the bits of each step's own first
    certificate test in `_prox`. Floating-point errors raise inside the
    run: a chain that overflows, underflows or turns invalid anywhere
    certifies no step, and `_prox` takes the steps one by one under the
    caller's error settings, so no warning differs from the step-by-step
    loop's.
    """
    steps = np.concatenate((v[None], tau_g))
    j = v.shape[-1]
    try:
        with np.errstate(all="raise"):
            chain = np.add.accumulate(steps, axis=0)
            starts = chain[1:].reshape(-1, j)
            stack = len(starts) // len(tau_g)
            r = _EnergyKernel(pot, np.repeat(edges, stack, axis=0),
                              starts).gradient()
            ok = _certified(pot, r, _residual_targets(
                pot, chain[:-1].reshape(-1, j)))
    except FloatingPointError:
        return steps[:0]
    done = ok.index(False) // stack if False in ok else len(tau_g)
    return chain[1:done + 1]


def _flow(pot: VariableExponentPotential, table: np.ndarray,
          v0: np.ndarray, g: np.ndarray, tau: float,
          guess: np.ndarray | None = None) -> np.ndarray:
    """The flow's step loop: initial state(s) `v0`, (J,) or (B, J), under
    node forcings `g` of shape (K,) + v0.shape; step k takes coefficient
    row `table[k + 1]`. Returns the node values, (K, J) for one state and
    (B, K, J) for a stack.

    With a `guess` of shape (K,) + v0.shape, such as the node values of an
    earlier flow or of a `_sweep` on the same grid, step k starts its
    Newton solve from `guess[k + 1]` instead of v + tau g, and is
    certified against its actual predecessor v as before. Such a flow does
    not speculate: a step that takes no Newton iteration returns its
    guess.

    Without a guess, a step whose start point v + tau g already certifies
    takes no Newton iteration and returns that point. When step 0 is such
    a step, the loop speculates: piece by piece, each of as many steps as
    fit in CHAIN_ROWS start rows (at least one), it forms the start points
    of the next steps from the last accepted state by the same sequential
    additions, `np.add.accumulate`, certifies them in one `_certified_run`
    and accepts the leading steps that certify. The first step that does
    not ends the speculation, and it and the rest go to `_prox` one by
    one. A flow whose first step needs Newton never speculates. An
    accepted step makes the floating-point operations of a `_prox` call
    that returns its start point, so the values are bit-identical to one
    `_prox` call per step.
    """
    edges = table[:, :-1]
    tau_g = tau * g
    out = np.empty((len(g),) + v0.shape)
    out[0] = v = v0
    k = 0
    while k < len(g) - 1:
        start = None if guess is None else guess[k + 1]
        v, iterations = _prox(pot, edges[k + 1], v, v + tau_g[k], tau,
                              start)
        k += 1
        out[k] = v
        if k == 1 and len(g) > 2 and not iterations and start is None:
            piece = max(CHAIN_ROWS // (v.size // v.shape[-1]), 1)
            while k < len(g) - 1:
                m = min(piece, len(g) - 1 - k)
                run = _certified_run(pot, edges[k + 1:k + 1 + m], v,
                                     tau_g[k:k + m])
                out[k + 1:k + 1 + len(run)] = run
                k += len(run)
                v = out[k]
                if len(run) < m:
                    break
    return out if v0.ndim == 1 else out.transpose(1, 0, 2).copy()


def _sweep(pot: VariableExponentPotential, table: np.ndarray,
           v0: np.ndarray, g: np.ndarray, tau: float,
           guess: np.ndarray) -> np.ndarray:
    """One Jacobi-in-time sweep of the flow of one state `v0` (J,) under
    node forcings `g` (K, J), over a `guess` (K, J) of its node values:
    the (K, J) node values with row 0 = v0.

    Step k is solved from the guessed predecessor `guess[k]` (v0 for
    k = 0), starting Newton at `guess[k + 1]`, with coefficient row
    `table[k + 1]`. All K - 1 steps go through one stacked `_prox` call,
    each row certified against its guessed predecessor. So only step 0 is
    a step of the flow; iterated, the sweep converges to the flow's node
    values, its fixed point (waveform relaxation). Over the flow's own
    node values a sweep takes no Newton iteration and returns them.
    """
    prev = np.concatenate((v0[None], guess[1:-1]))
    w, _ = _prox(pot, table[1:, :-1], prev, prev + tau * g[:-1], tau,
                 guess[1:])
    return np.concatenate((v0[None], w))


def solve_monotone_ivp(pot: VariableExponentPotential, v0: np.ndarray,
                       forcing):
    """Proximal implicit Euler flow driven by node-sampled forcing.

    The forcing value on [t_k, t_{k+1}) is the node value at t_k; the
    potential is evaluated at the step's right endpoint. The coefficient
    field is evaluated once per node into a table, validated for positivity
    and time-monotonicity first, and step k takes row k + 1.

    One flow: `v0` (J,) and a TimePath `forcing`, returning a TimePath. A
    stack of B independent flows: `v0` (B, J) and a sequence of B
    forcings on one shared time grid, returning a list of B TimePaths.
    The flows share one coefficient table and advance together, one
    stacked `prox_step` per time step; each path is bit-identical to its
    flow run alone.
    """
    single = isinstance(forcing, TimePath)
    forcings = [forcing] if single else list(forcing)
    v0 = np.asarray(v0, dtype=float)
    j = pot.interior_nodes
    if v0.shape != ((j,) if single else (len(forcings), j)) \
            or any(f.dim != j for f in forcings):
        raise MonotoneError("state dimension mismatch")
    if not forcings:
        raise MonotoneError("need at least one flow")
    grid = forcings[0]
    if any((f.t0, f.t1, f.num_nodes) != (grid.t0, grid.t1, grid.num_nodes)
           for f in forcings):
        raise MonotoneError("forcings must share one time grid")
    table = pot.coefficient_table(grid.times())
    g = forcing.values if single \
        else np.stack([f.values for f in forcings], axis=1)
    values = _flow(pot, table, v0, g, grid.dt)
    if single:
        return TimePath(grid.t0, grid.t1, values, pot.mesh)
    return [TimePath(grid.t0, grid.t1, vals, pot.mesh) for vals in values]


def prox_nonexpansive_gap(pot: VariableExponentPotential, t: float,
                          tau: float, x: np.ndarray, y: np.ndarray):
    """||prox(x) - prox(y)|| - ||x - y|| in the mesh norm (<= 0 expected).

    One pair (J,) gives a float; two (B, J) stacks give one gap per row
    as a (B,) array, from one `prox_step` on both stacks.
    """
    x, y, single = _state_pair(pot, x, y)
    points = np.concatenate([x, y])
    prox = prox_step(pot, pot.coefficient_at(t), points,
                     np.zeros_like(points), tau)
    dp = prox[:len(x)] - prox[len(x):]
    dx = x - y
    gaps = [pot.root_mesh * (math.sqrt(a) - math.sqrt(b))
            for a, b in zip(_row_dots(dp, dp), _row_dots(dx, dx))]
    return gaps[0] if single else np.array(gaps)
