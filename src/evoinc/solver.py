"""Coupled solver: relaxed projection iteration over selection pairs.

One window solve alternates (a) the decoupled solves for the current
forcing pair and (b) node-wise projection of the forcing pair onto the
image hulls along the new states, relaxed by a step factor that halves on
residual growth. A converged window certifies itself: selection residuals,
the a-priori state bound, and the L2 membership bound of the forcing pair
are all recorded in the report. Global runs chain windows, recomputing the
window length from the current state bound, and finish with the
exponential-envelope check when growth envelopes are available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .monotone import (MonotoneError, VariableExponentPotential, _flow,
                       _sweep)
from .paths import TimePath, path_distance, path_l2_norm, trapezoid_l2, zero_path
from .selection import _selection
from .semigroup import SpectralGenerator, duhamel_solve, yosida_smooth

THETA_FLOOR = 2.0 ** -10
BLOWUP_NORM = 1e12


class SolverError(ValueError):
    pass


@dataclass(frozen=True)
class Bound:
    """The inequality lhs <= rhs + slack, over scalars or arrays that
    broadcast together. Its margin is the least rhs + slack - lhs (NaN when
    any row is NaN, inf when there are no rows), and it passes when the
    margin is >= 0, so a NaN fails. Every certificate of the package is
    graded by this rule alone."""
    lhs: float | np.ndarray
    rhs: float | np.ndarray
    slack: float | np.ndarray

    @property
    def margin(self) -> float:
        return float(np.min(np.add(self.rhs, self.slack)
                            - np.asarray(self.lhs), initial=math.inf))

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0


@dataclass(frozen=True)
class GlobalSettings:
    """Settings of a solve: the relaxation factor theta in (0, 1], a finite
    positive tolerance on both selection residuals, the iteration budget
    and the number of time nodes of each window, and the longest window."""
    theta: float = 0.5
    tol: float = 1e-8
    max_iter: int = 500
    nodes_per_window: int = 129
    max_window: float = math.inf

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise SolverError("relaxation factor must lie in (0, 1]")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise SolverError("tolerance must be finite and > 0")
        if self.max_iter < 1:
            raise SolverError("iteration budget must be >= 1")
        if self.nodes_per_window < 2:
            raise SolverError("a window needs at least two nodes")


@dataclass(frozen=True)
class WindowParams:
    """Local-existence constants for one solve window.

    Every generator kind is a contraction semigroup (the
    `isometry-contraction` check verifies it), so the propagator sup-norm
    bound that scales the initial data is 1 throughout this module.
    """
    beta: float          # bound of the initial-data set
    m: float             # beta + 1
    r: float             # image bound of the right-hand sides
    t_window: float      # admissible window length

    def __post_init__(self):
        if self.m < 1.0:
            raise SolverError("need m >= 1")
        if self.r < 0.0:
            raise SolverError("image bound must be nonnegative")
        if not self.t_window > 0.0:
            raise SolverError("window length must be > 0")


def compute_window(b_bound: float, envelopes, t_max: float) -> WindowParams:
    """Window length T0 from the growth envelopes, at most t_max.

    The a-priori state radius is rho = m - 1 + sqrt(T) m, and r(T) is the
    largest envelope over the rho-ball. With r0 = r(t_max), T0 =
    min(t_max, (m / r0)^2), or t_max when r0 = 0. Every step of r is
    monotone in T, so r(T0) <= r0 and sqrt(T0) r(T0) <= m: T0 is
    admissible, and r(T0) is returned with it. T0 is the first admissible
    length, not the largest: a longer one can solve sqrt(T) r(T) = m.
    """
    if b_bound < 0.0 or not 0.0 < t_max < math.inf:
        raise SolverError("need a data bound >= 0 and a finite t_max > 0")
    envelopes = list(envelopes)
    if not envelopes:
        raise SolverError("need at least one growth envelope")
    m = b_bound + 1.0

    def image_bound(t_win: float) -> float:
        rho = m - 1.0 + math.sqrt(t_win) * m
        return max(env.value(rho, rho) for env in envelopes)

    r0 = image_bound(t_max)
    t0 = t_max if r0 == 0.0 else min(t_max, (m / r0) ** 2)
    if t0 == 0.0:
        raise SolverError(
            f"window length (m / r)^2 underflows to 0: image bound "
            f"r = {r0:.3e} against m = {m:.3e}")
    return WindowParams(b_bound, m, image_bound(t0), t0)


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual_f: float
    residual_g: float
    residual_history: tuple
    converged: bool
    stop_reason: str     # "tolerance", "theta_floor" or "budget"
    apriori: Bound
    membership: Bound    # the L2 norms of f*, g* against m


@dataclass(frozen=True)
class WindowSolution:
    window: WindowParams
    u: TimePath
    v: TimePath
    f: TimePath
    g: TimePath
    report: SolveReport
    node_defect_f: np.ndarray
    node_defect_g: np.ndarray


def apriori_bound_check(u: TimePath, v: TimePath, f: TimePath, g: TimePath,
                        window: WindowParams) -> Bound:
    """sup-node state norms against m - 1 + sqrt(T0) max forcing L2 norm,
    up to a slack of 1e-6."""
    lhs = max(float(u.node_norms().max()), float(v.node_norms().max()))
    forcing = max(path_l2_norm(f), path_l2_norm(g))
    rhs = window.m - 1.0 + math.sqrt(window.t_window) * forcing
    return Bound(lhs, rhs, 1e-6)


def data_bound(u, v, h: float) -> float:
    """max(||u||, sqrt(h) ||v||): the norm of the data pair (u, v), with v
    in the norm of mesh width h."""
    return max(float(np.linalg.norm(u)),
               math.sqrt(h) * float(np.linalg.norm(v)))


def _window_map(gen: SpectralGenerator, pot: VariableExponentPotential,
                table: np.ndarray, u0: np.ndarray, v0: np.ndarray, f_map,
                g_map, f_path: TimePath, g_path: TimePath, step,
                v: TimePath | None = None, u: TimePath | None = None):
    """The coupled map of one window at the forcing pair (f_path, g_path).

    u solves the propagator problem under f_path, unless the `u` it
    produced is given. v is the node values of `step` under g_path, with
    the coefficient rows of `table`: the cold `_flow` without a current
    `v`, else `_flow` or `_sweep` resumed from it; with `step` None the
    current `v` is kept. f* and g* are the nearest points of the images
    along (u, v), each the closed form of its family (`project`), certified
    node by node. Returns u, v, f*, g* and the node distances of f_path
    to f* and of g_path to g* in the target norms.
    """
    if u is None:
        u = duhamel_solve(gen, u0, f_path)
    if step is not None:
        v = TimePath(g_path.t0, g_path.t1, step(
            pot, table, v0, g_path.values, g_path.dt,
            None if v is None else v.values), pot.mesh)
    f_star, defect_f = _selection(f_map, u, v, f_path)
    g_star, defect_g = _selection(g_map, u, v, g_path)
    return u, v, f_star, g_star, defect_f, defect_g


def solve_window(gen: SpectralGenerator, pot: VariableExponentPotential,
                 u0: np.ndarray, v0: np.ndarray, f_map, g_map,
                 window: WindowParams, t_start: float = 0.0,
                 settings: GlobalSettings = GlobalSettings()) -> WindowSolution:
    """Relaxed projection iteration of `_window_map` on one window, with
    the grid, starting relaxation factor, tolerance and budget of
    `settings`.

    The map before the loop runs the cold exact flow under the zero
    forcing pair. Each iteration maps the relaxed pair with a fresh u;
    v moves only when the g-forcing differs, bit for bit, from the one
    that produced the current v (a NaN never compares equal), and then by
    one Jacobi-in-time sweep over the current v (`monotone._sweep`), since
    it only feeds the next selections. The finish maps the same pair
    again with the same u and the exact flow resumed from a swept v, each
    step certified against its actual predecessor. It runs when both
    residuals first pass the tolerance along a swept v, and the window
    converges only if they still pass; it also runs when the theta floor
    or the budget stops the loop on a swept v, and then replaces that
    iteration's residuals. So every reported v, f*, g* and residual comes
    from the exact flow. The report says why the loop stopped
    (`tolerance`, `theta_floor` or `budget`). Non-convergence is an
    allowed outcome and is reported with the residuals reached, never
    raised.
    """
    u0, v0 = np.asarray(u0, dtype=float), np.asarray(v0, dtype=float)
    if data_bound(u0, v0, pot.mesh) > window.beta + 1e-9:
        raise SolverError("initial data exceeds the window's data bound")
    if v0.shape != (pot.interior_nodes,):
        raise MonotoneError("state dimension mismatch")

    t_end, num_nodes = t_start + window.t_window, settings.nodes_per_window
    f_path = zero_path(t_start, t_end, num_nodes, gen.state_dim, 1.0)
    g_path = zero_path(t_start, t_end, num_nodes, pot.interior_nodes,
                       pot.mesh)
    # Every v-flow and sweep of the window runs on this grid: one
    # coefficient table. The forcing keeps the grid's dimension: the
    # g-selections project onto hulls of that dimension.
    fixed = (gen, pot, pot.coefficient_table(g_path.times()), u0, v0,
             f_map, g_map)
    v_forcing = g_path.values   # the g-forcing that produced v
    u, v, f_path, g_path, _, _ = _window_map(*fixed, f_path, g_path, _flow)

    tol, theta = settings.tol, settings.theta
    history, prev_res = [], math.inf
    iterations, stop, swept = 0, None, False   # swept: v is not the flow
    # one map per pass: an iteration, or the finish of a swept v that
    # passed the tolerance or stopped the loop
    while stop is None or swept:
        if swept and (stop or passed):
            step, u_kept, swept = _flow, u, False
        else:
            iterations += 1
            moved = not np.array_equal(g_path.values, v_forcing)
            step, u_kept = (_sweep if moved else None), None
            if moved:
                v_forcing, swept = g_path.values, True
        u, v, f_star, g_star, defect_f, defect_g = _window_map(
            *fixed, f_path, g_path, step, v, u_kept)
        res_f = trapezoid_l2(defect_f, f_path.dt)
        res_g = trapezoid_l2(defect_g, g_path.dt)
        passed = res_f <= tol and res_g <= tol
        if stop:    # the loop's last residuals, now along the flow
            history[-1] = (res_f, res_g)
        elif not (swept and passed):   # a passing sweep is finished first
            history.append((res_f, res_g))
            res = max(res_f, res_g)
            grew = res > prev_res * (1.0 + 1e-12)
            if grew:
                theta *= 0.5
            if passed:
                stop = "tolerance"
            elif grew and theta < THETA_FLOOR:
                stop = "theta_floor"
            elif iterations == settings.max_iter:
                stop = "budget"  # keep the forcing pair that produced u, v
            else:
                prev_res = res
                f_path = f_path.with_values(
                    (1.0 - theta) * f_path.values + theta * f_star.values)
                g_path = g_path.with_values(
                    (1.0 - theta) * g_path.values + theta * g_star.values)

    apriori = apriori_bound_check(u, v, f_star, g_star, window)
    membership = Bound(np.array([path_l2_norm(f_star), path_l2_norm(g_star)]),
                       window.m, 1e-6)
    report = SolveReport(iterations, res_f, res_g, tuple(history),
                         stop == "tolerance", stop, apriori, membership)
    return WindowSolution(window, u, v, f_star, g_star, report, defect_f,
                          defect_g)


# ---------------------------------------------------------------------------
# global continuation


@dataclass(frozen=True)
class GlobalSolution:
    windows: tuple
    converged: bool
    blowup: bool
    failure_index: int | None
    gronwall: "GronwallReport | None"

    def node_table(self) -> np.ndarray:
        """Columns: t, ||u||, ||v||, node defect of f, node defect of g.

        Zero rows when the run stopped before its first window."""
        rows = [np.empty((0, 5))]
        for i, w in enumerate(self.windows):
            start = 0 if i == 0 else 1
            t = w.u.times()[start:]
            un = w.u.node_norms()[start:]
            vn = w.v.node_norms()[start:]
            df = w.node_defect_f[start:]
            dg = w.node_defect_g[start:]
            rows.append(np.stack([t, un, vn, df, dg], axis=1))
        return np.concatenate(rows, axis=0)


def solve_global(gen: SpectralGenerator, pot: VariableExponentPotential,
                 u0: np.ndarray, v0: np.ndarray, f_map, g_map,
                 horizon: float,
                 settings: GlobalSettings = GlobalSettings()) -> GlobalSolution:
    """Chain window solves until the horizon is covered.

    The window length is recomputed from the current state bound before
    every window. Blow-up is reported once a state norm passes
    `BLOWUP_NORM`; a non-convergent window stops the run with the
    partial result and its index.
    """
    if not (math.isfinite(horizon) and horizon > 1e-12):
        raise SolverError("need a finite horizon > 1e-12")
    u_cur = np.asarray(u0, dtype=float)
    v_cur = np.asarray(v0, dtype=float)
    envelopes = [f_map.growth_envelope(), g_map.growth_envelope()]
    windows = []
    t_cur = 0.0
    blowup = False
    failure = None
    # A norm that overflows to inf is a blow-up, and an energy that
    # overflows ends the flow in a named ProxDidNotConverge: neither is a
    # warning.
    with np.errstate(over="ignore", invalid="ignore"):
        while t_cur < horizon - 1e-12:
            beta = data_bound(u_cur, v_cur, pot.mesh)
            if beta > BLOWUP_NORM:
                blowup = True
                break
            cap = min(settings.max_window, horizon - t_cur)
            window = compute_window(beta, envelopes, cap)
            sol = solve_window(gen, pot, u_cur, v_cur, f_map, g_map, window,
                               t_cur, settings)
            windows.append(sol)
            if not sol.report.converged:
                failure = len(windows) - 1
                break
            t_cur += window.t_window
            u_cur = sol.u.values[-1]
            v_cur = sol.v.values[-1]
    converged = failure is None and not blowup
    gronwall = (gronwall_check_windows(windows, envelopes, u0, v0, horizon)
                if converged else None)
    return GlobalSolution(tuple(windows), converged, blowup, failure, gronwall)


# ---------------------------------------------------------------------------
# inequality probes


@dataclass(frozen=True)
class GronwallReport:
    k_const: float
    rho: float
    bound: Bound         # node norms ||u|| + ||v|| against K e^{rho t}


def gronwall_constants(a: float, b: float, c: float, u0_norm: float,
                       v0_norm: float, t_end: float) -> tuple:
    """(K, rho) of the exponential envelope K e^{rho t}.

    Aggregates the two state estimates: the monotone side contributes
    sqrt(2) ||v0|| + 2 c T plus twice the coupling integral, the propagator
    side (a contraction, see `WindowParams`) ||u0|| + c T plus the integral.
    """
    k_const = u0_norm + math.sqrt(2.0) * v0_norm + 3.0 * c * t_end
    rho = 3.0 * max(a, b)
    return k_const, rho


def gronwall_check_windows(windows, envelopes, u0: np.ndarray,
                           v0: np.ndarray, t_end: float) -> GronwallReport:
    """Envelope check across a chain of window solutions, with the largest
    a, b and c of the growth envelopes, up to a slack of 1e-6 (1 + K)."""
    a, b, c = (max(getattr(env, k) for env in envelopes) for k in "abc")
    u0_norm = float(np.linalg.norm(np.asarray(u0, dtype=float)))
    h_w = windows[0].v.weight
    v0_norm = math.sqrt(h_w) * float(np.linalg.norm(np.asarray(v0, dtype=float)))
    k_const, rho = gronwall_constants(a, b, c, u0_norm, v0_norm, t_end)
    total = np.concatenate([w.u.node_norms() + w.v.node_norms()
                            for w in windows])
    times = np.concatenate([w.u.times() for w in windows])
    return GronwallReport(k_const, rho, Bound(total,
                                              k_const * np.exp(rho * times),
                                              1e-6 * (1.0 + k_const)))


def elementary_bound_probe(c: float, h_path: TimePath) -> tuple:
    """Quadratic integral inequality: maximal solution against c + half the
    integral of the rate.

    The maximal solution of u(t)^2 = c^2 + int h u has the closed form
    c + (1/2) int_0^t h. The independent route iterates the integral
    operator u -> sqrt(c^2 + int h u) downward from a constant
    supersolution on a refined grid; the monotone limit is the maximal
    fixed point even in the degenerate c = 0 case, where one-step
    integrators would lock onto the trivial branch. The grid is refined
    512-fold. Two Bounds, both up to a slack of 1e-8: the recursion's
    distance from the closed form at the nodes, and the recursion and its
    sub-solutions 0.25, 0.5 and 0.9 times it below the closed form.
    """
    refine, slack = 512, 1e-8
    if c < 0.0:
        raise SolverError("offset must be nonnegative")
    h_vals = h_path.values[:, 0]
    if np.any(h_vals < 0.0):
        raise SolverError("rate must be nonnegative")
    times = h_path.times()
    dt = h_path.dt
    cum = np.concatenate([[0.0], np.cumsum(0.5 * dt * (h_vals[1:] + h_vals[:-1]))])
    closed = c + 0.5 * cum

    k_fine = (times.size - 1) * refine + 1
    t_fine = np.linspace(h_path.t0, h_path.t1, k_fine)
    h_fine = np.interp(t_fine, times, h_vals)
    tau = t_fine[1] - t_fine[0]
    total = float(cum[-1]) * 2.0
    u_iter = np.full(k_fine, total + c + 1.0)
    for _ in range(400):
        integrand = h_fine * u_iter
        x = np.concatenate(
            [[0.0], np.cumsum(0.5 * tau * (integrand[1:] + integrand[:-1]))])
        u_new = np.sqrt(c * c + x)
        delta = float(np.abs(u_new - u_iter).max())
        u_iter = u_new
        if delta <= 1e-13:
            break
    recursion = u_iter[::refine]
    return (Bound(np.abs(recursion - closed), 0.0, slack),
            Bound(np.multiply.outer((1.0, 0.25, 0.5, 0.9), recursion), closed,
                  slack))


def yosida_stability_check(gen: SpectralGenerator, u0: np.ndarray,
                           forcing: TimePath, lambda_ladder) -> tuple:
    """Resolvent-smoothed solves against the quadratic forcing estimate.

    Three Bounds, each up to a relative slack of 1e-9 (1 + rhs): for each
    ladder value, the squared path distance of the smoothed solve (lhs)
    below (T0^2 / 2) times the squared forcing distance (rhs; the
    propagator is a contraction, see `WindowParams`), and the steps of
    both sides up the ladder below 0, so that both vanish.
    """
    t0_span = forcing.t1 - forcing.t0
    u = duhamel_solve(gen, u0, forcing)
    lhs, rhs = [], []
    for lam in lambda_ladder:
        f_lam = yosida_smooth(gen, lam, forcing)
        u_lam = duhamel_solve(gen, u0, f_lam)
        lhs.append(path_distance(u_lam, u) ** 2)
        rhs.append(0.5 * t0_span ** 2 * path_distance(f_lam, forcing) ** 2)
    lhs, rhs = np.array(lhs), np.array(rhs)
    slack = 1e-9 * (1.0 + rhs)
    return (Bound(lhs, rhs, slack), Bound(np.diff(lhs), 0.0, slack[1:]),
            Bound(np.diff(rhs), 0.0, slack[1:]))
