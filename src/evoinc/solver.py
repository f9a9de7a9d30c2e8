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

from .monotone import VariableExponentPotential, solve_monotone_ivp
from .paths import TimePath, path_distance, path_l2_norm, zero_path
from .selection import SelectionPath, nearest_point_selection
from .semigroup import SpectralGenerator, duhamel_solve, yosida_smooth

SELECTION_TOL = 1e-8
MAX_ITER_DEFAULT = 500
THETA_FLOOR = 2.0 ** -10
BLOWUP_NORM = 1e12


class SolverError(ValueError):
    pass


@dataclass(frozen=True)
class WindowParams:
    """Local-existence constants for one solve window."""
    c_tilde: float       # propagator sup-norm bound on the window
    beta: float          # bound of the initial-data set
    m: float             # c_tilde * beta + 1
    r: float             # image bound of the right-hand sides
    t_window: float      # admissible window length
    t_cap: float         # horizon cap the window was computed under

    def __post_init__(self):
        if self.m < 1.0:
            raise SolverError("need m >= 1")
        if self.r < 0.0:
            raise SolverError("image bound must be nonnegative")
        if not 0.0 < self.t_window <= self.t_cap:
            raise SolverError("window length must lie in (0, t_cap]")


def compute_window(c_tilde: float, b_bound: float, envelopes,
                   t_max: float) -> WindowParams:
    """Self-consistent window length from the growth envelopes.

    The a-priori state radius rho = m - 1 + sqrt(T0) m and the image bound
    r = max envelope over the rho-ball depend on each other through T0; the
    damped iteration T0 <- min(T0, t_max, (m/r)^2) is monotone and stops at
    an admissible pair (polished to 1e-12). Zero envelopes leave the window
    unconstrained at t_max.
    """
    if min(c_tilde, b_bound, t_max) < 0.0 or t_max <= 0.0:
        raise SolverError("window inputs must be positive")
    envelopes = list(envelopes)
    if not envelopes:
        raise SolverError("need at least one growth envelope")
    m = c_tilde * b_bound + 1.0
    t0 = t_max

    def image_bound(t_win: float) -> float:
        rho = m - 1.0 + math.sqrt(t_win) * m
        return max(env.value(rho, rho) for env in envelopes)

    r = image_bound(t0)
    for _ in range(200):
        cap = t_max if r == 0.0 else min(t_max, (m / r) ** 2)
        t_new = min(t0, cap)
        r = image_bound(t_new)
        if abs(t_new - t0) <= 1e-12 * max(1.0, t0):
            t0 = t_new
            break
        t0 = t_new
    else:
        raise SolverError("window fixed point did not settle")
    if r > 0.0 and t0 > (m / r) ** 2 + 1e-9:
        raise SolverError("window fixed point inadmissible")
    return WindowParams(c_tilde, b_bound, m, r, t0, t_max)


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual_f: float
    residual_g: float
    residual_history: tuple
    converged: bool
    theta_final: float
    apriori: "AprioriReport | None"
    membership_ok: bool


@dataclass(frozen=True)
class WindowSolution:
    window: WindowParams
    u: TimePath
    v: TimePath
    f: SelectionPath
    g: SelectionPath
    report: SolveReport
    node_defect_f: np.ndarray
    node_defect_g: np.ndarray


@dataclass(frozen=True)
class AprioriReport:
    lhs: float
    rhs: float
    passed: bool


def apriori_bound_check(u: TimePath, v: TimePath, f: TimePath, g: TimePath,
                        window: WindowParams,
                        slack: float = 1e-6) -> AprioriReport:
    """sup-node state norms against m - 1 + sqrt(T0) max forcing L2 norm."""
    lhs = max(float(u.node_norms().max()), float(v.node_norms().max()))
    forcing = max(path_l2_norm(f), path_l2_norm(g))
    rhs = window.m - 1.0 + math.sqrt(window.t_window) * forcing
    return AprioriReport(lhs, rhs, lhs <= rhs + slack)


def solve_window(gen: SpectralGenerator, pot: VariableExponentPotential,
                 u0: np.ndarray, v0: np.ndarray, f_map, g_map,
                 window: WindowParams, t_start: float = 0.0,
                 num_nodes: int = 129, theta: float = 0.5,
                 tol: float = SELECTION_TOL,
                 max_iter: int = MAX_ITER_DEFAULT) -> WindowSolution:
    """Relaxed projection iteration on one window.

    Non-convergence within the budget is an allowed outcome and is reported
    with the best residuals reached, never raised.
    """
    if not 0.0 < theta <= 1.0:
        raise SolverError("relaxation factor must lie in (0, 1]")
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    h = pot.mesh
    t_end = t_start + window.t_window
    if max(np.linalg.norm(u0), math.sqrt(h) * np.linalg.norm(v0)) \
            > window.beta + 1e-9:
        raise SolverError("initial data exceeds the window's data bound")

    f_path = zero_path(t_start, t_end, num_nodes, gen.state_dim, 1.0)
    g_path = zero_path(t_start, t_end, num_nodes, pot.interior_nodes, h)
    u = duhamel_solve(gen, u0, f_path)
    v = solve_monotone_ivp(pot, v0, g_path)
    f_sel = nearest_point_selection(f_map, u, v, f_path)
    g_sel = nearest_point_selection(g_map, u, v, g_path)
    f_path, g_path = f_sel.path, g_sel.path

    history = []
    prev_res = math.inf
    converged = False
    iterations = 0
    res_f = res_g = math.inf
    f_star = f_sel
    g_star = g_sel
    for it in range(max_iter):
        iterations = it + 1
        u = duhamel_solve(gen, u0, f_path)
        v = solve_monotone_ivp(pot, v0, g_path)
        f_star = nearest_point_selection(f_map, u, v, f_path)
        g_star = nearest_point_selection(g_map, u, v, g_path)
        res_f = path_distance(f_path, f_star.path)
        res_g = path_distance(g_path, g_star.path)
        history.append((res_f, res_g))
        if res_f <= tol and res_g <= tol:
            converged = True
            break
        res = max(res_f, res_g)
        if res > prev_res * (1.0 + 1e-12):
            theta *= 0.5
            if theta < THETA_FLOOR:
                break
        prev_res = res
        f_path = f_path.with_values(
            (1.0 - theta) * f_path.values + theta * f_star.values)
        g_path = g_path.with_values(
            (1.0 - theta) * g_path.values + theta * g_star.values)

    apriori = apriori_bound_check(u, v, f_star.path, g_star.path, window)
    membership = (path_l2_norm(f_star.path) <= window.m + 1e-6
                  and path_l2_norm(g_star.path) <= window.m + 1e-6)
    report = SolveReport(iterations, res_f, res_g, tuple(history),
                         converged, theta, apriori, membership)
    defect_f = np.linalg.norm(f_path.values - f_star.values, axis=1)
    defect_g = math.sqrt(h) * np.linalg.norm(g_path.values - g_star.values,
                                             axis=1)
    return WindowSolution(window, u, v, f_star, g_star, report,
                          defect_f, defect_g)


# ---------------------------------------------------------------------------
# global continuation


@dataclass(frozen=True)
class GlobalSettings:
    theta: float = 0.5
    tol: float = SELECTION_TOL
    max_iter: int = MAX_ITER_DEFAULT
    nodes_per_window: int = 129
    max_window: float = math.inf
    blowup_norm: float = BLOWUP_NORM


@dataclass(frozen=True)
class GlobalSolution:
    windows: tuple
    converged: bool
    blowup: bool
    failure_index: int | None
    gronwall: "GronwallReport | None"

    def node_times(self) -> np.ndarray:
        """Node times of all windows, shared endpoints once; empty when the
        run stopped before its first window."""
        parts = [w.u.times() if i == 0 else w.u.times()[1:]
                 for i, w in enumerate(self.windows)]
        return np.concatenate([np.empty(0)] + parts)

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
    every window. Blow-up is reported once a state norm passes the
    configured threshold; a non-convergent window stops the run with the
    partial result and its index.
    """
    u_cur = np.asarray(u0, dtype=float)
    v_cur = np.asarray(v0, dtype=float)
    envelopes = [f_map.growth_envelope(), g_map.growth_envelope()]
    h = pot.mesh
    windows = []
    t_cur = 0.0
    blowup = False
    failure = None
    while t_cur < horizon - 1e-12:
        # a norm that overflows to inf is a blow-up, not a warning
        with np.errstate(over="ignore"):
            beta = max(float(np.linalg.norm(u_cur)),
                       math.sqrt(h) * float(np.linalg.norm(v_cur)))
        if beta > settings.blowup_norm:
            blowup = True
            break
        cap = min(settings.max_window, horizon - t_cur)
        window = compute_window(1.0, beta, envelopes, cap)
        sol = solve_window(gen, pot, u_cur, v_cur, f_map, g_map, window,
                           t_start=t_cur, num_nodes=settings.nodes_per_window,
                           theta=settings.theta, tol=settings.tol,
                           max_iter=settings.max_iter)
        windows.append(sol)
        if not sol.report.converged:
            failure = len(windows) - 1
            break
        t_cur += window.t_window
        u_cur = sol.u.values[-1]
        v_cur = sol.v.values[-1]
    converged = failure is None and not blowup and t_cur >= horizon - 1e-12
    gronwall = None
    if converged:
        a = max(env.a for env in envelopes)
        b = max(env.b for env in envelopes)
        c = max(env.c for env in envelopes)
        gronwall = gronwall_check_windows(windows, a, b, c,
                                          np.asarray(u0, dtype=float),
                                          np.asarray(v0, dtype=float),
                                          horizon)
    return GlobalSolution(tuple(windows), converged, blowup, failure, gronwall)


# ---------------------------------------------------------------------------
# inequality probes


@dataclass(frozen=True)
class GronwallReport:
    k_const: float
    rho: float
    passed: bool
    worst_margin: float


def gronwall_constants(a: float, b: float, c: float, u0_norm: float,
                       v0_norm: float, t_end: float,
                       c_tilde: float = 1.0) -> tuple:
    """(K, rho) of the exponential envelope K e^{rho t}.

    Aggregates the two state estimates: the monotone side contributes
    sqrt(2) ||v0|| + 2 c T plus twice the coupling integral, the propagator
    side c_tilde ||u0|| + c_tilde c T plus c_tilde times the integral.
    """
    k_const = c_tilde * u0_norm + math.sqrt(2.0) * v0_norm \
        + (2.0 + c_tilde) * c * t_end
    rho = (2.0 + c_tilde) * max(a, b)
    return k_const, rho


def gronwall_check_windows(windows, a: float, b: float, c: float,
                           u0: np.ndarray, v0: np.ndarray, t_end: float,
                           c_tilde: float = 1.0,
                           rho_override: float | None = None,
                           slack: float = 1e-6) -> GronwallReport:
    """Envelope check across a chain of window solutions."""
    u0_norm = float(np.linalg.norm(np.asarray(u0, dtype=float)))
    h_w = windows[0].v.weight
    v0_norm = math.sqrt(h_w) * float(np.linalg.norm(np.asarray(v0, dtype=float)))
    k_const, rho = gronwall_constants(a, b, c, u0_norm, v0_norm, t_end, c_tilde)
    if rho_override is not None:
        rho = rho_override
    worst = math.inf
    for w in windows:
        total = w.u.node_norms() + w.v.node_norms()
        envelope = k_const * np.exp(rho * w.u.times())
        worst = min(worst, float((envelope + slack * (1.0 + k_const)
                                  - total).min()))
    return GronwallReport(k_const, rho, worst >= 0.0, worst)


@dataclass(frozen=True)
class ElementaryBoundReport:
    recursion_gap: float
    bound_margin: float
    passed: bool


def elementary_bound_probe(c: float, h_path: TimePath, refine: int = 512,
                           subsolution_scales=(0.25, 0.5, 0.9),
                           slack: float = 1e-8) -> ElementaryBoundReport:
    """Quadratic integral inequality: maximal solution against c + half the
    integral of the rate.

    The maximal solution of u(t)^2 = c^2 + int h u has the closed form
    c + (1/2) int_0^t h. The independent route iterates the integral
    operator u -> sqrt(c^2 + int h u) downward from a constant
    supersolution on a refined grid; the monotone limit is the maximal
    fixed point even in the degenerate c = 0 case, where one-step
    integrators would lock onto the trivial branch. Scaled sub-solutions
    are checked against the same bound.
    """
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
    gap = float(np.abs(recursion - closed).max())
    margin = float((closed + slack - recursion).min())
    ok = gap <= 1e-8 and margin >= 0.0
    for scale in subsolution_scales:
        sub = scale * recursion
        ok = ok and bool(np.all(sub <= closed + slack))
    return ElementaryBoundReport(gap, margin, ok)


@dataclass(frozen=True)
class YosidaStabilityReport:
    lambdas: tuple
    lhs: tuple           # squared path distances of the smoothed solves
    rhs: tuple           # (T0^2 / 2) * squared forcing distances
    passed: bool


def yosida_stability_check(gen: SpectralGenerator, u0: np.ndarray,
                           forcing: TimePath, lambda_ladder,
                           c_tilde: float = 1.0,
                           rel_slack: float = 1e-9) -> YosidaStabilityReport:
    """Resolvent-smoothed solves against the quadratic forcing estimate.

    For each ladder value, the squared path distance of the smoothed solve
    must stay below (T0^2 c_tilde^2 / 2) times the squared forcing
    distance, and both sides must vanish up the ladder.
    """
    t0_span = forcing.t1 - forcing.t0
    u = duhamel_solve(gen, u0, forcing)
    lhs, rhs = [], []
    for lam in lambda_ladder:
        f_lam = yosida_smooth(gen, lam, forcing)
        u_lam = duhamel_solve(gen, u0, f_lam)
        lhs.append(path_distance(u_lam, u) ** 2)
        rhs.append(0.5 * (t0_span * c_tilde) ** 2
                   * path_distance(f_lam, forcing) ** 2)
    lhs_arr = np.array(lhs)
    rhs_arr = np.array(rhs)
    scale = rel_slack * (1.0 + rhs_arr)
    ok = bool(np.all(lhs_arr <= rhs_arr + scale))
    ok = ok and bool(np.all(np.diff(lhs_arr) <= scale[1:])) \
        and bool(np.all(np.diff(rhs_arr) <= scale[1:]))
    return YosidaStabilityReport(tuple(lambda_ladder), tuple(lhs), tuple(rhs), ok)
