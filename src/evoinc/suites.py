"""Property batteries behind the `verify` command.

Each battery runs a family of seeded checks and reports one line's worth of
data per check: a tag, the trial count, and the worst margin of the
`solver.Bound`s that grade it (negative margins are failures). Trials
derive their generators from (seed, trial index) so batteries are
reproducible and independent of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import monotone as mono
from . import rhs as rhsmod
from . import selection as sel
from . import semigroup as sg
from . import solver as sv
from .forks import concurrently
from .solver import Bound
from .paths import TimePath, constant_path, path_distance, path_l2_norm, zero_path

SUITES = ("convex", "selection", "semigroup", "monotone", "solver")


@dataclass(frozen=True)
class CheckResult:
    """One verify line. Its verdict is the sign of its printed margin."""
    name: str
    trials: int
    worst_margin: float

    @classmethod
    def grade(cls, name: str, trials: int, bounds=(),
              gates=()) -> "CheckResult":
        """The check graded by the least margin of `bounds` (NaN if any is
        NaN), or by -1.0 when one of `gates` fails. A gate is a Bound or a
        boolean precondition, such as a converged solve, whose margin is
        not printed. A check with gates alone has margin 1.0 when they all
        hold."""
        if not all(g.passed if isinstance(g, Bound) else g for g in gates):
            return cls(name, trials, -1.0)
        return cls(name, trials, float(np.min([b.margin for b in bounds]))
                   if bounds else 1.0)

    @property
    def passed(self) -> bool:
        """The printed margin, read by `Bound`'s rule."""
        return Bound(0.0, self.worst_margin, 0.0).passed

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name} trials={self.trials} "
                f"worst_margin={self.worst_margin:.3e}")


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _random_polytope(rng, dim: int, radius: float):
    count = int(rng.integers(dim + 1, 9))
    center = rng.normal(size=dim)
    center *= rng.uniform(0.0, 0.5 * radius) / max(np.linalg.norm(center), 1e-9)
    verts = center + rng.normal(size=(count, dim)) * rng.uniform(0.1, 0.45) * radius
    norms = np.linalg.norm(verts, axis=1)
    over = norms > radius
    verts[over] *= (radius / norms[over])[:, None]
    return geo.Polytope(verts)


# ---------------------------------------------------------------------------
# convex battery


def _project_each(points, bodies) -> list:
    """`geometry.project(points[i], bodies[i])` for every i, one stacked
    projection per body kind and dimension: `project_balls` for balls, one
    `HullProjector` over the padded vertex stack for polytopes."""
    groups = {}
    for i, body in enumerate(bodies):
        groups.setdefault((type(body), body.dim), []).append(i)
    out = [None] * len(points)
    for (kind, _), idx in groups.items():
        queries = np.array([points[i] for i in idx])
        group = [bodies[i] for i in idx]
        if kind is geo.Ball:
            rows = geo.project_balls(queries,
                                     np.array([b.center for b in group]),
                                     np.array([b.radius for b in group]))
        else:
            rows = geo.HullProjector(geo.pad_vertex_stack(group)) \
                .project(queries)
        for i, row in zip(idx, rows):
            out[i] = row
    return out


def convex_battery(seed: int = 7, trials: int | None = None) -> list:
    results = []
    n_pairs = trials or 200

    bodies, xs, ys = [], [], []
    for i in range(n_pairs):
        rng = _rng(seed, 1000 + i)
        dim = int(rng.integers(2, 4))
        bodies.append(_random_polytope(rng, dim, 3.0) if rng.random() < 0.5
                      else geo.Ball(rng.normal(size=dim),
                                    float(rng.uniform(0.2, 2.0))))
        xs.append(rng.normal(size=dim) * 3.0)
        ys.append(rng.normal(size=dim) * 3.0)
    images = _project_each(xs + ys, bodies + bodies)
    lhs = [np.linalg.norm(px - py)
           for px, py in zip(images[:n_pairs], images[n_pairs:])]
    rhs = [np.linalg.norm(x - y) for x, y in zip(xs, ys)]
    results.append(CheckResult.grade("projection-nonexpansive", n_pairs,
                                     [Bound(np.array(lhs), np.array(rhs),
                                            1e-8)]))

    polys, xs = [], []
    for i in range(n_pairs):
        rng = _rng(seed, 2000 + i)
        dim = int(rng.integers(2, 4))
        polys.append(_random_polytope(rng, dim, 3.0))
        xs.append(rng.normal(size=dim) * 3.0)
    gaps = [np.einsum("nd,d->n", poly.vertices - p, x - p).max()
            for poly, x, p in zip(polys, xs, _project_each(xs, polys))]
    slack = 1e-9 * (1.0 + np.array([np.linalg.norm(x) for x in xs]))
    results.append(CheckResult.grade("variational-certificate", n_pairs,
                                     [Bound(np.array(gaps), 0.0, slack)]))

    n_triples = max(n_pairs // 2, 1)
    triples, shifts = [], []
    for i in range(n_triples):
        rng = _rng(seed, 3000 + i)
        triples.append([_random_polytope(rng, 2, 2.0) for _ in range(3)])
        shifts.append(rng.normal(size=2))
    a, b, c = (geo.pad_vertex_stack(polys) for polys in zip(*triples))
    shift = np.asarray(shifts)[:, None, :]
    d_ab = geo._pair_hausdorff(a, b)
    bounds = [
        Bound(np.abs(d_ab - geo._pair_hausdorff(b, a)), 0.0, 1e-9),
        Bound(geo._pair_hausdorff(a, a), 0.0, 1e-9),
        Bound(np.abs(geo._pair_hausdorff(a + shift, b + shift) - d_ab), 0.0,
              1e-9),
        Bound(d_ab, geo._pair_hausdorff(a, c) + geo._pair_hausdorff(c, b),
              1e-9)]
    results.append(CheckResult.grade("hausdorff-metric-properties",
                                     n_triples, bounds))

    results.append(projection_difference_battery(seed, trials))
    results.append(slater_battery(seed, trials))
    results.append(intersection_continuity_battery(seed, trials))
    return results


def projection_difference_battery(seed: int = 7,
                                  trials: int | None = None) -> CheckResult:
    """Seeded random polytope pairs in R^3 inside B[0, 5] against the
    projection-difference estimate, all trials (default 1000) in one
    `geometry.projection_difference_check`."""
    trials = trials or 1000
    dim, radius = 3, 5.0
    bodies_c, bodies_d, queries = [], [], []
    for i in range(trials):
        rng = _rng(seed, 4000 + i)
        bodies_c.append(_random_polytope(rng, dim, radius))
        bodies_d.append(_random_polytope(rng, dim, radius))
        queries.append(rng.normal(size=dim) * radius)
    lhs, rhs = geo.projection_difference_check(np.asarray(queries), bodies_c,
                                               bodies_d, radius)
    return CheckResult.grade("projection-difference-bound", trials,
                             [Bound(lhs, rhs, 1e-8)])


def _slater_rows(seed: int, trials: int):
    """Inputs of `slater_battery`: (xs, polytopes, balls, x0s, rhos), one
    row per trial in R^3, each witness inside its ball and its polytope."""
    dim = 3
    xs, polys, balls, x0s, rhos = [], [], [], [], []
    for i in range(trials):
        rng = _rng(seed, 5000 + i)
        center = rng.normal(size=dim)
        radius = float(rng.uniform(0.8, 2.0))
        balls.append(geo.Ball(center, radius))
        x0 = center + rng.normal(size=dim) * 0.1
        rho = float(rng.uniform(0.1, 0.3))
        x0 = geo.project_balls(x0, center,
                               max(radius - rho - 1e-6, 1e-3))[0]
        # polytope containing x0: a simplex around it plus random spread
        simplex = x0 + 0.5 * np.vstack([np.eye(dim), -np.ones((1, dim))])
        extra = x0 + rng.normal(size=(3, dim)) * rng.uniform(0.5, 2.0)
        polys.append(geo.Polytope(np.vstack([simplex, extra])))
        xs.append(rng.normal(size=dim) * 4.0)
        x0s.append(x0)
        rhos.append(rho)
    return np.asarray(xs), polys, balls, np.asarray(x0s), np.asarray(rhos)


def slater_battery(seed: int = 7, trials: int | None = None) -> CheckResult:
    """Interior-witness intersections against the linear-regularity bound,
    all trials (default 500) in one `geometry.slater_intersection_check`."""
    trials = trials or 500
    lhs, rhs = geo.slater_intersection_check(*_slater_rows(seed, trials))
    return CheckResult.grade("slater-intersection-bound", trials,
                             [Bound(lhs, rhs, 1e-8)])


def intersection_continuity_battery(seed: int = 7,
                                    trials: int | None = None) -> CheckResult:
    """Convergent ball/polytope families (default 10 trials), graded on one
    pair each: the member shifted by 0.5/512 along a random unit direction
    against its limit. The sampled gap must be below 1e-2. The check fails
    with margin -1 when a cap is empty or when the open limit ball misses
    the limit polytope (the lemma's hypothesis)."""
    trials = trials or 10
    values, gates = [], []
    for i in range(trials):
        rng = _rng(seed, 6000 + i)
        base = _random_polytope(rng, 2, 1.5)
        c = geo.project(rng.normal(size=2), base)
        r = float(rng.uniform(0.6, 1.4))
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        shift = direction / 512 * 0.5
        value, hypothesis_ok = geo.intersection_continuity_probe(
            c + shift, geo.Polytope(base.vertices + shift), r, c, base)
        values.append(value)
        gates.append(hypothesis_ok and not np.isnan(value))
    return CheckResult.grade("intersection-continuity", trials,
                             [Bound(np.array(values), 0.0, 1e-2)], gates)


# ---------------------------------------------------------------------------
# selection battery


def _random_growth_map(rng, dim_u: int, dim_v: int, weight_v: float):
    """Four growth-form directions with v-feedback, scale 0.5."""
    scale = 0.5
    coeffs = []
    for k in range(4):
        direction = rng.normal(size=dim_v)
        nu = rhsmod.Affine(scale * 0.5 * float(rng.uniform(0.2, 1.0)), 0.0,
                           rhsmod.Tanh(rhsmod.Inner("v", direction, weight_v)))
        coeffs.append(rhsmod.GrowthCoefficient(
            scale * float(rng.uniform(0.2, 1.0)), nu))
    basis = np.eye(dim_u)[:4]
    return rhsmod.BasisFamilyMap(basis, tuple(coeffs), target_weight=1.0,
                                 u_weight=1.0, v_weight=weight_v)


def selection_battery(seed: int = 7, trials: int | None = None) -> list:
    results = []
    n = trials or 100

    # eps-tube regeneration: L2 distance <= eps * sqrt(span)
    dists, radii, regenerated = [], [], True
    for i in range(n):
        rng = _rng(seed, 7000 + i)
        dim_u, dim_v, k = 5, 4, 33
        family = _random_growth_map(rng, dim_u, dim_v, 1.0)
        t1 = float(rng.uniform(0.5, 2.0))
        u = TimePath(0.0, t1, rng.normal(size=(k, dim_u)))
        v = TimePath(0.0, t1, rng.normal(size=(k, dim_v)))
        anchor = zero_path(0.0, t1, k, dim_u)
        f = sel.nearest_point_selection(family, u, v, anchor)
        eps = float(rng.uniform(0.05, 0.5))
        delta = rng.normal(size=(k, dim_u))
        delta *= 0.02 * eps / max(np.linalg.norm(delta, axis=1).max(), 1e-12)
        u_new = u.with_values(u.values + delta)
        try:
            f_new = sel.approximate_selection(family, u_new, v, f, eps)
        except sel.SelectionError:
            regenerated = False
            continue
        dists.append(path_distance(f_new, f))
        radii.append(eps * math.sqrt(t1))
    results.append(CheckResult.grade(
        "close-selection-l2-bound", n,
        [Bound(np.array(dists), np.array(radii), 1e-6)], [regenerated]))

    # convex combinations of selections stay selections
    residuals = []
    n_mixes = max(n // 4, 1)
    for i in range(n_mixes):
        rng = _rng(seed, 8000 + i)
        dim_u, dim_v, k = 4, 3, 17
        family = _random_growth_map(rng, dim_u, dim_v, 1.0)
        u = TimePath(0.0, 1.0, rng.normal(size=(k, dim_u)))
        v = TimePath(0.0, 1.0, rng.normal(size=(k, dim_v)))
        f1 = sel.nearest_point_selection(
            family, u, v, TimePath(0.0, 1.0, rng.normal(size=(k, dim_u))))
        f2 = sel.nearest_point_selection(
            family, u, v, TimePath(0.0, 1.0, rng.normal(size=(k, dim_u))))
        theta = float(rng.uniform(0.0, 1.0))
        mix = f1.with_values((1.0 - theta) * f1.values + theta * f2.values)
        residuals.append(sel.selection_residual(family, u, v, mix))
    results.append(CheckResult.grade("selection-convexity-closure", n_mixes,
                                     [Bound(np.array(residuals), 0.0, 1e-8)]))

    # trapezoid path norm against the analytic linear-ramp integral
    k = 10_001
    ramp = TimePath(0.0, 1.0, np.linspace(0.0, 1.0, k)[:, None])
    error = abs(path_l2_norm(ramp) - 1.0 / math.sqrt(3.0))
    results.append(CheckResult.grade("path-norm-analytic", 1,
                                     [Bound(error, 0.0, 1e-6)]))
    return results


# ---------------------------------------------------------------------------
# semigroup battery


def semigroup_battery(seed: int = 7, trials: int | None = None) -> list:
    n = trials or 100
    law, iso, linear, oracle, ladder, stability = [], [], [], [], [], []
    for kind in ("heat", "schroedinger", "wave"):
        gen = sg.SpectralGenerator(kind, 12)
        for i in range(n):
            rng = _rng(seed, 9000 + i)
            state = rng.normal(size=gen.state_dim)
            t1, t2 = rng.uniform(0.0, 1.0, size=2)
            two_step = sg.propagate(gen, sg.propagate(gen, state, t1), t2)
            one_step = sg.propagate(gen, state, t1 + t2)
            law.append(float(np.linalg.norm(two_step - one_step)))
            drift = float(np.linalg.norm(sg.propagate(gen, state, t1))
                          - np.linalg.norm(state))
            iso.append(drift if kind == "heat" else abs(drift))

        # Duhamel linearity and the fine-step integrator cross-check
        rng = _rng(seed, 9500)
        k = 2 ** 10 + 1
        f1 = TimePath(0.0, 1.0, rng.normal(size=(k, gen.state_dim)))
        f2 = TimePath(0.0, 1.0, rng.normal(size=(k, gen.state_dim)))
        u0 = rng.normal(size=gen.state_dim)
        a = sg.duhamel_solve(gen, u0, f1.with_values(f1.values + f2.values))
        b = sg.duhamel_solve(gen, u0, f1)
        c = sg.duhamel_solve(gen, gen.zero_state(), f2)
        linear.append(Bound(path_distance(
            a, b.with_values(b.values + c.values)), 0.0, 1e-10))
        oracle.append(Bound(path_distance(
            b, sg.rk4_oracle(gen, u0, f1, refine=16)), 0.0, 1e-6))

        # resolvent smoothing ladder and the quadratic stability estimate,
        # which grades as a gate
        rng = _rng(seed, 9600)
        f = TimePath(0.0, 1.0, rng.normal(size=(129, gen.state_dim)))
        u0 = rng.normal(size=gen.state_dim)
        lambdas = [10.0 ** j for j in range(0, 7)]
        stability.extend(sv.yosida_stability_check(gen, u0, f, lambdas))
        devs = [path_distance(sg.yosida_smooth(gen, lam, f), f)
                for lam in lambdas]
        ladder.append(Bound(np.diff(devs), 0.0, 1e-12))
    results = [
        CheckResult.grade("semigroup-law", 3 * n,
                          [Bound(np.array(law), 0.0, 1e-12)]),
        CheckResult.grade("isometry-contraction", 3 * n,
                          [Bound(np.array(iso), 0.0, 1e-12)]),
        CheckResult.grade("duhamel-linearity", 3, linear),
        CheckResult.grade("duhamel-integrator-oracle", 3, oracle),
        CheckResult.grade("yosida-ladder", 3, ladder, stability)]

    # rough-data deviation profile, with truncation stability as a gate
    t_list = np.logspace(-4, -2, 25)
    prof = sg.counterexample_profile(2000, t_list)
    ratio_factor = (sg.deviation_norm(2000, 1e-6) / 1e-6) \
        / (sg.deviation_norm(2000, 1e-2) / 1e-2)
    trunc = abs(sg.deviation_norm(2000, 5e-3) ** 2
                - sg.deviation_norm(4000, 5e-3) ** 2)
    results.append(CheckResult.grade(
        "rough-data-profile", 25,
        [Bound(0.4, prof.slope, 0.0), Bound(prof.slope, 0.6, 0.0),
         Bound(80.0, ratio_factor, 0.0), Bound(ratio_factor, 120.0, 0.0)],
        [Bound(trunc, 4.0 * sg.coefficient_tail_bound(2000), 0.0)]))
    return results


# ---------------------------------------------------------------------------
# monotone battery


def monotone_battery(seed: int = 7, trials: int | None = None) -> list:
    """The monotone suite. The five light checks run in this process while
    the two long sequential flows, `p2_oracle_battery` and
    `complete_continuity_battery`, run in forked children when two CPUs are
    available (`forks.concurrently`); the lines and their bits are the
    same either way.

    Every light check is one stacked call per trial (gradient consistency)
    or per check: the states of all trials go through `energy`,
    `subgradient`, `prox_step` or `solve_monotone_ivp` as one (B, J)
    stack."""
    light, oracle, continuity = concurrently(
        lambda: _light_monotone_checks(seed, trials), p2_oracle_battery,
        lambda: complete_continuity_battery(seed))
    return light + [oracle, continuity]


def _light_monotone_checks(seed: int, trials: int | None) -> list:
    """The monotone suite's checks before its two flow checks."""
    results = []
    n = trials or 200

    pot = mono.make_potential(15, ("ramp", 2.2, 4.0), ("separable", 2.0, 0.3))
    eps = 1e-6
    bump = np.concatenate([np.eye(15), -np.eye(15)]) * eps
    errors = []
    for i in range(n):
        rng = _rng(seed, 11000 + i)
        v = rng.normal(size=15)
        t = float(rng.uniform(0.0, 1.0))
        grad = mono.subgradient(pot, t, v)
        values = mono.energy(pot, t, v + bump)
        fd = (values[:15] - values[15:]) / (2.0 * eps) / pot.mesh
        errors.append(np.abs(grad - fd).max() / (1.0 + np.abs(grad).max()))
    results.append(CheckResult.grade("gradient-consistency", n,
                                     [Bound(np.array(errors), 0.0, 1e-5)]))

    n_pairs = max(n // 4, 1)
    points = [_rng(seed, 12000 + i).normal(size=(2, 15))
              for i in range(n_pairs)]
    xs, ys = np.array(points).transpose(1, 0, 2)
    gaps = mono.prox_nonexpansive_gap(pot, 0.3, 0.05, xs, ys)
    results.append(CheckResult.grade("prox-nonexpansive", n_pairs,
                                     [Bound(gaps, 0.0, 1e-10)]))

    v0s = np.array([_rng(seed, 13000 + i).normal(size=15) for i in range(8)])
    forcing = zero_path(0.0, 1.0, 129, 15, pot.mesh)
    sols = mono.solve_monotone_ivp(pot, v0s, [forcing] * 8)
    ts = forcing.times()
    energies = mono.energy(pot, np.tile(ts, 8),
                           np.concatenate([sol.values for sol in sols]))
    bounds = []
    for sol, flow_energies in zip(sols, energies.reshape(8, ts.size)):
        bounds.append(Bound(np.diff(flow_energies), 0.0, 1e-10))
        norms = np.linalg.norm(sol.values, axis=1)
        bounds.append(Bound(np.diff(norms), 0.0, 1e-10))
    results.append(CheckResult.grade("dissipation", 8, bounds))

    v0s, forcings = [], []
    for i in range(8):
        rng = _rng(seed, 14000 + i)
        v0s.append(rng.normal(size=15))
        forcings.append(TimePath(0.0, 1.0, rng.normal(size=(65, 15)),
                                 pot.mesh))
    sols = mono.solve_monotone_ivp(pot, np.array(v0s), forcings)
    bounds = []
    for v0, forcing, sol in zip(v0s, forcings, sols):
        limit = math.sqrt(pot.mesh) * np.linalg.norm(v0) \
            + np.concatenate([[0.0], np.cumsum(forcing.dt
                                               * forcing.node_norms()[:-1])])
        bounds.append(Bound(sol.node_norms(), limit, 1e-8))
    results.append(CheckResult.grade("discrete-apriori-bound", 8, bounds))

    n_mono = trials or 1000
    pairs = np.array([_rng(seed, 15000 + i).normal(size=(2, 15))
                      for i in range(n_mono)])
    probes = mono.monotonicity_probe(pot, 0.4, pairs[:, 0], pairs[:, 1])
    results.append(CheckResult.grade("monotonicity", n_mono,
                                     [Bound(0.0, probes, 1e-10)]))
    return results


def p2_oracle_battery() -> CheckResult:
    """The p = 2 flow against the diagonalized implicit-Euler recursion,
    63 grid nodes and 2^12 steps."""
    j, steps = 63, 2 ** 12
    pot = mono.make_potential(j, ("constant", 2.0), ("constant", 1.0))
    h = pot.mesh
    x = pot.nodes()[1:-1]
    v0 = np.sin(np.pi * x) + 0.3 * np.sin(3 * np.pi * x)
    t_nodes = np.linspace(0.0, 1.0, steps + 1)
    fvals = 0.5 * np.sin(2 * np.pi * x)[None, :] \
        * np.cos(2 * np.pi * t_nodes)[:, None]
    forcing = TimePath(0.0, 1.0, fvals, h)
    sol = mono.solve_monotone_ivp(pot, v0, forcing)

    kk = np.arange(1, j + 1)
    transform = math.sqrt(2.0) * np.sin(np.pi * np.outer(kk, x))
    eigen = 4.0 / h ** 2 * np.sin(kk * np.pi * h / 2.0) ** 2 + 1.0
    tau = forcing.dt
    coeff = h * (transform @ v0)
    f_coeff = h * (forcing.values @ transform.T)
    values = np.empty_like(sol.values)
    values[0] = coeff @ transform
    for k in range(steps):
        coeff = (coeff + tau * f_coeff[k]) / (1.0 + tau * eigen)
        values[k + 1] = coeff @ transform
    oracle = TimePath(0.0, 1.0, values, h)
    return CheckResult.grade("p2-spectral-oracle", 1,
                             [Bound(path_distance(sol, oracle), 0.0, 1e-6)])


def complete_continuity_battery(seed: int = 7) -> CheckResult:
    """Oscillating forcings with vanishing mean effect: flows converge to
    within 1e-3.

    The base flow and the five oscillating ones run as one stack of six.
    The graded sup is the one at frequency 1024, which aliases on the
    1,025-node grid: sin(2 pi 1024 t_k) = sin(2 pi k) is rounding (at most
    6.9e-13), so that forcing equals the base forcing to rounding and the
    margin is 1e-3 minus a rounding-level sup. Beyond that the check has
    one gate: the five sups decrease."""
    pot = mono.make_potential(15, ("constant", 3.0), ("constant", 1.0))
    h = pot.mesh
    rng = _rng(seed, 16000)
    v0 = rng.normal(size=15) * 0.5
    k = 1025
    t = np.linspace(0.0, 1.0, k)
    profile = rng.normal(size=15)
    base_vals = 0.4 * np.sin(np.pi * pot.nodes()[1:-1])[None, :] \
        * np.ones((k, 1))
    freqs = (4, 16, 64, 256, 1024)
    forcings = [TimePath(0.0, 1.0, base_vals, h)] + [
        TimePath(0.0, 1.0,
                 base_vals + np.sin(2 * np.pi * freq * t)[:, None] * profile,
                 h)
        for freq in freqs]
    v_base, *v_oscs = mono.solve_monotone_ivp(
        pot, np.tile(v0, (len(forcings), 1)), forcings)
    sups = [math.sqrt(h) * float(np.linalg.norm(v_osc.values - v_base.values,
                                                axis=1).max())
            for v_osc in v_oscs]
    return CheckResult.grade("complete-continuity", len(sups),
                             [Bound(sups[-1], 0.0, 1e-3)],
                             [Bound(np.array(sups[1:]), np.array(sups[:-1]),
                                    1e-12)])


# ---------------------------------------------------------------------------
# solver battery


def _preset_run(name: str):
    """(global solve, experiment) of a bundled preset."""
    from .config import build_experiment, load_config, preset_path
    exp = build_experiment(load_config(preset_path(name)))
    run = sv.solve_global(exp.generator, exp.potential, exp.u0, exp.v0,
                          exp.rhs_f, exp.rhs_g, exp.horizon,
                          exp.settings)
    return run, exp


def solver_battery(seed: int = 7, trials: int | None = None) -> list:
    """The solver suite. Its longest check, `elementary_bound_battery`,
    runs in a forked child while this process runs the others, when two
    CPUs are available (`forks.concurrently`); the lines and their bits
    are the same either way."""
    checks, elementary = concurrently(
        lambda: _solver_checks(seed),
        lambda: elementary_bound_battery(seed, trials))
    return checks + [elementary]


def _solver_checks(seed: int) -> list:
    """The solver suite's checks before its elementary-bound battery."""
    results = []

    gen = sg.SpectralGenerator("heat", 6)
    pot = mono.make_potential(15, ("constant", 3.0), ("constant", 1.0))
    h = pot.mesh
    rng = _rng(seed, 17000)
    u0 = rng.normal(size=gen.state_dim) * 0.5
    v0 = rng.normal(size=15) * 0.5
    f0 = rng.normal(size=gen.state_dim) * 0.3
    g0 = rng.normal(size=15) * 0.3
    f_map = rhsmod.SingletonAffineMap.constant(f0, gen.state_dim, 15, 1.0, 1.0, h)
    g_map = rhsmod.SingletonAffineMap.constant(g0, gen.state_dim, 15, h, 1.0, h)
    window = sv.compute_window(sv.data_bound(u0, v0, h),
                               [f_map.growth_envelope(),
                                g_map.growth_envelope()], 1.0)
    sol = sv.solve_window(gen, pot, u0, v0, f_map, g_map, window,
                          settings=sv.GlobalSettings(nodes_per_window=65))
    decoupled_u = sg.duhamel_solve(gen, u0,
                                   constant_path(0.0, window.t_window, 65, f0))
    exact = bool(np.array_equal(sol.u.values, decoupled_u.values))
    results.append(CheckResult.grade(
        "singleton-one-iteration", 1,
        gates=[sol.report.converged, sol.report.iterations == 1, exact]))

    results.append(linear_block_oracle_battery(seed))
    results.append(window_params_battery(seed))

    # bundled presets end to end: every window's residuals, a-priori and
    # membership bounds, and the envelope over the run
    for name in ("heat_debye", "schrodinger_debye"):
        run, exp = _preset_run(name)
        gates = [run.converged] + [w.report.converged for w in run.windows]
        bounds = [] if run.gronwall is None else [run.gronwall.bound]
        for w in run.windows:
            bounds += [Bound(np.array([w.report.residual_f,
                                       w.report.residual_g]),
                             exp.settings.tol, 0.0),
                       w.report.apriori, w.report.membership]
        results.append(CheckResult.grade(f"preset-{name}", len(run.windows),
                                         bounds, gates))

    results.append(gronwall_negative_control())
    return results


def linear_block_oracle_battery(seed: int = 7) -> CheckResult:
    """Affine single-valued maps against the direct forward recursion, to
    within 1e-5.

    With node-sampled selections the converged fixed point satisfies an
    explicit recursion: exponential step in u, resolvent step in v, both
    driven by the previous node's affine forcing. Running that recursion
    directly is an independent route to the same discrete solution.
    """
    gen = sg.SpectralGenerator("heat", 5)
    j = 9
    pot = mono.make_potential(j, ("constant", 2.0), ("constant", 1.0))
    h = pot.mesh
    rng = _rng(seed, 18000)
    du, dv = gen.state_dim, j
    a_f = rng.normal(size=(du, du)) * 0.08
    b_f = rng.normal(size=(du, dv)) * 0.05
    c_f = rng.normal(size=du) * 0.2
    a_g = rng.normal(size=(dv, du)) * 0.05
    b_g = rng.normal(size=(dv, dv)) * 0.08
    c_g = rng.normal(size=dv) * 0.2
    f_map = rhsmod.SingletonAffineMap(a_f, b_f, c_f, 1.0, 1.0, h)
    g_map = rhsmod.SingletonAffineMap(a_g, b_g, c_g, h, 1.0, h)
    u0 = rng.normal(size=du) * 0.4
    v0 = rng.normal(size=dv) * 0.4
    window = sv.compute_window(sv.data_bound(u0, v0, h),
                               [f_map.growth_envelope(),
                                g_map.growth_envelope()], 0.5)
    k = 65
    sol = sv.solve_window(gen, pot, u0, v0, f_map, g_map, window,
                          settings=sv.GlobalSettings(tol=1e-11,
                                                     nodes_per_window=k))

    # independent route: direct block recursion
    tau = window.t_window / (k - 1)
    mu = gen.mode_numbers() ** 2
    decay = np.exp(-tau * mu)
    forced = (1.0 - np.exp(-tau * mu)) / mu
    lap = np.zeros((j, j))
    for i in range(j):
        lap[i, i] = 2.0 / h ** 2 + 1.0
        if i > 0:
            lap[i, i - 1] = -1.0 / h ** 2
        if i < j - 1:
            lap[i, i + 1] = -1.0 / h ** 2
    step_v = np.linalg.inv(np.eye(j) + tau * lap)
    u_vals = np.empty((k, du))
    v_vals = np.empty((k, dv))
    u_vals[0], v_vals[0] = u0, v0
    for i in range(k - 1):
        f_i = a_f @ u_vals[i] + b_f @ v_vals[i] + c_f
        g_i = a_g @ u_vals[i] + b_g @ v_vals[i] + c_g
        u_vals[i + 1] = decay * u_vals[i] + forced * f_i
        v_vals[i + 1] = step_v @ (v_vals[i] + tau * g_i)
    err_u = path_distance(sol.u, sol.u.with_values(u_vals))
    err_v = path_distance(sol.v, sol.v.with_values(v_vals))
    return CheckResult.grade("linear-block-oracle", 1,
                             [Bound(max(err_u, err_v), 0.0, 1e-5)],
                             [sol.report.converged])


def window_params_battery(seed: int = 7) -> CheckResult:
    """Window constants: arithmetic anchors of a constant envelope, and on
    20 seeded envelopes a window T0 in (0, (m / r)^2], up to 1e-9."""
    w = sv.compute_window(2.0, [rhsmod.GrowthEnvelope(0.0, 0.0, 1.5)], 10.0)
    bounds = [Bound(abs(w.m - 3.0), 0.0, 1e-12),
              Bound(abs(w.r - 1.5), 0.0, 1e-12),
              Bound(abs(w.t_window - (3.0 / 1.5) ** 2), 0.0, 1e-12)]
    for i in range(20):
        rng = _rng(seed, 19000 + i)
        env = rhsmod.GrowthEnvelope(*rng.uniform(0.05, 1.0, size=3))
        beta = float(rng.uniform(0.1, 3.0))
        w1 = sv.compute_window(beta, [env], 5.0)
        bounds.append(Bound(0.0, w1.t_window, 0.0))
        bounds.append(Bound(w1.t_window, (w1.m / max(w1.r, 1e-12)) ** 2,
                            1e-9))
    return CheckResult.grade("window-params", 21, bounds)


def gronwall_negative_control() -> CheckResult:
    """A converged growing run must violate a deliberately undersized rate:
    the feedback_growth preset, a rotation-kind run with pure state
    feedback, grows in norm. A run that does not converge fails its
    gate."""
    run, _ = _preset_run("feedback_growth")
    if not run.converged:
        return CheckResult.grade("gronwall-negative-control", 1,
                                 gates=[run.converged])
    genuine = run.gronwall
    # the rate-0 envelope K e^{0 t} = K, graded by how far it is violated
    broken = Bound(genuine.bound.lhs, genuine.k_const, genuine.bound.slack)
    return CheckResult.grade("gronwall-negative-control", 1,
                             [Bound(0.0, -broken.margin, 0.0)],
                             [genuine.bound])


def elementary_bound_battery(seed: int = 7,
                             trials: int | None = None) -> CheckResult:
    """Quadratic integral inequality on seeded piecewise-constant rates
    (default 100)."""
    trials = trials or 100
    bounds = []
    for i in range(trials):
        rng = _rng(seed, 20000 + i)
        k = 65
        pieces = rng.uniform(0.0, 2.0, size=8)
        vals = np.repeat(pieces, k // 8 + 1)[:k]
        h_path = TimePath(0.0, float(rng.uniform(0.5, 2.0)), vals[:, None])
        c = float(rng.uniform(0.0, 2.0))
        bounds.extend(sv.elementary_bound_probe(c, h_path))
    return CheckResult.grade("elementary-bound", trials, bounds)


# ---------------------------------------------------------------------------
# runner


def run_suite(name: str, seed: int = 7, trials: int | None = None) -> list:
    batteries = {
        "convex": convex_battery,
        "selection": selection_battery,
        "semigroup": semigroup_battery,
        "monotone": monotone_battery,
        "solver": solver_battery,
    }
    if name == "all":
        out = []
        for suite in SUITES:
            out.extend(batteries[suite](seed, trials))
        return out
    if name not in batteries:
        raise KeyError(name)
    return batteries[name](seed, trials)
