"""Coupled solver: windows, fixed-point iteration, continuation, probes."""

import math

import numpy as np
import pytest

from evoinc import geometry as geo
from evoinc import monotone as mono
from evoinc import rhs
from evoinc import selection as sel
from evoinc import semigroup as sg
from evoinc import solver as sv
from evoinc.paths import (TimePath, constant_path, path_distance,
                          trapezoid_l2, zero_path)
from evoinc.suites import _preset_run


def _setup(kind):
    gen = sg.SpectralGenerator(kind, 6)
    pot = mono.make_potential(15, ("constant", 3.0), ("constant", 1.0))
    rng = np.random.default_rng(61)
    u0 = rng.normal(size=gen.state_dim) * 0.5
    v0 = rng.normal(size=15) * 0.5
    return gen, pot, u0, v0


@pytest.fixture(scope="module")
def heat_setup():
    return _setup("heat")


def _singleton_maps(gen, pot, f0, g0):
    h = pot.mesh
    f_map = rhs.SingletonAffineMap.constant(f0, gen.state_dim,
                                            pot.interior_nodes, 1.0, 1.0, h)
    g_map = rhs.SingletonAffineMap.constant(g0, gen.state_dim,
                                            pot.interior_nodes, h, 1.0, h)
    return f_map, g_map


def _mesh_norm(pot, v):
    return pot.root_mesh * float(np.linalg.norm(v))


def _record_flows(monkeypatch):
    """Wraps `solver._flow` to record each call's node forcings and node
    values; returns the live list of (g, values) pairs."""
    calls = []
    inner = sv._flow

    def recorded(pot, table, v0, g, tau, guess=None):
        values = inner(pot, table, v0, g, tau, guess)
        calls.append((g, values))
        return values

    monkeypatch.setattr(sv, "_flow", recorded)
    return calls


def _assert_reports_a_certified_flow(pot, sol, flows):
    """The window's v is the node values of a recorded exact flow, driven
    by the window's final g-forcing, and each of its steps passes the prox
    certificate against its actual predecessor, recomputed from the node
    values: |subgradient(t_{k+1}, v_{k+1}) + (v_{k+1} - v_k - tau g_k) /
    tau| <= PROX_RESIDUAL_TOL (1 + |v_k|) in the mesh norm."""
    w = sol.v.values
    g = next(g for g, values in reversed(flows) if np.array_equal(values, w))
    # g is the forcing whose selection defects the window reports
    defect = pot.root_mesh * np.linalg.norm(g - sol.g.values, axis=1)
    assert np.array_equal(defect, sol.node_defect_g)
    tau, times = sol.v.dt, sol.v.times()
    for k in range(len(w) - 1):
        r = mono.subgradient(pot, times[k + 1], w[k + 1]) \
            + (w[k + 1] - w[k] - tau * g[k]) / tau
        target = mono.PROX_RESIDUAL_TOL * (1.0 + _mesh_norm(pot, w[k]))
        assert _mesh_norm(pot, r) <= target, k


def _growth_maps(gen, pot, scale=0.3):
    h = pot.mesh
    n = 4
    x = pot.nodes()[1:-1]
    coeffs_f = tuple(
        rhs.GrowthCoefficient(
            scale * 0.6 ** k,
            rhs.Affine(0.5 * scale * 0.7 ** k, 0.0,
                       rhs.Tanh(rhs.Inner("v", np.sin(np.pi * (k + 1) * x), h))))
        for k in range(n))
    f_map = rhs.BasisFamilyMap(np.eye(gen.state_dim)[:n], coeffs_f,
                               target_weight=1.0, u_weight=1.0, v_weight=h)
    kk = np.arange(1, n + 1)
    basis_v = math.sqrt(2.0) * np.sin(np.pi * np.outer(kk, x))
    coeffs_g = tuple(
        rhs.GeneralCoefficient(
            rhs.Affine(0.8 * scale * 0.6 ** k, 0.0,
                       rhs.Tanh(rhs.Inner("u", np.eye(gen.state_dim)[k]))))
        for k in range(n))
    g_map = rhs.BasisFamilyMap(basis_v, coeffs_g, target_weight=h,
                               u_weight=1.0, v_weight=h)
    return f_map, g_map


# ---------------------------------------------------------------------------
# window constants


def test_window_m_arithmetic():
    w = sv.compute_window(2.0, [rhs.GrowthEnvelope(0.1, 0.1, 0.5)], 10.0)
    assert w.m == pytest.approx(3.0)


def test_window_constant_envelope_closed_form():
    r0 = 1.5
    w = sv.compute_window(2.0, [rhs.GrowthEnvelope(0.0, 0.0, r0)], 10.0)
    assert w.r == pytest.approx(r0)
    assert w.t_window == pytest.approx((3.0 / r0) ** 2)
    capped = sv.compute_window(2.0, [rhs.GrowthEnvelope(0.0, 0.0, r0)], 1.0)
    assert capped.t_window == pytest.approx(1.0)


def test_window_zero_envelopes_leave_cap():
    w = sv.compute_window(1.0, [rhs.GrowthEnvelope(0.0, 0.0, 0.0)], 2.5)
    assert w.t_window == pytest.approx(2.5)
    assert w.r == 0.0


def test_window_underflowing_to_zero_is_named():
    # (m / r)^2 = (3 / 1e200)^2 underflows to 0: no admissible window
    with pytest.raises(sv.SolverError, match="underflows to 0"):
        sv.compute_window(2.0, [rhs.GrowthEnvelope(0.0, 0.0, 1e200)], 1.0)
    # at 1e150 the window is tiny but positive
    tiny = sv.compute_window(2.0, [rhs.GrowthEnvelope(0.0, 0.0, 1e150)], 1.0)
    assert tiny.t_window == pytest.approx((3.0 / 1e150) ** 2)


def test_window_refuses_a_non_finite_cap():
    env = rhs.GrowthEnvelope(0.0, 0.0, 0.0)
    for t_max in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(sv.SolverError, match="finite t_max > 0"):
            sv.compute_window(1.0, [env], t_max)


def test_window_matches_refined_scalar_iteration():
    # oracle: the plain sweep T <- min(T, t_max, (m / r(T))^2) from t_max,
    # run until it stops moving, over 1 to 3 envelopes with zeroed
    # components, and caps t_max below and above (m / r(t_max))^2
    below = above = 0
    for i in range(60):
        rng = np.random.default_rng([62, i])
        abc = rng.uniform(0.05, 1.2, size=(int(rng.integers(1, 4)), 3))
        abc[rng.random(abc.shape) < 0.25] = 0.0
        envs = [rhs.GrowthEnvelope(*row) for row in abc]
        beta = float(rng.uniform(0.1, 3.0))
        t_max = float(10.0 ** rng.uniform(-2.0, 1.0))
        w = sv.compute_window(beta, envs, t_max)
        m = beta + 1.0

        def image_bound(t):
            rho = m - 1.0 + math.sqrt(t) * m
            return max(env.value(rho, rho) for env in envs)

        t0 = t_max
        for _ in range(10_000):
            r = image_bound(t0)
            t_new = min(t0, t_max if r == 0 else min(t_max, (m / r) ** 2))
            if t_new == t0:
                break
            t0 = t_new
        assert (w.beta, w.m, w.r, w.t_window) == (beta, m, image_bound(t0),
                                                  t0)
        # admissible: sqrt(T0) r <= m, up to the rounding of sqrt and **2
        assert math.sqrt(w.t_window) * w.r <= w.m * (1.0 + 1e-15)
        r_max = image_bound(t_max)
        if r_max == 0.0 or t_max < (m / r_max) ** 2:
            below += 1
        else:
            above += 1
    assert min(below, above) >= 10


# ---------------------------------------------------------------------------
# single window solves


def test_singleton_maps_converge_in_one_iteration(heat_setup):
    gen, pot, u0, v0 = heat_setup
    rng = np.random.default_rng(63)
    f0 = rng.normal(size=gen.state_dim) * 0.3
    g0 = rng.normal(size=15) * 0.3
    f_map, g_map = _singleton_maps(gen, pot, f0, g0)
    beta = max(np.linalg.norm(u0), math.sqrt(pot.mesh) * np.linalg.norm(v0))
    window = sv.compute_window(beta, [f_map.growth_envelope(),
                                      g_map.growth_envelope()], 1.0)
    sol = sv.solve_window(gen, pot, u0, v0, f_map, g_map, window,
                          settings=sv.GlobalSettings(nodes_per_window=65))
    assert sol.report.converged and sol.report.iterations == 1
    assert sol.report.residual_f == 0.0 and sol.report.residual_g == 0.0

    # decoupled exactness: the same code path reproduces the plain solvers
    f_path = constant_path(0.0, window.t_window, 65, f0)
    assert np.array_equal(sol.u.values,
                          sg.duhamel_solve(gen, u0, f_path).values)
    # the v-flow under g0 resumes from the flow under the zero forcing, so
    # it certifies every step on its own rather than copying the bits of a
    # cold flow: w_{k+1} = prox(w_k + tau g0) to the prox certificate, and
    # within tau times that target of the cold flow at every node
    g_path = constant_path(0.0, window.t_window, 65, g0, pot.mesh)
    cold = mono.solve_monotone_ivp(pot, v0, g_path).values
    w, tau, times = sol.v.values, g_path.dt, g_path.times()
    assert np.array_equal(w[0], v0)
    for k in range(64):
        r = mono.subgradient(pot, times[k + 1], w[k + 1]) \
            + (w[k + 1] - w[k] - tau * g_path.values[k]) / tau
        target = mono.PROX_RESIDUAL_TOL * (1.0 + _mesh_norm(pot, w[k]))
        assert _mesh_norm(pot, r) <= target, k
        cold_target = mono.PROX_RESIDUAL_TOL * (1.0 + _mesh_norm(pot, cold[k]))
        assert np.abs(w[k + 1] - cold[k + 1]).max() <= tau * cold_target, k
    assert sol.report.apriori.passed and sol.report.membership.passed


def test_singleton_apriori_margin_hand_computed(heat_setup):
    gen, pot, u0, v0 = heat_setup
    f0 = np.zeros(gen.state_dim)
    g0 = np.zeros(15)
    f0[0] = 0.4
    f_map, g_map = _singleton_maps(gen, pot, f0, g0)
    beta = max(np.linalg.norm(u0), math.sqrt(pot.mesh) * np.linalg.norm(v0))
    window = sv.compute_window(beta, [f_map.growth_envelope(),
                                      g_map.growth_envelope()], 1.0)
    sol = sv.solve_window(gen, pot, u0, v0, f_map, g_map, window,
                          settings=sv.GlobalSettings(nodes_per_window=65))
    rep = sol.report.apriori
    span = math.sqrt(window.t_window)
    assert rep.rhs == pytest.approx(window.m - 1.0 + span * 0.4 * span)
    assert rep.passed and rep.lhs <= rep.rhs


def test_growth_maps_converge_below_tolerance(heat_setup):
    gen, pot, u0, v0 = heat_setup
    f_map, g_map = _growth_maps(gen, pot)
    beta = max(np.linalg.norm(u0), math.sqrt(pot.mesh) * np.linalg.norm(v0))
    window = sv.compute_window(beta, [f_map.growth_envelope(),
                                      g_map.growth_envelope()], 0.5)
    sol = sv.solve_window(gen, pot, u0, v0, f_map, g_map, window,
                          settings=sv.GlobalSettings(nodes_per_window=65))
    assert sol.report.converged
    # recorded from this configuration: twelve iterations reach 1e-8 (the
    # residual halves per step, matching the relaxation factor)
    assert sol.report.iterations <= 15
    assert max(sol.report.residual_f, sol.report.residual_g) <= 1e-8
    assert sel.selection_residual(f_map, sol.u, sol.v, sol.f) <= 1e-8
    assert sel.selection_residual(g_map, sol.u, sol.v, sol.g) <= 1e-8
    assert sol.report.apriori.passed and sol.report.membership.passed


@pytest.mark.parametrize("kind", sg.KINDS)
def test_coupled_window_converges_for_each_generator(monkeypatch, kind):
    # the growth maps couple u and v through every generator kind: the
    # window stops on the tolerance and reports a certified exact flow
    gen, pot, u0, v0 = _setup(kind)
    f_map, g_map = _growth_maps(gen, pot)
    beta = max(np.linalg.norm(u0), math.sqrt(pot.mesh) * np.linalg.norm(v0))
    window = sv.compute_window(beta, [f_map.growth_envelope(),
                                      g_map.growth_envelope()], 0.5)
    flows = _record_flows(monkeypatch)
    sol = sv.solve_window(gen, pot, u0, v0, f_map, g_map, window,
                          settings=sv.GlobalSettings(nodes_per_window=65))
    rep = sol.report
    assert rep.converged and rep.stop_reason == "tolerance"
    assert max(rep.residual_f, rep.residual_g) <= 1e-8
    assert rep.apriori.passed and rep.membership.passed
    _assert_reports_a_certified_flow(pot, sol, flows)


def test_relaxed_update_contracts_residual(heat_setup):
    gen, pot, u0, v0 = heat_setup
    f_map, g_map = _growth_maps(gen, pot, scale=0.5)
    beta = max(np.linalg.norm(u0), math.sqrt(pot.mesh) * np.linalg.norm(v0))
    window = sv.compute_window(beta, [f_map.growth_envelope(),
                                      g_map.growth_envelope()], 0.5)
    settings = sv.GlobalSettings(theta=0.5, nodes_per_window=65)
    sol = sv.solve_window(gen, pot, u0, v0, f_map, g_map, window,
                          settings=settings)
    history = sol.report.residual_history
    assert len(history) >= 2
    # Replay the iteration: a cold flow before the loop; in the loop one
    # sweep over the previous v whenever the g-forcing moved, and, once
    # both residuals pass with a swept v, the exact flow resumed from it
    # and fresh selections along it. Convexity of the node distance: the
    # relaxed pair must sit within (1 - theta) of the residual against the
    # same images.
    f_path = zero_path(0.0, window.t_window, 65, gen.state_dim, 1.0)
    g_path = zero_path(0.0, window.t_window, 65, 15, pot.mesh)
    table = pot.coefficient_table(g_path.times())
    u = sg.duhamel_solve(gen, u0, f_path)
    v = mono.solve_monotone_ivp(pot, v0, g_path)
    f_path = sel.nearest_point_selection(f_map, u, v, f_path)
    g_path = sel.nearest_point_selection(g_map, u, v, g_path)

    def selections():
        f_star = sel.nearest_point_selection(f_map, u, v, f_path)
        g_star = sel.nearest_point_selection(g_map, u, v, g_path)
        return (f_star, g_star, path_distance(f_path, f_star),
                path_distance(g_path, g_star))

    exact_flows = 0
    for res_f, res_g in history:
        u = sg.duhamel_solve(gen, u0, f_path)
        v = v.with_values(mono._sweep(pot, table, v0, g_path.values,
                                      g_path.dt, v.values))
        f_star, g_star, dist_f, dist_g = selections()
        if max(dist_f, dist_g) <= settings.tol:
            v = v.with_values(mono._flow(pot, table, v0, g_path.values,
                                         g_path.dt, v.values))
            exact_flows += 1
            f_star, g_star, dist_f, dist_g = selections()
        assert dist_f == pytest.approx(res_f, abs=1e-12)
        assert dist_g == pytest.approx(res_g, abs=1e-12)
        f_path = f_path.with_values(0.5 * f_path.values + 0.5 * f_star.values)
        g_path = g_path.with_values(0.5 * g_path.values + 0.5 * g_star.values)
        rel_f = trapezoid_l2(sel.node_distances(f_map, u, v, f_path), f_path.dt)
        rel_g = trapezoid_l2(sel.node_distances(g_map, u, v, g_path), g_path.dt)
        assert rel_f <= 0.5 * res_f + 1e-10
        assert rel_g <= 0.5 * res_g + 1e-10
    # the swept residuals passed once, on the last iteration, and the
    # reported v is the exact flow of the replay
    assert exact_flows == 1 and sol.report.stop_reason == "tolerance"
    assert np.abs(sol.v.values - v.values).max() <= 1e-12


def test_convergence_is_decided_on_the_exact_flow(heat_setup, monkeypatch):
    # a "sweep" that leaves v as it was: the residuals along it first pass
    # against a stale v, and the exact flow then fails them, so the
    # iteration goes on; the window converges only on residuals along the
    # exact flow
    gen, pot, u0, v0 = heat_setup
    f_map, g_map = _growth_maps(gen, pot, scale=0.5)
    beta = max(np.linalg.norm(u0), math.sqrt(pot.mesh) * np.linalg.norm(v0))
    window = sv.compute_window(beta, [f_map.growth_envelope(),
                                      g_map.growth_envelope()], 0.5)
    monkeypatch.setattr(sv, "_sweep", lambda pot, table, v0, g, tau, guess:
                        guess)
    flows = _record_flows(monkeypatch)
    sol = sv.solve_window(gen, pot, u0, v0, f_map, g_map, window,
                          settings=sv.GlobalSettings(nodes_per_window=65))
    assert len(flows) > 2
    assert sol.report.converged and sol.report.stop_reason == "tolerance"
    assert max(sol.report.residual_f, sol.report.residual_g) <= 1e-8
    _assert_reports_a_certified_flow(pot, sol, flows)


def test_initial_data_bound_enforced(heat_setup):
    gen, pot, u0, v0 = heat_setup
    f_map, g_map = _singleton_maps(gen, pot, np.zeros(gen.state_dim),
                                   np.zeros(15))
    window = sv.compute_window(0.01, [f_map.growth_envelope(),
                                      g_map.growth_envelope()], 1.0)
    with pytest.raises(sv.SolverError):
        sv.solve_window(gen, pot, u0 * 100.0, v0, f_map, g_map, window)


def test_nonconvergence_is_reported_not_raised(heat_setup, monkeypatch):
    gen, pot, u0, v0 = heat_setup
    flows = _record_flows(monkeypatch)
    f_map, g_map = _growth_maps(gen, pot, scale=0.4)
    beta = max(np.linalg.norm(u0), math.sqrt(pot.mesh) * np.linalg.norm(v0))
    window = sv.compute_window(beta, [f_map.growth_envelope(),
                                      g_map.growth_envelope()], 0.5)
    sol = sv.solve_window(gen, pot, u0, v0, f_map, g_map, window,
                          settings=sv.GlobalSettings(max_iter=2,
                                                     nodes_per_window=65))
    assert not sol.report.converged
    assert sol.report.iterations == 2 and sol.report.stop_reason == "budget"
    assert np.isfinite(sol.report.residual_f)
    # the budget ran out on a swept v: the window still reports the exact
    # flow, certified step by step, and selections along it
    _assert_reports_a_certified_flow(pot, sol, flows)


def test_theta_floor_stop_reports_the_exact_flow(heat_setup, monkeypatch):
    # a relaxation factor 1.5 times the floor: the first residual growth
    # halves it below the floor, on iteration 2, along a swept v; the
    # window reports every iteration's residuals and finishes on the exact
    # flow, like a window that stops on the budget
    gen, pot, u0, v0 = heat_setup
    flows = _record_flows(monkeypatch)
    f_map, g_map = _growth_maps(gen, pot, 0.4)
    beta = max(np.linalg.norm(u0), math.sqrt(pot.mesh) * np.linalg.norm(v0))
    window = sv.compute_window(beta, [f_map.growth_envelope(),
                                      g_map.growth_envelope()], 0.5)
    settings = sv.GlobalSettings(theta=1.5 * sv.THETA_FLOOR,
                                 nodes_per_window=65)
    sol = sv.solve_window(gen, pot, u0, v0, f_map, g_map, window,
                          settings=settings)
    assert not sol.report.converged
    assert sol.report.stop_reason == "theta_floor"
    assert sol.report.iterations == len(sol.report.residual_history) == 2
    _assert_reports_a_certified_flow(pot, sol, flows)


# ---------------------------------------------------------------------------
# linear block oracle


def test_linear_block_oracle_agreement():
    from evoinc.suites import linear_block_oracle_battery
    result = linear_block_oracle_battery(seed=7)
    assert result.passed and result.worst_margin >= 0.0


# ---------------------------------------------------------------------------
# global continuation


def test_global_singleton_windows_match_single_window(heat_setup):
    gen, pot, u0, v0 = heat_setup
    rng = np.random.default_rng(64)
    f0 = rng.normal(size=gen.state_dim) * 0.2
    g0 = rng.normal(size=15) * 0.2
    f_map, g_map = _singleton_maps(gen, pot, f0, g0)
    horizon = 1.0
    settings = sv.GlobalSettings(nodes_per_window=33, max_window=0.25)
    run = sv.solve_global(gen, pot, u0, v0, f_map, g_map, horizon, settings)
    assert run.converged and len(run.windows) == 4

    # one un-windowed pass over the concatenated grid
    f_path = constant_path(0.0, horizon, 129, f0)
    u_whole = sg.duhamel_solve(gen, u0, f_path)
    g_path = constant_path(0.0, horizon, 129, g0, pot.mesh)
    v_whole = mono.solve_monotone_ivp(pot, v0, g_path)
    u_concat = np.concatenate([w.u.values if i == 0 else w.u.values[1:]
                               for i, w in enumerate(run.windows)])
    v_concat = np.concatenate([w.v.values if i == 0 else w.v.values[1:]
                               for i, w in enumerate(run.windows)])
    assert np.abs(u_concat - u_whole.values).max() <= 1e-8
    assert np.abs(v_concat - v_whole.values).max() <= 1e-8


def test_global_zero_maps_reproduce_decoupled_flows(heat_setup):
    gen, pot, u0, v0 = heat_setup
    f_map, g_map = _singleton_maps(gen, pot, np.zeros(gen.state_dim),
                                   np.zeros(15))
    settings = sv.GlobalSettings(nodes_per_window=65, max_window=0.5)
    run = sv.solve_global(gen, pot, u0, v0, f_map, g_map, 1.0, settings)
    assert run.converged
    u_end = run.windows[-1].u.values[-1]
    assert np.allclose(u_end, sg.propagate(gen, u0, 1.0), atol=1e-12)
    v_flow = mono.solve_monotone_ivp(
        pot, v0, zero_path(0.0, 1.0, 129, 15, pot.mesh))
    assert np.abs(run.windows[-1].v.values[-1] - v_flow.values[-1]).max() \
        <= 1e-10


@pytest.mark.parametrize("name, iterations", [
    ("heat_debye", [2, 1]),
    ("schrodinger_debye", [9, 9]),
    ("feedback_growth", [20, 22, 22, 22, 23, 24, 23, 21]),
])
def test_bundled_presets_relaxed_iterations(name, iterations):
    run, _ = _preset_run(name)
    assert run.converged
    assert [w.report.iterations for w in run.windows] == iterations


def _count_calls(monkeypatch, owner, name):
    """Wraps owner.name to count its calls; returns the live count list."""
    count = [0]
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return count


def test_feedback_growth_flows_speculate_start_point_steps(monkeypatch):
    # feedback_growth's v-flows start at rest under a zero g-selection, so
    # every step certifies at its start point: each flow of 64 steps makes
    # one `_prox` call for its first step and certifies the start points
    # of the other 63 in one run. The g-forcing never moves, so each
    # window runs one flow for all of its relaxed iterations (185 flows
    # without that reuse).
    flows = _count_calls(monkeypatch, sv, "_flow")
    prox = _count_calls(monkeypatch, mono, "_prox")
    runs = _count_calls(monkeypatch, mono, "_certified_run")
    run, _ = _preset_run("feedback_growth")
    assert run.converged
    assert flows[0] == len(run.windows) == 8
    assert prox[0] == runs[0] == flows[0]


@pytest.mark.parametrize("name", ["heat_debye", "schrodinger_debye"])
def test_flows_off_rest_never_speculate(monkeypatch, name):
    # each window's first exact v-flow starts cold off rest, and its first
    # step takes Newton; later flows resume from a guess: no flow
    # certifies a run of start points
    runs = _count_calls(monkeypatch, mono, "_certified_run")
    run, _ = _preset_run(name)
    assert run.converged and runs[0] == 0


def test_moving_g_forcing_reruns_the_v_flow(monkeypatch):
    # schrodinger_debye's g-selection moves every relaxed iteration: one
    # sweep over the current v per iteration, and in each window one exact
    # flow before the loop and one when the swept residuals first pass
    flows = _count_calls(monkeypatch, sv, "_flow")
    sweeps = _count_calls(monkeypatch, sv, "_sweep")
    run, _ = _preset_run("schrodinger_debye")
    iterations = [w.report.iterations for w in run.windows]
    assert iterations == [9, 9]
    assert sweeps[0] == sum(iterations) == 18
    assert flows[0] == 2 * len(iterations) == 4


@pytest.mark.parametrize("name", ["heat_debye", "schrodinger_debye",
                                  "feedback_growth"])
def test_preset_windows_report_certified_flows(monkeypatch, name):
    # sweeps drive the relaxed iteration, but every window reports an
    # exact flow whose steps certify against their actual predecessors,
    # and stops on the tolerance
    flows = _record_flows(monkeypatch)
    run, exp = _preset_run(name)
    assert run.converged
    for sol in run.windows:
        assert sol.report.stop_reason == "tolerance"
        _assert_reports_a_certified_flow(exp.potential, sol, flows)


@pytest.mark.parametrize("name", ["heat_debye", "schrodinger_debye",
                                  "feedback_growth"])
def test_preset_residuals_are_the_norms_of_the_node_defects(name):
    # one selection pass gives each window its node defects and its
    # residuals, the trapezoid L2 norms of those defects
    run, _ = _preset_run(name)
    for sol in run.windows:
        assert sol.report.residual_f == trapezoid_l2(sol.node_defect_f,
                                                     sol.f.dt)
        assert sol.report.residual_g == trapezoid_l2(sol.node_defect_g,
                                                     sol.g.dt)


# Newton iterations and sweeps of each bundled solve, the iterations summed
# over its prox steps. Every exact v-flow of a window after the first, and
# every sweep, resumes from the current v; with every flow started cold
# and no sweeps, heat_debye takes 862 and schrodinger_debye 2,948.
# feedback_growth's steps all certify at their start points, and its
# g-forcing never moves, so it makes no sweep.
PRESET_NEWTON_ITERATIONS = {"heat_debye": 399, "schrodinger_debye": 530,
                            "feedback_growth": 0}
PRESET_SWEEPS = {"heat_debye": 3, "schrodinger_debye": 18,
                 "feedback_growth": 0}


@pytest.mark.parametrize("name, flows, prox", [
    ("heat_debye", 4, 259),
    ("schrodinger_debye", 4, 274),
    ("feedback_growth", 8, 8),
])
def test_preset_work_counts(monkeypatch, name, flows, prox):
    # the work of each bundled solve, pinned without a wall-clock assert:
    # exact v-flows, sweeps, prox calls (one per sweep) and Newton
    # iterations. Every selection is the images' closed-form nearest point,
    # so no solve runs a hull projection or a Wolfe minor cycle.
    counts = [_count_calls(monkeypatch, *target) for target in (
        (sv, "_flow"), (mono, "_prox"), (geo.HullProjector, "project"),
        (geo, "_minor_cycles"))]
    sweeps = _count_calls(monkeypatch, sv, "_sweep")
    newton = [0]
    prox_call = mono._prox

    def summed(*args):
        w, iterations = prox_call(*args)
        newton[0] += iterations
        return w, iterations

    monkeypatch.setattr(mono, "_prox", summed)
    run, _ = _preset_run(name)
    assert run.converged
    assert [c[0] for c in counts] == [flows, prox, 0, 0]
    assert sweeps[0] == PRESET_SWEEPS[name]
    assert newton[0] == PRESET_NEWTON_ITERATIONS[name]


def test_back_to_back_solves_are_bit_identical():
    # a second solve in the same process starts from nothing the first
    # left. u, v and the selections f*, g* of every window:
    first, _ = _preset_run("schrodinger_debye")
    second, _ = _preset_run("schrodinger_debye")
    assert len(first.windows) == len(second.windows) == 2
    for a, b in zip(first.windows, second.windows):
        for name in ("u", "v", "f", "g"):
            assert np.array_equal(getattr(a, name).values,
                                  getattr(b, name).values)


def test_global_growth_run_window_count(heat_setup):
    gen, pot, u0, v0 = heat_setup
    f_map, g_map = _growth_maps(gen, pot)
    settings = sv.GlobalSettings(nodes_per_window=33)
    run = sv.solve_global(gen, pot, u0, v0, f_map, g_map, 2.0, settings)
    assert run.converged
    spans = [w.window.t_window for w in run.windows]
    assert sum(spans) == pytest.approx(2.0, abs=1e-9)
    # recorded from this configuration: three windows, each admissible for
    # its own data bound and never beyond the remaining horizon
    assert len(run.windows) == 3
    for w in run.windows:
        assert w.window.t_window <= (w.window.m / w.window.r) ** 2 + 1e-9
        assert w.window.t_window <= 2.0 - w.u.t0 + 1e-12
    assert run.gronwall is not None and run.gronwall.bound.passed


@pytest.mark.parametrize("field, value", [
    ("tol", math.inf), ("tol", math.nan), ("tol", 0.0), ("tol", -1e-8),
    ("theta", 0.0), ("theta", 1.5), ("theta", math.nan),
    ("max_iter", 0), ("nodes_per_window", 1)])
def test_global_settings_reject_invalid_values(field, value):
    # tol = inf would certify any window after one iteration
    with pytest.raises(sv.SolverError):
        sv.GlobalSettings(**{field: value})


def test_global_failure_reports_partial_result(heat_setup):
    gen, pot, u0, v0 = heat_setup
    f_map, g_map = _growth_maps(gen, pot, scale=0.4)
    settings = sv.GlobalSettings(nodes_per_window=33, max_iter=2)
    run = sv.solve_global(gen, pot, u0, v0, f_map, g_map, 1.0, settings)
    assert not run.converged
    assert run.failure_index == 0
    assert len(run.windows) == 1


def test_global_blowup_before_first_window_is_empty(heat_setup):
    gen, pot, u0, v0 = heat_setup
    f_map, g_map = _growth_maps(gen, pot)
    u_huge = u0 * (2.0 * sv.BLOWUP_NORM / np.linalg.norm(u0))
    run = sv.solve_global(gen, pot, u_huge, v0, f_map, g_map, 1.0)
    assert run.blowup and not run.converged and run.windows == ()
    assert run.node_table().shape == (0, 5)


def test_global_refuses_a_horizon_that_covers_no_window(heat_setup):
    # a NaN horizon used to run no window and report converged = False;
    # 0 or below ran none and raised IndexError in the Gronwall check
    gen, pot, u0, v0 = heat_setup
    f_map, g_map = _growth_maps(gen, pot)
    for horizon in (math.nan, math.inf, 0.0, 1e-13, -1.0):
        with pytest.raises(sv.SolverError, match="finite horizon"):
            sv.solve_global(gen, pot, u0, v0, f_map, g_map, horizon)


# ---------------------------------------------------------------------------
# inequality probes


def test_apriori_check_zero_data():
    u = zero_path(0.0, 1.0, 9, 3)
    v = zero_path(0.0, 1.0, 9, 4, 0.1)
    window = sv.compute_window(1.0, [rhs.GrowthEnvelope(0, 0, 1.0)], 1.0)
    rep = sv.apriori_bound_check(u, v, u, v, window)
    assert rep.passed and rep.lhs == 0.0


def test_gronwall_zero_maps_static_bound(heat_setup):
    gen, pot, u0, v0 = heat_setup
    f_map, g_map = _singleton_maps(gen, pot, np.zeros(gen.state_dim),
                                   np.zeros(15))
    settings = sv.GlobalSettings(nodes_per_window=33, max_window=0.5)
    run = sv.solve_global(gen, pot, u0, v0, f_map, g_map, 1.0, settings)
    rep = sv.gronwall_check_windows(run.windows, [f_map.growth_envelope(),
                                                  g_map.growth_envelope()],
                                    u0, v0, 1.0)
    assert rep.bound.passed and rep.rho == 0.0
    assert rep.k_const >= np.linalg.norm(u0)


def test_gronwall_negative_control_fails_as_designed():
    run, exp = _preset_run("feedback_growth")
    assert run.converged
    envs = [exp.rhs_f.growth_envelope(), exp.rhs_g.growth_envelope()]
    genuine = sv.gronwall_check_windows(run.windows, envs, exp.u0, exp.v0,
                                        exp.horizon)
    # the rate-0 envelope K e^{0 t} = K against the same node norms
    undersized = sv.Bound(genuine.bound.lhs, genuine.k_const,
                          genuine.bound.slack)
    assert genuine.bound.passed
    assert not undersized.passed and undersized.margin < 0.0


def test_elementary_probe_constant_rate_closed_form():
    # c = 0, h = 2 on [0, 1]: the maximal solution is u(t) = t
    h_path = TimePath(0.0, 1.0, np.full((65, 1), 2.0))
    gap, bound = sv.elementary_bound_probe(0.0, h_path)
    assert gap.passed and bound.passed and np.max(gap.lhs) <= 1e-8


def test_elementary_probe_zero_rate_tight():
    h_path = TimePath(0.0, 1.0, np.zeros((9, 1)))
    gap, bound = sv.elementary_bound_probe(1.5, h_path)
    assert bound.passed and np.max(gap.lhs) == 0.0


def test_elementary_probe_rejects_negative_inputs():
    with pytest.raises(sv.SolverError):
        sv.elementary_bound_probe(-1.0, TimePath(0.0, 1.0, np.zeros((9, 1))))
    with pytest.raises(sv.SolverError):
        sv.elementary_bound_probe(1.0, TimePath(0.0, 1.0, -np.ones((9, 1))))


def test_yosida_stability_constant_path_closed_form():
    gen = sg.SpectralGenerator("heat", 4)
    k = 65
    vals = np.tile(np.array([1.0, 0.5, 0.0, 0.25]), (k, 1))
    forcing = TimePath(0.0, 1.0, vals)
    ladder = [1.0, 10.0, 100.0]
    bounds = sv.yosida_stability_check(gen, np.zeros(4), forcing, ladder)
    assert all(b.passed for b in bounds)
    # closed form of the forcing side: factors lam/(lam + n^2) per mode
    mu = np.arange(1, 5, dtype=float) ** 2
    for lam, rhs_val in zip(ladder, bounds[0].rhs, strict=True):
        gap = (1.0 - lam / (lam + mu)) * vals[0]
        expected = 0.5 * float(np.sum(gap ** 2))  # T0 = 1, unit span
        assert rhs_val == pytest.approx(expected, rel=1e-10)


def test_yosida_stability_random_ladder(rng):
    for kind in ("heat", "schroedinger", "wave"):
        gen = sg.SpectralGenerator(kind, 10)
        forcing = TimePath(0.0, 0.8, rng.normal(size=(65, gen.state_dim)))
        u0 = rng.normal(size=gen.state_dim)
        estimate, *vanishing = sv.yosida_stability_check(
            gen, u0, forcing, [10.0 ** j for j in range(0, 7)])
        assert estimate.passed and all(b.passed for b in vanishing)
        assert estimate.lhs[-1] <= 1e-6 and estimate.rhs[-1] <= 1e-4


def test_window_consistency_under_refinement(heat_setup):
    # halving the tolerance and doubling the grid moves the solution by no
    # more than four times the recorded refinement estimate
    gen, pot, u0, v0 = heat_setup
    f_map, g_map = _growth_maps(gen, pot)
    beta = max(np.linalg.norm(u0), math.sqrt(pot.mesh) * np.linalg.norm(v0))
    window = sv.compute_window(beta, [f_map.growth_envelope(),
                                      g_map.growth_envelope()], 0.5)

    def solve(nodes, tol):
        settings = sv.GlobalSettings(tol=tol, nodes_per_window=nodes)
        return sv.solve_window(gen, pot, u0, v0, f_map, g_map, window,
                               settings=settings)

    sol_a = solve(33, 1e-8)
    sol_b = solve(65, 5e-9)
    sol_c = solve(129, 2.5e-9)
    diff_ab = np.abs(sol_a.u.values - sol_b.u.values[::2]).max()
    diff_bc = np.abs(sol_b.u.values - sol_c.u.values[::2]).max()
    assert diff_ab <= 4.0 * diff_bc * 4.0  # first-order stepping, 4x slack
    assert diff_bc <= diff_ab
