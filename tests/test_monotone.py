"""Variable-exponent flow: energy, gradient, proximal steps, dissipation."""

import math

import numpy as np
import pytest

from evoinc import monotone as mono
from evoinc.paths import TimePath, path_distance, zero_path


def _tridiagonal(j, h, tau):
    mat = np.zeros((j, j))
    for i in range(j):
        mat[i, i] = 1.0 + tau * (2.0 / h ** 2 + 1.0)
        if i > 0:
            mat[i, i - 1] = -tau / h ** 2
        if i < j - 1:
            mat[i, i + 1] = -tau / h ** 2
    return mat


# ---------------------------------------------------------------------------
# construction and validation


def test_exponent_floor_enforced():
    with pytest.raises(mono.MonotoneError):
        mono.make_potential(7, ("constant", 2.0))
    pot = mono.make_potential(7, ("constant", 2.0), oracle_p2=True)
    assert pot.p_minus == 2.0


def test_coefficient_positivity_checked_on_grid():
    pot = mono.make_potential(7, ("constant", 3.0), ("linear_decay", 2.0))
    with pytest.raises(mono.MonotoneError):
        pot.check_coefficient_on_grid(np.array([0.0, 1.0, 2.5]))
    assert pot.check_coefficient_on_grid(np.array([0.0, 0.5, 1.0])) \
        == pytest.approx(1.0)


def test_coefficient_monotonicity_checked():
    pot = mono.VariableExponentPotential(
        np.full(9, 3.0), lambda t: np.full(9, 1.0 + t))
    with pytest.raises(mono.MonotoneError):
        pot.check_coefficient_on_grid(np.array([0.0, 1.0]))


def test_potential_time_monotone_for_decaying_coefficient(rng):
    # nonincreasing coefficient: later potentials never exceed earlier ones
    pot = mono.make_potential(15, ("ramp", 2.5, 3.5), ("linear_decay", 2.0))
    for _ in range(20):
        v = rng.normal(size=15)
        t, s = sorted(rng.uniform(0.0, 1.0, size=2))
        assert mono.energy(pot, s, v) <= mono.energy(pot, t, v) + 1e-12


# ---------------------------------------------------------------------------
# energy and gradient


def test_energy_zero_state():
    pot = mono.make_potential(15, ("constant", 3.0))
    assert mono.energy(pot, 0.0, np.zeros(15)) == 0.0


def test_energy_quadratic_case():
    pot = mono.make_potential(5, ("constant", 2.0), oracle_p2=True)
    v = np.array([0.1, -0.3, 0.2, 0.5, -0.1])
    h = pot.mesh
    full = np.concatenate([[0.0], v, [0.0]])
    grad_sq = np.sum((np.diff(full) / h) ** 2)
    expected = 0.5 * (h * grad_sq + h * np.sum(v ** 2))
    assert mono.energy(pot, 0.0, v) == pytest.approx(expected)


def test_energy_single_node_cubic_hand_value():
    # J = 1, h = 1/2, p = 3, D = 1, v = (1):
    # (1/2) [ (1/3) 2^3 + (1/3) 2^3 + (1/3) 1 ] = 17/6
    pot = mono.make_potential(1, ("constant", 3.0))
    assert mono.energy(pot, 0.0, np.array([1.0])) == pytest.approx(17.0 / 6.0)


def test_subgradient_zero_at_origin():
    pot = mono.make_potential(9, ("constant", 3.0))
    assert np.all(mono.subgradient(pot, 0.0, np.zeros(9)) == 0.0)


def test_subgradient_linear_case(rng):
    pot = mono.make_potential(9, ("constant", 2.0), oracle_p2=True)
    v = rng.normal(size=9)
    h = pot.mesh
    padded = np.concatenate([[0.0], v, [0.0]])
    lap = (padded[:-2] - 2.0 * v + padded[2:]) / h ** 2
    assert np.allclose(mono.subgradient(pot, 0.0, v), -lap + v, atol=1e-12)


def test_subgradient_matches_finite_differences(rng):
    pot = mono.make_potential(15, ("ramp", 2.2, 4.0), ("separable", 2.0, 0.3))
    for _ in range(20):
        v = rng.normal(size=15)
        t = float(rng.uniform(0.0, 1.0))
        grad = mono.subgradient(pot, t, v)
        eps = 1e-6
        fd = np.empty(15)
        for j in range(15):
            vp, vm = v.copy(), v.copy()
            vp[j] += eps
            vm[j] -= eps
            fd[j] = (mono.energy(pot, t, vp)
                     - mono.energy(pot, t, vm)) / (2.0 * eps) / pot.mesh
        assert np.abs(grad - fd).max() <= 1e-5 * (1.0 + np.abs(grad).max())


def test_hessian_matches_finite_differences_of_gradient(rng):
    pot = mono.make_potential(15, ("ramp", 2.2, 4.0), ("separable", 2.0, 0.3))
    for _ in range(10):
        v = rng.normal(size=15)
        t = float(rng.uniform(0.0, 1.0))
        diag, off = mono._EnergyKernel(pot, pot.coefficient_at(t), v).hessian()
        hess = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        eps = 1e-6
        fd = np.empty((15, 15))
        for j in range(15):
            vp, vm = v.copy(), v.copy()
            vp[j] += eps
            vm[j] -= eps
            fd[:, j] = (mono.subgradient(pot, t, vp)
                        - mono.subgradient(pot, t, vm)) / (2.0 * eps)
        assert np.abs(hess - fd).max() <= 1e-5 * (1.0 + np.abs(hess).max())


@pytest.mark.parametrize("n", [1, 2, 15, 63])
def test_thomas_solve_matches_dense_solve(n):
    for i in range(20):
        rng = np.random.default_rng([52, n, i])
        off = rng.normal(size=n - 1)
        # strictly diagonally dominant, as the prox Hessian plus 1/tau is
        bound = np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off])
        diag = bound + rng.uniform(0.1, 2.0, size=n)
        rhs = rng.normal(size=n)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        x = mono._thomas_solve(diag, off, rhs)
        assert x.shape == (n,)
        assert np.abs(x - np.linalg.solve(dense, rhs)).max() \
            <= 1e-12 * (1.0 + np.abs(x).max())


# ---------------------------------------------------------------------------
# proximal step


def test_prox_step_stationary_zero():
    pot = mono.make_potential(9, ("constant", 3.0))
    out = mono.prox_step(pot, 0.1, np.zeros(9), np.zeros(9), 0.05)
    assert np.linalg.norm(out) <= 1e-10


def test_prox_step_linear_closed_form(rng, monkeypatch):
    # one Newton step is exact on the quadratic p = 2 objective
    monkeypatch.setattr(mono, "PROX_NEWTON_ITERS", 1)
    pot = mono.make_potential(5, ("constant", 2.0), oracle_p2=True)
    tau = 0.01
    v_prev = rng.normal(size=5)
    g = rng.normal(size=5)
    out = mono.prox_step(pot, 0.0, v_prev, g, tau)
    oracle = np.linalg.solve(_tridiagonal(5, pot.mesh, tau), v_prev + tau * g)
    assert np.abs(out - oracle).max() <= 1e-10


def test_prox_step_cubic_against_coordinate_search():
    pot = mono.make_potential(3, ("constant", 3.0))
    v_prev = np.array([0.4, -0.2, 0.7])
    g = np.array([0.1, 0.0, -0.3])
    tau = 0.05
    out = mono.prox_step(pot, 0.1, v_prev, g, tau)

    z = v_prev + tau * g
    h = pot.mesh

    def objective(w):
        return mono.energy(pot, 0.1, w) + h * np.sum((w - z) ** 2) / (2 * tau)

    def golden(fun, lo, hi, tol=1e-12):
        ratio = (math.sqrt(5.0) - 1.0) / 2.0
        c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        fc, fd = fun(c), fun(d)
        while hi - lo > tol:
            if fc < fd:
                hi, d, fd = d, c, fc
                c = hi - ratio * (hi - lo)
                fc = fun(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + ratio * (hi - lo)
                fd = fun(d)
        return 0.5 * (lo + hi)

    w = z.copy()
    for _ in range(300):
        prev = w.copy()
        for j in range(3):
            def line(x, j=j):
                trial = w.copy()
                trial[j] = x
                return objective(trial)
            w[j] = golden(line, w[j] - 2.0, w[j] + 2.0)
        if np.abs(w - prev).max() < 1e-11:
            break
    assert np.abs(out - w).max() <= 1e-8


def test_prox_nonexpansive_seeded():
    pot = mono.make_potential(15, ("ramp", 2.2, 4.0))
    for i in range(30):
        rng = np.random.default_rng([51, i])
        gap = mono.prox_nonexpansive_gap(pot, 0.2, 0.05,
                                         rng.normal(size=15),
                                         rng.normal(size=15))
        assert gap <= 1e-10


def test_prox_step_reports_exhausted_newton_budget(monkeypatch):
    monkeypatch.setattr(mono, "PROX_NEWTON_ITERS", 0)
    pot = mono.make_potential(9, ("constant", 3.0))
    v_prev = np.linspace(-1.0, 1.0, 9)
    with pytest.raises(mono.ProxDidNotConverge) as err:
        mono.prox_step(pot, 0.1, v_prev, np.zeros(9), 0.05)
    assert math.isfinite(err.value.residual) and err.value.residual > 0.0


def test_prox_step_rejects_nonpositive_tau():
    pot = mono.make_potential(3, ("constant", 3.0))
    with pytest.raises(mono.MonotoneError):
        mono.prox_step(pot, 0.0, np.zeros(3), np.zeros(3), 0.0)


# ---------------------------------------------------------------------------
# the flow


def test_flow_dissipates_without_forcing(rng):
    pot = mono.make_potential(15, ("ramp", 2.5, 3.5), ("linear_decay", 2.0))
    v0 = rng.normal(size=15)
    sol = mono.solve_monotone_ivp(pot, v0, zero_path(0.0, 1.0, 257, 15,
                                                     pot.mesh))
    ts = sol.times()
    energies = np.array([mono.energy(pot, float(ts[k]), sol.values[k])
                         for k in range(sol.num_nodes)])
    assert np.all(np.diff(energies) <= 1e-10)
    norms = np.linalg.norm(sol.values, axis=1)
    assert np.all(np.diff(norms) <= 1e-10)


def test_flow_discrete_apriori_bound(rng):
    pot = mono.make_potential(15, ("constant", 3.0))
    v0 = rng.normal(size=15)
    forcing = TimePath(0.0, 1.0, rng.normal(size=(65, 15)), pot.mesh)
    sol = mono.solve_monotone_ivp(pot, v0, forcing)
    tau = forcing.dt
    g_norms = forcing.node_norms()
    bound = math.sqrt(pot.mesh) * np.linalg.norm(v0) \
        + np.concatenate([[0.0], np.cumsum(tau * g_norms[:-1])])
    assert np.all(sol.node_norms() <= bound + 1e-8)


def test_flow_matches_spectral_recursion_j63():
    j, steps = 63, 2 ** 12
    pot = mono.make_potential(j, ("constant", 2.0), ("constant", 1.0),
                              oracle_p2=True)
    h = pot.mesh
    x = pot.nodes()[1:-1]
    v0 = np.sin(np.pi * x) + 0.3 * np.sin(3.0 * np.pi * x)
    t_nodes = np.linspace(0.0, 1.0, steps + 1)
    fvals = 0.5 * np.sin(2.0 * np.pi * x)[None, :] \
        * np.cos(2.0 * np.pi * t_nodes)[:, None]
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
    assert path_distance(sol, TimePath(0.0, 1.0, values, h)) <= 1e-6


def test_flow_checks_coefficient_window():
    pot = mono.make_potential(7, ("constant", 3.0), ("linear_decay", 2.0))
    # horizon 3: the coefficient 2 - t would cross zero
    with pytest.raises(mono.MonotoneError):
        mono.solve_monotone_ivp(pot, np.zeros(7),
                                zero_path(0.0, 3.0, 65, 7, pot.mesh))


# ---------------------------------------------------------------------------
# monotonicity


def test_monotonicity_zero_for_equal_arguments():
    pot = mono.make_potential(9, ("constant", 3.0))
    v = np.linspace(-1.0, 1.0, 9)
    assert mono.monotonicity_probe(pot, 0.0, v, v) == 0.0


def test_monotonicity_quadratic_form(rng):
    pot = mono.make_potential(9, ("constant", 2.0), oracle_p2=True)
    v, w = rng.normal(size=9), rng.normal(size=9)
    got = mono.monotonicity_probe(pot, 0.0, v, w)
    h = pot.mesh
    diff = v - w
    padded = np.concatenate([[0.0], diff, [0.0]])
    expected = h * (np.sum((np.diff(padded) / h) ** 2) + np.sum(diff ** 2))
    assert got == pytest.approx(expected)


def test_monotonicity_seeded_pairs():
    pot = mono.make_potential(15, ("ramp", 2.2, 4.0))
    worst = math.inf
    for i in range(1000):
        rng = np.random.default_rng([52, i])
        probe = mono.monotonicity_probe(pot, 0.3, rng.normal(size=15),
                                        rng.normal(size=15))
        worst = min(worst, probe)
    assert worst >= -1e-10
