"""Variable-exponent flow: energy, gradient, proximal steps, dissipation."""

import itertools
import math
import pickle
import tracemalloc

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
    # p >= 2 everywhere: the floor itself is accepted by every profile, and
    # the largest float below it is refused
    below = math.nextafter(2.0, 0.0)
    for low in (2.0, below):
        for spec in (("constant", low), ("ramp", low, 3.5),
                     ("bump", low, 1.5)):
            if low == 2.0:
                pot = mono.make_potential(7, spec)
                assert pot.exponents.min() == 2.0
            else:
                with pytest.raises(mono.MonotoneError, match="p >= 2"):
                    mono.make_potential(7, spec)


def test_nan_exponents_refused():
    # a NaN exponent fails `p >= 2`; accepted, it would only surface as a
    # prox step that does not converge, with residual nan
    with pytest.raises(mono.MonotoneError, match="p >= 2"):
        mono.make_potential(5, ("constant", math.nan))
    exponents = np.full(7, 3.0)
    exponents[3] = math.nan
    with pytest.raises(mono.MonotoneError, match="p >= 2"):
        mono.VariableExponentPotential(
            exponents, mono.coefficient_profile(5, ("constant", 1.0)))


def test_coefficient_positivity_checked_on_grid():
    pot = mono.make_potential(7, ("constant", 3.0), ("linear_decay", 2.0))
    with pytest.raises(mono.MonotoneError):
        pot.coefficient_table(np.array([0.0, 1.0, 2.5]))
    assert pot.coefficient_table(np.array([0.0, 0.5, 1.0])).min() \
        == pytest.approx(1.0)
    undefined = mono.VariableExponentPotential(
        np.full(9, 3.0), lambda t: np.full(9, math.nan))
    with pytest.raises(mono.MonotoneError, match="positive"):
        undefined.coefficient_table(np.array([0.0, 1.0]))


def test_coefficient_monotonicity_checked():
    pot = mono.VariableExponentPotential(
        np.full(9, 3.0), lambda t: np.full(9, 1.0 + t))
    with pytest.raises(mono.MonotoneError):
        pot.coefficient_table(np.array([0.0, 1.0]))
    with pytest.raises(mono.MonotoneError, match="nonincreasing"):
        mono.solve_monotone_ivp(pot, np.zeros(7),
                                zero_path(0.0, 1.0, 17, 7, pot.mesh))


def test_flow_evaluates_coefficient_once_per_node():
    times = []

    def coefficient(t):
        times.append(t)
        return np.full(9, 2.0 - t)

    pot = mono.VariableExponentPotential(np.full(9, 3.0), coefficient)
    forcing = zero_path(0.0, 1.0, 33, 7, pot.mesh)
    mono.solve_monotone_ivp(pot, np.linspace(-1.0, 1.0, 7), forcing)
    assert times == forcing.times().tolist()


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
    pot = mono.make_potential(5, ("constant", 2.0))
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
    pot = mono.make_potential(9, ("constant", 2.0))
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
        diag, off = mono._EnergyKernel(pot, pot.coefficient_at(t)[:-1],
                                        v).hessian()
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


@pytest.mark.parametrize("p_spec", [("constant", 3.0), ("ramp", 2.2, 4.0),
                                    ("bump", 2.5, 1.5)])
def test_energy_kernel_matches_naive_formulas(p_spec):
    pot = mono.make_potential(15, p_spec, ("separable", 2.0, 0.3))
    p = pot.exponents
    h = 1.0 / 16.0
    for i in range(10):
        rng = np.random.default_rng([53, i])
        v = rng.normal(size=15)
        d = pot.coefficient_at(float(rng.uniform()))
        g = np.diff(np.concatenate([[0.0], v, [0.0]])) / h
        g_pow = np.abs(g) ** (p[:-1] - 2.0)
        v_pow = np.abs(v) ** (p[1:-1] - 2.0)
        value = h * (np.sum(d[:-1] / p[:-1] * g_pow * g ** 2)
                     + np.sum(v_pow * v ** 2 / p[1:-1]))
        flux = d[:-1] * g_pow * g
        grad = (flux[:-1] - flux[1:]) / h + v_pow * v
        kappa = d[:-1] * (p[:-1] - 1.0) * g_pow
        diag = (kappa[:-1] + kappa[1:]) / h ** 2 + (p[1:-1] - 1.0) * v_pow
        off = -kappa[1:-1] / h ** 2

        kernel = mono._EnergyKernel(pot, d[:-1], v)
        assert abs(kernel.values()[0] - value) <= 1e-13 * abs(value)
        for got, want in zip((kernel.gradient(), *kernel.hessian()),
                             (grad, diag, off)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 2, 15, 63])
def test_thomas_solve_matches_dense_solve(n):
    # blocks None: one (n,) system; otherwise a (blocks, n) stack
    for blocks, i in itertools.product((None, 1, 3), range(20)):
        stack = 1 if blocks is None else blocks
        rng = np.random.default_rng([52, n, i] if blocks is None
                                    else [52, n, i, blocks])
        off = rng.normal(size=(stack, n - 1))
        # strictly diagonally dominant, as the prox Hessian plus 1/tau is
        bound = np.abs(np.pad(off, ((0, 0), (0, 1)))) \
            + np.abs(np.pad(off, ((0, 0), (1, 0))))
        diag = bound + rng.uniform(0.1, 2.0, size=(stack, n))
        rhs = rng.normal(size=(stack, n))
        if blocks is None:
            x = mono._thomas_solve(diag[0], off[0], rhs[0])
            assert x.shape == (n,)
            x = x[None]
        else:
            x = mono._thomas_solve(diag, off, rhs)
            assert x.shape == (blocks, n)
        for b in range(stack):
            dense = np.diag(diag[b]) + np.diag(off[b], 1) \
                + np.diag(off[b], -1)
            assert np.abs(x[b] - np.linalg.solve(dense, rhs[b])).max() \
                <= 1e-12 * (1.0 + np.abs(x[b]).max())
            # each block gets the bits of its one-system solve
            assert np.array_equal(
                x[b], mono._thomas_solve(diag[b], off[b], rhs[b]))


def test_thomas_solve_keeps_a_singular_block_to_itself():
    # a zero pivot gives a NaN block, as a NaN pivot does; the other
    # blocks keep the bits of their one-system solves
    diag = np.array([[2.0, 2.0, 2.0], [0.0, 1.0, 1.0], [3.0, 3.0, 3.0]])
    off = np.full((3, 2), -1.0)
    rhs = np.ones((3, 3))
    assert np.isnan(mono._thomas_solve(diag[1], off[1], rhs[1])).all()
    for pivot in (0.0, np.nan):
        diag[1, 0] = pivot
        x = mono._thomas_solve(diag, off, rhs)
        assert np.isnan(x[1]).all() and np.isfinite(x[[0, 2]]).all()
        for b in (0, 2):
            assert np.array_equal(
                x[b], mono._thomas_solve(diag[b], off[b], rhs[b]))


def test_prox_with_a_zero_newton_pivot_raises_by_name(monkeypatch):
    # heat_debye's first step with its exponent ramp raised to 512: the
    # Hessian's entries span 1e9 to 1e30, and the Thomas recurrence of a
    # Newton system with finite entries cancels a pivot to exactly 0
    pot = mono.make_potential(15, ("ramp", 2.4, 512.0), ("linear_decay", 2.0))
    v = 0.5 * np.sin(np.pi * pot.nodes()[1:-1])
    tau = 1.0 / 128
    singular = []
    block = mono._thomas_block

    def spied(diag, upper, rhs):
        finite = all(map(math.isfinite, diag + upper + rhs))
        x = block(diag, upper, rhs)
        singular.append(finite and math.isnan(x[0]))
        return x

    monkeypatch.setattr(mono, "_thomas_block", spied)
    with pytest.raises(mono.ProxDidNotConverge) as err:
        mono.prox_step(pot, pot.coefficient_at(tau), v, np.zeros(15), tau)
    assert math.isnan(err.value.residual)
    # the step ends at its first singular Newton system, one Thomas solve
    # per Newton iteration, instead of spending the iteration budget
    assert singular.index(True) == len(singular) - 1
    assert len(singular) < mono.PROX_NEWTON_ITERS


def test_prox_did_not_converge_pickles_with_its_residual():
    for residual in (1.5, math.nan):
        exc = mono.ProxDidNotConverge(residual)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is mono.ProxDidNotConverge
        assert str(back) == str(exc)
        assert str(back) == f"inner solver left gradient residual {residual:.3e}"
        assert back.residual == residual or math.isnan(back.residual)


# ---------------------------------------------------------------------------
# proximal step


def test_prox_step_stationary_zero():
    pot = mono.make_potential(9, ("constant", 3.0))
    out = mono.prox_step(pot, pot.coefficient_at(0.1), np.zeros(9),
                         np.zeros(9), 0.05)
    assert np.linalg.norm(out) <= 1e-10


def test_prox_step_linear_closed_form(rng, monkeypatch):
    # one Newton step is exact on the quadratic p = 2 objective
    monkeypatch.setattr(mono, "PROX_NEWTON_ITERS", 1)
    pot = mono.make_potential(5, ("constant", 2.0))
    tau = 0.01
    v_prev = rng.normal(size=5)
    g = rng.normal(size=5)
    out = mono.prox_step(pot, pot.coefficient_at(0.0), v_prev, g, tau)
    oracle = np.linalg.solve(_tridiagonal(5, pot.mesh, tau), v_prev + tau * g)
    assert np.abs(out - oracle).max() <= 1e-10


def test_prox_step_cubic_against_coordinate_search():
    pot = mono.make_potential(3, ("constant", 3.0))
    v_prev = np.array([0.4, -0.2, 0.7])
    g = np.array([0.1, 0.0, -0.3])
    tau = 0.05
    out = mono.prox_step(pot, pot.coefficient_at(0.1), v_prev, g, tau)

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
        mono.prox_step(pot, pot.coefficient_at(0.1), v_prev, np.zeros(9),
                       0.05)
    assert math.isfinite(err.value.residual) and err.value.residual > 0.0


# ---------------------------------------------------------------------------
# stacks of independent states


def _counting(monkeypatch, owner, name):
    """Count calls of owner.name; returns the list the calls append to."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def _prox_rows():
    # row 0 returns at the initial check (zero state, zero forcing); the
    # others take from 3 to 16 Newton steps, and rows 4 and 5 backtrack
    rng = np.random.default_rng(5)
    scales = (0.0, 1e-3, 0.1, 1.0, 3.0, 30.0)
    v_prev = np.array([rng.normal(size=9) * s for s in scales])
    g = np.array([rng.normal(size=9) * min(s, 1.0) for s in scales])
    return v_prev, g


def test_prox_step_stack_matches_single_calls(monkeypatch):
    pot = mono.make_potential(9, ("ramp", 2.2, 4.0), ("separable", 2.0, 0.3))
    d = pot.coefficient_at(0.4)
    v_prev, g = _prox_rows()
    newton = _counting(monkeypatch, mono, "_thomas_solve")
    trials = _counting(monkeypatch, mono._EnergyKernel, "values")
    singles, steps, backtracked = [], [], []
    for row in range(len(v_prev)):
        newton.clear()
        trials.clear()
        singles.append(mono.prox_step(pot, d, v_prev[row], g[row], 0.2))
        steps.append(len(newton))
        backtracked.append(len(trials) - bool(newton) > len(newton))
    assert steps[0] == 0 and len(set(steps)) == len(steps)
    assert any(backtracked) and not all(backtracked)
    stacked = mono.prox_step(pot, d, v_prev, g, 0.2)
    assert stacked.shape == v_prev.shape
    assert np.array_equal(stacked, np.array(singles))


def test_prox_step_stack_with_a_coefficient_per_row():
    pot = mono.make_potential(9, ("ramp", 2.2, 4.0), ("separable", 2.0, 0.3))
    v_prev, g = _prox_rows()
    d = pot.coefficient_table(np.linspace(0.0, 1.0, len(v_prev)))
    stacked = mono.prox_step(pot, d, v_prev, g, 0.2)
    for row in range(len(v_prev)):
        assert np.array_equal(
            stacked[row], mono.prox_step(pot, d[row], v_prev[row], g[row],
                                         0.2))
    with pytest.raises(mono.MonotoneError):
        mono.prox_step(pot, d[:2], v_prev, g, 0.2)


@pytest.mark.parametrize("seed, scale, rows, backtracking", [
    (12, 10.0, [0, 1, 2, 3, 4, 6], 6),   # every row backtracks
    (11, 1.0, range(8), 1),               # exactly one row does
])
def test_prox_step_stack_of_backtracking_rows_matches_single_calls(
        monkeypatch, seed, scale, rows, backtracking):
    # the line search evaluates the whole live stack at per-row step
    # lengths; a row that passed its Armijo test is evaluated again at the
    # same step while others halve theirs
    pot = mono.make_potential(9, ("ramp", 2.2, 4.0), ("separable", 2.0, 0.3))
    d = pot.coefficient_at(0.4)
    v_prev = np.random.default_rng(seed).normal(size=(8, 9))[list(rows)] \
        * scale
    g = np.zeros_like(v_prev)
    newton = _counting(monkeypatch, mono, "_thomas_solve")
    trials = _counting(monkeypatch, mono._EnergyKernel, "values")
    singles, backtracked = [], []
    for row in range(len(v_prev)):
        newton.clear()
        trials.clear()
        singles.append(mono.prox_step(pot, d, v_prev[row], g[row], 1.0))
        backtracked.append(len(trials) - 1 > len(newton))
    assert all(newton) and sum(backtracked) == backtracking
    assert np.array_equal(mono.prox_step(pot, d, v_prev, g, 1.0),
                          np.array(singles))


def test_prox_line_search_accepts_its_50th_evaluation(monkeypatch):
    # row 0's objective reads inf at every trial point, so its Armijo test
    # never passes: it is evaluated 50 times, at 2^-k times its Newton step
    # for k = 0, ..., 49, and the last point is accepted. Row 1 passes at
    # the full step.
    monkeypatch.setattr(mono, "PROX_NEWTON_ITERS", 1)
    pot = mono.make_potential(9, ("constant", 3.0))
    v_prev = np.array([np.linspace(-1.0, 1.0, 9), np.linspace(0.5, -0.5, 9)])
    steps, states, accepted = [], [], []
    thomas = mono._thomas_solve
    monkeypatch.setattr(mono, "_thomas_solve",
                        lambda *args: steps.append(thomas(*args)) or steps[-1])
    values, gradient = mono._EnergyKernel.values, mono._EnergyKernel.gradient

    def stuck(kernel):
        states.append(kernel.v.copy())
        out = values(kernel)
        if len(states) > 1:
            out[0] = math.inf
        return out

    def recorded(kernel):
        accepted.append(kernel.v.copy())
        return gradient(kernel)

    monkeypatch.setattr(mono._EnergyKernel, "values", stuck)
    monkeypatch.setattr(mono._EnergyKernel, "gradient", recorded)
    with pytest.raises(mono.ProxDidNotConverge):
        mono.prox_step(pot, pot.coefficient_at(0.1), v_prev,
                       np.zeros_like(v_prev), 0.05)
    (delta,) = steps
    start, trials = states[0], states[1:]
    assert len(trials) == 50
    for k, w in enumerate(trials):
        assert np.array_equal(w[0], start[0] + 2.0 ** -k * delta[0])
        assert np.array_equal(w[1], start[1] + delta[1])
    assert np.array_equal(accepted[-1], trials[-1])
    assert np.array_equal(accepted[-1][0], start[0] + 2.0 ** -49 * delta[0])


def test_energy_and_subgradient_stack_with_a_time_per_row():
    pot = mono.make_potential(15, ("ramp", 2.2, 4.0), ("separable", 2.0, 0.3))
    rng = np.random.default_rng(8)
    v = rng.normal(size=(12, 15))
    times = rng.uniform(0.0, 1.0, size=12)
    energies = mono.energy(pot, times, v)
    grads = mono.subgradient(pot, times, v)
    assert energies.shape == (12,) and grads.shape == (12, 15)
    for row in range(12):
        assert energies[row] == mono.energy(pot, float(times[row]), v[row])
        assert np.array_equal(grads[row],
                              mono.subgradient(pot, float(times[row]), v[row]))
    # one shared time
    assert np.array_equal(mono.energy(pot, 0.3, v),
                          [mono.energy(pot, 0.3, row) for row in v])
    with pytest.raises(mono.MonotoneError):
        mono.energy(pot, times[:3], v)


def test_probes_stack_match_single_pairs():
    pot = mono.make_potential(15, ("ramp", 2.2, 4.0))
    rng = np.random.default_rng(9)
    x, y = rng.normal(size=(2, 10, 15))
    gaps = mono.prox_nonexpansive_gap(pot, 0.2, 0.05, x, y)
    probes = mono.monotonicity_probe(pot, 0.3, x, y)
    for row in range(10):
        assert gaps[row] == mono.prox_nonexpansive_gap(pot, 0.2, 0.05, x[row],
                                                       y[row])
        assert probes[row] == mono.monotonicity_probe(pot, 0.3, x[row],
                                                      y[row])


def test_prox_step_stack_raises_for_one_stuck_row(monkeypatch):
    pot = mono.make_potential(9, ("constant", 3.0))
    d = pot.coefficient_at(0.1)
    v_prev = np.zeros((3, 9))
    v_prev[1] = np.linspace(-1.0, 1.0, 9)
    g = np.zeros((3, 9))
    monkeypatch.setattr(mono, "PROX_NEWTON_ITERS", 1)
    with pytest.raises(mono.ProxDidNotConverge) as single:
        mono.prox_step(pot, d, v_prev[1], g[1], 0.05)
    with pytest.raises(mono.ProxDidNotConverge) as stacked:
        mono.prox_step(pot, d, v_prev, g, 0.05)
    # the worst residual is the stuck row's, as in its one-state call
    assert stacked.value.residual == single.value.residual > 0.0


def test_flow_stack_matches_single_flows():
    pot = mono.make_potential(15, ("ramp", 2.5, 3.5), ("linear_decay", 2.0))
    rng = np.random.default_rng(10)
    v0 = rng.normal(size=(4, 15)) * np.array([[0.0], [0.1], [1.0], [3.0]])
    forcings = [TimePath(0.0, 1.0, rng.normal(size=(33, 15)) * s, pot.mesh)
                for s in (0.0, 0.5, 1.0, 2.0)]
    paths = mono.solve_monotone_ivp(pot, v0, forcings)
    assert len(paths) == 4
    for row, path in enumerate(paths):
        single = mono.solve_monotone_ivp(pot, v0[row], forcings[row])
        assert (path.t0, path.t1, path.weight) \
            == (single.t0, single.t1, single.weight)
        assert np.array_equal(path.values, single.values)


def test_flow_stack_needs_one_grid_and_one_forcing_per_state():
    pot = mono.make_potential(7, ("constant", 3.0))
    v0 = np.zeros((2, 7))
    grid = zero_path(0.0, 1.0, 17, 7, pot.mesh)
    with pytest.raises(mono.MonotoneError, match="one time grid"):
        mono.solve_monotone_ivp(pot, v0,
                                [grid, zero_path(0.0, 1.0, 9, 7, pot.mesh)])
    with pytest.raises(mono.MonotoneError):
        mono.solve_monotone_ivp(pot, v0, [grid])
    with pytest.raises(mono.MonotoneError):
        mono.solve_monotone_ivp(pot, v0, grid)


def test_subgradient_rejects_wrong_state_size():
    pot = mono.make_potential(9, ("constant", 3.0))
    with pytest.raises(mono.MonotoneError):
        mono.subgradient(pot, 0.0, np.zeros(8))


def test_prox_step_rejects_wrong_state_size():
    pot = mono.make_potential(9, ("constant", 3.0))
    d = pot.coefficient_at(0.0)
    with pytest.raises(mono.MonotoneError):
        mono.prox_step(pot, d, np.zeros(10), np.zeros(9), 0.05)
    with pytest.raises(mono.MonotoneError):
        mono.prox_step(pot, d, np.zeros(9), np.zeros(8), 0.05)


def test_prox_step_rejects_nonpositive_tau():
    pot = mono.make_potential(3, ("constant", 3.0))
    with pytest.raises(mono.MonotoneError):
        mono.prox_step(pot, pot.coefficient_at(0.0), np.zeros(3),
                       np.zeros(3), 0.0)


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
    pot = mono.make_potential(j, ("constant", 2.0), ("constant", 1.0))
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


def _mixed_flow(rows, nodes, spikes):
    """Flows whose states and forcing stay near 1e-7, where a step
    certifies at its start point, and whose forcing jumps by 1 at node
    spikes[b] of row b and back at the next node, a step that needs
    Newton. `rows` None is one flow (J,), else a (rows, J) stack."""
    pot = mono.make_potential(15, ("ramp", 3.5, 4.5), ("linear_decay", 2.0))
    rng = np.random.default_rng(14)
    v0 = rng.normal(size=(rows or 1, 15)) * 1e-7
    g = rng.normal(size=(nodes, rows or 1, 15)) * 1e-7
    for row, node in enumerate(spikes):
        g[node, row] += 1.0
        g[node + 1, row] -= 1.0
    if rows is None:
        return pot, v0[0], g[:, 0]
    return pot, v0, g


def _solve(pot, v0, g):
    """`solve_monotone_ivp` on [0, 1] with node forcing g, (K,) + v0.shape;
    returns the node values in g's layout."""
    if v0.ndim == 1:
        return mono.solve_monotone_ivp(
            pot, v0, TimePath(0.0, 1.0, g, pot.mesh)).values
    paths = mono.solve_monotone_ivp(
        pot, v0, [TimePath(0.0, 1.0, g[:, b], pot.mesh)
                  for b in range(len(v0))])
    return np.stack([path.values for path in paths], axis=1)


def _step_by_step(pot, v0, g):
    """The flow of `_solve` as one public `prox_step` per time step."""
    times = np.linspace(0.0, 1.0, len(g))
    table = pot.coefficient_table(times)
    tau = 1.0 / (len(g) - 1)
    values = [v0]
    for k in range(len(g) - 1):
        values.append(mono.prox_step(pot, table[k + 1], values[-1], g[k],
                                     tau))
    return np.array(values)


def _count_steps(monkeypatch):
    """Counts `_prox` calls, those that took Newton iterations, and the
    rows (steps times states) of each speculated run."""
    seen = {"prox": 0, "newton": 0, "rows": []}
    prox, run = mono._prox, mono._certified_run

    def counted_prox(*args):
        seen["prox"] += 1
        w, iterations = prox(*args)
        seen["newton"] += iterations > 0
        return w, iterations

    def counted_run(pot, edges, v, tau_g):
        seen["rows"].append(tau_g[..., 0].size)
        return run(pot, edges, v, tau_g)

    monkeypatch.setattr(mono, "_prox", counted_prox)
    monkeypatch.setattr(mono, "_certified_run", counted_run)
    return seen


@pytest.mark.parametrize("rows,spikes", [(None, (40,)),
                                         (3, (40, 60, 100))])
def test_flow_speculation_matches_prox_step_loop(rows, spikes, monkeypatch):
    nodes = 129
    pot, v0, g = _mixed_flow(rows, nodes, spikes)
    expected = _step_by_step(pot, v0, g)
    seen = _count_steps(monkeypatch)
    values = _solve(pot, v0, g)
    for k in range(nodes):
        assert np.array_equal(values[k], expected[k]), k
    # step 0 certifies at its start point, so one run certifies the start
    # points of steps 1 to 127 and accepts those before the first spike;
    # every step from there on goes to `_prox` and, the state after a
    # spike being too large to certify at its start point, takes Newton
    assert seen["rows"] == [(nodes - 2) * (rows or 1)]
    assert seen["prox"] == 1 + (nodes - 1 - spikes[0])
    assert seen["newton"] == nodes - 1 - spikes[0]


@pytest.mark.parametrize("rows", [None, 2])
def test_flow_from_rest_switched_on_mid_flow(rows, monkeypatch):
    # at rest under zero forcing until node 20, then driven: the first
    # step certifies, one run certifies the start points of all later
    # steps and accepts steps 1 to 19, and steps 20 to 31 go to `_prox`
    # one by one
    pot = mono.make_potential(15, ("ramp", 2.5, 3.5), ("linear_decay", 2.0))
    shape = np.sin(np.pi * pot.nodes()[1:-1])
    v0 = np.zeros((rows or 1, 15))
    g = np.zeros((33, rows or 1, 15))
    g[20:] = shape * np.arange(1, (rows or 1) + 1)[:, None]
    if rows is None:
        v0, g = v0[0], g[:, 0]
    expected = _step_by_step(pot, v0, g)
    seen = _count_steps(monkeypatch)
    values = _solve(pot, v0, g)
    assert np.array_equal(values, expected)
    assert not values[:21].any()
    assert seen["rows"] == [31 * (rows or 1)]
    assert seen["prox"] == 1 + 12 and seen["newton"] == 12


@pytest.mark.parametrize("fault", ["nan", "spike"])
def test_flow_speculation_fails_like_prox_step_loop(fault, monkeypatch):
    pot, v0, g = _mixed_flow(3, 401, ())
    # node 300 lies inside the first speculated piece, of steps 1-341 (341
    # steps of 3 states fit in CHAIN_ROWS); a TimePath refuses NaN, so the
    # flow loop runs on the raw node values
    if fault == "nan":
        g[300, 1, 4] = math.nan
    else:
        g[300, 1] += 1.0
        monkeypatch.setattr(mono, "PROX_NEWTON_ITERS", 1)
    with pytest.raises(mono.ProxDidNotConverge) as stepwise:
        _step_by_step(pot, v0, g)
    seen = _count_steps(monkeypatch)
    table = pot.coefficient_table(np.linspace(0.0, 1.0, 401))
    with pytest.raises(mono.ProxDidNotConverge) as flow:
        mono._flow(pot, table, v0, g, 1.0 / 400)
    assert np.array_equal(flow.value.residual, stepwise.value.residual,
                          equal_nan=True)
    assert (fault == "nan") == math.isnan(flow.value.residual)
    # the first step went to `_prox`, every later one through the first
    # speculated piece, and the failing one to `_prox` again
    assert seen["prox"] == 2 and seen["rows"] == [341 * 3]


def test_flow_speculates_in_pieces_like_prox_step_loop(monkeypatch):
    # 8 states: a piece is 128 steps of CHAIN_ROWS = 1024 start rows. Steps
    # 1-384 certify in three whole pieces, the fourth piece (steps 385-511)
    # stops at row 5's spike at node 450, and that step and every later one
    # go to `_prox` and take Newton
    nodes = 513
    pot, v0, g = _mixed_flow(8, nodes, ())
    g[450, 5] += 1.0
    g[451, 5] -= 1.0
    expected = _step_by_step(pot, v0, g)
    seen = _count_steps(monkeypatch)
    assert np.array_equal(_solve(pot, v0, g), expected)
    assert seen["rows"] == [1024, 1024, 1024, 127 * 8]
    assert seen["prox"] == 1 + (nodes - 1 - 450)
    assert seen["newton"] == nodes - 1 - 450


def test_long_flow_at_rest_certifies_in_bounded_memory():
    # 20,000 steps of one state at rest, every one speculated: the pieces
    # add little to the node values and the scaled forcing (2 x 9.6 MiB);
    # one run over the whole chain peaked at 106.7 MiB
    pot = mono.make_potential(63, ("ramp", 2.5, 3.5), ("linear_decay", 2.0))
    nodes = 20_001
    table = pot.coefficient_table(np.linspace(0.0, 1.0, nodes))
    g = np.zeros((nodes, 63))
    tracemalloc.start()
    try:
        values = mono._flow(pot, table, np.zeros(63), g, 1.0 / (nodes - 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not values.any()
    assert peak <= 3 * values.nbytes


@pytest.mark.parametrize("ratio", [0.975, 1.025])
def test_flow_speculation_certifies_like_prox_at_the_threshold(
        ratio, monkeypatch):
    # At p = 20 a state of mesh norm 0.066 can meet the certificate. From
    # rest, the forcing of step 1 lands on such a state whose residual is
    # `ratio` times that step's target PROX_RESIDUAL_TOL (its start is at
    # rest), below the target of its own norm. The coefficient drops
    # 1e3-fold before step 1's time, and under step 0's value the residual
    # is 1e3 times larger.
    pot = mono.VariableExponentPotential(
        np.full(7, 20.0), lambda t: np.full(7, 1e3 if t < 0.2 else 1.0))
    shape = np.sin(np.pi * pot.nodes()[1:-1])
    residual = pot.root_mesh * np.linalg.norm(
        mono.subgradient(pot, 0.25, shape))
    g = np.zeros((9, 5))
    g[1] = (ratio * mono.PROX_RESIDUAL_TOL / residual) ** (1 / 19) \
        * shape * 8  # tau = 1/8
    expected = _step_by_step(pot, np.zeros(5), g)
    seen = _count_steps(monkeypatch)
    assert np.array_equal(_solve(pot, np.zeros(5), g), expected)
    # below the threshold every step after the first is speculated; above
    # it step 1 takes Newton, and it and every later step go to `_prox`
    assert (seen["prox"], seen["newton"]) \
        == ((1, 0) if ratio < 1 else (8, 1))


def _newton_flow(rows):
    """A flow whose every step needs Newton, its coefficient table and
    step: one state for `rows` None, else a (rows, J) stack."""
    pot = mono.make_potential(15, ("ramp", 2.5, 3.5), ("linear_decay", 2.0))
    rng = np.random.default_rng(15)
    v0 = rng.normal(size=(rows or 1, 15))
    g = rng.normal(size=(33, rows or 1, 15))
    table = pot.coefficient_table(np.linspace(0.0, 1.0, 33))
    if rows is None:
        return pot, table, v0[0], g[:, 0], 1.0 / 32
    return pot, table, v0, g, 1.0 / 32


def test_flow_needing_newton_at_every_step_never_speculates(monkeypatch):
    pot, _, v0, g, _ = _newton_flow(None)
    seen = _count_steps(monkeypatch)
    _solve(pot, v0, g)
    assert seen == {"prox": 32, "newton": 32, "rows": []}


def _node_major(values, v0):
    """`_flow`'s output in the (K,) + v0.shape layout of a guess."""
    return values if v0.ndim == 1 else values.transpose(1, 0, 2)


@pytest.mark.parametrize("rows", [None, 3])
def test_flow_resumed_from_its_own_output_takes_no_newton_step(
        rows, monkeypatch):
    pot, table, v0, g, tau = _newton_flow(rows)
    cold = mono._flow(pot, table, v0, g, tau)
    seen = _count_steps(monkeypatch)
    resumed = mono._flow(pot, table, v0, g, tau, _node_major(cold, v0))
    assert np.array_equal(resumed, cold)
    # every step's guess certifies, and a resumed flow never speculates
    assert seen == {"prox": 32, "newton": 0, "rows": []}


@pytest.mark.parametrize("rows", [None, 3])
def test_flow_resumed_from_a_perturbed_guess_certifies_every_step(
        rows, monkeypatch):
    pot, table, v0, g, tau = _newton_flow(rows)
    cold = _node_major(mono._flow(pot, table, v0, g, tau), v0)
    rng = np.random.default_rng(16)
    guess = cold.copy()
    # in a stack only row 1 is perturbed: rows 0 and 2 retire at their
    # guesses, while row 1 iterates on
    moved = guess if rows is None else guess[:, 1]
    moved += 0.1 * rng.normal(size=moved.shape)
    seen = _count_steps(monkeypatch)
    w = _node_major(mono._flow(pot, table, v0, g, tau, guess), v0)
    assert seen["prox"] == 32 and seen["newton"] == 32
    if rows is not None:
        assert np.array_equal(w[:, 0::2], cold[:, 0::2])
    # recomputed from the node values alone: subgradient at t_{k+1} plus
    # the proximal term, in the mesh norm, against the step's own target
    times = np.linspace(0.0, 1.0, 33)
    assert np.array_equal(w[0], v0)
    for k in range(32):
        for b in np.ndindex(w.shape[1:-1]):
            r = mono.subgradient(pot, times[k + 1], w[k + 1][b]) \
                + (w[k + 1][b] - w[k][b] - tau * g[k][b]) / tau
            target = mono.PROX_RESIDUAL_TOL \
                * (1.0 + pot.root_mesh * np.linalg.norm(w[k][b]))
            assert pot.root_mesh * np.linalg.norm(r) <= target, (k, b)
    assert np.abs(w - cold).max() <= 1e-9


@pytest.mark.parametrize("flow", ["newton", "speculated"])
def test_sweep_over_a_flows_own_output_returns_it(flow, monkeypatch):
    # each row of the sweep is certified at its guess, the flow's node
    # value, against the flow's own predecessor: one stacked `_prox` call
    # with no Newton iteration returns the node values bit for bit
    if flow == "newton":
        pot, table, v0, g, tau = _newton_flow(None)
    else:
        pot, v0, g = _mixed_flow(None, 65, (20,))
        table = pot.coefficient_table(np.linspace(0.0, 1.0, 65))
        tau = 1.0 / 64
    exact = mono._flow(pot, table, v0, g, tau)
    seen = _count_steps(monkeypatch)
    swept = mono._sweep(pot, table, v0, g, tau, exact)
    assert np.array_equal(swept, exact)
    assert seen == {"prox": 1, "newton": 0, "rows": []}


def test_sweeps_converge_to_the_flow(monkeypatch):
    # waveform relaxation: sweep k solves step k - 1 from a predecessor
    # that earlier sweeps have already settled, so K - 1 sweeps from the
    # constant guess reach the flow up to the prox certificate
    pot, table, v0, g, tau = _newton_flow(None)
    exact = mono._flow(pot, table, v0, g, tau)
    seen = _count_steps(monkeypatch)
    w = np.tile(v0, (len(g), 1))
    gaps = []
    for _ in range(len(g) - 1):
        w = mono._sweep(pot, table, v0, g, tau, w)
        assert np.array_equal(w[0], v0)
        gaps.append(np.abs(w - exact).max())
    assert seen["prox"] == len(g) - 1
    assert gaps[0] > 1e-2 and gaps[-1] <= 1e-9


def test_flow_speculation_keeps_the_callers_error_settings():
    # node 6 moves one exactly-zero component to 1e-200, whose
    # |v|^(p - 2) v underflows; that step lies in a speculated run
    pot, v0, g = _mixed_flow(None, 17, ())
    v0[7] = 0.0
    g[:, 7] = 0.0
    g[6, 7] = 1e-200 * 16  # tau = 1/16
    for run in (_step_by_step, _solve):
        with np.errstate(under="raise"):
            with pytest.raises(FloatingPointError):
                run(pot, v0, g)


def test_flow_refuses_bad_coefficient_before_any_step(monkeypatch):
    pot = mono.VariableExponentPotential(np.full(17, 3.0),
                                         lambda t: np.full(17, 1.0 + t))
    seen = _count_steps(monkeypatch)
    with pytest.raises(mono.MonotoneError, match="nonincreasing"):
        _solve(pot, np.zeros((2, 15)), np.zeros((65, 2, 15)))
    assert seen == {"prox": 0, "newton": 0, "rows": []}


# ---------------------------------------------------------------------------
# monotonicity


def test_monotonicity_zero_for_equal_arguments():
    pot = mono.make_potential(9, ("constant", 3.0))
    v = np.linspace(-1.0, 1.0, 9)
    assert mono.monotonicity_probe(pot, 0.0, v, v) == 0.0


def test_monotonicity_quadratic_form(rng):
    pot = mono.make_potential(9, ("constant", 2.0))
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
