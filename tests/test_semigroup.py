"""Spectral propagators: algebra, inhomogeneous solves, smoothing, profiles."""

import math

import numpy as np
import pytest

from evoinc import semigroup as sg
from evoinc.paths import TimePath, path_distance

KINDS = ("heat", "schroedinger", "wave")


# ---------------------------------------------------------------------------
# propagation algebra


def test_propagate_identity_at_zero(rng):
    for kind in KINDS:
        gen = sg.SpectralGenerator(kind, 5)
        s = rng.normal(size=gen.state_dim)
        assert np.array_equal(sg.propagate(gen, s, 0.0), s)


def test_heat_single_mode_decay():
    gen = sg.SpectralGenerator("heat", 3)
    out = sg.propagate(gen, gen.mode_state(1), 1.0)
    assert out[0] == pytest.approx(math.exp(-1.0))
    assert np.all(out[1:] == 0.0)


def test_rotation_mode_two_by_quarter_period():
    gen = sg.SpectralGenerator("schroedinger", 3)
    s = gen.mode_state(2, 1.0, 0) + gen.mode_state(2, 0.5, 1)
    out = sg.propagate(gen, s, math.pi / 4.0)
    # angle t n^2 = pi: the coefficient pair flips sign
    assert np.allclose(out[2:4], -s[2:4], atol=1e-12)


@pytest.mark.parametrize("n", [1, 3])
def test_rotation_direction_hand_values(n):
    t = 0.3
    heat = sg.SpectralGenerator("heat", 4)
    out = sg.propagate(heat, heat.mode_state(n), t)
    assert out[n - 1] == pytest.approx(math.exp(-t * n ** 2), abs=1e-15)
    expected = {"schroedinger": ((math.cos(-t * n ** 2), math.sin(-t * n ** 2)),
                                 (0.0, n ** 2)),
                "wave": ((math.cos(t * n), math.sin(t * n)), (0.0, -n))}
    for kind, (rotated, generated) in expected.items():
        gen = sg.SpectralGenerator(kind, 4)
        e = gen.mode_state(n)
        out = sg.propagate(gen, e, t)
        assert np.abs(out[2 * n - 2:2 * n] - rotated).max() <= 1e-15
        assert np.count_nonzero(out) == 2
        assert np.array_equal(gen.apply_generator(e)[2 * n - 2:2 * n],
                              generated)


@pytest.mark.parametrize("kind", KINDS)
def test_forward_difference_matches_minus_generator(kind, rng):
    gen = sg.SpectralGenerator(kind, 4)
    x = rng.normal(size=gen.state_dim)
    h = 1e-8
    quotient = (sg.propagate(gen, x, h) - x) / h
    # truncation h |s|^2 |z| / 2 stays below 1e-5; a flipped sign is O(1)
    assert np.abs(quotient + gen.apply_generator(x)).max() <= 1e-4


def test_negative_time_rejected():
    gen = sg.SpectralGenerator("heat", 2)
    with pytest.raises(sg.SemigroupError):
        sg.propagate(gen, gen.zero_state(), -0.1)


@pytest.mark.parametrize("kind", KINDS)
def test_semigroup_law_seeded(kind):
    gen = sg.SpectralGenerator(kind, 12)
    for i in range(100):
        rng = np.random.default_rng([41, i])
        s = rng.normal(size=gen.state_dim)
        t1, t2 = rng.uniform(0.0, 1.5, size=2)
        lhs = sg.propagate(gen, sg.propagate(gen, s, t1), t2)
        rhs = sg.propagate(gen, s, t1 + t2)
        assert np.linalg.norm(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_norm_behavior(kind):
    gen = sg.SpectralGenerator(kind, 8)
    for i in range(100):
        rng = np.random.default_rng([42, i])
        s = rng.normal(size=gen.state_dim)
        t = float(rng.uniform(0.0, 2.0))
        drift = np.linalg.norm(sg.propagate(gen, s, t)) - np.linalg.norm(s)
        if kind == "heat":
            assert drift <= 1e-12
        else:
            assert abs(drift) <= 1e-12


# ---------------------------------------------------------------------------
# inhomogeneous solves


def test_duhamel_pure_decay():
    gen = sg.SpectralGenerator("heat", 1)
    f = TimePath(0.0, 1.0, np.zeros((129, 1)))
    out = sg.duhamel_solve(gen, np.array([2.0]), f)
    assert np.allclose(out.values[:, 0],
                       2.0 * np.exp(-out.times()), atol=1e-12)


def test_duhamel_stationary_balance():
    gen = sg.SpectralGenerator("heat", 3)
    k = 4097
    fvals = np.zeros((k, 3))
    fvals[:, 1] = 1.0  # mode n = 2
    out = sg.duhamel_solve(gen, np.zeros(3), TimePath(0.0, 8.0, fvals))
    assert out.values[-1, 1] == pytest.approx(0.25, abs=1e-10)


@pytest.mark.parametrize("kind", KINDS)
def test_duhamel_against_rk4_oracle(kind):
    gen = sg.SpectralGenerator(kind, 12)
    rng = np.random.default_rng(43)
    k = 2 ** 10 + 1
    f = TimePath(0.0, 1.0, rng.normal(size=(k, gen.state_dim)))
    u0 = rng.normal(size=gen.state_dim)
    mild = sg.duhamel_solve(gen, u0, f)
    oracle = sg.rk4_oracle(gen, u0, f, refine=16)
    assert path_distance(mild, oracle) <= 1e-6


@pytest.mark.parametrize("kind", KINDS)
def test_duhamel_unforced_matches_orbit(kind):
    # pins the rotation direction of the step factors against propagate
    gen = sg.SpectralGenerator(kind, 8)
    rng = np.random.default_rng(44)
    u0 = rng.normal(size=gen.state_dim)
    f = TimePath(0.0, 1.0, np.zeros((257, gen.state_dim)))
    mild = sg.duhamel_solve(gen, u0, f)
    assert np.abs(mild.values - sg.orbit(gen, u0, f.times())).max() <= 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_rk4_oracle_single_step_matches_stage_formulas(kind):
    gen = sg.SpectralGenerator(kind, 6)
    rng = np.random.default_rng(45)
    u0 = rng.normal(size=gen.state_dim)
    f = rng.normal(size=gen.state_dim)
    tau = 0.01
    path = TimePath(0.0, tau, np.stack([f, rng.normal(size=gen.state_dim)]))

    def rhs(s):
        return -gen.apply_generator(s) + f

    k1 = rhs(u0)
    k2 = rhs(u0 + 0.5 * tau * k1)
    k3 = rhs(u0 + 0.5 * tau * k2)
    k4 = rhs(u0 + tau * k3)
    step = u0 + (tau / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    oracle = sg.rk4_oracle(gen, u0, path, refine=1)
    assert np.array_equal(oracle.values[0], u0)
    assert np.abs(oracle.values[1] - step).max() <= 1e-13


def test_rk4_oracle_rejects_bad_input():
    gen = sg.SpectralGenerator("schroedinger", 2)
    f = TimePath(0.0, 1.0, np.zeros((9, 4)))
    with pytest.raises(sg.SemigroupError):
        sg.rk4_oracle(gen, np.zeros(3), f, refine=4)
    with pytest.raises(sg.SemigroupError):
        sg.rk4_oracle(gen, np.zeros(4), TimePath(0.0, 1.0, np.zeros((9, 3))),
                      refine=4)
    for refine in (0, -1):
        with pytest.raises(sg.SemigroupError):
            sg.rk4_oracle(gen, np.zeros(4), f, refine=refine)


def test_duhamel_linearity(rng):
    gen = sg.SpectralGenerator("wave", 6)
    k = 257
    f1 = TimePath(0.0, 1.0, rng.normal(size=(k, gen.state_dim)))
    f2 = TimePath(0.0, 1.0, rng.normal(size=(k, gen.state_dim)))
    u0 = rng.normal(size=gen.state_dim)
    combined = sg.duhamel_solve(gen, u0, f1.with_values(f1.values + f2.values))
    first = sg.duhamel_solve(gen, u0, f1)
    second = sg.duhamel_solve(gen, gen.zero_state(), f2)
    assert path_distance(
        combined, first.with_values(first.values + second.values)) <= 1e-10


def test_duhamel_grid_mismatch():
    gen = sg.SpectralGenerator("heat", 2)
    with pytest.raises(sg.SemigroupError):
        sg.duhamel_solve(gen, np.zeros(3), TimePath(0.0, 1.0, np.zeros((9, 3))))


# ---------------------------------------------------------------------------
# resolvent smoothing


def test_yosida_factor_heat_mode_one():
    gen = sg.SpectralGenerator("heat", 1)
    assert sg.yosida_factors(gen, 1.0)[0] == pytest.approx(0.5)


def test_yosida_factor_limit():
    gen = sg.SpectralGenerator("heat", 4)
    f = sg.yosida_factors(gen, 1e9)
    assert np.all(np.abs(f - 1.0) <= 2e-8)


def test_yosida_rejects_nonpositive_lambda():
    gen = sg.SpectralGenerator("heat", 2)
    with pytest.raises(sg.SemigroupError):
        sg.yosida_smooth(gen, 0.0, TimePath(0.0, 1.0, np.zeros((4, 2))))


@pytest.mark.parametrize("kind", KINDS)
def test_yosida_smooth_matches_dense_resolvent(kind, rng):
    gen = sg.SpectralGenerator(kind, 4)
    lam = 3.0
    dense_e = np.column_stack([gen.apply_generator(e)
                               for e in np.eye(gen.state_dim)])
    resolvent = lam * np.linalg.inv(lam * np.eye(gen.state_dim) + dense_e)
    p = TimePath(0.0, 1.0, rng.normal(size=(5, gen.state_dim)))
    smoothed = sg.yosida_smooth(gen, lam, p)
    assert np.abs(smoothed.values - p.values @ resolvent.T).max() <= 1e-13


def test_yosida_ladder_monotone(rng):
    gen = sg.SpectralGenerator("schroedinger", 32)
    p = TimePath(0.0, 1.0, rng.normal(size=(65, gen.state_dim)))
    devs = [path_distance(sg.yosida_smooth(gen, 10.0 ** j, p), p)
            for j in range(0, 9)]
    assert all(b <= a + 1e-14 for a, b in zip(devs, devs[1:]))
    # recorded from this run (unit-scale path, 32 modes, ladder to 1e8)
    assert devs[-1] <= 2e-4


def test_yosida_block_is_contraction(rng):
    for kind in ("schroedinger", "wave"):
        gen = sg.SpectralGenerator(kind, 8)
        p = TimePath(0.0, 1.0, rng.normal(size=(17, gen.state_dim)))
        for lam in (0.5, 5.0, 500.0):
            smoothed = sg.yosida_smooth(gen, lam, p)
            assert np.all(np.linalg.norm(smoothed.values, axis=1)
                          <= np.linalg.norm(p.values, axis=1) + 1e-12)


# ---------------------------------------------------------------------------
# rough-data deviation profile


def test_deviation_norm_zero_at_t_zero():
    assert sg.deviation_norm(2000, 0.0) == 0.0


def test_profile_slope_and_ratio_anchors():
    t_list = np.logspace(-4, -2, 25)
    profile = sg.counterexample_profile(2000, t_list)
    assert 0.4 <= profile.slope <= 0.6
    ratio_factor = (sg.deviation_norm(2000, 1e-6) / 1e-6) \
        / (sg.deviation_norm(2000, 1e-2) / 1e-2)
    assert 80.0 <= ratio_factor <= 120.0


def test_profile_rejects_out_of_range_times():
    with pytest.raises(sg.SemigroupError):
        sg.counterexample_profile(100, [0.0, 0.5])
    with pytest.raises(sg.SemigroupError):
        sg.counterexample_profile(100, [0.5, 1.5])


def test_profile_single_time_has_no_slope():
    profile = sg.counterexample_profile(100, [1e-3])
    assert profile.slope is None


def test_truncation_consistency():
    # doubling the mode count moves the squared norms by at most the tail
    for t in (1e-4, 1e-3, 1e-2):
        delta = abs(sg.deviation_norm(2000, t) ** 2
                    - sg.deviation_norm(4000, t) ** 2)
        assert delta <= 4.0 * sg.coefficient_tail_bound(2000)


def test_slope_stabilizes_once_tail_resolved():
    # smallest mode count with tail below 1e-6
    n_stable = 708
    assert sg.coefficient_tail_bound(n_stable) <= 1e-6
    t_list = np.logspace(-4, -2, 25)
    slope_a = sg.counterexample_profile(n_stable, t_list).slope
    slope_b = sg.counterexample_profile(2000, t_list).slope
    assert abs(slope_a - slope_b) <= 0.02


# ---------------------------------------------------------------------------
# regularity probes


def test_orbit_regularity_domain_data():
    gen = sg.SpectralGenerator("schroedinger", 64)
    n = np.arange(1, 65, dtype=float)
    u0 = np.zeros(gen.state_dim)
    u0[::2] = n ** -4.0
    report = sg.regularity_probe(gen, True, u0=u0, t_max=0.5)
    assert report.lipschitz_reference is not None
    assert max(report.lipschitz) <= report.lipschitz_reference + 1e-6


def test_orbit_regularity_rough_data_diverges():
    gen = sg.SpectralGenerator("schroedinger", 2000)
    u0 = np.zeros(gen.state_dim)
    u0[::2] = sg.deviation_coefficients(2000)
    report = sg.regularity_probe(gen, False, u0=u0, t_max=1e-2,
                                 levels=(4, 6, 8, 10))
    lip = report.lipschitz
    # empirical modulus roughly doubles per 4x mesh refinement
    for a, b in zip(lip, lip[1:]):
        assert b >= 1.6 * a
    # the Hoelder-1/2 modulus stays bounded on the same meshes
    hoe = report.hoelder
    assert max(hoe) <= 2.0 * min(hoe)


def test_orbit_regularity_zero_data():
    gen = sg.SpectralGenerator("wave", 8)
    report = sg.regularity_probe(gen, True, u0=gen.zero_state(), t_max=1.0)
    assert max(report.lipschitz) == 0.0


def test_forcing_regularity_hoelder_bound(rng):
    gen = sg.SpectralGenerator("schroedinger", 16)
    k = 1025
    vals = rng.normal(size=(k, gen.state_dim))
    n = np.repeat(np.arange(1, 17, dtype=float), 2)
    vals /= n ** 2.5  # graph-norm finite forcing
    forcing = TimePath(0.0, 1.0, vals)
    report = sg.regularity_probe(gen, True, forcing=forcing, t_max=1.0)
    assert report.hoelder_reference is not None
    assert max(report.hoelder) <= report.hoelder_reference + 1e-6
