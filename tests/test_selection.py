"""Node-wise selections along paths and the eps-close regeneration bound."""

import math

import numpy as np
import pytest

from evoinc import geometry as geo, rhs, selection as sel
from evoinc.paths import (TimePath, constant_path, path_distance,
                          path_l2_norm, zero_path)

from conftest import hull_vertices


def _map_with(c_values, nu_scales=None, dim_u=None, dim_v=3):
    n = len(c_values)
    dim_u = dim_u or n
    coeffs = []
    for k, c in enumerate(c_values):
        nu = None
        if nu_scales is not None:
            nu = rhs.Affine(nu_scales[k], 0.0,
                            rhs.Tanh(rhs.Inner("v", np.eye(dim_v)[k % dim_v])))
        coeffs.append(rhs.GrowthCoefficient(c, nu))
    return rhs.BasisFamilyMap(np.eye(dim_u)[:n], tuple(coeffs))


def _random_paths(rng, dim_u, dim_v, k=17, t1=1.0):
    u = TimePath(0.0, t1, rng.normal(size=(k, dim_u)))
    v = TimePath(0.0, t1, rng.normal(size=(k, dim_v)))
    return u, v


# ---------------------------------------------------------------------------
# path norms


def test_path_l2_norm_zero():
    assert path_l2_norm(zero_path(0.0, 1.0, 16, 3)) == 0.0


def test_path_l2_norm_constant_unit_on_0_4():
    p = constant_path(0.0, 4.0, 33, np.array([1.0, 0.0]))
    assert path_l2_norm(p) == pytest.approx(2.0)


def test_path_l2_norm_linear_ramp():
    k = 10_001
    p = TimePath(0.0, 1.0, np.linspace(0.0, 1.0, k)[:, None])
    assert path_l2_norm(p) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)


def test_path_requires_two_nodes():
    with pytest.raises(ValueError):
        TimePath(0.0, 1.0, np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# nearest-point selection


def test_selection_of_member_anchor_is_identity(rng):
    family = _map_with([0.8, 0.5], [0.3, 0.2])
    u, v = _random_paths(rng, 2, 3)
    f = sel.nearest_point_selection(family, u, v, zero_path(0.0, 1.0, 17, 2))
    again = sel.nearest_point_selection(family, u, v, f)
    assert path_distance(f, again) <= 1e-10
    assert sel.selection_residual(family, u, v, again) <= 1e-10


def test_selection_of_constant_singleton():
    y0 = np.array([0.3, -0.7])
    family = rhs.SingletonAffineMap.constant(y0, 2, 3)
    u = zero_path(0.0, 1.0, 9, 2)
    v = zero_path(0.0, 1.0, 9, 3)
    anchor = TimePath(0.0, 1.0, np.random.default_rng(0).normal(size=(9, 2)))
    f = sel.nearest_point_selection(family, u, v, anchor)
    assert np.allclose(f.values, y0)


def test_selection_nearest_point_of_segment():
    family = rhs.BasisFamilyMap(
        np.eye(2), (rhs.GeneralCoefficient(rhs.Const(1.0)),
                    rhs.GeneralCoefficient(rhs.Const(1.0))))
    u = zero_path(0.0, 1.0, 5, 2)
    v = zero_path(0.0, 1.0, 5, 3)
    f = sel.nearest_point_selection(family, u, v, zero_path(0.0, 1.0, 5, 2))
    assert np.allclose(f.values, 0.5, atol=1e-12)


# ---------------------------------------------------------------------------
# selection residual


def test_selection_residual_of_valid_selection(rng):
    family = _map_with([0.8, 0.5], [0.3, 0.2])
    u, v = _random_paths(rng, 2, 3)
    f = sel.nearest_point_selection(family, u, v, zero_path(0.0, 1.0, 17, 2))
    assert sel.selection_residual(family, u, v, f) <= 1e-10


def test_selection_residual_constant_distance():
    # image is always {0}; a unit-norm constant path sits at distance 1
    family = rhs.SingletonAffineMap.constant(np.zeros(2), 2, 3)
    t1 = 4.0
    u = zero_path(0.0, t1, 33, 2)
    v = zero_path(0.0, t1, 33, 3)
    f = constant_path(0.0, t1, 33, np.array([1.0, 0.0]))
    assert sel.selection_residual(family, u, v, f) == pytest.approx(2.0)


def test_selection_residual_matches_recomputation(rng):
    family = _map_with([0.8, 0.5], [0.3, 0.2])
    u, v = _random_paths(rng, 2, 3)
    f = TimePath(0.0, 1.0, rng.normal(size=(17, 2)))
    res = sel.selection_residual(family, u, v, f)
    dists = sel.node_distances(family, u, v, f)
    dt = f.dt
    sq = dists ** 2
    oracle = math.sqrt(dt * (sq.sum() - 0.5 * (sq[0] + sq[-1])))
    assert res == pytest.approx(oracle, abs=1e-12)


def _node_distance(family, x, u, v):
    """node_distances at one node, read off constant two-node paths."""
    dists = sel.node_distances(family, *(constant_path(0.0, 1.0, 2, value)
                                         for value in (u, v, x)))
    assert dists[0] == dists[1]
    return float(dists[0])


def test_node_distances_refuse_path_on_another_time_range(rng):
    family = _map_with([0.8, 0.5], [0.3, 0.2])
    u, v = _random_paths(rng, 2, 3)
    f = TimePath(0.0, 2.0, rng.normal(size=(17, 2)))
    with pytest.raises(ValueError, match="grid"):
        sel.node_distances(family, u, v, f)


def test_node_distances_vertex_is_zero():
    family = _map_with([1.0, 0.5])
    u = np.array([2.0, 1.0])
    v = np.zeros(3)
    vertex = hull_vertices(family, u, v)[0, 0]
    assert _node_distance(family, vertex, u, v) <= 1e-10


def test_node_distances_segment_geometry():
    family = rhs.BasisFamilyMap(
        np.eye(2), (rhs.GeneralCoefficient(rhs.Const(1.0)),
                    rhs.GeneralCoefficient(rhs.Const(1.0))))
    d = _node_distance(family, np.array([2.0, 0.0]), np.zeros(2), np.zeros(3))
    assert d == pytest.approx(1.0, abs=1e-9)


def test_node_distances_match_grid_oracle():
    family = _map_with([0.8, 0.6], [0.2, 0.3])
    rng = np.random.default_rng(34)
    u, v = rng.normal(size=2), rng.normal(size=3)
    x = rng.normal(size=2) * 2.0
    d = _node_distance(family, x, u, v)
    verts = hull_vertices(family, u, v)[0]
    lam = np.linspace(0.0, 1.0, 2001)[:, None]
    cand = lam * verts[0] + (1.0 - lam) * verts[1]
    oracle = float(np.linalg.norm(cand - x, axis=1).min())
    assert d == pytest.approx(oracle, abs=1e-3)


# ---------------------------------------------------------------------------
# eps-close regeneration


def test_approximate_selection_identity_when_states_unchanged(rng):
    family = _map_with([0.8, 0.5], [0.3, 0.2])
    u, v = _random_paths(rng, 2, 3)
    f = sel.nearest_point_selection(family, u, v, zero_path(0.0, 1.0, 17, 2))
    f_new = sel.approximate_selection(family, u, v, f, eps=0.25)
    assert path_distance(f_new, f) <= 1e-8
    assert sel.selection_residual(family, u, v, f_new) <= 1e-10


def test_approximate_selection_constant_in_u(rng):
    # map ignores u entirely: the old selection stays admissible
    family = _map_with([0.0, 0.0], [0.4, 0.3])
    u, v = _random_paths(rng, 2, 3)
    f = sel.nearest_point_selection(family, u, v, zero_path(0.0, 1.0, 17, 2))
    u_new = u.with_values(u.values + rng.normal(size=u.values.shape))
    f_new = sel.approximate_selection(family, u_new, v, f, eps=0.25)
    assert path_distance(f_new, f) <= 1e-8


def test_approximate_selection_l2_bound_and_node_oracle(rng):
    family = _map_with([0.8, 0.5], [0.3, 0.2])
    t1 = 1.7
    u, v = _random_paths(rng, 2, 3, k=33, t1=t1)
    f = sel.nearest_point_selection(family, u, v, zero_path(0.0, t1, 33, 2))
    eps = 0.2
    delta = rng.normal(size=(33, 2))
    delta *= 0.05 / np.linalg.norm(delta, axis=1)[:, None]
    u_new = u.with_values(u.values + delta)
    f_new = sel.approximate_selection(family, u_new, v, f, eps)

    assert np.all(np.linalg.norm(f_new.values - f.values, axis=1)
                  <= eps + 1e-8)
    assert path_distance(f_new, f) <= eps * math.sqrt(t1) + 1e-6
    assert sel.selection_residual(family, u_new, v, f_new) <= 1e-10

    # node-wise cross-check: intersection projection of the old value
    verts = hull_vertices(family, u_new.values, v.values)
    for i in range(0, 33, 8):
        oracle, _ = geo._project_cap(
            f.values[i][None, :], f.values[i], eps,
            verts[i][None])
        assert np.linalg.norm(f_new.values[i] - oracle[0]) <= 1e-6


def test_approximate_selection_reports_failing_node(rng):
    family = _map_with([0.8, 0.5])
    u, v = _random_paths(rng, 2, 3)
    f = sel.nearest_point_selection(family, u, v, zero_path(0.0, 1.0, 17, 2))
    u_far = u.with_values(u.values + 100.0)
    with pytest.raises(sel.SelectionError) as err:
        sel.approximate_selection(family, u_far, v, f, eps=1e-3)
    assert "node" in str(err.value)


# ---------------------------------------------------------------------------
# convexity closure


def test_convex_combination_of_selections_is_selection(rng):
    family = _map_with([0.8, 0.5], [0.3, 0.2])
    u, v = _random_paths(rng, 2, 3)
    f1 = sel.nearest_point_selection(
        family, u, v, TimePath(0.0, 1.0, rng.normal(size=(17, 2))))
    f2 = sel.nearest_point_selection(
        family, u, v, TimePath(0.0, 1.0, rng.normal(size=(17, 2))))
    for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
        mix = f1.with_values((1.0 - theta) * f1.values + theta * f2.values)
        assert sel.selection_residual(family, u, v, mix) <= 1e-8
