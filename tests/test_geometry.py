"""Convex bodies: projections, Hausdorff distances, and the lemma checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoinc import geometry as geo
from evoinc import suites
from evoinc.sampling import sphere_points

from conftest import monotone_chain, polygon_boundary_sample, polygon_distances


# ---------------------------------------------------------------------------
# ball projection


def test_project_ball_radial():
    p = geo.project_ball(np.array([2.0, 0.0]), np.array([0.0, 0.0]), 1.0)
    assert np.allclose(p, [1.0, 0.0])


def test_project_ball_inside_is_identity():
    x = np.array([0.3, 0.1])
    p = geo.project_ball(x, np.array([0.0, 0.0]), 1.0)
    assert np.array_equal(p, x)


def test_project_ball_scales_direction():
    p = geo.project_ball(np.array([3.0, 4.0]), np.array([0.0, 0.0]), 1.0)
    assert np.allclose(p, [0.6, 0.8])


def test_project_ball_dimension_mismatch():
    with pytest.raises(geo.DimensionMismatch):
        geo.project_ball(np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.0]), 1.0)


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_ball_projection_variational_inequality(trial):
    rng = np.random.default_rng(trial)
    dim = int(rng.integers(1, 5))
    c = rng.normal(size=dim)
    r = float(rng.uniform(0.1, 3.0))
    x = rng.normal(size=dim) * 4.0
    p = geo.project_ball(x, c, r)
    probes = c + r * np.random.default_rng(trial + 1).normal(size=(32, dim))
    norms = np.linalg.norm(probes - c, axis=1, keepdims=True)
    members = c + (probes - c) / np.maximum(norms / r, 1.0)
    assert np.all((members - p) @ (x - p) <= 1e-9 * (1 + np.linalg.norm(x)))


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_projection_nonexpansive(trial):
    rng = np.random.default_rng(trial)
    dim = int(rng.integers(1, 4))
    body = geo.Ball(rng.normal(size=dim), float(rng.uniform(0.1, 2.0)))
    x = rng.normal(size=dim) * 3.0
    y = rng.normal(size=dim) * 3.0
    px = geo.project_ball(x, body.center, body.radius)
    py = geo.project_ball(y, body.center, body.radius)
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-8


# ---------------------------------------------------------------------------
# polytope projection


def test_project_segment_foot_of_perpendicular():
    seg = geo.Polytope(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    p = geo.project_polytope(np.array([0.0, 2.0]), seg)
    assert np.allclose(p, [0.0, 0.0], atol=1e-12)


def test_project_polytope_vertex_identity():
    poly = geo.Polytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    p = geo.project_polytope(np.array([1.0, 0.0]), poly)
    assert np.allclose(p, [1.0, 0.0], atol=1e-12)


def _simplex_grid_search(vertices, x, step):
    """Oracle: dense barycentric sweep of a triangle, refined locally."""
    best = None
    lo1, hi1, lo2, hi2 = 0.0, 1.0, 0.0, 1.0
    for level_step in (1e-2, 1e-3, 1e-4):
        l1 = np.arange(lo1, hi1 + level_step, level_step)
        l2 = np.arange(lo2, hi2 + level_step, level_step)
        a, b = np.meshgrid(l1, l2, indexing="ij")
        mask = a + b <= 1.0 + 1e-12
        lam = np.stack([a[mask], b[mask], 1.0 - a[mask] - b[mask]], axis=1)
        cand = lam @ vertices
        dists = np.linalg.norm(cand - x, axis=1)
        j = int(np.argmin(dists))
        best = cand[j]
        b1, b2 = lam[j, 0], lam[j, 1]
        lo1, hi1 = max(b1 - 2 * level_step, 0.0), min(b1 + 2 * level_step, 1.0)
        lo2, hi2 = max(b2 - 2 * level_step, 0.0), min(b2 + 2 * level_step, 1.0)
    return best


def test_project_triangle_against_grid_oracle():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    x = np.array([0.7, 0.9])
    p = geo.project_polytope(x, geo.Polytope(vertices))
    oracle = _simplex_grid_search(vertices, x, 1e-4)
    assert np.linalg.norm(p - oracle) <= 2e-4
    # frozen value: foot of the perpendicular onto the hypotenuse
    assert np.allclose(p, [0.4, 0.6], atol=1e-10)


def test_project_polytope_certificate_over_vertices(rng):
    for _ in range(50):
        dim = int(rng.integers(2, 4))
        vertices = rng.normal(size=(int(rng.integers(2, 9)), dim))
        x = rng.normal(size=dim) * 3.0
        p = geo.project_polytope(x, geo.Polytope(vertices), tol=1e-12)
        gaps = (vertices - p) @ (x - p)
        assert gaps.max() <= 1e-12 * (1.0 + np.linalg.norm(x)) + 1e-15


def test_project_polytope_budget_exhaustion_reports():
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # the projection (0.4, 0.6) lies inside the hypotenuse: the cold start
    # at the nearest vertex (0, 1) fails the certificate, so one major cycle
    # cannot certify it and a second one does
    x = np.array([[0.7, 0.9]])
    with pytest.raises(geo.ProjectionDidNotConverge) as err:
        geo.HullProjector(triangle).project(x, max_iter=1)
    assert np.isfinite(err.value.residual) and err.value.residual > 0.0
    p, gaps = geo.HullProjector(triangle).project(x, max_iter=2)
    assert np.allclose(p, [[0.4, 0.6]], atol=1e-12)
    assert gaps[0] <= 1e-12 * (1.0 + np.linalg.norm(x))


# A hull whose last vertex is repeated three times (padding of a batched
# vertex stack), with the query of projection-difference seed 1732327213
# that once ended without a certificate at gap 9.5e-12 against 8.3e-12.
REPEATED_VERTEX_HULL = np.array([
    [0.40204826248554715, 1.9565699581433647, -2.384787177818414],
    [3.780393471822878, -0.2374457205975597, -2.96736096612052],
    [0.20276940659088438, 0.15532401338595364, -0.12902535811239257],
    [0.5019569777927374, 3.165949756254017, -2.373530765509826],
    [1.9488298069276113, -1.674752327242698, -0.8282350073988182],
    [-1.5759439265568524, -4.341625493377109, -1.9148599989572481],
    [-1.5759439265568524, -4.341625493377109, -1.9148599989572481],
    [-1.5759439265568524, -4.341625493377109, -1.9148599989572481]])
REPEATED_VERTEX_QUERY = np.array(
    [-6.54039905118453, 2.454496223758445, -1.9973710473973527])


def _certificate(vertices, x, p):
    """Vertex-set gaps max_v <x - p, v - p> and their bound, per row."""
    gaps = np.einsum("mnd,md->mn", vertices - p[:, None, :], x - p).max(axis=1)
    return gaps, 1e-12 * (1.0 + np.linalg.norm(x, axis=1))


def test_project_polytope_repeated_vertex_is_certified():
    x = REPEATED_VERTEX_QUERY
    p, gaps = geo.HullProjector(REPEATED_VERTEX_HULL).project(x)
    check, bound = _certificate(REPEATED_VERTEX_HULL[None], x[None], p)
    assert gaps[0] <= bound[0] and check[0] <= bound[0]
    # the padding copies change nothing: same point as the distinct vertices
    alone = geo.project_polytope(x, geo.Polytope(REPEATED_VERTEX_HULL[:6]))
    assert np.linalg.norm(p[0] - alone) <= 1e-10


def test_hull_projector_warm_start_on_repeated_vertex_support():
    # weights left on both copies of a vertex make the corral's system
    # singular; the least-norm solve must still reach the certified point
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    projector = geo.HullProjector(vertices)
    projector.lam = np.array([[0.0, 0.5, 0.5, 0.0]])
    p, gaps = projector.project(np.array([0.7, 0.9]))
    assert np.allclose(p, [[0.4, 0.6]], atol=1e-12)
    assert gaps[0] <= 1e-12 * (1.0 + math.hypot(0.7, 0.9))


def test_projection_difference_known_seed_is_certified():
    result = suites.projection_difference_battery(1732327213, 1000)
    assert result.passed


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_hull_projector_batch_rows_and_warm_start_agree(dim):
    rng = np.random.default_rng(100 + dim)
    m, n = 40, 9
    vertices = rng.normal(size=(m, n, dim)) * rng.uniform(0.2, 3.0,
                                                            size=(m, 1, 1))
    # repeated vertices in every row, as padded vertex stacks carry them
    for i in range(m):
        copies = int(rng.integers(1, 4))
        vertices[i, n - copies:] = vertices[i, int(rng.integers(0, n - copies))]
    x = rng.normal(size=(m, dim)) * 3.0
    x[::4] = vertices[::4].mean(axis=1)  # some queries inside their hull

    projector = geo.HullProjector(vertices)
    batch, _ = projector.project(x)
    rows = np.vstack([geo.HullProjector(vertices[i]).project(x[i])[0]
                      for i in range(m)])
    assert np.abs(batch - rows).max() <= 1e-10
    gaps, bound = _certificate(vertices, x, batch)
    assert np.all(gaps <= bound)

    moved = x + 1e-3 * rng.normal(size=x.shape)
    warm, _ = projector.project(moved)
    cold, _ = geo.HullProjector(vertices).project(moved)
    assert np.abs(warm - cold).max() <= 1e-10
    for points in (warm, cold):
        gaps, bound = _certificate(vertices, moved, points)
        assert np.all(gaps <= bound)


# ---------------------------------------------------------------------------
# intersection projection


def test_project_intersection_symmetric_case():
    body = geo.BallCapPolytope(
        geo.Ball(np.array([0.0, 0.0]), 1.0),
        geo.Polytope(np.array([[-2.0, 0.0], [2.0, 0.0]])))
    res = geo.project_intersection(np.array([0.0, 3.0]), body)
    assert np.allclose(res.point, [0.0, 0.0], atol=1e-9)
    assert res.ball_residual <= 1e-9 and res.polytope_residual <= 1e-9


def test_project_intersection_member_identity():
    body = geo.BallCapPolytope(
        geo.Ball(np.array([0.0, 0.0]), 1.0),
        geo.Polytope(np.array([[-2.0, -1.0], [2.0, -1.0], [2.0, 1.0],
                               [-2.0, 1.0]])))
    x = np.array([0.3, 0.2])
    res = geo.project_intersection(x, body)
    assert np.linalg.norm(res.point - x) <= 1e-9


def test_project_intersection_against_grid_filter_oracle():
    ball = geo.Ball(np.array([1.0, 0.0]), 1.0)
    rect = geo.Polytope(np.array([[0.0, -1.0], [0.0, 1.0], [2.0, 1.0],
                                  [2.0, -1.0]]))
    x = np.array([-1.0, 2.0])
    res = geo.project_intersection(x, geo.BallCapPolytope(ball, rect))
    # oracle: 1e-3 grid of the rectangle filtered by ball membership
    xs = np.arange(0.0, 2.0 + 1e-3, 1e-3)
    ys = np.arange(-1.0, 1.0 + 1e-3, 1e-3)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    inside = np.linalg.norm(pts - ball.center, axis=1) <= ball.radius
    cand = pts[inside]
    best = cand[np.argmin(np.linalg.norm(cand - x, axis=1))]
    assert np.linalg.norm(res.point - best) <= 2e-3


def test_project_intersection_where_alternating_projections_stalled():
    # slater battery seed 7, trial 128: P_H(x) lies 0.194 inside the ball,
    # so it is the projection; an alternating-projection method that stops
    # after one cycle without movement returned a point 7.16567 from x
    rng = suites._rng(7, 5128)
    center = rng.normal(size=3)
    radius = float(rng.uniform(0.8, 2.0))
    x0 = center + rng.normal(size=3) * 0.1
    rho = float(rng.uniform(0.1, 0.3))
    x0 = geo.project_ball(x0, center, max(radius - rho - 1e-6, 1e-3))
    simplex = x0 + 0.5 * np.vstack([np.eye(3), -np.ones((1, 3))])
    extra = x0 + rng.normal(size=(3, 3)) * rng.uniform(0.5, 2.0)
    poly = geo.Polytope(np.vstack([simplex, extra]))
    x = rng.normal(size=3) * 4.0
    res = geo.project_intersection(x, geo.BallCapPolytope(
        geo.Ball(center, radius), poly))
    hull_point = geo.project_polytope(x, poly)
    assert np.linalg.norm(res.point - hull_point) <= 1e-10
    assert np.linalg.norm(res.point - x) == pytest.approx(7.11867, abs=1e-5)


def _check_cap_kkt(x, ball, project_h, members):
    """Runs `_project_cap` and checks its KKT certificate row by row.

    `project_h(q, rows)` returns (points, hull gaps or None); every row's
    last query q must be (1 - t) x + t c, the returned point its certified
    projection, and the point must satisfy the ball constraint (with
    equality when t > 0) and the variational inequality over `members`.
    Returns the multipliers t.
    """
    c, r = ball.center, ball.radius
    tol = 1e-12 * (1.0 + r)
    last_q = np.full_like(x, np.nan)

    def recording(q, rows):
        points, gaps = project_h(q, rows)
        last_q[rows] = q
        if gaps is not None:
            assert np.all(gaps <= 1e-12 * (1.0 + np.linalg.norm(q, axis=1)))
        return points

    y = geo._project_cap(x, ball, recording)
    t = np.einsum("md,md->m", last_q - x, c - x) / np.sum((c - x) ** 2, axis=1)
    assert np.abs(last_q - (x + t[:, None] * (c - x))).max() <= 1e-12
    assert np.all((t >= 0.0) & (t <= 1.0))
    dist = np.linalg.norm(y - c, axis=1)
    assert np.all(dist <= r + tol)
    assert np.all(np.abs(dist[t > 0.0] - r) <= tol)
    assert members.shape[0] > 0
    inner = np.einsum("md,mkd->mk", x - y, members[None] - y[:, None, :])
    assert inner.max() <= 1e-9
    return t


@pytest.mark.parametrize("dim", [2, 3])
def test_project_cap_kkt_certificate_on_hulls(dim):
    rng = np.random.default_rng(300 + dim)
    m = 40
    multipliers = []
    for _ in range(6):
        vertices = rng.normal(size=(int(rng.integers(dim + 1, 9)), dim)) * 1.5
        poly = geo.Polytope(vertices)
        c = rng.normal(size=dim)
        r = geo.distance_to(c, poly) + rng.uniform(0.4, 1.2)
        x = c + rng.normal(size=(m, dim)) * 3.0
        hull = geo.HullProjector(np.broadcast_to(vertices,
                                                 (m,) + vertices.shape))
        # members: hull vertices inside the ball, ball points inside the hull
        ball_points = c + r * rng.uniform(size=(1000, 1)) ** (1.0 / dim) \
            * sphere_points(1000, dim)
        in_hull = geo._distance_rows(ball_points, poly) <= 1e-12
        in_ball = np.linalg.norm(vertices - c, axis=1) <= r
        members = np.vstack([vertices[in_ball], ball_points[in_hull]])
        multipliers.append(_check_cap_kkt(
            x, geo.Ball(c, r), lambda q, rows: hull.project(q, rows=rows),
            members))
    t = np.concatenate(multipliers)
    assert np.any(t == 0.0) and np.any(t > 0.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_project_cap_kkt_certificate_on_ball_lens(dim):
    rng = np.random.default_rng(310 + dim)
    multipliers = []
    for _ in range(6):
        a = geo.Ball(rng.normal(size=dim), float(rng.uniform(0.5, 1.5)))
        rb = float(rng.uniform(0.5, 1.5))
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        b_center = a.center + direction * rng.uniform(0.2, 0.95) \
            * (a.radius + rb)
        x = a.center + rng.normal(size=(40, dim)) * 3.0
        points = a.center + a.radius * rng.uniform(size=(400, 1)) \
            ** (1.0 / dim) * sphere_points(400, dim)
        members = points[np.linalg.norm(points - b_center, axis=1) <= rb]
        multipliers.append(_check_cap_kkt(
            x, a, lambda q, rows: (geo.project_balls(q, b_center, rb), None),
            members))
    t = np.concatenate(multipliers)
    assert np.any(t == 0.0) and np.any(t > 0.0)


def test_project_intersection_tangent_pair_returns_touching_point():
    # dist(c, H) = r: the intersection is the single point P_H(c) = (1, 0)
    square = np.array([[1.0, -1.0], [2.0, -1.0], [2.0, 1.0], [1.0, 1.0]])
    body = geo.BallCapPolytope(geo.Ball(np.zeros(2), 1.0),
                               geo.Polytope(square))
    x = np.array([[0.0, 3.0], [-2.0, 0.0], [3.0, 0.5]])
    for row in x:
        res = geo.project_intersection(row, body)
        assert np.allclose(res.point, [1.0, 0.0], atol=1e-12)
        assert res.ball_residual <= 1e-12
    hull = geo.HullProjector(np.broadcast_to(square, (3, 4, 2)))
    t = _check_cap_kkt(x, body.ball,
                       lambda q, rows: hull.project(q, rows=rows),
                       np.array([[1.0, 0.0]]))
    assert np.array_equal(t, [1.0, 0.0, 1.0])


def test_project_intersection_step_budget_exhaustion_reports(monkeypatch):
    body = geo.BallCapPolytope(
        geo.Ball(np.array([1.0, 0.0]), 1.0),
        geo.Polytope(np.array([[0.0, -1.0], [0.0, 1.0], [2.0, 1.0],
                               [2.0, -1.0]])))
    monkeypatch.setattr(geo, "PROJECTION_BUDGET", 1)
    with pytest.raises(geo.ProjectionDidNotConverge) as err:
        geo.project_intersection(np.array([-1.0, 2.0]), body)
    assert np.isfinite(err.value.residual) and err.value.residual > 0.0

def test_project_intersection_near_empty_pair_reports_ball_residual():
    # the segment misses the unit ball by 5e-9 < FEASIBILITY_TOL
    body = geo.BallCapPolytope(
        geo.Ball(np.zeros(2), 1.0),
        geo.Polytope(np.array([[1.0 + 5e-9, -1.0], [1.0 + 5e-9, 1.0]])))
    res = geo.project_intersection(np.array([0.0, 3.0]), body)
    assert np.allclose(res.point, [1.0 + 5e-9, 0.0], atol=1e-15)
    assert res.ball_residual == pytest.approx(5e-9, rel=1e-6)

def test_empty_intersection_rejected():
    with pytest.raises(geo.EmptyIntersection):
        geo.BallCapPolytope(geo.Ball(np.array([0.0, 0.0]), 0.5),
                            geo.Polytope(np.array([[2.0, 0.0], [3.0, 0.0]])))


# ---------------------------------------------------------------------------
# Hausdorff distances


def test_directed_hausdorff_self_within_slack():
    ball = geo.Ball(np.array([0.5, -0.2]), 1.3)
    bracket = geo.directed_hausdorff(ball, ball, resolution=512)
    assert bracket.lower <= 1e-12
    assert bracket.upper <= 2.0 * np.pi * 1.3 / 512 + 1e-12


def test_directed_hausdorff_concentric_balls_exact():
    big = geo.Ball(np.array([0.0, 0.0]), 2.0)
    small = geo.Ball(np.array([0.0, 0.0]), 1.0)
    bracket = geo.directed_hausdorff(big, small)
    assert bracket.lower == bracket.upper == pytest.approx(1.0)


def test_directed_hausdorff_vertex_attained():
    seg = geo.Polytope(np.array([[0.0, 0.0], [1.0, 0.0]]))
    ball = geo.Ball(np.array([0.0, 0.0]), 0.25)
    bracket = geo.directed_hausdorff(seg, ball)
    assert bracket.lower == bracket.upper == pytest.approx(0.75)


def test_directed_hausdorff_refuses_sampled_source_in_3d():
    # the far point u of the ball is the worst-covered direction of the
    # 256-point Halton sphere sample: covering angle 0.268 rad, against the
    # 2 pi / 256 = 0.0245 the slack assumes
    u = np.array([-0.785, 0.599, -0.156])
    u /= np.linalg.norm(u)
    ball = geo.Ball(np.zeros(3), 1.0)
    vertex = geo.Polytope(-100.0 * u[None, :])
    sampled = np.linalg.norm(sphere_points(256, 3) + 100.0 * u, axis=1).max()
    assert sampled + 2.0 * np.pi / 256 < 101.0  # the true sup
    with pytest.raises(geo.GeometryError):
        geo.directed_hausdorff(ball, vertex)
    cap = geo.BallCapPolytope(ball, geo.Polytope(np.vstack([np.eye(3),
                                                            -np.eye(3)])))
    with pytest.raises(geo.GeometryError):
        geo.hausdorff_distance(cap, vertex)
    exact = geo.directed_hausdorff(vertex, ball)
    assert exact.lower == exact.upper == pytest.approx(99.0)
    ball_to_ball = geo.directed_hausdorff(ball, geo.Ball(-100.0 * u, 0.5))
    assert ball_to_ball.lower == ball_to_ball.upper == pytest.approx(100.5)


def test_hausdorff_balls_closed_form(rng):
    for _ in range(25):
        c1, c2 = rng.normal(size=2), rng.normal(size=2)
        r1, r2 = rng.uniform(0.1, 2.0, size=2)
        got = geo.hausdorff_distance(geo.Ball(c1, r1), geo.Ball(c2, r2))
        expected = np.linalg.norm(c1 - c2) + abs(r1 - r2)
        if np.linalg.norm(c1 - c2) >= abs(r1 - r2):
            assert got.upper == pytest.approx(expected, abs=1e-12)


def test_hausdorff_shifted_squares():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    a = geo.Polytope(square)
    b = geo.Polytope(square + np.array([1.0, 0.0]))
    bracket = geo.hausdorff_distance(a, b)
    assert bracket.lower == pytest.approx(1.0, abs=1e-10)
    assert bracket.upper == pytest.approx(1.0, abs=1e-10)


def test_hausdorff_random_polytopes_against_boundary_sampling(rng):
    for _ in range(5):
        pts_a = rng.normal(size=(5, 2))
        pts_b = rng.normal(size=(5, 2)) + rng.normal(size=2) * 0.5
        got = geo.hausdorff_distance(geo.Polytope(pts_a), geo.Polytope(pts_b))
        hull_a = monotone_chain(pts_a)
        hull_b = monotone_chain(pts_b)
        samples_a = polygon_boundary_sample(hull_a, 1e-3)
        samples_b = polygon_boundary_sample(hull_b, 1e-3)
        d_ab = polygon_distances(samples_a, hull_b).max()
        d_ba = polygon_distances(samples_b, hull_a).max()
        oracle = max(d_ab, d_ba)
        assert got.upper == pytest.approx(oracle, abs=2e-3)


# ---------------------------------------------------------------------------
# projection difference check


def test_projection_difference_identical_sets():
    body = geo.Ball(np.array([0.2, 0.1]), 0.7)
    chk = geo.projection_difference_check(np.array([2.0, 1.0]), body, body, 2.0)
    assert chk.lhs <= 1e-12 and chk.passed


def test_projection_difference_closed_form_balls():
    chk = geo.projection_difference_check(
        np.array([2.0, 0.0]), geo.Ball(np.array([0.0, 0.0]), 1.0),
        geo.Ball(np.array([0.0, 0.0]), 0.5), 1.0)
    assert chk.lhs == pytest.approx(0.5)
    assert chk.rhs == pytest.approx(math.sqrt(5.0))
    assert chk.passed


def test_projection_difference_requires_containment():
    with pytest.raises(geo.GeometryError):
        geo.projection_difference_check(
            np.zeros(2), geo.Ball(np.array([5.0, 0.0]), 1.0),
            geo.Ball(np.zeros(2), 0.5), 2.0)


# ---------------------------------------------------------------------------
# interior-witness intersection bound


def test_slater_check_zero_distance_inside():
    a = geo.Ball(np.array([0.0, 0.0]), 1.0)
    b = geo.Ball(np.array([0.5, 0.0]), 1.0)
    chk = geo.slater_intersection_check(np.array([0.4, 0.1]), a, b,
                                        np.array([0.25, 0.0]), 0.2)
    assert chk.lhs <= 1e-8 and chk.passed


def test_slater_check_two_balls_analytic():
    a = geo.Ball(np.array([0.0, 0.0]), 1.0)
    b = geo.Ball(np.array([1.0, 0.0]), 1.0)
    x = np.array([2.0, 2.0])
    chk = geo.slater_intersection_check(x, a, b, np.array([0.5, 0.0]), 0.4)
    # oracle: dense sweep over the lens
    th = np.linspace(0.0, 2.0 * np.pi, 4001)
    rr = np.linspace(0.0, 1.0, 400)
    pts = np.stack([(rr[:, None] * np.cos(th)[None, :]).ravel(),
                    (rr[:, None] * np.sin(th)[None, :]).ravel()], axis=1)
    inside = (np.linalg.norm(pts, axis=1) <= 1.0) \
        & (np.linalg.norm(pts - np.array([1.0, 0.0]), axis=1) <= 1.0)
    lens = pts[inside]
    oracle = np.linalg.norm(lens - x, axis=1).min()
    assert chk.lhs == pytest.approx(oracle, abs=5e-3)
    assert chk.passed


def test_slater_check_rejects_bad_witness():
    a = geo.Ball(np.array([0.0, 0.0]), 1.0)
    b = geo.Ball(np.array([1.0, 0.0]), 1.0)
    # inner ball pokes out of the second body
    with pytest.raises(geo.SlaterViolation):
        geo.slater_intersection_check(np.zeros(2), a, b,
                                      np.array([0.5, 0.0]), 0.8)
    # witness not in the intersection at all
    with pytest.raises(geo.SlaterViolation):
        geo.slater_intersection_check(np.zeros(2), a, b,
                                      np.array([2.5, 0.0]), 0.1)



def test_slater_check_refuses_two_polytopes():
    a = geo.Polytope(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
    b = geo.Polytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) + 0.1)
    with pytest.raises(geo.GeometryError):
        geo.slater_intersection_check(np.array([3.0, 3.0]), a, b,
                                      np.array([0.4, 0.4]), 0.05)

# ---------------------------------------------------------------------------
# intersection continuity probe


def test_intersection_continuity_constant_family_within_slack():
    square = geo.Polytope(np.array([[-0.5, -0.5], [0.5, -0.5],
                                    [0.5, 0.5], [-0.5, 0.5]]))
    c = np.zeros(2)
    res = geo.intersection_continuity_probe(
        [c, c, c], [square, square, square], 1.0, c, square, resolution=512)
    slack = 2.0 * np.pi / 512
    assert res.hypothesis_ok and not res.empty_indices
    assert all(v <= 2.0 * slack + 1e-9 for v in res.values)


def test_intersection_continuity_shifted_squares_converges():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) - 0.5
    ns = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    c_seq = [np.array([1.0 / n, 0.0]) for n in ns]
    b_seq = [geo.Polytope(square + np.array([1.0 / n, 0.0])) for n in ns]
    res = geo.intersection_continuity_probe(
        c_seq, b_seq, 1.0, np.zeros(2), geo.Polytope(square), resolution=10_000)
    assert res.hypothesis_ok and not res.empty_indices
    diffs = np.diff(res.values)
    assert np.all(diffs <= 1e-9)
    # recorded from this family: values drop below 1e-2 from n = 256 on
    assert all(v <= 1e-2 for n, v in zip(ns, res.values) if n >= 256)


def test_intersection_continuity_tangency_is_flagged_not_asserted():
    # the witness ball only touches the square: open-ball hypothesis fails
    square = geo.Polytope(np.array([[1.0, -1.0], [2.0, -1.0],
                                    [2.0, 1.0], [1.0, 1.0]]))
    ns = [2, 4, 8]
    res = geo.intersection_continuity_probe(
        [np.zeros(2)] * len(ns), [square] * len(ns), 1.0, np.zeros(2),
        square, resolution=64)
    assert not res.hypothesis_ok
    assert len(res.values) == len(ns)


# ---------------------------------------------------------------------------
# diameters


def test_union_diameter_balls():
    a = geo.Ball(np.array([0.0, 0.0]), 1.0)
    b = geo.Ball(np.array([3.0, 0.0]), 0.5)
    assert geo.union_diameter_upper(a, b) == pytest.approx(4.5)


def test_union_diameter_polytopes_exact(rng):
    pts_a = rng.normal(size=(6, 3))
    pts_b = rng.normal(size=(5, 3))
    d = geo.union_diameter_upper(geo.Polytope(pts_a), geo.Polytope(pts_b))
    allpts = np.vstack([pts_a, pts_b])
    diff = allpts[:, None, :] - allpts[None, :, :]
    assert d == pytest.approx(np.sqrt((diff ** 2).sum(-1)).max())
