"""Convex bodies: projections, Hausdorff distances, and the lemma checks."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoinc import cli
from evoinc import geometry as geo
from evoinc import suites

from conftest import (monotone_chain, point_segment_distance,
                      polygon_boundary_sample, polygon_distances)


# ---------------------------------------------------------------------------
# ball projection


def _ball(c, r):
    return geo.Ball(np.asarray(c, dtype=float), r)


def test_project_ball_radial():
    p = geo.project(np.array([2.0, 0.0]), _ball([0.0, 0.0], 1.0))
    assert np.allclose(p, [1.0, 0.0])


def test_project_ball_inside_is_identity():
    x = np.array([0.3, 0.1])
    p = geo.project(x, _ball([0.0, 0.0], 1.0))
    assert np.array_equal(p, x)


def test_project_ball_scales_direction():
    p = geo.project(np.array([3.0, 4.0]), _ball([0.0, 0.0], 1.0))
    assert np.allclose(p, [0.6, 0.8])


def test_project_ball_dimension_mismatch():
    with pytest.raises(geo.DimensionMismatch):
        geo.project(np.array([1.0, 2.0, 3.0]), _ball([0.0, 0.0], 1.0))
    with pytest.raises(geo.DimensionMismatch):
        geo.project(np.zeros((2, 3)), geo.Polytope(np.eye(2)))


def test_project_ball_rejects_negative_radius():
    with pytest.raises(geo.GeometryError):
        geo.project(np.zeros(2), _ball([0.0, 0.0], -1.0))


def test_project_takes_a_point_or_rows():
    square = geo.Polytope(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                    [0.0, 1.0]]))
    x = np.array([[2.0, 0.5], [0.5, 0.5], [-1.0, -1.0]])
    for body in (square, _ball([0.5, 0.5], 0.5)):
        rows = geo.project(x, body)
        assert rows.shape == x.shape
        for point, row in zip(x, rows):
            assert np.allclose(geo.project(point, body), row, atol=1e-12)
    assert np.allclose(geo.project(x, square), np.clip(x, 0.0, 1.0),
                       atol=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_ball_projection_variational_inequality(trial):
    rng = np.random.default_rng(trial)
    dim = int(rng.integers(1, 5))
    c = rng.normal(size=dim)
    r = float(rng.uniform(0.1, 3.0))
    x = rng.normal(size=dim) * 4.0
    p = geo.project(x, geo.Ball(c, r))
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
    px = geo.project(x, body)
    py = geo.project(y, body)
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-8


# ---------------------------------------------------------------------------
# polytope projection


def test_project_segment_foot_of_perpendicular():
    seg = geo.Polytope(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    p = geo.project(np.array([0.0, 2.0]), seg)
    assert np.allclose(p, [0.0, 0.0], atol=1e-12)


def test_project_polytope_vertex_identity():
    poly = geo.Polytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    p = geo.project(np.array([1.0, 0.0]), poly)
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
    p = geo.project(x, geo.Polytope(vertices))
    oracle = _simplex_grid_search(vertices, x, 1e-4)
    assert np.linalg.norm(p - oracle) <= 2e-4
    # frozen value: foot of the perpendicular onto the hypotenuse
    assert np.allclose(p, [0.4, 0.6], atol=1e-10)


def test_project_polytope_certificate_over_vertices(rng):
    for _ in range(50):
        dim = int(rng.integers(2, 4))
        vertices = rng.normal(size=(int(rng.integers(2, 9)), dim))
        x = rng.normal(size=dim) * 3.0
        p = geo.project(x, geo.Polytope(vertices))
        gaps = (vertices - p) @ (x - p)
        assert gaps.max() <= 1e-12 * (1.0 + np.linalg.norm(x)) + 1e-15


def test_project_polytope_on_cube_faces_matches_clip():
    # queries on a face leave corral members with weight exactly zero; the
    # projector must drop them instead of stalling on the next major cycle
    cube = geo.Polytope(np.array([[a, b, c] for a in (-0.5, 0.5)
                                  for b in (-0.5, 0.5) for c in (-0.5, 0.5)]))
    on_face = np.array([0.5, 0.2, 0.1])
    assert np.abs(geo.project(on_face, cube) - on_face).max() <= 1e-12
    rng = np.random.default_rng(41)
    x = rng.uniform(-0.5, 0.5, size=(400, 3))
    x[np.arange(400), rng.integers(0, 3, size=400)] = rng.choice([-0.5, 0.5],
                                                                 size=400)
    x[1::2] += rng.normal(size=(200, 3))  # half of them moved off the face
    p = geo.HullProjector(np.broadcast_to(cube.vertices, (400, 8, 3))) \
        .project(x)
    assert np.abs(p - np.clip(x, -0.5, 0.5)).max() <= 1e-12


def test_project_polytope_budget_exhaustion_reports(monkeypatch):
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # the projection (0.4, 0.6) lies inside the hypotenuse: the cold start
    # at the nearest vertex (0, 1) fails the certificate, so one major cycle
    # cannot certify it and a second one does
    x = np.array([[0.7, 0.9]])
    monkeypatch.setattr(geo, "PROJECTION_BUDGET", 1)
    with pytest.raises(geo.ProjectionDidNotConverge) as err:
        geo.HullProjector(triangle).project(x)
    assert np.isfinite(err.value.residual) and err.value.residual > 0.0
    monkeypatch.setattr(geo, "PROJECTION_BUDGET", 2)
    p = geo.HullProjector(triangle).project(x)
    assert np.allclose(p, [[0.4, 0.6]], atol=1e-12)
    gaps, bound = _certificate(triangle[None], x, p)
    assert gaps[0] <= bound[0]


def test_projection_did_not_converge_pickles_with_its_residual():
    exc = geo.ProjectionDidNotConverge("x", 1.0)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is geo.ProjectionDidNotConverge
    assert str(back) == str(exc) == "x (residual 1.000e+00)"
    assert back.residual == 1.0


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
    p = geo.HullProjector(REPEATED_VERTEX_HULL).project(x)
    gaps, bound = _certificate(REPEATED_VERTEX_HULL[None], x[None], p)
    assert gaps[0] <= bound[0]
    # the padding copies change nothing: same point as the distinct vertices
    alone = geo.project(x, geo.Polytope(REPEATED_VERTEX_HULL[:6]))
    assert np.linalg.norm(p[0] - alone) <= 1e-10


def test_minor_cycles_split_weight_over_repeated_vertex(monkeypatch):
    # a corral that holds both copies of a vertex makes its system
    # singular; the least-norm solve splits the weight between the copies
    pinv_calls = []
    pinv = np.linalg.pinv

    def counting(a):
        pinv_calls.append(a.shape)
        return pinv(a)

    monkeypatch.setattr(np.linalg, "pinv", counting)
    vertices = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    x = np.array([[0.7, 0.9]])
    lam = np.array([[0.0, 0.25, 0.25, 0.5]])
    corral = lam > 0.0
    geo._minor_cycles(vertices, x, corral, lam)
    assert pinv_calls
    assert np.array_equal(corral, [[False, True, True, True]])
    assert lam[0] == pytest.approx([0.0, 0.2, 0.2, 0.6], abs=1e-15)
    p = lam @ vertices[0]
    assert np.allclose(p, [[0.4, 0.6]], atol=1e-15)
    gaps, bound = _certificate(vertices, x, p)
    assert gaps[0] <= bound[0]


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

    batch = geo.HullProjector(vertices).project(x)
    rows = np.vstack([geo.HullProjector(vertices[i]).project(x[i])
                      for i in range(m)])
    assert np.abs(batch - rows).max() <= 1e-10
    gaps, bound = _certificate(vertices, x, batch)
    assert np.all(gaps <= bound)


def test_hull_projector_is_stateless():
    # a second call on the same projector and a row subset through a fresh
    # projector give the bits of one full call
    rng = np.random.default_rng(105)
    vertices = rng.normal(size=(30, 7, 3))
    x = rng.normal(size=(30, 3)) * 3.0
    projector = geo.HullProjector(vertices)
    full = projector.project(x)
    assert np.array_equal(projector.project(x), full)
    rows = np.array([2, 5, 11, 29])
    subset = geo.HullProjector(vertices[rows]).project(x[rows])
    assert np.array_equal(subset, full[rows])
    assert vars(projector).keys() == {"v"}


def test_hull_projector_certifies_far_hulls():
    # vertices near 100, queries near 0: <x - p, v - p> is rounded at about
    # eps ||x - p|| ||v - p||, above tol (1 + ||x||) without the reach factor
    for i in range(80):
        rng = np.random.default_rng([97, i])
        vertices = 100.0 + 10.0 * rng.normal(size=(20, 8, 3))
        x = 0.01 * rng.normal(size=(20, 3))
        p = geo.HullProjector(vertices).project(x)
        gaps, _ = _certificate(vertices, x, p)
        reach = np.linalg.norm(vertices - x[:, None, :], axis=2).max(axis=1)
        bound = 1e-12 * (1.0 + np.linalg.norm(x, axis=1)) \
            * np.maximum(reach, 1.0)
        assert np.all(gaps <= bound)


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_minor_cycles_leave_one_vertex_corrals_unchanged(dim):
    # the cold start of `HullProjector.project` skips its first minor cycle
    # on this invariant: one vertex at weight 1.0 is its own affine minimizer
    rng = np.random.default_rng(200 + dim)
    m, n = 50, 7
    v = rng.normal(size=(m, n, dim)) * rng.uniform(0.1, 100.0, size=(m, 1, 1))
    x = rng.normal(size=(m, dim)) * rng.uniform(0.1, 100.0, size=(m, 1))
    lam = np.zeros((m, n))
    lam[np.arange(m), rng.integers(0, n, size=m)] = 1.0
    corral = lam > 0.0
    lam_before, corral_before = lam.copy(), corral.copy()
    geo._minor_cycles(v, x, corral, lam)
    assert np.array_equal(lam, lam_before)
    assert np.array_equal(corral, corral_before)


@pytest.mark.parametrize("d", [1, 2, 8])
def test_segment_projection_matches_closed_distance_and_wolfe(d):
    rng = np.random.default_rng(90 + d)
    m = 300
    stack = rng.normal(size=(m, 2, d))
    x = 2.0 * rng.normal(size=(m, d))
    p = geo.HullProjector(stack).project(x)
    expected = [point_segment_distance(x[i], stack[i, 0], stack[i, 1])
                for i in range(m)]
    assert np.allclose(np.linalg.norm(x - p, axis=1), expected,
                       rtol=0.0, atol=1e-14)
    # padding with a repeated vertex leaves every segment unchanged
    padded = np.concatenate([stack, stack[:, 1:]], axis=1)
    wolfe = geo.HullProjector(padded).project(x)
    assert np.abs(p - wolfe).max() <= 1e-14


def test_segment_projection_degenerate_and_on_segment():
    a = np.array([1.0, -2.0, 0.5])
    b = np.array([3.0, 1.0, -0.5])
    stack = np.stack([np.stack([a, a]), np.stack([a, b])])
    on_segment = a + 0.3 * (b - a)
    x = np.stack([np.array([4.0, 0.0, 1.0]), on_segment])
    p = geo.HullProjector(stack).project(x)
    gaps, _ = _certificate(stack, x, p)
    # a == b: the point is the vertex
    assert np.array_equal(p[0], a)
    assert gaps[0] == 0.0
    # a query on the segment is its own projection
    assert np.abs(p[1] - on_segment).max() <= 1e-15
    assert abs(gaps[1]) <= 1e-14


def test_segment_projection_raises_without_certificate(monkeypatch):
    # a bound no gap can meet
    monkeypatch.setattr(geo, "PROJECTION_TOL", -1.0)
    segment = np.array([[0.0, 0.0], [2.0, 0.0]])
    with pytest.raises(geo.ProjectionDidNotConverge):
        geo.HullProjector(segment).project(np.array([0.5, 1.0]))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_one_vertex_hull_projects_to_its_vertex_bit_for_bit(dim):
    # the general path starts at the only vertex with weight 1.0, finds
    # gap 0 and retires the row in its first major cycle
    rng = np.random.default_rng([34, dim])
    vertices = rng.normal(size=(50, 1, dim)) * 10.0 ** rng.uniform(
        -3.0, 3.0, size=(50, 1, 1))
    x = rng.normal(size=(50, dim)) * 10.0 ** rng.uniform(-3.0, 3.0,
                                                        size=(50, 1))
    p = geo.HullProjector(vertices).project(x)
    assert p.tobytes() == vertices[:, 0, :].tobytes()


@pytest.mark.parametrize("query", [[math.nan, 0.0], [math.inf, 0.0],
                                   [0.0, -math.inf]])
def test_hull_projection_of_non_finite_query_raises(query):
    # one rule on every route: a hull of two vertices used to return NaN
    # points with NaN gaps, a one-vertex hull the vertex with gap 0, and a
    # ball NaN rows, none of which a `gaps > bound` test catches
    x = np.array(query)
    segment = np.array([[0.0, 0.0], [2.0, 0.0]])
    routes = (lambda: geo.HullProjector(segment).project(x),
              lambda: geo.HullProjector(segment[:1]).project(x),
              lambda: geo.project(x, geo.Polytope(segment[:1])),
              lambda: geo.project_balls(x, np.zeros(2), 1.0),
              lambda: geo.project(x, _ball([0.0, 0.0], 1.0)))
    for route in routes:
        with pytest.raises(geo.ProjectionDidNotConverge) as exc:
            route()
        assert math.isnan(exc.value.residual)


# ---------------------------------------------------------------------------
# intersection projection


def _cap_point(x, ball, poly):
    """Projection of the point x onto ball cap poly by `_project_cap`."""
    x = np.asarray(x, dtype=float)[None, :]
    y, _ = geo._project_cap(x, ball.center, ball.radius,
                            poly.vertices[None])
    return y[0]


def _ball_excess(y, ball):
    """||y - c|| - r: how far y lies outside the ball."""
    return float(np.linalg.norm(y - ball.center)) - ball.radius


def test_project_intersection_symmetric_case():
    ball = geo.Ball(np.array([0.0, 0.0]), 1.0)
    y = _cap_point([0.0, 3.0], ball,
                   geo.Polytope(np.array([[-2.0, 0.0], [2.0, 0.0]])))
    assert np.allclose(y, [0.0, 0.0], atol=1e-9)
    assert _ball_excess(y, ball) <= 1e-9


def test_project_intersection_member_identity():
    x = np.array([0.3, 0.2])
    y = _cap_point(x, geo.Ball(np.array([0.0, 0.0]), 1.0),
                   geo.Polytope(np.array([[-2.0, -1.0], [2.0, -1.0],
                                          [2.0, 1.0], [-2.0, 1.0]])))
    assert np.linalg.norm(y - x) <= 1e-9


def test_project_intersection_against_grid_filter_oracle():
    ball = geo.Ball(np.array([1.0, 0.0]), 1.0)
    rect = geo.Polytope(np.array([[0.0, -1.0], [0.0, 1.0], [2.0, 1.0],
                                  [2.0, -1.0]]))
    x = np.array([-1.0, 2.0])
    y = _cap_point(x, ball, rect)
    # oracle: 1e-3 grid of the rectangle filtered by ball membership
    xs = np.arange(0.0, 2.0 + 1e-3, 1e-3)
    ys = np.arange(-1.0, 1.0 + 1e-3, 1e-3)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    inside = np.linalg.norm(pts - ball.center, axis=1) <= ball.radius
    cand = pts[inside]
    best = cand[np.argmin(np.linalg.norm(cand - x, axis=1))]
    assert np.linalg.norm(y - best) <= 2e-3


def _slater_trial(trial):
    """(x, ball, polytope, x0, rho) of `suites.slater_battery` at seed 7."""
    xs, polys, balls, x0s, rhos = suites._slater_rows(7, trial + 1)
    return xs[trial], balls[trial], polys[trial], x0s[trial], rhos[trial]


def test_project_intersection_where_alternating_projections_stalled():
    # slater battery seed 7, trial 128: P_H(x) lies 0.194 inside the ball,
    # so it is the projection; an alternating-projection method that stops
    # after one cycle without movement returned a point 7.16567 from x
    x, ball, poly, _, _ = _slater_trial(128)
    y = _cap_point(x, ball, poly)
    hull_point = geo.project(x, poly)
    assert np.linalg.norm(y - hull_point) <= 1e-10
    assert np.linalg.norm(y - x) == pytest.approx(7.11867, abs=1e-5)


def _unit_rows(seed, count, dim):
    """count seeded directions, uniform on the unit sphere of R^dim."""
    g = np.random.default_rng(seed).normal(size=(count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


class _TakenRows:
    """A vertex stack that records the rows taken from it."""

    def __init__(self, stack):
        self.stack, self.taken = stack, []

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.stack, dtype=dtype)

    def __getitem__(self, rows):
        self.taken.append(rows)
        return self.stack[rows]


def _check_cap_kkt(x, ball, stack, members):
    """Runs `_project_cap` on the vertex stack and checks its KKT
    certificate row by row.

    Every row's last query q must be (1 - t) x + t c, the returned point
    its certified projection, and the point must satisfy the ball
    constraint (with equality when t > 0) and the variational inequality
    over `members`. The second return value must be the first call's
    projections of x. The first call projects every row, each later one
    the rows that the search took from the stack just before it. Returns
    the multipliers t.
    """
    c, r = ball.center, ball.radius
    tol = 1e-12 * (1.0 + r)
    last_q = np.full_like(x, np.nan)
    calls = []
    stack = _TakenRows(stack)
    project = geo.HullProjector.project

    def recording(self, q):
        points = project(self, q)
        rows = stack.taken[len(calls) - 1] if calls else slice(None)
        last_q[rows] = q
        gaps, bound = _certificate(self.v, q, points)
        assert np.all(gaps <= bound)
        calls.append(points.copy())
        return points

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geo.HullProjector, "project", recording)
        y, x_on_h = geo._project_cap(x, c, r, stack)
    assert len(stack.taken) == len(calls) - 1
    assert np.array_equal(x_on_h, calls[0])
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
        r = np.linalg.norm(c - geo.project(c, poly)) \
            + rng.uniform(0.4, 1.2)
        x = c + rng.normal(size=(m, dim)) * 3.0
        stack = np.broadcast_to(vertices, (m,) + vertices.shape)
        # members: hull vertices inside the ball, ball points inside the hull
        ball_points = c + r * rng.uniform(size=(1000, 1)) ** (1.0 / dim) \
            * _unit_rows(320 + dim, 1000, dim)
        off_hull = ball_points - geo.project(ball_points, poly)
        in_hull = np.linalg.norm(off_hull, axis=1) <= 1e-12
        in_ball = np.linalg.norm(vertices - c, axis=1) <= r
        members = np.vstack([vertices[in_ball], ball_points[in_hull]])
        multipliers.append(_check_cap_kkt(x, geo.Ball(c, r), stack,
                                          members))
    t = np.concatenate(multipliers)
    assert np.any(t == 0.0) and np.any(t > 0.0)


def test_project_intersection_tangent_pair_returns_touching_point():
    # dist(c, H) = r: the intersection is the single point P_H(c) = (1, 0)
    square = np.array([[1.0, -1.0], [2.0, -1.0], [2.0, 1.0], [1.0, 1.0]])
    ball = geo.Ball(np.zeros(2), 1.0)
    x = np.array([[0.0, 3.0], [-2.0, 0.0], [3.0, 0.5]])
    for row in x:
        y = _cap_point(row, ball, geo.Polytope(square))
        assert np.allclose(y, [1.0, 0.0], atol=1e-12)
        assert _ball_excess(y, ball) <= 1e-12
    t = _check_cap_kkt(x, ball, np.broadcast_to(square, (3, 4, 2)),
                       np.array([[1.0, 0.0]]))
    assert np.array_equal(t, [1.0, 0.0, 1.0])


def test_project_intersection_step_budget_exhaustion_reports(monkeypatch):
    monkeypatch.setattr(geo, "PROJECTION_BUDGET", 1)
    with pytest.raises(geo.ProjectionDidNotConverge) as err:
        _cap_point([-1.0, 2.0], geo.Ball(np.array([1.0, 0.0]), 1.0),
                   geo.Polytope(np.array([[0.0, -1.0], [0.0, 1.0],
                                          [2.0, 1.0], [2.0, -1.0]])))
    assert np.isfinite(err.value.residual) and err.value.residual > 0.0


def test_project_intersection_near_empty_pair_reports_ball_residual():
    # the segment misses the unit ball by 5e-9 < FEASIBILITY_TOL
    ball = geo.Ball(np.zeros(2), 1.0)
    y = _cap_point([0.0, 3.0], ball, geo.Polytope(
        np.array([[1.0 + 5e-9, -1.0], [1.0 + 5e-9, 1.0]])))
    assert np.allclose(y, [1.0 + 5e-9, 0.0], atol=1e-15)
    assert _ball_excess(y, ball) == pytest.approx(5e-9, rel=1e-6)


# ---------------------------------------------------------------------------
# Hausdorff distances


def _hausdorff(a, b):
    """Exact Hausdorff distance of two vertex hulls, as one-row stacks."""
    return float(geo._pair_hausdorff(np.asarray(a, dtype=float)[None],
                                     np.asarray(b, dtype=float)[None])[0])


def test_hausdorff_shifted_squares():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    shifted = square + np.array([1.0, 0.0])
    assert _hausdorff(square, shifted) == pytest.approx(1.0, abs=1e-10)


def test_hausdorff_random_polytopes_against_boundary_sampling(rng):
    for _ in range(5):
        pts_a = rng.normal(size=(5, 2))
        pts_b = rng.normal(size=(5, 2)) + rng.normal(size=2) * 0.5
        got = _hausdorff(pts_a, pts_b)
        hull_a = monotone_chain(pts_a)
        hull_b = monotone_chain(pts_b)
        samples_a = polygon_boundary_sample(hull_a, 1e-3)
        samples_b = polygon_boundary_sample(hull_b, 1e-3)
        d_ab = polygon_distances(samples_a, hull_b).max()
        d_ba = polygon_distances(samples_b, hull_a).max()
        oracle = max(d_ab, d_ba)
        assert got == pytest.approx(oracle, abs=2e-3)


# ---------------------------------------------------------------------------
# projection difference check


def test_projection_difference_identical_sets():
    body = geo.Polytope(np.array([[0.2, 0.1], [0.9, 0.1], [0.2, 0.8]]))
    lhs, rhs = geo.projection_difference_check(np.array([2.0, 1.0]), [body],
                                               [body], 2.0)
    assert lhs[0] <= 1e-12 and lhs[0] <= rhs[0]


def test_projection_difference_closed_form_segments():
    c = geo.Polytope(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    d = geo.Polytope(np.array([[-0.5, 0.0], [0.5, 0.0]]))
    lhs, rhs = geo.projection_difference_check(np.array([[2.0, 0.0]]), [c], [d],
                                               1.0)
    assert lhs[0] == pytest.approx(0.5)
    assert rhs[0] == pytest.approx(math.sqrt(5.0))


def test_projection_difference_requires_containment():
    far = geo.Polytope(np.array([[4.0, 0.0], [6.0, 0.0]]))
    near = geo.Polytope(np.array([[-0.5, 0.0], [0.5, 0.0]]))
    for pair in ([far], [near]), ([near], [far]):
        with pytest.raises(geo.GeometryError):
            geo.projection_difference_check(np.zeros((1, 2)), *pair, 2.0)


# ---------------------------------------------------------------------------
# interior-witness intersection bound


def _slater_one(x, a, b, x0, rho):
    """`slater_intersection_check` on the single row (x, a, b, x0, rho),
    as scalar (lhs, rhs)."""
    lhs, rhs = geo.slater_intersection_check(
        np.asarray(x, dtype=float)[None, :], [a], [b],
        np.asarray(x0)[None, :], [rho])
    return float(lhs[0]), float(rhs[0])


def _square(half=1.0, centre=(0.0, 0.0)):
    """The square of half-width `half` (a scalar or one per axis) about
    `centre`."""
    return geo.Polytope(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0],
                                  [-1.0, 1.0]]) * half + np.asarray(centre))


def test_slater_check_zero_distance_inside():
    ball = geo.Ball(np.array([0.5, 0.0]), 1.0)
    lhs, rhs = _slater_one(np.array([0.4, 0.1]), _square(), ball,
                           np.array([0.25, 0.0]), 0.2)
    assert lhs <= 1e-8 and lhs <= rhs


def test_slater_check_rejects_bad_witness():
    ball = geo.Ball(np.array([1.0, 0.0]), 1.0)
    # inner ball pokes out of the ball
    with pytest.raises(geo.SlaterViolation, match="not contained"):
        _slater_one(np.zeros(2), _square(), ball, np.array([0.5, 0.0]), 0.8)
    # witness in the ball but not in the polytope
    with pytest.raises(geo.SlaterViolation, match="not in the polytope"):
        _slater_one(np.zeros(2), _square(), ball, np.array([1.5, 0.0]), 0.1)


@pytest.mark.parametrize("pair", ["polytope/ball"])
def test_slater_batch_matches_one_row_calls(pair):
    rows = suites._slater_rows(7, 100)
    single = np.array([_slater_one(*row) for row in zip(*rows)])
    lhs, rhs = geo.slater_intersection_check(*rows)
    assert np.all(lhs <= rhs + 1e-8)
    np.testing.assert_allclose(np.stack([lhs, rhs], axis=1), single,
                               rtol=1e-15, atol=0.0)


def test_slater_batch_names_first_failing_row():
    xs, polys, balls, x0s, rhos = suites._slater_rows(7, 10)
    lhs, rhs = geo.slater_intersection_check(xs, polys, balls, x0s, rhos)
    assert np.all(lhs <= rhs + 1e-8)
    far = x0s.copy()
    far[6] += 10.0
    with pytest.raises(geo.SlaterViolation,
                       match="row 6: witness point is not in"):
        geo.slater_intersection_check(xs, polys, balls, far, rhos)
    wide = rhos.copy()
    wide[3] = 10.0
    with pytest.raises(geo.SlaterViolation,
                       match=r"row 3: B\[x0, rho\] is not contained"):
        geo.slater_intersection_check(xs, polys, balls, far, wide)


@pytest.mark.parametrize("pair", ["polytope/polytope", "ball/ball",
                                  "ball/polytope", "mixed"])
def test_slater_check_refuses_other_pairings(pair):
    xs, polys, balls, x0s, rhos = suites._slater_rows(7, 2)
    a, b = {"polytope/polytope": (polys, polys),
            "ball/ball": (balls, balls),
            "ball/polytope": (balls, polys),
            "mixed": ([polys[0], balls[1]], [balls[0], polys[1]])}[pair]
    with pytest.raises(geo.GeometryError, match="polytope/ball"):
        geo.slater_intersection_check(xs, a, b, x0s, rhos)


@pytest.mark.parametrize("battery, check", [
    (suites.projection_difference_battery, "projection_difference_check"),
    (suites.slater_battery, "slater_intersection_check")])
def test_lemma_battery_margin_is_rhs_slack_minus_lhs(monkeypatch, battery,
                                                     check):
    # the checks return per-row (lhs, rhs); the 1e-8 slack is the battery's
    returned = []
    original = getattr(geo, check)

    def recording(*args):
        returned.append(original(*args))
        return returned[-1]

    monkeypatch.setattr(geo, check, recording)
    result = battery(7, 40)
    (lhs, rhs), = returned
    assert lhs.shape == rhs.shape == (40,)
    assert result.worst_margin == float(np.min(rhs + 1e-8 - lhs))
    assert result.passed


def _count_projections(monkeypatch):
    """[calls, rows] of `HullProjector.project`, counted from now on."""
    counts = [0, 0]
    project = geo.HullProjector.project

    def counted(self, x):
        counts[0] += 1
        counts[1] += np.atleast_2d(x).shape[0]
        return project(self, x)

    monkeypatch.setattr(geo.HullProjector, "project", counted)
    return counts


def test_slater_battery_projection_counts(monkeypatch):
    # the witness check, the first cap step, its anchor and one call per
    # pass of the multiplier search, over the rows still searching
    counts = _count_projections(monkeypatch)
    assert suites.slater_battery(7, 500).passed
    assert counts == [35, 2913]


@pytest.mark.parametrize("seed, trials, margin", [
    (7, 1000, 4.409461576179975), (1, 1000, 4.62793790384932),
    (7, 40, 6.267787614731494), (1, 40, 5.7519265155182975)])
def test_projection_difference_battery_margins(seed, trials, margin):
    result = suites.projection_difference_battery(seed, trials)
    assert result.passed and result.worst_margin == margin


@pytest.mark.parametrize("seed, trials, margin", [
    (7, 500, 1e-08), (1, 500, 1.000000300853684e-08),
    (7, 40, 5.738679206613403), (1, 40, 50.82118699933487)])
def test_slater_battery_margins(seed, trials, margin):
    result = suites.slater_battery(seed, trials)
    assert result.passed and result.worst_margin == margin


# ---------------------------------------------------------------------------
# intersection continuity probe


def test_intersection_continuity_constant_family_within_slack():
    c = np.zeros(2)
    value, hypothesis_ok = geo.intersection_continuity_probe(
        c, _square(0.5), 1.0, c, _square(0.5))
    slack = 2.0 * np.pi / 2048
    assert hypothesis_ok and value <= 2.0 * slack + 1e-9


def test_intersection_continuity_shifted_squares_converges():
    ns = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    values = []
    for n in ns:
        shift = np.array([1.0 / n, 0.0])
        value, hypothesis_ok = geo.intersection_continuity_probe(
            shift, _square(0.5, shift), 1.0, np.zeros(2), _square(0.5))
        assert hypothesis_ok
        values.append(value)
    assert np.all(np.diff(values) <= 1e-9)
    # recorded from this family: values drop below 1e-2 from n = 256 on
    assert all(v <= 1e-2 for n, v in zip(ns, values) if n >= 256)


@pytest.mark.parametrize("dim", [1, 3])
def test_intersection_continuity_refuses_other_dimensions(dim):
    simplex = np.vstack([np.eye(dim), np.zeros((1, dim))])
    with pytest.raises(geo.GeometryError, match="only for d = 2"):
        geo.intersection_continuity_probe(
            np.full(dim, 0.25 + 1.0 / 8), geo.Polytope(simplex + 1.0 / 8),
            0.5, np.full(dim, 0.25), geo.Polytope(simplex))


def test_empty_intersection_rejected():
    # a member ball that misses its polytope
    value, hypothesis_ok = geo.intersection_continuity_probe(
        np.array([5.0, 0.0]), _square(0.5), 1.0, np.zeros(2), _square(0.5))
    assert hypothesis_ok and np.isnan(value)
    # a limit ball that misses its polytope
    value, hypothesis_ok = geo.intersection_continuity_probe(
        np.zeros(2), _square(0.5), 1.0, np.array([0.0, 5.0]), _square(0.5))
    assert not hypothesis_ok and np.isnan(value)


@pytest.mark.parametrize("member", ["centre", "polytope"])
def test_intersection_continuity_refuses_member_of_other_dimension(member):
    c_n, b_n = np.zeros(2), _square(0.5)
    if member == "centre":
        c_n = np.zeros(3)
    else:
        b_n = geo.Polytope(np.vstack([np.eye(3), np.zeros((1, 3))]))
    with pytest.raises(geo.DimensionMismatch):
        geo.intersection_continuity_probe(c_n, b_n, 1.0, np.zeros(2),
                                          _square(0.5))


def test_intersection_continuity_tangency_is_flagged_not_asserted():
    # the witness ball only touches the square: open-ball hypothesis fails
    square = _square(np.array([0.5, 1.0]), (1.5, 0.0))
    value, hypothesis_ok = geo.intersection_continuity_probe(
        np.zeros(2), square, 1.0, np.zeros(2), square)
    assert not hypothesis_ok and np.isfinite(value)


@pytest.mark.xfail(strict=True, reason="the sampled value covers only the "
                   "limit cap's boundary; an exact support-function distance "
                   "would close the gap")
@pytest.mark.parametrize("x", [0.3, 0.6, 1.0, 1.5])
def test_intersection_continuity_bounds_non_translate_pairs(x):
    # member cap: the whole disc B[(x, 0), 1]; limit cap: the square
    # [-0.1, 0.1]^2, so the exact Hausdorff distance is x + 1 - 0.1
    value, hypothesis_ok = geo.intersection_continuity_probe(
        np.array([x, 0.0]), _square(5.0), 1.0, np.zeros(2), _square(0.1))
    assert hypothesis_ok
    assert value >= x + 0.9


@pytest.mark.parametrize("trials, margin", [(1, 0.0055289267714432565),
                                             (10, 0.004761172247840268)])
def test_intersection_continuity_battery_margins(trials, margin):
    result = suites.intersection_continuity_battery(7, trials)
    assert result.passed and result.worst_margin == margin


def test_intersection_continuity_battery_projection_counts(monkeypatch):
    # one pair per trial: the limit and member caps of the 0.5/512 shift
    counts = _count_projections(monkeypatch)
    suites.intersection_continuity_battery(7, 1)
    assert counts == [6, 8227]


def test_intersection_continuity_battery_reads_hypothesis(monkeypatch,
                                                          capsys):
    monkeypatch.setattr(geo, "intersection_continuity_probe",
                        lambda *args: (0.0, False))
    assert cli.main(["lemma", "intersection-continuity", "--trials", "1"]) == 1
    assert capsys.readouterr().out.startswith("FAIL intersection-continuity")


# ---------------------------------------------------------------------------
# diameters


def _union_diameter(vertices, center, radius):
    """`union_diameter_upper` of one polytope and one ball."""
    return geo.union_diameter_upper(np.asarray(vertices, dtype=float)[None],
                                    np.asarray(center, dtype=float)[None],
                                    np.array([radius]))[0]


def test_union_diameter_polytope_and_ball():
    segment = [[0.0, 0.0], [1.0, 0.0]]
    # farthest vertex plus r, 2r, and the vertex diameter in turn
    assert _union_diameter(segment, [3.0, 0.0], 0.5) == 3.5
    assert _union_diameter(segment, [0.5, 0.0], 5.0) == 10.0
    assert _union_diameter(segment, [0.5, 0.0], 0.0) == 1.0


def test_union_diameter_polytopes_exact(rng):
    # the hull of both vertex sets, with a radius-0 ball at one vertex
    pts_a = rng.normal(size=(6, 3))
    pts_b = rng.normal(size=(5, 3))
    allpts = np.vstack([pts_a, pts_b])
    d = _union_diameter(allpts, pts_b[0], 0.0)
    diff = allpts[:, None, :] - allpts[None, :, :]
    assert d == pytest.approx(np.sqrt((diff ** 2).sum(-1)).max())
