"""Compact convex bodies with metric projections and Hausdorff distances.

Bodies are balls, polytopes (vertex hulls), or ball-polytope intersections.
All projections come with certificates: polytope projections certify the
variational inequality over the vertex set, alternating projections onto
intersections report membership residuals for both factors. Hausdorff
distances are exact when the source is a polytope and bracketed otherwise.

Everything is vectorized over batches of query points; the public
single-point entry points are thin wrappers around the batch kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import sphere_points

PROJECTION_TOL = 1e-12
PROJECTION_BUDGET = 100_000
DYKSTRA_TOL = 1e-10
DYKSTRA_BUDGET = 100_000
FEASIBILITY_TOL = 1e-8


class GeometryError(ValueError):
    pass


class DimensionMismatch(GeometryError):
    pass


class SlaterViolation(GeometryError):
    pass


class EmptyIntersection(GeometryError):
    pass


class ProjectionDidNotConverge(RuntimeError):
    """Raised instead of returning an uncertified point."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


# ---------------------------------------------------------------------------
# bodies


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        object.__setattr__(self, "center", c)
        if c.ndim != 1:
            raise GeometryError("ball center must be a vector")
        if not np.isfinite(c).all() or not np.isfinite(self.radius):
            raise GeometryError("ball data must be finite")
        if self.radius < 0.0:
            raise GeometryError("ball radius must be nonnegative")

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class Polytope:
    vertices: np.ndarray  # (n, d)

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "vertices", v)
        if v.shape[0] == 0:
            raise GeometryError("polytope needs at least one vertex")
        if not np.isfinite(v).all():
            raise GeometryError("polytope vertices must be finite")

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]


@dataclass(frozen=True)
class BallCapPolytope:
    ball: Ball
    polytope: Polytope

    def __post_init__(self):
        if self.ball.dim != self.polytope.dim:
            raise DimensionMismatch("ball and polytope dimensions differ")
        # The intersection is empty exactly when the hull misses the closed
        # ball; one certified projection of the center decides that and
        # spares the alternating iteration its full budget on empty pairs.
        gap = float(_distance_rows(self.ball.center[None, :], self.polytope)[0])
        if gap > self.ball.radius + FEASIBILITY_TOL:
            raise EmptyIntersection(
                f"ball-polytope intersection infeasible "
                f"(center-to-hull gap {gap - self.ball.radius:.3e})")
        # Feasibility witness: the ball center projected onto the pair must
        # land within FEASIBILITY_TOL of both factors.
        witness, res_ball, res_poly, _ = _dykstra_ball_polytope(
            self.ball.center[None, :], self.ball, self.polytope,
            tol=DYKSTRA_TOL, max_iter=20_000)
        res = max(float(res_ball[0]), float(res_poly[0]))
        if res > FEASIBILITY_TOL:
            raise EmptyIntersection(
                f"ball-polytope intersection infeasible (witness residual {res:.3e})")
        object.__setattr__(self, "_witness", witness[0])

    @property
    def dim(self) -> int:
        return self.ball.dim


ConvexBody = Ball | Polytope | BallCapPolytope


@dataclass(frozen=True)
class HausdorffBracket:
    lower: float
    upper: float
    resolution: int

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper + 1e-15):
            raise GeometryError("bracket must satisfy 0 <= lower <= upper")


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of a two-sided inequality check."""
    lhs: float
    rhs: float
    passed: bool


# ---------------------------------------------------------------------------
# batch kernels


def _rows(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x[None, :] if x.ndim == 1 else x


def project_balls(x: np.ndarray, centers: np.ndarray, radii) -> np.ndarray:
    """Row-wise projection onto balls B[centers[i], radii[i]]."""
    x = _rows(x)
    centers = _rows(centers)
    radii = np.broadcast_to(np.asarray(radii, dtype=float), (x.shape[0],))
    delta = x - centers
    dist = np.linalg.norm(delta, axis=1)
    scale = np.ones_like(dist)
    outside = dist > radii
    scale[outside] = radii[outside] / dist[outside]
    return centers + delta * scale[:, None]


def _affine_weights(v: np.ndarray, x: np.ndarray, corral: np.ndarray,
                    lam: np.ndarray) -> np.ndarray:
    """Weights of the point nearest to x on each corral's affine hull.

    The corral members are gathered to the front of each row. With the
    heaviest member r as reference, the weights beta_s of the others solve
    the normal equations of min ||v_r - x + sum_s beta_s (v_s - v_r)||, all
    rows in one batched solve; slots that are not free members get identity
    rows, which pin their weight to zero. Vertex differences keep the Gram
    matrix accurate when the hull is small next to its distance from x.
    """
    size = int(corral.sum(axis=1).max())
    rows = np.arange(lam.shape[0])
    cols = rows[:, None]
    order = np.argsort(~corral, axis=1, kind="stable")[:, :size]
    free = corral[cols, order]
    vc = v[cols, order]
    ref = np.argmax(np.where(free, lam[cols, order], -1.0), axis=1)
    free[rows, ref] = False
    base = vc[rows, ref]
    e = vc - base[:, None, :]
    gram = e @ e.transpose(0, 2, 1)
    gram[~(free[:, :, None] & free[:, None, :])] = 0.0
    slots = np.arange(size)
    gram[:, slots, slots] += ~free
    rhs = (e @ (x - base)[:, :, None]) * free[:, :, None]
    try:
        beta = np.linalg.solve(gram, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        # A repeated vertex inside a corral makes its system singular; the
        # least-norm solution splits the weight among the copies.
        beta = np.where(free, (np.linalg.pinv(gram) @ rhs)[:, :, 0], 0.0)
    beta[rows, ref] = 1.0 - beta.sum(axis=1)
    alpha = np.zeros(lam.shape)
    alpha[cols, order] = beta
    return alpha


def _minor_cycles(v: np.ndarray, x: np.ndarray, corral: np.ndarray,
                  lam: np.ndarray) -> None:
    """Wolfe's minor cycles on every row at once, updating corral and lam.

    A row whose affine minimizer has positive weights moves there. Any
    other row moves towards it until a weight reaches zero, drops that
    vertex, and solves again. Each pass drops a vertex and a lone vertex
    is its own minimizer, so at most n passes run.
    """
    pending = np.arange(lam.shape[0])
    while True:
        alpha = _affine_weights(v[pending], x[pending], corral[pending],
                                lam[pending])
        negative = corral[pending] & (alpha < 0.0)
        blocked = negative.any(axis=1)
        lam[pending[~blocked]] = alpha[~blocked]
        if not blocked.any():
            return
        pending = pending[blocked]
        alpha, negative, cur = alpha[blocked], negative[blocked], lam[pending]
        ratio = np.where(negative,
                         cur / np.where(negative, cur - alpha, 1.0), np.inf)
        leaving = np.argmin(ratio, axis=1)
        rows = np.arange(pending.size)
        cur += ratio[rows, leaving][:, None] * (alpha - cur)
        cur[rows, leaving] = 0.0
        np.maximum(cur, 0.0, out=cur)
        lam[pending] = cur
        corral[pending] &= cur > 0.0


class HullProjector:
    """Batched projection onto convex hulls, one vertex set per row.

    Wolfe's minimum-norm-point method ("Finding the nearest point in a
    polytope", 1976), run on all rows at once. Each row keeps a corral, an
    affinely independent subset of its vertices held as one row of an
    (m, n) boolean mask, and barycentric weights `lam` supported on it.
    Minor cycles move every row to the nearest point of its corral's affine
    hull, one batched solve per pass, and drop vertices whose weight would
    turn negative. Each major cycle checks the vertex-set certificate
    gap = max_v <x - p, v - p> <= tol * (1 + ||x||) and adds the most
    violating vertex to the corral of every row that fails it. Rows retire
    as soon as their certificate holds; the result is exact on its support.

    The first call starts every row at its nearest vertex; later calls
    resume from the previous weights and their support, since the
    alternating-projection loops call it with slowly moving inputs. The
    warm-start state makes instances single-threaded; the module-level
    entry points construct a fresh projector per call and stay pure.
    """

    def __init__(self, vertices: np.ndarray):
        v = np.asarray(vertices, dtype=float)
        if v.ndim == 2:
            v = v[None, :, :]
        self.v = v
        self.m, self.n, self.d = v.shape
        self.lam = None  # weights of the last call, (m, n)

    def project(self, x: np.ndarray, tol: float = PROJECTION_TOL,
                max_iter: int = PROJECTION_BUDGET):
        """Returns (points, gaps). gaps[i] = max_v <x-p, v-p> at return.

        Raises ProjectionDidNotConverge when the certificate
        gap <= tol * (1 + ||x||) does not hold on every row after
        `max_iter` major cycles, or when a row stops improving short of it.
        """
        x = _rows(x)
        if x.shape != (self.m, self.d):
            raise DimensionMismatch(
                f"expected query shape {(self.m, self.d)}, got {x.shape}")
        if self.n == 1:
            return self.v[:, 0, :].copy(), np.zeros(self.m)
        scale = tol * (1.0 + np.linalg.norm(x, axis=1))
        if self.lam is None:
            lam = np.zeros((self.m, self.n))
            w = self.v - x[:, None, :]
            nearest = np.argmin(np.einsum("mnd,mnd->mn", w, w), axis=1)
            lam[np.arange(self.m), nearest] = 1.0
        else:
            lam = self.lam.copy()
        self.lam = lam
        corral = lam > 0.0
        points = np.empty_like(x)
        gaps = np.full(self.m, np.inf)
        active = np.arange(self.m)
        entered = None
        for _ in range(max_iter):
            v, xa = self.v[active], x[active]
            kept, lam_a = corral[active], lam[active]
            _minor_cycles(v, xa, kept, lam_a)
            lam[active] = lam_a
            p = (lam_a[:, None, :] @ v)[:, 0, :]
            inner = ((v - p[:, None, :]) @ (xa - p)[:, :, None])[:, :, 0]
            points[active] = p
            gaps[active] = inner.max(axis=1)
            rows = np.arange(active.size)
            inner[kept] = -np.inf
            entering = np.argmax(inner, axis=1)
            go_on = inner[rows, entering] > scale[active]
            if entered is not None:
                # In exact arithmetic the vertex that entered last stays in
                # the corral; a row that dropped it is stuck at rounding
                # level and would only repeat itself.
                go_on &= kept[rows, entered]
            active, entered = active[go_on], entering[go_on]
            if active.size == 0:
                break
            kept[go_on, entered] = True
            corral[active] = kept[go_on]
        if np.any(gaps > scale):
            raise ProjectionDidNotConverge(
                "hull projection left rows without certificate",
                float(np.max(gaps - scale)))
        return points, gaps


def _polytope_stack(poly: Polytope, m: int) -> np.ndarray:
    return np.broadcast_to(poly.vertices, (m,) + poly.vertices.shape)


def _distance_rows(x: np.ndarray, body: ConvexBody,
                   tol: float = PROJECTION_TOL) -> np.ndarray:
    """Row-wise Euclidean distance to a body."""
    x = _rows(x)
    if isinstance(body, Ball):
        d = np.linalg.norm(x - body.center, axis=1) - body.radius
        return np.maximum(d, 0.0)
    if isinstance(body, Polytope):
        proj = HullProjector(_polytope_stack(body, x.shape[0]))
        p, _ = proj.project(x, tol=tol)
        return np.linalg.norm(x - p, axis=1)
    p, _, _, _ = _dykstra_ball_polytope(x, body.ball, body.polytope)
    return np.linalg.norm(x - p, axis=1)


def _project_rows(x: np.ndarray, body: ConvexBody) -> np.ndarray:
    x = _rows(x)
    if isinstance(body, Ball):
        return project_balls(x, body.center, body.radius)
    if isinstance(body, Polytope):
        proj = HullProjector(_polytope_stack(body, x.shape[0]))
        p, _ = proj.project(x)
        return p
    p, _, _, _ = _dykstra_ball_polytope(x, body.ball, body.polytope)
    return p


def _dykstra_ball_polytope(x: np.ndarray, ball: Ball, poly: Polytope,
                           tol: float = DYKSTRA_TOL,
                           max_iter: int = DYKSTRA_BUDGET):
    """Dykstra iteration specialized to one ball and one polytope."""
    x = _rows(x)
    hull = HullProjector(_polytope_stack(poly, x.shape[0]))

    def proj_a(z):
        return project_balls(z, ball.center, ball.radius)

    def proj_b(z):
        p, _ = hull.project(z, tol=max(tol * 1e-2, 1e-14))
        return p

    return dykstra(x, proj_a, proj_b, tol=tol, max_iter=max_iter)


def dykstra(x: np.ndarray, proj_a, proj_b, tol: float = DYKSTRA_TOL,
            max_iter: int = DYKSTRA_BUDGET):
    """Batched Dykstra alternating projections onto an intersection A cap B.

    Returns (points, residual_a, residual_b, converged). The residuals
    measure the final iterate's distance to each factor via one extra
    projection; `converged` records whether the per-cycle iterate change
    fell below tol. Callers decide whether the residuals certify
    feasibility; the iterate change criterion alone never does.
    """
    x = _rows(x).copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    converged = False
    for _ in range(max_iter):
        y = proj_a(x + p)
        p = x + p - y
        x_new = proj_b(y + q)
        q = y + q - x_new
        delta = np.max(np.linalg.norm(x_new - x, axis=1))
        x = x_new
        if delta <= tol:
            converged = True
            break
    res_a = np.linalg.norm(x - proj_a(x), axis=1)
    res_b = np.linalg.norm(x - proj_b(x), axis=1)
    return x, res_a, res_b, converged


# ---------------------------------------------------------------------------
# projections (single-point API)


def project_ball(x, c, r: float) -> np.ndarray:
    """Nearest point of B[c, r] to x."""
    x = np.asarray(x, dtype=float)
    c = np.asarray(c, dtype=float)
    if x.shape != c.shape:
        raise DimensionMismatch("point and center dimensions differ")
    if r < 0.0:
        raise GeometryError("radius must be nonnegative")
    return project_balls(x[None, :], c[None, :], r)[0]


def project_polytope(x, poly: Polytope, tol: float = PROJECTION_TOL,
                     max_iter: int = PROJECTION_BUDGET) -> np.ndarray:
    """Nearest point of the vertex hull to x, certified over the vertices."""
    x = np.asarray(x, dtype=float)
    if x.size != poly.dim:
        raise DimensionMismatch("point and polytope dimensions differ")
    if tol <= 0.0:
        raise GeometryError("tol must be positive")
    proj = HullProjector(poly.vertices[None, :, :])
    p, _ = proj.project(x[None, :], tol=tol, max_iter=max_iter)
    return p[0]


@dataclass(frozen=True)
class IntersectionProjection:
    point: np.ndarray
    ball_residual: float
    polytope_residual: float


def project_intersection(x, body: BallCapPolytope, tol: float = DYKSTRA_TOL,
                         max_iter: int = DYKSTRA_BUDGET) -> IntersectionProjection:
    """Dykstra projection onto ball cap polytope with membership residuals."""
    x = np.asarray(x, dtype=float)
    if x.size != body.dim:
        raise DimensionMismatch("point and body dimensions differ")
    p, res_a, res_b, converged = _dykstra_ball_polytope(
        x[None, :], body.ball, body.polytope, tol=tol, max_iter=max_iter)
    res = max(float(res_a[0]), float(res_b[0]))
    if not converged or res > max(100.0 * tol, FEASIBILITY_TOL):
        raise ProjectionDidNotConverge(
            "alternating projections left uncertified membership", res)
    return IntersectionProjection(p[0], float(res_a[0]), float(res_b[0]))


def distance_to(x, body: ConvexBody) -> float:
    """Euclidean distance of x to the body."""
    return float(_distance_rows(np.asarray(x, dtype=float)[None, :], body)[0])


# ---------------------------------------------------------------------------
# batched polytope utilities


def pad_vertex_stack(polys) -> np.ndarray:
    """(m, n_max, d) vertex stack; padding repeats the last vertex, which
    leaves every hull unchanged."""
    n_max = max(p.vertices.shape[0] for p in polys)
    d = polys[0].dim
    out = np.empty((len(polys), n_max, d))
    for i, poly in enumerate(polys):
        k = poly.vertices.shape[0]
        out[i, :k] = poly.vertices
        out[i, k:] = poly.vertices[-1]
    return out


def project_points_onto_polytopes(points: np.ndarray, polys,
                                  tol: float = PROJECTION_TOL) -> np.ndarray:
    """One certified projection per (point, polytope) pair, batched."""
    stacks = pad_vertex_stack(polys)
    proj = HullProjector(stacks)
    pts, _ = proj.project(_rows(points), tol=tol)
    return pts


def polytope_pair_hausdorff(list_a, list_b,
                            tol: float = PROJECTION_TOL) -> np.ndarray:
    """Exact Hausdorff distances for paired polytopes, batched.

    Each directed value is the max over the source's vertices of the
    distance to the target hull.
    """
    if len(list_a) != len(list_b):
        raise GeometryError("need one target per source")
    m = len(list_a)
    stack_a = pad_vertex_stack(list_a)
    stack_b = pad_vertex_stack(list_b)
    na, nb = stack_a.shape[1], stack_b.shape[1]
    d = stack_a.shape[2]

    def directed(src, tgt, n_src):
        queries = src.reshape(m * n_src, d)
        targets = np.repeat(tgt, n_src, axis=0)
        proj = HullProjector(targets)
        pts, _ = proj.project(queries, tol=tol)
        dists = np.linalg.norm(queries - pts, axis=1)
        return dists.reshape(m, n_src).max(axis=1)

    return np.maximum(directed(stack_a, stack_b, na),
                      directed(stack_b, stack_a, nb))


# ---------------------------------------------------------------------------
# diameters


def diameter_upper(body: ConvexBody) -> float:
    """Diameter; exact for balls and polytopes, an upper bound for caps."""
    if isinstance(body, Ball):
        return 2.0 * body.radius
    if isinstance(body, Polytope):
        v = body.vertices
        diff = v[:, None, :] - v[None, :, :]
        return float(np.sqrt((diff ** 2).sum(-1)).max())
    return min(diameter_upper(body.ball), diameter_upper(body.polytope))


def _cross_sup(a: ConvexBody, b: ConvexBody) -> float:
    """sup over a x b of the pair distance (upper bound for caps)."""
    if isinstance(a, BallCapPolytope):
        return min(_cross_sup(a.ball, b), _cross_sup(a.polytope, b))
    if isinstance(b, BallCapPolytope):
        return _cross_sup(b, a)
    if isinstance(a, Ball) and isinstance(b, Ball):
        return float(np.linalg.norm(a.center - b.center)) + a.radius + b.radius
    if isinstance(a, Ball):
        return float(np.linalg.norm(b.vertices - a.center, axis=1).max()) + a.radius
    if isinstance(b, Ball):
        return _cross_sup(b, a)
    diff = a.vertices[:, None, :] - b.vertices[None, :, :]
    return float(np.sqrt((diff ** 2).sum(-1)).max())


def union_diameter_upper(a: ConvexBody, b: ConvexBody) -> float:
    return max(diameter_upper(a), diameter_upper(b), _cross_sup(a, b))


# ---------------------------------------------------------------------------
# Hausdorff distances


def _source_sample(body: ConvexBody, resolution: int):
    """(sample points inside the body, Lipschitz slack for the sup)."""
    if isinstance(body, Ball):
        dirs = sphere_points(resolution, body.dim)
        pts = body.center + body.radius * dirs
        return pts, 2.0 * np.pi * body.radius / resolution
    if isinstance(body, BallCapPolytope):
        dirs = sphere_points(resolution, body.dim)
        cloud = np.vstack([body.ball.center + body.ball.radius * dirs,
                           body.polytope.vertices])
        pts, _, _, _ = _dykstra_ball_polytope(cloud, body.ball, body.polytope)
        return pts, 2.0 * np.pi * body.ball.radius / resolution
    raise GeometryError("polytope sources are handled exactly")  # pragma: no cover


def directed_hausdorff(source: ConvexBody, target: ConvexBody,
                       resolution: int = 256) -> HausdorffBracket:
    """Bracket on sup_{a in source} dist(a, target).

    Exact when the source is a polytope (the sup of the convex distance
    function over a hull is attained at a vertex) and for ball-to-ball;
    otherwise a deterministic boundary sample plus Lipschitz slack.
    """
    if source.dim != target.dim:
        raise DimensionMismatch("bodies must share dimension")
    if isinstance(source, Polytope):
        val = float(_distance_rows(source.vertices, target).max())
        return HausdorffBracket(val, val, resolution)
    if isinstance(source, Ball) and isinstance(target, Ball):
        delta = float(np.linalg.norm(source.center - target.center))
        val = max(0.0, delta + source.radius - target.radius)
        return HausdorffBracket(val, val, resolution)
    pts, slack = _source_sample(source, resolution)
    lower = float(_distance_rows(pts, target).max())
    return HausdorffBracket(lower, lower + slack, resolution)


def hausdorff_distance(a: ConvexBody, b: ConvexBody,
                       resolution: int = 256) -> HausdorffBracket:
    """Symmetric Hausdorff bracket: max of the two directed brackets."""
    ab = directed_hausdorff(a, b, resolution)
    ba = directed_hausdorff(b, a, resolution)
    return HausdorffBracket(max(ab.lower, ba.lower),
                            max(ab.upper, ba.upper), resolution)


# ---------------------------------------------------------------------------
# lemma checks


def _contained_in_origin_ball(body: ConvexBody, radius: float,
                              tol: float = 1e-9) -> bool:
    if isinstance(body, Ball):
        return float(np.linalg.norm(body.center)) + body.radius <= radius + tol
    if isinstance(body, Polytope):
        return float(np.linalg.norm(body.vertices, axis=1).max()) <= radius + tol
    return (_contained_in_origin_ball(body.ball, radius, tol)
            or _contained_in_origin_ball(body.polytope, radius, tol))


def projection_difference_check(x, c_body: ConvexBody, d_body: ConvexBody,
                                big_radius: float,
                                resolution: int = 512) -> BoundCheck:
    """||p_C(x) - p_D(x)|| against sqrt((4||x|| + 2R) d_Hd(C, D))."""
    x = np.asarray(x, dtype=float)
    for body in (c_body, d_body):
        if not _contained_in_origin_ball(body, big_radius):
            raise GeometryError("bodies must lie in the ball of radius R at 0")
    pc = _project_rows(x[None, :], c_body)[0]
    pd = _project_rows(x[None, :], d_body)[0]
    lhs = float(np.linalg.norm(pc - pd))
    hd = hausdorff_distance(c_body, d_body, resolution)
    rhs = float(np.sqrt((4.0 * np.linalg.norm(x) + 2.0 * big_radius) * hd.upper))
    return BoundCheck(lhs, rhs, lhs <= rhs + 1e-8)


def _verify_inner_ball(x0: np.ndarray, rho: float, body: ConvexBody,
                       directions: int = 128, tol: float = 1e-8) -> bool:
    """Numerically check B[x0, rho] subset of body (sampled for polytopes)."""
    if isinstance(body, Ball):
        return float(np.linalg.norm(x0 - body.center)) + rho <= body.radius + tol
    dirs = sphere_points(directions, x0.size)
    shell = x0 + rho * dirs
    return bool(np.all(_distance_rows(shell, body) <= tol))


def slater_intersection_check(x, a_body: ConvexBody, b_body: ConvexBody,
                              x0, rho: float, slack: float = 1e-8) -> BoundCheck:
    """dist(x, A cap B) against (1 + diam(A u B)/rho)(dist(x,A) + dist(x,B)).

    Requires a verified interior witness: x0 in A cap B with B[x0, rho]
    inside B. Verification failures raise SlaterViolation.
    """
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    feas_tol = 1e-8
    if distance_to(x0, a_body) > feas_tol or distance_to(x0, b_body) > feas_tol:
        raise SlaterViolation("witness point is not in the intersection")
    if rho <= 0.0 or not _verify_inner_ball(x0, rho, b_body, tol=feas_tol):
        raise SlaterViolation("B[x0, rho] is not contained in the second body")

    if isinstance(a_body, Ball) and isinstance(b_body, Polytope):
        point = project_intersection(x, BallCapPolytope(a_body, b_body)).point
    elif isinstance(b_body, Ball) and isinstance(a_body, Polytope):
        point = project_intersection(x, BallCapPolytope(b_body, a_body)).point
    else:
        point, _, _, _ = dykstra(
            x[None, :],
            lambda z: _project_rows(z, a_body),
            lambda z: _project_rows(z, b_body))
        point = point[0]
    lhs = float(np.linalg.norm(x - point))
    d = union_diameter_upper(a_body, b_body)
    rhs = (1.0 + d / rho) * (distance_to(x, a_body) + distance_to(x, b_body))
    return BoundCheck(lhs, rhs, lhs <= rhs + slack)


@dataclass(frozen=True)
class IntersectionContinuityResult:
    values: list
    hypothesis_ok: bool
    empty_indices: list


def intersection_continuity_probe(c_seq, b_seq, r: float, c, b: Polytope,
                                  resolution: int = 2048,
                                  dykstra_tol: float = 1e-8,
                                  max_iter: int = 20_000) -> IntersectionContinuityResult:
    """Sampled Hausdorff gaps d(B[c_n, r] cap B_n, B[c, r] cap B) per n.

    A fixed deterministic cloud (limit-ball boundary plus limit vertices) is
    projected onto each intersection; the reported value per n is the larger
    of the two directed sampled sups plus the boundary-sampling slack.
    hypothesis_ok records whether the open ball B(c, r) genuinely meets B;
    members of the sequence with empty intersection are flagged, their value
    set to NaN, and the probe continues. Families violating the open-ball
    hypothesis (tangency) make the alternating projections sublinear, so
    callers running such demonstrations should shrink `max_iter`.
    """
    c = np.asarray(c, dtype=float)
    limit_ball = Ball(c, r)
    strict = distance_to(c, b) < r - 1e-12
    cloud = np.vstack([c + r * sphere_points(resolution, c.size), b.vertices])
    slack = 2.0 * np.pi * r / resolution

    try:
        limit = BallCapPolytope(limit_ball, b)
    except EmptyIntersection:
        return IntersectionContinuityResult([float("nan")] * len(c_seq), False,
                                            list(range(len(c_seq))))
    limit_sample, _, _, _ = _dykstra_ball_polytope(
        cloud, limit.ball, limit.polytope, tol=dykstra_tol, max_iter=max_iter)

    values = []
    empty = []
    for idx, (cn, bn) in enumerate(zip(c_seq, b_seq)):
        cn = np.asarray(cn, dtype=float)
        try:
            member = BallCapPolytope(Ball(cn, r), bn)
        except EmptyIntersection:
            empty.append(idx)
            values.append(float("nan"))
            continue
        sample_n, _, _, _ = _dykstra_ball_polytope(
            cloud, member.ball, member.polytope, tol=dykstra_tol,
            max_iter=max_iter)
        to_limit = _dykstra_distance(sample_n, limit, dykstra_tol, max_iter)
        to_member = _dykstra_distance(limit_sample, member, dykstra_tol,
                                      max_iter)
        values.append(float(max(to_limit.max(), to_member.max())) + slack)
    return IntersectionContinuityResult(values, strict, empty)


def _dykstra_distance(points: np.ndarray, body: BallCapPolytope, tol: float,
                      max_iter: int = DYKSTRA_BUDGET) -> np.ndarray:
    proj, _, _, _ = _dykstra_ball_polytope(points, body.ball, body.polytope,
                                           tol=tol, max_iter=max_iter)
    return np.linalg.norm(points - proj, axis=1)
