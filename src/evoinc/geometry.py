"""Compact convex bodies with metric projections and Hausdorff distances.

Bodies are balls, polytopes (vertex hulls), or ball-polytope intersections.
All projections come with certificates. Polytope projections certify the
variational inequality over the vertex set. A projection onto a ball
intersected with a hull H is P_H of the query moved towards the ball's
center by one Lagrange multiplier per row, found by a bracketed root search;
its KKT certificate is the hull certificate at the moved query plus the
ball constraint holding with equality whenever the multiplier is positive.
Hausdorff distances are exact when the source is a polytope and bracketed
otherwise.

Everything is vectorized over batches of query points; the public
single-point entry points are thin wrappers around the batch kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import sphere_points

PROJECTION_TOL = 1e-12
PROJECTION_BUDGET = 100_000
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
        # ball; one certified projection of the center decides that, and
        # that projection is itself the witness of a nonempty pair.
        gap = float(_distance_rows(self.ball.center[None, :], self.polytope)[0])
        if gap > self.ball.radius + FEASIBILITY_TOL:
            raise EmptyIntersection(
                f"ball-polytope intersection infeasible "
                f"(center-to-hull gap {gap - self.ball.radius:.3e})")

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

    A row's first call starts it at its nearest vertex; later calls resume
    from the previous weights and their support, since the multiplier
    search of `_project_cap` calls it with slowly moving inputs. The
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
                max_iter: int = PROJECTION_BUDGET, rows=None):
        """Returns (points, gaps). gaps[i] = max_v <x-p, v-p> at return.

        `rows` limits the call to those rows of the vertex stack, one query
        each; the other rows keep their warm start. Raises
        ProjectionDidNotConverge when the certificate
        gap <= tol * (1 + ||x||) does not hold on every row after
        `max_iter` major cycles, or when a row stops improving short of it.
        """
        x = _rows(x)
        every = rows is None
        rows = np.arange(self.m) if every else np.asarray(rows)
        if x.shape != (rows.size, self.d):
            raise DimensionMismatch(
                f"expected query shape {(rows.size, self.d)}, got {x.shape}")
        if self.n == 1:
            return self.v[rows, 0, :].copy(), np.zeros(rows.size)
        scale = tol * (1.0 + np.linalg.norm(x, axis=1))
        if self.lam is None:
            self.lam = np.zeros((self.m, self.n))
        # A full call works on the state itself; a row subset on a copy.
        lam, stack = ((self.lam, self.v) if every
                      else (self.lam[rows], self.v[rows]))
        cold = ~lam.any(axis=1)
        if cold.any():
            w = stack - x[:, None, :]
            nearest = np.argmin(np.einsum("mnd,mnd->mn", w, w), axis=1)
            lam[cold, nearest[cold]] = 1.0
        corral = lam > 0.0
        points = np.empty_like(x)
        gaps = np.full(rows.size, np.inf)
        active = np.arange(rows.size)
        entered = None
        for _ in range(max_iter):
            v, xa = stack[active], x[active]
            kept, lam_a = corral[active], lam[active]
            _minor_cycles(v, xa, kept, lam_a)
            lam[active] = lam_a
            p = (lam_a[:, None, :] @ v)[:, 0, :]
            inner = ((v - p[:, None, :]) @ (xa - p)[:, :, None])[:, :, 0]
            points[active] = p
            gaps[active] = inner.max(axis=1)
            ids = np.arange(active.size)
            inner[kept] = -np.inf
            entering = np.argmax(inner, axis=1)
            go_on = inner[ids, entering] > scale[active]
            if entered is not None:
                # In exact arithmetic the vertex that entered last stays in
                # the corral; a row that dropped it is stuck at rounding
                # level and would only repeat itself.
                go_on &= kept[ids, entered]
            active, entered = active[go_on], entering[go_on]
            if active.size == 0:
                break
            kept[go_on, entered] = True
            corral[active] = kept[go_on]
        if not every:
            self.lam[rows] = lam
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
    return np.linalg.norm(x - _project_rows(x, body), axis=1)


def _project_rows(x: np.ndarray, body: ConvexBody) -> np.ndarray:
    x = _rows(x)
    if isinstance(body, Ball):
        return project_balls(x, body.center, body.radius)
    if isinstance(body, Polytope):
        proj = HullProjector(_polytope_stack(body, x.shape[0]))
        p, _ = proj.project(x)
        return p
    hull = HullProjector(_polytope_stack(body.polytope, x.shape[0]))
    return _project_cap(x, body.ball,
                        lambda q, rows: hull.project(q, rows=rows)[0])


def _project_cap(x: np.ndarray, ball: Ball, project_h):
    """Rows of x projected onto B[c, r] cap H by one multiplier per row.

    `project_h(q, rows)` returns the certified projections onto H of the
    queries q for those rows of the batch. With mu the multiplier of the
    ball constraint and t = mu / (1 + mu), the KKT conditions give
    y = P_H((1 - t) x + t c) for one t in [0, 1), and phi(t) = ||y(t) - c||
    - r does not increase in t (it is the derivative of a concave dual
    function). A row retires at t = 0 when phi(0) <= tol, and otherwise once
    a bracketed Illinois regula falsi on [0, 1] (t = 1 projects c) finds
    |phi(t)| <= tol = PROJECTION_TOL * (1 + r). With H's own certificate
    this certifies optimality, not only membership. When dist(c, H) >=
    r - tol the cap is the single point P_H(c) (tangency) or empty to
    within FEASIBILITY_TOL, and P_H(c) is returned.
    """
    c, r = ball.center, ball.radius
    tol = PROJECTION_TOL * (1.0 + r)
    y = project_h(x, np.arange(x.shape[0]))
    phi = np.linalg.norm(y - c, axis=1) - r
    active = np.flatnonzero(phi > tol)
    if active.size == 0:
        return y
    anchor = project_h(np.broadcast_to(c, (active.size, c.size)), active)
    f_hi = np.linalg.norm(anchor - c, axis=1) - r
    ends = f_hi >= -tol
    y[active[ends]] = anchor[ends]
    active, f_hi = active[~ends], f_hi[~ends]
    f_lo = phi[active]
    lo, hi = np.zeros(active.size), np.ones(active.size)
    side = np.zeros(active.size)  # +1 / -1: which end the last step moved
    for _ in range(PROJECTION_BUDGET):
        if active.size == 0:
            return y
        t = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        q = x[active] + t[:, None] * (c - x[active])
        y[active] = project_h(q, active)
        f = np.linalg.norm(y[active] - c, axis=1) - r
        above = f > 0.0
        # Illinois: when the same end moves twice, halve the other's value.
        f_hi = np.where(above & (side > 0), 0.5 * f_hi, f_hi)
        f_lo = np.where(~above & (side < 0), 0.5 * f_lo, f_lo)
        lo, f_lo = np.where(above, t, lo), np.where(above, f, f_lo)
        hi, f_hi = np.where(above, hi, t), np.where(above, f_hi, f)
        side = np.where(above, 1.0, -1.0)
        go_on = np.abs(f) > tol
        active, lo, hi, f_lo, f_hi, side, f = (
            a[go_on] for a in (active, lo, hi, f_lo, f_hi, side, f))
        if np.any(np.nextafter(lo, hi) >= hi):
            break  # a bracket with no float inside: rounding level
    raise ProjectionDidNotConverge(
        "ball-hull projection left rows without certificate",
        float(np.max(np.abs(f) - tol)))


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


def project_intersection(x, body: BallCapPolytope) -> IntersectionProjection:
    """KKT-certified projection onto ball cap polytope (see `_project_cap`).

    The point is a convex combination of the vertices, so its polytope
    residual is zero; the ball residual is nonzero only for a pair whose
    hull lies within FEASIBILITY_TOL outside the ball.
    """
    x = np.asarray(x, dtype=float)
    if x.size != body.dim:
        raise DimensionMismatch("point and body dimensions differ")
    p = _project_rows(x[None, :], body)[0]
    gap = float(np.linalg.norm(p - body.ball.center)) - body.ball.radius
    return IntersectionProjection(p, max(gap, 0.0), 0.0)


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
    """(sample points inside the body, Lipschitz slack for the sup).

    The slack 2 pi r / resolution is the covering arc of the exact angle
    grid of `sphere_points`, so it certifies the sup only for d <= 2; the
    Halton sphere sample of d >= 3 has no proven covering radius.
    """
    if body.dim >= 3:
        raise GeometryError("sampled Hausdorff brackets are certified only "
                            "for d <= 2; use a polytope source in 3-D and up")
    if isinstance(body, Ball):
        dirs = sphere_points(resolution, body.dim)
        pts = body.center + body.radius * dirs
        return pts, 2.0 * np.pi * body.radius / resolution
    if isinstance(body, BallCapPolytope):
        dirs = sphere_points(resolution, body.dim)
        cloud = np.vstack([body.ball.center + body.ball.radius * dirs,
                           body.polytope.vertices])
        slack = 2.0 * np.pi * body.ball.radius / resolution
        return _project_rows(cloud, body), slack
    raise GeometryError("polytope sources are handled exactly")  # pragma: no cover


def directed_hausdorff(source: ConvexBody, target: ConvexBody,
                       resolution: int = 256) -> HausdorffBracket:
    """Bracket on sup_{a in source} dist(a, target).

    Exact when the source is a polytope (the sup of the convex distance
    function over a hull is attained at a vertex) and for ball-to-ball;
    otherwise a deterministic boundary sample plus Lipschitz slack, which
    raises `GeometryError` for d >= 3 (see `_source_sample`).
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
    elif isinstance(a_body, Ball) and isinstance(b_body, Ball):
        point = _project_cap(
            x[None, :], a_body,
            lambda q, rows: project_balls(q, b_body.center, b_body.radius))[0]
    else:
        raise GeometryError("the Slater check takes a ball and a ball or a "
                            "polytope")
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
                                  resolution: int = 2048) -> IntersectionContinuityResult:
    """Sampled Hausdorff gaps d(B[c_n, r] cap B_n, B[c, r] cap B) per n.

    A fixed deterministic cloud (limit-ball boundary plus limit vertices) is
    projected onto each intersection; the reported value per n is the larger
    of the two directed sampled sups plus the boundary-sampling slack.
    hypothesis_ok records whether the open ball B(c, r) genuinely meets B;
    members of the sequence with empty intersection are flagged, their value
    set to NaN, and the probe continues.
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
    limit_sample = _project_rows(cloud, limit)

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
        sample_n = _project_rows(cloud, member)
        to_limit = _distance_rows(sample_n, limit)
        to_member = _distance_rows(limit_sample, member)
        values.append(float(max(to_limit.max(), to_member.max())) + slack)
    return IntersectionContinuityResult(values, strict, empty)
