"""Compact convex bodies with metric projections and Hausdorff distances.

Bodies are balls and polytopes (vertex hulls). All projections come with
certificates. Polytope projections certify the variational inequality over
the vertex set. A projection onto a ball intersected with a hull H is P_H
of the query moved towards the ball's center by one Lagrange multiplier
per row, found by a bracketed root search (`_project_cap`); its KKT
certificate is the certificate of P_H at the moved query plus the ball
constraint holding with equality whenever the multiplier is positive.
Hausdorff distances are exact and taken only between vertex stacks
(`_pair_hausdorff`); the one sampled bracket, with a slack proven only for
d = 2, lives inside the intersection-continuity probe, which refuses
every other dimension. The Slater check pairs a polytope with a ball on
every row; its interior witness is verified against the ball in closed
form and on the polytope by a certified projection.

Everything is vectorized over batches of query points. The one public
projection, `project(x, body)`, takes a point or rows of points and a ball
(closed form) or a polytope (one `HullProjector`, which holds only its
vertex stack, so every call is pure). The projection-difference and
Slater checks are batched over rows: one call checks every trial, with
the polytopes of each side in one vertex stack, and the ball∩hull
multiplier search runs over all rows at once, one ball per row, each pass
projecting the rows still searching through one `HullProjector`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROJECTION_TOL = 1e-12
PROJECTION_BUDGET = 100_000
FEASIBILITY_TOL = 1e-8
# angles on the limit disc's boundary in the intersection-continuity probe
_CONTINUITY_GRID = 2048


class GeometryError(ValueError):
    pass


class DimensionMismatch(GeometryError):
    pass


class SlaterViolation(GeometryError):
    pass


class ProjectionDidNotConverge(RuntimeError):
    """Raised instead of returning an uncertified point. The constructor
    arguments stay in `args`, so the exception pickles with its residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message, residual)
        self.residual = residual

    def __str__(self) -> str:
        return f"{self.args[0]} (residual {self.residual:.3e})"


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


ConvexBody = Ball | Polytope


# ---------------------------------------------------------------------------
# batch kernels


def _rows(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x[None, :] if x.ndim == 1 else x


def _require_finite(x: np.ndarray) -> None:
    """A non-finite query has no certified projection."""
    if not np.isfinite(x).all():
        raise ProjectionDidNotConverge("projection of a non-finite query",
                                       float("nan"))


def project_balls(x: np.ndarray, centers: np.ndarray, radii) -> np.ndarray:
    """Row-wise projection onto balls B[centers[i], radii[i]]; a
    non-finite query raises ProjectionDidNotConverge."""
    x = _rows(x)
    _require_finite(x)
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
            # A member whose weight came out exactly zero (a query on a face
            # of its hull) leaves the corral, or the next major cycle stalls.
            corral &= lam > 0.0
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
    (m, n) boolean mask, and barycentric weights supported on it. Minor
    cycles move every row to the nearest point of its corral's affine hull,
    one batched solve per pass, and drop vertices whose weight would turn
    negative. Each major cycle checks the vertex-set certificate
    gap = max_v <x - p, v - p> <= tol * (1 + ||x||) * max(1, max_v ||v - x||)
    and adds the most violating vertex to the corral of every row that
    fails it. Rows retire as soon as their certificate holds; the result is
    exact on its support.

    The instance holds only its vertex stack `v`, so a call is pure. Every
    row starts at its nearest vertex, a one-vertex corral that is already
    its own affine minimizer, so the first major cycle skips its minor
    cycle.
    """

    def __init__(self, vertices: np.ndarray):
        v = np.asarray(vertices, dtype=float)
        self.v = v[None, :, :] if v.ndim == 2 else v

    def project(self, x: np.ndarray) -> np.ndarray:
        """The nearest point of each row's hull to its query, one query per
        row of the vertex stack.

        Raises ProjectionDidNotConverge when the certificate
        gap <= tol * (1 + ||x||) * max(1, max_v ||v - x||), tol =
        PROJECTION_TOL, does not hold on every row after PROJECTION_BUDGET
        major cycles, or when a row stops improving short of it, and before
        any work for a non-finite query, whatever the number of vertices.
        """
        x = _rows(x)
        m, n, d = self.v.shape
        if x.shape != (m, d):
            raise DimensionMismatch(
                f"expected query shape {(m, d)}, got {x.shape}")
        _require_finite(x)
        nearest, reach = _nearest_and_reach(self.v, x)
        # <x - p, v - p> is rounded at about eps ||x - p|| ||v - p||, so the
        # bound grows with the farthest vertex once it is beyond unit reach
        scale = PROJECTION_TOL * (1.0 + np.linalg.norm(x, axis=1)) * reach
        lam = np.zeros((m, n))
        lam[np.arange(m), nearest] = 1.0
        corral = lam > 0.0
        points = np.empty_like(x)
        gaps = np.full(m, np.inf)
        active = np.arange(m)
        entered = None
        for _ in range(PROJECTION_BUDGET):
            v, xa = self.v[active], x[active]
            kept, lam_a = corral[active], lam[active]
            if entered is not None:
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
        _certify(gaps, scale)
        return points


def _certify(gaps: np.ndarray, scale: np.ndarray) -> None:
    """Raise unless every row's gap is within its bound."""
    if not np.all(gaps <= scale):   # a NaN gap fails too
        raise ProjectionDidNotConverge(
            "hull projection left rows without certificate",
            float(np.max(gaps - scale)))


def _nearest_and_reach(stack: np.ndarray, x: np.ndarray):
    """Per row: the index of the vertex nearest to x, and
    max(1, max_v ||v - x||)."""
    w = stack - x[:, None, :]
    dist2 = np.einsum("mnd,mnd->mn", w, w)
    return dist2.argmin(axis=1), np.sqrt(dist2.max(axis=1, initial=1.0))


def _repeated_hull(poly: Polytope, m: int) -> np.ndarray:
    """The (m, n, d) vertex stack with the polytope's vertices on each row."""
    return np.broadcast_to(poly.vertices, (m,) + poly.vertices.shape)


def _project_cap(x: np.ndarray, centers, radii, stack: np.ndarray):
    """Rows of x projected onto B[c_i, r_i] cap H_i by one multiplier per row.

    `centers` is (d,) or (m, d) and `radii` a scalar or (m,); both
    broadcast over the m rows of x. Returns (points, P_H(x)). H_i is the
    hull of stack[i]; each pass projects only the rows still searching,
    through one `HullProjector` of their vertices. With mu the
    multiplier of the ball constraint and t = mu / (1 + mu), the KKT
    conditions give y = P_H((1 - t) x + t c) for one t in [0, 1), and
    phi(t) = ||y(t) - c|| - r does not increase in t (it is the derivative
    of a concave dual function). A row retires at t = 0 when phi(0) <= tol,
    and otherwise once a bracketed Illinois regula falsi on [0, 1] (t = 1
    projects c) finds |phi(t)| <= tol = PROJECTION_TOL * (1 + r), per row.
    With H's own certificate this certifies optimality, not only
    membership. When dist(c, H) >= r - tol the cap is the single point
    P_H(c) (tangency) or empty to within FEASIBILITY_TOL, and P_H(c) is
    returned.
    """
    c = np.broadcast_to(np.asarray(centers, dtype=float), x.shape)
    r = np.broadcast_to(np.asarray(radii, dtype=float), x.shape[:1])
    tol = PROJECTION_TOL * (1.0 + r)
    x_on_h = HullProjector(stack).project(x)
    y = x_on_h.copy()
    phi = np.linalg.norm(y - c, axis=1) - r
    active = np.flatnonzero(phi > tol)
    if active.size == 0:
        return y, x_on_h
    anchor = HullProjector(stack[active]).project(c[active])
    f_hi = np.linalg.norm(anchor - c[active], axis=1) - r[active]
    ends = f_hi >= -tol[active]
    y[active[ends]] = anchor[ends]
    active, f_hi = active[~ends], f_hi[~ends]
    f_lo = phi[active]
    lo, hi = np.zeros(active.size), np.ones(active.size)
    side = np.zeros(active.size)  # +1 / -1: which end the last step moved
    for _ in range(PROJECTION_BUDGET):
        if active.size == 0:
            return y, x_on_h
        t = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        ca = c[active]
        q = x[active] + t[:, None] * (ca - x[active])
        y[active] = HullProjector(stack[active]).project(q)
        f = np.linalg.norm(y[active] - ca, axis=1) - r[active]
        above = f > 0.0
        # Illinois: when the same end moves twice, halve the other's value.
        f_hi = np.where(above & (side > 0), 0.5 * f_hi, f_hi)
        f_lo = np.where(~above & (side < 0), 0.5 * f_lo, f_lo)
        lo, f_lo = np.where(above, t, lo), np.where(above, f, f_lo)
        hi, f_hi = np.where(above, hi, t), np.where(above, f_hi, f)
        side = np.where(above, 1.0, -1.0)
        go_on = np.abs(f) > tol[active]
        active, lo, hi, f_lo, f_hi, side, f = (
            a[go_on] for a in (active, lo, hi, f_lo, f_hi, side, f))
        if np.any(np.nextafter(lo, hi) >= hi):
            break  # a bracket with no float inside: rounding level
    raise ProjectionDidNotConverge(
        "ball-hull projection left rows without certificate",
        float(np.max(np.abs(f) - tol[active])))


# ---------------------------------------------------------------------------
# projection of points


def project(x, body: ConvexBody) -> np.ndarray:
    """Nearest point of the body to x, or to each row of a 2-D x.

    Balls project in closed form, polytopes with the certificate of
    `HullProjector` over their vertices.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != body.dim:
        raise DimensionMismatch("point and body dimensions differ")
    rows = _rows(x)
    if isinstance(body, Ball):
        points = project_balls(rows, body.center, body.radius)
    else:
        points = HullProjector(_repeated_hull(body, rows.shape[0])) \
            .project(rows)
    return points if x.ndim == 2 else points[0]


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


def _stack_distances(x: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Distance of x[i] to the hull of stack[i], in one batched solve."""
    return np.linalg.norm(x - HullProjector(stack).project(x), axis=1)


def _pair_hausdorff(stack_a: np.ndarray, stack_b: np.ndarray) -> np.ndarray:
    """Exact Hausdorff distances between paired vertex stacks, batched.

    Each directed value is the max over the source's vertices of the
    distance to the target hull: that distance is convex, so its sup over
    the source hull is attained at a vertex.
    """
    def directed(src, tgt):
        m, n_src, d = src.shape
        dists = _stack_distances(src.reshape(m * n_src, d),
                                 np.repeat(tgt, n_src, axis=0))
        return dists.reshape(m, n_src).max(axis=1)

    return np.maximum(directed(stack_a, stack_b), directed(stack_b, stack_a))


# ---------------------------------------------------------------------------
# diameters


def union_diameter_upper(vertices: np.ndarray, centers: np.ndarray,
                         radii: np.ndarray) -> np.ndarray:
    """Diameter of conv(vertices[i]) u B[centers[i], radii[i]] per row,
    exact: the largest of the vertex diameter, the ball's 2r, and the
    farthest vertex from the centre plus r (the distance to a point of the
    hull is convex, so its sup is attained at a vertex)."""
    def reach(p, q):
        diff = p[:, :, None, :] - q[:, None, :, :]
        return np.sqrt((diff ** 2).sum(-1)).max(axis=(1, 2))

    return np.maximum(np.maximum(reach(vertices, vertices), 2.0 * radii),
                      reach(vertices, centers[:, None, :]) + radii)


# ---------------------------------------------------------------------------
# sampled brackets


def _boundary_cloud(ball: Ball, vertices: np.ndarray):
    """(ball boundary sample plus `vertices`, Lipschitz slack of the sup).

    The boundary sample is the exact uniform grid of `_CONTINUITY_GRID`
    angles. The slack 2 pi r / _CONTINUITY_GRID is the covering arc of
    that grid, so the ball must be a disc: any other dimension raises
    `GeometryError`.
    """
    if ball.dim != 2:
        raise GeometryError("sampled brackets are certified only for d = 2")
    theta = 2.0 * np.pi * np.arange(_CONTINUITY_GRID) / _CONTINUITY_GRID
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    cloud = np.vstack([ball.center + ball.radius * dirs, vertices])
    return cloud, 2.0 * np.pi * ball.radius / _CONTINUITY_GRID


# ---------------------------------------------------------------------------
# lemma checks


def projection_difference_check(xs, bodies_c, bodies_d, big_radius: float):
    """(lhs, rhs) per row: ||p_C(x) - p_D(x)|| and
    sqrt((4||x|| + 2R) d_H(C, D)).

    Row i pairs the query xs[i] with the polytopes bodies_c[i] and
    bodies_d[i], which must lie in B[0, R]. The Hausdorff distances are
    exact and both projections are certified, all rows in stacked solves.
    """
    xs = _rows(xs)
    if not len(bodies_c) == len(bodies_d) == xs.shape[0]:
        raise GeometryError("need one pair of bodies per query")
    stack_c, stack_d = pad_vertex_stack(bodies_c), pad_vertex_stack(bodies_d)
    for stack in (stack_c, stack_d):
        if np.linalg.norm(stack, axis=2).max() > big_radius + 1e-9:
            raise GeometryError("bodies must lie in the ball of radius R at 0")
    hd = _pair_hausdorff(stack_c, stack_d)
    pc = HullProjector(stack_c).project(xs)
    pd = HullProjector(stack_d).project(xs)
    lhs = np.linalg.norm(pc - pd, axis=1)
    rhs = np.sqrt((4.0 * np.linalg.norm(xs, axis=1) + 2.0 * big_radius) * hd)
    return lhs, rhs


def slater_intersection_check(xs, polytopes, balls, x0s, rhos):
    """(lhs, rhs) per row: dist(x, A cap B) and
    (1 + diam(A u B)/rho)(dist(x,A) + dist(x,B)).

    Row i pairs the query xs[i] with the polytope A = polytopes[i], the
    ball B = balls[i] and the interior witness B[x0s[i], rhos[i]]; any other
    pairing raises `GeometryError`. The witnesses are verified exactly: x0
    in A by one stacked projection, B[x0, rho] inside B in closed form. The
    first failing row raises SlaterViolation. The witness makes A cap B
    nonempty, so the projections onto it are one `_project_cap` call over
    the polytopes' vertex stack; its first step projects x onto A, which
    gives A's term of the bound.
    """
    xs, x0s = _rows(xs), _rows(x0s)
    rhos = np.asarray(rhos, dtype=float)
    m = xs.shape[0]
    if not len(polytopes) == len(balls) == m == x0s.shape[0] == rhos.size:
        raise GeometryError("need one polytope, ball, witness and radius "
                            "per query")
    if not (all(isinstance(a, Polytope) for a in polytopes)
            and all(isinstance(b, Ball) for b in balls)):
        raise GeometryError("the Slater check takes a polytope and a ball "
                            "on every row (polytope/ball)")
    if any(body.dim != xs.shape[1] for body in (*polytopes, *balls)) \
            or x0s.shape != xs.shape:
        raise DimensionMismatch("queries, witnesses and bodies must share "
                                "dimension")
    vertices = pad_vertex_stack(polytopes)
    centers = np.array([b.center for b in balls])
    radii = np.array([b.radius for b in balls], dtype=float)

    outside = np.linalg.norm(x0s - HullProjector(vertices).project(x0s),
                             axis=1) > FEASIBILITY_TOL
    inside = (np.linalg.norm(x0s - centers, axis=1) + rhos
              <= radii + FEASIBILITY_TOL)
    failing = np.flatnonzero(outside | ~(inside & (rhos > 0.0)))
    if failing.size:
        i = failing[0]
        raise SlaterViolation(
            f"row {i}: " + ("witness point is not in the polytope"
                            if outside[i] else
                            "B[x0, rho] is not contained in the ball"))

    point, x_on_hull = _project_cap(xs, centers, radii, vertices)
    lhs = np.linalg.norm(xs - point, axis=1)
    to_ball = np.linalg.norm(xs - project_balls(xs, centers, radii), axis=1)
    to_hull = np.linalg.norm(xs - x_on_hull, axis=1)
    rhs = (1.0 + union_diameter_upper(vertices, centers, radii) / rhos) \
        * (to_ball + to_hull)
    return lhs, rhs


def intersection_continuity_probe(c_n, b_n: Polytope, r: float, c,
                                  b: Polytope) -> tuple[float, bool]:
    """(sampled gap between B[c_n, r] cap b_n and B[c, r] cap b, hypothesis).

    A fixed deterministic cloud, the limit disc's boundary grid plus the
    limit vertices (`_boundary_cloud`; only d = 2 is accepted), is
    projected onto both caps. The value is the larger of the two directed
    sampled sups plus the grid's covering slack. The images of the cloud
    cover the boundary of the limit cap, but not the part of the member
    cap outside the limit ball. So the value bounds the Hausdorff distance
    for translate pairs (c_n = c + s, b_n = b + s, gap |s|, attained at a
    covered support point of the limit cap), and for other pairs it can
    fall below it. One batched projection of the centres decides whether
    a cap is empty (its hull misses its ball by more than FEASIBILITY_TOL),
    which makes the value NaN, and whether the open ball B(c, r) meets b,
    which is the returned hypothesis flag.
    """
    balls = [Ball(c, r), Ball(c_n, r)]
    if any(body.dim != b.dim for body in (*balls, b_n)):
        raise DimensionMismatch("centres and polytopes must share dimension")
    cloud, slack = _boundary_cloud(balls[0], b.vertices)
    centres = np.array([ball.center for ball in balls])
    c, c_n = centres
    gaps = _stack_distances(centres, pad_vertex_stack([b, b_n]))
    hypothesis_ok = bool(gaps[0] < r - 1e-12)
    if np.any(gaps > r + FEASIBILITY_TOL):
        return float("nan"), hypothesis_ok
    m = cloud.shape[0]
    limit, member = _repeated_hull(b, m), _repeated_hull(b_n, m)
    limit_sample, _ = _project_cap(cloud, c, r, limit)
    sample_n, _ = _project_cap(cloud, c_n, r, member)
    to_limit = sample_n - _project_cap(sample_n, c, r, limit)[0]
    to_member = limit_sample - _project_cap(limit_sample, c_n, r, member)[0]
    return (float(max(np.linalg.norm(to_limit, axis=1).max(),
                      np.linalg.norm(to_member, axis=1).max())) + slack,
            hypothesis_ok)
