"""Grid-sampled selections of set-valued maps along state paths.

A selection assigns to every time node a member of the map's image at the
current states. Node-wise metric projection is the canonical generator;
the eps-close regeneration after a state update projects the old selection
onto the intersection of the new image with the eps-ball around the old
value, which keeps the new selection within eps node-wise and hence within
eps * sqrt(t1 - t0) in the path L2 norm.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import HullProjector
from .paths import TimePath, trapezoid_l2

MEMBERSHIP_TOL = 1e-8


class SelectionError(RuntimeError):
    pass


def nearest_point_selection(family, u: TimePath, v: TimePath,
                            anchor: TimePath) -> TimePath:
    """Node-wise certified projection of the anchor onto the image hulls
    along (u, v); all three paths must share one time grid.

    The returned values are exact convex combinations of the image
    vertices, so they are members of the images by construction. Every
    node's projection starts cold, at its nearest vertex; see
    `_resumed_selection` for the warm start of a relaxed iteration.
    """
    return _resumed_selection(family, u, v, anchor, None)[0]


def _resumed_selection(family, u: TimePath, v: TimePath, anchor: TimePath,
                       weights: np.ndarray | None):
    """`nearest_point_selection` resumed from barycentric weights.

    `weights` are the final weights of an earlier selection of the same
    family on the same grid, (nodes, vertices), or None for a cold start.
    Wolfe's method resumes from their support on the new hulls, so a node
    whose optimal face did not move needs no vertex to enter; a node that
    fails its certificate still enters vertices until it holds, and every
    returned point passes the same gap test as a cold projection. Returns
    (selection, node distances of the anchor to it in the target norm,
    final weights); the weights are None for one-vertex images, which need
    no iteration.
    """
    if not u.same_grid(v):
        raise ValueError("state paths must share the time grid")
    if not anchor.same_grid(u):
        raise ValueError("anchor must share the state grid")
    hull = HullProjector(family.vertex_array(u.values, v.values))
    hull.lam = weights
    points = hull.project(anchor.values)
    distances = math.sqrt(family.target_weight) * np.linalg.norm(
        anchor.values - points, axis=1)
    return (TimePath(u.t0, u.t1, points, family.target_weight), distances,
            hull.lam)


def selection_residual(family, u: TimePath, v: TimePath,
                       f: TimePath) -> float:
    """Trapezoid L2 norm of the node-wise distances of f to the images."""
    dists = node_distances(family, u, v, f)
    return trapezoid_l2(dists, f.dt)


def node_distances(family, u: TimePath, v: TimePath,
                   f: TimePath) -> np.ndarray:
    """Node-wise distance of f to the image hulls, in the target norm."""
    return _resumed_selection(family, u, v, f, None)[1]


def approximate_selection(family, u_new: TimePath, v: TimePath,
                          f: TimePath, eps: float) -> TimePath:
    """Selection of the images along (u_new, v) within eps of f node-wise.

    Feasibility demands dist(f(t_i), image_i) <= eps at every node; the
    node-wise target is the nearest point to f(t_i) of the closed eps-ball
    around f(t_i) intersected with the image hull. That ball is centred at
    the query itself, so the nearest point is the hull projection, which
    may leave the ball by MEMBERSHIP_TOL.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    new, gaps, _ = _resumed_selection(family, u_new, v, f, None)
    if np.any(gaps > eps + MEMBERSHIP_TOL):
        node = int(np.argmax(gaps))
        raise SelectionError(
            f"updated images left the eps-tube at node {node}: "
            f"distance {gaps[node]:.3e} > eps {eps:.3e} "
            "(state update too large for this eps)")
    return new
