"""Grid-sampled selections of set-valued maps along state paths.

A selection assigns to every time node a member of the map's image at the
current states. Node-wise metric projection is the canonical generator,
taken by the family itself: a basis-family image conv{phi_n e_n} has its
nearest point in closed form (`BasisFamilyMap.project`), and a singleton
image is its own nearest point. The eps-close regeneration after a state
update projects the old selection onto the intersection of the new image
with the eps-ball around the old value, which keeps the new selection
within eps node-wise and hence within eps * sqrt(t1 - t0) in the path L2
norm.
"""

from __future__ import annotations

import math

import numpy as np

from .paths import TimePath, trapezoid_l2

MEMBERSHIP_TOL = 1e-8


class SelectionError(RuntimeError):
    pass


def nearest_point_selection(family, u: TimePath, v: TimePath,
                            anchor: TimePath) -> TimePath:
    """Node-wise certified projection of the anchor onto the image hulls
    along (u, v), by the family's closed-form `project`; all three paths
    must share one time grid."""
    return _selection(family, u, v, anchor)[0]


def _selection(family, u: TimePath, v: TimePath, anchor: TimePath):
    """(`nearest_point_selection` of the anchor, node distances of the
    anchor to it in the target norm), from one projection pass."""
    if not u.same_grid(v):
        raise ValueError("state paths must share the time grid")
    if not anchor.same_grid(u):
        raise ValueError("anchor must share the state grid")
    points = family.project(u.values, v.values, anchor.values)
    distances = math.sqrt(family.target_weight) * np.linalg.norm(
        anchor.values - points, axis=1)
    return TimePath(u.t0, u.t1, points, family.target_weight), distances


def selection_residual(family, u: TimePath, v: TimePath,
                       f: TimePath) -> float:
    """Trapezoid L2 norm of the node-wise distances of f to the images."""
    dists = node_distances(family, u, v, f)
    return trapezoid_l2(dists, f.dt)


def node_distances(family, u: TimePath, v: TimePath,
                   f: TimePath) -> np.ndarray:
    """Node-wise distance of f to the image hulls, in the target norm."""
    return _selection(family, u, v, f)[1]


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
    new, gaps = _selection(family, u_new, v, f)
    if np.any(gaps > eps + MEMBERSHIP_TOL):
        node = int(np.argmax(gaps))
        raise SelectionError(
            f"updated images left the eps-tube at node {node}: "
            f"distance {gaps[node]:.3e} > eps {eps:.3e} "
            "(state update too large for this eps)")
    return new
