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
from dataclasses import dataclass

import numpy as np

from .geometry import HullProjector
from .paths import TimePath, trapezoid_l2

MEMBERSHIP_TOL = 1e-8
L2_SLACK = 1e-6


class SelectionError(RuntimeError):
    pass


@dataclass(frozen=True)
class SelectionPath:
    path: TimePath
    residuals: np.ndarray  # node-wise distance to the target set

    def __post_init__(self):
        r = np.asarray(self.residuals, dtype=float)
        object.__setattr__(self, "residuals", r)
        if r.shape != (self.path.num_nodes,):
            raise ValueError("one residual per node required")

    @property
    def values(self) -> np.ndarray:
        return self.path.values

    def is_valid(self) -> bool:
        return bool(np.all(self.residuals <= MEMBERSHIP_TOL))


def _project_onto_images(family, u: TimePath, v: TimePath,
                         anchor: TimePath) -> np.ndarray:
    """Node-wise certified projections of the anchor onto the image hulls
    along (u, v); all three paths must share one time grid."""
    if not u.same_grid(v):
        raise ValueError("state paths must share the time grid")
    if not anchor.same_grid(u):
        raise ValueError("anchor must share the state grid")
    verts = family.vertex_array(u.values, v.values)
    points, _ = HullProjector(verts).project(anchor.values)
    return points


def nearest_point_selection(family, u: TimePath, v: TimePath,
                            anchor: TimePath) -> SelectionPath:
    """Node-wise projection of the anchor onto the image hulls.

    The returned values are exact convex combinations of the image
    vertices, so the membership residuals vanish by construction.
    """
    points = _project_onto_images(family, u, v, anchor)
    path = TimePath(u.t0, u.t1, points, family.target_weight)
    return SelectionPath(path, np.zeros(u.num_nodes))


def selection_residual(family, u: TimePath, v: TimePath,
                       f: TimePath) -> float:
    """Trapezoid L2 norm of the node-wise distances of f to the images."""
    dists = node_distances(family, u, v, f)
    return trapezoid_l2(dists, f.dt)


def node_distances(family, u: TimePath, v: TimePath,
                   f: TimePath) -> np.ndarray:
    """Node-wise distance of f to the image hulls, in the target norm."""
    points = _project_onto_images(family, u, v, f)
    w = math.sqrt(family.target_weight)
    return w * np.linalg.norm(f.values - points, axis=1)


def approximate_selection(family, u_new: TimePath, v: TimePath,
                          f: SelectionPath, eps: float) -> SelectionPath:
    """Selection of the images along (u_new, v) within eps of f node-wise.

    Feasibility demands dist(f(t_i), image_i) <= eps at every node; the
    node-wise target is the nearest point to f(t_i) of the closed eps-ball
    around f(t_i) intersected with the image hull. That ball is centred at
    the query itself, so the nearest point is the hull projection, and the
    residuals are its excess over eps, which may reach MEMBERSHIP_TOL.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    hull_points = _project_onto_images(family, u_new, v, f.path)
    w = math.sqrt(family.target_weight)
    gaps = w * np.linalg.norm(f.values - hull_points, axis=1)
    if np.any(gaps > eps + MEMBERSHIP_TOL):
        node = int(np.argmax(gaps))
        raise SelectionError(
            f"updated images left the eps-tube at node {node}: "
            f"distance {gaps[node]:.3e} > eps {eps:.3e} "
            "(state update too large for this eps)")
    path = TimePath(u_new.t0, u_new.t1, hull_points, family.target_weight)
    return SelectionPath(path, np.maximum(gaps - eps, 0.0))


def convex_combination(f: SelectionPath, g: SelectionPath,
                       theta: float) -> TimePath:
    """(1 - theta) f + theta g on the shared grid."""
    if not f.path.same_grid(g.path):
        raise ValueError("selections must share the time grid")
    vals = (1.0 - theta) * f.values + theta * g.values
    return f.path.with_values(vals)
