"""Shared oracle helpers for the test suite.

Everything in here is deliberately independent of the package's projection
machinery: polygon distances are computed edge-by-edge, hulls come from a
plain monotone chain, grid searches enumerate candidates directly, and the
vertices of a basis-family image are built from its coefficients. The
CPU helpers make `evoinc.forks` fork or run inline, and check that no child
outlives a call.
"""

import os

import numpy as np
import pytest


def monotone_chain(points: np.ndarray) -> np.ndarray:
    """Counter-clockwise convex hull vertices of 2D points."""
    pts = sorted(map(tuple, points))
    if len(pts) <= 2:
        return np.asarray(pts, dtype=float)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.asarray(lower[:-1] + upper[:-1], dtype=float)


def point_segment_distance(p, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def point_in_polygon(p, hull: np.ndarray, tol: float = 1e-12) -> bool:
    """Membership in a counter-clockwise convex polygon."""
    n = hull.shape[0]
    if n == 1:
        return bool(np.linalg.norm(p - hull[0]) <= tol)
    if n == 2:
        return point_segment_distance(p, hull[0], hull[1]) <= tol
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross < -tol:
            return False
    return True


def polygon_distance(p, hull: np.ndarray) -> float:
    """Distance of a point to a convex polygon (0 inside)."""
    if point_in_polygon(p, hull):
        return 0.0
    n = hull.shape[0]
    if n == 1:
        return float(np.linalg.norm(p - hull[0]))
    return min(point_segment_distance(p, hull[i], hull[(i + 1) % n])
               for i in range(n))


def polygon_distances(points: np.ndarray, hull: np.ndarray) -> np.ndarray:
    """Vectorized distances of many points to a convex ccw polygon."""
    points = np.atleast_2d(points)
    n = hull.shape[0]
    if n == 1:
        return np.linalg.norm(points - hull[0], axis=1)
    edge_d = np.full((points.shape[0], n), np.inf)
    inside = np.ones(points.shape[0], dtype=bool)
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        ab = b - a
        denom = float(ab @ ab)
        t = np.clip((points - a) @ ab / max(denom, 1e-300), 0.0, 1.0)
        feet = a + t[:, None] * ab
        edge_d[:, i] = np.linalg.norm(points - feet, axis=1)
        if n >= 3:
            cross = (b[0] - a[0]) * (points[:, 1] - a[1]) \
                - (b[1] - a[1]) * (points[:, 0] - a[0])
            inside &= cross >= -1e-12
    if n < 3:
        return edge_d.min(axis=1)
    return np.where(inside, 0.0, edge_d.min(axis=1))


def polygon_boundary_sample(hull: np.ndarray, step: float) -> np.ndarray:
    """Points along the polygon boundary at roughly the given arc step."""
    n = hull.shape[0]
    if n == 1:
        return hull.copy()
    out = []
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        length = float(np.linalg.norm(b - a))
        count = max(int(np.ceil(length / step)), 1)
        for j in range(count):
            out.append(a + (b - a) * j / count)
    return np.asarray(out)


def hull_vertices(family, u, v) -> np.ndarray:
    """Vertex stack of a `BasisFamilyMap`'s images at the rows of (u, v):
    (K, N, target_dim), phi_n e_n, or (K, N + 1, target_dim) with the
    origin appended when the family includes it."""
    phi = family.coefficient_values(u, v)
    verts = phi[:, :, None] * family.basis
    if family.include_origin:
        origin = np.zeros((verts.shape[0], 1, family.target_dim))
        verts = np.concatenate([verts, origin], axis=1)
    return verts


def set_cpus(monkeypatch, count: int):
    """Make `os.sched_getaffinity` name `count` CPUs: with 2 the fork helper
    forks, with 1 it runs inline."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
