"""Uniformly sampled time paths with trapezoid time integration.

A TimePath stores node values of a state-valued function on a uniform grid
over [t0, t1]. State norms use a scalar mesh weight so both spectral
coefficient vectors (weight 1) and grid functions (weight h) share the one
container. The time L2 norm is the composite trapezoid rule, exact for
piecewise-linear integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimePath:
    t0: float
    t1: float
    values: np.ndarray  # (K, dim)
    weight: float = 1.0  # scalar weight of the state inner product

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        object.__setattr__(self, "values", v)
        if not self.t1 > self.t0:
            raise ValueError("need t1 > t0")
        if v.shape[0] < 2:
            raise ValueError("need at least two time samples")
        if not np.isfinite(v).all():
            raise ValueError("path values must be finite")
        if self.weight <= 0.0:
            raise ValueError("state weight must be positive")

    @property
    def num_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / (self.num_nodes - 1)

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.num_nodes)

    def node_norms(self) -> np.ndarray:
        return np.sqrt(self.weight) * np.linalg.norm(self.values, axis=1)

    def same_grid(self, other: "TimePath") -> bool:
        return (self.num_nodes == other.num_nodes
                and _isclose(self.t0, other.t0)
                and _isclose(self.t1, other.t1))

    def with_values(self, values: np.ndarray) -> "TimePath":
        return TimePath(self.t0, self.t1, values, self.weight)


def _isclose(a: float, b: float) -> bool:
    """np.isclose(a, b) with its defaults rtol = 1e-5 and atol = 1e-8, on
    plain floats: equal values, or finite ones within the tolerance."""
    if a == b:
        return True
    return math.isfinite(b) and abs(a - b) <= 1e-8 + 1e-5 * abs(b)


def path_l2_norm(path: TimePath) -> float:
    """Trapezoid L2(t0, t1) norm of the path."""
    return trapezoid_l2(path.node_norms(), path.dt)


def trapezoid_l2(node_values: np.ndarray, dt: float) -> float:
    """sqrt of the trapezoid integral of node_values**2."""
    sq = np.asarray(node_values, dtype=float) ** 2
    integral = dt * (sq.sum() - 0.5 * (sq[0] + sq[-1]))
    return float(np.sqrt(max(integral, 0.0)))


def path_distance(p: TimePath, q: TimePath) -> float:
    """Trapezoid L2 distance between two paths on the same grid."""
    if not p.same_grid(q):
        raise ValueError("paths must share the time grid")
    diff = np.sqrt(p.weight) * np.linalg.norm(p.values - q.values, axis=1)
    return trapezoid_l2(diff, p.dt)


def zero_path(t0: float, t1: float, num_nodes: int, dim: int,
              weight: float = 1.0) -> TimePath:
    return TimePath(t0, t1, np.zeros((num_nodes, dim)), weight)


def constant_path(t0: float, t1: float, num_nodes: int, value: np.ndarray,
                  weight: float = 1.0) -> TimePath:
    value = np.asarray(value, dtype=float)
    return TimePath(t0, t1, np.tile(value, (num_nodes, 1)), weight)
