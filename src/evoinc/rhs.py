"""Set-valued right-hand sides evaluated as vertex hulls.

A BasisFamilyMap sends a state pair (u, v) to the convex hull of finitely
many coefficient-scaled orthonormal directions. Coefficients are either
`growth` form (a linear read-out of u plus a bounded v-feedback times ||v||,
which yields a linear growth envelope) or `general` form (any bounded
composition of declared primitives, which yields a constant envelope).
Sup-norm bounds are derived structurally from the composition tree, never
estimated numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry

ORTHONORMALITY_TOL = 1e-12


class RhsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# bounded scalar expressions


class Expr:
    """Scalar function of the state pair with a structural sup bound."""

    def eval(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized over leading axis: u (K, du), v (K, dv) -> (K,)."""
        raise NotImplementedError

    def bound(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def eval(self, u, v):
        return np.full(u.shape[0], self.value)

    def bound(self):
        return abs(self.value)


@dataclass(frozen=True)
class Inner(Expr):
    """Weighted inner product with a fixed direction, of u or of v."""
    arg: str  # "u" | "v"
    direction: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "direction",
                           np.asarray(self.direction, dtype=float))
        if self.arg not in ("u", "v"):
            raise RhsError("inner argument must be 'u' or 'v'")

    def eval(self, u, v):
        z = u if self.arg == "u" else v
        if z.shape[1] != self.direction.size:
            raise RhsError("inner-product direction has wrong dimension")
        return self.weight * (z @ self.direction)

    def bound(self):
        return math.inf


@dataclass(frozen=True)
class Norm(Expr):
    arg: str  # "u" | "v"
    weight: float = 1.0

    def eval(self, u, v):
        z = u if self.arg == "u" else v
        return math.sqrt(self.weight) * np.linalg.norm(z, axis=1)

    def bound(self):
        return math.inf


@dataclass(frozen=True)
class Affine(Expr):
    scale: float
    shift: float
    child: Expr

    def eval(self, u, v):
        return self.scale * self.child.eval(u, v) + self.shift

    def bound(self):
        return abs(self.scale) * self.child.bound() + abs(self.shift)


@dataclass(frozen=True)
class Sin(Expr):
    child: Expr

    def eval(self, u, v):
        return np.sin(self.child.eval(u, v))

    def bound(self):
        return min(1.0, self.child.bound())


@dataclass(frozen=True)
class Tanh(Expr):
    child: Expr

    def eval(self, u, v):
        return np.tanh(self.child.eval(u, v))

    def bound(self):
        return min(1.0, self.child.bound())


@dataclass(frozen=True)
class Clamp(Expr):
    lo: float
    hi: float
    child: Expr

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise RhsError("clamp needs lo <= hi")

    def eval(self, u, v):
        return np.clip(self.child.eval(u, v), self.lo, self.hi)

    def bound(self):
        return min(max(abs(self.lo), abs(self.hi)), self.child.bound())


def _reads_u(expr: Expr) -> bool:
    """Whether the `Inner` or `Norm` leaf under the wrappers of `expr`
    reads u; a `Const` leaf reads nothing."""
    while hasattr(expr, "child"):
        expr = expr.child
    return getattr(expr, "arg", None) == "u"


# ---------------------------------------------------------------------------
# coefficients and the map


@dataclass(frozen=True)
class GrowthCoefficient:
    """phi(u, v) = c * <u, e> + nu(v) * ||v|| with nu bounded."""
    c: float
    nu: Expr | None = None

    def __post_init__(self):
        if self.nu is not None:
            if _reads_u(self.nu):
                raise RhsError("v-feedback term must not depend on u")
            if not math.isfinite(self.nu.bound()):
                raise RhsError("v-feedback term needs a finite bound")

    @property
    def nu_bound(self) -> float:
        return 0.0 if self.nu is None else self.nu.bound()


@dataclass(frozen=True)
class GeneralCoefficient:
    """phi(u, v) = bounded composition of declared primitives."""
    expr: Expr

    def __post_init__(self):
        if not math.isfinite(self.expr.bound()):
            raise RhsError(
                "general coefficients need a structurally finite sup bound")

    @property
    def sup_bound(self) -> float:
        return self.expr.bound()


@dataclass(frozen=True)
class GrowthEnvelope:
    a: float
    b: float
    c: float

    def __post_init__(self):
        if min(self.a, self.b, self.c) < 0.0:
            raise RhsError("envelope constants must be nonnegative")

    def value(self, u_norm: float, v_norm: float) -> float:
        return self.a * u_norm + self.b * v_norm + self.c


@dataclass(frozen=True)
class BasisFamilyMap:
    """Hull of coefficient-scaled orthonormal directions in the target space."""

    basis: np.ndarray                 # (N, target_dim), rows orthonormal
    coefficients: tuple               # N entries
    include_origin: bool = False
    target_weight: float = 1.0        # inner-product weight of the target space
    u_weight: float = 1.0
    v_weight: float = 1.0

    def __post_init__(self):
        e = np.atleast_2d(np.asarray(self.basis, dtype=float))
        object.__setattr__(self, "basis", e)
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if len(self.coefficients) != e.shape[0]:
            raise RhsError("one coefficient per basis direction required")
        gram = self.target_weight * (e @ e.T)
        if np.abs(gram - np.eye(e.shape[0])).max() > ORTHONORMALITY_TOL:
            raise RhsError("basis directions must be orthonormal to 1e-12")
        has_growth = any(isinstance(c, GrowthCoefficient)
                         for c in self.coefficients)
        if has_growth and self.u_weight != self.target_weight:
            raise RhsError(
                "growth coefficients pair u with the target inner product; "
                "the weights must agree")

    @property
    def truncation(self) -> int:
        return self.basis.shape[0]

    @property
    def target_dim(self) -> int:
        return self.basis.shape[1]

    # -- evaluation ---------------------------------------------------------

    def coefficient_values(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """phi_n at each node: u (K, du), v (K, dv) -> (K, N)."""
        u = np.atleast_2d(np.asarray(u, dtype=float))
        v = np.atleast_2d(np.asarray(v, dtype=float))
        out = np.empty((u.shape[0], self.truncation))
        v_norm = math.sqrt(self.v_weight) * np.linalg.norm(v, axis=1)
        for n, coeff in enumerate(self.coefficients):
            if isinstance(coeff, GrowthCoefficient):
                if u.shape[1] != self.target_dim:
                    raise RhsError(
                        "growth coefficients pair u with the target basis; "
                        "dimensions differ")
                val = coeff.c * self.target_weight * (u @ self.basis[n])
                if coeff.nu is not None:
                    val = val + coeff.nu.eval(u, v) * v_norm
                out[:, n] = val
            else:
                out[:, n] = coeff.expr.eval(u, v)
        if not np.isfinite(out).all():
            raise RhsError("coefficient produced a non-finite value")
        return out

    def project(self, u: np.ndarray, v: np.ndarray,
                x: np.ndarray) -> np.ndarray:
        """The nearest image point to each row of x, the image taken at the
        same row of (u, v): (K, target_dim).

        The image is conv{phi_n e_n}, with the origin when `include_origin`
        or some phi_n = 0. With the coordinates y_n = w <x, e_n>, w =
        `target_weight`, and b_n = phi_n y_n, the nearest point is a
        continuous quadratic knapsack (Kiwiel 2008) with the exact answer
        sum_n c_n e_n, c_n = (b_n - mu)^+ / phi_n, where
        mu = max_k (sum_{S_k} b_n / phi_n^2 - 1) / sum_{S_k} 1 / phi_n^2
        over S_k = {n : phi_n != 0, b_n >= b_k}, clamped at 0 in the rows
        whose hull holds the origin. Every row is certified by
        `HullProjector`'s vertex gap test, evaluated in these coordinates,
        and a failing row raises ProjectionDidNotConverge; so does a
        non-finite query, before any work.
        """
        phi = self.coefficient_values(u, v)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        geometry._require_finite(x)
        if self.truncation == 1 and not self.include_origin:
            return phi @ self.basis
        w = self.target_weight
        # with the origin in the hull, its term in each maximum over the
        # vertices below is 0: the clamp of mu, its gap and its distance
        floor = 0.0 if self.include_origin else -np.inf
        y = w * (x @ self.basis.T)
        # each row in units of its largest |phi_n|, so that 1 / phi_n
        # stays finite: a phi_n below 1e-150 of it counts as 0, a vertex
        # at the origin to far below the certificate's tolerance
        scale = np.abs(phi).max(axis=1, keepdims=True)
        scale[scale == 0.0] = 1.0
        phi_s, y_s = phi / scale, y / scale
        live = np.abs(phi_s) > 1e-150
        inv = np.divide(1.0, phi_s, out=np.zeros_like(phi), where=live)
        b = phi_s * y_s
        # in_k[:, k, n]: n is in S_k; a zero phi_k's candidate 0 is the clamp
        in_k = (live[:, None, :] & (b[:, None, :] >= b[:, :, None])) * 1.0
        sums = in_k @ np.stack([y_s * inv, inv * inv], axis=2)
        mu = np.divide(sums[:, :, 0] - 1.0, sums[:, :, 1],
                       out=np.zeros_like(phi), where=live)
        mu = mu.max(axis=1, initial=floor)
        c = scale * np.maximum(b - mu[:, None], 0.0) * inv
        # per vertex v = phi_n e_n: w <x - p, v - p> + inner and w (||v - x||^2
        # - ||x||^2); the farthest vertex is at least ||x|| / sqrt(2) from x,
        # so these expanded forms round within the bound's eps ||x|| reach
        along = y - c
        inner = (along * c).sum(axis=1)
        gaps = (phi * along).max(axis=1, initial=floor) - inner
        xx = np.einsum("kd,kd->k", x, x)
        reach2 = xx + (phi * (phi - 2.0 * y)).max(axis=1, initial=floor) / w
        geometry._certify(gaps / w, geometry.PROJECTION_TOL
                          * (1.0 + np.sqrt(xx))
                          * np.sqrt(np.maximum(reach2, 1.0)))
        return c @ self.basis

    # -- envelopes ----------------------------------------------------------

    def growth_envelope(self) -> GrowthEnvelope:
        cs, nus, sups = [], [], []
        for coeff in self.coefficients:
            if isinstance(coeff, GrowthCoefficient):
                cs.append(coeff.c)
                nus.append(coeff.nu_bound)
            else:
                sups.append(coeff.sup_bound)
        return GrowthEnvelope(math.sqrt(2.0) * _norm(cs),
                              math.sqrt(2.0) * _norm(nus), _norm(sups))


def _norm(values: list) -> float:
    """Euclidean norm of the constants, 0 for none.

    `np.linalg.norm` squares them, which overflows above about 1.3e154;
    only there is the norm taken of the constants divided by the largest,
    so every norm that was finite keeps its bits. An envelope too large
    for a float is still infinite, which config validation rejects.
    """
    if not values:
        return 0.0
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(values))
    big = float(np.max(np.abs(values)))
    if math.isinf(norm) and math.isfinite(big):
        norm = big * float(np.linalg.norm(np.asarray(values) / big))
    return norm


@dataclass(frozen=True)
class SingletonAffineMap:
    """Degenerate single-valued member of the family: {A u + B v + c}.

    Covers the constant and affine right-hand sides used for decoupled
    consistency runs and for the linear cross-check of the coupled solver.
    """

    mat_u: np.ndarray
    mat_v: np.ndarray
    offset: np.ndarray
    target_weight: float = 1.0
    u_weight: float = 1.0
    v_weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mat_u", np.asarray(self.mat_u, dtype=float))
        object.__setattr__(self, "mat_v", np.asarray(self.mat_v, dtype=float))
        object.__setattr__(self, "offset", np.asarray(self.offset, dtype=float))
        if self.mat_u.shape[0] != self.offset.size or \
                self.mat_v.shape[0] != self.offset.size:
            raise RhsError("affine map blocks must share the target dimension")

    @classmethod
    def constant(cls, value: np.ndarray, dim_u: int, dim_v: int,
                 target_weight: float = 1.0, u_weight: float = 1.0,
                 v_weight: float = 1.0) -> "SingletonAffineMap":
        value = np.asarray(value, dtype=float)
        return cls(np.zeros((value.size, dim_u)), np.zeros((value.size, dim_v)),
                   value, target_weight, u_weight, v_weight)

    def project(self, u: np.ndarray, v: np.ndarray,
                x: np.ndarray) -> np.ndarray:
        """The one image point at each row of (u, v), the nearest to any
        query; a non-finite x raises ProjectionDidNotConverge."""
        geometry._require_finite(np.asarray(x, dtype=float))
        return u @ self.mat_u.T + v @ self.mat_v.T + self.offset

    def growth_envelope(self) -> GrowthEnvelope:
        sw_t = math.sqrt(self.target_weight)
        a = sw_t * float(np.linalg.norm(self.mat_u, 2)) / math.sqrt(self.u_weight)
        b = sw_t * float(np.linalg.norm(self.mat_v, 2)) / math.sqrt(self.v_weight)
        c = sw_t * float(np.linalg.norm(self.offset))
        return GrowthEnvelope(a, b, c)
