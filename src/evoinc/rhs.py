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

from .geometry import Polytope, hausdorff_distance, project_polytope

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

    def depends_on_u(self) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def eval(self, u, v):
        return np.full(u.shape[0], self.value)

    def bound(self):
        return abs(self.value)

    def depends_on_u(self):
        return False


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

    def depends_on_u(self):
        return self.arg == "u"


@dataclass(frozen=True)
class Norm(Expr):
    arg: str  # "u" | "v"
    weight: float = 1.0

    def eval(self, u, v):
        z = u if self.arg == "u" else v
        return math.sqrt(self.weight) * np.linalg.norm(z, axis=1)

    def bound(self):
        return math.inf

    def depends_on_u(self):
        return self.arg == "u"


@dataclass(frozen=True)
class Affine(Expr):
    scale: float
    shift: float
    child: Expr

    def eval(self, u, v):
        return self.scale * self.child.eval(u, v) + self.shift

    def bound(self):
        return abs(self.scale) * self.child.bound() + abs(self.shift)

    def depends_on_u(self):
        return self.child.depends_on_u()


@dataclass(frozen=True)
class Sin(Expr):
    child: Expr

    def eval(self, u, v):
        return np.sin(self.child.eval(u, v))

    def bound(self):
        return min(1.0, self.child.bound())

    def depends_on_u(self):
        return self.child.depends_on_u()


@dataclass(frozen=True)
class Tanh(Expr):
    child: Expr

    def eval(self, u, v):
        return np.tanh(self.child.eval(u, v))

    def bound(self):
        return min(1.0, self.child.bound())

    def depends_on_u(self):
        return self.child.depends_on_u()


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

    def depends_on_u(self):
        return self.child.depends_on_u()


# ---------------------------------------------------------------------------
# coefficients and the map


@dataclass(frozen=True)
class GrowthCoefficient:
    """phi(u, v) = c * <u, e> + nu(v) * ||v|| with nu bounded."""
    c: float
    nu: Expr | None = None

    def __post_init__(self):
        if self.nu is not None:
            if self.nu.depends_on_u():
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
class GrowthCheck:
    max_vertex_norm: float
    envelope_value: float
    passed: bool
    envelope: GrowthEnvelope


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

    @property
    def num_vertices(self) -> int:
        return self.truncation + (1 if self.include_origin else 0)

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

    def vertex_array(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Stacked hull vertices per node: (K, num_vertices, target_dim)."""
        phi = self.coefficient_values(u, v)
        verts = phi[:, :, None] * self.basis[None, :, :]
        if self.include_origin:
            zeros = np.zeros((verts.shape[0], 1, self.target_dim))
            verts = np.concatenate([verts, zeros], axis=1)
        return verts

    def evaluate(self, u: np.ndarray, v: np.ndarray) -> Polytope:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return Polytope(self.vertex_array(u[None, :], v[None, :])[0])

    # -- envelopes ----------------------------------------------------------

    def growth_envelope(self) -> GrowthEnvelope:
        cs, nus, sups = [], [], []
        for coeff in self.coefficients:
            if isinstance(coeff, GrowthCoefficient):
                cs.append(coeff.c)
                nus.append(coeff.nu_bound)
            else:
                sups.append(coeff.sup_bound)
        # a constant too large to square is an infinite envelope, which the
        # window computation then rejects, not an overflow warning
        with np.errstate(over="ignore"):
            a = math.sqrt(2.0) * float(np.linalg.norm(cs)) if cs else 0.0
            b = math.sqrt(2.0) * float(np.linalg.norm(nus)) if nus else 0.0
            c = float(np.linalg.norm(sups)) if sups else 0.0
        return GrowthEnvelope(a, b, c)

    def growth_check(self, u: np.ndarray, v: np.ndarray) -> GrowthCheck:
        """Per-vertex check of the quadratic growth estimate.

        Growth-form vertices are tested against
        ||x||^2 <= 2 ||(c_k)||^2 ||u||^2 + 2 ||(nu_k)||^2 ||v||^2;
        general-form vertices fall back to their declared sup bounds.
        Convexity extends a per-vertex pass to the whole hull.
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        phi = self.coefficient_values(u[None, :], v[None, :])[0]
        u_norm = math.sqrt(self.u_weight) * float(np.linalg.norm(u))
        v_norm = math.sqrt(self.v_weight) * float(np.linalg.norm(v))
        env = self.growth_envelope()
        quad = 0.5 * env.a ** 2 * u_norm ** 2 + 0.5 * env.b ** 2 * v_norm ** 2
        ok = True
        max_vertex = 0.0
        for n, coeff in enumerate(self.coefficients):
            vertex_norm = abs(phi[n])  # basis rows are unit in the target norm
            max_vertex = max(max_vertex, vertex_norm)
            if isinstance(coeff, GrowthCoefficient):
                ok = ok and vertex_norm ** 2 <= 2.0 * quad + 1e-12
            else:
                ok = ok and vertex_norm <= coeff.sup_bound + 1e-12
        return GrowthCheck(max_vertex, env.value(u_norm, v_norm), ok, env)

    # -- probes -------------------------------------------------------------

    def distance_to_image(self, x: np.ndarray, u: np.ndarray,
                          v: np.ndarray) -> float:
        """Distance of x to the hull at (u, v), in the target norm."""
        poly = self.evaluate(u, v)
        p = project_polytope(np.asarray(x, dtype=float), poly)
        return math.sqrt(self.target_weight) * float(np.linalg.norm(x - p))

    def hausdorff_modulus_probe(self, pairs, resolution: int = 64):
        """[(input distance, Hausdorff distance of the two hulls)] per pair.

        Input distance is ||u - u'|| + ||v - v'|| in the weighted state
        norms; hull distances are exact (polytope sources) and reported in
        the target norm.
        """
        out = []
        sw_u = math.sqrt(self.u_weight)
        sw_v = math.sqrt(self.v_weight)
        sw_t = math.sqrt(self.target_weight)
        for (u, v), (u2, v2) in pairs:
            du = sw_u * float(np.linalg.norm(np.asarray(u) - np.asarray(u2)))
            dv = sw_v * float(np.linalg.norm(np.asarray(v) - np.asarray(v2)))
            bracket = hausdorff_distance(self.evaluate(u, v),
                                         self.evaluate(u2, v2), resolution)
            out.append((du + dv, sw_t * bracket.upper))
        return out


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

    @property
    def target_dim(self) -> int:
        return self.offset.size

    @property
    def num_vertices(self) -> int:
        return 1

    def vertex_array(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u = np.atleast_2d(np.asarray(u, dtype=float))
        v = np.atleast_2d(np.asarray(v, dtype=float))
        pts = u @ self.mat_u.T + v @ self.mat_v.T + self.offset
        return pts[:, None, :]

    def evaluate(self, u: np.ndarray, v: np.ndarray) -> Polytope:
        return Polytope(self.vertex_array(u[None, :], v[None, :])[0])

    def growth_envelope(self) -> GrowthEnvelope:
        sw_t = math.sqrt(self.target_weight)
        a = sw_t * float(np.linalg.norm(self.mat_u, 2)) / math.sqrt(self.u_weight)
        b = sw_t * float(np.linalg.norm(self.mat_v, 2)) / math.sqrt(self.v_weight)
        c = sw_t * float(np.linalg.norm(self.offset))
        return GrowthEnvelope(a, b, c)
