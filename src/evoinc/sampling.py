"""Deterministic low-discrepancy point clouds.

Every stochastic-looking sample in the package that is not driven by an
explicit seed comes from the Halton sequence, keyed only by (dimension,
count), so repeated runs are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def halton(count: int, dim: int, skip: int = 20) -> np.ndarray:
    """First `count` Halton points in [0,1)^dim (leading `skip` dropped)."""
    if dim > len(_PRIMES):
        raise ValueError(f"halton supports dim <= {len(_PRIMES)}, got {dim}")
    idx = np.arange(skip + 1, skip + count + 1, dtype=np.int64)
    out = np.empty((count, dim))
    for j in range(dim):
        base = _PRIMES[j]
        n = idx.copy()
        x = np.zeros(count)
        denom = 1.0
        while n.max() > 0:
            denom *= base
            n, rem = np.divmod(n, base)
            x += rem / denom
        out[:, j] = x
    return out


def _inverse_normal_cdf(u: np.ndarray) -> np.ndarray:
    """Quantile of the standard normal, refined to machine accuracy.

    Acklam's rational seed followed by two Halley corrections against
    math.erf; deterministic and dependency-free.
    """
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    x = np.empty_like(u)
    lo, hi = 0.02425, 1.0 - 0.02425
    mask_low = u < lo
    mask_high = u > hi
    mask_mid = ~(mask_low | mask_high)
    if mask_mid.any():
        q = u[mask_mid] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
        x[mask_mid] = q * num / den
    for mask, sign in ((mask_low, 1.0), (mask_high, -1.0)):
        if mask.any():
            uu = u[mask] if sign > 0 else 1.0 - u[mask]
            q = np.sqrt(-2.0 * np.log(uu))
            num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
            den = ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
            x[mask] = sign * num / den
    erf = np.vectorize(math.erf)
    for _ in range(2):
        e = 0.5 * (1.0 + erf(x / math.sqrt(2.0))) - u
        pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        x = x - e / np.maximum(pdf, 1e-300)
    return x


def sphere_points(count: int, dim: int) -> np.ndarray:
    """Deterministic quasi-uniform points on the unit sphere in R^dim.

    dim == 1 alternates the two endpoints; dim == 2 uses an exact uniform
    angle grid (best covering radius for the Lipschitz slack); dim >= 3
    maps Halton points through the normal quantile and normalizes.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    if dim == 1:
        pts = np.empty((count, 1))
        pts[::2, 0] = 1.0
        pts[1::2, 0] = -1.0
        return pts
    if dim == 2:
        theta = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    g = _inverse_normal_cdf(halton(count, dim))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms
