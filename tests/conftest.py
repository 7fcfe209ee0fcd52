"""Shared oracles and generators for the test suite.

The oracles here are deliberately independent of the package internals:
brute-force subset enumeration for symmetric functions, closed-form
curvature of an ellipsoid of revolution from hand-differentiated
formulas, and the finite-difference stencils written out per boundary
mode.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest


def brute_sigma(k, r: int) -> float:
    """sigma_r by explicit enumeration of all r-subsets."""
    k = list(k)
    if r == 0:
        return 1.0
    if r > len(k):
        return 0.0
    return float(sum(math.prod(c) for c in itertools.combinations(k, r)))


def brute_sigma_excluding(k, i: int, r: int) -> float:
    k = list(k)
    return brute_sigma(k[:i] + k[i + 1:], r)


def random_orthogonal(rng: np.random.RandomState, n: int) -> np.ndarray:
    q, rmat = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(rmat))


def random_symmetric(rng: np.random.RandomState, n: int,
                     positive: bool = False) -> np.ndarray:
    """Symmetric operator with controlled eigenvalues and random frame."""
    eig = rng.standard_normal(n)
    if positive:
        eig = np.abs(eig) + 0.1
    q = random_orthogonal(rng, n)
    return (q * eig) @ q.T


def ellipsoid_gauss_curvature(a: float, b: float, z) -> np.ndarray:
    """Closed-form Gauss curvature of the spheroid profile f = a*sqrt(1-(z/b)^2).

    Uses exact derivatives of the profile:
        f'  = -a z / (b^2 u),          u = sqrt(1 - z^2/b^2)
        f'' = -(a/(b^2 u)) (1 + z^2/(b^2 u^2))
        K   = -f'' / (f (1 + f'^2)^2)
    """
    z = np.asarray(z, dtype=float)
    u = np.sqrt(1.0 - (z / b) ** 2)
    f = a * u
    fp = -(a * z) / (b * b * u)
    fpp = -(a / (b * b * u)) * (1.0 + z * z / (b * b * u * u))
    return -fpp / (f * (1.0 + fp * fp) ** 2)


def _reference_ghosts(v: np.ndarray):
    """Cubic-extrapolated ghost values one node beyond each end."""
    left = 4.0 * v[0] - 6.0 * v[1] + 4.0 * v[2] - v[3]
    right = 4.0 * v[-1] - 6.0 * v[-2] + 4.0 * v[-3] - v[-4]
    return left, right


def reference_deriv1(values, h: float, boundary: str = "neumann") -> np.ndarray:
    """First derivative as separate per-mode stencils (fd's former code)."""
    v = np.asarray(values, dtype=float)
    if boundary == "periodic":
        return (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * h)
    left, right = _reference_ghosts(v)
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (v[1] - left) / (2.0 * h)
    d[-1] = (right - v[-2]) / (2.0 * h)
    return d


def reference_deriv2(values, h: float, boundary: str = "neumann") -> np.ndarray:
    """Second derivative as separate per-mode stencils (fd's former code)."""
    v = np.asarray(values, dtype=float)
    if boundary == "periodic":
        return (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / (h * h)
    left, right = _reference_ghosts(v)
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    d[0] = (v[1] - 2.0 * v[0] + left) / (h * h)
    d[-1] = (right - 2.0 * v[-1] + v[-2]) / (h * h)
    return d


@pytest.fixture
def rng() -> np.random.RandomState:
    return np.random.RandomState(20240811)
