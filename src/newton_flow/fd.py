"""Finite-difference stencils on uniform 1-D grids.

Two boundary modes are supported: "periodic" wraps the grid (node M-1
neighbours node 0), and "neumann" is the open/non-periodic mode, where
cubic extrapolation supplies one ghost value beyond each end node.
Both modes go through one validated, ghost-padded copy of the values
(``_padded``), on which the centred stencils are written once:
``derivatives`` returns the first and second derivative from that one
pass, and ``deriv1`` is its first stencil alone.  At the open ends the
first derivative is second order (exact for zero-slope data) and the
second derivative lower order; consumers trim end nodes from any
residual they report.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

BOUNDARY_MODES = ("periodic", "neumann")
TRIM_WIDTH = 2        # end nodes left out of reported residuals, per open end


def _check(values: np.ndarray, boundary: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 5:
        raise DomainError("grid needs at least 5 nodes")
    if boundary not in BOUNDARY_MODES:
        raise DomainError(f"unknown boundary mode {boundary!r}")
    return v


def _padded(values, boundary: str) -> np.ndarray:
    """Validated values with one ghost node at each end.

    The ghosts wrap around in the periodic mode and are cubic
    extrapolations in the open mode.
    """
    v = _check(values, boundary)
    p = np.empty(v.size + 2)
    p[1:-1] = v
    if boundary == "periodic":
        p[0], p[-1] = v[-1], v[0]
    else:
        p[0] = 4.0 * v[0] - 6.0 * v[1] + 4.0 * v[2] - v[3]
        p[-1] = 4.0 * v[-1] - 6.0 * v[-2] + 4.0 * v[-3] - v[-4]
    return p


def derivatives(values, h: float, boundary: str = "neumann"):
    """First and second derivative, centred everywhere, from one padded pass."""
    p = _padded(values, boundary)
    first = (p[2:] - p[:-2]) / (2.0 * h)
    return first, (p[2:] - 2.0 * p[1:-1] + p[:-2]) / (h * h)


def deriv1(values, h: float, boundary: str = "neumann") -> np.ndarray:
    """First derivative alone: the first stencil of ``derivatives``."""
    p = _padded(values, boundary)
    return (p[2:] - p[:-2]) / (2.0 * h)


def flux_divergence(coef, values, h: float, boundary: str = "neumann") -> np.ndarray:
    """Conservative form (d/dz)(coef * dv/dz) with half-node coefficients.

    Second order in the interior.  In the open mode the end nodes use
    quadratically extrapolated ghost values (first-order there; trim).
    """
    c = _check(coef, boundary)
    v = _check(values, boundary)
    if c.shape != v.shape:
        raise DomainError("coefficient and value grids differ in length")
    if boundary == "periodic":
        c_half = 0.5 * (c + np.roll(c, -1))       # coef at j+1/2
        flux = c_half * (np.roll(v, -1) - v) / h  # flux at j+1/2
        return (flux - np.roll(flux, 1)) / h
    out = np.empty_like(v)
    c_half = 0.5 * (c[:-1] + c[1:])               # length M-1, at j+1/2
    flux = c_half * (v[1:] - v[:-1]) / h
    out[1:-1] = (flux[1:] - flux[:-1]) / h
    # ghosts: quadratic extrapolation of v, linear extrapolation of coef
    c_left = 0.5 * (3.0 * c[0] - c[1])
    v_left = 3.0 * v[0] - 3.0 * v[1] + v[2]
    flux_left = c_left * (v[0] - v_left) / h
    out[0] = (flux[0] - flux_left) / h
    c_right = 0.5 * (3.0 * c[-1] - c[-2])
    v_right = 3.0 * v[-1] - 3.0 * v[-2] + v[-3]
    flux_right = c_right * (v_right - v[-1]) / h
    out[-1] = (flux_right - flux[-1]) / h
    return out


def trim_slice(boundary: str) -> slice:
    """Interior slice for residual reporting (end nodes are lower order)."""
    if boundary == "periodic":
        return slice(None)
    return slice(TRIM_WIDTH, -TRIM_WIDTH)
