"""Finite-difference stencils on uniform 1-D grids.

Two boundary modes are supported: "periodic" wraps the grid (node M-1
neighbours node 0), and "neumann" is the open/non-periodic mode.
``_padded`` is the one ghost rule: it gives a validated copy of the
values with one ghost node beyond each end, the wrapped neighbour in the
periodic mode and the cubic extrapolation in the open mode.  Every
stencil is written once on that copy: ``derivatives`` returns the first
and second derivative from one pass, ``deriv1`` is its first stencil
alone, and ``flux_divergence`` pads its coefficient and its values and
applies one half-node formula.  The open-mode ghosts are exact on
cubics, so f'' and the flux form with a constant coefficient are exact
on cubics at every node.  The end nodes still carry larger errors than
the interior, and consumers trim them from any residual they report.
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

    Both grids are extended by ``_padded``'s ghosts, so one half-node
    formula serves every node.  Second order in the interior, with larger
    errors at the open ends (trim).
    """
    c = _padded(coef, boundary)
    v = _padded(values, boundary)
    if c.shape != v.shape:
        raise DomainError("coefficient and value grids differ in length")
    flux = 0.5 * (c[:-1] + c[1:]) * (v[1:] - v[:-1]) / h   # at j-1/2, j = 0..M
    return (flux[1:] - flux[:-1]) / h


def trim_slice(boundary: str) -> slice:
    """Interior slice for residual reporting (end nodes are lower order)."""
    if boundary == "periodic":
        return slice(None)
    return slice(TRIM_WIDTH, -TRIM_WIDTH)
