"""Finite-difference stencils on uniform 1-D grids.

Two boundary modes are supported: "periodic" wraps the grid (node M-1
neighbours node 0), and "neumann" is the open/non-periodic mode.
``_fill_ghosts`` is the one ghost rule: it sets one ghost node beyond
each end of a padded buffer, the wrapped neighbour in the periodic mode
and the cubic extrapolation in the open mode, and ``_padded`` gives a
float64 copy of the values (``errors.as_floats``) with those ghosts.
The private ``_stencil`` binds one grid (its size, h, boundary mode and
padded buffer) once and returns ``apply``, which checks nothing and
gives the first and second derivative from one padded pass: it is the
one source of both centred differences, and a run that differentiates
the same grid at every step binds it once.
``flux_divergence`` pads its coefficient and its values and applies one
half-node formula.  The open-mode ghosts are exact on cubics, so f''
and the flux form with a constant coefficient are exact on cubics at
every node.  The end nodes still carry larger errors than the interior,
and consumers trim them from any residual they report.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, as_floats, brief

BOUNDARY_MODES = ("periodic", "neumann")
TRIM_WIDTH = 2        # end nodes left out of reported residuals, per open end


def _check_grid(size: int, boundary: str):
    if size < 5:
        raise DomainError("grid needs at least 5 nodes")
    if boundary not in BOUNDARY_MODES:
        raise DomainError(f"unknown boundary mode {brief(boundary)}")


def _fill_ghosts(p: np.ndarray, boundary: str):
    """Set the ghosts p[0] and p[-1] of a buffer whose p[1:-1] holds the values.

    The ghosts wrap around in the periodic mode and are cubic
    extrapolations in the open mode.  The extrapolations are taken in
    Python floats, which round as float64 does but overflow to inf or
    nan with no numpy flag or warning.
    """
    if boundary == "periodic":
        p[0], p[-1] = p[-2], p[1]
    else:
        a, b, c, d = p[1:5].tolist()
        p[0] = 4.0 * a - 6.0 * b + 4.0 * c - d
        a, b, c, d = p[-2:-6:-1].tolist()
        p[-1] = 4.0 * a - 6.0 * b + 4.0 * c - d


def _padded(values, boundary: str, what: str) -> np.ndarray:
    """Validated values with one ghost node at each end (``_fill_ghosts``)."""
    v = as_floats(values, what)
    _check_grid(v.size if v.ndim == 1 else 0, boundary)
    p = np.empty(v.size + 2)
    p[1:-1] = v
    _fill_ghosts(p, boundary)
    return p


def _stencil(size: int, h: float, boundary: str = "neumann"):
    """The derivative pass of one grid, with the grid's constants bound once.

    Returns apply(values) -> (f', f''), centred everywhere, for float64
    values of the given size.  2h, h^2 and 2 are bound as 0-d arrays,
    which numpy applies faster than Python floats, to the same doubles.
    The grid's one padded buffer and its views are made here: each call
    copies the values into it, so one caller at a time may use an
    apply, and returns new arrays that share no memory with the buffer.
    """
    _check_grid(size, boundary)
    two_h, h_sq, two = np.array(2.0 * h), np.array(h * h), np.array(2.0)
    p = np.empty(size + 2)
    inner, right, left = p[1:-1], p[2:], p[:-2]

    def apply(values):
        inner[...] = values
        _fill_ghosts(p, boundary)
        return (right - left) / two_h, (right - inner * two + left) / h_sq

    return apply


def flux_divergence(coef, values, h: float, boundary: str = "neumann") -> np.ndarray:
    """Conservative form (d/dz)(coef * dv/dz) with half-node coefficients.

    Both grids are extended by ``_padded``'s ghosts, so one half-node
    formula serves every node.  Second order in the interior, with larger
    errors at the open ends (trim).
    """
    c = _padded(coef, boundary, "coefficient")
    v = _padded(values, boundary, "values")
    if c.shape != v.shape:
        raise DomainError("coefficient and value grids differ in length")
    flux = 0.5 * (c[:-1] + c[1:]) * (v[1:] - v[:-1]) / h   # at j-1/2, j = 0..M
    return (flux[1:] - flux[:-1]) / h


def trim_slice(boundary: str) -> slice:
    """Interior slice for residual reporting (end nodes are lower order)."""
    if boundary == "periodic":
        return slice(None)
    return slice(TRIM_WIDTH, -TRIM_WIDTH)
