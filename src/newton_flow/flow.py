"""Explicit time integration of the speed-sigma_r normal flow.

Three discretizations, matched to the geometry:

* round spheres (n >= 2) and the round factor of a cylinder: the state
  is the catalog ``Sphere`` itself, whose radius obeys R' = -C(n,r)/R^r,
  integrated as a scalar ODE with the closed form available for
  cross-checks;
* closed plane curves (n = 1, r = 1): polygon vertices move by the
  chord-based discrete curvature vector;
* surfaces of revolution (n = 2): the radial graph f(z, t) moves by
  df/dt = -sigma_r * sqrt(1 + f_z^2).

All three advance by one explicit scheme, ``_explicit_step``: forward
Euler, or the rk2 midpoint rule, with Dirichlet data imposed on each
stage when given.  Time steps follow dt <= cfl_safety * h^2 / (1 + sup
tr P_{r-1}), the coefficient of the principal part of the linearized
speed.  ``run`` evaluates one stage per state, for the initial state
and after each step: that stage sets the next dt, is handed to the step
and feeds the state's diagnostics row.  On surfaces of revolution it is
the one derivative pass of the state (``revolution_stage``), giving the
speed, the bound and the diagnostics' curvatures; rk2 adds one pass at
its midpoint.  The round factor has no grid: its bound takes h = 2 pi R
/ resolution and the closed-form trace tr P_{r-1} = (n-r+1)
sigma_{r-1}, sigma_p = C(n,p) / R^p (the paper's trace identity on the
round sphere; 0 once r-1 > n).  A bound shaped by the law's own time
scale instead, dt <= T_ext(R) / (4 resolution), leaves Euler outside a
1e-3 radius-law error on 21 of the 55 catalog laws at resolution 128,
so this h-shaped bound stays.  Runs are deterministic
for a fixed configuration.  The homothety monitor uses the canonical
rescaling phi(t) = (1 - (r+1) t)^(1/(r+1)) of catalog initial data; no
uniqueness of that normalization is claimed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from math import comb
from typing import NamedTuple

import numpy as np

from .catalog import (
    MAX_SAMPLES,
    Cylinder,
    EllipsoidRev,
    Hyperplane,
    HypersurfaceModel,
    Revolution,
    Sphere,
    revolution_curvatures,
    revolution_support,
)
from .errors import (
    CflViolationError,
    DomainError,
    ExtinctionError,
    NumericalError,
    check_order,
    float_range_error,
)

logger = logging.getLogger(__name__)

EXTINCTION_FRACTION = 1e-3   # stop when min radius falls below this * initial


# ---------------------------------------------------------------------------
# closed forms

def extinction_time(n: int, r: int, radius0: float) -> float:
    """Extinction time R0^(r+1) / ((r+1) C(n,r)) of a round n-sphere."""
    check_order(r, n)
    if not radius0 > 0:
        raise DomainError("radius must be positive")
    try:
        return radius0 ** (r + 1) / ((r + 1) * comb(n, r))
    except OverflowError as exc:
        raise float_range_error("R", radius0, r + 1) from exc


def sphere_radius_exact(n: int, r: int, radius0: float, t: float) -> float:
    """Exact sphere radius (R0^(r+1) - (r+1) C(n,r) t)^(1/(r+1)).

    Raises ExtinctionError (carrying the extinction time) for t at or
    past extinction.
    """
    if t < 0:
        raise DomainError("time must be nonnegative")
    t_ext = extinction_time(n, r, radius0)
    core = radius0 ** (r + 1) - (r + 1) * comb(n, r) * t
    if core <= 0:
        raise ExtinctionError(t_ext)
    return core ** (1.0 / (r + 1))


def homothety_factor(r: int, t: float) -> float:
    """Canonical rescaling phi(t) = (1 - (r+1) t)^(1/(r+1)), clamped at 0."""
    core = 1.0 - (r + 1) * t
    return core ** (1.0 / (r + 1)) if core > 0 else 0.0


def sphere_band_pin(radius0: float, r: int, half_width: float, n: int = 2):
    """Dirichlet data for a shrinking sphere band: edges follow the law.

    Returns a callable t -> (f_left, f_right) suitable for
    FlowConfig.boundary_values, raising ExtinctionError once the band
    edge reaches the shrinking sphere's equator.
    """
    hw2 = half_width * half_width

    def values(t: float):
        radius = sphere_radius_exact(n, r, radius0, t)
        core = radius * radius - hw2
        if core <= 0:
            raise ExtinctionError(t, reason="band pinch")
        edge = math.sqrt(core)
        return edge, edge

    return values


# ---------------------------------------------------------------------------
# state containers

@dataclass(eq=False)
class CurveGeometry:
    vertices: np.ndarray      # (V, 2), closed polygon, CCW

    @property
    def min_radius(self) -> float:
        return float(np.linalg.norm(self.vertices, axis=1).min())


@dataclass(eq=False)
class RevolutionGeometryState:
    z: np.ndarray
    f: np.ndarray
    boundary: str
    orientation: int

    @property
    def h(self) -> float:
        return float(self.z[1] - self.z[0])

    @property
    def min_radius(self) -> float:
        return float(self.f.min())


@dataclass(eq=False)
class FlowState:
    t: float
    geometry: object
    step_count: int = 0


@dataclass(frozen=True)
class Diagnostics:
    t: float
    max_shrinker_residual: float
    homothety_defect: float     # nan when rescaled monitoring is off
    min_radius: float
    dt: float
    resampled: bool = False


@dataclass(frozen=True)
class FlowConfig:
    r: int
    model: HypersurfaceModel
    t_end: float
    resolution: int = 128
    cfl_safety: float = 0.25
    rescaled: bool = False
    scheme: str = "euler"        # "euler" | "rk2"
    output_stride: int = 10
    resample_every: int = 0      # curve arclength redistribution (0 = off)
    boundary_values: object = None   # callable t -> (f_left, f_right) for bands

    def __post_init__(self):
        if not 0 < self.t_end < math.inf:
            raise DomainError("t_end must be positive and finite")
        if not 1 <= self.resolution <= MAX_SAMPLES:
            raise DomainError(f"resolution must lie in 1..{MAX_SAMPLES}")
        if self.resample_every < 0:
            raise DomainError("resample_every must be >= 0")
        if not 0 < self.cfl_safety <= 1:
            raise DomainError("cfl_safety must lie in (0, 1]")
        if self.scheme not in ("euler", "rk2"):
            raise DomainError(f"unknown scheme {self.scheme!r}")
        if self.output_stride < 1:
            raise DomainError("output_stride must be >= 1")
        check_order(self.r, self.model.n)


@dataclass(eq=False)
class RunResult:
    diagnostics: list
    status: str                  # "completed" | "extinct" | "stationary"
    state: FlowState

    @property
    def final(self) -> Diagnostics:
        return self.diagnostics[-1]


# ---------------------------------------------------------------------------
# the explicit scheme

def _explicit_step(x, speed, speed_at, t, dt, scheme, pin=None):
    """One explicit step of dx/dt = speed_at(x) from x at time t.

    speed is speed_at(x), already evaluated by the caller.  euler takes
    x + dt * speed; rk2 is the midpoint rule x + dt * speed_at(x + dt/2 *
    speed).  pin(values, t), when given, imposes Dirichlet data on the
    midpoint and on the result.
    """
    if scheme == "euler":
        x_new = x + dt * speed
    else:
        half = x + 0.5 * dt * speed
        x_new = x + dt * speed_at(half if pin is None else pin(half, t + 0.5 * dt))
    return x_new if pin is None else pin(x_new, t + dt)


# ---------------------------------------------------------------------------
# polygon curves (n = 1, r = 1)

def circle_polygon(radius: float, vertices: int) -> np.ndarray:
    """Regular CCW polygon inscribed in the circle of the given radius."""
    if vertices < 16:
        raise DomainError("closed curves need >= 16 vertices")
    theta = 2.0 * np.pi * np.arange(vertices) / vertices
    return radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)


def _curve_edges(v: np.ndarray):
    d_next = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
    diam = float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))
    if d_next.min() < 1e-12 * max(diam, 1e-300):
        raise DomainError("degenerate polygon edge")
    return d_next, np.roll(d_next, 1)


def curve_speed(v: np.ndarray) -> np.ndarray:
    """Discrete curvature vector kappa*N from neighboring vertices.

    Exact (1/R, radial) on a regular polygon inscribed in a circle;
    points inward on convex CCW curves.
    """
    d_next, d_prev = _curve_edges(v)
    t_next = (np.roll(v, -1, axis=0) - v) / d_next[:, None]
    t_prev = (v - np.roll(v, 1, axis=0)) / d_prev[:, None]
    return 2.0 * (t_next - t_prev) / (d_prev + d_next)[:, None]


def curve_normals_curvature(v: np.ndarray):
    """Unit inward normals (CCW orientation) and signed curvature."""
    kn = curve_speed(v)
    chord = np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)
    normal = np.stack([-chord[:, 1], chord[:, 0]], axis=1)
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    kappa = np.sum(kn * normal, axis=1)
    return normal, kappa


def curve_cfl_bound(v: np.ndarray) -> float:
    """Stability envelope dt <= h_min^2 / (1 + sup tr P_0), with tr P_0 = 1."""
    d_next, _ = _curve_edges(v)
    return float(d_next.min() ** 2) / 2.0


def step_curve(state: FlowState, dt: float, scheme: str = "euler") -> FlowState:
    """Advance a closed polygon one explicit step of the curvature flow."""
    v = state.geometry.vertices
    if v.shape[0] < 16:
        raise DomainError("closed curves need >= 16 vertices")
    if dt > curve_cfl_bound(v) * (1.0 + 1e-9):
        raise CflViolationError(f"dt={dt:.3e} above the curve stability bound")
    v_new = _explicit_step(v, curve_speed(v), curve_speed, state.t, dt, scheme)
    return FlowState(t=state.t + dt, geometry=CurveGeometry(vertices=v_new),
                     step_count=state.step_count + 1)


def resample_curve(v: np.ndarray) -> np.ndarray:
    """Redistribute polygon vertices uniformly by arclength."""
    closed = np.vstack([v, v[:1]])
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, s[-1], v.shape[0], endpoint=False)
    x = np.interp(targets, s, closed[:, 0])
    y = np.interp(targets, s, closed[:, 1])
    return np.stack([x, y], axis=1)


# ---------------------------------------------------------------------------
# surfaces of revolution (n = 2)

class RevolutionStage(NamedTuple):
    """One derivative pass over a radial graph, for one speed law r."""

    geometry: RevolutionGeometryState   # the state it was computed from
    r: int
    fp: np.ndarray        # f'
    w: np.ndarray         # sqrt(1 + f'^2)
    k_mer: np.ndarray     # oriented meridional curvature
    k_par: np.ndarray     # oriented parallel curvature
    sigma: np.ndarray     # sigma_r(k_mer, k_par)
    speed: np.ndarray     # df/dt
    bound: float          # explicit stability bound on dt


def revolution_stage(geo: RevolutionGeometryState, r: int) -> RevolutionStage:
    """Curvatures, speed and CFL bound of the radial graph from one pass.

    The speed is df/dt = -o * sigma_r(oriented curvatures) * sqrt(1 + f_z^2)
    and the bound dt <= h^2 / (1 + sup_j sum |sigma_{r-1}(A_j)|).
    """
    h = geo.h
    fp, _, w, k_mer, k_par = revolution_curvatures(geo.f, h, geo.boundary,
                                                   geo.orientation)
    o = float(geo.orientation)
    if r == 1:
        sigma = k_mer + k_par
        coeff = 2.0   # tr P_0 = n = 2, state independent
    elif r == 2:
        sigma = k_mer * k_par
        # tr P_1 = |f''|/w^3 + 1/(f w): |o (-f'') / w^3| and o * (o / (f w))
        # are exactly those numbers, since o = +-1 only flips signs
        coeff = float((np.abs(k_mer) + o * k_par).max())
    else:
        raise DomainError("revolution flow supports r in {1, 2}")
    try:
        h_sq = h ** 2
    except OverflowError as exc:      # h above ~1.3e154
        raise float_range_error("h", h, 2) from exc
    return RevolutionStage(geo, r, fp, w, k_mer, k_par, sigma, -o * sigma * w,
                           h_sq / (1.0 + coeff))


def step_revolution(state: FlowState, r: int, dt: float,
                    scheme: str = "euler", boundary_values=None,
                    stage: RevolutionStage | None = None) -> FlowState:
    """Advance the radial graph one explicit step; detects pinching.

    Without boundary_values the end nodes evolve by the extrapolating
    stencils (the band then follows the closure's own boundary data, not
    any particular continuation).  With boundary_values(t) -> (left,
    right) the end nodes are pinned, giving a clean Dirichlet problem.

    stage, when given, is the revolution_stage of state.geometry at this
    r (run computes it to choose dt).  A stage computed for any other
    geometry or r is ignored and recomputed.  Raises NumericalError when
    the new profile holds a NaN.
    """
    geo = state.geometry
    if stage is None or stage.geometry is not geo or stage.r != r:
        stage = revolution_stage(geo, r)
    if dt > stage.bound * (1.0 + 1e-9):
        raise CflViolationError(f"dt={dt:.3e} above the revolution stability bound")

    def speed_at(f):
        return revolution_stage(replace_f(geo, f), r).speed

    def pin(values, t):
        values[0], values[-1] = boundary_values(t)
        return values

    f_new = _explicit_step(geo.f, stage.speed, speed_at, state.t, dt, scheme,
                           None if boundary_values is None else pin)
    f_min = f_new.min()
    if f_min <= 0.0:
        raise ExtinctionError(state.t + dt, reason="pinch")
    if math.isnan(f_min):
        raise NumericalError(f"non-finite profile at t={state.t + dt:.6g}")
    return FlowState(
        t=state.t + dt,
        geometry=replace_f(geo, f_new),
        step_count=state.step_count + 1,
    )


def replace_f(geo: RevolutionGeometryState, f_new: np.ndarray) -> RevolutionGeometryState:
    return RevolutionGeometryState(z=geo.z, f=f_new, boundary=geo.boundary,
                                   orientation=geo.orientation)


# ---------------------------------------------------------------------------
# diagnostics

def _residual_phi(config, t: float) -> float:
    """Rescaling applied to the shrinker residual.

    With rescaled monitoring on, the residual is measured on the
    rescaled surface X/phi(t) (curvatures scale by phi, support by
    1/phi): the residual of a homothetically shrinking solution then
    stays small, while the plain residual of the same solution grows
    like phi^-(r+1).
    """
    if not config.rescaled:
        return 1.0
    phi = homothety_factor(config.r, t)
    return phi if phi > 0 else 1.0


def _sphere_diagnostics(state, config, dt, initial_geometry, _stage, resampled=False):
    n, r = state.geometry.n, config.r
    radius = state.geometry.radius
    phi = _residual_phi(config, state.t)
    try:
        residual = abs(phi ** r * comb(n, r) / radius ** r - radius / phi)
    except (OverflowError, ZeroDivisionError) as exc:
        raise float_range_error("R", radius, r) from exc
    defect = math.nan
    if config.rescaled:
        defect = abs(radius - homothety_factor(r, state.t) * initial_geometry.radius)
    return Diagnostics(t=state.t, max_shrinker_residual=residual,
                       homothety_defect=defect, min_radius=radius, dt=dt,
                       resampled=resampled)


def _curve_diagnostics(state, config, dt, initial_geometry, _stage, resampled=False):
    v, v0 = state.geometry.vertices, initial_geometry.vertices
    normal, kappa = curve_normals_curvature(v)
    support = np.sum(v * normal, axis=1)
    phi = _residual_phi(config, state.t)
    residual = float(np.abs(phi * kappa + support / phi).max())
    defect = math.nan
    if config.rescaled:
        phi_h = homothety_factor(config.r, state.t)
        defect = float(np.linalg.norm(v - phi_h * v0, axis=1).max())
    return Diagnostics(t=state.t, max_shrinker_residual=residual,
                       homothety_defect=defect,
                       min_radius=state.geometry.min_radius,
                       dt=dt, resampled=resampled)


def _revolution_diagnostics(state, config, dt, initial_geometry, stage,
                            resampled=False):
    """Diagnostics row of a radial graph from its state's revolution_stage."""
    geo = state.geometry
    f0, z0 = initial_geometry.f, initial_geometry.z
    support = revolution_support(geo.z, geo.f, stage.fp, stage.w, geo.orientation)
    phi = _residual_phi(config, state.t)
    residual = float(np.abs(phi ** config.r * stage.sigma + support / phi).max())
    defect = math.nan
    if config.rescaled:
        phi_h = homothety_factor(config.r, state.t)
        if phi_h > 0:
            inside = np.abs(geo.z / phi_h) <= z0.max()
            ref = phi_h * np.interp(geo.z[inside] / phi_h, z0, f0)
            defect = float(np.abs(geo.f[inside] - ref).max()) if inside.any() else math.nan
        else:
            defect = float(np.abs(geo.f).max())
    return Diagnostics(t=state.t, max_shrinker_residual=residual,
                       homothety_defect=defect, min_radius=geo.min_radius,
                       dt=dt, resampled=resampled)


# ---------------------------------------------------------------------------
# the driver

def _initial_state(config: FlowConfig) -> FlowState:
    model = config.model
    if isinstance(model, Hyperplane):
        return FlowState(t=0.0, geometry=model)
    if isinstance(model, Sphere) and model.n == 1:
        verts = circle_polygon(model.radius, config.resolution)
        return FlowState(t=0.0, geometry=CurveGeometry(vertices=verts))
    if isinstance(model, Sphere):
        return FlowState(t=0.0, geometry=model)
    if isinstance(model, Cylinder):
        # spherical factor shrinks by the same scalar law; flat part inert
        return FlowState(t=0.0, geometry=Sphere(n=model.m, radius=model.radius))
    if isinstance(model, EllipsoidRev):
        model = model.as_revolution(config.resolution)
    if isinstance(model, Revolution):
        p = model.profile
        return FlowState(t=0.0, geometry=RevolutionGeometryState(
            z=p.z.copy(), f=p.f.copy(), boundary=p.boundary,
            orientation=model.orientation))
    raise DomainError(f"cannot evolve {type(model).__name__}")


def _sphere_cfl_bound(geom: Sphere, r: int, resolution: int) -> float:
    n, radius = geom.n, geom.radius
    # tr P_{r-1} = (n-r+1) sigma_{r-1}, sigma_p = C(n,p)/R^p; 0 once r-1 > n
    try:
        trace_p = (n - r + 1) * comb(n, r - 1) / radius ** (r - 1)
    except (OverflowError, ZeroDivisionError) as exc:   # so does R^r
        raise float_range_error("R", radius, r) from exc
    h = 2.0 * np.pi * radius / resolution
    return h * h / (1.0 + trace_p)


def _step_sphere(state: FlowState, config: FlowConfig, dt: float) -> FlowState:
    geom = state.geometry
    n, r = geom.n, config.r

    def rate(radius):
        if radius <= 0:     # an rk2 midpoint past extinction
            raise ExtinctionError(state.t + dt)
        try:
            return -comb(n, r) / radius ** r
        except (OverflowError, ZeroDivisionError) as exc:
            raise float_range_error("R", radius, r) from exc

    new_radius = _explicit_step(geom.radius, rate(geom.radius), rate, state.t, dt,
                                config.scheme)
    if new_radius <= 0:
        raise ExtinctionError(state.t + dt)
    return FlowState(t=state.t + dt, geometry=Sphere(n=n, radius=new_radius),
                     step_count=state.step_count + 1)


def run(config: FlowConfig) -> RunResult:
    """Adaptive explicit time loop until t_end or extinction.

    Diagnostics are emitted at t = 0, every output_stride steps, and at
    the final accepted state.  Deterministic for a fixed configuration.
    """
    state = _initial_state(config)
    diagnostics: list = []

    if isinstance(state.geometry, Hyperplane):
        # sigma_r = 0: stationary; report start and end
        diag0 = Diagnostics(t=0.0, max_shrinker_residual=0.0,
                            homothety_defect=0.0 if config.rescaled else math.nan,
                            min_radius=0.0, dt=config.t_end)
        diagnostics.append(diag0)
        state = FlowState(t=config.t_end, geometry=state.geometry, step_count=1)
        diagnostics.append(replace(diag0, t=config.t_end))
        return RunResult(diagnostics=diagnostics, status="stationary", state=state)

    # per geometry: its diagnostics, and a stage/advance pair where stage
    # returns (dt bound, whatever advance and diagnose reuse of it)
    geom = state.geometry
    if isinstance(geom, Sphere):
        diagnose = _sphere_diagnostics

        def stage(s):
            return _sphere_cfl_bound(s.geometry, config.r, config.resolution), None

        def advance(s, dt, _):
            return _step_sphere(s, config, dt)
    elif isinstance(geom, CurveGeometry):
        if config.r != 1:
            raise DomainError("plane curves support r = 1 only")
        diagnose = _curve_diagnostics

        def stage(s):
            return curve_cfl_bound(s.geometry.vertices), None

        def advance(s, dt, _):
            return step_curve(s, dt, config.scheme)
    else:
        diagnose = _revolution_diagnostics

        def stage(s):
            st = revolution_stage(s.geometry, config.r)
            return st.bound, st

        def advance(s, dt, st):
            return step_revolution(s, config.r, dt, config.scheme,
                                   config.boundary_values, st)

    def make_diag(s, dt, st, resampled=False):
        # steps build new arrays, so the initial geometry stays as it was
        return diagnose(s, config, dt, geom, st, resampled)

    initial_radius = geom.min_radius
    bound, reuse = stage(state)
    diagnostics.append(make_diag(state, 0.0, reuse))
    status = "completed"
    resampled_last = False
    last_dt = 0.0
    while state.t < config.t_end * (1.0 - 1e-14):
        dt = min(config.cfl_safety * bound, config.t_end - state.t)
        if not state.t + dt > state.t:    # an underflowed bound would never end
            raise NumericalError(f"time step {dt:.3e} does not advance t={state.t:.6g}")
        try:
            state = advance(state, dt, reuse)
        except ExtinctionError as exc:
            logger.info("flow stopped: %s", exc)
            status = "extinct"
            break
        last_dt = dt
        resampled_last = False
        if (isinstance(state.geometry, CurveGeometry) and config.resample_every
                and state.step_count % config.resample_every == 0):
            state = FlowState(
                t=state.t,
                geometry=CurveGeometry(resample_curve(state.geometry.vertices)),
                step_count=state.step_count)
            resampled_last = True
        bound, reuse = stage(state)
        if state.geometry.min_radius < EXTINCTION_FRACTION * initial_radius:
            status = "extinct"
            diagnostics.append(make_diag(state, dt, reuse, resampled_last))
            break
        if state.step_count % config.output_stride == 0:
            diagnostics.append(make_diag(state, dt, reuse, resampled_last))
    if diagnostics[-1].t < state.t:
        diagnostics.append(make_diag(state, last_dt, reuse, resampled_last))
    return RunResult(diagnostics=diagnostics, status=status, state=state)
