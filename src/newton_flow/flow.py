"""Explicit time integration of the speed-sigma_r normal flow.

Two discretizations, matched to the geometry: the round law R' =
-C(n,r)/R^r of spheres (the circle n = 1 among them) and of the round
factor of a cylinder, whose state is the catalog ``Sphere``; and
surfaces of revolution (n = 2), whose radial graph f(z, t) moves by
df/dt = -sigma_r * sqrt(1 + f_z^2).

Each has one stage function, giving a state's ``Stage``: its speed and
step bound dt <= h^2 / (1 + sup tr|P_{r-1}|) from one pass.  These are
``revolution_stage``, read off the graph's catalog curvature record, and
the round law's closed forms (h = 2 pi R / resolution, tr P_{r-1} =
(n-r+1) C(n,r-1) / R^(r-1); a bound from the law's own time scale,
T_ext(R) / (4 resolution), leaves Euler outside a 1e-3 radius-law error
on 21 of the 55 catalog laws at resolution 128).
``step`` is the one explicit step for every geometry: it recomputes a
stage built for another state or r, refuses dt above the bound, advances
by ``_explicit_step`` (forward Euler or the rk2 midpoint rule, with the
Dirichlet data of ``FlowConfig.boundary_values`` imposed on each stage)
and runs one guard: a non-positive radius is extinction (reason "pinch"
on radial graphs) and a NaN is a NumericalError.

``run`` evaluates one stage per state, which sets the next dt, is handed
to the step and feeds the diagnostics row.  It estimates T / (cfl_safety
* bound) steps from the first stage, T being t_end or, if sooner, the
closed-form extinction time of a round law, and refuses a run above
``MAX_STEPS`` steps (DomainError); one that passes ``MAX_STEPS`` anyway
stops with a NumericalError.  Runs are deterministic for a fixed
configuration.  The homothety monitor uses the canonical rescaling
phi(t) = (1 - (r+1) t)^(1/(r+1)) of catalog initial data; no uniqueness
of that normalization is claimed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import partial
from math import comb
from operator import attrgetter, methodcaller
from typing import Callable, NamedTuple

import numpy as np

from .catalog import (
    MAX_SAMPLES,
    Cylinder,
    EllipsoidRev,
    Hyperplane,
    HypersurfaceModel,
    Revolution,
    Sphere,
    radial_graph,
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
MAX_STEPS = 10 ** 7   # step budget of one run; the longest test run takes 433,500


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
    boundary_values: object = None   # callable t -> (f_left, f_right) for bands

    def __post_init__(self):
        if not 0 < self.t_end < math.inf:
            raise DomainError("t_end must be positive and finite")
        if not 1 <= self.resolution <= MAX_SAMPLES:
            raise DomainError(f"resolution must lie in 1..{MAX_SAMPLES}")
        if not 0 < self.cfl_safety <= 1:
            raise DomainError("cfl_safety must lie in (0, 1]")
        if self.scheme not in ("euler", "rk2"):
            raise DomainError(f"unknown scheme {self.scheme!r}")
        if self.output_stride < 1:
            raise DomainError("output_stride must be >= 1")
        check_order(self.r, self.model.n)
        if (self.boundary_values is not None
                and not isinstance(self.model, (Revolution, EllipsoidRev))):
            raise DomainError("boundary_values needs a revolution model")


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
# the round law (spheres, and the round factor of cylinders)

class Stage:
    """Speed and explicit step bound of one state, for one speed law r.

    A slots class: one is built every step, where a NamedTuple's
    constructor costs a measurable share of a round-law step."""

    __slots__ = ("geometry", "r", "speed", "bound", "graph", "sigma")

    def __init__(self, geometry, r: int, speed, bound: float, graph=None, sigma=None):
        self.geometry = geometry  # the state it was computed from
        self.r = r
        self.speed = speed        # R' of the round law, df/dt of a radial graph
        self.bound = bound        # explicit stability bound on dt
        self.graph = graph        # a radial graph's curvature record, and
        self.sigma = sigma        # its sigma_r, for the diagnostics row


def _round_stage(geom: Sphere, config: FlowConfig) -> Stage:
    """R' = -C(n,r)/R^r and the bound h^2 / (1 + tr P_{r-1}), h = 2 pi R / resolution."""
    n, r, radius = geom.n, config.r, geom.radius
    try:
        # tr P_{r-1} = (n-r+1) sigma_{r-1}, sigma_p = C(n,p)/R^p; 0 once r-1 > n
        trace_p = (n - r + 1) * comb(n, r - 1) / radius ** (r - 1)
        speed = -comb(n, r) / radius ** r
    except (OverflowError, ZeroDivisionError) as exc:
        raise float_range_error("R", radius, r) from exc
    h = 2.0 * np.pi * radius / config.resolution
    return Stage(geom, r, speed, h * h / (1.0 + trace_p))


# ---------------------------------------------------------------------------
# surfaces of revolution (n = 2)

def revolution_stage(geo: RevolutionGeometryState, r: int) -> Stage:
    """Curvature record, speed and step bound of the radial graph from one pass.

    The speed is df/dt = -o * sigma_r(oriented curvatures) * sqrt(1 + f_z^2)
    and the bound dt <= h^2 / (1 + sup_j tr|P_{r-1}(A_j)|).
    """
    graph = radial_graph(geo.z, geo.f, geo.h, geo.boundary, geo.orientation)
    coeff = graph.p_trace_sup(r)     # refuses r outside {1, 2}
    sigma = graph.sigma(r)
    try:
        h_sq = graph.h ** 2
    except OverflowError as exc:      # h above ~1.3e154
        raise float_range_error("h", graph.h, 2) from exc
    return Stage(geo, r, -float(geo.orientation) * sigma * graph.w,
                 h_sq / (1.0 + coeff), graph, sigma)


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


def _sphere_diagnostics(state, config, dt, initial_geometry, _stage):
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
                       homothety_defect=defect, min_radius=radius, dt=dt)


def _revolution_diagnostics(state, config, dt, initial_geometry, stage):
    """Diagnostics row of a radial graph from its state's revolution_stage."""
    geo = state.geometry
    f0, z0 = initial_geometry.f, initial_geometry.z
    phi = _residual_phi(config, state.t)
    support = stage.graph.support
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
                       homothety_defect=defect, min_radius=geo.min_radius, dt=dt)


# ---------------------------------------------------------------------------
# the driver

def _initial_state(config: FlowConfig) -> FlowState:
    model = config.model
    if isinstance(model, Hyperplane):
        return FlowState(t=0.0, geometry=model)
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


class _Kind(NamedTuple):
    """What step and run need to know of one kind of flow state."""

    stage: Callable       # (geometry, config) -> its stage
    values: Callable      # geometry -> the values that move
    rebuild: Callable     # (geometry, values) -> the geometry holding them
    radius: Callable      # values -> smallest radius, for the guard
    name: str             # what a NaN made non-finite
    reason: str           # ExtinctionError reason of a non-positive radius
    diagnose: Callable    # the state's diagnostics row
    extinction: Callable  # (geometry, r) -> closed-form extinction time, or inf


_KINDS = {
    Sphere: _Kind(
        _round_stage, attrgetter("radius"), lambda geom, radius: Sphere(geom.n, radius),
        float, "radius", "extinct", _sphere_diagnostics,
        lambda geom, r: extinction_time(geom.n, r, geom.radius)),
    RevolutionGeometryState: _Kind(
        lambda geo, config: revolution_stage(geo, config.r), attrgetter("f"),
        lambda geo, f: RevolutionGeometryState(geo.z, f, geo.boundary, geo.orientation),
        methodcaller("min"), "profile", "pinch", _revolution_diagnostics,
        lambda geo, r: math.inf),
}


def _pin(boundary_values, values, t):
    values[0], values[-1] = boundary_values(t)
    return values


def step(state: FlowState, config: FlowConfig, dt: float, stage=None) -> FlowState:
    """Advance any flow state one explicit step of config's scheme.

    stage is the stage of state.geometry at config.r, if at hand (one for
    another geometry or r is recomputed).  Unpinned radial graphs move
    their end nodes by the extrapolating stencils.  The guard runs on the
    rk2 midpoint and on the result.
    """
    kind = _KINDS.get(type(state.geometry))
    if kind is None:
        raise DomainError(f"cannot step {type(state.geometry).__name__}")
    return _step(kind, state, config, dt, stage)


def _step(kind: _Kind, state: FlowState, config: FlowConfig, dt: float,
          stage) -> FlowState:
    """step, with the kind of state.geometry already looked up."""
    geo, t = state.geometry, state.t + dt
    if stage is None or stage.geometry is not geo or stage.r != config.r:
        stage = kind.stage(geo, config)
    if dt > stage.bound * (1.0 + 1e-9):
        raise CflViolationError(f"dt={dt:.3e} above the step bound {stage.bound:.3e}")
    speed_at = (None if config.scheme == "euler" else  # the rk2 midpoint's speed
                lambda values: kind.stage(_guarded(kind, geo, values, t), config).speed)
    pin = (None if config.boundary_values is None
           else partial(_pin, config.boundary_values))
    x_new = _explicit_step(kind.values(geo), stage.speed, speed_at, state.t, dt,
                           config.scheme, pin)
    return FlowState(t, _guarded(kind, geo, x_new, t), state.step_count + 1)


def _guarded(kind: _Kind, geo, values, t: float):
    """The geometry holding values, once the guard has passed them."""
    radius = kind.radius(values)
    if not radius > 0.0:
        if radius <= 0.0:
            raise ExtinctionError(t, reason=kind.reason)
        raise NumericalError(f"non-finite {kind.name} at t={t:.6g}")   # a NaN
    return kind.rebuild(geo, values)


def run(config: FlowConfig) -> RunResult:
    """Adaptive explicit time loop until t_end or extinction.

    Diagnostics are emitted at t = 0, every output_stride steps, and at
    the final accepted state.  Deterministic for a fixed configuration.
    Raises DomainError when the first stage's bound puts the run above
    MAX_STEPS steps, and NumericalError if it passes MAX_STEPS anyway.
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

    geom = state.geometry
    kind = _KINDS[type(geom)]

    def make_diag(s, dt, st):
        # steps build new arrays, so the initial geometry stays as it was
        return kind.diagnose(s, config, dt, geom, st)

    initial_radius = geom.min_radius
    stage = kind.stage(geom, config)
    try:    # the budget counts steps up to t_end or a closed-form extinction
        horizon = min(config.t_end, kind.extinction(geom, config.r))
    except (DomainError, NumericalError):   # r > n: stationary; R^(r+1) overflows
        horizon = config.t_end
    # a bound of 0 is an underflow, which the loop reports
    if horizon > MAX_STEPS * config.cfl_safety * stage.bound > 0.0:
        raise DomainError(f"about {horizon / config.cfl_safety / stage.bound:.3g} "
                          f"steps to t={horizon:.6g}, above MAX_STEPS={MAX_STEPS}")
    diagnostics.append(make_diag(state, 0.0, stage))
    status = "completed"
    last_dt = 0.0
    while state.t < config.t_end * (1.0 - 1e-14):
        if state.step_count >= MAX_STEPS:
            raise NumericalError(f"run passed MAX_STEPS={MAX_STEPS} at t={state.t:.6g}")
        dt = min(config.cfl_safety * stage.bound, config.t_end - state.t)
        if not state.t + dt > state.t:    # an underflowed bound would never end
            raise NumericalError(f"time step {dt:.3e} does not advance t={state.t:.6g}")
        try:
            state = _step(kind, state, config, dt, stage)
        except ExtinctionError as exc:
            logger.info("flow stopped: %s", exc)
            status = "extinct"
            break
        last_dt = dt
        stage = kind.stage(state.geometry, config)
        if state.geometry.min_radius < EXTINCTION_FRACTION * initial_radius:
            status = "extinct"
            diagnostics.append(make_diag(state, dt, stage))
            break
        if state.step_count % config.output_stride == 0:
            diagnostics.append(make_diag(state, dt, stage))
    if diagnostics[-1].t < state.t:
        diagnostics.append(make_diag(state, last_dt, stage))
    return RunResult(diagnostics=diagnostics, status=status, state=state)
