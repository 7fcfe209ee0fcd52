"""Explicit time integration of the speed-sigma_r normal flow.

Two kinds of flow state, matched to the geometry: the round law R' =
-C(n,r)/R^r of spheres (the circle n = 1 among them) and of the round
factor of a cylinder, whose state is the catalog ``Sphere``; and
surfaces of revolution (n = 2), whose radial graph f(z, t) moves by
df/dt = -sigma_r * sqrt(1 + f_z^2) and whose state is the catalog
``RevolutionGeometry`` record.

``_kind`` decides a run's kind once, from its model: a hyperplane has
none (sigma_r = 0, it does not move), a sphere or a cylinder's round
factor the round law (``_round_kind``), and a ``Revolution`` the
radial graph of ``catalog.revolution_geometry(model)`` (``_graph_kind``).
The kind binds what no step changes (C(n,r) and the divisor (r+1) C(n,r)
resolution of a round law; the grid, the orientation and h^2 of a radial
graph) and holds the start values, its estimate of a run's step count
and the scheme of its step (None for the config's).  A run steps only
the values that move, a round law's float radius or a radial graph's
profile array f.
The kind's stage takes values and gives their speed and step bound, the
rk2 midpoint's too; its rebuild makes the state object from values the
guard has passed.

A radial graph's bound is the explicit limit of its speed's principal
part, dt <= h^2 / (2 sup_j |lambda_mer,j|), lambda_mer the meridional
eigenvalue of P_{r-1}: 1 at r = 1 and k_par = o p at r = 2.  Only
lambda_mer multiplies f'', with the coefficient a_j = lambda_mer,j /
w_j^2, and w >= 1 gives |a_j| <= |lambda_mer,j|; so at cfl_safety <= 1
the principal part of an Euler step makes each new f_j a convex
combination of f_{j-1}, f_j and f_{j+1} where a_j >= 0 (a discrete
maximum principle), and the rk2 midpoint rule has the same limit on the
negative real axis.  Its stage reads the curvature parts of the run's
one ``catalog._graph_builder`` (one derivative pass) and keeps the last
ones, so the record of values just staged costs no pass of its own.

A round law has no grid: its bound is its own time scale, T_ext(R) /
resolution, with T_ext(R) = R^(r+1) / ((r+1) C(n,r)) the time left to
extinction from radius R (``extinction_time``).  It is always stepped by
the midpoint rule, whatever ``FlowConfig.scheme`` says.  On R' = -R /
tau, tau = R^(r+1) / C(n,r), the rule's local error is R r (5r+1) / 24
(dt / tau)^3, so at dt = cfl_safety T_ext(R) / resolution each step errs
by a fixed fraction of R, and the law error falls 4x per doubling of
resolution.  resolution / cfl_safety is the number of steps per e-fold
of the time left: a run to t_end takes ln(T / (T - t_end)) / -ln(1 -
cfl_safety / resolution) steps, T = T_ext(R0), whatever (n, r) is.

``run`` is the one driver.  It takes dt = min(cfl_safety * bound, t_end
- t), and ``FlowConfig`` keeps cfl_safety in (0, 1], so no step exceeds
its bound.  ``_stepper`` makes the run's one explicit step of the
values, by the kind's scheme or else the config's: forward Euler or the
rk2 midpoint rule, with the Dirichlet data of
``FlowConfig.boundary_values`` imposed on the midpoint and on the
result.  It runs one guard on the midpoint and on the result: a
non-positive radius is extinction (reason "pinch" on radial graphs) and
a NaN is a NumericalError.  The guard returns the smallest radius it
computed, which ends the run once it falls below EXTINCTION_FRACTION of
the start's.

``run`` builds the kind and the stepper once and carries t, the values,
their speed and bound and the step count as locals.  The kind's diagnose
makes a diagnostics row from values, with the run's constants (C(n,r),
the rescaling's r+1 and 1/(r+1), the initial radius or profile and its
homothety window) bound once; a radial graph's row reads the parts its
stage kept.  A state object is made only for the final ``FlowState``,
with read-only arrays.  It refuses a run whose kind estimates more than
``MAX_STEPS`` steps (DomainError) before the first step: a radial graph
estimates t_end / (cfl_safety * bound) from its first stage, and a round
law counts its steps in closed form, to t_end or to the extinction
floor, whichever comes first.  A run that passes ``MAX_STEPS`` anyway (a
radial graph whose bound shrinks) stops with a NumericalError.  Runs are
deterministic for a fixed configuration.  The homothety monitor uses the
canonical rescaling phi(t) = (1 - (r+1) t)^(1/(r+1)) of catalog initial
data; no uniqueness of that normalization is claimed.  With it on, the
shrinker residual is measured on the rescaled surface X/phi (curvatures
scale by phi, support by 1/phi): the residual of a homothetically
shrinking solution then stays small, while its plain residual grows like
phi^-(r+1).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .catalog import (
    Cylinder,
    Hyperplane,
    HypersurfaceModel,
    Revolution,
    RevolutionGeometry,
    Sphere,
    _graph_builder,
    binomial,
    check_model,
    check_samples,
    revolution_geometry,
)
from .errors import (
    DomainError,
    ExtinctionError,
    NumericalError,
    brief,
    check_integer,
    check_order,
    check_real,
    float_range_error,
)

logger = logging.getLogger(__name__)

EXTINCTION_FRACTION = 1e-3   # stop when min radius falls below this * initial
MAX_STEPS = 10 ** 7   # step budget of one run; the longest test run takes 289,000


# ---------------------------------------------------------------------------
# closed forms

def extinction_time(n: int, r: int, radius0: float) -> float:
    """Extinction time R0^(r+1) / ((r+1) C(n,r)) of a round n-sphere."""
    check_integer(n, "dimension n")
    check_order(r, n)
    if not check_real(radius0, "radius0") > 0:
        raise DomainError("radius must be positive")
    try:
        top = radius0 ** (r + 1)
    except OverflowError as exc:
        raise float_range_error("R", radius0, r + 1) from exc
    return top / binomial(n, r, r + 1)


def sphere_radius_exact(n: int, r: int, radius0: float, t: float) -> float:
    """Exact sphere radius (R0^(r+1) - (r+1) C(n,r) t)^(1/(r+1)).

    Raises ExtinctionError (carrying the extinction time) for t at or
    past extinction.
    """
    if check_real(t, "time t") < 0:   # before the parameters are checked
        raise DomainError("time must be nonnegative")
    return _radius_law(n, r, radius0)(t)


def _radius_law(n: int, r: int, radius0: float):
    """t -> sphere_radius_exact(n, r, radius0, t), with the parts that do
    not depend on t, and their checks, taken once."""
    t_ext = extinction_time(n, r, radius0)
    top, rate, power = radius0 ** (r + 1), binomial(n, r, r + 1), 1.0 / (r + 1)

    def radius(t: float) -> float:
        if t < 0:
            raise DomainError("time must be nonnegative")
        core = top - rate * t
        if core <= 0:
            raise ExtinctionError(t_ext)
        return core ** power

    return radius


def homothety_factor(r: int, t: float) -> float:
    """Canonical rescaling phi(t) = (1 - (r+1) t)^(1/(r+1)), clamped at 0."""
    core = 1.0 - (r + 1) * t
    return core ** (1.0 / (r + 1)) if core > 0 else 0.0


def sphere_band_pin(radius0: float, r: int, half_width: float):
    """Dirichlet data for a shrinking band of a round 2-sphere (the
    radial-graph flow is n = 2): edges follow the sphere's law.

    Returns a callable t -> (f_left, f_right) suitable for
    FlowConfig.boundary_values, raising ExtinctionError once the band
    edge reaches the shrinking sphere's equator.  The parameters are
    checked, and the sphere's law set up, when the pin is made: the band
    needs 0 < half_width < radius0.
    """
    law = _radius_law(2, r, radius0)
    if not 0 < check_real(half_width, "half_width") < radius0:
        raise DomainError("need 0 < half_width < radius")
    hw2 = half_width * half_width

    def values(t: float):
        radius = law(t)
        core = radius * radius - hw2
        if core <= 0:
            raise ExtinctionError(t, reason="band pinch")
        edge = math.sqrt(core)
        return edge, edge

    return values


# ---------------------------------------------------------------------------
# state containers

@dataclass(eq=False)
class FlowState:
    t: float
    geometry: object
    step_count: int = 0


class Diagnostics(NamedTuple):
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
    scheme: str = "euler"        # "euler" | "rk2"; no effect on a round law
    output_stride: int = 10
    boundary_values: object = None   # callable t -> (f_left, f_right) for bands

    def __post_init__(self):
        # the types the scene parsers refuse: a bool is no real number, and
        # only a bool turns rescaled monitoring on or off
        for name in ("t_end", "cfl_safety"):
            check_real(getattr(self, name), name)
        if not isinstance(self.rescaled, (bool, np.bool_)):
            raise DomainError(f"rescaled must be true or false, got {brief(self.rescaled)}")
        if not 0 < self.t_end < math.inf:
            raise DomainError("t_end must be positive and finite")
        check_samples(self.resolution, 1, "resolution")
        if not 0 < self.cfl_safety <= 1:
            raise DomainError("cfl_safety must lie in (0, 1]")
        if self.scheme not in ("euler", "rk2"):
            raise DomainError(f"unknown scheme {brief(self.scheme)}")
        if check_integer(self.output_stride, "output_stride") < 1:
            raise DomainError("output_stride must be >= 1")
        check_model(self.model)
        check_order(self.r, self.model.n)
        if (self.boundary_values is not None
                and not isinstance(self.model, Revolution)):
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
# kinds of flow state

class _Kind(NamedTuple):
    """One kind of flow state, bound to one run's r, resolution and grid."""

    stage: Callable       # values -> (their speed, their step bound), the rk2 midpoint's too
    start: object         # the values that move, at t = 0
    rebuild: Callable     # values -> the geometry holding them, once the guard passed them
    radius: Callable      # values -> smallest radius, for the guard and the extinction floor
    name: str             # what a NaN made non-finite
    reason: str           # ExtinctionError reason of a non-positive radius
    diagnose: Callable    # (t, values, dt) -> diagnostics row, against the run's start
    steps: Callable       # (t_end, cfl_safety, first bound) -> estimated step count
    scheme: object        # the scheme of the kind's step, or None for the config's


# ---------------------------------------------------------------------------
# the round law (spheres, and the round factor of cylinders)

def _folds(fraction: float) -> float:
    """-ln(1 - fraction), the e-folds of the time left that a fraction of it
    takes; inf from 1 on."""
    return -math.log1p(-fraction) if fraction < 1.0 else math.inf


def _round_kind(geom: Sphere, r: int, resolution: int, rescaled: bool = False) -> _Kind:
    """R' = -C(n,r)/R^r by the midpoint rule, bound T_ext(R) / resolution.

    T_ext(R) and the extinction time T = T_ext(R0) are inf where r > n (the
    radius does not move) or R^(r+1) leaves the float range.  A step takes
    cfl_safety / resolution of the time left, so the steps to t_end, or to
    the extinction floor where T_ext(R) = EXTINCTION_FRACTION^(r+1) T, are
    counted in closed form, from logarithms.  The row of
    a radius R at t reads the shrinker residual |phi^r C(n,r) / R^r - R /
    phi| and, with rescaled monitoring on, the homothety defect |R - phi
    R0|, phi = homothety_factor(r, t) and R0 = geom's radius (the residual
    reads phi = 1 where phi is clamped at 0, or when monitoring is off).
    """
    n, radius0 = geom.n, geom.radius
    c_nr = binomial(n, r)
    rate = -c_nr              # -0.0 on a cylinder's round factor of rank n < r
    try:
        t_ext = extinction_time(n, r, radius0)
    except (DomainError, NumericalError):
        t_ext = math.inf
    divisor = binomial(n, r, r + 1) * resolution    # extinction_time's, times resolution
    floor_folds = (r + 1) * math.log(1.0 / EXTINCTION_FRACTION)

    def stage(radius):
        try:
            power = radius ** r
            speed = rate / power
        except (OverflowError, ZeroDivisionError) as exc:
            raise float_range_error("R", radius, r) from exc
        return speed, radius * power / divisor if divisor else math.inf

    def diagnose(t, radius, dt):
        phi, defect = 1.0, math.nan
        if rescaled:
            phi_t = homothety_factor(r, t)
            defect = abs(radius - phi_t * radius0)
            if phi_t > 0:
                phi = phi_t
        # stage has formed radius ** r for this radius, and refused its overflow and zero
        residual = abs(phi ** r * c_nr / radius ** r - radius / phi)
        return Diagnostics(t, residual, defect, radius, dt)

    def steps(t_end, cfl, bound):
        # an underflowed T of 0 counts to the floor: the loop reports its bound
        run_folds = _folds(t_end / t_ext) if t_ext > 0 else math.inf
        return min(run_folds, floor_folds) / _folds(cfl / resolution)

    return _Kind(stage, radius0, lambda radius: Sphere(n, radius), float,
                 "radius", "extinct", diagnose, steps, "rk2")


# ---------------------------------------------------------------------------
# surfaces of revolution (n = 2)

def _graph_kind(graph: RevolutionGeometry, r: int, rescaled: bool = False) -> _Kind:
    """The radial graph's speed, bound and diagnostics row, read off each
    profile's parts.

    With the run's ``_graph_builder`` parts q = f''/w^3 and p = 1/(f w),
    the speed -o sigma_r(oriented curvatures) w is (q - p) w at r = 1 and
    o q p w at r = 2: the record's closed forms, to the bit (but the sign
    of a zero speed, which no step sees).  Its f'' coefficient is
    lambda_mer / w^2, lambda_mer = 1 at r = 1 and o p at r = 2, so the
    bound h^2 / (2 sup_j |lambda_mer,j|) is h^2 / 2 at r = 1 and h^2 / (2
    max p) at r = 2 (p > 0 on a positive profile; inf where max p is 0),
    under which an Euler step's principal part is a convex combination of
    neighbouring values.  At r = 2 with o = -1 the coefficient is
    negative, backward-parabolic under any bound.  The parts of the last
    profile staged are kept, first the initial record's.  The guard's
    smallest radius is np.minimum.reduce, ndarray.min without its method
    wrapper.

    A row reads the record's sigma_r (k_mer + k_par = o (p - q), k_mer
    k_par = -q p) and support <X, N> = o (z f' - f) / w from the parts.  Its
    residual is sup |phi^r sigma_r + <X, N> / phi| as on the round law; its
    homothety defect is sup |f - phi f0(z / phi)| over the nodes whose z /
    phi lies in the initial grid [min z, max z], and sup |f| once phi is
    clamped at 0.
    """
    graph.p_eigenvalues(r)     # refuses r outside {1, 2}
    try:
        h_sq = graph.h ** 2
    except OverflowError as exc:      # h above ~1.3e154
        raise float_range_error("h", graph.h, 2) from exc
    build = _graph_builder(graph.z, graph.h, graph.boundary, graph.orientation)
    negate = graph.orientation > 0    # o = +-1 only chooses the sign
    half_h_sq = 0.5 * h_sq            # the bound at r = 1, where lambda_mer = 1
    # k_mer = -o q and k_par = o p, so the record's parts are exact sign flips
    last_f, last_parts = graph.f, (graph.fp, graph.w, -graph.k_mer if negate else graph.k_mer,
                                   graph.k_par if negate else -graph.k_par)

    def parts(f):
        nonlocal last_f, last_parts
        if f is not last_f:
            last_f, last_parts = f, build.parts(f)
        return last_parts

    def stage(f):
        _, w, q, p = parts(f)
        if r == 1:
            return (q - p) * w, half_h_sq
        qpw, p_max = q * p * w, float(np.maximum.reduce(p))
        return qpw if negate else -qpw, half_h_sq / p_max if p_max != 0.0 else math.inf

    z, f0, o = graph.z, graph.f, float(graph.orientation)
    z_lo, z_hi = z.min(), z.max()      # the homothety window, on the initial grid

    def diagnose(t, f, dt):
        fp, w, q, p = parts(f)
        phi, defect = 1.0, math.nan
        if rescaled:
            phi_t = homothety_factor(r, t)
            if phi_t > 0:
                phi, z_back = phi_t, z / phi_t
                inside = (z_lo <= z_back) & (z_back <= z_hi)
                if inside.any():
                    ref = phi_t * np.interp(z_back[inside], z, f0)
                    defect = float(np.abs(f[inside] - ref).max())
            else:
                defect = float(np.abs(f).max())
        # sigma_r of the oriented curvatures k_mer = -o q and k_par = o p
        sigma = (p - q if negate else q - p) if r == 1 else -(q * p)
        support = o * (z * fp - f) / w
        residual = float(np.abs(phi ** r * sigma + support / phi).max())
        return Diagnostics(t, residual, defect, float(f.min()), dt)

    def steps(t_end, cfl, bound):
        # a bound of 0 is an underflow, which the loop reports
        return t_end / (cfl * bound) if cfl * bound > 0.0 else 0.0

    return _Kind(stage, graph.f, lambda f: build.record(f, parts(f)),
                 np.minimum.reduce, "profile", "pinch", diagnose, steps, None)


# ---------------------------------------------------------------------------
# the driver

def _kind(config: FlowConfig):
    """The kind of a run's state at t = 0, from its model; None for a
    hyperplane, which does not move."""
    model, r, resolution = config.model, config.r, config.resolution
    if isinstance(model, Hyperplane):
        return None
    if isinstance(model, Cylinder):
        # spherical factor shrinks by the same scalar law; flat part inert
        model = Sphere(n=model.m, radius=model.radius)
    if isinstance(model, Sphere):
        return _round_kind(model, r, resolution, config.rescaled)
    # a Revolution; the run's one float-range check
    return _graph_kind(revolution_geometry(model), r, config.rescaled)


def _stepper(kind: _Kind, config: FlowConfig):
    """The one explicit step of a run, with the run's fixed parts bound once.

    Returns advance(x, speed, t, dt) -> (new values, their smallest radius),
    where x are the values that move and speed their stage's.  Forward
    Euler takes x + speed * dt; rk2 is the midpoint rule, whose midpoint
    speed is the kind's stage.  The kind's scheme, if it names one, takes
    the place of config.scheme.  The Dirichlet data of config.boundary_values
    are imposed on the midpoint and on the result, and the guard runs on
    both: a non-positive radius is an ExtinctionError, a NaN a
    NumericalError.  Each step makes new values.
    """
    stage, radius_of, name, reason = kind.stage, kind.radius, kind.name, kind.reason
    rk2 = (kind.scheme or config.scheme) == "rk2"
    pin = config.boundary_values

    def guard(x, t):
        radius = radius_of(x)
        if not radius > 0.0:
            if radius <= 0.0:
                raise ExtinctionError(t, reason=reason)
            raise NumericalError(f"non-finite {name} at t={t:.6g}")   # a NaN
        return radius

    def advance(x, speed, t, dt):
        t_new = t + dt
        if rk2:
            half = x + speed * (0.5 * dt)
            if pin is not None:
                half[0], half[-1] = pin(t + 0.5 * dt)
            guard(half, t_new)
            x = x + stage(half)[0] * dt
        else:
            x = x + speed * dt
        if pin is not None:
            x[0], x[-1] = pin(t_new)
        return x, guard(x, t_new)

    return advance


def run(config: FlowConfig) -> RunResult:
    """Adaptive explicit time loop until t_end or extinction.

    Diagnostics are emitted at t = 0, every output_stride steps, and at
    the final accepted state.  Deterministic for a fixed configuration.
    Raises DomainError when the kind's estimate puts the run above
    MAX_STEPS steps, and NumericalError if it passes MAX_STEPS anyway.
    """
    kind = _kind(config)
    if kind is None:
        # sigma_r = 0: stationary; report start and end
        diag0 = Diagnostics(t=0.0, max_shrinker_residual=0.0,
                            homothety_defect=0.0 if config.rescaled else math.nan,
                            min_radius=0.0, dt=config.t_end)
        return RunResult(diagnostics=[diag0, diag0._replace(t=config.t_end)],
                         status="stationary", state=FlowState(config.t_end, config.model, 1))

    advance, stage, diagnose = _stepper(kind, config), kind.stage, kind.diagnose
    x = kind.start
    speed, bound = stage(x)
    max_steps, cfl, t_end = MAX_STEPS, config.cfl_safety, config.t_end
    steps = kind.steps(t_end, cfl, bound)
    if steps > max_steps:
        raise DomainError(f"about {steps:.3g} steps to t={t_end:.6g}, "
                          f"above MAX_STEPS={max_steps}")
    # steps make new values, so the start values stay as they were
    diagnostics = [diagnose(0.0, x, 0.0)]
    t, count = 0.0, 0
    t_stop, stride = t_end * (1.0 - 1e-14), config.output_stride
    floor = EXTINCTION_FRACTION * kind.radius(kind.start)
    status = "completed"
    last_dt = 0.0
    while t < t_stop:
        if count >= max_steps:
            raise NumericalError(f"run passed MAX_STEPS={max_steps} at t={t:.6g}")
        dt = cfl * bound
        if t_end - t < dt:
            dt = t_end - t
        if not t + dt > t:    # an underflowed bound would never end
            raise NumericalError(f"time step {dt:.3e} does not advance t={t:.6g}")
        try:
            x, radius = advance(x, speed, t, dt)
        except ExtinctionError as exc:
            logger.info("flow stopped: %s", exc)
            status = "extinct"
            break
        t += dt
        count += 1
        last_dt = dt
        speed, bound = stage(x)
        if radius < floor:
            status = "extinct"
            diagnostics.append(diagnose(t, x, dt))
            break
        if count % stride == 0:
            diagnostics.append(diagnose(t, x, dt))
    if diagnostics[-1].t < t:
        diagnostics.append(diagnose(t, x, last_dt))
    return RunResult(diagnostics=diagnostics, status=status,
                     state=FlowState(t, kind.rebuild(x), count))
