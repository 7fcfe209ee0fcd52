import math
from dataclasses import replace

import numpy as np
import pytest

from newton_flow import fd, flow
from newton_flow.catalog import (
    Cylinder,
    Hyperplane,
    Revolution,
    Sphere,
    RevolutionGeometry,
    cylinder_profile,
    radial_graph,
    shrinker_radius,
    sphere_band_profile,
)
from newton_flow.errors import (
    CflViolationError,
    DomainError,
    ExtinctionError,
    NumericalError,
)
from newton_flow.flow import (
    FlowConfig,
    FlowState,
    extinction_time,
    homothety_factor,
    revolution_stage,
    run,
    sphere_band_pin,
    sphere_radius_exact,
    step,
)
from newton_flow.symfun import newton_family

from conftest import reference_deriv1, reference_deriv2


class TestClosedForms:
    def test_sphere_radius_values(self):
        assert sphere_radius_exact(2, 1, 2.0, 0.5) == pytest.approx(math.sqrt(2.0))
        assert sphere_radius_exact(3, 2, 1.5, 0.0) == 1.5

    def test_shrinker_normalization(self):
        for n in range(1, 6):
            for r in range(1, n + 1):
                radius0 = shrinker_radius(n, r)
                t = 0.11
                assert sphere_radius_exact(n, r, radius0, t) == pytest.approx(
                    radius0 * homothety_factor(r, t))
                assert extinction_time(n, r, radius0) == pytest.approx(1.0 / (r + 1))

    def test_extinction_values(self):
        assert extinction_time(1, 1, 1.0) == pytest.approx(0.5)
        assert extinction_time(2, 2, 1.0) == pytest.approx(1.0 / 3.0)

    def test_extinct_error_carries_time(self):
        with pytest.raises(ExtinctionError) as err:
            sphere_radius_exact(2, 1, 1.0, 0.3)
        assert err.value.time == pytest.approx(0.25)


class TestCurveStepping:
    def test_circle_follows_law(self):
        config = FlowConfig(r=1, model=Sphere(n=1, radius=1.0), t_end=0.25,
                            resolution=256)
        result = run(config)
        radius = result.state.geometry.radius
        assert radius == pytest.approx(math.sqrt(0.5), abs=1e-3)

    def test_min_radius_strictly_decreasing(self):
        config = FlowConfig(r=1, model=Sphere(n=1, radius=1.0), t_end=0.2,
                            resolution=64, output_stride=50)
        result = run(config)
        radii = [d.min_radius for d in result.diagnostics]
        assert all(b < a for a, b in zip(radii, radii[1:]))

    def test_unit_circle_rescaled_residual_stays_small(self):
        # R0 = 1 is the curve shrinker; on the rescaled curve X/phi the
        # residual only reflects integration error
        config = FlowConfig(r=1, model=Sphere(n=1, radius=1.0), t_end=0.4,
                            resolution=256, rescaled=True, output_stride=200)
        result = run(config)
        worst = max(d.max_shrinker_residual for d in result.diagnostics)
        assert worst <= 1e-3


class TestRevolutionStepping:
    def test_cylinder_r1_law(self):
        prof = cylinder_profile(1.0, 2.0, 128)
        config = FlowConfig(r=1, model=Revolution(profile=prof), t_end=0.2)
        result = run(config)
        expect = math.sqrt(1.0 - 0.4)
        assert result.state.geometry.f.mean() == pytest.approx(expect, abs=1e-3)
        spread = np.ptp(result.state.geometry.f)
        assert spread <= 1e-12

    def test_cylinder_r2_stationary_per_step(self):
        prof = cylinder_profile(1.0, 2.0, 64)
        geo = radial_graph(prof.z.copy(), prof.f.copy(), prof.h, "neumann", 1)
        state = FlowState(t=0.0, geometry=geo)
        config = FlowConfig(r=2, model=Revolution(profile=prof), t_end=1.0)
        for _ in range(25):
            state = step(state, config, 1e-5)
            assert np.abs(state.geometry.f - 1.0).max() <= 1e-10

    def test_dt_order_one_on_cylinder(self):
        errs = []
        for cfl in (0.25, 0.125):
            prof = cylinder_profile(1.0, 2.0, 96)
            config = FlowConfig(r=1, model=Revolution(profile=prof), t_end=0.2,
                                cfl_safety=cfl)
            result = run(config)
            errs.append(abs(result.state.geometry.f.mean() - math.sqrt(0.6)))
        assert errs[1] <= errs[0] / 1.8   # first order in dt

    def test_sphere_band_matches_exact_law(self):
        radius0 = 2.0
        prof = sphere_band_profile(radius0, 0.6, 96)
        config = FlowConfig(r=1, model=Revolution(profile=prof), t_end=0.3,
                            boundary_values=sphere_band_pin(radius0, 1, 0.6))
        result = run(config)
        geo = result.state.geometry
        expect = sphere_radius_exact(2, 1, radius0, 0.3)
        numeric = np.sqrt(geo.f ** 2 + geo.z ** 2)
        assert np.abs(numeric - expect).max() <= 1e-3

    def test_h_order_on_sphere_band(self):
        errs = []
        for m in (48, 96):
            prof = sphere_band_profile(2.0, 0.6, m)
            config = FlowConfig(r=1, model=Revolution(profile=prof), t_end=0.1,
                                boundary_values=sphere_band_pin(2.0, 1, 0.6))
            result = run(config)
            geo = result.state.geometry
            expect = sphere_radius_exact(2, 1, 2.0, 0.1)
            errs.append(np.abs(np.sqrt(geo.f ** 2 + geo.z ** 2) - expect).max())
        assert errs[1] <= errs[0] / 2.8   # observed order >= 1.5 in h

    def test_pinch_reports_extinction(self):
        prof = cylinder_profile(0.05, 0.5, 64)
        config = FlowConfig(r=1, model=Revolution(profile=prof), t_end=1.0)
        result = run(config)
        assert result.status == "extinct"
        assert result.state.t < 1.0


class TestRun:
    def test_sphere_homothety(self):
        config = FlowConfig(r=1, model=Sphere(n=2, radius=math.sqrt(2.0)),
                            t_end=0.45, rescaled=True, resolution=128,
                            output_stride=25)
        result = run(config)
        assert result.status == "completed"
        worst = max(d.homothety_defect for d in result.diagnostics
                    if homothety_factor(1, d.t) ** 2 >= 0.2)
        assert worst <= 1e-3

    def test_gauss_flow_unit_sphere_residual(self):
        config = FlowConfig(r=2, model=Sphere(n=2, radius=1.0), t_end=0.05,
                            resolution=64)
        result = run(config)
        assert result.diagnostics[0].max_shrinker_residual <= 1e-6

    def test_catalog_initial_data_keep_rescaled_residual_small(self):
        # up to the rescaled time where phi^(r+1) >= 0.2
        for n, r in ((2, 1), (3, 2)):
            model = Sphere(n=n, radius=shrinker_radius(n, r))
            t_stop = (1.0 - 0.2) / (r + 1)
            config = FlowConfig(r=r, model=model, t_end=t_stop, rescaled=True,
                                resolution=128, output_stride=25)
            result = run(config)
            worst = max(d.max_shrinker_residual for d in result.diagnostics)
            assert worst <= 5e-3, (n, r, worst)

    def test_hyperplane_stationary(self):
        config = FlowConfig(r=1, model=Hyperplane(n=2), t_end=1.0, rescaled=True)
        result = run(config)
        assert result.status == "stationary"
        for diag in result.diagnostics:
            assert diag.max_shrinker_residual == 0.0
            assert diag.homothety_defect == 0.0
            assert diag.min_radius == 0.0

    def test_cylinder_scalar_law(self):
        config = FlowConfig(r=1, model=Cylinder(n=3, m=2, radius=1.0),
                            t_end=0.1, resolution=64)
        result = run(config)
        # spherical factor of rank 2: R' = -C(2,1)/R
        expect = (1.0 - 2.0 * 2.0 * 0.1) ** 0.5
        assert result.state.geometry.radius == pytest.approx(expect, abs=1e-3)

    def test_cylinder_r_above_m_is_stationary(self):
        config = FlowConfig(r=3, model=Cylinder(n=3, m=2, radius=1.0),
                            t_end=0.1, resolution=64)
        result = run(config)
        assert result.state.geometry.radius == pytest.approx(1.0)

    def test_sphere_run_hits_extinction_status(self):
        config = FlowConfig(r=1, model=Sphere(n=2, radius=0.5), t_end=10.0,
                            resolution=32)
        result = run(config)
        assert result.status == "extinct"

    def test_deterministic_repeat(self):
        config = FlowConfig(r=1, model=Sphere(n=1, radius=1.0), t_end=0.1,
                            resolution=64, output_stride=20)
        a = run(config)
        b = run(config)
        assert len(a.diagnostics) == len(b.diagnostics)
        for da, db in zip(a.diagnostics, b.diagnostics):
            assert da == db

    def test_rk2_beats_euler_on_sphere(self):
        errs = {}
        for scheme in ("euler", "rk2"):
            config = FlowConfig(r=1, model=Sphere(n=2, radius=2.0), t_end=0.5,
                                resolution=64, scheme=scheme)
            result = run(config)
            errs[scheme] = abs(result.state.geometry.radius
                               - sphere_radius_exact(2, 1, 2.0, 0.5))
        assert errs["rk2"] <= errs["euler"] / 10.0


# ---------------------------------------------------------------------------
# the shared revolution stage against the separate-pass formulas

def _reference_bound(f, h, boundary, r):
    """CFL bound from its own derivative pass, as the integrator once had it."""
    if r == 1:
        return h ** 2 / (1.0 + 2.0)
    fp = reference_deriv1(f, h, boundary)
    fpp = reference_deriv2(f, h, boundary)
    w = np.sqrt(1.0 + fp * fp)
    coeff = float((np.abs(fpp) / w ** 3 + 1.0 / (f * w)).max())
    return h ** 2 / (1.0 + coeff)


def _reference_speed(f, h, boundary, orientation, r):
    fp = reference_deriv1(f, h, boundary)
    fpp = reference_deriv2(f, h, boundary)
    w = np.sqrt(1.0 + fp * fp)
    o = float(orientation)
    k_mer = o * (-fpp) / w ** 3
    k_par = o / (f * w)
    sigma = k_mer + k_par if r == 1 else k_mer * k_par
    return -o * sigma * w


def _reference_run(f, z, r, scheme, pin, t_end, safety=0.25):
    """run()'s time loop with a bound pass, a check pass and a speed pass."""
    h, boundary, t, steps = float(z[1] - z[0]), "neumann", 0.0, 0

    def pinned(values, at):
        if pin is not None:
            values[0], values[-1] = pin(at)
        return values

    while t < t_end * (1.0 - 1e-14):
        dt = min(safety * _reference_bound(f, h, boundary, r), t_end - t)
        assert dt <= _reference_bound(f, h, boundary, r) * (1.0 + 1e-9)
        if scheme == "euler":
            f = pinned(f + dt * _reference_speed(f, h, boundary, 1, r), t + dt)
        else:
            mid = pinned(f + 0.5 * dt * _reference_speed(f, h, boundary, 1, r),
                         t + 0.5 * dt)
            f = pinned(f + dt * _reference_speed(mid, h, boundary, 1, r), t + dt)
        t += dt
        steps += 1
    return f, steps


def _band_config(r, scheme, pinned, output_stride=10 ** 9):
    prof = sphere_band_profile(2.0, 0.6, 32)
    # about 50 steps
    t_end = 50 * 0.25 * _reference_bound(prof.f, prof.h, "neumann", r)
    pin = sphere_band_pin(2.0, r, 0.6) if pinned else None
    return FlowConfig(r=r, model=Revolution(profile=prof), t_end=t_end,
                      scheme=scheme, boundary_values=pin,
                      output_stride=output_stride)


def _band_step_config(r, m=32):
    return FlowConfig(r=r, model=Revolution(profile=sphere_band_profile(2.0, 0.6, m)),
                      t_end=1.0)


def _band_state(m=32, f=None, orientation=1):
    prof = sphere_band_profile(2.0, 0.6, m)
    geo = radial_graph(prof.z.copy(), prof.f.copy() if f is None else f,
                       prof.h, "neumann", orientation)
    return FlowState(t=0.0, geometry=geo)


class TestRevolutionStage:
    def test_state_is_the_catalog_record(self):
        result = run(_band_config(2, "rk2", pinned=True))
        geo = result.state.geometry
        assert isinstance(geo, RevolutionGeometry)
        again = radial_graph(geo.z, geo.f, geo.h, geo.boundary, geo.orientation)
        for name in ("fp", "w", "k_mer", "k_par"):
            assert getattr(geo, name).tobytes() == getattr(again, name).tobytes()
        assert flow.Stage.__slots__ == ("geometry", "r", "speed", "bound")

    @pytest.mark.parametrize("pinned", [False, True])
    @pytest.mark.parametrize("scheme", ["euler", "rk2"])
    @pytest.mark.parametrize("r", [1, 2])
    def test_bitwise_identical_to_separate_passes(self, r, scheme, pinned):
        config = _band_config(r, scheme, pinned)
        result = run(config)
        prof = config.model.profile
        f_ref, steps = _reference_run(prof.f.copy(), prof.z, r, scheme,
                                      config.boundary_values, config.t_end)
        assert result.status == "completed"
        assert result.state.step_count == steps >= 50
        assert result.state.geometry.f.tobytes() == f_ref.tobytes()

    @pytest.mark.parametrize("r", [1, 2])
    def test_stage_matches_reference_formulas(self, r):
        geo = _band_state(m=48, orientation=-1).geometry
        stage = revolution_stage(geo, r)
        speed = _reference_speed(geo.f, geo.h, geo.boundary, -1, r)
        assert stage.speed.tobytes() == speed.tobytes()
        assert stage.bound == _reference_bound(geo.f, geo.h, geo.boundary, r)

    @pytest.mark.parametrize("scheme, passes", [("euler", 1), ("rk2", 2)])
    def test_one_derivative_pass_per_stage(self, monkeypatch, scheme, passes):
        # the diagnostics rows reuse the stage that set each state's dt
        calls = {"derivatives": 0, "deriv1": 0}

        def counted(name):
            inner = getattr(fd, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        config = _band_config(2, scheme, pinned=True, output_stride=10)
        for name in calls:
            monkeypatch.setattr(fd, name, counted(name))
        result = run(config)
        steps = result.state.step_count
        assert len(result.diagnostics) > 2
        assert calls == {"derivatives": passes * steps + 1, "deriv1": 0}

    @pytest.mark.parametrize("r", [1, 2])
    def test_cfl_violation_with_own_or_foreign_stage(self, r):
        state = _band_state(m=129)
        config = _band_step_config(r, m=129)
        bound = revolution_stage(state.geometry, r).bound
        with pytest.raises(CflViolationError):
            step(state, config, 10.0 * bound)
        with pytest.raises(CflViolationError):
            step(state, config, 10.0 * bound,
                 stage=revolution_stage(state.geometry, r))
        # a coarser grid's stage allows the step; it must not be trusted
        coarse = revolution_stage(_band_state(m=33).geometry, r)
        assert coarse.bound > 10.0 * bound
        with pytest.raises(CflViolationError):
            step(state, config, 10.0 * bound, stage=coarse)

    def test_nan_profile_step_raises(self):
        f = _band_state().geometry.f.copy()
        f[7] = np.nan
        state = _band_state(f=f)
        for r in (1, 2):
            with pytest.raises(NumericalError):
                step(state, _band_step_config(r), 1e-6)

    @pytest.mark.parametrize("r", [1, 2])
    def test_nan_profile_run_raises(self, monkeypatch, r):
        # a ProfileCurve refuses NaN samples, so the NaN goes into run's state
        initial_state = flow._initial_state

        def with_nan(config):
            state = initial_state(config)
            state.geometry.f[7] = np.nan
            return state

        monkeypatch.setattr(flow, "_initial_state", with_nan)
        model = Revolution(profile=sphere_band_profile(2.0, 0.6, 32))
        with pytest.raises(NumericalError):
            run(FlowConfig(r=r, model=model, t_end=0.01))


# ---------------------------------------------------------------------------
# the shared explicit scheme against in-test loops written out per geometry

def _reference_loop(x, t_end, safety, stride, bound, step, diagnose, min_radius):
    """run()'s time loop; returns (x, steps, diagnostic tuples, status)."""
    t, steps, last_dt = 0.0, 0, 0.0
    radius0 = min_radius(x)
    diags = [diagnose(x, t, 0.0)]
    status = "completed"
    while t < t_end * (1.0 - 1e-14):
        dt = min(safety * bound(x), t_end - t)
        x = step(x, t, dt)
        if x is None:
            return None, steps, diags, "extinct"
        t += dt
        steps += 1
        last_dt = dt
        if min_radius(x) < 1e-3 * radius0:
            diags.append(diagnose(x, t, dt))
            status = "extinct"
            break
        if steps % stride == 0:
            diags.append(diagnose(x, t, dt))
    if diags[-1][0] < t:
        diags.append(diagnose(x, t, last_dt))
    return x, steps, diags, status


def _as_tuples(diagnostics):
    return [(d.t, d.max_shrinker_residual, d.homothety_defect, d.min_radius, d.dt)
            for d in diagnostics]


def _phi(r, t):
    phi = homothety_factor(r, t)
    return phi if phi > 0 else 1.0


class TestExplicitScheme:
    @pytest.mark.parametrize("scheme", ["euler", "rk2"])
    @pytest.mark.parametrize("model, n, r", [
        (Sphere(n=3, radius=shrinker_radius(3, 2)), 3, 2),
        (Cylinder(n=3, m=2, radius=shrinker_radius(2, 1)), 2, 1),
        (Sphere(n=1, radius=shrinker_radius(1, 1)), 1, 1),    # the circle
    ])
    def test_scalar_law_matches_reference_loop(self, model, n, r, scheme):
        resolution, t_end, stride = 64, 0.3 / (r + 1), 7
        config = FlowConfig(r=r, model=model, t_end=t_end, rescaled=True,
                            resolution=resolution, scheme=scheme,
                            output_stride=stride)
        result = run(config)
        radius0 = model.radius

        def bound(radius):
            trace_p = (n - r + 1) * math.comb(n, r - 1) / radius ** (r - 1)
            h = 2.0 * np.pi * radius / resolution
            return h * h / (1.0 + trace_p)

        def rate(radius):
            return -math.comb(n, r) / radius ** r

        def step(radius, t, dt):
            if scheme == "euler":
                new = radius + dt * rate(radius)
            else:
                half = radius + 0.5 * dt * rate(radius)
                new = radius + dt * rate(half) if half > 0 else 0.0
            return new if new > 0 else None

        def diagnose(radius, t, dt):
            phi = _phi(r, t)
            residual = abs(phi ** r * math.comb(n, r) / radius ** r - radius / phi)
            defect = abs(radius - homothety_factor(r, t) * radius0)
            return (t, residual, defect, radius, dt)

        radius, steps, diags, status = _reference_loop(
            radius0, t_end, 0.25, stride, bound, step, diagnose, lambda x: x)
        assert result.status == status == "completed"
        assert result.state.step_count == steps > 3 * stride
        assert result.state.geometry.radius == radius
        assert _as_tuples(result.diagnostics) == diags

    def test_scalar_rk2_past_extinction_reports_extinct(self):
        config = FlowConfig(r=1, model=Sphere(n=2, radius=0.3), t_end=1.0,
                            resolution=16, scheme="rk2")
        assert run(config).status == "extinct"
        # a midpoint at radius 0 ends the step: 1 + 0.5 * 1 * (-2 / 1) = 0;
        # at resolution 1 the bound is 4 pi^2 / 3, so dt = 1 is allowed
        state = FlowState(t=0.0, geometry=Sphere(n=2, radius=1.0))
        with pytest.raises(ExtinctionError):
            step(state, replace(config, resolution=1), 1.0)


# ---------------------------------------------------------------------------
# the round factor and its closed-form step bound

class TestRoundFactor:
    def test_state_is_the_catalog_sphere(self):
        for n, r in ((3, 2), (1, 1)):     # n = 1: the circle
            sphere = Sphere(n=n, radius=1.5)
            config = FlowConfig(r=r, model=sphere, t_end=0.01, resolution=32)
            assert flow._initial_state(config).geometry is sphere
            result = run(config)
            assert isinstance(result.state.geometry, Sphere)
            assert result.state.geometry.n == n
        cylinder = FlowConfig(r=1, model=Cylinder(n=5, m=3, radius=1.5),
                              t_end=0.01, resolution=32)
        assert flow._initial_state(cylinder).geometry == Sphere(n=3, radius=1.5)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_bound_matches_newton_family_trace(self, n):
        resolution = 64
        for r in range(1, n + 1):
            for radius in (0.3, 1.0, shrinker_radius(n, r), 2.5):
                trace_p = float(np.trace(newton_family(np.eye(n) / radius).P[r - 1]))
                h = 2.0 * np.pi * radius / resolution
                expect = h * h / (1.0 + trace_p)
                sphere = Sphere(n=n, radius=radius)
                config = FlowConfig(r=r, model=sphere, t_end=1.0, resolution=resolution)
                got = flow._round_stage(sphere, config).bound
                assert got == pytest.approx(expect, rel=1e-13, abs=0), (n, r, radius)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_cylinder_bound_has_no_coefficient_above_m(self, r):
        config = FlowConfig(r=r, model=Cylinder(n=5, m=2, radius=1.5),
                            t_end=0.01, resolution=32)
        state = flow._initial_state(config)
        h = 2.0 * np.pi * 1.5 / 32
        assert flow._round_stage(state.geometry, config).bound == h * h


# ---------------------------------------------------------------------------
# the one step, its guard and the step budget

def _count_calls(monkeypatch, module, name):
    calls = [0]
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestStep:
    def test_round_law_checks_its_bound(self):
        config = FlowConfig(r=2, model=Sphere(n=3, radius=1.0), t_end=1.0,
                            resolution=16)
        state = flow._initial_state(config)
        bound = flow._round_stage(state.geometry, config).bound
        assert step(state, config, bound).geometry.radius < 1.0
        with pytest.raises(CflViolationError):
            step(state, config, 1.01 * bound)
        with pytest.raises(CflViolationError):
            step(state, config, 10.0)

    def test_stage_of_another_r_is_recomputed(self):
        state = _band_state(m=65)
        loose = revolution_stage(state.geometry, 2)
        assert loose.bound > 1.2 * revolution_stage(state.geometry, 1).bound
        with pytest.raises(CflViolationError):
            step(state, _band_step_config(1, m=65), loose.bound, stage=loose)

    def test_boundary_values_need_a_revolution_model(self):
        with pytest.raises(DomainError, match="boundary_values"):
            FlowConfig(r=1, model=Sphere(n=2, radius=1.0), t_end=0.1,
                       boundary_values=sphere_band_pin(2.0, 1, 0.6))


class TestStepBudget:
    def test_estimate_above_budget_is_refused(self, monkeypatch):
        calls = _count_calls(monkeypatch, flow, "_step")
        prof = cylinder_profile(1e-170, 0.5, 16)
        config = FlowConfig(r=2, model=Revolution(profile=prof), t_end=0.01)
        with pytest.raises(DomainError, match="MAX_STEPS"):
            run(config)
        assert calls[0] == 0

    def test_loop_stops_past_the_budget(self, monkeypatch):
        # the bound shrinks with R^2: about 75 steps estimated, 250 taken
        config = FlowConfig(r=1, model=Sphere(n=2, radius=0.5), t_end=0.06,
                            resolution=32)
        assert run(config).state.step_count > 200
        bound = flow._round_stage(config.model, config).bound
        assert config.t_end / (config.cfl_safety * bound) < 100
        monkeypatch.setattr(flow, "MAX_STEPS", 100)
        with pytest.raises(NumericalError, match="MAX_STEPS=100"):
            run(config)

    # spheres: tests/test_cli.py::TestFlow::test_budget_stops_at_the_closed_form_extinction
    @pytest.mark.parametrize("model, r, resolution", [
        (Cylinder(n=4, m=2, radius=0.5), 2, 32),   # 2.08e7 steps up to t_end
        (Sphere(n=1, radius=1.0), 1, 96),          # the circle: 1.87e7
    ])
    def test_round_runs_are_estimated_up_to_extinction(self, model, r, resolution):
        result = run(FlowConfig(r=r, model=model, t_end=1e4, resolution=resolution))
        assert result.status == "extinct"
        m = model.m if isinstance(model, Cylinder) else model.n
        t_ext = extinction_time(m, r, model.radius)
        assert result.state.t == pytest.approx(t_ext, rel=1e-2)

    @pytest.mark.parametrize("model, r", [
        (Cylinder(n=5, m=2, radius=1.2), 3),   # r > m: stationary, no extinction time
        (Sphere(n=2, radius=1e150), 2),        # R^(r+1) overflows
    ])
    def test_estimate_keeps_t_end_without_a_closed_form_extinction(self, model, r):
        assert run(FlowConfig(r=r, model=model, t_end=0.01, resolution=32)).status \
            in ("completed", "stationary")
        with pytest.raises(DomainError, match=r"steps to t=1e\+305, above MAX_STEPS"):
            run(FlowConfig(r=r, model=model, t_end=1e305, resolution=32))


class TestFlowConfigContract:
    @pytest.mark.parametrize("field, value", [
        ("t_end", math.inf), ("t_end", math.nan), ("t_end", 0.0),
        ("resolution", 0), ("resolution", -16),
    ])
    def test_rejects(self, field, value):
        kwargs = {"r": 1, "model": Sphere(n=2, radius=1.0), "t_end": 0.1, field: value}
        with pytest.raises(DomainError, match=field):
            FlowConfig(**kwargs)

    def test_vanishing_time_step_is_an_error(self):
        # h^2 underflows to 0, so dt = 0 and the loop would never end
        config = FlowConfig(r=1, model=Sphere(n=2, radius=1e-170), t_end=0.1)
        with pytest.raises(NumericalError, match="does not advance"):
            run(config)
