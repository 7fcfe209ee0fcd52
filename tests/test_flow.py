import json
import math
import time

import numpy as np
import pytest

from newton_flow import cli, fd, flow
from newton_flow.catalog import (
    MAX_SAMPLES,
    Cylinder,
    Hyperplane,
    ProfileCurve,
    Revolution,
    Sphere,
    RevolutionGeometry,
    _graph_builder,
    cylinder_profile,
    ellipsoid_band_profile,
    revolution_geometry,
    self_shrinkers,
    shrinker_radius,
    sphere_band_profile,
)
from newton_flow.errors import (
    DomainError,
    ExtinctionError,
    NumericalError,
)
from newton_flow.flow import (
    FlowConfig,
    extinction_time,
    homothety_factor,
    run,
    sphere_band_pin,
    sphere_radius_exact,
)
from newton_flow.operators import ORDER_BAND
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

    @pytest.mark.parametrize("call", [
        lambda: extinction_time(2.5, 1, 1.0),
        lambda: extinction_time(True, 1, 1.0),
        lambda: sphere_radius_exact(2.5, 1, 1.0, 0.1),
    ])
    def test_dimension_is_an_integer(self, call):
        with pytest.raises(DomainError, match="dimension n"):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: extinction_time(2, 1, 0.0), "^radius must be positive$"),
        (lambda: sphere_radius_exact(2, 1, 1.0, -0.1), "^time must be nonnegative$"),
        (lambda: sphere_band_pin(2.0, 1, 0.5)(-0.1), "^time must be nonnegative$"),
    ], ids=["extinction_time.radius0", "sphere_radius_exact.t", "sphere_band_pin.t"])
    def test_a_radius_of_zero_and_a_time_before_zero_are_refused(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()

    @pytest.mark.parametrize("half_width", [math.nan, -0.6, 0.0, 2.0, 3.0])
    def test_band_pin_checks_its_half_width(self, half_width):
        with pytest.raises(DomainError, match="half_width"):
            sphere_band_pin(2.0, 1, half_width)

    @pytest.mark.parametrize("site", [
        lambda v: Sphere(n=2, radius=v),
        lambda v: Cylinder(n=3, m=1, radius=v),
        lambda v: ellipsoid_band_profile(v, 2.0, 0.75, 16),
        lambda v: ellipsoid_band_profile(2.0, v, 0.75, 16),
        lambda v: ellipsoid_band_profile(2.0, 2.0, v, 16),
        lambda v: sphere_band_profile(v, 0.25, 16),
        lambda v: sphere_band_profile(2.0, v, 16),
        lambda v: cylinder_profile(v, 2.0, 16),
        lambda v: cylinder_profile(1.0, v, 16),
        lambda v: extinction_time(2, 1, v),
        lambda v: sphere_radius_exact(2, 1, v, 0.01),
        lambda v: sphere_radius_exact(2, 1, 3.0, v),
        lambda v: sphere_band_pin(v, 1, 0.25),
        lambda v: sphere_band_pin(2.0, 1, v),
        lambda v: FlowConfig(r=1, model=Sphere(n=2, radius=1.0), t_end=v),
        lambda v: FlowConfig(r=1, model=Sphere(n=2, radius=1.0), t_end=0.1,
                             cfl_safety=v),
    ], ids=["Sphere.radius", "Cylinder.radius", "ellipsoid_band_profile.a",
            "ellipsoid_band_profile.b", "ellipsoid_band_profile.band",
            "sphere_band_profile.radius",
            "sphere_band_profile.half_width", "cylinder_profile.radius",
            "cylinder_profile.half_width", "extinction_time.radius0",
            "sphere_radius_exact.radius0", "sphere_radius_exact.t",
            "sphere_band_pin.radius0", "sphere_band_pin.half_width",
            "FlowConfig.t_end", "FlowConfig.cfl_safety"])
    def test_real_parameters_refuse_other_types(self, site):
        site(np.float64(0.5))
        for value in (True, np.bool_(True), "1.0", None):
            with pytest.raises(DomainError, match="must be a real number"):
                site(value)

    @pytest.mark.parametrize("call, product", [
        (lambda: extinction_time(1100, 550, 1.0), r"551\*C\(1100,550\)"),
        (lambda: sphere_radius_exact(1100, 550, 1.0, 0.1), r"551\*C\(1100,550\)"),
        (lambda: run(FlowConfig(r=550, model=Sphere(n=1100, radius=1.0), t_end=0.1)),
         r"C\(1100,550\)"),
    ], ids=["extinction_time", "sphere_radius_exact", "run"])
    def test_a_binomial_past_the_float_range_is_named(self, call, product):
        # R = 1 is harmless: C(1100, 550) ~ 1e329 is what leaves the float range
        with pytest.raises(NumericalError, match=f"^{product} leaves the float range$"):
            call()

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
        config = FlowConfig(r=2, model=Revolution(profile=prof), t_end=0.02,
                            output_stride=1)
        result = run(config)
        assert result.status == "completed" and result.state.step_count >= 25
        assert np.abs(result.state.geometry.f - 1.0).max() <= 1e-10
        assert all(abs(d.min_radius - 1.0) <= 1e-10 for d in result.diagnostics)

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

    def test_a_stationary_run_takes_no_step(self, capsys, tmp_path):
        # a hyperplane does not move: its rows are the start and t_end, and
        # the run and the CLI's JSON count no step
        result = run(FlowConfig(r=1, model=Hyperplane(n=2), t_end=0.5))
        assert (result.status, result.state.t, result.state.step_count) == (
            "stationary", 0.5, 0)
        assert [d.t for d in result.diagnostics] == [0.0, 0.5]
        cfg = tmp_path / "plane.json"
        cfg.write_text(json.dumps({"model": {"kind": "hyperplane", "n": 2}, "r": 1,
                                   "flow": {"t_end": 0.5}}))
        assert cli.main(["flow", "--config", str(cfg),
                         "--out", str(tmp_path / "diag.csv")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["status"], summary["stepCount"]) == ("stationary", 0)

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

    def test_rk2_beats_euler_on_a_tube(self):
        # a tube's profile has no error in space, so what is left is the step's
        errs = {}
        for scheme in ("euler", "rk2"):
            prof = cylinder_profile(1.0, 2.0, 64)
            config = FlowConfig(r=1, model=Revolution(profile=prof), t_end=0.2,
                                scheme=scheme)
            result = run(config)
            errs[scheme] = np.abs(result.state.geometry.f - math.sqrt(0.6)).max()
        assert errs["rk2"] <= errs["euler"] / 10.0


# ---------------------------------------------------------------------------
# the shared revolution stage against the separate-pass formulas

def _reference_bound(f, h, boundary, r):
    """Step bound h^2 / (2 sup |lambda_mer|) from its own derivative pass:
    lambda_mer = 1 at r = 1 and k_par = 1/(f w) at r = 2 (orientation +1)."""
    if r == 1:
        return h ** 2 / 2.0
    fp = reference_deriv1(f, h, boundary)
    w = np.sqrt(1.0 + fp * fp)
    return h ** 2 / (2.0 * float((1.0 / (f * w)).max()))


def _reference_speed(f, h, boundary, orientation, r):
    fp = reference_deriv1(f, h, boundary)
    fpp = reference_deriv2(f, h, boundary)
    w = np.sqrt(1.0 + fp * fp)
    o = float(orientation)
    k_mer = o * (-fpp) / w ** 3
    k_par = o / (f * w)
    sigma = k_mer + k_par if r == 1 else k_mer * k_par
    return -o * sigma * w


def _reference_step(f, t, dt, h, boundary, orientation, r, scheme, pin):
    """One forward-Euler or midpoint step from its own speed passes, with
    the pin imposed on the midpoint and on the result."""
    def pinned(values, at):
        if pin is not None:
            values[0], values[-1] = pin(at)
        return values

    speed = _reference_speed(f, h, boundary, orientation, r)
    if scheme == "rk2":
        mid = pinned(f + 0.5 * dt * speed, t + 0.5 * dt)
        speed = _reference_speed(mid, h, boundary, orientation, r)
    return pinned(f + dt * speed, t + dt)


def _reference_run(f, z, r, scheme, pin, t_end, safety=0.25):
    """run()'s time loop with a bound pass, a check pass and a speed pass."""
    h, boundary, t, steps = float(z[1] - z[0]), "neumann", 0.0, 0
    while t < t_end * (1.0 - 1e-14):
        dt = min(safety * _reference_bound(f, h, boundary, r), t_end - t)
        assert dt <= _reference_bound(f, h, boundary, r) * (1.0 + 1e-9)
        f = _reference_step(f, t, dt, h, boundary, 1, r, scheme, pin)
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


def _band_record(m, orientation):
    prof = sphere_band_profile(2.0, 0.6, m)
    return _graph_builder(prof.z, prof.h, prof.boundary, orientation)(prof.f)


def _arrays(geo):
    return [field for field in geo if isinstance(field, np.ndarray)]


class TestRevolutionStage:
    def test_state_is_the_catalog_record(self):
        result = run(_band_config(2, "rk2", pinned=True))
        geo = result.state.geometry
        assert isinstance(geo, RevolutionGeometry)
        again = _graph_builder(geo.z, geo.h, geo.boundary, geo.orientation)(geo.f)
        for name in ("fp", "w", "k_mer", "k_par"):
            assert getattr(geo, name).tobytes() == getattr(again, name).tobytes()

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
        geo = _band_record(48, -1)
        got_speed, got_bound = flow._graph_kind(geo, r).stage(geo.f)
        speed = _reference_speed(geo.f, geo.h, geo.boundary, -1, r)
        assert got_speed.tobytes() == speed.tobytes()
        assert got_bound == _reference_bound(geo.f, geo.h, geo.boundary, r)

    @pytest.mark.parametrize("boundary", fd.BOUNDARY_MODES)
    @pytest.mark.parametrize("orientation", [1, -1])
    @pytest.mark.parametrize("r", [1, 2])
    def test_speed_has_the_bits_of_the_stage_speed(self, r, orientation, boundary):
        # each from a kind of its own, so neither reads the other's parts
        prof = sphere_band_profile(2.0, 0.6, 32)
        geo = _graph_builder(prof.z, prof.h, boundary, orientation)(prof.f)
        for f in (geo.f, geo.f * 0.9 + 0.05 * np.cos(geo.z)):
            speed = flow._graph_kind(geo, r).speed(f)
            assert speed.tobytes() == flow._graph_kind(geo, r).stage(f)[0].tobytes()
            assert speed.tobytes() == _reference_speed(f, geo.h, boundary, orientation,
                                                       r).tobytes()

    @pytest.mark.parametrize("scheme, passes", [("euler", 1), ("rk2", 2)])
    def test_one_derivative_pass_per_stage(self, monkeypatch, scheme, passes):
        # the run binds its grid's stencil once, next to the one of the
        # initial record, and the diagnostics rows reuse the stage that set
        # each state's dt
        stencils = _count_products(monkeypatch, fd, "_stencil")
        config = _band_config(2, scheme, pinned=True, output_stride=10)
        result = run(config)
        steps = result.state.step_count
        assert len(result.diagnostics) > 2
        assert stencils == [2, passes * steps + 1]

    @pytest.mark.parametrize("scheme", ["euler", "rk2"])
    def test_records_own_their_memory(self, monkeypatch, scheme):
        # what a step writes: the stencil's padded buffer (by its ghost fill)
        # and the values the guard reads (the pinned midpoint and result);
        # the initial record sees the run's steps and keeps its bytes.  The
        # first radius read is the extinction floor's, of the start values
        padded, guarded, records = [], [], []
        fill, start, make = fd._fill_ghosts, flow.revolution_geometry, flow._graph_kind
        monkeypatch.setattr(fd, "_fill_ghosts",
                            lambda p, mode: padded.append(p) or fill(p, mode))
        monkeypatch.setattr(flow, "revolution_geometry",
                            lambda *args: records.append(start(*args)) or records[0])
        monkeypatch.setattr(flow, "_graph_kind", lambda *args: make(*args)._replace(
            radius=lambda x: guarded.append(x) or np.minimum.reduce(x)))
        config = _band_config(2, scheme, pinned=True, output_stride=10)
        result = run(config)
        initial, = records
        floor_read, *guarded = guarded
        assert floor_read is initial.f
        assert len(guarded) >= result.state.step_count > 0
        for array in _arrays(initial):
            assert not any(np.shares_memory(array, b) for b in padded + guarded)
        assert [a.tobytes() for a in _arrays(initial)] == [
            a.tobytes() for a in _arrays(start(config.model))]

    @pytest.mark.parametrize("scheme", ["euler", "rk2"])
    @pytest.mark.parametrize("r", [1, 2])
    def test_nan_profile_run_raises(self, monkeypatch, r, scheme):
        # a ProfileCurve refuses NaN samples, so the NaN goes into run's state
        record = flow.revolution_geometry

        def with_nan(*args):
            geo = record(*args)
            f = geo.f.copy()
            f[7] = np.nan
            return geo._replace(f=f)

        monkeypatch.setattr(flow, "revolution_geometry", with_nan)
        model = Revolution(profile=sphere_band_profile(2.0, 0.6, 32))
        with pytest.raises(NumericalError, match="non-finite profile"):
            run(FlowConfig(r=r, model=model, t_end=0.01, scheme=scheme))


# ---------------------------------------------------------------------------
# the radial graph's step bound: the limit of the speed's principal part

class TestGraphStepBound:
    @pytest.mark.parametrize("scheme", ["euler", "rk2"])
    @pytest.mark.parametrize("cfl_safety", [1.0, 0.9])
    def test_a_thin_tube_stays_stable(self, scheme, cfl_safety):
        # a periodic Gauss-speed tube of radius 0.3 is stationary, and its
        # p = 1/0.3 lies well above 1 + |q|: its seeded ripple must not grow
        # at the largest step the bound allows
        z = np.linspace(-1.0, 1.0, 65)
        f0 = 0.3 + 1e-6 * np.random.default_rng(1).random(z.size)
        model = Revolution(profile=ProfileCurve(z=z, f=f0, boundary="periodic"))
        result = run(FlowConfig(r=2, model=model, t_end=0.02, cfl_safety=cfl_safety,
                                scheme=scheme))
        assert result.status == "completed" and result.state.step_count > 100
        assert np.ptp(result.state.geometry.f) <= np.ptp(f0)

    @pytest.mark.parametrize("scheme", ["euler", "rk2"])
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("profile, pinned", [
        (sphere_band_profile(2.0, 0.6, 32), True),
        (sphere_band_profile(1.0, 0.8, 24), False),
        (ellipsoid_band_profile(1.0, 2.0, 0.75, 33), False),
        (cylinder_profile(0.3, 1.0, 33), False),
        (cylinder_profile(2.0, 0.5, 17), False),
    ])
    def test_bound_keeps_the_principal_part_convex(self, monkeypatch, profile, pinned, r,
                                                   scheme):
        # 2 dt max_j |lambda_mer,j| / w_j^2 <= h^2 at cfl_safety 1, from the
        # record's own eigenvalues of P_{r-1}, at every stage of a run
        staged, make = [], flow._graph_kind

        def recorded(*args):
            kind = make(*args)

            def stage(f):
                speed, bound = kind.stage(f)
                staged.append((f, bound))
                return speed, bound
            return kind._replace(stage=stage)
        monkeypatch.setattr(flow, "_graph_kind", recorded)
        pin = sphere_band_pin(2.0, r, 0.6) if pinned else None
        run(FlowConfig(r=r, model=Revolution(profile=profile), t_end=0.03,
                       cfl_safety=1.0, scheme=scheme, boundary_values=pin))
        build = _graph_builder(profile.z, profile.h, profile.boundary, 1)
        assert len(staged) > 5
        for f, bound in staged:
            geo = build(f)
            coefficient = np.abs(geo.p_eigenvalues(r)[0]) / geo.w ** 2
            assert 2.0 * bound * float(coefficient.max()) <= geo.h ** 2 * (1.0 + 1e-14)

    def test_a_zero_parallel_curvature_has_no_bound(self):
        # the record refuses a profile whose f w leaves the float range, so a
        # max p of 0 is planted in the record the first stage reads
        geo = revolution_geometry(Revolution(profile=cylinder_profile(1.0, 0.5, 16)))
        zero = np.zeros_like(geo.f)
        speed, bound = flow._graph_kind(geo._replace(k_par=zero), 2).stage(geo.f)
        assert bound == math.inf and not speed.any()


def _records_of(z, f):
    """The records a caller gets from a profile on z and f: revolution_geometry's
    and a run's result (and an ellipsoid's, with no caller arrays)."""
    model = Revolution(profile=ProfileCurve(z=z, f=f))
    result = run(FlowConfig(r=2, model=model, t_end=1e-4))
    assert result.status == "completed" and result.state.step_count > 0
    return {"revolution_geometry": revolution_geometry(model),
            "ellipsoid": revolution_geometry(
                Revolution(profile=ellipsoid_band_profile(1.0, 2.0, 0.75, 16))),
            "run": result.state.geometry}


class TestReadOnlyRecords:
    def test_writing_to_a_record_raises(self):
        z = np.linspace(-0.6, 0.6, 32)
        for geo in _records_of(z, np.sqrt(4.0 - z * z)).values():
            for array in _arrays(geo):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0

    def test_records_share_no_memory_with_the_callers_arrays(self):
        z = np.linspace(-0.6, 0.6, 32)
        f = np.sqrt(4.0 - z * z)
        for source, geo in _records_of(z, f).items():
            for array in _arrays(geo):
                assert not (np.shares_memory(array, z) or np.shares_memory(array, f)), source


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


def _round_row(t, sphere, dt, config, radius0):
    """A round law's row, read off its Sphere: the oracle of the run's rows."""
    n, r, radius = sphere.n, config.r, sphere.radius
    phi = _phi(r, t) if config.rescaled else 1.0
    residual = abs(phi ** r * float(math.comb(n, r)) / radius ** r - radius / phi)
    defect = math.nan
    if config.rescaled:
        defect = abs(radius - homothety_factor(r, t) * radius0)
    return (t, residual, defect, radius, dt)


def _graph_row(t, geo, dt, config, initial):
    """A radial graph's row, read off its record; the homothety window keeps
    the nodes whose z / phi lies in the initial grid."""
    r, z0, f0 = config.r, initial.z, initial.f
    phi = _phi(r, t) if config.rescaled else 1.0
    residual = float(np.abs(phi ** r * geo.sigma(r) + geo.support / phi).max())
    defect = math.nan
    if config.rescaled:
        phi_h = homothety_factor(r, t)
        if phi_h > 0:
            z_back = geo.z / phi_h
            inside = (z0.min() <= z_back) & (z_back <= z0.max())
            if inside.any():
                ref = phi_h * np.interp(z_back[inside], z0, f0)
                defect = float(np.abs(geo.f[inside] - ref).max())
        else:
            defect = float(np.abs(geo.f).max())
    return (t, residual, defect, float(geo.f.min()), dt)


def _bits(rows):
    """The rows' float64 bytes: bit equality, a NaN matching a NaN."""
    return np.array(rows, dtype=np.float64).tobytes()


class TestExplicitScheme:
    @pytest.mark.parametrize("model, n, r", [
        (Sphere(n=3, radius=shrinker_radius(3, 2)), 3, 2),
        (Cylinder(n=3, m=2, radius=shrinker_radius(2, 1)), 2, 1),
        (Sphere(n=1, radius=shrinker_radius(1, 1)), 1, 1),    # the circle
    ])
    def test_scalar_law_matches_reference_loop(self, model, n, r):
        # the midpoint rule at the bound T_ext(R) / resolution, whatever the scheme
        resolution, t_end, stride = 64, 0.3 / (r + 1), 7
        config = FlowConfig(r=r, model=model, t_end=t_end, rescaled=True,
                            resolution=resolution, output_stride=stride)
        result = run(config)
        radius0 = model.radius

        def bound(radius):
            return radius * radius ** r / ((r + 1) * math.comb(n, r) * resolution)

        def rate(radius):
            return -math.comb(n, r) / radius ** r

        def step(radius, t, dt):
            return radius + dt * rate(radius + 0.5 * dt * rate(radius))

        def diagnose(radius, t, dt):
            return _round_row(t, Sphere(n, radius), dt, config, radius0)

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

    def test_rk2_midpoint_below_radius_zero_ends_the_run(self):
        # a thin tube, f = 0.01 and h = 1/15: the first dt is h^2 / 3, and its
        # midpoint f - dt / (2 f) is below 0; the speed there, -1/f, is
        # positive, so a step from that midpoint would not end the run
        prof = cylinder_profile(0.01, 0.5, 16)
        config = FlowConfig(r=1, model=Revolution(profile=prof), t_end=1.0,
                            scheme="rk2", cfl_safety=1.0)
        result = run(config)
        assert (result.status, result.state.step_count) == ("extinct", 0)
        assert result.state.geometry.f.tobytes() == prof.f.tobytes()
        assert [d.t for d in result.diagnostics] == [0.0]


# ---------------------------------------------------------------------------
# diagnostics rows against the formulas read off a state object

# (model, r, t_end): every law of the catalog but the hyperplanes; a circle
# whose rows pass phi's clamp at t = 1/2; a cylinder with r > m, whose round
# factor does not move
CATALOG_LAWS = [(model, r) for model, r in self_shrinkers(6)
                if not isinstance(model, Hyperplane)]
ROUND_LAWS = [(model, r, 0.9 / (r + 1)) for model, r in CATALOG_LAWS] + [
    (Sphere(n=1, radius=2.0), 1, 0.7), (Cylinder(n=5, m=2, radius=1.5), 3, 0.3)]


def _round_rank(model):
    """The rank of a model's round factor: a sphere's n, a cylinder's m."""
    return model.m if isinstance(model, Cylinder) else model.n


class TestDiagnosticsRows:
    @pytest.mark.parametrize("rescaled", [True, False])
    def test_round_rows_match_the_sphere_formula(self, rescaled):
        clamped = 0
        for model, r, t_end in ROUND_LAWS:
            config = FlowConfig(r=r, model=model, t_end=t_end, resolution=32,
                                rescaled=rescaled, output_stride=7)
            result = run(config)
            n = _round_rank(model)
            want = [_round_row(d.t, Sphere(n, d.min_radius), d.dt, config, model.radius)
                    for d in result.diagnostics]
            assert _bits(_as_tuples(result.diagnostics)) == _bits(want), (model, r)
            steps = result.state.step_count
            assert result.status == "completed", (model, r)
            assert steps == 1 if r > n else steps > 7, (model, r)
            assert len(want) == 1 + steps // 7 + (steps % 7 > 0)
            assert result.state.geometry.radius == want[-1][3]
            clamped += sum(homothety_factor(r, d.t) == 0.0 for d in result.diagnostics)
        assert clamped > 0

    @pytest.mark.parametrize("rescaled", [True, False])
    @pytest.mark.parametrize("scheme", ["euler", "rk2"])
    @pytest.mark.parametrize("model, r, pinned, t_end", [
        (Revolution(profile=sphere_band_profile(2.0, 0.6, 32)), 1, True, 0.15),
        (Revolution(profile=sphere_band_profile(2.0, 0.6, 32)), 2, False, 0.1),
        (Revolution(profile=ellipsoid_band_profile(1.0, 2.0, 0.75, 33)), 2, False, 0.1),
        # sigma_2 = 0 on a tube, which does not move; its rows pass phi's clamp
        (Revolution(profile=cylinder_profile(1.0, 0.5, 16)), 2, False, 0.4),
    ])
    def test_graph_rows_match_the_record_formula(self, model, r, pinned, t_end, scheme,
                                                 rescaled):
        # the records of a loop written out here, with its own stencils, bound,
        # Euler and midpoint steps and pin (_reference_step), which ends where
        # run ends
        config = FlowConfig(r=r, model=model, t_end=t_end, resolution=33,
                            scheme=scheme, rescaled=rescaled, output_stride=7,
                            boundary_values=sphere_band_pin(2.0, r, 0.6) if pinned else None)
        result = run(config)
        start = revolution_geometry(model)
        h, boundary, o = start.h, start.boundary, start.orientation
        build = _graph_builder(start.z, h, boundary, o)

        def step(f, t, dt):
            return _reference_step(f, t, dt, h, boundary, o, r, scheme,
                                   config.boundary_values)

        def diagnose(f, t, dt):
            return _graph_row(t, build(f), dt, config, start)

        f, steps, want, status = _reference_loop(
            start.f, t_end, config.cfl_safety, 7,
            lambda f: _reference_bound(f, h, boundary, r), step, diagnose, np.min)
        assert result.status == status == "completed" and steps > 3 * 7
        assert steps == result.state.step_count
        assert result.state.geometry.f.tobytes() == f.tobytes()
        assert _bits(_as_tuples(result.diagnostics)) == _bits(want)

    def test_homothety_window_on_an_asymmetric_grid(self):
        # the shrinker sphere sqrt(2 - z^2) on z in [-0.3, 1], its ends on
        # the law: where z / phi falls below the grid, an interpolation clamps
        # to the end value, so those nodes are outside the window
        z = np.linspace(-0.3, 1.0, 129)
        radius0 = shrinker_radius(2, 1)

        def pin(t):
            radius = sphere_radius_exact(2, 1, radius0, t)
            return math.sqrt(radius ** 2 - 0.09), math.sqrt(radius ** 2 - 1.0)
        model = Revolution(profile=ProfileCurve(z=z, f=np.sqrt(2.0 - z * z)))
        config = FlowConfig(r=1, model=model, t_end=0.1, rescaled=True,
                            boundary_values=pin, output_stride=10 ** 9)
        result = run(config)
        geo, start = result.state.geometry, revolution_geometry(model)
        assert result.status == "completed"
        assert result.final.homothety_defect < 1e-4
        assert _bits(_as_tuples(result.diagnostics[-1:])) == _bits(
            [_graph_row(result.final.t, geo, result.final.dt, config, start)])


# ---------------------------------------------------------------------------
# the round factor and its step bound, the law's own time scale

class TestRoundFactor:
    def test_state_is_the_catalog_sphere(self):
        for model, r, n in ((Sphere(n=3, radius=1.5), 2, 3),
                            (Sphere(n=1, radius=1.5), 1, 1),           # the circle
                            (Cylinder(n=5, m=3, radius=1.5), 1, 3)):   # its round factor
            config = FlowConfig(r=r, model=model, t_end=0.01, resolution=32)
            kind = flow._kind(config)
            assert kind.start == 1.5
            assert kind.stage(1.25) == flow._round_kind(Sphere(n, 1.5), r, 32).stage(1.25)
            result = run(config)
            assert isinstance(result.state.geometry, Sphere)
            assert result.state.geometry.n == n

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bound_matches_newton_family_sigma(self, n):
        # T_ext(R) / resolution = R / ((r+1) sigma_r resolution), sigma_r of
        # the round sphere's shape operator I / R
        resolution = 64
        for r in range(1, n + 1):
            for radius in (0.3, 1.0, shrinker_radius(n, r), 2.5):
                sigma_r = float(newton_family(np.eye(n) / radius).sigmas[r])
                expect = radius / ((r + 1) * sigma_r * resolution)
                sphere = Sphere(n=n, radius=radius)
                _, got = flow._round_kind(sphere, r, resolution).stage(radius)
                assert got == pytest.approx(expect, rel=1e-13, abs=0), (n, r, radius)
                assert got == pytest.approx(extinction_time(n, r, radius) / resolution,
                                            rel=1e-15, abs=0), (n, r, radius)

    @pytest.mark.parametrize("scheme", ["euler", "rk2"])
    def test_one_sphere_per_run_for_the_result(self, monkeypatch, scheme):
        # the loop steps a float radius and its rows read that float; the
        # run starts from the model itself, so only its result is made
        made = [0]
        check = Sphere.__post_init__

        def counted(sphere):
            made[0] += 1
            check(sphere)
        config = FlowConfig(r=2, model=Sphere(n=3, radius=1.0), t_end=0.05,
                            resolution=32, scheme=scheme, output_stride=7)
        monkeypatch.setattr(Sphere, "__post_init__", counted)
        result = run(config)
        rows_past_start = len(result.diagnostics) - 1
        assert result.state.step_count > 3 * 7 and rows_past_start > 3
        assert made == [1]
        assert result.state.geometry.radius == result.final.min_radius

    def test_speed_has_the_bits_of_the_stage_speed(self):
        laws = CATALOG_LAWS + [(Cylinder(n=5, m=2, radius=1.5), r) for r in (3, 4, 5)]
        for model, r in laws:
            kind = flow._kind(FlowConfig(r=r, model=model, t_end=0.01, resolution=32))
            for radius in (kind.start, 0.75 * kind.start, 1e-3, 2.5, 1e40):
                speed = kind.speed(radius)
                assert speed.hex() == kind.stage(radius)[0].hex(), (model, r, radius)

    @pytest.mark.parametrize("radius", [1e-200, 0.0, 1e200])
    def test_speed_refuses_as_the_stage_does(self, radius):
        # R^r underflows to 0 or overflows: the same float-range error
        kind = flow._round_kind(Sphere(2, 1.0), 2, 32)
        with pytest.raises(NumericalError) as by_stage:
            kind.stage(radius)
        with pytest.raises(NumericalError) as by_speed:
            kind.speed(radius)
        assert str(by_speed.value) == str(by_stage.value)
        assert type(by_speed.value.__cause__) is type(by_stage.value.__cause__)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_cylinder_factor_above_m_has_no_bound(self, r):
        # sigma_r of the round factor of rank 2 vanishes: nothing moves
        config = FlowConfig(r=r, model=Cylinder(n=5, m=2, radius=1.5),
                            t_end=0.01, resolution=32)
        kind = flow._kind(config)
        speed, bound = kind.stage(kind.start)
        assert (speed, math.copysign(1.0, speed), bound) == (0.0, -1.0, math.inf)


def _law_errors(model, r, resolution):
    """(run, sup over its rows of |R - sphere_radius_exact|) of a round law
    run to 0.9 of its extinction time, a row per step."""
    m = _round_rank(model)
    t_end = 0.9 * extinction_time(m, r, model.radius)
    result = run(FlowConfig(r=r, model=model, t_end=t_end, resolution=resolution,
                            output_stride=1))
    assert result.status == "completed"
    return result, max(abs(d.min_radius - sphere_radius_exact(m, r, model.radius, d.t))
                       for d in result.diagnostics)


class TestRoundLawStep:
    @pytest.mark.parametrize("model, r", [
        (Sphere(n=1, radius=1.0), 1),                     # the circle
        (Sphere(n=3, radius=shrinker_radius(3, 2)), 2),
        (Cylinder(n=4, m=2, radius=0.7), 2),
        (Sphere(n=6, radius=shrinker_radius(6, 6)), 6),
    ])
    def test_second_order_in_resolution(self, model, r):
        errs = [_law_errors(model, r, resolution)[1] for resolution in (32, 64, 128, 256)]
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(ORDER_BAND[0] <= p <= ORDER_BAND[1] for p in orders), orders

    def test_every_catalog_law_at_resolution_128(self):
        # within 1e-5 of the law, in ln(10) / -ln(1 - cfl_safety / resolution)
        # steps (1,178) whatever (n, r) is
        steps = math.log(10.0) / -math.log1p(-0.25 / 128)
        for model, r in CATALOG_LAWS:
            result, err = _law_errors(model, r, 128)
            assert err <= 1e-5, (model, r, err)
            assert abs(result.state.step_count - steps) <= 1.0, (model, r)

    def test_the_midpoint_keeps_three_quarters_of_the_radius(self, monkeypatch):
        # at dt = cfl_safety T_ext(R) / resolution the midpoint is R (1 -
        # cfl_safety / (2 (r+1) resolution)): at least 3/4 R at the largest
        # step a config allows, cfl_safety = 1 and resolution = 1, so the
        # guard never refuses a round law's midpoint
        starts, mids, make = [], [], flow._round_kind

        def recorded(*args):
            kind = make(*args)

            def stage(radius):
                starts.append(radius)
                return kind.stage(radius)

            def speed(radius):
                mids.append(radius)
                return kind.speed(radius)
            return kind._replace(stage=stage, speed=speed)
        monkeypatch.setattr(flow, "_round_kind", recorded)
        for model, r in CATALOG_LAWS:
            starts.clear()
            mids.clear()
            t_end = extinction_time(_round_rank(model), r, model.radius)
            result = run(FlowConfig(r=r, model=model, t_end=t_end, resolution=1,
                                    cfl_safety=1.0))
            # stage reads the start and each step's result, speed each midpoint
            assert len(mids) == result.state.step_count == len(starts) - 1 > 0, (model, r)
            for radius, mid in zip(starts, mids):
                assert mid == pytest.approx(radius * (1.0 - 0.5 / (r + 1)), rel=1e-12)
                assert mid >= 0.75 * radius, (model, r)

    def test_the_scheme_does_not_move_a_round_law(self):
        for model, r, t_end in ROUND_LAWS:
            rows = [_as_tuples(run(FlowConfig(r=r, model=model, t_end=t_end, resolution=32,
                                              rescaled=True, scheme=scheme,
                                              output_stride=7)).diagnostics)
                    for scheme in ("euler", "rk2")]
            assert _bits(rows[0]) == _bits(rows[1]), (model, r)


# ---------------------------------------------------------------------------
# the one step, its guard and the step budget

def _count_products(monkeypatch, module, name):
    """Count the functions that module.name makes and their calls, as
    [made, called]."""
    counts = [0, 0]
    make = getattr(module, name)

    def counted_make(*args, **kwargs):
        counts[0] += 1
        inner = make(*args, **kwargs)

        def counted(*args, **kwargs):
            counts[1] += 1
            return inner(*args, **kwargs)
        return counted
    monkeypatch.setattr(module, name, counted_make)
    return counts


def _count_stages(monkeypatch):
    """Count the stage calls of every radial-graph kind made, as [calls]."""
    calls = [0]
    make = flow._graph_kind

    def counted_kind(*args):
        kind = make(*args)

        def stage(f):
            calls[0] += 1
            return kind.stage(f)
        return kind._replace(stage=stage)
    monkeypatch.setattr(flow, "_graph_kind", counted_kind)
    return calls


class TestStepBudget:
    def test_estimate_above_budget_is_refused(self, monkeypatch):
        # one derivative pass per stage, the first stage's being the initial
        # record's (the second stencil made is the run's): a refused run
        # takes no pass past the first
        passes = _count_products(monkeypatch, fd, "_stencil")
        stages = _count_stages(monkeypatch)
        tube = Revolution(profile=cylinder_profile(1.0, 0.5, 16))
        steps = run(FlowConfig(r=2, model=tube, t_end=1e-3)).state.step_count
        assert steps > 0 and passes == [2, steps + 1] and stages == [steps + 1]
        passes[:], stages[:] = [0, 0], [0]
        prof = cylinder_profile(1e-170, 0.5, 16)
        config = FlowConfig(r=2, model=Revolution(profile=prof), t_end=0.01)
        with pytest.raises(DomainError, match="MAX_STEPS"):
            run(config)
        assert passes == [2, 1] and stages == [1]

    def test_loop_stops_past_the_budget(self, monkeypatch):
        # a round law counts its steps in closed form: 410.4 to t_end = 0.96
        # T_ext(R0), T_ext(R) = R^2 / 4, where the first bound gives 123; 411 taken
        config = FlowConfig(r=1, model=Sphere(n=2, radius=0.5), t_end=0.06,
                            resolution=32)
        # a radial graph's bound h^2 / (2 max p) shrinks as the pinned band
        # shrinks: 450 steps estimated from the first bound, 543 taken
        band = FlowConfig(r=2, model=Revolution(profile=sphere_band_profile(1.0, 0.5, 16)),
                          t_end=0.25, boundary_values=sphere_band_pin(1.0, 2, 0.5))
        assert [run(c).state.step_count for c in (config, band)] == [411, 543]
        monkeypatch.setattr(flow, "MAX_STEPS", 410)
        with pytest.raises(DomainError, match="about 410 steps.*MAX_STEPS=410"):
            run(config)
        monkeypatch.setattr(flow, "MAX_STEPS", 500)
        with pytest.raises(NumericalError, match="run passed MAX_STEPS=500"):
            run(band)

    def test_a_round_law_past_the_budget_is_refused_before_its_first_step(
            self, monkeypatch):
        # 5.5e7 steps to the extinction floor, where the first bound gave 4e6
        make, stages = flow._round_kind, []

        def counted(*args):
            kind = make(*args)
            return kind._replace(stage=lambda x: stages.append(x) or kind.stage(x))
        monkeypatch.setattr(flow, "_round_kind", counted)
        config = FlowConfig(r=1, model=Sphere(n=2, radius=1.0), t_end=1e4,
                            resolution=10 ** 6)
        start = time.perf_counter()
        with pytest.raises(DomainError, match=r"^about 5\.53e\+07 steps .*MAX_STEPS"):
            run(config)
        assert time.perf_counter() - start < 1.0
        assert stages == [1.0]      # the first stage only

    # spheres: tests/test_cli.py::TestFlow::test_budget_stops_at_the_closed_form_extinction
    @pytest.mark.parametrize("model, r, resolution", [
        (Cylinder(n=4, m=2, radius=0.5), 2, 32),   # 2,643 steps to the floor
        (Sphere(n=1, radius=1.0), 1, 256),         # the circle: 14,144
    ])
    def test_round_runs_are_estimated_up_to_extinction(self, model, r, resolution):
        result = run(FlowConfig(r=r, model=model, t_end=1e4, resolution=resolution))
        assert result.status == "extinct"
        t_ext = extinction_time(_round_rank(model), r, model.radius)
        assert result.state.t == pytest.approx(t_ext, rel=1e-2)

    @pytest.mark.parametrize("model, r", [
        (Cylinder(n=5, m=2, radius=1.2), 3),   # r > m: stationary, no extinction time
        (Sphere(n=2, radius=1e150), 2),        # R^(r+1) overflows
    ])
    def test_a_law_without_a_closed_form_extinction_takes_one_step(self, model, r):
        # its bound T_ext(R) / resolution is inf, so one step reaches t_end
        for t_end in (0.01, 1e305):
            result = run(FlowConfig(r=r, model=model, t_end=t_end, resolution=32))
            assert (result.status, result.state.step_count) == ("completed", 1)
            assert [d.t for d in result.diagnostics] == [0.0, t_end]
            assert result.state.geometry.radius == model.radius


class TestFlowConfigContract:
    @pytest.mark.parametrize("field, value", [
        ("t_end", math.inf), ("t_end", math.nan), ("t_end", 0.0),
        ("resolution", 0), ("resolution", -16),
        ("resolution", 8.5), ("resolution", True), ("output_stride", 2.5),
        ("output_stride", 0),
        ("t_end", True), ("cfl_safety", True), ("cfl_safety", np.True_),
        ("t_end", "1"), ("cfl_safety", "0.5"),
        ("rescaled", "no"), ("rescaled", 1), ("rescaled", None),
    ])
    def test_rejects(self, field, value):
        kwargs = {"r": 1, "model": Sphere(n=2, radius=1.0), "t_end": 0.1, field: value}
        with pytest.raises(DomainError, match=field):
            FlowConfig(**kwargs)

    @pytest.mark.parametrize("value", [0, -16, MAX_SAMPLES + 1])
    def test_a_refused_resolution_is_named(self, value):
        with pytest.raises(DomainError, match=(
                f"^resolution must lie in 1..{MAX_SAMPLES}, got {value}$")):
            FlowConfig(r=1, model=Sphere(n=2, radius=1.0), t_end=0.1, resolution=value)

    # the range of cfl_safety is the one guarantee that no step of a run
    # exceeds its bound
    @pytest.mark.parametrize("value", [0.0, -0.1, 1.0 + 1e-9, math.nan, math.inf])
    def test_cfl_safety_outside_the_unit_interval_is_refused(self, value):
        with pytest.raises(DomainError, match=r"^cfl_safety must lie in \(0, 1\]$"):
            FlowConfig(r=1, model=Sphere(n=2, radius=1.0), t_end=0.1, cfl_safety=value)

    def test_cfl_safety_one_passes(self):
        config = FlowConfig(r=1, model=Sphere(n=2, radius=1.0), t_end=0.1, cfl_safety=1.0)
        assert run(config).status == "completed"

    def test_boundary_values_need_a_revolution_model(self):
        with pytest.raises(DomainError, match="boundary_values"):
            FlowConfig(r=1, model=Sphere(n=2, radius=1.0), t_end=0.1,
                       boundary_values=sphere_band_pin(2.0, 1, 0.6))

    def test_rejects_a_non_model(self):
        with pytest.raises(DomainError, match="^NoneType is not a catalog model$"):
            FlowConfig(r=1, model=None, t_end=1.0)

    def test_numpy_bool_rescaled_passes(self):
        config = FlowConfig(r=1, model=Sphere(n=2, radius=1.0), t_end=0.1,
                            rescaled=np.True_)
        assert not math.isnan(run(config).final.homothety_defect)

    def test_vanishing_time_step_is_an_error(self):
        # h^2 underflows to 0, so dt = 0 and the loop would never end
        config = FlowConfig(r=1, model=Sphere(n=2, radius=1e-170), t_end=0.1)
        with pytest.raises(NumericalError, match="does not advance"):
            run(config)
