import json
import math
import time
import warnings

import numpy as np
import pytest

from newton_flow import catalog, flow, gapcheck, operators, symfun
from newton_flow.cli import main, render_json
from newton_flow.symfun import newton_family


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scene_file(tmp_path, payload, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestRenderJson:
    def test_sorted_and_17_digits(self):
        text = render_json({"b": 1.0 / 3.0, "a": True, "c": [1, None]})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert "0.33333333333333331" in text
        parsed = json.loads(text)
        assert parsed["b"] == pytest.approx(1.0 / 3.0, abs=0)

    def test_nan_renders_null(self):
        assert json.loads(render_json({"x": float("nan")}))["x"] is None


class TestAlgebra:
    def test_inline_vector(self, capsys):
        code, out, _ = run_cli(capsys, "algebra", "--k", "1,1,0", "--r", "1")
        assert code == 0
        data = json.loads(out)
        assert data["sigmas"] == [1, 2, 1, 0]
        assert data["modifiedNormSq"] == pytest.approx(2.0)

    def test_zero_vector(self, capsys):
        code, out, _ = run_cli(capsys, "algebra", "--k", "0,0,0", "--r", "2")
        assert code == 0
        data = json.loads(out)
        assert data["sigmas"][1:] == [0, 0, 0]
        assert data["modifiedNormSq"] == 0

    def test_cylinder_preset(self, capsys):
        code, out, _ = run_cli(capsys, "algebra", "--preset", "cyl:n=3,m=2,r=1")
        assert code == 0
        data = json.loads(out)
        assert data["modifiedNormSq"] == pytest.approx(1.0)
        assert data["r"] == 1

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "algebra", "--k", "1,x", "--r", "1")
        assert code == 2
        assert "error" in err

    def test_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "algebra", "--k", "1,2", "--r", "5")
        assert code == 3

    @pytest.mark.parametrize("preset, expect", [
        ("cyl:n=3.5,m=2,r=1", 2),
        ("cyl:n=3,m=x,r=1", 2),
        ("cyl:n=-1,m=1,r=1", 3),
    ])
    def test_bad_preset_exit_code(self, capsys, preset, expect):
        code, out, err = run_cli(capsys, "algebra", "--preset", preset)
        assert code == expect
        assert out == ""
        assert "Traceback" not in err


class TestGap:
    def test_boundary_sphere(self, capsys, tmp_path):
        radius = math.comb(3, 2) ** (1.0 / 3.0)
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere", "n": 3, "radius": radius},
            "r": 2, "resolution": 8})
        code, out, _ = run_cli(capsys, "gap", "--config", cfg)
        assert code == 0
        data = json.loads(out)
        assert data["flags"]["thm1_boundary"] is True
        assert data["classification"] == "Sphere"

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere", "n": 2, "radius": 1.0},
            "r": 1, "typo": 3})
        code, _, err = run_cli(capsys, "gap", "--config", cfg)
        assert code == 2
        assert "typo" in err

    def test_byte_identical_output(self, capsys, tmp_path):
        cfg = scene_file(tmp_path, {
            "model": {"kind": "cylinder", "n": 3, "m": 2,
                      "radius": math.sqrt(2.0)},
            "r": 1, "resolution": 8})
        _, out_a, _ = run_cli(capsys, "gap", "--config", cfg)
        _, out_b, _ = run_cli(capsys, "gap", "--config", cfg)
        assert out_a == out_b

    def test_gauss_fragment_when_r_equals_n(self, capsys, tmp_path):
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere", "n": 2, "radius": 1.0},
            "r": 2, "resolution": 8})
        code, out, _ = run_cli(capsys, "gap", "--config", cfg)
        data = json.loads(out)
        assert data["gauss"]["supHK"] == pytest.approx(2.0)
        assert data["gauss"]["weaklyConvex"] is True


# copied from perfbench/workloads.MALFORMED: (scene, expected exit code)
MALFORMED_SCENES = [
    ({"model": {"kind": "sphere", "n": 2}, "r": 1}, 2),
    ({"model": {"kind": "sphere", "n": "two", "radius": 1.0}, "r": 1}, 2),
    ({"model": {"kind": "sphere", "n": 2, "radius": 1.0}, "r": "one"}, 2),
    ({"model": {"kind": "revolution", "z": [0, 1, 2, 3, 4],
                "f": [1, 1, "x", 1, 1]}, "r": 1}, 2),
    ({"model": {"kind": "sphere", "n": 2, "radius": 1.0}, "r": 1,
      "colour": "red"}, 2),
    ({"model": {"kind": "sphere", "n": 2, "radius": 1.0}, "r": 3}, 3),
    ({"model": {"kind": "sphere", "n": 2, "radius": -1.0}, "r": 1}, 3),
    # integer fields are not truncated, and sizes must be finite
    ({"model": {"kind": "sphere", "n": 2.7, "radius": 1.0}, "r": 1}, 2),
    ({"model": {"kind": "sphere", "n": 2, "radius": 1.0}, "r": True}, 2),
    ({"model": {"kind": "sphere", "n": 2, "radius": 1.0}, "r": 1.5}, 2),
    ({"model": {"kind": "sphere", "n": 2, "radius": math.inf}, "r": 1}, 3),
    # a JSON boolean is not a number
    ({"model": {"kind": "sphere", "n": 2, "radius": True}, "r": 1}, 2),
    ({"model": {"kind": "cylinder", "n": 3, "m": 2, "radius": 1.0,
                "axial_extent": False}, "r": 1}, 2),
    ({"model": {"kind": "revolution", "z": [0, 1, 2, 3, 4],
                "f": [1, 1, True, 1, 1]}, "r": 1}, 2),
    ({"model": {"kind": "revolution", "z": [0, 1, 2, 3, 4],
                "f": [1, 1, 1, 1, 1], "boundary": 5}, "r": 1}, 2),
    # an output path must be a string: open() takes an int as a file descriptor
    ({"model": {"kind": "sphere", "n": 2, "radius": 1.0}, "r": 1,
      "output": {"report": 987654}}, 2),
    # keys that changed no output are unknown keys (flow.resample_every is
    # in test_flow_input_contract)
    ({"model": {"kind": "cylinder", "n": 3, "m": 2, "radius": 1.0,
                "axial_extent": 1.0}, "r": 1}, 2),
    ({"model": {"kind": "ellipsoid_rev", "a": 1.0, "b": 2.0, "resolution": 64},
      "r": 1}, 2),
]


@pytest.mark.parametrize("scene, expect", MALFORMED_SCENES)
def test_malformed_gap_scene_exit_code(capsys, tmp_path, scene, expect):
    cfg = scene_file(tmp_path, scene)
    code, out, err = run_cli(capsys, "gap", "--config", cfg)
    assert code == expect
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("config error" if expect == 2 else "domain error")


def _nan_profile_scene(tmp_path):
    f = [1.0] * 9
    f[4] = float("nan")
    return scene_file(tmp_path, {
        "model": {"kind": "revolution", "z": [0.1 * i for i in range(9)], "f": f},
        "r": 1, "resolution": 9})


@pytest.mark.parametrize("command", ["gap", "residual"])
def test_nan_profile_is_numerical_failure_outside_flow(capsys, tmp_path, command):
    code, out, err = run_cli(capsys, command, "--config", _nan_profile_scene(tmp_path))
    assert code == 3     # a NaN sample is outside the profile's domain
    assert out == ""
    assert "non-finite" in err
    assert "Traceback" not in err


class TestResidual:
    def test_sphere_residual(self, capsys, tmp_path):
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere", "n": 2, "radius": 1.0},
            "r": 1, "resolution": 8})
        code, out, _ = run_cli(capsys, "residual", "--config", cfg)
        assert code == 0
        # sigma_1 + <X,N> = 2 - 1 = 1 on the unit 2-sphere
        assert json.loads(out)["supResidual"] == pytest.approx(1.0)


class TestFlow:
    def test_circle_law_csv(self, capsys, tmp_path):
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere", "n": 1, "radius": 1.0},
            "r": 1, "resolution": 256,
            "flow": {"t_end": 0.25, "output_stride": 1000}})
        out_csv = tmp_path / "diag.csv"
        code, out, _ = run_cli(capsys, "flow", "--config", cfg,
                               "--out", str(out_csv))
        assert code == 0
        summary = json.loads(out)
        assert summary["status"] == "completed"
        assert summary["finalMinRadius"] == pytest.approx(math.sqrt(0.5), abs=1e-3)
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "t,max_residual,homothety_defect,min_radius,dt"
        assert len(lines) == summary["diagnosticsCount"] + 1

    def test_extinction_exit_code(self, capsys, tmp_path):
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere", "n": 1, "radius": 0.2},
            "r": 1, "resolution": 64,
            "flow": {"t_end": 5.0, "output_stride": 1000}})
        out_csv = tmp_path / "diag.csv"
        code, _, _ = run_cli(capsys, "flow", "--config", cfg, "--out", str(out_csv))
        assert code == 4
        code, _, _ = run_cli(capsys, "flow", "--config", cfg,
                             "--out", str(out_csv), "--allow-extinction")
        assert code == 0

    def test_sphere_band_scene(self, capsys, tmp_path):
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere_band", "radius": 2.0,
                      "half_width": 0.6, "samples": 48},
            "r": 1,
            "flow": {"t_end": 0.05, "output_stride": 500}})
        out_csv = tmp_path / "band.csv"
        code, out, _ = run_cli(capsys, "flow", "--config", cfg, "--out", str(out_csv))
        assert code == 0
        assert json.loads(out)["status"] == "completed"

    def test_pinned_sphere_band_follows_law(self, capsys, tmp_path):
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere_band", "radius": 2.0,
                      "half_width": 0.6, "samples": 64},
            "r": 1,
            "flow": {"t_end": 0.1, "output_stride": 2000,
                     "pinned_boundary": True}})
        out_csv = tmp_path / "band.csv"
        code, out, _ = run_cli(capsys, "flow", "--config", cfg, "--out", str(out_csv))
        assert code == 0
        summary = json.loads(out)
        # min radius sits at the pinned band edge: sqrt(R(t)^2 - hw^2)
        expect = math.sqrt((4.0 - 4.0 * 0.1) - 0.36)
        assert summary["finalMinRadius"] == pytest.approx(expect, abs=1e-4)

    def test_pinned_boundary_needs_sphere_band(self, capsys, tmp_path):
        cfg = scene_file(tmp_path, {
            "model": {"kind": "cylinder_band", "radius": 1.0,
                      "half_width": 1.0, "samples": 48},
            "r": 1,
            "flow": {"t_end": 0.05, "pinned_boundary": True}})
        code, _, err = run_cli(capsys, "flow", "--config", cfg)
        assert code == 2
        assert "sphere band" in err

    def test_bad_flow_field_is_config_error(self, capsys, tmp_path):
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere_band", "radius": 2.0,
                      "half_width": 0.6, "samples": 32},
            "r": 1, "flow": {"t_end": "soon"}})
        code, _, err = run_cli(capsys, "flow", "--config", cfg)
        assert code == 2
        assert "t_end" in err

    @pytest.mark.parametrize("flow_spec, argv, expect", [
        ({"t_end": 0.01, "rescaled": "false"}, (), 2),
        ({"t_end": 0.01, "rescaled": 0}, (), 2),
        ({"t_end": 0.01, "pinned_boundary": "yes"}, (), 2),
        ({"t_end": 0.01, "pinned_boundary": 0}, (), 2),
        ({"t_end": True}, (), 2),
        ({"t_end": 0.01, "cfl_safety": True}, (), 2),
        ({"t_end": 0.01, "scheme": ["rk2"]}, (), 2),
        ({"t_end": 0.01, "scheme": 2}, (), 2),
        ({"t_end": math.inf}, (), 3),
        ({"t_end": 0.01, "resample_every": -1}, (), 2),    # an unknown key
        ({"t_end": 0.01}, ("--resolution", "0"), 3),
        ({"t_end": 0.01}, ("--resolution=-16",), 3),
        ({}, ("--t-end", "inf"), 3),
    ])
    def test_flow_input_contract(self, capsys, tmp_path, flow_spec, argv, expect):
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere", "n": 2, "radius": 1.0},
            "r": 1, "flow": flow_spec})
        code, out, err = run_cli(capsys, "flow", "--config", cfg, *argv)
        assert code == expect
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("config error" if expect == 2 else "domain error")

    @pytest.mark.parametrize("r", [1, 2])
    def test_budget_stops_at_the_closed_form_extinction(self, capsys, tmp_path, r):
        # up to t_end = 1e4 the first bound gives 1.25e7 (r = 1) or 2.08e7
        # (r = 2) steps, but the sphere dies out at t = 0.0625 or 0.0417
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere", "n": 2, "radius": 0.5},
            "r": r, "resolution": 32, "flow": {"t_end": 1e4}})
        code, out, _ = run_cli(capsys, "flow", "--config", cfg,
                               "--out", str(tmp_path / "diag.csv"), "--allow-extinction")
        assert code == 0
        summary = json.loads(out)
        assert summary["status"] == "extinct"
        t_ext = flow.extinction_time(2, r, 0.5)
        assert summary["tFinal"] == pytest.approx(t_ext, rel=1e-2)
        assert summary["stepCount"] < 2000

    def test_nan_profile_is_numerical_failure(self, capsys, tmp_path):
        z = [0.1 * i for i in range(9)]
        f = [1.0] * 9
        f[4] = float("nan")
        cfg = scene_file(tmp_path, {
            "model": {"kind": "revolution", "z": z, "f": f},
            "r": 1, "flow": {"t_end": 0.01}})
        code, _, err = run_cli(capsys, "flow", "--config", cfg)
        assert code == 3
        assert "non-finite" in err


class TestVerify:
    def test_full_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify",
                               "--resolutions", "64,128,256")
        assert code == 0
        assert "verification passed" in out
        assert out.count("PASS") >= 7

    def test_needs_two_resolutions(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--resolutions", "64")
        assert code == 2

    @pytest.mark.parametrize("resolutions, expect", [
        ("64,x", 2), ("64,128.5", 2), ("64,64", 2), ("128,64", 2), ("-5,10", 3)])
    def test_bad_resolutions_exit_code(self, capsys, resolutions, expect):
        code, out, err = run_cli(capsys, "verify", f"--resolutions={resolutions}")
        assert code == expect
        assert out == ""
        assert err.startswith("config error" if expect == 2 else "domain error")


def _model_spec(model):
    if isinstance(model, catalog.Hyperplane):
        return {"kind": "hyperplane", "n": model.n}
    if isinstance(model, catalog.Sphere):
        return {"kind": "sphere", "n": model.n, "radius": model.radius}
    return {"kind": "cylinder", "n": model.n, "m": model.m, "radius": model.radius}


def _gauss_taxonomy(n_max):
    """Every r = n entry of the criterion-8 taxonomy with n <= n_max."""
    for model, r in catalog.self_shrinkers(n_max):
        if r == model.n:
            yield model
    for n in range(3, n_max + 1):           # r > m: not shrinkers
        for m in range(1, n - 1):
            yield catalog.Cylinder(n=n, m=m, radius=1.0)
    for n in range(1, n_max + 1):           # Gauss flow on the unit sphere
        yield catalog.Sphere(n=n, radius=1.0)


def _oracle_taxonomy(n_max):
    """Every catalog shrinker with n <= n_max, and every cylinder with r > m."""
    yield from catalog.self_shrinkers(n_max)
    for n in range(2, n_max + 1):
        for m in range(1, n):
            for r in range(m + 1, n + 1):
                yield catalog.Cylinder(n=n, m=m, radius=1.0), r


def _tiled_fields(model, resolution):
    """The closed-form row repeated once per point of the model's sample grid."""
    curvatures, support = catalog.sample_fields(model, resolution)
    count = math.prod(catalog._grid_sizes(model, resolution))
    return np.repeat(curvatures, count, axis=0), np.repeat(support, count)


class TestTiledOracle:
    """gap and residual read one row per distinct sample; the tiled grid,
    one identical row per grid point, must give the same bytes."""

    def test_gap_report_matches_the_tiled_grid(self):
        for model, r in _oracle_taxonomy(4):
            curvatures, support = _tiled_fields(model, 8)
            assert support.size > 1
            reports = (gapcheck.evaluate(model, r, 8),
                       gapcheck.evaluate_from_samples(curvatures, support,
                                                      r, model.n, model=model))
            got, want = ({**rep.to_json_dict(),
                          "gauss": rep.gauss and rep.gauss.to_json_dict()}
                         for rep in reports)
            assert render_json(got) == render_json(want), (model, r)

    def test_residual_matches_the_tiled_grid(self, capsys, tmp_path):
        for model, r in _oracle_taxonomy(4):
            cfg = scene_file(tmp_path, {"model": _model_spec(model), "r": r,
                                        "resolution": 8})
            code, out, _ = run_cli(capsys, "residual", "--config", cfg)
            curvatures, support = _tiled_fields(model, 8)
            sigma_r = symfun.elem_sym_all_rows(curvatures)[:, r]
            sup = float(np.abs(sigma_r + support).max())
            assert code == 0
            assert out == render_json({"r": r, "resolution": 8,
                                       "supResidual": sup}) + "\n", (model, r)


class TestGapGaussFragment:
    def test_one_sample_set_per_report(self, capsys, tmp_path, monkeypatch):
        calls = []
        original = catalog.sample_fields

        def counted(model, resolution):
            calls.append(resolution)
            return original(model, resolution)

        for module in (catalog, gapcheck):
            monkeypatch.setattr(module, "sample_fields", counted)
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere", "n": 3, "radius": 1.0},
            "r": 3, "resolution": 8})
        code, out, _ = run_cli(capsys, "gap", "--config", cfg)
        assert code == 0
        assert calls == [8]
        assert json.loads(out)["gauss"]["n"] == 3

    def test_gauss_block_matches_gauss_check(self, capsys, tmp_path):
        resolution = 8
        models = list(_gauss_taxonomy(4))
        assert len(models) == 15
        for i, model in enumerate(models):
            cfg = scene_file(tmp_path, {"model": _model_spec(model), "r": model.n,
                                        "resolution": resolution}, f"s{i}.json")
            code, out, _ = run_cli(capsys, "gap", "--config", cfg)
            assert code == 0
            expect = gapcheck.gauss_check(model, resolution).to_json_dict()
            assert json.loads(out)["gauss"] == json.loads(render_json(expect)), model

    def test_no_gauss_block_below_r_equals_n(self, capsys, tmp_path):
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere", "n": 3, "radius": 1.0},
            "r": 2, "resolution": 8})
        code, out, _ = run_cli(capsys, "gap", "--config", cfg)
        assert code == 0
        assert "gauss" not in json.loads(out)


class TestExitContract:
    """Inputs that used to escape as tracebacks exit 2, 3 or 4."""

    SPHERE = {"model": {"kind": "sphere", "n": 2, "radius": 1.0}, "r": 1,
              "flow": {"t_end": 0.01}}

    @pytest.mark.parametrize("argv", [
        ["flow", "--out", "{bad}"],
        ["gap", "--out", "{bad}"],
        ["residual", "--out", "{bad}"],
    ])
    def test_unwritable_out_is_a_config_error(self, capsys, tmp_path, argv):
        cfg = scene_file(tmp_path, self.SPHERE)
        bad = str(tmp_path / "missing" / "dir" / "out.txt")
        argv = [a.replace("{bad}", bad) for a in argv] + ["--config", cfg]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("config error: cannot write output")

    def test_unwritable_scene_outputs(self, capsys, tmp_path):
        bad = str(tmp_path / "missing" / "dir" / "x.csv")
        for output in ({"csv": bad}, {"csv": str(tmp_path / "ok.csv"), "report": bad},
                       {"report": str(tmp_path)}):
            cfg = scene_file(tmp_path, dict(self.SPHERE, output=output))
            command = "flow" if "csv" in output else "gap"
            code, _, err = run_cli(capsys, command, "--config", cfg)
            assert code == 2, output
            assert err.startswith("config error: cannot write output")

    def test_unwritable_out_for_algebra_and_verify(self, capsys, tmp_path):
        bad = str(tmp_path / "missing" / "a.json")
        code, _, err = run_cli(capsys, "algebra", "--k", "1,2", "--r", "1", "--out", bad)
        assert code == 2 and "cannot write output" in err
        code, _, err = run_cli(capsys, "verify", "--resolutions", "16,32", "--out", bad)
        assert code == 2 and "cannot write output" in err

    @pytest.mark.parametrize("n, radius, r", [
        (2, 1e200, 2), (3, 1e120, 3),      # R^r overflows
        (2, 1e-200, 2), (4, 1e-100, 4),    # R^r underflows to zero
        (3, 1e200, 3),                     # the step bound's R^(r-1) overflows
    ])
    def test_sphere_power_out_of_float_range(self, capsys, tmp_path, n, radius, r):
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere", "n": n, "radius": radius}, "r": r,
            "flow": {"t_end": 0.01}})
        code, _, err = run_cli(capsys, "flow", "--config", cfg)
        assert code == 4
        assert "leaves the float range" in err

    def test_run_above_step_budget_is_a_domain_error(self, capsys, tmp_path):
        # a stationary Gauss-speed tube of radius 1e-170: dt ~ 1e-173, so
        # t_end = 0.01 would take about 9e170 steps
        cfg = scene_file(tmp_path, {
            "model": {"kind": "cylinder_band", "radius": 1e-170,
                      "half_width": 0.5, "samples": 16},
            "r": 2, "flow": {"t_end": 0.01}})
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "flow", "--config", cfg)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err.startswith("domain error: about 9e+170 steps")
        assert "MAX_STEPS" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["algebra", "--preset", "cyl:n=100000,m=1,r=1"],
        ["algebra", "--k", ",".join(["1"] * 216), "--r", "1"],   # 217 * 216^2 > 10^7
    ])
    def test_algebra_family_above_the_sample_budget(self, capsys, argv):
        # n + 1 matrices of size n x n; n = 100,000 used to end in a MemoryError
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("domain error: the family's (n+1) n^2 at n=")
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ["algebra", "--k", "1e308,1", "--r", "1"],
        ["algebra", "--k", "1e160,1", "--r", "1"],
        ["gap", "--config", "{sphere}"],
        ["gap", "--config", "{circle}"],
        ["residual", "--config", "{sphere}"],
    ])
    def test_overflowed_curvature_algebra(self, capsys, tmp_path, argv):
        # finite inputs whose sigmas or norms leave the float range
        scenes = {
            "{sphere}": {"model": {"kind": "sphere", "n": 3, "radius": 1e-120},
                         "r": 3},
            "{circle}": {"model": {"kind": "sphere", "n": 1, "radius": 1e-160},
                         "r": 1},
        }
        argv = [scene_file(tmp_path, scenes[a]) if a in scenes else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 4, out
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("k, r", [
        ("1e308,1", 1), ("1e160,1", 1),   # A^2 overflows
        ("1e200", 1),                     # n = 1: tr(P_0 A^2) overflows
        ("1e120,1", 2), ("1e150,1,1", 2),   # (1 + |A|)^3 overflows
    ])
    def test_overflowing_algebra_is_a_float_range_error(self, capsys, k, r):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "algebra", "--k", k, "--r", str(r))
        assert code == 4
        assert out == ""
        assert "float range" in err
        assert "Warning" not in err and "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command", ["gap", "residual"])
    @pytest.mark.parametrize("n, radius, r, expect", [
        (6, 1e-60, 1, 0), (6, 1e-60, 3, 0),    # sigma_6 = 1e360 is never read
        (3, 1e-120, 1, 0), (3, 1e-120, 3, 4),  # sigma_3 = 1e360 is read at r = 3
    ])
    def test_huge_curvatures_print_no_warning(self, capsys, tmp_path, command,
                                              n, radius, r, expect):
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere", "n": n, "radius": radius}, "r": r,
            "resolution": 8})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, "--config", cfg)
        assert code == expect, err
        if expect:
            assert out == "" and "leaves the float range" in err
        else:
            assert "Infinity" not in out and "null" not in out

    @pytest.mark.parametrize("argv", [
        ["flow", "--r", "1"], ["flow", "--r", "2"], ["gap"], ["residual"]])
    def test_underflowed_grid_spacing_is_a_numerical_error(self, capsys, tmp_path, argv):
        # h = 1e-170 / 7.5: h*h is 0, so f'' would divide by zero
        cfg = scene_file(tmp_path, {
            "model": {"kind": "cylinder_band", "radius": 1.0,
                      "half_width": 1e-170, "samples": 16},
            "r": 1, "flow": {"t_end": 0.01}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, argv[0], "--config", cfg, *argv[1:])
        assert code == 4
        assert out == ""
        assert "h^2" in err
        assert "RuntimeWarning" not in err and not caught

    @pytest.mark.parametrize("command", ["flow", "gap", "residual"])
    @pytest.mark.parametrize("model", [
        {"kind": "ellipsoid_rev", "a": 1e200, "b": 1.0, "band": 0.5},   # f'^2 overflows
        {"kind": "cylinder_band", "radius": 1.7e308, "half_width": 0.5,
         "samples": 16},                                               # the ghosts overflow
    ])
    def test_profile_out_of_float_range_is_refused_without_warning(
            self, capsys, tmp_path, command, model):
        cfg = scene_file(tmp_path, {"model": model, "r": 1, "flow": {"t_end": 0.01}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, "--config", cfg)
        assert code == 4
        assert out == "" and "leaves the float range" in err

    def test_verify_makes_one_geometry_pass_per_residual(self, capsys, monkeypatch):
        calls = []
        original = catalog.revolution_geometry

        def counted(rev):
            calls.append(rev.profile.size)
            return original(rev)

        for module in (catalog, operators):
            monkeypatch.setattr(module, "revolution_geometry", counted)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0 and "verification passed" in out
        # three identities, r in {1, 2}, three resolutions
        assert sorted(calls) == [64] * 6 + [128] * 6 + [256] * 6

    def test_algebra_builds_one_newton_family(self, capsys, monkeypatch):
        calls = []
        original = symfun._family

        def counted(a):
            calls.append(a.shape)
            return original(a)

        monkeypatch.setattr(symfun, "_family", counted)
        eigvalsh = np.linalg.eigvalsh
        solves = []

        def counted_eigvalsh(a):
            solves.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        code, out, _ = run_cli(capsys, "algebra", "--k", "1,2,3", "--r", "2")
        assert code == 0
        assert calls == [(3, 3)]
        # one for the family, one for P_{r-1}: psdClass and pEigenvalues share it
        assert solves == [(3, 3), (3, 3)]
        monkeypatch.undo()
        data, s = json.loads(out), np.diag([1.0, 2.0, 3.0])
        residuals = symfun.trace_identities(s, 2)
        assert data["traceResiduals"] == {"traceP": residuals.trace_p,
                                          "tracePA": residuals.trace_pa,
                                          "tracePA2": residuals.trace_pa2}
        assert data["modifiedNormSq"] == symfun.modified_sff_norm_sq(s, 2)

    def test_algebra_norm_is_the_cross_checked_trace(self, capsys):
        for k, r in (("1,2,3", 2), ("0.5,-1,2,4", 3), ("-2,0.3,0.7", 1)):
            code, out, _ = run_cli(capsys, "algebra", "--k=" + k, "--r", str(r))
            assert code == 0
            s = np.diag([float(x) for x in k.split(",")])
            p_prev = newton_family(s).P[r - 1]
            expect = float(np.trace(p_prev @ s @ s))
            assert json.loads(out)["modifiedNormSq"] == expect

    @pytest.mark.parametrize("model, flow_spec", [
        # the CFL bound's h^2 overflows
        ({"kind": "ellipsoid_rev", "a": 1.0, "b": 1e300}, {}),
        # the pin's closed form R^(r+1) overflows
        ({"kind": "cylinder_band", "radius": 1e300, "half_width": 4.0},
         {"pinned_boundary": True}),
    ])
    def test_band_flow_out_of_float_range(self, capsys, tmp_path, model, flow_spec):
        cfg = scene_file(tmp_path, {"model": model, "r": 1,
                                    "flow": dict(flow_spec, t_end=1e-4)})
        code, _, err = run_cli(capsys, "flow", "--config", cfg)
        assert code == 4
        assert "leaves the float range" in err

    def test_sphere_band_radius_out_of_float_range(self, capsys, tmp_path):
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere_band", "radius": 1e200, "half_width": 0.5},
            "r": 1})
        code, _, err = run_cli(capsys, "gap", "--config", cfg)
        assert code == 4
        assert "leaves the float range" in err

    @pytest.mark.parametrize("model, resolution", [
        ({"kind": "hyperplane", "n": 1e300}, 16),
        ({"kind": "sphere", "n": 40, "radius": 1.0}, 16),
        ({"kind": "sphere", "n": 2, "radius": 1.0}, 1e200),
        ({"kind": "cylinder_band", "radius": 1.0, "half_width": 1.0,
          "samples": 1e200}, 16),
        ({"kind": "sphere_band", "radius": 2.0, "half_width": 1.0,
          "samples": -1}, 16),
        ({"kind": "ellipsoid_rev", "a": 1.0, "b": 2.0}, 1e200),
        # reported from one closed-form row, but the grid is still budgeted
        ({"kind": "sphere", "n": 6, "radius": 1.0}, 100_000),
        ({"kind": "cylinder", "n": 6, "m": 2, "radius": 1.0}, 100_000),
    ])
    def test_sample_counts_out_of_range(self, capsys, tmp_path, model, resolution):
        cfg = scene_file(tmp_path, {"model": model, "r": 1, "resolution": resolution})
        for command in ("gap", "residual"):
            code, _, err = run_cli(capsys, command, "--config", cfg)
            assert code == 3, (command, err)

    def test_residual_checks_r_before_sampling(self, capsys, tmp_path, monkeypatch):
        def unreachable(model, resolution):
            raise AssertionError("sampled before the order check")

        monkeypatch.setattr(catalog, "sample_fields", unreachable)
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere", "n": 2, "radius": 1.0}, "r": 3})
        code, _, err = run_cli(capsys, "residual", "--config", cfg)
        assert code == 3
        assert "r=3 out of range 1..2" in err
