import json
import math
import re
import time
import warnings

import numpy as np
import pytest

from newton_flow import catalog, cli, flow, gapcheck, operators, symfun
from newton_flow.cli import main, render_json
from newton_flow.errors import ExtinctionError, brief
from newton_flow.symfun import newton_family
from conftest import count_eigensolves


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

    def test_infinities_render_as_strings_and_an_empty_object_as_braces(self):
        text = render_json({"a": math.inf, "b": -np.inf, "c": {}})
        assert json.loads(text) == {"a": "Infinity", "b": "-Infinity", "c": {}}
        assert render_json({}) == "{}"

    def test_an_object_it_cannot_render_is_a_type_error(self):
        with pytest.raises(TypeError, match="^cannot render object$"):
            render_json({"x": [object()]})


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

    def test_curvatures_without_an_order_are_a_config_error(self, capsys):
        code, out, err = run_cli(capsys, "algebra", "--k", "1,2")
        assert (code, out) == (2, "")
        assert err == "config error: algebra needs --k and --r (or --preset)\n"

    def test_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "algebra", "--k", "1,2", "--r", "5")
        assert code == 3

    def test_negative_first_curvature_with_equals_form(self, capsys):
        code, out, _ = run_cli(capsys, "algebra", "--k=-1,2", "--r", "1")
        assert code == 0
        assert json.loads(out)["sigmas"] == [1, 1, -2]

    def test_negative_first_curvature_with_space_form_is_a_parse_error(self, capsys):
        # argparse reads "-1,2" as an option, so --k has no value
        with pytest.raises(SystemExit) as info:
            main(["algebra", "--k", "-1,2", "--r", "1"])
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == "" and "Traceback" not in captured.err
        assert "--k" in captured.err

    @pytest.mark.parametrize("preset, expect", [
        ("cyl:n=3.5,m=2,r=1", 2),
        ("cyl:n=3,m=x,r=1", 2),
        ("cyl:n=-1,m=1,r=1", 3),
        # a repeated key is refused, not read as its last value
        ("cyl:n=3,m=2,r=1,r=2", 2),
        ("cyl:n=3,m=2,m=1,r=1", 2),
        ("cyl", 2),                     # no ':'
        ("cyl:n=3,m=2,p=1", 2),         # the wrong keys
    ])
    def test_bad_preset_exit_code(self, capsys, preset, expect):
        code, out, err = run_cli(capsys, "algebra", "--preset", preset)
        assert code == expect
        assert out == ""
        assert "Traceback" not in err

    def test_p_eigenvalues_are_the_eigvalsh_of_p(self, capsys, rng):
        # the deletion table's column, sorted, against an eigensolve of the
        # assembled P_{r-1}, bit for bit (signed zeros too), with zero and
        # repeated curvatures among the vectors
        for trial in range(1000):
            n = rng.randint(1, 7)
            k = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 4, n)
            k[rng.rand(n) < 0.2] = 0.0
            if n > 1 and trial % 3 == 0:
                k[1] = k[0]
            r = rng.randint(1, n + 1)
            text = ",".join(format(x, ".17g") for x in k)
            code, out, _ = run_cli(capsys, "algebra", f"--k={text}", "--r", str(r))
            assert code == 0, (k, r)
            got = np.array(json.loads(out, parse_int=float)["pEigenvalues"])
            want = np.linalg.eigvalsh(symfun.newton_family(np.diag(k)).P[r - 1])
            assert got.tobytes() == want.tobytes(), (k, r)


class TestGap:
    def test_boundary_sphere(self, capsys, tmp_path):
        radius = math.comb(3, 2) ** (1.0 / 3.0)
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere", "n": 3, "radius": radius},
            "r": 2, "resolution": 8})
        code, out, _ = run_cli(capsys, "gap", "--config", cfg)
        assert code == 0
        data = json.loads(out)
        assert data["flags"] == {"thm1_strict": False, "thm1_boundary": True,
                                 "thm1_psd_definite": True}
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

    @pytest.mark.parametrize("model, resolution", [
        ({"kind": "ellipsoid_rev", "a": 1.0, "b": 2.0}, 8000),
        ({"kind": "sphere_band", "radius": 2.0, "half_width": 0.6, "samples": 8000}, 16),
    ])
    def test_catalog_grids_of_8000_nodes(self, capsys, tmp_path, model, resolution):
        cfg = scene_file(tmp_path, {"model": model, "r": 1, "resolution": resolution})
        code, out, err = run_cli(capsys, "gap", "--config", cfg)
        assert code == 0, err
        assert json.loads(out)["classification"] == "NotShrinker"

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
    # every field of a model object is type-checked before the model is
    # built: the ill-typed orientation is named, not the 4-node profile
    ({"model": {"kind": "revolution", "z": [0, 1, 2, 3], "f": [1, 1, 1, 1],
                "orientation": "x"}, "r": 1}, 2),
    ({"model": {"kind": ["sphere"], "n": 2, "radius": 1.0}, "r": 1}, 2),
    # an integer past the float range reads as inf, as the literal 1e400 does
    ({"model": {"kind": "sphere", "n": 2, "radius": 10 ** 400}, "r": 1}, 3),
    ({"model": {"kind": "revolution", "z": [0, 1, 2, 3, 4],
                "f": [1, 1, 10 ** 400, 1, 1]}, "r": 1}, 3),
    # the scene's own shape: an object, with a 'model' object and a 'flow' object
    ([{"model": {"kind": "sphere", "n": 2, "radius": 1.0}, "r": 1}], 2),
    ({"r": 1}, 2),
    ({"model": 3, "r": 1}, 2),
    ({"model": {"kind": "sphere", "n": 2, "radius": 1.0}, "r": 1, "flow": 3}, 2),
]


@pytest.mark.parametrize("scene, expect", MALFORMED_SCENES)
def test_malformed_gap_scene_exit_code(capsys, tmp_path, scene, expect):
    cfg = scene_file(tmp_path, scene)
    code, out, err = run_cli(capsys, "gap", "--config", cfg)
    assert code == expect
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("config error" if expect == 2 else "domain error")


@pytest.mark.parametrize("raw", [
    b'{"model": "\xff\xfe"}',                                           # not UTF-8
    b'{"model": {"kind": "hyperplane", "n": ' + b"1" * 4301 + b'}}',    # past int's limit
], ids=["not-utf-8", "int-past-the-digit-limit"])
def test_scene_that_json_cannot_load_is_a_config_error(capsys, tmp_path, raw):
    # json.dumps writes neither file, and json.load raises a ValueError on each
    path = tmp_path / "scene.json"
    path.write_bytes(raw)
    code, out, err = run_cli(capsys, "gap", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: malformed JSON in ")
    assert "Traceback" not in err


def test_a_missing_config_file_is_a_config_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "gap", "--config", str(tmp_path / "absent.json"))
    assert (code, out) == (2, "")
    assert err.startswith("config error: cannot read config: ")


@pytest.mark.parametrize("command", ["gap", "residual"])
def test_a_support_past_the_float_range_exits_4_with_no_numpy_warning(
        capsys, tmp_path, command):
    # the curvature record is finite; z f' ~ 1e300 * 1e10 is not
    cfg = scene_file(tmp_path, {
        "model": {"kind": "revolution", "z": [1e300 + j * 1e286 for j in range(5)],
                  "f": [(j + 1) * 1e295 for j in range(5)]}, "r": 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, command, "--config", cfg)
    assert (code, out) == (4, "")
    assert err == "error: non-finite curvature data on the revolution profile\n"


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


def sup_residual_text(out: str) -> str:
    """The rendered supResidual of a gap or residual JSON output."""
    return re.search(r'"supResidual": ([^,\n]*)', out).group(1)


PROFILE_Z = [-1.0 + 0.25 * i for i in range(9)]
PROFILE_SCENES = [
    {"model": {"kind": "ellipsoid_rev", "a": 1.0, "b": 2.0}, "r": 2, "resolution": 32},
    {"model": {"kind": "ellipsoid_rev", "a": 1.5, "b": 0.7, "band": 0.5}, "r": 1},
    {"model": {"kind": "sphere_band", "radius": 1.9, "half_width": 0.3}, "r": 2},
    {"model": {"kind": "cylinder_band", "radius": 1.0, "half_width": 1.0, "samples": 33},
     "r": 1},
    {"model": {"kind": "revolution", "z": PROFILE_Z, "boundary": "periodic",
               "f": [1.0 + 0.1 * math.cos(i) for i in range(9)]}, "r": 2},
    {"model": {"kind": "revolution", "z": PROFILE_Z, "orientation": -1,
               "f": [1.0 + 0.1 * math.sin(i) for i in range(9)]}, "r": 1},
]
FLOAT_EDGE_SCENES = [
    # the gap report's degree-(r + 1) bounds leave the float range on the first two
    {"model": {"kind": "sphere", "n": 1, "radius": 1e-154}, "r": 1},
    {"model": {"kind": "sphere", "n": 3, "radius": 1e-120}, "r": 3},
    {"model": {"kind": "sphere", "n": 6, "radius": 1e-60}, "r": 1},
]


class TestResidual:
    def test_sphere_residual(self, capsys, tmp_path):
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere", "n": 2, "radius": 1.0},
            "r": 1, "resolution": 8})
        code, out, _ = run_cli(capsys, "residual", "--config", cfg)
        assert code == 0
        # sigma_1 + <X,N> = 2 - 1 = 1 on the unit 2-sphere
        assert json.loads(out)["supResidual"] == pytest.approx(1.0)

    def test_residual_is_read_off_the_gap_report(self, capsys, tmp_path):
        scenes = [{"model": _model_spec(model), "r": r, "resolution": 32}
                  for model, r in _criterion_8_taxonomy(6)]
        assert len(scenes) == 113
        for scene in scenes + PROFILE_SCENES + FLOAT_EDGE_SCENES:
            cfg = scene_file(tmp_path, scene)
            gap, residual = (run_cli(capsys, command, "--config", cfg)
                             for command in ("gap", "residual"))
            assert gap[0] == residual[0], scene
            if gap[0] == 0:
                assert sup_residual_text(gap[1]) == sup_residual_text(residual[1]), scene
            else:
                assert gap[2] == residual[2], scene


class TestFlow:
    def test_an_extinction_that_escapes_a_handler_exits_4(self, capsys, tmp_path, monkeypatch):
        # flow.run catches its own; one that escaped would still be a numerical failure
        def extinct(config):
            raise ExtinctionError(0.25)

        monkeypatch.setattr(flow, "run", extinct)
        cfg = scene_file(tmp_path, {"model": {"kind": "sphere", "n": 2, "radius": 1.0},
                                    "r": 1, "flow": {"t_end": 0.5}})
        code, out, err = run_cli(capsys, "flow", "--config", cfg)
        assert (code, out, err) == (4, "", "error: flow extinct at t=0.25\n")

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

    @pytest.mark.parametrize("model", [
        # a wide tube: every node of its profile lies near one sphere of radius 1e5
        {"kind": "cylinder_band", "radius": 1e5, "half_width": 1.0, "samples": 48},
        # a sphere-band profile given node by node is still a raw revolution
        {"kind": "revolution", "z": PROFILE_Z,
         "f": [math.sqrt(4.0 - z * z) for z in PROFILE_Z]},
    ])
    def test_pinned_boundary_refuses_other_kinds(self, capsys, tmp_path, model):
        cfg = scene_file(tmp_path, {"model": model, "r": 1,
                                    "flow": {"t_end": 0.01, "pinned_boundary": True}})
        code, out, err = run_cli(capsys, "flow", "--config", cfg)
        assert (code, out) == (2, "")
        assert err.startswith("config error:") and "sphere band" in err

    def test_pinned_band_follows_the_scene_radius(self, capsys, tmp_path):
        radius, half_width, samples = 1.9, 0.3, 40
        profile = catalog.sphere_band_profile(radius, half_width, samples)
        # the profile's end radius differs from the scene's in the last bit
        assert math.hypot(profile.f[0], profile.z[0]) != radius
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere_band", "radius": radius,
                      "half_width": half_width, "samples": samples},
            "r": 1, "resolution": samples,
            "flow": {"t_end": 0.02, "output_stride": 100, "pinned_boundary": True}})
        out_csv = tmp_path / "band.csv"
        code, _, _ = run_cli(capsys, "flow", "--config", cfg, "--out", str(out_csv))
        assert code == 0
        result = flow.run(flow.FlowConfig(
            r=1, model=catalog.Revolution(profile=profile), t_end=0.02,
            resolution=samples, output_stride=100,
            boundary_values=flow.sphere_band_pin(radius, 1, half_width)))
        expect = "\n".join(cli._diagnostics_csv_lines(result.diagnostics)) + "\n"
        assert out_csv.read_text() == expect

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
        ({"t_end": 10 ** 400}, (), 3),     # read as inf, as the literal 1e400 is
        ({"t_end": 0.01, "cfl_safety": 1.5}, (), 3),
        ({}, (), 2),        # no t_end in the scene or on the command line
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
        # up to t_end = 1e4 the first bound gives 2.05e7 (r = 1) or 3.07e7
        # (r = 2) steps, but the sphere dies out at t = 0.0625 or 0.0417: each
        # step takes 0.25 / 32 of the time left, and the run stops once R^(r+1)
        # is EXTINCTION_FRACTION^(r+1) of its start's (1,762 or 2,643 steps)
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
        steps = (r + 1) * math.log(1.0 / flow.EXTINCTION_FRACTION) / -math.log1p(-0.25 / 32)
        assert summary["stepCount"] == math.ceil(steps)

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

    def test_fine_catalog_grids_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--resolutions", "4000,8000")
        assert code == 0 and "verification passed" in out


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


def _criterion_8_taxonomy(n_max):
    """Every (model, r) scene of the criterion-8 taxonomy with n <= n_max."""
    yield from catalog.self_shrinkers(n_max)
    for n in range(3, n_max + 1):           # r > m: not shrinkers
        for m in range(1, n - 1):
            for r in range(m + 1, n + 1):
                yield catalog.Cylinder(n=n, m=m, radius=1.0), r
    for n in range(1, n_max + 1):           # Gauss flow on the unit sphere
        yield catalog.Sphere(n=n, radius=1.0), n


def _tiled_fields(model, count):
    """The closed-form row repeated count times: a grid of identical rows."""
    curvatures, support = catalog.sample_fields(model)
    return np.repeat(curvatures, count, axis=0), np.repeat(support, count)


class TestTiledOracle:
    """gap and residual read one row per distinct sample; the tiled grid,
    one identical row per grid point, must give the same bytes."""

    def test_gap_report_matches_the_tiled_grid(self):
        for model, r in _oracle_taxonomy(4):
            curvatures, support = _tiled_fields(model, 64)
            assert support.size > 1
            want, got = (gapcheck.evaluate(model, r).to_json_dict(),
                         gapcheck.evaluate_from_samples(curvatures, support, r).to_json_dict())
            assert got["notes"] == []
            got["notes"] = want["notes"]     # evaluate alone adds the hyperplane note
            assert render_json(got) == render_json(want), (model, r)

    def test_residual_matches_the_tiled_grid(self, capsys, tmp_path):
        for model, r in _oracle_taxonomy(4):
            cfg = scene_file(tmp_path, {"model": _model_spec(model), "r": r,
                                        "resolution": 8})
            code, out, _ = run_cli(capsys, "residual", "--config", cfg)
            curvatures, support = _tiled_fields(model, 64)
            sigma_r = symfun.elem_sym_all_rows(curvatures)[:, r]
            sup = float(np.abs(sigma_r + support).max())
            assert code == 0
            assert out == render_json({"r": r, "resolution": 8,
                                       "supResidual": sup}) + "\n", (model, r)


class TestGapGaussFragment:
    def test_one_sample_set_per_report(self, capsys, tmp_path, monkeypatch):
        calls = []
        original = catalog.sample_fields

        def counted(model):
            calls.append(model)
            return original(model)

        for module in (catalog, gapcheck):
            monkeypatch.setattr(module, "sample_fields", counted)
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere", "n": 3, "radius": 1.0},
            "r": 3, "resolution": 8})
        code, out, _ = run_cli(capsys, "gap", "--config", cfg)
        assert code == 0
        assert calls == [catalog.Sphere(n=3, radius=1.0)]
        assert json.loads(out)["gauss"]["n"] == 3

    def test_gauss_block_matches_evaluate(self, capsys, tmp_path):
        models = list(_gauss_taxonomy(4))
        assert len(models) == 15
        for i, model in enumerate(models):
            cfg = scene_file(tmp_path, {"model": _model_spec(model), "r": model.n,
                                        "resolution": 8}, f"s{i}.json")
            code, out, _ = run_cli(capsys, "gap", "--config", cfg)
            assert code == 0
            expect = gapcheck.evaluate(model, model.n).gauss.to_json_dict()
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

    @pytest.mark.parametrize("scene, steps", [
        # a stationary Gauss-speed tube of radius 1e-170: dt = 0.25 h^2 / (2 p)
        # ~ 5.6e-174 with h = 1/15 and p = 1e170, so t_end = 0.01 would take
        # about 1.8e171 steps
        ({"model": {"kind": "cylinder_band", "radius": 1e-170,
                    "half_width": 0.5, "samples": 16},
          "r": 2, "flow": {"t_end": 0.01}}, "1.8e+171"),
        # the unit sphere's round law counted in closed form: 5.5e7 steps to
        # the extinction floor, 0.25 / 10^6 of the time left per step
        ({"model": {"kind": "sphere", "n": 2, "radius": 1.0},
          "r": 1, "resolution": 10 ** 6, "flow": {"t_end": 1e4}}, "5.53e+07"),
    ])
    def test_run_above_step_budget_is_a_domain_error(self, capsys, tmp_path, scene, steps):
        cfg = scene_file(tmp_path, scene)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "flow", "--config", cfg)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err.startswith(f"domain error: about {steps} steps")
        assert "MAX_STEPS" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["algebra", "--preset", "cyl:n=100000,m=1,r=1"],
        ["algebra", "--k", ",".join(["1"] * 216), "--r", "1"],   # 217 * 216^2 > 10^7
        # (n+1) n^2 has more digits than str(int) may print
        ["algebra", "--preset", f"cyl:n={'9' * 1501},m=1,r=1"],
    ])
    def test_algebra_family_above_the_sample_budget(self, capsys, argv):
        # n + 1 matrices of size n x n; n = 100,000 used to end in a MemoryError
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("domain error: the family's (n+1) n^2 at n=")
        assert err.endswith("exceeds 10000000: n must be at most 215\n")
        assert len(err) < 200 and "Traceback" not in err

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
        (1, 1e-154, 1, 4),     # the degree-2 bound 2 (1 + |A|)^2 = 2e308 is read at r = 1
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
        {"kind": "cylinder_band", "radius": 5e307, "half_width": 0.5,
         "samples": 16},                                   # only the ghosts overflow
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

        def counted(model):
            geo = original(model)
            calls.append(geo.z.size)
            return geo

        for module in (catalog, operators):
            monkeypatch.setattr(module, "revolution_geometry", counted)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0 and "verification passed" in out
        # three identities, r in {1, 2}, three resolutions
        assert sorted(calls) == [64] * 6 + [128] * 6 + [256] * 6

    def test_algebra_builds_one_newton_family(self, capsys, monkeypatch):
        calls = []
        original = symfun._cross_check      # one per family built

        def counted(a, *args):
            calls.append(a.shape)
            return original(a, *args)

        monkeypatch.setattr(symfun, "_cross_check", counted)
        solves = count_eigensolves(monkeypatch)
        code, out, _ = run_cli(capsys, "algebra", "--k", "1,2,3", "--r", "2")
        assert code == 0
        assert calls == [(3, 3)]
        # the family's one: psdClass and pEigenvalues read its deletion table
        assert solves == [(3, 3)]
        monkeypatch.undo()
        data, s = json.loads(out), np.diag([1.0, 2.0, 3.0])
        residuals = symfun.trace_identities(s, 2)
        assert data["traceResiduals"] == {"traceP": residuals.trace_p,
                                          "tracePA": residuals.trace_pa,
                                          "tracePA2": residuals.trace_pa2}
        assert data["modifiedNormSq"] == symfun.modified_sff_norm_sq(s, 2)

    def test_algebra_at_a_wide_curvature_spread(self, capsys):
        code, out, _ = run_cli(capsys, "algebra", "--k=1e8,1e-4,1", "--r", "3")
        assert code == 0
        data = json.loads(out)
        assert data["pEigenvalues"] == [1e-4, 1e4, 1e8]
        assert data["modifiedNormSq"] == 1000000010001
        # 1e-4 lies inside the zero window 1e-10 * max|lambda| = 1e-2
        assert data["psdClass"] == "PositiveSemidefinite"

    def test_algebra_norm_is_the_cross_checked_trace(self, capsys):
        for k, r in (("1,2,3", 2), ("0.5,-1,2,4", 3), ("-2,0.3,0.7", 1)):
            code, out, _ = run_cli(capsys, "algebra", "--k=" + k, "--r", str(r))
            assert code == 0
            s = np.diag([float(x) for x in k.split(",")])
            p_prev = newton_family(s).P[r - 1]
            expect = float(np.trace(p_prev @ s @ s))
            assert json.loads(out)["modifiedNormSq"] == expect

    @pytest.mark.parametrize("model, r, flow_spec, message", [
        # the CFL bound's h^2 overflows
        ({"kind": "ellipsoid_rev", "a": 1.0, "b": 1e300}, 1, {}, "leaves the float range"),
        # the profile's R^2 is finite, but the pin's closed form R^(r+1) overflows
        ({"kind": "sphere_band", "radius": 1e120, "half_width": 4.0}, 2,
         {"pinned_boundary": True}, "R^3 of R=1e+120 leaves the float range"),
    ], ids=["cfl-h2", "pin-r-cubed"])
    def test_band_flow_out_of_float_range(self, capsys, tmp_path, model, r, flow_spec,
                                          message):
        cfg = scene_file(tmp_path, {"model": model, "r": r,
                                    "flow": dict(flow_spec, t_end=1e-4)})
        code, _, err = run_cli(capsys, "flow", "--config", cfg)
        assert code == 4
        assert message in err

    def test_sphere_band_radius_out_of_float_range(self, capsys, tmp_path):
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere_band", "radius": 1e200, "half_width": 0.5},
            "r": 1})
        code, _, err = run_cli(capsys, "gap", "--config", cfg)
        assert code == 4
        assert "leaves the float range" in err

    @pytest.mark.parametrize("model, resolution", [
        ({"kind": "hyperplane", "n": 1e300}, 16),
        ({"kind": "sphere", "n": 216, "radius": 1.0}, 16),
        ({"kind": "sphere", "n": 2, "radius": 1.0}, 1e200),
        ({"kind": "cylinder_band", "radius": 1.0, "half_width": 1.0,
          "samples": 1e200}, 16),
        ({"kind": "sphere_band", "radius": 2.0, "half_width": 1.0,
          "samples": -1}, 16),
        ({"kind": "ellipsoid_rev", "a": 1.0, "b": 2.0}, 1e200),
        # a closed-form model's dimension is bounded at any resolution
        ({"kind": "sphere", "n": 216, "radius": 1.0}, 100_000),
        ({"kind": "cylinder", "n": 216, "m": 2, "radius": 1.0}, 100_000),
    ])
    def test_sample_counts_out_of_range(self, capsys, tmp_path, model, resolution):
        cfg = scene_file(tmp_path, {"model": model, "r": 1, "resolution": resolution})
        for command in ("gap", "residual"):
            code, _, err = run_cli(capsys, command, "--config", cfg)
            assert code == 3, (command, err)

    @pytest.mark.parametrize("model, resolution", [
        ({"kind": "sphere", "n": 40, "radius": 1.0}, 16),
        ({"kind": "sphere", "n": 6, "radius": 1.0}, 100_000),
        ({"kind": "cylinder", "n": 6, "m": 2, "radius": 1.0}, 100_000),
        ({"kind": "hyperplane", "n": 215}, 10 ** 7),
    ])
    def test_closed_form_rows_at_any_resolution(self, capsys, tmp_path, model,
                                                resolution):
        cfg = scene_file(tmp_path, {"model": model, "r": 1, "resolution": resolution})
        for command in ("gap", "residual"):
            code, out, err = run_cli(capsys, command, "--config", cfg)
            assert code == 0, (command, err)
            assert json.loads(out)["r"] == 1

    @pytest.mark.parametrize("model", [
        {"kind": "sphere", "n": 2, "radius": math.sqrt(2.0)},
        {"kind": "cylinder", "n": 3, "m": 2, "radius": math.sqrt(2.0)},
        {"kind": "hyperplane", "n": 3},
        {"kind": "sphere_band", "radius": 2.0, "half_width": 0.6, "samples": 33},
        {"kind": "cylinder_band", "radius": 1.0, "half_width": 1.0, "samples": 33},
        {"kind": "revolution", "z": [0, 1, 2, 3, 4], "f": [1, 1, 1, 1, 1]},
    ])
    def test_a_model_is_reported_at_any_resolution(self, capsys, tmp_path, model):
        # the sample set is the closed-form row or the profile's own nodes:
        # resolution 1..7 writes the bytes of 32, and residual differs only in
        # the echoed resolution
        def run(command, resolution):
            cfg = scene_file(tmp_path, {"model": model, "r": 1, "resolution": resolution})
            return run_cli(capsys, command, "--config", cfg)

        gap, residual = run("gap", 32), run("residual", 32)
        assert gap[0] == residual[0] == 0
        for resolution in (1, 3, 7):
            assert run("gap", resolution) == gap
            echoed = dict(json.loads(residual[1]), resolution=resolution)
            assert run("residual", resolution) == (0, render_json(echoed) + "\n", "")
        for resolution in (0, -3, catalog.MAX_SAMPLES + 1):
            for command in ("gap", "residual"):
                assert run(command, resolution) == (3, "", (
                    f"domain error: resolution must lie in 1..10000000, got {resolution}\n"))

    @pytest.mark.parametrize("model", [
        {"kind": "hyperplane"},
        {"kind": "sphere", "radius": 1.0},
        {"kind": "cylinder", "m": 2, "radius": 1.0},
    ])
    def test_closed_form_dimension_bound(self, capsys, tmp_path, model):
        # the (n + 1) n^2 family budget that algebra applies: n <= 215
        # n = 10^300 and a 1,501-digit n are refused before (n+1) n^2 is formed
        for n, expect, shown in ((215, 0, ""), (216, 3, "216"),
                                 (10 ** 300, 3, "100000... (301 digits)"),
                                 (int("9" * 1501), 3, "999999... (1501 digits)")):
            cfg = scene_file(tmp_path, {"model": dict(model, n=n), "r": 1,
                                        "resolution": 8})
            for command in ("gap", "residual"):
                code, _, err = run_cli(capsys, command, "--config", cfg)
                assert code == expect, (command, shown, err)
                if expect:
                    assert err == (f"domain error: the family's (n+1) n^2 at n={shown} "
                                   "exceeds 10000000: n must be at most 215\n")
                    assert len(err.encode()) < 200

    BIG = int("9" * 4000)
    SPHERE_2 = {"kind": "sphere", "n": 2, "radius": 1.0}

    @pytest.mark.parametrize("argv, scene, expect", [
        (["algebra", "--preset", f"cyl:n={'9' * 5000},m=1,r=1"], None, 2),
        (["algebra", "--preset", f"cyl:n=3,m={'9' * 4000},r=1"], None, 3),
        (["algebra", "--k", "x" * 5000, "--r", "1"], None, 2),
        (["algebra", "--preset", "c" * 5000 + ":n=3,m=2,r=1"], None, 2),
        (["verify", "--resolutions", "x" * 5000], None, 2),
        (["gap"], {"model": {"kind": "k" * 5000}, "r": 1}, 2),
        (["gap"], {"model": dict(SPHERE_2, **{"q" * 5000: 1}), "r": 1}, 2),
        (["gap"], {"model": dict(SPHERE_2, n="n" * 5000), "r": 1}, 2),
        (["gap"], {"model": {"kind": "revolution", "z": [0, 1, 2, 3, 4],
                             "f": [1, 1, "f" * 5000, 1, 1]}, "r": 1}, 2),
        (["gap"], {"model": {"kind": "revolution", "z": [0, 1, 2, 3, 4], "f": [1] * 5,
                             "boundary": "b" * 5000}, "r": 1}, 3),
        (["gap"], {"model": SPHERE_2, "r": 1, "resolution": BIG}, 3),
        (["residual"], {"model": {"kind": "sphere_band", "radius": 2.0,
                                  "half_width": 0.6, "samples": BIG}, "r": 1}, 3),
        (["residual"], {"model": SPHERE_2, "r": BIG}, 3),
        (["flow"], {"model": SPHERE_2, "r": 1,
                    "flow": {"t_end": 0.01, "scheme": "s" * 5000}}, 3),
    ])
    def test_refused_values_are_shown_briefly(self, capsys, tmp_path, argv, scene, expect):
        if scene is not None:
            argv = argv + ["--config", scene_file(tmp_path, scene)]
        code, out, err = run_cli(capsys, *argv)
        assert code == expect
        assert out == "" and "Traceback" not in err
        assert len(err.encode()) < 200, err[:300]

    @pytest.mark.parametrize("argv", [
        ["gap", "--r", "9" * 5000], ["residual", "--r", "9" * 5000],
        ["flow", "--r", "9" * 5000], ["algebra", "--k", "1,2", "--r", "9" * 5000],
        ["gap", "--resolution", "9" * 5000], ["flow", "--resolution", "x" * 5000],
        ["flow", "--t-end", "x" * 5000],
    ])
    def test_refused_options_are_shown_briefly(self, capsys, tmp_path, argv):
        # argparse's own type=int message echoes the whole value
        option = argv[-2]
        if argv[0] != "algebra":
            argv = argv + ["--config", scene_file(tmp_path, {"model": self.SPHERE_2, "r": 1})]
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert f"argument {option}: invalid" in captured.err
        assert all(len(line.encode()) < 200 for line in captured.err.splitlines())

    def test_huge_integers_are_told_apart(self, capsys, tmp_path):
        assert brief(10 ** 4000 - 1) != brief(10 ** 4000)
        cfg = scene_file(tmp_path, {"model": {"kind": "hyperplane", "n": 10 ** 4000 - 1},
                                    "r": 10 ** 4000})
        code, _, err = run_cli(capsys, "gap", "--config", cfg)
        assert code == 3
        assert err == ("domain error: r=100000... (4001 digits) out of range "
                       "1..999999... (4000 digits)\n")

    def test_residual_checks_r_before_sampling(self, capsys, tmp_path, monkeypatch):
        def unreachable(model):
            raise AssertionError("sampled before the order check")

        for module in (catalog, gapcheck):
            monkeypatch.setattr(module, "sample_fields", unreachable)
        # the order is refused before the resolution, too
        cfg = scene_file(tmp_path, {
            "model": {"kind": "sphere", "n": 2, "radius": 1.0}, "r": 3, "resolution": 0})
        for command in ("gap", "residual"):
            assert run_cli(capsys, command, "--config", cfg) == (
                3, "", "domain error: r=3 out of range 1..2\n")


class TestOneParserPerProcess:
    def _sequence(self, capsys, tmp_path):
        """(exit code, stdout, stderr[, file bytes]) of one main call per subcommand
        and argparse exit, in one process."""
        sphere = scene_file(tmp_path, {
            "model": {"kind": "sphere", "n": 2, "radius": 2.0}, "r": 1, "resolution": 8})
        circle = scene_file(tmp_path, {
            "model": {"kind": "sphere", "n": 1, "radius": 1.0}, "r": 1, "resolution": 64,
            "flow": {"t_end": 0.05, "output_stride": 100}}, name="circle.json")
        csv_path = tmp_path / "diag.csv"
        calls = [
            ["algebra", "--k", "1,2,3", "--r", "2"],
            ["gap", "--config", sphere],
            ["residual", "--config", sphere],
            ["flow", "--config", circle, "--out", str(csv_path)],
            ["verify", "--resolutions", "8,16"],
            ["gap", "--config", sphere, "--no-such-option"],
            ["--help"],
            ["gap", "--config", sphere],
        ]
        results = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results, csv_path.read_bytes()

    def test_main_builds_one_parser_and_matches_fresh_parsers(
            self, capsys, tmp_path, monkeypatch):
        original = cli.build_parser
        builds = []

        def counted():
            builds.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        reused, reused_csv = self._sequence(capsys, tmp_path)
        assert len(builds) == 1

        monkeypatch.setattr(cli, "_parser", original)
        fresh, fresh_csv = self._sequence(capsys, tmp_path)
        assert [code for code, _, _ in reused] == [
            0, 0, 0, 0, 5, ("SystemExit", 2), ("SystemExit", 0), 0]
        assert reused == fresh
        assert reused_csv == fresh_csv
        assert reused[-1] == reused[1]


class TestLogLevelPerCall:
    BAND = {"model": {"kind": "sphere_band", "radius": 1.0, "half_width": 0.6,
                      "samples": 24},
            "r": 1, "flow": {"t_end": 0.5, "pinned_boundary": True}}
    STOPPED = "INFO newton_flow.flow: flow stopped: flow band pinch at t=0.160265\n"

    @pytest.mark.parametrize("levels", [("warn", "info"), ("info", "warn")])
    def test_each_call_reads_newton_flow_log(self, capsys, tmp_path, monkeypatch, levels):
        cfg = scene_file(tmp_path, self.BAND)
        csv_path = tmp_path / "band.csv"
        outputs = []
        previous = cli.logger.level
        try:
            for level in levels:
                monkeypatch.setenv("NEWTON_FLOW_LOG", level)
                code, out, err = run_cli(capsys, "flow", "--config", cfg,
                                         "--out", str(csv_path))
                assert code == 4
                assert err.count(self.STOPPED) == (level == "info")
                assert err.count("ERROR newton_flow: flow went extinct before t_end\n") == 1
                outputs.append((out, csv_path.read_bytes()))
        finally:
            cli.logger.setLevel(previous)
        assert outputs[0] == outputs[1]

    def test_an_unknown_value_is_named_and_changes_no_output(
            self, capsys, tmp_path, monkeypatch):
        cfg = scene_file(tmp_path, self.BAND)
        csv_path = tmp_path / "band.csv"
        runs = {}
        previous = cli.logger.level
        try:
            for level in ("warn", "warning", "critical", "bogus"):
                monkeypatch.setenv("NEWTON_FLOW_LOG", level)
                code, out, err = run_cli(capsys, "flow", "--config", cfg,
                                         "--out", str(csv_path))
                assert code == 4
                runs[level] = (out, csv_path.read_bytes(), err)
        finally:
            cli.logger.setLevel(previous)
        named = "WARNING newton_flow: unknown NEWTON_FLOW_LOG value 'bogus'; using warn\n"
        assert runs["bogus"][2] == named + runs["warn"][2]
        assert runs["warning"][2] == runs["warn"][2]
        assert "ERROR newton_flow" in runs["warn"][2]
        assert "newton_flow" not in runs["critical"][2]
        assert len({run[:2] for run in runs.values()}) == 1
