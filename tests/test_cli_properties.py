"""Property tests of the CLI exit contract and of byte stability.

Every scene, however malformed, must end in exit 0, 2, 3 or 4 and never
raise out of ``cli.main``.  A scene starts valid, for every model kind,
and then has up to two fields replaced by a number that is huge, tiny,
NaN or infinite, by a boolean, text, null or a list; output paths may
be unwritable.  ``algebra`` gets curvature lists of the same kinds of
numbers.  When ``gap``, ``residual`` or ``algebra`` exits 0, its JSON
holds no null and no infinity.  A valid scene run twice writes the same
bytes, and on it ``residual`` exits as ``gap`` does and prints the gap
report's supResidual.  Sizes stay small (t_end <= 0.02, resolution <= 16)
so each example is cheap; derandomized, so every run draws the same
examples.
"""

import contextlib
import io
import json
import math
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newton_flow.cli import main

ALLOWED_EXITS = {0, 2, 3, 4}

ORDINARY = st.floats(min_value=0.2, max_value=4.0)
HUGE = [1e200, 1e300, 1.7e308]
TINY = [1e-300, 5e-324, 1e-170]
NOT_NUMBERS = [math.nan, math.inf, -math.inf, True, False, "x", "1.5",
               None, [1.0]]
OFF_SIGN = [0, -1, 1.5, -1e300]

# output paths, relative to the example's working directory; "" means
# stdout and 7 is not a path at all
OUTPUT_PATHS = st.sampled_from(["out.txt", "missing/dir/out.txt", ".",
                                "nul\x00byte", "", 7])


def _grid(size):
    return [-1.0 + 2.0 * i / (size - 1) for i in range(size)]


@st.composite
def models(draw):
    """A valid model spec; round radii may be huge or tiny."""
    radius = draw(st.one_of(ORDINARY, st.sampled_from(HUGE + TINY)))
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["hyperplane", "sphere", "cylinder",
                                 "ellipsoid_rev", "sphere_band",
                                 "cylinder_band", "revolution"]))
    if kind == "hyperplane":
        return {"kind": kind, "n": n}
    if kind == "sphere":
        return {"kind": kind, "n": n, "radius": radius}
    if kind == "cylinder":
        n = max(n, 2)
        return {"kind": kind, "n": n, "m": draw(st.integers(1, n - 1)),
                "radius": radius}
    samples = draw(st.sampled_from([5, 9, 16]))
    if kind == "ellipsoid_rev":
        return {"kind": kind, "a": draw(ORDINARY), "b": draw(ORDINARY),
                "band": draw(st.sampled_from([0.5, 0.75]))}
    if kind == "sphere_band":
        return {"kind": kind, "radius": draw(st.floats(1.5, 3.0)),
                "half_width": draw(st.floats(0.2, 1.0)), "samples": samples}
    if kind == "cylinder_band":
        return {"kind": kind, "radius": draw(ORDINARY),
                "half_width": draw(ORDINARY), "samples": samples}
    return {"kind": kind, "z": _grid(samples),
            "f": [draw(ORDINARY) for _ in range(samples)],
            "boundary": draw(st.sampled_from(["neumann", "periodic"])),
            "orientation": draw(st.sampled_from([1, -1]))}


@st.composite
def invocations(draw, corrupt=True):
    """(command, scene, --out); corrupt=False keeps the scene valid."""
    command = draw(st.sampled_from(["flow", "gap", "residual"]))
    flowing = command == "flow"
    scene = {"model": draw(models()),
             "r": draw(st.integers(1, 3)),
             "resolution": draw(st.sampled_from([8, 12, 16]))}
    if flowing:
        scene["flow"] = {
            "t_end": draw(st.floats(1e-4, 0.02)),
            "cfl_safety": draw(st.sampled_from([0.1, 0.25, 1.0])),
            "scheme": draw(st.sampled_from(["euler", "rk2"])),
            "rescaled": draw(st.booleans()),
            "output_stride": draw(st.integers(1, 10)),
            "pinned_boundary": draw(st.booleans()),
        }
    if not corrupt:
        scene["output"] = draw(st.fixed_dictionaries(
            {}, optional={"csv": st.just("scene.csv"),
                          "report": st.just("report.json")}))
        return command, scene, draw(st.sampled_from([None, "out.txt"]))
    scene["output"] = draw(st.fixed_dictionaries(
        {}, optional={"csv": OUTPUT_PATHS, "report": OUTPUT_PATHS}))

    bad = HUGE + NOT_NUMBERS + OFF_SIGN
    sites = [(scene["model"], key, bad + TINY)
             for key in scene["model"] if key != "kind"]
    sites += [(scene, "r", bad), (scene, "resolution", bad)]
    sites += [(scene["flow"], key, bad) for key in scene.get("flow", {})]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        body, key, pool = draw(st.sampled_from(sites))
        body[key] = draw(st.sampled_from(pool))
    out = draw(st.one_of(st.none(), OUTPUT_PATHS.filter(
        lambda p: isinstance(p, str) and "\x00" not in p)))
    return command, scene, out


CURVATURES = st.one_of(st.floats(-4.0, 4.0),
                       st.sampled_from(HUGE + TINY + [-x for x in HUGE]))


@st.composite
def algebra_invocations(draw):
    k = draw(st.lists(CURVATURES, min_size=1, max_size=4))
    r = draw(st.integers(1, len(k)))
    return ["algebra", "--k=" + ",".join(repr(x) for x in k), "--r", str(r)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def _main(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _prepare(workdir, case):
    """Write the scene; return argv and the output paths it may write."""
    command, scene, out = case

    def place(path):
        return os.path.join(workdir, path) if isinstance(path, str) and path else path

    scene["output"] = {key: place(p) for key, p in scene["output"].items()}
    config = os.path.join(workdir, "scene.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(scene, fh)
    argv = [command, "--config", config]
    if out is not None:
        argv += ["--out", place(out)]
    return argv, [place(out)] + list(scene["output"].values())


def _finite_json(value) -> bool:
    """No null and no rendered infinity anywhere in parsed JSON."""
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    return value is not None and value not in ("Infinity", "-Infinity")


@settings(derandomize=True, deadline=None, max_examples=500)
@given(case=invocations())
def test_every_scene_maps_to_a_documented_exit(workdir, case):
    command = case[0]
    report = case[2] or (case[1]["output"].get("report") if command == "gap" else None)
    argv, _ = _prepare(workdir, case)
    code, stdout, stderr = _main(argv)
    assert code in ALLOWED_EXITS, (code, stderr)
    if code == 0 and command != "flow":
        if report:
            with open(os.path.join(workdir, report), encoding="utf-8") as fh:
                stdout = fh.read()
        assert _finite_json(json.loads(stdout)), stdout


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=algebra_invocations())
def test_algebra_maps_to_a_documented_exit(argv):
    code, stdout, stderr = _main(argv)
    assert code in ALLOWED_EXITS, (code, stderr)
    assert "Traceback" not in stderr
    if code == 0:
        assert _finite_json(json.loads(stdout)), stdout
    else:
        assert stdout == ""


@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=invocations(corrupt=False))
def test_a_scene_run_twice_writes_the_same_bytes(workdir, case):
    argv, paths = _prepare(workdir, case)
    runs = []
    for _ in range(2):
        for path in paths:
            if path and os.path.exists(path):
                os.remove(path)
        code, stdout, _ = _main(argv)
        files = {}
        for path in paths:
            if path and os.path.exists(path):
                with open(path, "rb") as fh:
                    files[path] = fh.read()
        runs.append((code, stdout, files))
    assert runs[0] == runs[1]


def _sup_residual_text(out: str) -> str:
    return re.search(r'"supResidual": ([^,\n]*)', out).group(1)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(scene=st.fixed_dictionaries({"model": models(), "r": st.integers(1, 3),
                                    "resolution": st.sampled_from([8, 12, 16])}))
def test_residual_is_read_off_the_gap_report(workdir, scene):
    config = os.path.join(workdir, "scene.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(scene, fh)
    gap, residual = (_main([command, "--config", config]) for command in ("gap", "residual"))
    assert gap[0] == residual[0], (gap, residual)
    if gap[0] == 0:
        assert _sup_residual_text(gap[1]) == _sup_residual_text(residual[1])
    else:
        assert gap[2] == residual[2]
