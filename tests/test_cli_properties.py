"""Property test of the CLI exit contract.

Every scene, however malformed, must end in exit 0, 2, 3 or 4 and never
raise out of ``cli.main``.  A scene starts valid, for every model kind,
and then has up to two fields replaced by a number that is huge, tiny,
NaN or infinite, by a boolean, text, null or a list; output paths may
be unwritable.  Sizes stay small (t_end <= 0.02, resolution <= 16) so
each example is cheap; derandomized, so every run draws the same
examples.
"""

import contextlib
import io
import json
import math
import os

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
        spec = {"kind": kind, "n": n, "m": draw(st.integers(1, n - 1)),
                "radius": radius}
        if draw(st.booleans()):
            spec["axial_extent"] = draw(ORDINARY)
        return spec
    samples = draw(st.sampled_from([5, 9, 16]))
    if kind == "ellipsoid_rev":
        return {"kind": kind, "a": draw(ORDINARY), "b": draw(ORDINARY),
                "band": draw(st.sampled_from([0.5, 0.75])),
                "resolution": samples}
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
def invocations(draw):
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
            "resample_every": draw(st.sampled_from([0, 5])),
            "pinned_boundary": draw(st.booleans()),
        }
    scene["output"] = draw(st.fixed_dictionaries(
        {}, optional={"csv": OUTPUT_PATHS, "report": OUTPUT_PATHS}))

    bad = HUGE + NOT_NUMBERS + OFF_SIGN
    # a valid band with a tiny length is a legitimately endless explicit
    # run (dt ~ h^2), so tiny values reach flow scenes only through the
    # round laws, whose cost does not depend on the radius
    model_bad = bad
    if not flowing or scene["model"]["kind"] in ("sphere", "cylinder"):
        model_bad = bad + TINY
    sites = [(scene["model"], key, model_bad)
             for key in scene["model"] if key != "kind"]
    sites += [(scene, "r", bad), (scene, "resolution", bad)]
    sites += [(scene["flow"], key, bad) for key in scene.get("flow", {})]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        body, key, pool = draw(st.sampled_from(sites))
        body[key] = draw(st.sampled_from(pool))
    out = draw(st.one_of(st.none(), OUTPUT_PATHS.filter(
        lambda p: isinstance(p, str) and "\x00" not in p)))
    return command, scene, out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(derandomize=True, deadline=None, max_examples=500)
@given(case=invocations())
def test_every_scene_maps_to_a_documented_exit(workdir, case):
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
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in ALLOWED_EXITS, (code, stderr.getvalue())
