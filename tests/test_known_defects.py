"""Open defects, each asserted as the correct behaviour and marked as a
strict expected failure.

Each reason quotes the defect's line in ROADMAP.md.  A change that mends
a defect makes its test pass, which strict mode reports as a failure:
the test then moves into the regular suite and the ROADMAP line goes.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from newton_flow import gapcheck
from newton_flow.catalog import Sphere

TRACER_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def known_defect(reason: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


@known_defect("`gap` classifies a sphere off its shrinker radius by a relative 3e-9 "
              "as `Sphere` (residual 8.49e-9, under `SHRINKER_TOL` = 1e-8). See item 21.")
def test_a_sphere_off_its_shrinker_radius_is_no_shrinker():
    report = gapcheck.evaluate(Sphere(n=2, radius=math.sqrt(2) * (1 + 3e-9)), 1)
    assert str(report.classification) == "NotShrinker"


@known_defect("`perfbench` traces eleven dead targets and none of the per-step closures: "
              "`trace.absent` = 11 on gap and flow-band, and `fd.self_s` = 0 on "
              "flow-band. See item 5.")
def test_the_benchmark_tracer_finds_every_target():
    spec = importlib.util.spec_from_file_location("tracer", TRACER_PY)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent == []
