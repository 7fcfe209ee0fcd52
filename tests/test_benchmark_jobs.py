"""The benchmark's job lists at their tiny sizes: every job meets its oracle.

perfbench/workloads.py calls the package through its names, so a change
that deletes or renames one of them fails here.  perfbench/run.py is not
imported: it sets the BLAS thread variables at import.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
NAMES = ("flow-band", "flow-models", "algebra", "gap")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look up their module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_the_job_lists_are_the_benchmarks_four(workloads):
    assert tuple(workloads.BUILDERS) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_every_tiny_job_meets_its_oracle(workloads, tmp_path, name):
    workload = workloads.BUILDERS[name](7, str(tmp_path), tiny=True)
    assert workload.jobs
    for job in workload.jobs:
        try:
            job.fn(job.expect)
        except Exception as exc:    # a Miss, or anything else the job raised
            pytest.fail(f"{name} job {job.name!r}: {type(exc).__name__}: {exc}")
