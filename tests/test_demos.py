"""Every script in demos/ runs cleanly from a source checkout, and prints
the stdout recorded in the golden corpus (``tests/golden/demos``)."""

import pytest

from golden_corpus import DEMOS, demo_path, run_demo


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()
    assert proc.stdout == demo_path(demo).read_text(encoding="utf-8")
