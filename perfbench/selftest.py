"""Self-test of the benchmark at tiny sizes (not part of the tier-1 suite).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that counts repeat exactly for a fixed seed, that a deliberately wrong
expected value is counted as a failed op, that the tracer leaves the
package as it found it, and that the benchmark refuses to run without the
package sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", "flow.steps", "catalog.samples", "trace.absent")


def expect(ok: bool, message: str):
    if not ok:
        raise SystemExit(f"FAIL {message}")


def check_metrics(result: dict, declared: list, what: str):
    units = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    expect(set(got) == set(units),
           f"{what}: metrics differ from BENCHMARK.json: "
           f"{sorted(set(got) ^ set(units))}")
    for name, m in got.items():
        expect(m["unit"] == units[name], f"{what}: {name} unit {m['unit']}")
        expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
               f"{what}: {name} value {m['value']!r}")


def main() -> int:
    expect([w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS),
           "workload names differ from BENCHMARK.json")
    import newton_flow.flow as flow_module
    original_run = flow_module.run
    for name in run.WORKLOADS:
        timed = run.measure(name, seed=7, seconds=0.0, trace=False, tiny=True)
        check_metrics(timed, SPEC["end_to_end"], f"{name} --trace 0")
        expect(timed["correct"], f"{name}: tiny run not correct: {timed['notes']}")

        first = run.measure(name, seed=7, seconds=0.0, trace=True, tiny=True)
        second = run.measure(name, seed=7, seconds=0.0, trace=True, tiny=True)
        check_metrics(first, SPEC["per_layer"], f"{name} --trace 1")
        expect(flow_module.run is original_run, "tracer left a wrapper installed")
        counts = [k for k in first["metrics"] if k.endswith(COUNT_SUFFIXES)]
        for key in counts:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            expect(a == b, f"{name}: {key} differs between runs ({a} vs {b})")
        expect((first["attempted"], first["failed"])
               == (second["attempted"], second["failed"]),
               f"{name}: op counts differ between runs")

        wl = workloads.BUILDERS[name](7, str(run.OUT_DIR / "selftest"), tiny=True)
        clean = run.Tally()
        run.run_pass(wl, clean)
        victim = next(j for j in wl.jobs if not j.known_defect)
        victim.expect = "wrong" if isinstance(victim.expect, str) else -1.0
        broken = run.Tally()
        run.run_pass(wl, broken)
        expect(broken.failed == clean.failed + 1,
               f"{name}: wrong expected value not counted "
               f"({clean.failed} -> {broken.failed})")
        expect(any(line.startswith(victim.name) for line in broken.unexpected),
               f"{name}: wrong expected value not reported")
        print(f"PASS {name}: {len(timed['metrics'])} end-to-end and "
              f"{len(first['metrics'])} per-layer metrics with units, "
              f"{len(counts)} counts repeat, wrong expectation counted")
    shutil.rmtree(run.OUT_DIR / "selftest", ignore_errors=True)

    bare = run.OUT_DIR / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "algebra", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "benchmark ran without the package sources")
    print("PASS refuses to run without the package sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
