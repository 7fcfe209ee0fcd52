"""newton-flow benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload flow-band --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Closed loop, one process, no concurrency: the jobs of a workload run back
to back, and the whole job list (a pass) repeats until --seconds have
elapsed.  Every job is checked against its oracle; a job that misses it,
returns an unexpected exit code or raises is a failed op.  Every time is
normalized by a reference kernel run between jobs (calibrate.py).  The
last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run makes one untraced and one traced pass and reports the
per-layer metrics, and writes the spans under perfbench/.out/.
``--workload all`` runs each workload in its own child process.
"""

from __future__ import annotations

import os

# pin BLAS threads before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"
WORKLOADS = ("flow-band", "flow-models", "algebra", "gap")
SETUP_REPEATS = 7
CHUNKS_PER_PASS = 20      # reference-kernel runs per pass

# name -> unit; the end-to-end metrics, reported with --trace 0
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import newton_flow\n"
    "print(time.perf_counter() - t0)\n"
)


def per_layer_units() -> dict:
    """name -> unit for the per-layer metrics, reported with --trace 1."""
    from tracer import TARGETS
    units = {}
    for layer, names in TARGETS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    for layer in TARGETS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "flow.steps": "count",
        "flow.us_per_step": "us",
        "flow.law_err_max": "length",
        "flow.homothety_defect_max": "length",
        "catalog.samples": "count",
        "catalog.samples_per_s": "1/s",
        "trace.overhead_frac": "frac",
        "trace.absent": "count",
    })
    return units


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds() -> float:
    """Time to import newton_flow in a fresh interpreter (BLAS pinned)."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True, env=dict(os.environ))
    return float(proc.stdout.strip())


class Tally:
    """Per-process job accounting across passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []       # failures outside the known seed defects
        self.known = set()         # known-defect jobs seen failing
        self.latencies = []        # seconds, one per job
        self.steps = 0
        self.law_err = 0.0
        self.defect = 0.0
        self.step_seconds = 0.0    # latency of jobs that took flow steps

    def merge_counts(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected += other.unexpected
        self.known |= other.known

    def run_job(self, job):
        from workloads import Miss
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            obs = job.fn(job.expect)
        except Miss as exc:
            obs, error = None, f"oracle: {exc}"
        except Exception as exc:   # a raising job is a failed op, never fatal
            obs, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self.latencies.append(elapsed)
        if obs is None:
            self.failed += 1
            if job.known_defect:
                self.known.add(job.name)
            else:
                self.unexpected.append(f"{job.name}: {error}")
            return
        if "steps" in obs:
            self.steps += obs["steps"]
            self.step_seconds += elapsed
        self.law_err = max(self.law_err, obs.get("law_err", 0.0))
        self.defect = max(self.defect, obs.get("defect", 0.0))


def run_pass(workload, tally, tracer=None) -> float:
    """One pass over the job list; returns its speed scale.

    The reference kernel runs CHUNKS_PER_PASS times between jobs.  The
    scale NOMINAL_S / (mean kernel time) converts the pass's raw job
    latencies into normalized ones.
    """
    from calibrate import NOMINAL_S, reference_seconds
    every = max(1, len(workload.jobs) // CHUNKS_PER_PASS)
    refs = []
    for i, job in enumerate(workload.jobs):
        if i % every == 0:
            refs.append(reference_seconds())
        if tracer is None:
            tally.run_job(job)
        else:
            with tracer.span(job.name, job=i):
                tally.run_job(job)
    return NOMINAL_S / statistics.fmean(refs)


def set_up(name, seed, workdir, tiny):
    """Build the inputs SETUP_REPEATS times, each with a warm-up job.

    Returns the workload and the median raw set-up time: a fresh-interpreter
    import of newton_flow plus input generation and one warm-up job.
    """
    import workloads
    setups = []
    for _ in range(SETUP_REPEATS):
        raw = import_seconds()
        t0 = time.perf_counter()
        workload = workloads.BUILDERS[name](seed, workdir, tiny=tiny)
        Tally().run_job(workload.warmup)
        setups.append(raw + time.perf_counter() - t0)
    return workload, statistics.median(setups)


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Run one workload in this process; return the result object."""
    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    try:
        workload, setup_raw = set_up(name, seed, str(workdir), tiny)
        tally = Tally()
        if trace:
            metrics, notes = traced_metrics(workload, tally, name, seed)
        else:
            metrics, notes = timed_metrics(workload, tally, seconds, setup_raw)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    notes.append(f"ops={tally.attempted} ops_failed={tally.failed} "
                 f"(seed-commit defects failing: {len(tally.known)})")
    notes.extend(f"FAILED {line}" for line in tally.unexpected[:20])
    return {
        "correct": not tally.unexpected and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "notes": notes,
    }


def timed_metrics(workload, tally, seconds, setup_raw):
    """End-to-end metrics of back-to-back passes over the job list.

    Every latency is scaled by its pass's speed scale (see calibrate.py).
    wall_s sums each job's median normalized latency over the passes: the
    time to finish the job list.  setup_s is scaled by the median pass
    scale: a few kernel runs during set-up tracked its speed worse than
    the hundreds run during the passes.
    """
    scales = []
    start = time.perf_counter()
    while not scales or time.perf_counter() - start < seconds:
        scales.append(run_pass(workload, tally))
    jobs = len(workload.jobs)
    lat = [x * scales[k // jobs] for k, x in enumerate(tally.latencies)]
    lat_ms = [x * 1e3 for x in lat]
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    values = {
        "setup_s": setup_raw * statistics.median(scales),
        "wall_s": sum(statistics.median(lat[j::jobs]) for j in range(jobs)),
        "job_p50_ms": deciles[4],
        "job_p90_ms": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = [sum(tally.latencies[p * jobs:(p + 1) * jobs]) for p in range(len(scales))]
    notes = [f"raw pass seconds: {' '.join(f'{w:.3f}' for w in raw)}",
             f"speed scales: {' '.join(f'{x:.3f}' for x in scales)}",
             f"passes={len(scales)} jobs/pass={jobs} latency samples={len(lat_ms)} "
             f"(p90 has {len(lat_ms) - int(0.9 * len(lat_ms))} beyond it)"]
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, notes


def traced_metrics(workload, tally, name, seed):
    from tracer import TARGETS, Tracer
    scale_plain = run_pass(workload, tally)
    wall_plain = sum(tally.latencies) * scale_plain
    traced = Tally()
    tracer = Tracer().install()
    try:
        with tracer.span(f"workload {name}"):
            scale_traced = run_pass(workload, traced, tracer)
    finally:
        tracer.uninstall()
    wall_traced = sum(traced.latencies) * scale_traced
    tally.merge_counts(traced)

    values = {}
    for key, (calls, self_s, _) in tracer.stats.items():
        values[f"{key}.calls"] = calls
        values[f"{key}.self_s"] = self_s * scale_traced
    for layer in TARGETS:
        values[f"{layer}.self_s"] = tracer.layer_self_s(layer) * scale_traced
    sampling_s = tracer.stats["catalog.sample_arrays"][2] * scale_traced
    samples = tracer.counters["catalog.samples"]
    values.update({
        # from the untraced pass, so the tracer does not inflate us_per_step
        "flow.steps": tally.steps,
        "flow.us_per_step": (tally.step_seconds * scale_plain / tally.steps * 1e6
                             if tally.steps else 0.0),
        "flow.law_err_max": tally.law_err,
        "flow.homothety_defect_max": tally.defect,
        "catalog.samples": samples,
        "catalog.samples_per_s": samples / sampling_s if sampling_s else 0.0,
        "trace.overhead_frac": (wall_traced - wall_plain) / wall_plain,
        "trace.absent": len(tracer.absent),
    })
    units = per_layer_units()
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.json"
    spans_path.write_text(json.dumps({
        "workload": name, "seed": seed, "absent": tracer.absent,
        "spans": tracer.spans_as_dicts()}))
    notes = [f"traced pass {wall_traced:.3f} s, untraced pass {wall_plain:.3f} s",
             f"absent (no longer in the package): {tracer.absent or 'none'}",
             f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"]
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}, notes


def environment(args) -> str:
    import numpy
    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"nproc={os.cpu_count()} commit={git_commit()} "
            f"workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds} trace={args.trace}")


def print_result(result: dict):
    for line in result.pop("notes", []):
        print(f"# {line}")
    for key, m in result["metrics"].items():
        print(f"# {key:<44} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))


def run_all(args) -> int:
    """Each workload in its own child process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "newton_flow" / "__init__.py").is_file():
        print(f"newton_flow sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    print(f"# {environment(args)}")
    print_result(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
