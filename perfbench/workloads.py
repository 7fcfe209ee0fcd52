"""The four benchmark workloads, built from a seed, each job with its oracle.

Every builder takes (seed, workdir, tiny); only gap writes files, its
scene configs and reports, under workdir.

A workload is a fixed job list.  A job is a call into the package through
its public functions, followed by a check of the result against an oracle
computed here, independently of the package where that is possible.  A
job returns a dict of observations (step counts, law errors) and raises
``Miss`` when the result misses its oracle.

Sizes are chosen so that one pass over a job list takes 2-5 s on a
2-core x86 box, and the seed changes the inputs but not the amount of
work: band horizons are solved so that the CFL-limited step count is the
same for every draw, flow-models shuffles its job order, and algebra
draws operators with a fixed size mix.  gap ignores the seed: its inputs
are the fixed taxonomy, and a shuffled order moved its peak RSS by 7%
between seeds through the allocator's history.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from math import comb
from typing import Any, Callable

import numpy as np

import newton_flow as nf
from newton_flow import catalog, cli, flow, symfun

LAW_TOL = 1e-3          # acceptance bound for every flow law
TUBE_DRIFT_TOL = 1e-10
WINDOW_PHI_SQ = 0.2     # criterion-7 monitoring window: phi^2 >= 0.2


class Miss(Exception):
    """A job's result missed its oracle."""


@dataclass
class Job:
    name: str
    fn: Callable[[Any], dict]     # fn(expect) -> observations
    expect: Any
    known_defect: str = ""        # why the job fails at the seed commit


@dataclass
class Workload:
    name: str
    jobs: list
    warmup: Job                   # one untimed job, run during set-up


def check(ok: bool, message: str):
    if not ok:
        raise Miss(message)


# ---------------------------------------------------------------------------
# flow-band: pinned sphere bands as radial graphs (fd + revolution kernel)

NOMINAL_R0, NOMINAL_HW = 2.0, 0.6


def _band_cost(r: int, radius0: float, t: float) -> float:
    """Integral over [0, t] of 1 + (CFL coefficient) on a shrinking band.

    The coefficient is tr P_{r-1} of the n = 2 sphere of radius R(s):
    2 for r = 1, and 2/R(s) with R^3 = R0^3 - 3s for r = 2.
    """
    if r == 1:
        return 3.0 * t
    return t + radius0 ** 2 - (radius0 ** 3 - 3.0 * t) ** (2.0 / 3.0)


def band_horizon(r: int, radius0: float, half_width: float, tau: float) -> float:
    """End time giving the step count of the nominal band run to tau.

    Steps ~ cost / h^2 with h proportional to half_width, so matching
    cost * (NOMINAL_HW / half_width)^2 makes the work independent of the
    seed's draw.
    """
    target = _band_cost(r, NOMINAL_R0, tau) * (half_width / NOMINAL_HW) ** 2
    lo, hi = 0.0, radius0 ** (r + 1) / ((r + 1) * comb(2, r))
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _band_cost(r, radius0, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sphere_radius_law(n: int, r: int, radius0: float, t: float) -> float:
    return (radius0 ** (r + 1) - (r + 1) * comb(n, r) * t) ** (1.0 / (r + 1))


def _band_job(r, m, radius0, half_width, tau, scheme="euler"):
    t_end = band_horizon(r, radius0, half_width, tau)

    def fn(expect):
        prof = catalog.sphere_band_profile(radius0, half_width, m)
        config = nf.FlowConfig(
            r=r, model=nf.Revolution(profile=prof), t_end=t_end, scheme=scheme,
            boundary_values=flow.sphere_band_pin(radius0, r, half_width),
            output_stride=10 ** 9)
        res = flow.run(config)
        check(res.status == "completed", f"status {res.status}")
        geo = res.state.geometry
        err = float(np.abs(np.hypot(geo.f, geo.z) - expect).max())
        check(err <= LAW_TOL, f"law error {err:.3e}")
        return {"steps": res.state.step_count, "law_err": err}

    name = f"band r={r} M={m} {scheme} R0={radius0:.4f} hw={half_width:.4f}"
    return Job(name, fn, sphere_radius_law(2, r, radius0, t_end))


def _tube_job(m, radius, half_width, tau):
    # r = 2 on a tube: sigma_2 = k_mer k_par = 0, so the profile must not move
    t_end = tau * (1.0 + 1.0 / NOMINAL_R0) / (1.0 + 1.0 / radius) \
        * (half_width / NOMINAL_HW) ** 2

    def fn(expect):
        prof = catalog.cylinder_profile(radius, half_width, m)
        config = nf.FlowConfig(r=2, model=nf.Revolution(profile=prof),
                               t_end=t_end, output_stride=10 ** 9)
        res = flow.run(config)
        check(res.status == "completed", f"status {res.status}")
        drift = float(np.abs(res.state.geometry.f - expect).max())
        check(drift <= TUBE_DRIFT_TOL, f"tube drift {drift:.3e}")
        return {"steps": res.state.step_count}

    return Job(f"tube r=2 M={m} R={radius:.4f}", fn, radius)


def flow_band(seed: int, workdir: str, tiny: bool = False) -> Workload:
    # 9 job kinds, an odd number, so the median job latency falls inside
    # one kind's cluster rather than on the edge between two
    rng = np.random.default_rng(seed)
    sizes, tau, draws = ((16, 24), 0.002, 1) if tiny else ((64, 96, 128), 0.04, 2)
    jobs = []
    for _ in range(draws):
        radius0 = float(rng.uniform(1.8, 2.2))
        half_width = float(rng.uniform(0.5, 0.7))
        for r in (1, 2):
            for m in sizes:
                jobs.append(_band_job(r, m, radius0, half_width, tau))
        for r in (1, 2):
            jobs.append(_band_job(r, sizes[0], radius0, half_width, tau, "rk2"))
        jobs.append(_tube_job(sizes[-1], radius0, half_width, tau))
    return Workload("flow-band", jobs, warmup=jobs[0])


# ---------------------------------------------------------------------------
# flow-models: polygon curves and scalar sphere/cylinder laws (no fd)

def _circle_job(vertices, t_end, scheme):
    def fn(expect):
        config = nf.FlowConfig(r=1, model=nf.Sphere(n=1, radius=1.0),
                               t_end=t_end, resolution=vertices, scheme=scheme,
                               output_stride=50)
        res = flow.run(config)
        check(res.status == "completed", f"status {res.status}")
        err = max(abs(d.min_radius ** 2 - (expect - 2.0 * d.t))
                  for d in res.diagnostics)
        check(err <= LAW_TOL, f"circle law error {err:.3e}")
        return {"steps": res.state.step_count, "law_err": err}

    return Job(f"circle V={vertices} {scheme}", fn, 1.0)


def _scalar_law_job(model, r, resolution):
    m = model.n if isinstance(model, nf.Sphere) else model.m
    t_end = 0.9 / (r + 1)

    def fn(expect):
        config = nf.FlowConfig(r=r, model=model, t_end=t_end,
                               resolution=resolution, rescaled=True)
        res = flow.run(config)
        check(res.status == "completed", f"status {res.status}")
        err = defect = 0.0
        for d in res.diagnostics:
            if flow.homothety_factor(r, d.t) ** 2 < WINDOW_PHI_SQ:
                continue
            err = max(err, abs(d.min_radius - sphere_radius_law(m, r, expect, d.t)))
            defect = max(defect, d.homothety_defect)
        check(err <= LAW_TOL, f"radius law error {err:.3e}")
        check(defect <= LAW_TOL, f"homothety defect {defect:.3e}")
        return {"steps": res.state.step_count, "law_err": err, "defect": defect}

    kind = "sphere" if isinstance(model, nf.Sphere) else f"cylinder m={m}"
    return Job(f"law {kind} n={model.n} r={r}", fn, model.radius)


def _hyperplane_job():
    def fn(expect):
        res = flow.run(nf.FlowConfig(r=1, model=nf.Hyperplane(n=3), t_end=0.5))
        check(res.status == expect, f"status {res.status}")
        return {"steps": res.state.step_count}

    return Job("hyperplane n=3 r=1", fn, "stationary")


def _extinction_job():
    radius0 = 0.4

    def fn(expect):
        config = nf.FlowConfig(r=1, model=nf.Sphere(n=2, radius=radius0),
                               t_end=10.0, resolution=64)
        res = flow.run(config)
        check(res.status == "extinct", f"status {res.status}")
        check(abs(res.state.t - expect) <= 1e-2 * expect,
              f"extinct at t={res.state.t:.6g}, law says {expect:.6g}")
        return {"steps": res.state.step_count}

    return Job("extinction sphere n=2 R=0.4", fn,
               radius0 ** 2 / (2 * comb(2, 1)))


def flow_models(seed: int, workdir: str, tiny: bool = False) -> Workload:
    vertices, circle_t, resolution, n_max = \
        ((16, 32), 0.02, 128, 2) if tiny else ((128, 256), 0.1, 128, 6)
    jobs = [_circle_job(vertices[0], circle_t, "euler"),
            _circle_job(vertices[1], circle_t, "euler"),
            _circle_job(vertices[0], circle_t, "rk2"),
            _hyperplane_job(), _extinction_job()]
    for model, r in catalog.self_shrinkers(n_max):
        if isinstance(model, nf.Hyperplane) or model.n == 1:
            continue        # hyperplanes are stationary; n = 1 is a polygon
        jobs.append(_scalar_law_job(model, r, resolution))
    warmup = jobs[0]
    np.random.default_rng(seed).shuffle(jobs)
    return Workload("flow-models", jobs, warmup=warmup)


# ---------------------------------------------------------------------------
# algebra: many tiny scalar symfun calls

def _definiteness_kind(eigs, norm, tol=1e-10) -> str:
    lo, hi = float(min(eigs)), float(max(eigs))
    cut = tol * max(1.0, norm)
    if lo > cut:
        return "PositiveDefinite"
    if hi < -cut:
        return "NegativeDefinite"
    if lo >= -cut:
        return "PositiveSemidefinite"
    if hi <= cut:
        return "NegativeSemidefinite"
    return "Indefinite"


def _operator_job(index, a, eigs):
    n = a.shape[0]
    norm = float(np.linalg.norm(a))
    scale1 = 1.0 + norm
    # independent sigmas: coefficients of prod (x - k_i)
    coeffs = np.poly(np.sort(eigs))
    sig_ref = np.array([(-1) ** p * coeffs[p] for p in range(n + 1)])

    def fn(expect):
        fam = symfun.newton_family(a)
        err = float(np.abs(fam.sigmas - sig_ref).max())
        check(err <= 1e-10 * scale1 ** n, f"sigmas off by {err:.3e}")
        d = symfun.definiteness(a)
        check(d.kind.value == expect, f"definiteness {d.kind.value}")
        if d.is_psd:
            root = symfun.sqrt_psd(a)
            err = float(np.linalg.norm(root @ root - a))
            check(err <= 1e-9 * scale1, f"sqrt_psd residual {err:.3e}")
        for r in range(1, n + 1):
            worst = symfun.trace_identities(a, r).worst
            check(worst <= symfun.IDENTITY_TOL, f"trace identity r={r} {worst:.3e}")
            s_next = sig_ref[r + 1] if r + 1 <= n else 0.0
            law = sig_ref[1] * sig_ref[r] - (r + 1) * s_next
            val = symfun.modified_sff_norm_sq(a, r)
            check(abs(val - law) <= 1e-10 * scale1 ** (r + 1),
                  f"modified norm r={r} off by {abs(val - law):.3e}")
            psd = symfun.definiteness(fam.P[r - 1]).is_psd
            try:
                lhs, rhs = symfun.cauchy_schwarz_bound(a, r)
            except nf.NotPSDError:
                check(not psd, f"NotPSDError for PSD P_{r - 1}")
                continue
            check(psd, f"bound returned for non-PSD P_{r - 1}")
            check(lhs <= rhs + 1e-10 * scale1 ** (2 * r),
                  f"Cauchy-Schwarz r={r}: {lhs:.6g} > {rhs:.6g}")
        return {}

    return Job(f"operator #{index} n={n}", fn,
               _definiteness_kind(eigs, norm))


def algebra(seed: int, workdir: str, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    count = 24 if tiny else 1000
    jobs = []
    for i in range(count):
        n = i % 6 + 1
        eigs = rng.standard_normal(n)
        if (i // 6) % 2 == 0:          # half positive definite, every n
            eigs = np.abs(eigs) + 0.1
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * eigs) @ q.T
        jobs.append(_operator_job(i, 0.5 * (a + a.T), eigs))
    return Workload("algebra", jobs, warmup=jobs[0])


# ---------------------------------------------------------------------------
# gap: cli.main(["gap", ...]) over the criterion-8 taxonomy

# (scene, expected exit code, seed-commit defect or "")
MALFORMED = (
    ({"model": {"kind": "sphere", "n": 2}, "r": 1}, 2,
     "missing radius escapes as KeyError"),
    ({"model": {"kind": "sphere", "n": "two", "radius": 1.0}, "r": 1}, 2,
     "string n escapes as ValueError"),
    ({"model": {"kind": "sphere", "n": 2, "radius": 1.0}, "r": "one"}, 2,
     "string r escapes as ValueError"),
    ({"model": {"kind": "revolution", "z": [0, 1, 2, 3, 4],
                "f": [1, 1, "x", 1, 1]}, "r": 1}, 2,
     "non-numeric f entry escapes as ValueError"),
    ({"model": {"kind": "sphere", "n": 2, "radius": 1.0}, "r": 1,
      "colour": "red"}, 2, ""),
    ({"model": {"kind": "sphere", "n": 2, "radius": 1.0}, "r": 3}, 3, ""),
    ({"model": {"kind": "sphere", "n": 2, "radius": -1.0}, "r": 1}, 3, ""),
)


def _model_spec(model) -> dict:
    if isinstance(model, nf.Hyperplane):
        return {"kind": "hyperplane", "n": model.n}
    if isinstance(model, nf.Sphere):
        return {"kind": "sphere", "n": model.n, "radius": model.radius}
    return {"kind": "cylinder", "n": model.n, "m": model.m,
            "radius": model.radius}


def _taxonomy(n_max: int):
    """(scene model, r, expected classification, gauss n or None)."""
    for model, r in catalog.self_shrinkers(n_max):
        kind = type(model).__name__
        expect = f"Cylinder(m={model.m})" if kind == "Cylinder" else kind
        yield _model_spec(model), r, expect, None
    for n in range(3, n_max + 1):          # r > m: not shrinkers
        for m in range(1, n - 1):
            for r in range(m + 1, n + 1):
                yield ({"kind": "cylinder", "n": n, "m": m, "radius": 1.0},
                       r, "NotShrinker", None)
    for n in range(1, n_max + 1):          # Gauss flow on the unit sphere
        yield {"kind": "sphere", "n": n, "radius": 1.0}, n, "Sphere", n


def _quiet_main(argv):
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _report_job(path, out, expect, gauss_n):
    def fn(expect):
        code, _ = _quiet_main(["gap", "--config", path, "--out", out])
        check(code == 0, f"exit code {code}")
        with open(out, encoding="utf-8") as fh:
            data = json.load(fh)
        got = data["classification"]
        check(got == expect, f"classified {got}")
        flags = data["flags"]
        if got == "Hyperplane":
            check(flags["thm1_strict"], "thm1_strict not set")
        elif got != "NotShrinker":
            check(flags["thm1_boundary"] and flags["thm1_psd_definite"],
                  "boundary/definite flags not set")
        if gauss_n is not None:
            g = data["gauss"]
            check(abs(g["supHK"] - gauss_n) <= 1e-10, f"supHK {g['supHK']}")
            check(g["weaklyConvex"], "Gauss sphere not weakly convex")
        return {}

    return Job(f"gap {os.path.basename(path)}", fn, expect)


def _verify_job():
    def fn(expect):
        code, text = _quiet_main(["verify"])
        check(code == expect, f"exit code {code}")
        check("verification passed" in text, "verify did not pass")
        return {}

    return Job("verify", fn, 0)


def _malformed_job(path, expect, defect):
    def fn(expect):
        code, _ = _quiet_main(["gap", "--config", path])
        check(code == expect, f"exit code {code}")
        return {}

    return Job(f"malformed {os.path.basename(path)}", fn, expect, defect)


def gap(seed: int, workdir: str, tiny: bool = False) -> Workload:
    # seed unused: a fixed order keeps peak RSS independent of the seed
    resolution, n_max = (8, 3) if tiny else (32, 6)
    os.makedirs(workdir, exist_ok=True)

    def scene_file(name, scene):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scene, fh)
        return path

    jobs = []
    for i, (spec, r, expect, gauss_n) in enumerate(_taxonomy(n_max)):
        path = scene_file(f"scene{i:03d}.json",
                          {"model": spec, "r": r, "resolution": resolution})
        jobs.append(_report_job(path, os.path.join(workdir, f"report{i:03d}.json"),
                                expect, gauss_n))
    jobs.append(_verify_job())
    for i, (scene, code, defect) in enumerate(MALFORMED):
        jobs.append(_malformed_job(scene_file(f"malformed{i}.json", scene),
                                   code, defect))
    return Workload("gap", jobs, warmup=jobs[0])


BUILDERS = {
    "flow-band": flow_band,
    "flow-models": flow_models,
    "algebra": algebra,
    "gap": gap,
}
