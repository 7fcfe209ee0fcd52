"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import math
import time

import numpy as np
import pytest

from newton_flow import catalog, operators
from newton_flow.catalog import (
    Cylinder,
    Hyperplane,
    Revolution,
    Sphere,
    cylinder_profile,
    ellipsoid_band_profile,
    self_shrinkers,
    shrinker_radius,
    sigma_p_cylinder,
    sphere_band_profile,
)
from newton_flow.cli import main as cli_main
from newton_flow.flow import (
    FlowConfig,
    homothety_factor,
    run,
    sphere_band_pin,
)
from newton_flow.symfun import (
    elem_sym,
    elem_sym_excluding_rows,
    modified_sff_norm_sq,
    newton_family,
)
from conftest import brute_sigma, random_orthogonal


def _report(number: int, elapsed: float, limit: float, detail: str):
    print(f"PASS criterion {number}: {detail} ({elapsed:.2f}s < {limit:.0f}s)")


def test_criterion_1_cylinder_sigma_table():
    t0 = time.time()
    worst = 0.0
    for n in range(1, 9):
        for m in range(1, n + 1):
            for r in range(1, m + 1):
                radius = shrinker_radius(m, r)
                k = np.zeros(n)
                k[:m] = 1.0 / radius
                for p in range(0, n + 1):
                    expect = sigma_p_cylinder(m, r, p)
                    got = elem_sym(k, p)
                    if expect != 0.0:
                        worst = max(worst, abs(got - expect) / abs(expect))
                        assert abs(got - expect) <= 1e-12 * abs(expect)
                    else:
                        assert got == 0.0
                # the shrinker equation itself: sigma_r = delta = -<X,N>
                model = (Sphere(n=n, radius=radius) if m == n
                         else Cylinder(n=n, m=m, radius=radius))
                support = catalog.exact_support(model)
                assert elem_sym(k, r) == pytest.approx(radius, rel=1e-12)
                assert support == -radius
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, elapsed, 1.0, f"cylinder sigma_p table n<=8, worst rel err {worst:.2e}")


def test_criterion_2_modified_norm_boundary():
    t0 = time.time()
    worst = 0.0
    for n in range(1, 9):
        for m in range(1, n + 1):
            for r in range(1, m + 1):
                k = np.zeros(n)
                k[:m] = 1.0 / shrinker_radius(m, r)
                val = modified_sff_norm_sq(np.diag(k), r)
                worst = max(worst, abs(val - r))
                assert abs(val - r) <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(2, elapsed, 1.0,
            f"modified norm equals r on all shrinking models n<=8, worst {worst:.2e}")


def test_criterion_3_algebra_property_suite():
    t0 = time.time()
    rng = np.random.RandomState(987654321)
    total = 10000
    frob = np.linalg.norm
    for count in range(total):
        n = count % 6 + 1
        eig = rng.standard_normal(n)
        if count % 2 == 0:
            eig = np.abs(eig) + 0.1
        q = random_orthogonal(rng, n)
        a = (q * eig) @ q.T
        a = 0.5 * (a + a.T)

        fam = newton_family(a)      # eigenframe vs polynomial + Cayley-Hamilton built in
        sig = fam.sigmas
        k, v = np.linalg.eigh(a)
        scale1 = 1.0 + frob(a)
        # Cayley-Hamilton: sum_j sigma_{n-j} (-A)^j vanishes
        power, cayley_hamilton = np.eye(n), np.zeros((n, n))
        for j in range(n + 1):
            cayley_hamilton += sig[n - j] * power
            power = power @ -a
        assert frob(cayley_hamilton) <= 1e-10 * scale1 ** n

        a2 = a @ a
        gap_ok = n == 1 or float(np.diff(k).min()) >= 1e-6
        exc_rows = [elem_sym_excluding_rows(k[None, :], r - 1)[0]
                    for r in range(1, n + 1)]
        for r in range(1, n + 1):
            p = fam.P[r - 1]
            scale = scale1 ** (r + 1)
            s_rp1 = sig[r + 1] if r + 1 <= n else 0.0
            assert abs(np.trace(p) - (n - r + 1) * sig[r - 1]) <= 1e-10 * scale
            assert abs(np.trace(p @ a) - r * sig[r]) <= 1e-10 * scale
            assert abs(np.trace(p @ a2)
                       - (sig[1] * sig[r] - (r + 1) * s_rp1)) <= 1e-10 * scale
            assert frob(p @ a - a @ p) <= 1e-10 * scale
            if gap_ok:
                # eigenvalue law: P_{r-1} diagonalizes to the deleted sigmas
                diag = np.einsum("ij,jk,ki->i", v.T, p, v)
                tol = 1e-9 * max(1.0, float(np.abs(exc_rows[r - 1]).max()))
                assert np.abs(diag - exc_rows[r - 1]).max() <= tol
            # Cauchy-Schwarz bound whenever P_{r-1} is PSD on the sample
            if exc_rows[r - 1].min() >= -1e-10 * scale:
                lhs = (r * sig[r]) ** 2
                rhs = np.trace(p) * np.trace(p @ a2)
                assert lhs <= rhs + 1e-10 * scale1 ** (2 * r)

        # frame invariance of every scalar output
        qf = random_orthogonal(rng, n)
        b = qf @ a @ qf.T
        b = 0.5 * (b + b.T)
        fam_b = newton_family(b)
        scale_top = scale1 ** (n + 1)
        assert np.abs(fam.sigmas - fam_b.sigmas).max() <= 1e-10 * scale_top
        for r in range(1, n + 1):
            va = np.trace(fam.P[r - 1] @ a2)
            vb = np.trace(fam_b.P[r - 1] @ (b @ b))
            assert abs(va - vb) <= 1e-10 * scale_top

        if count % 100 == 0:
            # independent brute-force oracle for the sigmas
            for r in range(0, n + 1):
                assert fam.sigmas[r] == pytest.approx(
                    brute_sigma(k, r), rel=1e-11, abs=1e-11)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(3, elapsed, 30.0, f"{total} random operators, all identities hold")


def test_criterion_4_operator_identity_convergence():
    t0 = time.time()
    def ellipsoid(m):
        return Revolution(profile=ellipsoid_band_profile(1.0, 2.0, 0.75, m))

    resolutions = [64, 128, 256]
    details = []
    for r in (1, 2):
        for name, verify in (("support", operators.verify_support_identity),
                             ("position", operators.verify_position_identity)):
            rep = verify(ellipsoid, r, resolutions)
            assert rep.residuals[-1] <= 1e-3, (name, r, rep.residuals)
            assert all(1.5 <= p <= 2.5 for p in rep.observed_orders), (name, r, rep)
            details.append(f"{name} r={r} res {rep.residuals[-1]:.1e}")
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(4, elapsed, 10.0, "; ".join(details))


def test_criterion_5_shrinker_pde():
    t0 = time.time()
    worst = 0.0
    count = 0
    for model, r in self_shrinkers(6):
        rep = operators.verify_shrinker_pde(model, r)
        worst = max(worst, rep.worst)
        count += 1
        assert rep.worst <= 1e-10, (model, r)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(5, elapsed, 1.0,
            f"stationary identities on {count} catalog shrinkers, worst {worst:.1e}")


def test_criterion_6_flow_laws():
    t0 = time.time()
    # circle: R^2 = 1 - 2t up to t = 0.4 = 0.8 * T
    config = FlowConfig(r=1, model=Sphere(n=1, radius=1.0), t_end=0.4,
                        resolution=256, output_stride=200)
    result = run(config)
    assert result.status == "completed"
    worst_circle = max(abs(d.min_radius ** 2 - (1.0 - 2.0 * d.t))
                       for d in result.diagnostics)
    assert worst_circle <= 1e-3

    # sphere as revolution: R^2 = 4 - 4t up to t = 0.8 = 0.8 * T
    half_width = 0.6
    worst_sphere = 0.0
    for t_end in (0.4, 0.8):
        prof = sphere_band_profile(2.0, half_width, 256)
        config = FlowConfig(r=1, model=Revolution(profile=prof), t_end=t_end,
                            boundary_values=sphere_band_pin(2.0, 1, half_width),
                            output_stride=100000)
        result = run(config)
        assert result.status == "completed"
        geo = result.state.geometry
        r_sq = geo.f ** 2 + geo.z ** 2
        worst_sphere = max(worst_sphere,
                           float(np.abs(r_sq - (4.0 - 4.0 * t_end)).max()))
    assert worst_sphere <= 1e-3

    # discrete cylinder under the Gauss flow speed: stationary
    prof = cylinder_profile(1.0, 2.0, 256)
    result = run(FlowConfig(r=2, model=Revolution(profile=prof), t_end=2e-3))
    assert result.status == "completed" and result.state.step_count >= 50
    assert np.abs(result.state.geometry.f - 1.0).max() <= 1e-10

    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(6, elapsed, 60.0,
            f"circle law {worst_circle:.1e}, sphere law {worst_sphere:.1e}, "
            "cylinder stationary")


def test_criterion_7_homothety():
    t0 = time.time()
    config = FlowConfig(r=1, model=Sphere(n=2, radius=math.sqrt(2.0)),
                        t_end=0.45, rescaled=True, resolution=128,
                        output_stride=20)
    result = run(config)
    monitored = [d for d in result.diagnostics
                 if homothety_factor(1, d.t) ** 2 >= 0.2]
    assert monitored, "no diagnostics in the monitored window"
    worst = max(d.homothety_defect for d in monitored)
    assert worst <= 1e-3
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(7, elapsed, 60.0,
            f"homothety defect {worst:.1e} while phi^2 >= 0.2")


def test_criterion_8_gap_classification(tmp_path):
    t0 = time.time()

    def gap_via_cli(model_spec, r):
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(
            {"model": model_spec, "r": r, "resolution": 12}), encoding="utf-8")
        out = tmp_path / "report.json"
        code = cli_main(["gap", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        return json.loads(out.read_text())

    checked = 0
    for model, r in self_shrinkers(6):
        if isinstance(model, Hyperplane):
            spec = {"kind": "hyperplane", "n": model.n}
            expect = "Hyperplane"
        elif isinstance(model, Sphere):
            spec = {"kind": "sphere", "n": model.n, "radius": model.radius}
            expect = "Sphere"
        else:
            spec = {"kind": "cylinder", "n": model.n, "m": model.m,
                    "radius": model.radius}
            expect = f"Cylinder(m={model.m})"
        data = gap_via_cli(spec, r)
        assert data["classification"] == expect, (model, r, data["classification"])
        if expect == "Hyperplane":
            assert data["flags"]["thm1_strict"]
        else:
            assert data["flags"]["thm1_boundary"]
            assert data["flags"]["thm1_psd_definite"]
        checked += 1

    # cylinders with r > m are not shrinkers
    for n in range(3, 7):
        for m in range(1, n - 1):
            for r in range(m + 1, n + 1):
                spec = {"kind": "cylinder", "n": n, "m": m, "radius": 1.0}
                data = gap_via_cli(spec, r)
                assert data["classification"] == "NotShrinker", (n, m, r)
                checked += 1

    # Gauss flow: HK = n on the unit sphere
    for n in range(1, 7):
        data = gap_via_cli({"kind": "sphere", "n": n, "radius": 1.0}, n)
        assert data["gauss"]["supHK"] == pytest.approx(float(n), abs=1e-10)
        assert data["gauss"]["weaklyConvex"]
        checked += 1

    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(8, elapsed, 5.0, f"taxonomy exact over {checked} gap reports")
