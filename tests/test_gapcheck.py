import math
import warnings

import numpy as np
import pytest

from newton_flow.catalog import (
    Cylinder,
    Hyperplane,
    Sphere,
    self_shrinkers,
    shrinker_radius,
    sphere_band_profile,
    Revolution,
    revolution_geometry,
)
from newton_flow.errors import DomainError, NotSelfShrinkerError, NumericalError
from newton_flow.gapcheck import (
    classify,
    evaluate,
    evaluate_from_samples,
    gauss_check,
    psd_sufficient,
)
from newton_flow import gapcheck, symfun
from newton_flow.catalog import sample_fields
from newton_flow.symfun import DefinitenessClass
from conftest import random_orthogonal


class TestEvaluate:
    def test_shrinker_sphere_boundary(self):
        for n in range(1, 6):
            for r in range(1, n + 1):
                model = Sphere(n=n, radius=shrinker_radius(n, r))
                rep = evaluate(model, r, resolution=8)
                assert rep.flags.thm1_boundary, (n, r)
                assert not rep.flags.thm1_strict
                assert rep.min_eig_p > 0
                assert rep.classification.kind == "Sphere"

    def test_hyperplane_strict(self):
        rep = evaluate(Hyperplane(n=3), 2, resolution=8)
        assert rep.sup_modified_norm_sq == 0.0
        assert rep.flags.thm1_strict and rep.flags.thm2
        assert rep.classification.kind == "Hyperplane"
        assert any("normal" in note for note in rep.notes)

    def test_oversize_sphere_not_shrinker(self):
        for n, r in ((2, 1), (3, 2), (4, 3)):
            model = Sphere(n=n, radius=2.0 * shrinker_radius(n, r))
            rep = evaluate(model, r, resolution=8)
            expect = r * 2.0 ** (-(r + 1))
            assert rep.sup_modified_norm_sq == pytest.approx(expect, rel=1e-9)
            assert rep.flags.thm1_strict
            assert rep.sup_residual > 1e-3
            assert rep.classification.kind == "NotShrinker"

    def test_sphere_norm_formula_and_monotonicity(self):
        n, r = 4, 2
        values = []
        for radius in (1.0, 1.5, 2.0, 3.0):
            rep = evaluate(Sphere(n=n, radius=radius), r, resolution=8)
            expect = r * math.comb(n, r) * radius ** (-(r + 1))
            assert rep.sup_modified_norm_sq == pytest.approx(expect, abs=1e-9)
            values.append(rep.sup_modified_norm_sq)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_cylinder_axial_constancy_note(self):
        rep = evaluate(Cylinder(n=3, m=2, radius=shrinker_radius(2, 1)), 1,
                       resolution=8)
        assert any("axial" in note for note in rep.notes)

    def test_r_out_of_range(self):
        with pytest.raises(DomainError):
            evaluate(Sphere(n=2, radius=1.0), 3)


class TestClassify:
    def test_catalog_taxonomy(self):
        for model, r in self_shrinkers(5):
            rep = evaluate(model, r, resolution=8)
            result = classify(rep)
            if isinstance(model, Hyperplane):
                assert result.kind == "Hyperplane"
            elif isinstance(model, Sphere):
                assert result.kind == "Sphere"
            else:
                assert result.kind == "Cylinder" and result.m == model.m

    def test_example_cylinder(self):
        model = Cylinder(n=3, m=2, radius=shrinker_radius(2, 2))
        result = classify(evaluate(model, 2, resolution=8))
        assert str(result) == "Cylinder(m=2)"

    def test_not_shrinker_raises(self):
        rep = evaluate(Cylinder(n=3, m=1, radius=1.0), 2, resolution=8)
        with pytest.raises(NotSelfShrinkerError):
            classify(rep)

    def test_psd_class_positive_definite_on_catalog(self):
        # P_{r-1} on catalog shrinkers has eigenvalues sigma_{r-1} with one
        # curvature deleted, all positive for r <= m
        for model, r in self_shrinkers(4):
            if isinstance(model, Hyperplane):
                continue
            rep = evaluate(model, r, resolution=8)
            assert rep.psd_class.kind is DefinitenessClass.POSITIVE_DEFINITE

    def test_rotation_invariance(self, rng):
        # the report reads the curvatures only: the eigenvalues of the shape
        # operator in a rotated frame (ascending, so reordered) give the
        # same report up to rounding
        model = Cylinder(n=3, m=2, radius=shrinker_radius(2, 2))
        K, support = sample_fields(model, 8)
        q = random_orthogonal(rng, 3)
        rotated = np.stack([np.linalg.eigvalsh((q * k) @ q.T) for k in K])
        assert not np.array_equal(rotated, K)
        rep_a = evaluate_from_samples(K, support, 2, 3, model=model)
        rep_b = evaluate_from_samples(rotated, support, 2, 3, model=model)
        assert rep_a.flags == rep_b.flags
        assert str(rep_a.classification) == str(rep_b.classification) == "Cylinder(m=2)"
        assert rep_b.sup_modified_norm_sq == pytest.approx(rep_a.sup_modified_norm_sq,
                                                           rel=1e-12)
        assert rep_b.min_eig_p == pytest.approx(rep_a.min_eig_p, rel=1e-12)


class TestOneSigmaTable:
    def test_excluding_rows_from_a_held_table(self):
        gen = np.random.default_rng(5)
        for n in range(1, 8):
            K = gen.standard_normal((40, n)) * 10.0 ** gen.uniform(-2, 2)
            sig = symfun.elem_sym_all_rows(K)
            for r in range(0, n + 1):
                assert (symfun._excluding_rows(K, sig, r).tobytes()
                        == symfun.elem_sym_excluding_rows(K, r).tobytes())

    def test_one_table_per_report(self, monkeypatch):
        calls = [0]
        inner = gapcheck.elem_sym_all_rows

        def counted(K, *top):
            calls[0] += 1
            return inner(K, *top)
        monkeypatch.setattr(gapcheck, "elem_sym_all_rows", counted)
        monkeypatch.setattr(symfun, "elem_sym_all_rows", counted)
        report = evaluate(Sphere(n=3, radius=shrinker_radius(3, 3)), 3, resolution=8)
        assert report.gauss is not None and calls[0] == 1
        gauss_check(Sphere(n=2, radius=1.0), resolution=8)
        assert calls[0] == 2


class TestGaussCheck:
    def test_unit_spheres_boundary(self):
        for n in range(1, 6):
            rep = gauss_check(Sphere(n=n, radius=1.0), resolution=8)
            assert rep.sup_hk == pytest.approx(float(n), abs=1e-12)
            assert rep.weakly_convex and rep.hk_at_most_n
            assert rep.identity_residual <= 1e-12

    def test_hyperplane(self):
        rep = gauss_check(Hyperplane(n=2), resolution=8)
        assert rep.sup_hk == 0.0
        assert rep.weakly_convex and rep.hk_at_most_n

    def test_out_of_range_curvatures_refused(self):
        # sup HK has degree n + 1 = 4: (1e120)^4 leaves the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="float range"):
                gauss_check(Sphere(n=3, radius=1e-120), resolution=8)

    def test_oversize_sphere_flagged(self):
        rep = gauss_check(Sphere(n=2, radius=2.0), resolution=8)
        assert rep.sup_hk == pytest.approx(0.25)
        assert rep.hk_at_most_n
        report = evaluate(Sphere(n=2, radius=2.0), 2, resolution=8)
        assert report.classification.kind == "NotShrinker"


class TestPsdSufficient:
    def test_minimal_profile_fires_first_condition(self):
        # catenoid-like band: sigma_1 = 0, checked via parity of r-1 = 0
        z = np.linspace(-1.0, 1.0, 201)
        prof_f = np.cosh(z)
        rev = Revolution(profile=__import__("newton_flow").catalog.ProfileCurve(
            z=z, f=prof_f, boundary="neumann"))
        geo = revolution_geometry(rev)
        cut = geo.interior()
        rows = np.stack([geo.k_mer[cut], geo.k_par[cut]], axis=1)
        rep = psd_sufficient(rows, 1, zero_tol=1e-3)
        assert rep.fires_i
        assert rep.fired == "i"
        assert "sigma_r = 0" in rep.detail

    def test_sphere_fires_third_condition(self):
        for r in (1, 2, 3):
            rep = psd_sufficient(sample_fields(Sphere(n=3, radius=1.2), 8)[0], r)
            assert rep.fired == "iii"
            assert rep.definite

    def test_saddle_has_no_condition(self):
        rep = psd_sufficient(np.array([[1.0, -1.0]] * 5), 2)
        assert rep.fired is None
        assert rep.detail == "no sufficient condition"

    def test_definite_upgrade(self):
        # sigma_2 = 0 with sigma_3 != 0: curvatures (a, b, 0-ish)?  use
        # (2, -1, x) with sigma_2 = 2x - 2 - x = x - 2 = 0 -> x = 2,
        # sigma_3 = -4 != 0
        rep = psd_sufficient(np.array([[2.0, -1.0, 2.0]] * 4), 2)
        assert rep.fires_i and rep.fires_ii
        assert rep.definite

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            psd_sufficient([], 1)

    @pytest.mark.parametrize("rows", [
        np.zeros((0, 2)),
        np.array([1.0, 1.0]),
        np.array([[1.0, math.nan], [1.0, 1.0]]),
        np.array([[math.inf, 1.0]]),
    ])
    def test_bad_rows_rejected(self, rows):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                psd_sufficient(rows, 1)

    def test_out_of_range_curvatures_refused(self):
        rows = sample_fields(Sphere(n=2, radius=1e-200), 8)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="float range"):
                psd_sufficient(rows, 2)
