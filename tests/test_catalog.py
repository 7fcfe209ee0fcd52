import math
import warnings

import numpy as np
import pytest

from newton_flow import catalog
from newton_flow.catalog import (
    Cylinder,
    EllipsoidRev,
    Hyperplane,
    ProfileCurve,
    Revolution,
    Sphere,
    cylinder_profile,
    principal_curvatures,
    revolution_geometry,
    sample_fields,
    self_shrinkers,
    shrinker_radius,
    shrinker_residual,
    sigma_p_cylinder,
    sphere_band_profile,
    support_function,
)
from newton_flow.errors import DomainError, NumericalError
from newton_flow.symfun import elem_sym
from conftest import ellipsoid_gauss_curvature


class TestShrinkerRadius:
    def test_values(self):
        assert shrinker_radius(1, 1) == pytest.approx(1.0)
        assert shrinker_radius(2, 1) == pytest.approx(math.sqrt(2.0))
        for n in range(1, 9):
            assert shrinker_radius(n, n) == pytest.approx(1.0)

    def test_rejects_r_above_m(self):
        with pytest.raises(DomainError):
            shrinker_radius(1, 2)


class TestSigmaPCylinder:
    def test_hand_value(self):
        assert sigma_p_cylinder(3, 2, 2) == pytest.approx(3.0 ** (1.0 / 3.0))

    def test_conventions(self):
        assert sigma_p_cylinder(3, 2, 0) == 1.0
        assert sigma_p_cylinder(3, 2, 5) == 0.0

    def test_agrees_with_elem_sym(self):
        for n in range(1, 9):
            for m in range(1, n + 1):
                for r in range(1, m + 1):
                    k = np.zeros(n)
                    k[:m] = 1.0 / shrinker_radius(m, r)
                    for p in range(0, n + 1):
                        assert elem_sym(k, p) == pytest.approx(
                            sigma_p_cylinder(m, r, p), rel=1e-12, abs=1e-300)


class TestPointQueries:
    def test_sphere(self):
        model = Sphere(n=3, radius=2.0)
        point = np.array([2.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(principal_curvatures(model, point), 0.5)
        assert support_function(model, point) == -2.0

    def test_cylinder_multiplicities(self):
        radius = math.sqrt(2.0)
        model = Cylinder(n=3, m=2, radius=radius)
        point = np.array([radius, 0.0, 0.0, 5.0])
        np.testing.assert_allclose(
            principal_curvatures(model, point),
            [1.0 / radius, 1.0 / radius, 0.0])
        assert support_function(model, point) == pytest.approx(-radius)

    def test_hyperplane(self):
        model = Hyperplane(n=2)
        point = np.array([1.0, -4.0, 0.0])
        np.testing.assert_allclose(principal_curvatures(model, point), 0.0)
        assert support_function(model, point) == 0.0

    def test_off_model_rejected(self):
        with pytest.raises(DomainError):
            principal_curvatures(Sphere(n=2, radius=1.0), np.array([1.1, 0.0, 0.0]))

    def test_discrete_cylinder(self):
        radius = 1.5
        rev = Revolution(profile=cylinder_profile(radius, 2.0, 64))
        z = rev.profile.z[10]
        point = np.array([radius, 0.0, z])
        k = principal_curvatures(rev, point)
        np.testing.assert_allclose(k, [0.0, 1.0 / radius], atol=1e-10)
        assert support_function(rev, point) == pytest.approx(-radius, abs=1e-10)

    def test_discrete_sphere_band(self):
        radius = 2.0
        rev = Revolution(profile=sphere_band_profile(radius, 0.6, 129))
        g = revolution_geometry(rev)
        cut = g.interior()
        np.testing.assert_allclose(g.k_mer[cut], 1.0 / radius, atol=1e-5)
        np.testing.assert_allclose(g.k_par[cut], 1.0 / radius, atol=1e-5)
        np.testing.assert_allclose(g.support[cut], -radius, atol=1e-5)

    def test_orientation_flip(self):
        radius = 1.0
        prof = cylinder_profile(radius, 2.0, 64)
        rev = Revolution(profile=prof, orientation=-1)
        g = revolution_geometry(rev)
        np.testing.assert_allclose(g.k_par, -1.0, atol=1e-12)
        np.testing.assert_allclose(g.support, 1.0, atol=1e-12)


class TestShrinkerResidual:
    def test_catalog_shrinkers_vanish(self):
        for model, r in self_shrinkers(6):
            curvatures, support = sample_fields(model, 8)
            sup = max(abs(elem_sym(k, r) + h) for k, h in zip(curvatures, support))
            assert sup <= 1e-10, (model, r)

    def test_wrong_order_cylinder(self):
        # sigma_2 vanishes on a rank-1 cylinder, but the support does not
        model = Cylinder(n=3, m=1, radius=1.0)
        point = np.array([1.0, 0.0, 0.0, 0.0])
        assert shrinker_residual(model, 2, point) == pytest.approx(-1.0)

    def test_hyperplane(self):
        model = Hyperplane(n=3)
        point = np.zeros(4)
        assert shrinker_residual(model, 2, point) == 0.0

    def test_discrete_band_residual_second_order(self):
        radius, r = shrinker_radius(2, 1), 1
        res = []
        for m in (65, 129):
            rev = Revolution(profile=sphere_band_profile(radius, 0.4 * radius, m))
            g = revolution_geometry(rev)
            sigma = g.k_mer + g.k_par
            res.append(np.abs(sigma + g.support)[g.interior()].max())
        assert res[1] <= res[0] / 3.0
        assert res[1] <= 1e-4


class TestSampling:
    def test_higher_dimensional_counts_stay_tame(self):
        assert catalog._grid_sizes(Sphere(n=6, radius=1.0), 12) == [12, 12, 3, 3, 3, 3]

    def test_resolution_floor(self):
        with pytest.raises(DomainError):
            sample_fields(Sphere(n=2, radius=1.0), 4)

    def test_ellipsoid_gauss_curvature_oracle(self):
        errs = []
        for m in (64, 128):
            model = EllipsoidRev(a=1.0, b=2.0)
            curvatures = sample_fields(model, m)[0]
            product = curvatures[:, 0] * curvatures[:, 1]
            cut = slice(2, -2)
            expect = ellipsoid_gauss_curvature(1.0, 2.0, model.profile_curve(m).z)
            errs.append(np.abs(product - expect)[cut].max())
        assert errs[1] <= errs[0] / 3.0    # second-order stencils
        assert errs[1] <= 1e-3

    def test_fields_are_the_distinct_rows_of_the_grid(self):
        # one closed-form row, equal to the pointwise query at any on-model point
        for model, point in ((Hyperplane(n=3), np.array([0.5, -1.0, 2.0, 0.0])),
                             (Sphere(n=4, radius=0.7), np.array([0.0, 0.7, 0.0, 0.0, 0.0])),
                             (Cylinder(n=5, m=2, radius=1.3),
                              np.array([0.0, 0.0, 1.3, 4.0, -2.0, 0.5]))):
            curvatures, support = sample_fields(model, 8)
            assert curvatures.shape == (1, model.n) and support.shape == (1,)
            assert (curvatures[0] == principal_curvatures(model, point)).all()
            assert support[0] == support_function(model, point)
        # one row per profile node
        model = EllipsoidRev(a=1.0, b=2.0)
        curvatures, support = sample_fields(model, 8)
        g = revolution_geometry(model.as_revolution(8))
        assert curvatures.shape == (8, 2) and support.shape == (8,)
        assert (curvatures == np.stack([g.k_mer, g.k_par], axis=1)).all()
        assert (support == g.support).all()

    @pytest.mark.parametrize("model, grid", [
        (Sphere(n=6, radius=1.0), "6-dimensional"),
        (Hyperplane(n=3), "3-dimensional"),
        (Cylinder(n=6, m=2, radius=1.0), "2-dimensional"),   # spherical factor first
        (Cylinder(n=6, m=1, radius=1.0), "6-dimensional"),
    ])
    def test_fields_keep_the_grid_budget(self, model, grid):
        with pytest.raises(DomainError, match=f"an {grid} grid at resolution 100000"):
            sample_fields(model, 100_000)
        with pytest.raises(DomainError, match="resolution must lie in 8"):
            sample_fields(model, 7)

    def test_inward_convention_on_closed_models(self):
        for model in (Sphere(n=3, radius=0.7), Cylinder(n=4, m=2, radius=1.3)):
            curvatures, support = sample_fields(model, 8)
            assert support.max() < 0.0
            assert curvatures.min() >= 0.0


class TestProfileValidation:
    def test_rejects_nonuniform_grid(self):
        z = np.array([0.0, 1.0, 2.5, 3.0, 4.0])
        with pytest.raises(DomainError):
            ProfileCurve(z=z, f=np.ones(5))

    def test_rejects_nonpositive_radii(self):
        z = np.linspace(0.0, 1.0, 5)
        with pytest.raises(DomainError):
            ProfileCurve(z=z, f=np.array([1.0, 1.0, 0.0, 1.0, 1.0]))

    @pytest.mark.parametrize("column", ["z", "f"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, column, value):
        samples = {"z": np.linspace(0.0, 1.0, 5), "f": np.ones(5)}
        samples[column][2] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # refused before np.diff runs
            with pytest.raises(DomainError, match="non-finite"):
                ProfileCurve(**samples)

    def test_cylinder_needs_valid_rank(self):
        with pytest.raises(DomainError):
            Cylinder(n=3, m=3, radius=1.0)
        with pytest.raises(DomainError):
            Cylinder(n=3, m=0, radius=1.0)

    @pytest.mark.parametrize("build", [
        lambda: Sphere(n=2, radius=math.inf),
        lambda: Cylinder(n=3, m=2, radius=math.inf),
        lambda: EllipsoidRev(a=math.inf, b=1.0),
        lambda: EllipsoidRev(a=1.0, b=2.0).profile_curve(-5),
        lambda: sphere_band_profile(math.inf, 0.5, 16),
        lambda: cylinder_profile(1.0, math.inf, 16),
    ])
    def test_rejects_non_finite_sizes_and_short_grids(self, build):
        with pytest.raises(DomainError):
            build()

    def test_underflowed_spacing_is_refused_before_the_stencil(self):
        prof = catalog.cylinder_profile(1.0, 1e-170, 16)
        assert prof.h > 0.0 and prof.h * prof.h == 0.0
        with pytest.raises(NumericalError, match=r"h\^2"):
            catalog.revolution_curvatures(prof.f, prof.h, prof.boundary, 1)
