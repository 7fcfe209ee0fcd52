import decimal
import math
import warnings

import numpy as np
import pytest

from newton_flow import catalog
from newton_flow.catalog import (
    Cylinder,
    Hyperplane,
    ProfileCurve,
    Revolution,
    Sphere,
    cylinder_profile,
    ellipsoid_band_profile,
    exact_curvatures,
    exact_support,
    revolution_geometry,
    sample_fields,
    self_shrinkers,
    shrinker_radius,
    sigma_p_cylinder,
    sphere_band_profile,
)
from newton_flow.errors import DomainError, NumericalError
from newton_flow.symfun import elem_sym, elem_sym_all_rows, elem_sym_excluding_rows
from conftest import (
    NON_NUMERIC_IDS,
    assert_refused_as_non_numeric,
    ellipsoid_gauss_curvature,
    non_numeric_vectors,
    reference_deriv1,
    reference_deriv2,
)


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

    @pytest.mark.parametrize("m, r, p, message", [
        (2, 3, 1, r"^cylinder closed form needs 1 <= r <= m, got r=3$"),
        (3, 2, -1, "^p must be nonnegative$"),
    ])
    def test_refuses_an_order_past_the_rank_and_a_negative_p(self, m, r, p, message):
        with pytest.raises(DomainError, match=message):
            sigma_p_cylinder(m, r, p)

    def test_agrees_with_elem_sym(self):
        for n in range(1, 9):
            for m in range(1, n + 1):
                for r in range(1, m + 1):
                    k = np.zeros(n)
                    k[:m] = 1.0 / shrinker_radius(m, r)
                    for p in range(0, n + 1):
                        assert elem_sym(k, p) == pytest.approx(
                            sigma_p_cylinder(m, r, p), rel=1e-12, abs=1e-300)


def _decimal_oracle(m, r, p, digits=50):
    """C(m,p) C(m,r)^(-p/(r+1)) and C(m,r)^(1/(r+1)) to 50 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        log_r = decimal.Decimal(math.comb(m, r)).ln() / (r + 1)
        return (decimal.Decimal(math.comb(m, p)) * (-p * log_r).exp(), log_r.exp())


class TestBinomialsPastTheFloatRange:
    """C(n, r) is formed as an exact integer and rounded once; where it leaves
    the float range, a shrinker's radius and sigma_p are formed from the
    logarithms of the integers, and a result past the float maximum is the
    float-range NumericalError, naming the binomial it formed."""

    @pytest.mark.parametrize("call, product", [
        (lambda: shrinker_radius(10 ** 700, 1), r"C\(100000\.\.\. \(701 digits\),1\)"),
        (lambda: sigma_p_cylinder(1100, 1099, 550), r"C\(1100,550\)"),   # ~3e327
    ], ids=["shrinker_radius", "sigma_p_cylinder"])
    def test_names_the_binomial(self, call, product):
        with pytest.raises(NumericalError, match=f"^{product} leaves the float range$"):
            call()

    def test_roots_of_a_binomial_past_the_float_range(self):
        # C(1100, 550) ~ 1e329
        sigma, radius = _decimal_oracle(1100, 550, 3)
        assert shrinker_radius(1100, 550) == pytest.approx(float(radius), rel=1e-14, abs=0)
        assert sigma_p_cylinder(1100, 550, 3) == pytest.approx(float(sigma), rel=1e-14, abs=0)
        assert 3.96 < shrinker_radius(1100, 550) < 3.97
        assert 3.5e6 < sigma_p_cylinder(1100, 550, 3) < 3.6e6

    def test_catalog_shrinkers_keep_their_bits(self):
        for model, r in self_shrinkers(6):
            if isinstance(model, Hyperplane):
                continue
            m = model.m if isinstance(model, Cylinder) else model.n
            assert model.radius.hex() == (math.comb(m, r) ** (1.0 / (r + 1))).hex()
            for p in range(m + 1):
                assert sigma_p_cylinder(m, r, p).hex() == (
                    math.comb(m, p) * math.comb(m, r) ** (-p / (r + 1))).hex()

    def test_bits_are_the_integer_arithmetic(self):
        for m in (1, 2, 6, 40, 215, 1000):
            for r in sorted({1, 2, m // 2, m - 1, m} & set(range(1, m + 1))):
                assert shrinker_radius(m, r).hex() == (
                    math.comb(m, r) ** (1.0 / (r + 1))).hex()
                for p in (0, 1, r, m):
                    assert sigma_p_cylinder(m, r, p).hex() == (
                        math.comb(m, p) * math.comb(m, r) ** (-p / (r + 1))).hex()


class TestCheckModel:
    @pytest.mark.parametrize("model", [
        Hyperplane(n=2), Sphere(n=2, radius=1.0), Cylinder(n=3, m=1, radius=1.0),
        Revolution(profile=cylinder_profile(1.0, 2.0, 9)),
        Revolution(profile=ellipsoid_band_profile(1.0, 2.0, 0.75, 9))])
    def test_catalog_models_pass(self, model):
        catalog.check_model(model)

    @pytest.mark.parametrize("value, name", [(None, "NoneType"), (2, "int"),
                                             (cylinder_profile(1.0, 2.0, 9), "ProfileCurve")])
    def test_anything_else_is_refused(self, value, name):
        with pytest.raises(DomainError, match=f"^{name} is not a catalog model$"):
            catalog.check_model(value)


class TestPointQueries:
    """Sample rows of the models: one closed-form row, or one row per node."""

    def test_sphere(self):
        curvatures, support = sample_fields(Sphere(n=3, radius=2.0))
        np.testing.assert_allclose(curvatures[0], 0.5)
        assert support[0] == -2.0

    def test_cylinder_multiplicities(self):
        radius = math.sqrt(2.0)
        curvatures, support = sample_fields(Cylinder(n=3, m=2, radius=radius))
        np.testing.assert_allclose(curvatures[0], [1.0 / radius, 1.0 / radius, 0.0])
        assert support[0] == pytest.approx(-radius)

    def test_hyperplane(self):
        curvatures, support = sample_fields(Hyperplane(n=2))
        np.testing.assert_allclose(curvatures[0], 0.0)
        assert support[0] == 0.0

    def test_discrete_cylinder(self):
        radius = 1.5
        rev = Revolution(profile=cylinder_profile(radius, 2.0, 64))
        curvatures, support = sample_fields(rev)
        np.testing.assert_allclose(curvatures[10], [0.0, 1.0 / radius], atol=1e-10)
        assert support[10] == pytest.approx(-radius, abs=1e-10)

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
            curvatures, support = sample_fields(model)
            sup = max(abs(elem_sym(k, r) + h) for k, h in zip(curvatures, support))
            assert sup <= 1e-10, (model, r)

    def test_wrong_order_cylinder(self):
        # sigma_2 vanishes on a rank-1 cylinder, but the support does not
        curvatures, support = sample_fields(Cylinder(n=3, m=1, radius=1.0))
        assert elem_sym(curvatures[0], 2) + support[0] == pytest.approx(-1.0)

    def test_hyperplane(self):
        curvatures, support = sample_fields(Hyperplane(n=3))
        assert elem_sym(curvatures[0], 2) + support[0] == 0.0

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
    def test_ellipsoid_gauss_curvature_oracle(self):
        errs = []
        for m in (64, 128):
            model = Revolution(profile=ellipsoid_band_profile(1.0, 2.0, 0.75, m))
            curvatures = sample_fields(model)[0]
            product = curvatures[:, 0] * curvatures[:, 1]
            cut = slice(2, -2)
            expect = ellipsoid_gauss_curvature(1.0, 2.0, model.profile.z)
            errs.append(np.abs(product - expect)[cut].max())
        assert errs[1] <= errs[0] / 3.0    # second-order stencils
        assert errs[1] <= 1e-3

    def test_fields_are_the_distinct_rows_of_the_grid(self):
        # one closed-form row
        for model in (Hyperplane(n=3), Sphere(n=4, radius=0.7),
                      Cylinder(n=5, m=2, radius=1.3)):
            curvatures, support = sample_fields(model)
            assert curvatures.shape == (1, model.n) and support.shape == (1,)
            assert (curvatures[0] == exact_curvatures(model)).all()
            assert support[0] == exact_support(model)
        # one row per profile node
        model = Revolution(profile=ellipsoid_band_profile(1.0, 2.0, 0.75, 8))
        curvatures, support = sample_fields(model)
        g = revolution_geometry(model)
        assert curvatures.shape == (8, 2) and support.shape == (8,)
        assert (curvatures == np.stack([g.k_mer, g.k_par], axis=1)).all()
        assert (support == g.support).all()

    def test_closed_form_dimension_bound(self):
        n = catalog.MAX_DIMENSION
        assert (n + 1) * n * n <= catalog.MAX_SAMPLES < (n + 2) * (n + 1) ** 2
        assert exact_curvatures(Hyperplane(n=215)).shape == (215,)
        for model in (Hyperplane(n=216), Sphere(n=10 ** 300, radius=1.0),
                      Cylinder(n=216, m=2, radius=1.0)):
            with pytest.raises(DomainError, match=r"the family's \(n\+1\) n\^2 at n=.* "
                                                  r"exceeds 10000000: n must be at most 215$"):
                exact_curvatures(model)

    def test_a_revolution_has_no_constant_support(self):
        with pytest.raises(DomainError, match="^Revolution has no constant support value$"):
            exact_support(Revolution(profile=cylinder_profile(1.0, 2.0, 9)))

    def test_inward_convention_on_closed_models(self):
        for model in (Sphere(n=3, radius=0.7), Cylinder(n=4, m=2, radius=1.3)):
            curvatures, support = sample_fields(model)
            assert support.max() < 0.0
            assert curvatures.min() >= 0.0


class TestProfileValidation:
    def test_rejects_nonuniform_grid(self):
        z = np.array([0.0, 1.0, 2.5, 3.0, 4.0])
        with pytest.raises(DomainError):
            ProfileCurve(z=z, f=np.ones(5))

    @pytest.mark.parametrize("build", [
        lambda size: sphere_band_profile(2.0, 0.6, size),
        lambda size: cylinder_profile(1.0, 1.0, size),
        lambda size: ellipsoid_band_profile(1.0, 2.0, 0.75, size),
    ])
    def test_catalog_grids_pass_at_any_size(self, build):
        # np.linspace spacings stray by up to about 2 eps max|z|, which is
        # more than 1e-12 |dz| from about 5,400 nodes up
        for size in (5409, 6693, 6761, 10 ** 5):
            assert build(size).z.size == size

    @pytest.mark.parametrize("size", [101, 10 ** 5])
    def test_one_spacing_off_by_1e_9_is_refused(self, size):
        z = np.linspace(-1.0, 1.0, size)
        z[size // 2:] += 1e-9 * (z[1] - z[0])
        with pytest.raises(DomainError, match="uniform"):
            ProfileCurve(z=z, f=np.ones(size))

    @pytest.mark.parametrize("bad", non_numeric_vectors(9), ids=NON_NUMERIC_IDS)
    def test_non_numeric_input_is_a_domain_error(self, bad):
        z = np.linspace(0.0, 1.0, 9)
        assert_refused_as_non_numeric(ProfileCurve, bad, np.ones(9))
        assert_refused_as_non_numeric(ProfileCurve, z, bad)

    def test_keeps_read_only_copies_of_the_callers_arrays(self):
        z, f = np.linspace(0.0, 1.0, 9), np.full(9, 2.0)
        p = ProfileCurve(z=z, f=f)
        z[0], f[0], f[1] = -5.0, -1.0, math.nan
        assert p.z.tobytes() == np.linspace(0.0, 1.0, 9).tobytes()
        assert p.f.tobytes() == np.full(9, 2.0).tobytes()
        for values in (p.z, p.f):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0

    def test_rejects_f_off_the_grid(self):
        # the one length check of a record's f: builds do not repeat it
        z = np.linspace(0.0, 1.0, 9)
        for f in (np.full(8, 2.0), np.full((9, 1), 2.0)):
            with pytest.raises(DomainError, match="matching z/f"):
                ProfileCurve(z=z, f=f)

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
        lambda: ellipsoid_band_profile(math.inf, 1.0, 0.75, 16),
        lambda: ellipsoid_band_profile(1.0, 2.0, 0.75, -5),
        lambda: sphere_band_profile(math.inf, 0.5, 16),
        lambda: cylinder_profile(1.0, math.inf, 16),
        # sizes, dimensions and ranks are integers: no truncation, no raw TypeError
        lambda: Sphere(n=2.5, radius=1.0),
        lambda: Cylinder(n=3, m=2.0, radius=1.0),
        lambda: Hyperplane(n=True),
        lambda: Hyperplane(n=0),
        lambda: ellipsoid_band_profile(1.0, 2.0, 0.75, 8.7),
        lambda: sphere_band_profile(2.0, 0.5, 16.5),
        lambda: cylinder_profile(1.0, 2.0, 16.5),
        lambda: catalog.check_samples(8.5, 1, "resolution"),
        lambda: self_shrinkers(2.5),
        lambda: shrinker_radius(2.5, 1),
        lambda: sigma_p_cylinder(3, 2, 1.0),
    ])
    def test_rejects_non_finite_sizes_and_short_grids(self, build):
        with pytest.raises(DomainError):
            build()

    def test_numpy_integer_sizes_pass(self):
        two, three, eight = np.int64(2), np.int64(3), np.int64(8)
        assert Cylinder(n=three, m=two, radius=1.0).m == 2
        assert ellipsoid_band_profile(1.0, 2.0, 0.75, eight).z.size == 8
        assert shrinker_radius(two, np.int64(1)) == shrinker_radius(2, 1)
        assert sample_fields(Sphere(n=two, radius=1.0))[0].shape == (1, 2)

    def test_orientation_is_an_integer(self):
        prof = cylinder_profile(1.0, 2.0, 16)
        for orientation in (1.0, True, 0, 2):
            with pytest.raises(DomainError, match="orientation"):
                Revolution(profile=prof, orientation=orientation)
        assert Revolution(profile=prof, orientation=np.int64(-1)).orientation == -1

    def test_underflowed_spacing_is_refused_before_the_stencil(self):
        prof = catalog.cylinder_profile(1.0, 1e-170, 16)
        assert prof.h > 0.0 and prof.h * prof.h == 0.0
        with pytest.raises(NumericalError, match=r"h\^2"):
            revolution_geometry(Revolution(profile=prof))


def _reference_record_fields(z, f, h, boundary, orientation):
    """The one-shot record's fp, w, k_mer and k_par, from the per-mode
    stencils and the closed forms k_mer = o (-f'') / w^3, k_par = o / (f w),
    written out per orientation: no grid is bound."""
    fp, fpp = reference_deriv1(f, h, boundary), reference_deriv2(f, h, boundary)
    w = np.sqrt(fp * fp + 1.0)
    if orientation > 0:
        return fp, w, -fpp / w ** 3, 1.0 / (f * w)
    return fp, w, fpp / w ** 3, -1.0 / (f * w)


class TestPerGridBuilder:
    @pytest.mark.parametrize("boundary", ["neumann", "periodic"])
    @pytest.mark.parametrize("orientation", [1, -1])
    def test_builds_are_bit_equal_to_the_one_shot_record(self, rng, orientation, boundary):
        for _ in range(20):
            m = int(rng.randint(5, 200))
            z = np.linspace(-1.0, 1.0, m)
            h = float(z[1] - z[0])
            build = catalog._graph_builder(z, h, boundary, orientation)
            for _ in range(3):      # one bound grid, fresh profiles each time
                f = rng.uniform(0.5, 2.0) + 0.3 * rng.standard_normal(m)
                got = build(f)
                assert got.z is z and got.f is f
                assert got[2:5] == (h, boundary, orientation)
                reference = _reference_record_fields(z, f, h, boundary, orientation)
                for name, want in zip(("fp", "w", "k_mer", "k_par"), reference):
                    assert getattr(got, name).tobytes() == want.tobytes(), name

    def test_builds_do_not_alias(self):
        prof = sphere_band_profile(2.0, 0.6, 17)
        build = catalog._graph_builder(prof.z, prof.h, prof.boundary, 1)
        first, second = build(prof.f), build(prof.f.copy())
        fields = ("fp", "w", "k_mer", "k_par")
        for name in fields:
            for other in fields:
                assert not np.shares_memory(getattr(first, name), getattr(second, other))
                if other != name:
                    assert not np.shares_memory(getattr(first, name), getattr(first, other))
        with pytest.raises(ValueError, match="read-only"):
            second.k_mer[:] = 0.0

    def test_profile_out_of_float_range_still_raises(self):
        # w ~ 1e150, so w^3 overflows
        z = np.linspace(0.0, 1.0, 16)
        rev = Revolution(profile=ProfileCurve(z=z, f=1e150 * (1.0 + z)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="leaves the float range"):
                revolution_geometry(rev)

    def test_underflowed_spacing_is_refused_before_any_stencil(self, monkeypatch):
        made = []
        monkeypatch.setattr(catalog.fd, "_stencil", lambda *args: made.append(args))
        prof = catalog.cylinder_profile(1.0, 1e-170, 16)
        for build in (lambda: catalog._graph_builder(prof.z, prof.h, prof.boundary, 1),
                      lambda: revolution_geometry(Revolution(profile=prof))):
            with pytest.raises(NumericalError, match=r"h\^2"):
                build()
        assert made == []


class TestOneDoor:
    """revolution_geometry(model) is the one door from a model to its record,
    and a Revolution is the one model with a profile."""

    @pytest.mark.parametrize("m", [5, 8, 129])
    def test_the_ellipsoid_profile_is_the_band_formula(self, m):
        # a = 1, b = 2, band 0.75: the linspace grid and a sqrt(1 - (z/b)^2), bit for bit
        prof = ellipsoid_band_profile(1.0, 2.0, 0.75, m)
        z = np.linspace(-0.75 * 2.0, 0.75 * 2.0, m)
        assert prof.boundary == "neumann"
        assert prof.z.tobytes() == z.tobytes()
        assert prof.f.tobytes() == (1.0 * np.sqrt(1.0 - (z / 2.0) ** 2)).tobytes()

    @pytest.mark.parametrize("args, message", [
        ((-1.0, 2.0, 0.75, 3), "semi-axes must be positive and finite"),
        ((1.0, math.nan, 0.75, 3), "semi-axes must be positive and finite"),
        ((1.0, 2.0, 1.0, 3), "band fraction must lie in"),
        ((1.0, 2.0, 0.75, 3), "resolution must lie in 5.."),
        ((True, 2.0, 0.75, 8), "semi-axis a must be a real number"),
        ((1.0, 2.0, "0.5", 8), "band fraction must be a real number"),
    ])
    def test_the_ellipsoid_checks_its_shape_before_its_samples(self, args, message):
        with pytest.raises(DomainError, match=message):
            ellipsoid_band_profile(*args)

    def test_the_record_shares_the_profiles_grid(self):
        rev = Revolution(profile=sphere_band_profile(2.0, 0.6, 17))
        g = revolution_geometry(rev)
        assert g.z is rev.profile.z and g.f is rev.profile.f and g.h == rev.profile.h

    @pytest.mark.parametrize("model", [Sphere(n=2, radius=1.0), Hyperplane(n=2)])
    def test_a_model_with_no_profile_is_refused(self, model):
        with pytest.raises(DomainError, match="cannot discretize"):
            revolution_geometry(model)


class TestRevolutionRecord:
    """The record's closed forms against the general-n row kernels."""

    @pytest.mark.parametrize("boundary", ["neumann", "periodic"])
    @pytest.mark.parametrize("orientation", [1, -1])
    def test_closed_forms_match_the_row_kernels(self, rng, orientation, boundary):
        for _ in range(5):
            z = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
            phase, amp = rng.uniform(0.0, 2.0 * np.pi, 2), rng.uniform(0.05, 0.4, 2)
            f = (rng.uniform(0.5, 2.0) + amp[0] * np.sin(z + phase[0])
                 + amp[1] * np.cos(2.0 * z + phase[1]))
            g = revolution_geometry(Revolution(
                profile=ProfileCurve(z=z, f=f, boundary=boundary), orientation=orientation))
            rows = np.column_stack([g.k_mer, g.k_par])
            sig = elem_sym_all_rows(rows)
            for p in range(3):
                assert np.array_equal(g.sigma(p), sig[:, p]), p
            assert np.array_equal(g.sigma(3), np.zeros(z.size))
            for r in (1, 2):
                mer, par = g.p_eigenvalues(r)
                # sigma_{r-1} of the row with the meridional / parallel entry deleted
                assert np.array_equal(mer, elem_sym_all_rows(rows[:, 1:])[:, r - 1])
                assert np.array_equal(par, elem_sym_all_rows(rows[:, :1])[:, r - 1])
                # the deletion kernel gives (1, 1) and (k_par, k_mer) exactly
                ref = elem_sym_excluding_rows(rows, r - 1)
                assert np.array_equal(np.column_stack([mer, par]), ref)

    def test_tube_product_is_signed_zero(self):
        # k_mer * k_par is -0.0 on a tube where the row kernel gives 0.0;
        # np.array_equal counts the two as equal
        g = revolution_geometry(Revolution(profile=cylinder_profile(1.0, 2.0, 33)))
        kernel = elem_sym_all_rows(np.column_stack([g.k_mer, g.k_par]))[:, 2]
        assert np.signbit(g.sigma(2)).all() and not np.signbit(kernel).any()
        assert np.array_equal(g.sigma(2), kernel)

    @pytest.mark.parametrize("p, message", [
        (-1, "p must be nonnegative"), (True, "p must be an integer"),
        (2.0, "p must be an integer"), ("1", "p must be an integer"),
    ])
    def test_sigma_takes_a_nonnegative_integer(self, p, message):
        g = revolution_geometry(Revolution(profile=cylinder_profile(1.0, 2.0, 9)))
        with pytest.raises(DomainError, match=message):
            g.sigma(p)

    def test_sigma_past_two_is_zero(self):
        g = revolution_geometry(Revolution(profile=cylinder_profile(1.0, 2.0, 9)))
        for p in (3, np.int64(7)):
            assert g.sigma(p).tobytes() == np.zeros(9).tobytes()
        assert np.array_equal(g.sigma(np.uint8(2)), g.sigma(2))
