import numpy as np
import pytest

from newton_flow import fd, operators
from newton_flow.catalog import (
    Cylinder,
    EllipsoidRev,
    ProfileCurve,
    Revolution,
    Sphere,
    cylinder_profile,
    radial_graph,
    revolution_geometry,
    shrinker_radius,
    sphere_band_profile,
)
from newton_flow.errors import DomainError, NotSelfShrinkerError
from newton_flow.flow import revolution_stage
from newton_flow.operators import (
    ScalarField,
    drifted_apply,
    lr_apply,
    position_gradient_term,
    surface_gradient,
    verify_position_identity,
    verify_product_rule,
    verify_shrinker_pde,
    verify_support_identity,
)
from newton_flow.catalog import self_shrinkers
from newton_flow.symfun import elem_sym_all_rows


def cylinder_rev(radius=1.0, half_width=2.0, samples=129) -> Revolution:
    return Revolution(profile=cylinder_profile(radius, half_width, samples))


def ellipsoid_rev(samples=129) -> Revolution:
    return EllipsoidRev(a=1.0, b=2.0).as_revolution(samples)


class TestGradient:
    def test_constant_field(self):
        rev = cylinder_rev()
        g = surface_gradient(ScalarField(values=np.full(129, 3.0), geometry=rev))
        np.testing.assert_allclose(g, 0.0, atol=1e-13)

    def test_axial_coordinate_on_cylinder(self):
        rev = cylinder_rev()
        g = surface_gradient(ScalarField(values=rev.profile.z.copy(), geometry=rev))
        np.testing.assert_allclose(g, 1.0, atol=1e-12)

    def test_pythagorean_split_of_position(self):
        # |grad ||X||^2| = 2 ||X_tangent|| = 2 sqrt(||X||^2 - <X,N>^2)
        errs = []
        for m in (65, 129):
            rev = ellipsoid_rev(m)
            geo = revolution_geometry(rev)
            radius_sq = geo.f ** 2 + geo.z ** 2
            g = surface_gradient(ScalarField(values=radius_sq, geometry=rev))
            expect_sq = 4.0 * (radius_sq - geo.support ** 2)
            errs.append(np.abs(g * g - expect_sq)[geo.interior()].max())
        assert errs[1] <= errs[0] / 3.0

    def test_short_grid_rejected(self):
        z = np.linspace(0.0, 1.0, 4)
        with pytest.raises(DomainError):
            fd.deriv1(np.ones(4), 0.1, "neumann")


class TestLrApply:
    def test_constant_field_is_harmonic(self):
        rev = cylinder_rev()
        out = lr_apply(ScalarField(values=np.full(129, 2.5), geometry=rev), 1)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-13)

    def test_axial_coordinate_harmonic_on_cylinder(self):
        rev = cylinder_rev(radius=1.7)
        out = lr_apply(ScalarField(values=rev.profile.z.copy(), geometry=rev), 1)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-12)

    def test_position_norm_on_cylinder(self):
        # L_0 ||X||^2 = 2 on any tube: ||X||^2 = R^2 + z^2 and only the
        # flat direction contributes
        rev = cylinder_rev(radius=0.8)
        geo = revolution_geometry(rev)
        out = lr_apply(ScalarField(values=geo.f ** 2 + geo.z ** 2, geometry=rev), 1)
        np.testing.assert_allclose(out.values, 2.0, atol=1e-10)

    def test_linearity(self, rng):
        rev = ellipsoid_rev()
        z = rev.profile.z
        fa = ScalarField(values=np.sin(z), geometry=rev)
        fb = ScalarField(values=np.exp(0.3 * z), geometry=rev)
        for r in (1, 2):
            left = lr_apply(
                ScalarField(values=2.0 * fa.values - 0.7 * fb.values, geometry=rev), r)
            right = 2.0 * lr_apply(fa, r).values - 0.7 * lr_apply(fb, r).values
            scale = max(1.0, np.abs(right).max())
            assert np.abs(left.values - right).max() <= 1e-12 * scale

    def test_r1_matches_trace_form_laplacian(self):
        # flux form against the independent non-conservative discretization
        errs = []
        for m in (65, 129):
            rev = ellipsoid_rev(m)
            geo = revolution_geometry(rev)
            z = rev.profile.z
            field = ScalarField(values=np.cos(z), geometry=rev)
            flux = lr_apply(field, 1).values
            df = fd.deriv1(field.values, geo.h, geo.boundary)
            fs = df / geo.w
            dfs = fd.deriv1(fs, geo.h, geo.boundary) / geo.w
            trace_form = dfs + (geo.fp / (geo.f * geo.w)) * fs
            errs.append(np.abs(flux - trace_form)[geo.interior()].max())
        assert errs[1] <= errs[0] / 3.0

    def test_r_out_of_range(self):
        rev = cylinder_rev()
        with pytest.raises(DomainError):
            lr_apply(ScalarField(values=rev.profile.z.copy(), geometry=rev), 3)


class TestDrifted:
    def test_constant_field(self):
        rev = ellipsoid_rev()
        out = drifted_apply(ScalarField(values=np.full(129, 1.0), geometry=rev), 1)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-13)

    def test_drift_decomposition_exact(self):
        rev = ellipsoid_rev()
        z = rev.profile.z
        field = ScalarField(values=np.sin(2.0 * z), geometry=rev)
        for r in (1, 2):
            total = drifted_apply(field, r).values + position_gradient_term(field)
            np.testing.assert_allclose(total, lr_apply(field, r).values, atol=1e-14)

    def test_sigma_field_on_model_shrinker(self):
        # sigma_1 is constant on the shrinking tube, so the drifted
        # operator annihilates it
        rev = cylinder_rev(radius=shrinker_radius(1, 1), samples=97)
        geo = revolution_geometry(rev)
        sigma1 = geo.k_mer + geo.k_par
        out = drifted_apply(ScalarField(values=sigma1, geometry=rev), 1)
        assert np.abs(out.values).max() <= 1e-10


class TestSupportIdentity:
    def test_cylinder_constant_case(self):
        rep = verify_support_identity(cylinder_rev(radius=1.3), 1, [65])
        assert rep.residuals[0] <= 1e-8

    @pytest.mark.parametrize("r", [1, 2])
    def test_ellipsoid_refinement(self, r):
        rep = verify_support_identity(EllipsoidRev(a=1.0, b=2.0), r, [64, 128])
        assert all(1.5 <= p <= 2.5 for p in rep.observed_orders)
        assert rep.residuals[-1] <= 2e-3


class TestPositionIdentity:
    def test_sphere_band_both_sides_vanish(self):
        # 2 sigma_0 + sigma_1 <X,N> = 2 - (2/R) R = 0 on a sphere
        radius = 1.5
        rev = Revolution(profile=sphere_band_profile(radius, 0.5, 129))
        rep = verify_position_identity(rev, 1, [129])
        geo = revolution_geometry(rev)
        field = ScalarField(values=geo.f ** 2 + geo.z ** 2, geometry=rev)
        lhs = 0.5 * lr_apply(field, 1).values
        assert np.abs(lhs[geo.interior()]).max() <= 1e-4
        assert rep.residuals[0] <= 1e-4

    def test_cylinder_value(self):
        # (1/2) L_0 ||X||^2 = 2 sigma_0 + sigma_1 <X,N> = 2 - 1 = 1 on a tube
        radius = 2.0
        rev = cylinder_rev(radius=radius)
        geo = revolution_geometry(rev)
        field = ScalarField(values=geo.f ** 2 + geo.z ** 2, geometry=rev)
        lhs = 0.5 * lr_apply(field, 1).values
        np.testing.assert_allclose(lhs, 1.0, atol=1e-10)
        rep = verify_position_identity(rev, 1, [65])
        assert rep.residuals[0] <= 1e-10

    @pytest.mark.parametrize("r", [1, 2])
    def test_ellipsoid_refinement(self, r):
        rep = verify_position_identity(EllipsoidRev(a=1.0, b=2.0), r, [64, 128])
        assert all(1.5 <= p <= 2.5 for p in rep.observed_orders)
        assert rep.residuals[-1] <= 5e-3


class TestProductRule:
    def test_constant_factor_exact(self):
        rev = ellipsoid_rev()
        z = rev.profile.z
        fa = ScalarField(values=np.full_like(z, 4.0), geometry=rev)
        fb = ScalarField(values=np.sin(z), geometry=rev)
        for r in (1, 2):
            assert verify_product_rule(fa, fb, r) <= 1e-12

    def test_squared_field_refinement(self):
        errs = []
        for m in (65, 129):
            rev = ellipsoid_rev(m)
            z = rev.profile.z
            fa = ScalarField(values=np.sin(z), geometry=rev)
            errs.append(verify_product_rule(fa, fa, 1))
        assert errs[1] <= errs[0] / 3.0

    def test_trig_fields_refinement(self):
        errs = []
        for m in (65, 129):
            rev = ellipsoid_rev(m)
            z = rev.profile.z
            fa = ScalarField(values=np.sin(1.5 * z), geometry=rev)
            fb = ScalarField(values=np.cos(0.7 * z) + 0.2 * z, geometry=rev)
            errs.append(verify_product_rule(fa, fb, 2))
        assert errs[1] <= errs[0] / 2.8   # observed order >= 1.5

    def test_geometry_mismatch(self):
        fa = ScalarField(values=np.zeros(65), geometry=cylinder_rev(samples=65))
        fb = ScalarField(values=np.zeros(129), geometry=cylinder_rev(samples=129))
        with pytest.raises(DomainError):
            verify_product_rule(fa, fb, 1)

    def test_boundary_mismatch(self):
        # equal nodes, other boundary mode: the fields' L_{r-1} differ
        rev = cylinder_rev(samples=65)
        periodic = Revolution(profile=ProfileCurve(z=rev.profile.z, f=rev.profile.f,
                                                   boundary="periodic"))
        fa = ScalarField(values=np.sin(rev.profile.z), geometry=rev)
        fb = ScalarField(values=np.cos(rev.profile.z), geometry=periodic)
        with pytest.raises(DomainError, match="different geometries"):
            verify_product_rule(fa, fb, 1)


# ---------------------------------------------------------------------------
# the identities read the catalog's curvature record: pinned against the
# pointwise forms the operators once kept themselves

def _reference_lambda_meridian(g, r):
    if r == 1:
        return np.ones_like(g.f)
    if r == 2:
        return g.k_par
    raise DomainError("revolution operators support r in {1, 2}")


def _reference_sigma_fields(g):
    sig = elem_sym_all_rows(np.column_stack([g.k_mer, g.k_par]))
    return np.vstack([sig.T, np.zeros(g.z.size)])


def _reference_lr(g, values, r):
    coef = g.f * _reference_lambda_meridian(g, r) / g.w
    return fd.flux_divergence(coef, values, g.h, g.boundary) / (g.f * g.w)


def _reference_drift(g, values):
    return (g.f * g.fp + g.z) * fd.deriv1(values, g.h, g.boundary) / (g.w * g.w)


def _reference_support_residual(rev, r):
    g = revolution_geometry(rev)
    sig, support = _reference_sigma_fields(g), g.support
    lhs = _reference_lr(g, support, r)
    rhs = (-r * sig[r] - (sig[1] * sig[r] - (r + 1) * sig[r + 1]) * support
           - _reference_drift(g, sig[r]))
    return float(np.abs(lhs - rhs)[g.interior()].max())


def _reference_position_residual(rev, r):
    g = revolution_geometry(rev)
    sig = _reference_sigma_fields(g)
    lhs = 0.5 * _reference_lr(g, g.f ** 2 + g.z ** 2, r)
    rhs = (2 - r + 1) * sig[r - 1] + r * sig[r] * g.support
    return float(np.abs(lhs - rhs)[g.interior()].max())


def _reference_product_residual(rev, a, b, r):
    g = revolution_geometry(rev)
    grad_a, grad_b = (fd.deriv1(v, g.h, g.boundary) / g.w for v in (a, b))
    lhs = _reference_lr(g, a * b, r)
    cross = 2.0 * _reference_lambda_meridian(g, r) * grad_a * grad_b
    rhs = a * _reference_lr(g, b, r) + b * _reference_lr(g, a, r) + cross
    return float(np.abs(lhs - rhs)[g.interior()].max())


_RECORD_GEOMETRIES = ([("ellipsoid", m) for m in (64, 128, 256)]
                      + [("tube", 97), ("tube", 129)])


def _record_geometry(kind, m):
    return ellipsoid_rev(m) if kind == "ellipsoid" else cylinder_rev(1.3, 2.0, m)


class TestSingleSourceRecord:
    @pytest.mark.parametrize("kind, m", _RECORD_GEOMETRIES)
    @pytest.mark.parametrize("r", [1, 2])
    def test_residuals_bitwise_equal_to_reference_forms(self, kind, m, r):
        rev = _record_geometry(kind, m)
        z = rev.profile.z
        a, b = np.sin(1.5 * z), np.cos(0.7 * z) + 0.2 * z
        assert np.array_equal(lr_apply(ScalarField(values=a, geometry=rev), r).values,
                              _reference_lr(revolution_geometry(rev), a, r))
        assert (operators._support_identity_residual(rev, r)
                == _reference_support_residual(rev, r))
        assert (operators._position_identity_residual(rev, r)
                == _reference_position_residual(rev, r))
        product = verify_product_rule(ScalarField(values=a, geometry=rev),
                                      ScalarField(values=b, geometry=rev), r)
        assert product == _reference_product_residual(rev, a, b, r)

    def test_r_out_of_range_is_one_message(self):
        rev = cylinder_rev(samples=33)
        p = rev.profile
        state = radial_graph(p.z.copy(), p.f.copy(), p.h, p.boundary, 1)
        messages = set()
        for call in (lambda: revolution_stage(state, 3),
                     lambda: lr_apply(ScalarField(values=p.z.copy(), geometry=rev), 3),
                     lambda: verify_support_identity(rev, 3, [33])):
            with pytest.raises(DomainError) as info:
                call()
            messages.add(str(info.value))
        assert messages == {"revolution surfaces support r in {1, 2}, got r=3"}


class TestExactIdentities:
    """A residual at rounding level is exact: it gives no order and passes."""

    def test_tube_identities_pass_with_no_order(self):
        rep = verify_position_identity(Cylinder(n=2, m=1, radius=1.0), 1, [9, 10])
        assert rep.residuals[0] == 0.0 < rep.residuals[1] <= operators.EXACT_TOL
        assert rep.observed_orders == () and rep.passes()
        rep = verify_support_identity(Cylinder(2, 1, 1.0), 1, [17, 33, 65])
        assert rep.residuals == (0.0, 0.0, 0.0)
        assert rep.observed_orders == () and rep.passes()

    def test_only_pairs_above_rounding_give_orders(self):
        made = {17: 4e-3, 33: 1e-3, 65: 1e-16}
        rep = operators.refinement_report(
            "made", lambda rev, r: made[rev.profile.size], EllipsoidRev(a=1.0, b=2.0),
            1, [17, 33])
        assert len(rep.observed_orders) == 1 and rep.passes()
        rep = operators.refinement_report(
            "made", lambda rev, r: made[rev.profile.size], EllipsoidRev(a=1.0, b=2.0),
            1, [17, 33, 65])
        assert len(rep.observed_orders) == 1 and rep.passes()


class TestRefinementSpacing:
    def test_fixed_revolution_at_two_resolutions_is_refused(self):
        with pytest.raises(DomainError, match="repeat the grid spacing"):
            verify_position_identity(EllipsoidRev(a=1.0, b=2.0).as_revolution(65),
                                     1, [64, 128])

    def test_repeated_resolution_is_refused(self):
        with pytest.raises(DomainError, match="repeat the grid spacing"):
            verify_position_identity(EllipsoidRev(a=1.0, b=2.0), 2, [64, 64])


class TestShrinkerPde:
    def test_catalog_residuals_tiny(self):
        for model, r in self_shrinkers(6):
            rep = verify_shrinker_pde(model, r)
            assert rep.worst <= 1e-10, (model, r)

    def test_sphere_exact_norm(self):
        rep = verify_shrinker_pde(Sphere(n=3, radius=shrinker_radius(3, 2)), 2)
        assert rep.worst <= 1e-12

    def test_hyperplane_trivial(self):
        from newton_flow.catalog import Hyperplane
        rep = verify_shrinker_pde(Hyperplane(n=4), 2)
        assert rep.worst == 0.0

    def test_non_shrinker_rejected(self):
        with pytest.raises(NotSelfShrinkerError):
            verify_shrinker_pde(Sphere(n=2, radius=5.0), 1)
