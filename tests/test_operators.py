import numpy as np
import pytest

from newton_flow import fd, flow, operators
from newton_flow.catalog import (
    Cylinder,
    ProfileCurve,
    Revolution,
    Sphere,
    cylinder_profile,
    ellipsoid_band_profile,
    revolution_geometry,
    shrinker_radius,
    sphere_band_profile,
)
from newton_flow.errors import DomainError, NotSelfShrinkerError, NumericalError
from newton_flow.gapcheck import evaluate
from newton_flow.operators import (
    drifted_apply,
    lr_apply,
    position_gradient_term,
    surface_gradient,
    verify_position_identity,
    verify_product_rule,
    verify_shrinker_pde,
    verify_support_identity,
)
from newton_flow.catalog import exact_curvatures, self_shrinkers
from newton_flow.symfun import elem_sym_all, elem_sym_all_rows, elem_sym_excluding
from conftest import (
    NON_NUMERIC_IDS,
    assert_refused_as_non_numeric,
    non_numeric_vectors,
    reference_deriv1,
)


def cylinder_rev(radius=1.0, half_width=2.0, samples=129) -> Revolution:
    return Revolution(profile=cylinder_profile(radius, half_width, samples))


def ellipsoid_rev(samples=129) -> Revolution:
    return Revolution(profile=ellipsoid_band_profile(1.0, 2.0, 0.75, samples))


class TestGradient:
    def test_constant_field(self):
        g = surface_gradient(revolution_geometry(cylinder_rev()), np.full(129, 3.0))
        np.testing.assert_allclose(g, 0.0, atol=1e-13)

    def test_axial_coordinate_on_cylinder(self):
        geo = revolution_geometry(cylinder_rev())
        g = surface_gradient(geo, geo.z)
        np.testing.assert_allclose(g, 1.0, atol=1e-12)

    def test_pythagorean_split_of_position(self):
        # |grad ||X||^2| = 2 ||X_tangent|| = 2 sqrt(||X||^2 - <X,N>^2)
        errs = []
        for m in (65, 129):
            geo = revolution_geometry(ellipsoid_rev(m))
            radius_sq = geo.f ** 2 + geo.z ** 2
            g = surface_gradient(geo, radius_sq)
            expect_sq = 4.0 * (radius_sq - geo.support ** 2)
            errs.append(np.abs(g * g - expect_sq)[geo.interior()].max())
        assert errs[1] <= errs[0] / 3.0

    def test_short_grid_rejected(self):
        with pytest.raises(DomainError):
            fd._stencil(4, 0.1, "neumann")


class TestLrApply:
    def test_constant_field_is_harmonic(self):
        out = lr_apply(revolution_geometry(cylinder_rev()), np.full(129, 2.5), 1)
        np.testing.assert_allclose(out, 0.0, atol=1e-13)

    def test_axial_coordinate_harmonic_on_cylinder(self):
        geo = revolution_geometry(cylinder_rev(radius=1.7))
        out = lr_apply(geo, geo.z, 1)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_position_norm_on_cylinder(self):
        # L_0 ||X||^2 = 2 on any tube: ||X||^2 = R^2 + z^2 and only the
        # flat direction contributes
        geo = revolution_geometry(cylinder_rev(radius=0.8))
        out = lr_apply(geo, geo.f ** 2 + geo.z ** 2, 1)
        np.testing.assert_allclose(out, 2.0, atol=1e-10)

    def test_linearity(self, rng):
        geo = revolution_geometry(ellipsoid_rev())
        fa, fb = np.sin(geo.z), np.exp(0.3 * geo.z)
        for r in (1, 2):
            left = lr_apply(geo, 2.0 * fa - 0.7 * fb, r)
            right = 2.0 * lr_apply(geo, fa, r) - 0.7 * lr_apply(geo, fb, r)
            scale = max(1.0, np.abs(right).max())
            assert np.abs(left - right).max() <= 1e-12 * scale

    def test_r1_matches_trace_form_laplacian(self):
        # flux form against the independent non-conservative discretization
        errs = []
        for m in (65, 129):
            geo = revolution_geometry(ellipsoid_rev(m))
            field = np.cos(geo.z)
            flux = lr_apply(geo, field, 1)
            df = reference_deriv1(field, geo.h, geo.boundary)
            fs = df / geo.w
            dfs = reference_deriv1(fs, geo.h, geo.boundary) / geo.w
            trace_form = dfs + (geo.fp / (geo.f * geo.w)) * fs
            errs.append(np.abs(flux - trace_form)[geo.interior()].max())
        assert errs[1] <= errs[0] / 3.0

    def test_r_out_of_range(self):
        geo = revolution_geometry(cylinder_rev())
        with pytest.raises(DomainError):
            lr_apply(geo, geo.z, 3)


class TestArrayInput:
    @pytest.mark.parametrize("bad", non_numeric_vectors(9), ids=NON_NUMERIC_IDS)
    def test_non_numeric_input_is_a_domain_error(self, bad):
        geo = revolution_geometry(cylinder_rev(samples=9))
        for fn, args in [(surface_gradient, (bad,)), (position_gradient_term, (bad,)),
                         (lr_apply, (bad, 1)), (drifted_apply, (bad, 2)),
                         (verify_product_rule, (bad, geo.z, 1)),
                         (verify_product_rule, (geo.z, bad, 1))]:
            assert_refused_as_non_numeric(fn, geo, *args)


class TestDrifted:
    def test_constant_field(self):
        out = drifted_apply(revolution_geometry(ellipsoid_rev()), np.full(129, 1.0), 1)
        np.testing.assert_allclose(out, 0.0, atol=1e-13)

    def test_drift_decomposition_exact(self):
        geo = revolution_geometry(ellipsoid_rev())
        field = np.sin(2.0 * geo.z)
        for r in (1, 2):
            total = drifted_apply(geo, field, r) + position_gradient_term(geo, field)
            np.testing.assert_allclose(total, lr_apply(geo, field, r), atol=1e-14)

    def test_sigma_field_on_model_shrinker(self):
        # sigma_1 is constant on the shrinking tube, so the drifted
        # operator annihilates it
        geo = revolution_geometry(cylinder_rev(radius=shrinker_radius(1, 1), samples=97))
        out = drifted_apply(geo, geo.k_mer + geo.k_par, 1)
        assert np.abs(out).max() <= 1e-10


class TestSupportIdentity:
    def test_cylinder_constant_case(self):
        rep = verify_support_identity(lambda m: cylinder_rev(1.3, 2.0, m), 1, [65])
        assert rep.residuals[0] <= 1e-8

    @pytest.mark.parametrize("r", [1, 2])
    def test_ellipsoid_refinement(self, r):
        rep = verify_support_identity(ellipsoid_rev, r, [64, 128])
        assert all(1.5 <= p <= 2.5 for p in rep.observed_orders)
        assert rep.residuals[-1] <= 2e-3


class TestPositionIdentity:
    def test_sphere_band_both_sides_vanish(self):
        # 2 sigma_0 + sigma_1 <X,N> = 2 - (2/R) R = 0 on a sphere
        radius = 1.5
        rev = Revolution(profile=sphere_band_profile(radius, 0.5, 129))
        rep = verify_position_identity(lambda m: rev, 1, [129])
        geo = revolution_geometry(rev)
        lhs = 0.5 * lr_apply(geo, geo.f ** 2 + geo.z ** 2, 1)
        assert np.abs(lhs[geo.interior()]).max() <= 1e-4
        assert rep.residuals[0] <= 1e-4

    def test_cylinder_value(self):
        # (1/2) L_0 ||X||^2 = 2 sigma_0 + sigma_1 <X,N> = 2 - 1 = 1 on a tube
        radius = 2.0
        rev = cylinder_rev(radius=radius)
        geo = revolution_geometry(rev)
        lhs = 0.5 * lr_apply(geo, geo.f ** 2 + geo.z ** 2, 1)
        np.testing.assert_allclose(lhs, 1.0, atol=1e-10)
        rep = verify_position_identity(lambda m: cylinder_rev(radius, 2.0, m), 1, [65])
        assert rep.residuals[0] <= 1e-10

    @pytest.mark.parametrize("r", [1, 2])
    def test_ellipsoid_refinement(self, r):
        rep = verify_position_identity(ellipsoid_rev, r, [64, 128])
        assert all(1.5 <= p <= 2.5 for p in rep.observed_orders)
        assert rep.residuals[-1] <= 5e-3


class TestProductRule:
    def test_constant_factor_exact(self):
        geo = revolution_geometry(ellipsoid_rev())
        for r in (1, 2):
            assert verify_product_rule(geo, np.full_like(geo.z, 4.0), np.sin(geo.z), r) <= 1e-12

    def test_squared_field_refinement(self):
        errs = []
        for m in (65, 129):
            geo = revolution_geometry(ellipsoid_rev(m))
            errs.append(verify_product_rule(geo, np.sin(geo.z), np.sin(geo.z), 1))
        assert errs[1] <= errs[0] / 3.0

    def test_trig_fields_refinement(self):
        errs = []
        for m in (65, 129):
            geo = revolution_geometry(ellipsoid_rev(m))
            z = geo.z
            errs.append(verify_product_rule(geo, np.sin(1.5 * z), np.cos(0.7 * z) + 0.2 * z, 2))
        assert errs[1] <= errs[0] / 2.8   # observed order >= 1.5

    def test_geometry_mismatch(self):
        # a 65-value array on a 129-node record, and a non-finite array, are
        # refused by every operator
        geo = revolution_geometry(cylinder_rev(samples=129))
        for bad, message in ((np.zeros(65), "field length does not match the grid"),
                             (np.full(129, np.nan), "field has non-finite values")):
            for call in (lambda: verify_product_rule(geo, bad, np.zeros(129), 1),
                         lambda: lr_apply(geo, bad, 1), lambda: drifted_apply(geo, bad, 1),
                         lambda: surface_gradient(geo, bad),
                         lambda: position_gradient_term(geo, bad)):
                with pytest.raises(DomainError, match=message):
                    call()


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
    return (g.f * g.fp + g.z) * reference_deriv1(values, g.h, g.boundary) / (g.w * g.w)


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
    grad_a, grad_b = (reference_deriv1(v, g.h, g.boundary) / g.w for v in (a, b))
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
        geo = revolution_geometry(rev)
        a, b = np.sin(1.5 * geo.z), np.cos(0.7 * geo.z) + 0.2 * geo.z
        assert np.array_equal(lr_apply(geo, a, r), _reference_lr(revolution_geometry(rev), a, r))
        assert (operators._support_identity_residual(geo, r)
                == _reference_support_residual(rev, r))
        assert (operators._position_identity_residual(geo, r)
                == _reference_position_residual(rev, r))
        assert verify_product_rule(geo, a, b, r) == _reference_product_residual(rev, a, b, r)

    def test_r_out_of_range_is_one_message(self):
        rev = cylinder_rev(samples=33)
        p = rev.profile
        state = revolution_geometry(rev)
        messages = set()
        for call in (lambda: flow._graph_kind(state, 3),
                     lambda: lr_apply(state, p.z.copy(), 3),
                     lambda: verify_support_identity(lambda m: rev, 3, [33])):
            with pytest.raises(DomainError) as info:
                call()
            messages.add(str(info.value))
        assert messages == {"revolution surfaces support r in {1, 2}, got r=3"}

    @pytest.mark.parametrize("r", [True, 1.0, np.float64(2.0), "1"])
    def test_r_that_is_not_an_integer_is_refused(self, r):
        rev = cylinder_rev(samples=33)
        geo = revolution_geometry(rev)
        with pytest.raises(DomainError, match="order r must be an integer"):
            lr_apply(geo, geo.z, r)
        with pytest.raises(DomainError, match="order r must be an integer"):
            verify_support_identity(lambda m: rev, r, [33])

    @pytest.mark.parametrize("r", [1, 2])
    def test_a_flow_state_is_the_same_record(self, r):
        # the operators read a radial graph's flow state as they read the
        # record of a Revolution with that profile, bit for bit
        config = flow.FlowConfig(r=r, model=ellipsoid_rev(65), t_end=0.01)
        state = flow.run(config).state.geometry
        rev = Revolution(profile=ProfileCurve(z=state.z, f=state.f, boundary=state.boundary),
                         orientation=state.orientation)
        geo = revolution_geometry(rev)
        values = np.sin(1.5 * state.z)
        assert np.array_equal(lr_apply(state, values, r), lr_apply(geo, values, r))
        assert np.array_equal(drifted_apply(state, values, r), drifted_apply(geo, values, r))


class TestExactIdentities:
    """A residual at rounding level is exact: it gives no order and passes."""

    def test_tube_identities_pass_with_no_order(self):
        # the unit tube, half-width 2, at each resolution
        def tube(m):
            return cylinder_rev(1.0, 2.0, m)

        rep = verify_position_identity(tube, 1, [9, 10])
        assert rep.residuals[0] == 0.0 < rep.residuals[1] <= operators.EXACT_TOL
        assert rep.observed_orders == () and rep.passes()
        rep = verify_support_identity(tube, 1, [17, 33, 65])
        assert rep.residuals == (0.0, 0.0, 0.0)
        assert rep.observed_orders == () and rep.passes()

    def test_only_pairs_above_rounding_give_orders(self):
        made = {17: 4e-3, 33: 1e-3, 65: 1e-16}
        rep = operators.refinement_report(
            lambda g, r: made[g.z.size], ellipsoid_rev,
            1, [17, 33])
        assert len(rep.observed_orders) == 1 and rep.passes()
        rep = operators.refinement_report(
            lambda g, r: made[g.z.size], ellipsoid_rev,
            1, [17, 33, 65])
        assert len(rep.observed_orders) == 1 and rep.passes()


    @pytest.mark.parametrize("made", [
        {65: 5e-5},                         # one resolution: no order
        {65: 1e-16, 129: 5e-5},             # the residual appears under refinement
        {17: 4e-3, 33: 1e-3, 65: 1e-16, 129: 5e-5},   # an order, not at the finest pair
    ])
    def test_a_residual_with_no_order_at_the_finest_grid_fails(self, made):
        rep = operators.refinement_report(
            lambda g, r: made[g.z.size], ellipsoid_rev,
            1, sorted(made))
        assert rep.residuals[-1] <= operators.FINEST_TOL
        assert not rep.passes()


class TestRefinementSpacing:
    def test_fixed_revolution_at_two_resolutions_is_refused(self):
        with pytest.raises(DomainError, match="repeat the grid spacing"):
            verify_position_identity(lambda m: ellipsoid_rev(65), 1, [64, 128])

    def test_repeated_resolution_is_refused(self):
        with pytest.raises(DomainError, match="repeat the grid spacing"):
            verify_position_identity(ellipsoid_rev, 2, [64, 64])

    def test_resolutions_are_integers_not_truncated(self):
        with pytest.raises(DomainError, match="resolution must be an integer, got 64.5"):
            verify_support_identity(ellipsoid_rev, 1, [64.5, 128])
        with pytest.raises(DomainError, match="at least one resolution"):
            verify_support_identity(ellipsoid_rev, 1, [])
        rep = verify_support_identity(ellipsoid_rev, 1, np.array([17, 33]))
        assert rep.resolutions == (17, 33) and {type(m) for m in rep.resolutions} == {int}


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

    def test_rejects_a_non_model(self):
        with pytest.raises(DomainError, match="^NoneType is not a catalog model$"):
            verify_shrinker_pde(None, 1)

    def test_a_model_with_no_constant_row_is_refused(self):
        with pytest.raises(DomainError, match="Revolution has no constant curvature data"):
            verify_shrinker_pde(ellipsoid_rev(), 1)

    def test_row_kernel_norm_is_bit_equal_to_the_excluding_route(self):
        # oracle: one elem_sym_excluding call per curvature, each term grouped
        # (e_j k_j) k_j as the gap reduction forms it, summed in index order
        for model, r in self_shrinkers(6):
            k = exact_curvatures(model)
            norm_sq = float(sum(elem_sym_excluding(k, j, r - 1) * k[j] * k[j]
                                for j in range(model.n)))
            sigma_r = float(elem_sym_all(k)[r])
            rep = verify_shrinker_pde(model, r)
            assert rep.residual_linear.hex() == abs((norm_sq - r) * sigma_r).hex()
            assert rep.residual_squared.hex() == abs(sigma_r ** 2 * (r - norm_sq)).hex()


class TestOneShrinkerVerdict:
    """verify_shrinker_pde raises exactly where gap's report reads NotShrinker."""

    @staticmethod
    def _models(scale):
        for n in range(1, 5):
            for r in range(1, n + 1):
                yield Sphere(n=n, radius=shrinker_radius(n, r) * scale), r
                for m in range(r, n):
                    yield Cylinder(n=n, m=m, radius=shrinker_radius(m, r) * scale), r

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 3e-9, 1e-8, 1e-7])
    def test_verify_and_gap_give_one_verdict(self, eps):
        verdicts = set()
        for model, r in self._models(1.0 + eps):
            not_shrinker = evaluate(model, r).classification.kind == "NotShrinker"
            verdicts.add(not_shrinker)
            if not_shrinker:
                with pytest.raises(NotSelfShrinkerError):
                    verify_shrinker_pde(model, r)
            else:
                verify_shrinker_pde(model, r)
        if eps in (0.0, 1e-7):     # every model on one side of the window
            assert verdicts == {eps > 0}

    def test_a_row_past_the_float_range_is_the_gap_error(self):
        model = Sphere(n=2, radius=1e-200)
        with pytest.raises(NumericalError, match=r"\|A\|\^3 of \|A\|=1e\+200 leaves"):
            evaluate(model, 2)
        with pytest.raises(NumericalError, match=r"\|A\|\^3 of \|A\|=1e\+200 leaves"):
            verify_shrinker_pde(model, 2)
