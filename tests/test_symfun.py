import math

import numpy as np
import pytest

from newton_flow import catalog, symfun
from newton_flow.errors import DomainError, NotPSDError, NumericalError
from newton_flow.symfun import (
    DefinitenessClass,
    cauchy_schwarz_bound,
    definiteness,
    elem_sym,
    elem_sym_all,
    elem_sym_all_rows,
    elem_sym_excluding,
    elem_sym_excluding_rows,
    modified_sff_norm_sq,
    newton_family,
    sqrt_psd,
    trace_identities,
)
from conftest import brute_sigma, brute_sigma_excluding, random_orthogonal, random_symmetric


class TestElemSym:
    def test_all_ones_gives_binomials(self):
        for n in range(1, 9):
            for r in range(0, n + 1):
                assert elem_sym(np.ones(n), r) == pytest.approx(math.comb(n, r))

    def test_hand_value(self):
        # 2*3 + 2*4 + 3*4 = 26
        assert elem_sym([2, 3, 4], 2) == pytest.approx(26.0)

    def test_cylinder_closed_form(self):
        # curvatures of the shrinking cylinder: closed form from the catalog
        for n in range(2, 9):
            for m in range(1, n):
                for r in range(1, m + 1):
                    k = np.zeros(n)
                    k[:m] = 1.0 / catalog.shrinker_radius(m, r)
                    for p in range(0, n + 1):
                        expect = catalog.sigma_p_cylinder(m, r, p)
                        got = elem_sym(k, p)
                        assert got == pytest.approx(expect, rel=1e-12, abs=1e-300)

    def test_conventions(self):
        assert elem_sym([1.0, 2.0], 0) == 1.0
        assert elem_sym([1.0, 2.0], 5) == 0.0
        assert elem_sym(np.array([]), 0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            elem_sym([1.0, np.nan], 1)
        with pytest.raises(DomainError):
            elem_sym([1.0], -1)

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            n = rng.randint(1, 13)
            k = rng.standard_normal(n) * rng.uniform(0.1, 3.0)
            for r in range(0, n + 1):
                expect = brute_sigma(k, r)
                assert elem_sym(k, r) == pytest.approx(
                    expect, rel=1e-12, abs=1e-12)

    def test_all_matches_scalar(self, rng):
        k = rng.standard_normal(7)
        sig = elem_sym_all(k)
        for r in range(0, 8):
            assert sig[r] == pytest.approx(elem_sym(k, r), rel=1e-13, abs=1e-300)


class TestElemSymExcluding:
    def test_symmetry_case(self):
        assert elem_sym_excluding([1, 1, 1], 0, 1) == pytest.approx(2.0)

    def test_hand_value(self):
        # remove the middle entry of (2,3,4): sigma_2 of (2,4) = 8
        assert elem_sym_excluding([2, 3, 4], 1, 2) == pytest.approx(8.0)

    def test_sphere_closed_form(self):
        for n in range(2, 8):
            for r in range(1, n + 1):
                radius = 1.7
                k = np.full(n, 1.0 / radius)
                expect = math.comb(n - 1, r - 1) / radius ** (r - 1)
                for i in range(n):
                    assert elem_sym_excluding(k, i, r - 1) == pytest.approx(expect)

    def test_index_out_of_range(self):
        with pytest.raises(DomainError):
            elem_sym_excluding([1.0, 2.0], 2, 1)

    def test_row_variant_matches_deletion(self, rng):
        # the deletion-identity fast path against explicit removal
        K = rng.standard_normal((40, 6))
        for r in range(0, 6):
            table = elem_sym_excluding_rows(K, r)
            for s in range(0, 40, 7):
                for j in range(6):
                    assert table[s, j] == pytest.approx(
                        brute_sigma_excluding(list(K[s]), j, r),
                        rel=1e-10, abs=1e-10)

    def test_rows_all(self, rng):
        K = rng.standard_normal((10, 5))
        sig = elem_sym_all_rows(K)
        for s in range(10):
            np.testing.assert_allclose(sig[s], elem_sym_all(K[s]), rtol=1e-13)


class TestNewtonFamily:
    def test_zero_operator(self):
        fam = newton_family(np.zeros((4, 4)))
        np.testing.assert_allclose(fam.P[0], np.eye(4))
        for r in range(1, 5):
            assert fam.sigmas[r] == 0.0
            np.testing.assert_allclose(fam.P[r], np.zeros((4, 4)))

    def test_hand_case(self):
        fam = newton_family(np.diag([1.0, 1.0, -1.0]))
        assert fam.sigmas[1] == pytest.approx(1.0)
        np.testing.assert_allclose(fam.P[1], np.diag([0.0, 0.0, 2.0]), atol=1e-14)

    def test_rejects_asymmetric(self):
        s = np.eye(3)
        s[0, 1] = 1e-3
        with pytest.raises(DomainError):
            newton_family(s)

    def test_recurrence_and_cayley_hamilton(self, rng):
        for _ in range(25):
            n = rng.randint(1, 7)
            a = random_symmetric(rng, n)
            fam = newton_family(a)
            scale = (1.0 + np.linalg.norm(a))
            np.testing.assert_allclose(fam.P[0], np.eye(n))
            for r in range(1, n + 1):
                rec = fam.sigmas[r] * np.eye(n) - fam.P[r - 1] @ a
                assert np.abs(fam.P[r] - rec).max() <= 1e-12 * scale ** r
                comm = fam.P[r] @ a - a @ fam.P[r]
                assert np.linalg.norm(comm) <= 1e-10 * scale ** (r + 1)
            assert np.linalg.norm(fam.P[n]) <= 1e-10 * scale ** n

    def test_eigenframe_eigenvalue_law(self, rng):
        # diagonal entries of P_{r-1} in the eigenframe are the deleted sigmas
        checked = 0
        while checked < 20:
            n = rng.randint(2, 7)
            a = random_symmetric(rng, n)
            k, v = np.linalg.eigh(a)
            if np.diff(k).min() < 1e-6:
                continue   # spec carves out clustered spectra
            fam = newton_family(a)
            for r in range(1, n + 1):
                conj = v.T @ fam.P[r - 1] @ v
                expect = np.array(
                    [elem_sym_excluding(k, i, r - 1) for i in range(n)])
                scale = max(1.0, np.abs(expect).max())
                np.testing.assert_allclose(np.diag(conj), expect, atol=1e-9 * scale)
                off = conj - np.diag(np.diag(conj))
                assert np.abs(off).max() <= 1e-9 * scale
            checked += 1


class TestSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(sqrt_psd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(
            sqrt_psd(np.diag([4.0, 9.0, 0.0])), np.diag([2.0, 3.0, 0.0]),
            atol=1e-14)

    def test_square_reproduces(self, rng):
        for _ in range(20):
            n = rng.randint(1, 7)
            b = rng.standard_normal((n, n))
            m = b @ b.T
            root = sqrt_psd(m)
            np.testing.assert_allclose(root, root.T, atol=1e-12)
            assert np.linalg.norm(root @ root - m) <= 1e-10 * np.linalg.norm(m)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            sqrt_psd(np.diag([1.0, -1.0]))


class TestModifiedNorm:
    def test_catalog_models_give_r(self):
        for n in range(1, 9):
            for m in range(1, n + 1):
                for r in range(1, m + 1):
                    k = np.zeros(n)
                    k[:m] = 1.0 / catalog.shrinker_radius(m, r)
                    val = modified_sff_norm_sq(np.diag(k), r)
                    assert val == pytest.approx(r, abs=1e-10)

    def test_zero(self):
        assert modified_sff_norm_sq(np.zeros((3, 3)), 2) == 0.0

    def test_sphere_closed_form(self):
        for n in range(1, 7):
            for r in range(1, n + 1):
                radius = 1.3
                k = np.full(n, 1.0 / radius)
                expect = r * math.comb(n, r) * radius ** (-(r + 1))
                assert modified_sff_norm_sq(np.diag(k), r) == pytest.approx(expect)

    def test_r_out_of_range(self):
        with pytest.raises(DomainError):
            modified_sff_norm_sq(np.eye(2), 3)


class TestTraceIdentities:
    def test_identity_matrix_case(self):
        # n=3, r=2: tr P_1 = 2 sigma_1 = 6 and tr(P_1 A) = 2 sigma_2 = 6
        fam = newton_family(np.eye(3))
        assert np.trace(fam.P[1]) == pytest.approx(6.0)
        assert np.trace(fam.P[1] @ np.eye(3)) == pytest.approx(6.0)
        res = trace_identities(np.eye(3), 2)
        assert res.worst <= 1e-14

    def test_zero(self):
        res = trace_identities(np.zeros((4, 4)), 2)
        assert res.worst == 0.0

    def test_random_property(self, rng):
        for _ in range(60):
            n = rng.randint(1, 7)
            a = random_symmetric(rng, n)
            for r in range(1, n + 1):
                assert trace_identities(a, r).worst <= 1e-10

    def test_sigmas_match_brute_force(self, rng):
        for _ in range(20):
            n = rng.randint(1, 7)
            a = random_symmetric(rng, n)
            fam = newton_family(a)
            k = np.linalg.eigvalsh(a)
            for r in range(0, n + 1):
                expect = brute_sigma(k, r)
                assert fam.sigmas[r] == pytest.approx(expect, rel=1e-11, abs=1e-11)


class TestDefiniteness:
    def test_classes(self):
        assert definiteness(np.eye(2)).kind is DefinitenessClass.POSITIVE_DEFINITE
        assert definiteness(np.diag([0.0, 1.0])).kind is DefinitenessClass.POSITIVE_SEMIDEFINITE
        assert definiteness(np.diag([-1.0, 1.0])).kind is DefinitenessClass.INDEFINITE
        assert definiteness(np.diag([0.0, -1.0])).kind is DefinitenessClass.NEGATIVE_SEMIDEFINITE
        assert definiteness(-np.eye(2)).kind is DefinitenessClass.NEGATIVE_DEFINITE

    def test_near_zero_counts_as_zero(self):
        d = definiteness(np.diag([1e-14, 1.0]), tol=1e-10)
        assert d.kind is DefinitenessClass.POSITIVE_SEMIDEFINITE
        d = definiteness(np.diag([-1e-14, 1.0]), tol=1e-10)
        assert d.kind is DefinitenessClass.POSITIVE_SEMIDEFINITE


class TestCauchySchwarz:
    def test_shrinker_sphere(self):
        for n in range(1, 7):
            for r in range(1, n + 1):
                delta = catalog.shrinker_radius(n, r)
                k = np.full(n, 1.0 / delta)
                lhs, rhs = cauchy_schwarz_bound(np.diag(k), r)
                expect_lhs = r * r * math.comb(n, r) ** (2.0 / (r + 1))
                assert lhs == pytest.approx(expect_lhs, rel=1e-12)
                assert lhs <= rhs + 1e-10

    def test_zero(self):
        assert cauchy_schwarz_bound(np.zeros((3, 3)), 2) == (0.0, 0.0)

    def test_positive_curvature_property(self, rng):
        for _ in range(40):
            n = rng.randint(1, 7)
            a = random_symmetric(rng, n, positive=True)
            for r in range(1, n + 1):
                lhs, rhs = cauchy_schwarz_bound(a, r)
                scale = (1.0 + np.linalg.norm(a)) ** (2 * r)
                assert lhs <= rhs + 1e-10 * scale

    def test_rejects_indefinite_weight(self):
        # k = (1, -1): P_1 = sigma_1 I - A = -A is indefinite
        with pytest.raises(NotPSDError):
            cauchy_schwarz_bound(np.diag([1.0, -1.0]), 2)


class TestFrameInvariance:
    def test_scalars_invariant_under_conjugation(self, rng):
        for _ in range(20):
            n = rng.randint(2, 7)
            a = random_symmetric(rng, n)
            q = random_orthogonal(rng, n)
            b = q @ a @ q.T
            b = 0.5 * (b + b.T)
            fam_a, fam_b = newton_family(a), newton_family(b)
            scale = (1.0 + np.linalg.norm(a)) ** (n + 1)
            np.testing.assert_allclose(
                fam_a.sigmas, fam_b.sigmas, atol=1e-10 * scale)
            for r in range(1, n + 1):
                va = modified_sff_norm_sq(a, r)
                vb = modified_sff_norm_sq(b, r)
                assert abs(va - vb) <= 1e-10 * scale


class TestOneRecurrence:
    """elem_sym and elem_sym_all read the row kernel's one-row case."""

    @staticmethod
    def reference_elem_sym(k, r):
        # the scalar prefix recurrence, kept here as the reference
        k = np.asarray(k, dtype=float)
        if r == 0:
            return 1.0
        if r > k.size:
            return 0.0
        e = np.zeros(r + 1)
        e[0] = 1.0
        for j, kj in enumerate(k, start=1):
            top = min(j, r)
            e[1:top + 1] += kj * e[0:top]
        return float(e[r])

    @staticmethod
    def reference_elem_sym_all(k):
        k = np.asarray(k, dtype=float)
        e = np.zeros(k.size + 1)
        e[0] = 1.0
        for j, kj in enumerate(k, start=1):
            e[1:j + 1] += kj * e[0:j]
        return e

    def test_bitwise_equal_to_the_scalar_loops(self, rng):
        for trial in range(900):
            n = trial % 9
            k = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            expect = self.reference_elem_sym_all(k)
            assert elem_sym_all(k).tobytes() == expect.tobytes()
            for r in range(n + 3):
                got = elem_sym(k, r)
                assert np.float64(got).tobytes() == np.float64(
                    self.reference_elem_sym(k, r)).tobytes(), (k, r)

    def test_rows_against_subset_enumeration(self, rng):
        for n in range(0, 7):
            K = rng.standard_normal((6, n))
            sig = elem_sym_all_rows(K)
            assert sig.shape == (6, n + 1)
            for s in range(6):
                for r in range(n + 1):
                    assert sig[s, r] == pytest.approx(
                        brute_sigma(K[s], r), rel=1e-12, abs=1e-12)

    def test_order_checked_before_the_family(self, monkeypatch):
        def unreachable(A):
            raise AssertionError("family built for an out-of-range order")

        monkeypatch.setattr(symfun, "_family", unreachable)
        for fn in (trace_identities, modified_sff_norm_sq, cauchy_schwarz_bound):
            with pytest.raises(DomainError, match=r"r=4 out of range 1\.\.3"):
                fn(np.eye(3), 4)

    def test_operator_validated_once(self, monkeypatch):
        calls = []
        original = symfun._as_shape_operator

        def counted(S):
            calls.append(1)
            return original(S)

        monkeypatch.setattr(symfun, "_as_shape_operator", counted)
        S = np.diag([1.0, 2.0, 3.0])
        for fn in (trace_identities, modified_sff_norm_sq):
            calls.clear()
            fn(S, 2)
            assert len(calls) == 1, fn.__name__
        calls.clear()
        cauchy_schwarz_bound(S, 2)     # S, then the PSD test of P_1
        assert len(calls) == 2

    def test_eigenvalues_computed_once(self, monkeypatch):
        calls = []
        original = np.linalg.eigvalsh

        def counted(A):
            calls.append(1)
            return original(A)

        monkeypatch.setattr(symfun.np.linalg, "eigvalsh", counted)
        modified_sff_norm_sq(np.diag([1.0, 2.0, 3.0]), 2)
        assert len(calls) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestOverflowGuards:
    def test_symmetrization_keeps_the_bits_of_sum_then_halve(self, rng):
        for _ in range(500):
            n = rng.randint(1, 9)
            a = random_symmetric(rng, n) * 10.0 ** rng.uniform(-3, 3)
            got = symfun._as_shape_operator(a)
            assert got.tobytes() == (0.5 * (a + a.T)).tobytes()

    def test_huge_finite_entries_stay_finite(self):
        a = np.diag([1e308, 1.0])
        assert symfun._as_shape_operator(a).tobytes() == a.tobytes()

    @pytest.mark.parametrize("k", [[1e308, 1.0], [1e160, 1.0], [1e155, 1e155]])
    def test_overflowed_family_is_a_numerical_error(self, k):
        with pytest.raises(NumericalError):
            newton_family(np.diag(k))
        with pytest.raises(NumericalError):
            modified_sff_norm_sq(np.diag(k), 1)

    def test_a_nan_route_fails_the_modified_norm_check(self, monkeypatch):
        monkeypatch.setattr(symfun, "elem_sym_excluding", lambda k, i, r: math.nan)
        with pytest.raises(NumericalError):
            modified_sff_norm_sq(np.diag([1.0, 2.0]), 1)
