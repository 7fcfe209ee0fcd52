import itertools
import math
import warnings
from fractions import Fraction

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
from conftest import (
    NON_NUMERIC_IDS,
    NON_NUMERIC_MATRICES,
    assert_refused_as_non_numeric,
    brute_sigma,
    brute_sigma_excluding,
    count_eigensolves,
    non_numeric_vectors,
    random_orthogonal,
    random_symmetric,
)


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

    def test_rows_match_exact_rationals_at_every_spread(self, rng):
        # same-sign entries spanning up to 1e16 against exact subset sums:
        # the kernel adds products of one sign only, so its relative error
        # stays a small multiple of n eps
        eps = np.finfo(float).eps
        for trial in range(120):
            n = trial % 5 + 2
            K = (-1.0) ** trial * 10.0 ** rng.uniform(-8.0, 8.0, (2, n))
            for r in range(n):
                got = elem_sym_excluding_rows(K, r)
                for s, j in itertools.product(range(2), range(n)):
                    rest = [Fraction(x) for x in np.delete(K[s], j)]
                    exact = sum(math.prod(c) for c in itertools.combinations(rest, r))
                    assert abs(Fraction(got[s, j]) - exact) <= 2 * n * eps * abs(exact)

    def test_one_read_only_column_index_per_n(self, rng):
        # the table is bit-equal to the recurrence on the np.delete rows
        for n in range(1, 8):
            keep = symfun._excluding_columns(n)
            assert keep is symfun._excluding_columns(n) and not keep.flags.writeable
            K = rng.standard_normal((3, n))
            rows = np.array([np.delete(row, j) for row in K for j in range(n)])
            assert (symfun._sigma_tables(K, n - 1)[1].tobytes()
                    == elem_sym_all_rows(rows.reshape(3 * n, n - 1), n - 1).tobytes())

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
            assert (fam.P[n] == 0.0).all()

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


class TestWideCurvatureSpread:
    """k = (1e8, 1e-4, 1) at r = 3: P_2 has the eigenvalues (1e-4, 1e8, 1e4),
    which a subtractive deletion recurrence turned into an indefinite P_2."""

    K = np.diag([1e8, 1e-4, 1.0])

    def test_modified_norm_is_sigma_1_sigma_3(self):
        assert modified_sff_norm_sq(self.K, 3) == 1000000010001.0

    def test_cauchy_schwarz_bound_holds(self):
        lhs, rhs = cauchy_schwarz_bound(self.K, 3)
        assert 0.0 < lhs <= rhs


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

    def test_scale_is_the_degree_checks_norm(self):
        # (1 + _norm(A))^(r+1), the Frobenius norm of the validated operator;
        # np.linalg.norm rounds it differently on about a fifth of operators
        gen = np.random.default_rng(34)
        moved = 0
        for _ in range(100):
            n = int(gen.integers(2, 7))
            b = gen.standard_normal((n, n))
            a = b + b.T
            fam = newton_family(a)
            sig = fam.sigmas
            for r in range(1, n + 1):
                P = fam.P[r - 1]
                sig_rp1 = sig[r + 1] if r + 1 <= n else 0.0
                gaps = (abs(np.trace(P) - (n - r + 1) * sig[r - 1]),
                        abs(np.trace(P @ a) - r * sig[r]),
                        abs(np.trace(P @ a @ a) - (sig[1] * sig[r] - (r + 1) * sig_rp1)))
                scale = (1.0 + symfun._norm(a)) ** (r + 1)
                expect = tuple(gap / scale for gap in gaps)
                res = trace_identities(a, r)
                assert (res.trace_p, res.trace_pa, res.trace_pa2) == expect
                other = (1.0 + float(np.linalg.norm(a))) ** (r + 1)
                moved += tuple(gap / other for gap in gaps) != expect
        assert moved > 0     # the operators tell the two norms apart

    def test_no_norm_pass_of_their_own(self, monkeypatch):
        # both read the norm that the operator's validation stored
        a = np.array([[1.0, 0.5, 0.0], [0.5, -2.0, 0.25], [0.0, 0.25, 3.0]])

        def refuse(*args, **kwargs):
            raise AssertionError("a fresh norm pass")
        monkeypatch.setattr(np.linalg, "norm", refuse)
        for r in (1, 2, 3):
            assert modified_sff_norm_sq(a, r) == pytest.approx(
                float(np.trace(newton_family(a).P[r - 1] @ a @ a)))
            assert trace_identities(a, r).worst <= 1e-14

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
        d = definiteness(np.diag([1e-14, 1.0]))
        assert d.kind is DefinitenessClass.POSITIVE_SEMIDEFINITE
        d = definiteness(np.diag([-1e-14, 1.0]))
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

    def test_gate_agrees_with_the_definiteness_oracle(self, rng):
        # the gate reads the deletion table; definiteness eigensolves P_{r-1}
        refused = passed = 0
        for trial in range(1000):
            n = trial % 6 + 1
            a = random_symmetric(rng, n, positive=trial % 2 == 0)
            fam = newton_family(a)
            for r in range(1, n + 1):
                oracle = definiteness(fam.P[r - 1])
                if oracle.is_psd:
                    cauchy_schwarz_bound(a, r)
                    passed += 1
                else:
                    with pytest.raises(NotPSDError, match=f"P_{r - 1} is {oracle.kind.value};"):
                        cauchy_schwarz_bound(a, r)
                    refused += 1
        assert refused > 500 and passed > 500

    def test_rejects_indefinite_weight(self):
        # k = (1, -1): P_1 = sigma_1 I - A = -A is indefinite
        with pytest.raises(NotPSDError):
            cauchy_schwarz_bound(np.diag([1.0, -1.0]), 2)

    def test_refuses_sides_out_of_float_range(self):
        # both sides are degree 2r = 4 in A: (1e100)^4 overflows, although
        # the order-2 identities (degree 3) stay finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="leaves the float range"):
                cauchy_schwarz_bound(np.diag([1e100, 1e100]), 2)
            lhs, rhs = cauchy_schwarz_bound(np.diag([1e50, 1e50]), 2)
        assert lhs == rhs == pytest.approx(4e200, rel=1e-12)


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
        def unreachable(op):
            raise AssertionError("family built for an out-of-range order")

        monkeypatch.setattr(symfun._Operator, "family", property(unreachable))
        for fn in (trace_identities, modified_sff_norm_sq, cauchy_schwarz_bound):
            with pytest.raises(DomainError, match=r"r=4 out of range 1\.\.3"):
                fn(np.eye(3), 4)
        # with the family built too, the order is checked on every call
        monkeypatch.undo()
        newton_family(np.eye(3))
        op = symfun._operator(np.eye(3))
        for fn in (trace_identities, modified_sff_norm_sq, cauchy_schwarz_bound):
            with pytest.raises(DomainError, match=r"r=4 out of range 1\.\.3"):
                fn(np.eye(3), 4)
            with pytest.raises(DomainError, match="must be an integer"):
                fn(np.eye(3), 1.5)
        assert symfun._operator(np.eye(3)) is op and op._traces == {}

    def test_operator_validated_once(self, monkeypatch):
        calls = []
        original = symfun._as_shape_operator

        def counted(S):
            calls.append(1)
            return original(S)

        monkeypatch.setattr(symfun, "_as_shape_operator", counted)
        S = np.diag([1.0, 2.0, 3.0])
        # a miss validates once; later calls on the same bytes hit the cache
        for fn in (trace_identities, modified_sff_norm_sq, cauchy_schwarz_bound):
            symfun._operator_of.cache_clear()
            calls.clear()
            for r in (1, 2, 3, 2):
                fn(S, r)
            assert len(calls) == 1, fn.__name__

    def test_eigenvalues_computed_once(self, monkeypatch):
        solves = count_eigensolves(monkeypatch)
        modified_sff_norm_sq(np.diag([1.0, 2.0, 3.0]), 2)
        assert solves == [(3, 3)]

    def test_the_rows_result_is_the_callers_own_transposed_table(self, rng):
        # the kernel works on an (n+1, S) array and hands out its transpose:
        # Fortran-ordered, writable, with the bits of the one-row results
        K = rng.standard_normal((7, 4))
        out = elem_sym_all_rows(K)
        assert out.shape == (7, 5) and out.flags.f_contiguous and out.flags.writeable
        assert not np.shares_memory(out, K)
        assert out.tobytes() == np.array([elem_sym_all(row) for row in K]).tobytes()

    def test_one_pass_tables_have_the_bits_of_two_kernel_calls(self, rng):
        # the rows stacked over their deleted rows, each padded with a 0.0:
        # the bits of one call on the rows and one on the np.delete rows, at
        # every top; the deleted rows' order n, past their length, is +0.0
        pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.5])
        for trial in range(1200):
            n, S = trial % 8 + 1, rng.randint(1, 5)
            K = rng.standard_normal((S, n)) * 10.0 ** rng.uniform(-3, 3)
            if trial % 4:       # zeros of either sign and repeated values
                mask = rng.rand(S, n) < 0.6
                K[mask] = rng.choice(pool, mask.sum())
            deleted = np.array([np.delete(row, j) for row in K for j in range(n)])
            deleted = deleted.reshape(S * n, n - 1)
            for top in range(n + 1):
                sig, table = symfun._sigma_tables(K, top)
                assert sig.tobytes() == elem_sym_all_rows(K, top).tobytes()
                old = elem_sym_all_rows(deleted, top)
                kept = old.shape[1]
                assert table[:, :kept].tobytes() == old.tobytes(), (trial, top)
                past = np.zeros((S * n, top + 1 - kept))
                assert table[:, kept:].tobytes() == past.tobytes()

    def test_the_deletion_kernel_keeps_an_overflowed_order(self):
        # unpadded: a pad's 0.0 times an order that overflowed would be NaN
        with np.errstate(over="ignore"):
            got = elem_sym_excluding_rows([[1e308, 1e308, 2.0]], 2)
        assert got.tolist() == [[math.inf, math.inf, math.inf]]

    def test_truncated_sigma_table_keeps_the_bits(self, rng):
        K = rng.standard_normal((50, 6)) * 10.0
        full = elem_sym_all_rows(K)
        for top in range(0, 8):
            part = elem_sym_all_rows(K, top)
            assert part.shape == (50, min(top, 6) + 1)
            assert part.tobytes() == np.ascontiguousarray(full[:, :top + 1]).tobytes()


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

    def test_a_dimension_past_the_float_range_is_a_numerical_error(self, monkeypatch):
        # n 2^n alone leaves the float range from n = 1015 on: refused before any eigensolve
        solves = count_eigensolves(monkeypatch)
        s = np.eye(1100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="leaves the float range"):
                newton_family(s)
            for fn in (trace_identities, modified_sff_norm_sq, cauchy_schwarz_bound):
                with pytest.raises(NumericalError, match="leaves the float range"):
                    fn(s, 1)
        # the cached operator holds A and its norm, and no part of a failed build
        assert solves == [] and set(vars(symfun._operator(s))) == {"A", "norm", "_traces"}

    def test_the_float_range_error_names_the_factor_that_overflows(self):
        # n 2^n alone leaves the float range from n = 1015 on: the error names n
        order_entry_points = (trace_identities, modified_sff_norm_sq, cauchy_schwarz_bound)
        assert math.log(1014) + 1014 * math.log(2) < math.log(np.finfo(float).max)
        assert math.log(1015) + 1015 * math.log(2) > math.log(np.finfo(float).max)
        with pytest.raises(NumericalError) as info:
            newton_family(np.eye(1015))
        assert str(info.value) == "n 2^n of n=1015 leaves the float range"
        for fn in order_entry_points:
            with pytest.raises(NumericalError) as info:
                fn(np.eye(1015), 1)
            assert str(info.value) == "n 2^n of n=1015 leaves the float range"
        # below it, (1 + |A|)^p tips the bound over and |A| is named, as before
        norm = f"{math.sqrt(1014):.6g}"
        with pytest.raises(NumericalError) as info:
            newton_family(np.eye(1014))
        assert str(info.value) == f"|A|^1014 of |A|={norm} leaves the float range"
        for fn in order_entry_points:   # the order-1 identities reach degree 2
            with pytest.raises(NumericalError) as info:
                fn(np.eye(1014), 1)
            assert str(info.value) == f"|A|^2 of |A|={norm} leaves the float range"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_entry_is_refused_after_its_norm(self, bad):
        # the norm is formed first, NaN or inf with the entry, and only then
        # are the entries scanned; a NaN beside an inf gives an inf norm
        for a in (np.diag([1.0, bad]), [[1.0, bad], [bad, 1.0]],
                  [[1.0, bad], [5.0, 1.0]], [[math.inf, math.nan], [math.nan, bad]]):
            assert not math.isfinite(symfun._norm(np.asarray(a)))
            with pytest.raises(DomainError, match="shape operator has non-finite entries"):
                symfun._as_shape_operator(a)
            with pytest.raises(DomainError, match="square matrix"):
                symfun._as_shape_operator(np.asarray(a)[:1])

    def test_a_finite_operator_whose_norm_overflows_is_measured_in_units(self):
        # every entry finite, the Frobenius norm inf: the check runs in units of max|A|
        a = np.array([[1.5e308, 1e308], [1e308, -1.5e308]])
        assert symfun._norm(a) == math.inf
        assert symfun._as_shape_operator(a).tobytes() == (0.5 * a + 0.5 * a.T).tobytes()
        skew = a.copy()
        skew[1, 0] = -1e308
        with pytest.raises(DomainError, match="not symmetric"):
            symfun._as_shape_operator(skew)
        near = a.copy()
        near[1, 0] *= 1.0 + 1e-14          # 1e-14 max|A| apart: within the tolerance
        assert symfun._as_shape_operator(near).tobytes() == (
            0.5 * near + 0.5 * near.T).tobytes()

    @pytest.mark.parametrize("big", [1e100, 1e160, 1e200, 1e308])
    def test_huge_antisymmetric_part_is_rejected(self, big):
        # the Frobenius norm overflows above ~1.3e154, and with it the tolerance
        with pytest.raises(DomainError, match="not symmetric"):
            newton_family([[1.0, big], [-big, 1.0]])

    def test_huge_symmetric_operator_passes_the_symmetry_check(self):
        a = np.array([[1e200, 3e199], [3e199, -1e200]])
        assert symfun._as_shape_operator(a).tobytes() == a.tobytes()

    def test_symmetry_threshold_unchanged_for_ordinary_operators(self, rng):
        # asymmetry just below / above SYM_TOL * max(1, ||A||) on either side of 1
        for _ in range(200):
            n = rng.randint(2, 7)
            a = random_symmetric(rng, n) * 10.0 ** rng.uniform(-3, 3)
            skew = np.zeros((n, n))
            skew[0, 1] = 1.0
            limit = symfun.SYM_TOL * max(1.0, float(np.linalg.norm(a)))
            symfun._as_shape_operator(a + 0.9 * limit * skew)
            with pytest.raises(DomainError):
                symfun._as_shape_operator(a + 1.1 * limit * skew)

    def test_an_order_forms_its_traces_only_past_its_degree_check(self):
        # |A| = 1.35e150: order 1 reaches |A|^2 ~ 1.8e300, within the float
        # range; order 2's P_1 A^2 would overflow, and its degree check
        # refuses before any of its traces is formed
        q = np.array([[0.6, 0.8], [-0.8, 0.6]])
        a = (q * [1e150, -0.9e150]) @ q.T
        order_entry_points = [trace_identities, modified_sff_norm_sq, cauchy_schwarz_bound]
        for first in range(3):
            symfun._operator_of.cache_clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for fn in order_entry_points[first:] + order_entry_points[:first]:
                    got = fn(a, 1)
                    if fn is trace_identities:
                        assert [x.hex() for x in (got.trace_p, got.trace_pa, got.trace_pa2)] == [
                            "0x0.0p+0", "0x1.1c282fc194621p-552", "0x1.7ae03facc5d82p-53"]
                    elif fn is modified_sff_norm_sq:
                        assert got.hex() == "0x1.59f31a9296033p+997"
                    else:
                        assert [x.hex() for x in got] == [
                            "0x1.e94c85c298c6ep+989", "0x1.59f31a9296033p+998"]
                for fn in order_entry_points:
                    with pytest.raises(NumericalError) as info:
                        fn(a, 2)
                    assert str(info.value) == (
                        "|A|^3 of |A|=1.34536e+150 leaves the float range")
            assert list(symfun._operator(a)._traces) == [1]

    def test_a_nan_route_fails_the_modified_norm_check(self, monkeypatch):
        # order 0 of the deletion table feeds route (b) at r = 1 and no P_r
        kernel = symfun._sigma_tables

        def nan_order_0(K, top):
            sig, table = kernel(K, top)
            table[:, 0] = math.nan
            return sig, table

        monkeypatch.setattr(symfun, "_sigma_tables", nan_order_0)
        with pytest.raises(NumericalError, match="modified norm routes disagree"):
            modified_sff_norm_sq(np.diag([1.0, 2.0]), 1)


def _operator_outputs(a, fresh: bool = False) -> list:
    """The bytes of every result on a, in the order the algebra workload
    asks for them: the family, definiteness and root, then each r in turn.
    fresh empties the cache before every call, so each validates and builds
    afresh."""
    def call(fn, *args):
        if fresh:
            symfun._operator_of.cache_clear()
        return fn(*args)

    fam = call(newton_family, a)
    out = [fam.sigmas.tobytes(), *(p.tobytes() for p in fam.P)]
    d = call(definiteness, a)
    out.append(repr(d))
    if d.is_psd:
        out.append(call(sqrt_psd, a).tobytes())
    for r in range(1, a.shape[0] + 1):
        t = call(trace_identities, a, r)
        out.append(np.array([t.trace_p, t.trace_pa, t.trace_pa2]).tobytes())
        out.append(np.float64(call(modified_sff_norm_sq, a, r)).tobytes())
        try:
            out.append(np.array(call(cauchy_schwarz_bound, a, r)).tobytes())
        except NotPSDError as exc:
            out.append(str(exc))
    return out


# every public entry point that takes an operator, with the arguments after it
OPERATOR_ENTRY_POINTS = [
    (newton_family, ()), (definiteness, ()), (sqrt_psd, ()),
    (trace_identities, (1,)), (modified_sff_norm_sq, (1,)), (cauchy_schwarz_bound, (1,)),
]
CURVATURE_ENTRY_POINTS = [(elem_sym, (1,)), (elem_sym_all, ()), (elem_sym_excluding, (0, 1))]
ROW_ENTRY_POINTS = [(elem_sym_all_rows, ()), (elem_sym_excluding_rows, (1,))]


def _names(entry_points) -> list:
    return [fn.__name__ for fn, _ in entry_points]


class TestOperatorCache:
    @staticmethod
    def counted(monkeypatch, name: str) -> list:
        """Record the shape of the first argument of every call of symfun's ``name``."""
        calls = []
        original = getattr(symfun, name)

        def counted(A, *args):
            calls.append(np.shape(A))
            return original(A, *args)

        monkeypatch.setattr(symfun, name, counted)
        return calls

    def test_hits_are_bit_equal_to_fresh_builds(self, rng, monkeypatch):
        builds = self.counted(monkeypatch, "_cross_check")
        for trial in range(1000):
            n = trial % 8 + 1
            a = random_symmetric(rng, n, positive=(trial // 8) % 2 == 0)
            symfun._operator_of.cache_clear()
            builds.clear()
            memo = _operator_outputs(a)
            assert builds == [(n, n)]       # one build, then every call hits
            assert memo == _operator_outputs(a, fresh=True), trial

    def test_one_eigensolve_for_the_family_of_a_job(self, rng, monkeypatch):
        validations = self.counted(monkeypatch, "_as_shape_operator")
        builds = self.counted(monkeypatch, "_cross_check")
        solves = count_eigensolves(monkeypatch)
        for n in range(1, 7):
            a = random_symmetric(rng, n, positive=True)
            validations.clear()
            builds.clear()
            solves.clear()
            # the calls of the algebra benchmark's job on one operator
            fam = newton_family(a)
            op = symfun._operator(a)
            assert definiteness(a).is_psd
            sqrt_psd(a)
            assert op._traces == {}     # the family, definiteness and root form none
            formed = {}
            for r in range(1, n + 1):
                trace_identities(a, r)
                formed[r] = op._traces[r]
                modified_sff_norm_sq(a, r)
                definiteness(fam.P[r - 1])
                cauchy_schwarz_bound(a, r)
                # order r's traces: formed once, shared by its three entry points
                assert symfun._operator(a) is op
                assert all(op._traces[q] is formed[q] for q in formed)
                assert list(op._traces) == list(formed)
            assert builds == [(n, n)]
            # a once, then each P_{r-1}, which does not evict a
            assert validations == [(n, n)] * (1 + n)
            # a's one eigenframe and one for each P_{r-1}: definiteness(a) and
            # sqrt_psd(a) read a's, cauchy_schwarz_bound its deletion table
            assert len(solves) == 1 + n

    def test_hits_give_the_bytes_of_a_fresh_eigensolve_and_trace(self, rng, monkeypatch):
        # the oracle: a fresh eigh of the cached A, and np.trace of the
        # products of the cached P_{r-1} and A, evaluated here
        builds = self.counted(monkeypatch, "_cross_check")
        order_entry_points = [trace_identities, modified_sff_norm_sq, cauchy_schwarz_bound]
        kinds = set()
        for trial in range(1200):
            n = trial % 8 + 1
            k = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
            kind = (trial // 8) % 3
            if kind == 0:                   # positive definite
                k = np.abs(k)
            elif kind == 2:                 # zero curvatures: exact zero eigenvalues when q = I
                k[rng.rand(n) < 0.5] = 0.0
            q = random_orthogonal(rng, n) if trial % 2 else np.eye(n)
            a = (q * k) @ q.T
            a = 0.5 * (a + a.T)
            builds.clear()
            newton_family(a)
            op = symfun._operator(a)
            A = op.A
            table, fam = op.family
            w, V = np.linalg.eigh(A)
            want = symfun._classify(float(w[0]), float(w[-1]))
            kinds.add(want.kind)
            assert repr(definiteness(a)) == repr(want), trial
            if want.is_psd:
                root = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
                assert sqrt_psd(a).tobytes() == root.tobytes(), trial
            else:
                with pytest.raises(NotPSDError):
                    sqrt_psd(a)
            sig = fam.sigmas
            for r in range(1, n + 1):
                P = fam.P[r - 1]
                tr_p, tr_pa, tr_pa2 = np.trace(P), np.trace(P @ A), np.trace(P @ A @ A)
                sig_rp1 = sig[r + 1] if r + 1 <= n else 0.0
                scale = (1.0 + op.norm) ** (r + 1)
                residuals = [abs(tr_p - (n - r + 1) * sig[r - 1]) / scale,
                             abs(tr_pa - r * sig[r]) / scale,
                             abs(tr_pa2 - (sig[1] * sig[r] - (r + 1) * sig_rp1)) / scale]
                p_eigenvalues = np.sort(table[:, r - 1])     # the PSD gate's
                gate = symfun._classify(float(p_eigenvalues[0]), float(p_eigenvalues[-1]))
                # each entry point in turn forms the order's traces
                first = (trial + r) % 3
                for fn in order_entry_points[first:] + order_entry_points[:first]:
                    if fn is trace_identities:
                        t = trace_identities(a, r)
                        got = [t.trace_p, t.trace_pa, t.trace_pa2]
                        assert np.array(got).tobytes() == np.array(residuals).tobytes()
                    elif fn is modified_sff_norm_sq:
                        got = np.float64(modified_sff_norm_sq(a, r))
                        assert got.tobytes() == np.float64(tr_pa2).tobytes(), (trial, r)
                    elif not gate.is_psd:
                        with pytest.raises(NotPSDError):
                            cauchy_schwarz_bound(a, r)
                    else:
                        lhs, rhs = cauchy_schwarz_bound(a, r)
                        assert np.float64(lhs).tobytes() == np.float64(
                            (r * sig[r]) ** 2).tobytes(), (trial, r)
                        assert np.float64(rhs).tobytes() == np.float64(
                            tr_p * tr_pa2).tobytes(), (trial, r)
            assert builds == [(n, n)], trial        # every call after the build hit
        assert len(kinds) >= 4

    def test_a_mutated_result_leaves_the_next_call_unchanged(self, rng):
        a = random_symmetric(rng, 4)
        expect = _operator_outputs(a)
        fam = newton_family(a)
        assert fam.sigmas.flags.writeable and all(p.flags.writeable for p in fam.P)
        fam.sigmas[:] = 7.0
        for p in fam.P:
            p[:] = 7.0
        assert _operator_outputs(a) == expect

    def test_the_cache_is_read_only(self, rng):
        a = random_symmetric(rng, 3)
        newton_family(a)
        op = symfun._operator(a)
        assert symfun._operator_of(a.shape, a.tobytes()) is op
        table, fam = op.family
        for array in (op.A, *op.frame, fam.sigmas, *fam.P, table):
            with pytest.raises(ValueError):
                array[...] = 0.0

    def test_a_failed_build_is_not_cached(self, monkeypatch):
        builds = self.counted(monkeypatch, "_cross_check")
        solves = count_eigensolves(monkeypatch)
        good, bad = np.diag([1.0, 2.0]), np.diag([1e160, 1.0])
        newton_family(good)
        for _ in range(2):      # nothing of the failed family is kept: it raises again
            with pytest.raises(NumericalError):
                newton_family(bad)
            with pytest.raises(NumericalError):
                modified_sff_norm_sq(bad, 1)
        # the family's degree check refuses before its eigensolve
        assert set(vars(symfun._operator(bad))) == {"A", "norm", "_traces"}
        newton_family(good)
        assert builds == [(2, 2)] and solves == [(2, 2)]

    @pytest.mark.parametrize("fn, args", OPERATOR_ENTRY_POINTS,
                             ids=_names(OPERATOR_ENTRY_POINTS))
    def test_no_refused_input_enters_the_cache(self, fn, args):
        held = [np.diag([1.0, 2.0]), np.diag([3.0, 4.0])]
        ops = [symfun._operator(a) for a in held]

        def still_held():       # an input that entered would have evicted one
            return all(symfun._operator(a) is op for a, op in zip(held, ops))

        refused = [
            [[1.0, math.nan], [math.nan, 1.0]], [[math.inf, 0.0], [0.0, 1.0]],
            [[1.0, 0.5], [0.0, 1.0]], np.ones((2, 3)), np.zeros((0, 0)), [1.0, 2.0],
            [[1.0, 2.0], [3.0]], [[1j, 0.0], [0.0, 1.0]], [["1", "0"], ["0", "1"]],
        ]
        for bad in refused:
            with pytest.raises(DomainError):
                fn(bad, *args)
            assert still_held(), bad
        if args:
            # an out-of-range order or degree refuses a valid operator: it is
            # cached, with no family and no traces of the refused order
            for bad, r, error in ((np.eye(3), 4, DomainError),
                                  (np.diag([1e160, 1.0]), 1, NumericalError)):
                with pytest.raises(error):
                    fn(bad, r)
                assert set(vars(symfun._operator(bad))) == {"A", "norm", "_traces"}
                assert symfun._operator(bad)._traces == {}

    def test_a_p_query_between_two_calls_on_a_does_not_evict_a(self, rng, monkeypatch):
        builds = self.counted(monkeypatch, "_cross_check")
        a = random_symmetric(rng, 3, positive=True)
        fam = newton_family(a)
        op = symfun._operator(a)
        for r in (1, 2, 3):
            trace_identities(a, r)
            hit = (repr(definiteness(fam.P[r - 1])), sqrt_psd(fam.P[r - 1]).tobytes())
            cauchy_schwarz_bound(a, r)
            assert symfun._operator(a) is op
            # the P query's own hit has the bits of a fresh solve
            assert (repr(definiteness(fam.P[r - 1])), sqrt_psd(fam.P[r - 1]).tobytes()) == hit
        assert builds == [(3, 3)]
        # a third operator evicts the one asked about least recently
        assert symfun._operator_of.cache_info().maxsize == 2
        definiteness(fam.P[1])
        assert symfun._operator(a) is not op

    @pytest.mark.parametrize("i, j, value, message", [
        (1, 1, math.nan, "non-finite"), (0, 2, math.inf, "non-finite"),
        (0, 1, 0.5, "not symmetric"),
    ])
    def test_a_caller_array_changed_after_a_hit_is_refused_again(
            self, rng, i, j, value, message):
        a = random_symmetric(rng, 3, positive=True)
        newton_family(a)
        trace_identities(a, 1)          # a hit
        a[i, j] = value
        for fn, args in OPERATOR_ENTRY_POINTS:
            with pytest.raises(DomainError, match=message):
                fn(a, *args)

    def test_equal_float64_bytes_hit_whatever_the_container(self, monkeypatch):
        builds = self.counted(monkeypatch, "_cross_check")
        a = np.diag([1.0, 2.0, 3.0])
        for s in (a, a.tolist(), np.asfortranarray(a), a.astype(int), a.astype(np.float32)):
            newton_family(s)
            trace_identities(s, 2)
        assert builds == [(3, 3)]

    def test_operators_one_ulp_apart_miss_the_cache(self, rng, monkeypatch):
        builds = self.counted(monkeypatch, "_cross_check")
        a = random_symmetric(rng, 3)
        b = a.copy()
        b[0, 0] = np.nextafter(a[0, 0], np.inf)
        for s in (a, b, a):
            got = newton_family(s)
            fresh = symfun._Operator(symfun._as_shape_operator(s)).family[1]
            assert got.sigmas.tobytes() == fresh.sigmas.tobytes()
            assert all(p.tobytes() == q.tobytes() for p, q in zip(got.P, fresh.P))
        assert len(builds) == 2 + 3     # a and b miss, a hits; three reference builds


def power_sum_check(A, norm_a, sigmas, P):
    """The cross-check in power-sum form, poly_r = sum_j sigma_{r-j} (-A)^j:
    the oracle for the Horner form of ``symfun._cross_check``."""
    n = A.shape[0]
    powers, minus_a, s = [np.eye(n)], -A, sigmas.tolist()
    for _ in range(n):
        powers.append(powers[-1] @ minus_a)
    for r in range(n + 1):
        poly_r = sum(s[r - j] * powers[j] for j in range(r + 1))
        tol = symfun.IDENTITY_TOL * n * (1.0 + norm_a) ** max(r, 1)
        if not symfun._norm(P[r] - poly_r) <= tol:
            raise NumericalError(f"eigenframe/polynomial disagreement for P_{r}")
    if not symfun._norm(poly_r) <= symfun.IDENTITY_TOL * (1.0 + norm_a) ** n:
        raise NumericalError("polynomial P_n deviates from zero beyond tolerance")


def _verdict(check, *args) -> str:
    try:
        check(*args)
    except NumericalError as exc:
        return str(exc)
    return "agree"


class TestHornerCrossCheck:
    @staticmethod
    def unchecked_family(A, monkeypatch):
        """sigmas and P of a validated A, built without the cross-check."""
        with monkeypatch.context() as m:
            m.setattr(symfun, "_cross_check", lambda *args: None)
            fam = symfun._Operator(A).family[1]
        return fam.sigmas, fam.P

    def test_a_perturbed_p_r_is_refused(self, rng, monkeypatch):
        for n in range(2, 7):
            q = random_orthogonal(rng, n)
            A = symfun._as_shape_operator((q * rng.uniform(0.9, 1.1, n)) @ q.T)
            norm_a = symfun._norm(A)
            sig, P = self.unchecked_family(A, monkeypatch)
            symfun._cross_check(A, norm_a, sig, P)
            for r in range(1, n):
                bad = P[:r] + (P[r] * (1.0 + 1e-6),) + P[r + 1:]
                for check in (symfun._cross_check, power_sum_check):
                    with pytest.raises(NumericalError, match=(
                            f"eigenframe/polynomial disagreement for P_{r}$")):
                        check(A, norm_a, sig, bad)

    def test_a_sigma_n_between_the_two_tolerances_fails_cayley_hamilton(self, rng, monkeypatch):
        # sigma_n off by d moves poly_n by d I, of norm d sqrt(n): past the
        # Cayley-Hamilton tolerance, within P_n's (n times larger) for n >= 2
        for n in range(2, 7):
            q = random_orthogonal(rng, n)
            A = symfun._as_shape_operator((q * rng.uniform(0.9, 1.1, n)) @ q.T)
            norm_a = symfun._norm(A)
            sig, P = self.unchecked_family(A, monkeypatch)
            bad = sig.copy()
            bad[n] += symfun.IDENTITY_TOL * (1.0 + norm_a) ** n
            for check in (symfun._cross_check, power_sum_check):
                with pytest.raises(NumericalError, match="polynomial P_n deviates from zero"):
                    check(A, norm_a, bad, P)

    def test_a_perturbed_build_stores_nothing(self, monkeypatch):
        kernel = symfun._sigma_tables

        def perturbed(K, top):
            sig, table = kernel(K, top)
            table[:, 1] *= 1.0 + 1e-6
            return sig, table

        monkeypatch.setattr(symfun, "_sigma_tables", perturbed)
        a = np.diag([1.0, 1.1, 0.9])
        for _ in range(2):      # the failed family is not kept, so it raises again
            with pytest.raises(NumericalError, match="disagreement for P_1"):
                newton_family(a)
        assert "family" not in vars(symfun._operator(a))
        monkeypatch.undo()
        assert newton_family(a).sigmas[3] == pytest.approx(0.99)

    def test_same_verdict_as_the_power_sum(self, rng, monkeypatch):
        # curvatures of either sign spread over 10^-8..10^8; every other
        # operator gets one P_r off by a relative 10^-13..10^-3
        verdicts = []
        for trial in range(1200):
            n = trial % 8 + 1
            k = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
            q = random_orthogonal(rng, n)
            A = symfun._as_shape_operator((q * k) @ q.T)
            norm_a = symfun._norm(A)
            sig, P = self.unchecked_family(A, monkeypatch)
            if trial % 2:
                r = rng.randint(1, n + 1)
                P = P[:r - 1] + (P[r - 1] * (1.0 + 10.0 ** rng.uniform(-13.0, -3.0)),) + P[r:]
            horner = _verdict(symfun._cross_check, A, norm_a, sig, P)
            assert horner == _verdict(power_sum_check, A, norm_a, sig, P), trial
            verdicts.append(horner)
        assert verdicts.count("agree") >= 600
        assert len(set(verdicts)) > 2       # refusals at several orders


@pytest.mark.parametrize("operator, curvatures",
                         list(zip(NON_NUMERIC_MATRICES, non_numeric_vectors(2))),
                         ids=NON_NUMERIC_IDS)
@pytest.mark.parametrize("fn, args",
                         OPERATOR_ENTRY_POINTS + CURVATURE_ENTRY_POINTS + ROW_ENTRY_POINTS,
                         ids=_names(OPERATOR_ENTRY_POINTS + CURVATURE_ENTRY_POINTS
                                    + ROW_ENTRY_POINTS))
def test_non_numeric_input_is_a_domain_error(fn, args, operator, curvatures):
    # the row kernels take the matrices as two rows
    value = curvatures if (fn, args) in CURVATURE_ENTRY_POINTS else operator
    assert_refused_as_non_numeric(fn, value, *args)
    if (fn, args) in ROW_ENTRY_POINTS:
        assert_refused_as_non_numeric(fn, curvatures, *args)    # one row


class TestInputRefusals:
    def test_huge_indefinite_operator_has_no_root(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPSDError):
                sqrt_psd(np.diag([-1e200, 1e200]))
            root = sqrt_psd(np.diag([1e200, 1e200]))
        assert root.tobytes() == np.diag([1e100, 1e100]).tobytes()

    def test_roots_keep_their_bits(self, rng):
        for trial in range(1000):
            n = trial % 6 + 1
            a = random_symmetric(rng, n, positive=True) * 10.0 ** rng.uniform(-3, 3)
            w, V = np.linalg.eigh(symfun._as_shape_operator(a))
            expect = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
            assert sqrt_psd(a).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("r", [2.0, 1.5, True, np.float64(1.0), np.bool_(True)])
    def test_non_integral_order_is_refused(self, r):
        for fn in (trace_identities, modified_sff_norm_sq, cauchy_schwarz_bound):
            with pytest.raises(DomainError, match="must be an integer"):
                fn(np.eye(2), r)
        with pytest.raises(DomainError, match="must be an integer"):
            elem_sym([1.0, 2.0], r)
        with pytest.raises(DomainError, match="must be an integer"):
            elem_sym_excluding([1.0, 2.0], 0, r)
        with pytest.raises(DomainError, match="must be an integer"):
            elem_sym_excluding([1.0, 2.0], r, 1)
        with pytest.raises(DomainError, match="must be an integer"):
            elem_sym_excluding_rows(np.eye(2), r)

    @pytest.mark.parametrize("call, message", [
        (lambda: elem_sym(np.ones((2, 2)), 1), "^curvature vector must be 1-D$"),
        (lambda: elem_sym_excluding_rows(np.ones((2, 3)), -1), "^order r must be nonnegative$"),
    ], ids=["elem_sym.two-d", "elem_sym_excluding_rows.negative-r"])
    def test_a_matrix_of_curvatures_and_a_negative_order_are_refused(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()

    @pytest.mark.parametrize("rows", [np.float64(1.0), np.ones((2, 2, 2)), [[[1.0]]]],
                             ids=["zero-d", "three-d", "nested-list"])
    def test_row_kernels_take_one_or_two_dimensional_rows(self, rows):
        for fn, args in ROW_ENTRY_POINTS:
            with pytest.raises(DomainError, match="must be a 1-D or 2-D array"):
                fn(rows, *args)

    @pytest.mark.parametrize("top, message", [
        (-1, "top must be nonnegative"), (-5, "top must be nonnegative"),
        (True, "top must be an integer"), (1.0, "top must be an integer"),
        ("1", "top must be an integer"), (np.bool_(True), "top must be an integer"),
    ])
    def test_top_must_be_a_nonnegative_integer(self, top, message):
        with pytest.raises(DomainError, match=message):
            elem_sym_all_rows(np.ones((2, 3)), top)

    def test_numpy_integer_tops_pass(self):
        K = np.arange(6.0).reshape(2, 3)
        for top in (0, np.int64(1), np.uint8(2), 7):
            assert elem_sym_all_rows(K, top).tobytes() == elem_sym_all_rows(K, int(top)).tobytes()
        assert elem_sym_all_rows(K, 0).tolist() == [[1.0], [1.0]]

    def test_numpy_integer_orders_pass(self):
        for r in (np.int64(2), np.int32(2), np.uint8(2)):
            assert modified_sff_norm_sq(np.eye(2), r) == modified_sff_norm_sq(np.eye(2), 2)
            assert elem_sym([1.0, 2.0], r) == 2.0
