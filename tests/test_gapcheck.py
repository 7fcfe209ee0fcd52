import json
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
)
from newton_flow.errors import DomainError, NotPSDError, NotSelfShrinkerError, NumericalError
from newton_flow.gapcheck import classify, evaluate, evaluate_from_samples
from newton_flow import cli, symfun
from newton_flow.catalog import sample_fields
from newton_flow.symfun import DefinitenessClass
from conftest import (
    NON_NUMERIC_IDS,
    NON_NUMERIC_MATRICES,
    assert_refused_as_non_numeric,
    non_numeric_vectors,
    random_orthogonal,
)


class TestEvaluate:
    def test_shrinker_sphere_boundary(self):
        for n in range(1, 6):
            for r in range(1, n + 1):
                model = Sphere(n=n, radius=shrinker_radius(n, r))
                rep = evaluate(model, r)
                assert rep.flags.thm1_boundary, (n, r)
                assert not rep.flags.thm1_strict
                assert rep.min_eig_p > 0
                assert rep.classification.kind == "Sphere"

    def test_hyperplane_strict(self):
        rep = evaluate(Hyperplane(n=3), 2)
        assert rep.sup_modified_norm_sq == 0.0
        assert rep.flags.thm1_strict
        assert rep.classification.kind == "Hyperplane"
        assert any("normal" in note for note in rep.notes)

    def test_rejects_a_non_model(self):
        with pytest.raises(DomainError, match="^NoneType is not a catalog model$"):
            evaluate(None, 1)

    def test_oversize_sphere_not_shrinker(self):
        for n, r in ((2, 1), (3, 2), (4, 3)):
            model = Sphere(n=n, radius=2.0 * shrinker_radius(n, r))
            rep = evaluate(model, r)
            expect = r * 2.0 ** (-(r + 1))
            assert rep.sup_modified_norm_sq == pytest.approx(expect, rel=1e-9)
            assert rep.flags.thm1_strict
            assert rep.sup_residual > 1e-3
            assert rep.classification.kind == "NotShrinker"

    def test_sphere_norm_formula_and_monotonicity(self):
        n, r = 4, 2
        values = []
        for radius in (1.0, 1.5, 2.0, 3.0):
            rep = evaluate(Sphere(n=n, radius=radius), r)
            expect = r * math.comb(n, r) * radius ** (-(r + 1))
            assert rep.sup_modified_norm_sq == pytest.approx(expect, abs=1e-9)
            values.append(rep.sup_modified_norm_sq)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_cylinder_axial_constancy_note(self):
        # a cylinder is reported from one closed-form row: no sampler to note
        rep = evaluate(Cylinder(n=3, m=2, radius=shrinker_radius(2, 1)), 1)
        assert not any("axial" in note for note in rep.notes)

    def test_r_out_of_range(self):
        with pytest.raises(DomainError):
            evaluate(Sphere(n=2, radius=1.0), 3)

    def test_wide_curvature_spread(self):
        # P_2 of k = (1e8, 1e-4, 1) has the eigenvalues (1e-4, 1e8, 1e4)
        rep = evaluate_from_samples(np.array([[1e8, 1e-4, 1.0]]), np.array([-1e4]), 3)
        assert rep.min_eig_p == 1e-4
        assert rep.psd_class.max_eigenvalue == 1e8

    @pytest.mark.parametrize("k, kind", [
        ((1e8, 1e-4, 1.0), DefinitenessClass.POSITIVE_SEMIDEFINITE),
        ((1e3, 1e-4, 1.0), DefinitenessClass.POSITIVE_DEFINITE),
    ], ids=["k0", "k1"])
    def test_one_definiteness_answer(self, k, kind):
        # min eig 1e-4 is zero against max eig 1e8 (window 1e-2), not against
        # 1e3 (window 1e-7): the flag reads the report's one class
        K = np.array([k])
        rep = evaluate_from_samples(K, -symfun.elem_sym_all_rows(K)[:, 3], 3)
        assert rep.psd_class.kind is kind
        assert rep.flags.thm1_psd_definite is (kind is DefinitenessClass.POSITIVE_DEFINITE)


EPSILONS = [1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5]


def psd_verdict(fn, *args) -> bool:
    """True when fn(*args) returns, False when it raises NotPSDError."""
    try:
        fn(*args)
    except NotPSDError:
        return False
    return True


class TestOneZeroWindow:
    """Every "is this eigenvalue zero" decision reads symfun's one window,
    ZERO_TOL max(1, max|lambda|): the ladders cross it at every scale."""

    @pytest.mark.parametrize("eps", EPSILONS)
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
    def test_algebra_and_gap_give_one_psd_class(self, capsys, sign, eps):
        row = [sign * eps, 1.0]
        assert cli.main(["algebra", f"--k={row[0]!r},1", "--r", "2"]) == 0
        algebra = json.loads(capsys.readouterr().out)["psdClass"]
        gap = evaluate_from_samples([row], [0.0], 2).psd_class.kind.value
        oracle = symfun.definiteness(symfun.newton_family(np.diag(row)).P[1]).kind.value
        assert algebra == gap == oracle

    @pytest.mark.parametrize("eps", EPSILONS)
    @pytest.mark.parametrize("s", [1e-3, 1.0, 1e6])
    def test_sqrt_psd_roots_what_definiteness_calls_psd(self, s, eps):
        M = np.diag([s, -eps * s])
        assert psd_verdict(symfun.sqrt_psd, M) == symfun.definiteness(M).is_psd

    def test_sqrt_psd_and_definiteness_agree_at_the_cut(self):
        # rotated operators whose least eigenvalue is within rounding of the
        # cut: eigvalsh and eigh would round it to opposite sides of it
        rng = np.random.default_rng(7)
        for trial in range(1000):
            n = trial % 5 + 2
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            w = rng.uniform(0.5, 2.0, n)
            w[0] = -symfun._zero_cut(-1.0, w.max()) * (1.0 + rng.uniform(-1e-5, 1e-5))
            M = (q * w) @ q.T
            M = 0.5 * (M + M.T)
            assert psd_verdict(symfun.sqrt_psd, M) == symfun.definiteness(M).is_psd, trial

    @pytest.mark.parametrize("eps", EPSILONS)
    @pytest.mark.parametrize("s", [1e-3, 1.0, 1e6])
    def test_the_bound_gates_on_what_definiteness_calls_psd(self, s, eps):
        M = np.diag([s, -eps * s])
        psd = symfun.definiteness(symfun.newton_family(M).P[1]).is_psd
        assert psd_verdict(symfun.cauchy_schwarz_bound, M, 2) == psd

    @pytest.mark.parametrize("eps", EPSILONS)
    @pytest.mark.parametrize("s", [1e-3, 1.0, 1e6])
    def test_weak_convexity_reads_the_one_window(self, s, eps):
        row = [s, -eps * s]
        gauss = evaluate_from_samples([row], [0.0], 2).gauss
        assert gauss.weakly_convex == symfun.definiteness(np.diag(row)).is_psd

    @pytest.mark.parametrize("eps", EPSILONS)
    @pytest.mark.parametrize("s", [1e-3, 1.0, 1e6])
    def test_zero_count_reads_the_one_window(self, s, eps):
        row = [s, eps * s]
        kind = symfun.definiteness(np.diag(row)).kind
        rep = evaluate_from_samples([row], [0.0], 2)
        assert rep.zero_multiplicity == (kind is DefinitenessClass.POSITIVE_SEMIDEFINITE)


class TestClassify:
    def test_catalog_taxonomy(self):
        for model, r in self_shrinkers(5):
            rep = evaluate(model, r)
            result = classify(rep)
            if isinstance(model, Hyperplane):
                assert result.kind == "Hyperplane"
            elif isinstance(model, Sphere):
                assert result.kind == "Sphere"
            else:
                assert result.kind == "Cylinder" and result.m == model.m

    def test_example_cylinder(self):
        model = Cylinder(n=3, m=2, radius=shrinker_radius(2, 2))
        result = classify(evaluate(model, 2))
        assert str(result) == "Cylinder(m=2)"

    def test_not_shrinker_raises(self):
        rep = evaluate(Cylinder(n=3, m=1, radius=1.0), 2)
        with pytest.raises(NotSelfShrinkerError):
            classify(rep)

    def test_psd_class_positive_definite_on_catalog(self):
        # P_{r-1} on catalog shrinkers has eigenvalues sigma_{r-1} with one
        # curvature deleted, all positive for r <= m
        for model, r in self_shrinkers(4):
            if isinstance(model, Hyperplane):
                continue
            rep = evaluate(model, r)
            assert rep.psd_class.kind is DefinitenessClass.POSITIVE_DEFINITE

    def test_rotation_invariance(self, rng):
        # the report reads the curvatures only: the eigenvalues of the shape
        # operator in a rotated frame (ascending, so reordered) give the
        # same report up to rounding
        model = Cylinder(n=3, m=2, radius=shrinker_radius(2, 2))
        K, support = sample_fields(model)
        q = random_orthogonal(rng, 3)
        rotated = np.stack([np.linalg.eigvalsh((q * k) @ q.T) for k in K])
        assert not np.array_equal(rotated, K)
        rep_a = evaluate_from_samples(K, support, 2)
        rep_b = evaluate_from_samples(rotated, support, 2)
        assert rep_a.flags == rep_b.flags
        assert str(rep_a.classification) == str(rep_b.classification) == "Cylinder(m=2)"
        assert rep_b.sup_modified_norm_sq == pytest.approx(rep_a.sup_modified_norm_sq,
                                                           rel=1e-12)
        assert rep_b.min_eig_p == pytest.approx(rep_a.min_eig_p, rel=1e-12)


class TestOneSigmaTable:
    def test_excluding_rows_from_a_held_table(self):
        # the all-orders table an operator's family holds has the kernel's bits
        # in every column, and each column is the deleted rows' recurrence
        gen = np.random.default_rng(5)
        for n in range(1, 8):
            K = gen.standard_normal((40, n)) * 10.0 ** gen.uniform(-2, 2)
            held = symfun._sigma_tables(K, n - 1)[1].reshape(40, n, n)
            for r in range(0, n):
                got = symfun.elem_sym_excluding_rows(K, r)
                assert got.tobytes() == np.ascontiguousarray(held[:, :, r]).tobytes()
                for j in range(n):
                    deleted = symfun.elem_sym_all_rows(np.delete(K, j, axis=1))
                    assert got[:, j].tobytes() == deleted[:, r].tobytes()
            assert not symfun.elem_sym_excluding_rows(K, n).any()

    def test_one_table_per_report(self, monkeypatch):
        calls = [0]
        inner = symfun.elem_sym_all_rows

        def counted(K, *top):
            calls[0] += 1
            return inner(K, *top)
        monkeypatch.setattr(symfun, "elem_sym_all_rows", counted)
        # one table of the rows stacked over the rows with each column deleted
        report = evaluate(Sphere(n=3, radius=shrinker_radius(3, 3)), 3)
        assert report.gauss is not None and calls[0] == 1
        evaluate(Sphere(n=2, radius=1.0), 2)
        assert calls[0] == 2


def gauss(model):
    return evaluate(model, model.n).gauss


class TestGaussCheck:
    """The Gauss fragment (r = n) of a gap report."""

    def test_unit_spheres_boundary(self):
        for n in range(1, 6):
            rep = gauss(Sphere(n=n, radius=1.0))
            assert rep.sup_hk == pytest.approx(float(n), abs=1e-12)
            assert rep.weakly_convex and rep.hk_at_most_n
            assert rep.identity_residual <= 1e-12

    def test_hyperplane(self):
        rep = gauss(Hyperplane(n=2))
        assert rep.sup_hk == 0.0
        assert rep.weakly_convex and rep.hk_at_most_n

    def test_out_of_range_curvatures_refused(self):
        # sup HK has degree n + 1 = 4: (1e120)^4 leaves the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="float range"):
                gauss(Sphere(n=3, radius=1e-120))

    def test_oversize_sphere_flagged(self):
        rep = gauss(Sphere(n=2, radius=2.0))
        assert rep.sup_hk == pytest.approx(0.25)
        assert rep.hk_at_most_n
        report = evaluate(Sphere(n=2, radius=2.0), 2)
        assert report.classification.kind == "NotShrinker"


class TestSampleRows:
    """evaluate_from_samples: the checked entry for sample rows."""

    def test_sphere_rows_are_definite(self):
        K, support = sample_fields(Sphere(n=3, radius=1.2))
        for r in (1, 2, 3):
            rep = evaluate_from_samples(K, support, r)
            assert rep.psd_class.kind is DefinitenessClass.POSITIVE_DEFINITE

    def test_saddle_rows_are_indefinite(self):
        rep = evaluate_from_samples(np.array([[1.0, -1.0]] * 5), np.zeros(5), 2)
        assert rep.psd_class.kind is DefinitenessClass.INDEFINITE
        assert rep.min_eig_p == -1.0

    def test_rows_of_opposite_sign_are_indefinite(self):
        # each row is convex or concave, but P_1 of the second row is -I: no
        # sampled sufficient condition overrides the eigenvalues
        rep = evaluate_from_samples([[1.0, 1.0], [-1.0, -1.0]], [0.0, 0.0], 2)
        assert rep.psd_class.kind is DefinitenessClass.INDEFINITE
        assert rep.min_eig_p == -1.0
        assert not rep.flags.thm1_psd_definite

    def test_n_is_the_column_count(self):
        K = np.array([[1.0, 1.0, 1.0]])
        rep = evaluate_from_samples(K, [-3.0], 2)
        assert rep.n == 3
        assert rep.to_json_dict()["n"] == 3

    def test_rows_carry_no_notes(self):
        # the hyperplane note is evaluate's, from its model; rows have none
        assert evaluate_from_samples([[1.0, 1.0]], [-2.0], 2).notes == ()
        K, support = sample_fields(Hyperplane(n=3))
        assert evaluate_from_samples(K, support, 1).notes == ()
        assert evaluate(Hyperplane(n=3), 1).notes != ()

    @pytest.mark.parametrize("rows, support, r", [
        (np.zeros((0, 2)), np.zeros(0), 1),
        (np.array([1.0, 1.0]), np.zeros(1), 1),
        (np.array([[1.0, math.nan], [1.0, 1.0]]), np.zeros(2), 1),
        (np.array([[math.inf, 1.0]]), np.zeros(1), 1),
        ([], [], 1),
        (np.ones((2, 2, 1)), np.zeros(2), 1),
        ([[1.0, 2.0], [3.0]], [0.0, 0.0], 1),
        (np.ones((1, 2)), np.zeros(3), 1),
        (np.ones((2, 2)), np.zeros((2, 1)), 1),
        (np.ones((1, 2)), np.array([math.nan]), 1),
        (np.ones((1, 1)), np.zeros(1), 2),
        (np.ones((1, 3)), np.zeros(1), 4),
        (np.ones((1, 2)), np.zeros(1), 0),
        (np.array([[1 + 5j, 2.0]]), np.zeros(1), 1),
        ([["1", "2"]], ["0"], 1),
    ], ids=["empty", "one-d", "nan", "inf", "empty-list", "three-d", "ragged",
            "support-length", "support-shape", "support-nan", "r-above-n",
            "r-above-columns", "r-zero", "complex", "string"])
    def test_bad_rows_rejected(self, rows, support, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                evaluate_from_samples(rows, support, r)

    @pytest.mark.parametrize("rows, support",
                             list(zip(NON_NUMERIC_MATRICES, non_numeric_vectors(2))),
                             ids=NON_NUMERIC_IDS)
    def test_non_numeric_input_is_a_domain_error(self, rows, support):
        assert_refused_as_non_numeric(evaluate_from_samples, rows, [0.0, 0.0], 1)
        assert_refused_as_non_numeric(evaluate_from_samples, np.ones((2, 2)), support, 1)

    def test_out_of_range_curvatures_refused(self):
        K, support = sample_fields(Sphere(n=2, radius=1e-200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="float range"):
                evaluate_from_samples(K, support, 2)
