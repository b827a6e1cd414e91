import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tajweed import svm
from tajweed.errors import NoConvergence, SvmError


def tiny_problem():
    """x1=0 labeled -1, x2=2 labeled +1; near-linear regime, wide box."""
    return np.array([[0.0], [2.0]]), np.array([-1.0, 1.0])


class TestRbfKernel:
    def test_self_similarity_is_one(self):
        x = np.array([0.3, -1.2, 5.0])
        assert svm.rbf_gram(x, x, 0.7)[0, 0] == 1.0

    def test_known_value(self):
        # gamma 0.1, squared distance 10 -> exp(-1)
        a, b = np.zeros(10), np.ones(10)
        assert svm.rbf_gram(a, b, 0.1)[0, 0] == pytest.approx(np.exp(-1), abs=1e-12)

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_range(self, seed):
        rng = np.random.default_rng(seed)
        A, B = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
        K = svm.rbf_gram(A, B, 0.5)
        assert (K == svm.rbf_gram(B, A, 0.5).T).all()
        assert ((0.0 < K) & (K <= 1.0)).all()
        assert np.abs(K - oracles.rbf_matrix(A, B, 0.5)).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(SvmError, match="dimensions differ: 3 vs 4"):
            svm.rbf_gram(np.zeros(3), np.zeros(4), 0.5)

    def test_bytes_do_not_depend_on_the_blas_thread_count(self):
        # a threaded BLAS picks its summation order from its thread count; the
        # 100-row Gram is a shape whose bytes differed between 1 and 2 threads
        src = os.path.dirname(os.path.dirname(os.path.abspath(svm.__file__)))
        script = ("import hashlib; from tajweed import svm; import numpy as np; "
                  "X = np.random.default_rng(0).standard_normal((100, 140)); "
                  "print(hashlib.sha256(svm.rbf_gram(X, X, 0.01).tobytes()).hexdigest())")
        digests = []
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
            env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                   text=True, timeout=120, check=True)
            digests.append(child.stdout)
        assert digests[0] == digests[1]

    def test_gram_matrix_positive_semidefinite(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            X = rng.standard_normal((10, 3))
            K = svm.rbf_gram(X, X, 0.4)
            assert np.linalg.eigvalsh(K).min() >= -1e-8

    @pytest.mark.parametrize("gamma", [0.0, np.nan, np.inf, -np.inf])
    def test_rejects_nonpositive_or_nonfinite_gamma(self, gamma):
        with pytest.raises(ValueError):
            svm.train(*tiny_problem(), 1.0, gamma)


class TestTrain:
    def test_two_point_boundary_at_midpoint(self):
        model = svm.train(*tiny_problem(), C=100.0, gamma=0.01, tol=1e-6)
        f_mid, f_neg, f_pos = svm.decision_values(model, [[1.0], [0.0], [2.0]])
        assert abs(f_mid) < 1e-3
        assert f_neg <= -1 + 1e-3
        assert f_pos >= 1 - 1e-3

    def test_six_point_matches_qp_oracle(self):
        rng = np.random.default_rng(77)
        X, y = oracles.random_separated_problem(rng, l=6)
        gamma, C = 0.5, 2.0
        model = svm.train(X, y, C, gamma,
                          tol=1e-10, max_passes=100_000)
        K = oracles.rbf_matrix(X, X, gamma)
        ref = oracles.projected_gradient_qp(K, y, C)
        alpha = np.zeros(len(y))
        for sv, coef in zip(model.support_vectors, model.dual_coefs):
            idx = np.flatnonzero((X == sv).all(axis=1))[0]
            alpha[idx] = abs(coef)
        assert np.abs(alpha - ref).max() < 1e-3
        f_model = svm.decision_values(model, X)
        f_ref = (ref * y) @ K + model.bias
        assert np.abs(f_model - f_ref).max() < 1e-3

    def test_single_class_rejected(self):
        with pytest.raises(SvmError, match="training labels contain a single class"):
            svm.train(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]), 1.0, 0.1)

    @pytest.mark.parametrize("C", [0.0, np.nan, np.inf, -np.inf])
    def test_nonpositive_or_nonfinite_c_rejected(self, C):
        with pytest.raises(ValueError):
            svm.train(*tiny_problem(), C, 0.1)

    def test_negative_max_passes_rejected(self):
        with pytest.raises(ValueError):
            svm.train(*tiny_problem(), 1.0, 0.1, max_passes=-1)

    def test_no_convergence_carries_best_iterate(self):
        with pytest.raises(NoConvergence) as exc:
            svm.train(*tiny_problem(), 100.0, 0.01, max_passes=0)
        assert exc.value.model is not None
        assert exc.value.model.support_vectors.shape[1] == 1

    def test_dual_feasibility(self, rng):
        for _ in range(10):
            X, y = oracles.random_separated_problem(rng)
            C = float(rng.uniform(0.5, 3.0))
            model = svm.train(X, y, C, 0.6, tol=1e-8, max_passes=50_000)
            alphas = np.abs(model.dual_coefs)
            assert (alphas > 0).all()
            assert (alphas <= C).all()
            assert abs(model.dual_coefs.sum()) < 1e-6

    def test_kkt_conditions_on_training_points(self):
        rng = np.random.default_rng(5)
        X, y = oracles.random_separated_problem(rng, l=8)
        C = 1.0
        tol = 1e-3
        model = svm.train(X, y, C, 0.5, tol=tol)
        f = svm.decision_values(model, X)
        alpha = np.zeros(len(y))
        for sv, coef in zip(model.support_vectors, model.dual_coefs):
            idx = np.flatnonzero((X == sv).all(axis=1))[0]
            alpha[idx] = abs(coef)
        margins = y * f
        for a, m in zip(alpha, margins):
            if a == 0.0:
                assert m >= 1 - tol
            elif a < C:
                assert abs(m - 1) <= tol
            else:
                assert m <= 1 + tol

    def test_prediction_invariant_under_sample_permutation(self, rng):
        X, y = oracles.random_separated_problem(rng, l=8)
        model_a = svm.train(X, y, 1.0, 0.5, tol=1e-8)
        perm = rng.permutation(len(y))
        model_b = svm.train(X[perm], y[perm], 1.0, 0.5, tol=1e-8)
        probes = rng.uniform(-2, 2, (50, X.shape[1]))
        pred_a = np.sign(svm.decision_values(model_a, probes))
        pred_b = np.sign(svm.decision_values(model_b, probes))
        assert (pred_a == pred_b).all()

    def test_decision_value_is_pure(self):
        model = svm.train(*tiny_problem(), 10.0, 0.2)
        x = [0.7]
        assert svm.decision_values(model, x) == svm.decision_values(model, x)

    def test_dimension_mismatch_at_inference(self):
        model = svm.train(*tiny_problem(), 10.0, 0.2)
        with pytest.raises(SvmError, match="input dim 2 != model dim 1"):
            svm.decision_values(model, [1.0, 2.0])


def random_model(dim, n_support=40):
    rng = np.random.default_rng(dim)
    return svm.SvmModel(rng.standard_normal((n_support, dim)), rng.standard_normal(n_support),
                        bias=0.25, C=1.0, gamma=1.0 / dim)


class TestDecisionValueBits:
    """Scoring rows in one call keeps the bytes of each row scored on its own
    through rbf_gram (one gemv) and a dot; one gemm over all rows would not."""

    @pytest.mark.parametrize("dim", [140, 27860])
    @pytest.mark.parametrize("n_rows", [0, 1, 2, 17, 18, 60])
    def test_equals_each_row_scored_alone(self, dim, n_rows):
        model = random_model(dim)
        X = np.random.default_rng(n_rows).standard_normal((n_rows, dim))
        alone = np.array([(model.dual_coefs @ svm.rbf_gram(model.support_vectors, x[None],
                                                              model.gamma))[0] + model.bias
                          for x in X], dtype=np.float64)
        assert svm.decision_values(model, X).tobytes() == alone.tobytes()

    @pytest.mark.parametrize("dim", [140, 27860])
    def test_layout_of_the_rows_does_not_matter(self, dim):
        model = random_model(dim)
        wide = np.random.default_rng(3).standard_normal((18, dim + 5))
        sliced = wide[:, 2:2 + dim]
        expected = svm.decision_values(model, np.ascontiguousarray(sliced)).tobytes()
        assert svm.decision_values(model, sliced).tobytes() == expected
        assert svm.decision_values(model, np.asfortranarray(sliced)).tobytes() == expected


class TestCalibration:
    def test_separated_scores(self):
        scores = np.array([-2.0] * 10 + [2.0] * 10)
        labels = np.array([-1.0] * 10 + [1.0] * 10)
        A, B = svm.platt_fit(scores, labels)
        assert A < 0
        p = svm.calibrated_probability(np.array([2.0, -2.0]), (A, B))
        assert p[0] > 0.9
        assert p[1] < 0.1

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(21)
        scores = np.concatenate([rng.normal(-1.2, 0.6, 30), rng.normal(0.9, 0.7, 30)])
        labels = np.array([-1.0] * 30 + [1.0] * 30)
        A, B = svm.platt_fit(scores, labels)
        A_ref, B_ref = oracles.platt_fit_oracle(scores, labels)
        ours = oracles.platt_nll(A, B, scores, labels)
        ref = oracles.platt_nll(A_ref, B_ref, scores, labels)
        assert ours <= ref + 1e-6
        assert A == pytest.approx(A_ref, abs=1e-3)
        assert B == pytest.approx(B_ref, abs=1e-3)

    def test_zero_score_depends_only_on_intercept(self):
        scores = np.array([-1.0, -0.5, 0.5, 1.0])
        labels = np.array([-1.0, -1.0, 1.0, 1.0])
        A, B = svm.platt_fit(scores, labels)
        p0 = svm.calibrated_probability(np.array([0.0]), (A, B))[0]
        assert p0 == pytest.approx(1.0 / (1.0 + np.exp(B)), abs=1e-12)

    def test_label_flip_reverses_slope(self):
        scores = np.array([-2.0] * 8 + [2.0] * 8)
        labels = np.array([-1.0] * 8 + [1.0] * 8)
        A, _ = svm.platt_fit(scores, labels)
        A_flip, _ = svm.platt_fit(scores, -labels)
        assert A < 0 < A_flip

    def test_single_class_rejected(self):
        with pytest.raises(SvmError, match="calibration labels contain a single class"):
            svm.platt_fit(np.array([1.0, 2.0]), np.array([1.0, 1.0]))

    def test_monotone_when_slope_negative(self):
        A, B = -2.5, 0.3
        f = np.linspace(-5, 5, 201)
        p = svm.calibrated_probability(f, (A, B))
        assert (np.diff(p) > 0).all()

    def test_fit_calibration_end_to_end(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(-2, 0.3, (20, 2)), rng.normal(2, 0.3, (20, 2))])
        y = np.array([-1.0] * 20 + [1.0] * 20)
        model = svm.train(X, y, 1.0, 0.5)
        hold_X = np.vstack([rng.normal(-2, 0.3, (10, 2)), rng.normal(2, 0.3, (10, 2))])
        hold_y = np.array([-1.0] * 10 + [1.0] * 10)
        A, B = svm.platt_fit(svm.decision_values(model, hold_X), hold_y)
        assert A < 0
        p = svm.calibrated_probability(svm.decision_values(model, hold_X), (A, B))
        assert (p[hold_y > 0] > 0.5).all()
        assert (p[hold_y < 0] < 0.5).all()


def clustered_problem(rng, n_per=20, spread=0.5, separation=10.0):
    X = np.vstack([
        rng.normal(-separation / 2, spread, (n_per, 2)),
        rng.normal(separation / 2, spread, (n_per, 2)),
    ])
    y = np.array([-1.0] * n_per + [1.0] * n_per)
    return X, y


@pytest.mark.parametrize("fit", [
    lambda X, y: svm.train(X, y, 1.0, 0.1),
    lambda X, y: svm.grid_search(X, y, C_grid=(1.0,), gamma_grid=(0.1,), k_folds=2),
], ids=["train", "grid_search"])
@pytest.mark.parametrize("X, y, message", [
    ([0.0, 1.0, 2.0, 3.0], [-1.0, -1.0, 1.0, 1.0], "X must be (l, d) with one label per row"),
    ([[0.0], [1.0], [2.0], [3.0]], [-1.0, 1.0, 1.0],
     "X must be (l, d) with one label per row"),
    ([[0.0]], [1.0], "need at least two samples"),
    ([[0.0], [1.0], [2.0], [3.0]], [-1.0, 0.0, 1.0, 1.0], "labels must be -1 or +1"),
], ids=["1-D X", "label count differs from row count", "single sample", "label 0"])
def test_train_and_grid_search_reject_rows_and_labels_they_cannot_fit(fit, X, y, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fit(np.array(X), np.array(y))


class TestGridSearch:
    def test_singleton_grid_echoes_itself(self, rng):
        best, table = svm.grid_search(*clustered_problem(rng), C_grid=(1.0,), gamma_grid=(0.1,),
                                      seed=0)
        assert (best.C, best.gamma) == (1.0, 0.1)
        assert len(table) == 1
        assert 0.0 <= table[0].accuracy <= 1.0

    def test_separable_clusters_reach_perfect_accuracy(self, rng):
        _, table = svm.grid_search(*clustered_problem(rng), seed=3)
        assert max(c.accuracy for c in table) == 1.0

    def test_matches_exhaustive_recomputation(self, rng):
        X, y = clustered_problem(rng, n_per=15)
        seed = 11
        winner, cells = svm.grid_search(X, y, C_grid=(0.1, 1.0), gamma_grid=(0.01, 0.1),
                                        k_folds=4, seed=seed)
        folds = svm.stratified_folds(y, 4, seed)
        table = {(c.C, c.gamma): c.accuracy for c in cells}
        best = None
        for C in (0.1, 1.0):
            for gamma in (0.01, 0.1):
                accs = []
                for fold in folds:
                    mask = np.ones(len(y), dtype=bool)
                    mask[fold] = False
                    model = svm.train(X[mask], y[mask], C, gamma)
                    pred = np.sign(svm.decision_values(model, X[fold]))
                    accs.append(float(np.mean(pred == y[fold])))
                mean_acc = float(np.mean(accs))
                assert table[C, gamma] == pytest.approx(mean_acc, abs=1e-12)
                if best is None or mean_acc > best[0]:
                    best = (mean_acc, C, gamma)
        assert (winner.C, winner.gamma) == (best[1], best[2])

    @pytest.mark.parametrize("k_folds", [1, 0, -2])
    def test_fewer_than_two_folds_rejected(self, rng, k_folds):
        with pytest.raises(ValueError):
            svm.grid_search(*clustered_problem(rng), k_folds=k_folds)

    def test_tie_breaks_toward_smaller_c_then_gamma(self, rng):
        # clusters 10 sigma apart: every cell hits accuracy 1.0
        best, table = svm.grid_search(*clustered_problem(rng), seed=5)
        assert all(c.accuracy == 1.0 for c in table)
        assert (best.C, best.gamma) == (0.1, 0.001)

    def test_too_few_samples(self):
        with pytest.raises(SvmError, match="class -1 has fewer samples than folds"):
            svm.grid_search(np.arange(6.0).reshape(6, 1),
                            np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]), k_folds=5, seed=0)

    def test_stratified_folds_cover_both_classes(self, rng):
        y = np.array([1.0] * 12 + [-1.0] * 8)
        folds = svm.stratified_folds(y, 4, seed=2)
        flat = np.concatenate(folds)
        assert sorted(flat.tolist()) == list(range(20))
        for fold in folds:
            assert {1.0, -1.0} <= set(y[fold].tolist())

    @settings(max_examples=100, deadline=None)
    @given(labels=st.lists(st.sampled_from([-1.0, 1.0, 2.0]), min_size=1, max_size=120),
           k=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    def test_stratified_folds_match_the_round_robin_loop(self, labels, k, seed):
        folds = svm.stratified_folds(labels, k, seed)
        expected = oracles.round_robin_folds(labels, k, seed)
        assert len(folds) == len(expected) == k
        for fold, ref in zip(folds, expected):
            assert fold.dtype == ref.dtype
            assert fold.tobytes() == ref.tobytes()
