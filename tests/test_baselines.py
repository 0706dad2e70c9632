import numpy as np
import pytest

from oracles import qrf_oracle

from partqr.baselines import (
    fit_gb,
    fit_rf,
    predict_gb,
    predict_rf,
    qrf_predict,
    qrf_weights,
)
from partqr.data import encode_row
from partqr.evaluation import SyntheticSpec, generate_synthetic
from partqr.models import fit_model
from partqr.partition import build_cart, predict_tree_mean
from partqr.serialize import load_model, save_model

LEVELS = (0.05, 0.5, 0.95)


class TestDtMean:
    def test_constant_target(self):
        X = np.arange(6.0).reshape(-1, 1)
        tree = build_cart(X, np.full(6, 4.5), max_depth=3)
        assert predict_tree_mean(tree, [2.0]) == 4.5
        assert predict_tree_mean(tree, [99.0]) == 4.5

    def test_step_data(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.where(X[:, 0] < 5, 0.0, 10.0)
        tree = build_cart(X, y, max_depth=1)
        assert predict_tree_mean(tree, [1.0]) == 0.0
        assert predict_tree_mean(tree, [9.0]) == 10.0

    def test_single_row(self):
        tree = build_cart(np.array([[3.0]]), np.array([7.5]), max_depth=2)
        assert predict_tree_mean(tree, [0.0]) == 7.5


class TestRandomForest:
    def test_single_tree_no_bootstrap_equals_dt(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        forest = fit_rf(X, y, n_trees=1, seed=0, max_depth=3, bootstrap=False)
        tree = build_cart(X, y, max_depth=3)
        for _ in range(10):
            x = rng.normal(size=3)
            assert predict_rf(forest, x) == predict_tree_mean(tree, x)

    def test_prediction_is_mean_of_trees(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        forest = fit_rf(X, y, n_trees=7, seed=3, max_depth=3)
        x = rng.normal(size=2)
        member = [predict_tree_mean(t, x[c]) for t, c in zip(forest.trees, forest.feature_subsets)]
        assert predict_rf(forest, x) == pytest.approx(float(np.mean(member)))

    def test_fixed_seed_bit_identical(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        a = fit_rf(X, y, n_trees=5, seed=11, max_depth=4)
        b = fit_rf(X, y, n_trees=5, seed=11, max_depth=4)
        for ta, tb in zip(a.trees, b.trees):
            assert len(ta.nodes) == len(tb.nodes)
            for na, nb in zip(ta.nodes, tb.nodes):
                assert (na.feature, na.left, na.right, na.leaf_id) == (
                    nb.feature,
                    nb.left,
                    nb.right,
                    nb.leaf_id,
                )
                assert na.threshold == nb.threshold or (
                    np.isnan(na.threshold) and np.isnan(nb.threshold)
                )
        for sa, sb in zip(a.sample_indices, b.sample_indices):
            assert sa.tolist() == sb.tolist()

    def test_seed_independent_of_training_order(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        full = fit_rf(X, y, n_trees=4, seed=9, max_depth=2)
        # tree t of a smaller forest must equal tree t of the bigger one
        small = fit_rf(X, y, n_trees=2, seed=9, max_depth=2)
        for t in range(2):
            assert full.sample_indices[t].tolist() == small.sample_indices[t].tolist()


class TestGradientBoosting:
    def test_single_depth0_stage_predicts_mean(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        model = fit_gb(X, y, n_stages=1, learning_rate=1.0, max_depth=0)
        assert predict_gb(model, rng.normal(size=2)) == pytest.approx(float(np.mean(y)))

    def test_training_sse_monotone(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(80, 3))
        y = rng.normal(size=80) + X @ np.array([1.0, -1.0, 0.5])
        model = fit_gb(X, y, n_stages=50, learning_rate=0.1, max_depth=2)
        hist = model.sse_history
        assert len(hist) == 50
        assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))

    def test_noiseless_convergence(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, size=(30, 2))
        y = 3.0 * X[:, 0] - 2.0 * X[:, 1]
        model = fit_gb(X, y, n_stages=20, learning_rate=1.0, max_depth=10)
        assert model.sse_history[-1] < 1e-6

    def test_rejects_bad_learning_rate(self):
        X = np.arange(4.0).reshape(-1, 1)
        with pytest.raises(ValueError):
            fit_gb(X, np.arange(4.0), n_stages=5, learning_rate=0.0, max_depth=1)
        with pytest.raises(ValueError):
            fit_gb(X, np.arange(4.0), n_stages=0, learning_rate=0.5, max_depth=1)


class TestQrf:
    def test_single_tree_leaf_median(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0]])
        y = np.array([1.0, 2.0, 3.0, 50.0, 60.0])
        forest = fit_rf(X, y, n_trees=1, seed=0, max_depth=1, bootstrap=False)
        # leaf of x<=... contains {1,2,3}; its weighted median is 2
        assert qrf_predict(forest, [1.0], 0.5) == 2.0

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        forest = fit_rf(X, y, n_trees=6, seed=2, max_depth=3)
        for _ in range(10):
            w = qrf_weights(forest, rng.normal(size=2))
            assert float(w.sum()) == pytest.approx(1.0)
            assert (w >= 0).all()

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        forest = fit_rf(X, y, n_trees=3, seed=5, max_depth=3)
        for _ in range(15):
            x = rng.normal(size=3)
            for alpha in (0.05, 0.3, 0.5, 0.9):
                assert qrf_predict(forest, x, alpha) == qrf_oracle(forest, x, alpha)

    def test_quantile_nondecreasing_in_alpha(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        forest = fit_rf(X, y, n_trees=4, seed=7, max_depth=4)
        for _ in range(10):
            x = rng.normal(size=2)
            qs = [qrf_predict(forest, x, a) for a in np.linspace(0.05, 0.95, 10)]
            assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_levels_match_oracle(self):
        rng = np.random.default_rng(12)
        X = np.round(rng.normal(size=(60, 3)), 1)
        y = np.round(rng.normal(size=60), 1)  # tied targets
        forest = fit_rf(X, y, n_trees=5, seed=4, max_depth=4)
        for _ in range(15):
            x = np.round(rng.normal(size=3), 1)
            got = qrf_predict(forest, x, LEVELS)
            assert got.tolist() == [qrf_oracle(forest, x, a) for a in LEVELS]
            assert isinstance(qrf_predict(forest, x, 0.5), float)

    def test_baseline_fit_matches_oracle_across_save_load(self, tmp_path):
        train = generate_synthetic(SyntheticSpec(n_projects=120, seed=21))
        rows = generate_synthetic(SyntheticSpec(n_projects=25, seed=22)).rows
        fit = fit_model("qrf", train, {"max_depth": 4, "min_samples_split": 10, "n_trees": 8}, seed=3)
        save_model(tmp_path / "qrf.json", fit)
        for model in (fit, load_model(tmp_path / "qrf.json")):
            point = model.predict_point(rows)
            intervals = model.predict_intervals(rows)
            for i, row in enumerate(rows):
                x = encode_row(model.schema, model.encoding, row)
                assert point[i] == qrf_oracle(model.inner, x, 0.5)
                assert intervals[i].tolist() == [qrf_oracle(model.inner, x, a) for a in LEVELS]

    def test_alpha_range(self):
        X = np.arange(6.0).reshape(-1, 1)
        forest = fit_rf(X, np.arange(6.0), n_trees=1, seed=0, max_depth=1)
        with pytest.raises(ValueError):
            qrf_predict(forest, [1.0], 0.0)
        with pytest.raises(ValueError):
            qrf_predict(forest, [1.0], (0.5, 1.0))
