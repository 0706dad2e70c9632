import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import qrf_oracle, qrf_quantiles_by_tree, qrf_weights_by_tree

from partqr import baselines
from partqr.baselines import (
    first_stages,
    fit_gb,
    fit_rf,
    predict_gb,
    predict_rf,
    prune_forest,
    qrf_predict,
    qrf_weights,
)
from partqr.data import encode_row
from partqr.evaluation import SyntheticSpec, generate_synthetic
from partqr.models import fit_model
from partqr.partition import build_cart, predict_tree_mean, route
from partqr.serialize import load_model, save_model
from test_partition import assert_equal_trees, tie_heavy_design

LEVELS = (0.05, 0.5, 0.95)


class TestDtMean:
    def test_constant_target(self):
        X = np.arange(6.0).reshape(-1, 1)
        tree = build_cart(X, np.full(6, 4.5), max_depth=3)
        assert predict_tree_mean(tree, [[2.0]])[0] == 4.5
        assert predict_tree_mean(tree, [[99.0]])[0] == 4.5

    def test_step_data(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.where(X[:, 0] < 5, 0.0, 10.0)
        tree = build_cart(X, y, max_depth=1)
        assert predict_tree_mean(tree, [[1.0]])[0] == 0.0
        assert predict_tree_mean(tree, [[9.0]])[0] == 10.0

    def test_single_row(self):
        tree = build_cart(np.array([[3.0]]), np.array([7.5]), max_depth=2)
        assert predict_tree_mean(tree, [[0.0]])[0] == 7.5


class TestRandomForest:
    def test_single_tree_no_bootstrap_equals_dt(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        forest = fit_rf(X, y, n_trees=1, seed=0, max_depth=3, bootstrap=False)
        tree = build_cart(X, y, max_depth=3)
        for _ in range(10):
            x = rng.normal(size=(1, 3))
            assert predict_rf(forest, x)[0] == predict_tree_mean(tree, x)[0]

    def test_prediction_is_mean_of_trees(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        forest = fit_rf(X, y, n_trees=7, seed=3, max_depth=3)
        x = rng.normal(size=(1, 2))
        pairs = zip(forest.trees, forest.feature_subsets)
        member = [predict_tree_mean(t, x[:, c])[0] for t, c in pairs]
        assert predict_rf(forest, x)[0] == pytest.approx(float(np.mean(member)))

    def test_stack_equals_one_row_calls(self):
        # 37 trees, so the mean's pairwise summation runs past one unrolled block
        rng = np.random.default_rng(13)
        X = rng.normal(size=(80, 4))
        forest = fit_rf(X, rng.normal(size=80), n_trees=37, seed=2, max_depth=4, feature_fraction=0.75)
        queries = rng.normal(size=(60, 4))
        pairs = list(zip(forest.trees, forest.feature_subsets))
        want = [float(np.mean([predict_tree_mean(t, x[None, c])[0] for t, c in pairs])) for x in queries]
        assert [predict_rf(forest, x[None])[0] for x in queries] == want
        assert predict_rf(forest, queries).tolist() == want
        assert predict_rf(forest, np.zeros((0, 4))).shape == (0,)

    def test_fixed_seed_bit_identical(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        a = fit_rf(X, y, n_trees=5, seed=11, max_depth=4)
        b = fit_rf(X, y, n_trees=5, seed=11, max_depth=4)
        for ta, tb in zip(a.trees, b.trees):
            assert len(ta.value) == len(tb.value)
            for key in ("feature", "left", "right", "leaf_id"):
                assert getattr(ta, key).tolist() == getattr(tb, key).tolist()
            for na, nb in zip(ta.threshold.tolist(), tb.threshold.tolist()):
                assert na == nb or (np.isnan(na) and np.isnan(nb))
        for la, lb in zip(a.in_bag_leaf, b.in_bag_leaf):
            assert la.tolist() == lb.tolist()

    def test_seed_independent_of_training_order(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        full = fit_rf(X, y, n_trees=4, seed=9, max_depth=2)
        # tree t of a smaller forest must equal tree t of the bigger one
        small = fit_rf(X, y, n_trees=2, seed=9, max_depth=2)
        for t in range(2):
            assert full.in_bag_leaf[t].tolist() == small.in_bag_leaf[t].tolist()
            # leaf means weigh each row by its bootstrap multiplicity
            assert full.trees[t].value.tolist() == small.trees[t].value.tolist()

    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_in_bag_leaf_is_redrawn_bootstrap_routed(self, bootstrap):
        rng = np.random.default_rng(15)
        n, seed = 70, 21
        X = np.round(rng.normal(size=(n, 4)), 1)  # rounded, so rows tie on features
        forest = fit_rf(
            X, rng.normal(size=n), 6, seed, max_depth=4, bootstrap=bootstrap, feature_fraction=0.75
        )
        for t, (tree, leaf, cols) in enumerate(
            zip(forest.trees, forest.in_bag_leaf, forest.feature_subsets)
        ):
            draw = np.random.default_rng(np.random.SeedSequence([seed, t]))
            sample = draw.integers(0, n, size=n) if bootstrap else np.arange(n)
            in_bag = np.flatnonzero(leaf >= 0)
            assert in_bag.tolist() == np.unique(sample).tolist()
            assert np.all(leaf[leaf < 0] == -1)
            assert leaf[in_bag].tolist() == route(tree, X[np.ix_(in_bag, cols)]).tolist()


class TestPrefixes:
    """A forest's first trees, pruned, and a boosting run's first stages are
    the smaller fits, compared by ==."""

    @pytest.mark.parametrize(
        "bootstrap,feature_fraction", [(True, 1.0), (False, 1.0), (True, 0.5), (False, 0.7)]
    )
    def test_pruned_forest_prefix_equals_fit_rf(self, bootstrap, feature_fraction):
        rng = np.random.default_rng(41)
        X, y = tie_heavy_design("rounded", rng)
        kw = dict(seed=17, bootstrap=bootstrap, feature_fraction=feature_fraction, min_samples_leaf=2)
        grown = fit_rf(X, y, 6, max_depth=6, min_samples_split=4, **kw)
        for n_trees, depth, split in [(6, 6, 4), (6, 2, 4), (3, 4, 12), (1, 0, 4), (4, 6, 30)]:
            want = fit_rf(X, y, n_trees, max_depth=depth, min_samples_split=split, **kw)
            got = prune_forest(grown, n_trees, depth, split)
            assert got.n_trees == n_trees
            for a, b in zip(got.trees, want.trees):
                assert_equal_trees(a, b)
            assert [v.tolist() for v in got.in_bag_leaf] == [v.tolist() for v in want.in_bag_leaf]
            assert [c.tolist() for c in got.feature_subsets] == [
                c.tolist() for c in want.feature_subsets
            ]
            assert got.y_train.tolist() == want.y_train.tolist()
            assert (got.bootstrap, got.seed, got.feature_fraction) == (
                want.bootstrap,
                want.seed,
                want.feature_fraction,
            )
            # the flat leaf-member table, compared whole: (first, ptr, ranks)
            assert [a.tolist() for a in got.leaf_members] == [b.tolist() for b in want.leaf_members]
        with pytest.raises(ValueError, match="cannot cut 7 trees"):
            prune_forest(grown, 7, 6, 4)

    def test_boosting_prefix_equals_fit_gb(self):
        rng = np.random.default_rng(42)
        X, y = tie_heavy_design("bootstrap", rng)
        grown = fit_gb(X, y, 15, 0.3, max_depth=3, min_samples_split=5, min_samples_leaf=2)
        for n_stages in (1, 7, 15):
            want = fit_gb(X, y, n_stages, 0.3, max_depth=3, min_samples_split=5, min_samples_leaf=2)
            got = first_stages(grown, n_stages)
            assert (got.init, got.learning_rate) == (want.init, want.learning_rate)
            assert got.sse_history == want.sse_history
            assert got.n_stages == n_stages
            for a, b in zip(got.trees, want.trees):
                assert_equal_trees(a, b)
        with pytest.raises(ValueError, match="cannot cut 16 stages"):
            first_stages(grown, 16)


class TestGradientBoosting:
    def test_single_depth0_stage_predicts_mean(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        model = fit_gb(X, y, n_stages=1, learning_rate=1.0, max_depth=0)
        assert predict_gb(model, rng.normal(size=(1, 2)))[0] == pytest.approx(float(np.mean(y)))

    def test_stack_equals_one_row_calls(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(90, 3))
        model = fit_gb(X, rng.normal(size=90), n_stages=30, learning_rate=0.1, max_depth=3)
        queries = rng.normal(size=(50, 3))
        want = []
        for x in queries:
            out = model.init
            for tree in model.trees:
                out += model.learning_rate * predict_tree_mean(tree, x[None])[0]
            want.append(out)
        assert [predict_gb(model, x[None])[0] for x in queries] == want
        assert predict_gb(model, queries).tolist() == want
        assert predict_gb(model, np.zeros((0, 3))).shape == (0,)

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
        assert qrf_predict(forest, [[1.0]], 0.5)[0] == 2.0

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        forest = fit_rf(X, y, n_trees=6, seed=2, max_depth=3)
        for _ in range(10):
            w = qrf_weights(forest, rng.normal(size=(1, 2)))[0]
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
                assert qrf_predict(forest, x[None], alpha)[0] == qrf_oracle(forest, x, alpha)

    def test_quantile_nondecreasing_in_alpha(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        forest = fit_rf(X, y, n_trees=4, seed=7, max_depth=4)
        for _ in range(10):
            x = rng.normal(size=2)
            qs = [qrf_predict(forest, x[None], a)[0] for a in np.linspace(0.05, 0.95, 10)]
            assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_levels_match_oracle(self):
        rng = np.random.default_rng(12)
        X = np.round(rng.normal(size=(60, 3)), 1)
        y = np.round(rng.normal(size=60), 1)  # tied targets
        forest = fit_rf(X, y, n_trees=5, seed=4, max_depth=4)
        for _ in range(15):
            x = np.round(rng.normal(size=3), 1)
            got = qrf_predict(forest, x[None], LEVELS)
            assert got.tolist() == [[qrf_oracle(forest, x, a) for a in LEVELS]]
            assert qrf_predict(forest, x[None], 0.5).shape == (1,)

    @pytest.mark.parametrize("block_cells", [1 << 20, 100])
    def test_stack_equals_one_row_calls_and_oracle(self, monkeypatch, block_cells):
        # a small block size splits the batch into blocks of 2 rows
        monkeypatch.setattr(baselines, "_QRF_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(15)
        X = np.round(rng.normal(size=(50, 3)), 1)
        forest = fit_rf(X, np.round(rng.normal(size=50), 1), n_trees=6, seed=1, max_depth=4)
        queries = np.round(rng.normal(size=(31, 3)), 1)
        weights = qrf_weights(forest, queries)
        assert weights.shape == (31, 50)
        for i, x in enumerate(queries):
            assert weights[i].tolist() == qrf_weights(forest, x[None])[0].tolist()
        got = qrf_predict(forest, queries, LEVELS)
        median = qrf_predict(forest, queries, 0.5)
        assert got.shape == (31, 3) and median.shape == (31,)
        for i, x in enumerate(queries):
            want = [qrf_oracle(forest, x, a) for a in LEVELS]
            assert got[i].tolist() == qrf_predict(forest, x[None], LEVELS)[0].tolist() == want
            assert median[i] == qrf_predict(forest, x[None], 0.5)[0] == want[1]
        assert qrf_predict(forest, np.zeros((0, 3)), LEVELS).shape == (0, 3)

    def test_baseline_fit_matches_oracle_across_save_load(self, tmp_path):
        train = generate_synthetic(SyntheticSpec(n_projects=120, seed=21))
        rows = generate_synthetic(SyntheticSpec(n_projects=25, seed=22)).rows
        fit = fit_model("qrf", train, {"max_depth": 4, "min_samples_split": 10, "n_trees": 8}, seed=3)
        save_model(tmp_path / "qrf.json", fit)
        for model in (fit, load_model(tmp_path / "qrf.json")):
            point = model.predict_point(rows)
            intervals = model.predict_intervals(rows)
            for i, row in enumerate(rows):
                x = encode_row(model.schema, model.encoding, [row])[0]
                assert point[i] == qrf_oracle(model.inner, x, 0.5)
                assert intervals[i].tolist() == [qrf_oracle(model.inner, x, a) for a in LEVELS]

    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("block_cells", [1 << 20, 100])
    def test_bits_equal_tree_by_tree(self, monkeypatch, bootstrap, block_cells):
        # 100 cells over 50 training rows: blocks of 2 query rows
        monkeypatch.setattr(baselines, "_QRF_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(23)
        X = np.round(rng.normal(size=(50, 5)), 1)
        y = np.round(rng.gamma(2.0, 2.0, size=50))  # tied targets
        forest = fit_rf(
            X, y, 14, seed=8, max_depth=5, bootstrap=bootstrap, feature_fraction=0.6
        )
        queries = np.round(rng.normal(size=(25, 5)), 1)
        want = qrf_weights_by_tree(forest, queries)
        assert qrf_weights(forest, queries).tobytes() == want.tobytes()
        got = qrf_predict(forest, queries, LEVELS)
        assert got.tobytes() == qrf_quantiles_by_tree(forest, queries, LEVELS).tobytes()
        # the same forest with its trees in reverse order adds the same shares
        # in another order: some weights differ in their last bits, so these
        # data tell a tree-order sum from any other
        backward = replace(
            forest,
            trees=forest.trees[::-1],
            in_bag_leaf=forest.in_bag_leaf[::-1],
            feature_subsets=forest.feature_subsets[::-1],
        )
        assert qrf_weights_by_tree(backward, queries).tobytes() != want.tobytes()
        empty = np.zeros((0, 5))
        assert qrf_weights(forest, empty).shape == (0, 50)
        assert qrf_predict(forest, empty, LEVELS).shape == (0, 3)

    @pytest.fixture(scope="class")
    def shallow(self):
        """A 960-row, 100-tree, depth-2 forest (the default grid's shallowest
        depth and the default tree count) and 240 queries: about 45,000 leaf
        members per query."""
        rng = np.random.default_rng(29)
        forest = fit_rf(rng.normal(size=(960, 4)), rng.gamma(2.0, 2.0, size=960), 100, seed=2,
                        max_depth=2)
        return forest, rng.normal(size=(240, 4))

    def test_block_members_bound_peak_memory(self, shallow):
        forest, queries = shallow
        forest.leaf_members  # built once per forest, not per call
        tracemalloc.start()
        try:
            qrf_predict(forest, queries, LEVELS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_one_member_cap_keeps_every_bit(self, monkeypatch, shallow):
        # every query then exceeds the cap and is a block of its own
        forest, queries = shallow
        want = qrf_predict(forest, queries, LEVELS)
        monkeypatch.setattr(baselines, "_QRF_BLOCK_MEMBERS", 1)
        assert qrf_predict(forest, queries, LEVELS).tobytes() == want.tobytes()
        assert qrf_predict(forest, queries[:0], LEVELS).shape == (0, 3)

    def test_alpha_range(self):
        X = np.arange(6.0).reshape(-1, 1)
        forest = fit_rf(X, np.arange(6.0), n_trees=1, seed=0, max_depth=1)
        with pytest.raises(ValueError):
            qrf_predict(forest, [[1.0]], 0.0)
        with pytest.raises(ValueError):
            qrf_predict(forest, [[1.0]], (0.5, 1.0))
