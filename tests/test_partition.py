import numpy as np
import pytest

from oracles import assert_tree_equals_oracle, cart_oracle, knn_scan, node_sse

from partqr.baselines import fit_gb
from partqr.partition import (
    assign_cluster,
    build_cart,
    fit_kmeans,
    knn_query,
    predict_tree_mean,
    route,
)


class TestCart:
    def test_constant_target_single_leaf(self):
        X = np.arange(8.0).reshape(-1, 1)
        tree = build_cart(X, np.full(8, 3.0), max_depth=5)
        assert tree.n_leaves == 1 and tree.n_internal == 0

    def test_depth_zero_root_leaf(self):
        X = np.arange(8.0).reshape(-1, 1)
        tree = build_cart(X, np.arange(8.0), max_depth=0)
        assert tree.n_leaves == 1
        assert tree.nodes[0].rows.tolist() == list(range(8))

    def test_step_data_split(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.where(X[:, 0] < 5, 0.0, 10.0)
        tree = build_cart(X, y, max_depth=1)
        assert tree.nodes[0].feature == 0
        assert tree.nodes[0].threshold == pytest.approx(4.5)
        left, right = tree.nodes[tree.nodes[0].left], tree.nodes[tree.nodes[0].right]
        assert node_sse(y[left.rows]) == 0.0 and node_sse(y[right.rows]) == 0.0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            n = int(rng.integers(20, 120))
            p = int(rng.integers(1, 5))
            X = rng.normal(size=(n, p))
            y = rng.normal(size=n) + X @ rng.normal(size=p)
            tree = build_cart(X, y, max_depth=3, min_samples_split=5, min_samples_leaf=2)
            oracle = cart_oracle(X, y, max_depth=3, min_samples_split=5, min_samples_leaf=2)
            assert_tree_equals_oracle(tree, oracle)

    def test_leaves_partition_rows(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        tree = build_cart(X, y, max_depth=4, min_samples_split=4)
        seen = np.concatenate([leaf.rows for leaf in tree.leaf_nodes()])
        assert sorted(seen.tolist()) == list(range(60))

    def test_every_split_strictly_reduces_node_sse(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(80, 2))
        y = rng.normal(size=80)
        tree = build_cart(X, y, max_depth=5, min_samples_split=4)

        def rows_of(node_id):
            node = tree.nodes[node_id]
            if node.is_leaf:
                return node.rows
            return np.concatenate([rows_of(node.left), rows_of(node.right)])

        for node_id, node in enumerate(tree.nodes):
            if node.is_leaf:
                continue
            parent = rows_of(node_id)
            left, right = rows_of(node.left), rows_of(node.right)
            assert node_sse(y[parent]) - (node_sse(y[left]) + node_sse(y[right])) > 1e-12

    def test_min_samples_leaf_honored(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        tree = build_cart(X, y, max_depth=8, min_samples_split=2, min_samples_leaf=5)
        assert all(leaf.rows.size >= 5 for leaf in tree.leaf_nodes())

    def test_depth_limit(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        assert build_cart(X, y, max_depth=2).depth <= 2

    def test_invalid_hyperparams(self):
        X = np.arange(4.0).reshape(-1, 1)
        with pytest.raises(ValueError):
            build_cart(X, np.arange(4.0), max_depth=-1)
        with pytest.raises(ValueError):
            build_cart(X, np.arange(4.0), max_depth=2, min_samples_split=1)


def tie_heavy_design(kind, rng):
    """Designs with many equal values per column, as a presort must order them."""
    n = 90
    if kind == "rounded":
        X = np.round(rng.normal(size=(n, 3)), 1)
    elif kind == "one_hot":  # five levels, so no two indicators split a node alike
        X = np.column_stack([np.eye(5)[rng.integers(0, 5, n)], rng.uniform(size=n)])
    else:  # a bootstrap resample of a rounded design: duplicated rows
        X = np.round(rng.normal(size=(n, 3)), 1)[rng.integers(0, n, n)]
    y = rng.normal(size=n) + X @ rng.normal(size=X.shape[1])
    return X, y


def assert_same_tree(a, b):
    assert len(a.nodes) == len(b.nodes)
    for na, nb in zip(a.nodes, b.nodes):
        assert (na.feature, na.left, na.right, na.leaf_id) == (nb.feature, nb.left, nb.right, nb.leaf_id)
        assert na.value == nb.value
        assert na.threshold == nb.threshold or (np.isnan(na.threshold) and np.isnan(nb.threshold))
        assert (na.rows is None) == (nb.rows is None)
        if na.rows is not None:
            assert na.rows.tolist() == nb.rows.tolist()


class TestCartPresort:
    @pytest.mark.parametrize("min_samples_leaf", [1, 3])
    @pytest.mark.parametrize("kind", ["rounded", "one_hot", "bootstrap"])
    def test_tie_heavy_designs_match_oracle(self, kind, min_samples_leaf):
        rng = np.random.default_rng(12)
        for _ in range(4):
            X, y = tie_heavy_design(kind, rng)
            params = dict(max_depth=3, min_samples_split=8, min_samples_leaf=min_samples_leaf)
            tree = build_cart(X, y, **params)
            assert_tree_equals_oracle(tree, cart_oracle(X, y, **params))
            assert all(np.all(np.diff(leaf.rows) > 0) for leaf in tree.leaf_nodes())

    def test_boosting_stages_equal_fresh_builds(self):
        # every stage shares one presort; each must equal a build that sorts for itself
        rng = np.random.default_rng(13)
        X, y = tie_heavy_design("rounded", rng)
        model = fit_gb(X, y, n_stages=12, learning_rate=0.3, max_depth=3, min_samples_leaf=2)
        current = np.full(y.shape[0], float(np.mean(y)))
        for tree in model.trees:
            fresh = build_cart(X, y - current, 3, 2, 2)
            assert_same_tree(tree, fresh)
            for leaf in fresh.leaf_nodes():
                current[leaf.rows] += 0.3 * leaf.value

    def test_order_shape_checked(self):
        X = np.arange(12.0).reshape(6, 2)
        with pytest.raises(ValueError, match="order has shape"):
            build_cart(X, np.arange(6.0), max_depth=2, order=np.zeros((6, 2), dtype=int))


class TestRoute:
    def test_depth_zero_always_same_leaf(self):
        X = np.arange(5.0).reshape(-1, 1)
        tree = build_cart(X, np.arange(5.0), max_depth=0)
        assert {route(tree, [v]) for v in (-10.0, 0.0, 99.0)} == {0}

    def test_step_sides(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.where(X[:, 0] < 5, 0.0, 10.0)
        tree = build_cart(X, y, max_depth=1)
        left_id = tree.nodes[tree.nodes[0].left].leaf_id
        right_id = tree.nodes[tree.nodes[0].right].leaf_id
        assert route(tree, [3.0]) == left_id
        assert route(tree, [7.0]) == right_id
        assert route(tree, [4.5]) == left_id  # boundary goes left

    def test_dimension_mismatch(self):
        tree = build_cart(np.arange(4.0).reshape(-1, 1), np.arange(4.0), max_depth=1)
        with pytest.raises(ValueError):
            route(tree, [1.0, 2.0])

    def test_predict_tree_mean_matches_leaf(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.where(X[:, 0] < 5, 0.0, 10.0)
        tree = build_cart(X, y, max_depth=1)
        assert predict_tree_mean(tree, [2.0]) == 0.0
        assert predict_tree_mean(tree, [8.0]) == 10.0


def lloyd_oracle(X, init, max_iter=300):
    """Plain Lloyd iteration from given centroids, lowest-index tie-breaks."""
    centroids = init.copy()
    assign = None
    for _ in range(max_iter):
        d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(centroids.shape[0]):
            members = X[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return centroids, assign


class TestKMeans:
    def test_k1_centroid_is_mean(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        part = fit_kmeans(X, 1, seed=0)
        assert part.centroids[0] == pytest.approx(X.mean(axis=0))

    def test_two_distinct_codes(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        part = fit_kmeans(X, 2, seed=0)
        found = {tuple(c) for c in part.centroids}
        assert found == {(1.0, 0.0), (0.0, 1.0)}
        assert part.objective_history[-1] == pytest.approx(0.0)

    def test_matches_reference_lloyd(self):
        rng = np.random.default_rng(12)
        X = np.zeros((30, 5))
        X[np.arange(30), rng.integers(0, 5, 30)] = 1.0
        # distinct init codes so the empty-cluster reseed path stays out of play
        init = np.eye(5)[[0, 2, 4]]
        mine = fit_kmeans(X, 3, seed=0, init_centroids=init)
        ref_centroids, ref_assign = lloyd_oracle(X, init.copy())
        assert mine.centroids == pytest.approx(ref_centroids)
        got = np.array([assign_cluster(mine, row) for row in X])
        assert got.tolist() == ref_assign.tolist()

    def test_k_exceeds_distinct_rows(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            fit_kmeans(X, 3, seed=0)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(9)
        X = np.zeros((80, 6))
        X[np.arange(80), rng.integers(0, 6, 80)] = 1.0
        part = fit_kmeans(X, 4, seed=3)
        hist = part.objective_history
        assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))

    def test_no_empty_clusters(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 2))
        part = fit_kmeans(X, 6, seed=1)
        assign = np.array([assign_cluster(part, row) for row in X])
        assert len(set(assign.tolist())) == 6

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(50, 3))
        a = fit_kmeans(X, 4, seed=7)
        b = fit_kmeans(X, 4, seed=7)
        assert a.centroids == pytest.approx(b.centroids)


class TestAssign:
    def test_exact_centroid_match(self):
        part = fit_kmeans(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]), 3, seed=0)
        for cid in range(3):
            assert assign_cluster(part, part.centroids[cid]) == cid

    def test_equidistant_tie_goes_low(self):
        from partqr.partition import ClusterPartition

        part = ClusterPartition(centroids=np.array([[0.0], [2.0]]))
        assert assign_cluster(part, [1.0]) == 0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(15)
        part = fit_kmeans(rng.normal(size=(30, 4)), 5, seed=2)
        for _ in range(20):
            x = rng.normal(size=4)
            d = ((part.centroids - x) ** 2).sum(axis=1)
            assert assign_cluster(part, x) == int(np.argmin(d))

    def test_dimension_mismatch(self):
        part = fit_kmeans(np.array([[1.0, 0.0], [0.0, 1.0]]), 2, seed=0)
        with pytest.raises(ValueError):
            assign_cluster(part, [1.0])


def assert_same_neighbors(got, want):
    assert [i for i, _ in got] == [i for i, _ in want]
    assert [d for _, d in got] == pytest.approx([d for _, d in want])


class TestKnn:
    def test_query_at_training_point(self):
        rng = np.random.default_rng(16)
        P = rng.normal(size=(20, 3))
        got = knn_query(P, P[7], 1)
        assert got[0][0] == 7 and got[0][1] == pytest.approx(0.0)

    def test_k_equals_n_returns_all(self):
        rng = np.random.default_rng(17)
        P = rng.normal(size=(12, 2))
        got = knn_query(P, rng.normal(size=2), 12)
        assert sorted(i for i, _ in got) == list(range(12))

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(18)
        P = rng.normal(size=(50, 4))
        for _ in range(25):
            x = rng.normal(size=4)
            assert_same_neighbors(knn_query(P, x, 5), knn_scan(P, x, 5))

    def test_one_hot_ties_break_by_index(self):
        # many duplicate one-hot rows: ties must resolve to lower indices
        P = np.zeros((12, 3))
        P[np.arange(12), np.arange(12) % 3] = 1.0
        got = knn_query(P, [1.0, 0.0, 0.0], 4)
        assert_same_neighbors(got, knn_scan(P, np.array([1.0, 0.0, 0.0]), 4))

    def test_large_random_equals_scan(self):
        rng = np.random.default_rng(19)
        P = np.zeros((1000, 8))
        P[np.arange(1000), rng.integers(0, 8, 1000)] = 1.0
        for _ in range(10):
            x = np.zeros(8)
            x[int(rng.integers(0, 8))] = 1.0
            k = int(rng.integers(1, 200))
            assert_same_neighbors(knn_query(P, x, k), knn_scan(P, x, k))

    def test_k_out_of_range(self):
        P = np.zeros((3, 2))
        with pytest.raises(ValueError):
            knn_query(P, [0.0, 0.0], 0)
        with pytest.raises(ValueError):
            knn_query(P, [0.0, 0.0], 4)
