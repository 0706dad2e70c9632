import gc
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    assert_tree_equals_oracle,
    cart_oracle,
    depth_first_shape_oracle,
    knn_scan,
    node_sse,
    node_view,
    split_scan_oracle,
)

from partqr.baselines import fit_gb
from partqr.partition import (
    RegressionTree,
    _best_split,
    _shape,
    assign_cluster,
    build_cart,
    check_trees,
    fit_kmeans,
    knn_query,
    predict_tree_mean,
    prune,
    route,
)


Node = namedtuple("Node", "feature threshold right leaf_id value")


def nodes_of(tree):
    """Each node of a tree as a Node of plain Python values, read from its
    arrays and from its walk's `right`. A node is a leaf when its feature is
    < 0 (and is then its own right child); inner node i's left child is
    node i + 1."""
    arrays = (tree.feature, tree.threshold, tree.walk.right, tree.leaf_id, tree.value)
    return [Node(*node) for node in zip(*(array.tolist() for array in arrays))]


class TestCart:
    @pytest.mark.parametrize("n_features", [True, -1, 2.0])
    def test_check_tree_refuses_a_width_that_is_not_a_count(self, n_features):
        X = np.arange(8.0).reshape(-1, 2)
        tree = build_cart(X, np.arange(4.0), max_depth=2)
        check_trees(tree.feature, [tree.feature.size], [tree.n_features])
        with pytest.raises(ValueError, match="n_features must be a count"):
            check_trees(tree.feature, [tree.feature.size], [n_features])

    def test_constant_target_single_leaf(self):
        X = np.arange(8.0).reshape(-1, 1)
        tree = build_cart(X, np.full(8, 3.0), max_depth=5)
        assert tree.n_leaves == 1 and np.count_nonzero(tree.feature >= 0) == 0

    def test_depth_zero_root_leaf(self):
        X = np.arange(8.0).reshape(-1, 1)
        tree = build_cart(X, np.arange(8.0), max_depth=0)
        assert tree.n_leaves == 1
        assert tree.leaf_rows[tree.leaf_id[0]].tolist() == list(range(8))

    def test_step_data_split(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.where(X[:, 0] < 5, 0.0, 10.0)
        tree = build_cart(X, y, max_depth=1)
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(4.5)
        left, right = (tree.leaf_rows[tree.leaf_id[child]] for child in (1, tree.walk.right[0]))
        assert node_sse(y[left]) == 0.0 and node_sse(y[right]) == 0.0

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
        seen = np.concatenate(tree.leaf_rows)
        assert sorted(seen.tolist()) == list(range(60))

    def test_every_split_strictly_reduces_node_sse(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(80, 2))
        y = rng.normal(size=80)
        tree = build_cart(X, y, max_depth=5, min_samples_split=4)

        nodes = nodes_of(tree)

        def rows_of(node_id):
            node = nodes[node_id]
            if node.feature < 0:
                return tree.leaf_rows[node.leaf_id]
            return np.concatenate([rows_of(node_id + 1), rows_of(node.right)])

        for node_id, node in enumerate(nodes):
            if node.feature < 0:
                continue
            parent = rows_of(node_id)
            left, right = rows_of(node_id + 1), rows_of(node.right)
            assert node_sse(y[parent]) - (node_sse(y[left]) + node_sse(y[right])) > 1e-12

    def test_min_samples_leaf_honored(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        tree = build_cart(X, y, max_depth=8, min_samples_split=2, min_samples_leaf=5)
        assert all(rows.size >= 5 for rows in tree.leaf_rows)

    def test_depth_limit(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        assert build_cart(X, y, max_depth=2).walk.depth <= 2

    def test_invalid_hyperparams(self):
        X = np.arange(4.0).reshape(-1, 1)
        with pytest.raises(ValueError):
            build_cart(X, np.arange(4.0), max_depth=-1)
        with pytest.raises(ValueError):
            build_cart(X, np.arange(4.0), max_depth=2, min_samples_split=1)


@st.composite
def depth_first_features(draw, max_nodes=60):
    """One tree's `feature` array, depth first: each node is a leaf (-1) or
    splits on one of four features, and the tree closes within `max_nodes`."""
    feature, open_places = [], 1
    while open_places:
        inner = len(feature) + open_places + 1 < max_nodes and draw(st.booleans())
        feature.append(draw(st.integers(0, 3)) if inner else -1)
        open_places += 1 if inner else -1
    return feature


LEFT_CHAIN = [0] * 40 + [-1] * 41
RIGHT_CHAIN = [0, -1] * 40 + [-1]


class TestShape:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(depth_first_features(), min_size=1, max_size=50))
    @example([[-1]])
    @example([LEFT_CHAIN])
    @example([RIGHT_CHAIN, [-1], LEFT_CHAIN])
    def test_shape_equals_recursive_descent(self, trees):
        sizes = [len(tree) for tree in trees]
        right, leaf_id, roots, depth = _shape(np.concatenate(trees).astype(np.intp), sizes)
        assert roots.tolist() == (np.cumsum(sizes) - sizes).tolist()
        depths = []
        for tree, root in zip(trees, roots.tolist()):
            _, want_right, want_leaf_id, want_depth = depth_first_shape_oracle(tree)
            nodes = slice(root, root + len(tree))
            # in the stack a leaf is its own right child
            own = [i if r < 0 else r for i, r in enumerate(want_right)]
            assert (right[nodes] - root).tolist() == own
            assert leaf_id[nodes].tolist() == want_leaf_id
            depths.append(want_depth)
        assert depth == max(depths)

    @settings(max_examples=60, deadline=None)
    @given(depth_first_features())
    @example(LEFT_CHAIN)
    @example(RIGHT_CHAIN)
    def test_a_trees_derived_arrays_equal_recursive_descent(self, feature):
        tree = RegressionTree(feature, np.full(len(feature), np.nan), np.zeros(len(feature)), 4)
        left, right, leaf_id, depth = depth_first_shape_oracle(feature)
        # an inner node's left child is the next node, and in the walk a leaf is its own right child
        assert left == [i + 1 if f >= 0 else -1 for i, f in enumerate(feature)]
        own = [i if r < 0 else r for i, r in enumerate(right)]
        assert (tree.walk.right.tolist(), tree.leaf_id.tolist()) == (own, leaf_id)
        assert tree.walk.depth == depth and tree.n_leaves == max(leaf_id) + 1


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
    nodes_a, nodes_b = nodes_of(a), nodes_of(b)
    assert len(nodes_a) == len(nodes_b)
    for na, nb in zip(nodes_a, nodes_b):
        assert (na.feature, na.right, na.leaf_id) == (nb.feature, nb.right, nb.leaf_id)
        assert na.value == nb.value
        assert na.threshold == nb.threshold or (np.isnan(na.threshold) and np.isnan(nb.threshold))
    assert (a.leaf_rows is None) == (b.leaf_rows is None)
    if a.leaf_rows is not None:
        assert len(a.leaf_rows) == len(b.leaf_rows)
        for rows_a, rows_b in zip(a.leaf_rows, b.leaf_rows):
            assert rows_a.tolist() == rows_b.tolist()


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
            assert all(np.all(np.diff(rows) > 0) for rows in tree.leaf_rows)

    def test_boosting_stages_equal_fresh_builds(self):
        # every stage shares one presort; each must equal a build that sorts for itself
        rng = np.random.default_rng(13)
        X, y = tie_heavy_design("rounded", rng)
        model = fit_gb(X, y, n_stages=12, learning_rate=0.3, max_depth=3, min_samples_leaf=2)
        current = np.full(y.shape[0], float(np.mean(y)))
        for tree in model.trees:
            fresh = build_cart(X, y - current, 3, 2, 2)
            assert_same_tree(tree, fresh)
            for nd in nodes_of(fresh):
                if nd.feature < 0:
                    current[fresh.leaf_rows[nd.leaf_id]] += 0.3 * nd.value

    def test_order_shape_checked(self):
        X = np.arange(12.0).reshape(6, 2)
        with pytest.raises(ValueError, match="order has shape"):
            build_cart(X, np.arange(6.0), max_depth=2, order=np.zeros((6, 2), dtype=int))


def assert_same_split(got, want):
    """Bit for bit: the cost's bytes, the feature and the threshold's bytes."""
    assert (got is None) == (want is None)
    if want is not None:
        assert got[1] == want[1]
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()


class TestSplitSearch:
    """Scoring only the valid cut positions gives the full scan's answer."""

    @pytest.mark.parametrize("kind", ["rounded", "one_hot", "bootstrap"])
    def test_random_nodes_equal_full_scan(self, kind):
        rng = np.random.default_rng(41)
        for _ in range(3):
            X, y = tie_heavy_design(kind, rng)
            n = X.shape[0]
            for size in range(2, n + 1):
                rows = rng.choice(n, size=size, replace=False)
                xs, ys = node_view(X, y, rows)
                for leaf in (1, 3, n // 2):
                    assert_same_split(_best_split(xs, ys, leaf), split_scan_oracle(xs, ys, leaf))

    def test_no_valid_cut_is_none(self):
        rng = np.random.default_rng(42)
        X = np.tile(rng.normal(size=3), (6, 1))  # six equal rows
        xs, ys = node_view(X, rng.normal(size=6), np.arange(6))
        assert _best_split(xs, ys, 1) is None
        assert split_scan_oracle(xs, ys, 1) is None
        X, y = tie_heavy_design("rounded", rng)
        xs, ys = node_view(X, y, np.arange(10))
        assert _best_split(xs, ys, 6) is None  # no cut leaves two children of 6
        assert split_scan_oracle(xs, ys, 6) is None

    def test_valid_cuts_only_on_one_hot_columns(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            # a constant numeric column after five indicators: at most five cuts
            X = np.column_stack([np.eye(5)[rng.integers(0, 5, n)], np.full(n, 0.25)])
            y = np.round(rng.normal(size=n), 1)
            xs, ys = node_view(X, y, np.arange(n))
            got = _best_split(xs, ys, 1)
            assert_same_split(got, split_scan_oracle(xs, ys, 1))
            assert got is None or (got[1] < 5 and got[2] == 0.5)


def assert_cuts_separate(tree, X, min_samples_leaf=1):
    """Every inner node sends at least `min_samples_leaf` training rows each
    way by `x <= threshold`, and those are exactly the rows the builder put
    in its children: each leaf holds the rows routing sends it, and a finite
    mean."""
    nodes = nodes_of(tree)

    def walk(node_id, rows):
        node = nodes[node_id]
        if node.feature < 0:
            assert tree.leaf_rows[node.leaf_id].tolist() == rows.tolist()
            assert np.isfinite(node.value)
            return
        goes_left = X[rows, node.feature] <= node.threshold
        assert min(goes_left.sum(), (~goes_left).sum()) >= min_samples_leaf
        walk(node_id + 1, rows[goes_left])
        walk(node.right, rows[~goes_left])

    walk(0, np.arange(X.shape[0]))


def ulps_above(x, steps):
    """x moved up by each count of `steps` adjacent doubles."""
    out = []
    for k in steps:
        value = float(x)
        for _ in range(k):
            value = math.nextafter(value, math.inf)
        out.append(value)
    return np.array(out)


BIG = np.finfo(float).max


class TestAdjacentValues:
    """A threshold between adjacent doubles a < b must not round onto b, and
    one between huge values must not overflow: either way `x <= threshold`
    would apply another split than the one scored."""

    def test_point_three_against_a_tenth_plus_a_fifth(self):
        a, b = 0.3, 0.1 + 0.2
        assert np.nextafter(a, 1.0) == b
        X = np.array([[a], [a], [b], [b]])
        tree = build_cart(X, [0.0, 0.0, 10.0, 10.0], max_depth=1)
        assert tree.threshold[0] == a
        assert [rows.tolist() for rows in tree.leaf_rows] == [[0, 1], [2, 3]]
        assert tree.value[tree.leaf_id >= 0].tolist() == [0.0, 10.0]

    @pytest.mark.parametrize(
        "column",
        [
            1e15 + np.arange(8) / 8,  # eight adjacent doubles
            ulps_above(0.3, [0, 1, 2, 3]),
            np.array([1.6e308, 1.7e308, -1.7e308, -1.6e308]),
            np.array([np.nextafter(BIG, 0), BIG, -BIG, np.nextafter(-BIG, 0)]),
            np.array([0.0, 5e-324, 1e-323, -5e-324]),  # subnormals
        ],
        ids=["1e15+k/8", "0.3+ulps", "1.7e308", "max_double", "subnormal"],
    )
    @pytest.mark.parametrize("min_samples_leaf", [1, 3])
    def test_trees_separate_what_they_scored(self, column, min_samples_leaf):
        rng = np.random.default_rng(5)
        X = np.repeat(column, 6)[:, None]
        y = np.repeat(np.arange(column.size) * 10.0, 6) + rng.normal(size=X.shape[0])
        params = dict(max_depth=6, min_samples_leaf=min_samples_leaf)
        tree = build_cart(X, y, **params)
        assert tree.n_leaves == column.size
        assert_cuts_separate(tree, X, min_samples_leaf)
        assert_tree_equals_oracle(tree, cart_oracle(X, y, **params))
        assert np.isfinite(tree.threshold[tree.feature >= 0]).all()
        xs, ys = node_view(X, y, np.arange(X.shape[0]))
        got = _best_split(xs, ys, min_samples_leaf)
        assert_same_split(got, split_scan_oracle(xs, ys, min_samples_leaf))

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True),
        cells=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 9)), min_size=2, max_size=40),
        min_samples_leaf=st.integers(1, 3),
    )
    # the root's two best cuts tie exactly (children's SSE 62 either way)
    @example(
        base=0.0,
        cells=[(0, 2), (0, 5), (0, 5), (0, 6), (0, 7), (0, 9), (1, 0), (1, 2), (2, 8)],
        min_samples_leaf=1,
    )
    def test_columns_a_few_ulps_apart(self, base, cells, min_samples_leaf):
        steps, targets = zip(*cells)
        X = ulps_above(base, list(steps))[:, None]
        y = np.array(targets, dtype=float)
        params = dict(max_depth=4, min_samples_leaf=min_samples_leaf)
        tree = build_cart(X, y, **params)
        assert_cuts_separate(tree, X, min_samples_leaf)
        assert_tree_equals_oracle(tree, cart_oracle(X, y, **params))


def assert_equal_trees(a, b):
    """Node for node by ==: order, features, thresholds, children, leaf ids,
    values and ascending leaf rows, and the settings each tree records."""
    assert (a.n_features, a.max_depth, a.min_samples_split, a.min_samples_leaf) == (
        b.n_features,
        b.max_depth,
        b.min_samples_split,
        b.min_samples_leaf,
    )
    assert_same_tree(a, b)
    for rows in a.leaf_rows or []:
        assert np.all(np.diff(rows) > 0)


def prune_design(kind, rng):
    if kind == "normal":
        X = rng.normal(size=(120, 3))
        return X, rng.normal(size=120) + X @ rng.normal(size=3)
    if kind == "zero_one":
        X = rng.integers(0, 2, size=(120, 4)).astype(float)
        return X, rng.normal(size=120) + X @ rng.normal(size=4)
    return tie_heavy_design(kind, rng)


class TestPrune:
    """A tree grown deeper, or with a smaller split size, holds the tree of
    any smaller settings at its top (CART's nested subtrees)."""

    @pytest.mark.parametrize("min_samples_leaf", [1, 3])
    @pytest.mark.parametrize("kind", ["rounded", "zero_one", "normal", "one_hot", "bootstrap"])
    def test_equals_fresh_build(self, kind, min_samples_leaf):
        rng = np.random.default_rng(31)
        for _ in range(2):
            X, y = prune_design(kind, rng)
            grown = build_cart(X, y, 7, 4, min_samples_leaf)
            for depth in range(8):
                for split in (4, 5, 9, 20, 60):
                    want = build_cart(X, y, depth, split, min_samples_leaf)
                    assert_equal_trees(prune(grown, depth, split), want)

    def test_leaves_cached_tree_unchanged(self):
        X, y = prune_design("rounded", np.random.default_rng(32))
        grown = build_cart(X, y, 6, 2)
        fresh = build_cart(X, y, 6, 2)
        cut = prune(grown, 2, 30)
        assert len(cut.value) < len(grown.value)
        assert_equal_trees(grown, fresh)
        assert_equal_trees(prune(grown, 6, 2), fresh)

    def test_cannot_grow(self):
        X, y = prune_design("normal", np.random.default_rng(33))
        grown = build_cart(X, y, 3, 10)
        with pytest.raises(ValueError, match="cannot cut depth 4"):
            prune(grown, 4, 10)
        with pytest.raises(ValueError, match="cannot cut"):
            prune(grown, 3, 5)
        with pytest.raises(ValueError, match="invalid tree hyperparameters"):
            prune(grown, 2, 1)


def test_build_and_prune_leave_no_reference_cycle():
    """A build's and a cut's working arrays are freed when they return, not
    at some later gc pass (they set peak memory over a boosting run)."""
    X, y = prune_design("normal", np.random.default_rng(34))
    gc.collect()
    gc.disable()
    try:
        cut = prune(build_cart(X, y, 6, 2), 3, 10)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert cut.walk.depth == 3


class TestRoute:
    def test_depth_zero_always_same_leaf(self):
        X = np.arange(5.0).reshape(-1, 1)
        tree = build_cart(X, np.arange(5.0), max_depth=0)
        assert {route(tree, [[v]])[0] for v in (-10.0, 0.0, 99.0)} == {0}

    def test_step_sides(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.where(X[:, 0] < 5, 0.0, 10.0)
        tree = build_cart(X, y, max_depth=1)
        left_id = tree.leaf_id[1]
        right_id = tree.leaf_id[tree.walk.right[0]]
        assert route(tree, [[3.0]])[0] == left_id
        assert route(tree, [[7.0]])[0] == right_id
        assert route(tree, [[4.5]])[0] == left_id  # boundary goes left

    def test_dimension_mismatch(self):
        tree = build_cart(np.arange(4.0).reshape(-1, 1), np.arange(4.0), max_depth=1)
        with pytest.raises(ValueError):
            route(tree, [[1.0, 2.0]])

    def test_predict_tree_mean_matches_leaf(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.where(X[:, 0] < 5, 0.0, 10.0)
        tree = build_cart(X, y, max_depth=1)
        assert predict_tree_mean(tree, [[2.0]])[0] == 0.0
        assert predict_tree_mean(tree, [[8.0]])[0] == 10.0

    def test_stack_equals_one_row_calls_and_node_walk(self):
        rng = np.random.default_rng(16)
        X = np.round(rng.normal(size=(200, 4)), 1)
        tree = build_cart(X, rng.normal(size=200), max_depth=6, min_samples_split=4)
        # fresh rows, training rows and rows sitting exactly on a threshold
        queries = np.vstack([np.round(rng.normal(size=(100, 4)), 1), X[:50]])
        nodes = nodes_of(tree)
        for nd in nodes[:5]:
            if nd.feature >= 0:
                q = queries[0].copy()
                q[nd.feature] = nd.threshold
                queries = np.vstack([queries, q])
        walked = []
        for x in queries:
            i = 0
            while nodes[i].feature >= 0:
                i = i + 1 if x[nodes[i].feature] <= nodes[i].threshold else nodes[i].right
            walked.append(nodes[i])
        ids, means = route(tree, queries), predict_tree_mean(tree, queries)
        ones = [queries[i : i + 1] for i in range(len(queries))]
        assert ids.tolist() == [route(tree, q)[0] for q in ones] == [nd.leaf_id for nd in walked]
        singles = np.concatenate([predict_tree_mean(tree, q) for q in ones])
        assert means.tobytes() == singles.tobytes()
        assert means.tolist() == [nd.value for nd in walked]
        assert route(tree, np.zeros((0, 4))).shape == (0,)
        with pytest.raises(ValueError, match="row width 3"):
            route(tree, np.zeros((2, 3)))


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
        got = np.concatenate([assign_cluster(mine, row[None]) for row in X])
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
        assign = np.concatenate([assign_cluster(part, row[None]) for row in X])
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
            assert assign_cluster(part, part.centroids[cid : cid + 1])[0] == cid

    def test_equidistant_tie_goes_low(self):
        from partqr.partition import ClusterPartition

        part = ClusterPartition(centroids=np.array([[0.0], [2.0]]))
        assert assign_cluster(part, [[1.0]])[0] == 0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(15)
        part = fit_kmeans(rng.normal(size=(30, 4)), 5, seed=2)
        for _ in range(20):
            x = rng.normal(size=4)
            d = ((part.centroids - x) ** 2).sum(axis=1)
            assert assign_cluster(part, x[None])[0] == int(np.argmin(d))

    def test_dimension_mismatch(self):
        part = fit_kmeans(np.array([[1.0, 0.0], [0.0, 1.0]]), 2, seed=0)
        with pytest.raises(ValueError):
            assign_cluster(part, [[1.0]])
        with pytest.raises(ValueError):
            assign_cluster(part, np.zeros((3, 1)))

    def test_stack_equals_one_row_calls(self):
        # one-hot rows against fractional centroids, as fit_composite assigns them
        rng = np.random.default_rng(17)
        X = np.zeros((300, 7))
        X[np.arange(300), rng.integers(0, 7, 300)] = 1.0
        X[np.arange(300), rng.integers(0, 7, 300)] = 1.0
        for k in (1, 2, 3, 5):
            part = fit_kmeans(X, k, seed=k)
            got = assign_cluster(part, X)
            assert got.tolist() == [assign_cluster(part, x[None])[0] for x in X]
        assert assign_cluster(part, np.zeros((0, 7))).shape == (0,)


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
