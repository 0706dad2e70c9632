"""One walk over a stack of trees: `partition._leaf` takes a block of rows
through every tree of a forest or boosting run at once, one level per step.

Its leaves must be the ones a per-row walk from each root reaches, and the
forecasts built on them must keep every bit of the per-tree formulas, however
the rows are cut into blocks.
"""

import tracemalloc

import numpy as np
import pytest

from oracles import depth_first_shape_oracle, leaf_node_oracle, qrf_quantiles_by_tree

from partqr import partition
from partqr.baselines import fit_gb, fit_rf, predict_gb, predict_rf, qrf_predict
from partqr.partition import _leaf, build_cart, predict_tree_mean, route

LEVELS = (0.05, 0.5, 0.95)


def _design(seed, n=90):
    """Numeric and indicator columns with ties, and a target."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        np.round(rng.normal(size=n), 1),
        rng.integers(0, 2, size=n).astype(float),
        np.round(rng.uniform(0, 5, size=n)),
        rng.integers(0, 2, size=n).astype(float),
    ])
    y = X[:, 0] * 3 + X[:, 1] * 5 + rng.normal(size=n)
    return X, y


def _queries(X, seed, n=40):
    """Fresh rows, some beyond the training range, then training rows in
    their order and shuffled."""
    rng = np.random.default_rng(seed)
    fresh = np.column_stack([
        np.round(rng.normal(size=n), 1),
        rng.integers(0, 2, size=n),
        np.round(rng.uniform(-1, 6, size=n)),
        rng.integers(0, 2, size=n),
    ])
    return np.vstack([fresh, X[:25], X[rng.permutation(X.shape[0])[:10]]])


@pytest.fixture(params=[None, 1, 2, 7], ids=lambda rows: f"block{rows}")
def bound_blocks(request, monkeypatch):
    """Bound the walk's blocks to 1, 2 or 7 rows of a stack of `trees`
    trees, or leave the default bound (None)."""

    def bound(trees: int) -> None:
        if request.param is not None:
            monkeypatch.setattr(partition, "_WALK_CELLS", request.param * trees)

    return bound


def _stack_leaves(stack, X):
    """Each row's leaf in each tree of the stack, as node ids within the tree."""
    return _leaf(stack, X) - stack.roots


@pytest.mark.parametrize("seed", range(4))
def test_single_tree_walk_equals_node_walk(seed, bound_blocks):
    bound_blocks(1)
    X, y = _design(seed)
    Q = _queries(X, seed + 100)
    for depth in (0, 1, 3, 8):
        tree = build_cart(X, y, max_depth=depth, min_samples_split=4)
        # and rows sitting exactly on each inner node's threshold
        on = np.repeat(Q[:1], np.count_nonzero(tree.feature >= 0), axis=0)
        for row, i in zip(on, np.flatnonzero(tree.feature >= 0)):
            row[tree.feature[i]] = tree.threshold[i]
        Q = np.vstack([Q, on])
        want = [leaf_node_oracle(tree, q) for q in Q]
        assert _stack_leaves(tree.walk, Q)[:, 0].tolist() == want
        leaf_id = depth_first_shape_oracle(tree.feature)[2]
        assert route(tree, Q).tolist() == [leaf_id[node] for node in want]
        assert predict_tree_mean(tree, Q).tobytes() == tree.value[want].tobytes()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("fraction", [1.0, 0.5])
def test_forest_walk_equals_node_walk_per_tree(seed, fraction, bound_blocks):
    X, y = _design(seed)
    Q = _queries(X, seed + 200)
    # at 8 trees and more numpy sums a row's contiguous values pairwise, so
    # the mean's bits show the (rows, trees) table's layout
    forest = fit_rf(X, y, n_trees=12, seed=seed, max_depth=5, feature_fraction=fraction)
    bound_blocks(forest.n_trees)
    want = [
        [leaf_node_oracle(tree, q[cols]) for tree, cols in zip(forest.trees, forest.feature_subsets)]
        for q in Q
    ]
    assert _stack_leaves(forest.walk, Q).tolist() == want
    # the per-tree formula: a (rows, trees) table filled tree by tree, then its row means
    preds = np.empty((Q.shape[0], forest.n_trees))
    for t, tree in enumerate(forest.trees):
        preds[:, t] = tree.value[[row[t] for row in want]]
    assert predict_rf(forest, Q).tobytes() == np.mean(preds, axis=1).tobytes()
    assert qrf_predict(forest, Q, LEVELS).tobytes() == qrf_quantiles_by_tree(forest, Q, LEVELS).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_boosting_walk_equals_node_walk_per_stage(seed, bound_blocks):
    X, y = _design(seed)
    Q = _queries(X, seed + 300)
    model = fit_gb(X, y, n_stages=9, learning_rate=0.3, max_depth=1 + seed % 3)
    bound_blocks(model.n_stages)
    want = [[leaf_node_oracle(tree, q) for tree in model.trees] for q in Q]
    assert _stack_leaves(model.walk, Q).tolist() == want
    # the per-tree formula: the stages added one by one, in stage order
    out = np.full(Q.shape[0], model.init)
    for t, tree in enumerate(model.trees):
        out += model.learning_rate * tree.value[[row[t] for row in want]]
    assert predict_gb(model, Q).tobytes() == out.tobytes()


def test_walk_temporaries_stay_within_its_block(monkeypatch):
    # beside its (rows, trees) answer, the walk holds a few arrays of one
    # block's cells at a time, however many rows it walks
    X, y = _design(5)
    forest = fit_rf(X, y, n_trees=6, seed=5, max_depth=6)
    Q = np.tile(X, (200, 1))
    stack = forest.walk
    monkeypatch.setattr(partition, "_WALK_CELLS", 1 << 10)
    tracemalloc.start()
    try:
        nodes = _leaf(stack, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - nodes.nbytes < 16 * 8 * (1 << 10) < nodes.nbytes
    assert nodes.flags.c_contiguous and nodes.shape == (Q.shape[0], forest.n_trees)


def test_walk_checks_the_row_width():
    X, y = _design(1)
    forest = fit_rf(X, y, n_trees=3, seed=1, max_depth=3, feature_fraction=0.5)
    with pytest.raises(ValueError, match="row width 3 does not match tree width 4"):
        predict_rf(forest, X[:, :3])
    assert _leaf(forest.walk, X[:0]).shape == (0, 3)
