"""Benchmark comparators: mean-leaf tree, random forest, gradient boosting, QRF."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import design_arrays, encoded_batch
from .partition import RegressionTree, TreeStack, _leaf, _prune, block_rows, build_cart, presort


@dataclass
class ForestModel:
    """Bagged CART trees, plus the leaf of each in-bag training row for QRF.

    Per-tree randomness is derived from SeedSequence([seed, tree_index]), so
    the forest is identical regardless of training order. `in_bag_leaf[t]`
    holds, per training row, its leaf id in tree t, or -1 when the row is out
    of tree t's bootstrap. The trees keep no leaf rows: those would index a
    bootstrap sample the forest does not keep. The QRF lookup tables
    (`y_order`, `leaf_members`) are derived from the fields on first use and
    never serialised. The mean reads the trees and their feature subsets,
    QRF also `in_bag_leaf` and `y_train`; only `prune_forest` reads the
    growth settings. A loaded forest leaves what its model does not read None.
    `n_features` is the width of the rows the forest reads.
    """

    trees: list[RegressionTree]
    feature_subsets: list[np.ndarray]
    n_features: int
    in_bag_leaf: list[np.ndarray] | None = None
    y_train: np.ndarray | None = None
    bootstrap: bool | None = None
    seed: int | None = None
    feature_fraction: float | None = None

    @cached_property
    def y_order(self) -> np.ndarray:
        """Training rows in ascending target order, ties by row index."""
        return np.argsort(self.y_train, kind="stable")

    @cached_property
    def leaf_members(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every tree's leaves in one table, as (first, ptr, ranks): leaf l of
        tree t is table leaf g = first[t] + l, which holds the distinct
        training rows y_order[ranks[ptr[g]:ptr[g + 1]]]."""
        n = self.y_train.shape[0]
        rank = np.empty(n, dtype=np.intp)
        rank[self.y_order] = np.arange(n)
        sizes = np.array([tree.n_leaves for tree in self.trees], dtype=np.intp)
        first = np.cumsum(sizes) - sizes
        # one key per in-bag (tree, row), sorted by table leaf, then by rank
        keys = np.sort(np.concatenate([
            ((leaf + f) * n + rank)[leaf >= 0] for leaf, f in zip(self.in_bag_leaf, first)
        ]))
        return first, np.searchsorted(keys, np.arange(sizes.sum() + 1) * n), keys % n

    @cached_property
    def walk(self) -> TreeStack:
        """All trees as one stack, each over its feature subset."""
        return TreeStack.of(self.trees, self.n_features, self.feature_subsets)

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def parameter_count(self) -> int:
        return sum(t.parameter_count() for t in self.trees)


def _bootstrap(seed: int, t: int, n: int, bootstrap: bool):
    """Tree t's generator and its sample of the n training rows, drawn first."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
    return rng, (rng.integers(0, n, size=n) if bootstrap else np.arange(n))


def fit_rf(
    X,
    y,
    n_trees: int,
    seed: int,
    max_depth: int,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
    bootstrap: bool = True,
    feature_fraction: float = 1.0,
) -> ForestModel:
    """Random forest: each tree fits a bootstrap resample (n draws with
    replacement); feature subsampling is per tree and off by default."""
    values, _ = design_arrays(X)
    y = np.asarray(y, dtype=float)
    n, p = values.shape
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")
    if not 0 < feature_fraction <= 1:
        raise ValueError("feature_fraction must lie in (0, 1]")

    trees, in_bag, subsets = [], [], []
    n_feat = max(1, int(round(feature_fraction * p)))
    for t in range(n_trees):
        rng, sample = _bootstrap(seed, t, n, bootstrap)
        cols = (
            np.sort(rng.choice(p, size=n_feat, replace=False))
            if n_feat < p
            else np.arange(p)
        )
        tree = build_cart(
            values[np.ix_(sample, cols)], y[sample], max_depth, min_samples_split, min_samples_leaf
        )
        leaf_of = np.full(n, -1, dtype=np.intp)
        for leaf, rows in enumerate(tree.leaf_rows):
            # copies of a row are one design row, so they share a leaf
            leaf_of[sample[rows]] = leaf
        tree.leaf_rows = None
        trees.append(tree)
        in_bag.append(leaf_of)
        subsets.append(cols)
    return ForestModel(
        trees=trees,
        in_bag_leaf=in_bag,
        feature_subsets=subsets,
        n_features=p,
        y_train=y,
        bootstrap=bootstrap,
        seed=seed,
        feature_fraction=feature_fraction,
    )


def prune_forest(
    forest: ForestModel, n_trees: int, max_depth: int, min_samples_split: int = 2
) -> ForestModel:
    """The forest `fit_rf` grows with these settings and `forest`'s others,
    cut from `forest`, which must be grown with at least as many trees, at
    least as deep and with at most this split size.

    Tree t depends only on (seed, t), so the first n_trees trees are the
    smaller forest's, each pruned (`partition.prune`, with leaf sizes counted
    over tree t's redrawn bootstrap); a row's leaf becomes the leaf of the
    cut tree that holds it. `forest` is not changed.
    """
    if not 1 <= n_trees <= forest.n_trees:
        raise ValueError(f"cannot cut {n_trees} trees from a forest of {forest.n_trees}")
    n = forest.y_train.shape[0]
    walk = forest.walk  # every tree's shape, derived once
    trees, in_bag = [], []
    for t, (tree, leaf) in enumerate(zip(forest.trees[:n_trees], forest.in_bag_leaf)):
        _, sample = _bootstrap(forest.seed, t, n, forest.bootstrap)
        sizes = np.bincount(leaf[sample], minlength=tree.n_leaves)
        s, e = walk.roots[t], walk.roots[t] + tree.feature.size
        right, leaf_id = walk.right[s:e] - s, walk.leaf_id[s:e]  # tree t's own node numbers
        cut, leaf_map = _prune(tree, right, leaf_id, max_depth, min_samples_split, sizes)
        trees.append(cut)
        in_bag.append(np.where(leaf >= 0, leaf_map[leaf], -1))
    return ForestModel(
        trees=trees,
        in_bag_leaf=in_bag,
        feature_subsets=forest.feature_subsets[:n_trees],
        n_features=forest.n_features,
        y_train=forest.y_train,
        bootstrap=forest.bootstrap,
        seed=forest.seed,
        feature_fraction=forest.feature_fraction,
    )


def predict_rf(forest: ForestModel, X) -> np.ndarray:
    """Arithmetic mean of the member trees' predictions, per row of a batch.

    One walk takes the rows through every tree. Each row's predictions sit
    contiguously in a C-contiguous (rows, trees) table, so its mean is summed
    as it is for the row as a batch of one.
    """
    walk = forest.walk
    return np.mean(walk.value[_leaf(walk, encoded_batch(X))], axis=1)


def _leaf_ids(forest: ForestModel, X: np.ndarray) -> np.ndarray:
    """Leaf id of each row of the 2-D X in each tree: a (trees, rows) array."""
    walk = forest.walk
    return np.ascontiguousarray(walk.leaf_id[_leaf(walk, X)].T)


def _ranked_weights(forest: ForestModel, leaf_ids: np.ndarray) -> np.ndarray:
    """QRF weights of each query over the training rows in ascending target
    order (`y_order`), from the queries' (trees, rows) leaf ids, all trees at once."""
    first, ptr, ranks = forest.leaf_members
    n_queries, n = leaf_ids.shape[1], forest.y_train.shape[0]
    # tree-major: the table leaf of each (tree, query) pair, tree after tree
    leaf = (leaf_ids + first[:, None]).reshape(-1)
    start, size = ptr[leaf], ptr[leaf + 1] - ptr[leaf]
    # the members of each pair's leaf, one pair after another
    members = ranks[np.arange(size.sum()) + np.repeat(start - (np.cumsum(size) - size), size)]
    cells = np.repeat(np.tile(np.arange(n_queries) * n, leaf_ids.shape[0]), size) + members
    w = np.zeros((n_queries, n))
    # ufunc.at adds a repeated cell's shares in index order, so each weight
    # adds its shares in tree order; a (query, member) pair occurs once per tree
    np.add.at(w.reshape(-1), cells, np.repeat(1.0 / size, size))
    w /= forest.n_trees
    return w


def qrf_weights(forest: ForestModel, X) -> np.ndarray:
    """Per-training-row weights: average over trees of 1/leaf-size membership.

    Leaf membership is by distinct original row index (bootstrap multiplicity
    is ignored), so the weights of every query sum to 1. A batch gives one
    row of weights per query; each weight adds its shares in tree order.
    """
    X = encoded_batch(X)
    w = np.empty((X.shape[0], forest.y_train.shape[0]))
    w[:, forest.y_order] = _ranked_weights(forest, _leaf_ids(forest, X))
    return w


# weight cells (128 KiB of float64) per block of query rows: bounds the (rows,
# training rows) weight matrix. Blocks of 1 MiB raised the peak RSS of the
# ensemble-grid benchmark by 2.7 MB; the walk runs once per batch either way.
_QRF_BLOCK_CELLS = 1 << 14
# leaf members of a block's (tree, query) pairs: bounds `_ranked_weights`'
# index arrays, which grow with trees x leaf size. A row over it is a block.
_QRF_BLOCK_MEMBERS = 1 << 17


def _blocks(forest: ForestModel, leaf_ids: np.ndarray):
    """(start, stop) of consecutive query blocks of at most `_QRF_BLOCK_CELLS`
    weight cells and `_QRF_BLOCK_MEMBERS` leaf members, or of one row."""
    first, ptr, _ = forest.leaf_members
    leaf = leaf_ids + first[:, None]
    reach = np.cumsum((ptr[leaf + 1] - ptr[leaf]).sum(axis=0))  # members of rows 0..i
    step = max(1, _QRF_BLOCK_CELLS // forest.y_train.shape[0])
    start = 0
    while start < reach.size:
        before = reach[start - 1] if start else 0
        fits = int(np.searchsorted(reach, before + _QRF_BLOCK_MEMBERS, side="right"))
        stop = max(start + 1, min(start + step, fits))
        yield start, stop
        start = stop


def qrf_predict(forest: ForestModel, X, alpha) -> np.ndarray:
    """Weighted empirical quantile: smallest y whose cumulative weight >= alpha.

    `alpha` is one level or a sequence of levels (as `q` in `np.quantile`);
    the weights are computed once per row. A batch and one level give one
    value per row; a sequence adds a trailing level axis.
    """
    levels = np.asarray(alpha, dtype=float)
    if not np.all((levels > 0) & (levels < 1)):
        raise ValueError("alpha must lie in (0, 1)")
    X = encoded_batch(X)
    leaf_ids = _leaf_ids(forest, X)
    order = forest.y_order
    out = np.empty((X.shape[0], levels.size))
    # a row's weights do not depend on the rows blocked with it
    for start, stop in _blocks(forest, leaf_ids):
        cum = _ranked_weights(forest, leaf_ids[:, start:stop])
        np.cumsum(cum, axis=1, out=cum)
        for j, level in enumerate(levels.reshape(-1)):
            # the cumulative weights are nondecreasing, so counting those
            # below the level finds the position np.searchsorted finds
            pos = np.minimum((cum < level - 1e-12).sum(axis=1), order.size - 1)
            out[start:stop, j] = forest.y_train[order[pos]]
    return out.reshape(X.shape[:1] + levels.shape)


@dataclass
class BoostedModel:
    """Stagewise squared-loss boosting: F_m = F_{m-1} + lr * tree(residuals).

    `sse_history`, the training SSE after each stage, is a fit diagnostic:
    model files do not store it, so a loaded model has none.
    """

    init: float
    trees: list[RegressionTree]
    learning_rate: float
    sse_history: tuple[float, ...] = field(default=(), repr=False)

    @property
    def n_stages(self) -> int:
        return len(self.trees)

    @cached_property
    def walk(self) -> TreeStack:
        """All stages' trees as one stack."""
        return TreeStack.of(self.trees, self.trees[0].n_features)

    def parameter_count(self) -> int:
        return 1 + sum(t.parameter_count() for t in self.trees)


def fit_gb(
    X,
    y,
    n_stages: int,
    learning_rate: float,
    max_depth: int,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
) -> BoostedModel:
    values, _ = design_arrays(X)
    y = np.asarray(y, dtype=float)
    if n_stages < 1:
        raise ValueError("n_stages must be at least 1")
    if not 0 < learning_rate <= 1:
        raise ValueError("learning_rate must lie in (0, 1]")

    current = np.full(y.shape[0], float(np.mean(y)))
    order = presort(values)  # X is the same at every stage; only the residuals change
    trees = []
    history = []
    for _ in range(n_stages):
        residuals = y - current
        tree = build_cart(
            values, residuals, max_depth, min_samples_split, min_samples_leaf, order=order
        )
        # leaf ids follow node order, so the leaves' values come in leaf id order
        for rows, value in zip(tree.leaf_rows, tree.value[tree.feature < 0]):
            current[rows] += learning_rate * value
        trees.append(tree)
        history.append(float(np.sum((y - current) ** 2)))
    return BoostedModel(
        init=float(np.mean(y)),
        trees=trees,
        learning_rate=learning_rate,
        sse_history=tuple(history),
    )


def first_stages(model: BoostedModel, n_stages: int) -> BoostedModel:
    """The `fit_gb` run of n_stages stages with `model`'s other settings.

    Stage m depends only on the stages before it (Friedman 2001), so the
    first n_stages trees and training SSEs are the shorter run's.
    """
    if not 1 <= n_stages <= model.n_stages:
        raise ValueError(f"cannot cut {n_stages} stages from a run of {model.n_stages}")
    return BoostedModel(
        init=model.init,
        trees=model.trees[:n_stages],
        learning_rate=model.learning_rate,
        sse_history=model.sse_history[:n_stages],
    )


def predict_gb(model: BoostedModel, X) -> np.ndarray:
    """init + lr * sum of the stage trees, per row of a batch.

    One walk takes a block of rows through every stage's tree; the stages
    are then added one by one, in stage order, for every row of the block.
    A block's (rows, stages) table holds the walk's bound of cells.
    """
    X = encoded_batch(X)
    walk = model.walk
    out = np.full(X.shape[0], model.init)
    step = block_rows(model.n_stages)
    for start in range(0, X.shape[0], step):
        steps = model.learning_rate * walk.value[_leaf(walk, X[start : start + step])]
        block = out[start : start + step]
        for t in range(model.n_stages):
            block += steps[:, t]
    return out
