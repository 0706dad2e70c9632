"""Benchmark comparators: mean-leaf tree, random forest, gradient boosting, QRF."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .partition import (
    RegressionTree,
    _leaf,
    _values_of,
    build_cart,
    predict_tree_mean,
    presort,
)


@dataclass
class ForestModel:
    """Bagged CART trees; leaves keep row lists so QRF quantiles stay available.

    Per-tree randomness is derived from SeedSequence([seed, tree_index]), so
    the forest is identical regardless of training order. The QRF lookup
    tables (`y_order`, `leaf_members`) are derived from the fields on first
    use and never serialised.
    """

    trees: list[RegressionTree]
    sample_indices: list[np.ndarray]
    feature_subsets: list[np.ndarray]
    y_train: np.ndarray
    bootstrap: bool
    seed: int
    feature_fraction: float

    @cached_property
    def y_order(self) -> np.ndarray:
        """Training rows in ascending target order, ties by row index."""
        return np.argsort(self.y_train, kind="stable")

    @cached_property
    def leaf_members(self) -> list[dict[int, np.ndarray]]:
        """Per tree, leaf id -> the distinct training rows in that leaf."""
        return [
            {leaf.leaf_id: np.unique(sample[leaf.rows]) for leaf in tree.leaf_nodes()}
            for tree, sample in zip(self.trees, self.sample_indices)
        ]

    @property
    def n_trees(self) -> int:
        return len(self.trees)


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
    values = _values_of(X)
    y = np.asarray(y, dtype=float)
    n, p = values.shape
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")
    if not 0 < feature_fraction <= 1:
        raise ValueError("feature_fraction must lie in (0, 1]")

    trees, samples, subsets = [], [], []
    n_feat = max(1, int(round(feature_fraction * p)))
    for t in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        sample = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        cols = (
            np.sort(rng.choice(p, size=n_feat, replace=False))
            if n_feat < p
            else np.arange(p)
        )
        tree = build_cart(
            values[np.ix_(sample, cols)], y[sample], max_depth, min_samples_split, min_samples_leaf
        )
        trees.append(tree)
        samples.append(sample)
        subsets.append(cols)
    return ForestModel(
        trees=trees,
        sample_indices=samples,
        feature_subsets=subsets,
        y_train=y,
        bootstrap=bootstrap,
        seed=seed,
        feature_fraction=feature_fraction,
    )


def predict_rf(forest: ForestModel, x) -> float:
    """Arithmetic mean of the member trees' predictions."""
    x = np.asarray(x, dtype=float)
    preds = [
        predict_tree_mean(tree, x[cols]) for tree, cols in zip(forest.trees, forest.feature_subsets)
    ]
    return float(np.mean(preds))


def qrf_weights(forest: ForestModel, x) -> np.ndarray:
    """Per-training-row weights: average over trees of 1/leaf-size membership.

    Leaf membership is by distinct original row index (bootstrap multiplicity
    is ignored), so the weights of every query sum to 1.
    """
    x = np.asarray(x, dtype=float)
    members = [
        table[_leaf(tree, x[cols]).leaf_id]
        for tree, cols, table in zip(forest.trees, forest.feature_subsets, forest.leaf_members)
    ]
    # bincount adds the shares tree by tree, in the order of the list
    shares = np.repeat([1.0 / m.size for m in members], [m.size for m in members])
    w = np.bincount(np.concatenate(members), weights=shares, minlength=forest.y_train.shape[0])
    return w / forest.n_trees


def qrf_predict(forest: ForestModel, x, alpha):
    """Weighted empirical quantile: smallest y whose cumulative weight >= alpha.

    `alpha` is one level or a sequence of levels (as `q` in `np.quantile`);
    the weights are computed once per call. Returns a float for one level and
    an array for a sequence.
    """
    levels = np.asarray(alpha, dtype=float)
    if not np.all((levels > 0) & (levels < 1)):
        raise ValueError("alpha must lie in (0, 1)")
    w = qrf_weights(forest, x)
    order = forest.y_order
    cum = np.cumsum(w[order])
    pos = np.minimum(np.searchsorted(cum, levels - 1e-12), order.size - 1)
    out = forest.y_train[order[pos]]
    return float(out) if levels.ndim == 0 else out


@dataclass
class BoostedModel:
    """Stagewise squared-loss boosting: F_m = F_{m-1} + lr * tree(residuals)."""

    init: float
    trees: list[RegressionTree]
    learning_rate: float
    sse_history: tuple[float, ...] = field(default=(), repr=False)

    @property
    def n_stages(self) -> int:
        return len(self.trees)


def fit_gb(
    X,
    y,
    n_stages: int,
    learning_rate: float,
    max_depth: int,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
) -> BoostedModel:
    values = _values_of(X)
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
        for leaf in tree.leaf_nodes():
            current[leaf.rows] += learning_rate * leaf.value
        trees.append(tree)
        history.append(float(np.sum((y - current) ** 2)))
    return BoostedModel(
        init=float(np.mean(y)),
        trees=trees,
        learning_rate=learning_rate,
        sse_history=tuple(history),
    )


def predict_gb(model: BoostedModel, x) -> float:
    x = np.asarray(x, dtype=float)
    out = model.init
    for tree in model.trees:
        out += model.learning_rate * predict_tree_mean(tree, x)
    return float(out)
