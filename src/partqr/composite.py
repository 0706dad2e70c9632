"""Partition-plus-estimator models: quantile tree, piecewise QR/RR, nearest-neighbor QR.

Each model routes an input to exactly one partition (tree leaf, cluster, or
query-time neighborhood from an exact scan of the training rows) and answers
with that partition's fitted quantile or ridge estimator. Partitions too small
to support a linear fit fall back to intercept-only empirical quantiles (or
the mean, for ridge).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import (
    CategoricalEncoding,
    Dataset,
    EncodedMatrix,
    as_encoded,
    categorical_mask,
    encode_once,
    encoded_columns,
)
from .linear import check_lam, fit_quantile, fit_ridge, pinball_quantile, predict_linear
from .partition import (
    ClusterPartition,
    RegressionTree,
    assign_cluster,
    build_cart,
    fit_kmeans,
    knn_query,
    route,
)

KINDS = ("quantile_tree", "piecewise_qr", "piecewise_rr", "nn_qr")
# lower, median, upper of a prediction interval
INTERVAL_LEVELS = (0.05, 0.5, 0.95)
PARAM_COUNT_NA = None  # printed as "NA" in reports


@dataclass(frozen=True)
class ConstantModel:
    """Intercept-only fallback for partitions too small for a linear fit."""

    value: float


@dataclass
class CompositeQuantileModel:
    """Prediction reads the partition and `estimators`, or nn_qr's training
    matrix, targets and `hyperparams`; a loaded model of another kind has no
    `hyperparams` (None)."""

    kind: str
    schema: object
    encoding: CategoricalEncoding
    hyperparams: dict | None = None
    tree: RegressionTree | None = None
    clusters: ClusterPartition | None = None
    # partition id -> {alpha: estimator}; piecewise_rr fits alpha 0.5 only
    estimators: dict = field(default_factory=dict)
    train_matrix: EncodedMatrix | None = None
    train_y: np.ndarray | None = None

    @property
    def levels(self) -> tuple[float, ...]:
        """The quantile levels the kind fits: piecewise_rr its ridge fit at 0.5."""
        return (0.5,) if self.kind == "piecewise_rr" else INTERVAL_LEVELS

    @property
    def n_partitions(self) -> int | None:
        if self.kind == "nn_qr":
            return None
        return len(self.estimators)

    # the encoded layout is derived from the schema and encoding, never stored
    @property
    def width(self) -> int:
        return len(encoded_columns(self.schema, self.encoding))

    @property
    def categorical_mask(self) -> np.ndarray:
        return categorical_mask(encoded_columns(self.schema, self.encoding))


def _require(hyperparams: dict, key: str):
    if key not in hyperparams:
        raise ValueError(f"hyperparameter {key!r} is required")
    return hyperparams[key]


def _fit_quantile_table(matrix, y, rows: np.ndarray, levels, lam, fit_cache: dict, path=None):
    """{alpha: estimator} at `lam` of the partition `rows` of `matrix` and
    `y`; its fits are keyed by `rows`, since `fit_cache` serves one training
    set.

    `path`, when given and holding `lam`, is the λ path of the fits that
    share `fit_cache`: a partition not yet fit at `lam` is fit at every λ of
    the path it lacks, in one `fit_quantile` call. Otherwise the partition is
    fit at `lam` alone.
    """
    if rows.size < matrix.width + 2:
        return {a: ConstantModel(pinball_quantile(y[rows], a)) for a in levels}
    leaf = rows.tobytes()
    # tuples, not lists: perfbench's tracer hashes the levels and λ path it is passed
    levels = tuple(levels)
    if any((leaf, a, lam) not in fit_cache for a in levels):
        X, target = matrix.subset(rows), y[rows]
        if path is None or lam not in path:
            solved = {lam: fit_quantile(X, target, levels, lam)}
        else:
            lams = tuple(v for v in path if any((leaf, a, v) not in fit_cache for a in levels))
            solved = dict(zip(lams, fit_quantile(X, target, levels, lams)))
        for v, fits in solved.items():
            for a, fit in zip(levels, fits):
                fit_cache[leaf, a, v] = fit
    return {a: fit_cache[leaf, a, lam] for a in levels}


def fit_composite(
    kind: str,
    dataset: Dataset,
    hyperparams: dict,
    fit_cache: dict | None = None,
    *,
    tree: RegressionTree | None = None,
    lams: tuple | None = None,
) -> CompositeQuantileModel:
    """Fit one of the four partitioned models on a preprocessed dataset.

    quantile_tree partitions on all encoded features via CART; the piecewise
    kinds cluster the one-hot categorical subspace with k-means; nn_qr only
    keeps the training rows and fits per query on its nearest neighbors. Any
    partition with fewer than width+2 rows gets intercept-only fallback
    estimators.

    `fit_cache`, when given, serves the fits of one training set, `dataset`
    (one fold's, see `evaluation._score_folds`, or the refit's): it encodes
    the dataset once and memoises the partition quantile fits by partition
    rows, alpha and lam, so a grid search solves each partition once per
    fold and lam. `lams`, when given, is the λ path of the fits that share
    the cache, the distinct λ of a fold's scored combinations in grid
    order: the first fit that needs a partition fits it at every λ of the
    path in one `fit_quantile` call, each λ's solves starting from the
    bases of the λ before, and the later fits read the cache. Without
    `lams`, or when it does not hold this fit's λ, a partition is fit at
    its own λ alone.
    `tree`, when given, is quantile_tree's CART tree of that encoding under
    hyperparams' tree settings (a grid search cuts it from a deeper tree,
    see `models`); otherwise it is grown here.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if dataset.n_rows == 0:
        raise ValueError("empty dataset")
    hyperparams = dict(hyperparams)
    lam = float(hyperparams.get("lam", 0.0))
    check_lam(lam)  # nn_qr fits only when it predicts

    fit_cache = {} if fit_cache is None else fit_cache
    matrix, y, encoding = encode_once(dataset, fit_cache)
    model = CompositeQuantileModel(
        kind=kind,
        schema=dataset.schema,
        encoding=encoding,
        hyperparams=hyperparams,
        train_matrix=matrix,
        train_y=y,
    )
    levels = model.levels

    if kind == "quantile_tree":
        if tree is None:
            tree = build_cart(
                matrix,
                y,
                max_depth=int(_require(hyperparams, "max_depth")),
                min_samples_split=int(hyperparams.get("min_samples_split", 2)),
                min_samples_leaf=int(hyperparams.get("min_samples_leaf", 1)),
            )
        model.tree = tree
        for leaf, rows in enumerate(tree.leaf_rows):
            model.estimators[leaf] = _fit_quantile_table(
                matrix, y, rows, levels, lam, fit_cache, lams
            )
    elif kind in ("piecewise_qr", "piecewise_rr"):
        k = int(_require(hyperparams, "n_clusters"))
        clusters = fit_kmeans(matrix.categorical_submatrix(), k, seed=int(hyperparams.get("seed", 0)))
        model.clusters = clusters
        assignments = assign_cluster(clusters, matrix.categorical_submatrix())
        for cid in range(clusters.k):
            rows = np.flatnonzero(assignments == cid)
            if kind == "piecewise_qr":
                model.estimators[cid] = _fit_quantile_table(
                    matrix, y, rows, levels, lam, fit_cache, lams
                )
            elif rows.size < matrix.width + 2:
                model.estimators[cid] = {0.5: ConstantModel(float(np.mean(y[rows])))}
            else:
                model.estimators[cid] = {0.5: fit_ridge(matrix.subset(rows), y[rows], lam)}
    else:  # nn_qr
        k = int(_require(hyperparams, "n_neighbors"))
        if not 1 <= k <= dataset.n_rows:
            raise ValueError(f"n_neighbors {k} out of range 1..{dataset.n_rows}")
    return model


def _estimate(estimator, X: np.ndarray):
    if isinstance(estimator, ConstantModel):
        return estimator.value
    return predict_linear(estimator, X)


def _partition_ids(model: CompositeQuantileModel, X: np.ndarray) -> np.ndarray:
    """Tree leaf or cluster id of each row of an encoded batch."""
    if model.kind == "quantile_tree":
        return route(model.tree, X)
    if model.kind == "nn_qr":
        raise ValueError("nn_qr has no fixed partitions")
    return assign_cluster(model.clusters, X[:, model.categorical_mask])


def resolve_partition(model: CompositeQuantileModel, rows) -> np.ndarray:
    """Partition id (tree leaf or cluster id) of each row of a batch of raw rows.

    A paper artefact for inspecting partitions: only tests call it.
    """
    return _partition_ids(model, as_encoded(model.schema, model.encoding, rows))


def _nn_predict(model: CompositeQuantileModel, X: np.ndarray, levels) -> np.ndarray:
    """nn_qr answers for every row of X and level: an (n, levels) array.

    The neighbours depend only on a row's categorical part, so the rows that
    share a categorical pattern share one neighbourhood fit of all levels.
    """
    k = int(model.hyperparams["n_neighbors"])
    lam = float(model.hyperparams.get("lam", 0.0))
    points = model.train_matrix.categorical_submatrix()
    patterns, group = np.unique(X[:, model.categorical_mask], axis=0, return_inverse=True)
    out = np.empty((X.shape[0], len(levels)))
    for g, pattern in enumerate(patterns):
        rows = np.flatnonzero(group == g)
        neighbors = np.array([idx for idx, _ in knn_query(points, pattern, k)])
        table = _fit_quantile_table(model.train_matrix, model.train_y, neighbors, levels, lam, {})
        for j, alpha in enumerate(levels):
            out[rows, j] = _estimate(table[alpha], X[rows])
    return out


def _fitted_level(model: CompositeQuantileModel, alpha: float) -> float:
    matches = [a for a in model.levels if abs(a - alpha) < 1e-12]
    if not matches:
        raise ValueError(f"alpha {alpha} not among fitted levels {model.levels}")
    return matches[0]


def predict_quantile(model: CompositeQuantileModel, rows, alpha) -> np.ndarray:
    """Quantile prediction for each row of a batch of raw rows (or an
    EncodedMatrix): the active partition's estimate.

    `alpha` is one level or a sequence of levels. One level gives one value
    per row; a sequence adds a trailing level axis. Each partition evaluates
    its block of rows for every level at once.

    nn_qr fits a fresh quantile regression on the query's neighbors, so it
    accepts any alpha in (0, 1); the pre-fit kinds only answer their fitted
    levels (piecewise_rr answers its ridge point prediction at alpha=0.5).
    """
    shape = np.shape(alpha)
    levels = [float(a) for a in np.reshape(alpha, -1)]
    X = as_encoded(model.schema, model.encoding, rows)
    if model.kind == "nn_qr":
        if not all(0 < a < 1 for a in levels):
            raise ValueError("alpha must lie in (0, 1)")
        out = _nn_predict(model, X, levels)
    else:
        levels = [_fitted_level(model, a) for a in levels]
        pid = _partition_ids(model, X)
        out = np.full((X.shape[0], len(levels)), np.nan)
        for p, table in model.estimators.items():
            rows = np.flatnonzero(pid == p)
            if rows.size:
                block = X[rows]
                for j, a in enumerate(levels):
                    out[rows, j] = _estimate(table[a], block)
    return out.reshape(X.shape[:1] + shape)


def _estimator_params(estimator) -> int:
    if isinstance(estimator, ConstantModel):
        return 1
    return estimator.coef.shape[0] + 1


def count_parameters(model: CompositeQuantileModel) -> int | None:
    """Parameter count: (coefficients+1) per linear model per level, 2 per
    internal tree node; nn_qr has no fixed parameters and reports NA (None)."""
    if model.kind == "nn_qr":
        return PARAM_COUNT_NA
    total = 0
    if model.tree is not None:
        total += model.tree.parameter_count()
    for table in model.estimators.values():
        total += sum(_estimator_params(e) for e in table.values())
    return total
