"""Partition-plus-estimator models: quantile tree, piecewise QR/RR, nearest-neighbor QR.

Each model routes an input to exactly one partition (tree leaf, cluster, or
query-time neighborhood) and answers with that partition's fitted quantile or
ridge estimator. Partitions too small to support a linear fit fall back to
intercept-only empirical quantiles (or the mean, for ridge).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .data import (
    CategoricalEncoding,
    Dataset,
    EncodedColumn,
    EncodedMatrix,
    encode,
    encode_row,
)
from .linear import fit_quantile, fit_ridge, pinball_quantile, predict_linear
from .partition import (
    ClusterPartition,
    NeighborhoodIndex,
    RegressionTree,
    assign_cluster,
    build_cart,
    build_neighborhood_index,
    fit_kmeans,
    knn_query,
    route,
)

KINDS = ("quantile_tree", "piecewise_qr", "piecewise_rr", "nn_qr")
DEFAULT_LEVELS = (0.05, 0.5, 0.95)
PARAM_COUNT_NA = None  # printed as "NA" in reports


@dataclass(frozen=True)
class PredictionInterval:
    """(5th, 50th, 95th) percentile predictions, rearranged so lower<=median<=upper."""

    lower: float
    median: float
    upper: float


@dataclass(frozen=True)
class ConstantModel:
    """Intercept-only fallback for partitions too small for a linear fit."""

    value: float


@dataclass
class CompositeQuantileModel:
    kind: str
    schema: object
    encoding: CategoricalEncoding
    columns: tuple[EncodedColumn, ...]
    levels: tuple[float, ...]
    hyperparams: dict
    tree: RegressionTree | None = None
    clusters: ClusterPartition | None = None
    index: NeighborhoodIndex | None = None
    # partition id -> {alpha: estimator} for QR kinds, partition id -> estimator for RR
    estimators: dict = field(default_factory=dict)
    partition_rows: dict = field(default_factory=dict)
    train_matrix: EncodedMatrix | None = None
    train_y: np.ndarray | None = None

    @property
    def n_partitions(self) -> int | None:
        if self.kind == "nn_qr":
            return None
        return len(self.estimators)

    @property
    def width(self) -> int:
        return len(self.columns)

    @property
    def categorical_mask(self) -> np.ndarray:
        return np.array([c.from_categorical for c in self.columns], dtype=bool)


def _require(hyperparams: dict, key: str):
    if key not in hyperparams:
        raise ValueError(f"hyperparameter {key!r} is required")
    return hyperparams[key]


def _leaf_digest(matrix: EncodedMatrix, ysub: np.ndarray) -> bytes:
    """Content digest of one partition's quantile problem, less alpha and lam."""
    h = hashlib.blake2b(repr(matrix.values.shape).encode(), digest_size=16)
    for arr in (matrix.values, matrix.categorical_mask, ysub):
        h.update(arr.tobytes())
    return h.digest()


def _fit_quantile_table(matrix, ysub, levels, lam, fit_cache: dict):
    if ysub.size < matrix.width + 2:
        return {a: ConstantModel(pinball_quantile(ysub, a)) for a in levels}
    leaf = _leaf_digest(matrix, ysub)
    table = {}
    for a in levels:
        key = (leaf, a, lam)
        if key not in fit_cache:
            # Threads may race to one key; both solves give the same fit.
            fit_cache[key] = fit_quantile(matrix, ysub, a, lam)
        table[a] = fit_cache[key]
    return table


def fit_composite(
    kind: str, dataset: Dataset, hyperparams: dict, fit_cache: dict | None = None
) -> CompositeQuantileModel:
    """Fit one of the four partitioned models on a preprocessed dataset.

    quantile_tree partitions on all encoded features via CART; the piecewise
    kinds cluster the one-hot categorical subspace with k-means; nn_qr only
    builds the neighborhood index and fits per query. Any partition with fewer
    than width+2 rows gets intercept-only fallback estimators.

    `fit_cache`, when given, memoises the partition quantile fits by content
    (encoded rows, categorical mask, targets, alpha, lam), so a grid search
    solves each distinct partition problem once across its combinations.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if dataset.n_rows == 0:
        raise ValueError("empty dataset")
    hyperparams = dict(hyperparams)
    fit_cache = {} if fit_cache is None else fit_cache
    lam = float(hyperparams.get("lam", 0.0))
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if kind == "piecewise_rr":
        levels = (0.5,)
    else:
        levels = tuple(float(a) for a in hyperparams.get("levels", DEFAULT_LEVELS))
        if any(not 0 < a < 1 for a in levels):
            raise ValueError("quantile levels must lie in (0, 1)")

    matrix, y, encoding = encode(dataset)
    model = CompositeQuantileModel(
        kind=kind,
        schema=dataset.schema,
        encoding=encoding,
        columns=matrix.columns,
        levels=levels,
        hyperparams=hyperparams,
        train_matrix=matrix,
        train_y=y,
    )

    if kind == "quantile_tree":
        tree = build_cart(
            matrix,
            y,
            max_depth=int(_require(hyperparams, "max_depth")),
            min_samples_split=int(hyperparams.get("min_samples_split", 2)),
            min_samples_leaf=int(hyperparams.get("min_samples_leaf", 1)),
        )
        model.tree = tree
        for leaf in tree.leaf_nodes():
            rows = leaf.rows
            model.partition_rows[leaf.leaf_id] = rows
            model.estimators[leaf.leaf_id] = _fit_quantile_table(
                matrix.subset(rows), y[rows], levels, lam, fit_cache
            )
    elif kind in ("piecewise_qr", "piecewise_rr"):
        k = int(_require(hyperparams, "n_clusters"))
        clusters = fit_kmeans(
            matrix.categorical_submatrix(),
            k,
            seed=int(hyperparams.get("seed", 0)),
            max_iter=int(hyperparams.get("max_iter", 300)),
        )
        model.clusters = clusters
        x_cat = matrix.categorical_submatrix()
        assignments = np.array([assign_cluster(clusters, row) for row in x_cat])
        for cid in range(clusters.k):
            rows = np.flatnonzero(assignments == cid)
            model.partition_rows[cid] = rows
            sub, ysub = matrix.subset(rows), y[rows]
            if kind == "piecewise_rr":
                if ysub.size < matrix.width + 2:
                    model.estimators[cid] = ConstantModel(float(np.mean(ysub)))
                else:
                    model.estimators[cid] = fit_ridge(sub, ysub, lam)
            else:
                model.estimators[cid] = _fit_quantile_table(sub, ysub, levels, lam, fit_cache)
    else:  # nn_qr
        k = int(_require(hyperparams, "n_neighbors"))
        if not 1 <= k <= dataset.n_rows:
            raise ValueError(f"n_neighbors {k} out of range 1..{dataset.n_rows}")
        model.index = build_neighborhood_index(matrix.categorical_submatrix())
    return model


def _estimate(estimator, x_enc: np.ndarray) -> float:
    if isinstance(estimator, ConstantModel):
        return estimator.value
    return predict_linear(estimator, x_enc)


def _encode_input(model: CompositeQuantileModel, x) -> np.ndarray:
    x_enc = encode_row(model.schema, model.encoding, x)
    if x_enc.shape[0] != model.width:
        raise ValueError("encoded row width does not match model")
    return x_enc


def resolve_partition(model: CompositeQuantileModel, x) -> int:
    """Partition id the raw row x falls in (tree leaf or cluster id)."""
    x_enc = _encode_input(model, x)
    if model.kind == "quantile_tree":
        return route(model.tree, x_enc)
    if model.kind in ("piecewise_qr", "piecewise_rr"):
        return assign_cluster(model.clusters, x_enc[model.categorical_mask])
    raise ValueError("nn_qr has no fixed partitions")


def _nn_predict(model: CompositeQuantileModel, x_enc: np.ndarray, alpha: float) -> float:
    cat_mask = model.categorical_mask
    k = int(model.hyperparams["n_neighbors"])
    neighbors = knn_query(model.index, x_enc[cat_mask], k)
    rows = np.array([idx for idx, _ in neighbors])
    ysub = model.train_y[rows]
    if rows.size < model.width + 2:
        return pinball_quantile(ysub, alpha)
    fitted = fit_quantile(
        model.train_matrix.subset(rows), ysub, alpha, float(model.hyperparams.get("lam", 0.0))
    )
    return predict_linear(fitted, x_enc)


def predict_quantile(model: CompositeQuantileModel, x, alpha: float) -> float:
    """Quantile prediction for a raw row: the single active partition's estimate.

    nn_qr fits a fresh quantile regression on the query's neighbors, so it
    accepts any alpha in (0, 1); the pre-fit kinds only answer their fitted
    levels (piecewise_rr answers its ridge point prediction at alpha=0.5).
    """
    alpha = float(alpha)
    x_enc = _encode_input(model, x)
    if model.kind == "nn_qr":
        if not 0 < alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        return _nn_predict(model, x_enc, alpha)

    matches = [a for a in model.levels if abs(a - alpha) < 1e-12]
    if not matches:
        raise ValueError(f"alpha {alpha} not among fitted levels {model.levels}")
    alpha = matches[0]

    if model.kind == "quantile_tree":
        pid = route(model.tree, x_enc)
    else:
        pid = assign_cluster(model.clusters, x_enc[model.categorical_mask])
    est = model.estimators[pid]
    if model.kind == "piecewise_rr":
        return _estimate(est, x_enc)
    return _estimate(est[alpha], x_enc)


def predict_interval(model: CompositeQuantileModel, x) -> PredictionInterval:
    """(0.05, 0.5, 0.95) predictions with crossing repaired by sorting."""
    needed = (0.05, 0.5, 0.95)
    if model.kind != "nn_qr":
        for a in needed:
            if not any(abs(lv - a) < 1e-12 for lv in model.levels):
                raise ValueError("model was not fitted with levels (0.05, 0.5, 0.95)")
    lower, median, upper = sorted(predict_quantile(model, x, a) for a in needed)
    return PredictionInterval(lower=lower, median=median, upper=upper)


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
        total += 2 * model.tree.n_internal
    for est in model.estimators.values():
        if model.kind == "piecewise_rr":
            total += _estimator_params(est)
        else:
            total += sum(_estimator_params(e) for e in est.values())
    return total
