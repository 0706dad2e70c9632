"""Model zoo: the ten benchmark approaches behind one fit/predict surface.

`MODELS` declares each one. The global Ridge/Quantile regressors are
degenerate single-partition piecewise models; the remaining rows map directly
onto the composite and baseline modules. Adapters encode prediction rows with
the training-fold encoding, so unseen categories hit the all-zeros path
instead of failing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .baselines import fit_gb, fit_rf, predict_gb, predict_rf, qrf_predict
from .composite import (
    INTERVAL_LEVELS,
    CompositeQuantileModel,
    count_parameters,
    fit_composite,
    predict_quantile,
)
from .data import CategoricalEncoding, Dataset, encode, encode_row
from .partition import build_cart, predict_tree_mean


@dataclass(frozen=True)
class ModelSpec:
    """One registry model; `build(name, dataset, params, seed, fit_cache)` returns
    its fit, and `point(inner, X)` is a baseline's point forecast."""

    display_name: str
    grid: dict
    quantile_capable: bool
    build: Callable
    payload: str = "composite"  # the model file's payload key
    point: Callable | None = None


class _RegistryFit:
    """What both fit classes read from their registry entry, by `self.name`."""

    @property
    def quantile_capable(self) -> bool:
        return MODELS[self.name].quantile_capable

    def describe(self) -> list[str]:
        """The structure lines `partqr inspect` prints; a baseline has none."""
        return []


@dataclass
class CompositeFit(_RegistryFit):
    name: str
    params: dict
    model: CompositeQuantileModel

    @property
    def schema(self):
        return self.model.schema

    @property
    def encoding(self) -> CategoricalEncoding:
        return self.model.encoding

    def predict_point(self, rows) -> np.ndarray:
        return predict_quantile(self.model, rows, 0.5)

    def predict_intervals(self, rows) -> np.ndarray | None:
        """(lower, median, upper) per row, with crossing repaired by sorting."""
        if not self.quantile_capable:
            return None
        return np.sort(predict_quantile(self.model, rows, INTERVAL_LEVELS), axis=1)

    def parameter_count(self) -> int | None:
        return count_parameters(self.model)

    def describe(self) -> list[str]:
        lines = [f"kind: {self.model.kind}"]
        if self.model.n_partitions is not None:
            lines.append(f"partitions: {self.model.n_partitions}")
        return lines + [f"quantile levels: {list(self.model.levels)}"]


@dataclass
class BaselineFit(_RegistryFit):
    name: str
    params: dict
    schema: object
    encoding: CategoricalEncoding
    inner: object  # RegressionTree | ForestModel | BoostedModel

    def _encode(self, rows) -> np.ndarray:
        return encode_row(self.schema, self.encoding, rows)

    def predict_point(self, rows) -> np.ndarray:
        return MODELS[self.name].point(self.inner, self._encode(rows))

    def predict_intervals(self, rows) -> np.ndarray | None:
        if not self.quantile_capable:
            return None
        # the levels are nondecreasing, so the QRF quantiles come out ordered
        return qrf_predict(self.inner, self._encode(rows), INTERVAL_LEVELS)

    def parameter_count(self) -> int | None:
        return self.inner.parameter_count()


# Builders and point forecasts look the fitting and predicting functions up at
# call time, so a wrapper installed on the module attribute (a tracer, a test
# double) sees every call.
def _composite(kind: str, settings: Callable) -> Callable:
    """Builder of a partitioned model: lam plus `settings(dataset, params, seed)`."""

    def build(name, dataset, params, seed, fit_cache):
        hyperparams = {"lam": params.get("lam", 0.0), **settings(dataset, params, seed)}
        return CompositeFit(name, params, fit_composite(kind, dataset, hyperparams, fit_cache))

    return build


def _global(dataset, params, seed) -> dict:
    return {"n_clusters": 1, "seed": seed}


def _tree_partition(dataset, params, seed) -> dict:
    return {
        "max_depth": params["max_depth"],
        "min_samples_split": params.get("min_samples_split", 2),
        "min_samples_leaf": params.get("min_samples_leaf", 1),
    }


# Cluster and neighbour counts are clamped to what the data admits, so the
# default grids stay usable on small categorical spaces.
def _clusters(dataset, params, seed) -> dict:
    cols = [dataset.column(c) for c in dataset.schema.categorical_predictors()]
    distinct = len({tuple(str(v) for v in combo) for combo in zip(*cols)}) if cols else 1
    return {"n_clusters": min(int(params["n_clusters"]), distinct), "seed": seed}


def _neighbors(dataset, params, seed) -> dict:
    return {"n_neighbors": min(int(params["n_neighbors"]), dataset.n_rows)}


def _baseline(fit_inner: Callable) -> Callable:
    """Builder of a tree ensemble; `fit_inner(matrix, y, params, seed)` fits it."""

    def build(name, dataset, params, seed, fit_cache):
        matrix, y, encoding = encode(dataset)
        inner = fit_inner(matrix, y, params, seed)
        return BaselineFit(name, params, dataset.schema, encoding, inner)

    return build


def _tree_settings(params) -> dict:
    return {
        "max_depth": int(params["max_depth"]),
        "min_samples_split": int(params.get("min_samples_split", 2)),
        "min_samples_leaf": int(params.get("min_samples_leaf", 1)),
    }


def _fit_tree(matrix, y, params, seed):
    return build_cart(matrix, y, **_tree_settings(params))


def _fit_forest(matrix, y, params, seed):
    return fit_rf(
        matrix,
        y,
        n_trees=int(params.get("n_trees", 100)),
        seed=seed,
        bootstrap=bool(params.get("bootstrap", True)),
        feature_fraction=float(params.get("feature_fraction", 1.0)),
        **_tree_settings(params),
    )


def _fit_boosted(matrix, y, params, seed):
    return fit_gb(
        matrix,
        y,
        n_stages=int(params["n_stages"]),
        learning_rate=float(params["learning_rate"]),
        **_tree_settings({"max_depth": 4, **params}),
    )


_LAMBDAS = {"lam": [0.001, 0.01, 0.1, 1.0, 10.0]}
_TREES = {"max_depth": [2, 4, 6, 8], "min_samples_split": [10, 30, 100]}
_CLUSTERS = {**_LAMBDAS, "n_clusters": [2, 4, 8, 16]}

# Report rows and `benchmark`'s default model list follow this order.
MODELS = {
    "ridge": ModelSpec("Ridge Regressor", _LAMBDAS, False, _composite("piecewise_rr", _global)),
    "quantile": ModelSpec(
        "Quantile Regressor", _LAMBDAS, True, _composite("piecewise_qr", _global)
    ),
    "decision_tree": ModelSpec(
        "Decision Tree Regressor", _TREES, False, _baseline(_fit_tree), "tree",
        lambda tree, X: predict_tree_mean(tree, X),
    ),
    "random_forest": ModelSpec(
        "Random Forest Regressor", _TREES, False, _baseline(_fit_forest), "forest",
        lambda forest, X: predict_rf(forest, X),
    ),
    "qrf": ModelSpec(
        "QRF", _TREES, True, _baseline(_fit_forest), "forest",
        lambda forest, X: qrf_predict(forest, X, 0.5),
    ),
    "gradient_boosting": ModelSpec(
        "Gradient Boosting Regressor", {"n_stages": [50, 100], "learning_rate": [0.05, 0.1]},
        False, _baseline(_fit_boosted), "boosted", lambda boosted, X: predict_gb(boosted, X),
    ),
    "quantile_tree": ModelSpec(
        "Quantile Tree", {**_LAMBDAS, **_TREES}, True, _composite("quantile_tree", _tree_partition)
    ),
    "piecewise_qr": ModelSpec(
        "Piecewise QR", _CLUSTERS, True, _composite("piecewise_qr", _clusters)
    ),
    "piecewise_rr": ModelSpec(
        "Piecewise RR", _CLUSTERS, False, _composite("piecewise_rr", _clusters)
    ),
    "nn_qr": ModelSpec(
        "Nearest Neighbor QR", {**_LAMBDAS, "n_neighbors": [25, 50, 100]}, True,
        _composite("nn_qr", _neighbors),
    ),
}
MODEL_NAMES = tuple(MODELS)


def model_spec(name: str) -> ModelSpec:
    """The registry entry of `name`; an unknown name raises ValueError."""
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")
    return MODELS[name]


def fit_model(
    name: str, dataset: Dataset, params: dict, seed: int = 0, fit_cache: dict | None = None
):
    """Fit one registry model; `seed` drives k-means starts and forest
    bootstraps, and `fit_cache` memoises composite partition quantile fits."""
    return model_spec(name).build(name, dataset, dict(params), seed, fit_cache)
