"""Model zoo: the ten benchmark approaches behind one fit/predict surface.

The global Ridge/Quantile regressors are degenerate single-partition piecewise
models; the remaining rows map directly onto the composite and baseline
modules. Adapters encode prediction rows with the training-fold encoding, so
unseen categories hit the all-zeros path instead of failing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import (
    BoostedModel,
    ForestModel,
    fit_gb,
    fit_rf,
    predict_gb,
    predict_rf,
    qrf_predict,
)
from .composite import (
    INTERVAL_LEVELS,
    CompositeQuantileModel,
    count_parameters,
    fit_composite,
    predict_quantile,
)
from .data import CategoricalEncoding, Dataset, encode, encode_row
from .partition import RegressionTree, build_cart, predict_tree_mean

MODEL_NAMES = (
    "ridge",
    "quantile",
    "decision_tree",
    "random_forest",
    "qrf",
    "gradient_boosting",
    "quantile_tree",
    "piecewise_qr",
    "piecewise_rr",
    "nn_qr",
)

DISPLAY_NAMES = {
    "ridge": "Ridge Regressor",
    "quantile": "Quantile Regressor",
    "decision_tree": "Decision Tree Regressor",
    "random_forest": "Random Forest Regressor",
    "qrf": "QRF",
    "gradient_boosting": "Gradient Boosting Regressor",
    "quantile_tree": "Quantile Tree",
    "piecewise_qr": "Piecewise QR",
    "piecewise_rr": "Piecewise RR",
    "nn_qr": "Nearest Neighbor QR",
}

_LAMBDAS = [0.001, 0.01, 0.1, 1.0, 10.0]
_DEPTHS = [2, 4, 6, 8]
_MIN_SPLITS = [10, 30, 100]

DEFAULT_GRIDS = {
    "ridge": {"lam": _LAMBDAS},
    "quantile": {"lam": _LAMBDAS},
    "decision_tree": {"max_depth": _DEPTHS, "min_samples_split": _MIN_SPLITS},
    "random_forest": {"max_depth": _DEPTHS, "min_samples_split": _MIN_SPLITS},
    "qrf": {"max_depth": _DEPTHS, "min_samples_split": _MIN_SPLITS},
    "gradient_boosting": {"n_stages": [50, 100], "learning_rate": [0.05, 0.1]},
    "quantile_tree": {"lam": _LAMBDAS, "max_depth": _DEPTHS, "min_samples_split": _MIN_SPLITS},
    "piecewise_qr": {"lam": _LAMBDAS, "n_clusters": [2, 4, 8, 16]},
    "piecewise_rr": {"lam": _LAMBDAS, "n_clusters": [2, 4, 8, 16]},
    "nn_qr": {"lam": _LAMBDAS, "n_neighbors": [25, 50, 100]},
}

QUANTILE_CAPABLE = ("quantile", "qrf", "quantile_tree", "piecewise_qr", "nn_qr")


def default_grid(name: str) -> dict[str, list]:
    if name not in DEFAULT_GRIDS:
        raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")
    return {k: list(v) for k, v in DEFAULT_GRIDS[name].items()}


def _distinct_categorical_rows(dataset: Dataset) -> int:
    cats = dataset.schema.categorical_predictors()
    if not cats:
        return 1
    cols = [dataset.column(c) for c in cats]
    return len({tuple(str(v) for v in combo) for combo in zip(*cols)})


@dataclass
class CompositeFit:
    name: str
    params: dict
    model: CompositeQuantileModel

    @property
    def quantile_capable(self) -> bool:
        return self.model.kind != "piecewise_rr"

    def predict_point(self, rows) -> np.ndarray:
        return predict_quantile(self.model, rows, 0.5)

    def predict_intervals(self, rows) -> np.ndarray | None:
        """(lower, median, upper) per row, with crossing repaired by sorting."""
        if not self.quantile_capable:
            return None
        return np.sort(predict_quantile(self.model, rows, INTERVAL_LEVELS), axis=1)

    def parameter_count(self) -> int | None:
        return count_parameters(self.model)


# The lambdas look the predictors up at call time, so a wrapper installed on
# the module attribute (a tracer, a test double) sees every call.
_BASELINE_POINT = {
    "decision_tree": lambda tree, x: predict_tree_mean(tree, x),
    "random_forest": lambda forest, x: predict_rf(forest, x),
    "qrf": lambda forest, x: qrf_predict(forest, x, 0.5),
    "gradient_boosting": lambda model, x: predict_gb(model, x),
}


@dataclass
class BaselineFit:
    name: str
    params: dict
    schema: object
    encoding: CategoricalEncoding
    inner: object  # RegressionTree | ForestModel | BoostedModel

    @property
    def quantile_capable(self) -> bool:
        return self.name == "qrf"

    def _encode(self, rows) -> np.ndarray:
        return encode_row(self.schema, self.encoding, rows)

    def predict_point(self, rows) -> np.ndarray:
        return _BASELINE_POINT[self.name](self.inner, self._encode(rows))

    def predict_intervals(self, rows) -> np.ndarray | None:
        if not self.quantile_capable:
            return None
        # the levels are nondecreasing, so the QRF quantiles come out ordered
        return qrf_predict(self.inner, self._encode(rows), INTERVAL_LEVELS)

    def parameter_count(self) -> int | None:
        if isinstance(self.inner, RegressionTree):
            return 2 * self.inner.n_internal
        if isinstance(self.inner, ForestModel):
            return sum(2 * t.n_internal for t in self.inner.trees)
        return 1 + sum(2 * t.n_internal for t in self.inner.trees)


def fit_model(
    name: str, dataset: Dataset, params: dict, seed: int = 0, fit_cache: dict | None = None
):
    """Fit one registry model; `seed` drives k-means starts and forest
    bootstraps. Cluster/neighbor counts are clamped to what the data admits so
    the default grids stay usable on small categorical spaces. `fit_cache` is
    passed to `fit_composite` for the tree and cluster partitioned kinds."""
    if name not in MODEL_NAMES:
        raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")
    params = dict(params)

    if name == "ridge":
        model = fit_composite(
            "piecewise_rr", dataset, {"n_clusters": 1, "lam": params.get("lam", 0.0), "seed": seed}
        )
        return CompositeFit(name, params, model)
    if name == "quantile":
        model = fit_composite(
            "piecewise_qr", dataset, {"n_clusters": 1, "lam": params.get("lam", 0.0), "seed": seed}
        )
        return CompositeFit(name, params, model)
    if name == "quantile_tree":
        model = fit_composite(
            "quantile_tree",
            dataset,
            {
                "max_depth": params["max_depth"],
                "min_samples_split": params.get("min_samples_split", 2),
                "min_samples_leaf": params.get("min_samples_leaf", 1),
                "lam": params.get("lam", 0.0),
            },
            fit_cache,
        )
        return CompositeFit(name, params, model)
    if name in ("piecewise_qr", "piecewise_rr"):
        k = min(int(params["n_clusters"]), _distinct_categorical_rows(dataset))
        model = fit_composite(
            name,
            dataset,
            {"n_clusters": k, "lam": params.get("lam", 0.0), "seed": seed},
            fit_cache,
        )
        return CompositeFit(name, params, model)
    if name == "nn_qr":
        k = min(int(params["n_neighbors"]), dataset.n_rows)
        model = fit_composite(
            "nn_qr", dataset, {"n_neighbors": k, "lam": params.get("lam", 0.0)}
        )
        return CompositeFit(name, params, model)

    matrix, y, encoding = encode(dataset)
    if name == "decision_tree":
        inner = build_cart(
            matrix,
            y,
            max_depth=int(params["max_depth"]),
            min_samples_split=int(params.get("min_samples_split", 2)),
            min_samples_leaf=int(params.get("min_samples_leaf", 1)),
        )
    elif name in ("random_forest", "qrf"):
        inner = fit_rf(
            matrix,
            y,
            n_trees=int(params.get("n_trees", 100)),
            seed=seed,
            max_depth=int(params["max_depth"]),
            min_samples_split=int(params.get("min_samples_split", 2)),
            min_samples_leaf=int(params.get("min_samples_leaf", 1)),
            bootstrap=bool(params.get("bootstrap", True)),
            feature_fraction=float(params.get("feature_fraction", 1.0)),
        )
    else:  # gradient_boosting
        inner = fit_gb(
            matrix,
            y,
            n_stages=int(params["n_stages"]),
            learning_rate=float(params["learning_rate"]),
            max_depth=int(params.get("max_depth", 4)),
            min_samples_split=int(params.get("min_samples_split", 2)),
            min_samples_leaf=int(params.get("min_samples_leaf", 1)),
        )
    return BaselineFit(name, params, dataset.schema, encoding, inner)
