"""Model zoo: the ten benchmark approaches behind one fit/predict surface.

`MODELS` declares each one. The global Ridge/Quantile regressors are
degenerate single-partition piecewise models; the remaining rows map directly
onto the composite and baseline modules. Adapters encode prediction rows with
the training-fold encoding, so unseen categories hit the all-zeros path
instead of failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .baselines import (
    fit_gb,
    fit_rf,
    first_stages,
    predict_gb,
    predict_rf,
    prune_forest,
    qrf_predict,
)
from .composite import (
    INTERVAL_LEVELS,
    CompositeQuantileModel,
    count_parameters,
    fit_composite,
    predict_quantile,
)
from .data import (
    CategoricalEncoding,
    Dataset,
    EncodedMatrix,
    as_encoded,
    encode_once,
    encoded_columns,
    is_int,
    is_number,
    shared,
)
from .partition import build_cart, predict_tree_mean, prune


@dataclass(frozen=True)
class _Growth:
    """How a tree, forest or boosting run is grown once and cut per combination.

    `settings(params)` gives the keyword arguments of `grow(X, y, seed, ...)`.
    `widest` maps each setting a cut can lower to how a grid's values combine
    into the one grown structure that covers them all, and `cut(grown,
    settings)` cuts the structure of `settings` from it. The other settings
    change what grows, so they key the grown structure as they are.
    """

    tag: str
    settings: Callable
    grow: Callable
    cut: Callable
    widest: dict


@dataclass(frozen=True)
class ModelSpec:
    """One registry model; `build(name, dataset, params, seed, fit_cache)` returns
    its fit and reads only the `hyperparams` names, the only ones a grid may
    use; `kind` is a composite's kind, `point(inner, X)` a baseline's point
    forecast, and `growth` grows and cuts its tree structure, if it has one.
    `median_is_point` says that the middle column of the fit's
    `predict_intervals` is its `predict_point` forecast, bit for bit, so
    scoring predicts once: true of qrf, whose quantiles come out unsorted,
    not of a composite, which sorts them."""

    display_name: str
    grid: dict
    hyperparams: tuple[str, ...]
    quantile_capable: bool
    build: Callable
    payload: str = "composite"  # the model file's payload key
    point: Callable | None = None
    growth: _Growth | None = None
    median_is_point: bool = False
    kind: str | None = None


class _RegistryFit:
    """What both fit classes read from their registry entry, by `self.name`.

    A fit's `fill` maps each predictor column to what its empty cells became
    in the training data (`pipeline.fill_values`: a numeric column's median,
    a categorical column's level "missing"): `grid_search` sets it on its
    refit, model files keep it, and `partqr predict` fills its input with it.
    A fit made without imputation has none, so its input must be complete.
    """

    @property
    def quantile_capable(self) -> bool:
        return MODELS[self.name].quantile_capable

    def describe(self) -> list[str]:
        """The structure lines `partqr inspect` prints; a baseline has none."""
        return []


@dataclass
class CompositeFit(_RegistryFit):
    """A composite's fit. `predict_intervals` keeps its batch's encoded rows
    and unsorted median column until the next `predict_point`, which takes
    them (`_median`): a point forecast of the same rows reads that column
    and predicts nothing again."""

    name: str
    params: dict
    model: CompositeQuantileModel
    fill: dict = field(default_factory=dict)
    _median: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def schema(self):
        return self.model.schema

    @property
    def encoding(self) -> CategoricalEncoding:
        return self.model.encoding

    def _encoded(self, rows) -> EncodedMatrix:
        """`rows` in the model's encoded layout; another layout raises ValueError."""
        values = as_encoded(self.schema, self.encoding, rows)
        return EncodedMatrix(values, encoded_columns(self.schema, self.encoding))

    def predict_point(self, rows) -> np.ndarray:
        """The level-0.5 forecast per row: the median column of the last
        `predict_intervals` table, before its sort, when that was of the
        same rows; otherwise level 0.5 alone is predicted."""
        median, self._median = self._median, None
        if median is not None:
            rows = self._encoded(rows)
            if np.array_equal(rows.values, median[0]):
                return median[1]
        return predict_quantile(self.model, rows, 0.5)

    def predict_intervals(self, rows) -> np.ndarray | None:
        """(lower, median, upper) per row, with crossing repaired by sorting."""
        if not self.quantile_capable:
            return None
        rows = self._encoded(rows)
        table = predict_quantile(self.model, rows, INTERVAL_LEVELS)
        self._median = (rows.values, table[:, INTERVAL_LEVELS.index(0.5)])
        return np.sort(table, axis=1)

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
    fill: dict = field(default_factory=dict)

    def _encode(self, rows) -> np.ndarray:
        return as_encoded(self.schema, self.encoding, rows)

    def predict_point(self, rows) -> np.ndarray:
        return MODELS[self.name].point(self.inner, self._encode(rows))

    def predict_intervals(self, rows) -> np.ndarray | None:
        if not self.quantile_capable:
            return None
        # the levels are nondecreasing, so the QRF quantiles come out ordered
        return qrf_predict(self.inner, self._encode(rows), INTERVAL_LEVELS)

    def parameter_count(self) -> int | None:
        return self.inner.parameter_count()


def record_grid(fit_cache: dict, name: str, combos) -> None:
    """Tell the fits that share `fit_cache`, one fold's cache, which
    combinations a search of `name` asks for.

    The fold's dataset then grows, once, the tree, forest or boosting run
    that the recorded combinations are all cut from; it lives as long as the
    cache, which `evaluation` drops when the fold is done.
    """
    fit_cache.setdefault("grids", {})[name] = tuple(combos)


def record_scored(fit_cache: dict, name: str, combos) -> None:
    """`record_grid`, for a fold on which every one of `combos` is fit and
    scored: a composite then fits each partition along the combinations'
    whole λ path in one call (`_lam_path`). The refit, which fits one of
    them, records its grid with `record_grid` alone, so its partitions are
    fit at the winner's λ only."""
    record_grid(fit_cache, name, combos)
    fit_cache.setdefault("scored", set()).add(name)


def _lam_path(name: str, fit_cache: dict) -> tuple | None:
    """The distinct λ, in grid order, of the combinations of `name` scored
    on `fit_cache`'s fold (`record_scored`); None for any other fit."""
    if name not in fit_cache.get("scored", ()):
        return None
    return tuple(dict.fromkeys(float(c.get("lam", 0.0)) for c in fit_cache["grids"][name]))


def _widest(growth: _Growth, combos) -> dict:
    """Each setting a cut can lower at its widest over `combos`."""
    return {
        key: widest(growth.settings(c)[key] for c in combos)
        for key, widest in growth.widest.items()
    } if combos else {}


def _reach(growth: _Growth, settings: dict, wide: dict) -> dict:
    """`settings`, each one a cut can lower widened to cover `wide`."""
    return {
        **settings,
        **{k: growth.widest[k](settings[k], w) for k, w in wide.items()},
    }


def _grown(name, dataset, params, seed, fit_cache):
    """The tree structure of `name` under `params` on `dataset`, and the
    dataset's encoding.

    The structure that covers `params` and every combination recorded for
    `name` is grown once per seed and growth settings, and kept in
    `fit_cache`, which serves one training set, for every fit cut from it,
    `name`'s and any other search's of the same growth; `params`' own
    structure is cut from it.
    """
    growth = MODELS[name].growth
    matrix, y, encoding = encode_once(dataset, fit_cache)
    own = growth.settings(params)
    reach = _reach(growth, own, _widest(growth, fit_cache.get("grids", {}).get(name, ())))
    grown = shared(
        fit_cache,
        (growth.tag, seed, *sorted(reach.items())),
        lambda: growth.grow(matrix, y, seed, **reach),
    )
    return (grown if reach == own else growth.cut(grown, own)), encoding


# Builders and point forecasts look the fitting and predicting functions up at
# call time, so a wrapper installed on the module attribute (a tracer, a test
# double) sees every call.
def _composite(settings: Callable) -> Callable:
    """Builder of the entry's composite `kind`: lam plus `settings(dataset, params, seed)`."""

    def build(name, dataset, params, seed, fit_cache):
        hyperparams = {"lam": params.get("lam", 0.0), **settings(dataset, params, seed)}
        tree = None
        if MODELS[name].growth is not None:
            tree, _ = _grown(name, dataset, params, seed, fit_cache)
        model = fit_composite(
            MODELS[name].kind, dataset, hyperparams, fit_cache, tree=tree,
            lams=_lam_path(name, fit_cache),
        )
        return CompositeFit(name, params, model)

    return build


def _global(dataset, params, seed) -> dict:
    return {"n_clusters": 1, "seed": seed}


# Cluster and neighbour counts are clamped to what the data admits, so the
# default grids stay usable on small categorical spaces.
def _clusters(dataset, params, seed) -> dict:
    cols = [map(str, dataset.stored(c)) for c in dataset.schema.categorical_predictors()]
    distinct = len(set(zip(*cols))) if cols else 1
    return {"n_clusters": min(params["n_clusters"], distinct), "seed": seed}


def neighbor_settings(params: dict, n_rows: int) -> dict:
    """An nn_qr's neighbour-fit settings on `n_rows` training rows: what it
    fits with, and what loading derives from a model file's params and rows."""
    return {"lam": params.get("lam", 0.0), "n_neighbors": min(params["n_neighbors"], n_rows)}


def _neighbors(dataset, params, seed) -> dict:
    return neighbor_settings(params, dataset.n_rows)


def _baseline(name, dataset, params, seed, fit_cache):
    """Builder of a tree ensemble."""
    inner, encoding = _grown(name, dataset, params, seed, fit_cache)
    return BaselineFit(name, params, dataset.schema, encoding, inner)


def _tree_settings(params) -> dict:
    return {
        "max_depth": params["max_depth"],
        "min_samples_split": params.get("min_samples_split", 2),
        "min_samples_leaf": params.get("min_samples_leaf", 1),
    }


_CART = _Growth(
    "cart",
    _tree_settings,
    lambda X, y, seed, **kw: build_cart(X, y, **kw),
    lambda tree, s: prune(tree, s["max_depth"], s["min_samples_split"]),
    {"max_depth": max, "min_samples_split": min},
)
_FOREST = _Growth(
    "forest",
    lambda params: {
        "n_trees": params.get("n_trees", 100),
        "bootstrap": params.get("bootstrap", True),
        "feature_fraction": params.get("feature_fraction", 1.0),
        **_tree_settings(params),
    },
    lambda X, y, seed, **kw: fit_rf(X, y, seed=seed, **kw),
    lambda forest, s: prune_forest(forest, s["n_trees"], s["max_depth"], s["min_samples_split"]),
    {"n_trees": max, "max_depth": max, "min_samples_split": min},
)
# depth, split size and learning rate change every residual after the first
# stage, so only the stage count is cut
_BOOSTED = _Growth(
    "boosted",
    lambda params: {
        "n_stages": params["n_stages"],
        # the file stores a float, so an integer grid value is cast
        "learning_rate": float(params["learning_rate"]),
        **_tree_settings({"max_depth": 4, **params}),
    },
    lambda X, y, seed, **kw: fit_gb(X, y, **kw),
    lambda model, s: first_stages(model, s["n_stages"]),
    {"n_stages": max},
)

_LAMBDAS = {"lam": [0.001, 0.01, 0.1, 1.0, 10.0]}
_TREES = {"max_depth": [2, 4, 6, 8], "min_samples_split": [10, 30, 100]}
_CLUSTERS = {**_LAMBDAS, "n_clusters": [2, 4, 8, 16]}
# what `_tree_settings` and the growths' settings read
_TREE_KEYS = ("max_depth", "min_samples_split", "min_samples_leaf")
_FOREST_KEYS = ("n_trees", "bootstrap", "feature_fraction", *_TREE_KEYS)
_CLUSTER_KEYS = ("lam", "n_clusters")

# Report rows and `benchmark`'s default model list follow this order.
MODELS = {
    "ridge": ModelSpec(
        "Ridge Regressor", _LAMBDAS, ("lam",), False, _composite(_global), kind="piecewise_rr"
    ),
    "quantile": ModelSpec(
        "Quantile Regressor", _LAMBDAS, ("lam",), True, _composite(_global), kind="piecewise_qr"
    ),
    "decision_tree": ModelSpec(
        "Decision Tree Regressor", _TREES, _TREE_KEYS, False, _baseline, "tree",
        lambda tree, X: predict_tree_mean(tree, X), _CART,
    ),
    "random_forest": ModelSpec(
        "Random Forest Regressor", _TREES, _FOREST_KEYS, False, _baseline, "forest",
        lambda forest, X: predict_rf(forest, X), _FOREST,
    ),
    "qrf": ModelSpec(
        "QRF", _TREES, _FOREST_KEYS, True, _baseline, "qrf",
        lambda forest, X: qrf_predict(forest, X, 0.5), _FOREST, median_is_point=True,
    ),
    "gradient_boosting": ModelSpec(
        "Gradient Boosting Regressor", {"n_stages": [50, 100], "learning_rate": [0.05, 0.1]},
        ("n_stages", "learning_rate", *_TREE_KEYS), False, _baseline, "boosted",
        lambda boosted, X: predict_gb(boosted, X), _BOOSTED,
    ),
    "quantile_tree": ModelSpec(
        "Quantile Tree", {**_LAMBDAS, **_TREES}, ("lam", *_TREE_KEYS), True,
        _composite(lambda dataset, params, seed: _tree_settings(params)),
        kind="quantile_tree", growth=_CART,
    ),
    "piecewise_qr": ModelSpec(
        "Piecewise QR", _CLUSTERS, _CLUSTER_KEYS, True, _composite(_clusters), kind="piecewise_qr"
    ),
    "piecewise_rr": ModelSpec(
        "Piecewise RR", _CLUSTERS, _CLUSTER_KEYS, False, _composite(_clusters), kind="piecewise_rr"
    ),
    "nn_qr": ModelSpec(
        "Nearest Neighbor QR", {**_LAMBDAS, "n_neighbors": [25, 50, 100]}, ("lam", "n_neighbors"),
        True, _composite(_neighbors), kind="nn_qr",
    ),
}
MODEL_NAMES = tuple(MODELS)


def model_spec(name: str) -> ModelSpec:
    """The registry entry of `name`; an unknown name raises ValueError."""
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")
    return MODELS[name]


# the JSON type of each hyperparameter's values; a bool is an int to Python, not to JSON
_HYPERPARAM_TYPES = {
    **dict.fromkeys(
        ("max_depth", "min_samples_split", "min_samples_leaf", "n_trees", "n_stages",
         "n_clusters", "n_neighbors"),
        ("an integer", is_int),
    ),
    **dict.fromkeys(("learning_rate", "feature_fraction"), ("a number", is_number)),
    # JSON configs admit NaN and Infinity, which no fit and no model file takes
    "lam": ("a finite number >= 0", lambda value: is_number(value) and 0 <= value < math.inf),
    "bootstrap": ("true or false", lambda value: isinstance(value, bool)),
}


def check_hyperparams(name: str, params: dict, where: str = "of") -> ModelSpec:
    """The registry entry of `name`, once every name in `params` is one its
    builder reads (`ModelSpec.hyperparams`) and every value has its JSON
    type; else ValueError naming the key, `where` it came from and the model,
    and the accepted names or the value."""
    spec = model_spec(name)
    for key, value in params.items():
        if key not in spec.hyperparams:
            raise ValueError(f"unknown hyperparameter {key!r} {where} {name!r}: "
                             f"it reads only {list(spec.hyperparams)}")
        kind, check = _HYPERPARAM_TYPES[key]
        if not check(value):
            raise ValueError(f"hyperparameter {key!r} {where} {name!r} must be {kind}, "
                             f"not {value!r}")
    return spec


def fit_model(
    name: str, dataset: Dataset, params: dict, seed: int = 0, fit_cache: dict | None = None
):
    """Fit one registry model; `seed` drives k-means starts and forest
    bootstraps, and a name in `params` that the model does not read raises
    ValueError (see `check_hyperparams`). `fit_cache` (a fresh dict if None)
    serves the fits of one training set, `dataset`: it memoises its encoding,
    the grown trees, forests and boosting runs (see `record_grid`) and the
    partition quantile fits."""
    spec = check_hyperparams(name, params)
    fit_cache = {} if fit_cache is None else fit_cache
    return spec.build(name, dataset, dict(params), seed, fit_cache)
