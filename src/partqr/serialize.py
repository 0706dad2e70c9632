"""Versioned JSON model files; loading reproduces bit-identical predictions.

A file holds what prediction reads and nothing else, as compact JSON with
sorted keys. Floats survive a JSON round-trip exactly (repr-based encoding).
A tree is stored as the parallel arrays prediction walks plus its settings,
a linear estimator as its coefficients and intercept (and a quantile
estimator's level), centroids verbatim; a forest stores the leaf of each
in-bag training row, and nn_qr the training matrix its neighbor scans read.
The envelope keeps what filled the training data's empty cells (`fill`),
so `partqr predict` fills its input the same way. Training-row lists and
fit diagnostics stay on the fitted object.
"""

from __future__ import annotations

import json

import numpy as np

from .baselines import BoostedModel, ForestModel
from .composite import CompositeQuantileModel, ConstantModel
from .data import CategoricalEncoding, EncodedMatrix, FeatureSchema, encoded_columns
from .linear import LinearQuantileModel, RidgeModel
from .models import BaselineFit, CompositeFit, model_spec
from .partition import NODE_ARRAYS, ClusterPartition, RegressionTree, check_tree

FORMAT_VERSION = 3


_TREE_SETTINGS = ("n_features", "max_depth", "min_samples_split", "min_samples_leaf")
_TREE_IDS = ("feature", "left", "right", "leaf_id")


def _tree_to_doc(tree: RegressionTree) -> dict:
    doc = {key: getattr(tree, key).tolist() for key in NODE_ARRAYS}
    return doc | {key: getattr(tree, key) for key in _TREE_SETTINGS}


def _tree_from_doc(doc: dict) -> RegressionTree:
    for key in _TREE_IDS:  # a float or bool id would be truncated to an int
        ids = doc[key]
        if not isinstance(ids, list) or set(map(type, ids)) - {int}:
            raise ValueError(f"tree key {key!r} must be a list of JSON integers")
    for key in _TREE_SETTINGS:  # a bool is an int to Python, not to JSON
        value = doc[key]
        if type(value) is not int or value < 0:
            raise ValueError(f"tree key {key!r} must be a non-negative JSON integer, not {value!r}")
    try:
        tree = RegressionTree(*(doc[key] for key in NODE_ARRAYS + _TREE_SETTINGS))
    except OverflowError as exc:
        raise ValueError(f"tree ids must fit a machine integer: {exc}") from exc
    check_tree(tree)
    return tree


def _estimator_to_doc(est) -> dict:
    """The fields `predict_linear` reads; the fit's diagnostics stay on the fitted object."""
    if isinstance(est, ConstantModel):
        return {"type": "constant", "value": est.value}
    doc = {"coef": est.coef.tolist(), "intercept": est.intercept}
    if isinstance(est, RidgeModel):
        return {"type": "ridge", **doc}
    return {"type": "quantile", "alpha": est.alpha, **doc}


def _estimator_from_doc(doc: dict):
    if doc["type"] == "constant":
        return ConstantModel(value=doc["value"])
    coef = np.array(doc["coef"], dtype=float)
    if doc["type"] == "ridge":
        return RidgeModel(coef=coef, intercept=doc["intercept"])
    return LinearQuantileModel(alpha=doc["alpha"], coef=coef, intercept=doc["intercept"])


def _composite_to_doc(fit: CompositeFit) -> dict:
    model = fit.model
    doc = {
        "kind": model.kind,
        "levels": list(model.levels),
        "hyperparams": model.hyperparams,
    }
    if model.kind != "nn_qr":
        doc["estimators"] = {
            str(pid): {repr(a): _estimator_to_doc(est) for a, est in table.items()}
            for pid, table in model.estimators.items()
        }
    if model.tree is not None:
        doc["tree"] = _tree_to_doc(model.tree)
    if model.clusters is not None:
        doc["centroids"] = model.clusters.centroids.tolist()
    if model.kind == "nn_qr":
        doc["train_values"] = model.train_matrix.values.tolist()
        doc["train_y"] = model.train_y.tolist()
    return doc


def _composite_from_doc(name, params, schema, encoding, doc) -> CompositeFit:
    model = CompositeQuantileModel(
        kind=doc["kind"],
        schema=schema,
        encoding=encoding,
        levels=tuple(doc["levels"]),
        hyperparams=doc["hyperparams"],
    )
    if doc["kind"] != "nn_qr":
        model.estimators = {
            int(p): {float(a): _estimator_from_doc(d) for a, d in table.items()}
            for p, table in doc["estimators"].items()
        }
    if "tree" in doc:
        model.tree = _tree_from_doc(doc["tree"])
        # prediction looks up the estimators of the leaf id a row routes to
        if set(model.estimators) != set(range(model.tree.n_leaves)):
            raise ValueError(
                f"estimators are keyed {sorted(model.estimators)}, "
                f"not by the tree's leaf ids 0..{model.tree.n_leaves - 1}"
            )
    if "centroids" in doc:
        model.clusters = ClusterPartition(centroids=np.array(doc["centroids"], dtype=float))
    if doc["kind"] == "nn_qr":
        columns, rows = encoded_columns(schema, encoding), doc["train_values"]
        if not isinstance(rows, list) or any(
            not isinstance(r, list) or len(r) != len(columns) for r in rows
        ):
            raise ValueError(f"'train_values' rows must hold the {len(columns)} encoded columns")
        model.train_matrix = EncodedMatrix(np.array(rows, dtype=float), columns)
        model.train_y = np.array(doc["train_y"], dtype=float)
        if model.train_y.shape != (len(rows),):  # a target per training row, in order
            raise ValueError(f"'train_y' must hold one target per 'train_values' row ({len(rows)})")
    return CompositeFit(name, params, model)


def _forest_to_doc(forest: ForestModel) -> dict:
    return {
        "trees": [_tree_to_doc(t) for t in forest.trees],
        "in_bag_leaf": [leaf.tolist() for leaf in forest.in_bag_leaf],
        "feature_subsets": [[int(i) for i in s] for s in forest.feature_subsets],
        "y_train": forest.y_train.tolist(),
        "bootstrap": forest.bootstrap,
        "seed": forest.seed,
        "feature_fraction": forest.feature_fraction,
    }


def _forest_from_doc(f: dict) -> ForestModel:
    forest = ForestModel(
        trees=[_tree_from_doc(t) for t in f["trees"]],
        in_bag_leaf=[np.array(leaf, dtype=np.intp) for leaf in f["in_bag_leaf"]],
        feature_subsets=[np.array(s, dtype=int) for s in f["feature_subsets"]],
        y_train=np.array(f["y_train"], dtype=float),
        bootstrap=f["bootstrap"],
        seed=f["seed"],
        feature_fraction=f["feature_fraction"],
    )
    # QRF weights read each training row's leaf id in each tree, or -1 out of bag
    if not len(forest.in_bag_leaf) == len(forest.feature_subsets) == forest.n_trees:
        raise ValueError("a forest needs one in_bag_leaf and one feature_subsets list per tree")
    for t, (tree, leaf) in enumerate(zip(forest.trees, forest.in_bag_leaf)):
        if leaf.shape != forest.y_train.shape or ((leaf < -1) | (leaf >= tree.n_leaves)).any():
            raise ValueError(
                f"in_bag_leaf {t} must hold one entry per y_train row, "
                f"each in [-1, {tree.n_leaves})"
            )
    return forest


def _boosted_to_doc(model: BoostedModel) -> dict:
    return {
        "init": model.init,
        "learning_rate": model.learning_rate,
        "trees": [_tree_to_doc(t) for t in model.trees],
    }


def _boosted_from_doc(b: dict) -> BoostedModel:
    return BoostedModel(
        init=b["init"],
        trees=[_tree_from_doc(t) for t in b["trees"]],
        learning_rate=b["learning_rate"],
    )


def _baseline_codec(to_doc, from_doc):
    """A baseline stores its fitted ensemble."""

    def read(name, params, schema, encoding, doc) -> BaselineFit:
        return BaselineFit(name, params, schema, encoding, from_doc(doc))

    return lambda fit: to_doc(fit.inner), read


# `ModelSpec.payload` -> (write(fit) -> payload, read(...) -> fit)
_PAYLOADS = {
    "composite": (_composite_to_doc, _composite_from_doc),
    "tree": _baseline_codec(_tree_to_doc, _tree_from_doc),
    "forest": _baseline_codec(_forest_to_doc, _forest_from_doc),
    "boosted": _baseline_codec(_boosted_to_doc, _boosted_from_doc),
}


def _columns_doc(key: str, schema: FeatureSchema, encoding: CategoricalEncoding):
    """The envelope's `columns`: a composite's `encoded_columns` as [source,
    level, from_categorical] triples, null for a baseline."""
    if key != "composite":
        return None
    return [[c.source, c.level, c.from_categorical] for c in encoded_columns(schema, encoding)]


def model_to_json(fit) -> str:
    """Serialize a fitted registry model to the versioned JSON envelope."""
    key = model_spec(fit.name).payload
    doc = {
        "format_version": FORMAT_VERSION,
        "model_name": fit.name,
        "params": fit.params,
        "schema": {
            "columns": [[n, k] for n, k in fit.schema.columns],
            "target": fit.schema.target,
            "weight_units": fit.schema.weight_units,
        },
        "encoding": [[col, list(levels)] for col, levels in fit.encoding.levels],
        "columns": _columns_doc(key, fit.schema, fit.encoding),
        "payload": {key: _PAYLOADS[key][0](fit)},
        "fill": fit.fill,
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


# the envelope keys `model_to_json` writes
_ENVELOPE = (
    "format_version",
    "model_name",
    "params",
    "schema",
    "encoding",
    "columns",
    "payload",
    "fill",
)


def model_from_json(text: str):
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a model file holds a JSON object, not a JSON {type(doc).__name__}")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {version!r}")
    missing = [key for key in _ENVELOPE if key not in doc]
    if missing:
        raise ValueError(f"model file lacks the keys {missing}")
    name = doc["model_name"]
    key = model_spec(name).payload
    schema = FeatureSchema(
        tuple((n, k) for n, k in doc["schema"]["columns"]),
        target=doc["schema"]["target"],
        weight_units=doc["schema"]["weight_units"],
    )
    encoding = CategoricalEncoding(
        tuple((col, tuple(levels)) for col, levels in doc["encoding"])
    )
    if key not in doc["payload"]:
        raise ValueError(f"model {name!r} needs a {key!r} payload, which the file lacks")
    columns = _columns_doc(key, schema, encoding)
    if json.dumps(doc["columns"]) != json.dumps(columns):
        want = "null" if columns is None else "the encoded layout of its schema and encoding"
        raise ValueError(f"model file key 'columns' must be {want}")
    read = _PAYLOADS[key][1]
    try:
        fit = read(name, doc["params"], schema, encoding, doc["payload"][key])
    except ValueError as exc:
        raise ValueError(f"model file payload {key!r}: {exc}") from exc
    fit.fill = _fill_from_doc(doc["fill"], schema)
    return fit


def _fill_from_doc(fill, schema: FeatureSchema) -> dict:
    """The stored `fill`, checked: a JSON object mapping predictor columns to
    a number (numeric column) or a string (categorical column)."""
    if not isinstance(fill, dict):
        raise ValueError(f"model file key 'fill' must be a JSON object, not {fill!r}")
    kinds = dict(schema.columns)
    for col, value in fill.items():
        kind = kinds.get(col) if col != schema.target else None
        want = (int, float) if kind == "numeric" else str
        if kind is None or isinstance(value, bool) or not isinstance(value, want):
            raise ValueError(
                f"model file key 'fill' holds {col!r}: {value!r}, which is not "
                "a predictor column with a value of its kind"
            )
    return fill


def save_model(path, fit) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(fit))


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        return model_from_json(fh.read())
