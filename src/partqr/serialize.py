"""Versioned JSON model files; loading reproduces bit-identical predictions.

A file holds what prediction reads and nothing else. Floats survive a JSON
round-trip exactly (repr-based encoding), tree/centroid structures are stored
verbatim, a forest stores the leaf of each in-bag training row, and nn_qr
stores the training matrix its neighbor scans read. Training-row lists and
fit diagnostics stay on the fitted object.
"""

from __future__ import annotations

import json

import numpy as np

from .baselines import BoostedModel, ForestModel
from .composite import CompositeQuantileModel, ConstantModel
from .data import CategoricalEncoding, EncodedColumn, EncodedMatrix, FeatureSchema
from .linear import LinearQuantileModel, RidgeModel
from .models import BaselineFit, CompositeFit, model_spec
from .partition import ClusterPartition, RegressionTree, TreeNode

FORMAT_VERSION = 2


def _tree_to_doc(tree: RegressionTree) -> dict:
    nodes = [
        {
            "feature": nd.feature,
            "threshold": nd.threshold,
            "left": nd.left,
            "right": nd.right,
            "leaf_id": nd.leaf_id,
            "value": nd.value,
        }
        for nd in tree.nodes
    ]
    return {
        "nodes": nodes,
        "n_features": tree.n_features,
        "max_depth": tree.max_depth,
        "min_samples_split": tree.min_samples_split,
        "min_samples_leaf": tree.min_samples_leaf,
    }


def _tree_from_doc(doc: dict) -> RegressionTree:
    nodes = [
        TreeNode(
            feature=nd["feature"],
            threshold=nd["threshold"],
            left=nd["left"],
            right=nd["right"],
            leaf_id=nd["leaf_id"],
            value=nd["value"],
        )
        for nd in doc["nodes"]
    ]
    return RegressionTree(
        nodes,
        doc["n_features"],
        doc["max_depth"],
        doc["min_samples_split"],
        doc["min_samples_leaf"],
    )


def _estimator_to_doc(est) -> dict:
    if isinstance(est, ConstantModel):
        return {"type": "constant", "value": est.value}
    if isinstance(est, RidgeModel):
        return {
            "type": "ridge",
            "coef": est.coef.tolist(),
            "intercept": est.intercept,
            "lam": est.lam,
            "scaled_coef": est.scaled_coef.tolist(),
            "feature_center": est.feature_center.tolist(),
            "feature_scale": est.feature_scale.tolist(),
        }
    return {
        "type": "quantile",
        "alpha": est.alpha,
        "coef": est.coef.tolist(),
        "intercept": est.intercept,
        "lam": est.lam,
        "objective": est.objective,
        "scaled_coef": est.scaled_coef.tolist(),
        "feature_scale": est.feature_scale.tolist(),
    }


def _estimator_from_doc(doc: dict):
    if doc["type"] == "constant":
        return ConstantModel(value=doc["value"])
    if doc["type"] == "ridge":
        return RidgeModel(
            coef=np.array(doc["coef"], dtype=float),
            intercept=doc["intercept"],
            lam=doc["lam"],
            scaled_coef=np.array(doc["scaled_coef"], dtype=float),
            feature_center=np.array(doc["feature_center"], dtype=float),
            feature_scale=np.array(doc["feature_scale"], dtype=float),
        )
    return LinearQuantileModel(
        alpha=doc["alpha"],
        coef=np.array(doc["coef"], dtype=float),
        intercept=doc["intercept"],
        lam=doc["lam"],
        objective=doc["objective"],
        scaled_coef=np.array(doc["scaled_coef"], dtype=float),
        feature_scale=np.array(doc["feature_scale"], dtype=float),
    )


def _composite_to_doc(fit: CompositeFit) -> tuple[list, dict]:
    """The (encoded columns, payload) documents of a composite fit."""
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
    return [[c.source, c.level, c.from_categorical] for c in model.columns], doc


def _composite_from_doc(name, params, schema, encoding, columns, doc) -> CompositeFit:
    columns = tuple(EncodedColumn(src, lv, bool(flag)) for src, lv, flag in columns)
    model = CompositeQuantileModel(
        kind=doc["kind"],
        schema=schema,
        encoding=encoding,
        columns=columns,
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
    if "centroids" in doc:
        model.clusters = ClusterPartition(centroids=np.array(doc["centroids"], dtype=float))
    if doc["kind"] == "nn_qr":
        values = np.array(doc["train_values"], dtype=float)
        model.train_matrix = EncodedMatrix(values, columns)
        model.train_y = np.array(doc["train_y"], dtype=float)
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
    return ForestModel(
        trees=[_tree_from_doc(t) for t in f["trees"]],
        in_bag_leaf=[np.array(leaf, dtype=np.intp) for leaf in f["in_bag_leaf"]],
        feature_subsets=[np.array(s, dtype=int) for s in f["feature_subsets"]],
        y_train=np.array(f["y_train"], dtype=float),
        bootstrap=f["bootstrap"],
        seed=f["seed"],
        feature_fraction=f["feature_fraction"],
    )


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
    """A baseline stores its fitted ensemble and no encoded columns."""

    def write(fit: BaselineFit):
        return None, to_doc(fit.inner)

    def read(name, params, schema, encoding, columns, doc) -> BaselineFit:
        return BaselineFit(name, params, schema, encoding, from_doc(doc))

    return write, read


# `ModelSpec.payload` -> (write(fit) -> (encoded columns, payload), read(...) -> fit)
_PAYLOADS = {
    "composite": (_composite_to_doc, _composite_from_doc),
    "tree": _baseline_codec(_tree_to_doc, _tree_from_doc),
    "forest": _baseline_codec(_forest_to_doc, _forest_from_doc),
    "boosted": _baseline_codec(_boosted_to_doc, _boosted_from_doc),
}


def model_to_json(fit) -> str:
    """Serialize a fitted registry model to the versioned JSON envelope."""
    key = model_spec(fit.name).payload
    columns, payload = _PAYLOADS[key][0](fit)
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
        "columns": columns,
        "payload": {key: payload},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# the envelope keys `model_to_json` writes
_ENVELOPE = ("format_version", "model_name", "params", "schema", "encoding", "columns", "payload")


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
    read = _PAYLOADS[key][1]
    return read(name, doc["params"], schema, encoding, doc["columns"], doc["payload"][key])


def save_model(path, fit) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(fit))


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        return model_from_json(fh.read())
