"""Versioned JSON model files; loading reproduces bit-identical predictions.

A file holds what `partqr predict` and `partqr inspect` read and nothing
else, as compact JSON with sorted keys. Floats survive a JSON round-trip
exactly (repr-based encoding). A tree is stored depth first, as its
`feature` array (-1 at a leaf), its inner nodes' `threshold`s and, where
prediction reads them, its leaf `value`s; the trees of a forest or a
boosting run are laid end to end in one array per key, with each tree's
node count (`nodes`). A linear estimator is stored as its coefficients and
intercept, centroids verbatim; a qrf forest adds the leaf of each in-bag
training row and the training targets, and nn_qr stores the training
matrix and targets its neighbour scans read. The envelope keeps the params
that `inspect` prints, the schema and encoding, and what filled the
training data's empty cells (`fill`), so `partqr predict` fills its input
the same way.

Everything else is derived on load from the one source it was copied from:
a composite's kind from the registry, its levels from its kind, an
estimator's level from its table key, nn_qr's lam and n_neighbors from the
params and the training rows (`models.neighbor_settings`, as at fit time),
a tree's width from the encoded layout (`data.encoded_columns`) or, in
a forest, from its feature subset, and its children, leaf ids and depth
from its depth-first `feature` array (`partition._shape`, as for a fitted
tree).
Training-row lists, growth settings, inner nodes' values and fit
diagnostics stay on the fitted object; a loaded one has None (NaN) there.

A model file is outside input. Loading reads every stored number through
`_array`, as JSON numbers in the shape the layout gives, checks the schema,
encoding and tables against what the kind and its partitions need, and
turns any fault met while reading into one ValueError naming the part of
the file, so `partqr` exits 2 at `load-model`.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .baselines import BoostedModel, ForestModel
from .composite import CompositeQuantileModel, ConstantModel
from .data import CategoricalEncoding, EncodedMatrix, FeatureSchema, encoded_columns
from .linear import LinearQuantileModel, RidgeModel
from .models import BaselineFit, CompositeFit, check_hyperparams, model_spec, neighbor_settings
from .partition import ClusterPartition, RegressionTree, unpack_trees

FORMAT_VERSION = 5

# faults that reading a malformed document raises; `model_from_json` turns
# them into one ValueError naming the part of the file being read
_FAULTS = (KeyError, TypeError, IndexError, AttributeError, OverflowError)
# the JSON number types a stored array of each dtype holds; a bool is an int
# to Python, not to JSON
_JSON_NUMBERS = {float: {int, float}, np.intp: {int}}


def _describe(shape: tuple, dtype, finite: bool) -> str:
    kind = "JSON integers" if dtype is np.intp else ("finite " if finite else "") + "JSON numbers"
    if not shape:
        return "a " + kind[:-1]
    counts = ["" if n < 0 else f"{n} " for n in shape]
    return "a list of " + "".join(f"{c}lists of " for c in counts[:-1]) + counts[-1] + kind


def _nested(value, shape: tuple, types: set) -> bool:
    """Whether `value` is JSON lists nested as `shape` gives, -1 meaning any
    length, of values of `types`, or for shape () one such value."""
    lists = [value]  # the lists along the axis being checked
    for axis, n in enumerate(shape):
        if axis:
            lists = [x for xs in lists for x in xs]
        if any(type(xs) is not list or n not in (-1, len(xs)) for xs in lists):
            return False
    return set(map(type, chain.from_iterable(lists))) <= types if shape else type(value) in types


def _array(doc, key, shape: tuple = (), dtype=float, finite: bool = True, name: str = ""):
    """The stored `doc[key]` as an array of `shape` and `dtype`, or as a
    Python number for shape (). Only the first axis may have any length
    (-1). The values must be JSON numbers, integers for intp, and finite
    unless `finite` is false; else ValueError naming `name` (the quoted key
    by default)."""
    value = doc[key]
    if _nested(value, shape, _JSON_NUMBERS[dtype]):
        out = np.array(value, dtype=dtype)
        if out.ndim != len(shape):  # no rows at all: np.array([]) is flat
            out = out.reshape(0, *shape[1:])
        if not finite or np.isfinite(out).all():
            return out if shape else out.item()
    raise ValueError(f"{name or repr(key)} must be {_describe(shape, dtype, finite)}")


def _trees_to_doc(trees: list[RegressionTree], values: bool, stacked: bool = True) -> dict:
    """The trees laid end to end, each depth first: `feature` (-1 at a
    leaf), the inner nodes' `threshold`s, the leaves' `value`s if `values`,
    and each tree's node count (`nodes`) if `stacked`."""
    feature = np.concatenate([tree.feature for tree in trees])
    leaf = feature < 0
    doc = {
        "feature": feature.tolist(),
        "threshold": np.concatenate([tree.threshold for tree in trees])[~leaf].tolist(),
    }
    if values:
        doc["value"] = np.concatenate([tree.value for tree in trees])[leaf].tolist()
    if stacked:
        doc["nodes"] = [tree.feature.size for tree in trees]
    return doc


def _trees_from_doc(doc: dict, widths: list[int], values: bool, stacked: bool = True):
    """The trees `_trees_to_doc` stored, over `widths` features each;
    `partition.unpack_trees` checks their shape and derives the rest."""
    feature = _array(doc, "feature", (-1,), np.intp, name="tree key 'feature'")
    sizes = _array(doc, "nodes", (-1,), np.intp, name="tree key 'nodes'") if stacked else [feature.size]
    threshold = _array(doc, "threshold", (-1,), name="tree key 'threshold'")
    value = _array(doc, "value", (-1,), name="tree key 'value'") if values else None
    return unpack_trees(feature, threshold, value, sizes, widths)


def _tree_to_doc(tree: RegressionTree, values: bool = True) -> dict:
    return _trees_to_doc([tree], values, stacked=False)


def _tree_from_doc(doc: dict, width: int, values: bool = True) -> RegressionTree:
    return _trees_from_doc(doc, [width], values, stacked=False)[0]


def _estimator_to_doc(est) -> dict:
    """The fields `predict_linear` reads; the fit's diagnostics stay on the fitted object."""
    if isinstance(est, ConstantModel):
        return {"type": "constant", "value": est.value}
    doc = {"coef": est.coef.tolist(), "intercept": est.intercept}
    return {"type": "ridge" if isinstance(est, RidgeModel) else "quantile", **doc}


def _estimator_from_doc(doc: dict, alpha: float, width: int):
    """The estimator of level `alpha`, its table's key, over `width` columns."""
    kind = doc["type"]
    if kind == "constant":
        return ConstantModel(value=_array(doc, "value"))
    if kind not in ("ridge", "quantile"):
        raise ValueError(f"unknown estimator type {kind!r}")
    coef, intercept = _array(doc, "coef", (width,)), _array(doc, "intercept")
    if kind == "ridge":
        return RidgeModel(coef=coef, intercept=intercept)
    return LinearQuantileModel(alpha=alpha, coef=coef, intercept=intercept)


def _composite_to_doc(fit: CompositeFit) -> dict:
    model = fit.model
    if model.kind == "nn_qr":
        return {
            "train_values": model.train_matrix.values.tolist(),
            "train_y": model.train_y.tolist(),
        }
    doc = {
        "estimators": {
            str(pid): {repr(a): _estimator_to_doc(est) for a, est in table.items()}
            for pid, table in model.estimators.items()
        }
    }
    if model.tree is not None:
        doc["tree"] = _tree_to_doc(model.tree, values=False)  # its estimators predict
    if model.clusters is not None:
        doc["centroids"] = model.clusters.centroids.tolist()
    return doc


def _composite_from_doc(name, params, schema, encoding, doc) -> CompositeFit:
    """Its kind comes from the registry, its widths from the encoded layout."""
    model = CompositeQuantileModel(model_spec(name).kind, schema, encoding)
    width = model.width
    if model.kind == "nn_qr":
        values = _array(doc, "train_values", (-1, width))
        model.train_matrix = EncodedMatrix(values, encoded_columns(schema, encoding))
        model.train_y = _array(doc, "train_y", (len(values),))  # one per training row, in order
        # its neighbour fits' lam and n_neighbors, set from params as at fit time;
        # check_hyperparams refuses a lam that is not a finite number >= 0
        check_hyperparams(name, params, "in the model file of")
        model.hyperparams = neighbor_settings(params, len(values))
        if not model.hyperparams["n_neighbors"] >= 1:
            raise ValueError("'params' needs an n_neighbors >= 1")
        return CompositeFit(name, params, model)
    if model.kind == "quantile_tree":
        model.tree = _tree_from_doc(doc["tree"], width, values=False)
        n = model.tree.n_leaves
    else:
        centroids = _array(doc, "centroids", (-1, int(model.categorical_mask.sum())))
        if not len(centroids):
            raise ValueError("'centroids' must hold at least one cluster")
        model.clusters = ClusterPartition(centroids=centroids)
        n = model.clusters.k
    # prediction looks up the estimators of the partition id a row falls in
    tables, levels = doc["estimators"], {repr(a): a for a in model.levels}
    if set(tables) != set(map(str, range(n))):
        raise ValueError(f"estimators are keyed {list(tables)}, not by partition ids 0..{n - 1}")
    for p in range(n):
        if set(tables[str(p)]) != set(levels):
            raise ValueError(f"estimators {p} must be keyed by the levels {list(levels)}")
        model.estimators[p] = {
            a: _estimator_from_doc(tables[str(p)][r], a, width) for r, a in levels.items()
        }
    return CompositeFit(name, params, model)


def _forest_to_doc(forest: ForestModel, values: bool = True) -> dict:
    return {
        "trees": _trees_to_doc(forest.trees, values),
        "feature_subsets": [[int(i) for i in s] for s in forest.feature_subsets],
    }


def _forest_from_doc(f: dict, width: int, values: bool = True) -> ForestModel:
    """Each tree over its feature subset's width."""
    n_trees = len(f["trees"]["nodes"])
    if not 1 <= n_trees == len(f["feature_subsets"]):
        raise ValueError("a forest needs at least one tree and one feature_subsets list per tree")
    subsets = [
        _array(f["feature_subsets"], t, (-1,), np.intp, name=f"feature_subsets {t}")
        for t in range(n_trees)
    ]
    for t, cols in enumerate(subsets):
        if (np.diff(cols) <= 0).any() or ((cols < 0) | (cols >= width)).any():
            raise ValueError(f"feature_subsets {t} must be ascending, distinct and in [0, {width})")
    trees = _trees_from_doc(f["trees"], [s.size for s in subsets], values)
    return ForestModel(trees=trees, feature_subsets=subsets, n_features=width)


def _qrf_to_doc(forest: ForestModel) -> dict:
    """The forest without leaf values, plus what QRF weights read: each
    training row's leaf id in each tree, or -1 out of bag, and the training
    targets."""
    in_bag = [leaf.tolist() for leaf in forest.in_bag_leaf]
    extra = {"in_bag_leaf": in_bag, "y_train": forest.y_train.tolist()}
    return _forest_to_doc(forest, values=False) | extra


def _qrf_from_doc(f: dict, width: int) -> ForestModel:
    forest = _forest_from_doc(f, width, values=False)
    forest.y_train = _array(f, "y_train", (-1,))
    if len(f["in_bag_leaf"]) != forest.n_trees:
        raise ValueError("a forest needs one in_bag_leaf list per tree")
    n = forest.y_train.size
    forest.in_bag_leaf = [
        _array(f["in_bag_leaf"], t, (n,), np.intp, name=f"in_bag_leaf {t}")
        for t in range(forest.n_trees)
    ]
    for t, (tree, leaf) in enumerate(zip(forest.trees, forest.in_bag_leaf)):
        # a leaf's weights are shared among its in-bag rows: it needs one
        rows = np.bincount(leaf[leaf >= 0], minlength=tree.n_leaves)
        if (leaf < -1).any() or rows.size != tree.n_leaves or not rows.all():
            raise ValueError(
                f"in_bag_leaf {t} must hold one entry per y_train row, "
                f"each in [-1, {tree.n_leaves}), and a row in every leaf"
            )
    return forest


def _boosted_to_doc(model: BoostedModel) -> dict:
    return {
        "init": model.init,
        "learning_rate": model.learning_rate,
        "trees": _trees_to_doc(model.trees, values=True),
    }


def _boosted_from_doc(b: dict, width: int) -> BoostedModel:
    return BoostedModel(
        init=_array(b, "init"),
        trees=_trees_from_doc(b["trees"], [width] * len(b["trees"]["nodes"]), values=True),
        learning_rate=_array(b, "learning_rate"),
    )


def _baseline_codec(to_doc, from_doc):
    """A baseline stores its fitted ensemble, of the encoded layout's width."""

    def read(name, params, schema, encoding, doc) -> BaselineFit:
        width = len(encoded_columns(schema, encoding))
        return BaselineFit(name, params, schema, encoding, from_doc(doc, width))

    return lambda fit: to_doc(fit.inner), read


# `ModelSpec.payload` -> (write(fit) -> payload, read(...) -> fit)
_PAYLOADS = {
    "composite": (_composite_to_doc, _composite_from_doc),
    "tree": _baseline_codec(_tree_to_doc, _tree_from_doc),
    "forest": _baseline_codec(_forest_to_doc, _forest_from_doc),
    "qrf": _baseline_codec(_qrf_to_doc, _qrf_from_doc),
    "boosted": _baseline_codec(_boosted_to_doc, _boosted_from_doc),
}


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
    "payload",
    "fill",
)


def _schema_from_doc(doc: dict) -> FeatureSchema:
    columns = doc["columns"]
    if not isinstance(columns, list) or any(
        type(c) is not list or len(c) != 2 or type(c[0]) is not str for c in columns
    ):
        raise ValueError("model file key 'schema' must list its columns as [name, kind] pairs")
    if type(doc["target"]) is not str or type(doc["weight_units"]) is not str:
        raise ValueError("model file key 'schema' needs a string target and weight_units")
    return FeatureSchema(
        tuple(map(tuple, columns)), target=doc["target"], weight_units=doc["weight_units"]
    )


def _encoding_from_doc(levels, schema: FeatureSchema) -> CategoricalEncoding:
    """The stored `encoding`: each categorical predictor of `schema`, in
    schema order, with its levels as strings."""
    wanted = schema.categorical_predictors()
    names = [
        pair[0] if type(pair) is list and len(pair) == 2 else None for pair in levels
    ] if isinstance(levels, list) else None
    if names != wanted or any(
        type(lv) is not list or set(map(type, lv)) - {str} for _, lv in levels
    ):
        raise ValueError(
            f"model file key 'encoding' must list the string levels of {wanted}, in that order"
        )
    return CategoricalEncoding(tuple((col, tuple(lv)) for col, lv in levels))


def model_from_json(text: str):
    """The fitted model a model file holds. The file is outside input: a
    defect raises ValueError saying what is wrong, and a fault met while
    reading the document (a missing key, a value of the wrong JSON type, an
    index or integer out of range) raises one ValueError naming the part of
    the model file it was met in."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a model file holds a JSON object, not a JSON {type(doc).__name__}")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {version!r}")
    missing = [key for key in _ENVELOPE if key not in doc]
    if missing:
        raise ValueError(f"model file lacks the keys {missing}")
    part = "model file"
    try:
        name = doc["model_name"]
        key = model_spec(name).payload
        schema = _schema_from_doc(doc["schema"])
        encoding = _encoding_from_doc(doc["encoding"], schema)
        if key not in doc["payload"]:
            raise ValueError(f"model {name!r} needs a {key!r} payload, which the file lacks")
        part = f"model file payload {key!r}"
        try:
            fit = _PAYLOADS[key][1](name, doc["params"], schema, encoding, doc["payload"][key])
        except ValueError as exc:
            raise ValueError(f"{part}: {exc}") from exc
        part = "model file key 'fill'"
        fit.fill = _fill_from_doc(doc["fill"], schema)
    except _FAULTS as exc:
        raise ValueError(f"{part}: malformed ({type(exc).__name__}: {exc})") from exc
    return fit


def _fill_from_doc(fill, schema: FeatureSchema) -> dict:
    """The stored `fill`, checked: a JSON object mapping predictor columns to
    a finite number (numeric column) or a string (categorical column)."""
    if not isinstance(fill, dict):
        raise ValueError(f"model file key 'fill' must be a JSON object, not {fill!r}")
    kinds = dict(schema.columns)
    for col, value in fill.items():
        kind = kinds.get(col) if col != schema.target else None
        if kind == "numeric":
            _array(fill, col, name=f"model file key 'fill' value {col!r}")
        elif kind is None or type(value) is not str:
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
