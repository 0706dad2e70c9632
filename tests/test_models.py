"""The batched prediction path of the ten registry models.

A batch must answer every row bitwise as the row scored as a batch of one
does, before and after a save/load round trip, whatever else is in the batch.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from partqr import composite
from partqr.baselines import predict_gb, predict_rf, qrf_predict, qrf_weights
from partqr.data import Dataset, EncodedMatrix, encode, encode_row
from partqr.evaluation import SyntheticSpec, generate_synthetic
from partqr.linear import predict_linear
from partqr.models import MODEL_NAMES, MODELS, fit_model
from partqr.partition import assign_cluster, predict_tree_mean, route
from partqr.serialize import model_from_json, model_to_json

PARAMS = {
    "ridge": {"lam": 0.1},
    "quantile": {"lam": 0.1},
    "decision_tree": {"max_depth": 4, "min_samples_split": 10},
    "random_forest": {"max_depth": 4, "min_samples_split": 10, "n_trees": 12},
    "qrf": {"max_depth": 4, "min_samples_split": 10, "n_trees": 12},
    "gradient_boosting": {"n_stages": 20, "learning_rate": 0.1},
    "quantile_tree": {"lam": 0.1, "max_depth": 3, "min_samples_split": 20},
    "piecewise_qr": {"lam": 0.1, "n_clusters": 3},
    "piecewise_rr": {"lam": 0.1, "n_clusters": 3},
    "nn_qr": {"lam": 0.1, "n_neighbors": 40},
}

# sha256 of model_to_json for each fit of the `fitted` fixture, recorded when
# model files moved to format 5: the model file bytes may not move.
GOLDEN_DIGESTS = {
    "ridge": "a3fdc753eadfa41a4c0b8ef149630be1a75101f5a27d19a97f42cc0d562663c9",
    "quantile": "c54954323bce6148ee360077eefe2534fcfd64dfa14fbc13d01b53102136ddfd",
    "decision_tree": "1bf2e10e3a8548f4de0ccf24ff8251802ff32ff54cf6af09f7e00b78743dcc2c",
    "random_forest": "46126b845a226e708703951ac747780469c0f640d8a008dd04581084408997db",
    "qrf": "5c310541080d93bf65907b5591fbe0aac517e2e93b4a0418e1e937e0b0ceb018",
    "gradient_boosting": "27ffa71b58c8c3d9c5ec31b9c51e1a580d9ed899f894f8db1015f3052f2ec827",
    "quantile_tree": "d15745a3b8637614fd0e5bf8c29790f529d5da78bd76aa84bdc89d2d7d4bf720",
    "piecewise_qr": "b4211589fa330b47d631ff408b8d3badd7fbcd375246b8dead0107c81506f976",
    "piecewise_rr": "5f07a6e5ef107780b7a3943fdd5a05b42d05c6e8fad43359a10ee17ad0b09e5a",
    "nn_qr": "b81de7909a71397f3ce2dadb7631fde10cd46b059b94d88ecb0bbd6426116b12",
}


TREE_MODELS = (
    "decision_tree", "random_forest", "qrf", "gradient_boosting", "quantile_tree",
)


def _unseen(row, level="lunar"):
    return (level,) + tuple(row[1:])


@pytest.fixture(scope="module")
def fitted():
    train = generate_synthetic(SyntheticSpec(n_projects=160, seed=31, contamination=0.05))
    return {name: fit_model(name, train, PARAMS[name], seed=4) for name in MODEL_NAMES}


@pytest.fixture(scope="module")
def rows():
    held_out = list(generate_synthetic(SyntheticSpec(n_projects=30, seed=32)).rows)
    return held_out + [_unseen(r) for r in held_out[:4]]


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_batch_equals_one_row_calls(fitted, rows, name):
    fit = fitted[name]
    loaded = model_from_json(model_to_json(fit))
    point = fit.predict_point(rows)
    intervals = fit.predict_intervals(rows)
    for model in (fit, loaded):
        assert np.array_equal(model.predict_point(rows), point)
        one = np.concatenate([model.predict_point([r]) for r in rows])
        assert one.tolist() == point.tolist()
        if intervals is None:
            assert model.predict_intervals(rows) is None
            continue
        assert np.array_equal(model.predict_intervals(rows), intervals)
        one = np.vstack([model.predict_intervals([r]) for r in rows])
        assert one.tolist() == intervals.tolist()
    # a row's answer does not depend on the rows batched with it
    assert fit.predict_point(rows[::-1]).tolist() == point[::-1].tolist()
    if intervals is not None:
        assert (intervals[:, :-1] <= intervals[:, 1:]).all()


# each scoring function of encoded rows, with the registry fit whose part it scores
BATCH_ONLY = {
    "route": ("decision_tree", lambda fit, X: route(fit.inner, X)),
    "predict_tree_mean": ("decision_tree", lambda fit, X: predict_tree_mean(fit.inner, X)),
    "assign_cluster": (
        "piecewise_qr",
        lambda fit, X: assign_cluster(fit.model.clusters, X[..., fit.model.categorical_mask]),
    ),
    "predict_linear": ("quantile", lambda fit, X: predict_linear(fit.model.estimators[0][0.5], X)),
    "predict_rf": ("random_forest", lambda fit, X: predict_rf(fit.inner, X)),
    "predict_gb": ("gradient_boosting", lambda fit, X: predict_gb(fit.inner, X)),
    "qrf_weights": ("qrf", lambda fit, X: qrf_weights(fit.inner, X)),
    "qrf_predict": ("qrf", lambda fit, X: qrf_predict(fit.inner, X, 0.5)),
}


@pytest.mark.parametrize("function", BATCH_ONLY)
def test_scoring_takes_a_batch_only(fitted, rows, function):
    # one answer per row of a batch; a 1-D row is refused, not answered with a scalar
    name, score = BATCH_ONLY[function]
    fit = fitted[name]
    X = encode_row(fit.schema, fit.encoding, rows[:1])
    assert score(fit, X).shape[0] == 1
    with pytest.raises(ValueError, match="2-D batch"):
        score(fit, X[0])


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_encoded_matrix_equals_raw_rows(fitted, rows, name):
    # a grid search hands each fold's test rows over encoded once
    fit = fitted[name]
    matrix, _, _ = encode(Dataset(fit.schema, tuple(rows)), fit.encoding)
    assert len(matrix) == len(rows)
    assert fit.predict_point(matrix).tobytes() == fit.predict_point(rows).tobytes()
    intervals = fit.predict_intervals(matrix)
    if intervals is None:
        assert fit.predict_intervals(rows) is None
    else:
        assert intervals.tobytes() == fit.predict_intervals(rows).tobytes()
    shuffled = EncodedMatrix(matrix.values, matrix.columns[::-1])
    with pytest.raises(ValueError, match="encoded columns do not match the model's"):
        fit.predict_point(shuffled)


def test_unknown_hyperparameter_named_before_fitting():
    train = generate_synthetic(SyntheticSpec(n_projects=40, seed=1))
    want = "unknown hyperparameter 'lamda' of 'ridge': it reads only ['lam']"
    with pytest.raises(ValueError, match=re.escape(want)):
        fit_model("ridge", train, {"lamda": 100.0})
    with pytest.raises(ValueError, match="'min_sample_split' of 'decision_tree'"):
        fit_model("decision_tree", train, {"max_depth": 2, "min_sample_split": 5})


@pytest.mark.parametrize(
    "name, params, want",
    [
        ("decision_tree", {"max_depth": 2.0}, "'max_depth' of 'decision_tree' must be an integer"),
        ("random_forest", {"max_depth": 2, "n_trees": True}, "'n_trees' of 'random_forest' must be"),
        ("gradient_boosting", {"n_stages": 5, "learning_rate": "0.1"},
         "'learning_rate' of 'gradient_boosting' must be a number, not '0.1'"),
        ("qrf", {"max_depth": 2, "bootstrap": 1}, "'bootstrap' of 'qrf' must be true or false"),
    ],
)
def test_wrong_typed_hyperparameter_named_before_fitting(name, params, want):
    train = generate_synthetic(SyntheticSpec(n_projects=40, seed=1))
    with pytest.raises(ValueError, match=re.escape(f"hyperparameter {want}")):
        fit_model(name, train, params)


# keys of formats 3 and 4 whose values the loader now derives, or which only fitting reads
DERIVED_KEYS = {
    "kind", "levels", "alpha", "n_features", "max_depth", "min_samples_split",
    "min_samples_leaf", "bootstrap", "seed", "feature_fraction", "hyperparams",
    "left", "right", "leaf_id",
}


def _keys(doc) -> set:
    """Every key of a parsed JSON document, at any depth."""
    if isinstance(doc, dict):
        return set(doc).union(*(_keys(v) for v in doc.values()))
    if isinstance(doc, list):
        return set().union(*(_keys(v) for v in doc))
    return set()


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_registry_entry_and_golden_bytes(fitted, name):
    assert MODELS[name].display_name
    assert MODELS[name].grid
    text = model_to_json(fitted[name])
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[name]
    assert model_to_json(model_from_json(text)) == text
    # a model file holds what prediction reads: no training-row lists, no fit
    # history, and no copy of what the loader derives
    doc = json.loads(text)
    assert not _keys(doc) & {"rows", "partition_rows", "sample_indices", "sse_history"}
    assert "columns" not in doc
    payload = _keys(doc["payload"])
    assert not payload & DERIVED_KEYS
    assert ("y_train" in payload) == ("in_bag_leaf" in payload) == (name == "qrf")


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_file_is_its_own_compact_redump(fitted, name):
    text = model_to_json(fitted[name])
    doc = json.loads(text)
    assert text == json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
    assert doc["format_version"] == 5 and doc["fill"] == {}


def _subdocs(doc, has):
    """Every JSON object inside `doc`, at any depth, that holds the key `has`."""
    if isinstance(doc, dict):
        return [doc] * (has in doc) + [d for v in doc.values() for d in _subdocs(v, has)]
    if isinstance(doc, list):
        return [d for v in doc for d in _subdocs(v, has)]
    return []


# what prediction reads of each estimator and tree
ESTIMATOR_KEYS = {
    "quantile": {"type", "coef", "intercept"},
    "ridge": {"type", "coef", "intercept"},
    "constant": {"type", "value"},
}
# the tree models whose prediction reads leaf values, and those whose trees
# are stacked: laid end to end with their node counts
VALUE_MODELS = ("decision_tree", "random_forest", "gradient_boosting")
STACKED_MODELS = ("random_forest", "qrf", "gradient_boosting")


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_estimators_and_trees_hold_only_what_prediction_reads(fitted, name):
    doc = json.loads(model_to_json(fitted[name]))
    estimators = _subdocs(doc["payload"], "type")
    assert bool(estimators) == (MODELS[name].payload == "composite" and name != "nn_qr")
    for est in estimators:
        assert set(est) == ESTIMATOR_KEYS[est["type"]]
    trees = _subdocs(doc["payload"], "feature")
    assert len(trees) == (name in TREE_MODELS)
    for tree in trees:
        want = {"feature", "threshold"}
        want |= {"value"} if name in VALUE_MODELS else set()
        want |= {"nodes"} if name in STACKED_MODELS else set()
        assert set(tree) == want
        leaves = tree["feature"].count(-1)
        assert len(tree["threshold"]) == len(tree["feature"]) - leaves
        assert len(tree.get("value", [0] * leaves)) == leaves
        assert sum(tree.get("nodes", [len(tree["feature"])])) == len(tree["feature"])
        assert len(tree.get("nodes", [0])) == len(_trees(fitted[name]))


def _trees(fit) -> list:
    """The CART trees of a fitted (or loaded) tree model."""
    if fit.name == "quantile_tree":
        return [fit.model.tree]
    if fit.name == "decision_tree":
        return [fit.inner]
    return fit.inner.trees


@pytest.mark.parametrize("name", TREE_MODELS)
def test_loaded_trees_equal_fitted_trees(fitted, name):
    fit = fitted[name]
    pairs = list(zip(_trees(fit), _trees(model_from_json(model_to_json(fit))), strict=True))
    for own, back in pairs:
        inner, leaf = own.feature >= 0, own.feature < 0
        for key in ("feature", "left", "right", "leaf_id"):
            a, b = getattr(own, key), getattr(back, key)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        # a leaf's threshold, an inner node's value and, where the file stores
        # none, a leaf's value are NaN: prediction reads none of them
        assert own.threshold[inner].tobytes() == back.threshold[inner].tobytes()
        assert np.isnan(back.threshold[leaf]).all() and np.isnan(back.value[inner]).all()
        if name in VALUE_MODELS:
            assert own.value[leaf].tobytes() == back.value[leaf].tobytes()
        else:
            assert np.isnan(back.value).all()
        # the width is derived from the layout; the growth settings, which only
        # `prune` reads, stay on the fitted tree
        assert own.n_features == back.n_features
        settings = ("max_depth", "min_samples_split", "min_samples_leaf")
        assert None not in [getattr(own, key) for key in settings]
        assert [getattr(back, key) for key in settings] == [None] * 3
        # model files keep no training rows; a forest's trees drop theirs when fitted
        assert back.leaf_rows is None
        assert (own.leaf_rows is None) == (name in ("random_forest", "qrf"))


def test_loaded_estimators_do_without_fit_records(fitted):
    fit, loaded = fitted["quantile"], model_from_json(model_to_json(fitted["quantile"]))
    for alpha, est in loaded.model.estimators[0].items():
        assert est.lam is est.objective is est.scaled_coef is est.feature_scale is None
        own = fit.model.estimators[0][alpha]
        assert (est.alpha, est.intercept, est.coef.tobytes()) == (own.alpha, own.intercept, own.coef.tobytes())
        assert own.lam == 0.1 and own.objective is not None


def _edited(fit, **changes) -> str:
    """`fit`'s model file with some envelope keys changed."""
    doc = json.loads(model_to_json(fit))
    assert all(key in doc for key in changes)
    return json.dumps({**doc, **changes})


def test_version_1_file_fails_naming_its_version(fitted):
    with pytest.raises(ValueError, match="unsupported model format_version 1"):
        model_from_json(_edited(fitted["qrf"], format_version=1))


def test_version_2_file_fails_naming_its_version(fitted):
    with pytest.raises(ValueError, match="unsupported model format_version 2"):
        model_from_json(_edited(fitted["qrf"], format_version=2))


def test_version_3_file_fails_naming_its_version(fitted):
    with pytest.raises(ValueError, match="unsupported model format_version 3"):
        model_from_json(_edited(fitted["qrf"], format_version=3))


def test_version_4_file_fails_naming_its_version(fitted):
    with pytest.raises(ValueError, match="unsupported model format_version 4"):
        model_from_json(_edited(fitted["qrf"], format_version=4))


def test_unknown_model_name_in_file_fails_naming_it(fitted):
    with pytest.raises(ValueError, match="unknown model 'lasso'"):
        model_from_json(_edited(fitted["ridge"], model_name="lasso"))


@pytest.mark.parametrize("text", ["[1, 2]", "7", '"model"'])
def test_non_object_file_fails_saying_so(text):
    with pytest.raises(ValueError, match="a model file holds a JSON object"):
        model_from_json(text)


@pytest.mark.parametrize("key", ["schema", "payload", "model_name"])
def test_file_lacking_a_key_fails_naming_it(fitted, key):
    doc = json.loads(model_to_json(fitted["ridge"]))
    del doc[key]
    with pytest.raises(ValueError, match=re.escape(f"model file lacks the keys [{key!r}]")):
        model_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "fill", [[1.0], "x", {"step1_days": "12"}, {"step1_days": True}, {"site_category": 3}, {"nope": 1.0}]
)
def test_malformed_fill_fails_naming_the_key(fitted, fill):
    doc = json.loads(model_to_json(fitted["ridge"]))
    doc["fill"] = fill
    with pytest.raises(ValueError, match="model file key 'fill'"):
        model_from_json(json.dumps(doc))


def test_model_name_payload_mismatch_names_both(fitted):
    with pytest.raises(ValueError, match="model 'ridge' needs a 'composite' payload"):
        model_from_json(_edited(fitted["decision_tree"], model_name="ridge"))


def _objects(doc, path=()):
    """(path, object) of every JSON object in `doc`, at any depth."""
    if isinstance(doc, dict):
        yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _objects(value, path + (key,))


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_every_stored_key_is_read(fitted, name):
    """A file stores no key that loading does not need: deleting any one key
    of any JSON object in it makes the file fail to load. The entries of
    `params` and `fill` are exempt: those maps are optional entry by entry."""
    doc = json.loads(model_to_json(fitted[name]))
    loaded, tried = [], set()
    for path, obj in _objects(doc):
        if path in (("params",), ("fill",)):
            continue
        for key in list(obj):
            value = obj.pop(key)
            if path[-1:] in (("tree",), ("trees",)):
                tried.add(key)
            try:
                model_from_json(json.dumps(doc))
                loaded.append(path + (key,))
            except ValueError:
                pass
            obj[key] = value
    assert not loaded, f"files still load without {loaded}"
    # every tree key a model's files hold was deleted once
    tree_keys = {"feature", "threshold"}
    tree_keys |= {"value"} if name in VALUE_MODELS else set()
    tree_keys |= {"nodes"} if name in STACKED_MODELS else set()
    assert tried == (tree_keys if name in TREE_MODELS else set())


def _set(*path_and_value):
    """An edit that sets the element at a path of the payload to a value."""
    *path, value = path_and_value

    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value

    return edit


def _drop(*path):
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]

    return edit


def _empty_a_leaf(doc):
    # every in-bag row of leaf 0 of tree 0 leaves the bag
    leaves = doc["payload"]["qrf"]["in_bag_leaf"][0]
    leaves[:] = [-1 if leaf == 0 else leaf for leaf in leaves]


BAD_FILES = {  # case -> (model, edit of the parsed file, what the error says)
    # FOUND 55: the encoding must list the schema's categorical predictors
    "empty_encoding_tree": ("decision_tree", _set("encoding", []), "model file key 'encoding'"),
    "empty_encoding_composite": ("quantile_tree", _set("encoding", []), "model file key 'encoding'"),
    "int_level": ("quantile", _set("encoding", 0, 1, 0, 7), "model file key 'encoding'"),
    "unknown_predictor": (
        "qrf", _set("encoding", 0, 0, "site"), "must list the string levels of ['site_category']"
    ),
    "null_column_name": ("ridge", _set("schema", "columns", 1, 0, None), "model file key 'schema'"),
    "column_triple": (
        "nn_qr", _set("schema", "columns", 2, lambda c: c + ["x"]), "model file key 'schema'"
    ),
    "list_target": ("decision_tree", _set("schema", "target", ["target_days"]), "string target"),
    # FOUND 56: stored numbers in the shapes the layout gives
    "short_coef": (
        "quantile", _set("payload", "composite", "estimators", "0", "0.5", "coef", lambda c: c[:-1]),
        "'coef' must be a list of 7 finite JSON numbers",
    ),
    "bool_intercept": (
        "piecewise_rr", _set("payload", "composite", "estimators", "1", "0.5", "intercept", True),
        "'intercept' must be a finite JSON number",
    ),
    "nan_constant": (
        "quantile_tree",
        lambda doc: [
            table.update({"0.5": {"type": "constant", "value": float("nan")}})
            for table in doc["payload"]["composite"]["estimators"].values()
        ],
        "'value' must be a finite JSON number",
    ),
    "short_centroid": (
        "piecewise_qr", _set("payload", "composite", "centroids", 0, lambda c: c[:-1]),
        "'centroids' must be a list of lists of 3 finite JSON numbers",
    ),
    "no_centroids": ("piecewise_qr", _set("payload", "composite", "centroids", []), "one cluster"),
    "string_init": ("gradient_boosting", _set("payload", "boosted", "init", "3.0"), "'init' must"),
    "inf_learning_rate": (
        "gradient_boosting", _set("payload", "boosted", "learning_rate", float("inf")),
        "'learning_rate' must be a finite JSON number",
    ),
    "nan_y_train": ("qrf", _set("payload", "qrf", "y_train", 3, float("nan")), "'y_train' must"),
    "leaf_without_rows": ("qrf", _empty_a_leaf, "and a row in every leaf"),
    "zero_neighbors": ("nn_qr", _set("params", "n_neighbors", 0), "an n_neighbors >= 1"),
    "float_neighbors": (
        "nn_qr", _set("params", "n_neighbors", 40.0),
        "hyperparameter 'n_neighbors' in the model file of 'nn_qr' must be an integer",
    ),
    "no_neighbors": ("nn_qr", _drop("params", "n_neighbors"), "KeyError: 'n_neighbors'"),
    "negative_lam": ("nn_qr", _set("params", "lam", -0.1), "finite lam >= 0"),
    "nan_lam": ("nn_qr", _set("params", "lam", float("nan")), "finite lam >= 0"),
    "unsorted_subset": (
        "random_forest", _set("payload", "forest", "feature_subsets", 0, [1, 0, 2, 3, 4, 5, 6]),
        "feature_subsets 0 must be ascending, distinct and in [0, 7)",
    ),
    "subset_past_width": (
        "qrf", _set("payload", "qrf", "feature_subsets", 1, lambda s: s[:-1] + [7]),
        "feature_subsets 1 must be ascending",
    ),
    "no_trees": (
        "random_forest",
        lambda doc: doc["payload"]["forest"].update(
            trees={"feature": [], "threshold": [], "value": [], "nodes": []}, feature_subsets=[]
        ),
        "at least one tree",
    ),
    "tree_missing": ("quantile_tree", _drop("payload", "composite", "tree"), "KeyError: 'tree'"),
    "centroids_missing": (
        "piecewise_rr", _drop("payload", "composite", "centroids"), "KeyError: 'centroids'"
    ),
    "extra_partition": (
        "piecewise_qr",
        _set("payload", "composite", "estimators", lambda t: {**t, "3": t["0"]}),
        "not by partition ids 0..2",
    ),
    "missing_level": (
        "quantile_tree", _drop("payload", "composite", "estimators", "0", "0.05"),
        "estimators 0 must be keyed by the levels ['0.05', '0.5', '0.95']",
    ),
    "other_level": (
        "ridge",
        _set("payload", "composite", "estimators", "0", lambda t: {"0.95": t["0.5"]}),
        "estimators 0 must be keyed by the levels ['0.5']",
    ),
    "unknown_estimator": (
        "quantile", _set("payload", "composite", "estimators", "0", "0.05", "type", "lasso"),
        "unknown estimator type 'lasso'",
    ),
    "nan_fill": ("ridge", _set("fill", {"step1_days": float("nan")}), "key 'fill' value 'step1_days'"),
    # a fault while reading becomes one ValueError naming where it was met
    "missing_weight_units": (
        "ridge", _drop("schema", "weight_units"), "model file: malformed (KeyError: 'weight_units')"
    ),
    "list_model_name": ("qrf", _set("model_name", ["qrf"]), "model file: malformed (TypeError:"),
    "tree_as_list": (
        "decision_tree", _set("payload", "tree", []), "model file payload 'tree': malformed (TypeError:"
    ),
}


@pytest.mark.parametrize("case", BAD_FILES)
def test_bad_file_fails_naming_what_is_wrong(fitted, case):
    name, edit, says = BAD_FILES[case]
    doc = json.loads(model_to_json(fitted[name]))
    edit(doc)
    with pytest.raises(ValueError, match=re.escape(says)):
        model_from_json(json.dumps(doc))


def test_nn_qr_neighbour_settings_follow_params(fitted):
    """Loading sets lam and n_neighbors from params as fitting does, a count
    past the training rows clamped to them."""
    text = model_to_json(fitted["nn_qr"])
    assert model_from_json(text).model.hyperparams == fitted["nn_qr"].model.hyperparams
    doc = json.loads(text)
    doc["params"] = {"n_neighbors": 1000}
    rows = len(doc["payload"]["composite"]["train_y"])
    assert model_from_json(json.dumps(doc)).model.hyperparams == {"lam": 0.0, "n_neighbors": rows}


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_empty_batch_shapes(fitted, name):
    fit = fitted[name]
    assert fit.predict_point([]).shape == (0,)
    intervals = fit.predict_intervals([])
    if fit.quantile_capable:
        assert intervals.shape == (0, 3)
    else:
        assert intervals is None


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_missing_cell_names_column(fitted, rows, name):
    bad = list(rows[:3])
    bad[1] = bad[1][:2] + (None,) + bad[1][3:]
    with pytest.raises(ValueError, match="'step2_days'"):
        fitted[name].predict_point(bad)


def test_unseen_level_encodes_to_zeros(fitted, rows):
    fit = fitted["quantile"]
    model = fit.model
    batch = [rows[0], _unseen(rows[0]), _unseen(rows[1], "x")]
    stack = encode_row(model.schema, model.encoding, batch)
    mask = model.categorical_mask
    assert stack[0, mask].sum() == 1.0
    assert not stack[1:, mask].any()
    # the global quantile model answers an unseen level with its numeric terms alone
    median = model.estimators[0][0.5]
    numeric = np.where(mask, 0.0, stack[1])
    want = float(median.intercept + numeric @ median.coef)
    assert fit.predict_point([_unseen(rows[0])])[0] == want


def test_nn_qr_fits_once_per_pattern(fitted, rows, monkeypatch):
    calls = []
    fit_quantile = composite.fit_quantile

    def counted(*args, **kwargs):
        calls.append(args[2])
        return fit_quantile(*args, **kwargs)

    monkeypatch.setattr(composite, "fit_quantile", counted)
    patterns = len({r[0] for r in rows})  # three seen levels and one unseen
    assert patterns == 4
    fitted["nn_qr"].predict_intervals(rows)
    assert calls == [composite.INTERVAL_LEVELS] * patterns
    calls.clear()
    fitted["nn_qr"].predict_point(rows)
    assert calls == [(0.5,)] * patterns
