"""The batched prediction path of the ten registry models.

A batch must answer every row bitwise as a call with that row alone does,
before and after a save/load round trip, whatever else is in the batch.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from partqr import composite
from partqr.data import Dataset, EncodedMatrix, encode, encode_row, encoded_columns
from partqr.evaluation import SyntheticSpec, generate_synthetic
from partqr.models import MODEL_NAMES, MODELS, fit_model
from partqr.partition import NODE_ARRAYS
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
# model files moved to format 3: the model file bytes may not move.
GOLDEN_DIGESTS = {
    "ridge": "737a60a12dac97c7e92546e7c87e3d1eee640453a40e1ba6c1d608c152f91f50",
    "quantile": "2bcdbb63981f664a2efdc4403d3c42538c6890465bfa67cecb6a139409f90c8f",
    "decision_tree": "64adbc8a1f8fecf41204b8186e547a900c63dab359b308baf8c6a517b0c6a0bb",
    "random_forest": "a270809de8e3790753499d6ecfc10b39d643f01c8bc8c36070ccf793232e9649",
    "qrf": "78be21b9848d13e967d51de40b1536f56fe9d0bf2d0a9a08d86e705da064bec3",
    "gradient_boosting": "4dc3ae0796cb8dd2037cd3dad059b0fda91e6ddd07d3a9a316a9ded5528b8311",
    "quantile_tree": "2eac3ab7f9cb96435e0a5109ba9d9b3012de6c167e06a8940feadc22c8dfd08e",
    "piecewise_qr": "fa39cbefa3812397741c165adb1107809fad96f09cee0ab6a7fcd2811f76912d",
    "piecewise_rr": "bee6b29c08a2773aa62c51523ab6246d7c02f9ed1fccc28bc87eb0ef46f52e1d",
    "nn_qr": "cdec8bcaa28c5b0e57c02a288949bb88467b2013b4433d8526fc4b022696419a",
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


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_columns_key_is_the_layout(fitted, name):
    # a composite's file repeats its encoded layout; a baseline's holds null
    fit = fitted[name]
    written = json.loads(model_to_json(fit))["columns"]
    if MODELS[name].payload != "composite":
        assert written is None
        return
    layout = encoded_columns(fit.schema, fit.encoding)
    assert layout == fit.model.train_matrix.columns  # the matrix it was fitted on
    assert written == [[c.source, c.level, c.from_categorical] for c in layout]
    assert fit.model.width == len(layout)
    assert fit.model.categorical_mask.tolist() == [c.from_categorical for c in layout]


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
    # a model file holds what prediction reads: no training-row lists, no fit history
    assert not _keys(json.loads(text)) & {"rows", "partition_rows", "sample_indices", "sse_history"}


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_file_is_its_own_compact_redump(fitted, name):
    text = model_to_json(fitted[name])
    doc = json.loads(text)
    assert text == json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
    assert doc["format_version"] == 3 and doc["fill"] == {}


def _subdocs(doc, has):
    """Every JSON object inside `doc`, at any depth, that holds the key `has`."""
    if isinstance(doc, dict):
        return [doc] * (has in doc) + [d for v in doc.values() for d in _subdocs(v, has)]
    if isinstance(doc, list):
        return [d for v in doc for d in _subdocs(v, has)]
    return []


# what prediction reads of each estimator and tree
ESTIMATOR_KEYS = {
    "quantile": {"type", "alpha", "coef", "intercept"},
    "ridge": {"type", "coef", "intercept"},
    "constant": {"type", "value"},
}
TREE_KEYS = {
    "feature", "threshold", "left", "right", "leaf_id", "value",
    "n_features", "max_depth", "min_samples_split", "min_samples_leaf",
}


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_estimators_and_trees_hold_only_what_prediction_reads(fitted, name):
    doc = json.loads(model_to_json(fitted[name]))
    estimators = _subdocs(doc["payload"], "type")
    assert bool(estimators) == (MODELS[name].payload == "composite" and name != "nn_qr")
    for est in estimators:
        assert set(est) == ESTIMATOR_KEYS[est["type"]]
    trees = _subdocs(doc["payload"], "leaf_id")
    assert bool(trees) == (name in TREE_MODELS)
    for tree in trees:
        assert set(tree) == TREE_KEYS
        assert len({len(tree[key]) for key in ("feature", "threshold", "left", "right", "leaf_id", "value")}) == 1


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
        for key in NODE_ARRAYS:
            a, b = getattr(own, key), getattr(back, key)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        settings = ("n_features", "max_depth", "min_samples_split", "min_samples_leaf")
        assert [getattr(own, key) for key in settings] == [getattr(back, key) for key in settings]
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


@pytest.mark.parametrize("name", ["decision_tree", "qrf", "gradient_boosting"])
def test_baseline_columns_must_be_null(fitted, name):
    columns = json.loads(model_to_json(fitted["ridge"]))["columns"]
    for edited in ([], columns):
        with pytest.raises(ValueError, match="model file key 'columns' must be null"):
            model_from_json(_edited(fitted[name], columns=edited))


def test_composite_columns_compared_as_json(fitted):
    # 1 == True to Python, but the file's flag must be the JSON literal true
    doc = json.loads(model_to_json(fitted["quantile"]))
    doc["columns"][0][2] = 1
    with pytest.raises(ValueError, match="model file key 'columns' must be the encoded layout"):
        model_from_json(json.dumps(doc))


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
