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
from partqr.data import encode_row
from partqr.evaluation import SyntheticSpec, generate_synthetic
from partqr.models import MODEL_NAMES, MODELS, fit_model
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
# model files moved to format 2: the model file bytes may not move.
GOLDEN_DIGESTS = {
    "ridge": "3d02d98dc3df1a3da2476365bbc385cfbba98a7edc065c5119ed1ce0771362ab",
    "quantile": "38fbf69802716319f6bd58b8dab96fd6096d9198217a331c14be47f7f7c37f34",
    "decision_tree": "3443d78b25bd54bcf4c208124192ec95ff528de9e5ea42e14448009389cad60b",
    "random_forest": "ba64e8780c587cfb8637b574e589939c5e0eda949189f05deef3cea78ee68e63",
    "qrf": "75e984c5d135dcdf0cb9968329bbaef2a14b952e34b6084fcdea1c9163b2c6c9",
    "gradient_boosting": "32bda3cfb91087cb493090f06fec6e10eb7c4f74aa93abd94a71d702e9266a4e",
    "quantile_tree": "43c942fa47dfd6558f00f890ca1bb33fb8f7e052d471baa0e177ea7433061238",
    "piecewise_qr": "500c4cb1af74d9db70caf5217de93629603ddf91fb190dd509c4879e6697371e",
    "piecewise_rr": "01d3b6f0432dc1a17888be753803b24837899f6896f6a3be273204c2e943f301",
    "nn_qr": "01f8a1ed732db7cfe77829acd54cef928f9602e0eb03d11c5e2e27a0672ab9e1",
}


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


def test_version_1_file_fails_naming_its_version(fitted):
    text = model_to_json(fitted["qrf"]).replace('"format_version": 2', '"format_version": 1')
    with pytest.raises(ValueError, match="unsupported model format_version 1"):
        model_from_json(text)


def test_unknown_model_name_in_file_fails_naming_it(fitted):
    text = model_to_json(fitted["ridge"]).replace('"model_name": "ridge"', '"model_name": "lasso"')
    with pytest.raises(ValueError, match="unknown model 'lasso'"):
        model_from_json(text)


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


def test_model_name_payload_mismatch_names_both(fitted):
    text = model_to_json(fitted["decision_tree"]).replace(
        '"model_name": "decision_tree"', '"model_name": "ridge"'
    )
    with pytest.raises(ValueError, match="model 'ridge' needs a 'composite' payload"):
        model_from_json(text)


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
