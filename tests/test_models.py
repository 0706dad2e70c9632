"""The batched prediction path of the ten registry models.

A batch must answer every row bitwise as a call with that row alone does,
before and after a save/load round trip, whatever else is in the batch.
"""

import hashlib

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

# sha256 of model_to_json for each fit of the `fitted` fixture, recorded
# before the registry refactor: the model file bytes may not move.
GOLDEN_DIGESTS = {
    "ridge": "9cf4a77039505bce242fe0140a6788302393b5350c912e9f08ee90caf3f41a1c",
    "quantile": "aa2507c41463087fce3c209e61848558e4a64e420b4103ca6a2c045ccaaa3a83",
    "decision_tree": "a5360f1fef19f10ccdd4dd37be66e1fa51e55bf5d81578dde9399517713c41b5",
    "random_forest": "61bc0a15f390787688ab69f08d7bafe4b87c07ee35dcbf715f90e473e4107d80",
    "qrf": "422b68d5e5708aa44edf34fb64f2d56da1334c15fd7b9504ea6fdd3ecb95db27",
    "gradient_boosting": "6e328a0b9bd9f4afddc63d8b5ae961f6bb35c2acc461fe2ed535218d5eed47c2",
    "quantile_tree": "971fb79729ef9dc36b95f0a0c0f30b879bd685d47cba39f89a7e3ef21f925547",
    "piecewise_qr": "780dc85f2fb86694971ff47b97b5019e6fba65174879d7145381c9533fdd9faf",
    "piecewise_rr": "05c7a013a04e48b9e2c274c4ab618746ac6d0c2b66f3b3eee5e7f9aa3955ad5a",
    "nn_qr": "3923c94836437c499648527051e79ca966b2d13f1b5f47d9fb25e66a52921462",
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


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_registry_entry_and_golden_bytes(fitted, name):
    assert MODELS[name].display_name
    assert MODELS[name].grid
    text = model_to_json(fitted[name])
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[name]
    assert model_to_json(model_from_json(text)) == text


def test_unknown_model_name_in_file_fails_naming_it(fitted):
    text = model_to_json(fitted["ridge"]).replace('"model_name": "ridge"', '"model_name": "lasso"')
    with pytest.raises(ValueError, match="unknown model 'lasso'"):
        model_from_json(text)


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


def test_nn_qr_fits_once_per_pattern_and_level(fitted, rows, monkeypatch):
    calls = []
    fit_quantile = composite.fit_quantile

    def counted(*args, **kwargs):
        calls.append(args[2])
        return fit_quantile(*args, **kwargs)

    monkeypatch.setattr(composite, "fit_quantile", counted)
    patterns = len({r[0] for r in rows})  # three seen levels and one unseen
    assert patterns == 4
    fitted["nn_qr"].predict_intervals(rows)
    assert len(calls) == patterns * 3
    calls.clear()
    fitted["nn_qr"].predict_point(rows)
    assert calls == [0.5] * patterns
