"""Model files are outside input: a seeded one-edit mutation of a small file
of each of the ten models goes through an in-process `partqr predict`.

Each edited file must either be refused at `load-model` (exit 2, no output
file) or predict finite forecasts (exit 0). It must never exit 1 or raise,
except for ROADMAP item 9's known failure: a quantile LP on targets of a
scale near 1e21 or more fails and exits 1 in `predict`.
"""

import copy
import json
import math
import random

import numpy as np
import pytest

from partqr.cli import main, write_dataset_csv
from partqr.evaluation import SyntheticSpec, generate_synthetic
from partqr.models import MODEL_NAMES, fit_model
from partqr.serialize import model_to_json

SMALL_PARAMS = {
    "ridge": {"lam": 0.1},
    "quantile": {"lam": 0.1},
    "decision_tree": {"max_depth": 2, "min_samples_split": 10},
    "random_forest": {"max_depth": 2, "min_samples_split": 10, "n_trees": 3},
    "qrf": {"max_depth": 2, "min_samples_split": 10, "n_trees": 3},
    "gradient_boosting": {"n_stages": 3, "learning_rate": 0.1, "max_depth": 2},
    "quantile_tree": {"lam": 0.1, "max_depth": 1, "min_samples_split": 10},
    "piecewise_qr": {"lam": 0.1, "n_clusters": 2},
    "piecewise_rr": {"lam": 0.1, "n_clusters": 2},
    "nn_qr": {"lam": 0.1, "n_neighbors": 15},
}
# what the training data's empty cells became, so that `fill` is edited too
FILL = {"step1_days": 12.5, "site_category": "metro"}
HUGE = 2**70  # a JSON integer past any machine integer
CASES_PER_MODEL = 40
SEED = 23


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Each model's file as a parsed document, and a prediction input."""
    train = generate_synthetic(SyntheticSpec(n_projects=40, seed=3, contamination=0.05))
    docs = {}
    for name in MODEL_NAMES:
        fit = fit_model(name, train, SMALL_PARAMS[name], seed=4)
        fit.fill = dict(FILL)
        docs[name] = json.loads(model_to_json(fit))
    inp = tmp_path_factory.mktemp("mutations") / "in.csv"
    write_dataset_csv(generate_synthetic(SyntheticSpec(n_projects=12, seed=5)), inp)
    return docs, inp


def _elements(doc, path=()):
    """(path, value) of every JSON element below `doc`, at any depth."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _elements(value, path + (key,))


def _pattern(path) -> tuple:
    """`path` with its list indices as "*": elements of one role share it."""
    return tuple("*" if isinstance(key, int) else key for key in path)


def _swapped(value, rng):
    """A value of another JSON type than `value`."""
    if isinstance(value, bool) or value is None:
        choices = [0, "x"]
    elif isinstance(value, (int, float)):
        choices = ["x", None, [value], True]
    elif isinstance(value, str):
        choices = [0, None, [value]]
    else:
        choices = ["x", 0, None, {} if isinstance(value, list) else []]
    return rng.choice(choices)


def _applicable(path, value) -> list:
    edits = ["swap", "nan", "inf", "-inf", "minus_one", "huge"]
    if isinstance(value, list) and value:
        edits += ["shorter", "longer"]
    if isinstance(path[-1], str):
        edits.append("drop")
    return edits


def _mutate(doc, path, edit, rng):
    """`doc` with one edit to the element at `path`."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    if edit == "drop":
        del parent[key]
    elif edit == "shorter":
        value.pop()
    elif edit == "longer":
        value.append(copy.deepcopy(value[-1]))
    elif edit == "swap":
        parent[key] = _swapped(value, rng)
    else:
        parent[key] = {
            "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "minus_one": -1, "huge": HUGE
        }[edit]
    return doc


def _cases(doc, rng, n):
    """n (path, edit) pairs: a role (see `_pattern`) drawn evenly among the
    file's roles, then one of its elements and an edit that applies to it."""
    roles = {}
    for path, value in _elements(doc):
        roles.setdefault(_pattern(path), []).append((path, value))
    patterns = sorted(roles, key=str)
    cases = []
    for _ in range(n):
        path, value = rng.choice(roles[rng.choice(patterns)])
        cases.append((path, rng.choice(_applicable(path, value))))
    return cases


def _predict(tmp_path, doc, inp):
    model, out = tmp_path / "model.json", tmp_path / "out.csv"
    model.write_text(json.dumps(doc), encoding="utf-8")
    if out.exists():
        out.unlink()
    code = main(["predict", "--model", str(model), "--input", str(inp), "--output", str(out)])
    return code, out


def _is_item_9(name, path, edit, err) -> bool:
    """ROADMAP item 9's LP half: nn_qr's neighbourhood LPs on a target of
    2**70 fail with exit 1 in `predict`."""
    return (
        name == "nn_qr" and path[-2:-1] == ("train_y",) and edit == "huge"
        and "error in stage 'predict': quantile LP failed" in err
    )


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_one_edit_exits_2_at_load_or_predicts_finite(tmp_path, files, capsys, name):
    docs, inp = files
    rng = random.Random(f"{SEED}-{name}")
    wrong = []
    for path, edit in _cases(docs[name], rng, CASES_PER_MODEL):
        capsys.readouterr()
        try:
            code, out = _predict(tmp_path, _mutate(docs[name], path, edit, rng), inp)
        except Exception as exc:  # noqa: BLE001 - any escape is a finding
            wrong.append((path, edit, f"raised {type(exc).__name__}: {exc}"))
            continue
        err = capsys.readouterr().err
        if code == 0:
            forecasts = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            if not np.isfinite(forecasts).all():
                wrong.append((path, edit, "exit 0 with non-finite forecasts"))
        elif code == 2:
            if "error in stage 'load-model':" not in err or out.exists():
                wrong.append((path, edit, f"exit 2 after load-model: {err.strip()}"))
        elif not _is_item_9(name, path, edit, err):
            wrong.append((path, edit, f"exit {code}: {err.strip()}"))
    assert not wrong, "\n".join(map(str, wrong))


def test_unedited_files_predict(tmp_path, files):
    docs, inp = files
    for name in MODEL_NAMES:
        code, out = _predict(tmp_path, docs[name], inp)
        assert code == 0 and np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()


def test_nn_qr_huge_target_is_roadmap_item_9(tmp_path, files, capsys):
    # a known failure, not a file defect: the target is a finite JSON number,
    # and the neighbourhood quantile LP fails on its scale (ROADMAP item 9)
    docs, inp = files
    doc = copy.deepcopy(docs["nn_qr"])
    doc["payload"]["composite"]["train_y"][0] = 1e30
    code, out = _predict(tmp_path, doc, inp)
    assert code == 1
    assert "error in stage 'predict': quantile LP failed" in capsys.readouterr().err
    assert not out.exists()
