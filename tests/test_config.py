"""`load_config` rejects unknown keys and wrong-typed values, naming the key,
before any data is read."""

import json
import re

import pytest

from partqr.config import ConfigError, load_config


def write(tmp_path, **changes):
    data = tmp_path / "data.csv"
    data.write_text("x,y\n1,2\n", encoding="utf-8")
    doc = {
        "data": {"path": str(data), "target": "y"},
        "model": {"name": "ridge", "grid": {"lam": [0.1]}},
        "cv": {"folds": 2, "seed": 1},
    }
    for key, value in changes.items():
        section, _, field = key.partition("__")
        if field:
            doc.setdefault(section, {})[field] = value
        else:
            doc[section] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def rejects(path, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path)


def test_valid_config_loads(tmp_path):
    cfg = load_config(write(tmp_path, threads=1, models=["ridge", "qrf"]))
    assert cfg.cv.folds == 2 and cfg.models == ["ridge", "qrf"]
    assert not hasattr(cfg, "threads")


def test_unknown_top_level_key(tmp_path):
    rejects(write(tmp_path, outptu={"model_path": "m.json"}), "unknown keys ['outptu']")


def test_not_an_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]", encoding="utf-8")
    rejects(path, "a config must be a JSON object")


@pytest.mark.parametrize("section", ["data", "pipeline", "model", "cv", "output"])
def test_section_not_an_object(tmp_path, section):
    rejects(write(tmp_path, **{section: []}), f"{section} must be a JSON object")


@pytest.mark.parametrize(
    "key,value",
    [
        ("cv__folds", "2"),
        ("cv__folds", 2.0),
        ("cv__seed", 1.5),
        ("cv__seed", True),
        ("pipeline__lag_count", "3"),
        ("threads", "1"),
    ],
)
def test_non_integer(tmp_path, key, value):
    rejects(write(tmp_path, **{key: value}), f"{key.replace('__', '.')} must be an integer")


@pytest.mark.parametrize("threads", [0, 2])
def test_threads_other_than_1(tmp_path, threads):
    rejects(write(tmp_path, threads=threads), "searches run serially, so threads must be 1")


@pytest.mark.parametrize("value", [0.1, [], "0.1"])
def test_grid_value_not_a_non_empty_list(tmp_path, value):
    path = write(tmp_path, model={"name": "ridge", "grid": {"lam": value}})
    rejects(path, "model.grid.lam must be a non-empty list")


def test_grid_not_an_object(tmp_path):
    rejects(write(tmp_path, model={"name": "ridge", "grid": [0.1]}), "model.grid must be a JSON object")


@pytest.mark.parametrize("models", ["ridge", ["ridge", 1], {"ridge": 1}])
def test_models_not_a_list_of_names(tmp_path, models):
    rejects(write(tmp_path, models=models), "models must be a list of model names")



@pytest.mark.parametrize("value", ["0.5", True, [0.5]])
def test_numeric_r_threshold_not_a_number(tmp_path, value):
    rejects(
        write(tmp_path, pipeline__numeric_r_threshold=value),
        "pipeline.numeric_r_threshold must be a number",
    )


@pytest.mark.parametrize("value", ["0.05", False])
def test_categorical_p_threshold_not_a_number(tmp_path, value):
    rejects(
        write(tmp_path, pipeline__categorical_p_threshold=value),
        "pipeline.categorical_p_threshold must be a number",
    )


@pytest.mark.parametrize("value", ["12", True, None])
def test_tail_cap_not_a_number(tmp_path, value):
    rejects(write(tmp_path, pipeline__tail_caps={"y": value}), "pipeline.tail_caps.y must be a number")


def test_tail_caps_not_an_object(tmp_path):
    rejects(write(tmp_path, pipeline__tail_caps=[["y", 12]]), "pipeline.tail_caps must be a JSON object")


def test_numeric_thresholds_and_caps_accept_ints_and_floats(tmp_path):
    path = write(
        tmp_path,
        pipeline={"numeric_r_threshold": 0, "categorical_p_threshold": 0.05, "tail_caps": {"y": 12}},
    )
    pl = load_config(path).pipeline
    assert (pl.numeric_r_threshold, pl.categorical_p_threshold, pl.tail_caps) == (0, 0.05, {"y": 12})
