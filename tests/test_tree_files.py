"""Trees in model files: each tree depth first, as its `feature` array (-1 at
a leaf), its inner nodes' thresholds and, where prediction reads them, its
leaf values; a forest's or boosting run's trees laid end to end with their
node counts (`nodes`). A loaded tree is those arrays, so it keeps every bit
of the fitted one; loading refuses any array that does not hold whole trees.
"""

import json

import numpy as np
import pytest

from partqr.baselines import fit_gb, fit_rf
from partqr.cli import main
from partqr.data import Dataset, FeatureSchema
from partqr.models import fit_model
from partqr.partition import build_cart
from partqr.serialize import _trees_from_doc, _trees_to_doc, model_to_json


def _design(rng, n):
    """Numeric columns with ties and one-hot indicator columns."""
    numeric = np.round(rng.normal(size=(n, int(rng.integers(1, 4)))), 1)
    indicators = rng.integers(0, 2, size=(n, int(rng.integers(0, 3)))).astype(float)
    return np.column_stack([numeric, indicators])


def _round_trip(trees, values: bool, stacked: bool = True):
    doc = json.loads(json.dumps(_trees_to_doc(trees, values, stacked)))
    back = _trees_from_doc(doc, [tree.n_features for tree in trees], values, stacked)
    assert len(back) == len(trees)
    for own, loaded in zip(trees, back):
        inner, leaf = own.feature >= 0, own.feature < 0
        a, b = own.feature, loaded.feature
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert own.threshold[inner].tobytes() == loaded.threshold[inner].tobytes()
        if values:
            assert own.value[leaf].tobytes() == loaded.value[leaf].tobytes()
        assert loaded.n_features == own.n_features
    return back


@pytest.mark.parametrize("seed", range(5))
def test_single_trees_of_every_depth_round_trip_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    X = _design(rng, int(rng.integers(30, 150)))
    y = rng.normal(size=X.shape[0]) * 10 + X[:, 0] * 3
    depths = set()
    for depth in range(9):
        split = int(rng.integers(2, 12))
        tree = build_cart(X, y, depth, split, int(rng.integers(1, 4)))
        depths.add(tree.depth)
        for values in (True, False):
            _round_trip([tree], values, stacked=False)
    # a constant target grows a single leaf at any depth
    leaf = build_cart(X, np.full(X.shape[0], 2.5), max_depth=6)
    assert leaf.feature.tolist() == [-1]
    assert _round_trip([leaf], True, stacked=False)[0].value.tolist() == [2.5]
    assert 0 in depths and max(depths) > 3


@pytest.mark.parametrize("seed", range(4))
def test_forests_and_boosting_runs_round_trip_bit_for_bit(seed):
    rng = np.random.default_rng(seed + 10)
    X = _design(rng, int(rng.integers(40, 150)))
    y = rng.normal(size=X.shape[0]) * 10 + X[:, 0] * 3
    forest = fit_rf(X, y, n_trees=6, seed=seed, max_depth=int(rng.integers(0, 9)), feature_fraction=0.5)
    assert any(cols.size < X.shape[1] for cols in forest.feature_subsets) or X.shape[1] == 1
    for values in (True, False):
        _round_trip(forest.trees, values)
    run = fit_gb(X, y, n_stages=7, learning_rate=0.3, max_depth=int(rng.integers(0, 9)))
    _round_trip(run.trees, True)


# A hand-made tree payload for a file of one numeric column `x`: refused
# at `load-model` (exit 2), naming the tree key at fault.
REFUSED = {
    "closes_early": ({"feature": [0, -1, -1, -1], "threshold": [0.5], "value": [1.0, 2.0, 3.0]},
                     "tree key 'feature' must list each tree depth first, closing at its last "
                     "node: tree 0 of 4 nodes closes at node 2"),
    "never_closes": ({"feature": [0, 0, -1], "threshold": [0.5, 0.2], "value": [1.0]},
                     "tree key 'feature' must list each tree depth first, closing at its last "
                     "node: tree 0 of 3 nodes does not close"),
    "extra_threshold": ({"feature": [0, -1, -1], "threshold": [0.5, 0.7], "value": [1.0, 2.0]},
                        "tree key 'threshold' must hold one number per inner node: 1"),
    "missing_value": ({"feature": [0, -1, -1], "threshold": [0.5], "value": [1.0]},
                      "tree key 'value' must hold one number per leaf: 2"),
    "feature_below_minus_one": ({"feature": [-2, -1, -1], "threshold": [0.5], "value": [1.0, 2.0]},
                                "tree key 'feature' must lie in [-1, 1)"),
    "feature_at_width": ({"feature": [1, -1, -1], "threshold": [0.5], "value": [1.0, 2.0]},
                         "tree key 'feature' must lie in [-1, 1)"),
    "no_nodes": ({"feature": [], "threshold": [], "value": []}, "tree key 'nodes' must count"),
}


@pytest.fixture(scope="module")
def one_column_file():
    schema = FeatureSchema((("x", "numeric"), ("y", "numeric")), target="y")
    rows = [(float(i), float(i % 3)) for i in range(20)]
    fit = fit_model("decision_tree", Dataset(schema, rows), {"max_depth": 1, "min_samples_split": 2})
    return json.loads(model_to_json(fit))


def _write(tmp_path, doc, tree):
    doc = {**doc, "payload": {"tree": tree}}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("case", REFUSED)
def test_hand_made_tree_exits_2_at_load_naming_the_key(tmp_path, capsys, one_column_file, case):
    tree, says = REFUSED[case]
    model = _write(tmp_path, one_column_file, tree)
    assert main(["inspect", "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert "error in stage 'load-model': model file payload 'tree': " + says in err


def test_hand_made_tree_loads_and_predicts(tmp_path, capsys, one_column_file):
    tree = {"feature": [0, -1, 0, -1, -1], "threshold": [0.5, 4.5], "value": [1.0, 2.0, 3.0]}
    model = _write(tmp_path, one_column_file, tree)
    inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
    inp.write_text("x\n0.5\n0.75\n4.5\n9\n", encoding="utf-8")
    assert main(["predict", "--model", str(model), "--input", str(inp), "--output", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [line.split(",")[1] for line in lines] == ["1.0", "2.0", "2.0", "3.0"]
