import numpy as np
import pytest

from partqr import composite
from partqr.composite import (
    INTERVAL_LEVELS,
    ConstantModel,
    count_parameters,
    fit_composite,
    predict_quantile,
    resolve_partition,
)
from partqr.data import Dataset, FeatureSchema, encode
from partqr.linear import fit_quantile, fit_ridge, pinball_quantile, predict_linear
from partqr.partition import assign_cluster, route
from partqr.serialize import model_from_json, model_to_json
from partqr.models import CompositeFit, fit_model


def toy_dataset(n=60, seed=0, categories=("A", "B", "C")):
    rng = np.random.default_rng(seed)
    cat = rng.choice(categories, n)
    x = rng.uniform(0, 10, n)
    y = x + np.array([ord(c) - 65 for c in cat]) * 2.0 + rng.normal(0, 0.3, n)
    schema = FeatureSchema(
        (("site", "categorical"), ("dur", "numeric"), ("y", "numeric")), target="y"
    )
    return Dataset(schema, tuple((c, float(a), float(b)) for c, a, b in zip(cat, x, y)))


def interval(model, row):
    """(lower, median, upper) of one raw row scored as a batch of one, with
    crossing repaired by sorting."""
    return tuple(CompositeFit(model.kind, {}, model).predict_intervals([row])[0].tolist())


def partition_rows(model):
    """Training rows of each partition, found by routing the training matrix."""
    if model.tree is not None:
        pid = route(model.tree, model.train_matrix.values)
    else:
        pid = assign_cluster(model.clusters, model.train_matrix.categorical_submatrix())
    return {p: np.flatnonzero(pid == p) for p in model.estimators}


class TestFitComposite:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fit_composite("boosted", toy_dataset(), {})

    def test_empty_dataset(self):
        ds = toy_dataset()
        with pytest.raises(ValueError):
            fit_composite("quantile_tree", Dataset(ds.schema, ()), {"max_depth": 1})

    def test_missing_hyperparam(self):
        with pytest.raises(ValueError, match="max_depth"):
            fit_composite("quantile_tree", toy_dataset(), {})

    def test_training_rows_partition(self):
        ds = toy_dataset(80)
        for kind, hp in (
            ("quantile_tree", {"max_depth": 3, "min_samples_split": 5}),
            ("piecewise_qr", {"n_clusters": 3}),
            ("piecewise_rr", {"n_clusters": 3, "lam": 0.5}),
        ):
            model = fit_composite(kind, ds, hp)
            parts = partition_rows(model)
            seen = np.concatenate(list(parts.values()))
            assert sorted(seen.tolist()) == list(range(80))
            if model.tree is not None:
                assert all(
                    parts[leaf].tolist() == rows.tolist()
                    for leaf, rows in enumerate(model.tree.leaf_rows)
                )
            # each partition's estimators are the fits of exactly its routed rows
            for pid, rows in parts.items():
                sub, ysub = model.train_matrix.subset(rows), model.train_y[rows]
                rr = kind == "piecewise_rr"
                for alpha, est in model.estimators[pid].items():
                    if rows.size < model.width + 2:
                        want = float(np.mean(ysub)) if rr else pinball_quantile(ysub, alpha)
                        assert est == ConstantModel(want)
                    else:
                        want = fit_ridge(sub, ysub, 0.5) if rr else fit_quantile(sub, ysub, alpha, 0.0)
                        assert np.array_equal(est.coef, want.coef)
                        assert est.intercept == want.intercept

    def test_small_partitions_get_fallback(self):
        ds = toy_dataset(12)
        model = fit_composite("quantile_tree", ds, {"max_depth": 4, "min_samples_split": 2})
        smalls = [
            pid for pid, rows in partition_rows(model).items() if rows.size < model.width + 2
        ]
        assert smalls, "expected at least one small leaf in this configuration"
        for pid in smalls:
            assert all(isinstance(est, ConstantModel) for est in model.estimators[pid].values())


class TestEqOneStructure:
    def test_exactly_one_indicator_fires(self):
        ds = toy_dataset(100, seed=3)
        for kind, hp in (
            ("quantile_tree", {"max_depth": 2, "min_samples_split": 10}),
            ("piecewise_qr", {"n_clusters": 3}),
            ("piecewise_rr", {"n_clusters": 3}),
        ):
            model = fit_composite(kind, ds, hp)
            for row in ds.rows[:20]:
                pid = resolve_partition(model, [row])[0]
                assert pid in model.estimators
                indicators = [1 if p == pid else 0 for p in model.estimators]
                assert sum(indicators) == 1

    def test_composite_equals_partition_sum(self):
        from partqr.data import encode_row

        ds = toy_dataset(100, seed=4)
        model = fit_composite("quantile_tree", ds, {"max_depth": 2, "min_samples_split": 10})
        for row in ds.rows[:20]:
            pid = resolve_partition(model, [row])[0]
            x_enc = encode_row(ds.schema, model.encoding, [row])
            total = 0.0
            for p, table in model.estimators.items():
                est = table[0.5]
                term = est.value if isinstance(est, ConstantModel) else predict_linear(est, x_enc)[0]
                total += (1 if p == pid else 0) * term
            assert predict_quantile(model, [row], 0.5)[0] == total


class TestDegenerateEquivalence:
    def test_all_four_match_global_qr(self):
        ds = toy_dataset(60, seed=5)
        matrix, y, enc = encode(ds)
        global_fit = {a: fit_quantile(matrix, y, a, 0.0) for a in (0.05, 0.5, 0.95)}

        tree0 = fit_composite("quantile_tree", ds, {"max_depth": 0, "lam": 0.0})
        pq1 = fit_composite("piecewise_qr", ds, {"n_clusters": 1, "lam": 0.0})
        nn_all = fit_composite("nn_qr", ds, {"n_neighbors": 60, "lam": 0.0})

        from partqr.data import encode_row

        for row in ds.rows[:15]:
            x_enc = encode_row(ds.schema, enc, [row])
            for a in (0.05, 0.5, 0.95):
                want = predict_linear(global_fit[a], x_enc)[0]
                assert predict_quantile(tree0, [row], a)[0] == pytest.approx(want, abs=1e-6)
                assert predict_quantile(pq1, [row], a)[0] == pytest.approx(want, abs=1e-6)
                assert predict_quantile(nn_all, [row], a)[0] == pytest.approx(want, abs=1e-6)

    def test_two_regime_recovery(self):
        rng = np.random.default_rng(0)
        n = 400
        cat = rng.choice(["A", "B"], n)
        x = rng.uniform(0, 8, n)
        y = np.where(cat == "A", x, 10 - x) + rng.normal(0, 0.01, n)
        schema = FeatureSchema(
            (("c", "categorical"), ("x", "numeric"), ("y", "numeric")), target="y"
        )
        ds = Dataset(schema, tuple((c, float(a), float(b)) for c, a, b in zip(cat, x, y)))
        model = fit_composite("quantile_tree", ds, {"max_depth": 2, "min_samples_split": 10})
        errs = np.array(
            [
                abs(predict_quantile(model, [r], 0.5)[0] - (r[1] if r[0] == "A" else 10 - r[1]))
                for r in ds.rows
            ]
        )
        is_a = np.array([r[0] == "A" for r in ds.rows])
        assert float(np.median(errs[is_a])) < 0.1
        assert float(np.median(errs[~is_a])) < 0.1


class TestPredict:
    def test_unknown_alpha_rejected(self):
        model = fit_composite("quantile_tree", toy_dataset(), {"max_depth": 1})
        with pytest.raises(ValueError):
            predict_quantile(model, toy_dataset().rows[:1], 0.33)

    def test_piecewise_rr_is_point_only(self):
        ds = toy_dataset()
        model = fit_composite("piecewise_rr", ds, {"n_clusters": 2})
        assert predict_quantile(model, ds.rows[:1], 0.5)[0] == pytest.approx(
            predict_quantile(model, ds.rows[:1], 0.5)[0]
        )
        with pytest.raises(ValueError):
            predict_quantile(model, ds.rows[:1], 0.95)
        with pytest.raises(ValueError):
            predict_quantile(model, ds.rows[:1], INTERVAL_LEVELS)

    def test_nn_qr_accepts_any_alpha(self):
        ds = toy_dataset(30)
        model = fit_composite("nn_qr", ds, {"n_neighbors": 10})
        v = predict_quantile(model, ds.rows[:1], 0.37)[0]
        assert np.isfinite(v)

    def test_nn_qr_constant_neighbors(self):
        schema = FeatureSchema(
            (("c", "categorical"), ("y", "numeric")), target="y"
        )
        rows = tuple(("A", 7.0) for _ in range(10)) + tuple(("B", 1.0) for _ in range(10))
        ds = Dataset(schema, rows)
        model = fit_composite("nn_qr", ds, {"n_neighbors": 10})
        for a in (0.05, 0.5, 0.95):
            assert predict_quantile(model, [("A", 0.0)], a)[0] == pytest.approx(7.0, abs=1e-9)

    def test_unseen_category_still_predicts(self):
        ds = toy_dataset(50)
        model = fit_composite("quantile_tree", ds, {"max_depth": 2})
        v = predict_quantile(model, [("ZZZ", 5.0, 0.0)], 0.5)[0]
        assert np.isfinite(v)


class TestInterval:
    def test_ordered_predictions_kept(self):
        ds = toy_dataset(100, seed=6)
        model = fit_composite("quantile_tree", ds, {"max_depth": 1, "min_samples_split": 20})
        lower, median, upper = interval(model, ds.rows[0])
        assert lower <= median <= upper

    def test_sorting_repairs_crossing(self):
        # hand-built constant estimators force a crossing
        ds = toy_dataset(30)
        model = fit_composite("quantile_tree", ds, {"max_depth": 0})
        pid = next(iter(model.estimators))
        model.estimators[pid] = {
            0.05: ConstantModel(6.0),
            0.5: ConstantModel(5.0),
            0.95: ConstantModel(9.0),
        }
        assert interval(model, ds.rows[0]) == (5.0, 6.0, 9.0)

    def test_every_interval_ordered(self):
        ds = toy_dataset(150, seed=7)
        model = fit_composite("piecewise_qr", ds, {"n_clusters": 3, "lam": 0.1})
        for row in ds.rows[:40]:
            lower, median, upper = interval(model, row)
            assert lower <= median <= upper

    def test_width_grows_with_noise_scale(self):
        from partqr.evaluation import SyntheticSpec, generate_synthetic

        spec = SyntheticSpec(n_projects=1500, seed=23, contamination=0.0)
        ds = generate_synthetic(spec)
        model = fit_composite(
            "quantile_tree", ds, {"max_depth": 2, "min_samples_split": 30, "lam": 0.1}
        )
        widths = {c: [] for c in spec.categories}
        for row in ds.rows[:600]:
            lower, _, upper = interval(model, row)
            widths[row[0]].append(upper - lower)
        means = [float(np.mean(widths[c])) for c in spec.categories]  # scales 2 < 4 < 8
        assert means[0] < means[1] < means[2]


class TestCountParameters:
    def test_global_ridge_fifty_predictors(self):
        rng = np.random.default_rng(31)
        n, p = 80, 50
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        columns = tuple((f"x{i}", "numeric") for i in range(p)) + (("y", "numeric"),)
        ds = Dataset(
            FeatureSchema(columns, target="y"),
            tuple(tuple(map(float, row)) + (float(t),) for row, t in zip(X, y)),
        )
        fitted = fit_model("ridge", ds, {"lam": 0.1})
        assert fitted.parameter_count() == 51

    def test_nn_qr_not_applicable(self):
        model = fit_composite("nn_qr", toy_dataset(), {"n_neighbors": 5})
        assert count_parameters(model) is None

    def test_tree_convention_arithmetic(self):
        # 3 internal nodes, 4 leaves, 5 predictors, 3 levels -> 3*2 + 4*3*6 = 78
        rng = np.random.default_rng(41)
        n = 200
        X = rng.uniform(0, 1, size=(n, 5))
        y = (
            4.0 * (X[:, 0] > 0.5)
            + 2.0 * (X[:, 1] > 0.5)
            + 1.0 * ((X[:, 0] > 0.5) & (X[:, 2] > 0.5))
        )
        columns = tuple((f"x{i}", "numeric") for i in range(5)) + (("y", "numeric"),)
        ds = Dataset(
            FeatureSchema(columns, target="y"),
            tuple(tuple(map(float, row)) + (float(t),) for row, t in zip(X, y)),
        )
        model = fit_composite("quantile_tree", ds, {"max_depth": 2, "min_samples_split": 10})
        assert np.count_nonzero(model.tree.left >= 0) == 3 and model.tree.n_leaves == 4
        assert count_parameters(model) == 3 * 2 + 4 * 3 * 6

    def test_fallback_counts_one_per_level(self):
        ds = toy_dataset(5)
        model = fit_composite("quantile_tree", ds, {"max_depth": 0})
        # single leaf of 5 rows < width+2 -> three constant estimators
        assert ds.n_rows < model.width + 2
        assert count_parameters(model) == 3


class TestSerialization:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("quantile_tree", {"max_depth": 2, "min_samples_split": 10, "lam": 0.1}),
            ("piecewise_qr", {"n_clusters": 3, "lam": 0.01}),
            ("piecewise_rr", {"n_clusters": 2, "lam": 1.0}),
            ("nn_qr", {"n_neighbors": 15, "lam": 0.1}),
            ("ridge", {"lam": 0.1}),
            ("quantile", {"lam": 0.1}),
            ("decision_tree", {"max_depth": 2, "min_samples_split": 5}),
            ("random_forest", {"max_depth": 2, "n_trees": 4}),
            ("qrf", {"max_depth": 2, "n_trees": 4}),
            ("gradient_boosting", {"n_stages": 5, "learning_rate": 0.2}),
        ],
    )
    def test_round_trip_bit_identical(self, name, params):
        ds = toy_dataset(80, seed=9)
        fitted = fit_model(name, ds, params, seed=3)
        text = model_to_json(fitted)
        loaded = model_from_json(text)
        rows = list(ds.rows[:12]) + [("ZZZ", 4.2, 0.0)]
        assert loaded.predict_point(rows).tolist() == fitted.predict_point(rows).tolist()
        if fitted.predict_intervals(rows) is not None:
            assert (
                loaded.predict_intervals(rows).tolist()
                == fitted.predict_intervals(rows).tolist()
            )
        assert loaded.parameter_count() == fitted.parameter_count()
        assert model_to_json(loaded) == text


class TestHashableLevels:
    """perfbench's tracer keys each `fit_quantile` call by a hash of its
    arguments, so the levels it is passed must be hashable: a tuple or a
    float, never a list."""

    @pytest.mark.parametrize(
        "name,params",
        [
            ("quantile_tree", {"max_depth": 2, "min_samples_split": 10, "lam": 0.1}),
            ("piecewise_qr", {"n_clusters": 3, "lam": 0.01}),
            ("quantile", {"lam": 0.1}),
            ("nn_qr", {"n_neighbors": 15, "lam": 0.1}),
        ],
    )
    def test_fit_quantile_gets_hashable_alpha(self, monkeypatch, name, params):
        seen = []

        def hashing(X, y, alpha, lam, *, bases):
            hash(alpha)  # raises TypeError for a list
            seen.append(alpha)
            return fit_quantile(X, y, alpha, lam, bases=bases)

        monkeypatch.setattr(composite, "fit_quantile", hashing)
        fitted = fit_model(name, toy_dataset(80, seed=9), params, seed=3)
        fitted_calls = len(seen)
        rows = list(toy_dataset(10, seed=10).rows)
        fitted.predict_point(rows)
        fitted.predict_intervals(rows)
        # nn_qr solves its LPs when it predicts, the others when they fit
        assert (len(seen) > fitted_calls) if name == "nn_qr" else (fitted_calls > 0)
