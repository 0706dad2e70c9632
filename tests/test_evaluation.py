import gc
import inspect
import json
import re
import weakref

import numpy as np
import pytest

from partqr import evaluation
from partqr.data import Dataset, FeatureSchema
from partqr.evaluation import (
    CVResult,
    EvaluationReport,
    _fold_seed,
    _selection_key,
    benchmark,
    cross_validate,
    grid_combinations,
    grid_search,
    interval_coverage,
    mean_ae,
    median_ae,
)
from partqr.models import MODELS, fit_model, model_spec
from partqr.pipeline import fit_imputer, prune_tail
from partqr.synthetic import (
    SyntheticSpec,
    generate_synthetic,
    mixture_cdf,
    mixture_quantile,
    synthetic_true_quantile_rows,
)
from partqr.data import split_kfold


class TestMetrics:
    def test_perfect_predictions(self):
        assert median_ae([1, 2, 3], [1, 2, 3]) == 0.0
        assert mean_ae([1, 2, 3], [1, 2, 3]) == 0.0

    def test_residual_examples(self):
        pred = np.array([1.0, -3.0, 2.0])
        actual = np.zeros(3)
        assert median_ae(pred, actual) == 2.0
        assert mean_ae(pred, actual) == 2.0

    def test_even_count_median(self):
        assert median_ae([1.0, 3.0], [0.0, 0.0]) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            median_ae([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mean_ae([], [])


class TestCoverage:
    def test_all_inside(self):
        iv = np.array([[0.0, 10.0]] * 4)
        assert interval_coverage(iv, [1.0, 5.0, 9.0, 0.0]) == 100.0

    def test_bounds_inclusive(self):
        assert interval_coverage(np.array([[0.0, 10.0]]), [10.0]) == 100.0
        assert interval_coverage(np.array([[0.0, 10.0]]), [0.0]) == 100.0

    def test_seven_of_eight(self):
        iv = np.array([[0.0, 1.0]] * 8)
        actual = [0.5] * 7 + [2.0]
        assert interval_coverage(iv, actual) == 87.5

    def test_three_column_intervals(self):
        iv = np.array([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]])
        assert interval_coverage(iv, [0.2, 5.0]) == 50.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            interval_coverage(np.array([[0.0, 1.0]]), [1.0, 2.0])


def leaky_dataset(n=60, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n) * 10
    schema = FeatureSchema((("leak", "numeric"), ("y", "numeric")), target="y")
    return Dataset(schema, tuple((float(v), float(v)) for v in y))


class TestCrossValidate:
    def test_perfect_model_sanity_ceiling(self):
        cv = cross_validate("quantile", {"lam": 0.0}, leaky_dataset(), 5, seed=3)
        assert cv.median_ae < 1e-6
        assert cv.mean_ae < 1e-6

    def test_aggregate_equals_independent_pooling(self):
        spec = SyntheticSpec(n_projects=120, seed=2)
        ds = generate_synthetic(spec)
        cv = cross_validate("decision_tree", {"max_depth": 3, "min_samples_split": 5}, ds, 4, seed=8)

        errors = []
        target_j = ds.schema.index_of(ds.schema.target)
        for fold_idx, (train_idx, test_idx) in enumerate(split_kfold(ds, 4, 8)):
            train, test = ds.subset(train_idx), ds.subset(test_idx)
            imputer = fit_imputer(train)
            train, test = imputer.transform(train), imputer.transform(test)
            fitted = fit_model(
                "decision_tree",
                train,
                {"max_depth": 3, "min_samples_split": 5},
                seed=_fold_seed(8, fold_idx),
            )
            pred = fitted.predict_point(list(test.rows))
            actual = np.array([float(r[target_j]) for r in test.rows])
            errors.extend(np.abs(pred - actual).tolist())
        assert cv.median_ae == pytest.approx(float(np.median(errors)))
        assert cv.mean_ae == pytest.approx(float(np.mean(errors)))

    def test_seed_changes_folds_not_rows(self):
        ds = leaky_dataset(40)
        a = cross_validate("decision_tree", {"max_depth": 1}, ds, 4, seed=1)
        b = cross_validate("decision_tree", {"max_depth": 1}, ds, 4, seed=2)
        assert len(a.pooled_actual) == len(b.pooled_actual) == 40
        assert sorted(a.pooled_actual.tolist()) == sorted(b.pooled_actual.tolist())

    def test_leakage_guard_fold_statistics(self):
        rng = np.random.default_rng(9)
        vals = [float(v) if rng.random() > 0.2 else None for v in rng.normal(size=80) * 5]
        target = rng.normal(size=80) * 3 + 100
        schema = FeatureSchema(
            (("v", "numeric"), ("w", "numeric"), ("y", "numeric")), target="y"
        )
        ds = Dataset(
            schema,
            tuple(
                (v, float(rng.uniform(0, 200)), float(t)) for v, t in zip(vals, target)
            ),
        )
        caps = {"w": 150.0}
        cv = cross_validate("decision_tree", {"max_depth": 2}, ds, 4, seed=5, caps=caps)
        for fold_idx, (train_idx, _) in enumerate(split_kfold(ds, 4, 5)):
            train = ds.subset(train_idx)
            capped, removed = prune_tail(train, "w", 150.0)
            imputer = fit_imputer(capped)
            detail = cv.fold_details[fold_idx]
            assert detail.cap_removed["w"] == removed
            assert detail.numeric_fill == pytest.approx(imputer.numeric_fill)


class TestScore:
    """`_score` predicts each fit once where its interval median is its point forecast."""

    @pytest.mark.parametrize(
        "name,params",
        [
            ("qrf", {"max_depth": 6, "min_samples_split": 10, "n_trees": 12}),
            ("quantile_tree", {"lam": 0.1, "max_depth": 2, "min_samples_split": 10}),
            ("piecewise_qr", {"lam": 0.1, "n_clusters": 3}),
            ("nn_qr", {"lam": 0.1, "n_neighbors": 30}),
        ],
    )
    def test_point_forecast_is_predict_point(self, monkeypatch, name, params):
        from partqr import models

        ds = generate_synthetic(SyntheticSpec(n_projects=160, seed=12, contamination=0.05))
        fold = evaluation.prepare_folds(ds, 4, seed=6)[1]
        calls = []
        for cls in (models.BaselineFit, models.CompositeFit):
            original = cls.predict_point

            def counted(self, rows, original=original):
                calls.append(len(rows))
                return original(self, rows)

            monkeypatch.setattr(cls, "predict_point", counted)
        pred, intervals, _ = evaluation._score(name, params, fold, {})
        once = model_spec(name).median_is_point
        assert calls == ([] if once else [len(fold.test)])
        want = fit_model(name, fold.train, params, seed=fold.seed).predict_point(fold.test)
        assert pred.tobytes() == want.tobytes()
        assert intervals.shape == (len(fold.test), 3)


class TestGridSearch:
    def test_singleton_grid_wins(self):
        ds = leaky_dataset(40)
        result = grid_search("decision_tree", {"max_depth": [2]}, ds, 4, seed=1)
        assert result.best_params == {"max_depth": 2}
        assert len(result.evaluations) == 1
        assert len(result.best_cv.fold_metrics) == 4

    def test_empty_grid_rejected(self):
        ds = leaky_dataset(40)
        with pytest.raises(ValueError):
            grid_search("decision_tree", {"max_depth": []}, ds, 4, seed=1)

    def test_exhaustive_grid_logged(self):
        ds = leaky_dataset(40)
        grid = {"max_depth": [1, 2, 3], "min_samples_split": [2, 10]}
        result = grid_search("decision_tree", grid, ds, 4, seed=1)
        assert len(result.evaluations) == 6
        assert grid_combinations(grid)[0] == {"max_depth": 1, "min_samples_split": 2}

    @pytest.mark.parametrize("search", ["grid_search", "benchmark"])
    def test_cap_on_missing_column_named_before_any_fold(self, monkeypatch, search):
        def unprepared(*args, **kwargs):
            raise AssertionError("a fold was prepared")

        monkeypatch.setattr(evaluation, "_prepare_fold", unprepared)
        monkeypatch.setattr(evaluation, "prepare_folds", unprepared)
        ds = leaky_dataset(40)
        columns = [name for name, _ in ds.schema.columns]
        want = f"tail cap 'nope' (cap 5) names a missing column: the data has no column 'nope', only {columns}"
        synth = generate_synthetic(SyntheticSpec(n_projects=40, seed=1))
        cases = [
            (ds, {"y": 50.0, "nope": 5}, want),
            # a categorical column, which `prune_tail` cannot read as numbers
            (synth, {"step1_days": 50.0, "site_category": 5},
             "tail cap 'site_category' (cap 5) names a categorical column: "
             "only numeric columns can be capped"),
            (synth, {"step1_days": 50.0, "target_days": 0},
             "tail cap 'target_days' (cap 0) on the numeric column 'target_days': "
             "a cap must be positive"),
            (synth, {"step2_days": -2.5},
             "tail cap 'step2_days' (cap -2.5) on the numeric column 'step2_days': "
             "a cap must be positive"),
        ]
        for data, caps, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                if search == "grid_search":
                    grid_search("ridge", {"lam": [0.1]}, data, 4, seed=1, caps=caps)
                else:
                    benchmark(data, ["ridge"], k=4, seed=1, caps=caps)

    @pytest.mark.parametrize(
        "name, grid, key",
        [
            ("ridge", {"lamda": [0.1, 100.0]}, "lamda"),
            ("decision_tree", {"max_depth": [2], "min_sample_split": [10, 30]}, "min_sample_split"),
            ("qrf", {"max_depth": [2], "n_clusters": [2]}, "n_clusters"),
        ],
    )
    def test_unknown_hyperparameter_named_before_any_fold(self, monkeypatch, name, grid, key):
        def unprepared(*args, **kwargs):
            raise AssertionError("a fold was prepared")

        monkeypatch.setattr(evaluation, "_prepare_fold", unprepared)
        monkeypatch.setattr(evaluation, "prepare_folds", unprepared)
        ds = generate_synthetic(SyntheticSpec(n_projects=40, seed=1))
        accepted = list(model_spec(name).hyperparams)
        want = f"unknown hyperparameter {key!r} in the grid of {name!r}: it reads only {accepted}"
        with pytest.raises(ValueError, match=re.escape(want)):
            grid_search(name, grid, ds, 4, seed=1)
        with pytest.raises(ValueError, match=re.escape(want)):
            benchmark(ds, ["ridge", name], grids={name: grid}, k=4, seed=1)

    @pytest.mark.parametrize(
        "name, grid, want",
        [
            ("decision_tree", {"max_depth": [2, 2.5]}, "'max_depth' in the grid of "
             "'decision_tree' must be an integer, not 2.5"),
            ("qrf", {"max_depth": [2], "bootstrap": [True, 0]}, "'bootstrap' in the grid of "
             "'qrf' must be true or false, not 0"),
            ("ridge", {"lam": [0.1, "1"]}, "'lam' in the grid of 'ridge' must be a finite number >= 0, "
             "not '1'"),
        ],
    )
    def test_wrong_typed_hyperparameter_named_before_any_fold(self, monkeypatch, name, grid, want):
        # the last combination is the bad one: every combination is checked
        def unprepared(*args, **kwargs):
            raise AssertionError("a fold was prepared")

        monkeypatch.setattr(evaluation, "_prepare_fold", unprepared)
        monkeypatch.setattr(evaluation, "prepare_folds", unprepared)
        ds = generate_synthetic(SyntheticSpec(n_projects=40, seed=1))
        with pytest.raises(ValueError, match=re.escape(f"hyperparameter {want}")):
            grid_search(name, grid, ds, 4, seed=1)
        with pytest.raises(ValueError, match=re.escape(f"hyperparameter {want}")):
            benchmark(ds, ["ridge", name], grids={name: grid}, k=4, seed=1)

    def test_every_default_grid_uses_only_accepted_names(self):
        for name, spec in MODELS.items():
            assert set(spec.grid) <= set(spec.hyperparams), name

    def test_tie_breaks_to_smaller_model(self):
        def fake(median, counts):
            return CVResult(
                name="m",
                params={},
                fold_metrics=[],
                median_ae=median,
                mean_ae=median,
                coverage_pct=None,
                param_counts=counts,
                pooled_pred=np.zeros(1),
                pooled_actual=np.zeros(1),
                pooled_intervals=None,
            )

        big = fake(1.0, [500, 500])
        small = fake(1.0, [10, 10])
        na = fake(1.0, [None, 10])
        keys = [_selection_key(i, cv) for i, cv in enumerate([big, small, na])]
        assert min(range(3), key=lambda i: keys[i]) == 1
        # grid order breaks the remaining tie
        assert _selection_key(0, big) < _selection_key(2, fake(1.0, [500, 500]))


def assert_same_evaluation(a: CVResult, b: CVResult):
    assert a.params == b.params
    assert a.median_ae == b.median_ae
    assert a.mean_ae == b.mean_ae
    assert a.coverage_pct == b.coverage_pct
    assert a.fold_metrics == b.fold_metrics
    assert a.param_counts == b.param_counts
    assert a.pooled_pred.tobytes() == b.pooled_pred.tobytes()
    assert a.pooled_actual.tobytes() == b.pooled_actual.tobytes()
    assert (a.pooled_intervals is None) == (b.pooled_intervals is None)
    if a.pooled_intervals is not None:
        assert a.pooled_intervals.tobytes() == b.pooled_intervals.tobytes()


# grids with two depths, two split sizes and two tree or stage counts, so
# every combination but one is cut from a larger tree structure
TREE_GRIDS = {
    "decision_tree": {"max_depth": [2, 4], "min_samples_split": [10, 40]},
    "random_forest": {"max_depth": [2, 4], "min_samples_split": [10, 40], "n_trees": [3, 5]},
    "qrf": {
        "max_depth": [2, 4],
        "min_samples_split": [10, 40],
        "n_trees": [3, 5],
        "feature_fraction": [0.6],
    },
    "gradient_boosting": {
        "n_stages": [4, 8],
        "learning_rate": [0.1, 0.3],
        "max_depth": [2, 3],
        "min_samples_split": [10, 40],
    },
}


def count_cart_builds(monkeypatch) -> list:
    """Count build_cart calls at every module that binds it, as perfbench's tracer does."""
    from partqr import baselines, composite, models, partition

    calls = []
    original = partition.build_cart

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (partition, baselines, models, composite):
        assert module.build_cart is original
        monkeypatch.setattr(module, "build_cart", counted)
    return calls


def count_quantile_fits(monkeypatch) -> list:
    """Count the partition quantile fits, at the one module that calls fit_quantile."""
    from partqr import composite

    calls = []
    original = composite.fit_quantile

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(composite, "fit_quantile", counted)
    return calls


class TestGridSearchSharing:
    """Shared folds and memoised partition fits change no evaluation."""

    def dataset(self):
        return generate_synthetic(SyntheticSpec(n_projects=160, seed=12, contamination=0.05))

    @pytest.mark.parametrize(
        "name,grid",
        [
            ("quantile_tree", {"lam": [0.0, 0.1], "max_depth": [1, 2], "min_samples_split": [10, 60]}),
            ("piecewise_qr", {"lam": [0.01, 1.0], "n_clusters": [1, 2, 3]}),
            *TREE_GRIDS.items(),
            # every λ > 0: a partition's later λ start from its basis at the first
            ("quantile_tree", {"lam": [0.01, 0.1, 1.0], "max_depth": [1, 2], "min_samples_split": [10]}),
        ],
    )
    def test_matches_standalone_cross_validate(self, name, grid):
        ds = self.dataset()
        caps = {"target_days": 150.0}
        result = grid_search(name, grid, ds, 4, seed=6, caps=caps)
        combos = grid_combinations(grid)
        assert len(result.evaluations) == len(combos)
        for combo, shared in zip(combos, result.evaluations):
            assert_same_evaluation(shared, cross_validate(name, combo, ds, 4, seed=6, caps=caps))

    @pytest.mark.parametrize("name,trees", [("decision_tree", 1), ("random_forest", 5)])
    def test_one_growth_per_fold_and_refit(self, monkeypatch, name, trees):
        calls = count_cart_builds(monkeypatch)
        grid_search(name, TREE_GRIDS[name], self.dataset(), 4, seed=6)
        # 4 folds and the refit each grow the largest structure once
        assert len(calls) == (4 + 1) * trees

    def test_benchmark_refuses_threads_other_than_1(self):
        with pytest.raises(ValueError, match="searches run serially"):
            benchmark(self.dataset(), ["ridge"], k=4, seed=6, threads=2)

    def test_grid_search_takes_no_threads(self):
        assert "threads" not in inspect.signature(grid_search).parameters

    def test_benchmark_shares_forests_across_searches(self, monkeypatch):
        ds = self.dataset()
        grids = {"random_forest": TREE_GRIDS["random_forest"], "qrf": TREE_GRIDS["random_forest"]}
        calls = count_cart_builds(monkeypatch)
        both = benchmark(ds, ["random_forest", "qrf"], grids=grids, k=4, seed=6)
        assert len(calls) == (4 + 1) * 5  # qrf cuts random_forest's forests
        rf = benchmark(ds, ["random_forest"], grids=grids, k=4, seed=6)
        qrf = benchmark(ds, ["qrf"], grids=grids, k=4, seed=6)
        joined = EvaluationReport(rf.models + qrf.models, rf.k, rf.seed, rf.n_rows, rf.weight_units)
        assert both.to_json() == joined.to_json()
        for a, b in zip(both.models, joined.models):
            assert (a.bounds is None) == (b.bounds is None)
            if a.bounds is not None:
                assert a.bounds.tobytes() == b.bounds.tobytes()

    def test_benchmark_shares_partition_fits_across_searches(self, monkeypatch):
        calls = count_quantile_fits(monkeypatch)
        grids = {"quantile": {"lam": [0.1]}, "piecewise_qr": {"lam": [0.1], "n_clusters": [1]}}
        benchmark(self.dataset(), list(grids), grids=grids, k=4, seed=6)
        # one partition of every row: one fit per fold and one for the shared refit
        assert len(calls) == 4 + 1

    def test_later_lams_of_a_partition_start_warm(self, monkeypatch):
        from partqr import composite

        calls = []
        original = composite.fit_quantile

        def spy(X, y, alpha, lam):
            calls.append((X.values.tobytes() + y.tobytes(), lam))
            return original(X, y, alpha, lam)

        monkeypatch.setattr(composite, "fit_quantile", spy)
        trees = {"max_depth": [1, 2], "min_samples_split": [10]}

        def search(lams):
            """grid_search at `lams`, and its refit's partition fits."""
            result = grid_search("quantile_tree", {"lam": lams, **trees}, self.dataset(), 4, seed=6)
            estimators = result.final_model.model.estimators.values()
            return result, sum(not isinstance(t[0.5], composite.ConstantModel) for t in estimators)

        # the (fold, partition) pairs that a search at one λ fits
        refit = search([0.1])[1]
        pairs = len(calls) - refit
        calls.clear()
        path = (0.01, 0.1, 1.0)
        result, refit = search(list(path))
        # on each fold one call per partition solves the grid's whole λ path
        # (each λ's solves start from the bases of the λ before); the refit
        # solves each of its partitions at the winner's λ alone
        folds, refits = calls[:-refit], calls[-refit:]
        assert len(folds) == pairs > 0
        assert all(lam == path for _, lam in folds)
        assert len({partition for partition, _ in folds}) == pairs
        assert [lam for _, lam in refits] == [float(result.best_params["lam"])] * refit

    def test_combinations_cut_to_one_tree_share_its_leaf_fits(self, monkeypatch):
        calls = count_quantile_fits(monkeypatch)
        grid = {"lam": [0.1], "max_depth": [1], "min_samples_split": [2, 3]}
        result = grid_search("quantile_tree", grid, self.dataset(), 4, seed=6)
        assert result.final_model.model.n_partitions == 2
        assert len(calls) == 2 * (4 + 1)  # two leaves on each fold and the refit

    @pytest.mark.parametrize("name", ["quantile_tree", "decision_tree"])
    def test_each_folds_test_rows_encoded_once(self, monkeypatch, name):
        from partqr import data

        encoded = []
        encode_row_ = data.encode_row

        def counted(schema, encoding, rows):
            encoded.append(len(rows))
            return encode_row_(schema, encoding, rows)

        monkeypatch.setattr(data, "encode_row", counted)
        monkeypatch.setattr(evaluation, "encode_row", counted)
        grid = {"max_depth": [1, 2], "min_samples_split": [10, 60]}
        if name == "quantile_tree":
            grid["lam"] = [0.1, 1.0]
        ds = self.dataset()
        grid_search(name, grid, ds, 4, seed=6)
        # each fold's training set and test rows, then the refit's training set
        folds = split_kfold(ds, 4, 6)
        want = [n for train, test in folds for n in (len(train), len(test))] + [ds.n_rows]
        assert encoded == want

    def test_benchmark_frees_each_folds_structures_before_the_next_fold(self, monkeypatch):
        from partqr import models

        grown = []  # (index of the fold, weakref to a grown tree or forest)
        datasets = []  # the training set of each fold in turn, then the refits'
        for attr in ("build_cart", "fit_rf"):
            original = getattr(models, attr)

            def growing(*args, original=original, **kwargs):
                structure = original(*args, **kwargs)
                grown.append((len(datasets) - 1, weakref.ref(structure)))
                return structure

            monkeypatch.setattr(models, attr, growing)
        fit_model_ = evaluation.fit_model

        def fitting(name, dataset, *args, **kwargs):
            if not datasets or datasets[-1] is not dataset:
                gc.collect()
                alive = [fold for fold, ref in grown if ref() is not None]
                assert not alive, f"fold {len(datasets)} starts with structures of folds {alive}"
                datasets.append(dataset)
            return fit_model_(name, dataset, *args, **kwargs)

        monkeypatch.setattr(evaluation, "fit_model", fitting)
        grids = {name: TREE_GRIDS[name] for name in ("decision_tree", "random_forest", "qrf")}
        benchmark(self.dataset(), list(grids), grids=grids, k=4, seed=6)
        assert len(datasets) == 4 + 1  # every fold's fits run together, then the refits
        # per fold and refit: the deepest tree and two forests (qrf's feature fraction differs)
        assert [fold for fold, _ in grown] == [f for f in range(5) for _ in range(3)]

    def test_benchmark_prepares_each_fold_once(self, monkeypatch):
        from partqr import evaluation

        ds = self.dataset()
        names = ["ridge", "decision_tree", "gradient_boosting"]
        caps = {"target_days": 150.0}
        imputed, searches = [], []
        fit_imputer_, grid_search_ = evaluation.fit_imputer, evaluation.grid_search

        def counted(*args, **kwargs):
            imputed.append(1)
            return fit_imputer_(*args, **kwargs)

        def recorded(*args, **kwargs):
            searches.append(grid_search_(*args, **kwargs))
            return searches[-1]

        monkeypatch.setattr(evaluation, "fit_imputer", counted)
        monkeypatch.setattr(evaluation, "grid_search", recorded)
        report = benchmark(ds, names, k=4, caps=caps)
        assert len(imputed) == 4 + 1  # the folds and the refit's dataset, not per search
        shared = list(searches)
        alone = [benchmark(ds, [name], k=4, caps=caps) for name in names]
        assert len(searches) == 2 * len(names)
        joined = EvaluationReport(
            [r.models[0] for r in alone], report.k, report.seed, report.n_rows, report.weight_units
        )
        assert report.to_json() == joined.to_json()
        for a, b in zip(report.models, joined.models):
            assert (a.bounds is None) == (b.bounds is None)
            if a.bounds is not None:
                assert a.bounds.tobytes() == b.bounds.tobytes()
                assert a.bounds_actual.tobytes() == b.bounds_actual.tobytes()
        for a, b in zip(shared, searches[len(names) :]):
            assert a.best_params == b.best_params
            assert a.best_cv.fold_details == b.best_cv.fold_details
            assert a.final_model.parameter_count() == b.final_model.parameter_count()
            for x, y in zip(a.evaluations, b.evaluations):
                assert_same_evaluation(x, y)
        assert any(sum(d.cap_removed.values()) for d in shared[0].best_cv.fold_details)


class TestSynthetic:
    def test_noiseless_linear_identifiable(self):
        spec = SyntheticSpec(
            n_projects=200, seed=1, contamination=0.0, noise_scales=(0.0, 0.0, 0.0)
        )
        ds = generate_synthetic(spec)
        cv = cross_validate("quantile", {"lam": 0.0}, ds, 5, seed=4)
        assert cv.median_ae < 1e-6

    def test_seeded_determinism(self):
        spec = SyntheticSpec(n_projects=100, seed=5, contamination=0.1)
        assert generate_synthetic(spec).rows == generate_synthetic(spec).rows

    def test_contaminated_target_is_skewed(self):
        spec = SyntheticSpec(n_projects=2000, seed=11, contamination=0.1, tail_scale=50.0)
        ds = generate_synthetic(spec)
        t = np.array([r[-1] for r in ds.rows])
        skew = float(np.mean(((t - t.mean()) / t.std()) ** 3))
        assert skew > 1.0

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_projects=0, seed=1)
        with pytest.raises(ValueError):
            SyntheticSpec(n_projects=10, seed=1, contamination=1.0)
        with pytest.raises(ValueError):
            SyntheticSpec(n_projects=10, seed=1, cascade_weights=((), (-0.5,), (0, 0), (0, 0, 0)))

    def test_mixture_quantile_inverts_cdf(self):
        for sigma, rho, tau in ((2.0, 0.05, 30.0), (5.0, 0.3, 10.0), (1.0, 0.0, 5.0)):
            for alpha in (0.05, 0.5, 0.95):
                q = mixture_quantile(alpha, sigma, rho, tau)
                assert mixture_cdf(q, sigma, rho, tau) == pytest.approx(alpha, abs=1e-9)

    def test_oracle_interval_coverage_near_ninety(self):
        spec = SyntheticSpec(n_projects=5000, seed=7, contamination=0.05)
        ds = generate_synthetic(spec)
        lo = synthetic_true_quantile_rows(spec, ds, 0.05)
        hi = synthetic_true_quantile_rows(spec, ds, 0.95)
        actual = np.array([r[-1] for r in ds.rows])
        cov = interval_coverage(np.column_stack([lo, hi]), actual)
        assert 88.0 <= cov <= 92.0


class TestBenchmark:
    def small_dataset(self):
        return generate_synthetic(SyntheticSpec(n_projects=150, seed=3))

    def small_grids(self):
        return {
            "ridge": {"lam": [0.1]},
            "decision_tree": {"max_depth": [2], "min_samples_split": [10]},
            "quantile_tree": {"lam": [0.1], "max_depth": [2], "min_samples_split": [10]},
        }

    def test_single_model_report(self):
        report = benchmark(
            self.small_dataset(), ["ridge"], grids=self.small_grids(), k=4, seed=2
        )
        assert len(report.models) == 1
        assert report.models[0].display_name == "Ridge Regressor"

    def test_rows_keep_input_order(self):
        names = ["quantile_tree", "ridge", "decision_tree"]
        report = benchmark(self.small_dataset(), names, grids=self.small_grids(), k=4, seed=2)
        assert [m.name for m in report.models] == names

    def test_json_and_text_agree(self):
        report = benchmark(
            self.small_dataset(),
            ["ridge", "quantile_tree"],
            grids=self.small_grids(),
            k=4,
            seed=2,
        )
        doc = json.loads(report.to_json())
        text = report.to_text()
        for row in doc["models"]:
            assert f"{row['median_ae']:.2f}" in text
            assert f"{row['mean_ae']:.2f}" in text
            if row["param_count"] is not None:
                assert str(row["param_count"]) in text

    def test_quantile_models_report_coverage(self):
        report = benchmark(
            self.small_dataset(),
            ["quantile_tree", "decision_tree"],
            grids=self.small_grids(),
            k=4,
            seed=2,
        )
        by_name = {m.name: m for m in report.models}
        assert by_name["quantile_tree"].coverage_pct is not None
        assert by_name["decision_tree"].coverage_pct is None
        assert by_name["quantile_tree"].bounds is not None

    def test_deterministic_json(self):
        a = benchmark(self.small_dataset(), ["ridge"], grids=self.small_grids(), k=4, seed=2)
        b = benchmark(self.small_dataset(), ["ridge"], grids=self.small_grids(), k=4, seed=2)
        assert a.to_json() == b.to_json()
